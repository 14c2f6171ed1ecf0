//! Golden crash-recovery regression tests.
//!
//! Each golden-replay workload (see `tests/golden_replay.rs`) is split at
//! three cut points: the run is checkpointed to disk through the real
//! persistence stack (snapshot file + write-ahead log under a
//! [`StateDir`]), hard-stopped, recovered in a fresh session, and resumed
//! to completion. The resumed [`SimReport`] must reproduce the exact
//! pre-captured FNV digest of the uninterrupted run — persistence is
//! *bit-identical*, not merely approximately correct.
//!
//! The digests below are the same constants as `tests/golden_replay.rs`;
//! if an intentional semantic change re-captures those, re-capture here
//! too (`GOLDEN_REPLAY_PRINT=1` prints them).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use elasticflow::cluster::ClusterSpec;
use elasticflow::core::ElasticFlowScheduler;
use elasticflow::perfmodel::Interconnect;
use elasticflow::persist::records::read_log;
use elasticflow::persist::store::WAL_KIND;
use elasticflow::persist::{PersistSession, StateDir, StoredSnapshot, PERSIST_VERSION};
use elasticflow::sched::{EdfScheduler, Scheduler};
use elasticflow::sim::{
    fnv1a64, Event, FailureSchedule, NodeFailure, RunDirective, SimConfig, SimContext,
    SimController, SimObserver, SimReport, SimSnapshot, Simulation,
};
use elasticflow::telemetry::TelemetrySession;
use elasticflow::trace::{Trace, TraceConfig};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "elasticflow-persist-recovery-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn digest(report: &SimReport) -> u64 {
    let json = serde_json::to_string(report).expect("SimReport serializes");
    fnv1a64(json.as_bytes())
}

fn scenario(seed: u64) -> (Simulation, Trace) {
    scenario_with(seed, SimConfig::default())
}

fn scenario_with(seed: u64, config: SimConfig) -> (Simulation, Trace) {
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(seed).generate(&Interconnect::from_spec(&spec));
    (Simulation::new(spec, config), trace)
}

fn failure_config() -> SimConfig {
    SimConfig::default().with_failures(FailureSchedule::fixed(vec![
        NodeFailure {
            server: 1,
            at: 1_200.0,
            repair_seconds: 3_600.0,
        },
        NodeFailure {
            server: 0,
            at: 5_400.0,
            repair_seconds: 1_800.0,
        },
    ]))
}

/// Writes the snapshot cut at `cut_round` through the real on-disk
/// persistence stack, stamped with the `wal_records` the crashed run's
/// log holds, then stops — the checkpoint half of each crash.
struct DiskCutter {
    state: StateDir,
    wal_records: u64,
    cut_round: u64,
    wrote: bool,
}

impl SimController for DiskCutter {
    fn directive(&mut self, _now: f64, round: u64) -> RunDirective {
        if round == self.cut_round {
            RunDirective::CheckpointThenStop
        } else {
            RunDirective::Continue
        }
    }

    fn on_snapshot(&mut self, snapshot: SimSnapshot) {
        let stored = StoredSnapshot {
            version: PERSIST_VERSION,
            wal_records: self.wal_records,
            sim: snapshot,
        };
        self.state
            .snapshots()
            .write_next(&stored)
            .expect("snapshot write");
        self.wrote = true;
    }
}

/// Counts the events a run emits — the number of records a WAL tap on
/// the same run would have appended.
#[derive(Default)]
struct EventCount(u64);

impl SimObserver for EventCount {
    fn on_event(&mut self, _now: f64, _event: &Event, _ctx: &SimContext<'_>) {
        self.0 += 1;
    }
}

/// Crash at `cut_round` (checkpointing through disk), recover in a fresh
/// session, resume to completion, and return the resumed report with the
/// state directory it left.
///
/// The crash half is two runs to the same round: a [`PersistSession`]
/// killed there leaves the write-ahead log, and a [`DiskCutter`] run
/// writes the snapshot of that round, stamped with the log's record
/// count; the cutter run's own event count must agree with it.
///
/// With `telemetry`, a fresh deterministic telemetry stack is attached
/// to each of the three runs — the killed session, the cutter and the
/// resume — proving observers stay read-only across the persistence
/// seam too: the snapshot the resume loads comes from an observed run.
fn cut_and_resume(
    sim: &Simulation,
    trace: &Trace,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
    cut_round: u64,
    telemetry: bool,
) -> (SimReport, PathBuf) {
    let root = temp_dir();

    // Crash half: a persisted run hard-stopped at `cut_round`, then the
    // snapshot of that round written beside the log it left.
    let wal_records = {
        let mut psession = PersistSession::begin(&root, f64::INFINITY, false)
            .expect("open state dir")
            .kill_at_round(cut_round);
        let mut session = telemetry.then(TelemetrySession::deterministic);
        let mut observers: Vec<&mut dyn SimObserver> = Vec::new();
        if let Some(s) = session.as_mut() {
            observers.extend(s.observers());
        }
        let mut scheduler = make_scheduler();
        let outcome = psession
            .run(sim, trace, scheduler.as_mut(), &mut observers)
            .expect("a fresh run has no snapshot to reject");
        assert!(!outcome.completed, "cut round {cut_round} never fired");
        assert!(psession.first_error().is_none());
        psession.stats().wal_records
    };
    let state = StateDir::open(&root).expect("open state dir");
    let logged = read_log(WAL_KIND, state.wal_path()).expect("read WAL");
    assert_eq!(logged.payloads.len() as u64, wal_records);
    let mut cutter = DiskCutter {
        state,
        wal_records,
        cut_round,
        wrote: false,
    };
    let mut count = EventCount::default();
    let mut session = telemetry.then(TelemetrySession::deterministic);
    let mut observers: Vec<&mut dyn SimObserver> = vec![&mut count];
    if let Some(s) = session.as_mut() {
        observers.extend(s.observers());
    }
    let mut scheduler = make_scheduler();
    let outcome = sim.run_controlled(trace, scheduler.as_mut(), &mut observers, &mut cutter);
    drop(observers);
    assert!(!outcome.completed, "cut round {cut_round} never fired");
    assert!(cutter.wrote, "no snapshot was written at round {cut_round}");
    assert_eq!(
        count.0, wal_records,
        "the snapshot's run and the killed session disagree on the log position"
    );

    // Resume half, in a "new process": everything reloaded from disk.
    let mut psession = PersistSession::begin(&root, f64::INFINITY, true).expect("recovery session");
    let snap = psession.snapshot().expect("recovery found the snapshot");
    assert_eq!(snap.round, cut_round);
    let mut session = telemetry.then(TelemetrySession::deterministic);
    let mut observers: Vec<&mut dyn SimObserver> = Vec::new();
    if let Some(s) = session.as_mut() {
        observers.extend(s.observers());
    }
    let mut scheduler = make_scheduler();
    let outcome = psession
        .run(sim, trace, scheduler.as_mut(), &mut observers)
        .expect("snapshot resumes");
    assert!(outcome.completed, "resumed run stopped early");
    (outcome.report, root)
}

/// The write-ahead log of an uninterrupted persisted run.
fn uninterrupted_wal(sim: &Simulation, trace: &Trace, scheduler: &mut dyn Scheduler) -> Vec<u8> {
    let root = temp_dir();
    let mut session = PersistSession::begin(&root, f64::INFINITY, false).expect("open state dir");
    let outcome = session
        .run(sim, trace, scheduler, &mut [])
        .expect("a fresh run has no snapshot to reject");
    assert!(outcome.completed);
    drop(session);
    std::fs::read(root.join("events.wal")).expect("read WAL")
}

/// Three cut points spread across the run: ~¼, ~½, ~¾.
fn cut_points(
    sim: &Simulation,
    trace: &Trace,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
) -> (u64, [u64; 3]) {
    let baseline = sim.run(trace, make_scheduler().as_mut());
    let rounds = baseline.timeline().len() as u64;
    assert!(rounds >= 8, "scenario too short to cut three ways");
    (digest(&baseline), [rounds / 4, rounds / 2, 3 * rounds / 4])
}

fn assert_golden_across_cuts(
    sim: &Simulation,
    trace: &Trace,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
    expected: u64,
    name: &str,
) {
    let (baseline_digest, cuts) = cut_points(sim, trace, make_scheduler);
    if std::env::var("GOLDEN_REPLAY_PRINT").is_ok() {
        println!("golden digest [{name}]: 0x{baseline_digest:016x}");
    }
    assert_eq!(
        baseline_digest, expected,
        "{name}: baseline digest drifted before any persistence was involved"
    );
    for cut in cuts {
        let (resumed, _) = cut_and_resume(sim, trace, make_scheduler, cut, false);
        assert_eq!(
            digest(&resumed),
            expected,
            "{name}: resume from cut round {cut} broke the golden digest"
        );
    }
}

#[test]
fn elasticflow_recovery_reproduces_the_golden_digest() {
    let (sim, trace) = scenario(42);
    assert_golden_across_cuts(
        &sim,
        &trace,
        &|| Box::new(ElasticFlowScheduler::new()),
        ELASTICFLOW_DIGEST,
        "elasticflow",
    );
}

#[test]
fn edf_recovery_reproduces_the_golden_digest() {
    let (sim, trace) = scenario(7);
    assert_golden_across_cuts(
        &sim,
        &trace,
        &|| Box::new(EdfScheduler::new()),
        EDF_DIGEST,
        "edf",
    );
}

#[test]
fn failure_injection_recovery_reproduces_the_golden_digest() {
    let (sim, trace) = scenario_with(13, failure_config());
    assert_golden_across_cuts(
        &sim,
        &trace,
        &|| Box::new(ElasticFlowScheduler::new()),
        FAILURE_DIGEST,
        "failure-injection",
    );
}

/// Telemetry attached to every run of the crash and the resume must not
/// perturb the resumed digest, nor the write-ahead log it leaves.
#[test]
fn recovery_with_telemetry_attached_is_still_golden() {
    let make: &dyn Fn() -> Box<dyn Scheduler> = &|| Box::new(ElasticFlowScheduler::new());
    for (seed, config, expected) in [
        (42, SimConfig::default(), ELASTICFLOW_DIGEST),
        (13, failure_config(), FAILURE_DIGEST),
    ] {
        let (sim, trace) = scenario_with(seed, config);
        let (_, cuts) = cut_points(&sim, &trace, make);
        let (resumed, root) = cut_and_resume(&sim, &trace, make, cuts[1], true);
        assert_eq!(digest(&resumed), expected);
        assert_eq!(
            std::fs::read(root.join("events.wal")).unwrap(),
            uninterrupted_wal(&sim, &trace, make().as_mut()),
            "seed {seed}: observed crash+resume log differs from the uninterrupted one"
        );
    }
}

/// The write-ahead log left after crash + resume is byte-identical to an
/// uninterrupted persisted run's log.
#[test]
fn recovered_wal_is_byte_identical_to_uninterrupted() {
    let (sim, trace) = scenario(7);
    let make: &dyn Fn() -> Box<dyn Scheduler> = &|| Box::new(EdfScheduler::new());
    let (_, cuts) = cut_points(&sim, &trace, make);
    let (_, root) = cut_and_resume(&sim, &trace, make, cuts[1], false);

    assert_eq!(
        std::fs::read(root.join("events.wal")).unwrap(),
        uninterrupted_wal(&sim, &trace, &mut EdfScheduler::new()),
        "crash+resume write-ahead log differs from the uninterrupted one"
    );
}

// Same constants as tests/golden_replay.rs — bit-identical recovery means
// the *same* digests, not freshly captured ones.
const ELASTICFLOW_DIGEST: u64 = 0xfc0e_f318_b192_ca64;
const EDF_DIGEST: u64 = 0x22c5_5c57_dd91_acd6;
const FAILURE_DIGEST: u64 = 0xb3ee_dbf5_627c_2861;
