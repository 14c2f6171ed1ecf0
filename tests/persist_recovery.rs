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

use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use elasticflow::cluster::ClusterSpec;
use elasticflow::core::ElasticFlowScheduler;
use elasticflow::perfmodel::Interconnect;
use elasticflow::persist::{
    PersistSession, StateDir, StoredSnapshot, WalObserver, WalWriter, PERSIST_VERSION,
};
use elasticflow::sched::{EdfScheduler, Scheduler};
use elasticflow::sim::{
    fnv1a64, FailureSchedule, NodeFailure, RunDirective, SimConfig, SimController, SimObserver,
    SimReport, SimSnapshot, Simulation,
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
/// persistence stack, then stops — the crash half of each test.
struct DiskCutter {
    state: StateDir,
    wal_count: Rc<Cell<u64>>,
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
            wal_records: self.wal_count.get(),
            sim: snapshot,
        };
        self.state
            .snapshots()
            .write_next(&stored)
            .expect("snapshot write");
        self.wrote = true;
    }
}

/// Crash at `cut_round` (checkpointing through disk), recover in a fresh
/// session, resume to completion, and return the resumed report.
///
/// With `telemetry`, a full deterministic telemetry stack is attached to
/// *both* the crash and resume halves, proving observers stay read-only
/// across the persistence seam too.
fn cut_and_resume(
    sim: &Simulation,
    trace: &Trace,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
    cut_round: u64,
    telemetry: bool,
) -> SimReport {
    let root = temp_dir();
    let state = StateDir::open(&root).expect("open state dir");

    // Crash half.
    {
        let wal_count = Rc::new(Cell::new(0));
        let mut wal = WalObserver::new(
            WalWriter::create(state.wal_path()).expect("create WAL"),
            Rc::clone(&wal_count),
        );
        let mut cutter = DiskCutter {
            state: state.clone(),
            wal_count,
            cut_round,
            wrote: false,
        };
        let mut session = telemetry.then(TelemetrySession::deterministic);
        let mut observers: Vec<&mut dyn SimObserver> = vec![&mut wal];
        if let Some(s) = session.as_mut() {
            observers.extend(s.observers());
        }
        let mut scheduler = make_scheduler();
        let outcome = sim.run_controlled(trace, scheduler.as_mut(), &mut observers, &mut cutter);
        assert!(!outcome.completed, "cut round {cut_round} never fired");
        assert!(cutter.wrote, "no snapshot was written at round {cut_round}");
        assert!(wal.last_error().is_none());
    }

    // Resume half, in a "new process": everything reloaded from disk.
    let mut psession = PersistSession::begin(&root, f64::INFINITY, true).expect("recovery session");
    let snap = psession
        .snapshot()
        .cloned()
        .expect("recovery found the snapshot");
    assert_eq!(snap.round, cut_round);
    let mut session = telemetry.then(TelemetrySession::deterministic);
    let (wal, ckpt) = psession.parts();
    let mut observers: Vec<&mut dyn SimObserver> = vec![wal];
    if let Some(s) = session.as_mut() {
        observers.extend(s.observers());
    }
    let mut scheduler = make_scheduler();
    let outcome = sim
        .resume_controlled(trace, scheduler.as_mut(), &mut observers, ckpt, &snap)
        .expect("snapshot resumes");
    assert!(outcome.completed, "resumed run stopped early");
    outcome.report
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
        let resumed = cut_and_resume(sim, trace, make_scheduler, cut, false);
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

/// Telemetry attached to both halves of the crash must not perturb the
/// resumed digest either.
#[test]
fn recovery_with_telemetry_attached_is_still_golden() {
    let (sim, trace) = scenario(42);
    let make: &dyn Fn() -> Box<dyn Scheduler> = &|| Box::new(ElasticFlowScheduler::new());
    let (_, cuts) = cut_points(&sim, &trace, make);
    let resumed = cut_and_resume(&sim, &trace, make, cuts[1], true);
    assert_eq!(digest(&resumed), ELASTICFLOW_DIGEST);

    let (sim, trace) = scenario_with(13, failure_config());
    let (_, cuts) = cut_points(&sim, &trace, make);
    let resumed = cut_and_resume(&sim, &trace, make, cuts[1], true);
    assert_eq!(digest(&resumed), FAILURE_DIGEST);
}

/// The write-ahead log left after crash + resume is byte-identical to an
/// uninterrupted persisted run's log.
#[test]
fn recovered_wal_is_byte_identical_to_uninterrupted() {
    let (sim, trace) = scenario(7);

    let full_root = temp_dir();
    let mut full = PersistSession::begin(&full_root, f64::INFINITY, false).unwrap();
    {
        let (wal, ckpt) = full.parts();
        let outcome = sim.run_controlled(&trace, &mut EdfScheduler::new(), &mut [wal], ckpt);
        assert!(outcome.completed);
    }
    drop(full);

    let make: &dyn Fn() -> Box<dyn Scheduler> = &|| Box::new(EdfScheduler::new());
    let (_, cuts) = cut_points(&sim, &trace, make);
    let cut = cuts[1];

    // cut_and_resume writes into its own directory; replicate it here so
    // we can inspect the WAL afterwards.
    let root = temp_dir();
    let state = StateDir::open(&root).unwrap();
    {
        let wal_count = Rc::new(Cell::new(0));
        let mut wal = WalObserver::new(
            WalWriter::create(state.wal_path()).unwrap(),
            Rc::clone(&wal_count),
        );
        let mut cutter = DiskCutter {
            state: state.clone(),
            wal_count,
            cut_round: cut,
            wrote: false,
        };
        let _ = sim.run_controlled(
            &trace,
            &mut EdfScheduler::new(),
            &mut [&mut wal],
            &mut cutter,
        );
    }
    let mut psession = PersistSession::begin(&root, f64::INFINITY, true).unwrap();
    let snap = psession.snapshot().cloned().unwrap();
    {
        let (wal, ckpt) = psession.parts();
        let outcome = sim
            .resume_controlled(&trace, &mut EdfScheduler::new(), &mut [wal], ckpt, &snap)
            .unwrap();
        assert!(outcome.completed);
    }
    drop(psession);

    assert_eq!(
        std::fs::read(state.wal_path()).unwrap(),
        std::fs::read(full_root.join("events.wal")).unwrap(),
        "crash+resume write-ahead log differs from the uninterrupted one"
    );
}

// Same constants as tests/golden_replay.rs — bit-identical recovery means
// the *same* digests, not freshly captured ones.
const ELASTICFLOW_DIGEST: u64 = 0xfc0e_f318_b192_ca64;
const EDF_DIGEST: u64 = 0x22c5_5c57_dd91_acd6;
const FAILURE_DIGEST: u64 = 0xb3ee_dbf5_627c_2861;
