//! Golden crash-recovery regression tests: the one proof that a
//! persisted simulation survives a crash bit-identically.
//!
//! Each workload is crashed at three cut points (~¼, ~½, ~¾ of its
//! rounds) through the production persistence stack: a
//! [`PersistSession`] checkpoints every [`CHECKPOINT_EVERY`] simulated
//! seconds into a state directory, streams every event into its
//! write-ahead log, and is hard-killed at the cut without a final
//! checkpoint. A fresh session then recovers the newest periodic
//! snapshot, which lies strictly before the cut, rolls the log's
//! non-empty tail back to it, and resumes to completion. Each resume
//! must reproduce the pinned FNV digest of the uninterrupted run and
//! leave a write-ahead log byte-identical to an uninterrupted persisted
//! run's. Persistence is *bit-identical*, not merely approximately
//! correct.
//!
//! The seed-42, seed-7 and seed-13 digests are the same constants as
//! `tests/golden_replay.rs`; the seed-2023 failure-injection digest is
//! pinned only here. If an intentional semantic change re-captures them,
//! re-capture here too (`GOLDEN_REPLAY_PRINT=1` prints them).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use elasticflow::cluster::ClusterSpec;
use elasticflow::core::ElasticFlowScheduler;
use elasticflow::perfmodel::Interconnect;
use elasticflow::persist::PersistSession;
use elasticflow::sched::{EdfScheduler, Scheduler};
use elasticflow::sim::{
    fnv1a64, Event, FailureSchedule, NodeFailure, SimConfig, SimContext, SimObserver, SimOutcome,
    SimReport, Simulation,
};
use elasticflow::telemetry::TelemetrySession;
use elasticflow::trace::{Trace, TraceConfig};

/// Simulated seconds between periodic snapshots: the `experiments`
/// CLI's `--checkpoint-every` default.
const CHECKPOINT_EVERY: f64 = 600.0;

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

/// Counts the events a run emits — the number of records its WAL tap
/// must have appended.
#[derive(Default)]
struct EventCount(u64);

impl SimObserver for EventCount {
    fn on_event(&mut self, _now: f64, _event: &Event, _ctx: &SimContext<'_>) {
        self.0 += 1;
    }
}

/// Runs `psession` under an [`EventCount`] and, with `telemetry`, a fresh
/// deterministic telemetry stack, then asserts the run hit no
/// persistence error and its WAL tap logged every event exactly once.
fn run_observed(
    psession: &mut PersistSession,
    sim: &Simulation,
    trace: &Trace,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
    telemetry: bool,
) -> SimOutcome {
    let mut count = EventCount::default();
    let mut session = telemetry.then(TelemetrySession::deterministic);
    let mut observers: Vec<&mut dyn SimObserver> = vec![&mut count];
    if let Some(s) = session.as_mut() {
        observers.extend(s.observers());
    }
    let outcome = psession
        .run(sim, trace, make_scheduler().as_mut(), &mut observers)
        .expect("the state directory belongs to this run");
    drop(observers);
    assert!(psession.first_error().is_none());
    assert_eq!(
        count.0,
        psession.stats().wal_records,
        "the WAL tap did not log every event exactly once"
    );
    outcome
}

/// Crash a persisted run at `cut`, recover it in a fresh session, resume
/// to completion, and return the resumed report, the state directory it
/// left and the round of the snapshot it resumed from.
///
/// With `telemetry`, a fresh deterministic telemetry stack is attached
/// to both runs, proving observers stay read-only across the persistence
/// seam too: the snapshot the resume loads comes from an observed run.
fn cut_and_resume(
    sim: &Simulation,
    trace: &Trace,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
    cut: u64,
    telemetry: bool,
) -> (SimReport, PathBuf, u64) {
    let root = temp_dir();

    // Crash half: periodic checkpoints, then a hard stop at `cut`.
    let mut psession = PersistSession::begin(&root, CHECKPOINT_EVERY, false)
        .expect("open state dir")
        .kill_at_round(cut);
    let outcome = run_observed(&mut psession, sim, trace, make_scheduler, telemetry);
    assert!(!outcome.completed, "cut round {cut} never fired");
    let stats = psession.stats();
    assert!(stats.checkpoints > 0, "no checkpoint before round {cut}");
    assert_eq!(stats.failures, 0, "a snapshot write failed");
    let crashed_records = stats.wal_records;
    drop(psession);

    // Resume half, in a "new process": everything reloaded from disk.
    let mut psession =
        PersistSession::begin(&root, CHECKPOINT_EVERY, true).expect("recovery session");
    let recovered = &psession
        .recovered()
        .expect("recovery found a snapshot")
        .snapshot;
    let (resumed_round, kept_records) = (recovered.sim.round, recovered.wal_records);
    assert!(
        resumed_round < cut,
        "resumed from round {resumed_round}, not before the cut at {cut}"
    );
    assert!(
        kept_records < crashed_records,
        "cut {cut}: no WAL tail past the snapshot was rolled back"
    );
    let outcome = run_observed(&mut psession, sim, trace, make_scheduler, telemetry);
    assert!(outcome.completed, "resumed run stopped early");
    (outcome.report, root, resumed_round)
}

/// The write-ahead log of an uninterrupted persisted run.
fn uninterrupted_wal(
    sim: &Simulation,
    trace: &Trace,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
) -> Vec<u8> {
    let root = temp_dir();
    let mut psession =
        PersistSession::begin(&root, CHECKPOINT_EVERY, false).expect("open state dir");
    assert!(run_observed(&mut psession, sim, trace, make_scheduler, false).completed);
    drop(psession);
    std::fs::read(root.join("events.wal")).expect("read WAL")
}

/// Crashes the workload at ~¼, ~½ and ~¾ of its rounds; every resume
/// must reproduce `expected` and the uninterrupted write-ahead log, and
/// the three must resume from three different snapshots.
fn assert_golden_across_cuts(
    sim: &Simulation,
    trace: &Trace,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
    expected: u64,
    name: &str,
    telemetry: bool,
) {
    let baseline = sim.run(trace, make_scheduler().as_mut());
    let baseline_digest = digest(&baseline);
    if std::env::var("GOLDEN_REPLAY_PRINT").is_ok() {
        println!("golden digest [{name}]: 0x{baseline_digest:016x}");
    }
    assert_eq!(
        baseline_digest, expected,
        "{name}: baseline digest drifted before any persistence was involved"
    );
    let rounds = baseline.timeline().len() as u64;
    assert!(rounds >= 8, "{name}: scenario too short to cut three ways");
    let full_wal = uninterrupted_wal(sim, trace, make_scheduler);
    let mut resumed_rounds = Vec::new();
    for cut in [rounds / 4, rounds / 2, 3 * rounds / 4] {
        let (resumed, root, resumed_round) =
            cut_and_resume(sim, trace, make_scheduler, cut, telemetry);
        assert_eq!(
            digest(&resumed),
            expected,
            "{name}: resume from cut round {cut} broke the golden digest"
        );
        assert!(
            std::fs::read(root.join("events.wal")).expect("read WAL") == full_wal,
            "{name}: crash at round {cut} + resume left a different write-ahead log"
        );
        assert!(
            !resumed_rounds.contains(&resumed_round),
            "{name}: two cuts resumed from the snapshot of round {resumed_round}"
        );
        resumed_rounds.push(resumed_round);
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
        false,
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
        false,
    );
}

#[test]
fn failure_injection_recovery_reproduces_the_golden_digest() {
    for (seed, expected) in [(13, FAILURE_DIGEST), (2023, FAILURE_2023_DIGEST)] {
        let (sim, trace) = scenario_with(seed, failure_config());
        assert_golden_across_cuts(
            &sim,
            &trace,
            &|| Box::new(ElasticFlowScheduler::new()),
            expected,
            &format!("failure-injection seed {seed}"),
            false,
        );
    }
}

/// Telemetry attached to the crashed run and the resume must not perturb
/// the resumed digest, nor the write-ahead log it leaves.
#[test]
fn recovery_with_telemetry_attached_is_still_golden() {
    for (seed, config, expected) in [
        (42, SimConfig::default(), ELASTICFLOW_DIGEST),
        (13, failure_config(), FAILURE_DIGEST),
    ] {
        let (sim, trace) = scenario_with(seed, config);
        assert_golden_across_cuts(
            &sim,
            &trace,
            &|| Box::new(ElasticFlowScheduler::new()),
            expected,
            &format!("telemetry seed {seed}"),
            true,
        );
    }
}

/// The write-ahead log left after crash + resume is byte-identical to an
/// uninterrupted persisted run's log.
#[test]
fn recovered_wal_is_byte_identical_to_uninterrupted() {
    let (sim, trace) = scenario(7);
    let make: &dyn Fn() -> Box<dyn Scheduler> = &|| Box::new(EdfScheduler::new());
    let rounds = sim.run(&trace, make().as_mut()).timeline().len() as u64;
    let (_, root, _) = cut_and_resume(&sim, &trace, make, rounds / 2, false);

    assert!(
        std::fs::read(root.join("events.wal")).expect("read WAL")
            == uninterrupted_wal(&sim, &trace, make),
        "crash+resume write-ahead log differs from the uninterrupted one"
    );
}

// Same constants as tests/golden_replay.rs — bit-identical recovery means
// the *same* digests, not freshly captured ones.
const ELASTICFLOW_DIGEST: u64 = 0xfc0e_f318_b192_ca64;
const EDF_DIGEST: u64 = 0x22c5_5c57_dd91_acd6;
const FAILURE_DIGEST: u64 = 0xb3ee_dbf5_627c_2861;
// The failure-injection scenario at the `experiments` CLI's default seed.
const FAILURE_2023_DIGEST: u64 = 0xe955_2ab6_0d8f_c8b4;
