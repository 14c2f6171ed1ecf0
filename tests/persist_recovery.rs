//! Golden crash-recovery regression tests: the one proof that a
//! persisted simulation survives a crash bit-identically.
//!
//! Each workload is crashed at three cut points (~¼, ~½, ~¾ of its
//! rounds) through the production persistence stack: a
//! [`PersistSession`] checkpoints every [`CHECKPOINT_EVERY`] simulated
//! seconds into a state directory and is hard-killed at the cut without
//! a final checkpoint. A fresh session then recovers the newest periodic
//! snapshot, which lies strictly before the cut, and resumes to
//! completion. Each resume must reproduce the pinned FNV digest of the
//! uninterrupted run. It must also leave the uninterrupted persisted
//! run's state: the crashed run's events up to the snapshot followed by
//! the resumed run's events are the uninterrupted run's event stream,
//! and the state directory holds the same snapshot files, byte for
//! byte. Persistence is *bit-identical*, not merely approximately
//! correct.
//!
//! The seed-42, seed-7 and seed-13 digests are the same constants as
//! `tests/golden_replay.rs`; the seed-2023 failure-injection digest is
//! pinned only here. If an intentional semantic change re-captures them,
//! re-capture here too (`GOLDEN_REPLAY_PRINT=1` prints them).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
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

/// Every event a run emits, with its simulated time.
type Events = Vec<(f64, Event)>;

/// Records every event a run emits.
#[derive(Default)]
struct EventLog(Events);

impl SimObserver for EventLog {
    fn on_event(&mut self, now: f64, event: &Event, _ctx: &SimContext<'_>) {
        self.0.push((now, *event));
    }
}

/// Runs `psession` under an [`EventLog`] and, with `telemetry`, a fresh
/// deterministic telemetry stack, asserts the run hit no persistence
/// error, and returns its outcome with the events it emitted.
fn run_observed(
    psession: &mut PersistSession,
    sim: &Simulation,
    trace: &Trace,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
    telemetry: bool,
) -> (SimOutcome, Events) {
    let mut events = EventLog::default();
    let mut session = telemetry.then(TelemetrySession::deterministic);
    let mut observers: Vec<&mut dyn SimObserver> = vec![&mut events];
    if let Some(s) = session.as_mut() {
        observers.extend(s.observers());
    }
    let outcome = psession
        .run(sim, trace, make_scheduler().as_mut(), &mut observers)
        .expect("the state directory belongs to this run");
    drop(observers);
    assert!(psession.first_error().is_none());
    assert_eq!(psession.stats().failures, 0, "a snapshot write failed");
    (outcome, events.0)
}

/// Every file in the state directory `root`, by name, with its bytes.
/// Each must be a snapshot file: the simulator keeps nothing else.
fn state_files(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(root).expect("list state dir") {
        let entry = entry.expect("state dir entry");
        let name = entry.file_name().into_string().expect("UTF-8 file name");
        assert!(
            name.starts_with("snapshot-") && name.ends_with(".efsnap"),
            "{}: unexpected file {name}",
            root.display()
        );
        files.insert(name, std::fs::read(entry.path()).expect("read snapshot"));
    }
    files
}

/// What an uninterrupted persisted run emitted and left on disk.
struct Uninterrupted {
    events: Events,
    files: BTreeMap<String, Vec<u8>>,
}

fn uninterrupted(
    sim: &Simulation,
    trace: &Trace,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
) -> Uninterrupted {
    let root = temp_dir();
    let mut psession =
        PersistSession::begin(&root, CHECKPOINT_EVERY, false).expect("open state dir");
    let (outcome, events) = run_observed(&mut psession, sim, trace, make_scheduler, false);
    assert!(outcome.completed);
    drop(psession);
    Uninterrupted {
        events,
        files: state_files(&root),
    }
}

/// A run crashed at a cut and resumed to completion.
struct Resumed {
    report: SimReport,
    /// Round of the snapshot the resume started from.
    round: u64,
    /// Events of the crashed run, then of the resumed one.
    crashed_events: Events,
    resumed_events: Events,
    /// The state directory after the resume.
    files: BTreeMap<String, Vec<u8>>,
}

/// Crash a persisted run at `cut`, recover it in a fresh session and
/// resume to completion.
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
) -> Resumed {
    let root = temp_dir();

    // Crash half: periodic checkpoints, then a hard stop at `cut`.
    let mut psession = PersistSession::begin(&root, CHECKPOINT_EVERY, false)
        .expect("open state dir")
        .kill_at_round(cut);
    let (outcome, crashed_events) =
        run_observed(&mut psession, sim, trace, make_scheduler, telemetry);
    assert!(!outcome.completed, "cut round {cut} never fired");
    assert!(
        psession.stats().checkpoints > 0,
        "no checkpoint before round {cut}"
    );
    drop(psession);

    // Resume half, in a "new process": everything reloaded from disk.
    let mut psession =
        PersistSession::begin(&root, CHECKPOINT_EVERY, true).expect("recovery session");
    let round = psession
        .snapshot()
        .expect("recovery found a snapshot")
        .round;
    assert!(
        round < cut,
        "resumed from round {round}, not before the cut at {cut}"
    );
    let (outcome, resumed_events) =
        run_observed(&mut psession, sim, trace, make_scheduler, telemetry);
    assert!(outcome.completed, "resumed run stopped early");
    drop(psession);
    Resumed {
        report: outcome.report,
        round,
        crashed_events,
        resumed_events,
        files: state_files(&root),
    }
}

/// Asserts that a crash + resume left the uninterrupted run's state.
///
/// * **Event stream.** With `k` = the uninterrupted run's events minus
///   the resumed run's, the crashed run emitted more than `k` events (a
///   tail past the snapshot was lost and re-simulated), and its first
///   `k` events followed by the resumed run's are the uninterrupted
///   stream.
/// * **Files on disk.** The state directory holds the same snapshot
///   files as the uninterrupted run's, byte for byte.
fn assert_state_matches(full: &Uninterrupted, resumed: &Resumed, what: &str) {
    let k = full
        .events
        .len()
        .checked_sub(resumed.resumed_events.len())
        .unwrap_or_else(|| panic!("{what}: the resumed run emitted more events than a whole run"));
    assert!(
        resumed.crashed_events.len() > k,
        "{what}: the crashed run emitted nothing past the snapshot it resumed from"
    );
    assert!(
        resumed.crashed_events[..k] == full.events[..k]
            && resumed.resumed_events[..] == full.events[k..],
        "{what}: crashed prefix + resumed events differ from the uninterrupted stream"
    );
    let names = |files: &BTreeMap<String, Vec<u8>>| files.keys().cloned().collect::<Vec<_>>();
    assert_eq!(
        names(&resumed.files),
        names(&full.files),
        "{what}: a different set of snapshot files"
    );
    assert!(
        resumed.files == full.files,
        "{what}: snapshot files differ from the uninterrupted run's"
    );
}

/// Crashes the workload at ~¼, ~½ and ~¾ of its rounds; every resume
/// must reproduce `expected` and the uninterrupted run's state, and the
/// three must resume from three different snapshots.
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
    let full = uninterrupted(sim, trace, make_scheduler);
    let mut resumed_rounds = Vec::new();
    for cut in [rounds / 4, rounds / 2, 3 * rounds / 4] {
        let resumed = cut_and_resume(sim, trace, make_scheduler, cut, telemetry);
        assert_eq!(
            digest(&resumed.report),
            expected,
            "{name}: resume from cut round {cut} broke the golden digest"
        );
        assert_state_matches(&full, &resumed, &format!("{name}, cut round {cut}"));
        assert!(
            !resumed_rounds.contains(&resumed.round),
            "{name}: two cuts resumed from the snapshot of round {}",
            resumed.round
        );
        resumed_rounds.push(resumed.round);
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
/// the resumed digest, nor the events and snapshot files it leaves.
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

/// Crash + resume leaves the uninterrupted persisted run's state: its
/// event stream and its snapshot files.
#[test]
fn recovered_state_is_identical_to_uninterrupted() {
    let (sim, trace) = scenario(7);
    let make: &dyn Fn() -> Box<dyn Scheduler> = &|| Box::new(EdfScheduler::new());
    let rounds = sim.run(&trace, make().as_mut()).timeline().len() as u64;
    let resumed = cut_and_resume(&sim, &trace, make, rounds / 2, false);
    let full = uninterrupted(&sim, &trace, make);
    assert_state_matches(&full, &resumed, "edf, mid-run cut");
}

// Same constants as tests/golden_replay.rs — bit-identical recovery means
// the *same* digests, not freshly captured ones.
const ELASTICFLOW_DIGEST: u64 = 0xfc0e_f318_b192_ca64;
const EDF_DIGEST: u64 = 0x22c5_5c57_dd91_acd6;
const FAILURE_DIGEST: u64 = 0xb3ee_dbf5_627c_2861;
// The failure-injection scenario at the `experiments` CLI's default seed.
const FAILURE_2023_DIGEST: u64 = 0xe955_2ab6_0d8f_c8b4;
