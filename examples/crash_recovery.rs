//! Crash recovery tour: checkpoint a running simulation to disk, "crash"
//! it mid-flight, recover from the state directory in a fresh session,
//! and prove the resumed run is bit-identical to an uninterrupted one.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```
//!
//! State lands in `target/crash_recovery/`: sequenced `snapshot-*.efsnap`
//! files, the newest two kept. Each pass starts fresh: the crash phase
//! clears the directory's old snapshots before it runs.

use elasticflow::cluster::ClusterSpec;
use elasticflow::core::ElasticFlowScheduler;
use elasticflow::perfmodel::Interconnect;
use elasticflow::persist::PersistSession;
use elasticflow::sim::{fnv1a64, SimConfig, Simulation};
use elasticflow::trace::TraceConfig;

fn main() {
    // The paper's small testbed with a 25-job seeded trace.
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(42).generate(&Interconnect::from_spec(&spec));
    let sim = Simulation::new(spec, SimConfig::default());

    // Ground truth: the uninterrupted run.
    let baseline = sim.run(&trace, &mut ElasticFlowScheduler::new());
    let baseline_digest = digest_of(&baseline);
    let rounds = baseline.timeline().len() as u64;
    println!("baseline: {rounds} rounds, digest 0x{baseline_digest:016x}");

    // Phase 1: run with persistence attached — a snapshot every 10
    // simulated minutes — and hard-kill the run halfway through (no
    // goodbye checkpoint, just like a real crash).
    let state_dir = std::path::Path::new("target/crash_recovery");
    let mut session = PersistSession::begin(state_dir, 600.0, false)
        .expect("open state directory")
        .kill_at_round(rounds / 2);
    let outcome = session
        .run(&sim, &trace, &mut ElasticFlowScheduler::new(), &mut [])
        .expect("a fresh run has no snapshot to reject");
    assert!(!outcome.completed, "the kill should interrupt the run");
    let stats = session.stats();
    println!(
        "crashed at round {}: {} snapshot(s) written",
        rounds / 2,
        stats.checkpoints
    );
    drop(session);

    // Phase 2: a "new process" — recover the newest valid snapshot and
    // re-simulate from it to completion.
    let mut session = PersistSession::begin(state_dir, 600.0, true).expect("recover state");
    let snapshot = session.snapshot().expect("a snapshot survived the crash");
    println!(
        "recovered snapshot from round {} (t = {:.0} s)",
        snapshot.round, snapshot.now
    );
    let outcome = session
        .run(&sim, &trace, &mut ElasticFlowScheduler::new(), &mut [])
        .expect("snapshot resumes");
    assert!(outcome.completed);

    let resumed_digest = digest_of(&outcome.report);
    println!("resumed:  digest 0x{resumed_digest:016x}");
    assert_eq!(
        baseline_digest, resumed_digest,
        "recovery must be bit-identical"
    );
    println!("recovery is bit-identical to the uninterrupted run ✓");
}

fn digest_of(report: &elasticflow::sim::SimReport) -> u64 {
    let json = serde_json::to_string(report).expect("report serializes");
    fnv1a64(json.as_bytes())
}
