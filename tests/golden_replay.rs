//! Golden determinism regression tests.
//!
//! Each scenario replays a seeded trace and digests the *entire*
//! [`SimReport`] (JSON-serialized, FNV-1a hashed). The digests below were
//! captured on the pre-refactor monolithic engine; any engine change that
//! alters event ordering, float arithmetic, or accounting — however
//! subtly — flips the digest and fails loudly. Same seed ⇒ byte-identical
//! report is a hard contract (ROADMAP: deterministic replay).
//!
//! If a change *intentionally* alters simulation semantics, re-capture the
//! digests by running with `GOLDEN_REPLAY_PRINT=1` and explain the change
//! in the commit message:
//!
//! ```text
//! GOLDEN_REPLAY_PRINT=1 cargo test -q --test golden_replay -- --nocapture
//! ```

use elasticflow::cluster::ClusterSpec;
use elasticflow::core::ElasticFlowScheduler;
use elasticflow::perfmodel::Interconnect;
use elasticflow::sched::{EdfScheduler, Scheduler};
use elasticflow::sim::{fnv1a64, FailureSchedule, NodeFailure, SimConfig, SimReport, Simulation};
use elasticflow::telemetry::TelemetrySession;
use elasticflow::trace::TraceConfig;

/// FNV-1a 64-bit over the report's canonical JSON encoding.
fn digest(report: &SimReport) -> u64 {
    let json = serde_json::to_string(report).expect("SimReport serializes");
    fnv1a64(json.as_bytes())
}

fn run_scenario(seed: u64, config: SimConfig, scheduler: &mut dyn Scheduler) -> SimReport {
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(seed).generate(&Interconnect::from_spec(&spec));
    Simulation::new(spec, config).run(&trace, scheduler)
}

fn check(name: &str, expected: u64, report: &SimReport) {
    let got = digest(report);
    if std::env::var("GOLDEN_REPLAY_PRINT").is_ok() {
        println!("golden digest [{name}]: 0x{got:016x}");
    }
    assert_eq!(
        got, expected,
        "{name}: SimReport digest drifted (got 0x{got:016x}, expected 0x{expected:016x}); \
         the engine is no longer replay-identical for the same seed"
    );
}

#[test]
fn elasticflow_replay_digest_is_stable() {
    let report = run_scenario(42, SimConfig::default(), &mut ElasticFlowScheduler::new());
    check("elasticflow", ELASTICFLOW_DIGEST, &report);
}

#[test]
fn edf_replay_digest_is_stable() {
    let report = run_scenario(7, SimConfig::default(), &mut EdfScheduler::new());
    check("edf", EDF_DIGEST, &report);
}

#[test]
fn failure_injection_replay_digest_is_stable() {
    let failures = FailureSchedule::fixed(vec![
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
    ]);
    let config = SimConfig::default().with_failures(failures);
    let report = run_scenario(13, config, &mut ElasticFlowScheduler::new());
    check("failure-injection", FAILURE_DIGEST, &report);
}

/// Poisson failure traffic on every server of the small testbed (an MTBF
/// of one hour, ten-minute repairs, over four hours), plus a fixed pair on
/// server 1 whose repair and next failure land on the same instant. Repair
/// then failure leaves the server down; the reverse order would leave it
/// up, so the digest pins the timeline's tie order as well as its time
/// order.
#[test]
fn poisson_failure_replay_digest_is_stable() {
    let mut events = FailureSchedule::poisson(4, 3_600.0, 600.0, 14_400.0, 24)
        .events()
        .to_vec();
    assert!(events.len() >= 8, "{} failures drawn", events.len());
    events.extend([
        NodeFailure {
            server: 1,
            at: 1_200.0,
            repair_seconds: 1_800.0,
        },
        NodeFailure {
            server: 1,
            at: 3_000.0,
            repair_seconds: 1_800.0,
        },
    ]);
    let config = SimConfig::default().with_failures(FailureSchedule::fixed(events));
    let report = run_scenario(21, config, &mut ElasticFlowScheduler::new());
    check("poisson-failures", POISSON_FAILURE_DIGEST, &report);
}

/// Like [`run_scenario`], but with the full telemetry stack (metrics
/// collector + span tracer) attached through `run_observed`.
fn run_scenario_with_telemetry(
    seed: u64,
    config: SimConfig,
    scheduler: &mut dyn Scheduler,
) -> SimReport {
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(seed).generate(&Interconnect::from_spec(&spec));
    let mut session = TelemetrySession::deterministic();
    Simulation::new(spec, config).run_observed(&trace, scheduler, &mut session.observers())
}

/// Telemetry observers are read-only by contract: every golden scenario
/// must produce the exact same digest with the full telemetry stack
/// attached as without it.
#[test]
fn telemetry_observers_leave_golden_digests_unchanged() {
    let report =
        run_scenario_with_telemetry(42, SimConfig::default(), &mut ElasticFlowScheduler::new());
    check("elasticflow+telemetry", ELASTICFLOW_DIGEST, &report);

    let report = run_scenario_with_telemetry(7, SimConfig::default(), &mut EdfScheduler::new());
    check("edf+telemetry", EDF_DIGEST, &report);

    let failures = FailureSchedule::fixed(vec![
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
    ]);
    let config = SimConfig::default().with_failures(failures);
    let report = run_scenario_with_telemetry(13, config, &mut ElasticFlowScheduler::new());
    check("failure-injection+telemetry", FAILURE_DIGEST, &report);
}

#[test]
fn identical_seeds_give_identical_reports() {
    let a = run_scenario(42, SimConfig::default(), &mut ElasticFlowScheduler::new());
    let b = run_scenario(42, SimConfig::default(), &mut ElasticFlowScheduler::new());
    assert_eq!(digest(&a), digest(&b));
    assert_eq!(a, b);
}

// Captured on the pre-refactor engine (commit 4f2efd6 lineage); see the
// module docs for the re-capture procedure.
const ELASTICFLOW_DIGEST: u64 = 0xfc0e_f318_b192_ca64;
const EDF_DIGEST: u64 = 0x22c5_5c57_dd91_acd6;
const FAILURE_DIGEST: u64 = 0xb3ee_dbf5_627c_2861;
// Pinned from the engine whose failure timeline was a calendar queue; the
// sorted timeline must replay it bit for bit.
const POISSON_FAILURE_DIGEST: u64 = 0x93c5_cd9d_44cb_b60a;
