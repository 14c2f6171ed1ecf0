//! Full-simulation runs under the runtime invariant auditor.
//!
//! In a debug build (plain `cargo test`) every replan is cross-checked by
//! `elasticflow-sim`'s auditor (structural cluster/job-table invariants)
//! and `elasticflow-core`'s (reservation-soundness of the ElasticFlow
//! planner); any violation panics with a structured diagnostic, failing
//! these tests.

use elasticflow::cluster::ClusterSpec;
use elasticflow::core::{EdfWithAdmission, ElasticFlowScheduler};
use elasticflow::perfmodel::Interconnect;
use elasticflow::sched::{EdfScheduler, Scheduler};
use elasticflow::sim::{FailureSchedule, NodeFailure, SimConfig, Simulation};
use elasticflow::trace::TraceConfig;

fn run_audited(seed: u64, config: SimConfig, scheduler: &mut dyn Scheduler) -> usize {
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(seed).generate(&Interconnect::from_spec(&spec));
    let report = Simulation::new(spec, config).run(&trace, scheduler);
    report.outcomes().len()
}

#[test]
fn elasticflow_full_run_passes_the_auditor() {
    let n = run_audited(11, SimConfig::default(), &mut ElasticFlowScheduler::new());
    assert!(n > 0, "simulation produced no outcomes");
}

#[test]
fn edf_variants_pass_the_structural_auditor() {
    // Baselines exercise different allocation patterns (no reservations,
    // admission-only); the structural invariants must hold for them too.
    run_audited(7, SimConfig::default(), &mut EdfScheduler::new());
    run_audited(7, SimConfig::default(), &mut EdfWithAdmission::new());
}

#[test]
fn failure_injection_passes_the_auditor() {
    // Server failures pin phantom blocks and evict victims — the richest
    // source of cluster/job-table disagreement bugs.
    let failures = FailureSchedule::fixed(vec![
        NodeFailure {
            at: 600.0,
            server: 1,
            repair_seconds: 1_800.0,
        },
        NodeFailure {
            at: 2_400.0,
            server: 0,
            repair_seconds: 3_600.0,
        },
    ]);
    let config = SimConfig {
        failures,
        ..SimConfig::default()
    };
    run_audited(13, config, &mut ElasticFlowScheduler::new());
}
