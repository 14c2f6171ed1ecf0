//! Scenario tests for the end-to-end ElasticFlow scheduler, run through
//! the simulator.

#![expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]

use elasticflow_cluster::ClusterSpec;
use elasticflow_core::ElasticFlowScheduler;
use elasticflow_perfmodel::Interconnect;
use elasticflow_sim::{SimConfig, Simulation};
use elasticflow_trace::{JobKind, TraceConfig};

fn run(servers: u32, seed: u64) -> elasticflow_sim::SimReport {
    let spec = ClusterSpec::with_servers(servers, 8);
    let trace = TraceConfig::testbed_small(seed).generate(&Interconnect::from_spec(&spec));
    Simulation::new(spec, SimConfig::default()).run(&trace, &mut ElasticFlowScheduler::new())
}

#[test]
fn guarantee_holds_across_seeds() {
    // Admitted jobs meet their deadlines across many workloads, modulo a
    // small slack for scaling pauses on the last scheduling interval.
    let mut admitted_total = 0usize;
    let mut missed_total = 0usize;
    for seed in [1u64, 2, 3, 5, 8, 13, 21, 34] {
        let report = run(4, seed);
        for o in report.outcomes() {
            if o.dropped || o.kind != JobKind::Slo {
                continue;
            }
            admitted_total += 1;
            if !o.met_deadline() {
                missed_total += 1;
            }
        }
    }
    assert!(admitted_total > 100, "weak test: {admitted_total} admitted");
    let miss_rate = missed_total as f64 / admitted_total as f64;
    assert!(
        miss_rate < 0.05,
        "guarantee too leaky: {missed_total}/{admitted_total}"
    );
}

#[test]
fn bigger_clusters_admit_weakly_more() {
    for seed in [4u64, 9] {
        let small = run(2, seed);
        let large = run(8, seed);
        let admitted =
            |r: &elasticflow_sim::SimReport| r.outcomes().iter().filter(|o| !o.dropped).count();
        assert!(
            admitted(&large) >= admitted(&small),
            "seed {seed}: {} admitted on 64 GPUs vs {} on 16",
            admitted(&large),
            admitted(&small)
        );
    }
}

#[test]
fn drops_happen_at_submission_not_later() {
    // A dropped job must never have consumed GPU time.
    for seed in [6u64, 7] {
        let report = run(2, seed);
        for o in report.outcomes() {
            if o.dropped {
                assert_eq!(o.gpu_seconds, 0.0, "{} ran before dropping", o.id);
                assert!(o.finish_time.is_none());
            }
        }
    }
}

#[test]
fn dsr_is_monotone_in_deadline_tightness() {
    // Loosening every deadline (same work, same arrivals) can only help.
    let spec = ClusterSpec::small_testbed();
    let net = Interconnect::from_spec(&spec);
    let tight = TraceConfig::testbed_small(15)
        .with_lambda_range(0.5, 0.8)
        .generate(&net);
    let loose = TraceConfig::testbed_small(15)
        .with_lambda_range(2.5, 3.0)
        .generate(&net);
    let sim = Simulation::new(spec, SimConfig::default());
    let tight_dsr = sim
        .run(&tight, &mut ElasticFlowScheduler::new())
        .deadline_satisfactory_ratio();
    let loose_dsr = sim
        .run(&loose, &mut ElasticFlowScheduler::new())
        .deadline_satisfactory_ratio();
    assert!(
        loose_dsr >= tight_dsr,
        "loose {loose_dsr} below tight {tight_dsr}"
    );
    assert!(loose_dsr > 0.9, "loose deadlines should nearly all be met");
}

#[test]
fn empty_trace_is_a_noop() {
    let spec = ClusterSpec::small_testbed();
    let trace = elasticflow_trace::Trace::new("empty", Vec::new());
    let report =
        Simulation::new(spec, SimConfig::default()).run(&trace, &mut ElasticFlowScheduler::new());
    assert!(report.outcomes().is_empty());
    assert_eq!(report.deadline_satisfactory_ratio(), 1.0);
}

#[test]
fn best_effort_only_trace_finishes_everything() {
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(30)
        .with_best_effort_fraction(1.0)
        .generate(&Interconnect::from_spec(&spec));
    let report =
        Simulation::new(spec, SimConfig::default()).run(&trace, &mut ElasticFlowScheduler::new());
    for o in report.outcomes() {
        assert!(!o.dropped);
        assert!(o.finish_time.is_some(), "{} never finished", o.id);
    }
    assert!(report.avg_best_effort_jct().unwrap() > 0.0);
}
