//! Integration tests for the §4.4 extensions: soft deadlines, best-effort
//! scheduling, and node failures — exercised end to end through the
//! public API. Soft deadlines are a simulator feature: the gateway's
//! protocol has no field for them.

use elasticflow::cluster::ClusterSpec;
use elasticflow::core::ElasticFlowScheduler;
use elasticflow::perfmodel::{DnnModel, Interconnect};
use elasticflow::sched::EdfScheduler;
use elasticflow::sim::{FailureSchedule, SimConfig, Simulation};
use elasticflow::trace::{JobId, JobKind, JobSpec, Trace, TraceConfig};

#[test]
fn soft_deadline_jobs_are_never_dropped_end_to_end() {
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(21)
        .with_soft_deadline_fraction(0.5)
        .generate(&Interconnect::from_spec(&spec));
    assert!(trace.jobs().iter().any(|j| j.kind == JobKind::SoftDeadline));
    let report =
        Simulation::new(spec, SimConfig::default()).run(&trace, &mut ElasticFlowScheduler::new());
    for o in report.outcomes() {
        if o.kind == JobKind::SoftDeadline {
            assert!(!o.dropped, "{} soft job dropped", o.id);
            assert!(o.finish_time.is_some(), "{} soft job unfinished", o.id);
        }
    }
    // Soft DSR is tracked separately from the hard-SLO DSR.
    let soft = report.soft_deadline_satisfactory_ratio();
    assert!((0.0..=1.0).contains(&soft));
}

#[test]
fn failure_injection_degrades_gracefully() {
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(5).generate(&Interconnect::from_spec(&spec));
    let clean = Simulation::new(spec.clone(), SimConfig::default())
        .run(&trace, &mut ElasticFlowScheduler::new());
    let failures = FailureSchedule::poisson(4, 86_400.0, 3_600.0, trace.span() * 1.5, 7);
    let faulty = Simulation::new(spec, SimConfig::default().with_failures(failures))
        .run(&trace, &mut ElasticFlowScheduler::new());
    // Failures may cost deadlines, but nothing crashes, everything that was
    // admitted either finishes or is accounted for, and the DSR stays in
    // range.
    assert!(faulty.deadline_satisfactory_ratio() <= clean.deadline_satisfactory_ratio() + 1e-9);
    assert!(faulty.end_time().is_finite());
}

#[test]
fn elasticflow_handles_failures_better_than_edf() {
    // Under frequent failures, admission control plus elastic re-packing
    // should hold up at least as well as plain EDF.
    let spec = ClusterSpec::paper_testbed();
    let trace = TraceConfig::testbed_large(2023).generate(&Interconnect::from_spec(&spec));
    let failures = FailureSchedule::poisson(16, 86_400.0, 3_600.0, trace.span() * 1.5, 99);
    let cfg = SimConfig::default().with_failures(failures);
    let ef =
        Simulation::new(spec.clone(), cfg.clone()).run(&trace, &mut ElasticFlowScheduler::new());
    let edf = Simulation::new(spec, cfg).run(&trace, &mut EdfScheduler::new());
    assert!(
        ef.deadline_satisfactory_ratio() > edf.deadline_satisfactory_ratio(),
        "EF {} vs EDF {} under failures",
        ef.deadline_satisfactory_ratio(),
        edf.deadline_satisfactory_ratio()
    );
}

#[test]
fn soft_deadlines_are_never_dropped() {
    // The same job under an impossible deadline: dropped when the
    // deadline is hard, run late when it is soft.
    let vgg = |id: u64| JobSpec::builder(JobId::new(id), DnnModel::Vgg16, 256).iterations(2.0e5);
    let trace = Trace::new(
        "soft",
        vec![
            vgg(0).deadline(600.0).build(),
            vgg(1).soft_deadline(600.0).build(),
        ],
    );
    let report = Simulation::new(ClusterSpec::with_servers(1, 8), SimConfig::default())
        .run(&trace, &mut ElasticFlowScheduler::new());
    let [hard, soft] = report.outcomes() else {
        panic!("two outcomes expected");
    };
    assert!(hard.dropped);
    assert!(!soft.dropped);
    assert!(soft.finish_time.is_some());
    assert!(!soft.met_deadline());
}

#[test]
fn soft_deadline_job_runs_to_completion() {
    let job = JobSpec::builder(JobId::new(0), DnnModel::Bert, 128)
        .iterations(5_000.0)
        .soft_deadline(2.0 * 3_600.0)
        .build();
    let report = Simulation::new(ClusterSpec::small_testbed(), SimConfig::default()).run(
        &Trace::new("soft", vec![job]),
        &mut ElasticFlowScheduler::new(),
    );
    let o = &report.outcomes()[0];
    assert_eq!(o.kind, JobKind::SoftDeadline);
    assert!(!o.dropped);
    assert!(o.finish_time.is_some());
}
