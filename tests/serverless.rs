//! The serverless front-end end to end: the gateway answers each
//! submission at once (§3.1, §4.2), then the simulator runs the jobs it
//! admitted under ElasticFlow.

use elasticflow::cluster::ClusterSpec;
use elasticflow::core::ElasticFlowScheduler;
use elasticflow::perfmodel::{DnnModel, Interconnect};
use elasticflow::sched::{DecisionRecord, DeclineReason};
use elasticflow::serve::{Gateway, GatewayConfig, JobSubmission};
use elasticflow::sim::{JobOutcome, SimConfig, SimReport, Simulation};
use elasticflow::trace::Trace;

const HOUR: f64 = 3_600.0;

/// A submission arriving at time 0.
fn job(id: u64, model: DnnModel, batch: u32, iters: f64, deadline: Option<f64>) -> JobSubmission {
    JobSubmission {
        id,
        model,
        global_batch: batch,
        iterations: iters,
        arrival_seconds: 0.0,
        deadline_seconds: deadline,
    }
}

/// Submits every job to a gateway over `spec`'s cluster, then simulates
/// the admitted ones. Returns the gateway's answers in submission order
/// and the simulation's report.
fn submit_then_simulate(
    spec: ClusterSpec,
    jobs: &[JobSubmission],
) -> (Vec<DecisionRecord>, SimReport) {
    let mut gateway = Gateway::new(GatewayConfig {
        servers: spec.servers,
        gpus_per_server: spec.gpus_per_server,
        ..GatewayConfig::default()
    });
    let net = Interconnect::from_spec(&spec);
    let decisions: Vec<DecisionRecord> = jobs.iter().map(|j| gateway.submit(j)).collect();
    let admitted = jobs
        .iter()
        .zip(&decisions)
        .filter(|(_, d)| matches!(d, DecisionRecord::Admit { .. }))
        .map(|(j, _)| j.job_spec(&net))
        .collect();
    let report = Simulation::new(spec, SimConfig::default()).run(
        &Trace::new("serverless", admitted),
        &mut ElasticFlowScheduler::new(),
    );
    (decisions, report)
}

/// Twelve 50,000-iteration ResNet50 jobs due within the hour: far more
/// than one 8-GPU server absorbs.
fn contended() -> Vec<JobSubmission> {
    (0..12)
        .map(|i| job(i, DnnModel::ResNet50, 128, 50_000.0, Some(HOUR)))
        .collect()
}

#[test]
fn feasible_submission_is_admitted_and_meets_its_deadline() {
    let (decisions, report) = submit_then_simulate(
        ClusterSpec::small_testbed(),
        &[job(0, DnnModel::ResNet50, 128, 10_000.0, Some(8.0 * HOUR))],
    );
    assert!(matches!(decisions[0], DecisionRecord::Admit { .. }));
    let o = &report.outcomes()[0];
    assert!(!o.dropped);
    assert!(o.met_deadline());
}

#[test]
fn impossible_deadline_is_declined_at_submission() {
    let (decisions, report) = submit_then_simulate(
        ClusterSpec::small_testbed(),
        &[job(0, DnnModel::Vgg16, 256, 1.0e9, Some(60.0))],
    );
    let DecisionRecord::Decline { reason, .. } = &decisions[0] else {
        panic!("expected a decline, got {:?}", decisions[0]);
    };
    assert!(
        matches!(reason, DeclineReason::CandidateInfeasible { .. }),
        "{reason:?}"
    );
    assert!(report.outcomes().is_empty(), "a declined job never runs");
}

#[test]
fn best_effort_submission_is_admitted_and_finishes() {
    let (decisions, report) = submit_then_simulate(
        ClusterSpec::small_testbed(),
        &[job(0, DnnModel::Gpt2, 128, 5_000.0, None)],
    );
    assert!(matches!(decisions[0], DecisionRecord::Admit { .. }));
    let o = &report.outcomes()[0];
    assert!(!o.dropped);
    assert!(o.finish_time.is_some());
    assert!(o.deadline.is_infinite());
}

#[test]
fn contended_cluster_declines_excess_jobs_and_keeps_the_admitted_deadlines() {
    let (decisions, report) = submit_then_simulate(ClusterSpec::with_servers(1, 8), &contended());
    let declined = decisions
        .iter()
        .filter(|d| matches!(d, DecisionRecord::Decline { .. }))
        .count();
    assert!(declined > 0, "expected declines under heavy contention");
    for o in report.outcomes() {
        assert!(o.met_deadline(), "{o:?}");
    }
}

/// The two drivers ask different admission questions (the gateway has
/// no safety reserve and no derate), so a job the gateway admits may
/// still be dropped by the simulator. Pinned on two shapes, neither of
/// which has such a job.
#[test]
fn gateway_admissions_and_simulated_outcomes_are_pinned() {
    let quickstart = [
        job(0, DnnModel::ResNet50, 256, 40_000.0, Some(6.0 * HOUR)),
        job(1, DnnModel::Bert, 128, 12_000.0, Some(4.0 * HOUR)),
        job(2, DnnModel::Gpt2, 128, 8_000.0, None),
        job(3, DnnModel::Vgg16, 256, 500_000.0, Some(600.0)),
    ];
    let shapes = [
        (
            ClusterSpec::small_testbed(),
            quickstart.to_vec(),
            vec![0, 1, 2],
            vec![0, 1, 2],
        ),
        (
            ClusterSpec::with_servers(1, 8),
            contended(),
            vec![0, 1, 2],
            vec![0, 1, 2],
        ),
    ];
    for (spec, jobs, want_admitted, want_met) in shapes {
        let (decisions, report) = submit_then_simulate(spec, &jobs);
        let admitted: Vec<u64> = decisions
            .iter()
            .filter(|d| matches!(d, DecisionRecord::Admit { .. }))
            .map(|d| d.job().raw())
            .collect();
        let outcomes = |keep: fn(&JobOutcome) -> bool| -> Vec<u64> {
            report
                .outcomes()
                .iter()
                .filter(|o| keep(o))
                .map(|o| o.id.raw())
                .collect()
        };
        // (admitted, dropped, met, missed)
        assert_eq!(
            (
                admitted,
                outcomes(|o| o.dropped),
                outcomes(JobOutcome::met_deadline),
                outcomes(|o| !o.dropped && !o.met_deadline()),
            ),
            (want_admitted, vec![], want_met, vec![]),
        );
    }
}
