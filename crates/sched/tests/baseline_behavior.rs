//! Cross-baseline behavioural tests: the distinguishing property of each
//! policy, checked on shared scenarios.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
use elasticflow_sched::{
    ChronusScheduler, ClusterView, EdfScheduler, GandivaScheduler, JobRuntime, JobTable,
    PolluxScheduler, Scheduler, ThemisScheduler, TiresiasScheduler,
};
use elasticflow_trace::{JobId, JobSpec};

fn job(id: u64, submit: f64, deadline: Option<f64>, trace_gpus: u32) -> JobRuntime {
    let curve = ScalingCurve::build(DnnModel::ResNet50, 128, &Interconnect::paper_testbed());
    let tput = curve
        .iters_per_sec(trace_gpus.min(curve.max_gpus()))
        .expect("clamped GPU count is on the curve");
    let mut b = JobSpec::builder(JobId::new(id), DnnModel::ResNet50, 128)
        .iterations(3_600.0 * tput)
        .submit_time(submit)
        .trace_shape(trace_gpus, 3_600.0);
    if let Some(d) = deadline {
        b = b.deadline(d);
    }
    let mut rt = JobRuntime::new(b.build(), curve);
    rt.admitted = true;
    rt
}

fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(EdfScheduler::new()),
        Box::new(GandivaScheduler::new()),
        Box::new(TiresiasScheduler::new()),
        Box::new(ThemisScheduler::new()),
        Box::new(ChronusScheduler::new()),
        Box::new(PolluxScheduler::new()),
    ]
}

#[test]
fn no_baseline_ever_overcommits() {
    // Whatever the mix of jobs, every baseline's plan fits the cluster and
    // uses power-of-two allocations (enforced by SchedulePlan, checked
    // here end to end).
    for total in [8u32, 16, 32, 128] {
        let view = ClusterView::new(total);
        let mut table = JobTable::new();
        for i in 0..20 {
            let deadline = if i % 3 == 0 {
                None
            } else {
                Some(5_000.0 + 100.0 * i as f64)
            };
            table.insert(job(i, i as f64 * 10.0, deadline, 1 << (i % 5)));
        }
        for mut s in all_schedulers() {
            let plan = s.plan(1_000.0, &view, &table);
            assert!(
                plan.total_gpus() <= total,
                "{} overcommitted {} on {total}",
                s.name(),
                plan.total_gpus()
            );
            for (_, g) in plan.iter() {
                assert!(g.is_power_of_two());
            }
        }
    }
}

#[test]
fn plans_ignore_inactive_jobs() {
    let view = ClusterView::new(32);
    let mut table = JobTable::new();
    let mut finished = job(1, 0.0, Some(9_000.0), 4);
    finished.finish_time = Some(100.0);
    table.insert(finished);
    let mut dropped = job(2, 0.0, Some(9_000.0), 4);
    dropped.admitted = false;
    dropped.dropped = true;
    table.insert(dropped);
    table.insert(job(3, 0.0, Some(9_000.0), 4));
    for mut s in all_schedulers() {
        let plan = s.plan(200.0, &view, &table);
        assert_eq!(plan.gpus(JobId::new(1)), 0, "{}", s.name());
        assert_eq!(plan.gpus(JobId::new(2)), 0, "{}", s.name());
        assert!(plan.gpus(JobId::new(3)) > 0, "{}", s.name());
    }
}

#[test]
fn elastic_baselines_scale_out_fixed_ones_do_not() {
    // One lonely 1-GPU-request job on a big cluster: Pollux and EDF scale
    // it out; Gandiva/Tiresias/Themis/Chronus keep the requested size.
    let view = ClusterView::new(64);
    let mut table = JobTable::new();
    table.insert(job(1, 0.0, Some(7_200.0), 1));
    for (name, expect_elastic) in [
        ("edf", true),
        ("pollux", true),
        ("gandiva", false),
        ("tiresias", false),
        ("themis", false),
        ("chronus", false),
    ] {
        let mut s: Box<dyn Scheduler> = match name {
            "edf" => Box::new(EdfScheduler::new()),
            "pollux" => Box::new(PolluxScheduler::new()),
            "gandiva" => Box::new(GandivaScheduler::new()),
            "tiresias" => Box::new(TiresiasScheduler::new()),
            "themis" => Box::new(ThemisScheduler::new()),
            _ => Box::new(ChronusScheduler::new()),
        };
        let got = s.plan(0.0, &view, &table).gpus(JobId::new(1));
        if expect_elastic {
            assert!(got > 1, "{name} did not scale out: {got}");
        } else {
            assert_eq!(got, 1, "{name} resized a fixed job");
        }
    }
}

#[test]
fn deadline_aware_baselines_prefer_urgent_jobs() {
    let view = ClusterView::new(8);
    let mut table = JobTable::new();
    table.insert(job(1, 0.0, Some(50_000.0), 8));
    table.insert(job(2, 10.0, Some(5_000.0), 8));
    for name in ["edf", "chronus"] {
        let mut s: Box<dyn Scheduler> = if name == "edf" {
            Box::new(EdfScheduler::new())
        } else {
            Box::new(ChronusScheduler::new())
        };
        let plan = s.plan(100.0, &view, &table);
        assert!(
            plan.gpus(JobId::new(2)) >= plan.gpus(JobId::new(1)),
            "{name} starved the urgent job: {plan:?}"
        );
        assert!(plan.gpus(JobId::new(2)) > 0, "{name}");
    }
}

#[test]
fn fifo_baselines_prefer_earlier_submissions() {
    let view = ClusterView::new(8);
    let mut table = JobTable::new();
    table.insert(job(1, 500.0, None, 8));
    table.insert(job(2, 0.0, None, 8));
    for name in ["gandiva", "tiresias"] {
        let mut s: Box<dyn Scheduler> = if name == "gandiva" {
            Box::new(GandivaScheduler::new())
        } else {
            Box::new(TiresiasScheduler::new())
        };
        let plan = s.plan(600.0, &view, &table);
        assert_eq!(plan.gpus(JobId::new(2)), 8, "{name}");
        assert_eq!(plan.gpus(JobId::new(1)), 0, "{name}");
    }
}

#[test]
fn tiresias_demotes_long_running_jobs() {
    let view = ClusterView::new(8);
    let mut table = JobTable::new();
    let mut hog = job(1, 0.0, None, 8);
    hog.gpu_seconds = 1.0e6; // deep in the lowest-priority queue
    table.insert(hog);
    table.insert(job(2, 5_000.0, None, 8)); // newer but fresh
    let plan = TiresiasScheduler::new().plan(6_000.0, &view, &table);
    assert_eq!(plan.gpus(JobId::new(2)), 8);
    assert_eq!(plan.gpus(JobId::new(1)), 0);
}

#[test]
fn chronus_admission_depends_on_load_but_plans_stay_edf() {
    let view = ClusterView::new(8);
    let mut c = ChronusScheduler::new();
    let mut table = JobTable::new();
    // Fill the cluster with a tight job.
    let first = job(1, 0.0, Some(3_700.0), 8);
    assert_eq!(
        c.on_job_arrival(&first, 0.0, &view, &table),
        elasticflow_sched::AdmissionDecision::Admit
    );
    table.insert(first);
    // A second equally tight full-size job cannot be guaranteed.
    let second = job(2, 0.0, Some(3_700.0), 8);
    assert!(matches!(
        c.on_job_arrival(&second, 0.0, &view, &table),
        elasticflow_sched::AdmissionDecision::Drop { .. }
    ));
}

#[test]
fn themis_fairness_orders_by_waiting_time_at_equal_shape() {
    let view = ClusterView::new(8);
    let mut table = JobTable::new();
    for (id, submit) in [(1u64, 0.0), (2, 2_000.0), (3, 4_000.0)] {
        table.insert(job(id, submit, None, 8));
    }
    let plan = ThemisScheduler::new().plan(5_000.0, &view, &table);
    // Only the longest-waiting job fits; it must be the chosen one.
    assert_eq!(plan.gpus(JobId::new(1)), 8);
    assert_eq!(plan.total_gpus(), 8);
}
