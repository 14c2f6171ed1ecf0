//! Algorithm 1 and 2 on committed sets up to 1,000 jobs deep.
//!
//! A deterministic mixed-model workload stays collectively feasible at
//! every size, so the committed ledger really is `n` profiles deep. On
//! it the incremental entry points must agree with a from-scratch
//! check: the outcome of admitting a candidate, and the set left after
//! committing one. Two candidate shapes are checked: an *arriving* job
//! whose deadline lands past every committed one (the common case), and
//! a *mid-pack* job whose deadline falls inside the set, so about half
//! the suffix is refilled. ElasticFlow's plan of each set, Algorithm 2
//! included, must fit the cluster.

#![expect(clippy::cast_possible_truncation, reason = "test job ids are small")]
#![expect(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use std::collections::BTreeMap;

use elasticflow_core::{
    AdmissionSet, AllocationProfile, ElasticFlowScheduler, FillScratch, PlanningJob, SlotGrid,
};
use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
use elasticflow_sched::{ClusterView, JobRuntime, JobTable, Scheduler};
use elasticflow_trace::{JobId, JobSpec};

/// The set's committed plan as an id-keyed map.
fn plan_of(set: &AdmissionSet) -> BTreeMap<JobId, AllocationProfile> {
    let (jobs, profiles, _) = set.clone().into_parts();
    jobs.iter().map(|j| j.id).zip(profiles).collect()
}

const SIZES: [usize; 3] = [50, 200, 1000];
const TOTAL_GPUS: u32 = 128;
/// The planning slot, in seconds, of the fills and of the plan.
const SLOT_SECONDS: f64 = 60.0;

/// `n` jobs cycling over four DNN models, with remaining work spanning
/// 0.5–2.5 h of single-GPU time and deadlines spread with `n` so the set
/// stays collectively feasible at every size.
///
/// The spread term matters: with deadlines capped at a fixed horizon,
/// any `n` large enough to exceed the cluster's GPU-time capacity inside
/// that horizon makes the whole set infeasible, and a fill lapses every
/// job past the first unfillable one. Scaling the deadline with
/// `i / total_gpus` keeps roughly 2x capacity headroom at every prefix.
fn planning_jobs(n: usize, total_gpus: u32) -> Vec<PlanningJob> {
    let net = Interconnect::paper_testbed();
    let models = [
        (DnnModel::ResNet50, 256u32),
        (DnnModel::Vgg16, 128),
        (DnnModel::Bert, 128),
        (DnnModel::Gpt2, 256),
    ];
    (0..n)
        .map(|i| {
            let (model, gbs) = models[i % models.len()];
            let curve = ScalingCurve::build_with_max(model, gbs, &net, total_gpus);
            let tput = curve
                .iters_per_sec(1)
                .expect("1 GPU is always on the curve");
            PlanningJob {
                id: JobId::new(i as u64),
                curve,
                remaining_iterations: tput * 1_800.0 * ((i % 5) + 1) as f64,
                deadline_slot: 60 + 30 * (i % 7) + (i * 180) / total_gpus as usize,
            }
        })
        .collect()
}

/// `jobs` as admitted jobs at time 0 whose deadlines end their
/// deadline slots, so ElasticFlow's plan at time 0 sees them much as
/// the fills here do (its planning views add a work margin).
fn job_table(jobs: &[PlanningJob]) -> JobTable {
    let mut table = JobTable::new();
    for job in jobs {
        let spec = JobSpec::builder(job.id, job.curve.model(), job.curve.global_batch())
            .iterations(job.remaining_iterations)
            .deadline(job.deadline_slot as f64 * SLOT_SECONDS)
            .build();
        let mut runtime = JobRuntime::new(spec, job.curve.clone());
        runtime.admitted = true;
        table.insert(runtime);
    }
    table
}

/// A candidate whose deadline lands past every [`planning_jobs`]
/// deadline of a same-`id`-sized workload: the common arrival shape,
/// since deadlines grow with arrival time.
fn arriving_candidate(id: u64, total_gpus: u32) -> PlanningJob {
    let net = Interconnect::paper_testbed();
    let curve = ScalingCurve::build_with_max(DnnModel::ResNet50, 256, &net, total_gpus);
    let tput = curve
        .iters_per_sec(1)
        .expect("1 GPU is always on the curve");
    PlanningJob {
        id: JobId::new(id),
        curve,
        remaining_iterations: tput * 3_600.0,
        deadline_slot: 300 + (id as usize * 180) / total_gpus as usize,
    }
}

#[test]
fn workload_is_deterministic_and_sized() {
    let a = planning_jobs(50, TOTAL_GPUS);
    let b = planning_jobs(50, TOTAL_GPUS);
    assert_eq!(a.len(), 50);
    assert_eq!(a, b);
    let c = arriving_candidate(50, TOTAL_GPUS);
    assert!(a.iter().all(|j| j.deadline_slot < c.deadline_slot));
}

#[test]
fn deep_ledgers_agree_with_a_from_scratch_fill() {
    let grid = SlotGrid::uniform(SLOT_SECONDS);
    let mut scratch = FillScratch::new();
    for n in SIZES {
        let existing = planning_jobs(n, TOTAL_GPUS);
        let (set, lapsed) = AdmissionSet::fill(TOTAL_GPUS, existing.clone(), &grid, &mut scratch);
        assert!(lapsed.is_empty(), "n={n}: fill lapsed {lapsed:?}");
        assert_eq!(set.len(), n, "n={n}: the ledger must be n profiles deep");

        let mut mid_pack = planning_jobs(n + 1, TOTAL_GPUS);
        let mid_pack = mid_pack.pop().expect("n + 1 >= 1");
        let arriving = arriving_candidate(n as u64, TOTAL_GPUS);
        for (shape, candidate) in [("arriving", arriving), ("mid-pack", mid_pack)] {
            let mut union = existing.clone();
            union.push(candidate.clone());
            let mut admitted = set.clone();
            let outcome = admitted
                .admit(candidate, &grid, &mut scratch)
                .map(|()| plan_of(&admitted));
            assert_eq!(
                outcome,
                AdmissionSet::check(TOTAL_GPUS, &union, &grid),
                "n={n}, {shape}: incremental outcome differs from a from-scratch check"
            );
            assert!(outcome.is_ok(), "n={n}, {shape}: candidate must fit");

            let (fresh, lapsed) = AdmissionSet::fill(TOTAL_GPUS, union, &grid, &mut scratch);
            assert!(lapsed.is_empty(), "n={n}, {shape}: union lapsed {lapsed:?}");
            assert_eq!(
                plan_of(&admitted),
                plan_of(&fresh),
                "n={n}, {shape}: plans differ"
            );
            assert_eq!(
                admitted.ledger(),
                fresh.ledger(),
                "n={n}, {shape}: ledgers differ"
            );
        }

        let slot0 = ElasticFlowScheduler::new()
            .plan(0.0, &ClusterView::new(TOTAL_GPUS), &job_table(&existing))
            .total_gpus();
        assert!(
            slot0 <= TOTAL_GPUS,
            "n={n}: slot 0 allocates {slot0} of {TOTAL_GPUS} GPUs"
        );
    }
}
