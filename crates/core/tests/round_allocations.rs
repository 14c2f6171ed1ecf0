//! Allocation ceilings of a warm ElasticFlow planning round.
//!
//! The scheduler keeps every per-round vector in its workspace, so once
//! warm, `plan` allocates little more than the schedule plan it returns,
//! and an arrival decision next to nothing. A counting global allocator
//! measures both on a fixed 1,024-GPU table. Debug builds run recompute
//! checks that allocate, so the test measures only in release:
//!
//! ```text
//! cargo test --release -p elasticflow-core --test round_allocations
//! ```
//!
//! The bounds are ceilings, not exact counts, so a toolchain's `Vec`
//! growth policy cannot break them.

#![expect(clippy::cast_possible_truncation, reason = "test job ids are small")]
#![expect(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elasticflow_core::ElasticFlowScheduler;
use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
use elasticflow_sched::{AdmissionDecision, ClusterView, JobRuntime, JobTable, Scheduler};
use elasticflow_trace::{JobId, JobSpec};

/// The system allocator, counting allocations and reallocations made
/// on the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialized `Cell` has no destructor and no lazy
    // initializer, so touching it never allocates or reenters.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations a warm `plan` of the table may make: the returned plan's
/// map nodes (5 for 28 entries) plus the odd profile buffer that grows
/// when the pool hands it a longer profile than it held before.
const PLAN_CEILING: u64 = 10;
/// Allocations a warm SLO arrival decision may make: profile buffer
/// growth only.
const SLO_ARRIVAL_CEILING: u64 = 4;

/// The job table of `scheduler::tests::plan_work_counters_are_pinned_on_a_fixed_table`:
/// 24 admitted SLO jobs on large-batch curves with staggered deadlines
/// and some incumbents, plus four best-effort jobs, on 1,024 GPUs.
fn fixed_table() -> JobTable {
    let net = Interconnect::paper_testbed();
    let curves: Vec<(DnnModel, ScalingCurve)> = elasticflow_perfmodel::PAPER_TABLE1
        .iter()
        .flat_map(|&(model, batches)| batches.iter().map(move |&b| (model, b)))
        .flat_map(|(model, b)| [(model, b), (model, b * 16)])
        .map(|(model, b)| (model, ScalingCurve::build(model, b, &net)))
        .collect();
    let mut jobs = JobTable::new();
    for i in 0..28u64 {
        let slo = i < 24;
        let (model, curve) = &curves[(i as usize * 2 + usize::from(slo)) % curves.len()];
        let seconds = 1_800.0 + 700.0 * (i % 9) as f64;
        let gpus = (16 << (i % 4)).min(curve.knee());
        let iterations = seconds
            * curve
                .iters_per_sec(gpus)
                .expect("the trace size is on the curve");
        let mut b = JobSpec::builder(JobId::new(i), *model, curve.global_batch())
            .iterations(iterations)
            .trace_shape(gpus, seconds);
        if slo {
            b = b.deadline(seconds * (1.1 + 0.15 * (i % 5) as f64));
        }
        let mut rt = JobRuntime::new(b.build(), curve.clone());
        rt.admitted = true;
        rt.current_gpus = if i % 3 == 0 { gpus } else { 0 };
        jobs.insert(rt);
    }
    jobs
}

/// A newcomer to the fixed table, due `window` seconds after `now`
/// (best-effort without one): `seconds` of work at 8 GPUs.
fn newcomer(id: u64, now: f64, seconds: f64, window: Option<f64>) -> JobRuntime {
    let curve = ScalingCurve::build(DnnModel::ResNet50, 256, &Interconnect::paper_testbed());
    let iterations = seconds * curve.iters_per_sec(8).expect("8 GPUs are on the curve");
    let mut b = JobSpec::builder(JobId::new(id), DnnModel::ResNet50, 256)
        .iterations(iterations)
        .submit_time(now)
        .trace_shape(8, seconds);
    if let Some(window) = window {
        b = b.deadline(now + window);
    }
    JobRuntime::new(b.build(), curve)
}

#[test]
fn warm_rounds_stay_under_their_allocation_ceilings() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: debug builds run recompute checks that allocate");
        return;
    }
    let jobs = fixed_table();
    let view = ClusterView::new(1_024);
    let mut ef = ElasticFlowScheduler::new();
    let mut id = 100;
    // Two passes over the pinned table's planning instants, each round
    // an admitted SLO arrival, a declined one, a best-effort one and a
    // plan: the first pass warms the workspace up, the second is
    // measured.
    for measured in [false, true] {
        for now in [0.0, 450.0, 1_234.5] {
            let mut arrive = |seconds: f64, window: Option<f64>| {
                id += 1;
                let job = newcomer(id, now, seconds, window);
                counted(|| ef.on_job_arrival(&job, now, &view, &jobs))
            };
            let (admitted, admit_allocs) = arrive(60.0, Some(7_200.0));
            let (declined, decline_allocs) = arrive(3_600.0, Some(600.0));
            let (best_effort, best_effort_allocs) = arrive(600.0, None);
            assert_eq!(admitted, AdmissionDecision::Admit, "at {now}");
            assert!(
                matches!(declined, AdmissionDecision::Drop { .. }),
                "at {now}: {declined:?}"
            );
            assert_eq!(best_effort, AdmissionDecision::Admit, "at {now}");
            let (plan, plan_allocs) = counted(|| ef.plan(now, &view, &jobs));
            assert!(!plan.is_empty(), "at {now}");
            if !measured {
                continue;
            }
            for (what, allocs, ceiling) in [
                ("admitted SLO arrival", admit_allocs, SLO_ARRIVAL_CEILING),
                ("declined SLO arrival", decline_allocs, SLO_ARRIVAL_CEILING),
                ("best-effort arrival", best_effort_allocs, 0),
                ("plan", plan_allocs, PLAN_CEILING),
            ] {
                assert!(
                    allocs <= ceiling,
                    "at {now}: {what} made {allocs} allocations, ceiling {ceiling}"
                );
            }
        }
    }
}
