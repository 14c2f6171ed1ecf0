//! Allocation ceiling of a warm declined gateway submission.
//!
//! A declined submission refills the committed set's suffix on buffers
//! the gateway's workspace keeps, so once warm it allocates next to
//! nothing. A counting global allocator measures declined submissions
//! that cross no slot boundary against a deep, saturated set. Debug
//! builds run recompute checks that allocate, so the test measures only
//! in release:
//!
//! ```text
//! cargo test --release -p elasticflow-serve --test submit_allocations
//! ```
//!
//! The bound is a ceiling, not an exact count, so a toolchain's `Vec`
//! growth policy cannot break it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elasticflow_cluster::ClusterSpec;
use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
use elasticflow_sched::{DecisionRecord, DeclineReason};
use elasticflow_serve::{Gateway, GatewayConfig, JobSubmission};

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

/// Allocations a warm declined submission may make: profile buffer
/// growth only.
const DECLINE_CEILING: u64 = 2;

/// Iterations of `seconds` of training at 8 GPUs on the gateway's
/// default cluster.
fn work(seconds: f64) -> f64 {
    let config = GatewayConfig::default();
    let net = Interconnect::from_spec(&ClusterSpec::with_servers(
        config.servers,
        config.gpus_per_server,
    ));
    let curve = ScalingCurve::build_with_max(DnnModel::ResNet50, 256, &net, config.total_gpus());
    seconds * curve.iters_per_sec(8).expect("8 GPUs are on the curve")
}

/// A deadline submission of `seconds` of 8-GPU work arriving at
/// `arrival` seconds.
fn submission(id: u64, seconds: f64, arrival: f64, deadline: f64) -> JobSubmission {
    JobSubmission {
        id,
        model: DnnModel::ResNet50,
        global_batch: 256,
        iterations: work(seconds),
        arrival_seconds: arrival,
        deadline_seconds: Some(deadline),
    }
}

#[test]
fn warm_declined_submissions_stay_under_their_allocation_ceiling() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: debug builds run recompute checks that allocate");
        return;
    }
    let mut gateway = Gateway::new(GatewayConfig::default());
    // Every arrival falls inside the first 60 s slot: no submission
    // crosses a slot boundary.
    let mut id = 0;
    let mut submit = |gateway: &mut Gateway, seconds: f64, deadline: f64| {
        id += 1;
        let sub = submission(id, seconds, 1.0 + id as f64 * 1e-3, deadline);
        counted(|| gateway.submit(&sub))
    };
    // A deep committed set with staggered deadlines, until the cluster
    // is booked.
    let mut admitted = 0;
    for i in 0..200u64 {
        let deadline = 3_600.0 + 120.0 * (i % 40) as f64;
        let (decision, _) = submit(&mut gateway, 1_800.0, deadline);
        admitted += usize::from(matches!(decision, DecisionRecord::Admit { .. }));
    }
    assert!(admitted >= 20, "only {admitted} jobs admitted");
    // Declines at the front, in the middle and past the end of the set,
    // both at the candidate itself and by displacing a committed job.
    // The first pass warms the workspace up, the second is measured.
    let shapes = [
        (3_600.0, 600.0),
        (1_800.0, 2_400.0),
        (1_800.0, 4_800.0),
        (1.0e6, 9_000.0),
    ];
    let mut displaced = 0;
    for measured in [false, true] {
        for (seconds, deadline) in shapes {
            let (decision, allocs) = submit(&mut gateway, seconds, deadline);
            let DecisionRecord::Decline { reason, .. } = decision else {
                panic!("a submission due at {deadline} s was admitted");
            };
            displaced += usize::from(matches!(reason, DeclineReason::WouldDisplace { .. }));
            if measured {
                assert!(
                    allocs <= DECLINE_CEILING,
                    "a declined submission due at {deadline} s made {allocs} allocations, \
                     ceiling {DECLINE_CEILING}"
                );
            }
        }
    }
    assert!(displaced > 0, "no decline displaced a committed job");
}
