//! The simulator's trace fingerprint on perfbench's `sim_elasticflow`
//! trace: its value, and what computing it allocates.
//!
//! `Simulation::input_fingerprint` hashes the trace's canonical JSON. A
//! restart recomputes it to check that a snapshot belongs to the trace,
//! so the value is pinned (a moved byte orphans every stored snapshot)
//! and the JSON is streamed into the hash without building a tree or a
//! string: the allocations it makes must not grow with the trace. A
//! counting global allocator measures them. Debug builds skip the count,
//! so it measures only in release:
//!
//! ```text
//! cargo test --release -p elasticflow-bench --test fingerprint
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elasticflow_bench::mega::{mega_trace, MegaConfig};
use elasticflow_cluster::ClusterSpec;
use elasticflow_sim::{SimConfig, Simulation};

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

/// Perfbench's `sim_elasticflow` workload at `arrivals` arrivals: the
/// mega generator on the smoke's 1,024 GPUs.
fn workload(arrivals: usize) -> (Simulation, elasticflow_trace::Trace) {
    let cfg = MegaConfig {
        arrivals,
        ..MegaConfig::smoke()
    };
    let sim = Simulation::new(
        ClusterSpec::with_servers(cfg.servers, cfg.gpus_per_server),
        SimConfig::default(),
    );
    (sim, mega_trace(&cfg))
}

/// Allocations one `input_fingerprint` of `arrivals` arrivals makes.
fn fingerprint_allocations(arrivals: usize) -> u64 {
    let (sim, trace) = workload(arrivals);
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(sim.input_fingerprint(&trace));
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn sim_elasticflow_trace_fingerprint_is_pinned() {
    let (sim, trace) = workload(15_000);
    let fingerprint = sim.input_fingerprint(&trace);
    assert_eq!(
        fingerprint, 0x3315_ff3a_0f0d_ff56,
        "the sim_elasticflow input fingerprint moved (got {fingerprint:#018x})"
    );
}

#[test]
fn input_fingerprint_allocations_do_not_grow_with_the_trace() {
    if cfg!(debug_assertions) {
        return;
    }
    let small = fingerprint_allocations(1_500);
    let large = fingerprint_allocations(15_000);
    eprintln!("input_fingerprint allocations: {small} at 1,500 arrivals, {large} at 15,000");
    assert_eq!(
        small, large,
        "input_fingerprint allocates per job: {small} at 1,500 arrivals, {large} at 15,000"
    );
}
