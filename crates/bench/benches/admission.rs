//! Criterion benchmarks for the admission/replan hot path.
//!
//! Compares the cost of answering "can this arriving job be admitted?"
//! two ways:
//!
//! * **from-scratch** — re-run Algorithm 1 over the committed jobs plus
//!   the candidate (`AdmissionController::check`), the pre-optimization
//!   entry point;
//! * **incremental** — reuse the committed set's ledger and profiles and
//!   refill only from the candidate's deadline position
//!   (`AdmissionSet::whatif_admit`).
//!
//! Two candidate shapes are measured: an *arriving* job whose deadline
//! lands past every committed job's (the common case — deadlines grow
//! with arrival time, so the refilled suffix is just the candidate), and
//! a *mid-pack* job whose deadline falls in the middle of the committed
//! set (refills about half the suffix). `replan` times the full
//! Algorithm 1+2 allocation pass at the same sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use elasticflow_bench::workloads::{arriving_candidate, planning_jobs};
use elasticflow_core::{AdmissionController, FillScratch, ResourceAllocator, SlotGrid};

const SIZES: [usize; 3] = [50, 200, 1000];
const TOTAL_GPUS: u32 = 128;

fn bench_from_scratch(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_from_scratch");
    for n in SIZES {
        let existing = planning_jobs(n, TOTAL_GPUS);
        let candidate = arriving_candidate(n as u64, TOTAL_GPUS);
        let mut union = existing.clone();
        union.push(candidate);
        let grid = SlotGrid::uniform(60.0);
        let ac = AdmissionController::new(TOTAL_GPUS);
        group.bench_with_input(BenchmarkId::from_parameter(n), &union, |b, union| {
            b.iter(|| ac.check(union, &grid).is_admitted())
        });
    }
    group.finish();
}

fn bench_incremental_arrival(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_incremental_arrival");
    for n in SIZES {
        let existing = planning_jobs(n, TOTAL_GPUS);
        let candidate = arriving_candidate(n as u64, TOTAL_GPUS);
        let grid = SlotGrid::uniform(60.0);
        let ac = AdmissionController::new(TOTAL_GPUS);
        let mut scratch = FillScratch::new();
        let (set, _lapsed) = ac.fill(&existing, &grid, &mut scratch);
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &candidate,
            |b, candidate| b.iter(|| set.whatif_admit(candidate, &grid, &mut scratch).is_ok()),
        );
    }
    group.finish();
}

fn bench_incremental_mid(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_incremental_mid");
    for n in SIZES {
        let jobs = planning_jobs(n + 1, TOTAL_GPUS);
        let (candidate, existing) = jobs.split_last().expect("n + 1 >= 1");
        let grid = SlotGrid::uniform(60.0);
        let ac = AdmissionController::new(TOTAL_GPUS);
        let mut scratch = FillScratch::new();
        let (set, _lapsed) = ac.fill(existing, &grid, &mut scratch);
        group.bench_with_input(BenchmarkId::from_parameter(n), candidate, |b, candidate| {
            b.iter(|| set.whatif_admit(candidate, &grid, &mut scratch).is_ok())
        });
    }
    group.finish();
}

fn bench_replan(c: &mut Criterion) {
    let mut group = c.benchmark_group("replan_allocate");
    group.sample_size(10);
    for n in SIZES {
        let jobs = planning_jobs(n, TOTAL_GPUS);
        let grid = SlotGrid::uniform(60.0);
        let alloc = ResourceAllocator::new(TOTAL_GPUS);
        group.bench_with_input(BenchmarkId::from_parameter(n), &jobs, |b, jobs| {
            b.iter(|| alloc.allocate(jobs, &grid).slot0_gpus())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_from_scratch,
    bench_incremental_arrival,
    bench_incremental_mid,
    bench_replan
);
criterion_main!(benches);
