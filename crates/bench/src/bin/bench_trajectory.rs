//! `bench-trajectory` — machine-readable performance snapshot.
//!
//! ```text
//! bench-trajectory [--out PATH] [--samples N] [--jobs N] [--mega MODE]
//!                  [--serve MODE]
//! ```
//!
//! Times the admission hot path (from-scratch Algorithm 1 vs the
//! incremental `AdmissionSet::whatif_admit` entry point, plus the full
//! replan pass) at 50/200/1000 jobs, the fig6b experiment sweep
//! wall-clock at `--jobs 1` vs `--jobs N` (default: available cores), and
//! one mega-cluster run (`--mega full`: 1M arrivals / 16,384 GPUs, the
//! default; `--mega smoke`: 100k / 1,024; `--mega off` skips it), and
//! one serve-gateway replay (`--serve full`: 100k arrivals through the
//! full daemon stack, the default; `--serve smoke`: 10k; `--serve off`
//! skips it), then writes everything as JSON (default
//! `BENCH_RESULTS.json`):
//!
//! ```json
//! {
//!   "benchmarks": { "<name>": <mean ns/iter>, ... },
//!   "sweeps": { "fig6b_jobs_1_ms": ..., "fig6b_jobs_N_ms": ...,
//!               "fig6b_parallel_jobs": N, "fig6b_speedup": ... },
//!   "mega_cluster": { "arrivals": ..., "gpus": ..., "events": ...,
//!                     "wall_ms": ..., "events_per_sec": ...,
//!                     "digest": ... },
//!   "serve": { "arrivals": ..., "decisions_per_sec": ...,
//!              "p50_decision_ns": ..., "p99_decision_ns": ..., ... },
//!   "samples": N
//! }
//! ```
//!
//! The tracked trajectory lives in `EXPERIMENTS.md`; regenerate this
//! file on a quiet machine (with a release build) before recording new
//! numbers there.

use std::process::ExitCode;
use std::time::Instant;

use elasticflow_bench::experiments::fig6;
use elasticflow_bench::mega::{run_mega, MegaConfig};
use elasticflow_bench::serve::{run_serve_bench, ServeBenchConfig};
use elasticflow_bench::workloads::{arriving_candidate, planning_jobs};
use elasticflow_core::{AdmissionController, FillScratch, ResourceAllocator, SlotGrid};
use serde_json::Value;

const SIZES: [usize; 3] = [50, 200, 1000];
const TOTAL_GPUS: u32 = 128;
const SWEEP_SEED: u64 = 2023;

struct Options {
    out: String,
    samples: u32,
    jobs: usize,
    mega: Option<MegaConfig>,
    serve: Option<ServeBenchConfig>,
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_RESULTS.json".to_owned(),
        samples: 20,
        jobs: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        mega: Some(MegaConfig::paper_scale()),
        serve: Some(ServeBenchConfig::full()),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(path) => opts.out = path,
                None => return Err("--out needs a path".to_owned()),
            },
            "--samples" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => opts.samples = v,
                _ => return Err("--samples needs a positive integer".to_owned()),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => opts.jobs = v,
                _ => return Err("--jobs needs a positive integer".to_owned()),
            },
            "--mega" => match it.next().as_deref() {
                Some("full") => opts.mega = Some(MegaConfig::paper_scale()),
                Some("smoke") => opts.mega = Some(MegaConfig::smoke()),
                Some("off") => opts.mega = None,
                _ => return Err("--mega needs full, smoke, or off".to_owned()),
            },
            "--serve" => match it.next().as_deref() {
                Some("full") => opts.serve = Some(ServeBenchConfig::full()),
                Some("smoke") => opts.serve = Some(ServeBenchConfig::smoke()),
                Some("off") => opts.serve = None,
                _ => return Err("--serve needs full, smoke, or off".to_owned()),
            },
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    Ok(opts)
}

/// Mean wall-clock nanoseconds per call over `samples` calls (after one
/// untimed warm-up).
fn mean_ns<R>(samples: u32, mut f: impl FnMut() -> R) -> u64 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..samples {
        std::hint::black_box(f());
    }
    u64::try_from(start.elapsed().as_nanos() / u128::from(samples)).unwrap_or(u64::MAX)
}

fn admission_benchmarks(samples: u32) -> Vec<(String, Value)> {
    let grid = SlotGrid::uniform(60.0);
    let ac = AdmissionController::new(TOTAL_GPUS);
    let alloc = ResourceAllocator::new(TOTAL_GPUS);
    let mut out = Vec::new();
    for n in SIZES {
        let existing = planning_jobs(n, TOTAL_GPUS);
        let candidate = arriving_candidate(n as u64, TOTAL_GPUS);
        let mut union = existing.clone();
        union.push(candidate.clone());
        let mut workspace = FillScratch::new();
        let (set, _lapsed) = ac.fill(&existing, &grid, &mut workspace);

        let scratch = mean_ns(samples, || ac.check(&union, &grid).is_admitted());
        let incremental = mean_ns(samples, || {
            set.whatif_admit(&candidate, &grid, &mut workspace).is_ok()
        });
        let replan = mean_ns(samples.min(10), || {
            alloc.allocate(&existing, &grid).slot0_gpus()
        });
        eprintln!(
            "admission n={n}: from-scratch {scratch} ns, incremental {incremental} ns \
             ({:.1}x), replan {replan} ns",
            scratch as f64 / incremental.max(1) as f64
        );
        out.push((format!("admission_from_scratch/{n}"), Value::UInt(scratch)));
        out.push((
            format!("admission_incremental_arrival/{n}"),
            Value::UInt(incremental),
        ));
        out.push((format!("replan_allocate/{n}"), Value::UInt(replan)));
    }
    out
}

fn sweep_benchmarks(jobs: usize) -> Result<Vec<(String, Value)>, String> {
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    let parallel = rayon::ThreadPoolBuilder::new()
        .num_threads(jobs)
        .build()
        .map_err(|e| e.to_string())?;

    let start = Instant::now();
    let baseline = sequential.install(|| fig6::run_large(SWEEP_SEED));
    let seq_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let fanned = parallel.install(|| fig6::run_large(SWEEP_SEED));
    let par_ms = start.elapsed().as_secs_f64() * 1e3;

    // The determinism contract, enforced rather than assumed: the same
    // sweep renders byte-identically at any worker count.
    let (a, b) = (baseline[0].render(), fanned[0].render());
    if a != b {
        return Err("fig6b output differs between --jobs 1 and --jobs N".to_owned());
    }
    eprintln!(
        "fig6b sweep: {seq_ms:.0} ms at --jobs 1, {par_ms:.0} ms at --jobs {jobs} \
         ({:.2}x), outputs byte-identical",
        seq_ms / par_ms.max(1e-9)
    );
    Ok(vec![
        ("fig6b_jobs_1_ms".to_owned(), Value::Float(seq_ms)),
        ("fig6b_jobs_N_ms".to_owned(), Value::Float(par_ms)),
        ("fig6b_parallel_jobs".to_owned(), Value::UInt(jobs as u64)),
        (
            "fig6b_speedup".to_owned(),
            Value::Float(seq_ms / par_ms.max(1e-9)),
        ),
    ])
}

/// One timed mega-cluster run (trace generation included in the wall
/// clock — at a million arrivals the generator is part of the story).
fn mega_benchmarks(cfg: &MegaConfig) -> Vec<(String, Value)> {
    let start = Instant::now();
    let stats = run_mega(cfg);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let events_per_sec = stats.events as f64 / (wall_ms / 1e3).max(1e-9);
    eprintln!(
        "mega_cluster: {} arrivals on {} GPUs, {} events in {wall_ms:.0} ms \
         ({events_per_sec:.0} events/s), {} completed, digest {:#018x}",
        stats.arrivals, stats.total_gpus, stats.events, stats.completed, stats.digest
    );
    vec![
        ("arrivals".to_owned(), Value::UInt(stats.arrivals as u64)),
        ("gpus".to_owned(), Value::UInt(u64::from(stats.total_gpus))),
        ("events".to_owned(), Value::UInt(stats.events as u64)),
        ("completed".to_owned(), Value::UInt(stats.completed as u64)),
        ("wall_ms".to_owned(), Value::Float(wall_ms)),
        ("events_per_sec".to_owned(), Value::Float(events_per_sec)),
        ("digest".to_owned(), Value::UInt(stats.digest)),
    ]
}

/// Two timed serve-gateway replays: the full daemon stack (WAL, online
/// decision, journal, metrics) under a deterministic open-loop stream,
/// first request-at-a-time, then through the group-commit batch
/// pipeline (nested as `batched` in the series).
fn serve_benchmarks(cfg: &ServeBenchConfig) -> Result<Vec<(String, Value)>, String> {
    let stats = run_serve_bench(cfg)?;
    report_serve("serve", &stats);
    let mut series = serve_series(&stats);

    let batched_cfg = ServeBenchConfig { batch: 64, ..*cfg };
    let batched = run_serve_bench(&batched_cfg)?;
    report_serve("serve (batch 64)", &batched);
    let mut sub = serve_series(&batched);
    sub.insert(
        0,
        ("batch".to_owned(), Value::UInt(batched_cfg.batch as u64)),
    );
    series.push(("batched".to_owned(), Value::Object(sub)));
    Ok(series)
}

fn report_serve(label: &str, stats: &elasticflow_bench::serve::ServeBenchStats) {
    eprintln!(
        "{label}: {} arrivals in {:.0} ms ({:.0} decisions/s), {} admitted / {} declined / \
         {} best-effort, decision latency p50 {} ns, p99 {} ns",
        stats.arrivals,
        stats.wall_ms,
        stats.decisions_per_sec,
        stats.admitted,
        stats.declined,
        stats.best_effort,
        stats.p50_decision_ns,
        stats.p99_decision_ns
    );
}

fn serve_series(stats: &elasticflow_bench::serve::ServeBenchStats) -> Vec<(String, Value)> {
    vec![
        ("arrivals".to_owned(), Value::UInt(stats.arrivals as u64)),
        ("admitted".to_owned(), Value::UInt(stats.admitted)),
        ("declined".to_owned(), Value::UInt(stats.declined)),
        ("best_effort".to_owned(), Value::UInt(stats.best_effort)),
        ("wall_ms".to_owned(), Value::Float(stats.wall_ms)),
        (
            "decisions_per_sec".to_owned(),
            Value::Float(stats.decisions_per_sec),
        ),
        (
            "p50_decision_ns".to_owned(),
            Value::UInt(stats.p50_decision_ns),
        ),
        (
            "p99_decision_ns".to_owned(),
            Value::UInt(stats.p99_decision_ns),
        ),
    ]
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1).collect()) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: bench-trajectory [--out PATH] [--samples N] [--jobs N] \
                 [--mega full|smoke|off] [--serve full|smoke|off]"
            );
            return ExitCode::FAILURE;
        }
    };

    let benchmarks = admission_benchmarks(opts.samples);
    let sweeps = match sweep_benchmarks(opts.jobs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweep benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut doc = vec![
        ("benchmarks".to_owned(), Value::Object(benchmarks)),
        ("sweeps".to_owned(), Value::Object(sweeps)),
        ("samples".to_owned(), Value::UInt(u64::from(opts.samples))),
    ];
    if let Some(cfg) = &opts.mega {
        doc.insert(
            2,
            (
                "mega_cluster".to_owned(),
                Value::Object(mega_benchmarks(cfg)),
            ),
        );
    }
    if let Some(cfg) = &opts.serve {
        let serve = match serve_benchmarks(cfg) {
            Ok(series) => series,
            Err(e) => {
                eprintln!("serve benchmark failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let at = doc.len() - 1; // keep "samples" last
        doc.insert(at, ("serve".to_owned(), Value::Object(serve)));
    }
    let doc = Value::Object(doc);
    let mut json = String::new();
    doc.write_json(&mut json);
    json.push('\n');
    if let Err(e) = std::fs::write(&opts.out, &json) {
        eprintln!("writing {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", opts.out);
    ExitCode::SUCCESS
}
