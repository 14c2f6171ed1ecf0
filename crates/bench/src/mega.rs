//! Mega-cluster stress workload: millions of arrivals on a 10k+-GPU
//! cluster.
//!
//! The paper's evaluation tops out at 128 GPUs and a few hundred jobs;
//! this workload exists to exercise the simulator's *data layout* far past
//! that — the dense job arenas and the indexed allocation table both have
//! to stay O(active) per scheduling event when the job table holds a
//! million materialized entries. The generator is
//! fully deterministic (one [`Rng`] stream, fixed draw order per job), so
//! a run's outcome digest is a golden value: any change to event ordering
//! or job-state arithmetic anywhere in the stack shows up as a digest
//! mismatch.
//!
//! Jobs arrive at a fixed mean rate with log-normal durations, keeping the
//! steady-state *active* set small (a few hundred jobs) while the *arena*
//! grows to the full arrival count — which is exactly the shape that
//! punishes any per-event `O(jobs ever seen)` scan. The series measures
//! data-structure scale, not packing quality: cluster utilization is
//! deliberately moderate so the event count, not allocator contention,
//! dominates.

use elasticflow_cluster::ClusterSpec;
use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
use elasticflow_sched::EdfScheduler;
use elasticflow_sim::{Fnv1a64, SimConfig, SimReport, Simulation};
use elasticflow_trace::{JobId, JobSpec, Rng, Trace};
use serde::Serialize;

/// Parameters of one mega-cluster run. Construct via [`MegaConfig::paper_scale`]
/// or [`MegaConfig::smoke`]; the fields are public so experiments can scale
/// between the two.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaConfig {
    /// Number of job arrivals to generate.
    pub arrivals: usize,
    /// Servers in the cluster (power of two).
    pub servers: u32,
    /// GPUs per server (power of two).
    pub gpus_per_server: u32,
    /// Mean seconds between arrivals (exponential); scale this with the
    /// cluster so offered load stays below capacity.
    pub inter_arrival_mean: f64,
    /// Trace generator seed.
    pub seed: u64,
}

impl MegaConfig {
    /// The headline configuration: 1M arrivals on 16,384 GPUs
    /// (2048 servers x 8).
    pub fn paper_scale() -> Self {
        MegaConfig {
            arrivals: 1_000_000,
            servers: 2048,
            gpus_per_server: 8,
            inter_arrival_mean: 1.0,
            seed: 0x4d45_4741,
        }
    }

    /// The CI smoke configuration: 100k arrivals on 1,024 GPUs
    /// (128 servers x 8), with the arrival rate scaled down by the same
    /// 16x as the cluster so offered load stays equivalent.
    pub fn smoke() -> Self {
        MegaConfig {
            arrivals: 100_000,
            servers: 128,
            gpus_per_server: 8,
            inter_arrival_mean: 16.0,
            seed: 0x4d45_4741,
        }
    }

    /// Total GPUs in the configured cluster.
    pub fn total_gpus(&self) -> u32 {
        self.servers * self.gpus_per_server
    }
}

/// Everything a mega-cluster run produces that the digest tests check.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaStats {
    /// Arrivals simulated.
    pub arrivals: usize,
    /// Cluster size, GPUs.
    pub total_gpus: u32,
    /// Scheduling events processed (timeline points recorded).
    pub events: usize,
    /// Jobs that ran to completion inside the horizon.
    pub completed: usize,
    /// Jobs dropped by admission (zero under EDF, which admits everything).
    pub dropped: usize,
    /// Fraction of SLO jobs finishing by their deadlines.
    pub deadline_ratio: f64,
    /// Streamed FNV-1a digest over the per-outcome JSON lines — the golden
    /// value proving two runs (or two machines) agree bit for bit.
    pub digest: u64,
}

/// Generates the deterministic mega-cluster trace for `cfg`.
///
/// Draw order per job is fixed (inter-arrival, model, duration, kind,
/// then deadline tightness for deadline-carrying kinds), so the trace is a
/// pure function of the config.
pub fn mega_trace(cfg: &MegaConfig) -> Trace {
    let spec = ClusterSpec::with_servers(cfg.servers, cfg.gpus_per_server);
    let net = Interconnect::from_spec(&spec);
    let models = [
        (DnnModel::ResNet50, 256u32),
        (DnnModel::Vgg16, 128),
        (DnnModel::Bert, 128),
        (DnnModel::Gpt2, 256),
    ];
    // One curve per model mix entry; jobs of the same shape share the knee
    // throughput that converts a duration draw into an iteration budget.
    let knees: Vec<(u32, f64)> = models
        .iter()
        .map(|&(model, gbs)| {
            let curve = ScalingCurve::build_with_max(model, gbs, &net, cfg.total_gpus());
            let knee = curve.knee();
            let tput = curve
                .iters_per_sec(knee)
                .expect("knee is always on the curve");
            (knee, tput)
        })
        .collect();

    let mut rng = Rng::new(cfg.seed);
    let mut now = 0.0_f64;
    let mut jobs = Vec::with_capacity(cfg.arrivals);
    for i in 0..cfg.arrivals {
        now += rng.exponential(cfg.inter_arrival_mean);
        let m = rng.uniform_usize(models.len());
        let (model, gbs) = models[m];
        let (knee, knee_tput) = knees[m];
        let duration = rng.log_normal(120.0, 0.8).clamp(60.0, 7_200.0);
        let kind = rng.weighted_choice(&[0.8, 0.1, 0.1]);
        let builder = JobSpec::builder(JobId::new(i as u64), model, gbs)
            .iterations(knee_tput * duration)
            .submit_time(now)
            .trace_shape(knee, duration);
        let spec = match kind {
            0 => builder
                .deadline(now + duration * rng.uniform_range(1.2, 4.0))
                .build(),
            1 => builder
                .soft_deadline(now + duration * rng.uniform_range(1.2, 4.0))
                .build(),
            _ => builder.build(),
        };
        jobs.push(spec);
    }
    Trace::new(
        format!("mega_cluster_{}x{}", cfg.arrivals, cfg.total_gpus()),
        jobs,
    )
}

/// Runs the mega-cluster trace under EDF and reduces the report to
/// [`MegaStats`]. EDF is the right policy here: it admits everything
/// (every arrival materializes an arena slot) and replans at every event,
/// maximizing pressure on the event queue and job-table layouts.
pub fn run_mega(cfg: &MegaConfig) -> MegaStats {
    let spec = ClusterSpec::with_servers(cfg.servers, cfg.gpus_per_server);
    let trace = mega_trace(cfg);
    let report = Simulation::new(spec, SimConfig::default()).run(&trace, &mut EdfScheduler::new());
    let completed = report
        .outcomes()
        .iter()
        .filter(|o| o.finish_time.is_some())
        .count();
    MegaStats {
        arrivals: cfg.arrivals,
        total_gpus: cfg.total_gpus(),
        events: report.timeline().len(),
        completed,
        dropped: report.dropped(),
        deadline_ratio: report.deadline_satisfactory_ratio(),
        digest: outcome_digest(&report),
    }
}

/// FNV-1a-64 over the concatenation of each outcome's canonical JSON line
/// (newline-terminated). Each outcome serializes straight into the hash,
/// so neither the report nor any one line materializes as a string.
/// Equivalent to `fnv1a64(lines.join(""))` — see the equivalence test
/// below.
pub fn outcome_digest(report: &SimReport) -> u64 {
    let mut hash = Fnv1a64::new();
    for outcome in report.outcomes() {
        outcome
            .serialize(&mut serde_json::Serializer::new(&mut hash))
            .expect("job outcomes serialize infallibly");
        hash.update(b"\n");
    }
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use elasticflow_sim::fnv1a64;

    fn tiny() -> MegaConfig {
        MegaConfig {
            arrivals: 400,
            servers: 16,
            gpus_per_server: 8,
            inter_arrival_mean: 16.0,
            seed: 0x4d45_4741,
        }
    }

    #[test]
    fn trace_is_deterministic_and_sorted() {
        let cfg = tiny();
        let a = mega_trace(&cfg);
        let b = mega_trace(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.jobs().len(), cfg.arrivals);
        assert!(a
            .jobs()
            .windows(2)
            .all(|w| w[0].submit_time <= w[1].submit_time));
    }

    #[test]
    fn run_digest_is_reproducible_and_jobs_finish() {
        let cfg = tiny();
        let a = run_mega(&cfg);
        let b = run_mega(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.dropped, 0, "EDF admits everything");
        assert!(
            a.completed > cfg.arrivals / 2,
            "most jobs should finish at this load, got {}/{}",
            a.completed,
            cfg.arrivals
        );
        assert!(a.events >= cfg.arrivals);
    }

    #[test]
    fn streamed_digest_matches_one_shot_fnv() {
        let cfg = tiny();
        let spec = ClusterSpec::with_servers(cfg.servers, cfg.gpus_per_server);
        let report = Simulation::new(spec, SimConfig::default())
            .run(&mega_trace(&cfg), &mut EdfScheduler::new());
        let mut concat = String::new();
        for o in report.outcomes() {
            concat.push_str(&serde_json::to_string(o).expect("serializes"));
            concat.push('\n');
        }
        assert_eq!(outcome_digest(&report), fnv1a64(concat.as_bytes()));
    }

    #[test]
    fn presets_meet_the_scale_floor() {
        let paper = MegaConfig::paper_scale();
        assert!(paper.arrivals >= 1_000_000);
        assert!(paper.total_gpus() >= 10_000);
        let smoke = MegaConfig::smoke();
        assert!(smoke.arrivals >= 100_000);
        assert!(smoke.total_gpus() >= 1_000);
        // Offered load per GPU is identical across the two presets, so the
        // smoke run exercises the same regime the paper-scale run does.
        let load = |c: &MegaConfig| 1.0 / (c.inter_arrival_mean * f64::from(c.total_gpus()));
        assert!((load(&paper) - load(&smoke)).abs() < 1e-12);
    }
}
