//! Deterministic open-loop arrival streams for the gateway.
//!
//! The same generator discipline as the mega-cluster bench workload:
//! one [`Rng`] stream, a fixed draw order per job (inter-arrival,
//! model, duration, kind, deadline slack), so the stream is a pure
//! function of its [`LoadgenConfig`] — two invocations produce
//! byte-identical request lines, which is what lets the CI smoke replay
//! "the same" load against a fresh and a crash-recovered daemon and
//! diff the journals.
//!
//! Iteration budgets come from each model's knee throughput on the
//! configured cluster, so a duration draw of `d` seconds means "a job
//! that takes ≈`d` seconds at its sweet-spot share" — deadlines drawn
//! at 1.2–4× the duration then put the stream in the regime where
//! admission control actually has to say no sometimes.

use elasticflow_cluster::ClusterSpec;
use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
use elasticflow_trace::Rng;

use crate::proto::{JobSubmission, Request};

/// Parameters of one generated request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadgenConfig {
    /// Number of submissions to generate.
    pub arrivals: usize,
    /// Servers of the target cluster (sizes iteration budgets).
    pub servers: u32,
    /// GPUs per server of the target cluster.
    pub gpus_per_server: u32,
    /// Mean seconds between arrivals (exponential draws).
    pub mean_interarrival: f64,
    /// Fraction of submissions carrying no deadline.
    pub best_effort_fraction: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    /// The paper's large testbed (16 servers × 8 GPUs) under a load
    /// that saturates admission: ~2 s between arrivals, 10%
    /// best-effort.
    fn default() -> Self {
        LoadgenConfig {
            arrivals: 1_000,
            servers: 16,
            gpus_per_server: 8,
            mean_interarrival: 2.0,
            best_effort_fraction: 0.1,
            seed: 0x5345_5256, // "SERV"
        }
    }
}

impl LoadgenConfig {
    /// Total GPUs in the target cluster.
    pub fn total_gpus(&self) -> u32 {
        self.servers * self.gpus_per_server
    }
}

/// The model mix of the stream (model, global batch), matching the
/// bench workloads.
const MODELS: [(DnnModel, u32); 4] = [
    (DnnModel::ResNet50, 256),
    (DnnModel::Vgg16, 128),
    (DnnModel::Bert, 128),
    (DnnModel::Gpt2, 256),
];

/// Generates the deterministic request stream for `cfg`, in arrival
/// order.
pub fn loadgen_stream(cfg: &LoadgenConfig) -> Vec<Request> {
    let spec = ClusterSpec::with_servers(cfg.servers, cfg.gpus_per_server);
    let net = Interconnect::from_spec(&spec);
    let knee_throughputs: Vec<f64> = MODELS
        .iter()
        .map(|&(model, gbs)| {
            let curve = ScalingCurve::build_with_max(model, gbs, &net, cfg.total_gpus());
            curve
                .iters_per_sec(curve.knee())
                .unwrap_or(1.0)
                .max(f64::MIN_POSITIVE)
        })
        .collect();

    let mut rng = Rng::new(cfg.seed);
    let mut now = 0.0_f64;
    let mut requests = Vec::with_capacity(cfg.arrivals);
    for i in 0..cfg.arrivals {
        now += rng.exponential(cfg.mean_interarrival);
        let m = rng.uniform_usize(MODELS.len());
        let (model, global_batch) = MODELS[m];
        let duration = rng.log_normal(600.0, 0.8).clamp(120.0, 7_200.0);
        let best_effort = rng.weighted_choice(&[
            (1.0 - cfg.best_effort_fraction).max(0.0),
            cfg.best_effort_fraction.clamp(0.0, 1.0),
        ]) == 1;
        let slack = rng.uniform_range(1.2, 4.0);
        let deadline_seconds = if best_effort {
            None
        } else {
            Some(now + duration * slack)
        };
        requests.push(Request::Submit {
            job: JobSubmission {
                id: i as u64,
                model,
                global_batch,
                iterations: knee_throughputs[m] * duration,
                arrival_seconds: now,
                deadline_seconds,
            },
        });
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "the test fails on any variant it does not expect"
    )]
    fn streams_are_deterministic_and_time_ordered() {
        let cfg = LoadgenConfig {
            arrivals: 500,
            ..LoadgenConfig::default()
        };
        let a = loadgen_stream(&cfg);
        let b = loadgen_stream(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        let arrivals: Vec<f64> = a
            .iter()
            .map(|r| match r {
                Request::Submit { job } => job.arrival_seconds,
                other => panic!("loadgen emits submits only, got {other:?}"),
            })
            .collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn best_effort_fraction_is_respected() {
        let cfg = LoadgenConfig {
            arrivals: 2_000,
            best_effort_fraction: 0.25,
            ..LoadgenConfig::default()
        };
        let stream = loadgen_stream(&cfg);
        let best_effort = stream
            .iter()
            .filter(|r| matches!(r, Request::Submit { job } if job.deadline_seconds.is_none()))
            .count();
        let fraction = best_effort as f64 / stream.len() as f64;
        assert!(
            (fraction - 0.25).abs() < 0.05,
            "best-effort fraction drifted to {fraction}"
        );
    }

    #[test]
    fn deadlines_leave_positive_slack() {
        let stream = loadgen_stream(&LoadgenConfig::default());
        for request in &stream {
            let Request::Submit { job } = request else {
                continue;
            };
            if let Some(deadline) = job.deadline_seconds {
                assert!(deadline > job.arrival_seconds);
            }
            assert!(job.iterations > 0.0);
        }
    }
}
