//! Simulated pre-run throughput profiling (paper §5 and Fig. 12a).
//!
//! ElasticFlow pre-runs every new (model, batch size) configuration on real
//! GPUs to measure its scaling curve, stopping as soon as adding GPUs stops
//! increasing throughput. We simulate the same procedure against the
//! analytic model and charge the wall-clock time such a pre-run would take,
//! which is what the paper reports in Fig. 12(a).

use serde::{Deserialize, Serialize};

use crate::{DnnModel, Interconnect, ScalingCurve};

/// Result of profiling one (model, global batch) configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// The measured scaling curve (truncated at the first non-improving
    /// worker count, like the paper's early-stopping rule).
    pub curve: ScalingCurve,
    /// Wall-clock seconds the pre-run consumed.
    pub profiling_seconds: f64,
    /// Worker counts that were actually probed.
    pub probed_gpus: Vec<u32>,
}

/// A simulated throughput profiler.
///
/// # Example
///
/// ```
/// use elasticflow_perfmodel::{DnnModel, Interconnect, Profiler};
///
/// let profiler = Profiler::new(Interconnect::paper_testbed());
/// let report = profiler.profile(DnnModel::ResNet50, 128);
/// assert!(report.profiling_seconds > 0.0);
/// assert!(report.curve.is_concave());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profiler {
    net: Interconnect,
    warmup_iterations: u32,
    measured_iterations: u32,
    max_workers: u32,
}

impl Profiler {
    /// Default number of warm-up iterations per probed configuration.
    pub const DEFAULT_WARMUP: u32 = 20;
    /// Default number of measured iterations per probed configuration.
    pub const DEFAULT_MEASURED: u32 = 50;

    /// Creates a profiler over the given interconnect.
    pub fn new(net: Interconnect) -> Self {
        Profiler {
            net,
            warmup_iterations: Self::DEFAULT_WARMUP,
            measured_iterations: Self::DEFAULT_MEASURED,
            max_workers: ScalingCurve::DEFAULT_MAX_WORKERS,
        }
    }

    /// Sets how many iterations are run per probed worker count
    /// (warm-up + measured).
    pub fn iterations(mut self, warmup: u32, measured: u32) -> Self {
        self.warmup_iterations = warmup;
        self.measured_iterations = measured;
        self
    }

    /// Caps the probed worker ladder.
    pub fn max_workers(mut self, max_workers: u32) -> Self {
        self.max_workers = max_workers;
        self
    }

    /// Profiles one (model, global batch) configuration: walks the
    /// power-of-two ladder, runs `warmup + measured` iterations at each
    /// count, and stops after the first count that does not improve
    /// throughput (the paper's early-stopping rule).
    ///
    /// # Panics
    ///
    /// Panics if `global_batch` is zero.
    pub fn profile(&self, model: DnnModel, global_batch: u32) -> ProfileReport {
        let full = ScalingCurve::build_with_max(model, global_batch, &self.net, self.max_workers);
        let iters = (self.warmup_iterations + self.measured_iterations) as f64;
        let mut seconds = 0.0;
        let mut probed = Vec::new();
        let mut kept = Vec::new();
        let mut best = 0.0f64;
        for point in full.points() {
            probed.push(point.gpus);
            seconds += iters / point.iters_per_sec;
            kept.push(*point);
            if point.iters_per_sec <= best {
                break; // adding GPUs stopped helping
            }
            best = point.iters_per_sec;
        }
        ProfileReport {
            curve: ScalingCurve::from_points(model, global_batch, kept),
            profiling_seconds: seconds,
            probed_gpus: probed,
        }
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new(Interconnect::paper_testbed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiling_stops_at_the_knee() {
        let profiler = Profiler::default();
        let report = profiler.profile(DnnModel::Vgg16, 256);
        let knee = report.curve.knee();
        // The profiler probes one step past the knee at most.
        let last = *report.probed_gpus.last().unwrap();
        assert!(last <= knee * 2, "probed {last} but knee is {knee}");
    }

    #[test]
    fn profiling_cost_is_minutes_not_hours() {
        // Paper Fig 12(a): profiling overhead per model is marginal
        // relative to hours-long training jobs.
        let profiler = Profiler::default();
        for (model, batches) in crate::PAPER_TABLE1 {
            // Every Table 1 batch size of one model: one bar of Fig. 12(a).
            let seconds: f64 = batches
                .iter()
                .map(|&b| profiler.profile(model, b).profiling_seconds)
                .sum();
            assert!(seconds > 0.0);
            assert!(
                seconds < 3600.0,
                "{model} profiling {seconds:.0}s exceeds an hour"
            );
        }
    }

    #[test]
    fn slower_models_cost_more_to_profile() {
        let profiler = Profiler::default();
        let fast = profiler.profile(DnnModel::ResNet50, 64).profiling_seconds;
        let slow = profiler.profile(DnnModel::Gpt2, 256).profiling_seconds;
        assert!(slow > fast);
    }

    #[test]
    fn custom_iteration_counts_scale_cost() {
        let base = Profiler::default().iterations(10, 10);
        let double = Profiler::default().iterations(20, 20);
        let a = base.profile(DnnModel::Bert, 128).profiling_seconds;
        let b = double.profile(DnnModel::Bert, 128).profiling_seconds;
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn probed_curve_is_usable_by_scheduler() {
        let report = Profiler::default().profile(DnnModel::InceptionV3, 128);
        assert!(report.curve.iters_per_sec(1).is_some());
        assert!(report.curve.is_concave());
    }
}
