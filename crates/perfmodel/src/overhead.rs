//! Scaling and migration overheads (paper §5 and Fig. 12b).
//!
//! ElasticFlow scales a job by checkpointing its parameters, adjusting the
//! worker set, and restoring — "suspend, restart on a new set of GPUs". The
//! paper measures this pause at a few seconds to tens of seconds per event,
//! dominated by PyTorch checkpoint/restore, and its simulator charges the
//! measured pause on every scheduling event. We model the same cost:
//! checkpoint + restore proportional to model state size, plus a per-worker
//! process-group setup term.

use serde::{Deserialize, Serialize};

use crate::ModelProfile;

/// One elastic scaling or migration event to be charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScalingEvent {
    /// Worker count before the event (0 = the job was suspended/new).
    pub from_gpus: u32,
    /// Worker count after the event (0 = the job is being suspended).
    pub to_gpus: u32,
    /// `true` when the GPU *set* changes without a size change
    /// (defragmentation migration).
    pub migration: bool,
}

impl ScalingEvent {
    /// A scale event from `from_gpus` to `to_gpus` workers.
    pub fn scale(from_gpus: u32, to_gpus: u32) -> Self {
        ScalingEvent {
            from_gpus,
            to_gpus,
            migration: false,
        }
    }

    /// A same-size migration of `gpus` workers to a different GPU set.
    pub fn migrate(gpus: u32) -> Self {
        ScalingEvent {
            from_gpus: gpus,
            to_gpus: gpus,
            migration: true,
        }
    }

    /// `true` when the event actually changes or moves the worker set.
    pub fn is_real_change(&self) -> bool {
        self.migration || self.from_gpus != self.to_gpus
    }
}

/// The checkpoint/restore cost model for elastic scaling events.
///
/// # Example
///
/// ```
/// use elasticflow_perfmodel::{DnnModel, OverheadModel, ScalingEvent};
///
/// let model = OverheadModel::paper_calibrated();
/// let pause = model.pause_seconds(
///     &DnnModel::Bert.profile(),
///     ScalingEvent::scale(1, 8),
/// );
/// assert!(pause > 0.0 && pause < 60.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadModel {
    /// Checkpoint write bandwidth, bytes/s.
    pub checkpoint_bw: f64,
    /// Checkpoint read (restore) bandwidth, bytes/s.
    pub restore_bw: f64,
    /// Fixed cost per event (scheduler round-trips, process control).
    pub base_seconds: f64,
    /// Cost of (re)initializing the communication group, per worker.
    pub per_worker_setup_seconds: f64,
}

impl OverheadModel {
    /// The calibration used for all experiments: pauses of roughly 3–20 s
    /// per event depending on model size, matching the magnitudes in the
    /// paper's Fig. 12(b).
    pub fn paper_calibrated() -> Self {
        OverheadModel {
            checkpoint_bw: 0.8e9,
            restore_bw: 1.0e9,
            base_seconds: 1.5,
            per_worker_setup_seconds: 0.4,
        }
    }

    /// A zero-cost model (useful to isolate algorithmic effects in tests
    /// and ablations).
    pub fn free() -> Self {
        OverheadModel {
            checkpoint_bw: f64::INFINITY,
            restore_bw: f64::INFINITY,
            base_seconds: 0.0,
            per_worker_setup_seconds: 0.0,
        }
    }

    /// The pause a job suffers for one scaling/migration event.
    ///
    /// Events that change nothing cost nothing. Suspend-only events pay the
    /// checkpoint but not the restore; resume-only events the reverse.
    pub fn pause_seconds(&self, profile: &ModelProfile, event: ScalingEvent) -> f64 {
        if !event.is_real_change() {
            return 0.0;
        }
        let bytes = profile.checkpoint_bytes();
        let mut pause = self.base_seconds;
        if event.from_gpus > 0 {
            pause += bytes / self.checkpoint_bw;
        }
        if event.to_gpus > 0 {
            pause += bytes / self.restore_bw;
            pause += self.per_worker_setup_seconds * (event.to_gpus as f64).log2().max(1.0);
        }
        pause
    }
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel::paper_calibrated()
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;
    use crate::DnnModel;

    #[test]
    fn noop_event_is_free() {
        let m = OverheadModel::paper_calibrated();
        let p = DnnModel::ResNet50.profile();
        assert_eq!(m.pause_seconds(&p, ScalingEvent::scale(4, 4)), 0.0);
    }

    #[test]
    fn migration_costs_like_scaling() {
        // Paper Fig 12(b): the five cases (1->8, 2->8, 4->8, 8->4, migrate 8)
        // have similar overheads because checkpoint/restore dominates.
        let m = OverheadModel::paper_calibrated();
        let p = DnnModel::Bert.profile();
        let cases = [
            ScalingEvent::scale(1, 8),
            ScalingEvent::scale(2, 8),
            ScalingEvent::scale(4, 8),
            ScalingEvent::scale(8, 4),
            ScalingEvent::migrate(8),
        ];
        let pauses: Vec<f64> = cases.iter().map(|&e| m.pause_seconds(&p, e)).collect();
        let min = pauses.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = pauses.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 2.0, "cases too dissimilar: {pauses:?}");
    }

    #[test]
    fn bigger_models_pause_longer() {
        let m = OverheadModel::paper_calibrated();
        let small = m.pause_seconds(&DnnModel::InceptionV3.profile(), ScalingEvent::scale(2, 4));
        let big = m.pause_seconds(&DnnModel::Vgg16.profile(), ScalingEvent::scale(2, 4));
        assert!(big > small);
    }

    #[test]
    fn suspend_skips_restore_cost() {
        let m = OverheadModel::paper_calibrated();
        let p = DnnModel::Gpt2.profile();
        let suspend = m.pause_seconds(&p, ScalingEvent::scale(4, 0));
        let full = m.pause_seconds(&p, ScalingEvent::scale(4, 8));
        assert!(suspend < full);
    }

    #[test]
    fn free_model_is_zero() {
        let m = OverheadModel::free();
        let p = DnnModel::Vgg16.profile();
        assert_eq!(m.pause_seconds(&p, ScalingEvent::scale(1, 8)), 0.0);
    }

    #[test]
    fn pauses_are_marginal_relative_to_scheduling_interval() {
        // Paper: average scheduling interval ~23 min; pauses must be small
        // in comparison.
        let m = OverheadModel::paper_calibrated();
        for model in DnnModel::ALL {
            let pause = m.pause_seconds(&model.profile(), ScalingEvent::scale(1, 8));
            assert!(pause < 23.0 * 60.0 * 0.1, "{model}: {pause}");
        }
    }
}
