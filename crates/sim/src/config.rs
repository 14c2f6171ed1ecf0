//! Simulation parameters.

use elasticflow_perfmodel::OverheadModel;
use serde::{Deserialize, Serialize};

use crate::FailureSchedule;

/// Tunables of a simulation run.
///
/// # Example
///
/// ```
/// use elasticflow_sim::SimConfig;
///
/// let cfg = SimConfig::default().with_slot_seconds(600.0);
/// assert_eq!(cfg.slot_seconds, 600.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Length of a scheduling slot, seconds. The scheduler replans at every
    /// slot boundary in addition to every arrival/completion. The paper's
    /// measured average interval between scheduling events is ~23 minutes;
    /// slots here default to 5 minutes so elasticity reacts at least that
    /// fast even in quiet periods.
    pub slot_seconds: f64,
    /// Cost model for scaling/migration pauses; use
    /// [`OverheadModel::free`] to isolate algorithmic effects.
    pub overheads: OverheadModel,
    /// Stop simulating this many seconds after the last arrival even if
    /// jobs remain unfinished (guards against starved non-elastic jobs that
    /// can never be placed). `f64::INFINITY` disables the horizon.
    pub horizon_after_last_arrival: f64,
    /// Injected server failures (§4.4); empty by default.
    #[serde(default)]
    pub failures: FailureSchedule,
}

impl SimConfig {
    /// Sets the slot length.
    ///
    /// # Panics
    ///
    /// Panics if `slot_seconds` is not strictly positive and finite.
    pub fn with_slot_seconds(mut self, slot_seconds: f64) -> Self {
        assert!(
            slot_seconds.is_finite() && slot_seconds > 0.0,
            "slot length must be positive and finite"
        );
        self.slot_seconds = slot_seconds;
        self
    }

    /// Sets the overhead model.
    pub fn with_overheads(mut self, overheads: OverheadModel) -> Self {
        self.overheads = overheads;
        self
    }

    /// Sets the failure schedule.
    pub fn with_failures(mut self, failures: FailureSchedule) -> Self {
        self.failures = failures;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            slot_seconds: 300.0,
            overheads: OverheadModel::paper_calibrated(),
            horizon_after_last_arrival: 60.0 * 86_400.0,
            failures: FailureSchedule::none(),
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let cfg = SimConfig::default();
        assert!(cfg.slot_seconds > 0.0);
        assert!(cfg.horizon_after_last_arrival > 0.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_slot() {
        let _ = SimConfig::default().with_slot_seconds(0.0);
    }

    #[test]
    fn builder_chains() {
        let cfg = SimConfig::default()
            .with_slot_seconds(120.0)
            .with_overheads(OverheadModel::free());
        assert_eq!(cfg.slot_seconds, 120.0);
        assert_eq!(cfg.overheads, OverheadModel::free());
    }
}
