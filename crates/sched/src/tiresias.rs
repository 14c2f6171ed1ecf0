//! Tiresias two-dimensional LAS (Gu et al., NSDI'19; §6.1 baseline).
//!
//! Tiresias schedules by *attained service* — GPU count x time received so
//! far — discretized into a small number of priority queues (2D-LAS with
//! priority discretization to limit preemptions). Jobs that have consumed
//! little service run first; within a queue, FIFO. Like the original it is
//! neither elastic (fixed trace sizes) nor deadline-aware.

use serde::{Deserialize, Serialize};

use crate::{
    AdmissionDecision, ClusterView, JobRuntime, JobTable, RestoreError, SchedulePlan, Scheduler,
};

/// The Tiresias baseline scheduler.
///
/// # Example
///
/// ```
/// use elasticflow_sched::{Scheduler, TiresiasScheduler};
///
/// let t = TiresiasScheduler::new();
/// assert_eq!(t.name(), "tiresias");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TiresiasScheduler {
    /// Attained-service thresholds (GPU-seconds) separating the discretized
    /// priority queues, ascending.
    queue_thresholds: Vec<f64>,
}

impl TiresiasScheduler {
    /// Default queue thresholds: 1 GPU-hour and 10 GPU-hours, giving three
    /// discretized queues as in the paper's two-threshold configuration.
    pub fn new() -> Self {
        TiresiasScheduler {
            queue_thresholds: vec![3_600.0, 36_000.0],
        }
    }

    /// Custom thresholds (ascending GPU-seconds).
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are not strictly ascending and positive.
    pub fn with_thresholds(queue_thresholds: Vec<f64>) -> Self {
        assert!(
            queue_thresholds.windows(2).all(|w| w[0] < w[1])
                && queue_thresholds.iter().all(|&t| t > 0.0),
            "thresholds must be positive and strictly ascending"
        );
        TiresiasScheduler { queue_thresholds }
    }

    fn queue_of(&self, attained_gpu_seconds: f64) -> usize {
        self.queue_thresholds
            .iter()
            .position(|&t| attained_gpu_seconds < t)
            .unwrap_or(self.queue_thresholds.len())
    }
}

impl Default for TiresiasScheduler {
    fn default() -> Self {
        TiresiasScheduler::new()
    }
}

impl Scheduler for TiresiasScheduler {
    fn name(&self) -> &str {
        "tiresias"
    }

    fn on_job_arrival(
        &mut self,
        _job: &JobRuntime,
        _now: f64,
        _view: &ClusterView,
        _jobs: &JobTable,
    ) -> AdmissionDecision {
        AdmissionDecision::Admit
    }

    fn plan(&mut self, _now: f64, view: &ClusterView, jobs: &JobTable) -> SchedulePlan {
        let mut order: Vec<(usize, f64, &JobRuntime)> = jobs
            .active()
            .map(|j| (self.queue_of(j.gpu_seconds), j.spec.submit_time, j))
            .collect();
        // Lower queue first; FIFO inside a queue; id as final tiebreak.
        order.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.id().cmp(&b.2.id()))
        });
        let mut plan = SchedulePlan::new();
        let mut free = view.total_gpus;
        for (_, _, job) in order {
            let want = job.requested_gpus();
            if want <= free {
                plan.assign(job.id(), want);
                free -= want;
            }
        }
        plan
    }

    // Tiresias is plain-old-data (the threshold vector), so the whole
    // policy doubles as its own checkpoint state.
    fn snapshot_state(&self) -> Option<String> {
        serde_json::to_string(self).ok()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), RestoreError> {
        let parsed: TiresiasScheduler = serde_json::from_str(state)
            .map_err(|e| RestoreError::new(format!("tiresias state did not parse: {e}")))?;
        if parsed.queue_thresholds.is_empty()
            || !parsed.queue_thresholds.windows(2).all(|w| w[0] < w[1])
            || !parsed.queue_thresholds.iter().all(|&t| t > 0.0)
        {
            return Err(RestoreError::new(
                "tiresias queue thresholds must be positive and strictly ascending",
            ));
        }
        *self = parsed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::job;
    use elasticflow_trace::JobId;

    #[test]
    fn low_attained_service_wins() {
        let mut table = JobTable::new();
        let mut old = job(1, 0.0, None, 8);
        old.gpu_seconds = 50_000.0; // highest queue
        table.insert(old);
        let mut fresh = job(2, 500.0, None, 8);
        fresh.gpu_seconds = 10.0; // lowest queue
        table.insert(fresh);
        let plan = TiresiasScheduler::new().plan(1_000.0, &ClusterView::new(8), &table);
        assert_eq!(plan.gpus(JobId::new(2)), 8);
        assert_eq!(plan.gpus(JobId::new(1)), 0);
    }

    #[test]
    fn fifo_within_queue() {
        let mut table = JobTable::new();
        table.insert(job(1, 100.0, None, 8));
        table.insert(job(2, 50.0, None, 8));
        let plan = TiresiasScheduler::new().plan(1_000.0, &ClusterView::new(8), &table);
        assert_eq!(plan.gpus(JobId::new(2)), 8);
    }

    #[test]
    fn queue_discretization() {
        let t = TiresiasScheduler::new();
        assert_eq!(t.queue_of(0.0), 0);
        assert_eq!(t.queue_of(3_599.0), 0);
        assert_eq!(t.queue_of(3_600.0), 1);
        assert_eq!(t.queue_of(100_000.0), 2);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bad_thresholds_panic() {
        let _ = TiresiasScheduler::with_thresholds(vec![10.0, 5.0]);
    }

    #[test]
    fn not_elastic() {
        let mut table = JobTable::new();
        table.insert(job(1, 0.0, None, 4));
        let plan = TiresiasScheduler::new().plan(0.0, &ClusterView::new(64), &table);
        assert_eq!(plan.gpus(JobId::new(1)), 4);
    }

    #[test]
    fn restore_state_rejects_bad_thresholds_and_accepts_its_own_state() {
        let mut t = TiresiasScheduler::new();
        for bad in ["[]", "[10.0,5.0]", "[5.0,5.0]", "[0.0,5.0]"] {
            let state = format!("{{\"queue_thresholds\":{bad}}}");
            let err = t.restore_state(&state).expect_err(&state);
            assert!(err.reason().contains("strictly ascending"), "{err}");
        }
        assert_eq!(t, TiresiasScheduler::new(), "a rejected state was applied");
        let tuned = TiresiasScheduler::with_thresholds(vec![60.0, 600.0, 6_000.0]);
        let state = tuned.snapshot_state().expect("tiresias is stateful");
        t.restore_state(&state).expect("own state restores");
        assert_eq!(t, tuned);
    }
}
