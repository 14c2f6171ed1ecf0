//! Tiresias two-dimensional LAS (Gu et al., NSDI'19; §6.1 baseline).
//!
//! Tiresias schedules by *attained service* — GPU count x time received so
//! far — discretized into a small number of priority queues (2D-LAS with
//! priority discretization to limit preemptions). Jobs that have consumed
//! little service run first; within a queue, FIFO. Like the original it is
//! neither elastic (fixed trace sizes) nor deadline-aware.

use crate::{AdmissionDecision, ClusterView, JobRuntime, JobTable, SchedulePlan, Scheduler};

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
#[derive(Debug, Clone, Default)]
pub struct TiresiasScheduler {
    _private: (),
}

/// Attained-service thresholds (GPU-seconds) separating the discretized
/// priority queues, ascending: 1 GPU-hour and 10 GPU-hours, giving three
/// queues as in the paper's two-threshold configuration.
const QUEUE_THRESHOLDS: [f64; 2] = [3_600.0, 36_000.0];

impl TiresiasScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        TiresiasScheduler::default()
    }

    fn queue_of(attained_gpu_seconds: f64) -> usize {
        QUEUE_THRESHOLDS
            .iter()
            .position(|&t| attained_gpu_seconds < t)
            .unwrap_or(QUEUE_THRESHOLDS.len())
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
            .map(|j| (Self::queue_of(j.gpu_seconds), j.spec.submit_time, j))
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
        assert_eq!(TiresiasScheduler::queue_of(0.0), 0);
        assert_eq!(TiresiasScheduler::queue_of(3_599.0), 0);
        assert_eq!(TiresiasScheduler::queue_of(3_600.0), 1);
        assert_eq!(TiresiasScheduler::queue_of(100_000.0), 2);
    }

    #[test]
    fn not_elastic() {
        let mut table = JobTable::new();
        table.insert(job(1, 0.0, None, 4));
        let plan = TiresiasScheduler::new().plan(0.0, &ClusterView::new(64), &table);
        assert_eq!(plan.gpus(JobId::new(1)), 4);
    }
}
