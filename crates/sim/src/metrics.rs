//! Simulation outputs: per-job outcomes, timelines, and the paper's
//! evaluation metrics.

use elasticflow_trace::{JobId, JobKind};
use serde::{Deserialize, Serialize};

/// Final disposition of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Job id.
    pub id: JobId,
    /// SLO or best-effort.
    pub kind: JobKind,
    /// Submission time.
    pub submit_time: f64,
    /// Deadline (infinite for best-effort).
    pub deadline: f64,
    /// `true` if admission control rejected the job.
    pub dropped: bool,
    /// Completion time, if the job finished within the simulation horizon.
    pub finish_time: Option<f64>,
    /// GPU-seconds the job consumed.
    pub gpu_seconds: f64,
    /// Seconds the job spent paused by scaling/migration events.
    pub paused_seconds: f64,
    /// Number of allocation changes (scale events) the job experienced.
    pub scale_events: u32,
}

impl JobOutcome {
    /// `true` when the job finished at or before its deadline.
    pub fn met_deadline(&self) -> bool {
        matches!(self.finish_time, Some(t) if t <= self.deadline)
    }

    /// Job completion time (finish - submit), if finished.
    pub fn jct(&self) -> Option<f64> {
        self.finish_time.map(|t| t - self.submit_time)
    }
}

/// One sample of the cluster state over time, recorded at every scheduling
/// event (the series behind the paper's Figs. 7 and 10).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Timestamp, seconds.
    pub time: f64,
    /// GPUs allocated to jobs at this instant.
    pub used_gpus: u32,
    /// Cluster efficiency (paper Eq. 8) at this instant.
    pub cluster_efficiency: f64,
    /// Jobs submitted so far.
    pub submitted: usize,
    /// Jobs admitted so far.
    pub admitted: usize,
}

/// Everything a simulation run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    scheduler: String,
    trace: String,
    total_gpus: u32,
    outcomes: Vec<JobOutcome>,
    timeline: Vec<TimelinePoint>,
    migrations: u32,
    total_pause_seconds: f64,
    end_time: f64,
}

impl SimReport {
    /// Assembles a report (used by the engine).
    #[expect(
        clippy::too_many_arguments,
        reason = "the engine hands over each run total it accumulated"
    )]
    pub(crate) fn new(
        scheduler: String,
        trace: String,
        total_gpus: u32,
        outcomes: Vec<JobOutcome>,
        timeline: Vec<TimelinePoint>,
        migrations: u32,
        total_pause_seconds: f64,
        end_time: f64,
    ) -> Self {
        SimReport {
            scheduler,
            trace,
            total_gpus,
            outcomes,
            timeline,
            migrations,
            total_pause_seconds,
            end_time,
        }
    }

    /// Name of the scheduling policy that produced this report.
    pub fn scheduler(&self) -> &str {
        &self.scheduler
    }

    /// Name of the trace that was replayed.
    pub fn trace(&self) -> &str {
        &self.trace
    }

    /// Cluster size used for the run.
    pub fn total_gpus(&self) -> u32 {
        self.total_gpus
    }

    /// Per-job outcomes, ascending by id.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// The recorded cluster timeline.
    pub fn timeline(&self) -> &[TimelinePoint] {
        &self.timeline
    }

    /// Number of defragmentation migrations performed.
    pub fn migrations(&self) -> u32 {
        self.migrations
    }

    /// Total job-pause seconds charged for scaling/migration.
    pub fn total_pause_seconds(&self) -> f64 {
        self.total_pause_seconds
    }

    /// Simulation end time (last event processed).
    pub fn end_time(&self) -> f64 {
        self.end_time
    }

    /// The paper's headline metric: fraction of *SLO* jobs that finished by
    /// their deadlines, over all submitted SLO jobs (dropped jobs count
    /// against it). Returns 1.0 for a trace without SLO jobs.
    pub fn deadline_satisfactory_ratio(&self) -> f64 {
        let slo: Vec<&JobOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.kind == JobKind::Slo)
            .collect();
        if slo.is_empty() {
            return 1.0;
        }
        let met = slo.iter().filter(|o| o.met_deadline()).count();
        met as f64 / slo.len() as f64
    }

    /// Fraction of *soft-deadline* jobs that finished by their deadlines
    /// (§4.4). Soft jobs are never dropped, so misses are always
    /// late-finishes. Returns 1.0 when the trace has none.
    pub fn soft_deadline_satisfactory_ratio(&self) -> f64 {
        let soft: Vec<&JobOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.kind == JobKind::SoftDeadline)
            .collect();
        if soft.is_empty() {
            return 1.0;
        }
        let met = soft.iter().filter(|o| o.met_deadline()).count();
        met as f64 / soft.len() as f64
    }

    /// Number of SLO jobs that met their deadlines.
    pub fn deadlines_met(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.kind == JobKind::Slo && o.met_deadline())
            .count()
    }

    /// Number of jobs dropped by admission control.
    pub fn dropped(&self) -> usize {
        self.outcomes.iter().filter(|o| o.dropped).count()
    }

    /// Mean JCT of finished best-effort jobs, `None` when there are none.
    pub fn avg_best_effort_jct(&self) -> Option<f64> {
        let jcts: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.kind == JobKind::BestEffort)
            .filter_map(JobOutcome::jct)
            .collect();
        if jcts.is_empty() {
            None
        } else {
            Some(jcts.iter().sum::<f64>() / jcts.len() as f64)
        }
    }

    /// Time from the first submission to the last completion (the makespan
    /// the paper reports in §6.4). `None` if nothing finished.
    pub fn makespan(&self) -> Option<f64> {
        let first = self
            .outcomes
            .iter()
            .map(|o| o.submit_time)
            .fold(f64::INFINITY, f64::min);
        let last = self
            .outcomes
            .iter()
            .filter_map(|o| o.finish_time)
            .fold(f64::NEG_INFINITY, f64::max);
        if last.is_finite() && first.is_finite() {
            Some(last - first)
        } else {
            None
        }
    }

    /// Time-weighted mean cluster efficiency over `[0, horizon]` (used for
    /// the paper's Fig. 10 comparison).
    pub fn mean_cluster_efficiency(&self, horizon: f64) -> f64 {
        if self.timeline.len() < 2 {
            return 0.0;
        }
        let mut weighted = 0.0;
        let mut span = 0.0;
        for pair in self.timeline.windows(2) {
            let t0 = pair[0].time;
            let t1 = pair[1].time.min(horizon);
            if t1 <= t0 {
                continue;
            }
            weighted += pair[0].cluster_efficiency * (t1 - t0);
            span += t1 - t0;
        }
        if span > 0.0 {
            weighted / span
        } else {
            0.0
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

    fn outcome(id: u64, kind: JobKind, finish: Option<f64>, deadline: f64) -> JobOutcome {
        JobOutcome {
            id: JobId::new(id),
            kind,
            submit_time: 0.0,
            deadline,
            dropped: finish.is_none(),
            finish_time: finish,
            gpu_seconds: 10.0,
            paused_seconds: 0.0,
            scale_events: 1,
        }
    }

    fn report(outcomes: Vec<JobOutcome>) -> SimReport {
        SimReport::new(
            "test".into(),
            "trace".into(),
            16,
            outcomes,
            vec![
                TimelinePoint {
                    time: 0.0,
                    used_gpus: 8,
                    cluster_efficiency: 0.5,
                    submitted: 1,
                    admitted: 1,
                },
                TimelinePoint {
                    time: 10.0,
                    used_gpus: 0,
                    cluster_efficiency: 0.0,
                    submitted: 1,
                    admitted: 1,
                },
            ],
            0,
            0.0,
            10.0,
        )
    }

    #[test]
    fn dsr_counts_only_slo_jobs() {
        let r = report(vec![
            outcome(1, JobKind::Slo, Some(50.0), 100.0),  // met
            outcome(2, JobKind::Slo, Some(150.0), 100.0), // missed
            outcome(3, JobKind::Slo, None, 100.0),        // dropped
            outcome(4, JobKind::BestEffort, Some(1.0), f64::INFINITY),
        ]);
        assert!((r.deadline_satisfactory_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.deadlines_met(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn dsr_for_pure_best_effort_is_one() {
        let r = report(vec![outcome(
            1,
            JobKind::BestEffort,
            Some(5.0),
            f64::INFINITY,
        )]);
        assert_eq!(r.deadline_satisfactory_ratio(), 1.0);
    }

    #[test]
    fn best_effort_jct() {
        let r = report(vec![
            outcome(1, JobKind::BestEffort, Some(10.0), f64::INFINITY),
            outcome(2, JobKind::BestEffort, Some(30.0), f64::INFINITY),
            outcome(3, JobKind::Slo, Some(99.0), 100.0),
        ]);
        assert_eq!(r.avg_best_effort_jct(), Some(20.0));
    }

    #[test]
    fn makespan_spans_first_submit_to_last_finish() {
        let r = report(vec![
            outcome(1, JobKind::Slo, Some(80.0), 100.0),
            outcome(2, JobKind::Slo, Some(120.0), 200.0),
        ]);
        assert_eq!(r.makespan(), Some(120.0));
    }

    #[test]
    fn mean_ce_is_time_weighted() {
        let r = report(vec![outcome(1, JobKind::Slo, Some(5.0), 10.0)]);
        assert!((r.mean_cluster_efficiency(10.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn serde_roundtrip() {
        let r = report(vec![outcome(1, JobKind::Slo, Some(5.0), 10.0)]);
        let json = serde_json::to_string(&r).unwrap();
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
