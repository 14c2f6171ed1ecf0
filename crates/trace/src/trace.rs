//! A named collection of jobs.

use serde::{Deserialize, Serialize};

use crate::{JobKind, JobSpec};

/// A workload trace: jobs sorted by submission time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    jobs: Vec<JobSpec>,
}

impl Trace {
    /// Creates a trace, sorting jobs by submission time.
    pub fn new(name: impl Into<String>, mut jobs: Vec<JobSpec>) -> Self {
        jobs.sort_by(|a, b| {
            a.submit_time
                .partial_cmp(&b.submit_time)
                .expect("finite submit times")
                .then(a.id.cmp(&b.id))
        });
        Trace {
            name: name.into(),
            jobs,
        }
    }

    /// The trace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The jobs, ascending by submission time.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of SLO (deadline) jobs.
    pub fn num_slo_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.kind == JobKind::Slo).count()
    }

    /// Number of best-effort jobs.
    pub fn num_best_effort_jobs(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.kind == JobKind::BestEffort)
            .count()
    }

    /// Time span from first submission to the last deadline-or-submission,
    /// seconds. Zero for an empty trace.
    pub fn span(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        let first = self.jobs.first().expect("nonempty").submit_time;
        let last = self
            .jobs
            .iter()
            .map(|j| {
                if j.deadline.is_finite() {
                    j.deadline
                } else {
                    j.submit_time
                }
            })
            .fold(f64::NEG_INFINITY, f64::max);
        last - first
    }
}

impl Extend<JobSpec> for Trace {
    fn extend<T: IntoIterator<Item = JobSpec>>(&mut self, iter: T) {
        self.jobs.extend(iter);
        self.jobs.sort_by(|a, b| {
            a.submit_time
                .partial_cmp(&b.submit_time)
                .expect("finite submit times")
                .then(a.id.cmp(&b.id))
        });
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;
    use crate::{JobId, TraceConfig};
    use elasticflow_perfmodel::{DnnModel, Interconnect};

    fn sample_trace() -> Trace {
        TraceConfig::testbed_small(2).generate(&Interconnect::paper_testbed())
    }

    #[test]
    fn new_sorts_by_submit_time() {
        let a = JobSpec::builder(JobId::new(0), DnnModel::Bert, 64)
            .submit_time(100.0)
            .build();
        let b = JobSpec::builder(JobId::new(1), DnnModel::Bert, 64)
            .submit_time(10.0)
            .build();
        let t = Trace::new("x", vec![a, b]);
        assert_eq!(t.jobs()[0].id, JobId::new(1));
    }

    #[test]
    fn span_and_counts() {
        let t = sample_trace();
        assert!(t.span() > 0.0);
        assert_eq!(t.num_slo_jobs() + t.num_best_effort_jobs(), t.jobs().len());
        let trace_gpu_seconds: f64 = t
            .jobs()
            .iter()
            .map(|j| j.trace_gpus as f64 * j.trace_duration)
            .sum();
        assert!(trace_gpu_seconds > 0.0);
    }

    #[test]
    fn extend_keeps_order() {
        let mut t = sample_trace();
        let early = JobSpec::builder(JobId::new(999), DnnModel::Gpt2, 128)
            .submit_time(0.0)
            .build();
        t.extend([early]);
        assert_eq!(t.jobs()[0].id, JobId::new(999));
    }

    #[test]
    fn empty_trace_span_is_zero() {
        let t = Trace::new("empty", Vec::new());
        assert_eq!(t.span(), 0.0);
    }
}
