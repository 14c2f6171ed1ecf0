//! Training job specifications as submitted to the platform.

use std::fmt;

use elasticflow_perfmodel::DnnModel;
use serde::{Deserialize, Serialize};

/// Unique identifier of a training job within one trace / platform run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct JobId(u64);

impl JobId {
    /// Creates a job id from a raw integer.
    pub fn new(raw: u64) -> Self {
        JobId(raw)
    }

    /// The raw integer value (also used as the cluster owner tag).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

impl From<u64> for JobId {
    fn from(raw: u64) -> Self {
        JobId(raw)
    }
}

/// Whether a job carries a deadline SLO, a soft deadline, or runs
/// best-effort (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobKind {
    /// The job has a hard deadline; ElasticFlow either guarantees it or
    /// drops the job at admission.
    Slo,
    /// The job has a deadline worth meeting, but finishing late is still
    /// useful: never dropped, guaranteed when possible, otherwise finished
    /// as early as leftover capacity allows (paper §4.4, "hard vs. soft
    /// deadlines").
    SoftDeadline,
    /// No deadline; scheduled with leftover resources, minimizing JCT.
    BestEffort,
}

impl JobKind {
    /// `true` for kinds that carry a (finite) deadline.
    pub fn has_deadline(self) -> bool {
        matches!(self, JobKind::Slo | JobKind::SoftDeadline)
    }
}

/// A training job as submitted through the serverless interface (§3.1):
/// model + hyper-parameters + termination condition + deadline. The user
/// never specifies a GPU count — `trace_gpus` records what the *original
/// server-centric trace* requested and is only consumed by the non-elastic
/// baseline schedulers.
///
/// # Example
///
/// ```
/// use elasticflow_trace::{JobId, JobKind, JobSpec};
/// use elasticflow_perfmodel::DnnModel;
///
/// let job = JobSpec::builder(JobId::new(1), DnnModel::Bert, 128)
///     .iterations(50_000.0)
///     .submit_time(0.0)
///     .deadline(3_600.0 * 8.0)
///     .build();
/// assert_eq!(job.kind, JobKind::Slo);
/// assert!(job.is_slo());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique id.
    pub id: JobId,
    /// The DNN model to train.
    pub model: DnnModel,
    /// Global batch size (a hyper-parameter; the platform derives local
    /// batch sizes from it).
    pub global_batch: u32,
    /// Termination condition: maximum number of iterations to run.
    pub iterations: f64,
    /// Submission time, seconds since trace start.
    pub submit_time: f64,
    /// Absolute deadline, seconds since trace start
    /// (`f64::INFINITY` for best-effort jobs; encoded as `null` in JSON).
    #[serde(with = "infinite_as_null")]
    pub deadline: f64,
    /// GPU count the job used in the original server-centric trace
    /// (consumed only by non-elastic baselines).
    pub trace_gpus: u32,
    /// Duration the job ran for in the original trace at `trace_gpus`,
    /// seconds (the basis of the deadline-tightness recipe).
    pub trace_duration: f64,
    /// SLO or best-effort.
    pub kind: JobKind,
}

impl JobSpec {
    /// Starts building a job spec with the mandatory fields.
    pub fn builder(id: JobId, model: DnnModel, global_batch: u32) -> JobSpecBuilder {
        JobSpecBuilder {
            spec: JobSpec {
                id,
                model,
                global_batch,
                iterations: 1.0,
                submit_time: 0.0,
                deadline: f64::INFINITY,
                trace_gpus: 1,
                trace_duration: 0.0,
                kind: JobKind::BestEffort,
            },
        }
    }

    /// `true` for deadline (SLO) jobs.
    pub fn is_slo(&self) -> bool {
        self.kind == JobKind::Slo
    }

    /// Time between submission and deadline (infinite for best-effort).
    pub fn deadline_window(&self) -> f64 {
        self.deadline - self.submit_time
    }

    /// The deadline tightness `lambda = window / trace_duration` from the
    /// paper's §6.1 recipe; `None` when the trace duration is unknown or
    /// the job is best-effort.
    pub fn lambda(&self) -> Option<f64> {
        if self.kind == JobKind::BestEffort || self.trace_duration <= 0.0 {
            None
        } else {
            Some(self.deadline_window() / self.trace_duration)
        }
    }
}

/// Serializes `f64::INFINITY` as `null` (JSON has no infinity literal).
mod infinite_as_null {
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        if v.is_finite() {
            s.serialize_some(v)
        } else {
            s.serialize_none()
        }
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
        Ok(Option::<f64>::deserialize(d)?.unwrap_or(f64::INFINITY))
    }
}

/// Builder for [`JobSpec`]; setting a finite deadline turns the job into an
/// SLO job.
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    spec: JobSpec,
}

impl JobSpecBuilder {
    /// Sets the termination condition (maximum iterations).
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is not strictly positive and finite.
    pub fn iterations(mut self, iterations: f64) -> Self {
        assert!(
            iterations.is_finite() && iterations > 0.0,
            "iterations must be positive and finite"
        );
        self.spec.iterations = iterations;
        self
    }

    /// Sets the submission time (seconds since trace start).
    ///
    /// # Panics
    ///
    /// Panics if `submit_time` is negative or not finite.
    pub fn submit_time(mut self, submit_time: f64) -> Self {
        assert!(
            submit_time.is_finite() && submit_time >= 0.0,
            "submit time must be non-negative and finite"
        );
        self.spec.submit_time = submit_time;
        self
    }

    /// Sets an absolute deadline, making this an SLO job.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is not finite (use the default for best-effort).
    pub fn deadline(mut self, deadline: f64) -> Self {
        assert!(
            deadline.is_finite(),
            "use best-effort for infinite deadlines"
        );
        self.spec.deadline = deadline;
        self.spec.kind = JobKind::Slo;
        self
    }

    /// Sets an absolute *soft* deadline: worth meeting but never dropped.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is not finite.
    pub fn soft_deadline(mut self, deadline: f64) -> Self {
        assert!(
            deadline.is_finite(),
            "use best-effort for infinite deadlines"
        );
        self.spec.deadline = deadline;
        self.spec.kind = JobKind::SoftDeadline;
        self
    }

    /// Records the original trace's GPU count and duration.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    pub fn trace_shape(mut self, gpus: u32, duration: f64) -> Self {
        assert!(gpus > 0, "trace GPU count must be positive");
        self.spec.trace_gpus = gpus;
        self.spec.trace_duration = duration;
        self
    }

    /// Finalizes the spec.
    ///
    /// # Panics
    ///
    /// Panics if the deadline precedes the submission time.
    pub fn build(self) -> JobSpec {
        assert!(
            self.spec.deadline > self.spec.submit_time,
            "deadline must fall after submission"
        );
        self.spec
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
    fn builder_defaults_to_best_effort() {
        let job = JobSpec::builder(JobId::new(1), DnnModel::ResNet50, 64).build();
        assert_eq!(job.kind, JobKind::BestEffort);
        assert!(job.deadline.is_infinite());
        assert!(job.lambda().is_none());
    }

    #[test]
    fn deadline_makes_slo() {
        let job = JobSpec::builder(JobId::new(2), DnnModel::Vgg16, 128)
            .submit_time(100.0)
            .deadline(500.0)
            .trace_shape(4, 400.0)
            .build();
        assert!(job.is_slo());
        assert_eq!(job.deadline_window(), 400.0);
        assert!((job.lambda().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "after submission")]
    fn deadline_before_submit_panics() {
        let _ = JobSpec::builder(JobId::new(3), DnnModel::Bert, 64)
            .submit_time(100.0)
            .deadline(50.0)
            .build();
    }

    #[test]
    fn job_id_display_and_raw() {
        let id = JobId::new(9);
        assert_eq!(id.to_string(), "job9");
        assert_eq!(id.raw(), 9);
        assert_eq!(JobId::from(9u64), id);
    }

    #[test]
    fn serde_roundtrip() {
        let job = JobSpec::builder(JobId::new(4), DnnModel::Gpt2, 256)
            .iterations(1e6)
            .deadline(7200.0)
            .build();
        let json = serde_json::to_string(&job).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(job, back);
    }

    #[test]
    fn best_effort_roundtrips_infinite_deadline() {
        // JSON cannot encode infinity as a number; ensure our encoding
        // choice (null via Option is not used — serde_json emits `null` for
        // f64::INFINITY) survives.
        let job = JobSpec::builder(JobId::new(5), DnnModel::Bert, 64).build();
        let json = serde_json::to_string(&job).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.kind, JobKind::BestEffort);
    }
}
