//! Scheduler interface and baseline GPU-cluster schedulers.
//!
//! This crate defines the [`Scheduler`] trait through which the simulator
//! drives any scheduling policy, the shared [`JobRuntime`]/[`JobTable`]
//! state, and Rust reimplementations of the six baselines the ElasticFlow
//! paper compares against (§6.1):
//!
//! | Baseline | Deadline-aware | Elastic | Core idea |
//! |---|---|---|---|
//! | [`EdfScheduler`] | yes | yes | earliest deadline first, scale to the knee |
//! | [`GandivaScheduler`] | no | no | packing + introspective migration |
//! | [`TiresiasScheduler`] | no | no | two-dimensional attained-service LAS |
//! | [`ThemisScheduler`] | no | no | finish-time fairness auction |
//! | [`ChronusScheduler`] | yes | no | lease-based deadline admission |
//! | [`PolluxScheduler`] | no | yes | goodput-maximizing allocation |
//!
//! ElasticFlow itself (and its EDF+admission / EDF+elastic ablation
//! variants) lives in `elasticflow-core`, built on the same trait.
//!
//! The baselines implement each paper's *scheduling policy core* — the rule
//! deciding who gets how many GPUs each round — rather than the authors'
//! full systems; that is exactly the granularity at which the ElasticFlow
//! evaluation compares them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod chronus;
mod decision;
mod edf;
mod gandiva;
mod pollux;
mod themis;
mod tiresias;

// The retired lint rules' forms, each `#[expect]`ed at the clippy lint that
// enforces it now; compiled by clippy only (see
// `crates/sim/src/clippy_corpus/mod.rs`).
#[cfg(clippy)]
#[path = "../../sim/src/clippy_corpus/mod.rs"]
mod clippy_corpus;

pub use api::{
    clamp_pow2, AdmissionDecision, ClusterView, JobRuntime, JobTable, ReplanOutcome, RestoreError,
    SchedulePlan, Scheduler,
};
pub use decision::{CapacityShortfall, DecisionRecord, DeclineReason, PauseCause};

#[expect(
    clippy::items_after_test_module,
    reason = "the shared test helpers sit next to the modules that use them"
)]
#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for baseline-scheduler unit tests.

    use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
    use elasticflow_trace::{JobId, JobSpec};

    use crate::JobRuntime;

    /// Builds an admitted, ready-to-run job record.
    pub fn job(id: u64, submit: f64, deadline: Option<f64>, trace_gpus: u32) -> JobRuntime {
        let model = DnnModel::ResNet50;
        let gbs = 128;
        let curve = ScalingCurve::build(model, gbs, &Interconnect::paper_testbed());
        let tput = curve.iters_per_sec(trace_gpus).unwrap();
        let duration = 3_600.0;
        let mut b = JobSpec::builder(JobId::new(id), model, gbs)
            .iterations(duration * tput)
            .submit_time(submit)
            .trace_shape(trace_gpus, duration);
        if let Some(d) = deadline {
            b = b.deadline(d);
        }
        let mut rt = JobRuntime::new(b.build(), curve);
        rt.admitted = true;
        rt
    }
}
pub use chronus::ChronusScheduler;
pub use edf::EdfScheduler;
pub use gandiva::GandivaScheduler;
pub use pollux::PolluxScheduler;
pub use themis::ThemisScheduler;
pub use tiresias::TiresiasScheduler;
