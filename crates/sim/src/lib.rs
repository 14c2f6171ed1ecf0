//! Discrete-event GPU-cluster simulator for ElasticFlow.
//!
//! The paper evaluates schedulers both on a real 128-GPU testbed and in a
//! simulator fed with profiled throughputs, validated to within 3 % of the
//! testbed (§6.1). This crate is that simulator: it replays a workload
//! trace against any [`elasticflow_sched::Scheduler`] implementation on a
//! buddy-allocated cluster, advancing time from scheduling event to
//! scheduling event (job arrival, job completion, slot boundary) — the
//! "fast-forwarding" of §6.2 falls out of event-driven execution naturally.
//!
//! The simulator is layered: a deterministic *event core* (typed
//! [`Event`]s in stable order with tolerance-batched simultaneity), an
//! *executor* that owns every cluster/job-state mutation, a *scheduler
//! driver* that mediates and validates policy calls, and a pluggable
//! *observation* layer — implement [`SimObserver`] and attach it with
//! [`Simulation::run_observed`] to trace or measure a run without touching
//! engine code. Observers are read-only; attaching any combination leaves
//! the [`SimReport`] byte-identical.
//!
//! Fidelity features carried over from the paper's simulator:
//!
//! * per-job throughput from the profiled scaling curves, exact for buddy
//!   placements (aligned blocks are always the tightest subtree);
//! * scaling and migration pauses charged on every allocation change
//!   (Fig. 12b magnitudes);
//! * defragmentation migrations performed and charged when elastic growth
//!   needs them (§4.3).
//!
//! # Example
//!
//! ```
//! use elasticflow_cluster::ClusterSpec;
//! use elasticflow_perfmodel::Interconnect;
//! use elasticflow_sched::EdfScheduler;
//! use elasticflow_sim::{SimConfig, Simulation};
//! use elasticflow_trace::TraceConfig;
//!
//! let spec = ClusterSpec::small_testbed();
//! let trace = TraceConfig::testbed_small(1).generate(&Interconnect::from_spec(&spec));
//! let report = Simulation::new(spec, SimConfig::default())
//!     .run(&trace, &mut EdfScheduler::new());
//! assert_eq!(report.outcomes().len(), 25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod config;
mod driver;
mod engine;
mod event;
mod executor;
mod failures;
mod metrics;
mod observer;
mod snapshot;

// The retired lint rules' forms, each `#[expect]`ed at the clippy lint that
// enforces it now; compiled by clippy only (see `clippy_corpus/mod.rs`).
#[cfg(clippy)]
mod clippy_corpus;

pub use config::SimConfig;
pub use engine::{RunDirective, SimController, SimOutcome, Simulation};
pub use event::Event;
pub use failures::{FailureSchedule, NodeFailure};
pub use metrics::{JobOutcome, SimReport, TimelinePoint};
pub use observer::{PhaseEdge, SchedPhase, SimContext, SimObserver, TimelineCollector};
pub use snapshot::{
    fnv1a64, EventCoreSnapshot, ExecutorSnapshot, Fnv1a64, JobStatsSnapshot, ResumeError,
    SimSnapshot, SIM_SNAPSHOT_VERSION,
};
