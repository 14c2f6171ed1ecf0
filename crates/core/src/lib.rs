//! ElasticFlow's core contribution: deadline-guaranteed elastic scheduling.
//!
//! This crate implements the three algorithms of the paper's §4 on top of
//! the substrates in the sibling crates:
//!
//! * **Minimum Satisfactory Share** ([`mss`]) — the least share of GPUs a
//!   job needs to meet its deadline under a concave scaling curve (§4.1);
//! * **Admission control** ([`AdmissionSet`], paper Algorithm 1) —
//!   progressive filling over discrete time slots decides whether a new
//!   job's deadline can be guaranteed without breaking any admitted job's,
//!   and [`AdmissionSet::advance`] runs the same set against a moving clock;
//! * **Elastic resource allocation** (paper Algorithm 2, the last stage
//!   of [`ElasticFlowScheduler`]'s plan) — leftover GPUs go to the job
//!   with the highest *marginal return* (GPU-time saved per extra GPU),
//!   provably optimal for concave curves (Theorem 2; checked against
//!   brute force in [`theory`]).
//!
//! [`ElasticFlowScheduler`] packages the three into an
//! [`elasticflow_sched::Scheduler`] the simulator can drive, including the
//! best-effort extension of §4.4. [`EdfWithAdmission`] and
//! [`EdfWithElastic`] are the ablation variants of the paper's Fig. 9.
//!
//! # Example
//!
//! ```
//! use elasticflow_cluster::ClusterSpec;
//! use elasticflow_core::ElasticFlowScheduler;
//! use elasticflow_perfmodel::Interconnect;
//! use elasticflow_sim::{SimConfig, Simulation};
//! use elasticflow_trace::TraceConfig;
//!
//! let spec = ClusterSpec::small_testbed();
//! let trace = TraceConfig::testbed_small(1).generate(&Interconnect::from_spec(&spec));
//! let mut ef = ElasticFlowScheduler::new();
//! let report = Simulation::new(spec, SimConfig::default()).run(&trace, &mut ef);
//! // Every job ElasticFlow admits meets its deadline (modulo scaling
//! // pauses); dropped jobs are the ones that could never have met theirs.
//! assert!(report.deadline_satisfactory_ratio() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod alloc;
mod audit;
mod filling;
pub mod mss;
mod plan;
pub(crate) mod scheduler;
pub mod theory;
mod variants;

// The retired lint rules' forms, each `#[expect]`ed at the clippy lint that
// enforces it now; compiled by clippy only (see
// `crates/sim/src/clippy_corpus/mod.rs`).
#[cfg(clippy)]
#[path = "../../sim/src/clippy_corpus/mod.rs"]
mod clippy_corpus;

pub use admission::{AdmissionDenial, AdmissionSet, AdvanceReport};
pub(crate) use alloc::ResourceAllocator;
pub use filling::{progressive_filling, FillCounters, FillScratch};
pub use plan::{AllocationProfile, PlanningJob, ReservationLedger, SlotGrid, WORK_EPSILON};
pub use scheduler::ElasticFlowScheduler;
pub use variants::{EdfWithAdmission, EdfWithElastic};
