//! Shared infrastructure for the experiment harness: scheduler roster,
//! simulation runners, and table rendering.
//!
//! The `experiments` binary in this crate regenerates every table and
//! figure of the ElasticFlow paper's evaluation (§6); see `DESIGN.md` at
//! the repository root for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod explain;
pub mod instrument;
pub mod mega;
pub mod parallel;
pub mod report;
pub mod runners;

pub use report::Table;
pub use runners::{run_one, scheduler_by_name, RosterEntry, ROSTER};
