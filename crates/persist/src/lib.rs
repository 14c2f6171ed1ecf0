//! Crash-consistent persistence for ElasticFlow simulations.
//!
//! The paper's platform runs as a long-lived service; its scheduler state
//! must survive controller restarts (§5 runs the central scheduler as a
//! Kubernetes deployment). This crate is the reproduction's equivalent
//! for the simulator: periodic full-state **snapshots** plus an
//! append-only **write-ahead event log**, with recovery that resumes a
//! run *bit-identically* — the resumed [`elasticflow_sim::SimReport`]
//! equals the uninterrupted one byte for byte, a property the golden
//! cut-point tests enforce against pre-captured digests.
//!
//! Three layers:
//!
//! * **framing** ([`frame`]) — length-prefixed, FNV-1a-64-checksummed
//!   records behind versioned `EFSN`/`EFWL` headers; torn tails are
//!   recoverable, checksum mismatches are typed errors, never panics;
//! * **storage** ([`records`], [`snapshots`]) — the generic [`RecordLog`]
//!   and [`SnapshotStore`] (atomic writes, newest two kept), bound to the
//!   simulator's files in [`store`] ([`StateDir`], [`store::WAL_KIND`]);
//! * **session** ([`PersistSession`]) — one call runs a persisted
//!   simulation: it streams every event into the log and cuts snapshots
//!   on a simulated clock, resuming from the newest valid snapshot when
//!   recovery found one.
//!
//! # Example
//!
//! ```no_run
//! use elasticflow_cluster::ClusterSpec;
//! use elasticflow_perfmodel::Interconnect;
//! use elasticflow_persist::PersistSession;
//! use elasticflow_sched::EdfScheduler;
//! use elasticflow_sim::{SimConfig, Simulation};
//! use elasticflow_trace::TraceConfig;
//!
//! let spec = ClusterSpec::small_testbed();
//! let trace = TraceConfig::testbed_small(1).generate(&Interconnect::from_spec(&spec));
//! let sim = Simulation::new(spec, SimConfig::default());
//!
//! // Resumes from `state/` when it holds a snapshot, else starts fresh.
//! let mut session = PersistSession::begin("state", 600.0, true).unwrap();
//! let outcome = session
//!     .run(&sim, &trace, &mut EdfScheduler::new(), &mut [])
//!     .unwrap();
//! assert!(outcome.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod frame;
pub mod records;
mod session;
pub mod snapshots;
pub mod store;

pub use error::PersistError;
pub use frame::PERSIST_VERSION;
pub use records::{FsyncPolicy, LogKind, LogScan, RecordLog};
pub use session::{CheckpointStats, PersistSession};
pub use snapshots::{LatestValid, SnapshotKind, SnapshotPayload, SnapshotStore, KEEP_SNAPSHOTS};
pub use store::{Recovered, StateDir, StoredSnapshot};
