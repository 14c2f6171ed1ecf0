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
//!   simulator's files in [`wal`] and [`store`] ([`StateDir`]);
//! * **harness** ([`checkpoint`], [`PersistSession`]) — a
//!   [`elasticflow_sim::SimController`] that cuts snapshots on a simulated
//!   clock and a [`elasticflow_sim::SimObserver`] that streams events into
//!   the log, pre-wired by [`PersistSession`].
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
//! let mut session = PersistSession::begin("state", 600.0, true).unwrap();
//! let mut policy = EdfScheduler::new();
//! let outcome = match session.snapshot().cloned() {
//!     Some(snap) => {
//!         let (wal, ckpt) = session.parts();
//!         sim.resume_controlled(&trace, &mut policy, &mut [wal], ckpt, &snap).unwrap()
//!     }
//!     None => {
//!         let (wal, ckpt) = session.parts();
//!         sim.run_controlled(&trace, &mut policy, &mut [wal], ckpt)
//!     }
//! };
//! assert!(outcome.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod error;
pub mod frame;
pub mod records;
mod session;
pub mod snapshots;
pub mod store;
pub mod wal;

pub use checkpoint::{CheckpointStats, Checkpointer, WalObserver};
pub use error::PersistError;
pub use frame::PERSIST_VERSION;
pub use records::{FsyncPolicy, LogContents, LogKind, RecordLog};
pub use session::PersistSession;
pub use snapshots::{LatestValid, SnapshotKind, SnapshotPayload, SnapshotStore, KEEP_SNAPSHOTS};
pub use store::{Recovered, StateDir, StoredSnapshot};
pub use wal::{WalContents, WalWriter};
