//! GPU cluster substrate for ElasticFlow: buddy allocation and the block
//! each job holds.
//!
//! The ElasticFlow paper (§4.3) organizes GPUs in a multi-layer hierarchical
//! tree (Fig. 5): GPUs hang off PCIe switches, PCIe switches off CPU sockets,
//! sockets form servers, servers form racks. Links higher in the tree are
//! slower, so a job placed inside a small subtree communicates faster than a
//! job spread across servers. Every level groups GPUs in powers of two, so
//! an aligned power-of-two block of GPU indices *is* the tightest subtree
//! that can host a job, and no tree needs to be stored: the block is the
//! placement. The link bandwidths live in `elasticflow_perfmodel`'s
//! `Interconnect`, which prices a placement by its [`PlacementShape`].
//!
//! This crate provides:
//!
//! * [`BuddyAllocator`] — a power-of-two buddy allocator over the GPUs,
//!   handing out aligned [`Block`]s;
//! * [`ClusterState`] — the block each owner holds, with best-fit
//!   allocation and migration-based defragmentation (paper §4.3,
//!   "Defragmentation with buddy allocation");
//! * [`ClusterSpec`] — the cluster's shape and bandwidths, with the paper's
//!   presets;
//! * [`PlacementShape`] — a servers x GPUs-per-server spread, the input of
//!   the performance model.
//!
//! # Example
//!
//! ```
//! use elasticflow_cluster::{ClusterSpec, ClusterState};
//!
//! // The paper's testbed: 16 servers x 8 GPUs.
//! let spec = ClusterSpec::paper_testbed();
//! let mut cluster = ClusterState::new(spec.total_gpus());
//! let block = cluster.allocate(1, 8).expect("128 idle GPUs");
//! assert_eq!(block.size(), 8);
//! // Eight GPUs fit inside one server, so no network hop is crossed.
//! assert_eq!(block.servers(spec.gpus_per_server).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buddy;
mod error;
mod ids;
pub mod num;
mod placement;
mod spec;
mod state;
mod table;

// The retired lint rules' forms, each `#[expect]`ed at the clippy lint that
// enforces it now; compiled by clippy only (see
// `crates/sim/src/clippy_corpus/mod.rs`).
#[cfg(clippy)]
#[path = "../../sim/src/clippy_corpus/mod.rs"]
mod clippy_corpus;

pub use buddy::{Block, BuddyAllocator};
pub use error::ClusterError;
pub use ids::GpuId;
pub use placement::PlacementShape;
pub use spec::ClusterSpec;
pub use state::{ClusterState, Migration};
