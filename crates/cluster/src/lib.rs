//! GPU cluster substrate for ElasticFlow: hierarchical topology, buddy
//! allocation, and topology-aware job placement.
//!
//! The ElasticFlow paper (§4.3) organizes GPUs in a multi-layer hierarchical
//! tree (Fig. 5): GPUs hang off PCIe switches, PCIe switches off CPU sockets,
//! sockets form servers, servers form racks. Links higher in the tree are
//! slower, so a job placed inside a small subtree communicates faster than a
//! job spread across servers.
//!
//! This crate provides:
//!
//! * [`Topology`] — the hierarchical tree with per-level bandwidths;
//! * [`BuddyAllocator`] — a power-of-two buddy allocator over the leaf GPUs
//!   whose blocks are, by construction, aligned with topology subtrees;
//! * [`Placement`] — the concrete set of GPUs given to a job plus the derived
//!   bottleneck communication level;
//! * [`ClusterState`] — allocation bookkeeping with best-fit placement and
//!   migration-based defragmentation (paper §4.3, "Defragmentation with buddy
//!   allocation").
//!
//! # Example
//!
//! ```
//! use elasticflow_cluster::{ClusterSpec, ClusterState};
//!
//! // The paper's testbed: 16 servers x 8 GPUs.
//! let spec = ClusterSpec::paper_testbed();
//! let mut cluster = ClusterState::new(spec.build_topology());
//! let placement = cluster.allocate(1, 8).expect("128 idle GPUs");
//! assert_eq!(placement.num_gpus(), 8);
//! // Eight GPUs fit inside one server, so no network hop is crossed.
//! assert!(placement.highest_level() <= 2);
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
mod topology;

// The retired lint rules' forms, each `#[expect]`ed at the clippy lint that
// enforces it now; compiled by clippy only (see
// `crates/sim/src/clippy_corpus/mod.rs`).
#[cfg(clippy)]
#[path = "../../sim/src/clippy_corpus/mod.rs"]
mod clippy_corpus;

pub use buddy::{Block, BuddyAllocator};
pub use error::ClusterError;
pub use ids::{GpuId, ServerId};
pub use placement::{Placement, PlacementShape};
pub use spec::ClusterSpec;
pub use state::{ClusterState, Migration};
pub use topology::{Level, Topology};
