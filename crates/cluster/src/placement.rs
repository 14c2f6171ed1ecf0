//! Concrete and hypothetical worker placements.

use serde::{Deserialize, Serialize};

use crate::{Block, GpuId, ServerId, Topology};

/// The concrete set of GPUs assigned to a job, with derived topology facts.
///
/// A `Placement` is produced by [`crate::ClusterState`] from a buddy
/// [`Block`], so it is always an aligned power-of-two group — the tightest
/// subtree that can host the job.
///
/// # Example
///
/// ```
/// use elasticflow_cluster::{ClusterSpec, ClusterState};
///
/// let mut cluster = ClusterState::new(ClusterSpec::paper_testbed().build_topology());
/// let p = cluster.allocate(1, 16).unwrap();
/// assert_eq!(p.num_gpus(), 16);
/// assert_eq!(p.num_servers(), 2); // 16 GPUs span two 8-GPU servers
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    block: Block,
    highest_level: usize,
    bottleneck_bandwidth: f64,
    servers: Vec<ServerId>,
    gpus_per_server: u32,
}

impl Placement {
    /// Derives a placement from a buddy block under the given topology.
    pub fn from_block(block: Block, topology: &Topology) -> Self {
        let gpus = block.gpus();
        let highest_level = topology.highest_level_crossed(&gpus);
        let bottleneck_bandwidth = topology.bottleneck_bandwidth(&gpus);
        let mut servers: Vec<ServerId> = gpus.iter().map(|&g| topology.server_of(g)).collect();
        servers.dedup();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "at most one server per GPU of the block, whose size is a `u32`"
        )]
        let gpus_per_server = block.size() / servers.len() as u32;
        Placement {
            block,
            highest_level,
            bottleneck_bandwidth,
            servers,
            gpus_per_server,
        }
    }

    /// The underlying buddy block.
    pub fn block(&self) -> Block {
        self.block
    }

    /// Number of GPUs in the placement.
    pub fn num_gpus(&self) -> u32 {
        self.block.size()
    }

    /// The GPUs in ascending order.
    pub fn gpus(&self) -> Vec<GpuId> {
        self.block.gpus()
    }

    /// Number of distinct servers the placement touches.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "at most one server per GPU of the block, whose size is a `u32`"
    )]
    pub fn num_servers(&self) -> u32 {
        self.servers.len() as u32
    }

    /// The servers the placement touches, ascending.
    pub fn servers(&self) -> &[ServerId] {
        &self.servers
    }

    /// GPUs used on each touched server (uniform for aligned blocks).
    pub fn gpus_per_server(&self) -> u32 {
        self.gpus_per_server
    }

    /// The highest (slowest) topology level the workers must cross.
    pub fn highest_level(&self) -> usize {
        self.highest_level
    }

    /// Effective all-reduce bandwidth of the slowest link crossed, bytes/s.
    pub fn bottleneck_bandwidth(&self) -> f64 {
        self.bottleneck_bandwidth
    }

    /// The shape of this placement (for the performance model).
    pub fn shape(&self) -> PlacementShape {
        PlacementShape::new(self.num_servers(), self.gpus_per_server)
    }
}

/// A hypothetical placement shape: `servers` machines each contributing
/// `gpus_per_server` workers. Used to evaluate throughput under arbitrary
/// spreads (paper Fig. 2b compares 8x1, 4x2, 2x4 and 1x8 for 8-GPU jobs).
///
/// # Example
///
/// ```
/// use elasticflow_cluster::PlacementShape;
///
/// let spread = PlacementShape::new(8, 1);
/// assert_eq!(spread.total_gpus(), 8);
/// assert!(spread.crosses_servers());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlacementShape {
    servers: u32,
    gpus_per_server: u32,
}

impl PlacementShape {
    /// Creates a shape of `servers` machines x `gpus_per_server` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(servers: u32, gpus_per_server: u32) -> Self {
        assert!(servers > 0, "a placement needs at least one server");
        assert!(
            gpus_per_server > 0,
            "a placement needs at least one GPU per server"
        );
        PlacementShape {
            servers,
            gpus_per_server,
        }
    }

    /// A single-server shape with `gpus` workers.
    pub fn single_server(gpus: u32) -> Self {
        PlacementShape::new(1, gpus)
    }

    /// The best (most consolidated) shape for `gpus` workers on a cluster
    /// with `gpus_per_server` GPUs per machine — what buddy allocation
    /// produces.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` or `gpus_per_server` is zero.
    pub fn consolidated(gpus: u32, gpus_per_server: u32) -> Self {
        assert!(gpus > 0 && gpus_per_server > 0);
        if gpus <= gpus_per_server {
            PlacementShape::new(1, gpus)
        } else {
            PlacementShape::new(gpus.div_ceil(gpus_per_server), gpus_per_server)
        }
    }

    /// Number of servers in the shape.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// GPUs per server in the shape.
    pub fn gpus_per_server(&self) -> u32 {
        self.gpus_per_server
    }

    /// Total number of workers.
    pub fn total_gpus(&self) -> u32 {
        self.servers * self.gpus_per_server
    }

    /// `true` when the shape spans more than one server.
    pub fn crosses_servers(&self) -> bool {
        self.servers > 1
    }
}

impl std::fmt::Display for PlacementShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.servers, self.gpus_per_server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterSpec;

    #[test]
    fn placement_from_block_within_server() {
        let topo = ClusterSpec::paper_testbed().build_topology();
        let p = Placement::from_block(Block::new(3, 0), &topo);
        assert_eq!(p.num_gpus(), 8);
        assert_eq!(p.num_servers(), 1);
        assert_eq!(p.gpus_per_server(), 8);
        assert!(!p.shape().crosses_servers());
    }

    #[test]
    fn placement_from_block_across_servers() {
        let topo = ClusterSpec::paper_testbed().build_topology();
        let p = Placement::from_block(Block::new(5, 0), &topo);
        assert_eq!(p.num_gpus(), 32);
        assert_eq!(p.num_servers(), 4);
        assert_eq!(p.gpus_per_server(), 8);
        assert!(p.shape().crosses_servers());
        // Crossing servers means hitting the network bandwidth.
        assert!(p.bottleneck_bandwidth() < 10.0e9);
    }

    #[test]
    fn consolidated_shapes() {
        assert_eq!(
            PlacementShape::consolidated(4, 8),
            PlacementShape::new(1, 4)
        );
        assert_eq!(
            PlacementShape::consolidated(8, 8),
            PlacementShape::new(1, 8)
        );
        assert_eq!(
            PlacementShape::consolidated(32, 8),
            PlacementShape::new(4, 8)
        );
    }

    #[test]
    fn display_shape() {
        assert_eq!(PlacementShape::new(4, 2).to_string(), "4x2");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        PlacementShape::new(0, 1);
    }
}
