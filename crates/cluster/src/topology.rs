//! Multi-layer hierarchical GPU topology (paper Fig. 5).
//!
//! The topology is a perfect tree described bottom-up by per-level fanouts.
//! Level 0 is the *GPU level* (the leaves). Each internal level `l >= 1`
//! groups `fanout` children of level `l - 1` and is labelled with the
//! bandwidth of the interconnect that joins them (PCIe, QPI/NVLink,
//! InfiniBand, ...). The last level always contains exactly one node: the
//! whole cluster.

use serde::{Deserialize, Serialize};

use crate::GpuId;

/// One internal level of the topology tree.
///
/// # Example
///
/// ```
/// use elasticflow_cluster::Level;
///
/// let pcie = Level::new("pcie", 4, 32.0e9);
/// assert_eq!(pcie.name(), "pcie");
/// assert_eq!(pcie.fanout(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Level {
    name: String,
    fanout: usize,
    bandwidth_bytes_per_sec: f64,
}

impl Level {
    /// Creates a level grouping `fanout` children, joined by a link with the
    /// given *effective all-reduce* bandwidth in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero or `bandwidth_bytes_per_sec` is not
    /// strictly positive and finite.
    pub fn new(name: impl Into<String>, fanout: usize, bandwidth_bytes_per_sec: f64) -> Self {
        assert!(fanout > 0, "level fanout must be positive");
        assert!(
            bandwidth_bytes_per_sec.is_finite() && bandwidth_bytes_per_sec > 0.0,
            "level bandwidth must be positive and finite"
        );
        Level {
            name: name.into(),
            fanout,
            bandwidth_bytes_per_sec,
        }
    }

    /// Human-readable name of the interconnect at this level.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of level-below units grouped by one node of this level.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Effective all-reduce bandwidth of this level's link, bytes/second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        self.bandwidth_bytes_per_sec
    }
}

/// A perfect hierarchical topology tree over GPUs.
///
/// # Example
///
/// ```
/// use elasticflow_cluster::{Level, Topology};
///
/// // 2 servers, each with 2 sockets of 4 GPUs.
/// let topo = Topology::new(vec![
///     Level::new("pcie", 4, 32.0e9),
///     Level::new("qpi", 2, 28.0e9),
///     Level::new("ib", 2, 3.6e9),
/// ]);
/// assert_eq!(topo.num_gpus(), 16);
/// assert_eq!(topo.gpus_per_server(), 8);
/// assert_eq!(topo.num_servers(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    levels: Vec<Level>,
    /// `subtree_gpus[l]` = number of GPUs under one node of level `l`
    /// (level 0 = a single GPU, so `subtree_gpus[0]` is `levels[0].fanout`).
    subtree_gpus: Vec<u32>,
    /// Index into `levels` of the first level whose subtree spans more than
    /// one server (i.e. the first *network* level), or `levels.len()` if the
    /// topology is a single server.
    server_level: usize,
}

impl Topology {
    /// Builds a topology from bottom-up levels. The level at index 0 is the
    /// one closest to the GPUs.
    ///
    /// The *server boundary* is inferred as the first level named `"ib"`,
    /// `"tor"`, `"network"`, or `"rack"`; everything below it is considered
    /// intra-server. Use [`Topology::with_server_level`] to set it
    /// explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn new(levels: Vec<Level>) -> Self {
        assert!(!levels.is_empty(), "topology needs at least one level");
        let server_level = levels
            .iter()
            .position(|l| matches!(l.name(), "ib" | "tor" | "network" | "rack" | "ethernet"))
            .unwrap_or(levels.len());
        Self::with_server_level(levels, server_level)
    }

    /// Builds a topology and explicitly marks `server_level` as the index of
    /// the first level that crosses server boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or `server_level > levels.len()`.
    pub fn with_server_level(levels: Vec<Level>, server_level: usize) -> Self {
        assert!(!levels.is_empty(), "topology needs at least one level");
        assert!(
            server_level <= levels.len(),
            "server level out of range: {server_level} > {}",
            levels.len()
        );
        let mut subtree_gpus = Vec::with_capacity(levels.len());
        let mut acc = 1u32;
        for level in &levels {
            #[expect(
                clippy::expect_used,
                reason = "constructor contract: a topology with more GPUs than `u32` ids \
                          is a configuration error caught at build time, in line with the \
                          asserts above; never reached from scheduling paths"
            )]
            let next = u32::try_from(level.fanout())
                .ok()
                .and_then(|fanout| acc.checked_mul(fanout))
                .expect("topology size overflow");
            acc = next;
            subtree_gpus.push(acc);
        }
        Topology {
            levels,
            subtree_gpus,
            server_level,
        }
    }

    /// Total number of GPUs (leaves) in the cluster.
    pub fn num_gpus(&self) -> u32 {
        // The constructor rejects empty level lists, so `last()` is always
        // `Some`; the zero fallback is unreachable.
        self.subtree_gpus.last().copied().unwrap_or(0)
    }

    /// The bottom-up list of levels.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Number of GPUs contained in one subtree rooted at `level`
    /// (1-based over internal levels; level index as in [`Topology::levels`]).
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels().len()`.
    pub fn subtree_gpus(&self, level: usize) -> u32 {
        self.subtree_gpus[level]
    }

    /// Number of GPUs on a single server.
    pub fn gpus_per_server(&self) -> u32 {
        if self.server_level == 0 {
            1
        } else {
            self.subtree_gpus[self.server_level - 1]
        }
    }

    /// Number of servers in the cluster.
    pub fn num_servers(&self) -> u32 {
        self.num_gpus() / self.gpus_per_server()
    }

    /// The server that hosts the given GPU.
    pub fn server_of(&self, gpu: GpuId) -> crate::ServerId {
        crate::ServerId::new(gpu.index() / self.gpus_per_server())
    }

    /// Returns the smallest level index `l` such that a single level-`l`
    /// subtree contains at least `gpus` GPUs, i.e. the level of the tightest
    /// subtree that can host an aligned block of that size.
    ///
    /// Returns `None` when `gpus` exceeds the cluster size.
    ///
    /// # Example
    ///
    /// ```
    /// use elasticflow_cluster::ClusterSpec;
    ///
    /// let topo = ClusterSpec::paper_testbed().build_topology();
    /// // 8 GPUs fit in one server (levels: pcie=4, qpi x2 -> 8).
    /// assert_eq!(topo.tightest_level(8), Some(1));
    /// assert_eq!(topo.tightest_level(16), Some(2));
    /// ```
    pub fn tightest_level(&self, gpus: u32) -> Option<usize> {
        if gpus <= 1 {
            return Some(0);
        }
        self.subtree_gpus.iter().position(|&n| n >= gpus)
    }

    /// Bottleneck (slowest) link bandwidth crossed by a set of GPUs, in
    /// bytes/second. A single GPU communicates with itself at effectively
    /// infinite speed; we return the level-0 bandwidth as a convention.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is empty or any id is out of range.
    pub fn bottleneck_bandwidth(&self, gpus: &[GpuId]) -> f64 {
        assert!(!gpus.is_empty(), "bottleneck of an empty placement");
        let level = self.highest_level_crossed(gpus);
        self.levels[level].bandwidth_bytes_per_sec()
    }

    /// The highest level whose link must be crossed for the given GPUs to
    /// communicate: the level of the least common ancestor of the set.
    /// A singleton set crosses level 0 by convention.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is empty or any id is out of range.
    pub fn highest_level_crossed(&self, gpus: &[GpuId]) -> usize {
        assert!(!gpus.is_empty(), "empty placement has no LCA");
        let n = self.num_gpus();
        for g in gpus {
            assert!(g.index() < n, "gpu {g} out of range (cluster has {n})");
        }
        // Nonempty is asserted above, so the zero fallbacks are unreachable.
        let min = gpus.iter().map(|g| g.index()).min().unwrap_or(0);
        let max = gpus.iter().map(|g| g.index()).max().unwrap_or(0);
        // Walk up until min and max fall under the same subtree.
        for (l, &size) in self.subtree_gpus.iter().enumerate() {
            if min / size == max / size {
                return l;
            }
        }
        self.levels.len() - 1
    }

    /// Index of the first inter-server (network) level.
    pub fn server_level(&self) -> usize {
        self.server_level
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;
    use crate::ClusterSpec;

    fn topo_2x8() -> Topology {
        // 2 servers x (2 sockets x 4 GPUs)
        Topology::new(vec![
            Level::new("pcie", 4, 32.0e9),
            Level::new("qpi", 2, 28.0e9),
            Level::new("ib", 2, 3.6e9),
        ])
    }

    #[test]
    fn sizes() {
        let t = topo_2x8();
        assert_eq!(t.num_gpus(), 16);
        assert_eq!(t.gpus_per_server(), 8);
        assert_eq!(t.num_servers(), 2);
        assert_eq!(t.server_level(), 2);
    }

    #[test]
    fn server_of_gpu() {
        let t = topo_2x8();
        assert_eq!(t.server_of(GpuId::new(0)).index(), 0);
        assert_eq!(t.server_of(GpuId::new(7)).index(), 0);
        assert_eq!(t.server_of(GpuId::new(8)).index(), 1);
    }

    #[test]
    fn highest_level_crossed_cases() {
        let t = topo_2x8();
        // Same PCIe switch.
        assert_eq!(t.highest_level_crossed(&[GpuId::new(0), GpuId::new(3)]), 0);
        // Across sockets on the same server.
        assert_eq!(t.highest_level_crossed(&[GpuId::new(0), GpuId::new(4)]), 1);
        // Across servers.
        assert_eq!(t.highest_level_crossed(&[GpuId::new(0), GpuId::new(8)]), 2);
        // Single GPU.
        assert_eq!(t.highest_level_crossed(&[GpuId::new(5)]), 0);
    }

    #[test]
    fn bottleneck_bandwidth_matches_level() {
        let t = topo_2x8();
        let intra = t.bottleneck_bandwidth(&[GpuId::new(0), GpuId::new(1)]);
        let cross = t.bottleneck_bandwidth(&[GpuId::new(0), GpuId::new(15)]);
        assert_eq!(intra, 32.0e9);
        assert_eq!(cross, 3.6e9);
        assert!(cross < intra);
    }

    #[test]
    fn tightest_level_ladder() {
        let t = topo_2x8();
        assert_eq!(t.tightest_level(1), Some(0));
        assert_eq!(t.tightest_level(2), Some(0));
        assert_eq!(t.tightest_level(4), Some(0));
        assert_eq!(t.tightest_level(8), Some(1));
        assert_eq!(t.tightest_level(16), Some(2));
        assert_eq!(t.tightest_level(32), None);
    }

    #[test]
    fn paper_testbed_is_128_gpus() {
        let t = ClusterSpec::paper_testbed().build_topology();
        assert_eq!(t.num_gpus(), 128);
        assert_eq!(t.num_servers(), 16);
        assert_eq!(t.gpus_per_server(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_gpu_panics() {
        let t = topo_2x8();
        t.highest_level_crossed(&[GpuId::new(99)]);
    }

    #[test]
    fn serde_roundtrip() {
        let t = topo_2x8();
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
