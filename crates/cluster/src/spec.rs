//! Declarative cluster descriptions and the presets used in the paper.

use serde::{Deserialize, Serialize};

/// A declarative description of a GPU cluster: its shape, which sizes the
/// buddy allocator, and its link bandwidths, which
/// `elasticflow_perfmodel::Interconnect` reads.
///
/// Bandwidth numbers are *effective all-reduce* bandwidths calibrated so that
/// the analytic performance model in `elasticflow-perfmodel` reproduces the
/// shapes the paper reports (Fig. 2): e.g. intra-server placements of
/// ResNet50 roughly 2.2x faster than eight-way spreads, VGG16 at 8 GPUs about
/// 76 % of linear scaling.
///
/// Every field feeds the simulator's input fingerprint, so
/// `servers_per_rack` and `core_bw` stay although nothing reads them.
///
/// # Example
///
/// ```
/// use elasticflow_cluster::ClusterSpec;
///
/// let spec = ClusterSpec::with_servers(4, 8);
/// assert_eq!(spec.total_gpus(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of servers (must be a power of two for buddy alignment).
    pub servers: u32,
    /// GPUs per server (must be a power of two).
    pub gpus_per_server: u32,
    /// GPUs sharing one PCIe switch / NVLink island (must divide
    /// `gpus_per_server`).
    pub gpus_per_switch: u32,
    /// Effective all-reduce bandwidth within a switch, bytes/s.
    pub intra_switch_bw: f64,
    /// Effective all-reduce bandwidth across sockets within a server, bytes/s.
    pub intra_server_bw: f64,
    /// Effective all-reduce bandwidth across servers within a rack, bytes/s.
    pub network_bw: f64,
    /// Servers per rack. Unread: the performance model has no rack level.
    pub servers_per_rack: u32,
    /// Effective all-reduce bandwidth across racks, bytes/s. Unread: the
    /// performance model has no rack level.
    pub core_bw: f64,
}

impl ClusterSpec {
    /// The paper's 128-GPU testbed: 16 servers x 8 A100 GPUs, HDR InfiniBand.
    pub fn paper_testbed() -> Self {
        ClusterSpec::with_servers(16, 8)
    }

    /// The small testbed used for the Pollux comparison (Fig. 6a):
    /// 4 servers x 8 GPUs.
    pub fn small_testbed() -> Self {
        ClusterSpec::with_servers(4, 8)
    }

    /// A cluster of `servers` x `gpus_per_server` with the calibrated default
    /// interconnect profile.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero or not a power of two.
    pub fn with_servers(servers: u32, gpus_per_server: u32) -> Self {
        assert!(
            servers.is_power_of_two(),
            "server count must be a power of two, got {servers}"
        );
        assert!(
            gpus_per_server.is_power_of_two(),
            "gpus per server must be a power of two, got {gpus_per_server}"
        );
        ClusterSpec {
            servers,
            gpus_per_server,
            gpus_per_switch: gpus_per_server.min(4),
            // Calibrated effective bandwidths; see crate docs of
            // elasticflow-perfmodel for the calibration targets.
            intra_switch_bw: 32.0e9,
            intra_server_bw: 28.0e9,
            network_bw: 2.6e9,
            servers_per_rack: 32,
            core_bw: 2.2e9,
        }
    }

    /// Total number of GPUs in the described cluster.
    pub fn total_gpus(&self) -> u32 {
        self.servers * self.gpus_per_server
    }
}

impl Default for ClusterSpec {
    /// The paper-testbed preset (16 x 8 = 128 GPUs).
    fn default() -> Self {
        ClusterSpec::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let spec = ClusterSpec::paper_testbed();
        assert_eq!(spec.total_gpus(), 128);
        assert_eq!(spec.servers, 16);
    }

    #[test]
    fn bandwidth_ordering_intra_beats_network() {
        let spec = ClusterSpec::paper_testbed();
        assert!(spec.intra_switch_bw > spec.intra_server_bw);
        assert!(spec.intra_server_bw > spec.network_bw);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_servers() {
        ClusterSpec::with_servers(3, 8);
    }

    #[test]
    fn serde_roundtrip() {
        let spec = ClusterSpec::small_testbed();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
