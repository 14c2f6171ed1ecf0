//! Effective interconnect bandwidths used by the communication model.

use elasticflow_cluster::ClusterSpec;
use serde::{Deserialize, Serialize};

/// Effective all-reduce bandwidths of a cluster's link hierarchy.
///
/// These are *effective* bandwidths — what an NCCL-style ring all-reduce
/// actually achieves end to end — not peak link speeds, and they are
/// calibrated so the analytic model reproduces the paper's measured shapes
/// (see crate docs).
///
/// # Example
///
/// ```
/// use elasticflow_perfmodel::Interconnect;
///
/// let net = Interconnect::paper_testbed();
/// assert!(net.intra_server_bw() > net.network_bw());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interconnect {
    gpus_per_switch: u32,
    gpus_per_server: u32,
    intra_switch_bw: f64,
    intra_server_bw: f64,
    network_bw: f64,
    /// Per-synchronization latency added per doubling of the worker count.
    intra_latency_per_hop: f64,
    /// Extra latency added per doubling of the *server* count.
    network_latency_per_hop: f64,
}

impl Interconnect {
    /// The calibrated profile of the paper's A100/InfiniBand testbed.
    pub fn paper_testbed() -> Self {
        Interconnect::from_spec(&ClusterSpec::paper_testbed())
    }

    /// Derives the interconnect profile from a [`ClusterSpec`].
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_switch` does not divide `gpus_per_server`.
    pub fn from_spec(spec: &ClusterSpec) -> Self {
        assert!(
            spec.gpus_per_server.is_multiple_of(spec.gpus_per_switch),
            "gpus_per_switch must divide gpus_per_server"
        );
        Interconnect {
            gpus_per_switch: spec.gpus_per_switch,
            gpus_per_server: spec.gpus_per_server,
            intra_switch_bw: spec.intra_switch_bw,
            intra_server_bw: spec.intra_server_bw,
            network_bw: spec.network_bw,
            intra_latency_per_hop: 0.3e-3,
            network_latency_per_hop: 1.0e-3,
        }
    }

    /// GPUs sharing the fastest (switch-level) link.
    pub fn gpus_per_switch(&self) -> u32 {
        self.gpus_per_switch
    }

    /// GPUs per server.
    pub fn gpus_per_server(&self) -> u32 {
        self.gpus_per_server
    }

    /// Effective bandwidth among GPUs on one switch, bytes/s.
    pub fn intra_switch_bw(&self) -> f64 {
        self.intra_switch_bw
    }

    /// Effective bandwidth among GPUs within one server, bytes/s.
    pub fn intra_server_bw(&self) -> f64 {
        self.intra_server_bw
    }

    /// Effective bandwidth across servers, bytes/s.
    pub fn network_bw(&self) -> f64 {
        self.network_bw
    }

    /// Bandwidth of the slowest intra-server link used by `gpus` workers on
    /// one machine.
    pub fn intra_bw_for(&self, gpus: u32) -> f64 {
        if gpus <= self.gpus_per_switch {
            self.intra_switch_bw
        } else {
            self.intra_server_bw
        }
    }

    /// Synchronization latency per iteration for `workers` total workers on
    /// `servers` machines.
    pub fn sync_latency(&self, workers: u32, servers: u32) -> f64 {
        if workers <= 1 {
            return 0.0;
        }
        let worker_hops = (workers as f64).log2();
        let server_hops = if servers > 1 {
            (servers as f64).log2()
        } else {
            0.0
        };
        worker_hops * self.intra_latency_per_hop + server_hops * self.network_latency_per_hop
    }
}

impl Default for Interconnect {
    fn default() -> Self {
        Interconnect::paper_testbed()
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_values() {
        let net = Interconnect::paper_testbed();
        assert_eq!(net.gpus_per_server(), 8);
        assert_eq!(net.gpus_per_switch(), 4);
        assert!(net.intra_switch_bw() >= net.intra_server_bw());
        assert!(net.intra_server_bw() > net.network_bw());
    }

    #[test]
    fn intra_bw_picks_level() {
        let net = Interconnect::paper_testbed();
        assert_eq!(net.intra_bw_for(2), net.intra_switch_bw());
        assert_eq!(net.intra_bw_for(4), net.intra_switch_bw());
        assert_eq!(net.intra_bw_for(8), net.intra_server_bw());
    }

    #[test]
    fn latency_grows_with_scale() {
        let net = Interconnect::paper_testbed();
        assert_eq!(net.sync_latency(1, 1), 0.0);
        let small = net.sync_latency(8, 1);
        let large = net.sync_latency(64, 8);
        assert!(large > small);
    }

    #[test]
    fn from_spec_respects_custom_bandwidths() {
        let mut spec = ClusterSpec::with_servers(2, 8);
        spec.network_bw = 1.0e9;
        let net = Interconnect::from_spec(&spec);
        assert_eq!(net.network_bw(), 1.0e9);
    }

    #[test]
    #[should_panic(expected = "gpus_per_switch must divide gpus_per_server")]
    fn from_spec_rejects_a_switch_that_splits_a_server_unevenly() {
        let mut spec = ClusterSpec::with_servers(2, 8);
        spec.gpus_per_switch = 3;
        let _ = Interconnect::from_spec(&spec);
    }
}
