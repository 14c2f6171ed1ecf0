//! The servers x GPUs-per-server shape the performance model prices.

use serde::{Deserialize, Serialize};

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
