//! The strongly typed GPU identifier.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a single GPU, a global index over the cluster's GPUs
/// (`0..ClusterSpec::total_gpus()`); GPU `i` sits on server
/// `i / gpus_per_server`.
///
/// # Example
///
/// ```
/// use elasticflow_cluster::GpuId;
///
/// let gpu = GpuId::new(5);
/// assert_eq!(gpu.index(), 5);
/// assert_eq!(format!("{gpu}"), "gpu5");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct GpuId(u32);

impl GpuId {
    /// Creates a GPU id from a global index.
    pub fn new(index: u32) -> Self {
        GpuId(index)
    }

    /// Returns the global index of this GPU.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as `usize`, convenient for slicing.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

impl From<u32> for GpuId {
    fn from(index: u32) -> Self {
        GpuId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_id_roundtrip() {
        let id = GpuId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.as_usize(), 42);
        assert_eq!(GpuId::from(42u32), id);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(GpuId::new(0).to_string(), "gpu0");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(GpuId::new(1) < GpuId::new(2));
    }

    #[test]
    fn serde_roundtrip() {
        let id = GpuId::new(9);
        let json = serde_json::to_string(&id).unwrap();
        let back: GpuId = serde_json::from_str(&json).unwrap();
        assert_eq!(id, back);
    }
}
