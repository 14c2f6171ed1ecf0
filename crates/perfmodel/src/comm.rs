//! Per-iteration time model: compute + hierarchical ring all-reduce.

use elasticflow_cluster::PlacementShape;
use serde::{Deserialize, Serialize};

use crate::{Interconnect, ModelProfile};

/// Decomposition of one training iteration's duration.
///
/// `total` is what the scheduler and simulator consume:
/// `compute + (1 - effective_overlap) * (allreduce + latency)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationBreakdown {
    /// Forward + backward + optimizer compute time, seconds.
    pub compute: f64,
    /// Un-overlapped all-reduce transfer time, seconds.
    pub exposed_comm: f64,
    /// Synchronization latency, seconds (folded into `exposed_comm`'s
    /// overlap discount as part of the communication phase).
    pub latency: f64,
    /// End-to-end iteration time, seconds.
    pub total: f64,
}

/// Compute time of one iteration with the given *local* batch size.
///
/// Linear in the local batch plus a fixed per-iteration overhead (kernel
/// launches, optimizer step, data loading pipeline bubbles).
pub fn compute_time(profile: &ModelProfile, local_batch: u32) -> f64 {
    profile.fixed_iteration_seconds + local_batch as f64 * profile.per_sample_seconds
}

/// Synchronization (all-reduce) time of one iteration — transfer plus
/// latency, before the overlap discount.
///
/// Models a hierarchical all-reduce: a reduce/broadcast phase among the
/// GPUs of each server at intra-server bandwidth, then a ring all-reduce
/// across servers at network bandwidth. Each ring over `n` members moves
/// `2 (n-1)/n` times the gradient volume.
pub fn sync_time(profile: &ModelProfile, shape: PlacementShape, net: &Interconnect) -> f64 {
    let workers = shape.total_gpus();
    if workers <= 1 {
        return 0.0;
    }
    let bytes = profile.gradient_bytes();
    let per_server = shape.gpus_per_server();
    let servers = shape.servers();
    let mut transfer = 0.0;
    if per_server > 1 {
        let ring = 2.0 * (per_server as f64 - 1.0) / per_server as f64;
        transfer += ring * bytes / net.intra_bw_for(per_server);
    }
    if servers > 1 {
        let ring = 2.0 * (servers as f64 - 1.0) / servers as f64;
        transfer += ring * bytes / net.network_bw();
    }
    transfer + net.sync_latency(workers, servers)
}

/// End-to-end time of one training iteration for `global_batch` samples
/// distributed over the placement `shape`.
///
/// The overlap factor hides part of the communication behind backward
/// compute; crossing servers halves the achievable overlap (inter-node
/// all-reduce phases serialize behind the intra-node reduction).
///
/// # Panics
///
/// Panics if `global_batch` is smaller than the number of workers (a worker
/// would receive an empty batch).
pub fn iteration_time(
    profile: &ModelProfile,
    global_batch: u32,
    shape: PlacementShape,
    net: &Interconnect,
) -> IterationBreakdown {
    let workers = shape.total_gpus();
    assert!(
        global_batch >= workers,
        "global batch {global_batch} smaller than {workers} workers"
    );
    let local_batch = global_batch / workers;
    let compute = compute_time(profile, local_batch);
    let latency = net.sync_latency(workers, shape.servers());
    let transfer = sync_time(profile, shape, net) - latency;
    let overlap = if shape.crosses_servers() {
        profile.overlap * 0.5
    } else {
        profile.overlap
    };
    let exposed_comm = (1.0 - overlap) * (transfer + latency);
    IterationBreakdown {
        compute,
        exposed_comm,
        latency,
        total: compute + exposed_comm,
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;
    use crate::DnnModel;

    fn net() -> Interconnect {
        Interconnect::paper_testbed()
    }

    #[test]
    fn single_gpu_has_no_comm() {
        let p = DnnModel::ResNet50.profile();
        let b = iteration_time(&p, 256, PlacementShape::single_server(1), &net());
        assert_eq!(b.exposed_comm, 0.0);
        assert_eq!(b.latency, 0.0);
        assert!(b.total > 0.25); // 256 samples x 1.1 ms
    }

    #[test]
    fn compute_halves_when_workers_double() {
        let p = DnnModel::Bert.profile();
        let one = iteration_time(&p, 128, PlacementShape::single_server(1), &net());
        let two = iteration_time(&p, 128, PlacementShape::single_server(2), &net());
        let ratio =
            (one.compute - p.fixed_iteration_seconds) / (two.compute - p.fixed_iteration_seconds);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn spread_placements_are_slower() {
        // Paper Fig 2(b): for an 8-worker job, 1x8 > 2x4 > 4x2 > 8x1.
        let p = DnnModel::ResNet50.profile();
        let shapes = [
            PlacementShape::new(1, 8),
            PlacementShape::new(2, 4),
            PlacementShape::new(4, 2),
            PlacementShape::new(8, 1),
        ];
        let times: Vec<f64> = shapes
            .iter()
            .map(|&s| iteration_time(&p, 256, s, &net()).total)
            .collect();
        for w in times.windows(2) {
            assert!(w[0] < w[1], "expected strictly slower spreads: {times:?}");
        }
    }

    #[test]
    fn resnet_placement_ratio_matches_paper() {
        // Paper: same-server throughput is 2.17x the 8-way spread.
        let p = DnnModel::ResNet50.profile();
        let same = iteration_time(&p, 256, PlacementShape::new(1, 8), &net()).total;
        let spread = iteration_time(&p, 256, PlacementShape::new(8, 1), &net()).total;
        let ratio = spread / same;
        assert!(
            (1.9..=2.6).contains(&ratio),
            "placement ratio {ratio:.2} outside the calibrated band"
        );
    }

    #[test]
    fn vgg_scaling_efficiency_matches_paper() {
        // Paper: VGG16, global batch 256, 8 GPUs reaches ~76 % of linear.
        let p = DnnModel::Vgg16.profile();
        let t1 = iteration_time(&p, 256, PlacementShape::single_server(1), &net()).total;
        let t8 = iteration_time(&p, 256, PlacementShape::single_server(8), &net()).total;
        let eff = t1 / (8.0 * t8);
        assert!(
            (0.70..=0.84).contains(&eff),
            "VGG16 8-GPU efficiency {eff:.3} outside the calibrated band"
        );
    }

    #[test]
    fn bigger_models_expose_more_comm() {
        let small = DnnModel::InceptionV3.profile();
        let big = DnnModel::Vgg16.profile();
        let shape = PlacementShape::single_server(8);
        let a = iteration_time(&small, 128, shape, &net());
        let b = iteration_time(&big, 128, shape, &net());
        assert!(b.exposed_comm > a.exposed_comm);
    }

    #[test]
    #[should_panic(expected = "smaller than")]
    fn batch_smaller_than_workers_panics() {
        let p = DnnModel::ResNet50.profile();
        let _ = iteration_time(&p, 4, PlacementShape::single_server(8), &net());
    }
}
