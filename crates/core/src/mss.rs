//! Minimum Satisfactory Share (paper §4.1).
//!
//! The scaling curves of DL jobs are concave, so the *per-GPU* throughput
//! drops as workers are added: training on one GPU is the most
//! GPU-time-efficient. Because jobs have deadlines, though, one GPU may be
//! too slow — the **minimum satisfactory share** is the least number of
//! GPUs that still meets the deadline, and allocating exactly it minimizes
//! resource usage subject to the deadline.

use elasticflow_perfmodel::ScalingCurve;

/// The smallest worker count on the curve's ladder that finishes
/// `remaining_iterations` within `window_seconds`, or `None` when even the
/// knee allocation is too slow.
///
/// This is the idle-cluster special case the paper solves "with a binary
/// search"; the loaded-cluster generalization is
/// [`crate::progressive_filling`].
///
/// # Example
///
/// ```
/// use elasticflow_core::mss::minimum_satisfactory_share;
/// use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
///
/// // Paper §4.1 example: throughputs 1, 1.5, 2 at 1, 2, 4 GPUs; job of 1
/// // work unit. Deadline 1.0 => 1 GPU suffices; deadline 2/3 => 2 GPUs.
/// let curve = ScalingCurve::from_points(DnnModel::ResNet50, 64, vec![
///     CurvePoint { gpus: 1, iters_per_sec: 1.0 },
///     CurvePoint { gpus: 2, iters_per_sec: 1.5 },
///     CurvePoint { gpus: 4, iters_per_sec: 2.0 },
/// ]);
/// assert_eq!(minimum_satisfactory_share(&curve, 1.0, 1.0), Some(1));
/// assert_eq!(minimum_satisfactory_share(&curve, 1.0, 2.0 / 3.0), Some(2));
/// assert_eq!(minimum_satisfactory_share(&curve, 1.0, 0.1), None);
/// ```
pub fn minimum_satisfactory_share(
    curve: &ScalingCurve,
    remaining_iterations: f64,
    window_seconds: f64,
) -> Option<u32> {
    if window_seconds <= 0.0 {
        return None;
    }
    if !window_seconds.is_finite() {
        return Some(1);
    }
    let needed = remaining_iterations / window_seconds;
    // Binary search over the ladder: throughput is monotone up to the knee
    // and the ladder is tiny, so a lower-bound scan is equivalent; we use
    // binary search over the monotone prefix for fidelity to the paper.
    let knee = curve.knee();
    let mut lo = 0u32; // exponent
    let mut hi = knee.trailing_zeros();
    if curve.rate(knee) + 1e-12 < needed {
        return None;
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        let gpus = 1u32 << mid;
        if curve.rate(gpus) + 1e-12 >= needed {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(1u32 << lo)
}

/// GPU-time (GPU-seconds) consumed when running the job at its minimum
/// satisfactory share for the given window — the "resource usage" the
/// paper's admission control minimizes.
pub fn mss_gpu_seconds(
    curve: &ScalingCurve,
    remaining_iterations: f64,
    window_seconds: f64,
) -> Option<f64> {
    let share = minimum_satisfactory_share(curve, remaining_iterations, window_seconds)?;
    curve.gpu_time(share, remaining_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elasticflow_perfmodel::{CurvePoint, DnnModel, Interconnect};

    fn fig4_curve() -> ScalingCurve {
        ScalingCurve::from_points(
            DnnModel::ResNet50,
            64,
            vec![
                CurvePoint {
                    gpus: 1,
                    iters_per_sec: 1.0,
                },
                CurvePoint {
                    gpus: 2,
                    iters_per_sec: 1.5,
                },
                CurvePoint {
                    gpus: 4,
                    iters_per_sec: 2.0,
                },
            ],
        )
    }

    #[test]
    fn looser_deadlines_need_fewer_gpus() {
        let curve = fig4_curve();
        let mut last = u32::MAX;
        for window in [0.5, 0.7, 1.0, 2.0, 10.0] {
            if let Some(s) = minimum_satisfactory_share(&curve, 1.0, window) {
                assert!(s <= last, "window {window}: share {s} > previous {last}");
                last = s;
            }
        }
        assert_eq!(minimum_satisfactory_share(&curve, 1.0, 10.0), Some(1));
    }

    #[test]
    fn infeasible_when_knee_is_too_slow() {
        let curve = fig4_curve();
        // Needs throughput 4 but the knee gives 2.
        assert_eq!(minimum_satisfactory_share(&curve, 4.0, 1.0), None);
    }

    #[test]
    fn exact_boundary_is_satisfied() {
        let curve = fig4_curve();
        // Throughput 1.5 at 2 GPUs: 1.5 work in 1 s is exactly feasible.
        assert_eq!(minimum_satisfactory_share(&curve, 1.5, 1.0), Some(2));
    }

    #[test]
    fn infinite_window_means_one_gpu() {
        let curve = fig4_curve();
        assert_eq!(
            minimum_satisfactory_share(&curve, 1e9, f64::INFINITY),
            Some(1)
        );
    }

    #[test]
    fn gpu_seconds_grow_with_tightness() {
        // Paper §4.1: tighter deadlines force bigger shares, which waste
        // GPU time under concavity.
        let curve = fig4_curve();
        let loose = mss_gpu_seconds(&curve, 1.0, 1.0).unwrap();
        let tight = mss_gpu_seconds(&curve, 1.0, 0.5).unwrap();
        assert!((loose - 1.0).abs() < 1e-12);
        assert!((tight - 2.0).abs() < 1e-12);
        assert!(tight > loose);
    }

    #[test]
    fn real_curves_binary_search_agrees_with_scan() {
        let net = Interconnect::paper_testbed();
        for (model, batches) in elasticflow_perfmodel::PAPER_TABLE1 {
            for &b in batches {
                let curve = ScalingCurve::build(model, b, &net);
                for window in [600.0, 1_800.0, 3_600.0, 14_400.0] {
                    let work = 2_000.0;
                    let fast = minimum_satisfactory_share(&curve, work, window);
                    // Reference: linear scan over the ladder.
                    let mut scan = None;
                    let knee = curve.knee();
                    let mut g = 1;
                    while g <= knee {
                        if curve.iters_per_sec(g).unwrap() + 1e-12 >= work / window {
                            scan = Some(g);
                            break;
                        }
                        g *= 2;
                    }
                    assert_eq!(fast, scan, "{model} gbs={b} window={window}");
                }
            }
        }
    }
}
