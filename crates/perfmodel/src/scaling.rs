//! Scaling curves: throughput as a function of the number of workers.

use std::sync::Arc;

use elasticflow_cluster::PlacementShape;
use serde::{Deserialize, Serialize};

use crate::{iteration_time, DnnModel, Interconnect};

/// One point of a scaling curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Number of workers (a power of two).
    pub gpus: u32,
    /// Training throughput in iterations per second.
    pub iters_per_sec: f64,
}

/// A job's throughput over the power-of-two GPU ladder, under the best
/// (buddy-consolidated) placement for each count.
///
/// This is the object ElasticFlow's admission control and resource
/// allocation consume: the paper's `T_i(x)` (§4.1), restricted to powers of
/// two by the buddy-allocation placement rule (§4.3).
///
/// The points are shared, immutable and reference-counted: every planning
/// round hands each job a copy of its curve, and a clone costs one
/// refcount bump instead of a fresh allocation. They still serialize as a
/// plain sequence, so the bytes are those of a `Vec`.
///
/// # Example
///
/// ```
/// use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
///
/// let curve = ScalingCurve::build(DnnModel::Vgg16, 256, &Interconnect::paper_testbed());
/// assert!(curve.is_concave());
/// // Speedup at 8 GPUs is positive but below linear.
/// let s = curve.speedup(8).unwrap();
/// assert!(s > 1.0 && s < 8.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingCurve {
    model: DnnModel,
    global_batch: u32,
    gpus_per_server: u32,
    points: Arc<[CurvePoint]>,
}

impl ScalingCurve {
    /// Default cap on the worker ladder.
    pub const DEFAULT_MAX_WORKERS: u32 = 128;

    /// Builds the curve for `model` at `global_batch`, probing powers of two
    /// up to [`ScalingCurve::DEFAULT_MAX_WORKERS`].
    ///
    /// # Panics
    ///
    /// Panics if `global_batch` is zero.
    pub fn build(model: DnnModel, global_batch: u32, net: &Interconnect) -> Self {
        Self::build_with_max(model, global_batch, net, Self::DEFAULT_MAX_WORKERS)
    }

    /// Builds the curve probing powers of two up to `max_workers` (clamped
    /// to the global batch size so every worker gets at least one sample).
    ///
    /// # Panics
    ///
    /// Panics if `global_batch` or `max_workers` is zero.
    pub fn build_with_max(
        model: DnnModel,
        global_batch: u32,
        net: &Interconnect,
        max_workers: u32,
    ) -> Self {
        assert!(global_batch > 0, "global batch must be positive");
        assert!(max_workers > 0, "max workers must be positive");
        let profile = model.profile();
        let cap = max_workers.min(global_batch);
        let mut points = Vec::new();
        let mut w = 1u32;
        while w <= cap {
            let shape = PlacementShape::consolidated(w, net.gpus_per_server());
            let t = iteration_time(&profile, global_batch, shape, net).total;
            points.push(CurvePoint {
                gpus: w,
                iters_per_sec: 1.0 / t,
            });
            w *= 2;
        }
        ScalingCurve {
            model,
            global_batch,
            gpus_per_server: net.gpus_per_server(),
            points: points.into(),
        }
    }

    /// Constructs a curve directly from measured points (for tests and for
    /// replaying the paper's worked examples).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, the GPU counts are not strictly
    /// increasing powers of two starting at 1, or any throughput is not
    /// positive and finite.
    pub fn from_points(model: DnnModel, global_batch: u32, points: Vec<CurvePoint>) -> Self {
        assert!(!points.is_empty(), "a curve needs at least one point");
        let mut expect = 1u32;
        for p in &points {
            assert_eq!(
                p.gpus, expect,
                "curve points must be the dense power-of-two ladder"
            );
            assert!(
                p.iters_per_sec.is_finite() && p.iters_per_sec > 0.0,
                "throughput must be positive and finite"
            );
            expect *= 2;
        }
        ScalingCurve {
            model,
            global_batch,
            gpus_per_server: 8,
            points: points.into(),
        }
    }

    /// The model this curve describes.
    pub fn model(&self) -> DnnModel {
        self.model
    }

    /// The global batch size this curve was built for.
    pub fn global_batch(&self) -> u32 {
        self.global_batch
    }

    /// The curve points, ascending by GPU count.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Largest worker count in the curve's domain.
    pub fn max_gpus(&self) -> u32 {
        self.points.last().expect("nonempty").gpus
    }

    /// Throughput in iterations/second with `gpus` workers, or `None` if
    /// `gpus` is not a power of two within the domain. `gpus == 0` yields
    /// zero throughput.
    pub fn iters_per_sec(&self, gpus: u32) -> Option<f64> {
        if gpus == 0 {
            return Some(0.0);
        }
        if !gpus.is_power_of_two() || gpus > self.max_gpus() {
            return None;
        }
        let idx = gpus.trailing_zeros() as usize;
        Some(self.points[idx].iters_per_sec)
    }

    /// Speedup over a single GPU.
    pub fn speedup(&self, gpus: u32) -> Option<f64> {
        let base = self.points[0].iters_per_sec;
        self.iters_per_sec(gpus).map(|t| t / base)
    }

    /// Per-GPU efficiency: speedup divided by the worker count.
    pub fn efficiency(&self, gpus: u32) -> Option<f64> {
        if gpus == 0 {
            return None;
        }
        self.speedup(gpus).map(|s| s / gpus as f64)
    }

    /// The *knee*: the worker count with the highest throughput. Adding
    /// GPUs beyond the knee makes the job slower (paper constraint (7)).
    pub fn knee(&self) -> u32 {
        self.points
            .iter()
            .max_by(|a, b| {
                a.iters_per_sec
                    .partial_cmp(&b.iters_per_sec)
                    .expect("finite throughputs")
            })
            .expect("nonempty")
            .gpus
    }

    /// Clamps a desired worker count to the largest *useful* count: a
    /// power of two not exceeding the knee (nor the domain).
    pub fn clamp_useful(&self, gpus: u32) -> u32 {
        if gpus == 0 {
            return 0;
        }
        let knee = self.knee();
        let mut w = 1u32;
        let target = gpus.min(knee);
        while w * 2 <= target {
            w *= 2;
        }
        w
    }

    /// The power-of-two ladder of the curve's domain.
    pub fn ladder(&self) -> impl Iterator<Item = u32> + '_ {
        self.points.iter().map(|p| p.gpus)
    }

    /// `true` when marginal throughput gains per added GPU are
    /// non-increasing along the ladder *up to the knee* — the concavity
    /// property ElasticFlow's optimality proofs rely on (§4.1). Points past
    /// the knee are excluded: constraint (7) forbids allocations that slow a
    /// job down, so the algorithms never operate there.
    pub fn is_concave(&self) -> bool {
        let knee = self.knee();
        let mut last_gain_per_gpu = f64::INFINITY;
        for pair in self.points.windows(2) {
            if pair[1].gpus > knee {
                break;
            }
            let added = (pair[1].gpus - pair[0].gpus) as f64;
            let gain = (pair[1].iters_per_sec - pair[0].iters_per_sec) / added;
            if gain > last_gain_per_gpu + 1e-12 {
                return false;
            }
            last_gain_per_gpu = gain;
        }
        true
    }

    /// GPU time (GPU x seconds) to run `iterations` iterations with `gpus`
    /// workers — the paper's "resource usage" (§4.1).
    pub fn gpu_time(&self, gpus: u32, iterations: f64) -> Option<f64> {
        let t = self.iters_per_sec(gpus)?;
        if t <= 0.0 {
            return None;
        }
        Some(gpus as f64 * iterations / t)
    }

    /// Builds a [`CurveMemo`] snapshot of this curve's ladder lookups.
    pub fn memo(&self) -> CurveMemo {
        let mut memo = CurveMemo::default();
        memo.rebuild(self);
        memo
    }
}

/// Precomputed ladder lookups for one [`ScalingCurve`].
///
/// [`ScalingCurve::knee`] scans every point and [`ScalingCurve::clamp_useful`]
/// calls it again, so the progressive-filling inner loop paid an O(ladder)
/// scan per slot. A memo runs those scans once per fill and serves O(1)
/// lookups afterwards. Every value is copied bit-for-bit from the curve —
/// a memoized lookup returns the *identical* `f64` the direct call would,
/// which is what keeps the golden-replay digests unchanged.
///
/// The buffers are reusable: [`rebuild`](CurveMemo::rebuild) clears and
/// refills them in place so a scratch-held memo allocates only on the first
/// fill (or when a later curve has a longer ladder).
#[derive(Debug, Clone, Default)]
pub struct CurveMemo {
    knee: u32,
    max_gpus: u32,
    /// `rate[i]` = throughput at `2^i` workers.
    rate: Vec<f64>,
    /// `peak_rate[i]` = max of `rate[0..=i]` — an upper bound on the
    /// throughput reachable with any allocation of at most `2^i` workers,
    /// even for measured curves that dip before the knee.
    peak_rate: Vec<f64>,
    /// `true` when the throughput is nondecreasing along the power-of-two
    /// ladder over every allocation [`clamp_useful`](CurveMemo::clamp_useful)
    /// can grant (the analytic curves always are; a measured curve that
    /// dips before the knee is not).
    ladder_monotone: bool,
}

impl CurveMemo {
    /// Clears and refills the memo from `curve`, reusing the buffers.
    pub fn rebuild(&mut self, curve: &ScalingCurve) {
        self.knee = curve.knee();
        self.max_gpus = curve.max_gpus();
        self.rate.clear();
        self.peak_rate.clear();
        let mut peak = 0.0f64;
        for p in curve.points() {
            self.rate.push(p.iters_per_sec);
            peak = peak.max(p.iters_per_sec);
            self.peak_rate.push(peak);
        }
        // Monotonicity matters only across grantable sizes: every grant is
        // a power of two at most the largest one not exceeding the knee.
        let cap = self.clamp_useful(u32::MAX);
        let grantable = if cap == 0 {
            0
        } else {
            (cap.trailing_zeros() as usize + 1).min(self.rate.len())
        };
        self.ladder_monotone = self.rate.first().is_none_or(|r| *r >= 0.0)
            && self.rate[..grantable].windows(2).all(|p| p[0] <= p[1]);
    }

    /// The memoized [`ScalingCurve::knee`].
    pub fn knee(&self) -> u32 {
        self.knee
    }

    /// Largest worker count in the curve's domain.
    pub fn max_gpus(&self) -> u32 {
        self.max_gpus
    }

    /// `ScalingCurve::iters_per_sec(gpus).unwrap_or(0.0)` — zero workers
    /// and out-of-domain counts both yield zero throughput, exactly as the
    /// planning call sites treat them.
    pub fn iters_per_sec(&self, gpus: u32) -> f64 {
        if gpus == 0 || !gpus.is_power_of_two() || gpus > self.max_gpus {
            return 0.0;
        }
        self.rate[gpus.trailing_zeros() as usize]
    }

    /// The memoized [`ScalingCurve::clamp_useful`]: largest power of two
    /// not exceeding `min(gpus, knee)`.
    pub fn clamp_useful(&self, gpus: u32) -> u32 {
        if gpus == 0 {
            return 0;
        }
        let target = gpus.min(self.knee);
        let mut w = 1u32;
        while w * 2 <= target {
            w *= 2;
        }
        w
    }

    /// `true` when throughput never decreases as grantable power-of-two
    /// allocations grow (up to the knee clamp). Planners use this as the
    /// soundness gate for ladder-start shortcuts: under a pointwise-fuller
    /// ledger, grants only shrink, so a monotone curve guarantees per-slot
    /// progress only shrinks — a target that fails on the emptier ledger
    /// still fails on the fuller one.
    pub fn ladder_monotone(&self) -> bool {
        self.ladder_monotone
    }

    /// The highest throughput reachable with at most `cap` workers, where
    /// `cap` is a power of two inside the domain. Returns 0.0 for a zero
    /// or out-of-domain cap (callers then skip any pruning based on it).
    pub fn peak_rate_at_or_below(&self, cap: u32) -> f64 {
        if cap == 0 || !cap.is_power_of_two() || cap > self.max_gpus {
            return 0.0;
        }
        self.peak_rate[cap.trailing_zeros() as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Interconnect {
        Interconnect::paper_testbed()
    }

    #[test]
    fn all_table1_curves_are_concave() {
        for (model, batches) in crate::PAPER_TABLE1 {
            for &b in batches {
                let curve = ScalingCurve::build(model, b, &net());
                assert!(curve.is_concave(), "{model} gbs={b} not concave");
            }
        }
    }

    #[test]
    fn throughput_monotone_up_to_knee() {
        for (model, batches) in crate::PAPER_TABLE1 {
            for &b in batches {
                let curve = ScalingCurve::build(model, b, &net());
                let knee = curve.knee();
                let mut last = 0.0;
                for g in curve.ladder() {
                    if g > knee {
                        break;
                    }
                    let t = curve.iters_per_sec(g).unwrap();
                    assert!(t >= last, "{model} gbs={b} dips before knee");
                    last = t;
                }
            }
        }
    }

    #[test]
    fn knee_is_within_a_server_for_table1_batches() {
        // With Table-1 global batches (<= 256), the calibrated placement
        // penalty makes cross-server scaling unprofitable — the same effect
        // that gives the paper its 2.17x placement gap.
        for (model, batches) in crate::PAPER_TABLE1 {
            for &b in batches {
                let curve = ScalingCurve::build(model, b, &net());
                assert!(curve.knee() <= 16, "{model} gbs={b} knee {}", curve.knee());
            }
        }
    }

    #[test]
    fn resource_usage_grows_with_gpus() {
        // Concave scaling => GPU time for a fixed amount of work is
        // minimized at 1 GPU (paper §4.1).
        let curve = ScalingCurve::build(DnnModel::ResNet50, 256, &net());
        let base = curve.gpu_time(1, 1000.0).unwrap();
        for g in curve.ladder().skip(1) {
            let usage = curve.gpu_time(g, 1000.0).unwrap();
            assert!(
                usage >= base,
                "gpu_time({g}) = {usage} below single-GPU usage {base}"
            );
        }
    }

    #[test]
    fn lookup_rules() {
        let curve = ScalingCurve::build(DnnModel::Bert, 128, &net());
        assert_eq!(curve.iters_per_sec(0), Some(0.0));
        assert!(curve.iters_per_sec(3).is_none());
        assert!(curve.iters_per_sec(1024).is_none());
        assert!(curve.iters_per_sec(1).is_some());
    }

    #[test]
    fn domain_capped_by_batch() {
        let curve = ScalingCurve::build(DnnModel::DeepSpeech2, 32, &net());
        assert_eq!(curve.max_gpus(), 32);
    }

    #[test]
    fn clamp_useful_respects_knee() {
        let curve = ScalingCurve::build(DnnModel::Vgg16, 256, &net());
        let knee = curve.knee();
        assert_eq!(curve.clamp_useful(1024), knee);
        assert_eq!(curve.clamp_useful(1), 1);
        assert_eq!(curve.clamp_useful(0), 0);
    }

    #[test]
    fn from_points_validates() {
        let pts = vec![
            CurvePoint {
                gpus: 1,
                iters_per_sec: 1.0,
            },
            CurvePoint {
                gpus: 2,
                iters_per_sec: 1.5,
            },
        ];
        let curve = ScalingCurve::from_points(DnnModel::ResNet50, 64, pts);
        assert_eq!(curve.speedup(2), Some(1.5));
    }

    #[test]
    #[should_panic(expected = "dense power-of-two ladder")]
    fn from_points_rejects_gaps() {
        let pts = vec![
            CurvePoint {
                gpus: 1,
                iters_per_sec: 1.0,
            },
            CurvePoint {
                gpus: 4,
                iters_per_sec: 2.0,
            },
        ];
        let _ = ScalingCurve::from_points(DnnModel::ResNet50, 64, pts);
    }

    #[test]
    fn paper_figure4_curve() {
        // The worked example of Fig. 4: throughput 1, 1.5, 2 with 1, 2, 4
        // GPUs. Check the resource-usage arithmetic the paper walks through.
        let pts = vec![
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
        ];
        let curve = ScalingCurve::from_points(DnnModel::ResNet50, 64, pts);
        assert!((curve.gpu_time(1, 1.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((curve.gpu_time(2, 1.0).unwrap() - 4.0 / 3.0).abs() < 1e-12);
        assert!((curve.gpu_time(4, 1.0).unwrap() - 2.0).abs() < 1e-12);
        assert!(curve.is_concave());
    }

    #[test]
    fn memo_agrees_with_curve_bit_for_bit() {
        for (model, batches) in crate::PAPER_TABLE1 {
            for &b in batches {
                let curve = ScalingCurve::build(model, b, &net());
                let memo = curve.memo();
                assert_eq!(memo.knee(), curve.knee());
                assert_eq!(memo.max_gpus(), curve.max_gpus());
                for g in 0..=(curve.max_gpus() * 2) {
                    assert_eq!(
                        memo.iters_per_sec(g).to_bits(),
                        curve.iters_per_sec(g).unwrap_or(0.0).to_bits(),
                        "{model} gbs={b} gpus={g}"
                    );
                    assert_eq!(memo.clamp_useful(g), curve.clamp_useful(g));
                }
                // The peak-rate prefix really is an upper bound per cap.
                for cap in curve.ladder() {
                    let peak = memo.peak_rate_at_or_below(cap);
                    for g in curve.ladder().filter(|&g| g <= cap) {
                        assert!(curve.iters_per_sec(g).unwrap() <= peak);
                    }
                }
            }
        }
    }

    #[test]
    fn memo_peak_rate_covers_dipping_curves() {
        // A measured curve can dip before recovering; the prefix max must
        // not under-estimate the reachable throughput.
        let pts = vec![
            CurvePoint {
                gpus: 1,
                iters_per_sec: 1.0,
            },
            CurvePoint {
                gpus: 2,
                iters_per_sec: 0.5,
            },
            CurvePoint {
                gpus: 4,
                iters_per_sec: 2.0,
            },
        ];
        let memo = ScalingCurve::from_points(DnnModel::ResNet50, 64, pts).memo();
        assert_eq!(memo.peak_rate_at_or_below(2), 1.0);
        assert_eq!(memo.peak_rate_at_or_below(4), 2.0);
    }

    #[test]
    fn clones_share_their_points() {
        let curve = ScalingCurve::build(DnnModel::Bert, 128, &net());
        let copy = curve.clone();
        assert!(std::ptr::eq(curve.points(), copy.points()));
        assert_eq!(copy, curve);
    }

    #[test]
    fn serde_roundtrip() {
        let curve = ScalingCurve::build(DnnModel::Gpt2, 128, &net());
        let json = serde_json::to_string(&curve).unwrap();
        let back: ScalingCurve = serde_json::from_str(&json).unwrap();
        // f64 JSON text is not always bit-exact; the round-trip must be
        // *stable* (identical after one pass) and semantically close.
        let json2 = serde_json::to_string(&back).unwrap();
        assert_eq!(json, json2);
        for (a, b) in curve.points().iter().zip(back.points()) {
            assert!((a.iters_per_sec - b.iters_per_sec).abs() < 1e-9);
        }
    }
}
