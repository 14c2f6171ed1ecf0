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
/// refcount bump instead of a fresh allocation. The shared part also holds
/// the ladder lookups the planner's innermost loop reads — the knee, the
/// prefix-peak rates and the ladder-monotone flag — derived once, when the
/// curve is built or deserialized, so [`knee`](ScalingCurve::knee) and
/// [`clamp_useful`](ScalingCurve::clamp_useful) cost O(1). Only the points
/// are data: they alone serialize (as a plain sequence, so the bytes are
/// those of a `Vec`), print under `Debug` and take part in equality.
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
    #[serde(with = "ladder_points")]
    points: Arc<Ladder>,
}

/// A curve's points and the ladder lookups derived from them.
struct Ladder {
    points: Box<[CurvePoint]>,
    /// `peak_rate[i]` = max throughput over `points[..=i]` — an upper
    /// bound on the throughput reachable with any allocation of at most
    /// `2^i` workers, even for measured curves that dip before the knee.
    peak_rate: Box<[f64]>,
    knee: u32,
    /// `true` when the throughput is nondecreasing along the ladder up to
    /// the knee, i.e. over every allocation `clamp_useful` can grant.
    monotone: bool,
}

impl Ladder {
    /// Validates `points` as a dense power-of-two ladder from 1 with
    /// positive, finite throughputs, and derives the lookups.
    fn new(points: Vec<CurvePoint>) -> Result<Self, &'static str> {
        if points.is_empty() {
            return Err("a curve needs at least one point");
        }
        let mut peak_rate = Vec::with_capacity(points.len());
        let (mut peak, mut knee) = (0.0f64, 0usize);
        for (i, p) in points.iter().enumerate() {
            if 1u32.checked_shl(i as u32) != Some(p.gpus) {
                return Err("curve points must be the dense power-of-two ladder");
            }
            if !(p.iters_per_sec.is_finite() && p.iters_per_sec > 0.0) {
                return Err("throughput must be positive and finite");
            }
            // On ties the knee is the last maximum, as `Iterator::max_by`.
            if p.iters_per_sec >= points[knee].iters_per_sec {
                knee = i;
            }
            peak = peak.max(p.iters_per_sec);
            peak_rate.push(peak);
        }
        let monotone = points[..=knee]
            .windows(2)
            .all(|p| p[0].iters_per_sec <= p[1].iters_per_sec);
        Ok(Ladder {
            knee: points[knee].gpus,
            points: points.into(),
            peak_rate: peak_rate.into(),
            monotone,
        })
    }
}

/// Prints the points alone, as a plain sequence.
impl std::fmt::Debug for Ladder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.points.fmt(f)
    }
}

/// The lookups are a function of the points, so the points decide.
impl PartialEq for Ladder {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
    }
}

/// Serializes a [`Ladder`] as its plain point sequence and derives the
/// lookups again on the way back in.
mod ladder_points {
    use std::sync::Arc;

    use serde::de::Error;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    use super::{CurvePoint, Ladder};

    pub fn serialize<S: Serializer>(ladder: &Arc<Ladder>, s: S) -> Result<S::Ok, S::Error> {
        ladder.points.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Arc<Ladder>, D::Error> {
        let points = Vec::<CurvePoint>::deserialize(d)?;
        Ladder::new(points).map(Arc::new).map_err(D::Error::custom)
    }
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
            points: Arc::new(Ladder::new(points).expect("a probed ladder is valid")),
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
        let ladder = Ladder::new(points).unwrap_or_else(|e| panic!("{e}"));
        ScalingCurve {
            model,
            global_batch,
            gpus_per_server: 8,
            points: Arc::new(ladder),
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
        &self.points.points
    }

    /// Largest worker count in the curve's domain.
    pub fn max_gpus(&self) -> u32 {
        1 << (self.points().len() - 1)
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
        Some(self.rate(gpus))
    }

    /// `iters_per_sec(gpus).unwrap_or(0.0)`: zero workers and counts
    /// outside the power-of-two domain both yield zero throughput, exactly
    /// as the planning call sites treat them.
    pub fn rate(&self, gpus: u32) -> f64 {
        if gpus == 0 || !gpus.is_power_of_two() || gpus > self.max_gpus() {
            return 0.0;
        }
        self.points()[gpus.trailing_zeros() as usize].iters_per_sec
    }

    /// Speedup over a single GPU.
    pub fn speedup(&self, gpus: u32) -> Option<f64> {
        let base = self.points()[0].iters_per_sec;
        self.iters_per_sec(gpus).map(|t| t / base)
    }

    /// Per-GPU efficiency: speedup divided by the worker count.
    pub fn efficiency(&self, gpus: u32) -> Option<f64> {
        if gpus == 0 {
            return None;
        }
        self.speedup(gpus).map(|s| s / gpus as f64)
    }

    /// The *knee*: the worker count with the highest throughput (the
    /// largest such count on ties). Adding GPUs beyond the knee makes the
    /// job slower (paper constraint (7)).
    pub fn knee(&self) -> u32 {
        self.points.knee
    }

    /// Clamps a desired worker count to the largest *useful* count: a
    /// power of two not exceeding the knee (nor the domain).
    pub fn clamp_useful(&self, gpus: u32) -> u32 {
        if gpus == 0 {
            return 0;
        }
        1 << (31 - gpus.min(self.knee()).leading_zeros())
    }

    /// `true` when throughput never decreases as grantable power-of-two
    /// allocations grow (up to the knee clamp). Planners use this as the
    /// soundness gate for ladder-start shortcuts: under a pointwise-fuller
    /// ledger, grants only shrink, so a monotone curve guarantees per-slot
    /// progress only shrinks — a target that fails on the emptier ledger
    /// still fails on the fuller one. The analytic curves always are; a
    /// measured curve that dips before the knee is not.
    pub fn ladder_monotone(&self) -> bool {
        self.points.monotone
    }

    /// The highest throughput reachable with at most `cap` workers, where
    /// `cap` is a power of two inside the domain. Returns 0.0 for a zero
    /// or out-of-domain cap (callers then skip any pruning based on it).
    pub fn peak_rate_at_or_below(&self, cap: u32) -> f64 {
        if cap == 0 || !cap.is_power_of_two() || cap > self.max_gpus() {
            return 0.0;
        }
        self.points.peak_rate[cap.trailing_zeros() as usize]
    }

    /// The power-of-two ladder of the curve's domain.
    pub fn ladder(&self) -> impl Iterator<Item = u32> + '_ {
        self.points().iter().map(|p| p.gpus)
    }

    /// `true` when marginal throughput gains per added GPU are
    /// non-increasing along the ladder *up to the knee* — the concavity
    /// property ElasticFlow's optimality proofs rely on (§4.1). Points past
    /// the knee are excluded: constraint (7) forbids allocations that slow a
    /// job down, so the algorithms never operate there.
    pub fn is_concave(&self) -> bool {
        let knee = self.knee();
        let mut last_gain_per_gpu = f64::INFINITY;
        for pair in self.points().windows(2) {
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

    /// The clamp the ladder lookups replaced: double from 1 while the
    /// next rung stays at or below `min(gpus, knee)`.
    fn doubling_clamp(gpus: u32, knee: u32) -> u32 {
        if gpus == 0 {
            return 0;
        }
        let target = gpus.min(knee);
        let mut w = 1u32;
        while w * 2 <= target {
            w *= 2;
        }
        w
    }

    /// A dense ladder of `len` points with the given rates.
    fn ladder_of(rates: &[f64]) -> ScalingCurve {
        let points = rates
            .iter()
            .enumerate()
            .map(|(i, &iters_per_sec)| CurvePoint {
                gpus: 1 << i,
                iters_per_sec,
            })
            .collect();
        ScalingCurve::from_points(DnnModel::ResNet50, 64, points)
    }

    #[test]
    fn ladder_lookups_agree_with_the_points() {
        for (model, batches) in crate::PAPER_TABLE1 {
            for &b in batches {
                let curve = ScalingCurve::build(model, b, &net());
                let scanned = curve
                    .points()
                    .iter()
                    .max_by(|a, b| a.iters_per_sec.total_cmp(&b.iters_per_sec))
                    .unwrap()
                    .gpus;
                assert_eq!(curve.knee(), scanned, "{model} gbs={b}");
                for g in 0..=(curve.max_gpus() * 2) {
                    assert_eq!(
                        curve.rate(g).to_bits(),
                        curve.iters_per_sec(g).unwrap_or(0.0).to_bits(),
                        "{model} gbs={b} gpus={g}"
                    );
                    assert_eq!(curve.clamp_useful(g), doubling_clamp(g, scanned));
                }
                // The peak-rate prefix really is an upper bound per cap.
                for cap in curve.ladder() {
                    let peak = curve.peak_rate_at_or_below(cap);
                    for g in curve.ladder().filter(|&g| g <= cap) {
                        assert!(curve.iters_per_sec(g).unwrap() <= peak);
                    }
                }
                assert!(curve.ladder_monotone(), "{model} gbs={b}");
            }
        }
    }

    #[test]
    fn peak_rate_covers_dipping_curves() {
        // A measured curve can dip before recovering; the prefix max must
        // not under-estimate the reachable throughput.
        let curve = ladder_of(&[1.0, 0.5, 2.0]);
        assert_eq!(curve.peak_rate_at_or_below(2), 1.0);
        assert_eq!(curve.peak_rate_at_or_below(4), 2.0);
        assert_eq!(curve.peak_rate_at_or_below(3), 0.0);
        assert_eq!(curve.peak_rate_at_or_below(8), 0.0);
        assert!(!curve.ladder_monotone());
        // A dip past the knee does not count against monotonicity.
        let past_knee = ladder_of(&[1.0, 2.0, 1.5]);
        assert_eq!(past_knee.knee(), 2);
        assert!(past_knee.ladder_monotone());
    }

    #[test]
    fn bit_clamp_equals_the_doubling_loop_for_every_knee() {
        for k in 0..13 {
            // Rates rise to the knee at 2^k and fall past it.
            let rates: Vec<f64> = (0..14)
                .map(|i: i32| 100.0 - f64::from((i - k).abs()))
                .collect();
            let curve = ladder_of(&rates);
            assert_eq!(curve.knee(), 1 << k);
            for g in 0..=4096 {
                assert_eq!(curve.clamp_useful(g), doubling_clamp(g, 1 << k), "g={g}");
            }
        }
    }

    proptest::proptest! {
        /// A deserialized curve derives the same lookups, bit for bit, as
        /// the freshly built one it was serialized from — on monotone
        /// ladders and on measured ones that dip before the knee.
        #[test]
        fn deserialized_curves_derive_the_same_lookups(
            steps in proptest::collection::vec(0.05f64..4.0, 1..10),
            monotone in proptest::prelude::any::<bool>(),
        ) {
            let rates: Vec<f64> = if monotone {
                steps.iter().scan(0.0, |acc, s| { *acc += s; Some(*acc) }).collect()
            } else {
                steps
            };
            let fresh = ladder_of(&rates);
            let json = serde_json::to_string(&fresh).unwrap();
            let back: ScalingCurve = serde_json::from_str(&json).unwrap();
            proptest::prop_assert_eq!(&back, &fresh);
            proptest::prop_assert_eq!(back.knee(), fresh.knee());
            proptest::prop_assert_eq!(back.ladder_monotone(), fresh.ladder_monotone());
            for g in 0..=fresh.max_gpus() * 2 {
                proptest::prop_assert_eq!(back.clamp_useful(g), fresh.clamp_useful(g));
                proptest::prop_assert_eq!(back.rate(g).to_bits(), fresh.rate(g).to_bits());
                proptest::prop_assert_eq!(
                    back.peak_rate_at_or_below(g).to_bits(),
                    fresh.peak_rate_at_or_below(g).to_bits()
                );
            }
        }
    }

    #[test]
    fn deserialization_rejects_what_from_points_rejects() {
        let head = r#"{"model":"Bert","global_batch":64,"gpus_per_server":8,"points":"#;
        for points in [
            "[]",
            r#"[{"gpus":1,"iters_per_sec":1.0},{"gpus":4,"iters_per_sec":2.0}]"#,
            r#"[{"gpus":1,"iters_per_sec":0.0}]"#,
        ] {
            let json = format!("{head}{points}}}");
            assert!(
                serde_json::from_str::<ScalingCurve>(&json).is_err(),
                "{json}"
            );
        }
    }

    #[test]
    fn clones_share_their_points() {
        let curve = ScalingCurve::build(DnnModel::Bert, 128, &net());
        let copy = curve.clone();
        assert!(std::ptr::eq(curve.points(), copy.points()));
        assert_eq!(copy, curve);
    }

    #[test]
    fn a_built_curve_serializes_as_its_plain_point_sequence() {
        let curve = ScalingCurve::build_with_max(DnnModel::Bert, 64, &net(), 4);
        let json = serde_json::to_string(&curve).unwrap();
        assert_eq!(
            json,
            r#"{"model":"Bert","global_batch":64,"gpus_per_server":8,"points":["#.to_owned()
                + r#"{"gpus":1,"iters_per_sec":2.986857825567503},"#
                + r#"{"gpus":2,"iters_per_sec":5.700441784238278},"#
                + r#"{"gpus":4,"iters_per_sec":10.437051532941945}]}"#
        );
        // The same bytes as a curve whose points are a plain `Vec`.
        #[derive(Serialize)]
        struct Plain {
            model: DnnModel,
            global_batch: u32,
            gpus_per_server: u32,
            points: Vec<CurvePoint>,
        }
        let plain = Plain {
            model: curve.model(),
            global_batch: curve.global_batch(),
            gpus_per_server: net().gpus_per_server(),
            points: curve.points().to_vec(),
        };
        assert_eq!(json, serde_json::to_string(&plain).unwrap());
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
