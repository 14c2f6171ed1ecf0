//! Slot-based planning primitives shared by Algorithms 1 and 2.
//!
//! ElasticFlow's formulation (§4.1, conditions (2)–(3)) discretizes time
//! into slots and reasons about per-slot GPU allocations `x_i(t)`. In the
//! running system "slot 0" is the remainder of the current scheduling
//! interval and later slots have the full interval length.

use elasticflow_perfmodel::ScalingCurve;
use elasticflow_trace::JobId;
use serde::{Deserialize, Serialize};

/// The shared work-completion tolerance of the planning stack, in
/// iterations.
///
/// Progressive filling accumulates per-slot iteration counts in floating
/// point, so a job whose work is an exact multiple of its per-slot
/// throughput can land a few ulps short of `remaining_iterations` purely
/// from discretization drift (summing `rate * duration` slot by slot is
/// not associative). Every "has this job finished its work?" comparison
/// therefore allows this absolute slack: `done + WORK_EPSILON >=
/// remaining`. The value must be a single shared constant — if the
/// planner, the trimmer, the runtime auditor, and the theory oracles
/// drift to different epsilons, they start disagreeing about which plans
/// are feasible (enforced by lint rule EF-L005).
pub const WORK_EPSILON: f64 = 1e-9; // elasticflow-lint: allow(EF-L005): canonical definition site of the shared epsilon

/// The discrete slot grid anchored at "now".
///
/// # Example
///
/// ```
/// use elasticflow_core::SlotGrid;
///
/// // 100 s remain in the current slot; later slots are 300 s.
/// let grid = SlotGrid::new(100.0, 300.0);
/// assert_eq!(grid.duration(0), 100.0);
/// assert_eq!(grid.duration(3), 300.0);
/// // A deadline 500 s away covers slot 0 (100 s) plus one full slot.
/// assert_eq!(grid.slots_before(500.0), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotGrid {
    first: f64,
    rest: f64,
}

impl SlotGrid {
    /// Creates a grid whose slot 0 lasts `first` seconds and whose
    /// subsequent slots last `rest` seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < first <= rest` and both are finite.
    pub fn new(first: f64, rest: f64) -> Self {
        assert!(
            first.is_finite() && rest.is_finite() && first > 0.0 && first <= rest,
            "need 0 < first ({first}) <= rest ({rest})"
        );
        SlotGrid { first, rest }
    }

    /// A grid of uniform slots.
    pub fn uniform(slot_seconds: f64) -> Self {
        SlotGrid::new(slot_seconds, slot_seconds)
    }

    /// Duration of slot `t`, seconds.
    pub fn duration(&self, t: usize) -> f64 {
        if t == 0 {
            self.first
        } else {
            self.rest
        }
    }

    /// Number of *complete* slots that fit before a deadline `window`
    /// seconds from now — the conservative horizon used by admission
    /// control (a partial final slot is not counted, so guarantees are
    /// never optimistic).
    pub fn slots_before(&self, window: f64) -> usize {
        if !window.is_finite() {
            return usize::MAX;
        }
        if window < self.first {
            return 0;
        }
        elasticflow_cluster::num::slots_floor((window - self.first) / self.rest)
            .map_or(usize::MAX, |n| n.saturating_add(1))
    }

    /// The regular slot length.
    pub fn rest_seconds(&self) -> f64 {
        self.rest
    }
}

/// What the planner needs to know about one job.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanningJob {
    /// Job id.
    pub id: JobId,
    /// Profiled scaling curve.
    pub curve: ScalingCurve,
    /// Iterations left to run.
    pub remaining_iterations: f64,
    /// Number of complete slots available before the deadline
    /// (`usize::MAX` for best-effort jobs).
    pub deadline_slot: usize,
}

impl PlanningJob {
    /// Iterations completed in slot `t` when running `gpus` workers.
    pub fn iters_in_slot(&self, gpus: u32, grid: &SlotGrid, t: usize) -> f64 {
        self.curve.rate(gpus) * grid.duration(t)
    }

    /// Exact (fractional) time at which the job finishes its remaining
    /// work under `profile`, seconds from now — the `finish_time`
    /// Algorithm 2 compares (line 10). `None` if the profile never
    /// completes the job.
    ///
    /// A run of equal grants past slot 0 (which may be short) shares one
    /// rate and one per-slot work, looked up and multiplied once per run.
    /// The per-slot comparisons, subtractions and additions stay, in
    /// slot order, so the result is the per-slot walk's bit for bit.
    pub fn finish_seconds(&self, profile: &AllocationProfile, grid: &SlotGrid) -> Option<f64> {
        let mut remaining = self.remaining_iterations;
        let mut elapsed = 0.0;
        // The current run's grant, rate and work per slot.
        let mut run: Option<(u32, f64, f64)> = None;
        for (t, &g) in profile.as_slice().iter().enumerate() {
            let d = grid.duration(t);
            let (rate, work) = match run {
                Some((grant, rate, work)) if grant == g && t > 1 => (rate, work),
                _ => {
                    let rate = self.curve.rate(g);
                    let work = rate * d;
                    run = Some((g, rate, work));
                    (rate, work)
                }
            };
            if work + 1e-12 >= remaining {
                return Some(elapsed + if rate > 0.0 { remaining / rate } else { 0.0 });
            }
            remaining -= work;
            elapsed += d;
        }
        None
    }
}

/// A per-slot GPU allocation for one job: the paper's `x_i(t)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocationProfile {
    gpus: Vec<u32>,
}

impl AllocationProfile {
    /// Wraps a per-slot vector (index = slot).
    pub fn new(gpus: Vec<u32>) -> Self {
        AllocationProfile { gpus }
    }

    /// GPUs in slot `t` (0 beyond the profile's horizon).
    pub fn gpus(&self, t: usize) -> u32 {
        self.gpus.get(t).copied().unwrap_or(0)
    }

    /// The profile's horizon (number of slots with entries).
    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    /// `true` when the profile allocates nothing.
    pub fn is_empty(&self) -> bool {
        self.gpus.iter().all(|&g| g == 0)
    }

    /// Total GPU-time of the profile in GPU-slots weighted by slot
    /// durations (the quantity Algorithm 2 minimizes).
    ///
    /// The same additions, in slot order, as summing `g · duration(t)`
    /// with `Iterator::sum`, which folds from −0.0: an empty profile is
    /// −0.0, and −0.0 plus slot 0's term (never negative) is that term.
    /// The additions are the critical path, so later slots only hoist
    /// their common duration (a walk by runs measured slower).
    pub fn gpu_seconds(&self, grid: &SlotGrid) -> f64 {
        let Some((&g0, rest)) = self.gpus.split_first() else {
            return -0.0;
        };
        let d = grid.rest_seconds();
        rest.iter().fold(g0 as f64 * grid.duration(0), |total, &g| {
            total + g as f64 * d
        })
    }

    /// Index of the last slot with a non-zero allocation, if any — a proxy
    /// for the job's finish slot under this profile.
    pub fn last_active_slot(&self) -> Option<usize> {
        self.gpus.iter().rposition(|&g| g > 0)
    }

    /// The raw per-slot vector.
    pub fn as_slice(&self) -> &[u32] {
        &self.gpus
    }

    /// Unwraps the per-slot vector, giving the buffer back to the caller
    /// (planners recycle it through their fill scratch instead of
    /// allocating a fresh vector per profile).
    pub fn into_gpus(self) -> Vec<u32> {
        self.gpus
    }
}

/// Committed GPUs per slot across all already-planned jobs: the
/// `sum_{k < i} x_k(t)` term of Algorithm 1, line 15.
///
/// The committed vector is kept canonical — it never ends in a zero
/// slot — so two ledgers holding the same reservations compare equal no
/// matter which commit/uncommit sequence produced them, and the horizon
/// is simply the vector's length.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReservationLedger {
    committed: Vec<u32>,
}

impl ReservationLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        ReservationLedger::default()
    }

    /// GPUs already committed in slot `t`.
    pub fn committed(&self, t: usize) -> u32 {
        self.committed.get(t).copied().unwrap_or(0)
    }

    /// The committed vector up to the horizon (slot-indexed); every slot
    /// past its end is committed 0.
    pub(crate) fn committed_slots(&self) -> &[u32] {
        &self.committed
    }

    /// Empties the ledger, keeping its buffer for reuse.
    pub(crate) fn clear(&mut self) {
        self.committed.clear();
    }

    /// Makes this ledger equal to `other`, reusing its own buffer.
    pub(crate) fn copy_from(&mut self, other: &ReservationLedger) {
        self.committed.clone_from(&other.committed);
    }

    /// GPUs still free in slot `t` on a cluster of `total` GPUs.
    pub fn free(&self, t: usize, total: u32) -> u32 {
        total.saturating_sub(self.committed(t))
    }

    /// Adds a profile's reservations.
    pub fn commit(&mut self, profile: &AllocationProfile) {
        // Trailing zero slots of the profile add nothing; skipping them
        // keeps the vector canonical.
        let gpus = profile.as_slice();
        let gpus = &gpus[..gpus.iter().rposition(|&g| g > 0).map_or(0, |i| i + 1)];
        if self.committed.len() < gpus.len() {
            self.committed.resize(gpus.len(), 0);
        }
        for (c, &g) in self.committed.iter_mut().zip(gpus) {
            *c += g;
        }
    }

    /// Removes a previously committed profile.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the profile was never committed.
    pub fn uncommit(&mut self, profile: &AllocationProfile) {
        let gpus = profile.as_slice();
        // A committed profile's slots past the ledger's end are zero.
        debug_assert!(gpus.iter().skip(self.committed.len()).all(|&g| g == 0));
        for (c, &g) in self.committed.iter_mut().zip(gpus) {
            debug_assert!(*c >= g);
            *c -= g;
        }
        while self.committed.last() == Some(&0) {
            self.committed.pop();
        }
    }

    /// Total GPU-slots committed across slots `[0, t)` (slots past the
    /// ledger's end contribute zero). O(t).
    pub fn committed_before(&self, t: usize) -> u64 {
        self.committed[..t.min(self.committed.len())]
            .iter()
            .map(|&c| u64::from(c))
            .sum()
    }

    /// The highest committed value across all slots. O(horizon).
    pub fn peak(&self) -> u32 {
        self.committed.iter().copied().max().unwrap_or(0)
    }

    /// First slot index from which nothing is committed (every slot at or
    /// beyond it is fully free). Lets planners switch to an analytic fast
    /// path instead of walking empty slots one by one. O(1) on the
    /// canonical vector; the scan only matters for a deserialized vector
    /// that carries trailing zero slots.
    pub fn horizon(&self) -> usize {
        self.committed
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1)
    }

    /// Exclusive end of the run of slots from `t` whose committed value
    /// equals `committed(t)`, capped at `limit`. Past the ledger's end
    /// every slot is committed 0 forever, so the run reaches `limit`.
    /// A forward scan, O(returned run length); slot walks use it to
    /// handle whole constant-commitment regions at once.
    pub fn run_end(&self, t: usize, limit: usize) -> usize {
        let Some(&c) = self.committed.get(t) else {
            return limit;
        };
        let mut end = t + 1;
        while end < limit && self.committed.get(end) == Some(&c) {
            end += 1;
        }
        end.min(limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elasticflow_perfmodel::{CurvePoint, DnnModel};
    use proptest::prelude::*;

    /// The per-slot walks the run-hoisted `finish_seconds` and
    /// `gpu_seconds` replaced, kept as their bit-for-bit oracles.
    fn finish_seconds_per_slot(
        job: &PlanningJob,
        profile: &AllocationProfile,
        grid: &SlotGrid,
    ) -> Option<f64> {
        let mut remaining = job.remaining_iterations;
        let mut elapsed = 0.0;
        for (t, &g) in profile.as_slice().iter().enumerate() {
            let rate = job.curve.iters_per_sec(g).unwrap_or(0.0);
            let d = grid.duration(t);
            if rate * d + 1e-12 >= remaining {
                return Some(elapsed + if rate > 0.0 { remaining / rate } else { 0.0 });
            }
            remaining -= rate * d;
            elapsed += d;
        }
        None
    }

    fn gpu_seconds_per_slot(profile: &AllocationProfile, grid: &SlotGrid) -> f64 {
        profile
            .as_slice()
            .iter()
            .enumerate()
            .map(|(t, &g)| g as f64 * grid.duration(t))
            .sum()
    }

    /// Profiles built from runs of one grant: long runs, zero runs, and
    /// grants off the power-of-two ladder or past the curve (rate 0).
    fn runs() -> impl Strategy<Value = Vec<u32>> {
        prop::collection::vec(
            (
                prop_oneof![
                    Just(0u32),
                    Just(1),
                    Just(2),
                    Just(3),
                    Just(4),
                    Just(6),
                    Just(8),
                    Just(16),
                ],
                prop_oneof![1usize..4, 20usize..200],
            ),
            0..8,
        )
        .prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(g, n)| std::iter::repeat_n(g, n))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The run-hoisted profile arithmetic equals the per-slot walks
        /// bit for bit: short slot 0s, zero and off-ladder grants, work
        /// that never finishes, and work that ends exactly where a slot
        /// does.
        #[test]
        fn hoisted_profile_arithmetic_is_bit_equal(
            gpus in runs(),
            rates in prop::collection::vec(0.1f64..3.0, 4..5),
            first in prop_oneof![Just(60.0f64), Just(1.0), 0.01f64..60.0],
            end_at in 0usize..400,
            work_scale in prop_oneof![Just(0.0f64), 0.0f64..1.5, Just(1e9)],
        ) {
            let grid = SlotGrid::new(first, 60.0);
            // A dense ladder up to 8 GPUs: 16 is past its end.
            let mut peak = 0.0;
            let points = rates
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    peak += r;
                    CurvePoint { gpus: 1 << i, iters_per_sec: peak }
                })
                .collect();
            let curve = ScalingCurve::from_points(DnnModel::ResNet50, 64, points);
            let profile = AllocationProfile::new(gpus);
            // The work of the first `end_at` slots, summed in slot order,
            // scaled; a scale of 1 ends the work on a slot boundary.
            let boundary: f64 = profile
                .as_slice()
                .iter()
                .take(end_at)
                .enumerate()
                .map(|(t, &g)| curve.rate(g) * grid.duration(t))
                .sum();
            for remaining_iterations in [boundary, boundary * work_scale, work_scale] {
                let job = PlanningJob {
                    id: JobId::new(0),
                    curve: curve.clone(),
                    remaining_iterations,
                    deadline_slot: usize::MAX,
                };
                prop_assert_eq!(
                    job.finish_seconds(&profile, &grid).map(f64::to_bits),
                    finish_seconds_per_slot(&job, &profile, &grid).map(f64::to_bits)
                );
            }
            prop_assert_eq!(
                profile.gpu_seconds(&grid).to_bits(),
                gpu_seconds_per_slot(&profile, &grid).to_bits()
            );
        }
    }

    #[test]
    fn slots_before_boundaries() {
        let grid = SlotGrid::new(100.0, 300.0);
        assert_eq!(grid.slots_before(99.0), 0);
        assert_eq!(grid.slots_before(100.0), 1);
        assert_eq!(grid.slots_before(399.0), 1);
        assert_eq!(grid.slots_before(400.0), 2);
        assert_eq!(grid.slots_before(f64::INFINITY), usize::MAX);
    }

    #[test]
    fn uniform_grid() {
        let grid = SlotGrid::uniform(60.0);
        assert_eq!(grid.duration(0), 60.0);
        assert_eq!(grid.duration(5), 60.0);
        assert_eq!(grid.slots_before(180.0), 3);
    }

    #[test]
    #[should_panic(expected = "need 0 < first")]
    fn grid_rejects_first_longer_than_rest() {
        let _ = SlotGrid::new(400.0, 300.0);
    }

    #[test]
    fn profile_accounting() {
        let grid = SlotGrid::uniform(10.0);
        let p = AllocationProfile::new(vec![1, 0, 4]);
        assert_eq!(p.gpus(0), 1);
        assert_eq!(p.gpus(1), 0);
        assert_eq!(p.gpus(2), 4);
        assert_eq!(p.gpus(99), 0);
        assert_eq!(p.gpu_seconds(&grid), 50.0);
        assert_eq!(p.last_active_slot(), Some(2));
        assert!(!p.is_empty());
        assert!(AllocationProfile::new(vec![0, 0]).is_empty());
    }

    #[test]
    fn ledger_commit_uncommit() {
        let mut ledger = ReservationLedger::new();
        let a = AllocationProfile::new(vec![2, 2, 0]);
        let b = AllocationProfile::new(vec![1, 4, 4, 4]);
        ledger.commit(&a);
        ledger.commit(&b);
        assert_eq!(ledger.committed(0), 3);
        assert_eq!(ledger.committed(1), 6);
        assert_eq!(ledger.committed(3), 4);
        assert_eq!(ledger.free(1, 8), 2);
        assert_eq!(ledger.peak(), 6);
        ledger.uncommit(&a);
        assert_eq!(ledger.committed(0), 1);
        assert_eq!(ledger.committed(1), 4);
    }

    #[test]
    fn free_saturates_at_zero() {
        let mut ledger = ReservationLedger::new();
        ledger.commit(&AllocationProfile::new(vec![16]));
        assert_eq!(ledger.free(0, 8), 0);
    }

    #[test]
    fn prefix_sums_track_mutations() {
        let mut ledger = ReservationLedger::new();
        assert_eq!(ledger.committed_before(5), 0);
        let a = AllocationProfile::new(vec![2, 2, 0]);
        let b = AllocationProfile::new(vec![1, 4, 4, 4]);
        ledger.commit(&a);
        assert_eq!(ledger.committed_before(3), 4);
        ledger.commit(&b);
        assert_eq!(ledger.committed_before(0), 0);
        assert_eq!(ledger.committed_before(1), 3);
        assert_eq!(ledger.committed_before(2), 9);
        assert_eq!(ledger.committed_before(100), 17);
        assert_eq!(ledger.peak(), 6);
        assert_eq!(ledger.horizon(), 4);
        ledger.uncommit(&b);
        assert_eq!(ledger.committed_before(100), 4);
        assert_eq!(ledger.peak(), 2);
        assert_eq!(ledger.horizon(), 2);
    }

    #[test]
    fn run_end_spans_constant_regions() {
        let mut ledger = ReservationLedger::new();
        ledger.commit(&AllocationProfile::new(vec![2, 2, 2, 5, 5, 0, 0, 1]));
        assert_eq!(ledger.run_end(0, usize::MAX), 3);
        assert_eq!(ledger.run_end(1, usize::MAX), 3);
        assert_eq!(ledger.run_end(2, usize::MAX), 3);
        assert_eq!(ledger.run_end(3, usize::MAX), 5);
        assert_eq!(ledger.run_end(5, usize::MAX), 7);
        assert_eq!(ledger.run_end(7, usize::MAX), 8);
        // The caller's limit caps the scan.
        assert_eq!(ledger.run_end(0, 2), 2);
        assert_eq!(ledger.run_end(3, 4), 4);
        // Beyond the committed vector every slot is free forever.
        assert_eq!(ledger.run_end(8, usize::MAX), usize::MAX);
        assert_eq!(ledger.run_end(1000, 1200), 1200);
        ledger.commit(&AllocationProfile::new(vec![0, 0, 0, 0, 0, 2]));
        assert_eq!(ledger.committed(5), 2);
        assert_eq!(ledger.run_end(3, usize::MAX), 5);
        assert_eq!(ledger.run_end(5, usize::MAX), 6);
        assert_eq!(ledger.run_end(6, usize::MAX), 7);
    }

    #[test]
    fn ledger_identity_is_canonical() {
        // Trailing zero slots of a profile never reach the ledger, so the
        // same reservations compare, clone and serialize alike whatever
        // sequence produced them.
        let mut padded = ReservationLedger::new();
        padded.commit(&AllocationProfile::new(vec![1, 2, 0, 0]));
        let mut exact = ReservationLedger::new();
        exact.commit(&AllocationProfile::new(vec![1, 2]));
        let mut round_trip = exact.clone();
        round_trip.commit(&AllocationProfile::new(vec![0, 0, 3]));
        round_trip.uncommit(&AllocationProfile::new(vec![0, 0, 3]));
        assert_eq!(padded, exact);
        assert_eq!(round_trip, exact);
        assert_eq!(padded.horizon(), 2);
        let json = serde_json::to_string(&padded).unwrap();
        assert_eq!(json, r#"{"committed":[1,2]}"#);
        let back: ReservationLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(back, exact);
    }
}
