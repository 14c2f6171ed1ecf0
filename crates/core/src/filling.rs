//! Progressive filling (the inner loop of the paper's Algorithm 1).

use elasticflow_sched::clamp_pow2;
use elasticflow_trace::JobId;

use crate::alloc::BoostBuffers;
use crate::plan::WORK_EPSILON;
use crate::scheduler::PlanBuffers;
use crate::{AllocationProfile, PlanningJob, ReservationLedger, SlotGrid};

/// The planner's fill workspace: reusable buffers for
/// [`progressive_filling`] and Algorithm 2's boost loop.
///
/// Progressive filling is the planner's innermost loop: every admission
/// check and every Algorithm-2 boost probe builds per-slot candidate
/// vectors. A scratch owns the candidate slot vector (cleared, never
/// freed, between targets), a pool of recycled profile buffers, the
/// per-slot ledger difference a suffix refill tracks for its ladder
/// hints, and the kernel's [`FillCounters`]. The curve lookups the fill
/// reads (knee, clamp, per-rung and prefix-peak rates) live in the
/// job's shared [`ScalingCurve`](elasticflow_perfmodel::ScalingCurve),
/// derived once when the curve was built, so a fill rebuilds nothing.
///
/// Ownership rule: the caller owns the workspace and lends it to every
/// fill, admission check and boost it runs. A scheduler or gateway keeps
/// one for its whole lifetime and reuses it across rounds. Besides the
/// fill kernel's buffers it keeps every per-round vector of a planning
/// round: the planning views, an admission set's jobs, profiles, ladder
/// targets and ledger, a suffix refill's working ledger and refilled
/// profiles, Algorithm 2's per-job boost states and key heap, and
/// `plan`'s grants, positions and best-effort heap. Each path takes
/// these vectors from the workspace and gives them back, so a warm
/// ElasticFlow round allocates only the schedule plan it returns, plus
/// the odd profile buffer that grows when the pool hands it a longer
/// profile than it held before. Release-build tests pin ceilings after
/// one warm-up round: `core/tests/round_allocations.rs` at most 10
/// allocations per `plan` of a 28-job table (5 of them the returned
/// plan's map nodes), at most 4 per SLO arrival decision and none per
/// best-effort one; `serve/tests/submit_allocations.rs` at most 2 per
/// declined gateway submission.
///
/// The buffers hold only owned, lifetime-free data (positions and ids,
/// never references), and their contents are dead between calls —
/// reuse never changes an outcome. That is also why a workspace is
/// never part of its owner's state: it is not compared, not
/// snapshotted, and a clone starts empty (counters at zero). It must
/// not be shared concurrently; each worker thread owns its own.
/// Returned [`AllocationProfile`]s are copied out of the scratch, so
/// they stay valid after the scratch is reused or dropped.
#[derive(Debug, Default)]
pub struct FillScratch {
    gpus: Vec<u32>,
    /// Recycled profile buffers: successful fills pop one instead of
    /// allocating, and callers whose profiles die young (declined
    /// refills, superseded plans) push them back via
    /// [`FillScratch::recycle`]. Contents are dead — only capacity is
    /// reused — so recycling can never change a fill's outcome.
    pool: Vec<Vec<u32>>,
    /// Per-slot `working − stored` ledger difference of a suffix refill
    /// and the number of its negative slots (see
    /// [`crate::AdmissionSet`]'s refill); rebuilt per refill.
    pub(crate) delta: Vec<i64>,
    pub(crate) negative: usize,
    /// Work done so far; see [`FillCounters`].
    pub(crate) counters: FillCounters,
    /// Planning views and admission-set job vectors.
    pub(crate) jobs: Shelf<PlanningJob>,
    /// Admission-set and suffix-refill profile vectors.
    pub(crate) profiles: Shelf<AllocationProfile>,
    /// Ladder-target vectors of sets and suffix refills.
    pub(crate) targets: Shelf<u32>,
    /// Lapsed-id vectors of Algorithm 1's fills.
    pub(crate) lapsed: Shelf<JobId>,
    /// Set ledgers and suffix refills' working ledgers.
    ledgers: Vec<ReservationLedger>,
    /// Algorithm 2's boost loop.
    pub(crate) boost: BoostBuffers,
    /// The scheduler's `plan`.
    pub(crate) round: PlanBuffers,
}

/// Vectors of one element type, handed out empty and given back after
/// use. A round takes at most a few of each kind at once, so the shelf
/// keeps a handful; more are dropped.
#[derive(Debug)]
pub(crate) struct Shelf<T>(Vec<Vec<T>>);

impl<T> Default for Shelf<T> {
    fn default() -> Self {
        Shelf(Vec::new())
    }
}

/// Vectors kept per shelf; a planning round holds at most three of a
/// kind (a kept set, the round's own set and its input views).
const SHELF_CAP: usize = 8;

impl<T> Shelf<T> {
    /// An empty vector, with the capacity of one given back earlier.
    pub(crate) fn take(&mut self) -> Vec<T> {
        self.0.pop().unwrap_or_default()
    }

    /// Takes `v` back; its contents are dropped, its capacity kept (a
    /// vector without capacity is not worth a place).
    pub(crate) fn give(&mut self, mut v: Vec<T>) {
        v.clear();
        if v.capacity() > 0 && self.0.len() < SHELF_CAP {
            self.0.push(v);
        }
    }
}

/// Deterministic work counters of the fill kernel, cumulative over a
/// [`FillScratch`]'s life.
///
/// They count what the kernel did, never what it decided, so they are a
/// pure function of the fills asked of it. Like the rest of the
/// workspace they are not state: not compared, not snapshotted, and a
/// clone starts at zero. Runs of slots are counted once per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillCounters {
    /// Ladder probes: one per rung a fill tried.
    pub probes: u64,
    /// Probes rejected before the slot walk by the entry bound.
    pub pruned_entry: u64,
    /// Probes rejected inside the slot walk by the remaining-slots bound.
    pub pruned_walk: u64,
    /// Pinned-slot-0 probes rejected on slot 0's exact work.
    pub pruned_pinned: u64,
    /// Walked slots with nothing free.
    pub booked_slots: u64,
    /// Walked slots with room for the whole target.
    pub headroom_slots: u64,
    /// Walked slots with some, but not enough, room.
    pub partial_slots: u64,
    /// Walked slots (of any kind) of probes that failed.
    pub failed_slots: u64,
    /// Slots past the committed horizon added to the final-slot trim's
    /// running sum.
    pub tail_steps: u64,
    /// Suffix refills started from the job's stored ladder target.
    pub hinted_fills: u64,
    /// Stale Algorithm 2 boosts applied without a recomputing fill.
    pub revalidated_boosts: u64,
    /// Algorithm 2 boost candidates computed: one pinned-slot-0 fill each.
    pub boost_candidates: u64,
    /// Algorithm 2 boosts applied.
    pub boosts_applied: u64,
    /// Algorithm 1 fills of a planning round (an arrival's or the plan's
    /// stage 1) answered by the set the round's arrival kept instead.
    pub fills_reused: u64,
}

/// Recycled buffers beyond this are dropped; enough to cover the deepest
/// suffix refill observed at mega-cluster scale with room to spare.
const POOL_CAP: usize = 256;

impl FillScratch {
    /// A scratch with empty buffers (they grow on first use).
    pub fn new() -> Self {
        FillScratch::default()
    }

    /// Returns a dead profile's buffer to the pool so the next fill can
    /// reuse its allocation.
    pub fn recycle(&mut self, profile: AllocationProfile) {
        if self.pool.len() < POOL_CAP {
            self.pool.push(profile.into_gpus());
        }
    }

    /// The work counters accumulated since the workspace was created.
    pub fn counters(&self) -> FillCounters {
        self.counters
    }

    /// Gives a profile vector back, its profiles' buffers into the pool.
    pub(crate) fn give_profiles(&mut self, mut profiles: Vec<AllocationProfile>) {
        for profile in profiles.drain(..) {
            self.recycle(profile);
        }
        self.profiles.give(profiles);
    }

    /// An empty ledger, with the buffer of one given back earlier.
    pub(crate) fn take_ledger(&mut self) -> ReservationLedger {
        self.ledgers.pop().unwrap_or_default()
    }

    /// Takes a ledger back; its reservations are dropped, its buffer kept.
    pub(crate) fn give_ledger(&mut self, mut ledger: ReservationLedger) {
        ledger.clear();
        if self.ledgers.len() < SHELF_CAP {
            self.ledgers.push(ledger);
        }
    }
}

/// A clone is an empty workspace with zeroed counters: the contents are
/// dead between calls, so an empty one is interchangeable with the
/// original, and owners that derive `Clone` never copy buffers.
impl Clone for FillScratch {
    fn clone(&self) -> Self {
        FillScratch::new()
    }
}

/// Computes the job's minimum-satisfactory allocation against the current
/// reservations: the smallest power-of-two target `j` such that giving the
/// job `min(j, free(t))` GPUs in every slot up to its deadline completes
/// the remaining iterations in time (paper Algorithm 1, lines 11–22).
///
/// `fixed_slot0` pins the job's slot-0 allocation instead of deriving it
/// from `j` — that is how Algorithm 2 calls `ProgressiveFilling(i, 1)`
/// after hypothetically boosting slot 0.
///
/// Returns the per-slot profile, or `None` when even the maximum useful
/// allocation cannot meet the deadline.
///
/// Unlike the pseudocode's `j = 1..G`, candidates walk the power-of-two
/// ladder: buddy placement restricts worker counts to powers of two
/// (§4.3), and per-slot grants are rounded *down* to powers of two.
///
/// Fills run through the caller's [`FillScratch`]; the result does not
/// depend on what the workspace held before.
///
/// # Example
///
/// ```
/// use elasticflow_core::{progressive_filling, FillScratch, PlanningJob, ReservationLedger, SlotGrid};
/// use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
/// use elasticflow_trace::JobId;
///
/// // The paper's Fig. 4 example: throughput 1, 1.5, 2 with 1, 2, 4 GPUs.
/// let curve = ScalingCurve::from_points(DnnModel::ResNet50, 64, vec![
///     CurvePoint { gpus: 1, iters_per_sec: 1.0 },
///     CurvePoint { gpus: 2, iters_per_sec: 1.5 },
///     CurvePoint { gpus: 4, iters_per_sec: 2.0 },
/// ]);
/// let job = PlanningJob {
///     id: JobId::new(0),
///     curve,
///     remaining_iterations: 3.0,
///     deadline_slot: 2,
/// };
/// let grid = SlotGrid::uniform(1.0);
/// // Jobs A and B occupy 3 of the 4 GPUs in slot 0.
/// let mut ledger = ReservationLedger::new();
/// ledger.commit(&elasticflow_core::AllocationProfile::new(vec![3]));
/// let profile = progressive_filling(&job, &ledger, &grid, 4, None, &mut FillScratch::new());
/// let profile = profile.unwrap();
/// // As in the paper: 1 GPU in slot 0, 4 GPUs in slot 1 => 1 + 2 = 3 iters.
/// assert_eq!(profile.as_slice(), &[1, 4]);
/// ```
pub fn progressive_filling(
    job: &PlanningJob,
    ledger: &ReservationLedger,
    grid: &SlotGrid,
    total_gpus: u32,
    fixed_slot0: Option<u32>,
    scratch: &mut FillScratch,
) -> Option<AllocationProfile> {
    ladder_fill(job, ledger, grid, total_gpus, fixed_slot0, 1, scratch).map(|(profile, _)| profile)
}

/// [`progressive_filling`] that also reports the target `j` the ladder
/// settled on, and accepts a starting rung.
///
/// `start_target` above 1 skips the ladder's lower rungs. The caller
/// asserts that those rungs are known to fail — the contract under which
/// the result (profile *and* target) is bit-identical to the full ladder.
/// The incremental-admission refill supplies a job's previous target when
/// the ledger it refills against dominates the one that produced it
/// (pointwise at least as full): with a monotone curve, fuller slots can
/// only shrink grants and per-slot progress, so a target that failed
/// before still fails. The hint is ignored — full ladder from rung 1 —
/// whenever the curve is not ladder-monotone, so dips in measured curves
/// can never flip an outcome.
pub(crate) fn progressive_filling_from(
    job: &PlanningJob,
    ledger: &ReservationLedger,
    grid: &SlotGrid,
    total_gpus: u32,
    start_target: u32,
    scratch: &mut FillScratch,
) -> Option<(AllocationProfile, u32)> {
    ladder_fill(job, ledger, grid, total_gpus, None, start_target, scratch)
}

/// The one ladder walk behind every fill: tries targets up the
/// power-of-two ladder from `start_target` (from rung 1 when slot 0 is
/// pinned, see [`progressive_filling_from`]) and returns the first
/// profile that meets the deadline with its target. Algorithm 2's boost
/// probes call it directly with a pinned slot 0.
pub(crate) fn ladder_fill(
    job: &PlanningJob,
    ledger: &ReservationLedger,
    grid: &SlotGrid,
    total_gpus: u32,
    fixed_slot0: Option<u32>,
    start_target: u32,
    scratch: &mut FillScratch,
) -> Option<(AllocationProfile, u32)> {
    if job.deadline_slot == 0 {
        return None;
    }
    let max_target = job.curve.clamp_useful(total_gpus).max(1);
    // A hint only skips rungs when the monotonicity gate holds (see
    // `progressive_filling_from`); malformed hints fall back to rung 1.
    let mut j = if fixed_slot0.is_none()
        && start_target > 1
        && start_target.is_power_of_two()
        && job.curve.ladder_monotone()
    {
        start_target.min(max_target)
    } else {
        1u32
    };
    loop {
        if let Some(profile) = try_target(job, ledger, grid, total_gpus, j, fixed_slot0, scratch) {
            return Some((profile, j));
        }
        if j >= max_target {
            return None;
        }
        j *= 2;
    }
}

/// The exclusive end of `try_target`'s slot walk on `ledger`: the walk
/// visits slots `[1, end)` and treats everything from `end` on
/// analytically (fully free up to the deadline).
pub(crate) fn slot_walk_end(job: &PlanningJob, ledger: &ReservationLedger) -> usize {
    job.deadline_slot.min(ledger.horizon().max(1))
}

/// `true` when every slot in `[1, end)` of `ledger` has at least `j`
/// GPUs free — there every rung up to `j` takes the walk's headroom
/// branch, whose grant and progress depend on the rung alone.
pub(crate) fn headroom_through(
    ledger: &ReservationLedger,
    end: usize,
    total_gpus: u32,
    j: u32,
) -> bool {
    // Slots past the committed vector are free. A max over the walked
    // slots, not an early-exit scan: the common answer is "yes", which
    // reads every slot anyway, and the max vectorizes.
    let committed = ledger.committed_slots();
    let walked = committed.get(1..end.min(committed.len())).unwrap_or(&[]);
    total_gpus
        .checked_sub(j)
        .is_some_and(|room| walked.iter().copied().max().unwrap_or(0) <= room)
}

/// Shrinks the final active slot's grant to the smallest power of two that
/// still completes the remaining work. The pseudocode's constant-`j` fill
/// books `j` GPUs in the finish slot even when only a sliver of work is
/// left, and that stranded tail capacity breaks the downward closure of
/// admission: a job filling an emptier cluster books *more* GPU-time than
/// the same job filling a fuller one (where `free` clamps its grants), so
/// removing a neighbor could flip an admitted set to rejected. Frugality
/// here costs nothing — the job still finishes in the same slot.
///
/// `gpus` ends at the slot where the work completes, and `done_before` is
/// the work of the slots before it, summed in slot order from zero — the
/// same additions, in the same order, that a re-sum of `gpus[..last]`
/// would perform.
fn trim_final_slot(
    job: &PlanningJob,
    grid: &SlotGrid,
    gpus: &mut [u32],
    fixed_slot0: Option<u32>,
    done_before: f64,
) {
    let Some(last) = gpus.len().checked_sub(1) else {
        return;
    };
    if last == 0 && fixed_slot0.is_some() {
        return; // slot 0 is pinned by Algorithm 2's hypothetical boost
    }
    let needed = job.remaining_iterations - done_before;
    let mut g = 1u32;
    while g < gpus[last] {
        if job.curve.rate(g) * grid.duration(last) + WORK_EPSILON >= needed {
            gpus[last] = g;
            return;
        }
        g *= 2;
    }
}

/// Copies the scratch slot vector into an [`AllocationProfile`], reusing
/// a pooled buffer when one is available.
fn emit_profile(gpus: &[u32], pool: &mut Vec<Vec<u32>>) -> AllocationProfile {
    let mut buf = pool.pop().unwrap_or_default();
    buf.clear();
    buf.extend_from_slice(gpus);
    AllocationProfile::new(buf)
}

/// Builds the profile for one candidate target `j`, returning it only when
/// the job finishes by its deadline. The profile is trimmed at the slot
/// where the remaining work reaches zero, so commitments never outlive the
/// job (the early slots run at full `j`; the trim frees the tail for
/// others — the source of the "finish early, admit more later" benefit the
/// paper describes in §4.2).
///
/// The slots past 0 are walked by runs of one kind: booked (nothing
/// free), headroom (room for the whole target) and partial (some room).
/// Each slot's progress is still added to the running sum one slot at a
/// time, in slot order — f64 addition is not associative, and the golden
/// digests depend on the order — but a booked slot adds nothing and a
/// headroom slot adds the same precomputed value, so only a partial slot
/// pays for the ladder arithmetic.
fn try_target(
    job: &PlanningJob,
    ledger: &ReservationLedger,
    grid: &SlotGrid,
    total_gpus: u32,
    j: u32,
    fixed_slot0: Option<u32>,
    scratch: &mut FillScratch,
) -> Option<AllocationProfile> {
    let FillScratch {
        gpus,
        pool,
        counters,
        ..
    } = scratch;
    let curve = &job.curve;
    counters.probes += 1;
    gpus.clear();
    let horizon = job.deadline_slot;
    let remaining = job.remaining_iterations;
    // The grant of a slot with room for the whole target: `j` is a power
    // of two, so `clamp_pow2(j, free)` is `j` itself whenever
    // `free >= j`, and only the knee clamp (constraint (7)) remains.
    let full = curve.clamp_useful(j.min(total_gpus));
    // Slots past 0 all last `rest` seconds.
    let per_full = curve.rate(full) * grid.rest_seconds();
    // The most any slot can add under this target: the best throughput
    // reachable under its cap (a prefix max, so safe for measured curves
    // that dip before the knee) for a whole slot. Every infeasibility
    // bound below keeps one such slot of slack on top, which dwarfs both
    // WORK_EPSILON and the float rounding of the bound itself, so no
    // bound can fire on a target the walk would have accepted.
    let cap = curve.peak_rate_at_or_below(full) * grid.rest_seconds();
    let bounded = cap > WORK_EPSILON && horizon != usize::MAX;
    let x = match fixed_slot0 {
        Some(x0) => x0,
        None => {
            // Entry bound: even every slot at `cap` misses the deadline.
            if bounded && cap * (horizon as f64 + 1.0) < remaining {
                counters.pruned_entry += 1;
                return None;
            }
            let free = ledger.free(0, total_gpus);
            clamp_pow2(j.min(free), free)
        }
    };
    // Never allocate past the knee (constraint (7)).
    let x = if x == 0 { 0 } else { curve.clamp_useful(x) };
    let mut done = curve.rate(x) * grid.duration(0);
    // Pinned slot 0 may exceed the target's cap, so the entry bound does
    // not hold for it; its work is known exactly instead, and the other
    // `horizon - 1` slots plus one of slack bound the rest.
    if fixed_slot0.is_some()
        && bounded
        && done + WORK_EPSILON < remaining
        && done + cap * (horizon as f64) < remaining
    {
        counters.pruned_pinned += 1;
        return None;
    }
    gpus.push(x);
    if done + WORK_EPSILON >= remaining {
        trim_final_slot(job, grid, gpus, fixed_slot0, 0.0);
        return Some(emit_profile(gpus, pool));
    }
    let committed = ledger.committed_slots();
    let walk_end = slot_walk_end(job, ledger);
    // Commitments up to this leave room for the whole target.
    let roomy = total_gpus.checked_sub(j);
    let mut t = 1;
    while t < walk_end {
        let c = committed[t];
        if c >= total_gpus {
            // A booked run grants nothing and adds nothing.
            let end = t + committed[t..walk_end]
                .iter()
                .position(|&c| c < total_gpus)
                .unwrap_or(walk_end - t);
            counters.booked_slots += (end - t) as u64;
            gpus.resize(gpus.len() + (end - t), 0);
            t = end;
        } else if let Some(roomy) = roomy.filter(|&r| c <= r) {
            let end = t + committed[t..walk_end]
                .iter()
                .position(|&c| c > roomy)
                .unwrap_or(walk_end - t);
            if per_full > 0.0 {
                for s in t..end {
                    let before = done;
                    done += per_full;
                    if done + WORK_EPSILON >= remaining {
                        counters.headroom_slots += (s + 1 - t) as u64;
                        gpus.resize(gpus.len() + (s + 1 - t), full);
                        trim_final_slot(job, grid, gpus, fixed_slot0, before);
                        return Some(emit_profile(gpus, pool));
                    }
                }
            }
            counters.headroom_slots += (end - t) as u64;
            gpus.resize(gpus.len() + (end - t), full);
            t = end;
            // A headroom run progressed at full rate: nothing to bound.
            continue;
        } else {
            let free = total_gpus - c;
            let x = curve.clamp_useful(clamp_pow2(j.min(free), free));
            let per = curve.rate(x) * grid.duration(t);
            counters.partial_slots += 1;
            gpus.push(x);
            t += 1;
            if per > 0.0 {
                let before = done;
                done += per;
                if done + WORK_EPSILON >= remaining {
                    trim_final_slot(job, grid, gpus, fixed_slot0, before);
                    return Some(emit_profile(gpus, pool));
                }
            }
        }
        // Mid-walk bound, where progress fell short of `cap`: even the
        // `horizon - t` slots left at `cap`, plus one of slack, miss.
        if bounded && done + cap * ((horizon - t) as f64 + 1.0) < remaining {
            counters.pruned_walk += 1;
            return failed(gpus, counters);
        }
    }
    if walk_end >= horizon {
        return failed(gpus, counters);
    }
    // Beyond the ledger's committed horizon every slot is fully free, so
    // the number of additional slots needed follows analytically instead
    // of slot-by-slot.
    if per_full <= 0.0 {
        return failed(gpus, counters);
    }
    let need =
        match elasticflow_cluster::num::slots_ceil((remaining - done - WORK_EPSILON) / per_full) {
            // Absurd horizons are unsatisfiable, not worth materializing.
            Some(n) if n <= 10_000_000 => n.max(1),
            _ => return failed(gpus, counters),
        };
    if horizon != usize::MAX && walk_end + need > horizon {
        return failed(gpus, counters);
    }
    gpus.resize(gpus.len() + need, full);
    // The trim needs the work before the final slot: continue the walk's
    // sum through the tail slots before it — the additions a re-sum of
    // the profile from zero would make, in the same order.
    let mut done_before = done;
    for _ in 1..need {
        done_before += per_full;
    }
    counters.tail_steps += (need - 1) as u64;
    trim_final_slot(job, grid, gpus, fixed_slot0, done_before);
    Some(emit_profile(gpus, pool))
}

/// Accounts a failed probe's walked slots (everything past slot 0 in
/// `gpus`) and fails it.
fn failed(gpus: &[u32], counters: &mut FillCounters) -> Option<AllocationProfile> {
    counters.failed_slots += gpus.len().saturating_sub(1) as u64;
    None
}

/// The run-skipping slot walk the headroom walk replaced, its code kept
/// verbatim (comments dropped, `run_end` given an unbounded limit) as the
/// oracle of the differential property test below: the headroom walk
/// must reproduce its profiles bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn trim_final_slot(
        job: &PlanningJob,
        grid: &SlotGrid,
        gpus: &mut [u32],
        fixed_slot0: Option<u32>,
    ) {
        let Some(last) = gpus.iter().rposition(|&g| g > 0) else {
            return;
        };
        if last == 0 && fixed_slot0.is_some() {
            return; // slot 0 is pinned by Algorithm 2's hypothetical boost
        }
        let done_before: f64 = gpus[..last]
            .iter()
            .enumerate()
            .map(|(t, &g)| job.curve.rate(g) * grid.duration(t))
            .sum();
        let needed = job.remaining_iterations - done_before;
        let mut g = 1u32;
        while g < gpus[last] {
            if job.curve.rate(g) * grid.duration(last) + WORK_EPSILON >= needed {
                gpus[last] = g;
                return;
            }
            g *= 2;
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn try_target(
        job: &PlanningJob,
        ledger: &ReservationLedger,
        grid: &SlotGrid,
        total_gpus: u32,
        j: u32,
        fixed_slot0: Option<u32>,
        gpus: &mut Vec<u32>,
        pool: &mut Vec<Vec<u32>>,
    ) -> Option<AllocationProfile> {
        let horizon = job.deadline_slot;
        if fixed_slot0.is_none() && horizon != usize::MAX {
            let cap = job.curve.clamp_useful(j.min(total_gpus));
            let best = job.curve.peak_rate_at_or_below(cap);
            let slack = best * grid.rest_seconds();
            if slack > WORK_EPSILON && slack * (horizon as f64 + 1.0) < job.remaining_iterations {
                return None;
            }
        }
        let committed_horizon = ledger.horizon();
        gpus.clear();
        let mut done = 0.0f64;
        let mut t = 0usize;
        while t < horizon {
            if t >= committed_horizon.max(1) {
                let x = job.curve.clamp_useful(j.min(total_gpus));
                let per_slot = job.curve.rate(x) * grid.duration(t);
                if per_slot <= 0.0 {
                    return None;
                }
                let need = match elasticflow_cluster::num::slots_ceil(
                    (job.remaining_iterations - done - WORK_EPSILON) / per_slot,
                ) {
                    Some(n) if n <= 10_000_000 => n.max(1),
                    _ => return None,
                };
                if horizon != usize::MAX && t + need > horizon {
                    return None;
                }
                gpus.extend(std::iter::repeat_n(x, need));
                trim_final_slot(job, grid, gpus, fixed_slot0);
                return Some(emit_profile(gpus, pool));
            }
            if t == 0 {
                let x = match fixed_slot0 {
                    Some(x0) => x0,
                    None => {
                        let free = ledger.free(0, total_gpus);
                        clamp_pow2(j.min(free), free)
                    }
                };
                let x = if x == 0 { 0 } else { job.curve.clamp_useful(x) };
                gpus.push(x);
                done += job.curve.rate(x) * grid.duration(0);
                if done + WORK_EPSILON >= job.remaining_iterations {
                    trim_final_slot(job, grid, gpus, fixed_slot0);
                    return Some(emit_profile(gpus, pool));
                }
                t = 1;
                continue;
            }
            let run_end = ledger
                .run_end(t, usize::MAX)
                .min(horizon)
                .min(committed_horizon.max(1));
            let free = ledger.free(t, total_gpus);
            let x = clamp_pow2(j.min(free), free);
            let x = if x == 0 { 0 } else { job.curve.clamp_useful(x) };
            let per = job.curve.rate(x) * grid.duration(t);
            if per <= 0.0 {
                gpus.resize(run_end, x);
                t = run_end;
                continue;
            }
            loop {
                gpus.push(x);
                done += per;
                t += 1;
                if done + WORK_EPSILON >= job.remaining_iterations {
                    trim_final_slot(job, grid, gpus, fixed_slot0);
                    return Some(emit_profile(gpus, pool));
                }
                if t >= run_end {
                    break;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
    use elasticflow_trace::JobId;
    use proptest::prelude::*;

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

    fn job(remaining: f64, deadline_slot: usize) -> PlanningJob {
        PlanningJob {
            id: JobId::new(0),
            curve: fig4_curve(),
            remaining_iterations: remaining,
            deadline_slot,
        }
    }

    #[test]
    fn empty_cluster_uses_minimum_share() {
        // Deadline 1 slot, 1 unit of work, throughput 1 at 1 GPU: j = 1.
        let grid = SlotGrid::uniform(1.0);
        let ledger = ReservationLedger::new();
        let s = &mut FillScratch::new();
        let p = progressive_filling(&job(1.0, 1), &ledger, &grid, 4, None, s).unwrap();
        assert_eq!(p.as_slice(), &[1]);
    }

    #[test]
    fn tighter_deadline_needs_more_gpus() {
        // 1.5 units of work in 1 slot needs 2 GPUs (T(2) = 1.5).
        let grid = SlotGrid::uniform(1.0);
        let ledger = ReservationLedger::new();
        let s = &mut FillScratch::new();
        let p = progressive_filling(&job(1.5, 1), &ledger, &grid, 4, None, s).unwrap();
        assert_eq!(p.as_slice(), &[2]);
    }

    #[test]
    fn paper_fig4_walkthrough() {
        // Jobs A and B hold 3 GPUs in slot 0; job C (M=3, D=2) needs j=4:
        // slot 0 gets min(4, free=1) = 1 GPU, slot 1 gets 4.
        let grid = SlotGrid::uniform(1.0);
        let mut ledger = ReservationLedger::new();
        ledger.commit(&AllocationProfile::new(vec![3]));
        // j = 2 is checked first and fails: T(1) + T(2) = 2.5 < 3.
        let s = &mut FillScratch::new();
        let p = progressive_filling(&job(3.0, 2), &ledger, &grid, 4, None, s).unwrap();
        assert_eq!(p.as_slice(), &[1, 4]);
    }

    #[test]
    fn infeasible_returns_none() {
        // 10 units of work, deadline 1 slot, max throughput 2: impossible.
        let grid = SlotGrid::uniform(1.0);
        let ledger = ReservationLedger::new();
        let s = &mut FillScratch::new();
        assert!(progressive_filling(&job(10.0, 1), &ledger, &grid, 4, None, s).is_none());
    }

    #[test]
    fn zero_deadline_slots_is_infeasible() {
        let grid = SlotGrid::uniform(1.0);
        let ledger = ReservationLedger::new();
        let s = &mut FillScratch::new();
        assert!(progressive_filling(&job(0.5, 0), &ledger, &grid, 4, None, s).is_none());
    }

    #[test]
    fn profile_is_trimmed_after_completion() {
        // 2 units of work with j=1 over a 10-slot horizon: only 2 slots used.
        let grid = SlotGrid::uniform(1.0);
        let ledger = ReservationLedger::new();
        let s = &mut FillScratch::new();
        let p = progressive_filling(&job(2.0, 10), &ledger, &grid, 4, None, s).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.as_slice(), &[1, 1]);
    }

    #[test]
    fn fixed_slot0_is_respected() {
        let grid = SlotGrid::uniform(1.0);
        let ledger = ReservationLedger::new();
        let s = &mut FillScratch::new();
        let p = progressive_filling(&job(3.5, 2), &ledger, &grid, 4, Some(4), s).unwrap();
        assert_eq!(p.gpus(0), 4);
        // Slot 0 completes 2 units; remaining 1.5 needs 2 GPUs in slot 1.
        assert_eq!(p.gpus(1), 2);
    }

    #[test]
    fn per_slot_grants_are_powers_of_two() {
        let grid = SlotGrid::uniform(1.0);
        let mut ledger = ReservationLedger::new();
        // 1 GPU committed leaves 3 free; grants must round down to 2.
        ledger.commit(&AllocationProfile::new(vec![1, 1, 1, 1]));
        let s = &mut FillScratch::new();
        let p = progressive_filling(&job(4.0, 4), &ledger, &grid, 4, None, s).unwrap();
        for &g in p.as_slice() {
            assert!(g == 0 || g.is_power_of_two());
            assert!(g <= 2);
        }
    }

    #[test]
    fn respects_committed_capacity() {
        let grid = SlotGrid::uniform(1.0);
        let mut ledger = ReservationLedger::new();
        ledger.commit(&AllocationProfile::new(vec![4, 4]));
        // Cluster fully booked for 2 slots: a 2-slot-deadline job can't fit.
        let s = &mut FillScratch::new();
        assert!(progressive_filling(&job(1.0, 2), &ledger, &grid, 4, None, s).is_none());
        // But a 3-slot deadline leaves slot 2 free.
        let p = progressive_filling(&job(1.0, 3), &ledger, &grid, 4, None, s).unwrap();
        assert_eq!(p.as_slice(), &[0, 0, 1]);
    }

    #[test]
    fn scratch_reuse_is_stateless_between_fills() {
        let grid = SlotGrid::uniform(1.0);
        let mut scratch = FillScratch::new();
        let mut ledger = ReservationLedger::new();
        ledger.commit(&AllocationProfile::new(vec![3]));
        let a = progressive_filling(&job(3.0, 2), &ledger, &grid, 4, None, &mut scratch).unwrap();
        assert_eq!(a.as_slice(), &[1, 4]);
        // A second, different fill through the same scratch must match the
        // fresh-scratch result exactly.
        let empty = ReservationLedger::new();
        let b = progressive_filling(&job(1.5, 1), &empty, &grid, 4, None, &mut scratch).unwrap();
        assert_eq!(b.as_slice(), &[2]);
        // And the first profile is an independent copy, not a view.
        assert_eq!(a.as_slice(), &[1, 4]);
    }

    #[test]
    fn prune_agrees_with_slot_walk_on_infeasible_targets() {
        // Work far beyond the horizon's capacity: both the pruned and the
        // walked path must reject, and feasible cases must be unaffected.
        let grid = SlotGrid::uniform(1.0);
        let ledger = ReservationLedger::new();
        let s = &mut FillScratch::new();
        assert!(progressive_filling(&job(1000.0, 3), &ledger, &grid, 4, None, s).is_none());
        // Just-feasible boundary: 2 slots at T(4)=2 completes 4.0 exactly.
        let p = progressive_filling(&job(4.0, 2), &ledger, &grid, 4, None, s).unwrap();
        assert_eq!(p.as_slice(), &[4, 4]);
    }

    #[test]
    fn pinned_slot0_prune_fires_exactly_past_its_bound() {
        // Slot 0 pinned at 4 GPUs does T(4) = 2 units; at rung 1 every
        // later slot does at most T(1) = 1, so the bound is
        // 2 + 1 * horizon = 5 units over a 3-slot window.
        let grid = SlotGrid::uniform(1.0);
        let mut ledger = ReservationLedger::new();
        ledger.commit(&AllocationProfile::new(vec![0, 1, 1]));
        let probe = |work: f64| {
            let job = job(work, 3);
            let mut scratch = FillScratch::new();
            let got = try_target(&job, &ledger, &grid, 4, 1, Some(4), &mut scratch);
            let (mut gpus, mut pool) = (Vec::new(), Vec::new());
            let want =
                reference::try_target(&job, &ledger, &grid, 4, 1, Some(4), &mut gpus, &mut pool);
            assert_eq!(got, want, "work {work}");
            let ladder =
                progressive_filling(&job, &ledger, &grid, 4, Some(4), &mut FillScratch::new());
            (got, scratch.counters, ladder)
        };
        // Just inside the bound: rung 1 walks both slots (4 units < 5)
        // and fails on its own; rung 2 then finishes in slot 2.
        let (got, counters, ladder) = probe(5.0);
        assert_eq!(got, None);
        assert_eq!(counters.pruned_pinned, 0);
        assert_eq!(counters.headroom_slots, 2);
        assert_eq!(counters.failed_slots, 2);
        assert_eq!(ladder.unwrap().as_slice(), &[4, 2, 2]);
        // Just outside it: rung 1 is pruned before walking a slot.
        let (got, counters, ladder) = probe(5.000_000_001);
        assert_eq!(got, None);
        assert_eq!(counters.pruned_pinned, 1);
        assert_eq!(counters.headroom_slots + counters.failed_slots, 0);
        assert_eq!(ladder.unwrap().as_slice(), &[4, 2, 2]);
    }

    /// A random curve on the 1..=16 ladder: either ladder-monotone
    /// (cumulative positive gains) or with arbitrary dips.
    fn any_curve() -> impl Strategy<Value = ScalingCurve> {
        (
            any::<bool>(),
            prop::collection::vec(0.05f64..2.0, 5..6),
            1usize..6,
        )
            .prop_map(|(monotone, steps, len)| {
                let mut rate = 0.0;
                let points = (0..len)
                    .map(|i| {
                        rate = if monotone { rate + steps[i] } else { steps[i] };
                        CurvePoint {
                            gpus: 1 << i,
                            iters_per_sec: rate,
                        }
                    })
                    .collect();
                ScalingCurve::from_points(DnnModel::ResNet50, 64, points)
            })
    }

    /// Runs of committed values on a 16-GPU cluster: empty, saturated
    /// (zero free, sometimes over-booked), and fragmented single slots.
    fn any_ledger() -> impl Strategy<Value = ReservationLedger> {
        prop::collection::vec((0u32..4, 0u32..19, 1usize..4), 0..12).prop_map(|runs| {
            let mut committed = Vec::new();
            for (kind, value, len) in runs {
                let c = match kind {
                    0 => 0,
                    1 => 16 + value % 3,
                    _ => value % 17,
                };
                committed.extend(std::iter::repeat_n(c, len));
            }
            let mut ledger = ReservationLedger::new();
            ledger.commit(&AllocationProfile::new(committed));
            ledger
        })
    }

    /// Long alternating booked and lightly committed runs with a sparse
    /// short slot inside some of them, on a 16-GPU cluster: the shapes the
    /// run walk batches. Rungs meet booked runs, headroom runs and partial
    /// slots in turn, so with deadlines past the horizon and work near a
    /// window's capacity they exercise both walk bounds and the analytic
    /// tail.
    fn run_ledger() -> impl Strategy<Value = ReservationLedger> {
        prop::collection::vec(
            (0u32..5, 1usize..24, any::<bool>(), 0usize..24, 9u32..16),
            1..7,
        )
        .prop_map(|runs| {
            let mut committed = Vec::new();
            for (i, (level, len, short, at, short_c)) in runs.into_iter().enumerate() {
                // Even runs are booked (sometimes over-booked), odd runs
                // leave most of the cluster free.
                let c = if i % 2 == 0 { 16 + level % 3 } else { level };
                let start = committed.len();
                committed.extend(std::iter::repeat_n(c, len));
                if short && at < len {
                    committed[start + at] = short_c;
                }
            }
            let mut ledger = ReservationLedger::new();
            ledger.commit(&AllocationProfile::new(committed));
            ledger
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The run walk returns exactly the verbatim reference's profile
        /// for every rung, and the ladder — from rung 1 or from a hint —
        /// settles on the same profile and target.
        #[test]
        fn headroom_walk_matches_the_reference_kernel(
            curve in any_curve(),
            ledger in prop_oneof![any_ledger(), run_ledger()],
            work_scale in prop_oneof![3 => 0.0f64..24.0, 1 => 24.0f64..240.0],
            deadline in prop_oneof![4 => 1usize..30, 2 => 30usize..150, 1 => Just(usize::MAX)],
            first in 0.2f64..1.0,
            pin in prop_oneof![2 => Just(None), 1 => (0u32..17).prop_map(Some)],
            hint in 0u32..20,
            exact in prop_oneof![
                3 => prop::collection::vec(0u32..5, 0..12),
                1 => prop::collection::vec(0u32..5, 12..160),
            ],
        ) {
            let grid = SlotGrid::new(first * 2.0, 2.0);
            let total = 16u32;
            // Most cases put the work exactly on the epsilon edge of a
            // target's walk: the work its first `exact.len()` slots
            // complete, summed in slot order, plus WORK_EPSILON. There a
            // reordered or regrouped addition flips the completion check.
            let remaining_iterations = match exact.split_first() {
                None => work_scale * curve.iters_per_sec(1).expect("rate at 1 GPU"),
                Some((&rung, rest)) => {
                    let j = 1u32 << rung;
                    let mut done = 0.0f64;
                    for t in 0..=rest.len() {
                        let free = ledger.free(t, total);
                        let x = match (t, pin) {
                            (0, Some(x0)) => x0,
                            _ => clamp_pow2(j.min(free), free),
                        };
                        let x = if x == 0 { 0 } else { curve.clamp_useful(x) };
                        done += curve.rate(x) * grid.duration(t);
                    }
                    done + WORK_EPSILON
                }
            };
            let job = PlanningJob {
                id: JobId::new(0),
                remaining_iterations,
                curve,
                deadline_slot: deadline,
            };
            let max_target = job.curve.clamp_useful(total).max(1);
            let (mut b, mut pool) = (Vec::new(), Vec::new());
            let mut j = 1u32;
            while j <= max_target {
                let new = try_target(&job, &ledger, &grid, total, j, pin, &mut FillScratch::new());
                let old = reference::try_target(&job, &ledger, &grid, total, j, pin, &mut b, &mut pool);
                prop_assert_eq!(new, old, "target {}", j);
                j *= 2;
            }
            let got = ladder_fill(&job, &ledger, &grid, total, pin, hint, &mut FillScratch::new());
            let mut j = if pin.is_none() && hint > 1 && hint.is_power_of_two() && job.curve.ladder_monotone() {
                hint.min(max_target)
            } else {
                1
            };
            let want = loop {
                if let Some(p) =
                    reference::try_target(&job, &ledger, &grid, total, j, pin, &mut b, &mut pool)
                {
                    break Some((p, j));
                }
                if j >= max_target {
                    break None;
                }
                j *= 2;
            };
            prop_assert_eq!(got, want);
        }
    }

    /// A random curve over the 1..=8 power-of-two ladder. Rates are drawn
    /// independently, so a sample may be monotone (ladder-start hints engage)
    /// or dip (the monotonicity gate must force the full ladder) — both paths
    /// of the hinted fill get exercised.
    fn ladder_curve() -> impl Strategy<Value = ScalingCurve> {
        prop::collection::vec(0.1f64..4.0, 4..5).prop_map(|rates| {
            ScalingCurve::from_points(
                DnnModel::ResNet50,
                64,
                rates
                    .into_iter()
                    .enumerate()
                    .map(|(i, iters_per_sec)| CurvePoint {
                        gpus: 1 << i,
                        iters_per_sec,
                    })
                    .collect(),
            )
        })
    }

    /// A ledger built from a few random committed profiles.
    fn random_ledger(total: u32) -> impl Strategy<Value = ReservationLedger> {
        prop::collection::vec(prop::collection::vec(0u32..total + 1, 0..6), 0..4).prop_map(
            |profiles| {
                let mut ledger = ReservationLedger::new();
                for gpus in profiles {
                    ledger.commit(&AllocationProfile::new(gpus));
                }
                ledger
            },
        )
    }

    proptest! {
        /// The ladder-start shortcut is exact: a job's full-ladder target
        /// under some ledger is a sound starting rung under *any* ledger that
        /// dominates it (pointwise at least as full) — the hinted fill must
        /// return the same profile and the same target as the full ladder,
        /// for monotone and non-monotone curves alike.
        #[test]
        fn ladder_start_matches_full_ladder_under_dominating_ledgers(
            curve in ladder_curve(),
            base in random_ledger(8),
            extra in prop::collection::vec(0u32..9, 0..8),
            work_scale in 0.2f64..6.0,
            deadline_slot in 1usize..10,
        ) {
            let grid = SlotGrid::uniform(1.0);
            let total = 8u32;
            let work = work_scale * curve.iters_per_sec(1).expect("rate at 1 GPU");
            let job = PlanningJob {
                id: JobId::new(1),
                curve,
                remaining_iterations: work,
                deadline_slot,
            };
            let mut scratch = FillScratch::new();
            if let Some((_, stored_target)) =
                progressive_filling_from(&job, &base, &grid, total, 1, &mut scratch)
            {
                let mut fuller = base.clone();
                fuller.commit(&AllocationProfile::new(extra));
                let full = progressive_filling_from(&job, &fuller, &grid, total, 1, &mut scratch);
                let hinted =
                    progressive_filling_from(&job, &fuller, &grid, total, stored_target, &mut scratch);
                prop_assert_eq!(hinted, full);
            }
        }
    }
}
