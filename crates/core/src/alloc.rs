//! Elastic resource allocation (paper Algorithm 2).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use elasticflow_trace::JobId;

use crate::filling::{headroom_through, ladder_fill, slot_walk_end, FillScratch};
use crate::{
    AdmissionSet, AllocationProfile, PlanningJob, ReservationLedger, SlotGrid, WORK_EPSILON,
};

/// Outcome of a resource-allocation round.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationResult {
    /// Per-job profiles; `gpus(0)` of each is the allocation to apply now.
    pub profiles: BTreeMap<JobId, AllocationProfile>,
    /// Jobs whose deadlines can no longer be guaranteed (e.g. after
    /// accumulated scaling pauses); they receive no profile and must be
    /// handled by a fallback policy.
    pub infeasible: Vec<JobId>,
}

impl AllocationResult {
    /// GPUs the result assigns in slot 0.
    pub fn slot0_gpus(&self) -> u32 {
        self.profiles.values().map(|p| p.gpus(0)).sum()
    }
}

/// The greedy marginal-return allocator: after reserving every job's
/// minimum satisfactory share, leftover GPUs are granted one ladder step at
/// a time to the job whose boost saves the most GPU-time per extra GPU
/// (paper Algorithm 2; optimal for concave curves by Theorem 2).
///
/// # Example
///
/// ```
/// use elasticflow_core::{PlanningJob, ResourceAllocator, SlotGrid};
/// use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
/// use elasticflow_trace::JobId;
///
/// let curve = ScalingCurve::from_points(DnnModel::ResNet50, 64, vec![
///     CurvePoint { gpus: 1, iters_per_sec: 1.0 },
///     CurvePoint { gpus: 2, iters_per_sec: 1.5 },
/// ]);
/// let job = PlanningJob {
///     id: JobId::new(0),
///     curve,
///     remaining_iterations: 1.0,
///     deadline_slot: 4,
/// };
/// let result = ResourceAllocator::new(4).allocate(&[job], &SlotGrid::uniform(1.0));
/// // MSS is 1 GPU; the idle cluster boosts it to its knee (2 GPUs).
/// assert_eq!(result.profiles[&JobId::new(0)].gpus(0), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceAllocator {
    total_gpus: u32,
}

/// A job's one pending boost: the profile it would move to, and what
/// that costs and saves.
#[derive(Debug, PartialEq)]
struct Boost {
    priority: f64,
    extra: u32,
    profile: AllocationProfile,
    /// `finish_seconds` and `gpu_seconds` of `profile`, carried so an
    /// applied boost never recomputes them.
    finish: Option<f64>,
    gpu_seconds: f64,
    /// What the fill that produced `profile` read of the ledger, when
    /// that is little enough to recheck cheaply.
    footprint: Option<Footprint>,
    version: u64,
}

/// The part of the ledger a boost candidate's fill depended on, recorded
/// only when the fill took the slot walk's headroom branch everywhere.
///
/// A candidate fill pins slot 0 and walks the ladder from rung 1 up to
/// the rung `target` it settles on; every rung walks slots `[1,
/// walk_end)` of the ledger without the job's own reservations and
/// treats the rest analytically. When each of those slots has at least
/// `target` GPUs free, every probed rung takes the headroom branch in
/// every slot, so grants, the f64 progress sums, the trim, the finish
/// time, the GPU-seconds and the priority are functions of the rung
/// alone. The same fill on any later ledger with the same `walk_end` and
/// the same headroom therefore repeats bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Footprint {
    target: u32,
    walk_end: usize,
}

impl Footprint {
    /// The footprint of a fill of `job` that settled on `target`, or
    /// `None` if some walked slot lacked headroom for it. `ledger` holds
    /// every reservation but the job's own.
    fn of(job: &PlanningJob, ledger: &ReservationLedger, total: u32, target: u32) -> Option<Self> {
        let walk_end = slot_walk_end(job, ledger);
        headroom_through(ledger, walk_end, total, target).then_some(Footprint { target, walk_end })
    }

    /// `true` when a fill of `job` against `ledger` (again without the
    /// job's own reservations) would repeat the recorded one.
    fn holds(self, job: &PlanningJob, ledger: &ReservationLedger, total: u32) -> bool {
        slot_walk_end(job, ledger) == self.walk_end
            && headroom_through(ledger, self.walk_end, total, self.target)
    }
}

/// What the boost loop knows about one job, derived once per profile
/// rather than once per probe.
struct BoostState<'a> {
    job: &'a PlanningJob,
    incumbent: u32,
    profile: &'a mut AllocationProfile,
    finish: Option<f64>,
    gpu_seconds: f64,
    /// The job's queued boost, if any; the heap holds only its key.
    pending: Option<Boost>,
}

impl BoostState<'_> {
    /// Parks `boost` as this job's pending boost and returns its heap
    /// key. A job has at most one queued boost at any time.
    fn queue(&mut self, slot: usize, boost: Boost) -> BoostKey {
        debug_assert!(self.pending.is_none(), "one queued boost per job");
        let key = BoostKey {
            restoring: boost.profile.gpus(0) <= self.incumbent,
            priority: boost.priority,
            id: self.job.id,
            slot,
        };
        self.pending = Some(boost);
        key
    }
}

/// The heap key of a pending boost, ordered so `BinaryHeap::pop` yields
/// exactly the boost a linear scan for the best pending one selects:
/// restorations toward incumbent sizes first, then highest marginal
/// priority, smallest job id as the final tiebreak. The queue holds at
/// most one key per job id at any time, so the order is total and pops
/// are deterministic. The boost itself waits in its job's
/// [`BoostState`], so sifts move only these few bytes.
#[derive(Debug, Clone, Copy)]
struct BoostKey {
    restoring: bool,
    priority: f64,
    id: JobId,
    /// Index of the job's [`BoostState`].
    slot: usize,
}

impl PartialEq for BoostKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for BoostKey {}

impl PartialOrd for BoostKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BoostKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.restoring
            .cmp(&other.restoring)
            .then(self.priority.total_cmp(&other.priority))
            .then(other.id.cmp(&self.id))
    }
}

impl ResourceAllocator {
    /// Creates an allocator for a cluster of `total_gpus` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `total_gpus` is zero.
    pub fn new(total_gpus: u32) -> Self {
        assert!(total_gpus > 0, "cluster must have GPUs");
        ResourceAllocator { total_gpus }
    }

    /// Runs Algorithm 2 over the given (deadline-carrying) jobs.
    ///
    /// Phase 1 recomputes every job's minimum satisfactory profile via
    /// Algorithm 1's progressive filling; phase 2 distributes leftover
    /// slot-0 GPUs by marginal return. No job has an incumbent size here;
    /// the scheduler, which tracks running sizes, runs the two phases
    /// itself.
    pub fn allocate(&self, jobs: &[PlanningJob], grid: &SlotGrid) -> AllocationResult {
        let mut scratch = FillScratch::new();
        // One fill serves both cases: an all-feasible set is exactly the
        // admitted plan of Algorithm 1, and when guarantees have drifted
        // (scaling pauses, discretization) the same pass keeps the
        // satisfiable jobs and surfaces the lapsed rest for fallback.
        let (set, mut infeasible) =
            AdmissionSet::fill(self.total_gpus, jobs.to_vec(), grid, &mut scratch);
        infeasible.sort();
        let (jobs, mut profiles, mut ledger) = set.into_parts();
        let free0 = self.total_gpus - profiles.iter().map(|p| p.gpus(0)).sum::<u32>();
        let incumbents = vec![0; jobs.len()];
        self.boost(
            &jobs,
            grid,
            &mut profiles,
            &mut ledger,
            free0,
            &incumbents,
            &mut scratch,
        );
        AllocationResult {
            profiles: jobs.iter().map(|j| j.id).zip(profiles).collect(),
            infeasible,
        }
    }

    /// Phase 2 of Algorithm 2: distributes up to `budget` leftover slot-0
    /// GPUs by greedy marginal return, mutating `profiles` and `ledger` in
    /// place. Returns the number of GPUs actually granted.
    ///
    /// `jobs`, `profiles` and `incumbents` are index-aligned: `profiles[i]`
    /// is the committed profile of `jobs[i]`, and `incumbents[i]` its
    /// currently running worker count. Among pending boosts, restoring a
    /// job to a size it already holds is preferred over growing another
    /// job past its incumbent. Restorations are free at runtime (no
    /// checkpoint/restore pause), so this damps allocation churn; ties in
    /// marginal return are broken in favor of the status quo.
    ///
    /// Selection runs through a lazy binary heap: entries keep the key
    /// they were pushed with, and a popped entry that no longer fits the
    /// shrinking budget is discarded. A popped entry whose version
    /// predates the ledger is *stale*. If the footprint of its fill still
    /// holds on the current ledger, that fill would repeat bit for bit;
    /// the entry was the heap maximum and nothing was pushed since, so
    /// re-pushing it would pop it again — it is applied as if fresh.
    /// Otherwise it is recomputed and re-pushed. Pop order equals a
    /// linear rescan for the best pending boost entry for entry, so both
    /// produce identical allocations.
    ///
    /// The order of the slices does not matter: the heap's order over
    /// (restoring, priority, id) is total with at most one entry per job,
    /// and every initial candidate is computed against the same ledger
    /// (the job's own profile uncommitted, then recommitted).
    ///
    /// Fills run through the caller's workspace.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn boost(
        &self,
        jobs: &[PlanningJob],
        grid: &SlotGrid,
        profiles: &mut [AllocationProfile],
        ledger: &mut ReservationLedger,
        budget: u32,
        incumbents: &[u32],
        scratch: &mut FillScratch,
    ) -> u32 {
        debug_assert!(jobs.len() == profiles.len() && jobs.len() == incumbents.len());
        if budget == 0 {
            return 0; // every boost step costs at least one GPU
        }
        let mut states: Vec<BoostState<'_>> = jobs
            .iter()
            .zip(profiles.iter_mut())
            .zip(incumbents)
            .map(|((job, profile), &incumbent)| BoostState {
                job,
                incumbent,
                finish: job.finish_seconds(profile, grid),
                gpu_seconds: profile.gpu_seconds(grid),
                profile,
                pending: None,
            })
            .collect();
        let mut free0 = budget;
        let mut version = 0u64;
        let mut queue: BinaryHeap<BoostKey> = BinaryHeap::with_capacity(states.len());
        for (slot, state) in states.iter_mut().enumerate() {
            // A job past its knee or the budget has no candidate: it
            // skips the ledger round trip.
            let Some(step) = self.next_step(state, free0) else {
                continue;
            };
            ledger.uncommit(state.profile);
            let first = self.candidate(state, step, ledger, grid, version, scratch);
            ledger.commit(state.profile);
            if let Some(b) = first {
                queue.push(state.queue(slot, b));
            }
        }
        while free0 > 0 {
            let Some(key) = queue.pop() else {
                break;
            };
            let state = &mut states[key.slot];
            let Some(boost) = state.pending.take() else {
                debug_assert!(false, "a queued key has its boost");
                continue;
            };
            let stale = boost.version < version;
            if !stale && boost.extra > free0 {
                // Cannot ever fit again: free0 only shrinks.
                scratch.recycle(boost.profile);
                continue;
            }
            // The revalidation, the apply and the job's next candidate all
            // read the ledger without the job's own reservations: take
            // them out once, and put the job's profile (old or new) back
            // once. The vector each fill reads is the canonical one, as if
            // every step had uncommitted and recommitted on its own.
            ledger.uncommit(state.profile);
            if stale {
                // Revalidate against the current ledger, or recompute and
                // re-queue.
                let holds = boost
                    .footprint
                    .is_some_and(|f| f.holds(state.job, ledger, self.total_gpus));
                if !holds {
                    scratch.recycle(boost.profile);
                    let fresh = self.next_boost(state, ledger, grid, free0, version, scratch);
                    ledger.commit(state.profile);
                    if let Some(b) = fresh {
                        queue.push(state.queue(key.slot, b));
                    }
                    continue;
                }
                scratch.counters.revalidated_boosts += 1;
                #[cfg(debug_assertions)]
                {
                    // The soundness argument, checked on every debug run:
                    // a recomputation reproduces the revalidated entry
                    // (or drops it exactly when it no longer fits). The
                    // check's own fills stay out of the work counters, so
                    // they read the same in debug and release builds.
                    let counted = scratch.counters;
                    let recomputed = self
                        .next_boost(state, ledger, grid, free0, version, scratch)
                        .map(|b| Boost {
                            version: boost.version,
                            ..b
                        });
                    debug_assert_eq!(
                        recomputed.as_ref(),
                        (boost.extra <= free0).then_some(&boost)
                    );
                    if let Some(b) = recomputed {
                        scratch.recycle(b.profile);
                    }
                    scratch.counters = counted;
                }
                if boost.extra > free0 {
                    scratch.recycle(boost.profile);
                    ledger.commit(state.profile);
                    continue;
                }
            }
            // Apply the boost.
            let superseded = std::mem::replace(state.profile, boost.profile);
            scratch.recycle(superseded);
            state.finish = boost.finish;
            state.gpu_seconds = boost.gpu_seconds;
            free0 -= boost.extra;
            version += 1;
            scratch.counters.boosts_applied += 1;
            // Queue this job's next step.
            let next = self.next_boost(state, ledger, grid, free0, version, scratch);
            ledger.commit(state.profile);
            if let Some(b) = next {
                queue.push(state.queue(key.slot, b));
            }
        }
        for boost in states.into_iter().filter_map(|s| s.pending) {
            scratch.recycle(boost.profile);
        }
        budget - free0
    }

    /// The next boost step of one job — double its slot-0 allocation (or
    /// start it at 1) — as the new slot-0 grant and the GPUs it adds.
    /// `None` past the knee or the budget. Reads no ledger.
    fn next_step(&self, state: &BoostState<'_>, free0: u32) -> Option<(u32, u32)> {
        let cur0 = state.profile.gpus(0);
        let next0 = if cur0 == 0 { 1 } else { cur0 * 2 };
        if next0 > state.job.curve.clamp_useful(self.total_gpus) {
            return None; // past the knee: constraint (7)
        }
        let extra = next0 - cur0;
        (extra <= free0).then_some((next0, extra))
    }

    /// The job's next boost candidate ([`Self::next_step`], then
    /// [`Self::candidate`]), or `None` when no further boost helps or fits.
    fn next_boost(
        &self,
        state: &BoostState<'_>,
        others: &ReservationLedger,
        grid: &SlotGrid,
        free0: u32,
        version: u64,
        scratch: &mut FillScratch,
    ) -> Option<Boost> {
        let step = self.next_step(state, free0)?;
        self.candidate(state, step, others, grid, version, scratch)
    }

    /// Computes the boost candidate of `step` for one job: pin slot 0 at
    /// the step's grant and progressively re-fill the future against
    /// `others`, the ledger without the job's own reservations. Returns
    /// `None` when the boost does not finish the job earlier.
    fn candidate(
        &self,
        state: &BoostState<'_>,
        (next0, extra): (u32, u32),
        others: &ReservationLedger,
        grid: &SlotGrid,
        version: u64,
        scratch: &mut FillScratch,
    ) -> Option<Boost> {
        scratch.counters.boost_candidates += 1;
        let (fresh, target) = ladder_fill(
            state.job,
            others,
            grid,
            self.total_gpus,
            Some(next0),
            1,
            scratch,
        )?;
        // Paper line 10/23: enqueue only if the boost finishes the job
        // strictly earlier (fractional finish times within slots).
        let finish = state.job.finish_seconds(&fresh, grid);
        let finishes_earlier = match (finish, state.finish) {
            (Some(a), Some(b)) => a + WORK_EPSILON < b,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !finishes_earlier {
            scratch.recycle(fresh);
            return None;
        }
        let gpu_seconds = fresh.gpu_seconds(grid);
        Some(Boost {
            priority: (state.gpu_seconds - gpu_seconds) / extra as f64,
            extra,
            profile: fresh,
            finish,
            gpu_seconds,
            footprint: Footprint::of(state.job, others, self.total_gpus, target),
            version,
        })
    }
}

/// The linear-scan boost loop the heap-driven [`ResourceAllocator::boost`]
/// replaced, kept as the differential-testing oracle: every pop of the
/// heap must match the maximum this scan selects, so both produce
/// identical profiles, grants, and ledgers.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::filling::progressive_filling;

    struct Boost {
        priority: f64,
        id: JobId,
        extra: u32,
        profile: AllocationProfile,
        version: u64,
    }

    impl ResourceAllocator {
        pub(super) fn boost_reference(
            &self,
            jobs: &[PlanningJob],
            grid: &SlotGrid,
            profiles: &mut BTreeMap<JobId, AllocationProfile>,
            ledger: &mut ReservationLedger,
            budget: u32,
            incumbents: &BTreeMap<JobId, u32>,
        ) -> u32 {
            let jobs_by_id: BTreeMap<JobId, &PlanningJob> =
                jobs.iter().map(|j| (j.id, j)).collect();
            let mut free0 = budget;
            let mut version = 0u64;
            let mut scratch = FillScratch::new();
            let mut queue: Vec<Boost> = Vec::new();
            for (&id, profile) in profiles.iter() {
                if let Some(b) = self.candidate_reference(
                    jobs_by_id[&id],
                    profile,
                    ledger,
                    grid,
                    free0,
                    version,
                    &mut scratch,
                ) {
                    queue.push(b);
                }
            }
            while free0 > 0 && !queue.is_empty() {
                // Pop the best boost: restorations toward incumbent sizes
                // first, then highest marginal return; id as final tiebreak.
                let restoring =
                    |b: &Boost| b.profile.gpus(0) <= incumbents.get(&b.id).copied().unwrap_or(0);
                let Some(best_idx) = queue
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        restoring(a)
                            .cmp(&restoring(b))
                            .then(a.priority.total_cmp(&b.priority))
                            .then(b.id.cmp(&a.id))
                    })
                    .map(|(i, _)| i)
                else {
                    break;
                };
                let boost = queue.swap_remove(best_idx);
                let job = jobs_by_id[&boost.id];
                if boost.version < version {
                    // Stale: recompute against the current ledger and re-queue.
                    let current = &profiles[&boost.id];
                    if let Some(fresh) = self.candidate_reference(
                        job,
                        current,
                        ledger,
                        grid,
                        free0,
                        version,
                        &mut scratch,
                    ) {
                        queue.push(fresh);
                    }
                    continue;
                }
                if boost.extra > free0 {
                    continue; // cannot ever fit again: free0 only shrinks
                }
                // Apply the boost: swap profiles in the ledger.
                let old = profiles
                    .insert(boost.id, boost.profile.clone())
                    .expect("boosted job has a profile");
                ledger.uncommit(&old);
                ledger.commit(&boost.profile);
                free0 -= boost.extra;
                version += 1;
                // Queue this job's next step.
                if let Some(next) = self.candidate_reference(
                    job,
                    &profiles[&boost.id],
                    ledger,
                    grid,
                    free0,
                    version,
                    &mut scratch,
                ) {
                    queue.push(next);
                }
            }
            budget - free0
        }

        #[allow(clippy::too_many_arguments)]
        fn candidate_reference(
            &self,
            job: &PlanningJob,
            current: &AllocationProfile,
            ledger: &mut ReservationLedger,
            grid: &SlotGrid,
            free0: u32,
            version: u64,
            scratch: &mut FillScratch,
        ) -> Option<Boost> {
            let cur0 = current.gpus(0);
            let next0 = if cur0 == 0 { 1 } else { cur0 * 2 };
            if next0 > job.curve.clamp_useful(self.total_gpus) {
                return None; // past the knee: constraint (7)
            }
            let extra = next0 - cur0;
            if extra > free0 {
                return None;
            }
            // Evaluate against the ledger without this job's own reservations.
            ledger.uncommit(current);
            let fresh =
                progressive_filling(job, ledger, grid, self.total_gpus, Some(next0), scratch);
            ledger.commit(current);
            let fresh = fresh?;
            let finishes_earlier = match (
                job.finish_seconds(&fresh, grid),
                job.finish_seconds(current, grid),
            ) {
                (Some(a), Some(b)) => a + WORK_EPSILON < b,
                (Some(_), None) => true,
                (None, _) => false,
            };
            let saved = current.gpu_seconds(grid) - fresh.gpu_seconds(grid);
            if !finishes_earlier {
                return None;
            }
            Some(Boost {
                priority: saved / extra as f64,
                id: job.id,
                extra,
                profile: fresh,
                version,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progressive_filling;
    use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
    use proptest::prelude::*;

    fn curve() -> ScalingCurve {
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

    fn job(id: u64, work: f64, slots: usize) -> PlanningJob {
        PlanningJob {
            id: JobId::new(id),
            curve: curve(),
            remaining_iterations: work,
            deadline_slot: slots,
        }
    }

    #[test]
    fn lone_job_boosted_to_knee() {
        let result = ResourceAllocator::new(8).allocate(&[job(0, 4.0, 8)], &SlotGrid::uniform(1.0));
        assert!(result.infeasible.is_empty());
        // MSS would be 1 GPU over 4 slots; boosting to the knee (4) finishes
        // in 2 slots.
        assert_eq!(result.profiles[&JobId::new(0)].gpus(0), 4);
    }

    #[test]
    fn paper_fig3_alike_jobs_share_rather_than_hog() {
        // Two jobs (3 units each, deadlines 3 slots) on 2 GPUs: one worker
        // each meets both deadlines; EDF-style hogging would miss one.
        let result = ResourceAllocator::new(2)
            .allocate(&[job(0, 3.0, 3), job(1, 3.0, 3)], &SlotGrid::uniform(1.0));
        assert!(result.infeasible.is_empty());
        assert_eq!(result.profiles[&JobId::new(0)].gpus(0), 1);
        assert_eq!(result.profiles[&JobId::new(1)].gpus(0), 1);
    }

    #[test]
    fn leftovers_go_to_highest_marginal_return() {
        // Job 0 has a tight deadline (MSS 2), job 1 a loose one (MSS 1).
        // One leftover GPU on a 4-GPU cluster: boosting job 1 from 1 -> 2
        // costs 1 GPU; boosting job 0 from 2 -> 4 costs 2 and exceeds free.
        let result = ResourceAllocator::new(4)
            .allocate(&[job(0, 1.5, 1), job(1, 2.0, 4)], &SlotGrid::uniform(1.0));
        assert_eq!(result.profiles[&JobId::new(0)].gpus(0), 2);
        assert_eq!(result.profiles[&JobId::new(1)].gpus(0), 2);
    }

    #[test]
    fn no_boost_past_the_knee() {
        let result =
            ResourceAllocator::new(32).allocate(&[job(0, 10.0, 32)], &SlotGrid::uniform(1.0));
        // Knee of the test curve is 4.
        assert_eq!(result.profiles[&JobId::new(0)].gpus(0), 4);
        assert_eq!(result.slot0_gpus(), 4);
    }

    #[test]
    fn infeasible_jobs_are_surfaced_not_lost() {
        // 2 GPUs, three urgent jobs: only two fit.
        let result = ResourceAllocator::new(2).allocate(
            &[job(0, 1.0, 1), job(1, 1.0, 1), job(2, 1.0, 1)],
            &SlotGrid::uniform(1.0),
        );
        assert_eq!(result.profiles.len(), 2);
        assert_eq!(result.infeasible, vec![JobId::new(2)]);
    }

    #[test]
    fn never_over_allocates_slot0() {
        for n in 1..6u64 {
            let jobs: Vec<PlanningJob> = (0..n).map(|i| job(i, 2.0, 3)).collect();
            let result = ResourceAllocator::new(4).allocate(&jobs, &SlotGrid::uniform(1.0));
            assert!(
                result.slot0_gpus() <= 4,
                "n={n}: slot0 {}",
                result.slot0_gpus()
            );
        }
    }

    #[test]
    fn boosts_reduce_total_gpu_time_or_finish() {
        // Whatever the boost sequence, the final plan must use no more
        // GPU-time per job than running it at the knee from scratch, and
        // every job still meets its deadline.
        let grid = SlotGrid::uniform(1.0);
        let jobs = [job(0, 2.0, 4), job(1, 3.0, 4), job(2, 1.0, 2)];
        let result = ResourceAllocator::new(4).allocate(&jobs, &grid);
        assert!(result.infeasible.is_empty());
        for j in &jobs {
            let p = &result.profiles[&j.id];
            // Deadline respected.
            assert!(p.last_active_slot().unwrap() < j.deadline_slot);
            // Work completed.
            let done: f64 = p
                .as_slice()
                .iter()
                .enumerate()
                .map(|(t, &g)| j.iters_in_slot(g, &grid, t))
                .sum();
            assert!(done + 1e-9 >= j.remaining_iterations);
        }
    }

    /// A random concave power-of-two curve up to 8 GPUs.
    fn concave_curve() -> impl Strategy<Value = ScalingCurve> {
        (0.5f64..2.0, 0.3f64..0.95, 0.3f64..0.95, 0.2f64..0.9).prop_map(|(t1, d1, d2, d3)| {
            let g2 = t1 + t1 * d1;
            let g4 = g2 + 2.0 * t1 * d1 * d2;
            let g8 = g4 + 4.0 * t1 * d1 * d2 * d3;
            ScalingCurve::from_points(
                DnnModel::ResNet50,
                64,
                vec![
                    CurvePoint {
                        gpus: 1,
                        iters_per_sec: t1,
                    },
                    CurvePoint {
                        gpus: 2,
                        iters_per_sec: g2,
                    },
                    CurvePoint {
                        gpus: 4,
                        iters_per_sec: g4,
                    },
                    CurvePoint {
                        gpus: 8,
                        iters_per_sec: g8,
                    },
                ],
            )
        })
    }

    /// Random jobs plus a per-job incumbent GPU count (0 = no incumbent),
    /// the incumbents being what steers the heap's restoring-first ordering.
    #[allow(clippy::type_complexity)]
    fn instance() -> impl Strategy<Value = Vec<(ScalingCurve, f64, usize, u32)>> {
        prop::collection::vec((concave_curve(), 0.2f64..6.0, 1usize..6, 0u32..5), 1..7)
    }

    /// Random jobs with short windows on a large cluster: every walked
    /// slot has room, so most stale boosts revalidate instead of refilling.
    #[allow(clippy::type_complexity)]
    fn headroom_instance() -> impl Strategy<Value = Vec<(ScalingCurve, f64, usize, u32)>> {
        prop::collection::vec((concave_curve(), 0.2f64..4.0, 1usize..4, 0u32..9), 2..10)
    }

    /// What one boost loop produced: GPUs granted, profiles, ledger.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        spent: u32,
        profiles: BTreeMap<JobId, AllocationProfile>,
        ledger: ReservationLedger,
    }

    /// Algorithm 2's phase-1 state for one instance: the jobs with a
    /// minimum satisfactory share, their index-aligned profiles and
    /// incumbents, and the committed ledger.
    struct Phase1 {
        jobs: Vec<PlanningJob>,
        profiles: Vec<AllocationProfile>,
        incumbents: Vec<u32>,
        ledger: ReservationLedger,
    }

    impl Phase1 {
        /// Runs the heap boost from this state through `scratch`.
        fn boost(
            mut self,
            alloc: &ResourceAllocator,
            budget: u32,
            scratch: &mut FillScratch,
        ) -> Outcome {
            let spent = alloc.boost(
                &self.jobs,
                &SlotGrid::uniform(1.0),
                &mut self.profiles,
                &mut self.ledger,
                budget,
                &self.incumbents,
                scratch,
            );
            Outcome {
                spent,
                profiles: self.jobs.iter().map(|j| j.id).zip(self.profiles).collect(),
                ledger: self.ledger,
            }
        }
    }

    /// Builds Algorithm 2's phase-1 state (minimum satisfactory shares)
    /// for `specs` on `total` GPUs, and picks a budget from 0 up to the
    /// full leftover, including starved ones.
    fn phase1(
        specs: Vec<(ScalingCurve, f64, usize, u32)>,
        total: u32,
        budget_pick: u32,
    ) -> (u32, Phase1) {
        let grid = SlotGrid::uniform(1.0);
        let mut state = Phase1 {
            jobs: Vec::new(),
            profiles: Vec::new(),
            incumbents: Vec::new(),
            ledger: ReservationLedger::new(),
        };
        for (i, (curve, work_scale, deadline_slot, incumbent)) in specs.into_iter().enumerate() {
            let job = PlanningJob {
                id: JobId::new(i as u64),
                remaining_iterations: work_scale
                    * curve
                        .iters_per_sec(1)
                        .expect("1 GPU is always on the curve"),
                curve,
                deadline_slot,
            };
            let filled = progressive_filling(
                &job,
                &state.ledger,
                &grid,
                total,
                None,
                &mut FillScratch::new(),
            );
            if let Some(p) = filled {
                state.ledger.commit(&p);
                state.jobs.push(job);
                state.profiles.push(p);
                state.incumbents.push(incumbent);
            }
        }
        let used: u32 = state.profiles.iter().map(|p| p.gpus(0)).sum();
        let free0 = total.saturating_sub(used);
        let budget = if free0 == 0 {
            0
        } else {
            budget_pick % (free0 + 1)
        };
        (budget, state)
    }

    /// Runs the heap boost (through `scratch`) and the linear reference
    /// from the phase-1 state of `specs`. Returns the budget and both
    /// outcomes; the reference takes id-keyed maps.
    fn boost_both(
        specs: Vec<(ScalingCurve, f64, usize, u32)>,
        total: u32,
        budget_pick: u32,
        scratch: &mut FillScratch,
    ) -> (u32, Outcome, Outcome) {
        let alloc = ResourceAllocator::new(total);
        let (budget, state) = phase1(specs, total, budget_pick);
        let ids = || state.jobs.iter().map(|j| j.id);
        let mut reference = Outcome {
            spent: 0,
            profiles: ids().zip(state.profiles.iter().cloned()).collect(),
            ledger: state.ledger.clone(),
        };
        let incumbents: BTreeMap<JobId, u32> = ids()
            .zip(state.incumbents.iter().copied())
            .filter(|&(_, g)| g > 0)
            .collect();
        reference.spent = alloc.boost_reference(
            &state.jobs,
            &SlotGrid::uniform(1.0),
            &mut reference.profiles,
            &mut reference.ledger,
            budget,
            &incumbents,
        );
        let heap = state.boost(&alloc, budget, scratch);
        (budget, heap, reference)
    }

    #[test]
    fn footprint_holds_only_with_the_same_walk_end_and_headroom() {
        let grid = SlotGrid::uniform(1.0);
        let ledger = |committed: Vec<u32>| {
            let mut l = ReservationLedger::new();
            l.commit(&AllocationProfile::new(committed));
            l
        };
        let fill = |job: &PlanningJob, l: &ReservationLedger| {
            ladder_fill(job, l, &grid, 4, Some(2), 1, &mut FillScratch::new())
        };
        // Slot 0 pinned at 2 GPUs does 1.5 units; rung 1 falls short
        // and rung 2 finishes in slot 3 with 2 of 3 free GPUs per slot.
        let tight = job(0, 6.0, 4);
        let base = ledger(vec![1, 1, 1, 1]);
        let (profile, target) = fill(&tight, &base).expect("rung 2 fits");
        assert_eq!((profile.as_slice(), target), (&[2, 2, 2, 2][..], 2));
        let fp = Footprint::of(&tight, &base, 4, target).expect("every slot has room");
        assert_eq!(fp.walk_end, 4);
        assert!(fp.holds(&tight, &base, 4));
        // Exactly the target free in a walked slot is still headroom,
        // and the fill repeats.
        let snug = ledger(vec![1, 2, 1, 1]);
        assert!(fp.holds(&tight, &snug, 4));
        assert_eq!(fill(&tight, &snug), Some((profile.clone(), target)));
        // Slot 1 loses its headroom: same walk end, different fill.
        let crowded = ledger(vec![1, 3, 1, 1]);
        assert!(!fp.holds(&tight, &crowded, 4));
        assert_eq!(fill(&tight, &crowded), None);
        // A fill that settles around a short slot records no footprint:
        // once the slot frees up, the same fill comes out different.
        let around = job(0, 6.0, 5);
        let (profile, target) = fill(&around, &crowded).expect("rung 2 fits");
        assert_eq!((profile.as_slice(), target), (&[2, 1, 2, 2, 1][..], 2));
        assert_eq!(Footprint::of(&around, &crowded, 4, target), None);
        assert_ne!(fill(&around, &base), Some((profile, target)));
        // A longer window walks to the ledger's horizon, which moves.
        let loose = job(0, 6.0, 6);
        let (_, target) = fill(&loose, &base).expect("fits");
        let fp = Footprint::of(&loose, &base, 4, target).expect("every slot has room");
        assert!(!fp.holds(&loose, &ledger(vec![1, 1, 1, 1, 1]), 4));
    }

    #[test]
    fn stale_boosts_revalidate_and_match_the_reference() {
        // Eight 1–2 slot jobs on 64 GPUs: after the first applied boost
        // every other queued entry is stale, and with this much room each
        // one's footprint still holds.
        let specs: Vec<_> = (0..8u32)
            .map(|i| (curve(), 1.0 + f64::from(i) * 0.3, 1 + (i as usize) % 2, 0))
            .collect();
        let mut scratch = FillScratch::new();
        let (budget, heap, reference) = boost_both(specs.clone(), 64, 64, &mut scratch);
        assert!(budget > 8, "budget {budget}");
        assert!(
            scratch.counters().revalidated_boosts > 0,
            "no stale boost revalidated"
        );
        assert_eq!(heap, reference);
        // A reused workspace answers the same instance identically.
        let (_, again, _) = boost_both(specs, 64, 64, &mut scratch);
        assert_eq!(again, heap);
    }

    proptest! {
        /// On random job/curve/grid/incumbent/budget sets, the heap-driven
        /// boost and the linear reference walk the same trajectory.
        #[test]
        fn heap_boost_matches_linear_reference(
            specs in instance(),
            budget_pick in 0u32..9,
        ) {
            let (budget, heap, reference) =
                boost_both(specs, 8, budget_pick, &mut FillScratch::new());
            prop_assert_eq!(&heap, &reference);
            prop_assert!(heap.spent <= budget, "boost overspent its budget");
        }

        /// The same on headroom-rich instances (large cluster, short
        /// windows), where stale entries mostly revalidate.
        #[test]
        fn heap_boost_matches_linear_reference_with_headroom(
            specs in headroom_instance(),
            total in prop_oneof![Just(32u32), Just(64u32)],
            budget_pick in 0u32..65,
        ) {
            let (budget, heap, reference) =
                boost_both(specs, total, budget_pick, &mut FillScratch::new());
            prop_assert_eq!(&heap, &reference);
            prop_assert!(heap.spent <= budget, "boost overspent its budget");
        }

        /// The boost's outcome does not depend on the order of its
        /// index-aligned (job, profile, incumbent) slices.
        #[test]
        fn boost_does_not_depend_on_state_order(
            specs in headroom_instance(),
            total in prop_oneof![Just(8u32), Just(32u32)],
            budget_pick in 0u32..33,
            keys in prop::collection::vec(0u32..1_000, 10..11),
        ) {
            let alloc = ResourceAllocator::new(total);
            let (budget, state) = phase1(specs, total, budget_pick);
            let mut order: Vec<usize> = (0..state.jobs.len()).collect();
            order.sort_by_key(|&i| (keys[i], i));
            let permuted = Phase1 {
                jobs: order.iter().map(|&i| state.jobs[i].clone()).collect(),
                profiles: order.iter().map(|&i| state.profiles[i].clone()).collect(),
                incumbents: order.iter().map(|&i| state.incumbents[i]).collect(),
                ledger: state.ledger.clone(),
            };
            let mut scratch = FillScratch::new();
            let want = state.boost(&alloc, budget, &mut scratch);
            let mut other = FillScratch::new();
            prop_assert_eq!(permuted.boost(&alloc, budget, &mut other), want);
            prop_assert_eq!(other.counters(), scratch.counters());
        }
    }
}
