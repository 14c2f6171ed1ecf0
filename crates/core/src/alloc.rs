//! Elastic resource allocation (paper Algorithm 2).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use elasticflow_trace::JobId;

use crate::filling::{progressive_filling, FillScratch};
use crate::{AllocationProfile, PlanningJob, ReservationLedger, SlotGrid, WORK_EPSILON};

/// The greedy marginal-return allocator: after reserving every job's
/// minimum satisfactory share, leftover GPUs are granted one ladder step at
/// a time to the job whose boost saves the most GPU-time per extra GPU
/// (paper Algorithm 2; optimal for concave curves by Theorem 2).
/// [`crate::ElasticFlowScheduler`]'s `plan` runs it as its third stage,
/// after Algorithm 1's minimum shares and the leftover queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResourceAllocator {
    total_gpus: u32,
}

/// A job's one pending boost, as the greedy's heap holds it: the key it
/// was pushed with, the job's index, the profile the job would move to,
/// what that costs and saves, and the ledger version it was computed at.
#[derive(Debug)]
struct Boost {
    /// Whether the boost grows the job to at most its running size.
    restoring: bool,
    priority: f64,
    id: JobId,
    /// Index of the job in the slices being boosted.
    index: usize,
    extra: u32,
    profile: AllocationProfile,
    /// `finish_seconds` and `gpu_seconds` of `profile`, carried so an
    /// applied boost never recomputes them.
    finish: Option<f64>,
    gpu_seconds: f64,
    version: u64,
}

/// The greedy's heap and the `(finish_seconds, gpu_seconds)` of each job's
/// current profile, index-aligned with the jobs being boosted. Kept in the
/// [`FillScratch`] between rounds; empty whenever no boost runs.
#[derive(Debug, Default)]
pub(crate) struct BoostBuffers {
    current: Vec<(Option<f64>, f64)>,
    queue: BinaryHeap<Boost>,
}

/// Heap order: `BinaryHeap::pop` yields exactly the boost a linear scan
/// for the best pending one selects — restorations toward incumbent sizes
/// first, then highest marginal priority, smallest job id as the final
/// tiebreak. The heap holds at most one boost per job id at any time, so
/// the order is total and pops are deterministic.
impl Ord for Boost {
    fn cmp(&self, other: &Self) -> Ordering {
        self.restoring
            .cmp(&other.restoring)
            .then(self.priority.total_cmp(&other.priority))
            .then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for Boost {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Boost {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Boost {}

impl ResourceAllocator {
    /// Creates an allocator for a cluster of `total_gpus` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `total_gpus` is zero.
    pub(crate) fn new(total_gpus: u32) -> Self {
        assert!(total_gpus > 0, "cluster must have GPUs");
        ResourceAllocator { total_gpus }
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
    /// `budget` is at most the slot-0 GPUs the profiles leave free.
    ///
    /// The greedy's global order matters only when jobs compete: for the
    /// budget, or for room in a slot past 0. When [`Self::uncontended`]
    /// rules both out, every job's doubling chain runs to its end on its
    /// own ([`Self::boost_chains`]), which is what the greedy produces in
    /// any pop order. Otherwise the greedy runs ([`Self::boost_heap`]).
    /// Debug builds run the greedy on every certified call as well and
    /// assert the same profiles, ledger and spend.
    ///
    /// Fills run through the caller's workspace.
    #[expect(
        clippy::too_many_arguments,
        reason = "the planning inputs, the ledger and the caller's workspace are separate borrows"
    )]
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
        if !self.uncontended(jobs, profiles, budget) {
            return self.boost_heap(jobs, grid, profiles, ledger, budget, incumbents, scratch);
        }
        scratch.counters.certified_boosts += 1;
        #[cfg(debug_assertions)]
        let (mut heap_profiles, mut heap_ledger) = (profiles.to_vec(), ledger.clone());
        let spent = self.boost_chains(jobs, grid, profiles, ledger, budget, scratch);
        #[cfg(debug_assertions)]
        {
            // The certificate's argument, checked on every debug run: the
            // greedy ends where the chains do. Its fills stay out of the
            // work counters, so they read the same in debug and release
            // builds.
            let counted = scratch.counters;
            let heap_spent = self.boost_heap(
                jobs,
                grid,
                &mut heap_profiles,
                &mut heap_ledger,
                budget,
                incumbents,
                scratch,
            );
            debug_assert_eq!(heap_spent, spent);
            debug_assert_eq!(&heap_profiles[..], &profiles[..]);
            debug_assert_eq!(&heap_ledger, ledger);
            scratch.counters = counted;
        }
        spent
    }

    /// The certificate that no two jobs compete in a boost: growing every
    /// job from its slot-0 grant to its largest useful grant fits
    /// `budget`. One O(n) sum, which rules out both kinds of competition:
    ///
    /// * no doubling is ever refused for want of GPUs;
    /// * the budget is at most what slot 0 leaves free, so the jobs'
    ///   largest useful grants fit the cluster together. Every grant a
    ///   fill makes passes through its job's knee clamp, so in every slot
    ///   past 0 the other jobs leave room for any rung of the job being
    ///   filled: every slot its fills walk is a headroom slot.
    fn uncontended(
        &self,
        jobs: &[PlanningJob],
        profiles: &[AllocationProfile],
        budget: u32,
    ) -> bool {
        let mut growth = 0u64;
        for (job, profile) in jobs.iter().zip(profiles) {
            let clamp = job.curve.clamp_useful(self.total_gpus);
            debug_assert!(profile.as_slice().iter().all(|&g| g <= clamp));
            growth += u64::from(clamp - profile.gpus(0));
        }
        debug_assert!(
            profiles.iter().map(|p| u64::from(p.gpus(0))).sum::<u64>() + u64::from(budget)
                <= u64::from(self.total_gpus),
            "the budget is slot 0's leftover"
        );
        growth <= u64::from(budget)
    }

    /// The certified boost: each job's doubling chain runs to its end —
    /// the knee, or the first doubling that does not finish the job
    /// earlier — between one uncommit and one commit of its profile.
    ///
    /// Under [`Self::uncontended`] every fill reads headroom slots only,
    /// and such a fill is a function of the job and the rung, wherever
    /// the ledger's horizon lies (the analytic tail of `try_target` sums
    /// like the slot walk it replaces). A chain therefore does not depend
    /// on the other chains, nor on when the greedy would have popped its
    /// steps, and the budget covers every chain, so one pass in slice
    /// order grants what the greedy grants.
    fn boost_chains(
        &self,
        jobs: &[PlanningJob],
        grid: &SlotGrid,
        profiles: &mut [AllocationProfile],
        ledger: &mut ReservationLedger,
        budget: u32,
        scratch: &mut FillScratch,
    ) -> u32 {
        let mut free0 = budget;
        for (job, profile) in jobs.iter().zip(profiles.iter_mut()) {
            let Some(mut step) = self.next_step(job, profile, free0) else {
                continue;
            };
            ledger.uncommit(profile);
            let mut finish = job.finish_seconds(profile, grid);
            while let Some((fresh, fresh_finish)) =
                self.improvement(job, finish, step.0, ledger, grid, scratch)
            {
                scratch.recycle(std::mem::replace(profile, fresh));
                finish = fresh_finish;
                free0 -= step.1;
                scratch.counters.boosts_applied += 1;
                match self.next_step(job, profile, free0) {
                    Some(next) => step = next,
                    None => break,
                }
            }
            ledger.commit(profile);
        }
        budget - free0
    }

    /// The greedy boost, for calls [`Self::uncontended`] does not certify.
    ///
    /// Selection runs through a lazy binary heap: entries keep the key
    /// they were pushed with. A popped entry whose version predates the
    /// ledger is *stale*: it is recomputed against the current ledger and
    /// re-pushed. A fresh one that no longer fits the shrinking budget is
    /// dropped. Pop order equals a linear rescan for the best pending
    /// boost entry for entry, so both produce identical allocations.
    ///
    /// The order of the slices does not matter: the heap's order over
    /// (restoring, priority, id) is total with at most one entry per job,
    /// and every initial candidate is computed against the same ledger
    /// (the job's own profile uncommitted, then recommitted).
    #[expect(
        clippy::too_many_arguments,
        reason = "the planning inputs, the ledger and the caller's workspace are separate borrows"
    )]
    fn boost_heap(
        &self,
        jobs: &[PlanningJob],
        grid: &SlotGrid,
        profiles: &mut [AllocationProfile],
        ledger: &mut ReservationLedger,
        budget: u32,
        incumbents: &[u32],
        scratch: &mut FillScratch,
    ) -> u32 {
        let BoostBuffers {
            mut current,
            mut queue,
        } = std::mem::take(&mut scratch.boost);
        current.extend(
            jobs.iter()
                .zip(profiles.iter())
                .map(|(job, p)| (job.finish_seconds(p, grid), p.gpu_seconds(grid))),
        );
        let mut free0 = budget;
        let mut version = 0u64;
        for (index, (job, profile)) in jobs.iter().zip(profiles.iter()).enumerate() {
            // A job past its knee or the budget has no candidate: it
            // skips the ledger round trip.
            if self.next_step(job, profile, free0).is_none() {
                continue;
            }
            ledger.uncommit(profile);
            let first = self.candidate(
                job,
                index,
                profile,
                incumbents[index],
                current[index],
                ledger,
                grid,
                free0,
                version,
                scratch,
            );
            ledger.commit(profile);
            queue.extend(first);
        }
        while free0 > 0 {
            let Some(boost) = queue.pop() else {
                break;
            };
            let stale = boost.version < version;
            if !stale && boost.extra > free0 {
                // Cannot ever fit again: free0 only shrinks.
                scratch.recycle(boost.profile);
                continue;
            }
            let index = boost.index;
            let (job, profile) = (&jobs[index], &mut profiles[index]);
            // Stale or applied, the job's next candidate reads the ledger
            // without the job's own reservations: take them out once, and
            // put the job's profile (old or new) back once. The ledger is
            // canonical, so the fill reads the vector it would read if
            // every step uncommitted and recommitted on its own.
            ledger.uncommit(profile);
            if stale {
                scratch.recycle(boost.profile);
            } else {
                scratch.recycle(std::mem::replace(profile, boost.profile));
                current[index] = (boost.finish, boost.gpu_seconds);
                free0 -= boost.extra;
                version += 1;
                scratch.counters.boosts_applied += 1;
            }
            let next = self.candidate(
                job,
                index,
                profile,
                incumbents[index],
                current[index],
                ledger,
                grid,
                free0,
                version,
                scratch,
            );
            ledger.commit(profile);
            queue.extend(next);
        }
        for boost in queue.drain() {
            scratch.recycle(boost.profile);
        }
        current.clear();
        scratch.boost = BoostBuffers { current, queue };
        budget - free0
    }

    /// The next boost step of `job` at `profile` — double its slot-0
    /// allocation (or start it at 1) — as the new slot-0 grant and the
    /// GPUs it adds. `None` past the knee or the budget. Reads no ledger.
    fn next_step(
        &self,
        job: &PlanningJob,
        profile: &AllocationProfile,
        free0: u32,
    ) -> Option<(u32, u32)> {
        let cur0 = profile.gpus(0);
        let next0 = if cur0 == 0 { 1 } else { cur0 * 2 };
        if next0 > job.curve.clamp_useful(self.total_gpus) {
            return None; // past the knee: constraint (7)
        }
        let extra = next0 - cur0;
        (extra <= free0).then_some((next0, extra))
    }

    /// The greedy's next boost candidate of `job` (at `index`, holding
    /// `profile`, with its incumbent size and its profile's finish time
    /// and GPU-seconds): [`Self::next_step`], then the
    /// [`Self::improvement`] it makes, priced by the GPU-time it saves per
    /// extra GPU. `None` when no further boost helps or fits. `others` is
    /// the ledger without the job's own reservations.
    #[expect(
        clippy::too_many_arguments,
        reason = "the planning inputs, the ledger and the caller's workspace are separate borrows"
    )]
    fn candidate(
        &self,
        job: &PlanningJob,
        index: usize,
        profile: &AllocationProfile,
        incumbent: u32,
        (finish, gpu_seconds): (Option<f64>, f64),
        others: &ReservationLedger,
        grid: &SlotGrid,
        free0: u32,
        version: u64,
        scratch: &mut FillScratch,
    ) -> Option<Boost> {
        let (next0, extra) = self.next_step(job, profile, free0)?;
        let (fresh, fresh_finish) = self.improvement(job, finish, next0, others, grid, scratch)?;
        let fresh_seconds = fresh.gpu_seconds(grid);
        Some(Boost {
            restoring: fresh.gpus(0) <= incumbent,
            priority: (gpu_seconds - fresh_seconds) / extra as f64,
            id: job.id,
            index,
            extra,
            profile: fresh,
            finish: fresh_finish,
            gpu_seconds: fresh_seconds,
            version,
        })
    }

    /// Pins slot 0 of `job` at `next0` and progressively re-fills the
    /// future against `others`, the ledger without the job's own
    /// reservations. Returns the profile and its finish time, or `None`
    /// unless the job then finishes strictly earlier than at `finish`
    /// (paper line 10/23; fractional finish times within slots).
    fn improvement(
        &self,
        job: &PlanningJob,
        finish: Option<f64>,
        next0: u32,
        others: &ReservationLedger,
        grid: &SlotGrid,
        scratch: &mut FillScratch,
    ) -> Option<(AllocationProfile, Option<f64>)> {
        scratch.counters.boost_candidates += 1;
        let fresh = progressive_filling(job, others, grid, self.total_gpus, Some(next0), scratch)?;
        let fresh_finish = job.finish_seconds(&fresh, grid);
        let finishes_earlier = match (fresh_finish, finish) {
            (Some(a), Some(b)) => a + WORK_EPSILON < b,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !finishes_earlier {
            scratch.recycle(fresh);
            return None;
        }
        Some((fresh, fresh_finish))
    }
}

/// Algorithm 2 from scratch with no incumbents, for tests: stage 1's
/// fill, then the boost over every leftover slot-0 GPU. Returns each
/// filled job's profile by id and the ids the fill lapsed, sorted.
/// `plan` runs the same two stages with incumbents and the leftover
/// queue between them.
#[cfg(test)]
pub(crate) fn allocate_from_scratch(
    total_gpus: u32,
    jobs: &[PlanningJob],
    grid: &SlotGrid,
) -> (
    std::collections::BTreeMap<JobId, AllocationProfile>,
    Vec<JobId>,
) {
    let mut scratch = FillScratch::new();
    let (set, mut lapsed) =
        crate::AdmissionSet::fill(total_gpus, jobs.to_vec(), grid, &mut scratch);
    lapsed.sort();
    let (jobs, mut profiles, mut ledger) = set.into_parts();
    let free0 = total_gpus - profiles.iter().map(|p| p.gpus(0)).sum::<u32>();
    ResourceAllocator::new(total_gpus).boost(
        &jobs,
        grid,
        &mut profiles,
        &mut ledger,
        free0,
        &vec![0; jobs.len()],
        &mut scratch,
    );
    (jobs.iter().map(|j| j.id).zip(profiles).collect(), lapsed)
}

/// The linear-scan boost loop the heap-driven greedy replaced, kept as the
/// differential-testing oracle of [`ResourceAllocator::boost`] on both of
/// its paths: every pop of the heap must match the maximum this scan
/// selects, and the certified chains must end where it does, so all
/// produce identical profiles, grants, and ledgers.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::*;

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

        #[expect(
            clippy::too_many_arguments,
            reason = "mirrors `candidate`'s signature so the two compare call for call"
        )]
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
    use std::collections::BTreeMap;

    use super::*;
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

    /// Algorithm 2 from scratch on a uniform one-second grid.
    fn allocate(
        total: u32,
        jobs: &[PlanningJob],
    ) -> (BTreeMap<JobId, AllocationProfile>, Vec<JobId>) {
        allocate_from_scratch(total, jobs, &SlotGrid::uniform(1.0))
    }

    /// GPUs the profiles assign in slot 0.
    fn slot0_gpus(profiles: &BTreeMap<JobId, AllocationProfile>) -> u32 {
        profiles.values().map(|p| p.gpus(0)).sum()
    }

    #[test]
    fn idle_cluster_boosts_to_the_knee() {
        let curve = ScalingCurve::from_points(
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
            ],
        );
        let job = PlanningJob {
            id: JobId::new(0),
            curve,
            remaining_iterations: 1.0,
            deadline_slot: 4,
        };
        let (profiles, _) = allocate(4, &[job]);
        // MSS is 1 GPU; the idle cluster boosts it to its knee (2 GPUs).
        assert_eq!(profiles[&JobId::new(0)].gpus(0), 2);
    }

    #[test]
    fn lone_job_boosted_to_knee() {
        let (profiles, lapsed) = allocate(8, &[job(0, 4.0, 8)]);
        assert!(lapsed.is_empty());
        // MSS would be 1 GPU over 4 slots; boosting to the knee (4) finishes
        // in 2 slots.
        assert_eq!(profiles[&JobId::new(0)].gpus(0), 4);
    }

    #[test]
    fn paper_fig3_alike_jobs_share_rather_than_hog() {
        // Two jobs (3 units each, deadlines 3 slots) on 2 GPUs: one worker
        // each meets both deadlines; EDF-style hogging would miss one.
        let (profiles, lapsed) = allocate(2, &[job(0, 3.0, 3), job(1, 3.0, 3)]);
        assert!(lapsed.is_empty());
        assert_eq!(profiles[&JobId::new(0)].gpus(0), 1);
        assert_eq!(profiles[&JobId::new(1)].gpus(0), 1);
    }

    #[test]
    fn leftovers_go_to_highest_marginal_return() {
        // Job 0 has a tight deadline (MSS 2), job 1 a loose one (MSS 1).
        // One leftover GPU on a 4-GPU cluster: boosting job 1 from 1 -> 2
        // costs 1 GPU; boosting job 0 from 2 -> 4 costs 2 and exceeds free.
        let (profiles, _) = allocate(4, &[job(0, 1.5, 1), job(1, 2.0, 4)]);
        assert_eq!(profiles[&JobId::new(0)].gpus(0), 2);
        assert_eq!(profiles[&JobId::new(1)].gpus(0), 2);
    }

    #[test]
    fn no_boost_past_the_knee() {
        let (profiles, _) = allocate(32, &[job(0, 10.0, 32)]);
        // Knee of the test curve is 4.
        assert_eq!(profiles[&JobId::new(0)].gpus(0), 4);
        assert_eq!(slot0_gpus(&profiles), 4);
    }

    #[test]
    fn infeasible_jobs_are_surfaced_not_lost() {
        // 2 GPUs, three urgent jobs: only two fit.
        let (profiles, lapsed) = allocate(2, &[job(0, 1.0, 1), job(1, 1.0, 1), job(2, 1.0, 1)]);
        assert_eq!(profiles.len(), 2);
        assert_eq!(lapsed, vec![JobId::new(2)]);
    }

    #[test]
    fn never_over_allocates_slot0() {
        for n in 1..6u64 {
            let jobs: Vec<PlanningJob> = (0..n).map(|i| job(i, 2.0, 3)).collect();
            let (profiles, _) = allocate(4, &jobs);
            let slot0 = slot0_gpus(&profiles);
            assert!(slot0 <= 4, "n={n}: slot0 {slot0}");
        }
    }

    #[test]
    fn boosts_reduce_total_gpu_time_or_finish() {
        // Whatever the boost sequence, the final plan must use no more
        // GPU-time per job than running it at the knee from scratch, and
        // every job still meets its deadline.
        let grid = SlotGrid::uniform(1.0);
        let jobs = [job(0, 2.0, 4), job(1, 3.0, 4), job(2, 1.0, 2)];
        let (profiles, lapsed) = allocate(4, &jobs);
        assert!(lapsed.is_empty());
        for j in &jobs {
            let p = &profiles[&j.id];
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
    fn instance() -> impl Strategy<Value = Vec<(ScalingCurve, f64, usize, u32)>> {
        prop::collection::vec((concave_curve(), 0.2f64..6.0, 1usize..6, 0u32..5), 1..7)
    }

    /// Random jobs with short windows on a large cluster: every walked
    /// slot has room.
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

    /// [`ResourceAllocator::boost`] or one of its two paths, as the
    /// test drives them.
    type Driver = fn(
        &ResourceAllocator,
        &[PlanningJob],
        &SlotGrid,
        &mut [AllocationProfile],
        &mut ReservationLedger,
        u32,
        &[u32],
        &mut FillScratch,
    ) -> u32;

    impl Phase1 {
        /// Runs the boost from this state through `scratch`.
        fn boost(
            self,
            alloc: &ResourceAllocator,
            budget: u32,
            scratch: &mut FillScratch,
        ) -> Outcome {
            self.run(ResourceAllocator::boost, alloc, budget, scratch)
        }

        /// Runs `driver` from this state through `scratch`.
        fn run(
            mut self,
            driver: Driver,
            alloc: &ResourceAllocator,
            budget: u32,
            scratch: &mut FillScratch,
        ) -> Outcome {
            let spent = driver(
                alloc,
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

        /// The linear reference's outcome from this state; it takes
        /// id-keyed maps.
        fn reference(&self, alloc: &ResourceAllocator, budget: u32) -> Outcome {
            let ids = || self.jobs.iter().map(|j| j.id);
            let mut reference = Outcome {
                spent: 0,
                profiles: ids().zip(self.profiles.iter().cloned()).collect(),
                ledger: self.ledger.clone(),
            };
            let incumbents: BTreeMap<JobId, u32> = ids()
                .zip(self.incumbents.iter().copied())
                .filter(|&(_, g)| g > 0)
                .collect();
            reference.spent = alloc.boost_reference(
                &self.jobs,
                &SlotGrid::uniform(1.0),
                &mut reference.profiles,
                &mut reference.ledger,
                budget,
                &incumbents,
            );
            reference
        }

        /// Slot-0 GPUs left over after the minimum shares on `total`.
        fn free0(&self, total: u32) -> u32 {
            total.saturating_sub(self.profiles.iter().map(|p| p.gpus(0)).sum())
        }

        /// The jobs' largest useful grants on `total` GPUs, summed, and the
        /// GPUs that growing each to it from its slot-0 grant takes (the
        /// certificate's sum).
        fn peak_and_growth(&self, total: u32) -> (u32, u32) {
            self.jobs
                .iter()
                .zip(&self.profiles)
                .fold((0, 0), |(peak, growth), (j, p)| {
                    let clamp = j.curve.clamp_useful(total);
                    (peak + clamp, growth + clamp - p.gpus(0))
                })
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

    /// Runs the boost (through `scratch`) and the linear reference from
    /// the phase-1 state of `specs`. Returns the budget and both outcomes.
    fn boost_both(
        specs: Vec<(ScalingCurve, f64, usize, u32)>,
        total: u32,
        budget_pick: u32,
        scratch: &mut FillScratch,
    ) -> (u32, Outcome, Outcome) {
        let alloc = ResourceAllocator::new(total);
        let (budget, state) = phase1(specs, total, budget_pick);
        let reference = state.reference(&alloc, budget);
        (budget, state.boost(&alloc, budget, scratch), reference)
    }

    #[test]
    fn stale_boosts_recompute_and_match_the_reference() {
        // Eight 1–2 slot jobs on 64 GPUs: after the first applied boost
        // every other queued entry of the greedy is stale. The instance is
        // certified uncontended, so the greedy runs on its own here, and
        // the certified chains try exactly its candidates minus the
        // recomputes of stale entries.
        let specs: Vec<_> = (0..8u32)
            .map(|i| (curve(), 1.0 + f64::from(i) * 0.3, 1 + (i as usize) % 2, 0))
            .collect();
        let alloc = ResourceAllocator::new(64);
        let greedy = |scratch: &mut FillScratch| {
            let (budget, state) = phase1(specs.clone(), 64, 64);
            let reference = state.reference(&alloc, budget);
            let heap = state.run(ResourceAllocator::boost_heap, &alloc, budget, scratch);
            (budget, heap, reference)
        };
        let mut scratch = FillScratch::new();
        let (budget, heap, reference) = greedy(&mut scratch);
        assert!(budget > 8, "budget {budget}");
        assert_eq!(heap, reference);
        let mut chains = FillScratch::new();
        let (_, state) = phase1(specs.clone(), 64, 64);
        assert_eq!(state.boost(&alloc, budget, &mut chains), heap);
        assert_eq!(chains.counters().certified_boosts, 1);
        assert!(
            scratch.counters().boost_candidates > chains.counters().boost_candidates,
            "no stale boost recomputed"
        );
        // A reused workspace answers the same instance identically.
        let (_, again, _) = greedy(&mut scratch);
        assert_eq!(again, heap);
    }

    #[test]
    fn certified_budget_ends_at_exactly_zero() {
        // Two long jobs whose knees (4 GPUs each) fill the 8-GPU cluster:
        // each starts at 1 GPU, and growing both to the knee takes the
        // 6 leftover GPUs. With exactly that budget the certificate holds
        // and the chains spend all of it; one GPU less and the greedy
        // runs.
        let specs: Vec<_> = (0..2).map(|_| (curve(), 10.0, 32, 0)).collect();
        let alloc = ResourceAllocator::new(8);
        let (_, state) = phase1(specs.clone(), 8, 0);
        assert_eq!(state.free0(8), 6);
        assert_eq!(state.peak_and_growth(8), (8, 6));
        for (budget, certified) in [(6, 1), (5, 0)] {
            let (_, state) = phase1(specs.clone(), 8, 0);
            let reference = state.reference(&alloc, budget);
            let mut scratch = FillScratch::new();
            let got = state.boost(&alloc, budget, &mut scratch);
            assert_eq!(got, reference, "budget {budget}");
            assert_eq!(scratch.counters().certified_boosts, certified);
            if certified == 1 {
                assert_eq!(got.spent, budget, "the budget ends at zero");
                assert!(got.profiles.values().all(|p| p.gpus(0) == 4));
            }
        }
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
        /// windows), where stale entries mostly recompute to what they
        /// were.
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

        /// Budgets around the certificate's edge: the GPUs that growing
        /// every job to its knee takes, give or take two. The boost takes
        /// the certified path exactly when the budget covers that growth,
        /// and either path matches the linear reference. At the edge
        /// itself a certified budget can end at exactly zero.
        #[test]
        fn boost_matches_linear_reference_around_the_certificate(
            specs in headroom_instance(),
            total in prop_oneof![Just(16u32), Just(32u32), Just(64u32)],
            offset in 0u32..5,
        ) {
            let alloc = ResourceAllocator::new(total);
            let (_, state) = phase1(specs, total, 0);
            let (peak, growth) = state.peak_and_growth(total);
            let budget = (growth + offset).saturating_sub(2).min(state.free0(total));
            let certified = budget > 0 && growth <= budget;
            // A budget within slot 0's leftover that covers the growth
            // leaves the knees room in every later slot.
            prop_assert!(!certified || peak <= total);
            let reference = state.reference(&alloc, budget);
            let mut scratch = FillScratch::new();
            let got = state.boost(&alloc, budget, &mut scratch);
            prop_assert_eq!(&got, &reference);
            prop_assert_eq!(scratch.counters().certified_boosts, u64::from(certified));
        }

        /// Algorithm 2's output is always executable: per-slot capacity is
        /// respected and every non-lapsed job finishes by its deadline.
        #[test]
        fn allocation_is_executable(
            specs in prop::collection::vec((concave_curve(), 0.2f64..4.0, 1usize..4), 1..4),
        ) {
            let grid = SlotGrid::uniform(1.0);
            let total = 4u32;
            let jobs: Vec<PlanningJob> = specs
                .into_iter()
                .enumerate()
                .map(|(i, (curve, work_scale, deadline_slot))| PlanningJob {
                    id: JobId::new(i as u64),
                    remaining_iterations: work_scale
                        * curve.iters_per_sec(1).expect("1 GPU is always on the curve"),
                    curve,
                    deadline_slot,
                })
                .collect();
            let (profiles, lapsed) = allocate(total, &jobs);
            let horizon = jobs.iter().map(|j| j.deadline_slot).max().unwrap_or(0);
            for t in 0..horizon {
                let used: u32 = profiles.values().map(|p| p.gpus(t)).sum();
                prop_assert!(used <= total, "slot {t} over capacity: {used}");
            }
            for job in &jobs {
                if lapsed.contains(&job.id) {
                    continue;
                }
                let p = &profiles[&job.id];
                let done: f64 = p
                    .as_slice()
                    .iter()
                    .enumerate()
                    .map(|(t, &g)| job.iters_in_slot(g, &grid, t))
                    .sum();
                prop_assert!(done + 1e-6 >= job.remaining_iterations);
                prop_assert!(p.last_active_slot().unwrap() < job.deadline_slot);
            }
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
