//! Admission control (paper Algorithm 1).

use std::collections::BTreeMap;

use elasticflow_sched::{CapacityShortfall, DeclineReason};
use elasticflow_trace::JobId;

use crate::filling::{progressive_filling, FillScratch};
use crate::{AllocationProfile, PlanningJob, ReservationLedger, SlotGrid, WORK_EPSILON};

/// Sort key of Algorithm 1's deadline order (ties broken by job id so
/// the fill order — and with it every downstream plan — is total).
pub(crate) fn fill_key(job: &PlanningJob) -> (usize, JobId) {
    (job.deadline_slot, job.id)
}

/// A failed admission: the first unsatisfiable job plus the capacity
/// arithmetic at the point of failure.
///
/// Because Algorithm 1 fills in deadline order against the ledger of
/// strictly earlier jobs only, the ledger state when a fill fails is
/// identical between a from-scratch [`AdmissionSet::check`] and the
/// incremental [`AdmissionSet`] paths (the incremental admission
/// invariant) — so the shortfall here is bit-identical however the
/// question was asked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionDenial {
    /// The first job (in fill order) that cannot be satisfied.
    pub blocking_job: JobId,
    /// The blocking job's minimum demand vs. the free capacity left in
    /// its deadline window.
    pub shortfall: CapacityShortfall,
}

impl AdmissionDenial {
    /// Attributes the decline of `candidate`: the fill either failed at
    /// the candidate itself (its window cannot carry its demand) or at
    /// an already-guaranteed job downstream that the candidate would
    /// displace. The one attribution the simulator and the gateway share.
    pub fn decline_reason(self, candidate: JobId) -> DeclineReason {
        if self.blocking_job == candidate {
            DeclineReason::CandidateInfeasible {
                shortfall: self.shortfall,
            }
        } else {
            DeclineReason::WouldDisplace {
                blocking_job: self.blocking_job,
                shortfall: self.shortfall,
            }
        }
    }
}

/// What one [`AdmissionSet::advance`] boundary crossing did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdvanceReport {
    /// Jobs whose guaranteed profiles completed their remaining work
    /// within the elapsed slots; they left the set satisfied.
    pub completed: Vec<JobId>,
    /// Jobs whose deadline windows elapsed with work still outstanding.
    /// Unreachable in the idealized model (an admitted profile finishes
    /// by its deadline) but guarded: such jobs are dropped, not replanned.
    pub expired: Vec<JobId>,
    /// Survivors the post-advance refill could not satisfy; dropped from
    /// the set. Not an edge case: the refill is greedy and starts from
    /// scratch, so it need not find the plans the survivors were
    /// admitted under and can drop an admitted job whose rebased plan
    /// still fits. The serve gateway counts these as
    /// `GatewayStats::lapsed` (`ef_gateway_lapsed_total`).
    pub lapsed: Vec<JobId>,
}

/// Capacity arithmetic at a fill failure: `job`'s minimum-satisfactory
/// GPU-slot demand vs. the GPU-slots `ledger` leaves usable in its
/// window.
///
/// Demand prices the cheapest deadline-meeting schedule: the smallest
/// ladder allocation that finishes in time, held through the window.
/// When even the job's largest usable allocation is too slow, demand
/// scales past the concurrency cap by the time actually needed at that
/// size — so a candidate that is infeasible anywhere always shows a
/// positive shortfall. The free side is clamped per slot to the same
/// largest usable allocation: capacity the job could never occupy does
/// not count. A zero shortfall can still occur when the decline came
/// from scaling-curve nonlinearity or slot fragmentation (enough usable
/// capacity exists, but no feasible shape reaches it).
fn window_shortfall(
    job: &PlanningJob,
    ledger: &ReservationLedger,
    grid: &SlotGrid,
    total_gpus: u32,
) -> CapacityShortfall {
    let rest = grid.rest_seconds();
    let window_end = job.deadline_slot;
    // Largest pow2 ladder size the job can actually occupy here: bounded
    // by its scaling curve and the cluster size.
    let mut g_max = 0u32;
    let mut g_max_rate = 0.0_f64;
    let mut g = 1u32;
    while g <= job.curve.max_gpus() && g <= total_gpus {
        if let Some(rate) = job.curve.iters_per_sec(g).filter(|r| *r > 0.0) {
            g_max = g;
            g_max_rate = rate;
        }
        match g.checked_mul(2) {
            Some(next) => g = next,
            None => break,
        }
    }
    // Seconds from now to the deadline boundary (slot 0 may be short).
    let window_seconds = if window_end == 0 {
        0.0
    } else {
        grid.duration(0) + (window_end - 1) as f64 * rest
    };
    let mut demand_gpu_slots = 0.0;
    if g_max > 0 {
        let mut mss = None;
        let mut g = 1u32;
        while g <= g_max {
            if job
                .curve
                .iters_per_sec(g)
                .is_some_and(|r| r * window_seconds >= job.remaining_iterations)
            {
                mss = Some(g);
                break;
            }
            g *= 2;
        }
        demand_gpu_slots = match mss {
            Some(g) => f64::from(g) * window_seconds / rest,
            None => {
                // Even g_max can't finish by the deadline: charge the
                // seconds it would actually take at full tilt
                // (g_max_rate > 0 whenever g_max > 0).
                f64::from(g_max) * (job.remaining_iterations / g_max_rate) / rest
            }
        };
    }
    // Usable free GPU-slots in the window, walking constant-commitment
    // runs (O(runs), not O(slots)); everything past the committed
    // horizon is fully free, still clamped to g_max.
    let cap = f64::from(g_max);
    let scan_end = window_end.min(ledger.horizon());
    let mut free_gpu_slots = 0.0_f64;
    let mut t = 0usize;
    while t < scan_end {
        let run_end = ledger.run_end(t, scan_end);
        free_gpu_slots += f64::from(ledger.free(t, total_gpus)).min(cap) * (run_end - t) as f64;
        t = run_end;
    }
    if window_end > scan_end {
        free_gpu_slots += f64::from(total_gpus).min(cap) * (window_end - scan_end) as f64;
    }
    if window_end > 0 {
        // Slot 0 can be shorter than the rest; weight its free GPUs by
        // its actual duration so both sides use the same slot unit.
        free_gpu_slots +=
            f64::from(ledger.free(0, total_gpus)).min(cap) * (grid.duration(0) / rest - 1.0);
    }
    CapacityShortfall {
        window_slots: window_end as u64,
        demand_gpu_slots,
        free_gpu_slots,
    }
}

/// ElasticFlow's admission control (paper Algorithm 1): the committed
/// outcome of one fill, kept around so the next admission question
/// touches only the suffix it can change.
///
/// [`AdmissionSet::fill`] sorts jobs by deadline and progressively fills
/// each against the reservations of the earlier ones; a new job is
/// admitted iff the whole set — admitted jobs plus the newcomer —
/// remains satisfiable.
///
/// Because each job fills against the ledger of strictly earlier jobs
/// only, inserting a candidate at deadline position `k` cannot alter any
/// profile in positions `[0, k)` — that prefix was computed from inputs
/// the candidate does not reach. This is the *incremental admission
/// invariant*: reusing the stored prefix profiles and refilling only
/// `[k, n]` yields, job for job and bit for bit, the plan a from-scratch
/// [`AdmissionSet::check`] over the union would produce, and the same
/// first blocking job on rejection.
///
/// # Example
///
/// ```
/// use elasticflow_core::{AdmissionSet, FillScratch, PlanningJob, SlotGrid};
/// use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
/// use elasticflow_trace::JobId;
///
/// let curve = ScalingCurve::from_points(DnnModel::ResNet50, 64, vec![
///     CurvePoint { gpus: 1, iters_per_sec: 1.0 },
///     CurvePoint { gpus: 2, iters_per_sec: 1.5 },
/// ]);
/// let job = |id: u64, work: f64, slots: usize| PlanningJob {
///     id: JobId::new(id),
///     curve: curve.clone(),
///     remaining_iterations: work,
///     deadline_slot: slots,
/// };
/// let grid = SlotGrid::uniform(1.0);
/// let mut scratch = FillScratch::new();
/// // Two 1-GPU jobs with enough slack fit on 2 GPUs…
/// let two = [job(0, 2.0, 2), job(1, 2.0, 2)];
/// assert!(AdmissionSet::check(2, &two, &grid).is_ok());
/// let (mut set, lapsed) = AdmissionSet::fill(2, vec![job(0, 2.0, 2)], &grid, &mut scratch);
/// assert!(lapsed.is_empty());
/// assert!(set.admit(job(1, 2.0, 2), &grid, &mut scratch).is_ok());
/// // …a third does not — and the denial says who blocked and by how much.
/// let denial = set.whatif_admit(&job(2, 2.0, 2), &grid, &mut scratch).unwrap_err();
/// assert_eq!(denial.blocking_job, JobId::new(2));
/// assert!(denial.shortfall.shortfall_gpu_slots() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct AdmissionSet {
    total_gpus: u32,
    /// Feasible jobs in fill order (deadline, then id).
    jobs: Vec<PlanningJob>,
    /// `profiles[i]` is the minimum-satisfactory profile of `jobs[i]`.
    profiles: Vec<AllocationProfile>,
    /// Sum of all committed profiles.
    ledger: ReservationLedger,
}

/// What a successful [`AdmissionSet::refill_suffix`] produced.
struct SuffixRefill {
    /// The candidate's fill position.
    k: usize,
    /// The candidate's minimum-satisfactory profile.
    cand_profile: AllocationProfile,
    /// Refilled profiles of the jobs at positions `k..`.
    suffix: Vec<AllocationProfile>,
    /// The updated ledger (prefix + candidate + refilled suffix).
    ledger: ReservationLedger,
}

impl SuffixRefill {
    /// Gives the refill's vectors back to `scratch`.
    fn recycle(self, scratch: &mut FillScratch) {
        scratch.recycle(self.cand_profile);
        scratch.give_profiles(self.suffix);
        scratch.give_ledger(self.ledger);
    }
}

impl AdmissionSet {
    /// Checks whether all `jobs` can meet their deadlines together on
    /// `total_gpus` GPUs (Algorithm 1 lines 2–9: sort by deadline,
    /// progressively fill each), from scratch. `Ok` carries the witness
    /// plan, a minimum-satisfactory profile per job; `Err` names the
    /// first job (in deadline order) that cannot be satisfied. This is
    /// the reference the incremental paths are held to.
    pub fn check(
        total_gpus: u32,
        jobs: &[PlanningJob],
        grid: &SlotGrid,
    ) -> Result<BTreeMap<JobId, AllocationProfile>, AdmissionDenial> {
        let mut order: Vec<&PlanningJob> = jobs.iter().collect();
        order.sort_by_key(|j| fill_key(j));
        let mut ledger = ReservationLedger::new();
        let mut plan = BTreeMap::new();
        let mut scratch = FillScratch::new();
        for job in order {
            match progressive_filling(job, &ledger, grid, total_gpus, None, &mut scratch) {
                Some(profile) => {
                    ledger.commit(&profile);
                    plan.insert(job.id, profile);
                }
                None => {
                    return Err(AdmissionDenial {
                        blocking_job: job.id,
                        shortfall: window_shortfall(job, &ledger, grid, total_gpus),
                    })
                }
            }
        }
        Ok(plan)
    }

    /// Runs Algorithm 1's fill over `jobs` on `total_gpus` GPUs once,
    /// *keeping* the result: the set owns the deadline-ordered feasible
    /// jobs, their minimum-satisfactory profiles, and the committed
    /// ledger, so later arrivals are answered incrementally via
    /// [`AdmissionSet::whatif_admit`] instead of refilling every job.
    /// The second element lists the lapsed jobs: infeasible against the
    /// earlier ones, they commit nothing. In the idealized model every
    /// admitted job stays feasible (Algorithm 1's invariant), but in a
    /// running system scaling pauses and slot discretization can push an
    /// admitted job past the point of recovery; such lapsed jobs are
    /// scheduled best-effort (§4.4, soft deadlines) and must not veto
    /// future admissions. Fills run through the caller's workspace.
    ///
    /// # Panics
    ///
    /// Panics if `total_gpus` is zero.
    pub fn fill(
        total_gpus: u32,
        mut jobs: Vec<PlanningJob>,
        grid: &SlotGrid,
        scratch: &mut FillScratch,
    ) -> (AdmissionSet, Vec<JobId>) {
        assert!(total_gpus > 0, "cluster must have GPUs");
        // Ids are unique within a set, so the key order is total and an
        // unstable sort (which never allocates) orders like a stable one.
        jobs.sort_unstable_by_key(fill_key);
        let mut set = AdmissionSet {
            total_gpus,
            jobs: scratch.jobs.take(),
            profiles: scratch.profiles.take(),
            ledger: scratch.take_ledger(),
        };
        set.jobs.reserve(jobs.len());
        set.profiles.reserve(jobs.len());
        let lapsed = set.fill_tail(jobs, grid, scratch);
        (set, lapsed)
    }

    /// Algorithm 1's fill loop: appends `jobs` — in fill order, each
    /// after every job already in the set — filling each against the
    /// committed ledger from ladder rung 1, and gives the drained vector
    /// back to `scratch`. Returns the jobs that cannot be satisfied; they
    /// commit nothing.
    fn fill_tail(
        &mut self,
        mut jobs: Vec<PlanningJob>,
        grid: &SlotGrid,
        scratch: &mut FillScratch,
    ) -> Vec<JobId> {
        let mut lapsed = scratch.lapsed.take();
        for job in jobs.drain(..) {
            match progressive_filling(&job, &self.ledger, grid, self.total_gpus, None, scratch) {
                Some(profile) => {
                    self.ledger.commit(&profile);
                    self.jobs.push(job);
                    self.profiles.push(profile);
                }
                None => lapsed.push(job.id),
            }
        }
        scratch.jobs.give(jobs);
        lapsed
    }

    /// Mean booked fraction of the cluster over the next `horizon_slots`
    /// slots of the committed ledger, in `[0, 1]`.
    pub fn booked_fraction(&self, horizon_slots: usize) -> f64 {
        if horizon_slots == 0 {
            return 0.0;
        }
        // Slots past the ledger's end are free; a slot booked past the
        // cluster size counts as full. Per-slot commitments are small
        // integers, so the f64 sum is exact. The fold starts at +0.0
        // (`Sum` starts at -0.0), so an empty ledger books 0, not -0.
        let total = self
            .ledger
            .committed_slots()
            .iter()
            .take(horizon_slots)
            .fold(0.0, |acc, &c| acc + f64::from(c.min(self.total_gpus)));
        total / (horizon_slots as f64 * f64::from(self.total_gpus))
    }

    /// The committed reservation ledger of every job in the set.
    pub fn ledger(&self) -> &ReservationLedger {
        &self.ledger
    }

    /// The feasible jobs in fill order.
    pub fn jobs(&self) -> &[PlanningJob] {
        &self.jobs
    }

    /// Number of jobs in the set.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when no job is committed.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The committed plan as an id-keyed map (cloned). Only tests
    /// compare plans this way.
    #[cfg(test)]
    pub(crate) fn plan(&self) -> BTreeMap<JobId, AllocationProfile> {
        self.jobs
            .iter()
            .zip(&self.profiles)
            .map(|(job, profile)| (job.id, profile.clone()))
            .collect()
    }

    /// Decomposes the set into jobs (fill order), their profiles, and
    /// the committed ledger.
    pub fn into_parts(self) -> (Vec<PlanningJob>, Vec<AllocationProfile>, ReservationLedger) {
        (self.jobs, self.profiles, self.ledger)
    }

    /// The set's jobs (fill order), their profiles and the committed
    /// ledger, the latter two mutable: a planning round boosts the
    /// profiles in place (Algorithm 2) and then recycles the set, which
    /// is no longer a fill of its jobs.
    pub(crate) fn parts_mut(
        &mut self,
    ) -> (
        &[PlanningJob],
        &mut [AllocationProfile],
        &mut ReservationLedger,
    ) {
        (&self.jobs, &mut self.profiles, &mut self.ledger)
    }

    /// Gives every vector of the set back to `scratch`.
    pub(crate) fn recycle(self, scratch: &mut FillScratch) {
        scratch.jobs.give(self.jobs);
        scratch.give_profiles(self.profiles);
        scratch.give_ledger(self.ledger);
    }

    /// Index at which `candidate` would fill (jobs with an equal key
    /// cannot exist: ids are unique within a set).
    fn insertion_point(&self, candidate: &PlanningJob) -> usize {
        self.jobs
            .partition_point(|j| fill_key(j) < fill_key(candidate))
    }

    /// Refills the suffix at or after `candidate`'s fill position with
    /// the candidate included. On success returns a [`SuffixRefill`]
    /// (insertion index, candidate profile, refilled suffix, updated
    /// ledger); on failure an [`AdmissionDenial`] naming the first job
    /// (in fill order) that cannot be satisfied, with its shortfall. The
    /// set itself is untouched; the vectors of a failed refill go back
    /// into `scratch`, and so must those of a successful one.
    fn refill_suffix(
        &self,
        candidate: &PlanningJob,
        grid: &SlotGrid,
        scratch: &mut FillScratch,
    ) -> Result<SuffixRefill, AdmissionDenial> {
        let k = self.insertion_point(candidate);
        // The ledger of the prefix `[0, k)`, built from whichever side
        // touches fewer profiles. Commitments are integers, so both
        // routes give the same vector.
        let mut ledger = scratch.take_ledger();
        if k < self.profiles.len() / 2 {
            for profile in &self.profiles[..k] {
                ledger.commit(profile);
            }
        } else {
            ledger.copy_from(&self.ledger);
            for profile in &self.profiles[k..] {
                ledger.uncommit(profile);
            }
        }
        let cand_profile =
            match progressive_filling(candidate, &ledger, grid, self.total_gpus, None, scratch) {
                Some(profile) => profile,
                None => {
                    let shortfall = window_shortfall(candidate, &ledger, grid, self.total_gpus);
                    scratch.give_ledger(ledger);
                    return Err(AdmissionDenial {
                        blocking_job: candidate.id,
                        shortfall,
                    });
                }
            };
        ledger.commit(&cand_profile);
        let mut suffix = scratch.profiles.take();
        for job in &self.jobs[k..] {
            match progressive_filling(job, &ledger, grid, self.total_gpus, None, scratch) {
                Some(profile) => {
                    ledger.commit(&profile);
                    suffix.push(profile);
                }
                None => {
                    let denial = AdmissionDenial {
                        blocking_job: job.id,
                        shortfall: window_shortfall(job, &ledger, grid, self.total_gpus),
                    };
                    SuffixRefill {
                        k,
                        cand_profile,
                        suffix,
                        ledger,
                    }
                    .recycle(scratch);
                    return Err(denial);
                }
            }
        }
        Ok(SuffixRefill {
            k,
            cand_profile,
            suffix,
            ledger,
        })
    }

    /// Incremental Algorithm 1: would admitting `candidate` keep every
    /// job (existing and new) satisfiable? Refills only the
    /// deadline-ordered suffix from the candidate's position; the prefix
    /// is reused unchanged. `Err` names the first unsatisfiable job —
    /// the same blocking job (and the same shortfall) a from-scratch
    /// check would report. The set is not modified; fills run through the
    /// caller's workspace, and the refilled profiles go back into it.
    pub fn whatif_admit(
        &self,
        candidate: &PlanningJob,
        grid: &SlotGrid,
        scratch: &mut FillScratch,
    ) -> Result<(), AdmissionDenial> {
        self.refill_suffix(candidate, grid, scratch)?
            .recycle(scratch);
        Ok(())
    }

    /// Commits `candidate` into the set (incremental fill). On failure
    /// the set is unchanged and the denial (blocking job + shortfall)
    /// is returned. Fills run through the caller's workspace, which
    /// carries no decision state between calls — reuse never changes an
    /// outcome.
    pub fn admit(
        &mut self,
        candidate: PlanningJob,
        grid: &SlotGrid,
        scratch: &mut FillScratch,
    ) -> Result<(), AdmissionDenial> {
        let SuffixRefill {
            k,
            cand_profile,
            mut suffix,
            ledger,
        } = self.refill_suffix(&candidate, grid, scratch)?;
        self.jobs.insert(k, candidate);
        for superseded in self.profiles.drain(k..) {
            scratch.recycle(superseded);
        }
        self.profiles.push(cand_profile);
        self.profiles.append(&mut suffix);
        scratch.profiles.give(suffix);
        let superseded = std::mem::replace(&mut self.ledger, ledger);
        scratch.give_ledger(superseded);
        Ok(())
    }

    /// Removes the job `id` and refills the jobs after it against the
    /// freed capacity, exactly as a from-scratch fill over the remaining
    /// jobs would. Returns the ids of any suffix jobs that can no longer
    /// be satisfied (possible outside the idealized model; they are
    /// dropped from the set, mirroring [`AdmissionSet::fill`]'s lapsed
    /// handling). A no-op returning an empty list if `id` is not in the
    /// set.
    pub fn withdraw(
        &mut self,
        id: JobId,
        grid: &SlotGrid,
        scratch: &mut FillScratch,
    ) -> Vec<JobId> {
        let Some(k) = self.jobs.iter().position(|j| j.id == id) else {
            return Vec::new();
        };
        for profile in &self.profiles[k..] {
            self.ledger.uncommit(profile);
        }
        for superseded in self.profiles.drain(k..) {
            scratch.recycle(superseded);
        }
        // Position `k` holds the withdrawn job itself.
        let mut tail = scratch.jobs.take();
        tail.extend(self.jobs.drain(k..).skip(1));
        self.fill_tail(tail, grid, scratch)
    }

    /// Moves the set's slot 0 forward by `slots` slots (a no-op for 0).
    /// Every job is credited the work its profile performs over the
    /// elapsed slots; finished jobs retire, jobs whose windows elapsed
    /// expire, and the survivors are rebased to the new slot 0 and
    /// refilled from scratch as one batch through the caller's
    /// workspace. Like every other path here it is a pure function of
    /// the set and its arguments, so a stream of arrivals and boundary
    /// crossings replays bit for bit.
    ///
    /// # Example
    ///
    /// ```
    /// use elasticflow_core::{AdmissionSet, FillScratch, PlanningJob, SlotGrid};
    /// use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
    /// use elasticflow_trace::JobId;
    ///
    /// let curve = ScalingCurve::from_points(DnnModel::ResNet50, 64, vec![
    ///     CurvePoint { gpus: 1, iters_per_sec: 1.0 },
    /// ]);
    /// let grid = SlotGrid::uniform(60.0);
    /// let mut scratch = FillScratch::new();
    /// // 60 units of work with a two-slot window: one slot of slack.
    /// let job = PlanningJob {
    ///     id: JobId::new(7),
    ///     curve,
    ///     remaining_iterations: 60.0,
    ///     deadline_slot: 2,
    /// };
    /// let (mut set, _) = AdmissionSet::fill(1, Vec::new(), &grid, &mut scratch);
    /// assert!(set.admit(job, &grid, &mut scratch).is_ok());
    /// // Two slots later the profile's progress has finished the job.
    /// let report = set.advance(2, &grid, &mut scratch);
    /// assert_eq!(report.completed, vec![JobId::new(7)]);
    /// assert!(set.is_empty());
    /// ```
    pub fn advance(
        &mut self,
        slots: usize,
        grid: &SlotGrid,
        scratch: &mut FillScratch,
    ) -> AdvanceReport {
        let mut report = AdvanceReport::default();
        if slots == 0 || self.jobs.is_empty() {
            return report;
        }
        let mut survivors = scratch.jobs.take();
        for (mut job, profile) in self.jobs.drain(..).zip(self.profiles.drain(..)) {
            // Work the guaranteed plan performs in the elapsed slots.
            let mut done = 0.0_f64;
            for t in 0..slots.min(profile.len()) {
                let gpus = profile.gpus(t);
                if gpus == 0 {
                    continue;
                }
                if let Some(rate) = job.curve.iters_per_sec(gpus) {
                    done += rate * grid.duration(t);
                }
            }
            scratch.recycle(profile);
            let remaining = job.remaining_iterations - done;
            if remaining <= WORK_EPSILON {
                report.completed.push(job.id);
            } else if job.deadline_slot <= slots {
                report.expired.push(job.id);
            } else {
                job.remaining_iterations = remaining;
                job.deadline_slot -= slots;
                survivors.push(job);
            }
        }
        // Rebasing shifts every window by the same amount, so the
        // survivors are still in fill order.
        self.ledger.clear();
        report.lapsed = self.fill_tail(survivors, grid, scratch);
        report
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;
    use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};

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

    /// The plan `set` would commit with `candidate` admitted, or its
    /// denial — what the from-scratch `check` over the union must equal.
    fn admitted_plan(
        set: &AdmissionSet,
        candidate: PlanningJob,
        grid: &SlotGrid,
    ) -> Result<BTreeMap<JobId, AllocationProfile>, AdmissionDenial> {
        let mut set = set.clone();
        set.admit(candidate, grid, &mut FillScratch::new())?;
        Ok(set.plan())
    }

    #[test]
    fn empty_set_is_admitted() {
        assert!(AdmissionSet::check(4, &[], &SlotGrid::uniform(1.0)).is_ok());
    }

    #[test]
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "the test fails on any variant it does not expect"
    )]
    fn decline_reason_attributes_the_blocking_job() {
        let shortfall = CapacityShortfall {
            window_slots: 7,
            demand_gpu_slots: 0.1 + 0.2,
            free_gpu_slots: f64::MIN_POSITIVE,
        };
        let bits = |s: &CapacityShortfall| {
            (
                s.window_slots,
                s.demand_gpu_slots.to_bits(),
                s.free_gpu_slots.to_bits(),
            )
        };
        let denial = AdmissionDenial {
            blocking_job: JobId::new(3),
            shortfall,
        };
        match denial.decline_reason(JobId::new(3)) {
            DeclineReason::CandidateInfeasible { shortfall: got } => {
                assert_eq!(bits(&got), bits(&shortfall));
            }
            other => panic!("the candidate blocked itself, got {other:?}"),
        }
        match denial.decline_reason(JobId::new(9)) {
            DeclineReason::WouldDisplace {
                blocking_job,
                shortfall: got,
            } => {
                assert_eq!(blocking_job, JobId::new(3));
                assert_eq!(bits(&got), bits(&shortfall));
            }
            other => panic!("job 3 blocked candidate 9, got {other:?}"),
        }
    }

    #[test]
    fn paper_fig3_both_jobs_fit_with_one_gpu_each() {
        // The motivating example (Fig. 3): jobs A and B, 3 units each,
        // deadlines 3 and 3.5 (=> 3 slots each, conservatively), 2 GPUs.
        // One worker each meets both deadlines.
        let grid = SlotGrid::uniform(1.0);
        let plan = AdmissionSet::check(2, &[job(0, 3.0, 3), job(1, 3.0, 3)], &grid)
            .expect("Fig. 3 set must be admitted");
        assert_eq!(plan[&JobId::new(0)].as_slice(), &[1, 1, 1]);
        assert_eq!(plan[&JobId::new(1)].as_slice(), &[1, 1, 1]);
    }

    #[test]
    fn rejection_names_the_blocking_job() {
        let grid = SlotGrid::uniform(1.0);
        let AdmissionDenial {
            blocking_job,
            shortfall,
        } = AdmissionSet::check(1, &[job(0, 1.0, 1), job(1, 1.0, 1)], &grid)
            .expect_err("one GPU cannot carry both jobs");
        assert_eq!(blocking_job, JobId::new(1));
        // Job 0 booked the lone GPU for the whole 1-slot window: job 1
        // needs 1 GPU-slot (1 unit of work at 1 it/s on 1 GPU) and finds
        // 0 free.
        assert_eq!(shortfall.window_slots, 1);
        assert!((shortfall.demand_gpu_slots - 1.0).abs() < 1e-12);
        assert_eq!(shortfall.free_gpu_slots, 0.0);
        assert!((shortfall.shortfall_gpu_slots() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shortfall_accounts_for_free_capacity_in_the_window() {
        // 4 GPUs, 2 slots; job 0 books the full cluster in slot 0 only.
        // A newcomer with 50 units of work and a 2-slot window can't
        // finish even at its largest size (g=4 does 2 it/s => 4 units in
        // 2 slots), so demand is charged at full tilt: 50 units / 2 it/s
        // = 25 slots of time × 4 GPUs = 100 GPU-slots. Usable free is
        // slot 1's 4 GPUs (slot 0 is fully booked).
        let grid = SlotGrid::uniform(1.0);
        let AdmissionDenial {
            blocking_job,
            shortfall,
        } = AdmissionSet::check(4, &[job(0, 2.0, 1), job(1, 50.0, 2)], &grid)
            .expect_err("50 units cannot fit in 8 GPU-slots");
        assert_eq!(blocking_job, JobId::new(1));
        assert_eq!(shortfall.window_slots, 2);
        assert!((shortfall.demand_gpu_slots - 100.0).abs() < 1e-9);
        assert!((shortfall.free_gpu_slots - 4.0).abs() < 1e-9);
        assert!((shortfall.shortfall_gpu_slots() - 96.0).abs() < 1e-9);
    }

    #[test]
    fn feasible_size_prices_demand_at_the_minimum_satisfactory_share() {
        // Alone on a big cluster with an achievable deadline, the
        // demand side reads MSS × window: 2 units in 2 slots needs g=1
        // (1 it/s × 2 s = 2 units), so demand is 2 GPU-slots.
        let grid = SlotGrid::uniform(1.0);
        let shortfall = window_shortfall(&job(0, 2.0, 2), &ReservationLedger::new(), &grid, 4);
        assert_eq!(shortfall.window_slots, 2);
        assert!((shortfall.demand_gpu_slots - 2.0).abs() < 1e-9);
        // Both slots are empty: 4 usable GPUs × 2 slots.
        assert!((shortfall.free_gpu_slots - 8.0).abs() < 1e-9);
        assert_eq!(shortfall.shortfall_gpu_slots(), 0.0);
    }

    #[test]
    fn later_deadline_job_uses_leftover_slots() {
        let grid = SlotGrid::uniform(1.0);
        // Urgent job needs the whole cluster in slot 0; the second job has
        // an extra slot and fits after it.
        let plan =
            AdmissionSet::check(4, &[job(0, 2.0, 1), job(1, 2.0, 2)], &grid).expect("should fit");
        assert_eq!(plan[&JobId::new(0)].as_slice(), &[4]);
        // Job 1 gets nothing in slot 0, then the cluster in slot 1.
        assert_eq!(plan[&JobId::new(1)].gpus(0), 0);
        assert_eq!(plan[&JobId::new(1)].gpus(1), 4);
    }

    #[test]
    fn whatif_admit_checks_the_union() {
        let grid = SlotGrid::uniform(1.0);
        let scratch = &mut FillScratch::new();
        let (set, _) = AdmissionSet::fill(2, vec![job(0, 2.0, 2)], &grid, scratch);
        assert!(set.whatif_admit(&job(1, 1.0, 2), &grid, scratch).is_ok());
        assert!(set.whatif_admit(&job(1, 4.0, 2), &grid, scratch).is_err());
    }

    #[test]
    fn admission_is_monotone_in_deadline() {
        // A job rejected at a tight deadline must be admitted at a looser
        // one (same work, same load).
        let grid = SlotGrid::uniform(1.0);
        let scratch = &mut FillScratch::new();
        let (set, _) = AdmissionSet::fill(2, vec![job(0, 3.0, 2)], &grid, scratch);
        let tight = job(1, 2.5, 2);
        let loose = job(1, 2.5, 4);
        assert!(set.whatif_admit(&tight, &grid, scratch).is_err());
        assert!(set.whatif_admit(&loose, &grid, scratch).is_ok());
    }

    #[test]
    fn admission_survives_removing_a_neighbor() {
        // Regression: job 0 filling a cluster shared with job 1 got clamped
        // to [2, 2, 4]; alone it filled [4, 4, 4], hogging the final slot
        // it barely needs and starving job 2. The final-slot trim keeps the
        // lone fill frugal ([4, 4, 1]) so the subset stays admitted.
        let mk = |id: u64, pts: [f64; 3], work: f64, slots: usize| PlanningJob {
            id: JobId::new(id),
            curve: ScalingCurve::from_points(
                DnnModel::ResNet50,
                64,
                vec![
                    CurvePoint {
                        gpus: 1,
                        iters_per_sec: pts[0],
                    },
                    CurvePoint {
                        gpus: 2,
                        iters_per_sec: pts[1],
                    },
                    CurvePoint {
                        gpus: 4,
                        iters_per_sec: pts[2],
                    },
                ],
            ),
            remaining_iterations: work,
            deadline_slot: slots,
        };
        let jobs = [
            mk(0, [0.788, 1.034, 1.314], 3.148, 3),
            mk(1, [1.210, 2.196, 3.160], 1.315, 2),
            mk(2, [1.541, 2.400, 3.194], 1.124, 3),
        ];
        let grid = SlotGrid::uniform(1.0);
        assert!(AdmissionSet::check(4, &jobs, &grid).is_ok());
        for skip in 0..jobs.len() {
            let subset: Vec<PlanningJob> = jobs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, j)| j.clone())
                .collect();
            assert!(
                AdmissionSet::check(4, &subset, &grid).is_ok(),
                "removing job {skip} broke admission"
            );
        }
    }

    #[test]
    fn incremental_outcome_matches_from_scratch_check() {
        let grid = SlotGrid::uniform(1.0);
        let existing = [job(0, 2.0, 1), job(1, 3.0, 3), job(2, 1.0, 2)];
        let (set, lapsed) =
            AdmissionSet::fill(4, existing.to_vec(), &grid, &mut FillScratch::new());
        assert!(lapsed.is_empty());
        // Candidates landing before, between, and after the existing
        // deadlines; feasible and infeasible alike.
        for candidate in [
            job(9, 1.0, 1),
            job(9, 2.0, 2),
            job(9, 4.0, 4),
            job(9, 50.0, 3),
        ] {
            let mut union: Vec<PlanningJob> = existing.to_vec();
            union.push(candidate.clone());
            assert_eq!(
                admitted_plan(&set, candidate.clone(), &grid),
                AdmissionSet::check(4, &union, &grid),
                "candidate deadline {}",
                candidate.deadline_slot
            );
        }
    }

    #[test]
    fn admit_then_withdraw_round_trips() {
        let grid = SlotGrid::uniform(1.0);
        let scratch = &mut FillScratch::new();
        let (mut set, _) =
            AdmissionSet::fill(4, vec![job(0, 2.0, 2), job(1, 2.0, 3)], &grid, scratch);
        let before_plan = set.plan();
        let before_ledger = set.ledger().clone();
        set.admit(job(2, 1.0, 2), &grid, scratch).unwrap();
        assert_eq!(set.len(), 3);
        // The mutated set must equal a from-scratch fill of the union...
        let (scratch_set, _) = AdmissionSet::fill(
            4,
            vec![job(0, 2.0, 2), job(1, 2.0, 3), job(2, 1.0, 2)],
            &grid,
            scratch,
        );
        assert_eq!(set.plan(), scratch_set.plan());
        assert_eq!(set.ledger(), scratch_set.ledger());
        // ...and withdrawing restores the original committed state.
        let lapsed = set.withdraw(JobId::new(2), &grid, scratch);
        assert!(lapsed.is_empty());
        assert_eq!(set.plan(), before_plan);
        assert_eq!(set.ledger(), &before_ledger);
    }

    #[test]
    fn failed_admit_leaves_the_set_unchanged() {
        let grid = SlotGrid::uniform(1.0);
        let scratch = &mut FillScratch::new();
        let (mut set, _) =
            AdmissionSet::fill(2, vec![job(0, 2.0, 2), job(1, 2.0, 2)], &grid, scratch);
        let plan = set.plan();
        let denial = set.admit(job(2, 2.0, 2), &grid, scratch).unwrap_err();
        assert_eq!(denial.blocking_job, JobId::new(2));
        assert_eq!(set.plan(), plan);
        // A tight candidate with the earliest deadline blocks a *later*
        // job, not itself; the error names that job, like check does.
        let (set2, _) = AdmissionSet::fill(2, vec![job(5, 1.5, 2)], &grid, scratch);
        let bully = job(1, 3.0, 1);
        let union = vec![job(5, 1.5, 2), bully.clone()];
        let from_scratch = AdmissionSet::check(2, &union, &grid);
        assert_eq!(admitted_plan(&set2, bully, &grid), from_scratch);
    }

    #[test]
    fn advance_credits_guaranteed_progress_and_retires_jobs() {
        let grid = SlotGrid::uniform(1.0);
        let s = &mut FillScratch::new();
        let (mut set, _) = AdmissionSet::fill(1, Vec::new(), &grid, s);
        assert!(set.admit(job(0, 2.0, 2), &grid, s).is_ok());
        assert!(set.admit(job(1, 1.0, 3), &grid, s).is_ok());
        // Two slots on: job 0's profile ([1, 1]) finishes its 2 units;
        // job 1 ran in slot 2's window only if scheduled there.
        let report = set.advance(2, &grid, s);
        assert_eq!(report.completed, vec![JobId::new(0)]);
        assert!(report.expired.is_empty());
        assert!(report.lapsed.is_empty());
        // Job 1 survives with its window rebased to 1 remaining slot.
        assert_eq!(set.len(), 1);
        assert_eq!(set.jobs()[0].id, JobId::new(1));
        assert_eq!(set.jobs()[0].deadline_slot, 1);
        let report = set.advance(1, &grid, s);
        assert_eq!(report.completed, vec![JobId::new(1)]);
        assert!(set.is_empty());
    }

    #[test]
    fn advance_frees_capacity_for_new_arrivals() {
        let grid = SlotGrid::uniform(1.0);
        let s = &mut FillScratch::new();
        let (mut set, _) = AdmissionSet::fill(1, Vec::new(), &grid, s);
        assert!(set.admit(job(0, 2.0, 2), &grid, s).is_ok());
        // Cluster is saturated through slot 2; a same-window newcomer
        // bounces…
        assert!(set.admit(job(1, 2.0, 2), &grid, s).is_err());
        // …until the first job finishes and its reservation is released.
        set.advance(2, &grid, s);
        assert!(set.admit(job(1, 2.0, 2), &grid, s).is_ok());
    }

    #[test]
    fn stream_matches_offline_check_at_each_step() {
        // Every accepted prefix of the stream must be exactly the set an
        // offline Algorithm 1 would admit over the same jobs.
        let grid = SlotGrid::uniform(1.0);
        let s = &mut FillScratch::new();
        let (mut set, _) = AdmissionSet::fill(2, Vec::new(), &grid, s);
        let arrivals = [
            (0u64, 1.0_f64, 3usize),
            (1, 2.0, 2),
            (2, 4.0, 4),
            (3, 1.5, 3),
            (4, 2.0, 5),
        ];
        for (id, work, deadline) in arrivals {
            let _ = set.admit(job(id, work, deadline), &grid, s);
            assert!(
                AdmissionSet::check(2, set.jobs(), &grid).is_ok(),
                "committed set must stay jointly feasible after job {id}"
            );
        }
    }

    #[test]
    fn jobs_round_trip_through_fill_is_exact() {
        let grid = SlotGrid::uniform(30.0);
        let s = &mut FillScratch::new();
        let (mut set, _) = AdmissionSet::fill(4, Vec::new(), &grid, s);
        assert!(set.admit(job(0, 3.0, 4), &grid, s).is_ok());
        assert!(set.admit(job(1, 2.0, 6), &grid, s).is_ok());
        set.advance(2, &grid, s);
        assert!(set.admit(job(2, 1.0, 3), &grid, s).is_ok());
        let (rebuilt, lapsed) = AdmissionSet::fill(4, set.jobs().to_vec(), &grid, s);
        assert!(lapsed.is_empty());
        assert_eq!(rebuilt.jobs(), set.jobs());
        // And the rebuilt set answers the next question identically.
        let mut a = set.clone();
        let mut b = rebuilt;
        assert_eq!(
            a.admit(job(3, 2.5, 5), &grid, s),
            b.admit(job(3, 2.5, 5), &grid, s)
        );
        assert_eq!(a.jobs(), b.jobs());
    }

    #[test]
    fn withdraw_releases_the_reservation() {
        let grid = SlotGrid::uniform(1.0);
        let s = &mut FillScratch::new();
        let (mut set, _) = AdmissionSet::fill(1, Vec::new(), &grid, s);
        assert!(set.admit(job(0, 2.0, 2), &grid, s).is_ok());
        assert!(set.admit(job(1, 2.0, 2), &grid, s).is_err());
        assert!(set.withdraw(JobId::new(0), &grid, s).is_empty());
        assert!(set.admit(job(1, 2.0, 2), &grid, s).is_ok());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// The clamped sum equals the peak-switched form — a whole-ledger
        /// scan for the peak choosing between the clamped sum and the
        /// integer prefix sum — bit for bit on random ledgers,
        /// over-committed ones included.
        #[test]
        fn booked_fraction_matches_the_peak_switched_form(
            gpus in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0u32..6, 0..40),
                0..6,
            ),
            total_gpus in 1u32..16,
            horizon in 0usize..64,
        ) {
            let mut ledger = ReservationLedger::new();
            for profile in gpus {
                ledger.commit(&AllocationProfile::new(profile));
            }
            let old = if horizon == 0 {
                0.0
            } else {
                let total = if ledger.peak() <= total_gpus {
                    ledger.committed_before(horizon) as f64
                } else {
                    (0..horizon)
                        .map(|t| ledger.committed(t).min(total_gpus) as f64)
                        .sum()
                };
                total / (horizon as f64 * total_gpus as f64)
            };
            let set = AdmissionSet {
                total_gpus,
                jobs: Vec::new(),
                profiles: Vec::new(),
                ledger,
            };
            proptest::prop_assert_eq!(set.booked_fraction(horizon).to_bits(), old.to_bits());
        }
    }

    /// The fill kernel's work counters on a fixed crowded instance: a
    /// stream of 60 mixed jobs admitted one by one into 12 GPUs (most
    /// declined), then Algorithm 2 over the admitted set. The counters
    /// are a pure function of the fills asked, so a kernel change that
    /// moves one of them changes how much work the kernel does.
    #[test]
    fn fill_counters_are_pinned_on_a_fixed_instance() {
        let linear = ScalingCurve::from_points(
            DnnModel::Vgg16,
            64,
            (0..4)
                .map(|i| CurvePoint {
                    gpus: 1 << i,
                    iters_per_sec: f64::from(1u32 << i) * 0.9,
                })
                .collect(),
        );
        let grid = SlotGrid::new(0.5, 1.0);
        let total = 12;
        let stream: Vec<PlanningJob> = (0..60u64)
            .map(|i| PlanningJob {
                id: JobId::new(i),
                curve: if i % 3 == 0 { linear.clone() } else { curve() },
                remaining_iterations: 1.0 + ((i * 7) % 11) as f64 * 1.25,
                deadline_slot: 2 + ((i * 5) % 13) as usize + (i / 4) as usize,
            })
            .collect();
        let mut scratch = FillScratch::new();
        let (mut set, _) = AdmissionSet::fill(total, Vec::new(), &grid, &mut scratch);
        let mut admitted = 0;
        for job in &stream {
            admitted += usize::from(set.admit(job.clone(), &grid, &mut scratch).is_ok());
        }
        assert_eq!(admitted, 34);
        // Every fourth admitted job leaves slot-0 GPUs for the boost loop.
        let allocator = crate::ResourceAllocator::new(total);
        let jobs: Vec<PlanningJob> = set.jobs().iter().step_by(4).cloned().collect();
        let (phase1, _) = AdmissionSet::fill(total, jobs, &grid, &mut scratch);
        let (jobs, mut profiles, mut ledger) = phase1.into_parts();
        let free0 = total - profiles.iter().map(|p| p.gpus(0)).sum::<u32>();
        assert_eq!(free0, 2);
        allocator.boost(
            &jobs,
            &grid,
            &mut profiles,
            &mut ledger,
            free0,
            &vec![0; jobs.len()],
            &mut scratch,
        );
        assert_eq!(
            scratch.counters(),
            crate::FillCounters {
                probes: 386,
                pruned_entry: 17,
                pruned_walk: 142,
                pruned_pinned: 1,
                booked_slots: 3223,
                headroom_slots: 809,
                partial_slots: 100,
                failed_slots: 2141,
                tail_steps: 58,
                boost_candidates: 10,
                boosts_applied: 2,
                certified_boosts: 0,
            }
        );
        // Counters are not state: a clone starts from zero.
        assert_eq!(scratch.clone().counters(), crate::FillCounters::default());
    }

    #[test]
    fn theorem1_linear_agreement() {
        // For linear curves, Algorithm 1 must agree with Theorem 1's
        // GPU-time feasibility condition. Linear ladder: T(g) = g.
        let linear = ScalingCurve::from_points(
            DnnModel::Vgg16,
            64,
            vec![
                CurvePoint {
                    gpus: 1,
                    iters_per_sec: 1.0,
                },
                CurvePoint {
                    gpus: 2,
                    iters_per_sec: 2.0,
                },
                CurvePoint {
                    gpus: 4,
                    iters_per_sec: 4.0,
                },
            ],
        );
        let mk = |id: u64, work: f64, slots: usize| PlanningJob {
            id: JobId::new(id),
            curve: linear.clone(),
            remaining_iterations: work,
            deadline_slot: slots,
        };
        let grid = SlotGrid::uniform(1.0);
        // Theorem 1: sum of M_j/k_j over deadline-sorted prefixes <= G*D_i.
        // Jobs: (4 work, D=1), (8 work, D=3): prefix1 4 <= 4; prefix2 12 <= 12.
        assert!(AdmissionSet::check(4, &[mk(0, 4.0, 1), mk(1, 8.0, 3)], &grid).is_ok());
        // Push past the bound: (4, D=1), (9, D=3): 13 > 12 infeasible.
        assert!(AdmissionSet::check(4, &[mk(0, 4.0, 1), mk(1, 9.0, 3)], &grid).is_err());
    }
}
