//! The online admission surface: Algorithm 1 against a moving clock.
//!
//! A from-scratch check ([`AdmissionSet::check`]) answers one offline
//! question; a serving gateway instead faces a *stream* of arrivals
//! while time passes underneath the committed plan. [`OnlineAdmission`]
//! keeps an incremental [`AdmissionSet`] anchored at an **origin slot**
//! — the absolute slot index the set's relative slot 0 maps to — and
//! advances that anchor as arrivals land:
//!
//! * each submitted job carries an absolute deadline slot, converted to
//!   a window relative to the current origin;
//! * [`OnlineAdmission::advance_to`] moves the origin forward, credits
//!   every committed job the *virtual progress* its minimum-satisfactory
//!   profile guarantees over the elapsed slots, retires the jobs that
//!   finish, rebases the survivors' deadlines, and refills them
//!   (Algorithm 1 over the survivors, one batch per boundary crossing —
//!   never per arrival, so the steady-state cost of a submission stays
//!   the incremental suffix refill).
//!
//! The whole structure is a pure function of the submission stream: no
//! wall clock, no randomness, no iteration over unordered containers.
//! Replaying the same stream — from the start, or from a snapshot taken
//! via [`OnlineAdmission::parts`] plus the logged suffix — reproduces
//! every decision bit for bit, which is the property the serve daemon's
//! crash-recovery tests pin down.

use elasticflow_trace::JobId;

use crate::{AdmissionDenial, AdmissionSet, FillScratch, PlanningJob, SlotGrid, WORK_EPSILON};

/// What one [`OnlineAdmission::advance_to`] boundary crossing did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdvanceReport {
    /// Jobs whose guaranteed profiles completed their remaining work
    /// within the elapsed slots; they left the set satisfied.
    pub completed: Vec<JobId>,
    /// Jobs whose deadline windows elapsed with work still outstanding.
    /// Unreachable in the idealized model (an admitted profile finishes
    /// by its deadline) but guarded: such jobs are dropped, not replanned.
    pub expired: Vec<JobId>,
    /// Survivors the post-advance refill could no longer satisfy
    /// (possible outside the idealized model); dropped from the set,
    /// mirroring [`AdmissionSet::fill`]'s lapsed handling.
    pub lapsed: Vec<JobId>,
}

/// Incremental admission over a stream of arrivals and a moving clock.
///
/// # Example
///
/// ```
/// use elasticflow_core::{FillScratch, OnlineAdmission, PlanningJob};
/// use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
/// use elasticflow_trace::JobId;
///
/// let curve = ScalingCurve::from_points(DnnModel::ResNet50, 64, vec![
///     CurvePoint { gpus: 1, iters_per_sec: 1.0 },
/// ]);
/// let mut online = OnlineAdmission::new(1, 60.0);
/// let mut scratch = FillScratch::new();
/// // 60 units of work, deadline at absolute slot 2: one slot of slack.
/// let job = PlanningJob {
///     id: JobId::new(7),
///     curve,
///     remaining_iterations: 60.0,
///     deadline_slot: 2,
/// };
/// assert!(online.submit(job, 2, &mut scratch).is_ok());
/// // Crossing into slot 1 credits the profile's progress; the job
/// // finishes within its window by slot 2.
/// let report = online.advance_to(2, &mut scratch);
/// assert_eq!(report.completed, vec![JobId::new(7)]);
/// assert!(online.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct OnlineAdmission {
    grid: SlotGrid,
    origin_slot: u64,
    set: AdmissionSet,
}

impl OnlineAdmission {
    /// A fresh online admission state at origin slot 0 over a uniform
    /// grid of `slot_seconds`-long slots.
    ///
    /// # Panics
    ///
    /// Panics if `total_gpus` is zero or `slot_seconds` is not positive
    /// (both are configuration errors, same contract as
    /// [`AdmissionSet::fill`] and [`SlotGrid::uniform`]).
    pub fn new(total_gpus: u32, slot_seconds: f64) -> Self {
        OnlineAdmission::from_parts(total_gpus, slot_seconds, 0, &[], &mut FillScratch::new()).0
    }

    /// Rebuilds the state a snapshot captured: `jobs` carry
    /// *origin-relative* deadline slots and remaining work, exactly as
    /// [`OnlineAdmission::parts`] exposed them. Jobs the refill cannot
    /// satisfy are returned as lapsed (empty for any state this type
    /// produced, since the snapshot's jobs were jointly feasible).
    pub fn from_parts(
        total_gpus: u32,
        slot_seconds: f64,
        origin_slot: u64,
        jobs: &[PlanningJob],
        scratch: &mut FillScratch,
    ) -> (Self, Vec<JobId>) {
        let grid = SlotGrid::uniform(slot_seconds);
        let (set, lapsed) = AdmissionSet::fill(total_gpus, jobs.to_vec(), &grid, scratch);
        (
            OnlineAdmission {
                grid,
                origin_slot,
                set,
            },
            lapsed,
        )
    }

    /// Number of committed (guaranteed) jobs.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// `true` when no job is committed.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The absolute slot containing time `seconds` (slot boundaries at
    /// integer multiples of the slot length). Times before 0 and
    /// non-finite times clamp to slot 0.
    pub fn slot_of(&self, seconds: f64) -> u64 {
        elasticflow_cluster::num::slots_floor(seconds / self.grid.rest_seconds()).unwrap_or(0)
            as u64
    }

    /// The origin slot (the absolute slot the committed plan's slot 0
    /// maps to) and the committed jobs, in fill order, with
    /// origin-relative deadline slots — everything a snapshot needs to
    /// rebuild the state via [`OnlineAdmission::from_parts`].
    pub fn parts(&self) -> (u64, &[PlanningJob]) {
        (self.origin_slot, self.set.jobs())
    }

    /// Mean booked fraction of the cluster over the next `horizon_slots`
    /// slots, in `[0, 1]`.
    pub fn booked_fraction(&self, horizon_slots: usize) -> f64 {
        self.set.booked_fraction(horizon_slots)
    }

    /// Submits `job` (remaining work plus an **absolute** deadline slot,
    /// passed as `deadline_slot_abs`; the job's own `deadline_slot`
    /// field is overwritten with the origin-relative window). Commits it
    /// on success; on failure the state is unchanged and the denial
    /// names the blocking job and its capacity shortfall. Fills run
    /// through the caller's workspace.
    ///
    /// A deadline at or before the current origin leaves a zero-slot
    /// window, which Algorithm 1 rejects unless the job has (epsilon)
    /// no work left.
    pub fn submit(
        &mut self,
        mut job: PlanningJob,
        deadline_slot_abs: u64,
        scratch: &mut FillScratch,
    ) -> Result<(), AdmissionDenial> {
        let relative = deadline_slot_abs.saturating_sub(self.origin_slot);
        job.deadline_slot = usize::try_from(relative).unwrap_or(usize::MAX);
        self.set.admit(job, &self.grid, scratch)
    }

    /// Removes the job `id` (caller cancellation), refilling later jobs
    /// into the freed capacity through the caller's workspace. Returns
    /// any jobs the refill could no longer satisfy. No-op for unknown
    /// ids.
    pub fn withdraw(&mut self, id: JobId, scratch: &mut FillScratch) -> Vec<JobId> {
        self.set.withdraw(id, &self.grid, scratch)
    }

    /// Advances the origin to absolute `slot` (no-op when `slot` is not
    /// ahead of the origin). Every committed job is credited the work
    /// its guaranteed profile performs over the elapsed slots; finished
    /// jobs retire, survivors are rebased to the new origin and refilled
    /// as one batch through the caller's workspace.
    pub fn advance_to(&mut self, slot: u64, scratch: &mut FillScratch) -> AdvanceReport {
        let mut report = AdvanceReport::default();
        if slot <= self.origin_slot {
            return report;
        }
        let delta = usize::try_from(slot - self.origin_slot).unwrap_or(usize::MAX);
        self.origin_slot = slot;
        if self.set.is_empty() {
            return report;
        }
        // Take the set by value: the credited survivors feed straight
        // into the rebuild, so nothing here clones the jobs, and the old
        // profiles go back to the workspace once credited.
        let total_gpus = self.set.total_gpus();
        let empty = AdmissionSet::fill(total_gpus, Vec::new(), &self.grid, scratch).0;
        let (jobs, profiles, _ledger) = std::mem::replace(&mut self.set, empty).into_parts();
        let mut survivors = Vec::with_capacity(jobs.len());
        for (mut job, profile) in jobs.into_iter().zip(&profiles) {
            // Work the guaranteed plan performs in the elapsed slots.
            let mut done = 0.0_f64;
            for t in 0..delta.min(profile.len()) {
                let gpus = profile.gpus(t);
                if gpus == 0 {
                    continue;
                }
                if let Some(rate) = job.curve.iters_per_sec(gpus) {
                    done += rate * self.grid.duration(t);
                }
            }
            let remaining = job.remaining_iterations - done;
            if remaining <= WORK_EPSILON {
                report.completed.push(job.id);
            } else if job.deadline_slot <= delta {
                report.expired.push(job.id);
            } else {
                job.remaining_iterations = remaining;
                job.deadline_slot -= delta;
                survivors.push(job);
            }
        }
        for profile in profiles {
            scratch.recycle(profile);
        }
        let (set, lapsed) = AdmissionSet::fill(total_gpus, survivors, &self.grid, scratch);
        self.set = set;
        report.lapsed = lapsed;
        report
    }
}

#[cfg(test)]
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

    fn job(id: u64, work: f64) -> PlanningJob {
        PlanningJob {
            id: JobId::new(id),
            curve: curve(),
            remaining_iterations: work,
            deadline_slot: 0, // overwritten by submit
        }
    }

    #[test]
    fn slot_of_maps_times_onto_boundaries() {
        let online = OnlineAdmission::new(4, 60.0);
        assert_eq!(online.slot_of(0.0), 0);
        assert_eq!(online.slot_of(59.9), 0);
        assert_eq!(online.slot_of(60.0), 1);
        assert_eq!(online.slot_of(3600.0), 60);
        assert_eq!(online.slot_of(-5.0), 0);
        assert_eq!(online.slot_of(f64::NAN), 0);
    }

    #[test]
    fn submit_converts_absolute_deadlines_to_the_origin() {
        let s = &mut FillScratch::new();
        let mut online = OnlineAdmission::new(1, 1.0);
        // 2 units of work, 2 slots of window: feasible on 1 GPU at 1 it/s.
        assert!(online.submit(job(0, 2.0), 2, s).is_ok());
        // Same shape with a dead window: rejected, state unchanged.
        assert!(online.submit(job(1, 2.0), 0, s).is_err());
        assert_eq!(online.len(), 1);
        // After advancing one slot the same absolute deadline buys one
        // less slot of window.
        online.advance_to(1, s);
        let denial = online.submit(job(2, 2.0), 2, s).unwrap_err();
        assert_eq!(denial.blocking_job, JobId::new(2));
    }

    #[test]
    fn advance_credits_guaranteed_progress_and_retires_jobs() {
        let s = &mut FillScratch::new();
        let mut online = OnlineAdmission::new(1, 1.0);
        assert!(online.submit(job(0, 2.0), 2, s).is_ok());
        assert!(online.submit(job(1, 1.0), 3, s).is_ok());
        // Crossing to slot 2: job 0's profile ([1, 1]) finishes its 2
        // units; job 1 ran in slot 2's window only if scheduled there.
        let report = online.advance_to(2, s);
        assert_eq!(report.completed, vec![JobId::new(0)]);
        assert!(report.expired.is_empty());
        assert!(report.lapsed.is_empty());
        // Job 1 survives with its window rebased to 1 remaining slot.
        let (origin, jobs) = online.parts();
        assert_eq!(origin, 2);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, JobId::new(1));
        assert_eq!(jobs[0].deadline_slot, 1);
        let report = online.advance_to(3, s);
        assert_eq!(report.completed, vec![JobId::new(1)]);
        assert!(online.is_empty());
    }

    #[test]
    fn advance_frees_capacity_for_new_arrivals() {
        let s = &mut FillScratch::new();
        let mut online = OnlineAdmission::new(1, 1.0);
        assert!(online.submit(job(0, 2.0), 2, s).is_ok());
        // Cluster is saturated through slot 2; a same-window newcomer
        // bounces…
        assert!(online.submit(job(1, 2.0), 2, s).is_err());
        // …until the first job finishes and its reservation is released.
        online.advance_to(2, s);
        assert!(online.submit(job(1, 2.0), 4, s).is_ok());
    }

    #[test]
    fn online_stream_matches_offline_check_at_each_step() {
        // Every accepted prefix of the stream must be exactly the set an
        // offline Algorithm 1 would admit over the same (rebased) jobs.
        let s = &mut FillScratch::new();
        let grid = SlotGrid::uniform(1.0);
        let mut online = OnlineAdmission::new(2, 1.0);
        let arrivals = [
            (0u64, 1.0_f64, 3u64),
            (1, 2.0, 2),
            (2, 4.0, 4),
            (3, 1.5, 3),
            (4, 2.0, 5),
        ];
        for (id, work, deadline) in arrivals {
            let _ = online.submit(job(id, work), deadline, s);
            let (_, committed) = online.parts();
            assert!(
                AdmissionSet::check(2, committed, &grid).is_ok(),
                "committed set must stay jointly feasible after job {id}"
            );
        }
    }

    #[test]
    fn parts_round_trip_through_from_parts_is_exact() {
        let s = &mut FillScratch::new();
        let mut online = OnlineAdmission::new(4, 30.0);
        assert!(online.submit(job(0, 3.0), 4, s).is_ok());
        assert!(online.submit(job(1, 2.0), 6, s).is_ok());
        online.advance_to(2, s);
        assert!(online.submit(job(2, 1.0), 5, s).is_ok());
        let (origin, jobs) = online.parts();
        let (rebuilt, lapsed) = OnlineAdmission::from_parts(4, 30.0, origin, jobs, s);
        assert!(lapsed.is_empty());
        assert_eq!(rebuilt.parts(), online.parts());
        // And the rebuilt state answers the next question identically.
        let mut a = online.clone();
        let mut b = rebuilt;
        assert_eq!(a.submit(job(3, 2.5), 7, s), b.submit(job(3, 2.5), 7, s));
        assert_eq!(a.parts().1, b.parts().1);
    }

    #[test]
    fn withdraw_releases_the_reservation() {
        let s = &mut FillScratch::new();
        let mut online = OnlineAdmission::new(1, 1.0);
        assert!(online.submit(job(0, 2.0), 2, s).is_ok());
        assert!(online.submit(job(1, 2.0), 2, s).is_err());
        assert!(online.withdraw(JobId::new(0), s).is_empty());
        assert!(online.submit(job(1, 2.0), 2, s).is_ok());
    }
}
