//! The ElasticFlow scheduler: admission control + elastic allocation +
//! best-effort extension, packaged behind the simulator-facing trait.

use elasticflow_sched::{
    clamp_pow2, AdmissionDecision, ClusterView, JobRuntime, JobTable, RestoreError, SchedulePlan,
    Scheduler,
};
use elasticflow_trace::JobId;
use serde::{Deserialize, Serialize};

use crate::{AdmissionSet, FillScratch, PlanningJob, ResourceAllocator, SlotGrid, WORK_EPSILON};

/// The planning grid at time `now` for `slot_seconds`-long slots,
/// anchored to *absolute* multiples of the slot length: slot 0 is the
/// remainder of the current global slot. Stable slot boundaries keep
/// reservation profiles comparable across replans — re-anchoring at
/// `now` would shift every boundary on every event and jitter jobs'
/// minimum satisfactory shares.
pub(crate) fn anchored_grid(slot_seconds: f64, now: f64) -> SlotGrid {
    let into_slot = now.rem_euclid(slot_seconds);
    let first = if into_slot < WORK_EPSILON || slot_seconds - into_slot < 1.0 {
        slot_seconds
    } else {
        slot_seconds - into_slot
    };
    SlotGrid::new(first, slot_seconds)
}

/// One pending best-effort ladder step in `fill_leftovers`' marginal-fill
/// heap: grow job `idx` to `next` workers for `extra` more GPUs. Ordered
/// by priority, then *lowest* index (the tie the linear scan broke by
/// scanning order); at most one entry per job exists at a time, so the
/// order is total.
struct BestEffortStep {
    prio: f64,
    idx: usize,
    next: u32,
    extra: u32,
}

impl PartialEq for BestEffortStep {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for BestEffortStep {}

impl PartialOrd for BestEffortStep {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BestEffortStep {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prio
            .total_cmp(&other.prio)
            .then(other.idx.cmp(&self.idx))
    }
}

/// ElasticFlow (paper §4): guarantees the deadline of every admitted SLO
/// job via minimum-satisfactory-share admission control, spends leftover
/// GPUs by marginal return, and schedules best-effort jobs with whatever
/// remains (§4.4).
///
/// # Example
///
/// ```
/// use elasticflow_core::ElasticFlowScheduler;
/// use elasticflow_sched::Scheduler;
///
/// let ef = ElasticFlowScheduler::new();
/// assert_eq!(ef.name(), "elasticflow");
/// ```
#[derive(Debug, Clone)]
pub struct ElasticFlowScheduler {
    planning_slot_seconds: f64,
    /// The fill workspace every admission check and planning round
    /// borrows. Not state: it is not compared, not snapshotted, and a
    /// clone starts with an empty one.
    workspace: FillScratch,
}

/// Schedulers compare by configuration; the workspace is not state.
impl PartialEq for ElasticFlowScheduler {
    fn eq(&self, other: &Self) -> bool {
        self.planning_slot_seconds == other.planning_slot_seconds
    }
}

/// ElasticFlow's snapshot state: it recomputes every plan from the job
/// table, so the planning-slot configuration is all it persists.
#[derive(Serialize, Deserialize)]
struct ElasticFlowState {
    planning_slot_seconds: f64,
}

impl ElasticFlowScheduler {
    /// Default planning-slot length: 60 seconds. Fine slots keep the
    /// conservative slot discretization of deadlines negligible even for
    /// sub-hour jobs; the analytic fast path in progressive filling keeps
    /// planning cheap despite the fine grid.
    pub const DEFAULT_PLANNING_SLOT: f64 = 60.0;

    /// Creates the scheduler with the default planning slot.
    pub fn new() -> Self {
        ElasticFlowScheduler {
            planning_slot_seconds: Self::DEFAULT_PLANNING_SLOT,
            workspace: FillScratch::new(),
        }
    }

    /// Overrides the planning-slot length (finer slots = tighter deadline
    /// discretization but more planning work).
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not strictly positive and finite.
    pub fn with_planning_slot(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "planning slot must be positive and finite"
        );
        self.planning_slot_seconds = seconds;
        self
    }

    /// Work-inflation margin applied to every planning view: scheduling
    /// pauses are not visible to the slot model, so plans assume ~5 % more
    /// work than is really left. The margin makes borderline jobs surface
    /// as "lapsed" while recovery (a knee-sized leftover fill) can still
    /// save them, instead of missing their deadlines outright.
    const PLANNING_DERATE: f64 = 1.05;

    /// Converts an active SLO job into its planning view at time `now`.
    pub(crate) fn planning_job(job: &JobRuntime, now: f64, grid: &SlotGrid) -> PlanningJob {
        PlanningJob {
            id: job.id(),
            curve: job.curve.clone(),
            remaining_iterations: job.remaining_iterations * Self::PLANNING_DERATE,
            deadline_slot: grid.slots_before(job.spec.deadline - now),
        }
    }

    /// Like [`Self::planning_job`] but with part of the deadline window
    /// held back as a safety reserve against scaling pauses and slot
    /// re-anchoring jitter. Used only on the admission path: a job admitted
    /// with zero slack would be guaranteed on paper and lost in practice.
    /// `contention` in `[0, 1]` scales the reserve: churn-induced drift
    /// only materializes on a busy cluster, so an idle cluster admits
    /// borderline jobs at face value.
    pub(crate) fn planning_job_with_reserve(
        job: &JobRuntime,
        now: f64,
        grid: &SlotGrid,
        contention: f64,
    ) -> PlanningJob {
        let window = job.spec.deadline - now;
        // Fixed floor: scaling pauses hit even on an idle cluster.
        // Scaled part: eviction risk under churn grows with booked load.
        let scale = (2.0 * contention).clamp(0.0, 1.0);
        let reserve = (60.0 + (0.04 * window).clamp(45.0, 900.0) * scale).min(0.5 * window);
        PlanningJob {
            id: job.id(),
            curve: job.curve.clone(),
            remaining_iterations: job.remaining_iterations * Self::PLANNING_DERATE,
            deadline_slot: grid.slots_before(window - reserve),
        }
    }

    /// Phase 3 of `plan`: hand leftover GPUs to lapsed-SLO and best-effort
    /// jobs — soft deadlines and §4.4. Lapsed jobs go first in EDF order at
    /// up to their knee; best-effort jobs then receive GPUs by marginal
    /// throughput per GPU, weighted toward short jobs (minimizing JCT).
    fn fill_leftovers(
        plan: &mut SchedulePlan,
        free: &mut u32,
        lapsed: &[&JobRuntime],
        best_effort: &[&JobRuntime],
    ) {
        let mut lapsed: Vec<&&JobRuntime> = lapsed.iter().collect();
        lapsed.sort_by(|a, b| {
            a.spec
                .deadline
                .total_cmp(&b.spec.deadline)
                .then(a.id().cmp(&b.id()))
        });
        for job in lapsed {
            if *free == 0 {
                break;
            }
            let give = clamp_pow2(job.knee(), *free);
            if give > 0 {
                plan.assign(job.id(), give);
                *free -= give;
            }
        }
        // Greedy marginal fill across best-effort jobs, driven by a lazy
        // heap. A candidate's priority depends only on its own job's
        // current grant, so entries never go stale; the budget only
        // shrinks, so a popped entry that exceeds it is discarded for
        // good. Pop order — highest priority, lowest index on ties —
        // matches the linear scan this replaces exactly.
        let mut alloc: Vec<(JobId, u32)> = best_effort.iter().map(|j| (j.id(), 0)).collect();
        // `alloc` mirrors `best_effort` index-for-index.
        let candidate = |idx: usize, cur: u32| -> Option<(f64, u32, u32)> {
            let job = best_effort.get(idx)?;
            let next = if cur == 0 { 1 } else { cur * 2 };
            if next > job.knee() {
                return None;
            }
            let extra = next - cur;
            let gain = job.iters_per_sec(next) - job.iters_per_sec(cur);
            if gain <= 0.0 {
                return None;
            }
            // Favor short jobs: gain per GPU per unit of remaining work.
            let prio = gain / extra as f64 / job.remaining_iterations.max(WORK_EPSILON);
            Some((prio, next, extra))
        };
        // Max-heap key: (priority, Reverse(index)) via the tuple encoding
        // (prio bits are totally ordered through total_cmp's wrapper).
        let mut heap: std::collections::BinaryHeap<BestEffortStep> =
            std::collections::BinaryHeap::new();
        for idx in 0..alloc.len() {
            if let Some((prio, next, extra)) = candidate(idx, 0) {
                heap.push(BestEffortStep {
                    prio,
                    idx,
                    next,
                    extra,
                });
            }
        }
        while let Some(step) = heap.pop() {
            if step.extra > *free {
                continue; // can never fit again: the budget only shrinks
            }
            alloc[step.idx].1 = step.next;
            *free -= step.extra;
            if let Some((prio, next, extra)) = candidate(step.idx, step.next) {
                heap.push(BestEffortStep {
                    prio,
                    idx: step.idx,
                    next,
                    extra,
                });
            }
        }
        for (id, gpus) in alloc {
            if gpus > 0 {
                plan.assign(id, gpus);
            }
        }
    }
}

impl Default for ElasticFlowScheduler {
    fn default() -> Self {
        ElasticFlowScheduler::new()
    }
}

/// The arrival decision shared by ElasticFlow and the EDF+AC ablation.
/// Best-effort jobs always enter (§4.4). An SLO job is checked by
/// progressive filling against the feasible subset of the active SLO
/// jobs, with a deadline-window safety reserve scaled by how heavily the
/// near-term schedule is already booked.
pub(crate) fn arrival_decision(
    job: &JobRuntime,
    now: f64,
    view: &ClusterView,
    jobs: &JobTable,
    planning_slot_seconds: f64,
    scratch: &mut FillScratch,
) -> AdmissionDecision {
    if !job.is_slo() {
        return AdmissionDecision::Admit;
    }
    let grid = anchored_grid(planning_slot_seconds, now);
    let existing: Vec<PlanningJob> = jobs
        .active()
        .filter(|j| j.is_slo())
        .map(|j| ElasticFlowScheduler::planning_job(j, now, &grid))
        .collect();
    // One fill commits the feasible subset; the candidate is then answered
    // incrementally — only the deadline-ordered suffix at or after its
    // insertion point refills, instead of every job from scratch.
    let (set, _lapsed) = AdmissionSet::fill(view.total_gpus, existing, &grid, scratch);
    // Booked load over the next ~hour decides how much slack to demand.
    let horizon = elasticflow_cluster::num::slots_ceil(3_600.0 / grid.rest_seconds())
        .unwrap_or(1)
        .max(1);
    let contention = set.booked_fraction(horizon);
    let candidate = ElasticFlowScheduler::planning_job_with_reserve(job, now, &grid, contention);
    let outcome = set.whatif_admit(&candidate, &grid, scratch);
    let (_, profiles, _) = set.into_parts();
    for profile in profiles {
        scratch.recycle(profile);
    }
    match outcome {
        Ok(()) => AdmissionDecision::Admit,
        Err(denial) => AdmissionDecision::Drop {
            reason: denial.decline_reason(candidate.id),
        },
    }
}

impl Scheduler for ElasticFlowScheduler {
    fn name(&self) -> &str {
        "elasticflow"
    }

    fn on_job_arrival(
        &mut self,
        job: &JobRuntime,
        now: f64,
        view: &ClusterView,
        jobs: &JobTable,
    ) -> AdmissionDecision {
        arrival_decision(
            job,
            now,
            view,
            jobs,
            self.planning_slot_seconds,
            &mut self.workspace,
        )
    }

    fn plan(&mut self, now: f64, view: &ClusterView, jobs: &JobTable) -> SchedulePlan {
        let grid = anchored_grid(self.planning_slot_seconds, now);
        let slo: Vec<&JobRuntime> = jobs.active().filter(|j| j.is_slo()).collect();
        let planning: Vec<PlanningJob> = slo
            .iter()
            .map(|j| Self::planning_job(j, now, &grid))
            .collect();
        let incumbents: std::collections::BTreeMap<JobId, u32> = slo
            .iter()
            .filter(|j| j.current_gpus > 0)
            .map(|j| (j.id(), j.current_gpus))
            .collect();
        // Stage 1: minimum satisfactory shares of the feasible SLO set.
        let allocator = ResourceAllocator::new(view.total_gpus);
        let (mut profiles, infeasible, mut ledger) =
            allocator.minimum_shares(&planning, &grid, &mut self.workspace);
        let mut plan = SchedulePlan::new();
        for (&id, profile) in &profiles {
            if profile.gpus(0) > 0 {
                plan.assign(id, profile.gpus(0));
            }
        }
        let mut free = view.total_gpus - plan.total_gpus();
        // Stage 2 (§4.4): lapsed (soft-deadline) and best-effort jobs are
        // served right after the minimum shares, before surplus boosts.
        // Lapsed hard-deadline jobs and soft-deadline jobs share the
        // leftover queue (paper §4.4: soft deadlines are scheduled after
        // the admitted jobs' minimum satisfactory shares, EDF-ordered).
        let mut lapsed: Vec<&JobRuntime> = slo
            .iter()
            .copied()
            .filter(|j| infeasible.contains(&j.id()))
            .collect();
        lapsed.extend(
            jobs.active()
                .filter(|j| j.spec.kind == elasticflow_trace::JobKind::SoftDeadline),
        );
        let best_effort: Vec<&JobRuntime> = jobs
            .active()
            .filter(|j| j.spec.kind == elasticflow_trace::JobKind::BestEffort)
            .collect();
        Self::fill_leftovers(&mut plan, &mut free, &lapsed, &best_effort);
        // Stage 3: remaining GPUs go to the feasible SLO jobs by marginal
        // return (Algorithm 2's greedy boost phase).
        let granted = allocator.boost(
            &planning,
            &grid,
            &mut profiles,
            &mut ledger,
            free,
            &incumbents,
            &mut self.workspace,
        );
        free -= granted;
        for (&id, profile) in &profiles {
            if profile.gpus(0) > plan.gpus(id) {
                plan.assign(id, profile.gpus(0));
            }
        }
        // Anti-churn hysteresis: never *shrink* a job while GPUs would sit
        // idle. Shrinking below the planned profile can only make a job
        // finish earlier than planned was assuming, so topping back up to
        // the current size is always guarantee-safe, and it avoids paying a
        // checkpoint/restore pause just to idle the difference.
        for job in jobs.active() {
            if free == 0 {
                break;
            }
            let assigned = plan.gpus(job.id());
            let current = job
                .current_gpus
                .min(job.curve.clamp_useful(view.total_gpus));
            if current > assigned && current - assigned <= free {
                plan.assign(job.id(), current);
                free -= current - assigned;
            }
        }
        // Always-on fast path; the `audit` feature adds the full
        // reservation-soundness check of the guarantee invariants. This
        // check stays at plan time (it needs planner internals — profiles,
        // the reservation ledger — that never leave this function); the
        // *structural* cluster audit runs downstream in the simulator's
        // observer chain (`elasticflow-sim`'s `InvariantAuditor`, a
        // `SimObserver` hooked on every replan).
        debug_assert!(plan.total_gpus() <= view.total_gpus);
        #[cfg(feature = "audit")]
        crate::audit::check_plan(&planning, &profiles, &ledger, &plan, &grid, view.total_gpus);
        for profile in profiles.into_values() {
            self.workspace.recycle(profile);
        }
        plan
    }

    fn snapshot_state(&self) -> Option<String> {
        let state = ElasticFlowState {
            planning_slot_seconds: self.planning_slot_seconds,
        };
        serde_json::to_string(&state).ok()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), RestoreError> {
        let parsed: ElasticFlowState = serde_json::from_str(state)
            .map_err(|e| RestoreError::new(format!("elasticflow state did not parse: {e}")))?;
        if !(parsed.planning_slot_seconds.is_finite() && parsed.planning_slot_seconds > 0.0) {
            return Err(RestoreError::new(
                "planning slot must be positive and finite",
            ));
        }
        self.planning_slot_seconds = parsed.planning_slot_seconds;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
    use elasticflow_sched::DeclineReason;
    use elasticflow_trace::JobSpec;

    fn runtime(id: u64, now_deadline: Option<f64>, iterations: f64) -> JobRuntime {
        let curve = ScalingCurve::build(DnnModel::ResNet50, 128, &Interconnect::paper_testbed());
        let mut b = JobSpec::builder(JobId::new(id), DnnModel::ResNet50, 128)
            .iterations(iterations)
            .submit_time(0.0)
            .trace_shape(4, 3_600.0);
        if let Some(d) = now_deadline {
            b = b.deadline(d);
        }
        let mut rt = JobRuntime::new(b.build(), curve);
        rt.admitted = true;
        rt
    }

    fn work_for(seconds: f64, gpus: u32) -> f64 {
        let curve = ScalingCurve::build(DnnModel::ResNet50, 128, &Interconnect::paper_testbed());
        seconds * curve.iters_per_sec(gpus).unwrap()
    }

    #[test]
    fn hopeless_deadline_is_dropped() {
        let mut ef = ElasticFlowScheduler::new();
        let jobs = JobTable::new();
        // More work than the knee can do before the deadline.
        let job = runtime(1, Some(1_300.0), work_for(40_000.0, 8));
        let d = ef.on_job_arrival(&job, 0.0, &ClusterView::new(16), &jobs);
        // On an empty cluster the fill fails at the candidate itself,
        // and the decline says so with a positive shortfall.
        match d {
            AdmissionDecision::Drop {
                reason: DeclineReason::CandidateInfeasible { shortfall },
            } => {
                assert!(shortfall.shortfall_gpu_slots() > 0.0, "{shortfall:?}");
            }
            other => panic!("expected CandidateInfeasible drop, got {other:?}"),
        }
    }

    #[test]
    fn feasible_job_is_admitted_and_scheduled() {
        let mut ef = ElasticFlowScheduler::new();
        let mut jobs = JobTable::new();
        let job = runtime(1, Some(36_000.0), work_for(3_600.0, 1));
        let d = ef.on_job_arrival(&job, 0.0, &ClusterView::new(16), &jobs);
        assert_eq!(d, AdmissionDecision::Admit);
        jobs.insert(job);
        let plan = ef.plan(0.0, &ClusterView::new(16), &jobs);
        assert!(plan.gpus(JobId::new(1)) >= 1);
    }

    #[test]
    fn best_effort_always_admitted() {
        let mut ef = ElasticFlowScheduler::new();
        let jobs = JobTable::new();
        let job = runtime(1, None, 1.0e9);
        assert_eq!(
            ef.on_job_arrival(&job, 0.0, &ClusterView::new(16), &jobs),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn leftover_gpus_flow_to_best_effort() {
        let mut ef = ElasticFlowScheduler::new();
        let mut jobs = JobTable::new();
        // An SLO job with a loose deadline (small MSS)…
        jobs.insert(runtime(1, Some(86_400.0), work_for(1_200.0, 1)));
        // …and a best-effort job.
        jobs.insert(runtime(2, None, work_for(20_000.0, 1)));
        let plan = ef.plan(0.0, &ClusterView::new(16), &jobs);
        assert!(plan.gpus(JobId::new(2)) > 0, "{plan:?}");
        assert!(plan.total_gpus() <= 16);
    }

    #[test]
    fn slo_jobs_keep_their_guarantee_under_best_effort_load() {
        let mut ef = ElasticFlowScheduler::new();
        let mut jobs = JobTable::new();
        // SLO job with a tight-ish deadline.
        jobs.insert(runtime(1, Some(2_600.0), work_for(2_400.0, 2)));
        for i in 2..6 {
            jobs.insert(runtime(i, None, 1.0e7));
        }
        let plan = ef.plan(0.0, &ClusterView::new(16), &jobs);
        // The SLO job's MSS (>= 2 GPUs) is reserved before best-effort fill.
        assert!(plan.gpus(JobId::new(1)) >= 2, "{plan:?}");
    }

    #[test]
    fn plan_is_deterministic() {
        let mut ef = ElasticFlowScheduler::new();
        let mut jobs = JobTable::new();
        for i in 0..6 {
            jobs.insert(runtime(
                i,
                Some(10_000.0 + 500.0 * i as f64),
                work_for(3_000.0, 2),
            ));
        }
        let a = ef.plan(0.0, &ClusterView::new(32), &jobs);
        let b = ef.plan(0.0, &ClusterView::new(32), &jobs);
        assert_eq!(a, b);
    }

    #[test]
    fn admission_considers_existing_commitments() {
        let mut ef = ElasticFlowScheduler::new();
        let mut jobs = JobTable::new();
        // Fill the cluster with admitted tight jobs.
        for i in 0..4 {
            jobs.insert(runtime(i, Some(3_700.0), work_for(3_500.0, 4)));
        }
        // A newcomer with the same tightness cannot fit on 16 GPUs.
        let newcomer = runtime(99, Some(3_700.0), work_for(3_500.0, 4));
        let d = ef.on_job_arrival(&newcomer, 0.0, &ClusterView::new(16), &jobs);
        assert!(matches!(d, AdmissionDecision::Drop { .. }), "{d:?}");
    }

    #[test]
    fn restore_state_rejects_a_bad_planning_slot_and_accepts_its_own_state() {
        let mut ef = ElasticFlowScheduler::new();
        for bad in ["0.0", "-60.0"] {
            let state = format!("{{\"planning_slot_seconds\":{bad}}}");
            let err = ef.restore_state(&state).expect_err(&state);
            assert!(err.reason().contains("positive and finite"), "{err}");
        }
        assert_eq!(
            ef,
            ElasticFlowScheduler::new(),
            "a rejected state was applied"
        );
        let tuned = ElasticFlowScheduler::new().with_planning_slot(300.0);
        let state = tuned.snapshot_state().expect("elasticflow is stateful");
        ef.restore_state(&state).expect("own state restores");
        assert_eq!(ef, tuned);
    }
}
