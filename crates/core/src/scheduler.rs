//! The ElasticFlow scheduler: admission control + elastic allocation +
//! best-effort extension, packaged behind the simulator-facing trait.

use std::collections::BinaryHeap;

use elasticflow_sched::{
    clamp_pow2, AdmissionDecision, ClusterView, JobRuntime, JobTable, RestoreError, SchedulePlan,
    Scheduler,
};
use elasticflow_trace::{JobId, JobKind};
use serde::{Deserialize, Serialize};

use crate::admission::fill_key;
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
/// heap: grow the job at position `pos` of the round's active jobs to
/// `next` workers for `extra` more GPUs. Ordered by priority, then
/// *lowest* position, i.e. lowest id (the tie the linear scan broke by
/// scanning order); at most one entry per job exists at a time, so the
/// order is total.
#[derive(Debug)]
pub(crate) struct BestEffortStep {
    prio: f64,
    pos: usize,
    next: u32,
    extra: u32,
}

impl BestEffortStep {
    /// The next ladder step of best-effort `job` (at position `pos`)
    /// from `cur` workers, or `None` past its knee or without gain.
    fn of(job: &JobRuntime, pos: usize, cur: u32) -> Option<Self> {
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
        Some(BestEffortStep {
            prio,
            pos,
            next,
            extra,
        })
    }
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
            .then(other.pos.cmp(&self.pos))
    }
}

/// `plan`'s per-round vectors, kept in the [`FillScratch`] between
/// rounds and empty whenever no round runs. A position indexes the
/// round's active jobs in ascending id order (`JobTable::active`); the
/// job itself is looked up by id, so nothing here borrows the table.
#[derive(Debug, Default)]
pub(crate) struct PlanBuffers {
    /// Ids of the active jobs, ascending.
    active: Vec<JobId>,
    /// Planned GPUs per active job, index-aligned with `active`.
    grants: Vec<u32>,
    /// Running sizes of the feasible SLO jobs, in fill order.
    incumbents: Vec<u32>,
    /// The leftover queue: lapsed SLO and soft-deadline jobs as
    /// (deadline, position).
    lapsed: Vec<(f64, usize)>,
    /// The best-effort marginal-fill heap.
    steps: BinaryHeap<BestEffortStep>,
}

impl PlanBuffers {
    /// Position of active job `id`. Every job a round plans is active,
    /// so the search hits; a miss is a bug, reported in debug builds.
    fn position(&self, id: JobId) -> Option<usize> {
        let found = self.active.binary_search(&id).ok();
        debug_assert!(found.is_some(), "planned job {id} is not active");
        found
    }

    /// Phase 3 of `plan`: hand leftover GPUs to lapsed-SLO and
    /// best-effort jobs — soft deadlines and §4.4. Lapsed jobs go first
    /// in EDF order at up to their knee; best-effort jobs then receive
    /// GPUs by marginal throughput per GPU, weighted toward short jobs
    /// (minimizing JCT). `steps` holds each best-effort job's first step.
    fn fill_leftovers(&mut self, jobs: &JobTable, free: &mut u32) {
        // Deadline order, ties by id (positions ascend with ids).
        self.lapsed
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for &(_, pos) in &self.lapsed {
            if *free == 0 {
                break;
            }
            let Some(job) = jobs.get(self.active[pos]) else {
                continue;
            };
            let give = clamp_pow2(job.knee(), *free);
            if give > 0 {
                self.grants[pos] = give;
                *free -= give;
            }
        }
        // Greedy marginal fill across best-effort jobs, driven by a lazy
        // heap. A candidate's priority depends only on its own job's
        // current grant, so entries never go stale; the budget only
        // shrinks, so a popped entry that exceeds it is discarded for
        // good. Pop order — highest priority, lowest position on ties —
        // matches the linear scan this replaces exactly.
        while let Some(step) = self.steps.pop() {
            if step.extra > *free {
                continue; // can never fit again: the budget only shrinks
            }
            self.grants[step.pos] = step.next;
            *free -= step.extra;
            let next = jobs
                .get(self.active[step.pos])
                .and_then(|job| BestEffortStep::of(job, step.pos, step.next));
            self.steps.extend(next);
        }
    }

    /// Empties every vector, keeping its capacity.
    fn clear(&mut self) {
        self.active.clear();
        self.grants.clear();
        self.incumbents.clear();
        self.lapsed.clear();
        self.steps.clear();
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
    /// The last arrival's Algorithm 1 fill, for the round's next fill.
    /// Workspace too, under the same rule.
    kept: KeptFill,
}

/// An arrival's Algorithm 1 fill of the active SLO jobs plus the
/// admitted newcomer's planning view, kept for the round's next fill
/// (its `plan` or next arrival), keyed by the bits of `now`. It is kept
/// only while it equals a from-scratch fill — the fill lapsed nothing
/// and every admit succeeded — and used only at the same instant and
/// cluster size, over planning views equal to its jobs (DESIGN §10.3).
#[derive(Debug, Default)]
pub(crate) struct KeptFill(Option<(u64, AdmissionSet)>);

/// A clone starts without a kept fill, as with the workspace.
impl Clone for KeptFill {
    fn clone(&self) -> Self {
        KeptFill::default()
    }
}

impl KeptFill {
    /// Algorithm 1's fill of `jobs` at `now` on `total_gpus` GPUs, and
    /// the ids it lapsed: the kept set when it is exactly that fill, a
    /// from-scratch fill otherwise. Nothing stays kept either way.
    fn fill(
        &mut self,
        now: f64,
        total_gpus: u32,
        mut jobs: Vec<PlanningJob>,
        grid: &SlotGrid,
        scratch: &mut FillScratch,
    ) -> (AdmissionSet, Vec<JobId>) {
        // Ids are unique, so an unstable sort orders like a stable one.
        jobs.sort_unstable_by_key(fill_key);
        match self.0.take() {
            Some((at, set)) if at == now.to_bits() && set.is_fill_of(total_gpus, &jobs) => {
                scratch.counters.fills_reused += 1;
                #[cfg(debug_assertions)]
                {
                    // The reuse argument, checked on every debug run: a
                    // from-scratch fill builds the same set. Its fills stay
                    // out of the work counters.
                    let counted = scratch.counters;
                    let (fresh, lapsed) =
                        AdmissionSet::fill(total_gpus, jobs.clone(), grid, scratch);
                    debug_assert!(lapsed.is_empty());
                    debug_assert_eq!(fresh.jobs(), set.jobs());
                    debug_assert_eq!(fresh.plan(), set.plan());
                    debug_assert_eq!(fresh.ledger(), set.ledger());
                    fresh.recycle(scratch);
                    scratch.counters = counted;
                }
                scratch.jobs.give(jobs);
                return (set, Vec::new());
            }
            Some((_, stale)) => stale.recycle(scratch),
            None => {}
        }
        AdmissionSet::fill(total_gpus, jobs, grid, scratch)
    }
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
            kept: KeptFill::default(),
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
///
/// With `kept`, the fill of the active SLO jobs comes from (and goes
/// back to) the round's kept fill: ElasticFlow's `plan` and the round's
/// next arrival reuse it. An admitted job's planning view — without the
/// reserve, as `plan` sees it — is then admitted into the kept set.
pub(crate) fn arrival_decision(
    job: &JobRuntime,
    now: f64,
    view: &ClusterView,
    jobs: &JobTable,
    planning_slot_seconds: f64,
    scratch: &mut FillScratch,
    mut kept: Option<&mut KeptFill>,
) -> AdmissionDecision {
    if !job.is_slo() {
        return AdmissionDecision::Admit;
    }
    let grid = anchored_grid(planning_slot_seconds, now);
    let mut existing = scratch.jobs.take();
    existing.extend(
        jobs.active()
            .filter(|j| j.is_slo())
            .map(|j| ElasticFlowScheduler::planning_job(j, now, &grid)),
    );
    // One fill commits the feasible subset; the candidate is then answered
    // incrementally — only the deadline-ordered suffix at or after its
    // insertion point refills, instead of every job from scratch.
    let (mut set, lapsed) = match kept.as_deref_mut() {
        Some(kept) => kept.fill(now, view.total_gpus, existing, &grid, scratch),
        None => AdmissionSet::fill(view.total_gpus, existing, &grid, scratch),
    };
    // Booked load over the next ~hour decides how much slack to demand.
    let horizon = elasticflow_cluster::num::slots_ceil(3_600.0 / grid.rest_seconds())
        .unwrap_or(1)
        .max(1);
    let contention = set.booked_fraction(horizon);
    let candidate = ElasticFlowScheduler::planning_job_with_reserve(job, now, &grid, contention);
    let outcome = set.whatif_admit(&candidate, &grid, scratch);
    // The set stays exact — what a from-scratch fill of the next views
    // builds — while its fill lapsed nothing and every admit succeeds.
    let exact = kept.is_some()
        && lapsed.is_empty()
        && (outcome.is_err() || {
            let plain = ElasticFlowScheduler::planning_job(job, now, &grid);
            set.admit(plain, &grid, scratch).is_ok()
        });
    scratch.lapsed.give(lapsed);
    match kept {
        Some(kept) if exact => kept.0 = Some((now.to_bits(), set)),
        _ => set.recycle(scratch),
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
            Some(&mut self.kept),
        )
    }

    fn plan(&mut self, now: f64, view: &ClusterView, jobs: &JobTable) -> SchedulePlan {
        let grid = anchored_grid(self.planning_slot_seconds, now);
        let ws = &mut self.workspace;
        let mut round = std::mem::take(&mut ws.round);
        // One pass over the active jobs in id order: the SLO jobs'
        // planning views, the soft-deadline jobs for the leftover queue,
        // and each best-effort job's first ladder step.
        let mut planning = ws.jobs.take();
        for (pos, job) in jobs.active().enumerate() {
            round.active.push(job.id());
            match job.spec.kind {
                JobKind::Slo => planning.push(Self::planning_job(job, now, &grid)),
                JobKind::SoftDeadline => round.lapsed.push((job.spec.deadline, pos)),
                JobKind::BestEffort => round.steps.extend(BestEffortStep::of(job, pos, 0)),
            }
        }
        round.grants.resize(round.active.len(), 0);
        // Stage 1: minimum satisfactory shares of the feasible SLO set, in
        // fill order, with each job's running size index-aligned; lapsed
        // jobs surface for fallback. After an arrival at this instant the
        // fill is usually the one it kept.
        let (mut set, infeasible) = self.kept.fill(now, view.total_gpus, planning, &grid, ws);
        let (feasible, profiles, ledger) = set.parts_mut();
        round.incumbents.extend(
            feasible
                .iter()
                .map(|j| jobs.get(j.id).map_or(0, |rt| rt.current_gpus)),
        );
        let mut free = view.total_gpus - profiles.iter().map(|p| p.gpus(0)).sum::<u32>();
        // Stage 2 (§4.4): lapsed (soft-deadline) and best-effort jobs are
        // served right after the minimum shares, before surplus boosts.
        // Lapsed hard-deadline jobs and soft-deadline jobs share the
        // leftover queue (paper §4.4: soft deadlines are scheduled after
        // the admitted jobs' minimum satisfactory shares, EDF-ordered).
        for &id in &infeasible {
            if let (Some(pos), Some(job)) = (round.position(id), jobs.get(id)) {
                round.lapsed.push((job.spec.deadline, pos));
            }
        }
        ws.lapsed.give(infeasible);
        round.fill_leftovers(jobs, &mut free);
        // Stage 3: remaining GPUs go to the feasible SLO jobs by marginal
        // return (Algorithm 2's greedy boost phase).
        let allocator = ResourceAllocator::new(view.total_gpus);
        free -= allocator.boost(
            feasible,
            &grid,
            profiles,
            ledger,
            free,
            &round.incumbents,
            ws,
        );
        // A feasible job's grant is its profile's slot 0: the minimum
        // share, raised by any boost (boosts only ever raise slot 0).
        for (job, profile) in feasible.iter().zip(profiles.iter()) {
            if let Some(pos) = round.position(job.id) {
                round.grants[pos] = profile.gpus(0);
            }
        }
        // Anti-churn hysteresis: never *shrink* a job while GPUs would sit
        // idle. Shrinking below the planned profile can only make a job
        // finish earlier than planned was assuming, so topping back up to
        // the current size is always guarantee-safe, and it avoids paying a
        // checkpoint/restore pause just to idle the difference.
        for (assigned, job) in round.grants.iter_mut().zip(jobs.active()) {
            if free == 0 {
                break;
            }
            let current = job
                .current_gpus
                .min(job.curve.clamp_useful(view.total_gpus));
            if current > *assigned && current - *assigned <= free {
                free -= current - *assigned;
                *assigned = current;
            }
        }
        let plan: SchedulePlan = round
            .active
            .iter()
            .zip(&round.grants)
            .filter(|&(_, &gpus)| gpus > 0)
            .map(|(&id, &gpus)| (id, gpus))
            .collect();
        // Always-on fast path; the `audit` feature adds the full
        // reservation-soundness check of the guarantee invariants. This
        // check stays at plan time (it needs planner internals — profiles,
        // the reservation ledger — that never leave this function); the
        // *structural* cluster audit runs downstream in the simulator's
        // observer chain (`elasticflow-sim`'s `InvariantAuditor`, a
        // `SimObserver` hooked on every replan).
        debug_assert!(plan.total_gpus() <= view.total_gpus);
        #[cfg(feature = "audit")]
        crate::audit::check_plan(feasible, profiles, ledger, &plan, &grid, view.total_gpus);
        set.recycle(ws);
        round.clear();
        ws.round = round;
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
        self.kept = KeptFill::default();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FillCounters;
    use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
    use elasticflow_sched::DeclineReason;
    use elasticflow_trace::{JobSpec, Rng};

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

    /// The planner's work counters on a fixed job table on 1,024 GPUs: 24
    /// admitted SLO jobs on large-batch curves (knees of 8 and 128 GPUs)
    /// with staggered deadlines and some incumbents, plus four best-effort
    /// jobs on Table-1 curves, planned at three times. The reservations
    /// crowd some slots, so the fills meet booked, partial and headroom
    /// slots, and the boost revalidates stale entries. The counters are a
    /// pure function of the fills `plan` asks for, so a change that moves
    /// one of them changes how much work a planning round does.
    #[test]
    fn plan_work_counters_are_pinned_on_a_fixed_table() {
        let net = Interconnect::paper_testbed();
        let curves: Vec<(DnnModel, ScalingCurve)> = elasticflow_perfmodel::PAPER_TABLE1
            .iter()
            .flat_map(|&(model, batches)| batches.iter().map(move |&b| (model, b)))
            .flat_map(|(model, b)| [(model, b), (model, b * 16)])
            .map(|(model, b)| (model, ScalingCurve::build(model, b, &net)))
            .collect();
        let mut jobs = JobTable::new();
        for i in 0..28u64 {
            let slo = i < 24;
            // SLO jobs take the large-batch curves, best-effort jobs the rest.
            let (model, curve) = &curves[(i as usize * 2 + usize::from(slo)) % curves.len()];
            let seconds = 1_800.0 + 700.0 * (i % 9) as f64;
            let gpus = (16 << (i % 4)).min(curve.knee());
            let iterations = seconds * curve.iters_per_sec(gpus).unwrap();
            let mut b = JobSpec::builder(JobId::new(i), *model, curve.global_batch())
                .iterations(iterations)
                .trace_shape(gpus, seconds);
            if slo {
                b = b.deadline(seconds * (1.1 + 0.15 * (i % 5) as f64));
            }
            let mut rt = JobRuntime::new(b.build(), curve.clone());
            rt.admitted = true;
            rt.current_gpus = if i % 3 == 0 { gpus } else { 0 };
            jobs.insert(rt);
        }
        let mut ef = ElasticFlowScheduler::new();
        let view = ClusterView::new(1_024);
        for now in [0.0, 450.0, 1_234.5] {
            ef.plan(now, &view, &jobs);
        }
        assert_eq!(
            ef.workspace.counters(),
            FillCounters {
                probes: 567,
                pruned_entry: 373,
                pruned_walk: 1,
                pruned_pinned: 102,
                booked_slots: 48,
                headroom_slots: 6665,
                partial_slots: 28,
                failed_slots: 255,
                tail_steps: 512,
                hinted_fills: 0,
                revalidated_boosts: 5,
                boost_candidates: 22,
                boosts_applied: 4,
                fills_reused: 0,
            }
        );
    }

    /// What [`kept_fill_plans_equal_from_scratch_plans`] covered.
    #[derive(Debug, Default)]
    struct Coverage {
        admitted: usize,
        declined: usize,
        plain_admit_failed: usize,
        lapsed_fills: usize,
        second_arrivals: usize,
        moved_plans: usize,
        progressed_jobs: usize,
    }

    /// A random job for the kept-fill test: SLO (its deadline sometimes
    /// already out of reach), best-effort or soft-deadline, part done,
    /// with or without an incumbent size.
    fn random_job(rng: &mut Rng, id: u64, now: f64, kind: usize) -> JobRuntime {
        let net = Interconnect::paper_testbed();
        let (model, batch) = [
            (DnnModel::ResNet50, 256),
            (DnnModel::Vgg16, 128),
            (DnnModel::Bert, 128),
            (DnnModel::Gpt2, 256),
        ][rng.uniform_usize(4)];
        let curve = ScalingCurve::build(model, batch, &net);
        let gpus = (1u32 << rng.uniform_usize(5)).min(curve.knee());
        let seconds = rng.uniform_range(300.0, 4_000.0);
        let iterations = seconds * curve.rate(gpus);
        let window = seconds * rng.uniform_range(0.6, 3.0);
        let b = JobSpec::builder(JobId::new(id), model, batch)
            .iterations(iterations)
            .trace_shape(gpus, seconds);
        let b = match kind {
            0 => b.deadline(now + window),
            1 => b.soft_deadline(now + window),
            _ => b,
        };
        let mut rt = JobRuntime::new(b.build(), curve);
        rt.remaining_iterations = iterations * rng.uniform_range(0.3, 1.0);
        rt.current_gpus = if rng.uniform() < 0.5 { gpus } else { 0 };
        rt
    }

    /// Runs one arrival through `ef` and through a clone of it (which
    /// starts without a kept fill), checks that both decide alike, and
    /// records what the arrival covered. Admitted jobs join the table.
    fn arrive(
        ef: &mut ElasticFlowScheduler,
        job: JobRuntime,
        now: f64,
        view: &ClusterView,
        jobs: &mut JobTable,
        seen: &mut Coverage,
    ) {
        let grid = anchored_grid(ef.planning_slot_seconds, now);
        let existing: Vec<PlanningJob> = jobs
            .active()
            .filter(|j| j.is_slo())
            .map(|j| ElasticFlowScheduler::planning_job(j, now, &grid))
            .collect();
        let (_, lapsed) =
            AdmissionSet::fill(view.total_gpus, existing, &grid, &mut FillScratch::new());
        let mut twin = ef.clone();
        let decision = ef.on_job_arrival(&job, now, view, jobs);
        assert_eq!(decision, twin.on_job_arrival(&job, now, view, jobs));
        if !job.is_slo() {
            return;
        }
        seen.lapsed_fills += usize::from(!lapsed.is_empty());
        if decision == AdmissionDecision::Admit {
            seen.admitted += 1;
            seen.plain_admit_failed += usize::from(lapsed.is_empty() && ef.kept.0.is_none());
            let mut job = job;
            job.admitted = true;
            jobs.insert(job);
        } else {
            seen.declined += 1;
        }
    }

    /// The kept fill is exact: on random tables, a plan after one or two
    /// arrivals at the same instant equals the plan of a clone taken
    /// just before it, which starts without a kept fill and so fills
    /// from scratch. The cases cover admitted and declined arrivals, an
    /// admitted job whose reserve-free view does not fit the kept set,
    /// tables whose fill lapses a job, plans at a later instant, and a
    /// job whose remaining work changed before the plan. One scheduler
    /// plans every table, so its workspace buffers carry contents from
    /// larger, smaller and different earlier tables, and must not leak
    /// them into the next one.
    #[test]
    fn kept_fill_plans_equal_from_scratch_plans() {
        let mut rng = Rng::new(0x6b65_7074);
        let mut seen = Coverage::default();
        let mut ef = ElasticFlowScheduler::new();
        for _ in 0..1_000 {
            let view = ClusterView::new([8, 16, 32][rng.uniform_usize(3)]);
            let now = rng.uniform_range(0.0, 3_600.0);
            let mut jobs = JobTable::new();
            let n = 2 + rng.uniform_usize(12) as u64;
            for id in 0..n {
                let kind = rng.weighted_choice(&[0.7, 0.15, 0.15]);
                let mut rt = random_job(&mut rng, id, now, kind);
                rt.admitted = true;
                jobs.insert(rt);
            }
            let arrivals = 1 + rng.uniform_usize(2) as u64;
            seen.second_arrivals += usize::from(arrivals == 2);
            for id in n..n + arrivals {
                let kind = rng.weighted_choice(&[0.9, 0.1]) * 2;
                let job = random_job(&mut rng, id, now, kind);
                arrive(&mut ef, job, now, &view, &mut jobs, &mut seen);
            }
            let at = if rng.uniform() < 0.25 {
                seen.moved_plans += 1;
                now + rng.uniform_range(0.1, 120.0)
            } else {
                now
            };
            // Work done between the arrivals and the plan changes a view.
            if rng.uniform() < 0.15 {
                let id = jobs.active().find(|j| j.is_slo()).map(JobRuntime::id);
                if let Some(job) = id.and_then(|id| jobs.get_mut(id)) {
                    seen.progressed_jobs += 1;
                    job.remaining_iterations *= 0.5;
                }
            }
            let mut twin = ef.clone();
            assert_eq!(ef.plan(at, &view, &jobs), twin.plan(at, &view, &jobs));
            assert_eq!(twin.workspace.counters().fills_reused, 0);
        }
        assert!(
            ef.workspace.counters().fills_reused > 0,
            "no fill was reused"
        );
        assert!(
            seen.admitted > 0
                && seen.declined > 0
                && seen.plain_admit_failed > 0
                && seen.lapsed_fills > 0
                && seen.second_arrivals > 0
                && seen.moved_plans > 0
                && seen.progressed_jobs > 0,
            "{seen:?}"
        );
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
