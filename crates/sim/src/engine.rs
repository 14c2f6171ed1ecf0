//! The simulation engine: a thin orchestrator over the layered simulator.
//!
//! The engine composes four layers, each owning one concern:
//!
//! * [`crate::event`] — the deterministic event core: typed [`Event`]s,
//!   next-event selection, `EPS_TIME` batching;
//! * [`crate::executor`] — the elastic training executor: the only code
//!   that mutates cluster/job state (plan application, iteration
//!   advancement, pause/GPU-second charging, failure fencing);
//! * [`crate::driver`] — the scheduler driver: mediates [`Scheduler`]
//!   trait calls and validates every plan;
//! * [`crate::observer`] — pluggable [`SimObserver`]s: the timeline
//!   collector (always on, feeds the report), the invariant auditor
//!   (every debug build), and any user-attached observers.
//!
//! Replay is deterministic by construction: the loop body is a fixed
//! sequence of layer calls, observers are read-only, and every container
//! on the path iterates in a stable order.

use elasticflow_cluster::ClusterSpec;
use elasticflow_sched::Scheduler;
use elasticflow_trace::Trace;

use crate::driver::SchedulerDriver;
use crate::event::{Event, EventCore};
use crate::executor::Executor;
use crate::observer::{PhaseEdge, SchedPhase, SimContext, SimObserver, TimelineCollector};
use crate::snapshot::{fingerprint_json, Fnv1a64, ResumeError, SimSnapshot, SIM_SNAPSHOT_VERSION};
use crate::{SimConfig, SimReport};

/// Fans one phase edge out to the whole observer chain.
fn emit_phase(
    chain: &mut [&mut dyn SimObserver],
    now: f64,
    phase: SchedPhase,
    edge: PhaseEdge,
    ctx: &SimContext<'_>,
) {
    for obs in chain.iter_mut() {
        obs.on_phase(now, phase, edge, ctx);
    }
}

/// Fans a batch of decision records out to the whole observer chain, in
/// record order.
fn emit_decisions(
    chain: &mut [&mut dyn SimObserver],
    now: f64,
    decisions: &[elasticflow_sched::DecisionRecord],
    ctx: &SimContext<'_>,
) {
    for decision in decisions {
        for obs in chain.iter_mut() {
            obs.on_decision(now, decision, ctx);
        }
    }
}

/// What the engine should do after the round a [`SimController`] was just
/// consulted about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunDirective {
    /// Keep running (the default).
    #[default]
    Continue,
    /// Capture a [`SimSnapshot`] of the round boundary and hand it to
    /// [`SimController::on_snapshot`], then keep running.
    Checkpoint,
    /// Stop the run at this round boundary (simulated crash or graceful
    /// early stop); the returned outcome has `completed == false`.
    Stop,
    /// Capture a snapshot, then stop.
    CheckpointThenStop,
}

/// Control seam consulted once per event-loop round, after the round is
/// fully applied and observers have seen it.
///
/// Controllers drive *when* durable state is taken and whether the run
/// stops early; they cannot mutate simulation state, so — like observers —
/// attaching one never perturbs replay arithmetic. `elasticflow-persist`
/// builds its checkpointer on this seam.
pub trait SimController {
    /// Decides what happens after round `round` (1-based) at simulated
    /// time `now`. Defaults to [`RunDirective::Continue`].
    fn directive(&mut self, _now: f64, _round: u64) -> RunDirective {
        RunDirective::Continue
    }

    /// Receives the snapshot requested via [`RunDirective::Checkpoint`] or
    /// [`RunDirective::CheckpointThenStop`].
    fn on_snapshot(&mut self, _snapshot: SimSnapshot) {}
}

/// The no-op controller behind the plain run paths.
#[derive(Debug, Clone, Copy, Default)]
struct FreeRun;

impl SimController for FreeRun {}

/// Outcome of a controlled (or resumed) run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// The report assembled from the state at stop time. For an early stop
    /// this is a partial report (unfinished jobs show no finish time).
    pub report: SimReport,
    /// `false` when a [`SimController`] stopped the run before the event
    /// loop drained.
    pub completed: bool,
    /// Event-loop rounds executed in total (including rounds replayed
    /// into the snapshot on a resumed run).
    pub rounds: u64,
}

/// A configured simulation, ready to replay traces against schedulers.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Simulation {
    spec: ClusterSpec,
    config: SimConfig,
}

impl Simulation {
    /// Creates a simulation over the given cluster.
    pub fn new(spec: ClusterSpec, config: SimConfig) -> Self {
        Simulation { spec, config }
    }

    /// The cluster specification.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Replays `trace` against `scheduler` and returns the full report.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler emits an invalid plan (non-power-of-two
    /// counts are rejected by [`elasticflow_sched::SchedulePlan`]; a plan
    /// exceeding the cluster size is rejected by the scheduler driver).
    pub fn run(&self, trace: &Trace, scheduler: &mut dyn Scheduler) -> SimReport {
        self.run_observed(trace, scheduler, &mut [])
    }

    /// Like [`Simulation::run`], with [`SimObserver`]s attached.
    ///
    /// Observers are read-only and cannot perturb the replay: the returned
    /// report is byte-identical whatever combination is attached. Debug
    /// builds also attach the structural `InvariantAuditor` (see
    /// `crate::audit`) ahead of `observers`.
    ///
    /// # Panics
    ///
    /// Same contract as [`Simulation::run`].
    pub fn run_observed(
        &self,
        trace: &Trace,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) -> SimReport {
        self.run_controlled(trace, scheduler, observers, &mut FreeRun)
            .report
    }

    /// Like [`Simulation::run_observed`], with a [`SimController`] consulted
    /// at every round boundary — the checkpoint/early-stop seam.
    ///
    /// Controllers are consulted *after* each round is applied and observed,
    /// so a requested [`SimSnapshot`] is always a consistent cut; resuming
    /// it with [`Simulation::resume_controlled`] continues bit-identically.
    ///
    /// # Panics
    ///
    /// Same contract as [`Simulation::run`].
    pub fn run_controlled(
        &self,
        trace: &Trace,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
        controller: &mut dyn SimController,
    ) -> SimOutcome {
        match self.run_inner(trace, scheduler, observers, controller, None) {
            Ok(outcome) => outcome,
            // Resume validation only runs when a snapshot is supplied.
            Err(_) => crate::executor::sim_bug("fresh run failed resume validation"),
        }
    }

    /// Resumes a run from a [`SimSnapshot`] and drives it to completion,
    /// returning the final report. The snapshot must come from the same
    /// trace, cluster spec, sim config, and scheduler (fingerprints are
    /// checked); the resumed run then reproduces the uninterrupted run's
    /// report byte for byte.
    ///
    /// # Errors
    ///
    /// Returns a [`ResumeError`] when the snapshot's version, fingerprints,
    /// cursors, or scheduler state do not match this run's inputs.
    ///
    /// # Panics
    ///
    /// Same contract as [`Simulation::run`] once resumed.
    pub fn resume_observed(
        &self,
        trace: &Trace,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
        snapshot: &SimSnapshot,
    ) -> Result<SimReport, ResumeError> {
        self.resume_controlled(trace, scheduler, observers, &mut FreeRun, snapshot)
            .map(|outcome| outcome.report)
    }

    /// Resumes from a snapshot with a [`SimController`] attached, so a
    /// resumed run can itself be checkpointed or stopped again.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulation::resume_observed`].
    ///
    /// # Panics
    ///
    /// Same contract as [`Simulation::run`] once resumed.
    pub fn resume_controlled(
        &self,
        trace: &Trace,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
        controller: &mut dyn SimController,
        snapshot: &SimSnapshot,
    ) -> Result<SimOutcome, ResumeError> {
        self.run_inner(trace, scheduler, observers, controller, Some(snapshot))
    }

    /// One fingerprint of everything a run of `trace` on this simulation
    /// depends on besides its scheduler: the trace fingerprint and the
    /// context fingerprint that snapshots embed, hashed together. Two runs
    /// share it exactly when a snapshot of one validates against the other.
    pub fn input_fingerprint(&self, trace: &Trace) -> u64 {
        let mut hash = Fnv1a64::new();
        hash.update(&fingerprint_json(trace).to_le_bytes());
        hash.update(&self.context_fingerprint().to_le_bytes());
        hash.finish()
    }

    /// Fingerprint of the run context (cluster spec + sim config) embedded
    /// in snapshots to block resuming against mismatched inputs.
    fn context_fingerprint(&self) -> u64 {
        fingerprint_json(&(&self.spec, &self.config))
    }

    /// The one event loop behind every entry point: fresh or resumed,
    /// free-running or controlled.
    fn run_inner(
        &self,
        trace: &Trace,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
        controller: &mut dyn SimController,
        resume: Option<&SimSnapshot>,
    ) -> Result<SimOutcome, ResumeError> {
        let mut exec = Executor::new(&self.spec, self.config.overheads);
        let total_gpus = exec.total_gpus();
        let mut core = EventCore::new(
            trace,
            &self.config.failures,
            self.spec.servers,
            self.config.slot_seconds,
            self.config.horizon_after_last_arrival,
        );

        // The internal timeline collector is *not* part of the generic
        // chain: snapshot assembly needs to read its samples mid-run, so
        // the engine calls its single hook (`on_tick`) explicitly, first —
        // preserving the original first-in-chain ordering.
        let mut collector = TimelineCollector::new();
        let mut now = 0.0f64;
        let mut round: u64 = 0;
        // Computed lazily: only snapshot capture and resume validation pay
        // for fingerprinting the trace and run context.
        let mut fingerprints: Option<(u64, u64)> = None;

        // The pattern names every snapshot field, so a new one fails to
        // compile until resume reads it, and one bound but left unapplied
        // is a denied unused variable.
        if let Some(SimSnapshot {
            version,
            now: cut_now,
            round: cut_round,
            scheduler_name,
            scheduler_state,
            trace_name,
            trace_fingerprint,
            context_fingerprint,
            executor,
            event_core,
            timeline,
        }) = resume
        {
            if *version != SIM_SNAPSHOT_VERSION {
                return Err(ResumeError::UnknownVersion {
                    found: *version,
                    supported: SIM_SNAPSHOT_VERSION,
                });
            }
            if scheduler_name != scheduler.name() {
                return Err(ResumeError::SchedulerMismatch {
                    snapshot: scheduler_name.clone(),
                    actual: scheduler.name().to_owned(),
                });
            }
            if trace_name != trace.name() {
                return Err(ResumeError::TraceMismatch { what: "name" });
            }
            let fp = (fingerprint_json(trace), self.context_fingerprint());
            if *trace_fingerprint != fp.0 {
                return Err(ResumeError::TraceMismatch {
                    what: "fingerprint",
                });
            }
            if *context_fingerprint != fp.1 {
                return Err(ResumeError::ContextMismatch);
            }
            fingerprints = Some(fp);
            core.restore(event_core)?;
            exec.restore(executor.clone());
            collector = TimelineCollector::from_timeline(timeline.clone());
            if let Some(state) = scheduler_state {
                scheduler
                    .restore_state(state)
                    .map_err(ResumeError::SchedulerState)?;
            }
            now = *cut_now;
            round = *cut_round;
        }

        let mut driver = SchedulerDriver::new(scheduler);

        // The rest of the observer chain: the auditor in debug builds,
        // then the caller's observers.
        let mut auditor = crate::audit::InvariantAuditor;
        let mut chain: Vec<&mut dyn SimObserver> = Vec::with_capacity(observers.len() + 1);
        if cfg!(debug_assertions) {
            chain.push(&mut auditor);
        }
        for obs in observers.iter_mut() {
            chain.push(&mut **obs);
        }

        let mut completed = true;
        let mut events: Vec<Event> = Vec::new();
        // Each iteration handles one event batch; selection returns `None`
        // once the simulation drains or passes the starvation horizon.
        while let Some(step) = core.next_step(now, exec.jobs()) {
            let t = step.time.max(now);

            events.clear();
            core.pause_end_events(now, t, exec.jobs(), &mut events);

            // ---- advance running jobs from `now` to `t` ----
            exec.advance_to(now, t);
            now = t;

            // ---- completions ----
            let finished = exec.finished_jobs();
            for &id in &finished {
                exec.complete(id, now);
                driver.job_finished(id, now);
                events.push(Event::Completion { job: id });
            }

            // ---- server failures and repairs at t ----
            let mut eviction_decisions = Vec::new();
            for (server, is_repair) in core.due_transitions(now) {
                exec.apply_transition(server, is_repair, now, &mut eviction_decisions);
                events.push(if is_repair {
                    Event::ServerRepair { server }
                } else {
                    Event::ServerFailure { server }
                });
            }
            if !eviction_decisions.is_empty() {
                let ctx = exec.context();
                emit_decisions(&mut chain, now, &eviction_decisions, &ctx);
            }
            let view = exec.scheduler_view();

            // ---- arrivals at t (admission phase, when non-empty) ----
            let due = core.due_arrivals(now);
            let had_arrivals = !due.is_empty();
            if had_arrivals {
                let ctx = exec.context();
                emit_phase(
                    &mut chain,
                    now,
                    SchedPhase::Admission,
                    PhaseEdge::Begin,
                    &ctx,
                );
            }
            for spec in due {
                let (id, record) = exec.admit_arrival(spec, &mut driver, now, &view);
                {
                    let ctx = exec.context();
                    emit_decisions(&mut chain, now, &[record], &ctx);
                }
                events.push(Event::Arrival { job: id });
            }
            if had_arrivals {
                let ctx = exec.context();
                emit_phase(&mut chain, now, SchedPhase::Admission, PhaseEdge::End, &ctx);
            }
            if step.slot_boundary {
                events.push(Event::SlotBoundary);
            }

            // ---- observers: the applied batch ----
            {
                let ctx = exec.context();
                for event in &events {
                    for obs in chain.iter_mut() {
                        obs.on_event(now, event, &ctx);
                    }
                }
                for &id in &finished {
                    for obs in chain.iter_mut() {
                        obs.on_job_finish(now, id, &ctx);
                    }
                }
            }

            // ---- replan & apply (planning, then placement phases) ----
            {
                let ctx = exec.context();
                emit_phase(
                    &mut chain,
                    now,
                    SchedPhase::Planning,
                    PhaseEdge::Begin,
                    &ctx,
                );
            }
            let plan = driver.replan(now, &view, exec.jobs());
            {
                let ctx = exec.context();
                emit_phase(&mut chain, now, SchedPhase::Planning, PhaseEdge::End, &ctx);
                emit_phase(
                    &mut chain,
                    now,
                    SchedPhase::Placement,
                    PhaseEdge::Begin,
                    &ctx,
                );
            }
            let (outcome, plan_decisions) = exec.apply_plan(plan, now);
            {
                let ctx = exec.context();
                emit_phase(&mut chain, now, SchedPhase::Placement, PhaseEdge::End, &ctx);
                emit_decisions(&mut chain, now, &plan_decisions, &ctx);
                for obs in chain.iter_mut() {
                    obs.on_replan(now, &outcome, &ctx);
                }
                // ---- tick: timeline sampling et al. ----
                collector.on_tick(now, &ctx);
                for obs in chain.iter_mut() {
                    obs.on_tick(now, &ctx);
                }
            }
            round += 1;

            // ---- stall detection ----
            if exec.none_running() && core.exhausted() {
                break; // active-but-unschedulable jobs would never progress
            }

            // ---- controller: checkpoint / early-stop seam ----
            let directive = controller.directive(now, round);
            if matches!(
                directive,
                RunDirective::Checkpoint | RunDirective::CheckpointThenStop
            ) {
                let (trace_fp, context_fp) = *fingerprints
                    .get_or_insert_with(|| (fingerprint_json(trace), self.context_fingerprint()));
                controller.on_snapshot(SimSnapshot {
                    version: SIM_SNAPSHOT_VERSION,
                    now,
                    round,
                    scheduler_name: driver.name().to_owned(),
                    scheduler_state: driver.snapshot_state(),
                    trace_name: trace.name().to_owned(),
                    trace_fingerprint: trace_fp,
                    context_fingerprint: context_fp,
                    executor: exec.capture(),
                    event_core: core.capture(),
                    timeline: collector.timeline().to_vec(),
                });
            }
            if matches!(
                directive,
                RunDirective::Stop | RunDirective::CheckpointThenStop
            ) {
                completed = false;
                break;
            }
        }
        drop(chain);

        // ---- assemble the report ----
        let (outcomes, migrations, total_pause) = exec.into_results();
        let report = SimReport::new(
            driver.name().to_owned(),
            trace.name().to_owned(),
            total_gpus,
            outcomes,
            collector.into_timeline(),
            migrations,
            total_pause,
            now,
        );
        Ok(SimOutcome {
            report,
            completed,
            rounds: round,
        })
    }
}

/// Test-only observer: every typed event the engine shows observers.
#[cfg(test)]
#[derive(Default)]
struct EventLog(Vec<Event>);

#[cfg(test)]
impl SimObserver for EventLog {
    fn on_event(&mut self, _now: f64, event: &Event, _ctx: &SimContext<'_>) {
        self.0.push(*event);
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;
    use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
    use elasticflow_sched::{
        AdmissionDecision, ClusterView, EdfScheduler, GandivaScheduler, JobRuntime, JobTable,
        PolluxScheduler, SchedulePlan, TiresiasScheduler,
    };
    use elasticflow_trace::{JobId, JobKind, JobSpec, TraceConfig};

    fn small_spec() -> ClusterSpec {
        ClusterSpec::with_servers(2, 8)
    }

    fn one_job_trace(deadline_window: f64) -> Trace {
        let net = Interconnect::from_spec(&small_spec());
        let curve = ScalingCurve::build(DnnModel::ResNet50, 128, &net);
        let tput = curve.iters_per_sec(4).unwrap();
        let job = JobSpec::builder(JobId::new(0), DnnModel::ResNet50, 128)
            .iterations(3_600.0 * tput)
            .submit_time(0.0)
            .deadline(deadline_window)
            .trace_shape(4, 3_600.0)
            .build();
        Trace::new("one-job", vec![job])
    }

    #[test]
    fn single_job_finishes_under_edf() {
        let report = Simulation::new(small_spec(), SimConfig::default())
            .run(&one_job_trace(3.0 * 3_600.0), &mut EdfScheduler::new());
        assert_eq!(report.outcomes().len(), 1);
        let o = &report.outcomes()[0];
        assert!(o.finish_time.is_some());
        assert!(o.met_deadline());
        // EDF scales the job to its knee, so it beats the 1x duration.
        assert!(o.finish_time.unwrap() < 3_600.0);
    }

    #[test]
    fn zero_overheads_match_analytic_finish_time() {
        let cfg = SimConfig::default().with_overheads(elasticflow_perfmodel::OverheadModel::free());
        let trace = one_job_trace(10.0 * 3_600.0);
        let report = Simulation::new(small_spec(), cfg).run(&trace, &mut GandivaScheduler::new());
        let o = &report.outcomes()[0];
        // Gandiva runs the job at its fixed 4-GPU request; with free
        // overheads it should finish in exactly the trace duration.
        let finish = o.finish_time.unwrap();
        assert!(
            (finish - 3_600.0).abs() < 1.0,
            "finish {finish} (expected 3600)"
        );
    }

    #[test]
    fn simulator_is_deterministic() {
        let trace = TraceConfig::testbed_small(3).generate(&Interconnect::from_spec(&small_spec()));
        let sim = Simulation::new(small_spec(), SimConfig::default());
        let a = sim.run(&trace, &mut TiresiasScheduler::new());
        let b = sim.run(&trace, &mut TiresiasScheduler::new());
        assert_eq!(a, b);
    }

    #[test]
    fn observers_do_not_perturb_the_replay() {
        let trace = TraceConfig::testbed_small(3).generate(&Interconnect::from_spec(&small_spec()));
        let sim = Simulation::new(small_spec(), SimConfig::default());
        let bare = sim.run(&trace, &mut TiresiasScheduler::new());
        let mut log = EventLog::default();
        let mut extra = crate::TimelineCollector::new();
        let observed = sim.run_observed(
            &trace,
            &mut TiresiasScheduler::new(),
            &mut [&mut log, &mut extra],
        );
        assert_eq!(bare, observed);
        assert!(!log.0.is_empty());
        assert_eq!(extra.timeline(), observed.timeline());
    }

    #[test]
    fn oversized_request_is_clamped_to_cluster() {
        // A trace entry requesting more GPUs than the cluster has is
        // clamped into the cluster-sized scaling curve, like the paper's
        // profiler recording the feasible GPU range per job.
        let job = JobSpec::builder(JobId::new(0), DnnModel::Bert, 128)
            .iterations(1_000.0)
            .submit_time(0.0)
            .deadline(86_400.0)
            .trace_shape(64, 3_600.0)
            .build();
        let trace = Trace::new("oversized", vec![job]);
        let report = Simulation::new(small_spec(), SimConfig::default())
            .run(&trace, &mut GandivaScheduler::new());
        let o = &report.outcomes()[0];
        assert!(o.finish_time.is_some());
    }

    #[test]
    fn starved_jobs_terminate_the_simulation() {
        // A scheduler that never allocates anything must not hang the
        // engine; the job ends unfinished.
        struct Idle;
        impl Scheduler for Idle {
            fn name(&self) -> &str {
                "idle"
            }
            fn on_job_arrival(
                &mut self,
                _job: &JobRuntime,
                _now: f64,
                _view: &ClusterView,
                _jobs: &JobTable,
            ) -> AdmissionDecision {
                AdmissionDecision::Admit
            }
            fn plan(&mut self, _now: f64, _view: &ClusterView, _jobs: &JobTable) -> SchedulePlan {
                SchedulePlan::new()
            }
        }
        let trace = one_job_trace(3_600.0);
        let report = Simulation::new(small_spec(), SimConfig::default()).run(&trace, &mut Idle);
        let o = &report.outcomes()[0];
        assert!(o.finish_time.is_none());
        assert!(!o.met_deadline());
    }

    #[test]
    fn gpu_seconds_are_accounted() {
        let report = Simulation::new(small_spec(), SimConfig::default())
            .run(&one_job_trace(8.0 * 3_600.0), &mut EdfScheduler::new());
        let o = &report.outcomes()[0];
        assert!(o.gpu_seconds > 0.0);
        // GPU-seconds is at least workers x active time for the final size.
        assert!(o.gpu_seconds >= o.finish_time.unwrap() - o.paused_seconds);
    }

    #[test]
    fn timelines_are_monotone_and_bounded() {
        let trace = TraceConfig::testbed_small(5).generate(&Interconnect::from_spec(&small_spec()));
        let report = Simulation::new(small_spec(), SimConfig::default())
            .run(&trace, &mut PolluxScheduler::new());
        let mut last_t = f64::NEG_INFINITY;
        for p in report.timeline() {
            assert!(p.time >= last_t);
            assert!(p.used_gpus <= 16);
            assert!(p.cluster_efficiency >= 0.0 && p.cluster_efficiency <= 1.0 + 1e-9);
            assert!(p.admitted <= p.submitted);
            last_t = p.time;
        }
    }

    #[test]
    fn elastic_scheduler_beats_non_elastic_on_lone_job() {
        let trace = one_job_trace(8.0 * 3_600.0);
        let sim = Simulation::new(small_spec(), SimConfig::default());
        let elastic = sim.run(&trace, &mut PolluxScheduler::new());
        let fixed = sim.run(&trace, &mut GandivaScheduler::new());
        let e = elastic.outcomes()[0].finish_time.unwrap();
        let f = fixed.outcomes()[0].finish_time.unwrap();
        assert!(e < f, "elastic {e} vs fixed {f}");
    }

    #[test]
    fn best_effort_jobs_have_jct() {
        let trace = TraceConfig::testbed_small(6)
            .with_best_effort_fraction(1.0)
            .generate(&Interconnect::from_spec(&small_spec()));
        let report = Simulation::new(small_spec(), SimConfig::default())
            .run(&trace, &mut TiresiasScheduler::new());
        assert_eq!(report.deadline_satisfactory_ratio(), 1.0);
        assert!(report.avg_best_effort_jct().is_some());
        assert!(report
            .outcomes()
            .iter()
            .all(|o| o.kind == JobKind::BestEffort));
    }

    #[test]
    #[should_panic(expected = "planned")]
    fn over_allocation_is_rejected() {
        struct Greedy;
        impl Scheduler for Greedy {
            fn name(&self) -> &str {
                "greedy"
            }
            fn on_job_arrival(
                &mut self,
                _job: &JobRuntime,
                _now: f64,
                _view: &ClusterView,
                _jobs: &JobTable,
            ) -> AdmissionDecision {
                AdmissionDecision::Admit
            }
            fn plan(&mut self, _now: f64, _view: &ClusterView, jobs: &JobTable) -> SchedulePlan {
                jobs.active().map(|j| (j.id(), 32u32)).collect()
            }
        }
        let trace = one_job_trace(3_600.0);
        let _ = Simulation::new(small_spec(), SimConfig::default()).run(&trace, &mut Greedy);
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use elasticflow_perfmodel::Interconnect;
    use elasticflow_sched::{EdfScheduler, TiresiasScheduler};
    use elasticflow_trace::TraceConfig;

    fn small_spec() -> ClusterSpec {
        ClusterSpec::with_servers(2, 8)
    }

    fn testbed_trace(seed: u64) -> Trace {
        TraceConfig::testbed_small(seed).generate(&Interconnect::from_spec(&small_spec()))
    }

    /// Checkpoints once at `kill_round`, then stops — the in-memory
    /// equivalent of a crash right after a checkpoint.
    struct KillAt {
        kill_round: u64,
        snapshot: Option<SimSnapshot>,
    }

    impl SimController for KillAt {
        fn directive(&mut self, _now: f64, round: u64) -> RunDirective {
            if round == self.kill_round {
                RunDirective::CheckpointThenStop
            } else {
                RunDirective::Continue
            }
        }

        fn on_snapshot(&mut self, snapshot: SimSnapshot) {
            self.snapshot = Some(snapshot);
        }
    }

    #[test]
    fn controlled_run_with_noop_controller_matches_plain_run() {
        let trace = testbed_trace(3);
        let sim = Simulation::new(small_spec(), SimConfig::default());
        let plain = sim.run(&trace, &mut EdfScheduler::new());
        let outcome = sim.run_controlled(&trace, &mut EdfScheduler::new(), &mut [], &mut FreeRun);
        assert!(outcome.completed);
        assert!(outcome.rounds > 0);
        assert_eq!(plain, outcome.report);
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_report_at_many_cut_points() {
        let trace = testbed_trace(3);
        let sim = Simulation::new(small_spec(), SimConfig::default());
        let baseline =
            sim.run_controlled(&trace, &mut TiresiasScheduler::new(), &mut [], &mut FreeRun);
        assert!(baseline.rounds > 8, "scenario too short to cut");
        for cut in [
            1,
            baseline.rounds / 3,
            baseline.rounds / 2,
            baseline.rounds - 1,
        ] {
            let mut controller = KillAt {
                kill_round: cut,
                snapshot: None,
            };
            let crashed = sim.run_controlled(
                &trace,
                &mut TiresiasScheduler::new(),
                &mut [],
                &mut controller,
            );
            assert!(!crashed.completed, "cut {cut} did not stop the run");
            let snap = controller.snapshot.expect("checkpoint was captured");
            assert_eq!(snap.round, cut);
            let resumed = sim
                .resume_observed(&trace, &mut TiresiasScheduler::new(), &mut [], &snap)
                .expect("snapshot resumes");
            assert_eq!(
                baseline.report, resumed,
                "cut {cut}: resumed report diverged"
            );
        }
    }

    /// Tiresias checkpoints no policy state; a snapshot written while it
    /// still saved its queue thresholds resumes like one without them.
    #[test]
    fn a_tiresias_snapshot_resumes_with_or_without_its_old_state_string() {
        let trace = testbed_trace(3);
        let sim = Simulation::new(small_spec(), SimConfig::default());
        let baseline = sim.run(&trace, &mut TiresiasScheduler::new());
        let mut controller = KillAt {
            kill_round: 5,
            snapshot: None,
        };
        let _ = sim.run_controlled(
            &trace,
            &mut TiresiasScheduler::new(),
            &mut [],
            &mut controller,
        );
        let mut snap = controller.snapshot.expect("checkpoint was captured");
        assert_eq!(snap.scheduler_state, None);
        for state in [Some(r#"{"queue_thresholds":[3600.0,36000.0]}"#), None] {
            snap.scheduler_state = state.map(str::to_owned);
            let resumed = sim
                .resume_observed(&trace, &mut TiresiasScheduler::new(), &mut [], &snap)
                .expect("snapshot resumes");
            assert_eq!(
                baseline, resumed,
                "state {state:?}: resumed report diverged"
            );
        }
    }

    #[test]
    fn snapshot_round_trips_through_serde_and_still_resumes() {
        let trace = testbed_trace(5);
        let sim = Simulation::new(small_spec(), SimConfig::default());
        let baseline = sim.run(&trace, &mut EdfScheduler::new());
        let mut controller = KillAt {
            kill_round: 7,
            snapshot: None,
        };
        let _ = sim.run_controlled(&trace, &mut EdfScheduler::new(), &mut [], &mut controller);
        let snap = controller.snapshot.expect("checkpoint was captured");
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        let back: SimSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
        assert_eq!(snap, back);
        // Byte-stable round trip: re-encoding the parsed value is identical.
        assert_eq!(json, serde_json::to_string(&back).expect("re-serializes"));
        let resumed = sim
            .resume_observed(&trace, &mut EdfScheduler::new(), &mut [], &back)
            .expect("parsed snapshot resumes");
        assert_eq!(baseline, resumed);
    }

    #[test]
    fn resume_validation_rejects_mismatched_inputs() {
        let trace = testbed_trace(3);
        let sim = Simulation::new(small_spec(), SimConfig::default());
        let mut controller = KillAt {
            kill_round: 5,
            snapshot: None,
        };
        let _ = sim.run_controlled(&trace, &mut EdfScheduler::new(), &mut [], &mut controller);
        let snap = controller.snapshot.expect("checkpoint was captured");

        // Unknown version.
        let mut wrong = snap.clone();
        wrong.version = SIM_SNAPSHOT_VERSION + 1;
        assert!(matches!(
            sim.resume_observed(&trace, &mut EdfScheduler::new(), &mut [], &wrong),
            Err(ResumeError::UnknownVersion { .. })
        ));

        // Different policy.
        assert!(matches!(
            sim.resume_observed(&trace, &mut TiresiasScheduler::new(), &mut [], &snap),
            Err(ResumeError::SchedulerMismatch { .. })
        ));

        // Different trace (same name check happens via fingerprint too).
        let other = testbed_trace(4);
        assert!(matches!(
            sim.resume_observed(&other, &mut EdfScheduler::new(), &mut [], &snap),
            Err(ResumeError::TraceMismatch { .. })
        ));

        // Different cluster/config context.
        let bigger = Simulation::new(ClusterSpec::with_servers(4, 8), SimConfig::default());
        assert!(matches!(
            bigger.resume_observed(&trace, &mut EdfScheduler::new(), &mut [], &snap),
            Err(ResumeError::ContextMismatch)
        ));

        // Corrupted cursor.
        let mut wrong = snap.clone();
        wrong.event_core.next_arrival = usize::MAX;
        assert!(matches!(
            sim.resume_observed(&trace, &mut EdfScheduler::new(), &mut [], &wrong),
            Err(ResumeError::CursorOutOfRange { .. })
        ));

        // The pristine snapshot still resumes fine after all the rejects.
        assert!(sim
            .resume_observed(&trace, &mut EdfScheduler::new(), &mut [], &snap)
            .is_ok());
    }

    #[test]
    fn periodic_checkpoints_do_not_perturb_the_run() {
        struct Every {
            n: u64,
            count: usize,
        }
        impl SimController for Every {
            fn directive(&mut self, _now: f64, round: u64) -> RunDirective {
                if round.is_multiple_of(self.n) {
                    RunDirective::Checkpoint
                } else {
                    RunDirective::Continue
                }
            }
            fn on_snapshot(&mut self, _snapshot: SimSnapshot) {
                self.count += 1;
            }
        }
        let trace = testbed_trace(3);
        let sim = Simulation::new(small_spec(), SimConfig::default());
        let plain = sim.run(&trace, &mut EdfScheduler::new());
        let mut every = Every { n: 4, count: 0 };
        let outcome = sim.run_controlled(&trace, &mut EdfScheduler::new(), &mut [], &mut every);
        assert!(outcome.completed);
        assert!(every.count > 0);
        assert_eq!(plain, outcome.report);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::executor::PHANTOM_BASE;
    use crate::{FailureSchedule, NodeFailure};
    use elasticflow_cluster::Block;
    use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
    use elasticflow_sched::{
        AdmissionDecision, ClusterView, EdfScheduler, JobRuntime, JobTable, ReplanOutcome,
        SchedulePlan,
    };
    use elasticflow_trace::{JobId, JobSpec};

    fn spec() -> ClusterSpec {
        ClusterSpec::with_servers(2, 8)
    }

    fn long_job(id: u64, gpus: u32) -> JobSpec {
        let net = Interconnect::from_spec(&spec());
        let curve = ScalingCurve::build(DnnModel::ResNet50, 128, &net);
        let tput = curve.iters_per_sec(gpus).unwrap();
        JobSpec::builder(JobId::new(id), DnnModel::ResNet50, 128)
            .iterations(4.0 * 3_600.0 * tput)
            .submit_time(0.0)
            .deadline(86_400.0)
            .trace_shape(gpus, 4.0 * 3_600.0)
            .build()
    }

    #[test]
    fn failed_server_capacity_is_fenced_off() {
        // Two 8-GPU jobs on a 16-GPU cluster; server 1 fails for an hour.
        let trace = Trace::new("pair", vec![long_job(0, 8), long_job(1, 8)]);
        let cfg = SimConfig::default().with_failures(FailureSchedule::fixed(vec![NodeFailure {
            server: 1,
            at: 1_800.0,
            repair_seconds: 3_600.0,
        }]));
        let report = Simulation::new(spec(), cfg).run(&trace, &mut EdfScheduler::new());
        // During the outage at most 8 GPUs are in use.
        for p in report.timeline() {
            if p.time > 1_800.0 + 1.0 && p.time < 1_800.0 + 3_600.0 - 1.0 {
                assert!(p.used_gpus <= 8, "outage window used {}", p.used_gpus);
            }
        }
        // Both jobs still finish (the deadline is a day away).
        assert!(report.outcomes().iter().all(|o| o.finish_time.is_some()));
    }

    #[test]
    fn victims_are_requeued_and_finish_after_repair() {
        let trace = Trace::new("solo", vec![long_job(0, 8)]);
        let no_fail =
            Simulation::new(spec(), SimConfig::default()).run(&trace, &mut EdfScheduler::new());
        let cfg = SimConfig::default().with_failures(FailureSchedule::fixed(vec![
            NodeFailure {
                server: 0,
                at: 600.0,
                repair_seconds: 1_200.0,
            },
            NodeFailure {
                server: 1,
                at: 600.0,
                repair_seconds: 1_200.0,
            },
        ]));
        let with_fail = Simulation::new(spec(), cfg).run(&trace, &mut EdfScheduler::new());
        let a = no_fail.outcomes()[0].finish_time.unwrap();
        let b = with_fail.outcomes()[0].finish_time.unwrap();
        // A whole-cluster outage must delay completion by roughly the
        // outage length (plus recovery pauses).
        assert!(b > a + 1_000.0, "failure did not delay the job: {a} vs {b}");
    }

    #[test]
    fn whole_cluster_outage_does_not_hang() {
        let trace = Trace::new("solo", vec![long_job(0, 4)]);
        let cfg = SimConfig::default().with_failures(FailureSchedule::fixed(vec![
            NodeFailure {
                server: 0,
                at: 60.0,
                repair_seconds: 600.0,
            },
            NodeFailure {
                server: 1,
                at: 60.0,
                repair_seconds: 600.0,
            },
        ]));
        let report = Simulation::new(spec(), cfg).run(&trace, &mut EdfScheduler::new());
        assert!(report.outcomes()[0].finish_time.is_some());
    }

    #[test]
    fn repeated_failures_of_same_server() {
        let trace = Trace::new("solo", vec![long_job(0, 8)]);
        let events = (0..4u32)
            .map(|i| NodeFailure {
                // Alternate servers so the job is hit wherever it lands.
                server: i % 2,
                at: 900.0 * (i as f64 + 1.0) + 1_000.0 * i as f64,
                repair_seconds: 600.0,
            })
            .collect();
        let cfg = SimConfig::default().with_failures(FailureSchedule::fixed(events));
        let report = Simulation::new(spec(), cfg).run(&trace, &mut EdfScheduler::new());
        let o = &report.outcomes()[0];
        assert!(o.finish_time.is_some());
        assert!(o.scale_events >= 3, "expected repeated evictions");
    }

    /// Test-only observer: every block each replan leaves in the cluster.
    #[derive(Default)]
    struct BlockLog(Vec<(f64, Vec<(u64, Block)>)>);

    impl SimObserver for BlockLog {
        fn on_replan(&mut self, now: f64, _outcome: &ReplanOutcome, ctx: &SimContext<'_>) {
            self.0.push((now, ctx.cluster.iter().collect()));
        }
    }

    impl BlockLog {
        /// The blocks the last replan at or before `time` left.
        fn at(&self, time: f64) -> &[(u64, Block)] {
            let (_, blocks) = self
                .0
                .iter()
                .rev()
                .find(|(now, _)| *now <= time)
                .expect("a replan before the time");
            blocks
        }
    }

    /// Runs every active job at its trace GPU count, in id order, while
    /// capacity lasts; a job that does not fit waits.
    struct AtTraceShape;

    impl Scheduler for AtTraceShape {
        fn name(&self) -> &str {
            "trace-shape"
        }
        fn on_job_arrival(
            &mut self,
            _job: &JobRuntime,
            _now: f64,
            _view: &ClusterView,
            _jobs: &JobTable,
        ) -> AdmissionDecision {
            AdmissionDecision::Admit
        }
        fn plan(&mut self, _now: f64, view: &ClusterView, jobs: &JobTable) -> SchedulePlan {
            let mut free = view.total_gpus;
            jobs.active()
                .filter_map(|j| {
                    let gpus = j.spec.trace_gpus;
                    free = free.checked_sub(gpus)?;
                    Some((j.id(), gpus))
                })
                .collect()
        }
    }

    /// Runs `jobs` at their trace shapes on `spec()` with server `server`
    /// down from t = 1,800 s for an hour, logging every replan's blocks.
    fn run_with_outage(jobs: Vec<JobSpec>, server: u32) -> BlockLog {
        let cfg = SimConfig::default().with_failures(FailureSchedule::fixed(vec![NodeFailure {
            server,
            at: 1_800.0,
            repair_seconds: 3_600.0,
        }]));
        let mut log = BlockLog::default();
        let report = Simulation::new(spec(), cfg).run_observed(
            &Trace::new("outage", jobs),
            &mut AtTraceShape,
            &mut [&mut log],
        );
        assert!(report.outcomes().iter().all(|o| o.finish_time.is_some()));
        log
    }

    #[test]
    fn a_job_spanning_servers_is_evicted_when_its_last_server_fails() {
        let log = run_with_outage(vec![long_job(0, 16)], 1);
        assert_eq!(log.at(1_799.0), [(0, Block::new(4, 0))]);
        // Only the fence around server 1 is left: the job held GPUs on it.
        let fence = (PHANTOM_BASE + 1, Block::new(3, 8));
        assert_eq!(log.at(1_801.0), [fence]);
    }

    #[test]
    fn jobs_inside_a_failed_server_are_evicted_wherever_they_sit() {
        let jobs = vec![long_job(0, 8), long_job(1, 4), long_job(2, 4)];
        let log = run_with_outage(jobs, 1);
        // Job 1 ends and job 2 starts in the middle of server 1.
        let before = [
            (0, Block::new(3, 0)),
            (1, Block::new(2, 8)),
            (2, Block::new(2, 12)),
        ];
        assert_eq!(log.at(1_799.0), before);
        let fence = (PHANTOM_BASE + 1, Block::new(3, 8));
        assert_eq!(log.at(1_801.0), [(0, Block::new(3, 0)), fence]);
    }

    #[test]
    fn failure_events_reach_observers() {
        let trace = Trace::new("solo", vec![long_job(0, 8)]);
        let cfg = SimConfig::default().with_failures(FailureSchedule::fixed(vec![NodeFailure {
            server: 0,
            at: 600.0,
            repair_seconds: 1_200.0,
        }]));
        let mut log = EventLog::default();
        let _ = Simulation::new(spec(), cfg).run_observed(
            &trace,
            &mut EdfScheduler::new(),
            &mut [&mut log],
        );
        let count = |pred: fn(&Event) -> bool| log.0.iter().filter(|e| pred(e)).count();
        assert_eq!(count(|e| matches!(e, Event::ServerFailure { .. })), 1);
        assert_eq!(count(|e| matches!(e, Event::ServerRepair { .. })), 1);
        // The evicted job's recovery pause must surface as a PauseEnd.
        assert!(count(|e| matches!(e, Event::PauseEnd { .. })) >= 1);
    }
}
