//! The simulator workloads: the `mega_trace` generator on 1,024 GPUs,
//! replayed through `Simulation::run_observed` under one policy.
//!
//! Every run attaches a [`RoundClock`] observer that times each
//! event-loop round, the simulator's unit of answering. A traced run
//! also wraps the policy in [`TimedScheduler`] and attaches a
//! [`LayerTap`] that times placement and counts events and decisions.

use std::time::{Duration, Instant};

use elasticflow_bench::mega::{mega_trace, outcome_digest, MegaConfig};
use elasticflow_cluster::ClusterSpec;
use elasticflow_core::ElasticFlowScheduler;
use elasticflow_sched::{
    AdmissionDecision, ClusterView, DecisionRecord, EdfScheduler, JobRuntime, JobTable,
    ReplanOutcome, RestoreError, SchedulePlan, Scheduler,
};
use elasticflow_sim::{
    Event, PhaseEdge, RunDirective, SchedPhase, SimConfig, SimContext, SimController, SimObserver,
    SimReport, SimSnapshot, Simulation,
};
use elasticflow_trace::{JobId, JobKind, Trace};

use crate::stats::{self, micros, Breakdown, ClassSamples, Throughput};
use crate::{repeat, Report, RunSpec, DEFAULT_SEED};

/// The scheduling policy a simulator workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Policy {
    ElasticFlow,
    Edf,
}

/// One simulator workload.
#[derive(Debug)]
pub struct SimWorkload {
    pub name: &'static str,
    /// Trace arrivals per run.
    pub arrivals: usize,
    pub policy: Policy,
    /// `mega::outcome_digest` at [`DEFAULT_SEED`].
    pub pinned_digest: u64,
}

/// The paper's scheduler (Algorithms 1 and 2) at 1,024 GPUs.
pub const SIM_ELASTICFLOW: SimWorkload = SimWorkload {
    name: "sim_elasticflow",
    arrivals: 15_000,
    policy: Policy::ElasticFlow,
    pinned_digest: 0xee9c_ba58_5af9_24be,
};

/// EDF admits everything and plans in about a microsecond, leaving the
/// event core, executor, job arena and buddy placement to dominate.
pub const SIM_EDF: SimWorkload = SimWorkload {
    name: "sim_edf",
    arrivals: 150_000,
    policy: Policy::Edf,
    pinned_digest: 0x20c7_06b9_7296_5bca,
};

fn scheduler(policy: Policy) -> Box<dyn Scheduler> {
    match policy {
        Policy::ElasticFlow => Box::new(ElasticFlowScheduler::new()),
        Policy::Edf => Box::new(EdfScheduler::new()),
    }
}

fn config(w: &SimWorkload, seed: u64) -> MegaConfig {
    let smoke = MegaConfig::smoke();
    MegaConfig {
        arrivals: w.arrivals,
        seed: smoke.seed.wrapping_add(seed),
        ..smoke
    }
}

fn simulation(cfg: &MegaConfig) -> Simulation {
    Simulation::new(
        ClusterSpec::with_servers(cfg.servers, cfg.gpus_per_server),
        SimConfig::default(),
    )
}

/// Times every event-loop round, from the end of the previous round (or
/// the start of the run) to this round's `on_tick`, and files it under
/// the classes of the jobs that arrived in it.
#[derive(Debug)]
struct RoundClock {
    last: Instant,
    deadline_arrivals: usize,
    best_effort_arrivals: usize,
    rounds: ClassSamples,
}

impl RoundClock {
    fn start(rounds: ClassSamples) -> Self {
        RoundClock {
            last: Instant::now(),
            deadline_arrivals: 0,
            best_effort_arrivals: 0,
            rounds,
        }
    }
}

impl SimObserver for RoundClock {
    fn on_event(&mut self, _now: f64, event: &Event, ctx: &SimContext<'_>) {
        if let Event::Arrival { job } = event {
            match ctx.jobs.get(*job).map(|j| j.spec.kind.has_deadline()) {
                Some(true) => self.deadline_arrivals += 1,
                _ => self.best_effort_arrivals += 1,
            }
        }
    }

    fn on_tick(&mut self, _now: f64, _ctx: &SimContext<'_>) {
        let now = Instant::now();
        self.rounds.record(
            now - self.last,
            std::mem::take(&mut self.deadline_arrivals),
            std::mem::take(&mut self.best_effort_arrivals),
        );
        self.last = now;
    }
}

/// Times the policy's admission and planning calls.
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    arrival: Duration,
    arrival_us: Vec<f64>,
    plan: Duration,
    plan_us: Vec<f64>,
}

impl TimedScheduler {
    fn new(inner: Box<dyn Scheduler>) -> Self {
        TimedScheduler {
            inner,
            arrival: Duration::ZERO,
            arrival_us: Vec::new(),
            plan: Duration::ZERO,
            plan_us: Vec::new(),
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_job_arrival(
        &mut self,
        job: &JobRuntime,
        now: f64,
        view: &ClusterView,
        jobs: &JobTable,
    ) -> AdmissionDecision {
        let t = Instant::now();
        let decision = self.inner.on_job_arrival(job, now, view, jobs);
        let dt = t.elapsed();
        self.arrival += dt;
        self.arrival_us.push(micros(dt));
        decision
    }

    fn plan(&mut self, now: f64, view: &ClusterView, jobs: &JobTable) -> SchedulePlan {
        let t = Instant::now();
        let plan = self.inner.plan(now, view, jobs);
        let dt = t.elapsed();
        self.plan += dt;
        self.plan_us.push(micros(dt));
        plan
    }

    fn on_job_finish(&mut self, job: JobId, now: f64) {
        self.inner.on_job_finish(job, now);
    }

    fn snapshot_state(&self) -> Option<String> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), RestoreError> {
        self.inner.restore_state(state)
    }
}

/// Times the placement phase on its own clock and counts events,
/// rounds and plan-application decisions.
#[derive(Debug, Default)]
struct LayerTap {
    placement_begin: Option<Instant>,
    placement: Duration,
    events: u64,
    rounds: u64,
    resizes: u64,
    preemptions: u64,
    migrations: u64,
    pauses: u64,
    declines: u64,
}

impl SimObserver for LayerTap {
    fn on_event(&mut self, _now: f64, _event: &Event, _ctx: &SimContext<'_>) {
        self.events += 1;
    }

    fn on_phase(&mut self, _now: f64, phase: SchedPhase, edge: PhaseEdge, _ctx: &SimContext<'_>) {
        if phase != SchedPhase::Placement {
            return;
        }
        match edge {
            PhaseEdge::Begin => self.placement_begin = Some(Instant::now()),
            PhaseEdge::End => {
                if let Some(begin) = self.placement_begin.take() {
                    self.placement += begin.elapsed();
                }
            }
        }
    }

    fn on_decision(&mut self, _now: f64, decision: &DecisionRecord, _ctx: &SimContext<'_>) {
        match decision {
            DecisionRecord::Resize { .. } => self.resizes += 1,
            DecisionRecord::Preempt { .. } => self.preemptions += 1,
            DecisionRecord::Migrate { .. } => self.migrations += 1,
            DecisionRecord::Pause { .. } => self.pauses += 1,
            DecisionRecord::Decline { .. } => self.declines += 1,
            DecisionRecord::Admit { .. } => {}
        }
    }

    fn on_replan(&mut self, _now: f64, _outcome: &ReplanOutcome, _ctx: &SimContext<'_>) {
        self.rounds += 1;
    }
}

/// Checkpoints the run after round `round` and stops it there.
struct CheckpointAt {
    round: u64,
    snapshot: Option<SimSnapshot>,
}

impl SimController for CheckpointAt {
    fn directive(&mut self, _now: f64, round: u64) -> RunDirective {
        if round == self.round {
            RunDirective::CheckpointThenStop
        } else {
            RunDirective::Continue
        }
    }

    fn on_snapshot(&mut self, snapshot: SimSnapshot) {
        self.snapshot = Some(snapshot);
    }
}

/// What the decision checks compare across repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    digest: u64,
    rounds: u64,
    admit_ratio: f64,
    deadline_ratio: f64,
}

/// Checks that every arrival has exactly one outcome, in id order, and
/// reduces the report to what must repeat exactly.
fn check_report(trace: &Trace, report: &SimReport, out: &mut Report) -> Outcome {
    let outcomes = report.outcomes();
    let answered = outcomes
        .iter()
        .zip(trace.jobs())
        .filter(|(o, j)| o.id == j.id)
        .count();
    out.failed += (trace.jobs().len() - answered) as u64;
    let slo = trace
        .jobs()
        .iter()
        .filter(|j| j.kind == JobKind::Slo)
        .count();
    let dropped = report.dropped();
    out.check(
        outcomes.len() == trace.jobs().len()
            && outcomes
                .iter()
                .filter(|o| o.dropped)
                .all(|o| o.kind == JobKind::Slo),
        || {
            format!(
                "{} outcomes for {} arrivals, or a dropped job without a hard deadline",
                outcomes.len(),
                trace.jobs().len()
            )
        },
    );
    Outcome {
        digest: outcome_digest(report),
        rounds: report.timeline().len() as u64,
        admit_ratio: (slo - dropped.min(slo)) as f64 / slo.max(1) as f64,
        deadline_ratio: report.deadline_satisfactory_ratio(),
    }
}

/// Everything one simulator run accumulates over its repetitions.
#[derive(Debug, Default)]
struct Runs {
    setup_s: Vec<f64>,
    rounds: ClassSamples,
    outcome: Option<Outcome>,
    /// Peak resident set after the first repetition, before samples
    /// pooled from later repetitions add to it.
    peak_rss_mb: Option<f64>,
}

/// One repetition: generate the trace, build the simulation, run it
/// with the round clock (and, traced, the layer timers) attached, and
/// check the report. Returns the run's wall time and, traced, the
/// timed policy.
fn repetition(
    w: &SimWorkload,
    spec: &RunSpec,
    runs: &mut Runs,
    report: &mut Report,
    tap: Option<&mut LayerTap>,
) -> Result<(Duration, Option<TimedScheduler>), String> {
    let t = Instant::now();
    let cfg = config(w, spec.seed);
    let trace = mega_trace(&cfg);
    let sim = simulation(&cfg);
    let mut policy = scheduler(w.policy);
    runs.setup_s.push(t.elapsed().as_secs_f64());

    let mut clock = RoundClock::start(std::mem::take(&mut runs.rounds));
    let t = Instant::now();
    let (result, timed) = match tap {
        None => (
            sim.run_observed(&trace, &mut *policy, &mut [&mut clock]),
            None,
        ),
        Some(tap) => {
            let mut timed = TimedScheduler::new(policy);
            let result = sim.run_observed(&trace, &mut timed, &mut [&mut clock, tap]);
            (result, Some(timed))
        }
    };
    let wall = t.elapsed();
    runs.rounds = clock.rounds;
    report.attempted += trace.jobs().len() as u64;

    let outcome = check_report(&trace, &result, report);
    check_outcome(w, spec.seed, outcome, &mut runs.outcome, report);
    if runs.peak_rss_mb.is_none() {
        runs.peak_rss_mb = Some(stats::peak_rss_mb()?);
    }
    Ok((wall, timed))
}

fn check_outcome(
    w: &SimWorkload,
    seed: u64,
    outcome: Outcome,
    seen: &mut Option<Outcome>,
    report: &mut Report,
) {
    if let Some(first) = *seen {
        report.check(outcome == first, || {
            format!("outcome {outcome:?} differs from this run's first {first:?}")
        });
    }
    *seen = Some(outcome);
    if seed == DEFAULT_SEED {
        report.check(outcome.digest == w.pinned_digest, || {
            format!(
                "{} outcome digest {:#018x} at the default seed, pinned {:#018x}",
                w.name, outcome.digest, w.pinned_digest
            )
        });
    }
}

/// A checkpoint taken halfway through the run, to time restarts from.
struct Restart {
    trace: Trace,
    sim: Simulation,
    round: u64,
    snapshot: SimSnapshot,
}

impl Restart {
    /// Runs the workload's trace to half its rounds and checkpoints it.
    fn prepare(w: &SimWorkload, spec: &RunSpec, expected: Outcome) -> Result<Self, String> {
        let cfg = config(w, spec.seed);
        let trace = mega_trace(&cfg);
        let sim = simulation(&cfg);
        let mut at = CheckpointAt {
            round: (expected.rounds / 2).max(1),
            snapshot: None,
        };
        sim.run_controlled(&trace, &mut *scheduler(w.policy), &mut [], &mut at);
        let snapshot = at
            .snapshot
            .ok_or_else(|| format!("the run never reached checkpoint round {}", at.round))?;
        Ok(Restart {
            trace,
            sim,
            round: at.round,
            snapshot,
        })
    }

    /// Times one restart: a fresh policy resumes from the checkpoint to
    /// the end, and must reproduce the uninterrupted run's outcomes.
    fn time(
        &self,
        w: &SimWorkload,
        expected: Outcome,
        report: &mut Report,
    ) -> Result<Duration, String> {
        let mut policy = scheduler(w.policy);
        let t = Instant::now();
        let resumed = self
            .sim
            .resume_observed(&self.trace, &mut *policy, &mut [], &self.snapshot)
            .map_err(|e| format!("resuming from round {}: {e}", self.round))?;
        let elapsed = t.elapsed();
        let digest = outcome_digest(&resumed);
        report.check(digest == expected.digest, || {
            format!(
                "a restart ended with digest {digest:#018x}, the uninterrupted run with {:#018x}",
                expected.digest
            )
        });
        Ok(elapsed)
    }
}

pub fn run(w: &SimWorkload, spec: &RunSpec) -> Result<Report, String> {
    let mut report = Report::default();
    let mut runs = Runs::default();
    let mut untraced = Throughput::default();
    let n = w.arrivals as u64;

    if !spec.trace {
        // Every repetition is followed by one timed restart, so the
        // restarts sample the host over the whole run, as the
        // repetitions do, rather than over a few seconds at its end.
        let mut restart = None;
        let mut recovery_s = Vec::new();
        repeat(spec.seconds, || {
            let (wall, _) = repetition(w, spec, &mut runs, &mut report, None)?;
            untraced.add(n, wall);
            let outcome = runs.outcome.ok_or("no repetitions")?;
            if restart.is_none() {
                restart = Some(Restart::prepare(w, spec, outcome)?);
            }
            let restart = restart.as_ref().ok_or("no checkpoint")?;
            let resumed = restart.time(w, outcome, &mut report)?;
            recovery_s.push(resumed.as_secs_f64());
            Ok(wall + resumed)
        })?;
        let outcome = runs.outcome.ok_or("no repetitions")?;
        let [deadline, best_effort, batch] = runs.rounds.quantiles();
        let (Some(deadline), Some(best_effort), Some(batch)) = (deadline, best_effort, batch)
        else {
            return Err("an arrival class got no rounds".into());
        };
        report.set(
            "setup_s",
            stats::median(&runs.setup_s).ok_or("no repetitions")?,
        );
        report.set("jobs_per_s", untraced.rate().ok_or("no repetitions")?);
        report.set("deadline_p50_us", deadline.p50);
        report.set("deadline_p99_us", deadline.p99);
        report.set("besteffort_p50_us", best_effort.p50);
        report.set("besteffort_p99_us", best_effort.p99);
        report.set("batch_p50_us", batch.p50);
        report.set("batch_p99_us", batch.p99);
        // The mean, like `jobs_per_s`'s total rate, weighs every second
        // of the run alike; the median of ~20 restarts moved twice as
        // much between runs on a shared host.
        report.set(
            "recovery_s",
            recovery_s.iter().sum::<f64>() / recovery_s.len() as f64,
        );
        report.set("admit_ratio", outcome.admit_ratio);
        report.set("deadline_ratio", outcome.deadline_ratio);
        report.set("peak_rss_mb", runs.peak_rss_mb.ok_or("no repetitions")?);
        return Ok(report);
    }

    // Untraced and traced repetitions alternate, so drift in the host's
    // speed reaches both sides of `bench.trace_overhead` alike.
    let mut traced_rate = Throughput::default();
    let mut layers = Breakdown::default();
    let mut arrival_us = Vec::new();
    let mut plan_us = Vec::new();
    let mut tap = LayerTap::default();
    let mut traced_wall = 0.0;
    let mut traced = 0usize;
    let mut next_traced = false;
    repeat(spec.seconds, || {
        next_traced = !next_traced;
        if !next_traced {
            let (wall, _) = repetition(w, spec, &mut runs, &mut report, None)?;
            untraced.add(n, wall);
            return Ok(wall);
        }
        tap = LayerTap::default();
        let (wall, timed) = repetition(w, spec, &mut runs, &mut report, Some(&mut tap))?;
        let mut timed = timed.ok_or("a traced repetition returned no timers")?;
        traced_rate.add(n, wall);
        layers.add("sched.arrival_s", timed.arrival.as_secs_f64());
        layers.add("sched.plan_s", timed.plan.as_secs_f64());
        layers.add("sim.placement_s", tap.placement.as_secs_f64());
        arrival_us.append(&mut timed.arrival_us);
        plan_us.append(&mut timed.plan_us);
        traced_wall += wall.as_secs_f64();
        traced += 1;
        Ok(wall)
    })?;
    let outcome = runs.outcome.ok_or("no repetitions")?;

    let per_run = layers.scaled(traced as f64);
    let wall = traced_wall / traced as f64;
    for name in LAYERS {
        report.set(name, per_run.get(name));
    }
    report.set("sim.unattributed_s", per_run.remainder(wall)?);
    report.set("bench.traced_wall_s", wall);
    for (name, samples) in [
        ("sched.arrival_p99_us", &mut arrival_us),
        ("sched.plan_p99_us", &mut plan_us),
    ] {
        samples.sort_by(f64::total_cmp);
        report.set(name, stats::percentile(samples, 99.0).unwrap_or(0.0));
    }
    let per = |n: usize| n as f64 / traced as f64;
    report.set("sched.arrival_calls", per(arrival_us.len()));
    report.set("sched.plan_calls", per(plan_us.len()));
    report.set("sim.events", tap.events as f64);
    report.set("sim.rounds", tap.rounds as f64);
    report.set("sim.resizes", tap.resizes as f64);
    report.set("sim.preemptions", tap.preemptions as f64);
    report.set("sim.migrations", tap.migrations as f64);
    report.set("sim.pauses", tap.pauses as f64);
    report.set("sim.declines", tap.declines as f64);
    report.check(tap.rounds == outcome.rounds, || {
        format!(
            "{} replans in a traced run of {} rounds",
            tap.rounds, outcome.rounds
        )
    });
    report.set(
        "bench.trace_overhead",
        untraced.rate().ok_or("no repetitions")? / traced_rate.rate().ok_or("no traced runs")?
            - 1.0,
    );
    Ok(report)
}

/// The timed layers of a traced simulator run; with the unattributed
/// remainder (event core, calendar queue, executor, observers) they add
/// up to the traced `run_observed` wall time.
const LAYERS: [&str; 3] = ["sched.arrival_s", "sched.plan_s", "sim.placement_s"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Fnv;

    fn tiny() -> MegaConfig {
        MegaConfig {
            arrivals: 300,
            servers: 16,
            ..MegaConfig::smoke()
        }
    }

    #[test]
    fn fnv_over_outcome_lines_equals_the_mega_digest() {
        let cfg = tiny();
        for policy in [Policy::ElasticFlow, Policy::Edf] {
            let report = simulation(&cfg).run(&mega_trace(&cfg), &mut *scheduler(policy));
            let mut fnv = Fnv::default();
            for outcome in report.outcomes() {
                fnv.eat(serde_json::to_string(outcome).unwrap().as_bytes());
                fnv.eat(b"\n");
            }
            assert_eq!(fnv.finish(), outcome_digest(&report));
        }
    }

    #[test]
    fn traced_layers_leave_a_nonnegative_remainder_and_change_nothing() {
        let cfg = tiny();
        let trace = mega_trace(&cfg);
        let sim = simulation(&cfg);
        let plain = sim.run(&trace, &mut ElasticFlowScheduler::new());
        let mut timed = TimedScheduler::new(scheduler(Policy::ElasticFlow));
        let mut tap = LayerTap::default();
        let mut clock = RoundClock::start(ClassSamples::default());
        let t = Instant::now();
        let traced = sim.run_observed(&trace, &mut timed, &mut [&mut clock, &mut tap]);
        let wall = t.elapsed().as_secs_f64();
        assert_eq!(outcome_digest(&traced), outcome_digest(&plain));
        assert_eq!(timed.arrival_us.len(), cfg.arrivals);
        assert_eq!(tap.rounds as usize, plain.timeline().len());
        assert_eq!(timed.plan_us.len() as u64, tap.rounds);
        assert_eq!(clock.rounds.batch.len() as u64, tap.rounds);
        assert_eq!(
            clock.rounds.deadline.len() + clock.rounds.best_effort.len(),
            cfg.arrivals
        );
        let mut b = Breakdown::default();
        b.add("sched.arrival_s", timed.arrival.as_secs_f64());
        b.add("sched.plan_s", timed.plan.as_secs_f64());
        b.add("sim.placement_s", tap.placement.as_secs_f64());
        assert!(b.remainder(wall).unwrap() >= 0.0);
    }
}
