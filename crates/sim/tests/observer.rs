//! Integration tests for the [`SimObserver`] seam: a counting observer's
//! hook-call tallies must agree with the engine's own event accounting,
//! and attaching observers must leave the replay byte-identical.

use elasticflow_cluster::ClusterSpec;
use elasticflow_perfmodel::Interconnect;
use elasticflow_sched::{DecisionRecord, EdfScheduler, ReplanOutcome};
use elasticflow_sim::{
    Event, FailureSchedule, NodeFailure, PhaseEdge, SchedPhase, SimConfig, SimContext, SimObserver,
    Simulation,
};
use elasticflow_trace::{JobId, TraceConfig};

/// Tallies every hook invocation, bucketed by event kind.
#[derive(Debug, Default, PartialEq)]
struct CountingObserver {
    events: usize,
    arrivals: usize,
    completions: usize,
    slot_boundaries: usize,
    failures: usize,
    repairs: usize,
    pause_ends: usize,
    replans: usize,
    finishes: usize,
    ticks: usize,
    decisions: usize,
}

impl SimObserver for CountingObserver {
    fn on_event(&mut self, _now: f64, event: &Event, _ctx: &SimContext<'_>) {
        self.events += 1;
        match event {
            Event::Arrival { .. } => self.arrivals += 1,
            Event::Completion { .. } => self.completions += 1,
            Event::SlotBoundary => self.slot_boundaries += 1,
            Event::ServerFailure { .. } => self.failures += 1,
            Event::ServerRepair { .. } => self.repairs += 1,
            Event::PauseEnd { .. } => self.pause_ends += 1,
        }
    }

    fn on_replan(&mut self, _now: f64, _outcome: &ReplanOutcome, _ctx: &SimContext<'_>) {
        self.replans += 1;
    }

    fn on_job_finish(&mut self, _now: f64, _job: JobId, _ctx: &SimContext<'_>) {
        self.finishes += 1;
    }

    fn on_tick(&mut self, _now: f64, _ctx: &SimContext<'_>) {
        self.ticks += 1;
    }

    fn on_decision(&mut self, _now: f64, _decision: &DecisionRecord, _ctx: &SimContext<'_>) {
        self.decisions += 1;
    }
}

/// Runs one simulation with two independent counting observers attached.
fn run_counted(seed: u64, config: SimConfig) -> (CountingObserver, CountingObserver, usize) {
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(seed).generate(&Interconnect::from_spec(&spec));
    let mut counter = CountingObserver::default();
    let mut second = CountingObserver::default();
    let report = Simulation::new(spec, config).run_observed(
        &trace,
        &mut EdfScheduler::new(),
        &mut [&mut counter, &mut second],
    );
    (counter, second, report.outcomes().len())
}

#[test]
fn hook_call_counts_match_event_counts() {
    let (counter, second, num_jobs) = run_counted(3, SimConfig::default());

    // Two independent observers of the same run see the same hook calls.
    assert_eq!(counter, second);

    // Per-kind tallies agree with the engine's accounting: every trace job
    // arrives exactly once, every completion is paired with an
    // `on_job_finish` hook, and every loop iteration replans and ticks
    // exactly once.
    assert_eq!(counter.arrivals, num_jobs);
    assert_eq!(counter.completions, counter.finishes);
    assert_eq!(counter.replans, counter.ticks);
    assert!(counter.ticks > 0, "engine never ticked");
    assert_eq!(
        counter.events,
        counter.arrivals
            + counter.completions
            + counter.slot_boundaries
            + counter.failures
            + counter.repairs
            + counter.pause_ends,
        "on_event fired for an unclassified event kind"
    );
    assert_eq!(counter.failures + counter.repairs, 0);

    // Every arrival produces exactly one admit/decline decision record;
    // plan application can only add more on top of those.
    assert!(counter.decisions >= counter.arrivals);
}

#[test]
fn failure_and_repair_events_are_observed() {
    let failures = FailureSchedule::fixed(vec![NodeFailure {
        server: 1,
        at: 1_200.0,
        repair_seconds: 3_600.0,
    }]);
    let (counter, _, _) = run_counted(3, SimConfig::default().with_failures(failures));
    assert!(
        counter.failures >= 1,
        "ServerFailure never reached observers"
    );
    assert!(counter.repairs >= 1, "ServerRepair never reached observers");
}

/// One token per hook call, for replaying the exact interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    Phase(SchedPhase, PhaseEdge),
    Event,
    Finish,
    Replan,
    Tick,
    Decision,
}

/// Records the hook interleaving verbatim.
#[derive(Debug, Default)]
struct RecordingObserver {
    tokens: Vec<Token>,
    arrivals: usize,
}

impl SimObserver for RecordingObserver {
    fn on_event(&mut self, _now: f64, event: &Event, _ctx: &SimContext<'_>) {
        self.tokens.push(Token::Event);
        if matches!(event, Event::Arrival { .. }) {
            self.arrivals += 1;
        }
    }

    fn on_decision(&mut self, _now: f64, _decision: &DecisionRecord, _ctx: &SimContext<'_>) {
        self.tokens.push(Token::Decision);
    }

    fn on_phase(&mut self, _now: f64, phase: SchedPhase, edge: PhaseEdge, _ctx: &SimContext<'_>) {
        self.tokens.push(Token::Phase(phase, edge));
    }

    fn on_replan(&mut self, _now: f64, _outcome: &ReplanOutcome, _ctx: &SimContext<'_>) {
        self.tokens.push(Token::Replan);
    }

    fn on_job_finish(&mut self, _now: f64, _job: JobId, _ctx: &SimContext<'_>) {
        self.tokens.push(Token::Finish);
    }

    fn on_tick(&mut self, _now: f64, _ctx: &SimContext<'_>) {
        self.tokens.push(Token::Tick);
    }
}

/// The documented per-round hook grammar (observer.rs module docs):
///
/// ```text
/// Decision*                                 (failure evictions)
/// (AdmissionBegin Decision* AdmissionEnd)?  (one decision per arrival)
/// Event* Finish*
/// PlanningBegin PlanningEnd PlacementBegin PlacementEnd
/// Decision*                                 (plan application)
/// Replan Tick
/// ```
///
/// Consumes one round from `tokens[i..]`, returning the next index and
/// adding the number of in-admission-bracket decisions to
/// `bracket_decisions`.
fn consume_round(
    tokens: &[Token],
    mut i: usize,
    bracket_decisions: &mut usize,
) -> Result<usize, String> {
    use PhaseEdge::{Begin, End};
    use SchedPhase::{Admission, Placement, Planning};

    let at = |i: usize| -> String { format!("at token {i}: {:?}", tokens.get(i)) };
    while tokens.get(i) == Some(&Token::Decision) {
        i += 1;
    }
    if tokens.get(i) == Some(&Token::Phase(Admission, Begin)) {
        i += 1;
        while tokens.get(i) == Some(&Token::Decision) {
            *bracket_decisions += 1;
            i += 1;
        }
        if tokens.get(i) != Some(&Token::Phase(Admission, End)) {
            return Err(format!("AdmissionBegin not closed {}", at(i)));
        }
        i += 1;
    }
    while tokens.get(i) == Some(&Token::Event) {
        i += 1;
    }
    while tokens.get(i) == Some(&Token::Finish) {
        i += 1;
    }
    for expected in [
        Token::Phase(Planning, Begin),
        Token::Phase(Planning, End),
        Token::Phase(Placement, Begin),
        Token::Phase(Placement, End),
    ] {
        if tokens.get(i) != Some(&expected) {
            return Err(format!("expected {expected:?} {}", at(i)));
        }
        i += 1;
    }
    while tokens.get(i) == Some(&Token::Decision) {
        i += 1;
    }
    for expected in [Token::Replan, Token::Tick] {
        if tokens.get(i) != Some(&expected) {
            return Err(format!("expected {expected:?} {}", at(i)));
        }
        i += 1;
    }
    Ok(i)
}

#[test]
fn hook_ordering_follows_the_documented_contract() {
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(3).generate(&Interconnect::from_spec(&spec));
    let mut recorder = RecordingObserver::default();
    let _ = Simulation::new(spec, SimConfig::default()).run_observed(
        &trace,
        &mut EdfScheduler::new(),
        &mut [&mut recorder],
    );

    let tokens = &recorder.tokens;
    assert!(!tokens.is_empty(), "no hooks fired");
    let mut i = 0;
    let mut rounds = 0usize;
    let mut bracket_decisions = 0usize;
    while i < tokens.len() {
        i = consume_round(tokens, i, &mut bracket_decisions)
            .unwrap_or_else(|e| panic!("round {rounds} violates the hook contract: {e}"));
        rounds += 1;
    }
    let ticks = tokens.iter().filter(|t| **t == Token::Tick).count();
    assert_eq!(rounds, ticks, "every round ends in exactly one tick");

    // Exactly one admit/decline decision lands inside the admission
    // bracket per arrival.
    assert_eq!(
        bracket_decisions, recorder.arrivals,
        "admission-bracket decisions must pair 1:1 with arrivals"
    );

    // Admission phases appear only in rounds with arrivals, and at least
    // one round of this trace has them.
    use PhaseEdge::Begin;
    let admissions = tokens
        .iter()
        .filter(|t| **t == Token::Phase(SchedPhase::Admission, Begin))
        .count();
    assert!(admissions > 0, "no admission phase was ever bracketed");
    assert!(admissions <= rounds);
}

#[test]
fn attached_observers_leave_the_report_unchanged() {
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(9).generate(&Interconnect::from_spec(&spec));
    let plain =
        Simulation::new(spec.clone(), SimConfig::default()).run(&trace, &mut EdfScheduler::new());
    let mut counter = CountingObserver::default();
    let observed = Simulation::new(spec, SimConfig::default()).run_observed(
        &trace,
        &mut EdfScheduler::new(),
        &mut [&mut counter],
    );
    assert_eq!(plain, observed);
}
