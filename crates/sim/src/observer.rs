//! The pluggable observation layer: [`SimObserver`] hooks plus the stock
//! timeline collector (the invariant auditor joins it in every debug
//! build).
//!
//! Observers are strictly read-only: hooks receive a [`SimContext`]
//! snapshot borrowing the live cluster and job table, and nothing an
//! observer does can change replay arithmetic — attaching any combination
//! of observers yields a byte-identical [`crate::SimReport`] (the golden
//! replay test enforces this).
//!
//! # Hook order within one scheduling event
//!
//! 1. [`SimObserver::on_decision`] — zero or more failure-eviction
//!    records ([`DecisionRecord::Preempt`] / [`DecisionRecord::Pause`])
//!    when a server failure in this round's batch evicted running jobs;
//! 2. [`SimObserver::on_phase`] with [`SchedPhase::Admission`]
//!    `Begin`/`End` — bracketing the admission-control consultations, only
//!    in rounds with arrivals (admission happens before the event batch is
//!    shown to observers); inside the bracket,
//!    [`SimObserver::on_decision`] fires exactly once per arrival with the
//!    [`DecisionRecord::Admit`] or [`DecisionRecord::Decline`] record;
//! 3. [`SimObserver::on_event`] — once per batched [`Event`] (pause ends,
//!    completions, failures/repairs, arrivals, slot boundary), after the
//!    batch is applied to the state but before the replan;
//! 4. [`SimObserver::on_job_finish`] — once per completed job;
//! 5. [`SimObserver::on_phase`] with [`SchedPhase::Planning`]
//!    `Begin`/`End` — bracketing the policy's `plan` call, every round;
//! 6. [`SimObserver::on_phase`] with [`SchedPhase::Placement`]
//!    `Begin`/`End` — bracketing plan application (buddy allocation,
//!    defragmentation, pause charging), every round;
//! 7. [`SimObserver::on_decision`] — zero or more plan-application
//!    records ([`DecisionRecord::Resize`] / `Preempt` / `Migrate` /
//!    `Pause`), in the order the plan was applied;
//! 8. [`SimObserver::on_replan`] — after the new plan is applied, with the
//!    round's [`ReplanOutcome`];
//! 9. [`SimObserver::on_tick`] — once per event loop iteration, last.

use elasticflow_cluster::ClusterState;
use elasticflow_sched::{DecisionRecord, JobTable, ReplanOutcome};
use elasticflow_trace::JobId;
use serde::{Deserialize, Serialize};

use crate::event::Event;
use crate::TimelinePoint;

/// One profiled phase of a scheduling round, as bracketed by
/// [`SimObserver::on_phase`] hooks.
///
/// The phases map onto the paper's decomposition of a scheduling pass:
/// admission control (Algorithm 1), resource allocation (Algorithm 2 — the
/// policy's `plan` call, which for ElasticFlow spans minimum-satisfactory-
/// share computation and elastic allocation), and placement (buddy
/// allocation plus defragmentation). Planning is opaque at this seam: the
/// simulator cannot see inside a policy, so MSS computation and allocation
/// are profiled together under [`SchedPhase::Planning`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SchedPhase {
    /// Admission-control consultation for the round's arrivals.
    Admission,
    /// The policy's `plan` call (MSS computation + allocation).
    Planning,
    /// Applying the plan to the cluster (buddy placement, defrag, pauses).
    Placement,
}

impl SchedPhase {
    /// Stable lowercase label, used for metric labels and span names.
    pub fn label(self) -> &'static str {
        match self {
            SchedPhase::Admission => "admission",
            SchedPhase::Planning => "planning",
            SchedPhase::Placement => "placement",
        }
    }

    /// All phases, in within-round order.
    pub const ALL: [SchedPhase; 3] = [
        SchedPhase::Admission,
        SchedPhase::Planning,
        SchedPhase::Placement,
    ];
}

/// Whether an [`SimObserver::on_phase`] call opens or closes the phase.
///
/// The engine emits the edges; observers that want durations time the
/// span between them with a clock of their choosing (the simulated clock
/// does not advance while scheduler code runs, so wall or deterministic
/// tick clocks both stay outside replay arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseEdge {
    /// The phase starts now.
    Begin,
    /// The phase ended now.
    End,
}

/// Read-only snapshot of simulation state, lent to observer hooks.
#[derive(Debug, Clone, Copy)]
pub struct SimContext<'a> {
    /// The cluster's allocation state (includes phantom blocks fencing off
    /// failed servers).
    pub cluster: &'a ClusterState,
    /// Every job the simulator has seen so far.
    pub jobs: &'a JobTable,
    /// Cluster capacity in GPUs.
    pub total_gpus: u32,
    /// GPUs currently fenced off behind failed-server phantom blocks.
    pub fenced_gpus: u32,
    /// Jobs submitted so far.
    pub submitted: usize,
    /// Jobs admitted so far.
    pub admitted: usize,
    /// Owner-tag threshold above which cluster blocks stand in for failed
    /// servers rather than jobs.
    pub phantom_base: u64,
}

impl<'a> SimContext<'a> {
    /// Assembles a snapshot.
    pub(crate) fn new(
        cluster: &'a ClusterState,
        jobs: &'a JobTable,
        total_gpus: u32,
        fenced_gpus: u32,
        submitted: usize,
        admitted: usize,
        phantom_base: u64,
    ) -> Self {
        SimContext {
            cluster,
            jobs,
            total_gpus,
            fenced_gpus,
            submitted,
            admitted,
            phantom_base,
        }
    }

    /// GPUs allocated to jobs right now (net of fenced failed servers).
    pub fn used_gpus(&self) -> u32 {
        self.cluster.used_gpus() - self.fenced_gpus
    }
}

/// Hooks called by the simulation engine at every scheduling event.
///
/// All hooks default to no-ops, so an observer implements only what it
/// needs. Attach observers with [`crate::Simulation::run_observed`]:
///
/// ```
/// use elasticflow_cluster::ClusterSpec;
/// use elasticflow_perfmodel::Interconnect;
/// use elasticflow_sched::EdfScheduler;
/// use elasticflow_sim::{Event, SimConfig, SimContext, SimObserver, Simulation};
/// use elasticflow_trace::TraceConfig;
///
/// /// Counts the typed events the engine shows observers.
/// struct EventCount(usize);
///
/// impl SimObserver for EventCount {
///     fn on_event(&mut self, _now: f64, _event: &Event, _ctx: &SimContext<'_>) {
///         self.0 += 1;
///     }
/// }
///
/// let spec = ClusterSpec::small_testbed();
/// let trace = TraceConfig::testbed_small(1).generate(&Interconnect::from_spec(&spec));
/// let mut count = EventCount(0);
/// let report = Simulation::new(spec, SimConfig::default())
///     .run_observed(&trace, &mut EdfScheduler::new(), &mut [&mut count]);
/// assert!(count.0 > 0);
/// assert_eq!(report.outcomes().len(), 25);
/// ```
pub trait SimObserver {
    /// One typed [`Event`] from the current batch, after it was applied.
    fn on_event(&mut self, _now: f64, _event: &Event, _ctx: &SimContext<'_>) {}

    /// A scheduling phase opened (`Begin`) or closed (`End`). `Admission`
    /// edges fire only in rounds with arrivals; `Planning` and `Placement`
    /// edges fire every round. Simulated time is identical on both edges —
    /// observers profiling real durations bring their own clock.
    fn on_phase(&mut self, _now: f64, _phase: SchedPhase, _edge: PhaseEdge, _ctx: &SimContext<'_>) {
    }

    /// One scheduling decision (admit/decline/resize/preempt/migrate/
    /// pause) was made. Admission records fire inside the `Admission`
    /// phase bracket, one per arrival; plan-application records fire
    /// between the `Placement` end edge and [`SimObserver::on_replan`];
    /// failure-eviction records fire at the start of the round. Records
    /// are derived from already-deterministic state — never from clocks —
    /// so the stream is byte-identical across replays.
    fn on_decision(&mut self, _now: f64, _decision: &DecisionRecord, _ctx: &SimContext<'_>) {}

    /// A replan round finished and its plan was applied to the cluster.
    fn on_replan(&mut self, _now: f64, _outcome: &ReplanOutcome, _ctx: &SimContext<'_>) {}

    /// A job ran to completion (fires in addition to the corresponding
    /// [`Event::Completion`]).
    fn on_job_finish(&mut self, _now: f64, _job: JobId, _ctx: &SimContext<'_>) {}

    /// End of one event-loop iteration; the canonical place to sample
    /// cluster-wide series.
    fn on_tick(&mut self, _now: f64, _ctx: &SimContext<'_>) {}
}

/// The stock metrics observer: samples one [`TimelinePoint`] per tick —
/// the series behind the paper's Figs. 7 and 10. The engine always runs
/// one internally to assemble the [`crate::SimReport`].
#[derive(Debug, Clone, Default)]
pub struct TimelineCollector {
    timeline: Vec<TimelinePoint>,
}

impl TimelineCollector {
    /// An empty collector.
    pub fn new() -> Self {
        TimelineCollector::default()
    }

    /// A collector pre-seeded with points sampled before a checkpoint cut,
    /// so a resumed run appends to the original series seamlessly.
    pub fn from_timeline(timeline: Vec<TimelinePoint>) -> Self {
        TimelineCollector { timeline }
    }

    /// The points sampled so far.
    pub fn timeline(&self) -> &[TimelinePoint] {
        &self.timeline
    }

    /// Consumes the collector into its samples.
    pub fn into_timeline(self) -> Vec<TimelinePoint> {
        self.timeline
    }
}

impl SimObserver for TimelineCollector {
    fn on_tick(&mut self, now: f64, ctx: &SimContext<'_>) {
        // Guard the empty-cluster spec: 0/0 would record NaN efficiency.
        let ce = if ctx.total_gpus == 0 {
            0.0
        } else {
            ctx.jobs
                .active()
                .filter(|j| j.current_gpus > 0)
                .map(|j| j.curve.speedup(j.current_gpus).unwrap_or(0.0))
                .sum::<f64>()
                / ctx.total_gpus as f64
        };
        self.timeline.push(TimelinePoint {
            time: now,
            used_gpus: ctx.used_gpus(),
            cluster_efficiency: ce,
            submitted: ctx.submitted,
            admitted: ctx.admitted,
        });
    }
}
