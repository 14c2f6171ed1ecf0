//! The stock metrics observer: populates a [`MetricsRegistry`] from the
//! simulator's hook stream.

use std::collections::BTreeMap;

use elasticflow_sched::{DecisionRecord, ReplanOutcome};
use elasticflow_sim::{Event, PhaseEdge, SchedPhase, SimContext, SimObserver};
use elasticflow_trace::{JobId, JobKind};

use crate::clock::{Clock, TickClock};
use crate::registry::MetricsRegistry;

/// Histogram name for scheduler-phase durations (labelled by `phase`).
pub const PHASE_SECONDS: &str = "ef_scheduler_phase_seconds";
/// Histogram name for per-replan GPU utilization.
pub const REPLAN_UTILIZATION: &str = "ef_replan_gpu_utilization";
/// Histogram name for per-submission decision latency (serving path).
pub const DECISION_LATENCY: &str = "ef_decision_latency_seconds";

/// Upper bounds for the phase-duration histogram, seconds.
const PHASE_BUCKETS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];
/// Upper bounds for the utilization histogram, fractions of the cluster.
const UTILIZATION_BUCKETS: [f64; 7] = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
/// Upper bounds for the decision-latency histogram, seconds. Incremental
/// admission answers in microseconds; the tail buckets catch the batch
/// refills at slot boundaries and pathological stalls.
pub const DECISION_LATENCY_BUCKETS: [f64; 10] =
    [1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2, 1e-1, 1.0];

/// Describes [`DECISION_LATENCY`] on `registry` with its fixed buckets.
///
/// Shared by [`MetricsCollector`] and the serve daemon's registry so the
/// exposition is identical whichever side hosts the metric.
pub fn describe_decision_latency(registry: &mut MetricsRegistry) {
    registry.describe_histogram(
        DECISION_LATENCY,
        "Clocked wall time to answer one admission decision",
        &DECISION_LATENCY_BUCKETS,
    );
}

/// Stable lowercase label for a job kind.
fn kind_label(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Slo => "slo",
        JobKind::BestEffort => "best_effort",
        JobKind::SoftDeadline => "soft_deadline",
    }
}

/// A [`SimObserver`] maintaining the standard ElasticFlow metric set:
/// admissions, declines, resizes, migrations, pause seconds, fenced GPUs,
/// deadline hits/misses, per-replan GPU utilization, and scheduler-phase
/// durations.
///
/// Every timestamped quantity is simulated time; phase *durations* come
/// from the [`Clock`] the collector was built with ([`TickClock`] by
/// default, keeping exports byte-stable across reruns of the same seed).
#[derive(Debug)]
pub struct MetricsCollector {
    registry: MetricsRegistry,
    clock: Box<dyn Clock>,
    phase_starts: BTreeMap<SchedPhase, u64>,
}

impl Default for MetricsCollector {
    fn default() -> Self {
        MetricsCollector::new(Box::<TickClock>::default())
    }
}

impl MetricsCollector {
    /// A collector timing scheduler phases with `clock`.
    pub fn new(clock: Box<dyn Clock>) -> Self {
        let mut registry = MetricsRegistry::new();
        registry.describe_counter("ef_jobs_submitted_total", "Jobs submitted to the platform");
        registry.describe_counter(
            "ef_jobs_admitted_total",
            "Jobs accepted by admission control",
        );
        registry.describe_counter(
            "ef_jobs_declined_total",
            "Jobs rejected by admission control (deadline unsatisfiable)",
        );
        registry.describe_counter("ef_jobs_finished_total", "Jobs that ran to completion");
        registry.describe_counter(
            "ef_deadline_hits_total",
            "Finished jobs that met their deadline, by job kind",
        );
        registry.describe_counter(
            "ef_deadline_misses_total",
            "Finished jobs that missed their deadline, by job kind",
        );
        registry.describe_counter("ef_replans_total", "Scheduling rounds executed");
        registry.describe_counter(
            "ef_resizes_total",
            "Jobs whose worker count changed when a plan was applied",
        );
        registry.describe_counter(
            "ef_migrations_total",
            "Defragmentation migrations performed while placing plans",
        );
        registry.describe_counter(
            "ef_pause_seconds_total",
            "Seconds of job pause charged for scaling and migration",
        );
        registry.describe_counter("ef_server_failures_total", "Server failure events");
        registry.describe_counter("ef_server_repairs_total", "Server repair events");
        registry.describe_counter(
            "ef_pause_ends_total",
            "Scaling/migration/recovery pauses that elapsed",
        );
        registry.describe_counter(
            "ef_slot_boundaries_total",
            "Periodic replan slot boundaries",
        );
        registry.describe_counter(
            "ef_decisions_total",
            "Scheduling decisions recorded by the provenance stream, by kind",
        );
        registry.describe_counter(
            "ef_declines_total",
            "Admission declines by structured reason",
        );
        registry.describe_gauge("ef_used_gpus", "GPUs allocated to jobs right now");
        registry.describe_gauge(
            "ef_fenced_gpus",
            "GPUs fenced off behind failed-server phantom blocks",
        );
        registry.describe_gauge("ef_active_jobs", "Admitted, unfinished jobs");
        registry.describe_gauge(
            "ef_cluster_efficiency",
            "Aggregate speedup over cluster size (paper Eq. 8)",
        );
        registry.describe_gauge("ef_sim_time_seconds", "Simulated time of the last tick");
        registry.describe_histogram(
            REPLAN_UTILIZATION,
            "Fraction of the cluster each applied plan uses",
            &UTILIZATION_BUCKETS,
        );
        registry.describe_histogram(
            PHASE_SECONDS,
            "Clocked duration of each scheduling phase, by phase label",
            &PHASE_BUCKETS,
        );
        describe_decision_latency(&mut registry);
        MetricsCollector {
            registry,
            clock,
            phase_starts: BTreeMap::new(),
        }
    }

    /// The populated registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable access to the registry, so harnesses can merge series
    /// recorded outside the observer hooks (e.g. checkpoint counters)
    /// into the same exposition.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }
}

impl SimObserver for MetricsCollector {
    fn on_event(&mut self, _now: f64, event: &Event, ctx: &SimContext<'_>) {
        match event {
            Event::Arrival { job } => {
                self.registry.inc("ef_jobs_submitted_total", &[], 1.0);
                let declined = ctx.jobs.get(*job).is_some_and(|j| j.dropped);
                if declined {
                    self.registry.inc("ef_jobs_declined_total", &[], 1.0);
                } else {
                    self.registry.inc("ef_jobs_admitted_total", &[], 1.0);
                }
            }
            Event::Completion { .. } => {
                self.registry.inc("ef_jobs_finished_total", &[], 1.0);
            }
            Event::SlotBoundary => {
                self.registry.inc("ef_slot_boundaries_total", &[], 1.0);
            }
            Event::ServerFailure { .. } => {
                self.registry.inc("ef_server_failures_total", &[], 1.0);
            }
            Event::ServerRepair { .. } => {
                self.registry.inc("ef_server_repairs_total", &[], 1.0);
            }
            Event::PauseEnd { .. } => {
                self.registry.inc("ef_pause_ends_total", &[], 1.0);
            }
        }
    }

    fn on_phase(&mut self, _now: f64, phase: SchedPhase, edge: PhaseEdge, _ctx: &SimContext<'_>) {
        match edge {
            PhaseEdge::Begin => {
                self.phase_starts.insert(phase, self.clock.now_nanos());
            }
            PhaseEdge::End => {
                if let Some(start) = self.phase_starts.remove(&phase) {
                    let nanos = self.clock.now_nanos().saturating_sub(start);
                    self.registry.observe(
                        PHASE_SECONDS,
                        &[("phase", phase.label())],
                        nanos as f64 / 1e9,
                    );
                }
            }
        }
    }

    fn on_decision(&mut self, _now: f64, decision: &DecisionRecord, _ctx: &SimContext<'_>) {
        self.registry.inc(
            "ef_decisions_total",
            &[("kind", decision.kind_label())],
            1.0,
        );
        // Exhaustive on purpose: a new decision kind must be considered
        // here, not silently absorbed (EF-L007).
        match decision {
            DecisionRecord::Decline { reason, .. } => {
                self.registry
                    .inc("ef_declines_total", &[("reason", reason.label())], 1.0);
            }
            DecisionRecord::Admit { .. }
            | DecisionRecord::Resize { .. }
            | DecisionRecord::Preempt { .. }
            | DecisionRecord::Migrate { .. }
            | DecisionRecord::Pause { .. } => {}
        }
    }

    fn on_replan(&mut self, _now: f64, outcome: &ReplanOutcome, ctx: &SimContext<'_>) {
        self.registry.inc("ef_replans_total", &[], 1.0);
        self.registry
            .inc("ef_resizes_total", &[], f64::from(outcome.resized_jobs));
        self.registry
            .inc("ef_migrations_total", &[], f64::from(outcome.migrations));
        self.registry
            .inc("ef_pause_seconds_total", &[], outcome.pause_seconds);
        self.registry
            .observe(REPLAN_UTILIZATION, &[], outcome.utilization(ctx.total_gpus));
    }

    fn on_job_finish(&mut self, _now: f64, job: JobId, ctx: &SimContext<'_>) {
        if let Some(j) = ctx.jobs.get(job) {
            let labels = [("kind", kind_label(j.spec.kind))];
            if j.met_deadline() {
                self.registry.inc("ef_deadline_hits_total", &labels, 1.0);
            } else {
                self.registry.inc("ef_deadline_misses_total", &labels, 1.0);
            }
        }
    }

    fn on_tick(&mut self, now: f64, ctx: &SimContext<'_>) {
        self.registry
            .set_gauge("ef_used_gpus", &[], f64::from(ctx.used_gpus()));
        self.registry
            .set_gauge("ef_fenced_gpus", &[], f64::from(ctx.fenced_gpus));
        self.registry
            .set_gauge("ef_active_jobs", &[], ctx.jobs.active().count() as f64);
        let ce = if ctx.total_gpus == 0 {
            0.0
        } else {
            ctx.jobs
                .iter()
                .filter(|j| j.is_active() && j.current_gpus > 0)
                .map(|j| j.curve.speedup(j.current_gpus).unwrap_or(0.0))
                .sum::<f64>()
                / f64::from(ctx.total_gpus)
        };
        self.registry.set_gauge("ef_cluster_efficiency", &[], ce);
        self.registry.set_gauge("ef_sim_time_seconds", &[], now);
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;
    use elasticflow_cluster::ClusterSpec;
    use elasticflow_perfmodel::Interconnect;
    use elasticflow_sched::EdfScheduler;
    use elasticflow_sim::{SimConfig, Simulation};
    use elasticflow_trace::TraceConfig;

    fn collect(seed: u64) -> MetricsRegistry {
        let spec = ClusterSpec::small_testbed();
        let trace = TraceConfig::testbed_small(seed).generate(&Interconnect::from_spec(&spec));
        let mut collector = MetricsCollector::default();
        let _ = Simulation::new(spec, SimConfig::default()).run_observed(
            &trace,
            &mut EdfScheduler::new(),
            &mut [&mut collector],
        );
        collector.registry().clone()
    }

    #[test]
    fn standard_counters_agree_with_the_run() {
        let reg = collect(3);
        assert_eq!(reg.counter_value("ef_jobs_submitted_total", &[]), 25.0);
        let admitted = reg.counter_value("ef_jobs_admitted_total", &[]);
        let declined = reg.counter_value("ef_jobs_declined_total", &[]);
        assert_eq!(admitted + declined, 25.0);
        assert!(reg.counter_value("ef_replans_total", &[]) > 0.0);
        let hits = reg.counter_value("ef_deadline_hits_total", &[("kind", "slo")]);
        let misses = reg.counter_value("ef_deadline_misses_total", &[("kind", "slo")]);
        assert!(hits + misses <= reg.counter_value("ef_jobs_finished_total", &[]));
    }

    #[test]
    fn phase_histogram_observes_every_round() {
        let reg = collect(3);
        let replans = reg.counter_value("ef_replans_total", &[]);
        for phase in ["planning", "placement"] {
            let h = reg
                .histogram(PHASE_SECONDS, &[("phase", phase)])
                .unwrap_or_else(|| panic!("{phase} histogram missing"));
            assert_eq!(h.count() as f64, replans, "{phase}");
        }
        let adm = reg
            .histogram(PHASE_SECONDS, &[("phase", "admission")])
            .expect("admission histogram missing");
        assert!(adm.count() > 0 && (adm.count() as f64) <= replans);
    }

    #[test]
    fn utilization_histogram_stays_in_unit_range() {
        let reg = collect(5);
        let h = reg
            .histogram(REPLAN_UTILIZATION, &[])
            .expect("utilization histogram missing");
        assert_eq!(h.count() as f64, reg.counter_value("ef_replans_total", &[]));
        // Every observation landed in a finite bucket (nothing above 1.0).
        let cum = h.cumulative_counts();
        assert_eq!(cum[cum.len() - 1], cum[cum.len() - 2]);
    }

    #[test]
    fn decision_counters_split_by_kind_and_reason() {
        // ElasticFlow's admission control produces structured declines on
        // the loaded testbed trace.
        let spec = ClusterSpec::small_testbed();
        let trace = TraceConfig::testbed_small(42).generate(&Interconnect::from_spec(&spec));
        let mut collector = MetricsCollector::default();
        let _ = Simulation::new(spec, SimConfig::default()).run_observed(
            &trace,
            &mut elasticflow_core::ElasticFlowScheduler::new(),
            &mut [&mut collector],
        );
        let reg = collector.registry().clone();
        // One admit/decline decision per submitted job.
        let admits = reg.counter_value("ef_decisions_total", &[("kind", "admit")]);
        let declines = reg.counter_value("ef_decisions_total", &[("kind", "decline")]);
        assert_eq!(admits, reg.counter_value("ef_jobs_admitted_total", &[]));
        assert_eq!(declines, reg.counter_value("ef_jobs_declined_total", &[]));
        assert!(declines > 0.0, "seed 42 must produce declines");
        // Every decline carries a structured reason label.
        let by_reason: f64 = ["candidate_infeasible", "would_displace", "unexplained"]
            .iter()
            .map(|r| reg.counter_value("ef_declines_total", &[("reason", r)]))
            .sum();
        assert_eq!(by_reason, declines);
        // ElasticFlow attributes every decline (never Unexplained).
        assert_eq!(
            reg.counter_value("ef_declines_total", &[("reason", "unexplained")]),
            0.0
        );
        // Plan application produces resize decisions on this trace.
        assert!(reg.counter_value("ef_decisions_total", &[("kind", "resize")]) > 0.0);
    }
}
