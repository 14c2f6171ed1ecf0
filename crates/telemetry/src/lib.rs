//! Telemetry for the ElasticFlow simulator: a metrics registry,
//! job-lifecycle span tracing, scheduler-phase profiling, and
//! Prometheus / Chrome-trace exporters — all attached through the
//! read-only [`SimObserver`](elasticflow_sim::SimObserver) seam.
//!
//! # Determinism contract
//!
//! The simulator never reads a clock; the engine only emits
//! [`SchedPhase`](elasticflow_sim::SchedPhase) `Begin`/`End` edges, and
//! *observers* time them with a pluggable [`Clock`]. Two consequences:
//!
//! 1. Attaching any telemetry observer leaves the `SimReport` (and the
//!    golden-replay digests) byte-identical — telemetry can never
//!    perturb a run.
//! 2. With the default [`TickClock`], exports themselves are
//!    byte-stable across reruns of the same seed, so they can be
//!    golden-tested. Opt into [`MonotonicClock`] for real host-side
//!    phase timings.
//!
//! All metric *timestamps* (e.g. `ef_sim_time_seconds`) are simulated
//! time; only phase *durations* come from the clock.
//!
//! # Quick start
//!
//! ```
//! use elasticflow_cluster::ClusterSpec;
//! use elasticflow_perfmodel::Interconnect;
//! use elasticflow_core::ElasticFlowScheduler;
//! use elasticflow_sim::{SimConfig, Simulation};
//! use elasticflow_telemetry::TelemetrySession;
//! use elasticflow_trace::TraceConfig;
//!
//! let spec = ClusterSpec::small_testbed();
//! let trace = TraceConfig::testbed_small(42).generate(&Interconnect::from_spec(&spec));
//! let mut session = TelemetrySession::deterministic();
//! let report = Simulation::new(spec, SimConfig::default()).run_observed(
//!     &trace,
//!     &mut ElasticFlowScheduler::new(),
//!     &mut session.observers(),
//! );
//! let prom_text = session.prometheus();      // Prometheus text exposition
//! let trace_json = session.chrome_trace();   // open in https://ui.perfetto.dev
//! assert!(prom_text.contains("ef_jobs_submitted_total"));
//! assert!(trace_json.contains("traceEvents"));
//! # let _ = report;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod collector;
pub mod journal;
pub mod prometheus;
pub mod registry;
pub mod session;
pub mod spans;

pub use clock::{Clock, MonotonicClock, TickClock};
pub use collector::{
    describe_decision_latency, MetricsCollector, DECISION_LATENCY, DECISION_LATENCY_BUCKETS,
    PHASE_SECONDS, REPLAN_UTILIZATION,
};
pub use journal::{DecisionJournal, JournalEntry, JournalError, JOURNAL_MAGIC, JOURNAL_VERSION};
pub use registry::{
    Histogram, MetricDesc, MetricKind, MetricsRegistry, SeriesKey, DEFAULT_BUCKETS,
};
pub use session::TelemetrySession;
pub use spans::{ArgValue, SpanTracer, TraceEvent};
