//! One-stop bundle: a metrics collector plus a span tracer, with export
//! helpers. This is the type the bench harness and examples attach.

use std::io;
use std::path::{Path, PathBuf};

use elasticflow_sim::SimObserver;

use crate::chrome;
use crate::clock::TickClock;
use crate::collector::MetricsCollector;
use crate::journal::DecisionJournal;
use crate::prometheus;
use crate::spans::SpanTracer;

/// A paired [`MetricsCollector`], [`SpanTracer`], and
/// [`DecisionJournal`] sharing a clock policy, with Prometheus /
/// Chrome-trace / decision-journal export helpers.
#[derive(Debug, Default)]
pub struct TelemetrySession {
    /// The metrics side of the session.
    pub metrics: MetricsCollector,
    /// The span-tracing side of the session.
    pub spans: SpanTracer,
    /// The decision-provenance side of the session.
    pub journal: DecisionJournal,
}

impl TelemetrySession {
    /// A session using deterministic [`TickClock`]s: exports are
    /// byte-stable across reruns of the same seed. This is the default.
    pub fn deterministic() -> Self {
        TelemetrySession {
            metrics: MetricsCollector::new(Box::<TickClock>::default()),
            spans: SpanTracer::new(Box::<TickClock>::default()),
            journal: DecisionJournal::new(),
        }
    }

    /// All three observers, ready to splice into
    /// [`run_observed`](elasticflow_sim::Simulation::run_observed)'s
    /// observer slice.
    pub fn observers(&mut self) -> Vec<&mut dyn SimObserver> {
        vec![&mut self.metrics, &mut self.spans, &mut self.journal]
    }

    /// The metrics registry rendered in Prometheus text format.
    pub fn prometheus(&self) -> String {
        prometheus::render(self.metrics.registry())
    }

    /// The span trace rendered as Chrome trace-event JSON (finalizes the
    /// tracer, closing any still-open spans).
    pub fn chrome_trace(&mut self) -> String {
        chrome::render(&mut self.spans)
    }

    /// The decision journal rendered as a JSONL document.
    pub fn decision_journal(&self) -> String {
        self.journal.to_jsonl()
    }

    /// Writes `<stem>.prom`, `<stem>.trace.json`, and
    /// `<stem>.decisions.jsonl` under `dir` (creating it), returning
    /// the three paths.
    pub fn write_to_dir<P: AsRef<Path>>(
        &mut self,
        dir: P,
        stem: &str,
    ) -> io::Result<(PathBuf, PathBuf, PathBuf)> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let prom_path = dir.join(format!("{stem}.prom"));
        let trace_path = dir.join(format!("{stem}.trace.json"));
        let journal_path = dir.join(format!("{stem}.decisions.jsonl"));
        std::fs::write(&prom_path, self.prometheus())?;
        std::fs::write(&trace_path, self.chrome_trace())?;
        std::fs::write(&journal_path, self.decision_journal())?;
        Ok((prom_path, trace_path, journal_path))
    }
}
