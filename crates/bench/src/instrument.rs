//! The one run path of the experiment harness: every simulation, with
//! optional telemetry capture and crash-consistent persistence.
//!
//! `experiments ... [--jobs N] [--telemetry-out <dir>] [--state-dir <dir>
//! --checkpoint-every <secs> [--resume]]` [`install`]s one
//! [`RunSettings`] value at startup. [`crate::run_one`] and
//! [`crate::parallel::run_batch`] read it and route every simulation,
//! failure-injection runs included, through the same function:
//!
//! * with `--telemetry-out`, the run carries a deterministic
//!   [`TelemetrySession`] and drops `<dir>/<stem>.prom` (Prometheus text
//!   exposition), `<dir>/<stem>.trace.json` (Perfetto-loadable Chrome
//!   trace) and `<dir>/<stem>.decisions.jsonl` (decision journal,
//!   replayable with `experiments explain`);
//! * with `--state-dir`, full-state snapshots are cut every `<secs>` of
//!   *simulated* time under `<dir>/<stem>/`. With `--resume`, a run that
//!   finds a valid snapshot picks up from it. When telemetry is on too,
//!   the `ef_checkpoint*` series land in the run's Prometheus exposition.
//!
//! A run's stem is `<scheduler>-<trace>-<fp>`: `<fp>` is the 16-digit hex
//! [`Simulation::input_fingerprint`] of the run's trace, cluster spec and
//! sim config, built from the same fingerprints snapshots are validated
//! by. Runs with different inputs never share files, so concurrent runs
//! never write the same state directory and a resume never meets another
//! run's snapshot.
//!
//! Observers are read-only and resume is replay-exact, so a report is
//! bit-identical with or without instrumentation. Export and persistence
//! I/O failures are reported on stderr and never fail an experiment.

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use elasticflow_cluster::ClusterSpec;
use elasticflow_persist::{CheckpointStats, PersistSession};
use elasticflow_sim::{SimConfig, SimObserver, SimReport, Simulation};
use elasticflow_telemetry::TelemetrySession;
use elasticflow_trace::Trace;

use crate::runners::scheduler_by_name;

/// How every simulation run is instrumented, and how many run at once.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSettings {
    /// Directory receiving each run's export set (`--telemetry-out`).
    pub telemetry_dir: Option<PathBuf>,
    /// Root of the per-run state directories (`--state-dir`).
    pub state_dir: Option<PathBuf>,
    /// Simulated seconds between snapshots (`--checkpoint-every`).
    pub checkpoint_every: f64,
    /// Resume each run from its newest valid snapshot (`--resume`).
    pub resume: bool,
    /// Worker threads a batch of runs fans out to (`--jobs`); the
    /// available cores when unset.
    pub jobs: Option<NonZeroUsize>,
}

/// Plain runs, with a 600 s snapshot cadence once a state directory is
/// set.
static PLAIN: RunSettings = RunSettings {
    telemetry_dir: None,
    state_dir: None,
    checkpoint_every: 600.0,
    resume: false,
    jobs: None,
};

impl Default for RunSettings {
    fn default() -> Self {
        PLAIN.clone()
    }
}

static INSTALLED: OnceLock<RunSettings> = OnceLock::new();

/// Installs the process-wide settings. Runs that start before it are
/// plain.
///
/// # Panics
///
/// Panics when called a second time.
pub fn install(settings: RunSettings) {
    assert!(
        INSTALLED.set(settings).is_ok(),
        "run settings are installed once"
    );
}

/// The process-wide settings, plain until [`install`] was called.
pub(crate) fn installed() -> &'static RunSettings {
    INSTALLED.get().unwrap_or(&PLAIN)
}

/// `"{scheduler}-{trace}-{fp:016x}"` with every non-alphanumeric run
/// collapsed to a single `-`, so names like `edf+ac` make safe file
/// stems.
fn stem(scheduler: &str, trace: &str, fp: u64) -> String {
    let mut out = String::with_capacity(scheduler.len() + trace.len() + 18);
    for c in format!("{scheduler}-{trace}-{fp:016x}").chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_owned()
}

/// The stem of one run, keyed by all of its inputs.
fn run_stem(scheduler: &str, sim: &Simulation, trace: &Trace) -> String {
    stem(scheduler, trace.name(), sim.input_fingerprint(trace))
}

/// Runs `scheduler` on `trace` over `spec` under `config`, instrumented
/// as `settings` asks.
pub(crate) fn run(
    scheduler: &str,
    spec: &ClusterSpec,
    config: &SimConfig,
    trace: &Trace,
    settings: &RunSettings,
) -> SimReport {
    let sim = Simulation::new(spec.clone(), config.clone());
    if settings.telemetry_dir.is_none() && settings.state_dir.is_none() {
        return sim.run(trace, scheduler_by_name(scheduler).as_mut());
    }
    let stem = run_stem(scheduler, &sim, trace);
    let mut telemetry = settings
        .telemetry_dir
        .as_ref()
        .map(|_| TelemetrySession::deterministic());
    let (report, stats) = {
        let mut observers = telemetry
            .as_mut()
            .map_or_else(Vec::new, TelemetrySession::observers);
        match &settings.state_dir {
            Some(root) => run_persisted(
                &sim,
                trace,
                scheduler,
                &root.join(&stem),
                settings,
                &mut observers,
            ),
            None => (
                sim.run_observed(trace, scheduler_by_name(scheduler).as_mut(), &mut observers),
                None,
            ),
        }
    };
    if let (Some(dir), Some(session)) = (&settings.telemetry_dir, telemetry.as_mut()) {
        if let Some(stats) = stats {
            stats.record_metrics(session.metrics.registry_mut());
        }
        if let Err(e) = session.write_to_dir(dir, &stem) {
            eprintln!("warning: telemetry export for {stem} failed: {e} (results unaffected)");
        }
    }
    report
}

/// Runs one persisted simulation into `state_dir`, resuming from its
/// newest valid snapshot when `settings.resume` allows and one exists.
///
/// `extra` observers (telemetry) watch the run the session drives. A
/// rejected snapshot restarts the run fresh, and a state directory that
/// cannot be opened runs it unpersisted, each with a warning:
/// experiments never fail because stored state was unusable. Returns the
/// report plus the run's persistence statistics (`None` when the run was
/// unpersisted).
fn run_persisted(
    sim: &Simulation,
    trace: &Trace,
    scheduler: &str,
    state_dir: &Path,
    settings: &RunSettings,
    extra: &mut [&mut dyn SimObserver],
) -> (SimReport, Option<CheckpointStats>) {
    let (every, mut resume) = (settings.checkpoint_every, settings.resume);
    loop {
        let mut session = match PersistSession::begin(state_dir, every, resume) {
            Ok(session) => session,
            Err(e) => {
                eprintln!(
                    "warning: persistence disabled for {}: {e} (results unaffected)",
                    state_dir.display()
                );
                let report = sim.run_observed(trace, scheduler_by_name(scheduler).as_mut(), extra);
                return (report, None);
            }
        };
        if let Some(r) = session.recovered() {
            for (seq, why) in &r.skipped {
                eprintln!("warning: skipped corrupt snapshot {seq}: {why}");
            }
        }

        let mut policy = scheduler_by_name(scheduler);
        match session.run(sim, trace, policy.as_mut(), extra) {
            Ok(outcome) => {
                if let Some(e) = session.first_error() {
                    eprintln!(
                        "warning: persistence write error during run: {e} (results unaffected)"
                    );
                }
                return (outcome.report, Some(session.stats().clone()));
            }
            Err(e) => {
                eprintln!("warning: stored snapshot rejected ({e}); restarting fresh");
                resume = false;
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;
    use crate::parallel::RunRequest;
    use elasticflow_perfmodel::Interconnect;
    use elasticflow_sim::FailureSchedule;
    use elasticflow_trace::TraceConfig;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "elasticflow-bench-instrument-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sorted_entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    fn plain(scheduler: &str, spec: &ClusterSpec, config: &SimConfig, trace: &Trace) -> SimReport {
        Simulation::new(spec.clone(), config.clone())
            .run(trace, scheduler_by_name(scheduler).as_mut())
    }

    /// The value of the unlabelled counter `name` in a Prometheus text
    /// exposition.
    fn counter(prom: &str, name: &str) -> f64 {
        prom.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{name} missing"))
            .parse()
            .unwrap()
    }

    #[test]
    fn stems_are_filesystem_safe() {
        assert_eq!(
            stem("edf+ac", "philly 40%", 0xab),
            "edf-ac-philly-40-00000000000000ab"
        );
        assert_eq!(
            stem("elasticflow", "testbed_small", u64::MAX),
            "elasticflow-testbed-small-ffffffffffffffff"
        );
        assert!(stem("a//b", "c", 7)
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-'));
    }

    #[test]
    fn disabled_capture_runs_plain() {
        let spec = ClusterSpec::small_testbed();
        let trace = TraceConfig::testbed_small(3).generate(&Interconnect::from_spec(&spec));
        let config = SimConfig::default();
        let report = run("edf", &spec, &config, &trace, &RunSettings::default());
        assert_eq!(report.outcomes().len(), trace.jobs().len());
        assert_eq!(report, plain("edf", &spec, &config, &trace));
    }

    #[test]
    fn persisted_run_report_matches_plain_run() {
        let spec = ClusterSpec::with_servers(2, 8);
        let trace = TraceConfig::testbed_small(9).generate(&Interconnect::from_spec(&spec));
        let sim = Simulation::new(spec, SimConfig::default());
        let plain = sim.run(&trace, scheduler_by_name("edf").as_mut());
        let dir = temp_dir("match");
        let mut settings = RunSettings::default();
        let (report, stats) = run_persisted(&sim, &trace, "edf", &dir, &settings, &mut []);
        assert_eq!(plain, report);
        let stats = stats.expect("persistence was active");
        assert!(stats.checkpoints > 0);
        assert_eq!(stats.failures, 0);

        // A second pass with --resume picks up the last snapshot (or runs
        // fresh if none was cut) and lands on the same report either way.
        settings.resume = true;
        let (resumed, _) = run_persisted(&sim, &trace, "edf", &dir, &settings, &mut []);
        assert_eq!(plain, resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runs_sharing_a_trace_name_get_their_own_files_and_resume_from_them() {
        let spec = ClusterSpec::small_testbed();
        let net = Interconnect::from_spec(&spec);
        let traces: Vec<Trace> = [0.1, 0.5]
            .into_iter()
            .map(|frac| {
                TraceConfig::testbed_small(3)
                    .with_best_effort_fraction(frac)
                    .generate(&net)
            })
            .collect();
        assert_eq!(traces[0].name(), traces[1].name());
        let config = SimConfig::default();
        let root = temp_dir("collide");
        let mut settings = RunSettings {
            telemetry_dir: Some(root.join("tel")),
            state_dir: Some(root.join("state")),
            checkpoint_every: 600.0,
            resume: false,
            jobs: None,
        };
        let expected: Vec<SimReport> = traces
            .iter()
            .map(|t| plain("elasticflow", &spec, &config, t))
            .collect();
        for (trace, want) in traces.iter().zip(&expected) {
            assert_eq!(&run("elasticflow", &spec, &config, trace, &settings), want);
        }
        let state_dirs = sorted_entries(&root.join("state"));
        assert_eq!(state_dirs.len(), 2, "one state dir per run: {state_dirs:?}");
        assert_eq!(
            sorted_entries(&root.join("tel")).len(),
            6,
            "one .prom/.trace.json/.decisions.jsonl set per run"
        );
        for dir in &state_dirs {
            let prom = std::fs::read_to_string(root.join("tel").join(format!("{dir}.prom")))
                .expect("each state dir has a matching export set");
            assert!(counter(&prom, "ef_checkpoints_total") > 0.0, "{dir}");
            assert_eq!(counter(&prom, "ef_checkpoint_failures_total"), 0.0, "{dir}");
        }

        // Each run's state directory holds a snapshot of that run, so a
        // resume pass picks every run up from its own state.
        settings.resume = true;
        for (trace, want) in traces.iter().zip(&expected) {
            let sim = Simulation::new(spec.clone(), config.clone());
            let stem = run_stem("elasticflow", &sim, trace);
            let session =
                PersistSession::begin(root.join("state").join(&stem), 600.0, true).unwrap();
            let snapshot = session.snapshot().expect("every run cut a snapshot");
            assert_eq!(snapshot.trace_name, trace.name());
            sim.resume_observed(
                trace,
                scheduler_by_name("elasticflow").as_mut(),
                &mut [],
                snapshot,
            )
            .expect("the stored snapshot belongs to this run");
            drop(session);
            assert_eq!(&run("elasticflow", &spec, &config, trace, &settings), want);
        }
        assert_eq!(sorted_entries(&root.join("state")), state_dirs);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failure_injection_runs_are_instrumented() {
        let spec = ClusterSpec::small_testbed();
        let trace = TraceConfig::testbed_small(5).generate(&Interconnect::from_spec(&spec));
        let failures =
            FailureSchedule::poisson(spec.servers, 3_600.0, 600.0, trace.span() * 1.5, 0xFA11);
        let config = SimConfig::default().with_failures(failures);
        let root = temp_dir("failures");
        let settings = RunSettings {
            telemetry_dir: Some(root.clone()),
            ..RunSettings::default()
        };
        let trace = std::sync::Arc::new(trace);
        let req = RunRequest::with_config("elasticflow", &spec, &trace, config.clone());
        let report = run(
            &req.scheduler,
            &req.spec,
            &req.config,
            &req.trace,
            &settings,
        );
        assert_eq!(report, plain("elasticflow", &spec, &config, &trace));
        let stem = run_stem(
            "elasticflow",
            &Simulation::new(spec.clone(), config.clone()),
            &trace,
        );
        assert_ne!(
            stem,
            run_stem(
                "elasticflow",
                &Simulation::new(spec.clone(), SimConfig::default()),
                &trace
            )
        );
        for ext in ["prom", "trace.json", "decisions.jsonl"] {
            let path = root.join(format!("{stem}.{ext}"));
            assert!(path.is_file(), "missing {}", path.display());
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
