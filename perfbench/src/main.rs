//! End-to-end and per-layer benchmark of the serve daemon and the
//! simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_deadline --seed 0 --seconds 10 --trace 0
//! ```
//!
//! Each invocation runs one workload, single-threaded, repeating its
//! fixed-size input until `--seconds` of measured work have passed, and
//! prints one JSON object as its last line of output: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! It exits 1 when an output is wrong (the object then says
//! `"correct": false`) and 2 on a usage or I/O error.
//! `perfbench/README.md` explains the workloads and metrics.

mod serve;
mod sim;
mod stats;

use std::path::PathBuf;
use std::time::Duration;

/// The seed whose decision digests are pinned next to each workload.
pub const DEFAULT_SEED: u64 = 0;

/// Every run repeats its input at least this often, whatever the budget.
const MIN_REPS: usize = 3;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("deadline_p50_us", "us"),
    ("deadline_p99_us", "us"),
    ("besteffort_p50_us", "us"),
    ("besteffort_p99_us", "us"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("recovery_s", "s"),
    ("admit_ratio", "ratio"),
    ("deadline_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer the workload never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("proto.parse_s", "s"),
    ("proto.render_s", "s"),
    ("gateway.deadline_s", "s"),
    ("gateway.deadline_p99_us", "us"),
    ("gateway.besteffort_s", "s"),
    ("gateway.besteffort_p99_us", "us"),
    ("persist.wal_s", "s"),
    ("persist.wal_bytes", "bytes"),
    ("serve.journal_s", "s"),
    ("serve.journal_bytes", "bytes"),
    ("serve.snapshot_s", "s"),
    ("serve.snapshots", "count"),
    ("serve.recovery_replayed", "count"),
    ("serve.unattributed_s", "s"),
    ("gateway.admitted", "count"),
    ("gateway.declined", "count"),
    ("gateway.best_effort", "count"),
    ("sched.arrival_s", "s"),
    ("sched.arrival_p99_us", "us"),
    ("sched.arrival_calls", "count"),
    ("sched.plan_s", "s"),
    ("sched.plan_p99_us", "us"),
    ("sched.plan_calls", "count"),
    ("sim.placement_s", "s"),
    ("sim.unattributed_s", "s"),
    ("sim.events", "count"),
    ("sim.rounds", "count"),
    ("sim.resizes", "count"),
    ("sim.preemptions", "count"),
    ("sim.migrations", "count"),
    ("sim.pauses", "count"),
    ("sim.declines", "count"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations sent (submissions answered or arrivals simulated).
    pub attempted: u64,
    /// Operations that got an error, no answer, or a second answer.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// How a run was asked to behave.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for state files, inside the working directory.
    pub scratch: PathBuf,
}

/// Runs `rep` until it has measured `seconds` in total, and at least
/// [`MIN_REPS`] times. `rep` returns the time it measured.
pub fn repeat(
    seconds: f64,
    mut rep: impl FnMut() -> Result<Duration, String>,
) -> Result<(), String> {
    let mut measured = 0.0;
    let mut reps = 0;
    while reps < MIN_REPS || measured < seconds {
        measured += rep()?.as_secs_f64();
        reps += 1;
    }
    Ok(())
}

fn parse_args() -> Result<(String, RunSpec), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let scratch =
        PathBuf::from(".perfbench_state").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        RunSpec {
            seed,
            seconds,
            trace,
            scratch,
        },
    ))
}

fn run(workload: &str, spec: &RunSpec) -> Result<Report, String> {
    match workload {
        "serve_deadline" => serve::run(&serve::SERVE_DEADLINE, spec),
        "serve_bulk" => serve::run(&serve::SERVE_BULK, spec),
        "sim_elasticflow" => sim::run(&sim::SIM_ELASTICFLOW, spec),
        "sim_edf" => sim::run(&sim::SIM_EDF, spec),
        other => Err(format!(
            "unknown workload {other:?}; expected serve_deadline, serve_bulk, sim_elasticflow or sim_edf"
        )),
    }
}

/// Renders the result line. Metrics the workload did not set read 0
/// in the per-layer list; a missing end-to-end metric is a bug.
fn render(report: &Report, trace: bool) -> Result<String, String> {
    let (list, what) = if trace {
        (PER_LAYER, "per-layer")
    } else {
        (END_TO_END, "end-to-end")
    };
    for (name, _) in &report.metrics {
        if !list.iter().any(|(n, _)| n == name) {
            return Err(format!("{name} is not a {what} metric"));
        }
    }
    let mut metrics = Vec::new();
    for (name, unit) in list {
        let value = match report.metrics.iter().find(|(n, _)| n == name) {
            Some(&(_, v)) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.problems.is_empty() && report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    ))
}

fn main() {
    let (workload, spec) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let result = run(&workload, &spec);
    // State files never outlive the run, whatever happened in it.
    let _ = std::fs::remove_dir_all(&spec.scratch);
    if let Some(parent) = spec.scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(2);
        }
    };
    let line = match render(&report, spec.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(2);
        }
    };
    for problem in &report.problems {
        eprintln!("perfbench: {workload}: {problem}");
    }
    println!("{line}");
    if report.problems.is_empty() && report.failed == 0 {
        return;
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut report = Report {
            attempted: 5,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let line = render(&report, false).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":5,\"failed\":0,"));
        assert!(line.contains("\"jobs_per_s\":{\"value\":1.5,\"unit\":\"1/s\"}"));
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let metric = metrics.get(name).unwrap();
            assert_eq!(metric.get("value").unwrap().as_f64(), Some(1.5));
            assert_eq!(metric.get("unit").unwrap().as_str(), Some(*unit));
        }

        // Per-layer: unset layers read 0, end-to-end names are refused.
        let traced = render(&Report::default(), true).unwrap();
        assert!(traced.contains("\"sim.rounds\":{\"value\":0,\"unit\":\"count\"}"));
        assert!(render(&report, true).is_err());
        // A missing end-to-end metric is an error, not a silent 0.
        assert!(render(&Report::default(), false).is_err());
    }

    #[test]
    fn failures_mark_the_result_incorrect() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.set(name, 1.0);
        }
        report.failed = 1;
        assert!(render(&report, false)
            .unwrap()
            .starts_with("{\"correct\":false,"));
        report.failed = 0;
        report.check(false, || "digest moved".into());
        assert!(render(&report, false)
            .unwrap()
            .starts_with("{\"correct\":false,"));
    }

    #[test]
    fn metric_names_and_units_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "metric names repeat");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
