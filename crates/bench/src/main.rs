//! `experiments` — regenerate every table and figure of the ElasticFlow
//! paper's evaluation.
//!
//! ```text
//! experiments <id> [--seed N] [--jobs N] [--json] [--telemetry-out <dir>]
//!                  [--state-dir <dir>] [--checkpoint-every <secs>] [--resume]
//! experiments all  [...same options...]
//! experiments verify-shapes [--seed N] [--json]
//! experiments explain [--seed N] [--journal <file>] [--job <id>] [--format text|json]
//! experiments list
//! ```
//!
//! `--jobs N` fans the independent simulation runs of multi-run
//! experiments across N worker threads (default: the available cores;
//! `--jobs 1` runs everything sequentially on the main thread). Results
//! are collected in request order, so the tables on stdout are
//! byte-identical regardless of N; only wall-clock changes.
//!
//! Every simulation, failure-injection runs included, goes through one
//! run path (`elasticflow_bench::instrument`) and is named by a stem
//! keyed by its inputs: `<scheduler>-<trace>-<fp>`, where `<fp>` is the
//! 16-digit hex `Simulation::input_fingerprint` of its cluster spec,
//! simulator config and trace. Runs with different inputs never share
//! files.
//!
//! With `--telemetry-out`, every simulation also drops Prometheus
//! (`<stem>.prom`), Perfetto-loadable Chrome-trace (`<stem>.trace.json`),
//! and decision-journal (`<stem>.decisions.jsonl`) exports into the given
//! directory.
//!
//! With `--state-dir`, every simulation checkpoints its full resumable
//! state every `--checkpoint-every` simulated seconds (default 600) into
//! snapshot files under `<dir>/<stem>/`, keeping the newest two; add
//! `--resume` to pick up from the newest valid snapshot after an
//! interruption. Results are bit-identical with or without persistence.
//!
//! `verify-shapes` checks the paper's qualitative claims and exits
//! nonzero if any of them reads FAIL.
//!
//! `explain` prints the human-readable decision trail — admissions,
//! declines (with the binding window and GPU-slot shortfall), resizes,
//! migrations, preemptions, pauses — for the seeded golden workload, or
//! for a `.decisions.jsonl` journal written by `--telemetry-out` when
//! `--journal` is given. `--job <id>` narrows the trail to one job;
//! `--format json` emits the same trail as one machine-readable JSON
//! document (raw `DecisionRecord`s plus the rendered text per entry).

use std::process::ExitCode;

use elasticflow_bench::experiments::{registry, verify};
use elasticflow_bench::instrument::RunSettings;

struct Options {
    command: Option<String>,
    seed: u64,
    json: bool,
    run: RunSettings,
    journal: Option<String>,
    job: Option<u64>,
    format: TrailFormat,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TrailFormat {
    Text,
    Json,
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options {
        command: None,
        seed: 2023,
        json: false,
        run: RunSettings::default(),
        journal: None,
        job: None,
        format: TrailFormat::Text,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => return Err("--seed needs an integer value".to_owned()),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.run.jobs = Some(v),
                None => return Err("--jobs needs a positive integer".to_owned()),
            },
            "--json" => opts.json = true,
            "--telemetry-out" => match it.next() {
                Some(dir) => opts.run.telemetry_dir = Some(dir.into()),
                None => return Err("--telemetry-out needs a directory".to_owned()),
            },
            "--state-dir" => match it.next() {
                Some(dir) => opts.run.state_dir = Some(dir.into()),
                None => return Err("--state-dir needs a directory".to_owned()),
            },
            "--checkpoint-every" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v.is_finite() && v > 0.0 => opts.run.checkpoint_every = v,
                _ => return Err("--checkpoint-every needs a positive number of seconds".to_owned()),
            },
            "--resume" => opts.run.resume = true,
            "--journal" => match it.next() {
                Some(path) => opts.journal = Some(path),
                None => return Err("--journal needs a file path".to_owned()),
            },
            "--job" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.job = Some(v),
                None => return Err("--job needs an integer job id".to_owned()),
            },
            "--format" => match it.next().as_deref() {
                Some("text") => opts.format = TrailFormat::Text,
                Some("json") => opts.format = TrailFormat::Json,
                _ => return Err("--format needs text or json".to_owned()),
            },
            other if opts.command.is_none() => opts.command = Some(other.to_owned()),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1).collect()) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let Some(command) = opts.command.as_deref() else {
        print_usage();
        return ExitCode::FAILURE;
    };

    if command == "explain" {
        let journal = match &opts.journal {
            Some(path) => {
                match elasticflow_bench::explain::load_journal(std::path::Path::new(path)) {
                    Ok(journal) => journal,
                    Err(e) => {
                        eprintln!("explain: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => elasticflow_bench::explain::golden_journal(opts.seed),
        };
        let trail = match opts.format {
            TrailFormat::Text => elasticflow_bench::explain::render_trail(&journal, opts.job),
            TrailFormat::Json => elasticflow_bench::explain::render_trail_json(&journal, opts.job),
        };
        print!("{trail}");
        return ExitCode::SUCCESS;
    }

    if opts.run.resume && opts.run.state_dir.is_none() {
        eprintln!("--resume requires --state-dir");
        return ExitCode::FAILURE;
    }
    for (flag, dir) in [
        ("--telemetry-out", &opts.run.telemetry_dir),
        ("--state-dir", &opts.run.state_dir),
    ] {
        if let Some(dir) = dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("{flag} {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    elasticflow_bench::instrument::install(opts.run);

    let registry = registry();
    match command {
        "list" => {
            for exp in &registry {
                println!("{:<20} {}", exp.name, exp.description);
            }
            ExitCode::SUCCESS
        }
        "all" => {
            // Timing lines go to stderr: stdout carries only the tables,
            // which are golden-compared across `--jobs` settings.
            #[expect(
                clippy::disallowed_methods,
                reason = "progress timing on stderr; stdout's tables never read the clock"
            )]
            let sweep = std::time::Instant::now();
            for exp in &registry {
                eprintln!("== running {} — {}", exp.name, exp.description);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "progress timing on stderr; stdout's tables never read the clock"
                )]
                let start = std::time::Instant::now();
                emit((exp.run)(opts.seed), opts.json);
                eprintln!(
                    "== {} finished in {:.2}s",
                    exp.name,
                    start.elapsed().as_secs_f64()
                );
            }
            eprintln!(
                "== all experiments finished in {:.2}s (--jobs {})",
                sweep.elapsed().as_secs_f64(),
                elasticflow_bench::parallel::jobs()
            );
            ExitCode::SUCCESS
        }
        "verify-shapes" => {
            let (tables, all_pass) = verify::check(opts.seed);
            emit(tables, opts.json);
            if all_pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        name => match registry.iter().find(|e| e.name == name) {
            Some(exp) => {
                emit((exp.run)(opts.seed), opts.json);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment: {name}");
                print_usage();
                ExitCode::FAILURE
            }
        },
    }
}

fn emit(tables: Vec<elasticflow_bench::Table>, json: bool) {
    for table in tables {
        if json {
            println!("{}", table.to_json());
        } else {
            println!("{table}");
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: experiments <id|all|list|verify-shapes|explain> [--seed N] [--jobs N] [--json] \
         [--telemetry-out <dir>] [--state-dir <dir>] [--checkpoint-every <secs>] [--resume] \
         [--journal <file>] [--job <id>] [--format text|json]"
    );
    eprintln!("run `experiments list` to see every table/figure id");
    eprintln!(
        "--jobs N: fan independent simulation runs across N worker threads \
         (default: available cores; output is identical for any N)"
    );
    eprintln!(
        "--telemetry-out <dir>: also write .prom / .trace.json / .decisions.jsonl exports \
         per simulation"
    );
    eprintln!(
        "--state-dir <dir>: checkpoint every simulation into snapshot files; \
         --resume recovers after an interruption"
    );
    eprintln!("verify-shapes: check the paper's qualitative claims (nonzero on any FAIL)");
    eprintln!(
        "explain: print the decision trail (admits, declines with shortfalls, resizes, \
         migrations) for the golden workload or a --journal file; --job narrows to one job, \
         --format json emits a machine-readable document"
    );
}
