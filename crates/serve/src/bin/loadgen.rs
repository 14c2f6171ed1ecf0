//! `elasticflow-loadgen` — deterministic request streams for the
//! gateway.
//!
//! ```text
//! elasticflow-loadgen [--arrivals N] [--servers N] [--gpus-per-server N]
//!                     [--mean-interarrival S] [--best-effort-fraction F]
//!                     [--seed N] [--out PATH] [--shutdown] [--rate N]
//! ```
//!
//! Writes one JSONL [`Request`] per line to stdout (or `--out`), ready
//! to pipe straight into `elasticflow-serve`:
//!
//! ```text
//! elasticflow-loadgen --arrivals 100000 | elasticflow-serve --state-dir state
//! ```
//!
//! `--servers` and `--gpus-per-server` follow the daemon's rule: nonzero
//! powers of two whose product fits a `u32`, else a usage error.
//!
//! The stream is a pure function of its flags — replaying the same
//! invocation against a fresh and a crash-recovered daemon must produce
//! byte-identical decision journals, and the CI smoke checks exactly
//! that. `--shutdown` appends a final `{"Shutdown":{}}` line for
//! socket sessions that need an explicit goodbye. `--rate N` caps
//! emission at N lines per second (wall clock) — an open-loop driver
//! for latency-under-load experiments; the default is as-fast-as-
//! possible. Pacing changes only *when* bytes leave the process, never
//! which bytes, so `--rate` cannot perturb the decision stream.
//!
//! [`Request`]: elasticflow_serve::Request

use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use elasticflow_serve::{
    check_cluster_shape, loadgen_stream, render_request_into, LoadgenConfig, Request,
};

#[derive(Debug, Default)]
struct Options {
    config: LoadgenConfig,
    out: Option<String>,
    shutdown: bool,
    /// Lines per second; `None` = unpaced.
    rate: Option<u64>,
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--arrivals" => {
                opts.config.arrivals = parse_num(&value("--arrivals")?, "--arrivals")?;
            }
            "--servers" => opts.config.servers = parse_num(&value("--servers")?, "--servers")?,
            "--gpus-per-server" => {
                opts.config.gpus_per_server =
                    parse_num(&value("--gpus-per-server")?, "--gpus-per-server")?;
            }
            "--mean-interarrival" => {
                let v: f64 = parse_num(&value("--mean-interarrival")?, "--mean-interarrival")?;
                if !(v.is_finite() && v > 0.0) {
                    return Err("--mean-interarrival needs a positive number".to_owned());
                }
                opts.config.mean_interarrival = v;
            }
            "--best-effort-fraction" => {
                let v: f64 =
                    parse_num(&value("--best-effort-fraction")?, "--best-effort-fraction")?;
                if !(0.0..=1.0).contains(&v) {
                    return Err("--best-effort-fraction needs a value in [0, 1]".to_owned());
                }
                opts.config.best_effort_fraction = v;
            }
            "--seed" => opts.config.seed = parse_num(&value("--seed")?, "--seed")?,
            "--out" => opts.out = Some(value("--out")?),
            "--shutdown" => opts.shutdown = true,
            "--rate" => {
                let n: u64 = parse_num(&value("--rate")?, "--rate")?;
                if n == 0 {
                    return Err("--rate needs a positive lines-per-second count".to_owned());
                }
                opts.rate = Some(n);
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    check_cluster_shape(opts.config.servers, opts.config.gpus_per_server)?;
    Ok(opts)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse {text:?}"))
}

fn emit<W: Write>(opts: &Options, out: W) -> std::io::Result<()> {
    let mut out = BufWriter::new(out);
    let mut pacer = opts.rate.map(Pacer::new);
    // One serialization buffer for the whole stream: rendering is the
    // hand renderer the daemon's WAL uses, so steady-state emission
    // allocates nothing per line.
    let mut line = String::new();
    for request in loadgen_stream(&opts.config) {
        if let Some(pacer) = &mut pacer {
            pacer.wait();
            // A paced stream should reach the daemon line by line, not
            // parked in the writer's buffer.
            out.flush()?;
        }
        serialize_line(&request, &mut line, &mut out)?;
    }
    if opts.shutdown {
        serialize_line(&Request::Shutdown {}, &mut line, &mut out)?;
    }
    out.flush()
}

/// Open-loop pacing: line `k` is released at `k / rate` seconds after
/// the stream started, independent of how long earlier writes took.
struct Pacer {
    start: Instant,
    emitted: u64,
    rate: u64,
}

impl Pacer {
    #[expect(
        clippy::disallowed_methods,
        reason = "paces emission against the wall clock; the stream's content never reads it"
    )]
    fn new(rate: u64) -> Self {
        Pacer {
            start: Instant::now(),
            emitted: 0,
            rate,
        }
    }

    fn wait(&mut self) {
        let due = Duration::from_secs_f64(self.emitted as f64 / self.rate as f64);
        let elapsed = self.start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
        self.emitted += 1;
    }
}

fn serialize_line<W: Write>(
    request: &Request,
    line: &mut String,
    out: &mut W,
) -> std::io::Result<()> {
    line.clear();
    render_request_into(request, line);
    line.push('\n');
    out.write_all(line.as_bytes())
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1).collect()) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            eprintln!(
                "usage: elasticflow-loadgen [--arrivals N] [--servers N] \
                 [--gpus-per-server N] [--mean-interarrival S] \
                 [--best-effort-fraction F] [--seed N] [--out PATH] [--shutdown] \
                 [--rate N]"
            );
            return ExitCode::FAILURE;
        }
    };
    let result = match &opts.out {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => emit(&opts, file),
            Err(e) => {
                eprintln!("elasticflow-loadgen: creating {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => emit(&opts, std::io::stdout().lock()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("elasticflow-loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
