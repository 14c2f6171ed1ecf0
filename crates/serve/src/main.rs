//! `elasticflow-serve` — the scheduler-as-a-service daemon.
//!
//! ```text
//! elasticflow-serve --state-dir PATH [--resume]
//!                   [--servers N] [--gpus-per-server N] [--slot-seconds S]
//!                   [--snapshot-every N] [--metrics ADDR]
//!                   [--listen ADDR | --unix PATH]
//!                   [--batch N] [--fsync never|record|batch|interval:N]
//!                   [--latency-clock monotonic|tick]
//!                   [--die-after N]
//! ```
//!
//! By default the daemon serves one session over stdin/stdout: one
//! JSONL [`Request`] per input line, one [`Response`] per output line.
//! `--listen` serves TCP connections sequentially instead; `--unix`
//! (Unix only) does the same over a Unix socket. `--metrics` exposes
//! the Prometheus endpoint on a background thread. `--servers` and
//! `--gpus-per-server` take nonzero powers of two whose product fits a
//! `u32`; anything else is a usage error, raised before the state
//! directory is touched.
//!
//! `--resume` is required to open a state directory that already holds
//! gateway state, that is a WAL, a journal or any snapshot (guarding
//! against accidentally replaying into the wrong directory); recovery
//! then proceeds snapshot → journal rewind → WAL replay and the daemon
//! continues exactly where the dead one stopped. `--die-after N` crashes the process (exit 17) after the
//! N-th accepted submission — the deterministic kill switch used by the
//! recovery tests and the CI smoke.
//!
//! [`Request`]: elasticflow_serve::Request
//! [`Response`]: elasticflow_serve::Response

use std::process::ExitCode;

use elasticflow_persist::FsyncPolicy;
use elasticflow_serve::{
    check_cluster_shape, gateway_registry, serve_connection, serve_connections, spawn_exporter,
    Daemon, DaemonConfig, GatewayConfig, GatewayDir, Resumption,
};
use elasticflow_telemetry::{Clock, MonotonicClock, TickClock};

#[derive(Debug)]
struct Options {
    state_dir: String,
    resume: bool,
    config: DaemonConfig,
    metrics: Option<String>,
    listen: Option<String>,
    unix: Option<String>,
    batch: usize,
    tick_clock: bool,
    die_after: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            state_dir: "elasticflow-state".to_owned(),
            resume: false,
            config: DaemonConfig::default(),
            metrics: None,
            listen: None,
            unix: None,
            batch: 1,
            tick_clock: false,
            die_after: None,
        }
    }
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--state-dir" => opts.state_dir = value("--state-dir")?,
            "--resume" => opts.resume = true,
            "--servers" => {
                opts.config.gateway.servers = parse_num(&value("--servers")?, "--servers")?;
            }
            "--gpus-per-server" => {
                opts.config.gateway.gpus_per_server =
                    parse_num(&value("--gpus-per-server")?, "--gpus-per-server")?;
            }
            "--slot-seconds" => {
                let v: f64 = parse_num(&value("--slot-seconds")?, "--slot-seconds")?;
                if !(v.is_finite() && v > 0.0) {
                    return Err("--slot-seconds needs a positive number".to_owned());
                }
                opts.config.gateway.slot_seconds = v;
            }
            "--snapshot-every" => {
                opts.config.snapshot_every =
                    parse_num(&value("--snapshot-every")?, "--snapshot-every")?;
            }
            "--batch" => {
                let n: usize = parse_num(&value("--batch")?, "--batch")?;
                if n == 0 {
                    return Err("--batch needs a positive count".to_owned());
                }
                opts.batch = n;
            }
            "--fsync" => opts.config.fsync = parse_fsync(&value("--fsync")?)?,
            "--metrics" => opts.metrics = Some(value("--metrics")?),
            "--listen" => opts.listen = Some(value("--listen")?),
            "--unix" => opts.unix = Some(value("--unix")?),
            "--latency-clock" => match value("--latency-clock")?.as_str() {
                "monotonic" => opts.tick_clock = false,
                "tick" => opts.tick_clock = true,
                other => return Err(format!("--latency-clock: unknown clock {other:?}")),
            },
            "--die-after" => {
                opts.die_after = Some(parse_num(&value("--die-after")?, "--die-after")?);
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if opts.listen.is_some() && opts.unix.is_some() {
        return Err("--listen and --unix are mutually exclusive".to_owned());
    }
    let gateway = &opts.config.gateway;
    check_cluster_shape(gateway.servers, gateway.gpus_per_server)?;
    Ok(opts)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse {text:?}"))
}

fn parse_fsync(text: &str) -> Result<FsyncPolicy, String> {
    match text {
        "never" => Ok(FsyncPolicy::Never),
        "record" => Ok(FsyncPolicy::PerRecord),
        "batch" => Ok(FsyncPolicy::PerBatch),
        other => match other.strip_prefix("interval:") {
            Some(n) => Ok(FsyncPolicy::Interval(parse_num(n, "--fsync interval")?)),
            None => Err(format!(
                "--fsync: unknown policy {other:?} (expected never, record, batch, or interval:N)"
            )),
        },
    }
}

fn describe_resumption(resumption: &Resumption, config: &GatewayConfig) {
    match resumption {
        Resumption::Fresh => eprintln!(
            "elasticflow-serve: fresh state ({} servers x {} GPUs, {}s slots)",
            config.servers, config.gpus_per_server, config.slot_seconds
        ),
        Resumption::Resumed { snapshot, replayed } => match snapshot {
            Some(seq) => eprintln!(
                "elasticflow-serve: resumed from snapshot {seq} + {replayed} replayed records"
            ),
            None => eprintln!(
                "elasticflow-serve: resumed by full replay ({replayed} records, no snapshot)"
            ),
        },
    }
}

fn run(opts: Options) -> Result<(), String> {
    let path = std::path::PathBuf::from(&opts.state_dir);
    let has_state = GatewayDir::open(&path)
        .and_then(|dir| dir.has_state())
        .map_err(|e| e.to_string())?;
    if has_state && !opts.resume {
        return Err(format!(
            "state dir {} already holds gateway state; pass --resume to recover it",
            opts.state_dir
        ));
    }
    let clock: Box<dyn Clock> = if opts.tick_clock {
        Box::new(TickClock::new(1_000))
    } else {
        Box::new(MonotonicClock::new())
    };
    let registry = gateway_registry();
    let (mut daemon, resumption) =
        Daemon::open(&path, opts.config, clock, registry).map_err(|e| e.to_string())?;
    describe_resumption(&resumption, &opts.config.gateway);

    if let Some(addr) = &opts.metrics {
        let (bound, _handle) = spawn_exporter(daemon.registry(), addr)
            .map_err(|e| format!("--metrics {addr}: {e}"))?;
        eprintln!("elasticflow-serve: metrics on http://{bound}/metrics");
    }

    if let Some(addr) = &opts.listen {
        let listener =
            std::net::TcpListener::bind(addr).map_err(|e| format!("--listen {addr}: {e}"))?;
        let bound = listener.local_addr().map_err(|e| e.to_string())?;
        eprintln!("elasticflow-serve: listening on {bound}");
        serve_connections(&mut daemon, listener.incoming(), opts.batch, opts.die_after);
        return finish(&mut daemon);
    }

    #[cfg(unix)]
    if let Some(sock) = &opts.unix {
        let _ = std::fs::remove_file(sock);
        let listener = std::os::unix::net::UnixListener::bind(sock)
            .map_err(|e| format!("--unix {sock}: {e}"))?;
        eprintln!("elasticflow-serve: listening on unix socket {sock}");
        serve_connections(&mut daemon, listener.incoming(), opts.batch, opts.die_after);
        return finish(&mut daemon);
    }
    #[cfg(not(unix))]
    if opts.unix.is_some() {
        return Err("--unix is only available on Unix platforms".to_owned());
    }

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_connection(
        &mut daemon,
        stdin.lock(),
        stdout.lock(),
        opts.batch,
        opts.die_after,
    )
    .map_err(|e| e.to_string())?;
    finish(&mut daemon)
}

/// Graceful exit: one final snapshot so the next open replays nothing.
fn finish(daemon: &mut Daemon) -> Result<(), String> {
    if daemon.wal_records() > 0 {
        daemon.snapshot_now().map_err(|e| e.to_string())?;
    }
    let stats = daemon.stats();
    eprintln!(
        "elasticflow-serve: {} submissions ({} admitted, {} declined, {} best-effort), \
         {} journal entries",
        stats.submissions,
        stats.admitted,
        stats.declined,
        stats.best_effort,
        daemon.journal_entries()
    );
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1).collect()) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            eprintln!(
                "usage: elasticflow-serve --state-dir PATH [--resume] [--servers N] \
                 [--gpus-per-server N] [--slot-seconds S] [--snapshot-every N] \
                 [--metrics ADDR] [--listen ADDR | --unix PATH] \
                 [--batch N] [--fsync never|record|batch|interval:N] \
                 [--latency-clock monotonic|tick] [--die-after N]"
            );
            return ExitCode::FAILURE;
        }
    };
    match run(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("elasticflow-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
