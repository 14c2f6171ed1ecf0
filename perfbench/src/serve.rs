//! The serve workloads: one closed-loop client driving a
//! [`Daemon`] in-process through the calls `serve_connection` makes —
//! `parse_request`, `handle_request`/`handle_batch`, `render_response`.
//!
//! A traced run adds timers around those three calls, then replays the
//! same submissions through each layer under the daemon on its own — a
//! bare [`Gateway`], a scratch WAL, journal and snapshot store — timing
//! every layer. Its journal must equal the daemon's byte for byte, which
//! shows the layer replay did the daemon's work and no other.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use elasticflow_persist::{PersistError, RecordLog, PERSIST_VERSION};
use elasticflow_sched::DecisionRecord;
use elasticflow_serve::proto::render_submit_into;
use elasticflow_serve::store::{render_journal_entry_into, GatewaySnapshot};
use elasticflow_serve::{
    gateway_registry, loadgen_stream, parse_request, render_request_into, render_response, Daemon,
    DaemonConfig, Gateway, GatewayDir, GatewayStats, JobSubmission, LoadgenConfig, Request,
    Response, Resumption,
};
use elasticflow_telemetry::MonotonicClock;

use crate::stats::{self, micros, Breakdown, ClassSamples, Throughput};
use crate::{repeat, Report, RunSpec, DEFAULT_SEED};

/// One serve workload: a `loadgen_stream` shape and the client's batch.
#[derive(Debug)]
pub struct ServeWorkload {
    pub name: &'static str,
    /// Submissions per run. Not a multiple of the daemon's snapshot
    /// cadence, so recovery always replays a WAL suffix.
    pub arrivals: usize,
    pub best_effort_fraction: f64,
    /// Requests per `handle_batch` call; 1 uses `handle_request`.
    pub batch: usize,
    /// FNV-1a of `decisions.jsonl` at [`DEFAULT_SEED`].
    pub pinned_digest: u64,
}

/// The default `loadgen_stream` mix (10 % best-effort) answered one
/// request at a time: the incremental admission core dominates.
pub const SERVE_DEADLINE: ServeWorkload = ServeWorkload {
    name: "serve_deadline",
    arrivals: 49_500,
    best_effort_fraction: 0.1,
    batch: 1,
    pinned_digest: 0xa3f1_55b3_416e_20c3,
};

/// 90 % best-effort, replayed 64 requests per batch: the protocol and
/// group-committed durability layers dominate.
pub const SERVE_BULK: ServeWorkload = ServeWorkload {
    name: "serve_bulk",
    arrivals: 99_500,
    best_effort_fraction: 0.9,
    batch: 64,
    pinned_digest: 0xfc91_cbec_1cae_d0ac,
};

/// The generated stream: parsed submissions and their request lines.
struct Input {
    subs: Vec<JobSubmission>,
    lines: Vec<String>,
}

fn generate(w: &ServeWorkload, seed: u64) -> Input {
    let base = LoadgenConfig::default();
    let stream = loadgen_stream(&LoadgenConfig {
        arrivals: w.arrivals,
        best_effort_fraction: w.best_effort_fraction,
        seed: base.seed.wrapping_add(seed),
        ..base
    });
    let mut subs = Vec::with_capacity(stream.len());
    let mut lines = Vec::with_capacity(stream.len());
    for request in &stream {
        let mut line = String::new();
        render_request_into(request, &mut line);
        lines.push(line);
        if let Request::Submit { job } = request {
            subs.push(job.clone());
        }
    }
    Input { subs, lines }
}

fn open(root: &Path) -> Result<(Daemon, Resumption), String> {
    Daemon::open(
        root,
        DaemonConfig::default(),
        Box::new(MonotonicClock::new()),
        gateway_registry(),
    )
    .map_err(|e| format!("opening {}: {e}", root.display()))
}

/// Answers tallied by the client, checked against the daemon's own
/// counters afterwards.
#[derive(Debug, Default)]
struct Tally {
    failed: u64,
    admitted: u64,
    declined: u64,
    best_effort: u64,
}

/// Drives the whole stream through `daemon` in batches of `batch`,
/// sending the next batch only after the previous one is answered.
/// Returns the time the client waited for answers: from reading a
/// batch's lines to holding its rendered responses.
///
/// A batch during which the daemon writes a snapshot is timed but kept
/// out of the latency samples. Writing and renaming the snapshot file
/// waits on the file system's metadata journal, so on a VM disk its time
/// swings by half between identical runs; it shows in `jobs_per_s`,
/// `recovery_s` and `serve.snapshot_s` instead.
///
/// Traced, it also times the protocol calls, and after each answer
/// replays the same batch through the layers under the daemon, so both
/// see the same moment's machine.
fn drive(
    daemon: &mut Daemon,
    input: &Input,
    batch: usize,
    samples: &mut ClassSamples,
    tally: &mut Tally,
    mut tracer: Option<&mut LayerReplay>,
) -> Result<Duration, String> {
    let mut requests = Vec::with_capacity(batch);
    let mut responses = Vec::with_capacity(batch);
    let mut out = String::new();
    let mut answering = Duration::ZERO;
    let every = daemon.config().snapshot_every;
    let mut submitted = 0u64;
    for (lines, subs) in input.lines.chunks(batch).zip(input.subs.chunks(batch)) {
        let t0 = Instant::now();
        requests.clear();
        responses.clear();
        out.clear();
        for line in lines {
            if let Ok(Some(request)) = parse_request(line) {
                requests.push(request);
            }
        }
        let t1 = tracer.is_some().then(Instant::now);
        if batch == 1 {
            responses.extend(requests.iter().map(|r| daemon.handle_request(r)));
        } else {
            daemon.handle_batch(&requests, &mut responses);
        }
        let t2 = tracer.is_some().then(Instant::now);
        for response in &responses {
            out.push_str(&render_response(response));
            out.push('\n');
        }
        let t3 = Instant::now();
        answering += t3 - t0;
        let snapshots = every > 0 && submitted / every != (submitted + subs.len() as u64) / every;
        submitted += subs.len() as u64;
        if !snapshots {
            let deadline = subs.iter().filter(|s| s.deadline_seconds.is_some()).count();
            samples.record(t3 - t0, deadline, subs.len() - deadline);
        }
        tally_batch(tally, subs, &responses, &out);
        if let (Some(replay), Some(t1), Some(t2)) = (tracer.as_deref_mut(), t1, t2) {
            replay.layers.add("proto.parse_s", (t1 - t0).as_secs_f64());
            replay.layers.add("proto.render_s", (t3 - t2).as_secs_f64());
            replay.step(subs)?;
        }
    }
    Ok(answering)
}

/// Checks that each submission got exactly one decision, in order, and
/// counts the answers by outcome.
fn tally_batch(tally: &mut Tally, subs: &[JobSubmission], responses: &[Response], out: &str) {
    tally.failed += subs.len().abs_diff(responses.len()) as u64;
    if out.lines().count() != responses.len() {
        tally.failed += responses.len() as u64;
        return;
    }
    for (sub, response) in subs.iter().zip(responses) {
        match response {
            Response::Decision { job, admitted, .. } if *job == sub.id => {
                match (sub.deadline_seconds.is_some(), admitted) {
                    (false, true) => tally.best_effort += 1,
                    (true, true) => tally.admitted += 1,
                    (true, false) => tally.declined += 1,
                    (false, false) => tally.failed += 1,
                }
            }
            _ => tally.failed += 1,
        }
    }
}

/// The layers under the daemon, driven one at a time in the daemon's
/// order and batch size: WAL append, gateway decisions, journal write,
/// snapshot at the daemon's cadence. Each is timed on its own.
struct LayerReplay {
    config: DaemonConfig,
    dir: GatewayDir,
    wal: RecordLog,
    journal: File,
    gateway: Gateway,
    wal_buf: String,
    offsets: Vec<usize>,
    journal_buf: String,
    decisions: Vec<DecisionRecord>,
    entries: u64,
    snapshots: u64,
    /// Layer times of this repetition, protocol timers included.
    layers: Breakdown,
    /// Per-call `Gateway::submit` times: deadline, best-effort.
    gateway_us: [Vec<f64>; 2],
}

fn io_error(root: &Path) -> impl Fn(PersistError) -> String + '_ {
    move |e| format!("layer replay in {}: {e}", root.display())
}

impl LayerReplay {
    fn open(root: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(root);
        let config = DaemonConfig::default();
        let dir = GatewayDir::open(root).map_err(io_error(root))?;
        let (mut wal, journal) = dir.create_genesis().map_err(io_error(root))?;
        wal.set_fsync_policy(config.fsync);
        Ok(LayerReplay {
            config,
            dir,
            wal,
            journal,
            gateway: Gateway::new(config.gateway),
            wal_buf: String::new(),
            offsets: Vec::new(),
            journal_buf: String::new(),
            decisions: Vec::new(),
            entries: 0,
            snapshots: 0,
            layers: Breakdown::default(),
            gateway_us: [Vec::new(), Vec::new()],
        })
    }

    fn step(&mut self, subs: &[JobSubmission]) -> Result<(), String> {
        let io = |e: std::io::Error| format!("layer replay: {e}");
        let t = Instant::now();
        self.wal_buf.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for sub in subs {
            render_submit_into(sub, &mut self.wal_buf);
            self.offsets.push(self.wal_buf.len());
        }
        let bytes = self.wal_buf.as_bytes();
        self.wal
            .append_batch(self.offsets.windows(2).map(|w| &bytes[w[0]..w[1]]))
            .map_err(io_error(self.dir.root()))?;
        self.layers.add("persist.wal_s", t.elapsed().as_secs_f64());

        self.decisions.clear();
        for sub in subs {
            let t = Instant::now();
            let decision = self.gateway.submit(sub);
            let dt = t.elapsed();
            let (layer, class) = if sub.deadline_seconds.is_some() {
                ("gateway.deadline_s", 0)
            } else {
                ("gateway.besteffort_s", 1)
            };
            self.layers.add(layer, dt.as_secs_f64());
            self.gateway_us[class].push(micros(dt));
            self.decisions.push(decision);
        }

        let t = Instant::now();
        self.journal_buf.clear();
        for (sub, decision) in subs.iter().zip(&self.decisions) {
            render_journal_entry_into(sub.arrival_seconds, decision, &mut self.journal_buf);
            self.journal_buf.push('\n');
        }
        self.journal
            .write_all(self.journal_buf.as_bytes())
            .map_err(io)?;
        self.layers
            .add("serve.journal_s", t.elapsed().as_secs_f64());
        self.entries += subs.len() as u64;

        let every = self.config.snapshot_every;
        let after = self.gateway.stats().submissions;
        let before = after - subs.len() as u64;
        if before / every != after / every {
            let t = Instant::now();
            let (origin_slot, jobs) = self.gateway.snapshot_jobs();
            let snap = GatewaySnapshot {
                version: PERSIST_VERSION,
                wal_records: self.wal.records(),
                journal_entries: self.entries,
                config: self.config.gateway,
                origin_slot,
                stats: self.gateway.stats(),
                jobs,
            };
            self.dir
                .write_next_snapshot(&snap)
                .map_err(io_error(self.dir.root()))?;
            self.layers
                .add("serve.snapshot_s", t.elapsed().as_secs_f64());
            self.snapshots += 1;
        }
        Ok(())
    }

    /// Checks that the replay wrote the daemon's journal and WAL byte for
    /// byte, and returns their sizes.
    fn compare(&self, daemon_root: &Path, report: &mut Report) -> Result<(u64, u64), String> {
        let daemon_dir = GatewayDir::open(daemon_root).map_err(io_error(daemon_root))?;
        let mut same = |name: &str, ours: &Path, theirs: &Path| -> Result<u64, String> {
            let read =
                |p: &Path| std::fs::read(p).map_err(|e| format!("reading {}: {e}", p.display()));
            let ours = read(ours)?;
            report.check(ours == read(theirs)?, || {
                format!("the layer replay wrote a different {name} than the daemon")
            });
            Ok(ours.len() as u64)
        };
        Ok((
            same(
                "decisions.jsonl",
                &self.dir.journal_path(),
                &daemon_dir.journal_path(),
            )?,
            same("gateway.wal", &self.dir.wal_path(), &daemon_dir.wal_path())?,
        ))
    }
}

/// Everything one serve run accumulates over its repetitions.
#[derive(Debug, Default)]
struct Runs {
    setup_s: Vec<f64>,
    recovery_s: Vec<f64>,
    samples: ClassSamples,
    stats: GatewayStats,
    replayed: u64,
    digest: Option<u64>,
    /// Peak resident set after the first repetition, before samples
    /// pooled from later repetitions add to it.
    peak_rss_mb: Option<f64>,
}

/// Traced runs summed over their repetitions.
#[derive(Debug, Default)]
struct Traced {
    runs: usize,
    wall: f64,
    layers: Breakdown,
    gateway_us: [Vec<f64>; 2],
    wal_bytes: u64,
    journal_bytes: u64,
    snapshots: u64,
}

/// One repetition: set up a fresh daemon, drive the stream, check the
/// answers and the journal digest, then time a restart on the state the
/// run left and check it recovers the same counters and journal.
/// Returns the time the client waited for answers.
fn repetition(
    w: &ServeWorkload,
    spec: &RunSpec,
    runs: &mut Runs,
    report: &mut Report,
    traced: Option<&mut Traced>,
) -> Result<Duration, String> {
    // The previous repetition's state is removed before the set-up
    // clock starts: set-up opens a fresh state dir, it does not clean.
    let root = spec.scratch.join("daemon");
    let _ = std::fs::remove_dir_all(&root);
    let t = Instant::now();
    let input = generate(w, spec.seed);
    let (mut daemon, resumption) = open(&root)?;
    runs.setup_s.push(t.elapsed().as_secs_f64());
    report.check(resumption == Resumption::Fresh, || {
        format!("a fresh state dir opened as {resumption:?}")
    });

    let mut replay = match traced {
        Some(_) => Some(LayerReplay::open(&spec.scratch.join("layers"))?),
        None => None,
    };
    let mut tally = Tally::default();
    let wall = drive(
        &mut daemon,
        &input,
        w.batch,
        &mut runs.samples,
        &mut tally,
        replay.as_mut(),
    )?;
    let n = input.subs.len() as u64;
    report.attempted += n;
    report.failed += tally.failed;

    let stats = daemon.stats();
    report.check(
        stats.submissions == n
            && stats.admitted + stats.declined + stats.best_effort == n
            && (stats.admitted, stats.declined, stats.best_effort)
                == (tally.admitted, tally.declined, tally.best_effort),
        || format!("daemon counters {stats:?} disagree with the {n} answers the client tallied"),
    );
    let journal = GatewayDir::open(&root)
        .map_err(io_error(&root))?
        .journal_path();
    let digest = stats::file_digest(&journal)?;
    check_digest(w, spec.seed, digest, &mut runs.digest, report);
    runs.stats = stats;
    drop(daemon);

    if let (Some(traced), Some(mut replay)) = (traced, replay) {
        let (journal_bytes, wal_bytes) = replay.compare(&root, report)?;
        traced.runs += 1;
        traced.wall += wall.as_secs_f64();
        for name in LAYERS {
            traced.layers.add(name, replay.layers.get(name));
        }
        for (all, ours) in traced.gateway_us.iter_mut().zip(&mut replay.gateway_us) {
            all.append(ours);
        }
        (traced.wal_bytes, traced.journal_bytes, traced.snapshots) =
            (wal_bytes, journal_bytes, replay.snapshots);
    }

    let t = Instant::now();
    let (recovered, resumption) = open(&root)?;
    runs.recovery_s.push(t.elapsed().as_secs_f64());
    match resumption {
        Resumption::Resumed {
            snapshot: Some(_),
            replayed,
        } if replayed > 0 => runs.replayed = replayed,
        other => report.problems.push(format!(
            "recovery should load a snapshot and replay a WAL suffix, got {other:?}"
        )),
    }
    report.check(recovered.stats() == stats, || {
        format!(
            "recovery restored {:?}, the run ended at {stats:?}",
            recovered.stats()
        )
    });
    drop(recovered);
    report.check(stats::file_digest(&journal)? == digest, || {
        "recovery rewrote decisions.jsonl differently".into()
    });
    if runs.peak_rss_mb.is_none() {
        runs.peak_rss_mb = Some(stats::peak_rss_mb()?);
    }
    Ok(wall)
}

fn check_digest(
    w: &ServeWorkload,
    seed: u64,
    digest: u64,
    seen: &mut Option<u64>,
    report: &mut Report,
) {
    if let Some(first) = *seen {
        report.check(digest == first, || {
            format!("decision digest {digest:#018x} differs from this run's first {first:#018x}")
        });
    }
    *seen = Some(digest);
    if seed == DEFAULT_SEED {
        report.check(digest == w.pinned_digest, || {
            format!(
                "{} decision digest {digest:#018x} at the default seed, pinned {:#018x}",
                w.name, w.pinned_digest
            )
        });
    }
}

pub fn run(w: &ServeWorkload, spec: &RunSpec) -> Result<Report, String> {
    let mut report = Report::default();
    let mut runs = Runs::default();
    let mut untraced = Throughput::default();
    let n = w.arrivals as u64;
    let median = |v: &[f64]| stats::median(v).ok_or("no repetitions");

    if !spec.trace {
        repeat(spec.seconds, || {
            let wall = repetition(w, spec, &mut runs, &mut report, None)?;
            untraced.add(n, wall);
            Ok(wall)
        })?;
        let [deadline, best_effort, batch] = runs.samples.quantiles();
        let (Some(deadline), Some(best_effort), Some(batch)) = (deadline, best_effort, batch)
        else {
            return Err("a request class got no samples".into());
        };
        let stats = runs.stats;
        let deadline_subs = (stats.admitted + stats.declined) as f64;
        report.set("setup_s", median(&runs.setup_s)?);
        report.set("jobs_per_s", untraced.rate().ok_or("no repetitions")?);
        report.set("deadline_p50_us", deadline.p50);
        report.set("deadline_p99_us", deadline.p99);
        report.set("besteffort_p50_us", best_effort.p50);
        report.set("besteffort_p99_us", best_effort.p99);
        report.set("batch_p50_us", batch.p50);
        report.set("batch_p99_us", batch.p99);
        report.set("recovery_s", median(&runs.recovery_s)?);
        report.set("admit_ratio", stats.admitted as f64 / deadline_subs);
        // An admitted job holds a guarantee; it misses its deadline only
        // if it expires or lapses.
        let kept = stats.admitted.saturating_sub(stats.expired + stats.lapsed);
        report.set("deadline_ratio", kept as f64 / deadline_subs);
        report.set("peak_rss_mb", runs.peak_rss_mb.ok_or("no repetitions")?);
        return Ok(report);
    }

    // Untraced and traced repetitions alternate, so drift in the host's
    // speed reaches both sides of `bench.trace_overhead` alike.
    let mut traced = Traced::default();
    let mut traced_rate = Throughput::default();
    let mut next_traced = false;
    repeat(spec.seconds, || {
        let wall = if next_traced {
            let wall = repetition(w, spec, &mut runs, &mut report, Some(&mut traced))?;
            traced_rate.add(n, wall);
            wall
        } else {
            let wall = repetition(w, spec, &mut runs, &mut report, None)?;
            untraced.add(n, wall);
            wall
        };
        next_traced = !next_traced;
        Ok(wall)
    })?;
    let per_run = traced.layers.scaled(traced.runs as f64);
    let wall = traced.wall / traced.runs as f64;
    for name in LAYERS {
        report.set(name, per_run.get(name));
    }
    report.set("serve.unattributed_s", per_run.remainder(wall)?);
    report.set("bench.traced_wall_s", wall);
    for (name, samples) in ["gateway.deadline_p99_us", "gateway.besteffort_p99_us"]
        .into_iter()
        .zip(&mut traced.gateway_us)
    {
        samples.sort_by(f64::total_cmp);
        report.set(name, stats::percentile(samples, 99.0).unwrap_or(0.0));
    }
    report.set("persist.wal_bytes", traced.wal_bytes as f64);
    report.set("serve.journal_bytes", traced.journal_bytes as f64);
    report.set("serve.snapshots", traced.snapshots as f64);
    report.set("serve.recovery_replayed", runs.replayed as f64);
    report.set("gateway.admitted", runs.stats.admitted as f64);
    report.set("gateway.declined", runs.stats.declined as f64);
    report.set("gateway.best_effort", runs.stats.best_effort as f64);
    report.set(
        "bench.trace_overhead",
        untraced.rate().ok_or("no repetitions")? / traced_rate.rate().ok_or("no traced runs")?
            - 1.0,
    );
    Ok(report)
}

/// The timed layers of a traced serve run. With the unattributed
/// remainder (duplicate guard, metrics, daemon glue) they add up to the
/// time the traced client waited for answers.
const LAYERS: [&str; 7] = [
    "proto.parse_s",
    "proto.render_s",
    "gateway.deadline_s",
    "gateway.besteffort_s",
    "persist.wal_s",
    "serve.journal_s",
    "serve.snapshot_s",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_repetition_replays_the_daemons_logs_and_recovers() {
        for batch in [1, 64] {
            let w = ServeWorkload {
                name: "tiny",
                arrivals: 2_300,
                best_effort_fraction: 0.5,
                batch,
                pinned_digest: 0,
            };
            let spec = RunSpec {
                seed: 7,
                seconds: 0.0,
                trace: true,
                scratch: std::env::temp_dir()
                    .join(format!("perfbench-serve-{}-{batch}", std::process::id())),
            };
            let (mut runs, mut report, mut traced) =
                (Runs::default(), Report::default(), Traced::default());
            for _ in 0..2 {
                repetition(&w, &spec, &mut runs, &mut report, Some(&mut traced)).unwrap();
            }
            let _ = std::fs::remove_dir_all(&spec.scratch);
            assert!(report.problems.is_empty(), "{:?}", report.problems);
            assert_eq!((report.attempted, report.failed), (4_600, 0));
            // The second snapshot lands at the end of the batch that
            // crosses 2,000 submissions; recovery replays the rest.
            let snapshot_at = 2_000_usize.div_ceil(batch) * batch;
            assert_eq!(runs.replayed as usize, 2_300 - snapshot_at);
            assert_eq!(traced.snapshots, 2);
            // The two batches that wrote a snapshot are timed but not
            // sampled.
            assert_eq!(
                runs.samples.batch.len(),
                2 * (2_300_usize.div_ceil(batch) - 2)
            );
            let stats = runs.stats;
            assert_eq!(stats.admitted + stats.declined + stats.best_effort, 2_300);
            assert!(traced.layers.get("gateway.deadline_s") > 0.0);
        }
    }
}
