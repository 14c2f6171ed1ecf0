//! The durable daemon around the pure [`Gateway`].
//!
//! Every accepted request is appended to the gateway WAL *before* the
//! decision runs; every decision is appended to the JSONL journal
//! *after*. Because the gateway is deterministic, that pair of logs
//! makes crash recovery exact: resume loads the newest valid snapshot,
//! rewinds the journal to the entry count the snapshot covers, and
//! replays the WAL suffix through a rebuilt gateway — regenerating,
//! byte for byte, the journal lines the crash cut off. A recovered
//! daemon's `decisions.jsonl` is therefore identical to the file an
//! uninterrupted run would have produced, which the recovery tests (and
//! the CI smoke) check with a literal byte comparison.
//!
//! One private pipeline carries every request to the gateway: dedup →
//! WAL → decide → journal → metrics. [`Daemon::handle_batch`] hands it
//! each batch, [`Daemon::handle_request`] is a batch of one, and
//! recovery replays the WAL suffix through it as one batch.
//!
//! Idempotence falls out of the same discipline: duplicate submission
//! ids are rejected *before* the WAL append, so the log never contains
//! a duplicate and replay never has to suppress one. Withdrawals are
//! not deduplicated: a re-sent `Withdraw` is logged and applied again.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::Write;

use elasticflow_persist::{FsyncPolicy, PersistError, RecordLog};
use elasticflow_sched::{DecisionRecord, DeclineReason};
use elasticflow_telemetry::{Clock, DECISION_LATENCY};

use crate::gateway::{Gateway, GatewayConfig, GatewayStats};
use crate::metrics::{
    self, SharedRegistry, ACTIVE_GUARANTEED, BATCH_SIZE, BOOKED_FRACTION, BOOKED_HORIZON_SLOTS,
    DECISIONS_TOTAL, DECLINES_TOTAL, QUEUE_DEPTH, RECOVERY_REPLAYED_RECORDS, RECOVERY_SECONDS,
    RUNNING_TOTALS,
};
use crate::proto::{parse_request, render_request_into, submit_id, Request, Response};
use crate::store::{render_journal_entry_into, GatewayDir, GatewaySnapshot};

/// Daemon-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaemonConfig {
    /// The decision core's cluster and grid parameters.
    pub gateway: GatewayConfig,
    /// Write a snapshot every this many submissions (0 disables
    /// periodic snapshots; recovery then replays the whole WAL).
    pub snapshot_every: u64,
    /// When the WAL fsyncs (never / per record / per batch / every N
    /// records). Affects durability of the tail on a host crash, never
    /// the decision stream.
    pub fsync: FsyncPolicy,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            gateway: GatewayConfig::default(),
            snapshot_every: 1_000,
            fsync: FsyncPolicy::Never,
        }
    }
}

/// What [`Daemon::open`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resumption {
    /// No prior state: a fresh WAL and journal were created.
    Fresh,
    /// Prior state was recovered.
    Resumed {
        /// Snapshot sequence number loaded (`None` = genesis replay).
        snapshot: Option<u64>,
        /// WAL records replayed on top of the snapshot.
        replayed: u64,
    },
}

/// Failures opening or resuming a daemon.
#[derive(Debug)]
pub enum ServeError {
    /// The persistence layer failed.
    Persist(PersistError),
    /// The on-disk state was produced under a different gateway
    /// configuration; resuming under the requested one would change
    /// history.
    ConfigMismatch {
        /// Configuration recorded in the snapshot.
        stored: GatewayConfig,
        /// Configuration the daemon was asked to run with.
        requested: GatewayConfig,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Persist(e) => write!(f, "gateway persistence error: {e}"),
            ServeError::ConfigMismatch { stored, requested } => write!(
                f,
                "state dir was written under {stored:?} but the daemon was configured with \
                 {requested:?}; refusing to resume under a different cluster"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Persist(e) => Some(e),
            ServeError::ConfigMismatch { .. } => None,
        }
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        ServeError::Persist(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Persist(PersistError::Io(e))
    }
}

impl From<serde_json::Error> for ServeError {
    fn from(e: serde_json::Error) -> Self {
        ServeError::Persist(PersistError::Decode(e))
    }
}

/// Reused per-batch workspace: indices of the requests the batch
/// logs (new submissions and every valid withdrawal), the refused
/// requests with their error messages, and the submissions' decisions
/// and latencies. Carries no state between batches — every batch clears
/// it first.
#[derive(Debug, Default)]
struct BatchScratch {
    logged: Vec<usize>,
    refused: Vec<(usize, String)>,
    decisions: Vec<DecisionRecord>,
    latencies: Vec<u64>,
}

/// The long-running gateway daemon: decision core + durable logs +
/// metrics.
#[derive(Debug)]
pub struct Daemon {
    config: DaemonConfig,
    dir: GatewayDir,
    gateway: Gateway,
    wal: RecordLog,
    journal: File,
    journal_entries: u64,
    seen: BTreeSet<u64>,
    clock: Box<dyn Clock>,
    registry: SharedRegistry,
    /// Reused WAL render buffer: one pass per batch, sliced by
    /// `wal_offsets` into per-record payloads for the group commit.
    wal_buf: String,
    wal_offsets: Vec<usize>,
    /// Reused journal render buffer: the whole batch's entry lines,
    /// written with one syscall.
    journal_buf: String,
    batch: BatchScratch,
    /// The [`RUNNING_TOTALS`] as last mirrored into the registry.
    published: [u64; RUNNING_TOTALS.len()],
}

impl Daemon {
    /// Opens (or resumes) a daemon over the state directory at `root`.
    ///
    /// Prior state is a WAL, a journal or any snapshot file
    /// ([`GatewayDir::has_state`]). With it present, recovery runs
    /// unconditionally: newest valid snapshot → one streaming WAL scan
    /// (reading only the ids of the records the snapshot covers, parsing
    /// the suffix) → the dedup set, built once from those ids → journal
    /// rewind → WAL-suffix replay. Its memory is the dedup set and its
    /// ids, the replayed suffix and fixed-size read buffers, never the
    /// logs' length. State without a WAL is refused as
    /// [`PersistError::Corrupt`] before any file is touched: no snapshot
    /// or journal can be resumed without the history it folds in. It then
    /// publishes how long it took on `clock` and how many records it
    /// replayed ([`RECOVERY_SECONDS`], [`RECOVERY_REPLAYED_RECORDS`]).
    /// `clock` feeds only those gauges and the latency histogram — it
    /// never influences a decision.
    pub fn open(
        root: &std::path::Path,
        config: DaemonConfig,
        mut clock: Box<dyn Clock>,
        registry: SharedRegistry,
    ) -> Result<(Self, Resumption), ServeError> {
        let started = clock.now_nanos();
        let dir = GatewayDir::open(root)?;
        let fresh = !dir.has_state()?;
        // A fresh daemon starts from the genesis logs with nothing to
        // replay; a resumed one recovers its gateway and both logs.
        let mut replay = Vec::new();
        let (mut wal, journal, snapshot_seq, gateway, journal_entries, seen) = if fresh {
            let (wal, journal) = dir.create_genesis()?;
            (
                wal,
                journal,
                None,
                Gateway::new(config.gateway),
                0,
                BTreeSet::new(),
            )
        } else {
            if !dir.wal_path().exists() {
                return Err(ServeError::Persist(PersistError::Corrupt(format!(
                    "{} is missing: the snapshots and journal beside it cannot be \
                     resumed without the submission history",
                    dir.wal_path().display()
                ))));
            }
            // The snapshot comes first: its record count says where each
            // WAL record goes, and a refused resume touches no log.
            let latest = dir.snapshots().latest_valid()?;
            for (seq, why) in &latest.skipped {
                eprintln!("elasticflow-serve: skipped corrupt snapshot {seq}: {why}");
            }
            let (seq, gateway, covered, entries) = match latest.valid {
                Some((seq, snap)) => {
                    // The pattern names every snapshot field, so a new
                    // one fails to compile until resume reads it.
                    let GatewaySnapshot {
                        // Validated by the snapshot store's decode.
                        version: _,
                        wal_records,
                        journal_entries,
                        config: stored,
                        origin_slot,
                        stats,
                        jobs,
                    } = snap;
                    if stored != config.gateway {
                        return Err(ServeError::ConfigMismatch {
                            stored,
                            requested: config.gateway,
                        });
                    }
                    let gateway = Gateway::from_snapshot(config.gateway, origin_slot, &jobs, stats);
                    (Some(seq), gateway, wal_records, journal_entries)
                }
                None => (None, Gateway::new(config.gateway), 0, 0),
            };
            // One streaming scan of the WAL. The duplicate-id guard must
            // cover the entire submission history: records folded into
            // the snapshot give up their ids here, and the suffix past
            // them is parsed for replay, inserting its own ids as it
            // goes through the pipeline. A covered record in the
            // canonical `Submit` form yields its id without being parsed
            // or validated: the daemon that logged it answered it, so its
            // id is taken even when its body no longer parses. Any other
            // covered record is parsed in full.
            let mut covered_ids = Vec::new();
            let (wal, scan) = dir.recover_wal(|index, line| {
                if index < covered {
                    let id = submit_id(line).or_else(|| match parse_request(line) {
                        Ok(Some(Request::Submit { job })) => Some(job.id),
                        _ => None,
                    });
                    covered_ids.extend(id);
                    return Ok(());
                }
                match parse_request(line) {
                    Ok(Some(request)) => {
                        replay.push(request);
                        Ok(())
                    }
                    Ok(None) => Err(PersistError::Corrupt(
                        "gateway WAL holds an empty record".to_owned(),
                    )),
                    Err(e) => Err(PersistError::Corrupt(format!(
                        "gateway WAL record failed to parse on replay: {e}"
                    ))),
                }
            })?;
            if let Some(seq) = seq.filter(|_| covered > scan.records) {
                return Err(ServeError::Persist(PersistError::Corrupt(format!(
                    "snapshot {seq} covers {covered} WAL records but only {} survive on disk",
                    scan.records
                ))));
            }
            // Built once, after the scan, and bulk-built with full nodes.
            // Clients that number their submissions in order, as the
            // load generator does, log ascending ids, and the sort inside
            // `collect` is then one linear pass.
            let seen = covered_ids.into_iter().collect();
            let journal = dir.rewind_journal(entries)?;
            (wal, journal, seq, gateway, entries, seen)
        };
        wal.set_fsync_policy(config.fsync);
        let mut daemon = Daemon {
            config,
            dir,
            gateway,
            wal,
            journal,
            journal_entries,
            seen,
            clock,
            registry,
            wal_buf: String::new(),
            wal_offsets: Vec::new(),
            journal_buf: String::new(),
            batch: BatchScratch::default(),
            published: [0; RUNNING_TOTALS.len()],
        };
        daemon.apply(&replay, false, &mut Vec::with_capacity(replay.len()))?;
        if fresh {
            return Ok((daemon, Resumption::Fresh));
        }
        daemon.publish_state();
        let replayed = replay.len() as u64;
        let elapsed = daemon.clock.now_nanos().saturating_sub(started);
        let mut registry = metrics::lock(&daemon.registry);
        registry.set_gauge(RECOVERY_SECONDS, &[], elapsed as f64 / 1e9);
        registry.set_gauge(RECOVERY_REPLAYED_RECORDS, &[], replayed as f64);
        drop(registry);
        Ok((
            daemon,
            Resumption::Resumed {
                snapshot: snapshot_seq,
                replayed,
            },
        ))
    }

    /// The daemon's configuration.
    pub fn config(&self) -> DaemonConfig {
        self.config
    }

    /// Cumulative gateway counters.
    pub fn stats(&self) -> GatewayStats {
        self.gateway.stats()
    }

    /// Journal entries written so far (excluding the header line).
    pub fn journal_entries(&self) -> u64 {
        self.journal_entries
    }

    /// WAL records accepted so far.
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// The shared metrics registry (hand to
    /// [`crate::metrics::spawn_exporter`]).
    pub fn registry(&self) -> SharedRegistry {
        std::sync::Arc::clone(&self.registry)
    }

    /// Handles one parsed request: a batch of one through
    /// [`Daemon::handle_batch`].
    pub fn handle_request(&mut self, request: &Request) -> Response {
        let mut out = Vec::with_capacity(1);
        self.handle_batch(std::slice::from_ref(request), &mut out);
        out.pop().expect("a batch of one yields one response")
    }

    /// Handles a batch of parsed requests, pushing one response per
    /// request onto `out` in order. The whole batch goes through the
    /// request pipeline at once: one WAL append, one journal write and
    /// one metrics pass. Batch boundaries are a runtime artifact, never
    /// replayed and never visible in the logs: any split of a stream
    /// into batches writes the same bytes and gets the same answers.
    ///
    /// An I/O failure answers every request in the batch with the same
    /// [`Response::Error`]: either nothing was decided (a WAL error) or
    /// a write after the decisions failed.
    pub fn handle_batch(&mut self, requests: &[Request], out: &mut Vec<Response>) {
        if requests.is_empty() {
            return;
        }
        metrics::lock(&self.registry).observe(BATCH_SIZE, &[], requests.len() as f64);
        let start = out.len();
        out.reserve(requests.len());
        if let Err(e) = self.apply(requests, true, out) {
            out.truncate(start);
            let message = e.to_string();
            out.extend(requests.iter().map(|_| Response::Error {
                message: message.clone(),
            }));
        }
    }

    /// Publishes the serve loop's backlog (complete lines buffered
    /// behind the batch just cut).
    pub fn note_queue_depth(&self, depth: u64) {
        let mut registry = metrics::lock(&self.registry);
        registry.set_gauge(QUEUE_DEPTH, &[], depth as f64);
    }

    /// The one request pipeline, shared by live serving (`live = true`)
    /// and WAL replay (`live = false`: the records are already durable):
    /// dedup → one group-committed WAL append → decide in request order
    /// → one journal write → one metrics pass → snapshot if due. Pushes
    /// one response per request onto `out`, in order. Every logged
    /// record is on disk before the first decision exists, so the
    /// journal can never lead the WAL. Journal appends happen on both
    /// paths — that is what regenerates the entries a crash cut off.
    fn apply(
        &mut self,
        requests: &[Request],
        live: bool,
        out: &mut Vec<Response>,
    ) -> Result<(), ServeError> {
        // The batch-entry timestamp: each decision's latency is measured
        // from here, so queueing behind earlier members of the batch is
        // charged to the decisions it delays.
        let t0 = self.clock.now_nanos();
        self.batch.logged.clear();
        self.batch.refused.clear();
        self.batch.decisions.clear();
        self.batch.latencies.clear();
        self.journal_buf.clear();

        // Validate, then dedup. A request that fails `Request::validate`
        // is refused with its error and never logged, so its id stays
        // free. A valid submission is logged only when its id is new; the
        // inserts are sequential, so a duplicate inside the batch is
        // refused too. The WAL therefore never holds a duplicate and
        // replay never has to suppress one. Every valid withdrawal is
        // logged; `Stats` and `Shutdown` never are.
        for (i, request) in requests.iter().enumerate() {
            match (request.validate(), request) {
                (Err(message), _) => self.batch.refused.push((i, message)),
                (Ok(()), Request::Submit { job }) if !self.seen.insert(job.id) => {
                    let message = format!("job id {} was already submitted", job.id);
                    self.batch.refused.push((i, message));
                }
                (Ok(()), Request::Submit { .. } | Request::Withdraw { .. }) => {
                    self.batch.logged.push(i);
                }
                (Ok(()), Request::Stats {} | Request::Shutdown {}) => {}
            }
        }

        // Group commit: one render pass into the reused buffer, one
        // write, one policy-dependent sync. On failure nothing has been
        // decided yet — roll the dedup guard back so the submissions
        // can be retried.
        if live && !self.batch.logged.is_empty() {
            self.wal_buf.clear();
            self.wal_offsets.clear();
            self.wal_offsets.push(0);
            for &i in &self.batch.logged {
                render_request_into(&requests[i], &mut self.wal_buf);
                self.wal_offsets.push(self.wal_buf.len());
            }
            let bytes = self.wal_buf.as_bytes();
            let payloads = self.wal_offsets.windows(2).map(|w| &bytes[w[0]..w[1]]);
            if let Err(e) = self.wal.append_batch(payloads) {
                for &i in &self.batch.logged {
                    if let Request::Submit { job } = &requests[i] {
                        self.seen.remove(&job.id);
                    }
                }
                return Err(e.into());
            }
        }

        // Answer in request order: each refused request with its error,
        // every other one by deciding it and rendering its journal line
        // as it is made. A logged request's `seq` is its WAL record
        // number.
        let base_seq = self.wal.records() - self.batch.logged.len() as u64;
        let mut logged_so_far = 0;
        let mut refused = self.batch.refused.drain(..).peekable();
        for (i, request) in requests.iter().enumerate() {
            if let Some((_, message)) = refused.next_if(|(r, _)| *r == i) {
                out.push(Response::Error { message });
                continue;
            }
            logged_so_far += usize::from(matches!(
                request,
                Request::Submit { .. } | Request::Withdraw { .. }
            ));
            out.push(match request {
                Request::Submit { job } => {
                    let decision = self.gateway.submit(job);
                    let latency = self.clock.now_nanos().saturating_sub(t0);
                    self.batch.latencies.push(latency);
                    self.batch.decisions.push(decision);
                    render_journal_entry_into(
                        job.arrival_seconds,
                        &decision,
                        &mut self.journal_buf,
                    );
                    self.journal_buf.push('\n');
                    Response::Decision {
                        job: job.id,
                        seq: base_seq + logged_so_far as u64,
                        admitted: matches!(decision, DecisionRecord::Admit { .. }),
                        decision,
                    }
                }
                Request::Withdraw { job, at_seconds } => Response::Withdrawn {
                    job: *job,
                    lapsed: self.gateway.withdraw(*job, *at_seconds),
                },
                Request::Stats {} => Response::Stats {
                    stats: self.gateway.stats(),
                    active_guaranteed: self.gateway.active_guaranteed(),
                },
                Request::Shutdown {} => Response::Bye {},
            });
        }
        drop(refused);

        // One journal write for the whole batch. Rendering is pinned
        // byte-identical to serde's, so no batch split shows in it.
        self.journal.write_all(self.journal_buf.as_bytes())?;
        self.journal_entries += self.batch.decisions.len() as u64;

        if !self.batch.logged.is_empty() {
            self.record_batch(live);
            self.publish_state();
        }

        // Snapshot when the batch crossed a cadence boundary. It lands
        // at the batch's end rather than mid-batch — timing is a runtime
        // artifact, never replayed.
        if live && self.config.snapshot_every > 0 {
            let after = self.gateway.stats().submissions;
            let before = after - self.batch.decisions.len() as u64;
            if before / self.config.snapshot_every != after / self.config.snapshot_every {
                self.snapshot_now()?;
            }
        }
        Ok(())
    }

    /// The batch's decision metrics: aggregated counter bumps and one
    /// latency sample per decision (live only — replayed decisions carry
    /// replay timing, not serving latency).
    fn record_batch(&mut self, live: bool) {
        let mut admits = 0u64;
        let mut declines = [0u64; 3]; // candidate_infeasible, would_displace, unexplained
        for decision in &self.batch.decisions {
            match decision {
                DecisionRecord::Admit { .. } => admits += 1,
                DecisionRecord::Decline { reason, .. } => match reason {
                    DeclineReason::CandidateInfeasible { .. } => declines[0] += 1,
                    DeclineReason::WouldDisplace { .. } => declines[1] += 1,
                    DeclineReason::Unexplained => declines[2] += 1,
                },
                other @ (DecisionRecord::Resize { .. }
                | DecisionRecord::Preempt { .. }
                | DecisionRecord::Migrate { .. }
                | DecisionRecord::Pause { .. }) => {
                    debug_assert!(false, "gateway submissions never yield {other:?}");
                }
            }
        }
        let mut registry = metrics::lock(&self.registry);
        if admits > 0 {
            registry.inc(DECISIONS_TOTAL, &[("kind", "admit")], admits as f64);
        }
        let declined: u64 = declines.iter().sum();
        if declined > 0 {
            registry.inc(DECISIONS_TOTAL, &[("kind", "decline")], declined as f64);
        }
        for (count, label) in
            declines
                .iter()
                .zip(["candidate_infeasible", "would_displace", "unexplained"])
        {
            if *count > 0 {
                registry.inc(DECLINES_TOTAL, &[("reason", label)], *count as f64);
            }
        }
        if live {
            for &nanos in &self.batch.latencies {
                registry.observe(DECISION_LATENCY, &[], nanos as f64 / 1e9);
            }
        }
    }

    /// Publishes the gateway's state: the gauges, and the running
    /// totals of lapses, expiries and fill-kernel work.
    fn publish_state(&mut self) {
        let active = self.gateway.active_guaranteed() as f64;
        let booked = self.gateway.booked_fraction(BOOKED_HORIZON_SLOTS);
        let stats = self.gateway.stats();
        let fill = self.gateway.fill_counters();
        let totals = [
            stats.lapsed,
            stats.expired,
            fill.probes,
            fill.booked_slots,
            fill.headroom_slots,
            fill.partial_slots,
            fill.tail_steps,
        ];
        let mut registry = metrics::lock(&self.registry);
        registry.set_gauge(ACTIVE_GUARANTEED, &[], active);
        registry.set_gauge(BOOKED_FRACTION, &[], booked);
        for (((name, labels), published), now) in
            RUNNING_TOTALS.iter().zip(&mut self.published).zip(totals)
        {
            if now > *published {
                registry.inc(name, labels, (now - *published) as f64);
                *published = now;
            }
        }
    }

    /// Writes a snapshot of the current state as the next file in
    /// sequence; returns its sequence number.
    pub fn snapshot_now(&mut self) -> Result<u64, PersistError> {
        self.journal.flush()?;
        let snap = self
            .gateway
            .snapshot(self.wal.records(), self.journal_entries);
        self.dir.write_next_snapshot(&snap)
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;
    use crate::metrics::gateway_registry;
    use crate::proto::JobSubmission;
    use elasticflow_perfmodel::DnnModel;
    use elasticflow_persist::frame::{FRAME_HEADER_LEN, HEADER_LEN};
    use elasticflow_telemetry::TickClock;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ef-daemon-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> DaemonConfig {
        DaemonConfig {
            gateway: GatewayConfig {
                servers: 1,
                gpus_per_server: 8,
                slot_seconds: 60.0,
            },
            snapshot_every: 5,
            fsync: FsyncPolicy::Never,
        }
    }

    fn open(root: &std::path::Path) -> (Daemon, Resumption) {
        open_with(root, config())
    }

    fn open_with(root: &std::path::Path, config: DaemonConfig) -> (Daemon, Resumption) {
        Daemon::open(
            root,
            config,
            Box::new(TickClock::new(250)),
            gateway_registry(),
        )
        .expect("daemon opens")
    }

    fn submit_line(id: u64, arrival: f64, deadline: Option<f64>) -> String {
        use elasticflow_cluster::ClusterSpec;
        use elasticflow_perfmodel::{Interconnect, ScalingCurve};
        let net = Interconnect::from_spec(&ClusterSpec::with_servers(1, 8));
        let curve = ScalingCurve::build_with_max(DnnModel::ResNet50, 128, &net, 8);
        let tput = curve.iters_per_sec(1).expect("1 GPU is on the curve");
        let req = Request::Submit {
            job: JobSubmission {
                id,
                model: DnnModel::ResNet50,
                global_batch: 128,
                // 30 minutes of single-GPU work: a handful of these
                // saturate the 8-GPU test cluster inside one window.
                iterations: tput * 1_800.0,
                arrival_seconds: arrival,
                deadline_seconds: deadline,
            },
        };
        serde_json::to_string(&req).unwrap()
    }

    /// Parses one protocol line the way the daemon's input loop does.
    fn request(line: &str) -> Request {
        crate::proto::parse_request(line).unwrap().unwrap()
    }

    #[test]
    fn duplicate_ids_are_rejected_without_touching_the_logs() {
        let root = tmp("dup");
        let (mut daemon, _) = open(&root);
        let first = daemon.handle_request(&request(&submit_line(1, 0.0, Some(1_800.0))));
        assert!(matches!(first, Response::Decision { .. }));
        let dup = daemon.handle_request(&request(&submit_line(1, 5.0, None)));
        assert!(matches!(dup, Response::Error { .. }));
        assert_eq!(daemon.wal_records(), 1);
        assert_eq!(daemon.journal_entries(), 1);
    }

    #[test]
    fn typed_requests_no_decision_can_be_made_on_are_refused_without_touching_the_logs() {
        let root = tmp("typed-refusal");
        let (mut daemon, _) = open(&root);
        let Request::Submit { job } = request(&submit_line(1, 0.0, Some(1_800.0))) else {
            panic!("submit_line renders a submission");
        };
        let with_iterations = |iterations| Request::Submit {
            job: JobSubmission {
                iterations,
                ..job.clone()
            },
        };
        let refused = [
            with_iterations(f64::NAN),
            with_iterations(f64::INFINITY),
            with_iterations(f64::NEG_INFINITY),
            with_iterations(-5.0),
            Request::Withdraw {
                job: 1,
                at_seconds: f64::NAN,
            },
        ];
        let wal = std::fs::read(daemon.dir.wal_path()).unwrap();
        let journal = std::fs::read(daemon.dir.journal_path()).unwrap();
        // One at a time, then as one batch: each answer is the request's
        // own validation error.
        let mut answers: Vec<Response> = refused.iter().map(|r| daemon.handle_request(r)).collect();
        daemon.handle_batch(&refused, &mut answers);
        for (answer, request) in answers.iter().zip(refused.iter().cycle()) {
            let message = request.validate().expect_err("the request is refused");
            assert_eq!(answer, &Response::Error { message });
        }
        assert_eq!((daemon.wal_records(), daemon.journal_entries()), (0, 0));
        assert_eq!(std::fs::read(daemon.dir.wal_path()).unwrap(), wal);
        assert_eq!(std::fs::read(daemon.dir.journal_path()).unwrap(), journal);

        // The refusals consumed no id: the same id submits cleanly, and
        // the directory reopens over the one record it logged.
        let answer = daemon.handle_request(&Request::Submit { job });
        assert!(
            matches!(answer, Response::Decision { job: 1, seq: 1, .. }),
            "{answer:?}"
        );
        drop(daemon);
        let (daemon, resumption) = open(&root);
        assert_eq!(
            resumption,
            Resumption::Resumed {
                snapshot: None,
                replayed: 1
            }
        );
        assert_eq!(daemon.stats().submissions, 1);
    }

    #[test]
    fn decisions_feed_the_metrics_surface() {
        let root = tmp("metrics");
        let (mut daemon, _) = open(&root);
        for i in 0..30 {
            daemon.handle_request(&request(&submit_line(i, 0.0, Some(1_800.0))));
        }
        let registry = daemon.registry();
        let guard = metrics::lock(&registry);
        let admits = guard.counter_value(DECISIONS_TOTAL, &[("kind", "admit")]);
        let declines = guard.counter_value(DECISIONS_TOTAL, &[("kind", "decline")]);
        assert_eq!(admits + declines, 30.0);
        assert!(declines > 0.0, "8 GPUs cannot host 30 concurrent jobs");
        let histogram = guard
            .histogram(DECISION_LATENCY, &[])
            .expect("latency histogram populated");
        assert_eq!(histogram.count(), 30);
        assert_eq!(
            guard.gauge_value(ACTIVE_GUARANTEED, &[]),
            Some(f64::from(daemon.stats().admitted as u32))
        );
        drop(guard);
        // Later arrivals cross slot boundaries, whose refills retire,
        // expire or lapse guaranteed jobs; the running totals follow.
        for i in 30..60 {
            daemon.handle_request(&request(&submit_line(
                i,
                (i - 29) as f64 * 90.0,
                Some(9_000.0),
            )));
        }
        let guard = metrics::lock(&registry);
        let stats = daemon.stats();
        let fill = daemon.gateway.fill_counters();
        assert!(fill.probes > 0);
        let want = [
            stats.lapsed,
            stats.expired,
            fill.probes,
            fill.booked_slots,
            fill.headroom_slots,
            fill.partial_slots,
            fill.tail_steps,
        ];
        for ((name, labels), want) in RUNNING_TOTALS.iter().zip(want) {
            assert_eq!(guard.counter_value(name, labels), want as f64, "{name}");
        }
    }

    #[test]
    fn resume_without_snapshot_replays_the_whole_wal() {
        let root = tmp("genesis-replay");
        let journal_after = {
            let (mut daemon, resumption) = open(&root);
            assert_eq!(resumption, Resumption::Fresh);
            for i in 0..4 {
                daemon.handle_request(&request(&submit_line(i, i as f64 * 10.0, Some(3_600.0))));
            }
            std::fs::read(daemon.dir.journal_path()).unwrap()
        };
        let (daemon, resumption) = open(&root);
        assert_eq!(
            resumption,
            Resumption::Resumed {
                snapshot: None,
                replayed: 4
            }
        );
        assert_eq!(daemon.stats().submissions, 4);
        assert_eq!(
            std::fs::read(daemon.dir.journal_path()).unwrap(),
            journal_after
        );
    }

    #[test]
    fn resume_from_snapshot_replays_only_the_suffix() {
        let root = tmp("snapshot-replay");
        {
            let (mut daemon, _) = open(&root);
            // snapshot_every = 5 → a snapshot lands at submission 5.
            for i in 0..8 {
                daemon.handle_request(&request(&submit_line(i, i as f64 * 20.0, Some(7_200.0))));
            }
        }
        let (mut daemon, resumption) = open(&root);
        assert_eq!(
            resumption,
            Resumption::Resumed {
                snapshot: Some(1),
                replayed: 3
            }
        );
        assert_eq!(daemon.stats().submissions, 8);
        // History replayed through the dedup guard: old ids still refuse.
        let dup = daemon.handle_request(&request(&submit_line(2, 500.0, None)));
        assert!(matches!(dup, Response::Error { .. }));
    }

    /// The answer to a resubmission of `id`: `true` when it is refused
    /// as a duplicate, `false` when it is decided.
    fn refused_as_duplicate(daemon: &mut Daemon, id: u64) -> bool {
        let answer = daemon.handle_request(&request(&submit_line(id, 900.0, None)));
        if let Response::Decision { job, .. } = answer {
            assert_eq!(job, id);
            return false;
        }
        let message = format!("job id {id} was already submitted");
        assert_eq!(answer, Response::Error { message });
        true
    }

    #[test]
    fn resume_reserves_every_covered_and_replayed_id() {
        let root = tmp("covered-ids");
        let manual = DaemonConfig {
            snapshot_every: 0,
            ..config()
        };
        {
            let (mut daemon, _) = open_with(&root, manual);
            // The covered prefix: canonical submissions out of id order,
            // a withdrawal, and a submission whose id follows its other
            // keys (a serde rendering with another key order).
            for id in [4, 1] {
                daemon.handle_request(&request(&submit_line(id, 0.0, Some(7_200.0))));
            }
            daemon.handle_request(&Request::Withdraw {
                job: 4,
                at_seconds: 30.0,
            });
            let reordered = submit_line(7, 40.0, None)
                .replacen("{\"id\":7,", "{", 1)
                .replacen("\"deadline_seconds\":", "\"id\":7,\"deadline_seconds\":", 1);
            assert_eq!(submit_id(&reordered), None, "{reordered}");
            assert!(matches!(
                parse_request(&reordered),
                Ok(Some(Request::Submit { job })) if job.id == 7
            ));
            daemon.wal.append_batch([reordered]).unwrap();
            assert_eq!(daemon.snapshot_now().unwrap(), 1);
            // The suffix past the snapshot.
            for id in [3, 2] {
                daemon.handle_request(&request(&submit_line(id, 60.0, Some(7_200.0))));
            }
        }
        let (mut daemon, resumption) = open_with(&root, manual);
        assert_eq!(
            resumption,
            Resumption::Resumed {
                snapshot: Some(1),
                replayed: 2
            }
        );
        for id in [4, 1, 7, 3, 2] {
            assert!(refused_as_duplicate(&mut daemon, id), "id {id} was free");
        }
        for id in [0, 5, 6, 8] {
            assert!(!refused_as_duplicate(&mut daemon, id), "id {id} was taken");
        }
    }

    /// A daemon that logged NaN `iterations` as `null` answered that
    /// submission, so recovery reserves its id although the record no
    /// longer parses. Only a record the snapshot covers is read this
    /// way; past the snapshot the same record is refused as corrupt.
    #[test]
    fn a_covered_submission_that_no_longer_parses_reserves_its_id() {
        let root = tmp("covered-unparsable");
        {
            let (mut daemon, _) = open(&root);
            let line = submit_line(5, 0.0, Some(7_200.0));
            let start = line.find("\"iterations\":").unwrap() + "\"iterations\":".len();
            let end = start + line[start..].find(',').unwrap();
            let unparsable = format!("{}null{}", &line[..start], &line[end..]);
            assert!(parse_request(&unparsable).is_err(), "{unparsable}");
            assert_eq!(submit_id(&unparsable), Some(5));
            daemon.wal.append_batch([unparsable]).unwrap();
            assert_eq!(daemon.snapshot_now().unwrap(), 1);
        }
        let (mut daemon, resumption) = open(&root);
        assert_eq!(
            resumption,
            Resumption::Resumed {
                snapshot: Some(1),
                replayed: 0
            }
        );
        assert!(refused_as_duplicate(&mut daemon, 5));
        assert!(!refused_as_duplicate(&mut daemon, 6));
    }

    /// A directory keeps another history's snapshots and journal after
    /// its WAL is deleted. It is still state: opening it is a resume,
    /// which refuses to run without the WAL and touches no file. (A
    /// fresh open would keep the old snapshots beside the new WAL, and
    /// the next resume would fold the new history into the old state.)
    #[test]
    fn snapshots_without_their_wal_are_refused_untouched() {
        let root = tmp("wal-deleted");
        {
            let (mut daemon, _) = open(&root);
            // snapshot_every = 5 → snapshots 1 and 2.
            for i in 0..12 {
                daemon.handle_request(&request(&submit_line(i, i as f64 * 20.0, Some(7_200.0))));
            }
        }
        let dir = GatewayDir::open(&root).unwrap();
        assert_eq!(dir.snapshots().seqs().unwrap(), [1, 2]);
        std::fs::remove_file(dir.wal_path()).unwrap();
        let files = || {
            let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&root)
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    let bytes = std::fs::read(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            files.sort();
            files
        };
        let before = files();
        // The second history's daemon, which takes no snapshots.
        let second = DaemonConfig {
            snapshot_every: 0,
            ..config()
        };
        for _ in 0..2 {
            let err = Daemon::open(
                &root,
                second,
                Box::new(TickClock::new(250)),
                gateway_registry(),
            )
            .map(|(d, r)| (d.config(), r))
            .expect_err("snapshots without a WAL are refused");
            assert!(
                matches!(
                    &err,
                    ServeError::Persist(PersistError::Corrupt(msg)) if msg.contains("gateway.wal")
                ),
                "{err:?}"
            );
            assert_eq!(files(), before, "the refused open touched the directory");
        }
        assert!(dir.has_state().unwrap());
        // The journal alone is state too.
        for seq in [1, 2] {
            std::fs::remove_file(dir.snapshots().path(seq)).unwrap();
        }
        assert!(dir.has_state().unwrap());
        std::fs::remove_file(dir.journal_path()).unwrap();
        assert!(!dir.has_state().unwrap());
    }

    #[test]
    fn recovery_gauges_are_pinned_on_a_tick_clock() {
        let root = tmp("recovery-gauges");
        let gauges = |daemon: &Daemon| {
            let registry = daemon.registry();
            let guard = metrics::lock(&registry);
            (
                guard.gauge_value(RECOVERY_SECONDS, &[]),
                guard.gauge_value(RECOVERY_REPLAYED_RECORDS, &[]),
            )
        };
        {
            let (mut daemon, _) = open(&root);
            assert_eq!(gauges(&daemon), (Some(0.0), Some(0.0)), "fresh open");
            for i in 0..8 {
                daemon.handle_request(&request(&submit_line(i, i as f64 * 20.0, Some(7_200.0))));
            }
        }
        let (daemon, resumption) = open(&root);
        assert_eq!(
            resumption,
            Resumption::Resumed {
                snapshot: Some(1),
                replayed: 3
            }
        );
        // Six readings of the 250 ns tick clock: the start, the replay
        // batch's entry, one per replayed decision, and the end.
        assert_eq!(gauges(&daemon), (Some(1.25e-6), Some(3.0)));
    }

    #[test]
    fn batched_handling_leaves_byte_identical_logs_and_responses() {
        let requests: Vec<Request> = (0..40)
            .map(|i| {
                let line = submit_line(
                    i,
                    i as f64 * 15.0,
                    if i % 3 == 0 {
                        None
                    } else {
                        Some(i as f64 * 15.0 + 1_800.0)
                    },
                );
                request(&line)
            })
            .collect();

        let seq_root = tmp("batch-seq");
        let (mut sequential, _) = open(&seq_root);
        let expected: Vec<Response> = requests
            .iter()
            .map(|r| sequential.handle_request(r))
            .collect();
        let seq_wal = std::fs::read(sequential.dir.wal_path()).unwrap();
        let seq_journal = std::fs::read(sequential.dir.journal_path()).unwrap();

        for chunk_size in [2usize, 7, 40] {
            let root = tmp(&format!("batch-{chunk_size}"));
            let (mut daemon, _) = open(&root);
            let mut got = Vec::new();
            for chunk in requests.chunks(chunk_size) {
                daemon.handle_batch(chunk, &mut got);
            }
            assert_eq!(got, expected, "responses at chunk size {chunk_size}");
            assert_eq!(
                std::fs::read(daemon.dir.wal_path()).unwrap(),
                seq_wal,
                "WAL bytes at chunk size {chunk_size}"
            );
            assert_eq!(
                std::fs::read(daemon.dir.journal_path()).unwrap(),
                seq_journal,
                "journal bytes at chunk size {chunk_size}"
            );
        }
    }

    #[test]
    fn duplicates_inside_one_batch_are_rejected_in_order() {
        let root = tmp("batch-dup");
        let (mut daemon, _) = open(&root);
        let requests: Vec<Request> = [
            submit_line(1, 0.0, Some(1_800.0)),
            submit_line(1, 1.0, None),
            submit_line(2, 2.0, Some(3_600.0)),
        ]
        .iter()
        .map(|l| request(l))
        .collect();
        let mut out = Vec::new();
        daemon.handle_batch(&requests, &mut out);
        assert!(matches!(out[0], Response::Decision { job: 1, .. }));
        assert!(matches!(out[1], Response::Error { .. }));
        assert!(matches!(out[2], Response::Decision { job: 2, .. }));
        assert_eq!(daemon.wal_records(), 2);
        assert_eq!(daemon.journal_entries(), 2);
    }

    #[test]
    fn resume_under_a_different_cluster_is_refused() {
        let root = tmp("config-mismatch");
        {
            let (mut daemon, _) = open(&root);
            for i in 0..6 {
                daemon.handle_request(&request(&submit_line(i, 0.0, Some(3_600.0))));
            }
        }
        let mut other = config();
        other.gateway.servers = 2;
        let err = Daemon::open(
            &root,
            other,
            Box::new(TickClock::new(250)),
            gateway_registry(),
        )
        .map(|(d, r)| (d.config(), r))
        .expect_err("mismatched config refused");
        assert!(matches!(err, ServeError::ConfigMismatch { .. }));
    }

    #[test]
    fn a_refused_resume_leaves_both_logs_byte_identical() {
        let root = tmp("refused-untouched");
        {
            let (mut daemon, _) = open(&root);
            for i in 0..8 {
                daemon.handle_request(&request(&submit_line(i, 0.0, Some(3_600.0))));
            }
        }
        let dir = GatewayDir::open(&root).unwrap();
        // A torn WAL tail and a torn journal line: resume would cut both.
        let mut wal = std::fs::read(dir.wal_path()).unwrap();
        wal.extend_from_slice(&[7, 0, 0, 0, 1, 2]);
        std::fs::write(dir.wal_path(), &wal).unwrap();
        let mut journal = std::fs::read(dir.journal_path()).unwrap();
        journal.extend_from_slice(b"{\"t\":9.0,\"dec");
        std::fs::write(dir.journal_path(), &journal).unwrap();
        let mut other = config();
        other.gateway.gpus_per_server = 4;
        let err = Daemon::open(
            &root,
            other,
            Box::new(TickClock::new(250)),
            gateway_registry(),
        )
        .map(|(d, r)| (d.config(), r))
        .expect_err("mismatched config refused");
        assert!(matches!(err, ServeError::ConfigMismatch { .. }));
        assert!(
            std::fs::read(dir.wal_path()).unwrap() == wal,
            "the refused resume rewrote gateway.wal"
        );
        assert!(
            std::fs::read(dir.journal_path()).unwrap() == journal,
            "the refused resume rewrote decisions.jsonl"
        );
    }

    #[test]
    fn a_snapshot_covering_more_records_than_survive_is_corrupt() {
        let root = tmp("snapshot-past-wal");
        {
            let (mut daemon, _) = open(&root);
            // snapshot_every = 5 → snapshot 1 covers five records.
            for i in 0..8 {
                daemon.handle_request(&request(&submit_line(i, i as f64 * 20.0, Some(7_200.0))));
            }
        }
        let dir = GatewayDir::open(&root).unwrap();
        // Keep three records, fewer than the snapshot folded in: cut the
        // WAL at the end of its third frame.
        let mut third_end = HEADER_LEN;
        dir.recover_wal(|i, payload| {
            if i < 3 {
                third_end += FRAME_HEADER_LEN + payload.len();
            }
            Ok(())
        })
        .unwrap();
        let wal = std::fs::read(dir.wal_path()).unwrap();
        std::fs::write(dir.wal_path(), &wal[..third_end]).unwrap();
        let err = Daemon::open(
            &root,
            config(),
            Box::new(TickClock::new(250)),
            gateway_registry(),
        )
        .map(|(d, r)| (d.config(), r))
        .expect_err("a WAL shorter than its snapshot is refused");
        assert!(
            matches!(
                &err,
                ServeError::Persist(PersistError::Corrupt(msg))
                    if msg == "snapshot 1 covers 5 WAL records but only 3 survive on disk"
            ),
            "{err:?}"
        );
    }
}
