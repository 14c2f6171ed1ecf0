//! The live persistence harness: a [`SimController`] that cuts periodic
//! snapshots and a [`SimObserver`] that streams every event into the
//! write-ahead log, wired together through a shared record counter so
//! each snapshot records exactly which WAL prefix it is consistent with.
//!
//! The observer is read-only with respect to the simulation (attaching it
//! cannot perturb replay — the engine's observer contract), and the
//! controller only consults simulated time, so checkpoint cadence is
//! deterministic for a given workload. Wall-clock time is used solely for
//! the write-latency histogram, which lives on the telemetry side of the
//! seam.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use elasticflow_sim::{
    Event, RunDirective, SimContext, SimController, SimObserver, SimSnapshot, TraceRecord,
};
use elasticflow_telemetry::MetricsRegistry;

use crate::error::PersistError;
use crate::frame::PERSIST_VERSION;
use crate::store::{StateDir, StoredSnapshot};
use crate::wal::WalWriter;

/// Latency buckets for the checkpoint write-time histogram, seconds.
const WRITE_SECONDS_BUCKETS: [f64; 8] = [0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0];
/// Size buckets for the snapshot-bytes histogram.
const BYTES_BUCKETS: [f64; 8] = [
    1_024.0,
    4_096.0,
    16_384.0,
    65_536.0,
    262_144.0,
    1_048_576.0,
    4_194_304.0,
    16_777_216.0,
];

/// Counters and samples accumulated across one persisted run.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStats {
    /// Snapshots successfully written.
    pub checkpoints: u64,
    /// Snapshot writes that failed (the run continues; the previous
    /// snapshot remains the recovery point).
    pub failures: u64,
    /// WAL records appended by this process.
    pub wal_records: u64,
    /// WAL appends that failed.
    pub wal_failures: u64,
    /// Encoded size of each successful snapshot, bytes.
    pub snapshot_bytes: Vec<u64>,
    /// Wall-clock write latency of each successful snapshot, seconds.
    pub write_seconds: Vec<f64>,
}

impl CheckpointStats {
    /// Records the run's persistence telemetry into `registry` under the
    /// `ef_checkpoint_*` / `ef_wal_*` metric names.
    pub fn record_metrics(&self, registry: &mut MetricsRegistry) {
        registry.describe_counter("ef_checkpoints_total", "Snapshots successfully written");
        registry.describe_counter(
            "ef_checkpoint_failures_total",
            "Snapshot writes that failed",
        );
        registry.describe_counter("ef_wal_records_total", "Write-ahead log records appended");
        registry.describe_counter(
            "ef_wal_failures_total",
            "Write-ahead log appends that failed",
        );
        registry.describe_histogram(
            "ef_checkpoint_bytes",
            "Encoded snapshot size in bytes",
            &BYTES_BUCKETS,
        );
        registry.describe_histogram(
            "ef_checkpoint_write_seconds",
            "Wall-clock snapshot write latency in seconds",
            &WRITE_SECONDS_BUCKETS,
        );
        registry.inc("ef_checkpoints_total", &[], self.checkpoints as f64);
        registry.inc("ef_checkpoint_failures_total", &[], self.failures as f64);
        registry.inc("ef_wal_records_total", &[], self.wal_records as f64);
        registry.inc("ef_wal_failures_total", &[], self.wal_failures as f64);
        for &bytes in &self.snapshot_bytes {
            registry.observe("ef_checkpoint_bytes", &[], bytes as f64);
        }
        for &secs in &self.write_seconds {
            registry.observe("ef_checkpoint_write_seconds", &[], secs);
        }
    }
}

/// Streams every simulation event into the write-ahead log.
#[derive(Debug)]
pub struct WalObserver {
    writer: WalWriter,
    count: Rc<Cell<u64>>,
    appended: u64,
    failures: u64,
    last_error: Option<PersistError>,
}

impl WalObserver {
    /// Wraps an open log writer; `count` is shared with the
    /// [`Checkpointer`] so snapshots can stamp the current WAL position.
    pub fn new(writer: WalWriter, count: Rc<Cell<u64>>) -> Self {
        count.set(writer.records());
        WalObserver {
            writer,
            count,
            appended: 0,
            failures: 0,
            last_error: None,
        }
    }

    /// Records appended by this observer (excluding any resumed prefix).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends that failed. Observer hooks cannot propagate errors, so
    /// failures are counted here and the first error retained.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// The first append error encountered, if any.
    pub fn last_error(&self) -> Option<&PersistError> {
        self.last_error.as_ref()
    }
}

impl SimObserver for WalObserver {
    fn on_event(&mut self, now: f64, event: &Event, _ctx: &SimContext<'_>) {
        match self.writer.append(&TraceRecord {
            time: now,
            event: *event,
        }) {
            Ok(()) => {
                self.appended += 1;
                self.count.set(self.writer.records());
            }
            Err(e) => {
                self.failures += 1;
                if self.last_error.is_none() {
                    self.last_error = Some(e);
                }
            }
        }
    }
}

/// Cuts a snapshot whenever `every_seconds` of simulated time have passed
/// since the last one, and optionally hard-stops the run at a chosen
/// round (the crash half of a crash-restart drill — the stop deliberately
/// does *not* checkpoint first).
#[derive(Debug)]
pub struct Checkpointer {
    dir: StateDir,
    every_seconds: f64,
    kill_at_round: Option<u64>,
    last_mark: f64,
    wal_count: Rc<Cell<u64>>,
    stats: CheckpointStats,
    last_error: Option<PersistError>,
}

impl Checkpointer {
    /// A checkpointer writing into `dir` every `every_seconds` of
    /// simulated time (pass `f64::INFINITY` to disable periodic cuts).
    /// `wal_count` must be the counter shared with the [`WalObserver`];
    /// `start_time` is the simulated time the run begins at (0 for a
    /// fresh run, the snapshot's `now` for a resumed one).
    pub fn new(
        dir: StateDir,
        every_seconds: f64,
        wal_count: Rc<Cell<u64>>,
        start_time: f64,
    ) -> Self {
        Checkpointer {
            dir,
            every_seconds,
            kill_at_round: None,
            last_mark: start_time,
            wal_count,
            stats: CheckpointStats::default(),
            last_error: None,
        }
    }

    /// Arms a hard stop (no final checkpoint) when `round` is reached.
    pub fn kill_at_round(mut self, round: u64) -> Self {
        self.kill_at_round = Some(round);
        self
    }

    /// Accumulated persistence statistics, with the observer-side WAL
    /// counters merged in by [`PersistSession::stats`](crate::PersistSession::stats)
    /// or manually via [`CheckpointStats`] field updates.
    pub fn stats(&self) -> &CheckpointStats {
        &self.stats
    }

    /// The first snapshot-write error encountered, if any.
    pub fn last_error(&self) -> Option<&PersistError> {
        self.last_error.as_ref()
    }
}

impl SimController for Checkpointer {
    fn directive(&mut self, now: f64, round: u64) -> RunDirective {
        if self.kill_at_round == Some(round) {
            return RunDirective::Stop;
        }
        if self.every_seconds.is_finite() && now - self.last_mark >= self.every_seconds {
            self.last_mark = now;
            return RunDirective::Checkpoint;
        }
        RunDirective::Continue
    }

    fn on_snapshot(&mut self, snapshot: SimSnapshot) {
        let stored = StoredSnapshot {
            version: PERSIST_VERSION,
            wal_records: self.wal_count.get(),
            sim: snapshot,
        };
        let started = Instant::now();
        match self.dir.snapshots().write_next(&stored) {
            Ok((_, bytes)) => {
                self.stats.checkpoints += 1;
                self.stats.snapshot_bytes.push(bytes);
                self.stats
                    .write_seconds
                    .push(started.elapsed().as_secs_f64());
            }
            Err(e) => {
                self.stats.failures += 1;
                if self.last_error.is_none() {
                    self.last_error = Some(e);
                }
            }
        }
    }
}
