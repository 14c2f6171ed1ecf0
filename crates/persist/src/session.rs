//! One call runs a persisted simulation.
//!
//! [`PersistSession::begin`] owns the whole fresh-vs-resume decision:
//!
//! * **fresh** — remove the directory's snapshots, create the write-ahead
//!   log, and checkpoint periodically from simulated time zero;
//! * **resume** — recover the state directory (newest valid snapshot,
//!   then one streaming scan of the write-ahead log that validates every
//!   record and rolls the log back to the snapshot's record count,
//!   [`StateDir::recover`]).
//!
//! [`PersistSession::run`] then drives the simulation from the recovered
//! snapshot, or from the start when there is none. A private WAL tap
//! observes every event ahead of the caller's observers, and a private
//! checkpointer, the run's [`SimController`], cuts snapshots stamped with
//! the WAL position they are consistent with.
//!
//! Because the resumed run re-appends every event after the cut exactly
//! as the lost run would have, an interrupted-and-resumed session leaves
//! the same write-ahead log as an uninterrupted one — the property the
//! golden crash-recovery tests (`tests/persist_recovery.rs`) assert end
//! to end. The tap is read-only with
//! respect to the simulation (the engine's observer contract) and the
//! checkpointer only consults simulated time, so checkpoint cadence is
//! deterministic for a given workload. Wall-clock time is used solely for
//! the write-latency histogram, which lives on the telemetry side of the
//! seam.

use std::cell::Cell;
use std::path::Path;
use std::time::Instant;

use elasticflow_sched::Scheduler;
use elasticflow_sim::{
    Event, ResumeError, RunDirective, SimContext, SimController, SimObserver, SimOutcome,
    SimSnapshot, Simulation, TraceRecord,
};
use elasticflow_telemetry::MetricsRegistry;
use elasticflow_trace::Trace;

use crate::error::PersistError;
use crate::frame::PERSIST_VERSION;
use crate::records::RecordLog;
use crate::store::{Recovered, StateDir, StoredSnapshot, WAL_KIND};

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

/// A state directory opened for one persisted simulation run.
#[derive(Debug)]
pub struct PersistSession {
    dir: StateDir,
    wal: RecordLog,
    checkpoint_every_seconds: f64,
    kill_at_round: Option<u64>,
    recovered: Option<Recovered>,
    stats: CheckpointStats,
    first_error: Option<PersistError>,
    ran: bool,
}

impl PersistSession {
    /// Opens `state_dir` for a run that checkpoints every
    /// `checkpoint_every_seconds` of simulated time (`f64::INFINITY`
    /// disables periodic cuts).
    ///
    /// With `resume` set, recovery is attempted first: if a valid
    /// snapshot exists the session resumes from it ([`Self::snapshot`]
    /// returns `Some`); if the directory holds no snapshot the session
    /// silently degrades to a fresh run. A fresh session removes the
    /// directory's snapshots and then truncates the log, so a crash
    /// between the two steps leaves either the old consistent pair or no
    /// snapshot at all.
    pub fn begin<P: AsRef<Path>>(
        state_dir: P,
        checkpoint_every_seconds: f64,
        resume: bool,
    ) -> Result<Self, PersistError> {
        let dir = StateDir::open(state_dir)?;
        let recovered = if resume { dir.recover()? } else { None };
        let (wal, recovered) = match recovered {
            Some((r, wal)) => (wal, Some(r)),
            None => {
                dir.snapshots().clear()?;
                (RecordLog::create(WAL_KIND, dir.wal_path())?, None)
            }
        };
        Ok(PersistSession {
            dir,
            wal,
            checkpoint_every_seconds,
            kill_at_round: None,
            recovered,
            stats: CheckpointStats::default(),
            first_error: None,
            ran: false,
        })
    }

    /// Arms a hard stop (no final checkpoint) at `round`: a simulated
    /// crash, which a later resuming session recovers from.
    pub fn kill_at_round(mut self, round: u64) -> Self {
        self.kill_at_round = Some(round);
        self
    }

    /// The snapshot [`Self::run`] resumes from, when recovery found one.
    pub fn snapshot(&self) -> Option<&SimSnapshot> {
        self.recovered.as_ref().map(|r| &r.snapshot.sim)
    }

    /// Details of what recovery found (sequence, skipped snapshots, torn
    /// tail), when resuming.
    pub fn recovered(&self) -> Option<&Recovered> {
        self.recovered.as_ref()
    }

    /// Runs `trace` on `sim` under `scheduler` with persistence attached,
    /// resuming from [`Self::snapshot`] when there is one and from the
    /// start otherwise. `observers` see every event after the WAL tap
    /// has logged it.
    ///
    /// WAL-append and snapshot-write failures never stop the run; they
    /// are counted in [`Self::stats`] and the first is kept for
    /// [`Self::first_error`].
    ///
    /// # Errors
    ///
    /// A [`ResumeError`] when the recovered snapshot does not belong to
    /// this run's inputs; nothing is run or written then.
    ///
    /// # Panics
    ///
    /// On a second call: the log is already past the recovered snapshot,
    /// so another run would append a duplicate tail and cut snapshots
    /// whose record counts do not match it.
    pub fn run(
        &mut self,
        sim: &Simulation,
        trace: &Trace,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) -> Result<SimOutcome, ResumeError> {
        assert!(!self.ran, "PersistSession::run called twice on one session");
        self.ran = true;
        let resume_from = self.recovered.as_ref().map(|r| &r.snapshot.sim);
        let start_records = self.wal.records();
        let position = Cell::new(start_records);
        let mut tap = WalTap {
            log: &mut self.wal,
            position: &position,
            failures: 0,
            error: None,
        };
        let mut checkpointer = Checkpointer {
            dir: &self.dir,
            every_seconds: self.checkpoint_every_seconds,
            kill_at_round: self.kill_at_round,
            last_mark: resume_from.map_or(0.0, |s| s.now),
            position: &position,
            stats: &mut self.stats,
            error: None,
        };
        let mut all: Vec<&mut dyn SimObserver> = Vec::with_capacity(observers.len() + 1);
        all.push(&mut tap);
        for o in observers.iter_mut() {
            all.push(&mut **o);
        }
        let outcome = match resume_from {
            Some(snap) => {
                sim.resume_controlled(trace, scheduler, &mut all, &mut checkpointer, snap)
            }
            None => Ok(sim.run_controlled(trace, scheduler, &mut all, &mut checkpointer)),
        };
        self.first_error = tap.error.or(checkpointer.error);
        self.stats.wal_records = position.get() - start_records;
        self.stats.wal_failures = tap.failures;
        outcome
    }

    /// Persistence statistics of the run.
    pub fn stats(&self) -> &CheckpointStats {
        &self.stats
    }

    /// The first persistence error the run swallowed (a WAL append's
    /// before a snapshot write's), if any.
    pub fn first_error(&self) -> Option<&PersistError> {
        self.first_error.as_ref()
    }
}

/// Streams every simulation event into the write-ahead log and publishes
/// the log's record count in `position` for the [`Checkpointer`].
struct WalTap<'a> {
    log: &'a mut RecordLog,
    position: &'a Cell<u64>,
    failures: u64,
    error: Option<PersistError>,
}

impl SimObserver for WalTap<'_> {
    fn on_event(&mut self, now: f64, event: &Event, _ctx: &SimContext<'_>) {
        let record = TraceRecord {
            time: now,
            event: *event,
        };
        let appended = serde_json::to_string(&record)
            .map_err(PersistError::from)
            .and_then(|payload| self.log.append_payload(payload.as_bytes()));
        match appended {
            Ok(()) => self.position.set(self.log.records()),
            Err(e) => {
                self.failures += 1;
                self.error.get_or_insert(e);
            }
        }
    }
}

/// Cuts a snapshot whenever `every_seconds` of simulated time have passed
/// since the last one, and hard-stops the run at `kill_at_round` when
/// armed — deliberately without checkpointing first.
struct Checkpointer<'a> {
    dir: &'a StateDir,
    every_seconds: f64,
    kill_at_round: Option<u64>,
    last_mark: f64,
    position: &'a Cell<u64>,
    stats: &'a mut CheckpointStats,
    error: Option<PersistError>,
}

impl SimController for Checkpointer<'_> {
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
            wal_records: self.position.get(),
            sim: snapshot,
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "snapshot write timing is reported beside the run, never fed back into it"
        )]
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
                self.error.get_or_insert(e);
            }
        }
    }
}
