//! The simulator's state directory: snapshot files plus the write-ahead log.
//!
//! Layout under one [`StateDir`] root:
//!
//! ```text
//! state/
//!   snapshot-000001.efsnap    sequenced full-state snapshots (the newest two)
//!   snapshot-000002.efsnap
//!   events.wal                append-only event log
//! ```
//!
//! Snapshots live in a [`SnapshotStore`] of [`SNAPSHOT_KIND`]; a corrupt
//! newest one degrades to its fallback.
//!
//! The write-ahead log is a [`RecordLog`](crate::RecordLog) of
//! [`WAL_KIND`]: every typed simulation event is appended as one framed
//! [`TraceRecord`] (JSON payload, length-prefixed, FNV-1a-64 checksummed)
//! behind an `EFWL` + version header. The log is an audit trail with
//! crash-grade durability semantics:
//!
//! * a crash mid-append leaves a *torn tail* — an incomplete final frame
//!   — which recovery detects and truncates away, keeping every record
//!   before it;
//! * a complete frame whose payload no longer matches its checksum is
//!   bit rot, not a crash artifact, and surfaces as a typed
//!   [`PersistError::ChecksumMismatch`] rather than silent truncation.
//!
//! On resume the log is truncated back to the record count captured in
//! the snapshot being resumed from; the resumed run then re-appends the
//! same records the lost run would have, so an interrupted-and-resumed
//! session converges to the byte-identical log of an uninterrupted one.

use std::path::{Path, PathBuf};

use elasticflow_sim::{SimSnapshot, TraceRecord};
use serde::{Deserialize, Serialize};

use crate::error::PersistError;
use crate::records::{recover_log, LogContents, LogKind};
use crate::snapshots::{LatestValid, SnapshotKind, SnapshotPayload, SnapshotStore};

/// The [`LogKind`] of the simulator write-ahead log.
pub const WAL_KIND: LogKind = LogKind {
    magic: b"EFWL",
    magic_name: "EFWL",
    record_name: "WAL",
    long_name: "write-ahead log",
};

/// The [`SnapshotKind`] of simulator snapshot files.
pub const SNAPSHOT_KIND: SnapshotKind = SnapshotKind {
    magic: b"EFSN",
    magic_name: "EFSN",
    extension: "efsnap",
    long_name: "snapshot",
};

/// One snapshot file's payload: the simulation snapshot plus the
/// write-ahead log position it is consistent with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredSnapshot {
    /// On-disk format version ([`crate::PERSIST_VERSION`] at write time).
    pub version: u32,
    /// Number of WAL records that existed when this snapshot was cut.
    /// Resume truncates the log back to this count so the resumed run
    /// re-appends the tail deterministically.
    pub wal_records: u64,
    /// The full resumable simulation state.
    pub sim: SimSnapshot,
}

impl SnapshotPayload for StoredSnapshot {
    fn version(&self) -> u32 {
        self.version
    }
}

/// Everything recovery found in a state directory.
#[derive(Debug)]
pub struct Recovered {
    /// Sequence number of the snapshot being resumed from.
    pub seq: u64,
    /// The loaded snapshot.
    pub snapshot: StoredSnapshot,
    /// `true` when the log ended in a torn (crash-interrupted) record
    /// that recovery truncated away.
    pub wal_was_torn: bool,
    /// Snapshot files that failed validation and were skipped, as
    /// `(sequence, reason)` pairs — newest first.
    pub skipped: Vec<(u64, String)>,
}

/// A persistence root directory.
#[derive(Debug, Clone)]
pub struct StateDir {
    snapshots: SnapshotStore<StoredSnapshot>,
}

impl StateDir {
    /// Opens (creating if needed) the state directory at `root`.
    pub fn open<P: AsRef<Path>>(root: P) -> Result<Self, PersistError> {
        std::fs::create_dir_all(&root)?;
        Ok(StateDir {
            snapshots: SnapshotStore::new(SNAPSHOT_KIND, root.as_ref().to_path_buf()),
        })
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.snapshots.root().join("events.wal")
    }

    /// The directory's snapshot files.
    pub fn snapshots(&self) -> &SnapshotStore<StoredSnapshot> {
        &self.snapshots
    }

    /// Full crash recovery: load the newest valid snapshot and repair the
    /// write-ahead log (truncate a torn tail). `Ok(None)` when the
    /// directory holds no snapshot.
    ///
    /// Every intact record must decode as a [`TraceRecord`]; one that is
    /// checksummed but undecodable is a typed error, not a torn tail.
    ///
    /// Next to what it found, recovery hands back the log it read (`None`
    /// when there is no log file). The caller rolls it back to the
    /// snapshot's record count with [`crate::RecordLog::resume`], without
    /// reading it again, so a resumed run re-appends the tail itself.
    pub fn recover(&self) -> Result<Option<(Recovered, Option<LogContents>)>, PersistError> {
        let LatestValid {
            valid: Some((seq, snapshot)),
            skipped,
        } = self.snapshots.latest_valid()?
        else {
            return Ok(None);
        };
        let wal_path = self.wal_path();
        let wal = if wal_path.exists() {
            let contents = recover_log(WAL_KIND, &wal_path)?;
            for payload in contents.payloads() {
                serde_json::from_str::<TraceRecord>(payload)?;
            }
            Some(contents)
        } else if snapshot.wal_records > 0 {
            return Err(PersistError::Corrupt(format!(
                "snapshot {seq} requires {} WAL records but no write-ahead log exists",
                snapshot.wal_records
            )));
        } else {
            None
        };
        let recovered = Recovered {
            seq,
            snapshot,
            wal_was_torn: wal.as_ref().is_some_and(LogContents::tail_truncated),
            skipped,
        };
        Ok(Some((recovered, wal)))
    }
}
