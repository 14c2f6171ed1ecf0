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
//! newest one degrades to its fallback. What this module adds is the
//! simulator's log rule: on resume the write-ahead log is repaired and
//! truncated back to the snapshot's record count, and the resumed run
//! re-appends the tail itself.

use std::path::{Path, PathBuf};

use elasticflow_sim::SimSnapshot;
use serde::{Deserialize, Serialize};

use crate::error::PersistError;
use crate::snapshots::{LatestValid, SnapshotKind, SnapshotPayload, SnapshotStore};
use crate::wal::read_wal;

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

    /// Full crash recovery: load the newest valid snapshot, repair the
    /// write-ahead log (truncate a torn tail), and truncate the log back
    /// to the snapshot's record count so a resumed run re-appends the
    /// tail itself. `Ok(None)` when the directory holds no snapshot.
    pub fn recover(&self) -> Result<Option<Recovered>, PersistError> {
        let LatestValid {
            valid: Some((seq, snapshot)),
            skipped,
        } = self.snapshots.latest_valid()?
        else {
            return Ok(None);
        };
        let wal_path = self.wal_path();
        let wal_was_torn = if wal_path.exists() {
            let contents = read_wal(&wal_path)?;
            if contents.torn {
                let file = std::fs::OpenOptions::new().write(true).open(&wal_path)?;
                file.set_len(contents.clean_len())?;
            }
            contents.torn
        } else if snapshot.wal_records > 0 {
            return Err(PersistError::Corrupt(format!(
                "snapshot {seq} requires {} WAL records but no write-ahead log exists",
                snapshot.wal_records
            )));
        } else {
            false
        };
        Ok(Some(Recovered {
            seq,
            snapshot,
            wal_was_torn,
            skipped,
        }))
    }
}
