//! The simulator's state directory: its snapshot files, and nothing else.
//!
//! ```text
//! state/
//!   snapshot-000001.efsnap    sequenced full-state snapshots (the newest two)
//!   snapshot-000002.efsnap
//! ```
//!
//! Snapshots live in a [`SnapshotStore`](crate::SnapshotStore) of
//! [`SNAPSHOT_KIND`]; a corrupt newest one degrades to its fallback.
//! Resume re-simulates from the newest valid snapshot, so the run's
//! history before it needs no log: replay rebuilds everything after it,
//! and the trace and context fingerprints the snapshot carries tie it to
//! the inputs that rebuild it.

use elasticflow_sim::SimSnapshot;
use serde::{Deserialize, Serialize};

use crate::snapshots::{SnapshotKind, SnapshotPayload};

/// The [`SnapshotKind`] of simulator snapshot files.
pub const SNAPSHOT_KIND: SnapshotKind = SnapshotKind {
    magic: b"EFSN",
    magic_name: "EFSN",
    extension: "efsnap",
    long_name: "snapshot",
};

/// One snapshot file's payload: the simulation snapshot behind its
/// format version.
///
/// A snapshot written before the simulator's event log was removed also
/// carries a `wal_records` member, and one written before the cluster
/// state dropped its topology tree carries a `topology` member inside
/// `cluster`; decoding ignores both, so such a file still resumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredSnapshot {
    /// On-disk format version ([`crate::PERSIST_VERSION`] at write time).
    pub version: u32,
    /// The full resumable simulation state.
    pub sim: SimSnapshot,
}

impl SnapshotPayload for StoredSnapshot {
    fn version(&self) -> u32 {
        self.version
    }
}

/// The snapshot a resuming session starts from.
#[derive(Debug)]
pub struct Recovered {
    /// Sequence number of the snapshot being resumed from.
    pub seq: u64,
    /// The loaded snapshot.
    pub snapshot: StoredSnapshot,
    /// Snapshot files that failed validation and were skipped, as
    /// `(sequence, reason)` pairs — newest first.
    pub skipped: Vec<(u64, String)>,
}
