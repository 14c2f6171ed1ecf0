//! The gateway's on-disk state: submission log, decision journal,
//! snapshots.
//!
//! Layout under one [`GatewayDir`] root:
//!
//! ```text
//! state/
//!   gateway.wal               append-only request log (`EFGW` framing)
//!   decisions.jsonl           decision journal (explain-compatible JSONL)
//!   snapshot-000001.efgs      sequenced gateway snapshots (`EFGS` framing)
//! ```
//!
//! The WAL is the *input* history — every accepted request line, framed
//! and checksummed via [`elasticflow_persist::records`]. Unlike the
//! simulator WAL it is never truncated on resume: the suffix past the
//! snapshot is replayed through the (deterministic) gateway to
//! regenerate the exact decisions the crashed instance produced. The
//! decision journal *is* truncated back to the snapshot's entry count
//! first, so the regenerated entries land where the lost ones were and
//! the recovered file converges byte-identically to an uninterrupted
//! run's. Snapshots live in the generic [`SnapshotStore`], which keeps
//! only the newest two; since the WAL keeps the whole history, even a
//! directory whose every snapshot is corrupt recovers from genesis.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use elasticflow_persist::records::{self, LogKind, LogScan, RecordLog};
use elasticflow_persist::{PersistError, SnapshotKind, SnapshotPayload, SnapshotStore};
use elasticflow_sched::DecisionRecord;
use elasticflow_telemetry::{JOURNAL_MAGIC, JOURNAL_VERSION};
use serde::{Deserialize, Serialize};

use crate::gateway::{GatewayConfig, GatewayStats, SnapshotJob};
use crate::proto::{push_f64, render_decision_into};

/// The [`SnapshotKind`] of gateway snapshot files.
pub const GATEWAY_SNAPSHOT_KIND: SnapshotKind = SnapshotKind {
    magic: b"EFGS",
    magic_name: "EFGS",
    extension: "efgs",
    long_name: "gateway snapshot",
};

/// The [`LogKind`] of the gateway submission log.
pub const GATEWAY_WAL_KIND: LogKind = LogKind {
    magic: b"EFGW",
    magic_name: "EFGW",
    record_name: "gateway",
    long_name: "gateway submission log",
};

/// One gateway snapshot's payload: enough to rebuild the decision core
/// and to know how much of the WAL and journal it already covers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatewaySnapshot {
    /// On-disk format version (`PERSIST_VERSION` at write time).
    pub version: u32,
    /// WAL records already folded into this snapshot; recovery replays
    /// only the records after them.
    pub wal_records: u64,
    /// Journal entries (excluding the header line) this snapshot is
    /// consistent with; recovery truncates the journal back to them.
    pub journal_entries: u64,
    /// The gateway configuration the state was produced under (a resume
    /// under a different configuration is refused).
    pub config: GatewayConfig,
    /// Absolute origin slot of the committed plan.
    pub origin_slot: u64,
    /// Cumulative counters.
    pub stats: GatewayStats,
    /// Every committed job, with origin-relative windows.
    pub jobs: Vec<SnapshotJob>,
}

impl SnapshotPayload for GatewaySnapshot {
    fn version(&self) -> u32 {
        self.version
    }
}

/// The journal's header line, byte-identical to the one
/// [`elasticflow_telemetry::DecisionJournal::to_jsonl`] writes — the
/// file stays loadable by `experiments -- explain --journal`.
pub fn journal_header() -> String {
    format!("{{\"journal\":\"{JOURNAL_MAGIC}\",\"version\":{JOURNAL_VERSION}}}")
}

/// Appends one journal entry line (no trailing newline) to `out`,
/// byte-for-byte what `serde_json::to_string(&JournalEntry { t,
/// decision })` produces — without building a `Value` tree for the
/// admit and decline shapes the gateway emits (the decision renders as
/// it does in a response line). Equality with serde is pinned by tests
/// over every shape.
pub fn render_journal_entry_into(t: f64, decision: &DecisionRecord, out: &mut String) {
    out.push_str("{\"t\":");
    push_f64(out, t);
    out.push_str(",\"decision\":");
    render_decision_into(decision, out);
    out.push('}');
}

/// A gateway persistence root directory.
#[derive(Debug, Clone)]
pub struct GatewayDir {
    snapshots: SnapshotStore<GatewaySnapshot>,
}

impl GatewayDir {
    /// Opens (creating if needed) the state directory at `root`.
    pub fn open<P: AsRef<Path>>(root: P) -> Result<Self, PersistError> {
        std::fs::create_dir_all(&root)?;
        Ok(GatewayDir {
            snapshots: SnapshotStore::new(GATEWAY_SNAPSHOT_KIND, root.as_ref().to_path_buf()),
        })
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        self.snapshots.root()
    }

    /// Path of the submission log.
    pub fn wal_path(&self) -> PathBuf {
        self.root().join("gateway.wal")
    }

    /// Path of the decision journal.
    pub fn journal_path(&self) -> PathBuf {
        self.root().join("decisions.jsonl")
    }

    /// The directory's snapshot files.
    pub fn snapshots(&self) -> &SnapshotStore<GatewaySnapshot> {
        &self.snapshots
    }

    /// Writes `snap` as the next snapshot; returns its sequence number.
    pub fn write_next_snapshot(&self, snap: &GatewaySnapshot) -> Result<u64, PersistError> {
        Ok(self.snapshots.write_next(snap)?.0)
    }

    /// `true` when the directory holds prior gateway state.
    pub fn has_state(&self) -> bool {
        self.wal_path().exists()
    }

    /// Creates a fresh WAL and a journal holding only its header line.
    /// Any existing state is truncated away.
    pub fn create_genesis(&self) -> Result<(RecordLog, File), PersistError> {
        let wal = RecordLog::create(GATEWAY_WAL_KIND, self.wal_path())?;
        let mut journal = File::create(self.journal_path())?;
        journal.write_all(journal_header().as_bytes())?;
        journal.write_all(b"\n")?;
        journal.flush()?;
        Ok((wal, journal))
    }

    /// Recovers the submission log in one streaming pass
    /// ([`RecordLog::recover`]): hands every intact record to `visit` as
    /// `(index, payload)`, truncates a torn final frame (the only crash
    /// artifact framing allows) and reopens the log for appending after
    /// every intact record (gateway WALs keep the whole history; only
    /// the journal is rewound on resume).
    pub fn recover_wal(
        &self,
        visit: impl FnMut(u64, &str) -> Result<(), PersistError>,
    ) -> Result<(RecordLog, LogScan), PersistError> {
        RecordLog::recover(GATEWAY_WAL_KIND, self.wal_path(), None, visit)
    }

    /// Truncates the decision journal back to its header plus the first
    /// `entries` entry lines, and re-opens it for appending. A partial
    /// final line (crash mid-append) past the kept prefix is discarded
    /// with it. The whole file must be UTF-8, read or not: the check
    /// streams over it 1 MiB at a time.
    pub fn rewind_journal(&self, entries: u64) -> Result<File, PersistError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.journal_path())?;
        let keep_bytes = journal_prefix_len(&mut file, entries + 1, JOURNAL_CHUNK)?;
        file.set_len(keep_bytes)?;
        file.seek(SeekFrom::End(0))?;
        Ok(file)
    }
}

/// Bytes [`GatewayDir::rewind_journal`] reads at a time.
const JOURNAL_CHUNK: usize = 1 << 20;

/// The byte length of the first `lines` complete lines of the journal
/// `source` holds, read `chunk` bytes at a time. Every byte is read: a
/// journal that is not UTF-8 anywhere is the [`ErrorKind::InvalidData`]
/// error `read_to_string` reports, ahead of a journal with too few lines.
/// A UTF-8 sequence cut off at a chunk's end is carried into the next.
fn journal_prefix_len(
    source: &mut impl Read,
    lines: u64,
    chunk: usize,
) -> Result<u64, PersistError> {
    let not_utf8 = || {
        PersistError::Io(std::io::Error::new(
            ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    };
    // Room for a carried partial sequence (at most 3 bytes) plus a byte.
    let mut buf = vec![0; chunk.max(4)];
    let mut carried = 0;
    // File offset of `buf[0]`.
    let mut base = 0u64;
    let mut complete = 0u64;
    let mut keep = None;
    loop {
        let filled = carried + records::fill(source, &mut buf[carried..])?;
        let at_end = filled < buf.len();
        let text = match std::str::from_utf8(&buf[..filled]) {
            Ok(text) => text,
            Err(e) if e.error_len().is_none() && !at_end => {
                std::str::from_utf8(&buf[..e.valid_up_to()]).map_err(|_| not_utf8())?
            }
            Err(_) => return Err(not_utf8()),
        };
        let valid = text.len();
        if keep.is_none() {
            for (nl, _) in text.match_indices('\n') {
                complete += 1;
                if complete == lines {
                    keep = Some(base + nl as u64 + 1);
                    break;
                }
            }
        }
        if at_end {
            break;
        }
        buf.copy_within(valid..filled, 0);
        carried = filled - valid;
        base += valid as u64;
    }
    keep.ok_or_else(|| {
        PersistError::Corrupt(format!(
            "decision journal holds {complete} complete lines but the snapshot requires {lines}"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use elasticflow_persist::PERSIST_VERSION;
    use elasticflow_sched::{CapacityShortfall, DeclineReason};
    use elasticflow_telemetry::{DecisionJournal, JournalEntry};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ef-serve-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn snapshot(jobs: Vec<SnapshotJob>) -> GatewaySnapshot {
        GatewaySnapshot {
            version: PERSIST_VERSION,
            wal_records: 3,
            journal_entries: 2,
            config: GatewayConfig::default(),
            origin_slot: 7,
            stats: GatewayStats {
                submissions: 3,
                admitted: 2,
                declined: 1,
                ..GatewayStats::default()
            },
            jobs,
        }
    }

    #[test]
    fn header_line_matches_the_telemetry_journal_format() {
        let reference = DecisionJournal::new().to_jsonl();
        assert_eq!(format!("{}\n", journal_header()), reference);
    }

    fn one_job_snapshot() -> GatewaySnapshot {
        snapshot(vec![SnapshotJob {
            id: 4,
            model: elasticflow_perfmodel::DnnModel::Bert,
            global_batch: 128,
            remaining_iterations: 512.5,
            deadline_slot: 40,
        }])
    }

    #[test]
    fn snapshot_encode_decode_round_trips() {
        let snap = one_job_snapshot();
        let bytes = GATEWAY_SNAPSHOT_KIND.encode(&snap).unwrap();
        assert_eq!(
            GATEWAY_SNAPSHOT_KIND
                .decode::<GatewaySnapshot>(&bytes)
                .unwrap(),
            snap
        );
    }

    /// FNV-1a-64 of the encoded [`one_job_snapshot`]. Pinned so that no
    /// change to the snapshot store can move a byte of the `.efgs`
    /// format.
    const GATEWAY_SNAPSHOT_DIGEST: u64 = 0xd605_5b3d_3a32_2bab;

    #[test]
    fn snapshot_bytes_match_the_pinned_digest() {
        let bytes = GATEWAY_SNAPSHOT_KIND.encode(&one_job_snapshot()).unwrap();
        // FNV-1a-64, the checksum the frame layer uses.
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(digest, GATEWAY_SNAPSHOT_DIGEST, "got {digest:#018x}");
    }

    #[test]
    fn rewind_journal_keeps_exactly_the_prefix_and_drops_torn_tails() {
        let dir = GatewayDir::open(tmp("rewind")).unwrap();
        let (_wal, mut journal) = dir.create_genesis().unwrap();
        for i in 0..4 {
            journal
                .write_all(format!("{{\"t\":{i}.0,\"entry\":{i}}}\n").as_bytes())
                .unwrap();
        }
        // Torn tail: a crash mid-append leaves a partial line.
        journal.write_all(b"{\"t\":4.0,\"ent").unwrap();
        drop(journal);
        let mut reopened = dir.rewind_journal(2).unwrap();
        reopened.write_all(b"{\"t\":2.0,\"entry\":2}\n").unwrap();
        drop(reopened);
        let text = std::fs::read_to_string(dir.journal_path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 entries
        assert_eq!(lines[0], journal_header());
        assert_eq!(lines[3], "{\"t\":2.0,\"entry\":2}");
        // Asking for more entries than exist is corruption, not silence.
        assert!(matches!(
            dir.rewind_journal(10),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn journal_entry_renderer_matches_serde_byte_for_byte() {
        use elasticflow_sched::PauseCause;
        use elasticflow_trace::JobId;

        let shortfall = CapacityShortfall {
            window_slots: u64::MAX,
            demand_gpu_slots: 123.456789,
            free_gpu_slots: 0.25,
        };
        let cases = [
            (0.0, DecisionRecord::Admit { job: JobId::new(0) }),
            (
                3600.5,
                DecisionRecord::Admit {
                    job: JobId::new(u64::MAX),
                },
            ),
            (
                1e-9,
                DecisionRecord::Decline {
                    job: JobId::new(7),
                    reason: DeclineReason::CandidateInfeasible { shortfall },
                },
            ),
            (
                9.87e12,
                DecisionRecord::Decline {
                    job: JobId::new(8),
                    reason: DeclineReason::WouldDisplace {
                        blocking_job: JobId::new(3),
                        shortfall,
                    },
                },
            ),
            (
                42.0,
                DecisionRecord::Decline {
                    job: JobId::new(9),
                    reason: DeclineReason::Unexplained,
                },
            ),
            // Simulator-only shapes exercise the serde fallback.
            (
                1.5,
                DecisionRecord::Resize {
                    job: JobId::new(1),
                    from: 2,
                    to: 4,
                },
            ),
            (
                2.5,
                DecisionRecord::Pause {
                    job: JobId::new(2),
                    seconds: 35.0,
                    cause: PauseCause::Recovery,
                },
            ),
        ];
        let mut out = String::new();
        for (t, decision) in cases {
            out.clear();
            render_journal_entry_into(t, &decision, &mut out);
            let reference = serde_json::to_string(&JournalEntry { t, decision }).unwrap();
            assert_eq!(out, reference, "shape {decision:?}");
        }
    }

    /// Recovers the directory's WAL; returns the payloads, the scan and
    /// the reopened log.
    fn recover(dir: &GatewayDir) -> (Vec<String>, LogScan, RecordLog) {
        let mut payloads = Vec::new();
        let (wal, scan) = dir
            .recover_wal(|_, p| {
                payloads.push(p.to_owned());
                Ok(())
            })
            .unwrap();
        (payloads, scan, wal)
    }

    #[test]
    fn wal_survives_a_torn_tail() {
        let dir = GatewayDir::open(tmp("torn-wal")).unwrap();
        let (mut wal, _journal) = dir.create_genesis().unwrap();
        wal.append_payload(b"{\"req\":1}").unwrap();
        wal.append_payload(b"{\"req\":2}").unwrap();
        drop(wal);
        // Simulate a crash mid-append.
        let mut bytes = std::fs::read(dir.wal_path()).unwrap();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1]);
        std::fs::write(dir.wal_path(), &bytes).unwrap();
        let (payloads, scan, mut wal) = recover(&dir);
        assert!(scan.tail_truncated);
        assert_eq!(payloads, vec!["{\"req\":1}", "{\"req\":2}"]);
        assert_eq!(wal.records(), 2);
        wal.append_payload(b"{\"req\":3}").unwrap();
        drop(wal);
        let (payloads, scan, wal) = recover(&dir);
        assert_eq!(payloads.len(), 3);
        assert_eq!(payloads.last().map(String::as_str), Some("{\"req\":3}"));
        assert!(!scan.tail_truncated);
        assert_eq!(wal.records(), 3);
    }

    /// The whole-file rewind the streaming one replaced: `read_to_string`,
    /// then the byte length of the first `lines` lines.
    fn reference_prefix_len(bytes: &[u8], lines: u64) -> Result<u64, PersistError> {
        let mut text = String::new();
        let mut source = bytes;
        source.read_to_string(&mut text)?;
        let mut complete = 0;
        for (nl, _) in text.match_indices('\n') {
            complete += 1;
            if complete == lines {
                return Ok(nl as u64 + 1);
            }
        }
        Err(PersistError::Corrupt(format!(
            "decision journal holds {complete} complete lines but the snapshot requires {lines}"
        )))
    }

    #[test]
    fn the_streaming_rewind_matches_read_to_string_at_every_chunk_size() {
        let good =
            "{\"journal\":1}\n{\"t\":1.0,\"é\":\"€\"}\n{\"t\":2.0,\"𝄞\":0}\n{\"t\":3.0,\"ent";
        let mut journals: Vec<Vec<u8>> = vec![good.as_bytes().to_vec(), Vec::new()];
        // Invalid UTF-8 inside the kept prefix, past it, in the torn tail
        // and as a sequence cut short by the end of the file.
        for at in [3, 20, good.len() - 2] {
            let mut bad = good.as_bytes().to_vec();
            bad[at] = 0xff;
            journals.push(bad);
        }
        let mut cut = good.as_bytes().to_vec();
        cut.extend_from_slice("€".as_bytes().split_at(2).0);
        journals.push(cut);
        // An error is compared by its kind and the message it prints
        // (std builds its own UTF-8 error as a constant, which debug-prints
        // differently from a constructed one).
        let render = |r: Result<u64, PersistError>| match r {
            Ok(len) => format!("Ok({len})"),
            Err(PersistError::Io(e)) => format!("Io({:?}, {e})", e.kind()),
            Err(e) => format!("{e:?}"),
        };
        for bytes in &journals {
            for lines in 0..6 {
                let reference = render(reference_prefix_len(bytes, lines));
                for chunk in (1..=bytes.len() + 1).chain([JOURNAL_CHUNK]) {
                    let mut source = bytes.as_slice();
                    let streamed = render(journal_prefix_len(&mut source, lines, chunk));
                    assert_eq!(
                        streamed,
                        reference,
                        "{lines} lines of {:?} at chunk {chunk}",
                        String::from_utf8_lossy(bytes)
                    );
                }
            }
        }
    }

    #[test]
    fn a_journal_that_is_not_utf8_past_the_kept_prefix_is_refused() {
        let dir = GatewayDir::open(tmp("journal-utf8")).unwrap();
        let (_wal, mut journal) = dir.create_genesis().unwrap();
        journal
            .write_all(b"{\"t\":0.0}\n{\"t\":1.0,\"x\":\"\xc3(\"}\n")
            .unwrap();
        drop(journal);
        let before = std::fs::read(dir.journal_path()).unwrap();
        match dir.rewind_journal(1) {
            Err(PersistError::Io(e)) => assert_eq!(e.kind(), ErrorKind::InvalidData),
            other => panic!("expected invalid UTF-8, got {other:?}"),
        }
        assert_eq!(std::fs::read(dir.journal_path()).unwrap(), before);
    }
}
