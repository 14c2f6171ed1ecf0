//! Generic framed record logs: the storage layer under every
//! append-only journal in the workspace.
//!
//! The simulator's event log ([`crate::store::WAL_KIND`]) and the
//! `elasticflow-serve` gateway's submission log share the same on-disk
//! shape — an 8-byte magic+version header followed by length-prefixed,
//! FNV-1a-64-checksummed frames — and the same crash semantics: a torn
//! final frame is recoverable by truncation, a checksum mismatch is bit
//! rot and surfaces as a typed error. This module owns that shape once,
//! parameterized by a [`LogKind`] naming the magic bytes and the words
//! used in error messages; callers (de)serialize their own payloads.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::error::PersistError;
use crate::frame::{
    check_header, decode_frame, encode_frame, encode_header, FrameRead, HEADER_LEN,
};

/// Identity of one record-log file format: its magic bytes plus the
/// names used in error messages.
#[derive(Debug, Clone, Copy)]
pub struct LogKind {
    /// The 4 ASCII magic bytes opening the file.
    pub magic: &'static [u8; 4],
    /// The magic rendered as ASCII, for [`PersistError::BadMagic`].
    pub magic_name: &'static str,
    /// Short name used in per-record messages (e.g. `"WAL"`).
    pub record_name: &'static str,
    /// Long name used in whole-file messages (e.g. `"write-ahead log"`).
    pub long_name: &'static str,
}

/// When appended records are forced to stable storage.
///
/// Every policy writes records to the OS immediately (a clean process
/// exit or kill never loses acknowledged records); the policies differ
/// only in how often `fsync` pushes them past the page cache, which is
/// what bounds loss on power failure. Recovery copes with any tail the
/// chosen policy can lose: an incomplete frame is truncated, and the
/// journal is regenerated from the surviving WAL prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync; rely on the OS to write back. Survives process
    /// crashes but not power loss. This is the historical behaviour and
    /// the default.
    #[default]
    Never,
    /// fsync after every record. Strongest durability, slowest.
    PerRecord,
    /// fsync once per appended batch (a single append counts as a batch
    /// of one). Amortizes the sync over group commits.
    PerBatch,
    /// fsync once every `n` records, counted across batches. A crash
    /// can lose up to one interval of acknowledged records to power
    /// failure.
    Interval(u64),
}

/// An open record log positioned for appending.
#[derive(Debug)]
pub struct RecordLog {
    file: File,
    records: u64,
    policy: FsyncPolicy,
    /// Reused frame-encoding buffer: one allocation serves every append.
    frame_buf: Vec<u8>,
    /// Records appended since the last fsync (drives `Interval`).
    unsynced: u64,
}

impl RecordLog {
    /// Creates (or truncates) the log at `path` and writes a fresh header.
    pub fn create<P: AsRef<Path>>(kind: LogKind, path: P) -> Result<Self, PersistError> {
        let mut file = File::create(path)?;
        file.write_all(&encode_header(kind.magic, crate::frame::PERSIST_VERSION))?;
        file.flush()?;
        Ok(RecordLog {
            file,
            records: 0,
            policy: FsyncPolicy::default(),
            frame_buf: Vec::new(),
            unsynced: 0,
        })
    }

    /// Opens an existing log, truncates it to its first `keep` records,
    /// and positions for appending record `keep`.
    ///
    /// The log is fully validated up to the kept prefix; fewer than `keep`
    /// intact records on disk is [`PersistError::Corrupt`] (the snapshot
    /// being resumed from promises they exist).
    pub fn open_truncated<P: AsRef<Path>>(
        kind: LogKind,
        path: P,
        keep: u64,
    ) -> Result<Self, PersistError> {
        let contents = read_log(kind, &path)?;
        if (contents.payloads.len() as u64) < keep {
            return Err(PersistError::Corrupt(format!(
                "{} holds {} records but the snapshot requires {keep}",
                kind.long_name,
                contents.payloads.len()
            )));
        }
        let keep_bytes = contents.record_offsets[keep as usize];
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.set_len(keep_bytes)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(RecordLog {
            file,
            records: keep,
            policy: FsyncPolicy::default(),
            frame_buf: Vec::new(),
            unsynced: 0,
        })
    }

    /// Appends one payload as a framed record and flushes it to the OS.
    pub fn append_payload(&mut self, payload: &[u8]) -> Result<(), PersistError> {
        self.append_batch([payload])?;
        Ok(())
    }

    /// Group commit: appends every payload as a framed record with one
    /// length/checksum pass into the reused frame buffer, one OS write,
    /// and at most one fsync (per the configured [`FsyncPolicy`]).
    /// Returns the number of records appended.
    ///
    /// A crash mid-write leaves at most one torn frame at the tail —
    /// exactly the failure [`recover_log`] repairs — because frames are
    /// laid out back to back and the OS write is a single contiguous
    /// range.
    pub fn append_batch<I>(&mut self, payloads: I) -> Result<u64, PersistError>
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        if self.policy == FsyncPolicy::PerRecord {
            // Record-granular durability deliberately defeats group
            // commit: each record is written and synced on its own, so
            // record `i` is stable before record `i + 1` exists.
            let mut appended = 0u64;
            for payload in payloads {
                self.frame_buf.clear();
                encode_frame(&mut self.frame_buf, payload.as_ref());
                self.file.write_all(&self.frame_buf)?;
                self.file.sync_data()?;
                self.records += 1;
                appended += 1;
            }
            self.unsynced = 0;
            return Ok(appended);
        }
        self.frame_buf.clear();
        let mut appended = 0u64;
        for payload in payloads {
            encode_frame(&mut self.frame_buf, payload.as_ref());
            appended += 1;
        }
        if appended == 0 {
            return Ok(0);
        }
        self.file.write_all(&self.frame_buf)?;
        self.file.flush()?;
        self.records += appended;
        self.unsynced += appended;
        let sync_due = match self.policy {
            FsyncPolicy::Never | FsyncPolicy::PerRecord => false,
            FsyncPolicy::PerBatch => true,
            FsyncPolicy::Interval(n) => n > 0 && self.unsynced >= n,
        };
        if sync_due {
            self.sync()?;
        }
        Ok(appended)
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Sets when appends are forced to stable storage.
    pub fn set_fsync_policy(&mut self, policy: FsyncPolicy) {
        self.policy = policy;
    }

    /// Records appended so far (including any kept prefix).
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// The decoded contents of a record log: UTF-8 payloads in append order.
#[derive(Debug)]
pub struct LogContents {
    /// Every intact record payload, in append order.
    pub payloads: Vec<String>,
    /// Byte offset where record `i` begins; the final entry is the offset
    /// just past the last intact record (`record_offsets.len() ==
    /// payloads.len() + 1`). Truncating the file to any of these offsets
    /// yields a clean log prefix.
    pub record_offsets: Vec<u64>,
    /// `true` when the log ended in an incomplete frame (crash mid-append).
    pub torn: bool,
}

impl LogContents {
    /// Byte length of the clean prefix (header + intact records).
    pub fn clean_len(&self) -> u64 {
        *self.record_offsets.last().unwrap_or(&(HEADER_LEN as u64))
    }
}

/// Reads and validates a record log.
///
/// A torn final frame stops the scan and sets [`LogContents::torn`]; a
/// complete frame with a bad checksum or a non-UTF-8 payload is a typed
/// error.
pub fn read_log<P: AsRef<Path>>(kind: LogKind, path: P) -> Result<LogContents, PersistError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    check_header(&bytes, kind.magic, kind.magic_name)?;
    let mut payloads = Vec::new();
    let mut record_offsets = vec![HEADER_LEN as u64];
    let mut offset = HEADER_LEN;
    let mut torn = false;
    loop {
        if offset == bytes.len() {
            break;
        }
        match decode_frame(&bytes, offset)? {
            FrameRead::Complete { payload, next } => {
                let text = std::str::from_utf8(payload).map_err(|_| {
                    PersistError::Corrupt(format!(
                        "{} record at offset {offset} is not valid UTF-8",
                        kind.record_name
                    ))
                })?;
                payloads.push(text.to_owned());
                record_offsets.push(next as u64);
                offset = next;
            }
            FrameRead::Torn => {
                torn = true;
                break;
            }
        }
    }
    Ok(LogContents {
        payloads,
        record_offsets,
        torn,
    })
}

/// Reads the log and, if it ends in a torn frame, truncates the file back
/// to its clean prefix. Returns the (now guaranteed clean) contents.
pub fn recover_log<P: AsRef<Path>>(kind: LogKind, path: P) -> Result<LogContents, PersistError> {
    let mut contents = read_log(kind, &path)?;
    if contents.torn {
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(contents.clean_len())?;
        contents.torn = false;
    }
    Ok(contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_KIND: LogKind = LogKind {
        magic: b"EFWL",
        magic_name: "EFWL",
        record_name: "WAL",
        long_name: "write-ahead log",
    };

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ef-records-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    #[test]
    fn append_then_read_round_trips_payloads() {
        let path = tmp("roundtrip.log");
        let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
        log.append_payload(b"one").expect("append");
        log.append_payload(b"two").expect("append");
        assert_eq!(log.records(), 2);
        let contents = read_log(TEST_KIND, &path).expect("read");
        assert_eq!(contents.payloads, vec!["one".to_owned(), "two".to_owned()]);
        assert!(!contents.torn);
    }

    #[test]
    fn open_truncated_keeps_exactly_the_prefix() {
        let path = tmp("truncate.log");
        let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
        for i in 0..5 {
            log.append_payload(format!("r{i}").as_bytes())
                .expect("append");
        }
        drop(log);
        let mut log = RecordLog::open_truncated(TEST_KIND, &path, 3).expect("open");
        assert_eq!(log.records(), 3);
        log.append_payload(b"r3'").expect("append");
        let contents = read_log(TEST_KIND, &path).expect("read");
        assert_eq!(contents.payloads, vec!["r0", "r1", "r2", "r3'"]);
    }

    #[test]
    fn keeping_more_than_exists_is_corrupt() {
        let path = tmp("overkeep.log");
        let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
        log.append_payload(b"only").expect("append");
        drop(log);
        match RecordLog::open_truncated(TEST_KIND, &path, 2) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(
                    msg.contains("holds 1 records but the snapshot requires 2"),
                    "{msg}"
                );
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn append_batch_is_byte_identical_to_sequential_appends() {
        let batched = tmp("batch-eq-a.log");
        let sequential = tmp("batch-eq-b.log");
        let payloads: Vec<String> = (0..17).map(|i| format!("record-{i}")).collect();
        let mut a = RecordLog::create(TEST_KIND, &batched).expect("create");
        assert_eq!(a.append_batch(payloads.iter()).expect("batch"), 17);
        assert_eq!(a.records(), 17);
        let mut b = RecordLog::create(TEST_KIND, &sequential).expect("create");
        for p in &payloads {
            b.append_payload(p.as_bytes()).expect("append");
        }
        drop((a, b));
        assert_eq!(
            std::fs::read(&batched).expect("read a"),
            std::fs::read(&sequential).expect("read b"),
            "group commit must not change the on-disk bytes"
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let path = tmp("batch-empty.log");
        let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
        let before = std::fs::metadata(&path).expect("meta").len();
        assert_eq!(log.append_batch(std::iter::empty::<&[u8]>()).unwrap(), 0);
        assert_eq!(log.records(), 0);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), before);
    }

    #[test]
    fn fsync_policies_preserve_contents() {
        for (name, policy) in [
            ("never", FsyncPolicy::Never),
            ("record", FsyncPolicy::PerRecord),
            ("batch", FsyncPolicy::PerBatch),
            ("interval", FsyncPolicy::Interval(3)),
        ] {
            let path = tmp(&format!("fsync-{name}.log"));
            let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
            log.set_fsync_policy(policy);
            log.append_batch(["a", "b"]).expect("batch");
            log.append_payload(b"c").expect("append");
            log.sync().expect("explicit sync");
            let contents = read_log(TEST_KIND, &path).expect("read");
            assert_eq!(contents.payloads, vec!["a", "b", "c"], "policy {name}");
        }
    }

    #[test]
    fn torn_tail_inside_a_batched_run_recovers_the_clean_prefix() {
        let path = tmp("batch-torn.log");
        let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
        log.append_batch(["first", "second", "third"])
            .expect("batch");
        drop(log);
        let clean = std::fs::read(&path).expect("read bytes");
        let contents = read_log(TEST_KIND, &path).expect("read");
        // Cut the file mid-way through the last record of the batch: the
        // crash point a power failure during the single group-commit
        // write would leave.
        let cut = contents.record_offsets[2] + 5;
        let mut torn_bytes = clean.clone();
        torn_bytes.truncate(cut as usize);
        std::fs::write(&path, &torn_bytes).expect("write torn");
        let recovered = recover_log(TEST_KIND, &path).expect("recover");
        assert_eq!(recovered.payloads, vec!["first", "second"]);
        assert!(!recovered.torn);
    }

    #[test]
    fn recover_truncates_a_torn_tail() {
        let path = tmp("torn.log");
        let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
        log.append_payload(b"whole").expect("append");
        drop(log);
        let clean = std::fs::read(&path).expect("read bytes");
        let mut torn_bytes = clean.clone();
        torn_bytes.extend_from_slice(&[7, 0, 0, 0, 1, 2]); // half a frame header
        std::fs::write(&path, &torn_bytes).expect("write torn");
        assert!(read_log(TEST_KIND, &path).expect("read").torn);
        let contents = recover_log(TEST_KIND, &path).expect("recover");
        assert!(!contents.torn);
        assert_eq!(std::fs::read(&path).expect("reread"), clean);
    }
}
