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
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::error::PersistError;
use crate::frame::{
    check_header, decode_frames, encode_frame, encode_frames, encode_header, CHECKSUM_LANES,
    FRAME_HEADER_LEN, HEADER_LEN,
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

    /// Re-opens the log `contents` was read from, truncates it to its
    /// first `keep` records, and positions for appending record `keep`.
    ///
    /// The file is not read again: [`read_log`] already validated every
    /// record in `contents`. Fewer than `keep` records in `contents` is
    /// [`PersistError::Corrupt`] (the snapshot being resumed from
    /// promises they exist).
    pub fn resume(contents: &LogContents, keep: u64) -> Result<Self, PersistError> {
        let kept = usize::try_from(keep)
            .ok()
            .and_then(|keep| contents.record_offsets.get(keep));
        let Some(&keep_bytes) = kept else {
            return Err(PersistError::Corrupt(format!(
                "{} holds {} records but the snapshot requires {keep}",
                contents.kind.long_name,
                contents.len()
            )));
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&contents.path)?;
        file.set_len(keep_bytes)?;
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
    /// Returns the number of records appended. The checksums of a
    /// multi-record batch are computed [`CHECKSUM_LANES`] frames at a
    /// time ([`encode_frames`]); the bytes are those of sequential
    /// appends.
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
        let mut payloads = payloads.into_iter().fuse();
        loop {
            let group = [
                payloads.next(),
                payloads.next(),
                payloads.next(),
                payloads.next(),
            ];
            let mut slices: [&[u8]; CHECKSUM_LANES] = [&[]; CHECKSUM_LANES];
            let mut n = 0;
            for payload in group.iter().flatten() {
                slices[n] = payload.as_ref();
                n += 1;
            }
            encode_frames(&mut self.frame_buf, &slices[..n]);
            appended += n as u64;
            if n < CHECKSUM_LANES {
                break;
            }
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
///
/// The payloads share one buffer: [`read_log`] reads the file once,
/// moves every payload to the front of that buffer, back to back, and
/// checks the whole text as UTF-8 before any caller sees a payload.
#[derive(Debug)]
pub struct LogContents {
    kind: LogKind,
    path: PathBuf,
    /// Every intact payload, concatenated in append order.
    text: String,
    record_offsets: Vec<u64>,
    torn: bool,
    tail_truncated: bool,
}

impl LogContents {
    /// Number of intact records.
    pub fn len(&self) -> usize {
        self.record_offsets.len() - 1
    }

    /// `true` when the log holds no intact record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload of record `i < self.len()`.
    fn payload(&self, i: usize) -> &str {
        &self.text[payload_range(&self.record_offsets, i)]
    }

    /// Every intact payload, in append order.
    pub fn payloads(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.payload(i))
    }

    /// Byte offset where record `i` begins; the final entry is the offset
    /// just past the last intact record (`record_offsets().len() ==
    /// len() + 1`). Truncating the file to any of these offsets yields a
    /// clean log prefix.
    pub fn record_offsets(&self) -> &[u64] {
        &self.record_offsets
    }

    /// `true` when the file ends in an incomplete frame (crash
    /// mid-append) that has not been truncated away.
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// `true` when [`recover_log`] truncated a torn tail away.
    pub fn tail_truncated(&self) -> bool {
        self.tail_truncated
    }

    /// Byte length of the clean prefix (header + intact records).
    pub fn clean_len(&self) -> u64 {
        *self.record_offsets.last().unwrap_or(&(HEADER_LEN as u64))
    }
}

/// Where payload `i` lies in the concatenated text: the file offset of
/// its frame, less the file header and the `i` frame headers before it.
fn payload_range(record_offsets: &[u64], i: usize) -> Range<usize> {
    let skipped = |i: usize| HEADER_LEN + FRAME_HEADER_LEN * i;
    let start = record_offsets[i] as usize - skipped(i);
    let end = record_offsets[i + 1] as usize - skipped(i + 1);
    start..end
}

/// Reads and validates a record log.
///
/// A torn final frame stops the scan and sets [`LogContents::torn`]; a
/// complete frame with a bad checksum or a non-UTF-8 payload is a typed
/// error. The file is read once and its checksums are verified
/// [`CHECKSUM_LANES`] frames at a time; the error reported is the first
/// bad frame in file order, as a frame-by-frame scan would report it.
pub fn read_log<P: AsRef<Path>>(kind: LogKind, path: P) -> Result<LogContents, PersistError> {
    let path = path.as_ref();
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    check_header(&bytes, kind.magic, kind.magic_name)?;
    let mut record_offsets = vec![HEADER_LEN as u64];
    let scanned = decode_frames(&bytes, HEADER_LEN, &mut record_offsets);
    // A non-UTF-8 payload in front of a bad checksum is the first bad
    // frame, so the frames verified before the mismatch are checked
    // before the mismatch is reported.
    let text = payload_text(kind, bytes, &record_offsets)?;
    let torn = scanned?;
    Ok(LogContents {
        kind,
        path: path.to_path_buf(),
        text,
        record_offsets,
        torn,
        tail_truncated: false,
    })
}

/// Moves the payloads of the frames `record_offsets` delimits to the
/// front of `bytes`, back to back, and returns them as one string.
///
/// The check is the whole text as UTF-8 plus each payload's start as a
/// char boundary: together they hold exactly when every payload is UTF-8
/// on its own. When they fail, the first payload that is not is a
/// [`PersistError::Corrupt`] naming its frame's offset.
fn payload_text(
    kind: LogKind,
    mut bytes: Vec<u8>,
    record_offsets: &[u64],
) -> Result<String, PersistError> {
    let records = record_offsets.len() - 1;
    let mut len = 0;
    for pair in record_offsets.windows(2) {
        let payload = pair[0] as usize + FRAME_HEADER_LEN..pair[1] as usize;
        let n = payload.len();
        bytes.copy_within(payload, len);
        len += n;
    }
    bytes.truncate(len);
    let bytes = match String::from_utf8(bytes) {
        Ok(text) => {
            if (0..records).all(|i| text.is_char_boundary(payload_range(record_offsets, i).start)) {
                return Ok(text);
            }
            text.into_bytes()
        }
        Err(e) => e.into_bytes(),
    };
    let bad = (0..records)
        .find(|&i| std::str::from_utf8(&bytes[payload_range(record_offsets, i)]).is_err())
        .unwrap_or(0);
    Err(PersistError::Corrupt(format!(
        "{} record at offset {} is not valid UTF-8",
        kind.record_name, record_offsets[bad]
    )))
}

/// Reads the log and, if it ends in a torn frame, truncates the file back
/// to its clean prefix. Returns the (now guaranteed clean) contents.
pub fn recover_log<P: AsRef<Path>>(kind: LogKind, path: P) -> Result<LogContents, PersistError> {
    let mut contents = read_log(kind, &path)?;
    if contents.torn {
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(contents.clean_len())?;
        contents.torn = false;
        contents.tail_truncated = true;
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

    fn payloads(contents: &LogContents) -> Vec<&str> {
        contents.payloads().collect()
    }

    #[test]
    fn append_then_read_round_trips_payloads() {
        let path = tmp("roundtrip.log");
        let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
        log.append_payload(b"one").expect("append");
        log.append_payload(b"two").expect("append");
        assert_eq!(log.records(), 2);
        let contents = read_log(TEST_KIND, &path).expect("read");
        assert_eq!(payloads(&contents), vec!["one", "two"]);
        assert!(!contents.torn());
    }

    #[test]
    fn resume_keeps_exactly_the_prefix() {
        let path = tmp("truncate.log");
        let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
        for i in 0..5 {
            log.append_payload(format!("r{i}").as_bytes())
                .expect("append");
        }
        drop(log);
        let contents = read_log(TEST_KIND, &path).expect("read");
        let mut log = RecordLog::resume(&contents, 3).expect("open");
        assert_eq!(log.records(), 3);
        log.append_payload(b"r3'").expect("append");
        let contents = read_log(TEST_KIND, &path).expect("read");
        assert_eq!(payloads(&contents), vec!["r0", "r1", "r2", "r3'"]);
    }

    #[test]
    fn keeping_more_than_exists_is_corrupt() {
        let path = tmp("overkeep.log");
        let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
        log.append_payload(b"only").expect("append");
        drop(log);
        let contents = read_log(TEST_KIND, &path).expect("read");
        match RecordLog::resume(&contents, 2) {
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
        // Every batch size up to two full checksum groups and a tail,
        // then a long batch; payload lengths differ within each group.
        for size in (1..=9).chain([17]) {
            let payloads: Vec<String> = (0..size)
                .map(|i| format!("record-{i}{}", "x".repeat(i * 7 % 23)))
                .collect();
            let mut a = RecordLog::create(TEST_KIND, &batched).expect("create");
            assert_eq!(a.append_batch(payloads.iter()).expect("batch"), size as u64);
            assert_eq!(a.records(), size as u64);
            let mut b = RecordLog::create(TEST_KIND, &sequential).expect("create");
            for p in &payloads {
                b.append_payload(p.as_bytes()).expect("append");
            }
            drop((a, b));
            assert_eq!(
                std::fs::read(&batched).expect("read a"),
                std::fs::read(&sequential).expect("read b"),
                "group commit must not change the on-disk bytes (batch of {size})"
            );
        }
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
            assert_eq!(payloads(&contents), vec!["a", "b", "c"], "policy {name}");
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
        let cut = contents.record_offsets()[2] + 5;
        let mut torn_bytes = clean.clone();
        torn_bytes.truncate(cut as usize);
        std::fs::write(&path, &torn_bytes).expect("write torn");
        let recovered = recover_log(TEST_KIND, &path).expect("recover");
        assert_eq!(payloads(&recovered), vec!["first", "second"]);
        assert!(!recovered.torn());
        assert!(recovered.tail_truncated());
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
        assert!(read_log(TEST_KIND, &path).expect("read").torn());
        let contents = recover_log(TEST_KIND, &path).expect("recover");
        assert!(!contents.torn());
        assert_eq!(std::fs::read(&path).expect("reread"), clean);
    }

    /// Nine frames of unequal lengths: two full checksum groups and a
    /// group of one, so every lane position is covered.
    fn nine_frame_log(name: &str) -> (std::path::PathBuf, Vec<u8>, Vec<u64>) {
        let path = tmp(name);
        let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
        let records: Vec<String> = (0..9)
            .map(|i| format!("frame-{i}:{}", "y".repeat(i * 11 % 31)))
            .collect();
        log.append_batch(records.iter()).expect("batch");
        drop(log);
        let bytes = std::fs::read(&path).expect("read bytes");
        let contents = read_log(TEST_KIND, &path).expect("read");
        assert_eq!(payloads(&contents), records);
        (path, bytes, contents.record_offsets().to_vec())
    }

    #[test]
    fn grouped_checksums_report_the_first_bad_frame_in_file_order() {
        let (path, clean, offsets) = nine_frame_log("nine-corrupt.log");
        for k in 0..9 {
            let mut bytes = clean.clone();
            // The payload's first byte: past the frame's length and checksum.
            bytes[offsets[k] as usize + FRAME_HEADER_LEN] ^= 0x20;
            // A later bad frame in the same or a later group must not
            // mask frame k.
            if k < 8 {
                let last = offsets[9] as usize - 1;
                bytes[last] ^= 0x20;
            }
            std::fs::write(&path, &bytes).expect("write corrupt");
            match read_log(TEST_KIND, &path) {
                Err(PersistError::ChecksumMismatch { offset, .. }) => {
                    assert_eq!(offset, offsets[k], "corrupt frame {k}");
                }
                other => panic!("frame {k}: expected ChecksumMismatch, got {other:?}"),
            }
            assert!(
                matches!(
                    recover_log(TEST_KIND, &path),
                    Err(PersistError::ChecksumMismatch { .. })
                ),
                "frame {k}: recovery truncated bit rot"
            );
        }
    }

    #[test]
    fn a_torn_frame_inside_a_checksum_group_still_reads_as_torn() {
        let (path, clean, offsets) = nine_frame_log("nine-torn.log");
        for k in 0..9 {
            for cut in [offsets[k] + 1, offsets[k] + 12, offsets[k + 1] - 1] {
                std::fs::write(&path, &clean[..cut as usize]).expect("write torn");
                let contents = read_log(TEST_KIND, &path).expect("torn is not an error");
                assert!(contents.torn(), "cut {cut} in frame {k}");
                assert_eq!(contents.len(), k, "cut {cut} in frame {k}");
                assert_eq!(contents.clean_len(), offsets[k]);
                assert_eq!(contents.record_offsets(), &offsets[..=k]);
            }
        }
    }

    #[test]
    fn a_non_utf8_payload_is_corrupt_in_file_order_with_checksums() {
        let path = tmp("utf8.log");
        let write = |frames: &[&[u8]]| {
            let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
            log.append_batch(frames).expect("batch");
        };
        let utf8_error = |offset: u64| format!("WAL record at offset {offset} is not valid UTF-8");

        // "é" split across two frames: the concatenated text is valid
        // UTF-8, but neither frame is on its own.
        write(&[b"ok", b"caf\xc3", b"\xa9", b"ok"]);
        let offsets = {
            let bytes = std::fs::read(&path).expect("read");
            let mut ends = vec![HEADER_LEN as u64];
            assert!(!decode_frames(&bytes, HEADER_LEN, &mut ends).expect("checksums hold"));
            ends
        };
        match read_log(TEST_KIND, &path) {
            Err(PersistError::Corrupt(msg)) => assert_eq!(msg, utf8_error(offsets[1])),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // A bad UTF-8 frame ahead of a bad checksum is the error; a bad
        // checksum ahead of a bad UTF-8 frame is.
        write(&[b"ok", b"\xff", b"ok", b"ok", b"ok"]);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        std::fs::write(&path, &bytes).expect("write");
        match read_log(TEST_KIND, &path) {
            Err(PersistError::Corrupt(msg)) => assert_eq!(msg, utf8_error(offsets[1])),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        write(&[b"ok", b"ok", b"ok", b"ok", b"\xff"]);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[offsets[1] as usize + FRAME_HEADER_LEN] ^= 0x20;
        std::fs::write(&path, &bytes).expect("write");
        match read_log(TEST_KIND, &path) {
            Err(PersistError::ChecksumMismatch { offset, .. }) => assert_eq!(offset, offsets[1]),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }
}
