//! Generic framed record logs: the storage layer under the
//! `elasticflow-serve` gateway's submission log.
//!
//! A log is an 8-byte magic+version header followed by length-prefixed,
//! FNV-1a-64-checksummed frames, with crash semantics to match: a torn
//! final frame is recoverable by truncation, a checksum mismatch is bit
//! rot and surfaces as a typed error. This module owns that shape once,
//! parameterized by a [`LogKind`] naming the magic bytes and the word
//! used in error messages; callers (de)serialize their own payloads.
//!
//! Recovery ([`RecordLog::recover`]) streams: it reads the file in
//! fixed-size chunks and hands each verified payload to the caller as
//! it goes, so restarting costs a constant amount of memory however
//! long the log has grown.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::error::PersistError;
use crate::frame::{
    check_header, decode_frames, encode_frame, encode_frames, encode_header, CHECKSUM_LANES,
    FRAME_HEADER_LEN, HEADER_LEN,
};

/// Bytes a recovery scan reads at a time. Only a frame larger than this
/// grows the read buffer, to fit that frame.
const SCAN_CHUNK: usize = 1 << 20;

/// Identity of one record-log file format: its magic bytes plus the
/// name used in error messages.
#[derive(Debug, Clone, Copy)]
pub struct LogKind {
    /// The 4 ASCII magic bytes opening the file.
    pub magic: &'static [u8; 4],
    /// The magic rendered as ASCII, for [`PersistError::BadMagic`].
    pub magic_name: &'static str,
    /// Short name used in per-record messages (e.g. `"WAL"`).
    pub record_name: &'static str,
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

    /// Recovers the log at `path` in one streaming pass and reopens it
    /// for appending after its last intact record.
    ///
    /// The file is read 1 MiB at a time. Every intact record is
    /// checksum-verified ([`CHECKSUM_LANES`] frames at a time), checked
    /// as UTF-8 and handed to `visit` as `(index, payload)` in file
    /// order; nothing is kept per record. The first bad record in
    /// file order is the error: a [`PersistError::ChecksumMismatch`] at
    /// its file offset, a [`PersistError::Corrupt`] for a payload that is
    /// not UTF-8, or the error `visit` returned for it. A torn final
    /// frame ends the scan and is truncated away. On any error the file
    /// is left as it was.
    pub fn recover<P: AsRef<Path>>(
        kind: LogKind,
        path: P,
        mut visit: impl FnMut(u64, &str) -> Result<(), PersistError>,
    ) -> Result<(Self, LogScan), PersistError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let (scan, clean_end) = scan_log(kind, &mut file, len, SCAN_CHUNK, &mut visit)?;
        if clean_end < len {
            file.set_len(clean_end)?;
        }
        file.seek(SeekFrom::Start(clean_end))?;
        let log = RecordLog {
            file,
            records: scan.records,
            policy: FsyncPolicy::default(),
            frame_buf: Vec::new(),
            unsynced: 0,
        };
        Ok((log, scan))
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
    /// exactly the failure [`RecordLog::recover`] repairs — because frames are
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

    /// Records in the log, the recovered ones included.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// What [`RecordLog::recover`] found in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogScan {
    /// Intact records in the file, every one handed to the visitor.
    pub records: u64,
    /// `true` when the file ended in a torn frame (a crash mid-append),
    /// which recovery truncated away.
    pub tail_truncated: bool,
}

/// The streaming scan behind [`RecordLog::recover`]: reads `source`, a
/// log of `len` bytes, `chunk` bytes at a time, and returns what it
/// found with the offset just past the last intact record.
///
/// The read buffer holds one chunk. A frame cut off at its end is
/// carried to the front and completed by the next read; a frame larger
/// than the buffer grows it to fit. The checksums of the frames in the
/// buffer are verified before any of them is visited, so the frames
/// visited before a mismatch are exactly those ahead of it.
fn scan_log(
    kind: LogKind,
    source: &mut impl Read,
    len: u64,
    chunk: usize,
    visit: &mut dyn FnMut(u64, &str) -> Result<(), PersistError>,
) -> Result<(LogScan, u64), PersistError> {
    let mut header = [0; HEADER_LEN];
    let header_len = fill(source, &mut header)?;
    check_header(&header[..header_len], kind.magic, kind.magic_name)?;
    let mut buf = vec![0; chunk.max(1)];
    let mut ends = Vec::new();
    // File offset of `buf[0]`, and how much of `buf` holds file bytes.
    let mut base = HEADER_LEN as u64;
    let mut filled = 0;
    let mut records = 0;
    let (torn, clean_end) = loop {
        filled += fill(source, &mut buf[filled..])?;
        let at_end = filled < buf.len();
        ends.clear();
        let decoded = decode_frames(&buf[..filled], 0, &mut ends);
        let mut start = 0;
        for &end in &ends {
            let end = end as usize;
            let Ok(payload) = std::str::from_utf8(&buf[start + FRAME_HEADER_LEN..end]) else {
                return Err(PersistError::Corrupt(format!(
                    "{} record at offset {} is not valid UTF-8",
                    kind.record_name,
                    base + start as u64
                )));
            };
            visit(records, payload)?;
            records += 1;
            start = end;
        }
        let torn = decoded.map_err(|e| at_file_offset(e, base))?;
        if at_end {
            break (torn, base + start as u64);
        }
        // Carry the unfinished frame, if any, to the front.
        buf.copy_within(start..filled, 0);
        base += start as u64;
        filled -= start;
        let need = match buf[..filled].get(..FRAME_HEADER_LEN) {
            Some(h) => FRAME_HEADER_LEN + u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize,
            None => FRAME_HEADER_LEN,
        };
        // A frame that runs past the end of the file is the torn tail,
        // whatever its length field claims: no buffer is grown for it.
        if filled > 0 && base + need as u64 > len {
            break (true, base);
        }
        if need > buf.len() {
            buf.resize(need, 0);
        }
    };
    let scan = LogScan {
        records,
        tail_truncated: torn,
    };
    Ok((scan, clean_end))
}

/// Reads into `buf` until it is full or `source` ends (retrying
/// interrupted reads); returns the bytes read. Fewer than `buf.len()`
/// means `source` is exhausted.
pub fn fill(source: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match source.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Moves a checksum mismatch found in a buffer starting at file offset
/// `base` to its file offset.
fn at_file_offset(mut e: PersistError, base: u64) -> PersistError {
    if let PersistError::ChecksumMismatch { offset, .. } = &mut e {
        *offset += base;
    }
    e
}

/// The whole-file decoder the streaming scan replaced, kept as the
/// oracle of its differential tests: one buffer, one
/// [`decode_frames`] pass, and the frames verified before a mismatch
/// checked as UTF-8 and visited ahead of it.
#[cfg(test)]
mod reference {
    use super::*;

    /// Every intact record's frame offset plus the clean end, and
    /// whether a torn frame follows them.
    pub(super) fn read_log(
        kind: LogKind,
        bytes: &[u8],
        visit: &mut dyn FnMut(u64, &str) -> Result<(), PersistError>,
    ) -> Result<(Vec<u64>, bool), PersistError> {
        check_header(bytes, kind.magic, kind.magic_name)?;
        let mut offsets = vec![HEADER_LEN as u64];
        let scanned = decode_frames(bytes, HEADER_LEN, &mut offsets);
        for (i, pair) in offsets.windows(2).enumerate() {
            let payload = &bytes[pair[0] as usize + FRAME_HEADER_LEN..pair[1] as usize];
            let Ok(payload) = std::str::from_utf8(payload) else {
                return Err(PersistError::Corrupt(format!(
                    "{} record at offset {} is not valid UTF-8",
                    kind.record_name, pair[0]
                )));
            };
            visit(i as u64, payload)?;
        }
        Ok((offsets, scanned?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TEST_KIND: LogKind = LogKind {
        magic: b"TEST",
        magic_name: "TEST",
        record_name: "WAL",
    };

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ef-records-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    /// What a scan of `bytes` in `chunk`-byte reads found: the visited
    /// payloads, the scan and the clean end.
    type Scan = Result<(Vec<String>, LogScan, u64), PersistError>;

    fn scan_bytes(bytes: &[u8], chunk: usize) -> Scan {
        let mut payloads = Vec::new();
        let mut visit = |i: u64, payload: &str| {
            assert_eq!(i, payloads.len() as u64, "records are visited in order");
            payloads.push(payload.to_owned());
            Ok(())
        };
        let mut source = bytes;
        let (scan, clean_end) = scan_log(
            TEST_KIND,
            &mut source,
            bytes.len() as u64,
            chunk,
            &mut visit,
        )?;
        Ok((payloads, scan, clean_end))
    }

    /// The reference decoder's answer for [`scan_bytes`].
    fn reference_scan(bytes: &[u8]) -> Scan {
        let mut payloads = Vec::new();
        let mut visit = |_: u64, payload: &str| {
            payloads.push(payload.to_owned());
            Ok(())
        };
        let (offsets, torn) = reference::read_log(TEST_KIND, bytes, &mut visit)?;
        let clean_end = *offsets.last().expect("starts at the header");
        let scan = LogScan {
            records: payloads.len() as u64,
            tail_truncated: torn,
        };
        Ok((payloads, scan, clean_end))
    }

    /// Frame offsets of a clean log of `payloads`, plus its end.
    fn frame_offsets<S: AsRef<[u8]>>(payloads: &[S]) -> Vec<u64> {
        let mut offsets = vec![HEADER_LEN as u64];
        for p in payloads {
            let last = *offsets.last().expect("starts at the header");
            offsets.push(last + (FRAME_HEADER_LEN + p.as_ref().len()) as u64);
        }
        offsets
    }

    fn log_bytes<S: AsRef<[u8]>>(payloads: &[S]) -> Vec<u8> {
        let mut bytes = encode_header(TEST_KIND.magic, crate::frame::PERSIST_VERSION).to_vec();
        for p in payloads {
            encode_frame(&mut bytes, p.as_ref());
        }
        bytes
    }

    /// Results compare by their rendering: `PersistError` holds I/O and
    /// serde errors and has no `PartialEq`.
    fn same(a: &Scan, b: &Scan) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    /// Chunk sizes from a few bytes to past the whole file.
    const CHUNKS: [usize; 9] = [1, 2, 3, 5, 12, 13, 31, 64, SCAN_CHUNK];

    /// Recovers the file at `path`; returns the payloads with the scan.
    fn recover_all(path: &Path) -> Result<(Vec<String>, LogScan), PersistError> {
        let mut payloads = Vec::new();
        let (_, scan) = RecordLog::recover(TEST_KIND, path, |_, p| {
            payloads.push(p.to_owned());
            Ok(())
        })?;
        Ok((payloads, scan))
    }

    #[derive(Debug, Clone)]
    enum Damage {
        None,
        /// Cut the file to this share of its length, in thousandths.
        Cut(u16),
        /// Flip a bit of the byte at this share of the length.
        Flip(u16, u8),
    }

    fn payload() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            8 => prop::collection::vec(
                prop::sample::select(vec!["a", "{", "\"", "é", "€", "𝄞", "\n"]),
                0..40,
            )
            .prop_map(|parts| parts.concat().into_bytes()),
            1 => prop::collection::vec(any::<u8>(), 0..8),
            1 => prop::collection::vec(b'x'..b'{', 60..200),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The streaming scan at any chunk size, down to one byte,
        /// returns the reference decoder's answer: the same payloads,
        /// torn flag, clean end and first error — frames straddling
        /// chunk edges, frames larger than a chunk, torn tails, bit rot
        /// and non-UTF-8 payloads included.
        #[test]
        fn the_streaming_scan_matches_the_whole_file_decoder(
            payloads in prop::collection::vec(payload(), 0..12),
            damage in prop_oneof![
                Just(Damage::None),
                (0..1000u16).prop_map(Damage::Cut),
                ((0..1000u16), (0..8u8)).prop_map(|(at, bit)| Damage::Flip(at, bit)),
            ],
            chunk in prop_oneof![1..16usize, 16..256usize, Just(SCAN_CHUNK)],
        ) {
            let mut bytes = log_bytes(&payloads);
            match damage {
                Damage::None => {}
                Damage::Cut(at) => bytes.truncate(bytes.len() * usize::from(at) / 1000),
                Damage::Flip(at, bit) => {
                    let i = bytes.len() * usize::from(at) / 1000;
                    bytes[i] ^= 1 << bit;
                }
            }
            let streamed = scan_bytes(&bytes, chunk);
            let reference = reference_scan(&bytes);
            prop_assert!(same(&streamed, &reference), "{streamed:?} != {reference:?}");
        }
    }

    #[test]
    fn frames_straddling_every_chunk_edge_match_the_reference() {
        let payloads: Vec<String> = (0..9)
            .map(|i| format!("frame-{i}:{}", "y".repeat(i * 11 % 31)))
            .collect();
        let bytes = log_bytes(&payloads);
        for chunk in 1..=bytes.len() + 1 {
            let (got, scan, end) = scan_bytes(&bytes, chunk).expect("clean log");
            assert_eq!(got, payloads, "chunk {chunk}");
            assert!(!scan.tail_truncated, "chunk {chunk}");
            assert_eq!(end, bytes.len() as u64, "chunk {chunk}");
        }
    }

    #[test]
    fn a_frame_larger_than_the_chunk_grows_the_buffer() {
        let payloads = ["short".to_owned(), "L".repeat(5_000), "tail".to_owned()];
        let bytes = log_bytes(&payloads);
        for chunk in [1, 7, 64, 4_096] {
            let (got, scan, _) = scan_bytes(&bytes, chunk).expect("clean log");
            assert_eq!(got, payloads, "chunk {chunk}");
            assert_eq!(scan.records, 3);
        }
        // A torn tail whose length field claims more than the file holds
        // ends the scan without growing the buffer to the claim.
        let mut torn = log_bytes(&payloads[..1]);
        torn.extend_from_slice(&u32::MAX.to_le_bytes());
        torn.extend_from_slice(&[0; 9]);
        let (got, scan, end) = scan_bytes(&torn, 4).expect("torn is not an error");
        assert_eq!(got, ["short"]);
        assert!(scan.tail_truncated);
        assert_eq!(end, frame_offsets(&payloads[..1])[1]);
    }

    #[test]
    fn a_torn_tail_cut_at_every_byte_of_the_last_frame_keeps_the_prefix() {
        let payloads = ["first", "second", "third-and-last-é"];
        let bytes = log_bytes(&payloads);
        let offsets = frame_offsets(&payloads);
        let path = tmp("torn-every-byte.log");
        // From the clean end of the second frame to one byte short of
        // the third's end: only a cut inside the frame is torn.
        for cut in offsets[2]..offsets[3] {
            let torn = cut > offsets[2];
            for chunk in CHUNKS {
                let (got, scan, end) =
                    scan_bytes(&bytes[..cut as usize], chunk).expect("torn is not an error");
                assert_eq!(got, payloads[..2], "cut {cut}, chunk {chunk}");
                assert_eq!(scan.tail_truncated, torn, "cut {cut}, chunk {chunk}");
                assert_eq!(end, offsets[2], "cut {cut}, chunk {chunk}");
            }
            // On disk, recovery cuts the file back to the clean prefix,
            // so a second recovery finds no torn tail and the same records.
            std::fs::write(&path, &bytes[..cut as usize]).expect("write cut");
            let (got, scan) = recover_all(&path).expect("torn is not an error");
            assert_eq!(got, payloads[..2], "cut {cut}");
            assert_eq!(scan.tail_truncated, torn, "cut {cut}");
            assert_eq!(std::fs::metadata(&path).expect("meta").len(), offsets[2]);
            let (reread, rescan) = recover_all(&path).expect("recover again");
            assert_eq!(reread, payloads[..2], "cut {cut}");
            assert!(!rescan.tail_truncated, "cut {cut}: file not truncated");
        }
    }

    #[test]
    fn a_flipped_byte_is_reported_at_its_file_offset() {
        let payloads: Vec<String> = (0..40).map(|i| format!("record-{i:03}")).collect();
        let clean = log_bytes(&payloads);
        let offsets = frame_offsets(&payloads);
        for k in [0, 1, 17, 39] {
            let mut bytes = clean.clone();
            bytes[offsets[k] as usize + FRAME_HEADER_LEN + 2] ^= 0x04;
            for chunk in CHUNKS {
                match scan_bytes(&bytes, chunk) {
                    Err(PersistError::ChecksumMismatch { offset, .. }) => {
                        assert_eq!(offset, offsets[k], "frame {k}, chunk {chunk}");
                    }
                    other => panic!("frame {k}, chunk {chunk}: got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_non_utf8_payload_ahead_of_a_bad_checksum_wins_at_every_chunk_size() {
        let frames: [&[u8]; 6] = [b"ok", b"\xff", b"ok", b"ok", b"ok", b"later"];
        let offsets = frame_offsets(&frames);
        let mut bytes = log_bytes(&frames);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        for chunk in CHUNKS {
            match scan_bytes(&bytes, chunk) {
                Err(PersistError::Corrupt(msg)) => assert_eq!(
                    msg,
                    format!("WAL record at offset {} is not valid UTF-8", offsets[1]),
                    "chunk {chunk}"
                ),
                other => panic!("chunk {chunk}: got {other:?}"),
            }
        }
    }

    #[test]
    fn a_rejected_record_stops_the_scan_and_leaves_the_file_alone() {
        let path = tmp("rejected.log");
        let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
        log.append_batch(["a", "b", "c"]).expect("batch");
        drop(log);
        let mut torn = std::fs::read(&path).expect("read");
        torn.extend_from_slice(&[5, 0, 0]);
        std::fs::write(&path, &torn).expect("write torn");
        let mut seen = Vec::new();
        let err = RecordLog::recover(TEST_KIND, &path, |i, p| {
            seen.push(p.to_owned());
            if i == 1 {
                Err(PersistError::Corrupt(format!("rejected {p}")))
            } else {
                Ok(())
            }
        })
        .expect_err("the visitor's error is the scan's");
        assert!(
            matches!(err, PersistError::Corrupt(ref m) if m == "rejected b"),
            "{err:?}"
        );
        assert_eq!(seen, ["a", "b"]);
        assert_eq!(std::fs::read(&path).expect("reread"), torn);
    }

    #[test]
    fn append_then_recover_round_trips_payloads() {
        let path = tmp("roundtrip.log");
        let mut log = RecordLog::create(TEST_KIND, &path).expect("create");
        log.append_payload(b"one").expect("append");
        log.append_payload(b"two").expect("append");
        assert_eq!(log.records(), 2);
        let (payloads, scan) = recover_all(&path).expect("recover");
        assert_eq!(payloads, vec!["one", "two"]);
        assert!(!scan.tail_truncated);
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
            let (payloads, _) = recover_all(&path).expect("recover");
            assert_eq!(payloads, vec!["a", "b", "c"], "policy {name}");
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
        // Cut the file mid-way through the last record of the batch: the
        // crash point a power failure during the single group-commit
        // write would leave.
        let cut = frame_offsets(&["first", "second"])[2] + 5;
        let mut torn_bytes = clean.clone();
        torn_bytes.truncate(cut as usize);
        std::fs::write(&path, &torn_bytes).expect("write torn");
        let (payloads, scan) = recover_all(&path).expect("recover");
        assert_eq!(payloads, vec!["first", "second"]);
        assert!(scan.tail_truncated);
        let (_, rescan) = recover_all(&path).expect("recover again");
        assert!(
            !rescan.tail_truncated,
            "the torn tail is gone from the file"
        );
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
        let (_, scan, _) = scan_bytes(&torn_bytes, SCAN_CHUNK).expect("scan");
        assert!(scan.tail_truncated, "the bytes end in a torn frame");
        let (_, scan) = recover_all(&path).expect("recover");
        assert!(scan.tail_truncated);
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
        let (payloads, _) = recover_all(&path).expect("recover");
        assert_eq!(payloads, records);
        (path, bytes, frame_offsets(&records))
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
            for chunk in CHUNKS {
                match scan_bytes(&bytes, chunk) {
                    Err(PersistError::ChecksumMismatch { offset, .. }) => {
                        assert_eq!(offset, offsets[k], "corrupt frame {k}, chunk {chunk}");
                    }
                    other => panic!("frame {k}: expected ChecksumMismatch, got {other:?}"),
                }
            }
            std::fs::write(&path, &bytes).expect("write corrupt");
            assert!(
                matches!(
                    recover_all(&path),
                    Err(PersistError::ChecksumMismatch { .. })
                ),
                "frame {k}: recovery truncated bit rot"
            );
            assert_eq!(std::fs::read(&path).expect("reread"), bytes);
        }
    }

    #[test]
    fn a_torn_frame_inside_a_checksum_group_still_reads_as_torn() {
        let (_, clean, offsets) = nine_frame_log("nine-torn.log");
        for k in 0..9 {
            for cut in [offsets[k] + 1, offsets[k] + 12, offsets[k + 1] - 1] {
                for chunk in CHUNKS {
                    let (payloads, scan, end) =
                        scan_bytes(&clean[..cut as usize], chunk).expect("torn is not an error");
                    assert!(scan.tail_truncated, "cut {cut} in frame {k}");
                    assert_eq!(scan.records, k as u64, "cut {cut} in frame {k}");
                    assert_eq!(end, offsets[k]);
                    assert_eq!(frame_offsets(&payloads), &offsets[..=k]);
                }
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
        match recover_all(&path) {
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
        match recover_all(&path) {
            Err(PersistError::Corrupt(msg)) => assert_eq!(msg, utf8_error(offsets[1])),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        write(&[b"ok", b"ok", b"ok", b"ok", b"\xff"]);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[offsets[1] as usize + FRAME_HEADER_LEN] ^= 0x20;
        std::fs::write(&path, &bytes).expect("write");
        match recover_all(&path) {
            Err(PersistError::ChecksumMismatch { offset, .. }) => assert_eq!(offset, offsets[1]),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }
}
