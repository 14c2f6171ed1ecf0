//! The append-only write-ahead event log.
//!
//! Every typed simulation event is appended as one framed
//! [`TraceRecord`] (JSON payload, length-prefixed, FNV-1a-64
//! checksummed) behind an `EFWL` + version header. The WAL is an audit
//! trail with crash-grade durability semantics:
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
//!
//! Framing and file handling live in [`crate::records`]; this module
//! binds that generic log to the `EFWL` magic and the [`TraceRecord`]
//! payload type.

use std::path::Path;

use elasticflow_sim::TraceRecord;

use crate::error::PersistError;
use crate::records::{self, LogKind, RecordLog};

/// The [`LogKind`] of the simulator WAL.
pub const WAL_KIND: LogKind = LogKind {
    magic: b"EFWL",
    magic_name: "EFWL",
    record_name: "WAL",
    long_name: "write-ahead log",
};

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub struct WalWriter {
    log: RecordLog,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path` and writes a fresh header.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, PersistError> {
        Ok(WalWriter {
            log: RecordLog::create(WAL_KIND, path)?,
        })
    }

    /// Opens an existing log, truncates it to its first `keep` records,
    /// and positions for appending record `keep`.
    ///
    /// The log is fully validated up to the kept prefix; fewer than `keep`
    /// intact records on disk is [`PersistError::Corrupt`] (the snapshot
    /// being resumed from promises they exist).
    pub fn open_truncated<P: AsRef<Path>>(path: P, keep: u64) -> Result<Self, PersistError> {
        Ok(WalWriter {
            log: RecordLog::open_truncated(WAL_KIND, path, keep)?,
        })
    }

    /// Appends one record and flushes it to the OS.
    pub fn append(&mut self, record: &TraceRecord) -> Result<(), PersistError> {
        let payload = serde_json::to_string(record)?;
        self.log.append_payload(payload.as_bytes())
    }

    /// Records appended so far (including any kept prefix).
    pub fn records(&self) -> u64 {
        self.log.records()
    }
}

/// The decoded contents of a write-ahead log.
#[derive(Debug)]
pub struct WalContents {
    /// Every intact record, in append order.
    pub records: Vec<TraceRecord>,
    /// Byte offset where record `i` begins; the final entry is the offset
    /// just past the last intact record (`record_offsets.len() ==
    /// records.len() + 1`). Truncating the file to any of these offsets
    /// yields a clean log prefix.
    pub record_offsets: Vec<u64>,
    /// `true` when the log ended in an incomplete frame (crash mid-append).
    pub torn: bool,
}

impl WalContents {
    /// Byte length of the clean prefix (header + intact records).
    pub fn clean_len(&self) -> u64 {
        *self
            .record_offsets
            .last()
            .unwrap_or(&(crate::frame::HEADER_LEN as u64))
    }
}

fn decode_contents(contents: records::LogContents) -> Result<WalContents, PersistError> {
    let mut records = Vec::with_capacity(contents.payloads.len());
    for payload in &contents.payloads {
        records.push(serde_json::from_str::<TraceRecord>(payload)?);
    }
    Ok(WalContents {
        records,
        record_offsets: contents.record_offsets,
        torn: contents.torn,
    })
}

/// Reads and validates a write-ahead log.
///
/// A torn final frame stops the scan and sets [`WalContents::torn`]; a
/// complete frame with a bad checksum or undecodable payload is a typed
/// error.
pub fn read_wal<P: AsRef<Path>>(path: P) -> Result<WalContents, PersistError> {
    decode_contents(records::read_log(WAL_KIND, path)?)
}

/// Reads the log and, if it ends in a torn frame, truncates the file back
/// to its clean prefix. Returns the (now guaranteed clean) contents.
pub fn recover_wal<P: AsRef<Path>>(path: P) -> Result<WalContents, PersistError> {
    decode_contents(records::recover_log(WAL_KIND, path)?)
}
