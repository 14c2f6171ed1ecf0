//! Crash-artifact recovery tests for the write-ahead log.
//!
//! The headline test simulates a crash at *every possible byte offset*
//! inside the final record: for each truncation length, recovery must
//! neither panic nor replay a partial record — it keeps exactly the
//! records written before the torn one and truncates the file back to a
//! clean prefix.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use elasticflow_persist::store::WAL_KIND;
use elasticflow_persist::{LogScan, PersistError, RecordLog};
use elasticflow_sim::{Event, TraceRecord};
use elasticflow_trace::JobId;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn temp_path(name: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "elasticflow-persist-test-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn sample_records(n: usize) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| TraceRecord {
            time: 100.0 * i as f64 + 0.5,
            event: if i % 2 == 0 {
                Event::Arrival {
                    job: JobId::new(i as u64),
                }
            } else {
                Event::Completion {
                    job: JobId::new(i as u64),
                }
            },
        })
        .collect()
}

fn append(log: &mut RecordLog, record: &TraceRecord) {
    let payload = serde_json::to_string(record).expect("record serializes");
    log.append_payload(payload.as_bytes())
        .expect("append record");
}

fn write_log(path: &std::path::Path, records: &[TraceRecord]) {
    let mut log = RecordLog::create(WAL_KIND, path).expect("create WAL");
    for r in records {
        append(&mut log, r);
    }
    assert_eq!(log.records(), records.len() as u64);
}

/// Recovers the log at `path` keeping `keep` records (all when `None`):
/// the intact records decoded as the simulator's, the scan, and the log
/// reopened for appending.
fn recover(
    path: &std::path::Path,
    keep: Option<u64>,
) -> Result<(Vec<TraceRecord>, LogScan, RecordLog), PersistError> {
    let mut records = Vec::new();
    let (log, scan) = RecordLog::recover(WAL_KIND, path, keep, |_, payload| {
        records.push(serde_json::from_str(payload)?);
        Ok(())
    })?;
    Ok((records, scan, log))
}

/// Byte offset where frame `i` of a log of `records` begins (the header,
/// then each earlier frame's 12-byte header and payload).
fn frame_start(records: &[TraceRecord], i: usize) -> u64 {
    8 + records[..i]
        .iter()
        .map(|r| 12 + serde_json::to_string(r).expect("serializes").len() as u64)
        .sum::<u64>()
}

#[test]
fn truncation_at_every_byte_of_the_final_record_recovers_cleanly() {
    let path = temp_path("events.wal");
    let records = sample_records(4);
    write_log(&path, &records);
    let full = std::fs::read(&path).unwrap();

    let (decoded, scan, _) = recover(&path, None).unwrap();
    assert!(!scan.tail_truncated);
    assert_eq!(decoded, records);
    // Byte offset where the final record's frame begins.
    let last_start = frame_start(&records, records.len() - 1);

    for cut in last_start as usize..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let (recovered, scan, _) = recover(&path, None).unwrap_or_else(|e| {
            panic!("cut at byte {cut}: recovery errored instead of truncating: {e}")
        });
        assert_eq!(
            scan.tail_truncated,
            cut as u64 > last_start,
            "cut at byte {cut}: torn tail not reported"
        );
        assert_eq!(
            recovered,
            records[..records.len() - 1],
            "cut at byte {cut}: wrong records survived"
        );
        // The file itself was truncated back to a clean prefix: recovering
        // again finds no torn tail and the same records.
        let (reread, rescan, _) = recover(&path, None).unwrap();
        assert!(
            !rescan.tail_truncated,
            "cut at byte {cut}: file not truncated"
        );
        assert_eq!(reread, records[..records.len() - 1]);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            last_start,
            "cut at byte {cut}: file length does not match the clean prefix"
        );
    }
}

#[test]
fn corrupted_checksum_is_a_typed_error_not_a_panic() {
    let path = temp_path("events.wal");
    let records = sample_records(3);
    write_log(&path, &records);
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one byte in the middle record's payload (past header + frame 0).
    let mid_start = frame_start(&records, 1);
    bytes[mid_start as usize + 14] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    match recover(&path, None) {
        Err(PersistError::ChecksumMismatch { offset, .. }) => {
            assert_eq!(offset, mid_start);
        }
        other => panic!("expected ChecksumMismatch, got {:?}", other.map(|r| r.1)),
    }
    // Recovery must not silently truncate bit rot either.
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
}

#[test]
fn wrong_magic_and_unknown_version_are_typed_errors() {
    let path = temp_path("events.wal");
    write_log(&path, &sample_records(1));
    let mut bytes = std::fs::read(&path).unwrap();

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    std::fs::write(&path, &wrong_magic).unwrap();
    assert!(matches!(
        recover(&path, None),
        Err(PersistError::BadMagic { expected: "EFWL" })
    ));

    bytes[4] = 0xff; // version little-endian low byte -> 255
    std::fs::write(&path, &bytes).unwrap();
    match recover(&path, None) {
        Err(PersistError::UnknownVersion { found, supported }) => {
            assert_eq!(found, 255);
            assert_eq!(supported, elasticflow_persist::PERSIST_VERSION);
        }
        other => panic!("expected UnknownVersion, got {:?}", other.map(|r| r.1)),
    }
}

#[test]
fn resume_rolls_the_log_back_and_appends_from_there() {
    let path = temp_path("events.wal");
    let records = sample_records(5);
    write_log(&path, &records);

    // Roll back to 2 records, append a different tail.
    let (_, _, mut log) = recover(&path, Some(2)).unwrap();
    assert_eq!(log.records(), 2);
    let replacement = TraceRecord {
        time: 999.0,
        event: Event::SlotBoundary,
    };
    append(&mut log, &replacement);
    drop(log);

    let (kept, scan, _) = recover(&path, None).unwrap();
    assert!(!scan.tail_truncated);
    assert_eq!(kept.len(), 3);
    assert_eq!(kept[..2], records[..2]);
    assert_eq!(kept[2], replacement);

    // Asking for more records than exist is a typed error.
    assert!(matches!(
        recover(&path, Some(10)),
        Err(PersistError::Corrupt(_))
    ));
}

#[test]
fn interrupted_then_resumed_log_is_byte_identical_to_uninterrupted() {
    let uninterrupted = temp_path("full.wal");
    let records = sample_records(6);
    write_log(&uninterrupted, &records);

    // Crash after 3 records with a torn half-written 4th.
    let crashed = temp_path("crashed.wal");
    write_log(&crashed, &records[..4]);
    let bytes = std::fs::read(&crashed).unwrap();
    std::fs::write(&crashed, &bytes[..bytes.len() - 5]).unwrap();

    // Recovery truncates the torn tail; the resumed writer re-appends the
    // tail the lost run would have written.
    let (recovered, scan, mut log) = recover(&crashed, Some(3)).unwrap();
    assert_eq!(recovered, records[..3]);
    assert!(scan.tail_truncated);
    for r in &records[3..] {
        append(&mut log, r);
    }
    drop(log);

    assert_eq!(
        std::fs::read(&crashed).unwrap(),
        std::fs::read(&uninterrupted).unwrap(),
        "resumed log differs from the uninterrupted one"
    );
}
