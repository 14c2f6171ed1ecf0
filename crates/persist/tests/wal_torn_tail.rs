//! Crash-artifact recovery tests for the write-ahead log.
//!
//! The headline test simulates a crash at *every possible byte offset*
//! inside the final record: for each truncation length, recovery must
//! neither panic nor replay a partial record — it keeps exactly the
//! records written before the torn one and truncates the file back to a
//! clean prefix.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use elasticflow_persist::records::{read_log, recover_log};
use elasticflow_persist::store::WAL_KIND;
use elasticflow_persist::{LogContents, PersistError, RecordLog};
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

/// The log's intact payloads, decoded as the simulator's records.
fn decoded(contents: &LogContents) -> Vec<TraceRecord> {
    contents
        .payloads()
        .map(|p| serde_json::from_str(p).expect("payload decodes as a TraceRecord"))
        .collect()
}

#[test]
fn truncation_at_every_byte_of_the_final_record_recovers_cleanly() {
    let path = temp_path("events.wal");
    let records = sample_records(4);
    write_log(&path, &records);
    let full = std::fs::read(&path).unwrap();

    // Byte offset where the final record's frame begins.
    let contents = read_log(WAL_KIND, &path).unwrap();
    assert!(!contents.torn());
    assert_eq!(decoded(&contents), records);
    let last_start = contents.record_offsets()[records.len() - 1] as usize;

    for cut in last_start..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let recovered = recover_log(WAL_KIND, &path).unwrap_or_else(|e| {
            panic!("cut at byte {cut}: recovery errored instead of truncating: {e}")
        });
        assert!(
            !recovered.torn(),
            "cut at byte {cut}: still torn after recovery"
        );
        assert_eq!(
            decoded(&recovered),
            records[..records.len() - 1],
            "cut at byte {cut}: wrong records survived"
        );
        // The file itself was truncated back to a clean prefix: re-reading
        // finds no torn tail and the same records.
        let reread = read_log(WAL_KIND, &path).unwrap();
        assert!(!reread.torn(), "cut at byte {cut}: file not truncated");
        assert_eq!(decoded(&reread), records[..records.len() - 1]);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            recovered.clean_len(),
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
    let contents = read_log(WAL_KIND, &path).unwrap();
    let mid = contents.record_offsets()[1] as usize + 14;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    match read_log(WAL_KIND, &path) {
        Err(PersistError::ChecksumMismatch { offset, .. }) => {
            assert_eq!(offset, contents.record_offsets()[1]);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    // Recovery must not silently truncate bit rot either.
    assert!(matches!(
        recover_log(WAL_KIND, &path),
        Err(PersistError::ChecksumMismatch { .. })
    ));
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
        read_log(WAL_KIND, &path),
        Err(PersistError::BadMagic { expected: "EFWL" })
    ));

    bytes[4] = 0xff; // version little-endian low byte -> 255
    std::fs::write(&path, &bytes).unwrap();
    match read_log(WAL_KIND, &path) {
        Err(PersistError::UnknownVersion { found, supported }) => {
            assert_eq!(found, 255);
            assert_eq!(supported, elasticflow_persist::PERSIST_VERSION);
        }
        other => panic!("expected UnknownVersion, got {other:?}"),
    }
}

#[test]
fn resume_rolls_the_log_back_and_appends_from_there() {
    let path = temp_path("events.wal");
    let records = sample_records(5);
    write_log(&path, &records);

    // Roll back to 2 records, append a different tail.
    let mut log = RecordLog::resume(&read_log(WAL_KIND, &path).unwrap(), 2).unwrap();
    assert_eq!(log.records(), 2);
    let replacement = TraceRecord {
        time: 999.0,
        event: Event::SlotBoundary,
    };
    append(&mut log, &replacement);
    drop(log);

    let contents = read_log(WAL_KIND, &path).unwrap();
    assert!(!contents.torn());
    let kept = decoded(&contents);
    assert_eq!(kept.len(), 3);
    assert_eq!(kept[..2], records[..2]);
    assert_eq!(kept[2], replacement);

    // Asking for more records than exist is a typed error.
    assert!(matches!(
        RecordLog::resume(&contents, 10),
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
    let recovered = recover_log(WAL_KIND, &crashed).unwrap();
    assert_eq!(decoded(&recovered), records[..3]);
    let mut log = RecordLog::resume(&recovered, 3).unwrap();
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
