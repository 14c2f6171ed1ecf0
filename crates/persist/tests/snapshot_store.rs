//! Snapshot-file format and state-directory recovery tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use elasticflow_cluster::ClusterSpec;
use elasticflow_perfmodel::Interconnect;
use elasticflow_persist::frame;
use elasticflow_persist::store::SNAPSHOT_KIND;
use elasticflow_persist::{
    LatestValid, PersistError, PersistSession, SnapshotPayload, SnapshotStore, StoredSnapshot,
    KEEP_SNAPSHOTS,
};
use elasticflow_sched::EdfScheduler;
use elasticflow_sim::{RunDirective, SimConfig, SimController, SimSnapshot, Simulation};
use elasticflow_trace::{Trace, TraceConfig};
use serde::{Deserialize, Serialize};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "elasticflow-persist-store-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The simulator's snapshot store over a fresh temp directory.
fn store() -> SnapshotStore<StoredSnapshot> {
    SnapshotStore::new(SNAPSHOT_KIND, temp_dir())
}

fn spec() -> ClusterSpec {
    ClusterSpec::with_servers(2, 8)
}

fn trace() -> Trace {
    TraceConfig::testbed_small(11).generate(&Interconnect::from_spec(&spec()))
}

/// Captures one snapshot mid-run via the engine's controller seam.
fn capture_snapshot(at_round: u64) -> SimSnapshot {
    struct Capture {
        at: u64,
        snap: Option<SimSnapshot>,
    }
    impl SimController for Capture {
        fn directive(&mut self, _now: f64, round: u64) -> RunDirective {
            if round == self.at {
                RunDirective::CheckpointThenStop
            } else {
                RunDirective::Continue
            }
        }
        fn on_snapshot(&mut self, snapshot: SimSnapshot) {
            self.snap = Some(snapshot);
        }
    }
    let mut capture = Capture {
        at: at_round,
        snap: None,
    };
    let sim = Simulation::new(spec(), SimConfig::default());
    let _ = sim.run_controlled(&trace(), &mut EdfScheduler::new(), &mut [], &mut capture);
    capture.snap.expect("snapshot captured")
}

fn encode_snapshot(stored: &StoredSnapshot) -> Result<Vec<u8>, PersistError> {
    SNAPSHOT_KIND.encode(stored)
}

fn decode_snapshot(bytes: &[u8]) -> Result<StoredSnapshot, PersistError> {
    SNAPSHOT_KIND.decode(bytes)
}

fn stored(at_round: u64) -> StoredSnapshot {
    StoredSnapshot {
        version: elasticflow_persist::PERSIST_VERSION,
        sim: capture_snapshot(at_round),
    }
}

#[test]
fn snapshot_encoding_is_byte_stable_and_round_trips() {
    let s = stored(4);
    let bytes = encode_snapshot(&s).unwrap();
    let back = decode_snapshot(&bytes).unwrap();
    assert_eq!(s, back);
    // Byte-stable: re-encoding the decoded value yields identical bytes.
    assert_eq!(bytes, encode_snapshot(&back).unwrap());
}

/// FNV-1a-64 of the encoded `stored(4)` snapshot. Pinned so that
/// no change to the snapshot store can move a byte of the `.efsnap`
/// format.
const STORED_SNAPSHOT_DIGEST: u64 = 0x07d3_af40_2283_dd93;

#[test]
fn snapshot_bytes_match_the_pinned_digest() {
    let bytes = encode_snapshot(&stored(4)).unwrap();
    let digest = elasticflow_sim::fnv1a64(&bytes);
    assert_eq!(digest, STORED_SNAPSHOT_DIGEST, "got {digest:#018x}");
}

/// The member snapshots carried while the cluster state still held its
/// topology tree, as [`spec`] (2 servers x 8 GPUs) serialized it: the
/// tree was a pure function of the cluster spec, so it left the format.
const TOPOLOGY_MEMBER: &str = concat!(
    r#""topology":{"levels":["#,
    r#"{"name":"pcie","fanout":4,"bandwidth_bytes_per_sec":32000000000.0},"#,
    r#"{"name":"qpi","fanout":2,"bandwidth_bytes_per_sec":28000000000.0},"#,
    r#"{"name":"ib","fanout":2,"bandwidth_bytes_per_sec":2600000000.0}],"#,
    r#""subtree_gpus":[4,8,16],"server_level":2},"#
);

/// Encodes `payload` in the format that still held the topology tree:
/// today's bytes with [`TOPOLOGY_MEMBER`] spliced back in as the cluster
/// state's first member.
fn encode_with_topology<T: Serialize>(payload: &T) -> Vec<u8> {
    let json = serde_json::to_string(payload).expect("payload serializes");
    let cluster = r#""cluster":{"#;
    assert_eq!(json.matches(cluster).count(), 1, "one cluster state");
    let json = json.replacen(cluster, &format!("{cluster}{TOPOLOGY_MEMBER}"), 1);
    let mut bytes = frame::encode_header(b"EFSN", elasticflow_persist::PERSIST_VERSION).to_vec();
    frame::encode_frame(&mut bytes, json.as_bytes());
    bytes
}

/// FNV-1a-64 of the encoded `stored(4)` snapshot in the format that
/// still held the topology tree: the digest pinned for that format, so
/// [`encode_with_topology`] writes its exact bytes.
const TOPOLOGY_SNAPSHOT_DIGEST: u64 = 0x5c55_87c8_059b_9345;

#[test]
fn a_snapshot_holding_the_topology_tree_still_decodes() {
    let current = stored(4);
    let bytes = encode_with_topology(&current);
    let digest = elasticflow_sim::fnv1a64(&bytes);
    assert_eq!(digest, TOPOLOGY_SNAPSHOT_DIGEST, "got {digest:#018x}");
    assert_eq!(decode_snapshot(&bytes).unwrap(), current);
}

/// A snapshot payload as the simulator wrote it while it still kept an
/// event log (`events.wal`) beside its snapshots: the same members plus
/// the log's record count.
#[derive(Serialize, Deserialize)]
struct LogStampedSnapshot {
    version: u32,
    wal_records: u64,
    sim: SimSnapshot,
}

impl SnapshotPayload for LogStampedSnapshot {
    fn version(&self) -> u32 {
        self.version
    }
}

/// FNV-1a-64 of the encoded `stored(4)` snapshot stamped with
/// `wal_records: 17`, in the format that still held the topology tree:
/// the digest pinned while snapshots carried the count, so
/// [`LogStampedSnapshot`] under [`encode_with_topology`] writes that
/// format's exact bytes.
const LOG_STAMPED_SNAPSHOT_DIGEST: u64 = 0x90ba_db2d_a739_aeca;

#[test]
fn a_state_directory_written_with_an_event_log_still_resumes() {
    let old = |sim: SimSnapshot| LogStampedSnapshot {
        version: elasticflow_persist::PERSIST_VERSION,
        wal_records: 17,
        sim,
    };
    let current = stored(4);
    let stamped = old(current.sim.clone());
    let digest = elasticflow_sim::fnv1a64(&encode_with_topology(&stamped));
    assert_eq!(digest, LOG_STAMPED_SNAPSHOT_DIGEST, "got {digest:#018x}");
    // The payloads differ by the removed member alone.
    assert_eq!(
        serde_json::to_string(&stamped)
            .unwrap()
            .replacen(",\"wal_records\":17", "", 1),
        serde_json::to_string(&current).unwrap()
    );

    // A mid-run snapshot in the old format, with a log beside it.
    let root = temp_dir();
    let snapshot = capture_snapshot(10);
    let old_store = SnapshotStore::<LogStampedSnapshot>::new(SNAPSHOT_KIND, root.clone());
    std::fs::write(
        old_store.path(1),
        encode_with_topology(&old(snapshot.clone())),
    )
    .unwrap();
    let wal = root.join("events.wal");
    let mut wal_bytes =
        frame::encode_header(b"EFWL", elasticflow_persist::PERSIST_VERSION).to_vec();
    frame::encode_frame(&mut wal_bytes, br#"{"time":0.0,"event":"SlotBoundary"}"#);
    std::fs::write(&wal, &wal_bytes).unwrap();

    let sim = Simulation::new(spec(), SimConfig::default());
    let tr = trace();
    let baseline = sim.run(&tr, &mut EdfScheduler::new());
    let mut session = PersistSession::begin(&root, 300.0, true).unwrap();
    assert_eq!(session.snapshot(), Some(&snapshot));
    let outcome = session
        .run(&sim, &tr, &mut EdfScheduler::new(), &mut [])
        .unwrap();
    assert!(outcome.completed);
    assert_eq!(baseline, outcome.report);
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        wal_bytes,
        "the old event log was touched"
    );
}

#[test]
fn unknown_payload_version_is_a_typed_error() {
    let mut s = stored(3);
    s.version = elasticflow_persist::PERSIST_VERSION + 7;
    let bytes = encode_snapshot(&s).unwrap();
    match decode_snapshot(&bytes) {
        Err(PersistError::UnknownVersion { found, supported }) => {
            assert_eq!(found, elasticflow_persist::PERSIST_VERSION + 7);
            assert_eq!(supported, elasticflow_persist::PERSIST_VERSION);
        }
        other => panic!("expected UnknownVersion, got {other:?}"),
    }
}

#[test]
fn truncated_and_corrupted_snapshot_files_are_typed_errors() {
    let bytes = encode_snapshot(&stored(3)).unwrap();
    // Every truncation is Corrupt or BadMagic/Torn — never a panic.
    for cut in 0..bytes.len() {
        match decode_snapshot(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!("cut at {cut}: truncated snapshot decoded successfully"),
        }
    }
    // Payload bit-flip: checksum mismatch.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x10;
    assert!(matches!(
        decode_snapshot(&flipped),
        Err(PersistError::ChecksumMismatch { .. })
    ));
}

#[test]
fn latest_valid_snapshot_skips_corrupt_newer_files() {
    let store = store();
    let good = stored(4);
    let (seq1, _) = store.write_next(&good).unwrap();
    let newer = stored(6);
    let (seq2, _) = store.write_next(&newer).unwrap();
    assert_eq!((seq1, seq2), (1, 2));

    // Corrupt the newest file's tail.
    let path = store.path(seq2);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let LatestValid { valid, skipped } = store.latest_valid().unwrap();
    assert_eq!(valid, Some((seq1, good)));
    assert_eq!(skipped.len(), 1);
    assert_eq!(skipped[0].0, seq2);
    assert!(
        skipped[0].1.contains("checksum mismatch"),
        "{}",
        skipped[0].1
    );
}

#[test]
fn writes_keep_only_the_newest_snapshots_and_seqs_keep_rising() {
    let store = store();
    let snap = stored(4);
    for expected in 1..=5 {
        let (seq, _) = store.write_next(&snap).unwrap();
        assert_eq!(seq, expected);
    }
    assert_eq!(KEEP_SNAPSHOTS, 2);
    assert_eq!(store.seqs().unwrap(), vec![4, 5]);
    let (seq, _) = store.write_next(&snap).unwrap();
    assert_eq!(seq, 6);
    assert_eq!(store.seqs().unwrap(), vec![5, 6]);
    // Only snapshot files and no leftover temporaries are on disk.
    let files = std::fs::read_dir(store.root()).unwrap().count();
    assert_eq!(files, 2);
}

#[test]
fn a_stale_temp_file_is_removed_by_the_next_write_and_never_counts() {
    let store = store();
    let snap = stored(4);
    store.write_next(&snap).unwrap();
    // A write that crashed before its rename, with a sequence number
    // ahead of every snapshot, and another kind's leftover beside it.
    let root = store.root().to_path_buf();
    let stale = root.join(format!("snapshot-000007.{}.tmp", SNAPSHOT_KIND.extension));
    let foreign = root.join("snapshot-000003.efgs.tmp");
    std::fs::write(&stale, b"EFSN half a snapsh").unwrap();
    std::fs::write(&foreign, b"EFGS").unwrap();
    assert_eq!(store.seqs().unwrap(), vec![1]);
    let (seq, _) = store.write_next(&snap).unwrap();
    assert_eq!(seq, 2, "a temp file never advances the sequence");
    assert!(!stale.exists(), "the stale temp file survived the write");
    assert!(foreign.exists(), "another kind's file was touched");
    let (seq, _) = store.write_next(&snap).unwrap();
    assert_eq!(seq, 3);
    // The temp file never counted toward KEEP_SNAPSHOTS: two snapshots
    // remain, plus the other kind's file.
    assert_eq!(store.seqs().unwrap(), vec![2, 3]);
    assert_eq!(
        std::fs::read_dir(&root).unwrap().count(),
        KEEP_SNAPSHOTS + 1
    );
    assert_eq!(
        store.latest_valid().unwrap().valid.map(|(seq, _)| seq),
        Some(3)
    );
}

#[test]
fn a_failed_prune_does_not_fail_the_write_and_is_retried() {
    let store = store();
    let snap = stored(4);
    for _ in 0..2 {
        store.write_next(&snap).unwrap();
    }
    // A directory where snapshot 1 was: `remove_file` cannot delete it.
    std::fs::remove_file(store.path(1)).unwrap();
    std::fs::create_dir(store.path(1)).unwrap();
    for expected in 3..=4 {
        let (seq, _) = store.write_next(&snap).unwrap();
        assert_eq!(seq, expected);
    }
    // Snapshot 2 was pruned; the blocked path stays, and the newest
    // snapshot still recovers.
    assert_eq!(store.seqs().unwrap(), vec![1, 3, 4]);
    assert_eq!(
        store.latest_valid().unwrap().valid.map(|(seq, _)| seq),
        Some(4)
    );
    // Once the path is removable again, the next write prunes it.
    std::fs::remove_dir(store.path(1)).unwrap();
    std::fs::write(store.path(1), b"EFSN").unwrap();
    let (seq, _) = store.write_next(&snap).unwrap();
    assert_eq!(seq, 5);
    assert_eq!(store.seqs().unwrap(), vec![4, 5]);
}

#[test]
fn a_corrupt_snapshot_never_replaces_the_fallback() {
    let store = store();
    let snap = stored(4);
    for _ in 0..2 {
        store.write_next(&snap).unwrap();
    }
    // Snapshot 2 rots on disk; writing 3 keeps 1, the only valid older
    // file, as the fallback.
    std::fs::write(store.path(2), b"EFSN").unwrap();
    let (seq, _) = store.write_next(&snap).unwrap();
    assert_eq!(seq, 3);
    assert_eq!(store.seqs().unwrap(), vec![1, 2, 3]);
    // Were snapshot 3 lost too, recovery would still find snapshot 1.
    let newest = std::fs::read(store.path(3)).unwrap();
    std::fs::write(store.path(3), b"EFSN").unwrap();
    let LatestValid { valid, skipped } = store.latest_valid().unwrap();
    assert_eq!(valid, Some((1, snap.clone())));
    let skipped: Vec<u64> = skipped.iter().map(|(seq, _)| *seq).collect();
    assert_eq!(skipped, vec![3, 2]);
    std::fs::write(store.path(3), newest).unwrap();
    // The next write has a valid fallback in 3 and prunes the rest,
    // the corrupt file with it.
    store.write_next(&snap).unwrap();
    assert_eq!(store.seqs().unwrap(), vec![3, 4]);
}

#[test]
fn every_snapshot_corrupt_recovers_nothing_and_reports_each() {
    let store = store();
    for _ in 0..3 {
        store.write_next(&stored(4)).unwrap();
    }
    for seq in store.seqs().unwrap() {
        std::fs::write(store.path(seq), b"EFSN").unwrap();
    }
    let LatestValid { valid, skipped } = store.latest_valid().unwrap();
    assert!(valid.is_none());
    let seqs: Vec<u64> = skipped.iter().map(|(seq, _)| *seq).collect();
    assert_eq!(seqs, vec![3, 2]);
    // A resuming session degrades to a fresh run and clears the rot.
    let session = PersistSession::begin(store.root(), 600.0, true).unwrap();
    assert!(session.snapshot().is_none(), "resumed a corrupt snapshot");
    assert!(store.seqs().unwrap().is_empty());
}

#[test]
fn recover_on_empty_dir_is_none_and_fresh_session_starts_clean() {
    let root = temp_dir();
    let store = SnapshotStore::<StoredSnapshot>::new(SNAPSHOT_KIND, root.clone());
    assert!(store.latest_valid().unwrap().valid.is_none());
    let session = PersistSession::begin(&root, 600.0, true).unwrap();
    assert!(session.snapshot().is_none(), "nothing to resume from");

    let missing = root.join("not-yet");
    let session = PersistSession::begin(&missing, 600.0, true).unwrap();
    assert!(session.snapshot().is_none());
    assert!(missing.is_dir(), "begin creates the state directory");
}

#[test]
fn session_checkpoints_and_resumes_to_an_identical_report() {
    let root = temp_dir();
    let sim = Simulation::new(spec(), SimConfig::default());
    let tr = trace();
    let baseline = sim.run(&tr, &mut EdfScheduler::new());

    // Run with aggressive checkpointing and a mid-run kill.
    let mut session = PersistSession::begin(&root, 300.0, false)
        .unwrap()
        .kill_at_round(10);
    let outcome = session
        .run(&sim, &tr, &mut EdfScheduler::new(), &mut [])
        .unwrap();
    assert!(!outcome.completed, "kill round did not fire");
    let stats = session.stats();
    assert!(
        stats.checkpoints > 0,
        "no checkpoint was cut before the kill"
    );
    assert_eq!(stats.failures, 0);
    assert!(session.first_error().is_none());
    drop(session);

    // Resume in a "new process": recover and run to completion.
    let mut session = PersistSession::begin(&root, 300.0, true).unwrap();
    assert!(session.snapshot().is_some(), "recovery found a snapshot");
    let outcome = session
        .run(&sim, &tr, &mut EdfScheduler::new(), &mut [])
        .unwrap();
    assert!(outcome.completed);
    assert_eq!(
        baseline, outcome.report,
        "resumed run diverged from the uninterrupted baseline"
    );
}

#[test]
fn a_fresh_session_drops_the_previous_runs_snapshots() {
    let root = temp_dir();
    let sim = Simulation::new(spec(), SimConfig::default());
    let tr = trace();
    let baseline = sim.run(&tr, &mut EdfScheduler::new());

    // A complete run leaves snapshots behind.
    let mut session = PersistSession::begin(&root, 300.0, false).unwrap();
    let outcome = session
        .run(&sim, &tr, &mut EdfScheduler::new(), &mut [])
        .unwrap();
    assert!(outcome.completed);
    assert!(session.stats().checkpoints > 0);
    drop(session);
    let store = SnapshotStore::<StoredSnapshot>::new(SNAPSHOT_KIND, root.clone());
    assert!(!store.seqs().unwrap().is_empty());

    // A fresh run dies before its first checkpoint.
    let mut session = PersistSession::begin(&root, f64::INFINITY, false)
        .unwrap()
        .kill_at_round(3);
    assert!(
        store.seqs().unwrap().is_empty(),
        "a fresh session kept the previous run's snapshots"
    );
    let outcome = session
        .run(&sim, &tr, &mut EdfScheduler::new(), &mut [])
        .unwrap();
    assert!(!outcome.completed, "kill round did not fire");
    assert_eq!(session.stats().checkpoints, 0);
    drop(session);

    // Nothing to resume from: the next session starts over and
    // completes the run.
    let mut session = PersistSession::begin(&root, 300.0, true).unwrap();
    assert!(session.snapshot().is_none(), "resumed a stale snapshot");
    let outcome = session
        .run(&sim, &tr, &mut EdfScheduler::new(), &mut [])
        .unwrap();
    assert!(outcome.completed);
    assert_eq!(baseline, outcome.report);
}

#[test]
#[should_panic(expected = "PersistSession::run called twice")]
fn a_second_run_on_one_session_panics() {
    let root = temp_dir();
    let sim = Simulation::new(spec(), SimConfig::default());
    let tr = trace();
    let mut session = PersistSession::begin(&root, 300.0, false)
        .unwrap()
        .kill_at_round(3);
    let outcome = session
        .run(&sim, &tr, &mut EdfScheduler::new(), &mut [])
        .unwrap();
    assert!(!outcome.completed, "kill round did not fire");
    let _ = session.run(&sim, &tr, &mut EdfScheduler::new(), &mut []);
}
