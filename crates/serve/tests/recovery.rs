//! Crash/recovery integration tests for the gateway daemon.
//!
//! The contract under test: kill the daemon at *any* offset in the
//! request stream, resume, finish the stream — and both durable files
//! (`decisions.jsonl`, `gateway.wal`) end up byte-identical to the
//! files an uninterrupted run produces. The in-process tests exercise
//! arbitrary kill offsets and torn-tail corruption; the `#[cfg(unix)]`
//! test crashes the real binary with `--die-after` (exit 17, no
//! unwinding) and resumes it with a full idempotent re-feed.

use std::path::{Path, PathBuf};

use elasticflow_persist::PersistError;
use elasticflow_serve::{
    gateway_registry, loadgen_stream, parse_request, Daemon, DaemonConfig, FsyncPolicy,
    GatewayConfig, GatewayDir, LoadgenConfig, Request, Resumption, ServeError,
};
use elasticflow_telemetry::TickClock;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ef-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        gateway: GatewayConfig {
            servers: 2,
            gpus_per_server: 8,
            slot_seconds: 60.0,
        },
        snapshot_every: 16,
        fsync: FsyncPolicy::Never,
    }
}

/// A contended request stream on the 16-GPU test cluster: admissions,
/// declines, and best-effort submissions all occur.
fn request_lines(arrivals: usize) -> Vec<String> {
    let cfg = LoadgenConfig {
        arrivals,
        servers: 2,
        gpus_per_server: 8,
        mean_interarrival: 20.0,
        ..LoadgenConfig::default()
    };
    loadgen_stream(&cfg)
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests serialize"))
        .collect()
}

fn resume(root: &Path) -> (Daemon, Resumption) {
    Daemon::open(
        root,
        daemon_config(),
        Box::new(TickClock::new(500)),
        gateway_registry(),
    )
    .expect("daemon opens")
}

fn open(root: &Path) -> Daemon {
    resume(root).0
}

fn feed(daemon: &mut Daemon, lines: &[String]) {
    for line in lines {
        if let Some(request) = parse_request(line).expect("loadgen lines parse") {
            daemon.handle_request(&request);
        }
    }
}

fn durable_files(root: &Path) -> (Vec<u8>, Vec<u8>) {
    let journal = std::fs::read(root.join("decisions.jsonl")).expect("journal exists");
    let wal = std::fs::read(root.join("gateway.wal")).expect("wal exists");
    (journal, wal)
}

/// The uninterrupted run every recovery scenario must converge to.
/// `name` keeps each test's reference directory its own: the tests run
/// on parallel threads and must not share a state directory.
fn reference_run(
    name: &str,
    lines: &[String],
) -> (Vec<u8>, Vec<u8>, elasticflow_serve::GatewayStats) {
    let root = tmp(&format!("reference-{name}"));
    let mut daemon = open(&root);
    feed(&mut daemon, lines);
    let stats = daemon.stats();
    assert_eq!(stats.submissions, lines.len() as u64);
    assert_eq!(
        stats.admitted + stats.declined + stats.best_effort,
        stats.submissions,
        "every submission resolves to exactly one outcome"
    );
    assert!(stats.declined > 0, "the stream must contend for GPUs");
    drop(daemon);
    let (journal, wal) = durable_files(&root);
    (journal, wal, stats)
}

#[test]
fn kill_at_arbitrary_offsets_recovers_bit_identically() {
    let lines = request_lines(120);
    let (ref_journal, ref_wal, ref_stats) = reference_run("kill", &lines);

    // Offsets straddle snapshot boundaries (every 16 submissions): just
    // after genesis, mid-epoch, exactly on a snapshot, and late.
    for offset in [1usize, 9, 16, 17, 47, 48, 99, 119] {
        let root = tmp(&format!("kill-{offset}"));
        {
            let mut daemon = open(&root);
            feed(&mut daemon, &lines[..offset]);
            // Dropped without a graceful snapshot: the crash.
        }
        let mut daemon = open(&root);
        feed(&mut daemon, &lines[offset..]);
        assert_eq!(
            daemon.stats(),
            ref_stats,
            "stats diverged at offset {offset}"
        );
        drop(daemon);
        let (journal, wal) = durable_files(&root);
        assert_eq!(journal, ref_journal, "journal diverged at offset {offset}");
        assert_eq!(wal, ref_wal, "wal diverged at offset {offset}");
    }
}

#[test]
fn torn_tails_in_both_files_are_repaired_on_resume() {
    let lines = request_lines(80);
    let (ref_journal, ref_wal, ref_stats) = reference_run("torn", &lines);

    let offset = 33usize;
    let root = tmp("torn");
    {
        let mut daemon = open(&root);
        feed(&mut daemon, &lines[..offset]);
    }
    // A crash mid-write: half a frame on the WAL, half a line on the
    // journal. Recovery must drop both and re-earn the missing record.
    {
        use std::io::Write;
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join("gateway.wal"))
            .expect("wal opens");
        wal.write_all(&[42, 0, 0, 0, 7, 7, 7]).expect("torn frame");
        let mut journal = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join("decisions.jsonl"))
            .expect("journal opens");
        journal
            .write_all(b"{\"t\":123.0,\"decis")
            .expect("torn line");
    }
    let mut daemon = open(&root);
    feed(&mut daemon, &lines[offset..]);
    assert_eq!(daemon.stats(), ref_stats);
    drop(daemon);
    let (journal, wal) = durable_files(&root);
    assert_eq!(journal, ref_journal);
    assert_eq!(wal, ref_wal);
}

#[test]
fn double_crash_during_recovery_window_still_converges() {
    let lines = request_lines(100);
    let (ref_journal, ref_wal, ref_stats) = reference_run("double", &lines);

    // Crash, resume briefly, crash again before the next snapshot.
    let root = tmp("double");
    {
        let mut daemon = open(&root);
        feed(&mut daemon, &lines[..40]);
    }
    {
        let mut daemon = open(&root);
        feed(&mut daemon, &lines[40..45]);
    }
    let mut daemon = open(&root);
    feed(&mut daemon, &lines[45..]);
    assert_eq!(daemon.stats(), ref_stats);
    drop(daemon);
    let (journal, wal) = durable_files(&root);
    assert_eq!(journal, ref_journal);
    assert_eq!(wal, ref_wal);
}

/// A corrupt snapshot costs only replay. With the newest retained
/// snapshot corrupt, the daemon resumes from the fallback; with every
/// retained snapshot corrupt, it replays the whole WAL from genesis. In
/// both cases the durable files converge on the reference.
#[test]
fn corrupt_snapshots_fall_back_to_the_older_one_then_to_genesis() {
    let lines = request_lines(120);
    let (ref_journal, ref_wal, ref_stats) = reference_run("corrupt-snapshots", &lines);

    // 70 submissions cut snapshots at 16, 32, 48 and 64; only the
    // newest two (seqs 3 and 4) stay on disk.
    let offset = 70usize;
    let cases = [
        ("corrupt-newest", vec![4], Some(3), offset as u64 - 48),
        ("corrupt-all", vec![3, 4], None, offset as u64),
    ];
    for (name, corrupt, snapshot, replayed) in cases {
        let root = tmp(name);
        {
            let mut daemon = open(&root);
            feed(&mut daemon, &lines[..offset]);
        }
        let dir = GatewayDir::open(&root).expect("dir opens");
        assert_eq!(dir.snapshots().seqs().expect("seqs"), vec![3, 4]);
        for seq in corrupt {
            let path = dir.snapshots().path(seq);
            let mut bytes = std::fs::read(&path).expect("snapshot exists");
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            std::fs::write(&path, &bytes).expect("snapshot rewritten");
        }

        let (mut daemon, resumption) = resume(&root);
        assert_eq!(
            resumption,
            Resumption::Resumed { snapshot, replayed },
            "{name}"
        );
        feed(&mut daemon, &lines[offset..]);
        assert_eq!(daemon.stats(), ref_stats, "stats diverged ({name})");
        drop(daemon);
        let (journal, wal) = durable_files(&root);
        assert_eq!(journal, ref_journal, "journal diverged ({name})");
        assert_eq!(wal, ref_wal, "wal diverged ({name})");
    }
}

/// Kill the daemon so that the WAL's tail lands *inside* a
/// group-committed frame run: batched feeding appends many frames with
/// one write, and a crash can cut that write at any byte. Recovery must
/// keep the run's clean frame prefix, drop the torn frame, and re-earn
/// the lost records on re-feed — converging byte-identically to the
/// unbatched reference.
#[test]
fn torn_tail_inside_a_group_commit_run_recovers_bit_identically() {
    let lines = request_lines(120);
    let (ref_journal, ref_wal, ref_stats) = reference_run("group-torn", &lines);
    let requests: Vec<Request> = lines
        .iter()
        .map(|l| {
            elasticflow_serve::parse_request(l)
                .expect("line parses")
                .expect("line is a request")
        })
        .collect();

    // Cut depths chosen to land mid-frame at varying distances into the
    // final batch's frame run (records are ~170 framed bytes). Chunks
    // of 56 put the last snapshot at submission 112, so the cuts only
    // ever reach the final 8-record run — a run no snapshot covers,
    // exactly the window a real crash can tear.
    for cut_back in [5usize, 200, 700] {
        let root = tmp(&format!("midbatch-{cut_back}"));
        {
            let mut daemon = open(&root);
            let mut responses = Vec::new();
            for chunk in requests.chunks(56) {
                responses.clear();
                daemon.handle_batch(chunk, &mut responses);
            }
            // Dropped without a graceful snapshot: the crash.
        }
        let wal_path = root.join("gateway.wal");
        let bytes = std::fs::read(&wal_path).expect("wal exists");
        assert!(bytes.len() > cut_back);
        std::fs::write(&wal_path, &bytes[..bytes.len() - cut_back]).expect("wal cut");
        {
            use std::io::Write;
            let mut journal = std::fs::OpenOptions::new()
                .append(true)
                .open(root.join("decisions.jsonl"))
                .expect("journal opens");
            journal
                .write_all(b"{\"t\":999.0,\"deci")
                .expect("torn line");
        }

        let mut daemon = open(&root);
        let survived = usize::try_from(daemon.wal_records()).expect("fits");
        assert!(
            survived < lines.len(),
            "the cut must have cost at least one record (cut {cut_back})"
        );
        feed(&mut daemon, &lines[survived..]);
        assert_eq!(
            daemon.stats(),
            ref_stats,
            "stats diverged at cut {cut_back}"
        );
        drop(daemon);
        let (journal, wal) = durable_files(&root);
        assert_eq!(journal, ref_journal, "journal diverged at cut {cut_back}");
        assert_eq!(wal, ref_wal, "wal diverged at cut {cut_back}");
    }
}

/// Crash the *real binary* mid-stream with `--die-after`, then resume
/// it and re-feed the entire stream: already-logged ids are rejected
/// without effect, the rest are served, and the journal converges to
/// the uninterrupted binary run's bytes.
#[cfg(unix)]
#[test]
fn binary_die_after_crash_then_resume_is_bit_identical() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let lines = request_lines(150);
    let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let binary = env!("CARGO_BIN_EXE_elasticflow-serve");
    let run = |dir: &Path, extra: &[&str], stdin_text: &str| {
        let mut child = Command::new(binary)
            .arg("--state-dir")
            .arg(dir)
            .args([
                "--servers",
                "2",
                "--gpus-per-server",
                "8",
                "--snapshot-every",
                "16",
                "--latency-clock",
                "tick",
            ])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary spawns");
        if let Some(mut stdin) = child.stdin.take() {
            // The child may exit (crash) before consuming everything;
            // a broken pipe here is part of the scenario.
            let _ = stdin.write_all(stdin_text.as_bytes());
        }
        child.wait().expect("binary exits")
    };

    let ref_dir = tmp("bin-reference");
    let status = run(&ref_dir, &[], &input);
    assert!(status.success(), "reference run failed: {status:?}");

    let crash_dir = tmp("bin-crash");
    let status = run(&crash_dir, &["--die-after", "60"], &input);
    assert_eq!(status.code(), Some(17), "--die-after must hard-exit 17");

    let status = run(&crash_dir, &["--resume"], &input);
    assert!(status.success(), "resume run failed: {status:?}");

    let (ref_journal, ref_wal) = durable_files(&ref_dir);
    let (journal, wal) = durable_files(&crash_dir);
    assert_eq!(journal, ref_journal, "binary journals diverged");
    assert_eq!(wal, ref_wal, "binary WALs diverged");
}

/// The batched drain loop under the same crash drill: the binary runs
/// with `--batch 64 --fsync batch`, dies mid-stream, and resumes with a
/// full idempotent re-feed. The durable files must converge to the
/// *unbatched* reference run's bytes — batch boundaries and fsync
/// cadence are runtime artifacts that leave no trace in either log.
#[cfg(unix)]
#[test]
fn binary_batched_crash_then_resume_matches_the_unbatched_reference() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let lines = request_lines(150);
    let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let binary = env!("CARGO_BIN_EXE_elasticflow-serve");
    let run = |dir: &Path, extra: &[&str], stdin_text: &str| {
        let mut child = Command::new(binary)
            .arg("--state-dir")
            .arg(dir)
            .args([
                "--servers",
                "2",
                "--gpus-per-server",
                "8",
                "--snapshot-every",
                "16",
                "--latency-clock",
                "tick",
            ])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary spawns");
        if let Some(mut stdin) = child.stdin.take() {
            let _ = stdin.write_all(stdin_text.as_bytes());
        }
        child.wait().expect("binary exits")
    };

    let ref_dir = tmp("bin-batch-reference");
    let status = run(&ref_dir, &[], &input);
    assert!(status.success(), "reference run failed: {status:?}");

    let crash_dir = tmp("bin-batch-crash");
    let status = run(
        &crash_dir,
        &["--batch", "64", "--fsync", "batch", "--die-after", "60"],
        &input,
    );
    assert_eq!(status.code(), Some(17), "--die-after must hard-exit 17");

    let status = run(&crash_dir, &["--resume", "--batch", "64"], &input);
    assert!(status.success(), "resume run failed: {status:?}");

    let (ref_journal, ref_wal) = durable_files(&ref_dir);
    let (journal, wal) = durable_files(&crash_dir);
    assert_eq!(journal, ref_journal, "batched binary journal diverged");
    assert_eq!(wal, ref_wal, "batched binary WAL diverged");
}

/// A WAL written before submissions were validated may hold a record
/// no decision can be made on. Recovery refuses it as corruption
/// instead of panicking in the replay.
#[test]
fn a_wal_record_that_fails_validation_is_refused_as_corrupt_on_resume() {
    let root = tmp("invalid-record");
    let (mut wal, _) = GatewayDir::open(&root).unwrap().create_genesis().unwrap();
    wal.append_payload(br#"{"Submit":{"job":{"id":1,"model":"Bert","global_batch":0,"iterations":100.0,"arrival_seconds":0.0,"deadline_seconds":3600.0}}}"#)
        .unwrap();
    drop(wal);
    let opened = Daemon::open(
        &root,
        daemon_config(),
        Box::new(TickClock::new(500)),
        gateway_registry(),
    );
    match opened {
        Err(ServeError::Persist(PersistError::Corrupt(why))) => {
            assert!(why.contains("global_batch"), "{why}");
        }
        Err(e) => panic!("expected a corrupt WAL, got {e}"),
        Ok(_) => panic!("a WAL holding an invalid record was replayed"),
    }
}

/// A line of bytes that are not UTF-8 is answered with an `Error` line
/// and the binary keeps serving: it exits 0 at end-of-input, and its
/// durable files match a run that never saw the bad line.
#[cfg(unix)]
#[test]
fn binary_answers_a_non_utf8_line_and_keeps_serving() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let lines = request_lines(20);
    let valid: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let mut mixed = b"\xff\xfe\n".to_vec();
    mixed.extend_from_slice(valid.as_bytes());
    let binary = env!("CARGO_BIN_EXE_elasticflow-serve");
    let run = |dir: &Path, stdin_bytes: &[u8]| {
        let mut child = Command::new(binary)
            .arg("--state-dir")
            .arg(dir)
            .args(["--servers", "2", "--gpus-per-server", "8"])
            .args(["--latency-clock", "tick"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary spawns");
        if let Some(mut stdin) = child.stdin.take() {
            stdin
                .write_all(stdin_bytes)
                .expect("binary reads its input");
        }
        child.wait_with_output().expect("binary exits")
    };

    let clean_dir = tmp("bin-utf8-clean");
    let clean = run(&clean_dir, valid.as_bytes());
    assert!(
        clean.status.success(),
        "clean run failed: {:?}",
        clean.status
    );

    let mixed_dir = tmp("bin-utf8-mixed");
    let out = run(&mixed_dir, &mixed);
    assert!(
        out.status.success(),
        "bad line ended the run: {:?}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("responses are UTF-8");
    let (first, rest) = stdout.split_once('\n').expect("a response per line");
    assert!(first.starts_with("{\"Error\":"), "got {first}");
    assert_eq!(
        rest.as_bytes(),
        clean.stdout,
        "the valid lines' answers moved"
    );

    assert_eq!(durable_files(&mixed_dir), durable_files(&clean_dir));
}
