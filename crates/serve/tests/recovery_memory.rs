//! Memory ceiling of crash recovery.
//!
//! `Daemon::open` streams both logs: its heap high-water mark above the
//! starting point is a fixed amount (read buffers, the restored gateway,
//! the replayed suffix) plus the duplicate-id set, however long the WAL
//! and the journal have grown. A counting global allocator tracks live
//! and peak heap bytes on the current thread while a daemon resumes over
//! a state directory whose WAL and journal each hold more than 16 MiB.
//! Debug builds run recompute checks that allocate, so the test measures
//! only in release:
//!
//! ```text
//! cargo test --release -p elasticflow-serve --test recovery_memory
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::io::{BufWriter, Write};

use elasticflow_persist::PERSIST_VERSION;
use elasticflow_sched::{CapacityShortfall, DecisionRecord, DeclineReason};
use elasticflow_serve::store::render_journal_entry_into;
use elasticflow_serve::{
    gateway_registry, loadgen_stream, Daemon, DaemonConfig, GatewayConfig, GatewayDir,
    GatewaySnapshot, GatewayStats, LoadgenConfig, Request, Resumption,
};
use elasticflow_telemetry::TickClock;
use elasticflow_trace::JobId;

/// The system allocator, tracking the live heap bytes of the current
/// thread and their high-water mark.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // Const-initialized `Cell`s have no destructor and no lazy
    // initializer, so touching them never allocates or reenters.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; tracking touches only thread-local
// `Cell`s.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the most live heap bytes it
/// held at once above the bytes live when it started.
fn peak_above_start<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    let peak = PEAK.with(Cell::get);
    (out, (peak - start).unsigned_abs())
}

/// What recovery may hold beyond the duplicate-id set: one 1 MiB read
/// buffer (the WAL's and the journal's are never live together), plus
/// 1 MiB for the restored gateway, the replayed suffix and the metrics
/// it records.
const CEILING_BYTES: usize = 2 << 20;

/// Each log must exceed this: more than four read buffers' worth.
const LOG_BYTES: u64 = 16 << 20;

/// Submissions the snapshot covers, enough to grow both logs past
/// [`LOG_BYTES`]; the suffix past them is replayed.
const COVERED: usize = 100_000;
const SUFFIX: usize = 64;

#[test]
fn resuming_over_long_logs_stays_under_a_fixed_ceiling_plus_the_dedup_set() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: debug builds run recompute checks that allocate");
        return;
    }
    let root = std::env::temp_dir().join(format!("ef-recovery-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = DaemonConfig {
        gateway: GatewayConfig::default(),
        snapshot_every: 0,
        ..DaemonConfig::default()
    };
    let stream = loadgen_stream(&LoadgenConfig {
        arrivals: COVERED + SUFFIX,
        ..LoadgenConfig::default()
    });
    let ids: Vec<u64> = stream
        .iter()
        .filter_map(|request| {
            if let Request::Submit { job } = request {
                Some(job.id)
            } else {
                None
            }
        })
        .collect();
    assert_eq!(ids.len(), stream.len(), "the stream holds submissions only");

    // The state a daemon leaves when it dies `SUFFIX` submissions after
    // its last snapshot: the whole WAL, a journal line per decision (the
    // last ones included), and a snapshot covering the first `COVERED`.
    let dir = GatewayDir::open(&root).expect("state dir");
    let (mut wal, journal) = dir.create_genesis().expect("genesis logs");
    let lines: Vec<String> = stream
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests serialize"))
        .collect();
    for batch in lines.chunks(1_024) {
        wal.append_batch(batch).expect("WAL append");
    }
    drop(wal);
    let mut journal = BufWriter::new(journal);
    let mut line = String::new();
    for (i, &id) in ids.iter().enumerate() {
        let decision = DecisionRecord::Decline {
            job: JobId::new(id),
            reason: DeclineReason::WouldDisplace {
                blocking_job: JobId::new(id / 2),
                shortfall: CapacityShortfall {
                    window_slots: 1_000 + id,
                    demand_gpu_slots: 12_345.678_9 + i as f64,
                    free_gpu_slots: 0.123_456_789,
                },
            },
        };
        line.clear();
        render_journal_entry_into(2.0 * i as f64 + 0.25, &decision, &mut line);
        line.push('\n');
        journal.write_all(line.as_bytes()).expect("journal append");
    }
    journal.flush().expect("journal flush");
    drop(journal);
    dir.write_next_snapshot(&GatewaySnapshot {
        version: PERSIST_VERSION,
        wal_records: COVERED as u64,
        journal_entries: COVERED as u64,
        config: config.gateway,
        origin_slot: 0,
        stats: GatewayStats {
            submissions: COVERED as u64,
            declined: COVERED as u64,
            ..GatewayStats::default()
        },
        jobs: Vec::new(),
    })
    .expect("snapshot");
    for (name, path) in [("WAL", dir.wal_path()), ("journal", dir.journal_path())] {
        let len = std::fs::metadata(&path).expect("log exists").len();
        assert!(len > LOG_BYTES, "the {name} holds only {len} bytes");
    }

    let (opened, peak) = peak_above_start(|| {
        Daemon::open(
            &root,
            config,
            Box::new(TickClock::new(1_000)),
            gateway_registry(),
        )
    });
    let (daemon, resumption) = opened.expect("daemon resumes");
    assert_eq!(
        resumption,
        Resumption::Resumed {
            snapshot: Some(1),
            replayed: SUFFIX as u64
        }
    );
    assert_eq!(daemon.stats().submissions, (COVERED + SUFFIX) as u64);
    drop(daemon);
    // The duplicate-id set recovery must hold: every submission's id.
    let (dedup, dedup_bytes) = peak_above_start(|| ids.iter().copied().collect::<BTreeSet<u64>>());
    drop(dedup);
    let _ = std::fs::remove_dir_all(&root);
    eprintln!("recovery peak {peak} bytes above start; dedup set {dedup_bytes} bytes");
    assert!(
        peak <= CEILING_BYTES + dedup_bytes,
        "recovery held {peak} bytes at its peak, over the {CEILING_BYTES}-byte ceiling \
         plus the {dedup_bytes}-byte dedup set"
    );
}
