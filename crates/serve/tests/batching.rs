//! Property: batching is invisible in the durable record.
//!
//! For an arbitrary arrival stream (mixed deadline/best-effort work,
//! duplicate ids, interleaved withdrawals and `Stats` queries) chopped
//! by an arbitrary batch-size schedule, the batched daemon must produce
//! the same responses and *byte-identical* `decisions.jsonl` and
//! `gateway.wal` files as a daemon fed the stream one request at a
//! time, and must recover from those files to the same state. Batch
//! boundaries are a runtime artifact: they change how many syscalls the
//! run takes, never which bytes it writes.

use std::path::{Path, PathBuf};

use elasticflow_perfmodel::DnnModel;
use elasticflow_serve::{
    gateway_registry, Daemon, DaemonConfig, FsyncPolicy, GatewayConfig, JobSubmission, Request,
    Response,
};
use elasticflow_telemetry::TickClock;
use proptest::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ef-batching-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn daemon_config(fsync: FsyncPolicy) -> DaemonConfig {
    DaemonConfig {
        gateway: GatewayConfig {
            servers: 1,
            gpus_per_server: 8,
            slot_seconds: 60.0,
        },
        // A small cadence so the schedule straddles snapshot boundaries.
        snapshot_every: 7,
        fsync,
    }
}

fn open(root: &Path, fsync: FsyncPolicy) -> Daemon {
    let (daemon, _resumption) = Daemon::open(
        root,
        daemon_config(fsync),
        Box::new(TickClock::new(500)),
        gateway_registry(),
    )
    .expect("daemon opens");
    daemon
}

fn durable_files(root: &Path) -> (Vec<u8>, Vec<u8>) {
    let journal = std::fs::read(root.join("decisions.jsonl")).expect("journal exists");
    let wal = std::fs::read(root.join("gateway.wal")).expect("wal exists");
    (journal, wal)
}

/// One abstract stream event, lowered to a request with monotone
/// arrival times during materialization.
#[derive(Debug, Clone)]
enum Event {
    /// `(id_slot, gap_seconds, deadline_window)` — `None` window means
    /// best-effort. The id slot is taken modulo a small range so
    /// duplicates occur.
    Submit(u64, f64, Option<f64>),
    /// Withdraw the id slot (may or may not name a committed job).
    Withdraw(u64),
    /// Ask for the counters; the answer depends on the position inside
    /// a batch.
    Stats,
}

fn events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        prop_oneof![
            8 => (0u64..48, 0.0f64..90.0, 600.0f64..5_400.0)
                .prop_map(|(id, gap, window)| Event::Submit(id, gap, Some(window))),
            2 => (0u64..48, 0.0f64..90.0)
                .prop_map(|(id, gap)| Event::Submit(id, gap, None)),
            1 => (0u64..48).prop_map(Event::Withdraw),
            1 => Just(Event::Stats),
        ],
        1..60,
    )
}

fn schedule() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..9, 1..40)
}

fn materialize(events: &[Event]) -> Vec<Request> {
    let mut t = 0.0f64;
    events
        .iter()
        .map(|event| match event {
            Event::Submit(id, gap, window) => {
                t += gap;
                Request::Submit {
                    job: JobSubmission {
                        id: *id,
                        model: DnnModel::ResNet50,
                        global_batch: 128,
                        iterations: 4_000.0,
                        arrival_seconds: t,
                        deadline_seconds: window.map(|w| t + w),
                    },
                }
            }
            Event::Withdraw(id) => Request::Withdraw {
                job: *id,
                at_seconds: t,
            },
            Event::Stats => Request::Stats {},
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core byte-identity property, across fsync policies (the
    /// policy affects durability timing only, never contents).
    #[test]
    fn arbitrary_batching_is_byte_identical_to_sequential(
        events in events(),
        chunks in schedule(),
        fsync_pick in 0usize..4,
    ) {
        let requests = materialize(&events);
        let fsync = [
            FsyncPolicy::Never,
            FsyncPolicy::PerRecord,
            FsyncPolicy::PerBatch,
            FsyncPolicy::Interval(3),
        ][fsync_pick];

        let seq_root = tmp("seq");
        let mut sequential = open(&seq_root, FsyncPolicy::Never);
        let expected: Vec<Response> = requests
            .iter()
            .map(|r| sequential.handle_request(r))
            .collect();
        let seq_stats = sequential.stats();
        drop(sequential);
        let (seq_journal, seq_wal) = durable_files(&seq_root);

        let batch_root = tmp("batched");
        let mut batched = open(&batch_root, fsync);
        let mut got: Vec<Response> = Vec::new();
        let mut cursor = 0usize;
        let mut pick = 0usize;
        while cursor < requests.len() {
            let take = chunks[pick % chunks.len()].min(requests.len() - cursor);
            pick += 1;
            batched.handle_batch(&requests[cursor..cursor + take], &mut got);
            cursor += take;
        }
        prop_assert_eq!(&got, &expected, "responses diverged");
        prop_assert_eq!(batched.stats(), seq_stats, "stats diverged");
        drop(batched);
        let (journal, wal) = durable_files(&batch_root);
        prop_assert_eq!(&journal, &seq_journal, "journal bytes diverged");
        prop_assert_eq!(&wal, &seq_wal, "wal bytes diverged");

        // Recovery replays the WAL suffix past the batched run's last
        // snapshot — withdrawals included — through the same pipeline.
        let reopened = open(&batch_root, fsync);
        prop_assert_eq!(reopened.stats(), seq_stats, "stats diverged after replay");
        drop(reopened);
        let (journal, wal) = durable_files(&batch_root);
        prop_assert_eq!(journal, seq_journal, "journal bytes diverged after replay");
        prop_assert_eq!(wal, seq_wal, "wal bytes diverged after replay");
    }
}
