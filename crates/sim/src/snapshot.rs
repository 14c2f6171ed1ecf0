//! Serializable simulation state: the [`SimSnapshot`] the engine captures
//! at a controller's request and re-absorbs on resume.
//!
//! A snapshot is a *cut* of the event loop taken at a round boundary —
//! after the round's plan was applied and observers notified, before the
//! next event batch is selected. Because the engine is deterministic and
//! every piece of mutable state is either captured here or deterministically
//! reconstructible from the run's inputs (trace, cluster spec, sim config),
//! resuming from a snapshot continues the run **bit-identically**: the
//! final [`crate::SimReport`] matches an uninterrupted run byte for byte.
//! The golden cut-point tests in `tests/persist_recovery.rs` enforce this.
//!
//! What is captured vs. reconstructed:
//!
//! * captured — cluster allocation state (incl. buddy occupancy and the
//!   pinned phantom blocks fencing failed servers), the job table, per-job
//!   accounting, event-core cursors, the timeline sampled so far, and the
//!   scheduler's serialized policy state
//!   ([`elasticflow_sched::Scheduler::snapshot_state`]);
//! * reconstructed — the interconnect model, scaling-curve memo, overhead
//!   model, the cluster's capacity and server size, and the failure/repair
//!   transition timeline, all pure functions of the run's inputs. Fingerprints of those inputs are
//!   embedded so a snapshot cannot silently resume against the wrong trace
//!   or cluster.
//!
//! Durable storage of snapshots (framing, checksums, retention) lives in
//! `elasticflow-persist`; this module only defines the state itself.

use std::collections::{BTreeMap, BTreeSet};

use elasticflow_cluster::ClusterState;
use elasticflow_sched::{JobTable, RestoreError};
use elasticflow_trace::JobId;
use serde::{Deserialize, Serialize};

use crate::TimelinePoint;

/// Version tag embedded in every [`SimSnapshot`]. Bump on any layout or
/// semantics change; resume rejects unknown versions with a typed error.
pub const SIM_SNAPSHOT_VERSION: u32 = 1;

/// Incremental FNV-1a 64-bit hash. Self-contained so checksums and
/// fingerprints do not depend on `std`'s unstable `Hasher` internals;
/// shared by the snapshot fingerprints here, the framing checksums in
/// `elasticflow-persist` and the bench outcome digests. Bytes go in through
/// [`Fnv1a64::update`], [`std::io::Write`] or [`std::fmt::Write`], so a
/// serializer can stream into it; the hash of a byte stream does not
/// depend on how it is cut into writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The hash of no bytes (the FNV-1a-64 offset basis).
    #[inline]
    pub const fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Continues the hash over `bytes`.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte written so far.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

impl std::io::Write for Fnv1a64 {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.update(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.update(bytes);
    hash.finish()
}

/// Fingerprints a serializable value by hashing its canonical JSON
/// encoding (the serializer emits maps in stable order, so equal values
/// fingerprint equally). The JSON streams into the hash: no tree and no
/// string of it is built.
pub(crate) fn fingerprint_json<T: Serialize>(value: &T) -> u64 {
    let mut hash = Fnv1a64::new();
    match value.serialize(&mut serde_json::Serializer::new(&mut hash)) {
        Ok(()) => hash.finish(),
        Err(_) => crate::executor::sim_bug("snapshot fingerprint serialization failed"),
    }
}

/// Per-job accounting mirror of the executor's internal stats record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct JobStatsSnapshot {
    /// Cumulative seconds this job spent paused for scaling, migration, or
    /// failure recovery.
    pub paused_seconds: f64,
    /// Number of allocation changes (scales and evictions) applied to it.
    pub scale_events: u32,
}

/// The executor's full mutable state at the cut.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutorSnapshot {
    /// Cluster allocation state, including buddy occupancy and pinned
    /// phantom blocks standing in for failed servers.
    pub cluster: ClusterState,
    /// Every job seen so far, with live runtime state.
    pub jobs: JobTable,
    /// Per-job pause/scale accounting.
    pub stats: BTreeMap<JobId, JobStatsSnapshot>,
    /// Servers currently failed (their capacity is fenced off).
    pub down_servers: BTreeSet<u32>,
    /// Defragmentation migrations performed so far.
    pub migrations_total: u32,
    /// Total pause seconds charged so far.
    pub total_pause: f64,
    /// Jobs submitted so far.
    pub submitted: usize,
    /// Jobs admitted so far.
    pub admitted: usize,
}

/// Cursor positions into the event core's two static event streams. The
/// streams themselves (trace arrivals, failure/repair transitions) are
/// reconstructed from the run's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCoreSnapshot {
    /// Arrivals already admitted into the run.
    pub next_arrival: usize,
    /// Failure/repair transitions already applied.
    pub next_transition: usize,
}

/// Full resumable state of one simulation run at a round boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSnapshot {
    /// Layout version ([`SIM_SNAPSHOT_VERSION`] at capture time).
    pub version: u32,
    /// Simulated time at the cut, seconds.
    pub now: f64,
    /// Event-loop rounds completed at the cut.
    pub round: u64,
    /// Name of the policy that was driving the run.
    pub scheduler_name: String,
    /// Serialized policy state, `None` for stateless policies (see
    /// [`elasticflow_sched::Scheduler::snapshot_state`]).
    #[serde(default)]
    pub scheduler_state: Option<String>,
    /// Name of the replayed trace.
    pub trace_name: String,
    /// Fingerprint of the full trace (canonical JSON, FNV-1a 64).
    pub trace_fingerprint: u64,
    /// Fingerprint of the cluster spec + sim config pair.
    pub context_fingerprint: u64,
    /// The executor's mutable state.
    pub executor: ExecutorSnapshot,
    /// Event-core cursors.
    pub event_core: EventCoreSnapshot,
    /// Timeline points sampled so far (the resumed run appends to these so
    /// the final report's timeline is seamless).
    pub timeline: Vec<TimelinePoint>,
}

/// Why a snapshot could not be resumed. Every variant is a typed,
/// recoverable error — resume never panics on bad input.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeError {
    /// The snapshot was written by an unknown (newer or retired) layout.
    UnknownVersion {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The snapshot was taken under a different scheduling policy.
    SchedulerMismatch {
        /// Policy name recorded in the snapshot.
        snapshot: String,
        /// Policy name supplied to resume.
        actual: String,
    },
    /// The snapshot belongs to a different trace (name or content).
    TraceMismatch {
        /// What differed: `"name"` or `"fingerprint"`.
        what: &'static str,
    },
    /// The snapshot was taken on a different cluster spec or sim config.
    ContextMismatch,
    /// An event-core cursor points past the end of its stream.
    CursorOutOfRange {
        /// Which cursor (`"arrival"` or `"transition"`).
        cursor: &'static str,
        /// The out-of-range value.
        value: usize,
        /// The stream length.
        len: usize,
    },
    /// The scheduler rejected its serialized state.
    SchedulerState(RestoreError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::UnknownVersion { found, supported } => write!(
                f,
                "unknown snapshot version {found} (this build supports {supported})"
            ),
            ResumeError::SchedulerMismatch { snapshot, actual } => write!(
                f,
                "snapshot was taken under scheduler '{snapshot}', not '{actual}'"
            ),
            ResumeError::TraceMismatch { what } => {
                write!(f, "snapshot belongs to a different trace ({what} differs)")
            }
            ResumeError::ContextMismatch => {
                write!(
                    f,
                    "snapshot was taken on a different cluster spec or config"
                )
            }
            ResumeError::CursorOutOfRange { cursor, value, len } => write!(
                f,
                "snapshot {cursor} cursor {value} exceeds stream length {len}"
            ),
            ResumeError::SchedulerState(e) => write!(f, "scheduler state restore failed: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_hash_ignores_how_the_bytes_are_cut() {
        use std::fmt::Write as _;
        use std::io::Write as _;
        let mut hash = Fnv1a64::default();
        hash.update(b"fo");
        hash.write_all(b"ob").unwrap();
        hash.write_str("ar").unwrap();
        assert_eq!(hash.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn equal_values_fingerprint_equally() {
        let a = vec![1u32, 2, 3];
        let b = vec![1u32, 2, 3];
        assert_eq!(fingerprint_json(&a), fingerprint_json(&b));
        assert_ne!(fingerprint_json(&a), fingerprint_json(&vec![1u32, 2]));
    }

    /// A two-job trace: an SLO job with a soft-deadline neighbour and a
    /// best-effort job, whose infinite deadline encodes as `null`.
    fn small_trace() -> elasticflow_trace::Trace {
        use elasticflow_perfmodel::DnnModel;
        use elasticflow_trace::{JobSpec, Trace};
        let jobs = vec![
            JobSpec::builder(JobId::new(2), DnnModel::Gpt2, 256)
                .iterations(1_500.0)
                .submit_time(30.5)
                .trace_shape(4, 1_200.0)
                .build(),
            JobSpec::builder(JobId::new(1), DnnModel::Bert, 128)
                .iterations(50_000.0)
                .submit_time(0.0)
                .deadline(3_600.0 * 8.0)
                .trace_shape(8, 0.1)
                .build(),
            JobSpec::builder(JobId::new(3), DnnModel::ResNet50, 64)
                .iterations(2.0e-3)
                .submit_time(60.0)
                .soft_deadline(1e21)
                .build(),
        ];
        Trace::new("pin \"small\"\n", jobs)
    }

    /// The trace's canonical JSON and its fingerprint, both pinned: a
    /// serializer change that moves a byte breaks every stored snapshot's
    /// input check, so it must fail here first.
    #[test]
    fn small_trace_fingerprint_is_pinned() {
        let trace = small_trace();
        let json = concat!(
            r#"{"name":"pin \"small\"\n","jobs":["#,
            r#"{"id":1,"model":"Bert","global_batch":128,"iterations":50000.0,"#,
            r#""submit_time":0.0,"deadline":28800.0,"trace_gpus":8,"#,
            r#""trace_duration":0.1,"kind":"Slo"},"#,
            r#"{"id":2,"model":"Gpt2","global_batch":256,"iterations":1500.0,"#,
            r#""submit_time":30.5,"deadline":null,"trace_gpus":4,"#,
            r#""trace_duration":1200.0,"kind":"BestEffort"},"#,
            r#"{"id":3,"model":"ResNet50","global_batch":64,"iterations":0.002,"#,
            r#""submit_time":60.0,"deadline":1e21,"trace_gpus":1,"#,
            r#""trace_duration":0.0,"kind":"SoftDeadline"}]}"#,
        );
        assert_eq!(serde_json::to_string(&trace).unwrap(), json);
        assert_eq!(fingerprint_json(&trace), fnv1a64(json.as_bytes()));
        assert_eq!(fingerprint_json(&trace), 0x09c5_bac8_f1ab_afc1);
    }

    #[test]
    fn resume_errors_render() {
        let e = ResumeError::UnknownVersion {
            found: 9,
            supported: SIM_SNAPSHOT_VERSION,
        };
        assert!(e.to_string().contains("version 9"));
        let e = ResumeError::CursorOutOfRange {
            cursor: "arrival",
            value: 10,
            len: 3,
        };
        assert!(e.to_string().contains("arrival"));
    }
}
