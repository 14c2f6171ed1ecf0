//! The crash-restart drill: an end-to-end proof that persistence is
//! replay-exact under the worst conditions the simulator can produce.
//!
//! The drill runs the failure-injection scenario (node failures and
//! repairs mid-workload, §4.4) three times:
//!
//! 1. **baseline** — uninterrupted, no persistence; its report digest is
//!    the ground truth;
//! 2. **crash** — with checkpointing and the write-ahead log attached,
//!    hard-killed mid-run (no final checkpoint, like a real crash);
//! 3. **resume** — recovered from the state directory and run to
//!    completion.
//!
//! The resumed report must digest identically to the baseline, and the
//! write-ahead log left behind by crash + resume must be byte-identical
//! to the log of an uninterrupted persisted run. Any divergence is a
//! determinism bug, reported with both digests.

use std::path::Path;

use elasticflow_cluster::ClusterSpec;
use elasticflow_perfmodel::Interconnect;
use elasticflow_persist::PersistSession;
use elasticflow_sim::{fnv1a64, FailureSchedule, NodeFailure, SimConfig, SimReport, Simulation};
use elasticflow_trace::TraceConfig;

use crate::runners::scheduler_by_name;

/// The scheduler the drill exercises (the paper's own policy — the most
/// stateful one, so the hardest to resume correctly).
const DRILL_SCHEDULER: &str = "elasticflow";

/// Outcome of one crash-restart drill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrillReport {
    /// Digest of the uninterrupted baseline report.
    pub baseline_digest: u64,
    /// Digest of the crash-then-resume report.
    pub resumed_digest: u64,
    /// Round the crash was injected at.
    pub kill_round: u64,
    /// Snapshots cut before the crash.
    pub checkpoints_before_crash: u64,
    /// `true` when the crash+resume write-ahead log is byte-identical to
    /// an uninterrupted persisted run's log.
    pub wal_byte_identical: bool,
}

impl DrillReport {
    /// `true` when the drill proved bit-identical recovery.
    pub fn passed(&self) -> bool {
        self.baseline_digest == self.resumed_digest && self.wal_byte_identical
    }
}

impl std::fmt::Display for DrillReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "crash-restart drill: killed at round {}, {} checkpoint(s) on disk",
            self.kill_round, self.checkpoints_before_crash
        )?;
        writeln!(f, "  baseline digest: 0x{:016x}", self.baseline_digest)?;
        writeln!(f, "  resumed  digest: 0x{:016x}", self.resumed_digest)?;
        writeln!(
            f,
            "  write-ahead log byte-identical to uninterrupted run: {}",
            self.wal_byte_identical
        )?;
        write!(
            f,
            "  verdict: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

fn digest(report: &SimReport) -> Result<u64, String> {
    let json =
        serde_json::to_string(report).map_err(|e| format!("report failed to serialize: {e}"))?;
    Ok(fnv1a64(json.as_bytes()))
}

/// Runs the drill inside `state_dir` (which gets `crash/` and `full/`
/// subdirectories), checkpointing every `every_seconds` of simulated
/// time. Returns an error string on infrastructure failure; a
/// *divergence* is reported through [`DrillReport::passed`] so callers
/// can print both digests.
pub fn run_crash_drill(
    state_dir: &Path,
    seed: u64,
    every_seconds: f64,
) -> Result<DrillReport, String> {
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(seed).generate(&Interconnect::from_spec(&spec));
    let failures = FailureSchedule::fixed(vec![
        NodeFailure {
            server: 1,
            at: 1_200.0,
            repair_seconds: 3_600.0,
        },
        NodeFailure {
            server: 0,
            at: 5_400.0,
            repair_seconds: 1_800.0,
        },
    ]);
    let config = SimConfig::default().with_failures(failures);
    let sim = Simulation::new(spec, config);

    // Phase 1: uninterrupted baseline (one tick per round, so the
    // timeline length doubles as the round count).
    let baseline = sim.run(&trace, scheduler_by_name(DRILL_SCHEDULER).as_mut());
    let baseline_digest = digest(&baseline)?;
    let rounds = baseline.timeline().len() as u64;
    if rounds < 4 {
        return Err(format!(
            "scenario too short to crash mid-run ({rounds} rounds)"
        ));
    }
    let kill_round = rounds / 2;

    let run = |session: &mut PersistSession| {
        let mut scheduler = scheduler_by_name(DRILL_SCHEDULER);
        session.run(&sim, &trace, scheduler.as_mut(), &mut [])
    };

    // Phase 2: persisted run, hard-killed mid-flight.
    let crash_dir = state_dir.join("crash");
    let mut session = PersistSession::begin(&crash_dir, every_seconds, false)
        .map_err(|e| format!("opening {}: {e}", crash_dir.display()))?
        .kill_at_round(kill_round);
    let crashed = run(&mut session).map_err(|e| format!("fresh run rejected: {e}"))?;
    if crashed.completed {
        return Err("kill round never fired; the crash phase ran to completion".to_owned());
    }
    let checkpoints_before_crash = session.stats().checkpoints;
    if checkpoints_before_crash == 0 {
        return Err(format!(
            "no checkpoint was cut before round {kill_round}; lower --checkpoint-every"
        ));
    }
    if let Some(e) = session.first_error() {
        return Err(format!("persistence error during crash phase: {e}"));
    }
    drop(session);

    // Phase 3: recover and run to completion.
    let mut session = PersistSession::begin(&crash_dir, every_seconds, true)
        .map_err(|e| format!("recovering {}: {e}", crash_dir.display()))?;
    if session.snapshot().is_none() {
        return Err("recovery found no snapshot after the crash phase".to_owned());
    }
    let resumed = run(&mut session).map_err(|e| format!("resume rejected: {e}"))?;
    if !resumed.completed {
        return Err("resumed run stopped early".to_owned());
    }
    let resumed_digest = digest(&resumed.report)?;
    drop(session);

    // Reference: an uninterrupted *persisted* run, for WAL comparison.
    let full_dir = state_dir.join("full");
    let mut session = PersistSession::begin(&full_dir, every_seconds, false)
        .map_err(|e| format!("opening {}: {e}", full_dir.display()))?;
    run(&mut session).map_err(|e| format!("fresh run rejected: {e}"))?;
    drop(session);
    let crash_wal = std::fs::read(crash_dir.join("events.wal"))
        .map_err(|e| format!("reading crash-phase log: {e}"))?;
    let full_wal = std::fs::read(full_dir.join("events.wal"))
        .map_err(|e| format!("reading reference log: {e}"))?;

    Ok(DrillReport {
        baseline_digest,
        resumed_digest,
        kill_round,
        checkpoints_before_crash,
        wal_byte_identical: crash_wal == full_wal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drill_passes_on_the_failure_scenario() {
        let dir =
            std::env::temp_dir().join(format!("elasticflow-bench-drill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report = run_crash_drill(&dir, 13, 600.0).expect("drill infrastructure");
        assert!(report.passed(), "{report}");
    }
}
