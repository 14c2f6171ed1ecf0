//! Mega-cluster digest gates: the paper-scale run (1M arrivals on
//! 16,384 GPUs) and its CI-sized smoke (100k arrivals on 1,024 GPUs,
//! same generator, same load per GPU, same digest construction).
//!
//! The pinned digests make them determinism gates for the whole
//! data-layout stack at scale — the event core, the dense job arenas, and
//! the indexed allocation table must reproduce the exact event order and
//! job arithmetic or the digest moves.
//!
//! Those two run EDF, which never reaches Algorithm 2, and are
//! `#[ignore]`d because they need a release build to finish quickly. CI
//! runs the smoke only:
//! `cargo test -q --release -p elasticflow-bench --test mega_cluster -- --ignored --exact mega_cluster_smoke_matches_golden_digest`.
//! The paper-scale run takes about a minute in release:
//! `cargo test -q --release -p elasticflow-bench --test mega_cluster -- --ignored --exact mega_cluster_paper_scale_matches_golden_digest`.
//! To re-capture after an *intentional* observable change, add
//! `MEGA_SMOKE_PRINT=1` and `--nocapture` to any command here.
//!
//! Two gates run ElasticFlow on the same generator with 15,000
//! arrivals. The one on the smoke's 1,024 GPUs is not ignored, so every
//! debug `cargo test` drives Algorithms 1 and 2 at 1,024 GPUs with the
//! planner's recompute-and-assert checks and both invariant auditors
//! (`check_plan` on every plan) on. The one on the
//! paper-scale cluster (16,384 GPUs, where Algorithm 2 is most of the
//! planning time) is `#[ignore]`d and needs a release build (a few
//! seconds); CI's release mega step runs it:
//! `cargo test -q --release -p elasticflow-bench --test mega_cluster -- --ignored --exact elasticflow_at_paper_scale_shape_matches_golden_digest`.

use elasticflow_bench::mega::{mega_trace, outcome_digest, run_mega, MegaConfig, MegaStats};
use elasticflow_cluster::ClusterSpec;
use elasticflow_core::ElasticFlowScheduler;
use elasticflow_sim::{SimConfig, Simulation};

/// Golden digest of the smoke run's per-outcome JSON stream.
const SMOKE_DIGEST: u64 = 0xc92b_4b22_3b5f_af20;

/// Golden digest of the paper-scale run's per-outcome JSON stream.
const PAPER_SCALE_DIGEST: u64 = 0xf772_1004_a83c_5432;

/// Arrivals of the ElasticFlow gate: the smoke's generator, cut short to
/// the trace perfbench's `sim_elasticflow` workload replays at seed 0.
const ELASTICFLOW_ARRIVALS: usize = 15_000;

/// Golden digest of the ElasticFlow gate's per-outcome JSON stream (the
/// same value perfbench pins for `sim_elasticflow` at seed 0).
const ELASTICFLOW_DIGEST: u64 = 0xee9c_ba58_5af9_24be;

/// Golden digest of the ElasticFlow gate on the paper-scale cluster.
const ELASTICFLOW_16K_DIGEST: u64 = 0xaf18_4180_d36a_1029;

fn print_if_asked(label: &str, stats: &MegaStats) {
    if std::env::var("MEGA_SMOKE_PRINT").is_ok() {
        eprintln!(
            "mega {label}: digest {:#018x}, {} events, {} completed",
            stats.digest, stats.events, stats.completed
        );
    }
}

#[test]
#[ignore = "needs a release build; CI runs it with -- --ignored"]
fn mega_cluster_smoke_matches_golden_digest() {
    let cfg = MegaConfig::smoke();
    let stats = run_mega(&cfg);
    print_if_asked("smoke", &stats);
    assert_eq!(stats.arrivals, 100_000);
    assert_eq!(stats.total_gpus, 1_024);
    assert_eq!(stats.dropped, 0, "EDF admits everything");
    assert!(
        stats.completed > stats.arrivals / 2,
        "most jobs should finish at smoke load, got {}/{}",
        stats.completed,
        stats.arrivals
    );
    assert_eq!(
        stats.digest, SMOKE_DIGEST,
        "mega-cluster outcome digest changed: the data-layout stack no \
         longer reproduces the golden event order (got {:#018x})",
        stats.digest
    );
}

#[test]
#[ignore = "needs a release build and about a minute"]
fn mega_cluster_paper_scale_matches_golden_digest() {
    let stats = run_mega(&MegaConfig::paper_scale());
    print_if_asked("paper scale", &stats);
    assert_eq!(stats.arrivals, 1_000_000);
    assert_eq!(stats.total_gpus, 16_384);
    assert_eq!(stats.events, 2_003_336);
    assert_eq!(stats.completed, 1_000_000);
    assert_eq!(stats.dropped, 0, "EDF admits everything");
    assert_eq!(
        stats.digest, PAPER_SCALE_DIGEST,
        "paper-scale outcome digest changed (got {:#018x})",
        stats.digest
    );
}

/// Runs ElasticFlow on `cfg`'s cluster and trace, cut to
/// [`ELASTICFLOW_ARRIVALS`] arrivals. Returns the outcome digest and the
/// number of declined jobs.
fn run_elasticflow(label: &str, cfg: MegaConfig) -> (u64, usize) {
    let cfg = MegaConfig {
        arrivals: ELASTICFLOW_ARRIVALS,
        ..cfg
    };
    let report = Simulation::new(
        ClusterSpec::with_servers(cfg.servers, cfg.gpus_per_server),
        SimConfig::default(),
    )
    .run(&mega_trace(&cfg), &mut ElasticFlowScheduler::new());
    assert_eq!(report.outcomes().len(), ELASTICFLOW_ARRIVALS);
    let digest = outcome_digest(&report);
    if std::env::var("MEGA_SMOKE_PRINT").is_ok() {
        eprintln!(
            "mega {label}: digest {digest:#018x}, {} dropped",
            report.dropped()
        );
    }
    (digest, report.dropped())
}

#[test]
fn elasticflow_at_mega_shape_matches_golden_digest() {
    let (digest, dropped) = run_elasticflow("elasticflow", MegaConfig::smoke());
    assert_eq!(dropped, 2_850);
    assert_eq!(
        digest, ELASTICFLOW_DIGEST,
        "ElasticFlow mega-shape outcome digest changed (got {digest:#018x})"
    );
}

#[test]
#[ignore = "needs a release build; CI runs it with -- --ignored"]
fn elasticflow_at_paper_scale_shape_matches_golden_digest() {
    let (digest, dropped) = run_elasticflow("elasticflow 16k", MegaConfig::paper_scale());
    assert_eq!(dropped, 2_909);
    assert_eq!(
        digest, ELASTICFLOW_16K_DIGEST,
        "ElasticFlow outcome digest on 16,384 GPUs changed (got {digest:#018x})"
    );
}
