//! Mega-cluster digest gates: the paper-scale run (1M arrivals on
//! 16,384 GPUs) and its CI-sized smoke (100k arrivals on 1,024 GPUs,
//! same generator, same load per GPU, same digest construction).
//!
//! The pinned digests make them determinism gates for the whole
//! data-layout stack at scale — the event core, the dense job arenas, and
//! the indexed allocation table must reproduce the exact event order and
//! job arithmetic or the digest moves.
//!
//! Both tests are `#[ignore]`d because they need a release build to
//! finish quickly. CI runs the smoke only:
//! `cargo test -q --release -p elasticflow-bench --test mega_cluster -- --ignored --exact mega_cluster_smoke_matches_golden_digest`.
//! The paper-scale run takes about a minute in release:
//! `cargo test -q --release -p elasticflow-bench --test mega_cluster -- --ignored --exact mega_cluster_paper_scale_matches_golden_digest`.
//! To re-capture after an *intentional* observable change, add
//! `MEGA_SMOKE_PRINT=1` and `--nocapture` to either command.

use elasticflow_bench::mega::{run_mega, MegaConfig, MegaStats};

/// Golden digest of the smoke run's per-outcome JSON stream.
const SMOKE_DIGEST: u64 = 0xc92b_4b22_3b5f_af20;

/// Golden digest of the paper-scale run's per-outcome JSON stream.
const PAPER_SCALE_DIGEST: u64 = 0xf772_1004_a83c_5432;

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
