//! `elasticflow-lint` — the workspace's guarantee-soundness static pass.
//!
//! ElasticFlow's value proposition is a *guarantee*: every admitted job
//! meets its deadline. Code that can panic mid-decision, compare floats
//! exactly, read host entropy inside the simulator, or truncate a GPU
//! count with `as` undermines that guarantee in ways ordinary tests miss.
//! This crate is a zero-dependency static-analysis pass that gates those
//! patterns at `cargo test` time (via the root `tests/lint.rs`) and on
//! demand (`cargo run -p elasticflow-lint`).
//!
//! The pass has two tiers. The token tier ([`lexer`] + [`rules`]) catches
//! per-line patterns. The structural tier ([`items`] + [`analysis`])
//! recovers structs, enum variants, impl blocks, and `match` arms from the
//! token stream — no external parser — and checks *shape*: snapshot
//! coverage against a committed manifest (EF-L006), exhaustiveness of
//! matches over replayed enums (EF-L007), and purity of parallel closures
//! (EF-L008). A committed ratchet baseline ([`baseline`]) bounds the
//! violation count per rule so debt can only burn down.
//!
//! # Rules
//!
//! | id | title | scope |
//! |----|-------|-------|
//! | EF-L000 | suppressions must be well-formed, justified, and *used* | all |
//! | EF-L001 | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` | core, cluster, sim, sched |
//! | EF-L002 | no exact float `==`/`!=` against literals | core, cluster, sim, sched, perfmodel |
//! | EF-L003 | no nondeterminism sources (clocks, OS RNGs, hash order) | core, sim, sched |
//! | EF-L004 | no raw float→int `as` casts | core, cluster, sim, sched |
//! | EF-L005 | no literal work-epsilon outside its definition site | core |
//! | EF-L006 | snapshot coverage: persisted engine state must round-trip | sim (via manifest) |
//! | EF-L007 | no catch-all arms in matches over replayed enums | sim, persist, telemetry |
//! | EF-L008 | no side effects / nondeterminism in parallel closures | all |
//!
//! EF-L006 is cross-file: `crates/lint/snapshot-manifest.json` names the
//! persisted state structs, their snapshot counterparts, the
//! capture/restore functions, and the fields deliberately reconstructed on
//! resume. Any drift between the manifest and the code — a new uncaptured
//! field, a stale manifest entry, a capture site that skips a field —
//! fails the lint.
//!
//! # Suppression
//!
//! Any diagnostic can be silenced per line with a mandatory justification:
//!
//! ```text
//! // elasticflow-lint: allow(EF-L001): ledger invariant: committed ≥ profile
//! let c = self.committed.get_mut(t).expect("committed profile");
//! ```
//!
//! A standalone comment suppresses the next token-bearing line; a trailing
//! comment suppresses its own line. Justification-free or misspelled
//! directives are themselves violations (EF-L000) — and so is an allow
//! that matches no finding, so stale suppressions cannot rot in place.
//!
//! # The ratchet
//!
//! `lint-baseline.json` at the workspace root budgets the tolerated
//! violation count per rule (all-zero in the healthy steady state). The
//! binary and the `tests/lint.rs` gate fail when any count rises above
//! budget and hint when it falls below. Regenerate after burning down
//! debt: `cargo run -p elasticflow-lint -- --write-baseline`.
//!
//! # False-positive immunity
//!
//! The lexer strips string literals (all flavors), comments (including doc
//! examples), and test-only regions (`#[cfg(test)]`, `#[test]`,
//! `mod tests`) before rules run, so forbidden spellings in prose, test
//! assertions, or `# Panics` sections never fire. The property tests in
//! `tests/properties.rs` fuzz exactly this claim, and
//! `tests/items_properties.rs` pins the structural extractor's round-trip
//! and totality guarantees.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod baseline;
pub mod items;
pub mod json;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

pub use analysis::{check_snapshot_coverage, parse_manifest, SnapshotManifest, MANIFEST_PATH};
pub use baseline::{
    parse_baseline, ratchet, render_baseline, Baseline, RatchetOutcome, BASELINE_PATH,
};
pub use report::{to_json, to_sarif};
pub use rules::{rule_info, RuleInfo, RULES};
pub use scan::{lint_files, lint_source, lint_workspace, FileAnalysis, LintReport, Violation};

use std::path::PathBuf;

/// The workspace root, derived from this crate's manifest directory
/// (`crates/lint` → two levels up). Usable from any workspace member's
/// build or test context.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or(manifest)
}

/// Formats one violation the way compilers do: `file:line: [rule] message`.
pub fn render_violation(v: &Violation) -> String {
    let title = rule_info(&v.rule).map(|r| r.title).unwrap_or("");
    format!(
        "{}:{}: [{}] {} ({})",
        v.file, v.line, v.rule, v.message, title
    )
}
