//! `elasticflow-lint` — the workspace's guarantee-soundness static pass.
//!
//! ElasticFlow's value proposition is a *guarantee*: every admitted job
//! meets its deadline. Code that can panic mid-decision, compare floats
//! exactly, read host entropy inside the simulator, truncate a GPU count
//! with `as`, or swallow a replayed variant in a catch-all arm undermines
//! that guarantee in ways ordinary tests miss. Clippy enforces most of
//! this (the `[lints]` tables in the workspace manifests and the root
//! `clippy.toml`, see DESIGN.md §7.1); this crate is the zero-dependency
//! pass for what clippy cannot see. It gates at `cargo test` time, through
//! the root `tests/lint.rs` (`make lint` runs that test alone).
//!
//! The pass is a token tier: [`lexer`] strips comments, string contents
//! and test regions, and [`rules`] matches per-line patterns in what is
//! left. Any finding fails the gate; a justified `allow` comment is the
//! one way to tolerate one.
//!
//! # Rules
//!
//! | id | title | scope |
//! |----|-------|-------|
//! | EF-L000 | suppressions must be well-formed, justified, and *used* | all |
//! | EF-L002 | no exact float `==`/`!=` against a literal where clippy's `float_cmp` is silent | core, cluster, sim, sched, perfmodel |
//! | EF-L005 | no literal work-epsilon outside its definition site | core |
//! | EF-L008 | no side effects / nondeterminism in parallel closures | all |
//! | EF-L009 | no `macro_rules!` in decision code | core, cluster, sim, sched |
//!
//! EF-L001, EF-L003, EF-L004 and EF-L007 are clippy lints now, and so is
//! the general case of EF-L002; `crates/sim/src/clippy_corpus` holds one
//! `#[expect]`ed item per form those rules flagged and checks that the
//! `[lints]` tables deny their lints, so `cargo clippy` fails if one of
//! them ever stops being flagged.
//!
//! EF-L006 (snapshot coverage) is the compiler's job: every snapshot
//! capture and restore destructures its struct with an exhaustive pattern,
//! so a new state field fails to compile (E0027) until it is captured or
//! marked `_` with a reason, and a snapshot field restore binds but drops
//! is an unused variable, which every `[lints]` table denies. EF-L009
//! keeps decision code out of `macro_rules!` bodies, which clippy does not
//! lint.
//!
//! # Suppression
//!
//! Any diagnostic can be silenced per line with a mandatory justification:
//!
//! ```text
//! // elasticflow-lint: allow(EF-L005): canonical definition site of the shared epsilon
//! pub const WORK_EPSILON: f64 = 1e-9;
//! ```
//!
//! A standalone comment suppresses the next token-bearing line; a trailing
//! comment suppresses its own line. Justification-free or misspelled
//! directives are themselves violations (EF-L000) — and so is an allow
//! that matches no finding, so stale suppressions cannot rot in place.
//! Clippy's findings are suppressed the same way on the compiler's side:
//! `#[expect(clippy::…, reason = "…")]`, which fails once it stops firing.
//!
//! # False-positive immunity
//!
//! The lexer strips string literals (all flavors), comments (including doc
//! examples), and test-only regions (`#[cfg(test)]`, `#[test]`,
//! `mod tests`) before rules run, so forbidden spellings in prose, test
//! assertions, or `# Panics` sections never fire. The property tests in
//! `tests/properties.rs` fuzz exactly this claim.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod scan;

// The corpus items the workspace `[lints]` table and `clippy.toml` deny,
// compiled by clippy only (see `crates/sim/src/clippy_corpus/mod.rs`).
#[cfg(clippy)]
#[path = "../../sim/src/clippy_corpus/workspace.rs"]
mod clippy_corpus;

pub use scan::{lint_source, lint_workspace, LintReport, Violation};

use std::path::PathBuf;

use rules::rule_info;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_renders_as_file_line_rule_message() {
        let v = lint_source(
            "fn f() {\n    a == 0.0;\n}\n",
            "core",
            "crates/core/src/lib.rs",
        );
        let line = render_violation(&v[0]);
        assert!(
            line.starts_with("crates/core/src/lib.rs:2: [EF-L002] exact float `==`"),
            "{line}"
        );
    }
}
