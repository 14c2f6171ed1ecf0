//! Workspace gate: `cargo test` fails if any `elasticflow-lint` rule
//! (EF-L000, L002, L005, L006, L008) is violated anywhere in the
//! workspace, unless a justified `allow` comment covers the site.
//!
//! EF-L001, L003, L004 and L007 are clippy lints and fail `cargo clippy`
//! (the CI checks job and `make clippy`), not this test. The same checks
//! are available interactively as `cargo run -p elasticflow-lint`. Rules
//! and the suppression syntax are documented in the `elasticflow_lint`
//! crate docs and in DESIGN.md §7.1.

use std::fs;

use elasticflow_lint::{
    lint_files, lint_workspace, parse_manifest, render_violation, workspace_root, MANIFEST_PATH,
};

#[test]
fn workspace_is_lint_clean() {
    let report = lint_workspace(&workspace_root()).expect("workspace sources readable");
    assert!(
        report.files_scanned > 0,
        "lint scanned no files — workspace layout changed?"
    );
    if !report.is_clean() {
        let mut msg = String::from("guarantee-soundness lint violations:\n");
        for v in &report.violations {
            msg.push_str("  ");
            msg.push_str(&render_violation(v));
            msg.push('\n');
        }
        msg.push_str(
            "\nFix the sites above or suppress with a justified\n\
             `// elasticflow-lint: allow(RULE): <why this is sound>` comment.\n\
             Run `cargo run -p elasticflow-lint -- --rules` for the rule registry.",
        );
        panic!("{msg}");
    }
}

/// Self-check for EF-L006: deliberately drop one field from the *real*
/// Executor capture path and assert the snapshot-coverage rule notices.
/// This proves the rule guards the actual persistence surface, not just
/// synthetic fixtures — if someone adds engine state without extending
/// `SimSnapshot`, `cargo test` names the missing field.
#[test]
fn snapshot_coverage_catches_omitted_field() {
    let root = workspace_root();
    let manifest_src =
        fs::read_to_string(root.join(MANIFEST_PATH)).expect("snapshot manifest readable");
    // Parse once here so a manifest/schema typo fails this test with a
    // clear message instead of surfacing as an opaque EF-L006 finding.
    parse_manifest(&manifest_src).expect("snapshot manifest parses");

    let read = |rel: &str| fs::read_to_string(root.join(rel)).expect(rel);
    let executor = read("crates/sim/src/executor.rs");
    let event = read("crates/sim/src/event.rs");
    let snapshot = read("crates/sim/src/snapshot.rs");
    let engine = read("crates/sim/src/engine.rs");

    // Sever the `submitted` field from Executor::capture. The marker must
    // exist — if the capture body is refactored, update this test rather
    // than silently testing nothing.
    let marker = "submitted: self.submitted,";
    assert!(
        executor.contains(marker),
        "expected `{marker}` in crates/sim/src/executor.rs capture body; \
         capture was refactored — update this self-check"
    );
    let doctored = executor.replace(marker, "");

    let files = [
        ("sim", "crates/sim/src/executor.rs", doctored.as_str()),
        ("sim", "crates/sim/src/event.rs", event.as_str()),
        ("sim", "crates/sim/src/snapshot.rs", snapshot.as_str()),
        ("sim", "crates/sim/src/engine.rs", engine.as_str()),
    ];
    let report = lint_files(&files, Some(&manifest_src));
    let hit = report
        .violations
        .iter()
        .find(|v| v.rule == "EF-L006" && v.message.contains("submitted"));
    assert!(
        hit.is_some(),
        "EF-L006 failed to flag the omitted `submitted` field; got: {:?}",
        report.violations
    );
}

/// Negative control for the self-check above: the undoctored sim sources
/// are EF-L006-clean under the committed manifest.
#[test]
fn snapshot_coverage_accepts_real_sources() {
    let root = workspace_root();
    let manifest_src =
        fs::read_to_string(root.join(MANIFEST_PATH)).expect("snapshot manifest readable");
    let read = |rel: &str| fs::read_to_string(root.join(rel)).expect(rel);
    let executor = read("crates/sim/src/executor.rs");
    let event = read("crates/sim/src/event.rs");
    let snapshot = read("crates/sim/src/snapshot.rs");
    let engine = read("crates/sim/src/engine.rs");
    let files = [
        ("sim", "crates/sim/src/executor.rs", executor.as_str()),
        ("sim", "crates/sim/src/event.rs", event.as_str()),
        ("sim", "crates/sim/src/snapshot.rs", snapshot.as_str()),
        ("sim", "crates/sim/src/engine.rs", engine.as_str()),
    ];
    let report = lint_files(&files, Some(&manifest_src));
    let l006: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "EF-L006")
        .collect();
    assert!(
        l006.is_empty(),
        "real sim sources should satisfy the snapshot manifest; got: {l006:?}"
    );
}
