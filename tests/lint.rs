//! Workspace gate: `cargo test` fails if any `elasticflow-lint` rule
//! (EF-L000, L002, L005, L008, L009) is violated anywhere in the
//! workspace, unless a justified `allow` comment covers the site.
//!
//! EF-L001, L003, L004 and L007 are clippy lints and fail `cargo clippy`
//! (the CI checks job and `make clippy`), not this test. EF-L006 (snapshot
//! coverage) fails `cargo build`: every capture and restore is an
//! exhaustive pattern, and `unused_variables` is denied. `make lint` runs
//! this test alone. DESIGN.md §7.1 gives every rule's rationale and
//! remedy; the suppression syntax is in the `elasticflow_lint` crate docs.

use elasticflow_lint::{lint_workspace, render_violation, workspace_root};

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
             DESIGN.md §7.1 explains each rule and its remedy.",
        );
        panic!("{msg}");
    }
}
