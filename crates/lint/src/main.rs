//! CLI entry point for the guarantee-soundness lint.
//!
//! Exit status contract (also printed by `--help`):
//!   0 — no finding: the workspace is clean, or every finding is covered
//!       by a justified `// elasticflow-lint: allow(RULE): <why>`;
//!   1 — at least one finding;
//!   2 — usage or I/O error (bad flag, unreadable root, zero files
//!       scanned).

use std::process::ExitCode;

use elasticflow_lint::{lint_workspace, render_violation, workspace_root, RULES};

fn main() -> ExitCode {
    let mut show_rules = false;
    let mut root = workspace_root();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rules" => show_rules = true,
            "--root" => match args.next() {
                Some(dir) => root = dir.into(),
                None => {
                    eprintln!("error: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    if show_rules {
        print_rules();
        return ExitCode::SUCCESS;
    }
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if report.files_scanned == 0 {
        // A clean report over zero files is a misconfigured root, not a
        // clean workspace — fail loudly instead of green-lighting nothing.
        eprintln!(
            "error: no sources found under {} (expected crates/*/src)",
            root.display()
        );
        return ExitCode::from(2);
    }

    for v in &report.violations {
        println!("{}", render_violation(v));
    }
    println!(
        "elasticflow-lint: {} file(s) scanned, {} violation(s), {} justified allow(s)",
        report.files_scanned,
        report.violations.len(),
        report.allows_used
    );

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_help() {
    println!(
        "elasticflow-lint: guarantee-soundness static analysis\n\n\
         USAGE: elasticflow-lint [--rules] [--root DIR]\n\n\
         --rules      print the rule registry and exit\n\
         --root DIR   workspace root to scan (default: this checkout)\n\n\
         EXIT STATUS:\n\
         \x200  no finding (findings under a justified allow comment do not count)\n\
         \x201  at least one finding\n\
         \x202  usage or I/O error (bad flag, unreadable root, no files)"
    );
}

fn print_rules() {
    for r in RULES {
        let scope = if r.crates.is_empty() {
            "all scanned crates".to_string()
        } else {
            r.crates.join(", ")
        };
        println!(
            "{} — {}\n  scope: {}\n  why:   {}\n  fix:   {}\n",
            r.id, r.title, scope, r.rationale, r.remedy
        );
    }
}
