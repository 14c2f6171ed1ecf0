//! The lint binary's exit contract: 0 when the report is clean, 1 on any
//! finding, 2 on a usage or I/O error. Each case runs the built binary
//! with `--root` on a throwaway workspace holding one core source file.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory under the system temp dir.
fn empty_root() -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("elasticflow-lint-cli-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp root");
    dir
}

/// A workspace whose only source is `crates/core/src/lib.rs` = `src`.
fn root_with_core_source(src: &str) -> PathBuf {
    let root = empty_root();
    fs::create_dir_all(root.join("crates/core/src")).expect("create core src");
    fs::write(root.join("crates/core/src/lib.rs"), src).expect("write core source");
    root
}

fn run(root: &Path, extra: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_elasticflow-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run elasticflow-lint");
    let _ = fs::remove_dir_all(root);
    out
}

const CLEAN: &str = "pub fn add(a: u32, b: u32) -> u32 {\n    a + b\n}\n";

const ZERO_COMPARE: &str = "pub fn idle(load: f64) -> bool {\n    load == 0.0\n}\n";

const ALLOWED_ZERO_COMPARE: &str = "pub fn idle(load: f64) -> bool {\n    \
     // elasticflow-lint: allow(EF-L002): the load is reset to exactly zero, never summed\n    \
     load == 0.0\n}\n";

#[test]
fn clean_source_exits_zero() {
    let out = run(&root_with_core_source(CLEAN), &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn unjustified_zero_compare_exits_one_and_names_the_line() {
    let out = run(&root_with_core_source(ZERO_COMPARE), &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/core/src/lib.rs:2: [EF-L002]"),
        "{stdout}"
    );
}

#[test]
fn justified_allow_covers_the_zero_compare() {
    let out = run(&root_with_core_source(ALLOWED_ZERO_COMPARE), &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 justified allow(s)"), "{stdout}");
}

#[test]
fn empty_root_exits_two() {
    let out = run(&empty_root(), &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn retired_flags_are_usage_errors() {
    for flags in [
        &["--write-baseline"][..],
        &["--no-ratchet"],
        &["--json"],
        &["--format", "json"],
    ] {
        let out = run(&root_with_core_source(CLEAN), flags);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
    }
}

#[test]
fn rules_lists_the_registry() {
    let out = run(&empty_root(), &["--rules"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split(" — ").next().filter(|id| id.starts_with("EF-L")))
        .collect();
    assert_eq!(
        ids,
        ["EF-L000", "EF-L002", "EF-L005", "EF-L008", "EF-L009"],
        "{stdout}"
    );
}
