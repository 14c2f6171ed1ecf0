//! Command-line checks of both binaries: a cluster shape that buddy
//! allocation cannot host is a usage error, refused before any state is
//! written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// Cluster flags no cluster can be built from: counts that are not
/// powers of two, zero, and a GPU count past `u32::MAX`.
const BAD_SHAPES: [&[&str]; 5] = [
    &["--servers", "3"],
    &["--servers", "0"],
    &["--gpus-per-server", "3"],
    &["--gpus-per-server", "0"],
    &["--servers", "65536", "--gpus-per-server", "65536"],
];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ef-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn serve(state_dir: &Path, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_elasticflow-serve"))
        .arg("--state-dir")
        .arg(state_dir)
        .args(flags)
        .stdin(Stdio::null())
        .output()
        .expect("serve runs")
}

#[test]
fn serve_refuses_a_bad_cluster_shape_before_writing_state() {
    let root = tmp("serve");
    let state_dir = root.join("state");
    for flags in BAD_SHAPES {
        let out = serve(&state_dir, flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(
            stderr.contains("usage: elasticflow-serve"),
            "{flags:?}: {stderr}"
        );
        assert!(!state_dir.exists(), "{flags:?} created the state directory");
    }
    // Nothing was left behind, so a valid start there is a fresh one.
    let out = serve(&state_dir, &["--servers", "2", "--gpus-per-server", "8"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("fresh state"), "{stderr}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn loadgen_refuses_a_bad_cluster_shape() {
    for flags in BAD_SHAPES {
        let out = Command::new(env!("CARGO_BIN_EXE_elasticflow-loadgen"))
            .args(["--arrivals", "3"])
            .args(flags)
            .output()
            .expect("loadgen runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(
            stderr.contains("usage: elasticflow-loadgen"),
            "{flags:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flags:?} wrote requests");
    }
}
