//! The corpus items whose lints every crate denies: the workspace
//! `[lints]` table and the root `clippy.toml` (see the parent module).

#![expect(dead_code, reason = "the corpus is linted, never called")]

use std::time::{Instant, SystemTime};

/// `true` when `text[at..]` starts with `prefix`.
const fn starts_at(text: &[u8], at: usize, prefix: &[u8]) -> bool {
    if at + prefix.len() > text.len() {
        return false;
    }
    let mut i = 0;
    while i < prefix.len() {
        if text[at + i] != prefix[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// `true` when a line of `text` starts with `head` followed by `tail` (a
/// `const fn`, so the table checks below run at compile time).
const fn has_line(text: &str, head: &[u8], tail: &[u8]) -> bool {
    let text = text.as_bytes();
    let mut at = 0;
    while at < text.len() {
        if starts_at(text, at, head) && starts_at(text, at + head.len(), tail) {
            return true;
        }
        while at < text.len() && text[at] != b'\n' {
            at += 1;
        }
        at += 1;
    }
    false
}

/// The including crate's manifest, and the workspace's.
const OWN: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
const ROOT: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../Cargo.toml"));

/// The `[lints]` table in force for the including crate: its own, or the
/// workspace's when it opts in with `workspace = true`.
const LINTS: &str = if has_line(OWN, b"[lints]\nworkspace = true", b"") {
    ROOT
} else {
    OWN
};

/// Fails the build unless the table in force denies every lint in `lints`.
/// An `#[expect]` turns its lint on in its own scope, so the items below
/// stay fulfilled when a table stops denying their lint; this catches that.
pub(super) const fn denied(lints: &[&str]) {
    let mut k = 0;
    while k < lints.len() {
        assert!(
            has_line(LINTS, lints[k].as_bytes(), b" = \"deny\""),
            "a corpus lint is not denied in the [lints] table in force"
        );
        k += 1;
    }
}

// `unfulfilled_lint_expectations` turns every `#[expect]` below that no
// longer fires into an error.
const _: () = denied(&["unfulfilled_lint_expectations"]);

// EF-L000: every suppression is a reasoned `#[expect]`.

const _: () = denied(&["allow_attributes", "allow_attributes_without_reason"]);

#[expect(
    clippy::allow_attributes,
    reason = "EF-L000: an `allow` instead of an `expect`"
)]
#[allow(unused_variables, reason = "allowed, not expected")]
fn allow_instead_of_expect(unused: u32) {}

#[expect(
    clippy::allow_attributes_without_reason,
    reason = "EF-L000: a suppression without a reason"
)]
#[expect(unused_variables)]
fn suppression_without_reason(unused: u32) {}

// EF-L001: `.unwrap()`.

const _: () = denied(&["unwrap_used"]);

#[expect(clippy::unwrap_used, reason = "EF-L001: `.unwrap()` on an Option")]
fn unwrap_option(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[expect(clippy::unwrap_used, reason = "EF-L001: `.unwrap()` on a Result")]
fn unwrap_result(x: Result<u32, ()>) -> u32 {
    x.unwrap()
}

// EF-L002: exact float equality against a nonzero literal, either side.

const _: () = denied(&["float_cmp"]);

#[expect(clippy::float_cmp, reason = "EF-L002: `a == 1.0`")]
fn literal_on_the_right(a: f64) -> bool {
    a == 1.0
}

#[expect(clippy::float_cmp, reason = "EF-L002: `1.5 != y`")]
fn literal_on_the_left(y: f64) -> bool {
    1.5 != y
}

#[expect(clippy::float_cmp, reason = "EF-L002: `2.5 != b` on an f32")]
fn single_precision(b: f32) -> bool {
    2.5 != b
}

// EF-L003: host clocks and hash-order collections. These lints are
// configured by `clippy.toml` keys, so the items go unfulfilled when a key
// is deleted; they are warnings, which `-D warnings` (CI, `make clippy`)
// turns into errors.

#[expect(clippy::disallowed_methods, reason = "EF-L003: `Instant::now()`")]
fn instant_now() -> Instant {
    Instant::now()
}

#[expect(clippy::disallowed_methods, reason = "EF-L003: `SystemTime::now()`")]
fn system_time_now() -> SystemTime {
    SystemTime::now()
}

#[expect(
    clippy::disallowed_types,
    reason = "EF-L003: `HashMap` as a type and a path"
)]
fn hash_map() -> usize {
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    m.len()
}

#[expect(clippy::disallowed_types, reason = "EF-L003: `HashSet::new()`")]
fn hash_set() -> usize {
    std::collections::HashSet::<u32>::new().len()
}

// EF-L006: snapshot restore paths destructure every field by name, so a
// field bound and then dropped is an unused variable.

const _: () = denied(&["unused_variables"]);

struct Snapshot {
    kept: u32,
    dropped: u32,
}

#[expect(
    unused_variables,
    reason = "EF-L006: restore binds a snapshot field and drops it"
)]
fn restore_drops_a_field(snap: Snapshot) -> u32 {
    let Snapshot { kept, dropped } = snap;
    kept
}

// EF-L007: catch-all arms that swallow variants added later.

const _: () = denied(&[
    "wildcard_enum_match_arm",
    "match_wildcard_for_single_variants",
]);

enum Replayed {
    Arrival,
    Completion,
    SlotBoundary,
}

#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "EF-L007: `_ =>` over several variants"
)]
fn wildcard(e: Replayed) -> u32 {
    match e {
        Replayed::Arrival => 1,
        _ => 0,
    }
}

#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "EF-L007: a bare binding over several variants"
)]
fn binding(e: Replayed) -> u32 {
    match e {
        Replayed::Arrival => 1,
        other => u32::from(matches!(other, Replayed::Completion)),
    }
}

#[expect(
    clippy::match_wildcard_for_single_variants,
    reason = "EF-L007: `_ =>` over the one remaining variant"
)]
fn wildcard_for_one(e: Replayed) -> u32 {
    match e {
        Replayed::Arrival | Replayed::Completion => 1,
        _ => 0,
    }
}

#[expect(
    clippy::match_wildcard_for_single_variants,
    reason = "EF-L007: a bare binding over the one remaining variant"
)]
fn binding_for_one(e: Replayed) -> u32 {
    match e {
        Replayed::Arrival | Replayed::Completion => 1,
        other => u32::from(matches!(other, Replayed::SlotBoundary)),
    }
}
