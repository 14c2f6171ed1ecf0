//! The retired lint rules' violation forms, one item each, every one
//! `#[expect]`ed at the clippy lint that now enforces it.
//!
//! EF-L001, EF-L003, EF-L004 and EF-L007 (and EF-L002's general case) used
//! to be token checks in `elasticflow-lint`, and EF-L006 a cross-file
//! snapshot-coverage check; they are compiler and clippy lints now, set in
//! each crate's `[lints]` table and in the root `clippy.toml`. This
//! module holds every form those rules' tests flagged. Each item's
//! `#[expect(…, reason = "EF-L00N: <form>")]` is denied by
//! `unfulfilled_lint_expectations` once clippy stops flagging the form
//! (a clippy change, or a key deleted from `clippy.toml`). An `#[expect]`
//! turns its lint on in its own scope, though, so it stays fulfilled when
//! a `[lints]` table stops denying the lint; for that, a `const` check next
//! to each group reads the including crate's manifest at compile time and
//! fails unless the table in force holds `<lint> = "deny"`. So `cargo
//! clippy` itself proves no rule got looser.
//!
//! The module exists only under clippy (`#[cfg(clippy)]`): `cargo build`
//! never compiles it. The decision crates (core, cluster, sim, sched)
//! include this file, so each of their `[lints]` tables is checked;
//! `elasticflow-lint` includes [`workspace`] alone, which checks the
//! workspace table. Forms clippy does not flag stay with the lint (EF-L002
//! for zero literals and for the bodies of `eq`-like functions).
//!
//! `rand::thread_rng` and `rand::SeedableRng::from_entropy` are banned in
//! `clippy.toml` too, but no crate depends on `rand`, so they cannot be
//! written here.

#![expect(dead_code, reason = "the corpus is linted, never called")]

mod workspace;

use workspace::denied;

// EF-L001: panics in decision code (`unwrap_used` lives in `workspace`).

const _: () = denied(&["expect_used", "panic", "todo", "unimplemented"]);

#[expect(clippy::expect_used, reason = "EF-L001: `.expect(…)` on an Option")]
fn expect_option(x: Option<u32>) -> u32 {
    x.expect("m")
}

#[expect(clippy::expect_used, reason = "EF-L001: `.expect(…)` on a Result")]
fn expect_result(x: Result<u32, ()>) -> u32 {
    x.expect("boom")
}

#[expect(clippy::panic, reason = "EF-L001: `panic!`")]
fn panic_macro() -> u32 {
    panic!("no")
}

#[expect(clippy::todo, reason = "EF-L001: `todo!`")]
fn todo_macro() -> u32 {
    todo!()
}

#[expect(clippy::unimplemented, reason = "EF-L001: `unimplemented!`")]
fn unimplemented_macro() -> u32 {
    unimplemented!()
}

// EF-L004: float -> int `as` casts. Each form loses the sign and
// truncates, so each trips both lints.

const _: () = denied(&["cast_possible_truncation", "cast_sign_loss"]);

#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "EF-L004: `x.ceil() as usize`"
)]
fn ceil_as_usize(x: f64) -> usize {
    x.ceil() as usize
}

#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "EF-L004: `(a / b).floor() as u32`"
)]
fn floor_of_quotient_as_u32(a: f64, b: f64) -> u32 {
    (a / b).floor() as u32
}

#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "EF-L004: `(x / y).ceil().max(1.0) as usize`"
)]
fn clamped_ceil_as_usize(x: f64, y: f64) -> usize {
    (x / y).ceil().max(1.0) as usize
}

#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "EF-L004: a float temporary `need_f as usize`"
)]
fn float_temporary_as_usize(need_f: f64) -> usize {
    need_f as usize
}

#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "EF-L004: a float literal `2.5 as u64`"
)]
fn float_literal_as_u64() -> u64 {
    2.5 as u64
}
