//! The rule registry and per-rule token checks.
//!
//! Every rule has an id (`EF-L00N`), a crate scope (which workspace crates
//! it gates), and a token-level check. Checks run on the *stripped* token
//! stream (comments, string contents, and test-only regions removed by the
//! lexer), so the documented patterns cannot false-positive on prose or
//! test code. Suppression is per-line via
//! `// elasticflow-lint: allow(EF-L00N): <justification>`.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::lexer::{Token, TokenKind};

/// A reported rule violation before file attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawViolation {
    /// Rule id, e.g. `EF-L002`.
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the offending pattern.
    pub message: String,
}

/// Static description of one rule. DESIGN.md §7.1 gives each rule's
/// rationale and remedy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RuleInfo {
    /// Stable id.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Workspace crates (directory names under `crates/`) the rule gates.
    pub crates: &'static [&'static str],
}

/// Meta-rule id for malformed suppression directives.
pub const META_RULE: &str = "EF-L000";

/// The registry, in id order.
pub(crate) const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: META_RULE,
        title: "suppressions must be well-formed and justified",
        crates: &[], // empty scope = every scanned crate
    },
    RuleInfo {
        id: "EF-L002",
        title: "no exact float equality where clippy's `float_cmp` is silent",
        crates: &["core", "cluster", "sim", "sched", "perfmodel"],
    },
    RuleInfo {
        id: "EF-L005",
        title: "no literal work-epsilon in planning code",
        crates: &["core"],
    },
    RuleInfo {
        id: "EF-L008",
        title: "no side effects or nondeterminism in parallel closures",
        crates: &[], // threads may be spawned in any crate
    },
    RuleInfo {
        id: "EF-L009",
        title: "no `macro_rules!` in decision code",
        crates: &["core", "cluster", "sim", "sched"],
    },
];

/// Looks up a rule by id.
pub(crate) fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// `true` when `rule` gates `crate_name` (an empty scope means "all").
pub(crate) fn rule_applies(rule: &RuleInfo, crate_name: &str) -> bool {
    rule.crates.is_empty() || rule.crates.contains(&crate_name)
}

/// Runs every scoped rule over one file's stripped token stream.
pub fn check_tokens(tokens: &[Token], crate_name: &str) -> Vec<RawViolation> {
    let mut out = Vec::new();
    let applies = |id: &str| rule_info(id).is_some_and(|r| rule_applies(r, crate_name));
    if applies("EF-L002") {
        check_l002(tokens, &mut out);
    }
    if applies("EF-L005") {
        check_l005(tokens, &mut out);
    }
    if applies("EF-L008") {
        check_l008(tokens, &mut out);
    }
    if applies("EF-L009") {
        check_l009(tokens, &mut out);
    }
    out
}

/// EF-L009: a `macro_rules!` definition.
fn check_l009(tokens: &[Token], out: &mut Vec<RawViolation>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("macro_rules") && tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            out.push(RawViolation {
                rule: "EF-L009",
                line: t.line,
                message: "`macro_rules!` body escapes clippy's panic lints".to_string(),
            });
        }
    }
}

/// Index of the `)` matching the `(` at `open`, if any.
fn close_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// EF-L008: forbidden tokens inside the argument region of a thread
/// spawn.
fn check_l008(tokens: &[Token], out: &mut Vec<RawViolation>) {
    let mut regions: Vec<(Range<usize>, &'static str)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        // `thread::spawn(…)` threads and `.spawn(…)` on a builder or a
        // `thread::scope` handle: the serve gateway's exporter and the
        // experiment fan-out's workers run their closures concurrently, in
        // nondeterministic order.
        if t.is_ident("thread")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|n| n.is_ident("spawn"))
            && tokens.get(i + 4).is_some_and(|n| n.is_punct('('))
        {
            if let Some(close) = close_paren(tokens, i + 4) {
                regions.push((i + 5..close, "thread::spawn"));
            }
        }
        if t.is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| n.is_ident("spawn"))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            if let Some(close) = close_paren(tokens, i + 2) {
                regions.push((i + 3..close, "spawn"));
            }
        }
    }
    // Nested regions (a spawn inside a spawned closure) would double-report
    // the same token; key hits by token index so each offending token is
    // reported once, attributed to the outermost enclosing entry point.
    let mut hits: BTreeMap<usize, (u32, String)> = BTreeMap::new();
    for (range, api) in regions {
        scan_parallel_region(tokens, range, api, &mut hits);
    }
    for (_, (line, message)) in hits {
        out.push(RawViolation {
            rule: "EF-L008",
            line,
            message,
        });
    }
}

fn scan_parallel_region(
    tokens: &[Token],
    range: Range<usize>,
    api: &str,
    hits: &mut BTreeMap<usize, (u32, String)>,
) {
    let start = range.start;
    let slice = &tokens[range];
    for (k, t) in slice.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next = |off: usize| tokens.get(start + k + off);
        let msg = match t.text.as_str() {
            "println" | "print" | "eprintln" | "eprint"
                if next(1).is_some_and(|n| n.is_punct('!')) =>
            {
                Some(format!(
                    "`{}!` in a `{api}` closure interleaves output across \
                     worker threads",
                    t.text
                ))
            }
            "stdout" | "stderr" => {
                Some(format!("`{}` handle used inside a `{api}` closure", t.text))
            }
            "RefCell" | "UnsafeCell" => Some(format!(
                "shared `{}` inside a `{api}` closure is not thread-safe",
                t.text
            )),
            "static" if next(1).is_some_and(|n| n.is_ident("mut")) => Some(format!(
                "`static mut` accessed inside a `{api}` closure races"
            )),
            "SystemTime" | "Instant"
                if next(1).is_some_and(|n| n.is_punct(':'))
                    && next(2).is_some_and(|n| n.is_punct(':'))
                    && next(3).is_some_and(|n| n.is_ident("now")) =>
            {
                Some(format!(
                    "`{}::now()` inside a `{api}` closure makes sweep results \
                     timing-dependent",
                    t.text
                ))
            }
            "thread_rng" | "from_entropy" => Some(format!(
                "`{}` inside a `{api}` closure seeds from the OS, breaking \
                 byte-identical sweeps",
                t.text
            )),
            "HashMap" | "HashSet" => Some(format!(
                "`{}` inside a `{api}` closure iterates in host-random order",
                t.text
            )),
            _ => None,
        };
        if let Some(message) = msg {
            hits.entry(start + k).or_insert((t.line, message));
        }
    }
}

/// `true` for a function name inside which `clippy::float_cmp` does not
/// fire (clippy treats such bodies as implementations of equality).
fn float_cmp_skips(name: &str) -> bool {
    matches!(name, "eq" | "ne" | "is_nan") || name.starts_with("eq_") || name.ends_with("_eq")
}

/// `true` when a float literal's value is zero (`0.0`, `0e0`, `0_f64`…).
fn is_zero_literal(t: &Token) -> bool {
    let text: String = t.text.chars().filter(|&c| c != '_').collect();
    let digits = text.trim_end_matches("f64").trim_end_matches("f32");
    matches!(digits.parse::<f64>(), Ok(v) if v == 0.0)
}

/// EF-L002: `==` / `!=` with a float literal on either side (a unary minus
/// allowed), where clippy's `float_cmp` is silent: the literal is zero, or
/// the comparison sits in the body of a function clippy skips by name.
fn check_l002(tokens: &[Token], out: &mut Vec<RawViolation>) {
    // Open function bodies: (clippy skips it, brace depth inside the body).
    let mut bodies: Vec<(bool, usize)> = Vec::new();
    // A signature seen but whose body has not opened yet: (skips, the
    // paren/bracket nesting at its `fn`).
    let mut pending: Option<(bool, usize)> = None;
    let (mut depth, mut nest) = (0usize, 0usize);
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("fn") {
            // `fn(…)` pointer types have no name and open no body.
            if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                pending = Some((float_cmp_skips(&name.text), nest));
            }
        } else if t.is_punct('(') || t.is_punct('[') {
            nest += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nest = nest.saturating_sub(1);
        } else if t.is_punct('{') {
            depth += 1;
            if let Some((skips, _)) = pending.filter(|&(_, at)| at == nest) {
                bodies.push((skips, depth));
                pending = None;
            }
        } else if t.is_punct('}') {
            if bodies.last().is_some_and(|&(_, d)| d == depth) {
                bodies.pop();
            }
            depth = depth.saturating_sub(1);
        } else if t.is_punct(';') && pending.is_some_and(|(_, at)| at == nest) {
            pending = None; // a bodiless declaration
        }
        let next = tokens.get(i + 1);
        let eq = t.is_punct('=')
            && next.is_some_and(|n| n.is_punct('='))
            && !(i > 0 && is_cmp_prefix(&tokens[i - 1]));
        let ne = t.is_punct('!') && next.is_some_and(|n| n.is_punct('='));
        if !(eq || ne) {
            continue;
        }
        let right = match tokens.get(i + 2) {
            Some(m) if m.is_punct('-') => tokens.get(i + 3),
            other => other,
        };
        let left = i.checked_sub(1).and_then(|j| tokens.get(j));
        let in_skipped_body = bodies.last().is_some_and(|&(skips, _)| skips);
        let hit = [left, right]
            .into_iter()
            .flatten()
            .any(|s| s.kind == TokenKind::Float && (in_skipped_body || is_zero_literal(s)));
        if hit {
            out.push(RawViolation {
                rule: "EF-L002",
                line: t.line,
                message: format!(
                    "exact float {} comparison against a literal",
                    if eq { "`==`" } else { "`!=`" }
                ),
            });
        }
    }
}

/// Part of a two-char operator ending in `=` that is not an equality test.
fn is_cmp_prefix(t: &Token) -> bool {
    "<>!=+-*/%&|^".chars().any(|c| t.is_punct(c))
}

/// EF-L005: a float literal spelling the shared work epsilon (`1e-9`,
/// however written: `1e-9`, `1E-9`, `0.000000001`, with underscores).
/// Matching is by parsed value, so every spelling of the same constant is
/// caught; only the `WORK_EPSILON` definition site may carry it, under a
/// suppression.
fn check_l005(tokens: &[Token], out: &mut Vec<RawViolation>) {
    for t in tokens {
        if t.kind != TokenKind::Float {
            continue;
        }
        let text: String = t.text.chars().filter(|&c| c != '_').collect();
        // Exact-value match is intentional here: we are comparing a parsed
        // literal against the one canonical constant, not accumulated math.
        let hit = matches!(text.parse::<f64>(), Ok(v) if v.to_bits() == 1e-9f64.to_bits());
        if hit {
            out.push(RawViolation {
                rule: "EF-L005",
                line: t.line,
                message: format!("literal `{}` duplicates WORK_EPSILON", t.text),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_regions};

    fn run(src: &str, crate_name: &str) -> Vec<RawViolation> {
        let lexed = lex(src);
        let tokens = strip_test_regions(&lexed.tokens);
        check_tokens(&tokens, crate_name)
    }

    fn rules_of(v: &[RawViolation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn l002_flags_zero_literal_compares_clippy_skips() {
        for src in [
            "fn f() { if x == 0.0 {} }",
            "fn f() { if 0.0 != y {} }",
            "fn f() { if x == -0.0 {} }",
            "fn f() { if x == 0_f64 {} }",
        ] {
            assert_eq!(
                rules_of(&run(src, "core")),
                vec!["EF-L002"],
                "missed: {src}"
            );
        }
    }

    #[test]
    fn l002_flags_any_literal_in_bodies_clippy_skips_by_name() {
        for src in [
            "fn eq(&self) -> bool { self.x == 1.5 }",
            "fn ne(a: f64) -> bool { a != 2.5 }",
            "fn approx_eq(a: f64) -> bool { let f = |b: f64| b == -1.0; f(a) }",
            "impl P { fn eq_slots(&self, xs: [f64; 2]) -> bool { xs[0] == 3.0 } }",
            "fn is_nan(v: f64) -> bool { v != 4.5 }",
            "fn eq_rate(f: fn(f64) -> f64) -> bool { f(1.0) == 2.0 }",
        ] {
            assert_eq!(
                rules_of(&run(src, "sched")),
                vec!["EF-L002"],
                "missed: {src}"
            );
        }
    }

    #[test]
    fn l002_leaves_clippy_territory_and_non_equality_alone() {
        for src in [
            // `float_cmp` denies these in every crate.
            "fn f() { if x == 1.5 || 2.5 != y {} }",
            // The skipped name closed before the compare; declarations have no body.
            "fn approx_eq(a: f64) -> bool { a > 1.0 } fn g() { x == 1.5; }",
            "trait T { fn eq(&self) -> bool; fn g(&self) { x == 1.5; } }",
            "fn f() { if x <= 0.0 || y >= 1.5 || n == 3 {} }",
        ] {
            assert!(run(src, "core").is_empty(), "false positive: {src}");
        }
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { assert!(x == 0.0); } }";
        assert!(run(src, "core").is_empty());
    }

    #[test]
    fn l005_catches_every_spelling_of_the_epsilon() {
        for src in [
            "fn f() { let e = 1e-9; }",
            "fn f() { let e = 1E-9; }",
            "fn f() { let e = 0.000000001; }",
            "fn f() { let e = 0.000_000_001; }",
            "fn f() { if done + 1e-9 >= need {} }",
        ] {
            assert_eq!(
                rules_of(&run(src, "core")),
                vec!["EF-L005"],
                "missed: {src}"
            );
        }
    }

    #[test]
    fn l005_ignores_other_tolerances_and_scopes() {
        assert!(run("fn f() { let e = 1e-12; let f = 1e-6; }", "core").is_empty());
        assert!(run("fn f() { let e = 1e-9; }", "sim").is_empty());
        assert!(run("fn f() { let e = WORK_EPSILON; }", "core").is_empty());
    }

    #[test]
    fn l008_fires_inside_spawned_threads() {
        for (src, needle) in [
            (
                "fn f() { std::thread::spawn(move || loop { println!(\"scrape\") }); }",
                "println",
            ),
            (
                "fn f() { thread::spawn(|| { let m: HashMap<u32, u32> = HashMap::new(); }); }",
                "HashMap",
            ),
            (
                "fn f() { Builder::new().spawn(|| stamp(SystemTime::now())).unwrap(); }",
                "SystemTime::now",
            ),
            (
                "fn f() { thread::spawn(|| CELL.with(|c: &RefCell<u32>| {})); }",
                "RefCell",
            ),
            (
                "fn f() { thread::spawn(|| unsafe { static mut N: u32 = 0; N += 1 }); }",
                "static mut",
            ),
            // The experiment fan-out's shape: workers spawned on a scope.
            (
                "fn f() { std::thread::scope(|s| { s.spawn(|| eprintln!(\"x\")); }); }",
                "eprintln",
            ),
            (
                "fn f() { thread::scope(|s| s.spawn(|| log(Instant::now()))); }",
                "Instant::now",
            ),
        ] {
            let v = run(src, "serve");
            assert!(rules_of(&v).contains(&"EF-L008"), "missed: {src} -> {v:?}");
            let hit = v.iter().find(|x| x.rule == "EF-L008").expect("l008 hit");
            assert!(hit.message.contains(needle), "{src}: {}", hit.message);
        }
    }

    #[test]
    fn l008_clean_on_pure_spawned_threads() {
        for src in [
            // The exporter shape: lock, render, write to the connection.
            "fn f() { std::thread::spawn(move || { let b = render(&reg.lock()); s.write_all(b.as_bytes()); }); }",
            // Command::spawn has an empty argument region.
            "fn f() { Command::new(\"bin\").spawn()?.wait() }",
            // I/O outside the spawned closure; a scope body is not a thread.
            "fn f() { eprintln!(\"sequential\"); thread::scope(|s| { s.spawn(|| run()); }); }",
        ] {
            assert!(run(src, "serve").is_empty(), "false positive: {src}");
        }
    }

    /// Scope check for the group-commit drain loop: the daemon's batched
    /// pipeline reuses buffers (`wal_buf`, `wal_offsets`, the batch
    /// scratch) on one thread, and its sequential iterator chains must
    /// not trip the parallel-region detector — while any attempt to
    /// offload the flush to a worker thread that touches those reuse
    /// cells lands squarely inside a detected region.
    #[test]
    fn l008_scope_covers_the_batched_drain_loop() {
        for src in [
            // The group-commit shape: frames rendered over a reused
            // buffer, sliced by an offset table. `.windows(..).map(..)`
            // is sequential — no region, no violation.
            "fn f() { let frames = offsets.windows(2).map(|w| buf[w[0]..w[1]].as_bytes()); \
             wal.append_batch(frames); }",
            // Scratch take/restore around the decide loop is plain
            // single-threaded ownership juggling.
            "fn f() { let mut scratch = std::mem::take(&mut self.batch); \
             scratch.decisions.clear(); self.batch = scratch; }",
        ] {
            assert!(run(src, "serve").is_empty(), "false positive: {src}");
        }
        // But moving the same reuse cells behind a spawned flush worker
        // is exactly what the rule exists to catch.
        let src = "fn f() { std::thread::spawn(move || { \
                   wal_buf.with(|b: &RefCell<String>| flush(b)); }); }";
        let v = run(src, "serve");
        assert_eq!(rules_of(&v), vec!["EF-L008"], "{v:?}");
        assert!(v[0].message.contains("RefCell"), "{}", v[0].message);
    }

    #[test]
    fn l008_nested_regions_report_once() {
        let src = "fn f() { thread::spawn(|| s.spawn(|| println!(\"{x}\"))); }";
        let v = run(src, "bench");
        assert_eq!(rules_of(&v), vec!["EF-L008"], "{v:?}");
    }

    #[test]
    fn l009_flags_macro_rules_in_decision_crates() {
        let src = "fn f() {}\nmacro_rules! pick {\n    ($x:expr) => { $x.unwrap() };\n}";
        for crate_name in ["core", "cluster", "sim", "sched"] {
            let v = run(src, crate_name);
            assert_eq!(rules_of(&v), vec!["EF-L009"], "{crate_name}");
            assert_eq!(v[0].line, 2);
        }
        assert!(run(src, "serve").is_empty(), "serve is out of scope");
    }

    #[test]
    fn l009_ignores_test_regions_and_string_literals() {
        for src in [
            "#[cfg(test)]\nmod tests {\n    macro_rules! case { () => {} }\n}",
            "fn f() -> &'static str { \"macro_rules! pick { () => {} }\" }",
            "// macro_rules! pick { () => {} }\nfn f() {}",
        ] {
            assert!(run(src, "core").is_empty(), "false positive: {src}");
        }
    }

    #[test]
    fn rules_lists_the_registry() {
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        assert_eq!(ids, ["EF-L000", "EF-L002", "EF-L005", "EF-L008", "EF-L009"]);
    }
}
