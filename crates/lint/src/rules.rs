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

use crate::items::FileItems;
use crate::lexer::{Token, TokenKind};

/// A reported rule violation before file attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawViolation {
    /// Rule id, e.g. `EF-L001`.
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the offending pattern.
    pub message: String,
}

/// Static description of one rule, for `--rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// What the rule matches and why it exists.
    pub rationale: &'static str,
    /// The remedy the rule demands.
    pub remedy: &'static str,
    /// Workspace crates (directory names under `crates/`) the rule gates.
    pub crates: &'static [&'static str],
}

/// Meta-rule id for malformed suppression directives.
pub const META_RULE: &str = "EF-L000";

/// The registry, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: META_RULE,
        title: "suppressions must be well-formed and justified",
        rationale: "An `elasticflow-lint:` comment that is not exactly \
                    `allow(RULE): justification` silently suppresses nothing; \
                    a justification-free allow hides the reasoning the next \
                    reader needs to re-audit the site.",
        remedy: "Write `// elasticflow-lint: allow(EF-L00N): <why this site is sound>`.",
        crates: &[], // empty scope = every scanned crate
    },
    RuleInfo {
        id: "EF-L001",
        title: "no unwrap/expect/panic in guarantee-critical code",
        rationale: "A panic in admission control, planning, placement, or the \
                    simulator aborts the scheduling loop mid-decision and can \
                    strand committed reservations, silently voiding deadline \
                    guarantees for every admitted job.",
        remedy: "Return a typed error (see each crate's `error` module) or \
                 suppress with a justification stating the invariant that \
                 makes the site unreachable.",
        crates: &["core", "cluster", "sim", "sched"],
    },
    RuleInfo {
        id: "EF-L002",
        title: "no exact float equality in scheduling math",
        rationale: "Deadline slack, throughput, and GPU-time values are \
                    accumulated floats; exact `==`/`!=` against a float \
                    literal flips on rounding noise and turns an admit/reject \
                    decision into a coin toss.",
        remedy: "Use `elasticflow_cluster::num::approx_eq`/`approx_ne` (or an \
                 explicit tolerance), or compare integers.",
        crates: &["core", "cluster", "sim", "sched", "perfmodel"],
    },
    RuleInfo {
        id: "EF-L003",
        title: "no nondeterminism sources in simulation paths",
        rationale: "The simulator's results must be bit-reproducible: wall \
                    clocks (`SystemTime::now`, `Instant::now`), OS-seeded \
                    RNGs (`thread_rng`, `from_entropy`), and hash-order \
                    iteration (`HashMap`/`HashSet`) all leak host state into \
                    scheduling decisions.",
        remedy: "Thread simulated time explicitly, seed RNGs from the \
                 config, and use `BTreeMap`/`BTreeSet` (or sort before \
                 iterating).",
        crates: &["core", "sim", "sched"],
    },
    RuleInfo {
        id: "EF-L004",
        title: "no raw float->int `as` casts in GPU/slot arithmetic",
        rationale: "`as` silently saturates, truncates NaN to 0, and drops \
                    fractional slots; a GPU count or slot index derived that \
                    way can under-reserve capacity without any error.",
        remedy: "Use the checked conversions in `elasticflow_cluster::num` \
                 (`slots_ceil`, `slots_floor`, `gpu_count_from_f64`).",
        crates: &["core", "cluster", "sim", "sched"],
    },
    RuleInfo {
        id: "EF-L005",
        title: "no literal work-epsilon in planning code",
        rationale: "The `1e-9` iteration-count slack appears in admission, \
                    filling, boosting, and the feasibility theorems; a copy \
                    that drifts independently makes two layers disagree on \
                    whether a profile completes a job, flipping admit/reject \
                    decisions between them.",
        remedy: "Use `elasticflow_core::WORK_EPSILON`; only its definition \
                 site may spell the literal (with a suppression).",
        crates: &["core"],
    },
    RuleInfo {
        id: "EF-L006",
        title: "snapshot coverage: persisted engine state must round-trip",
        rationale: "A field added to the executor, the event-core cursors, or \
                    the engine's run state without being wired through \
                    `SimSnapshot` capture *and* restore resumes as a default \
                    value, silently diverging a resumed run from the original \
                    — the exact failure the bit-identical checkpoint \
                    guarantee exists to prevent.",
        remedy: "Add the field to the snapshot struct, populate it in the \
                 capture path, read it back on restore, and list it in \
                 crates/lint/snapshot-manifest.json — or declare it under \
                 `reconstructed` there if resume deterministically rebuilds it.",
        crates: &["sim"],
    },
    RuleInfo {
        id: "EF-L007",
        title: "no catch-all arms in matches over replayed enums",
        rationale: "A `_ =>` (or bare-binding) arm in a `match` over `Event`, \
                    `ReplanOutcome`, `DecisionRecord`, or `DeclineReason` \
                    silently swallows variants added later; replay, WAL \
                    application, the decision journal, and telemetry would \
                    then disagree about what happened with no compile error \
                    anywhere.",
        remedy: "List every variant explicitly (grouping with `|` is fine) so \
                 a new variant forces a decision at each consuming site.",
        crates: &["sim", "persist", "telemetry", "serve"],
    },
    RuleInfo {
        id: "EF-L008",
        title: "no side effects or nondeterminism in parallel closures",
        rationale: "Closures run under the shims/rayon APIs (`install`, \
                    `parallel_map_indexed`, par-iter `map`/`for_each`) and \
                    raw `thread::spawn`/`.spawn(` threads (the serve \
                    gateway's exporter) execute on worker threads in \
                    nondeterministic order: stdout/stderr writes interleave, \
                    `RefCell`/`static mut` access races, and EF-L003-class \
                    sources (host clocks, OS RNGs, hash-order iteration) \
                    break the byte-identical parallel-sweep guarantee.",
        remedy: "Return values from the closure and aggregate after the \
                 join; hoist I/O, shared mutation, and entropy outside the \
                 parallel region.",
        crates: &[], // parallel entry points may appear in any crate
    },
];

/// Looks up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// `true` when `rule` gates `crate_name` (an empty scope means "all").
pub fn rule_applies(rule: &RuleInfo, crate_name: &str) -> bool {
    rule.crates.is_empty() || rule.crates.contains(&crate_name)
}

/// Runs every scoped rule over one file's stripped token stream.
pub fn check_tokens(tokens: &[Token], crate_name: &str) -> Vec<RawViolation> {
    let mut out = Vec::new();
    let applies = |id: &str| rule_info(id).is_some_and(|r| rule_applies(r, crate_name));
    if applies("EF-L001") {
        check_l001(tokens, &mut out);
    }
    if applies("EF-L002") {
        check_l002(tokens, &mut out);
    }
    if applies("EF-L003") {
        check_l003(tokens, &mut out);
    }
    if applies("EF-L004") {
        check_l004(tokens, &mut out);
    }
    if applies("EF-L005") {
        check_l005(tokens, &mut out);
    }
    if applies("EF-L008") {
        check_l008(tokens, &mut out);
    }
    out
}

/// Runs the structure-aware per-file rules (currently EF-L007) over the
/// extracted items of one file. `tokens` must be the same stream the items
/// were extracted from (arm patterns are index ranges into it).
pub fn check_items(tokens: &[Token], items: &FileItems, crate_name: &str) -> Vec<RawViolation> {
    let mut out = Vec::new();
    let applies = |id: &str| rule_info(id).is_some_and(|r| rule_applies(r, crate_name));
    if applies("EF-L007") {
        check_l007(tokens, items, &mut out);
    }
    out
}

/// Enums whose `match`es must stay exhaustive: all are replayed from
/// persisted streams (the WAL records `Event`s; schedulers re-derive
/// `ReplanOutcome`s; the decision journal replays `DecisionRecord`s and
/// their `DeclineReason`s), so a swallowed variant diverges replay
/// silently.
const REPLAYED_ENUMS: &[&str] = &["Event", "ReplanOutcome", "DecisionRecord", "DeclineReason"];

/// EF-L007: a `match` whose arms destructure a replayed enum must not
/// contain a catch-all (`_` or bare-binding, unguarded) arm.
fn check_l007(tokens: &[Token], items: &FileItems, out: &mut Vec<RawViolation>) {
    for m in &items.matches {
        let enum_name = m.arms.iter().find_map(|arm| {
            tokens[arm.pattern.clone()].windows(3).find_map(|w| {
                let is_path = w[0].kind == TokenKind::Ident
                    && REPLAYED_ENUMS.contains(&w[0].text.as_str())
                    && w[1].is_punct(':')
                    && w[2].is_punct(':');
                is_path.then(|| w[0].text.clone())
            })
        });
        let Some(enum_name) = enum_name else {
            continue;
        };
        for arm in &m.arms {
            if arm.catch_all {
                out.push(RawViolation {
                    rule: "EF-L007",
                    line: arm.line,
                    message: format!(
                        "catch-all arm in a `match` over `{enum_name}` swallows \
                         future variants"
                    ),
                });
            }
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

/// EF-L008: forbidden tokens inside the argument region of a shims/rayon
/// parallel entry point.
fn check_l008(tokens: &[Token], out: &mut Vec<RawViolation>) {
    let mut regions: Vec<(Range<usize>, &'static str)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("parallel_map_indexed") && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(close) = close_paren(tokens, i + 1) {
                regions.push((i + 2..close, "parallel_map_indexed"));
            }
        }
        if t.is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| n.is_ident("install"))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            if let Some(close) = close_paren(tokens, i + 2) {
                regions.push((i + 3..close, "install"));
            }
        }
        // `thread::spawn(…)` and builder-style `.spawn(…)` threads: the
        // serve gateway's exporter and any future long-running workers run
        // their closures concurrently with the deterministic request loop,
        // so the same side-effect/nondeterminism rules apply.
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
        // `.par_iter().map(…)` / `.into_par_iter().for_each(…)` chains.
        let par_entry = t.is_ident("par_iter") || t.is_ident("into_par_iter");
        if par_entry
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(')'))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct('.'))
            && tokens
                .get(i + 4)
                .is_some_and(|n| n.is_ident("map") || n.is_ident("for_each"))
            && tokens.get(i + 5).is_some_and(|n| n.is_punct('('))
        {
            if let Some(close) = close_paren(tokens, i + 5) {
                regions.push((i + 6..close, "par-iter map"));
            }
        }
    }
    // Nested regions (an install around a par-iter) would double-report
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

/// EF-L001: `.unwrap()`, `.expect(`, `panic!`, `todo!`, `unimplemented!`.
fn check_l001(tokens: &[Token], out: &mut Vec<RawViolation>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && tokens[i - 1].is_punct('.');
        let next_open = tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
        let next_bang = tokens.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let hit = match t.text.as_str() {
            "unwrap" | "expect" if prev_dot && next_open => Some(format!(".{}(…)", t.text)),
            "panic" | "todo" | "unimplemented" if next_bang && !prev_dot => {
                Some(format!("{}!(…)", t.text))
            }
            _ => None,
        };
        if let Some(what) = hit {
            out.push(RawViolation {
                rule: "EF-L001",
                line: t.line,
                message: format!("`{what}` can abort the scheduling loop"),
            });
        }
    }
}

/// EF-L002: `==` / `!=` with a float literal on either side.
fn check_l002(tokens: &[Token], out: &mut Vec<RawViolation>) {
    let is_float = |t: Option<&Token>| t.is_some_and(|t| t.kind == TokenKind::Float);
    for i in 0..tokens.len().saturating_sub(1) {
        let (a, b) = (&tokens[i], &tokens[i + 1]);
        let eq = a.is_punct('=') && b.is_punct('=') && !(i > 0 && is_cmp_prefix(&tokens[i - 1]));
        let ne = a.is_punct('!') && b.is_punct('=');
        if !(eq || ne) {
            continue;
        }
        if is_float(i.checked_sub(1).and_then(|j| tokens.get(j))) || is_float(tokens.get(i + 2)) {
            out.push(RawViolation {
                rule: "EF-L002",
                line: a.line,
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

/// EF-L003: wall clocks, OS-seeded RNGs, and hash-order collections.
fn check_l003(tokens: &[Token], out: &mut Vec<RawViolation>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let path_now = (t.is_ident("SystemTime") || t.is_ident("Instant"))
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|n| n.is_ident("now"));
        if path_now {
            out.push(RawViolation {
                rule: "EF-L003",
                line: t.line,
                message: format!("`{}::now()` reads the host clock", t.text),
            });
            continue;
        }
        if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            out.push(RawViolation {
                rule: "EF-L003",
                line: t.line,
                message: format!("`{}` seeds from the OS, breaking replay", t.text),
            });
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(RawViolation {
                rule: "EF-L003",
                line: t.line,
                message: format!(
                    "`{}` iteration order is host-random; use BTree{} or sort",
                    t.text,
                    if t.is_ident("HashMap") { "Map" } else { "Set" }
                ),
            });
        }
    }
}

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Float-producing methods whose result flowing into `as <int>` marks a
/// float->int cast. Deliberately excludes `max`/`min`/`abs` (shared with
/// the integer API); chains like `.ceil().max(1.0)` are still caught via
/// the `ceil` earlier in the chain or the float literal argument.
const FLOAT_METHODS: &[&str] = &[
    "ceil",
    "floor",
    "round",
    "trunc",
    "fract",
    "sqrt",
    "cbrt",
    "powf",
    "powi",
    "exp",
    "exp2",
    "ln",
    "log",
    "log2",
    "log10",
    "hypot",
    "atan2",
    "to_radians",
    "to_degrees",
    "mul_add",
    "recip",
];

/// EF-L004: `<float expr> as <int type>`, where "float expr" is detected
/// by walking the postfix chain left of `as` and finding a float literal,
/// a call to a float-producing method, or a root identifier following the
/// `*_f` / `*_f64` / `*_f32` naming convention for float temporaries.
fn check_l004(tokens: &[Token], out: &mut Vec<RawViolation>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("as") {
            continue;
        }
        let Some(ty) = tokens.get(i + 1) else {
            continue;
        };
        if ty.kind != TokenKind::Ident || !INT_TYPES.contains(&ty.text.as_str()) {
            continue;
        }
        if i == 0 {
            continue;
        }
        if chain_is_floaty(&tokens[..i]) {
            out.push(RawViolation {
                rule: "EF-L004",
                line: t.line,
                message: format!("raw float -> `{}` cast truncates silently", ty.text),
            });
        }
    }
}

/// Walks backwards over the postfix expression ending at `tokens.len()`
/// and reports whether it is float-valued per the documented heuristic.
fn chain_is_floaty(tokens: &[Token]) -> bool {
    let mut depth = 0usize;
    let mut floaty = false;
    let mut last_at_depth0: Option<&Token> = None;
    for j in (0..tokens.len()).rev() {
        let t = &tokens[j];
        match t.kind {
            TokenKind::Punct => {
                let c = t.text.chars().next().unwrap_or(' ');
                match c {
                    ')' | ']' => depth += 1,
                    '(' | '[' => {
                        if depth == 0 {
                            break; // opened before the chain started
                        }
                        depth -= 1;
                    }
                    '.' => {}
                    _ if depth == 0 => break, // operator/stmt boundary
                    _ => {}
                }
            }
            TokenKind::Float => floaty = true,
            TokenKind::Ident => {
                if FLOAT_METHODS.contains(&t.text.as_str())
                    && tokens.get(j + 1).is_some_and(|n| n.is_punct('('))
                {
                    floaty = true;
                }
                if depth == 0 {
                    last_at_depth0 = Some(t);
                }
            }
            _ => {}
        }
    }
    if let Some(root) = last_at_depth0 {
        if root.text.ends_with("_f") || root.text.ends_with("_f64") || root.text.ends_with("_f32") {
            floaty = true;
        }
    }
    floaty
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
    fn l001_matches_all_five_forms() {
        let src =
            "fn f() { a.unwrap(); b.expect(\"m\"); panic!(\"x\"); todo!(); unimplemented!(); }";
        assert_eq!(rules_of(&run(src, "core")), vec!["EF-L001"; 5]);
    }

    #[test]
    fn l001_skips_lookalikes() {
        let src =
            "fn f() { a.unwrap_or(0); a.unwrap_or_else(g); a.expect_err(\"m\"); my_panic(); }";
        assert!(run(src, "core").is_empty());
    }

    #[test]
    fn l001_out_of_scope_crate_is_clean() {
        assert!(run("fn f() { a.unwrap(); }", "trace").is_empty());
    }

    #[test]
    fn l002_literal_equality_both_sides() {
        assert_eq!(
            rules_of(&run("fn f() { if x == 0.0 {} }", "core")),
            vec!["EF-L002"]
        );
        assert_eq!(
            rules_of(&run("fn f() { if 1.5 != y {} }", "sched")),
            vec!["EF-L002"]
        );
    }

    #[test]
    fn l002_ignores_ordering_and_int_compares() {
        assert!(run("fn f() { if x <= 0.0 || y >= 1.5 || n == 3 {} }", "core").is_empty());
    }

    #[test]
    fn l003_catches_clocks_rngs_and_hash_collections() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); \
                   let m: HashMap<u32, u32> = HashMap::new(); }";
        let got = rules_of(&run(src, "sim"));
        assert_eq!(got, vec!["EF-L003", "EF-L003", "EF-L003", "EF-L003"]);
    }

    #[test]
    fn l003_btree_is_fine() {
        assert!(run(
            "fn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }",
            "sim"
        )
        .is_empty());
    }

    #[test]
    fn l004_catches_float_chains() {
        for src in [
            "fn f() { let n = x.ceil() as usize; }",
            "fn f() { let n = (a / b).floor() as u32; }",
            "fn f() { let n = (x / y).ceil().max(1.0) as usize; }",
            "fn f() { let n = need_f as usize; }",
            "fn f() { let n = 2.5 as u64; }",
        ] {
            assert_eq!(
                rules_of(&run(src, "core")),
                vec!["EF-L004"],
                "missed: {src}"
            );
        }
    }

    #[test]
    fn l004_ignores_int_casts() {
        for src in [
            "fn f() { let n = i as u64; }",
            "fn f() { let n = v.len() as u32; }",
            "fn f() { let n = (k + 1) as usize; }",
            "fn f() { let n = x as f64; }",
            "fn f() { let n = arr[i as usize]; }",
        ] {
            assert!(run(src, "core").is_empty(), "false positive: {src}");
        }
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { a.unwrap(); let b = x.ceil() as u32; } }";
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

    fn run_structural(src: &str, crate_name: &str) -> Vec<RawViolation> {
        let lexed = lex(src);
        let tokens = strip_test_regions(&lexed.tokens);
        let items = crate::items::extract(&tokens);
        check_items(&tokens, &items, crate_name)
    }

    #[test]
    fn l007_fires_on_wildcard_over_event() {
        let src = "fn f(e: Event) {\n  match e {\n    Event::Arrival { job } => go(job),\n    _ => {}\n  }\n}";
        let v = run_structural(src, "sim");
        assert_eq!(rules_of(&v), vec!["EF-L007"]);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn l007_fires_on_bare_binding_over_replan_outcome() {
        let src = "fn f(o: X) { match o { ReplanOutcome::Done => {} other => drop(other) } }";
        assert_eq!(rules_of(&run_structural(src, "persist")), vec!["EF-L007"]);
    }

    #[test]
    fn l007_fires_on_wildcards_over_decision_enums() {
        let src = "fn f(d: D) { match d { DecisionRecord::Admit { job } => a(job), _ => {} } }";
        assert_eq!(rules_of(&run_structural(src, "telemetry")), vec!["EF-L007"]);
        let src = "fn f(r: R) { match r { DeclineReason::Unexplained => {} _ => {} } }";
        assert_eq!(rules_of(&run_structural(src, "telemetry")), vec!["EF-L007"]);
    }

    #[test]
    fn l007_clean_on_exhaustive_and_unrelated_matches() {
        // Exhaustive Event match, a guarded underscore, and a match over an
        // unrelated enum with a wildcard: none should fire.
        let src = "fn f(e: Event) {\n\
                   match e { Event::Arrival { job } => a(job), Event::SlotBoundary | Event::PauseEnd { .. } => {} }\n\
                   match e { Event::SlotBoundary => {} _ if noisy() => {} Event::Arrival { .. } => {} }\n\
                   match color { Color::Red => {} _ => {} }\n}";
        assert!(run_structural(src, "telemetry").is_empty());
    }

    #[test]
    fn l007_out_of_scope_crate_is_clean() {
        let src = "fn f(e: Event) { match e { Event::SlotBoundary => {} _ => {} } }";
        assert!(run_structural(src, "core").is_empty());
    }

    #[test]
    fn l007_covers_the_serve_gateway() {
        // The gateway replays `DecisionRecord`s out of its journal, so its
        // matches are held to the same exhaustiveness bar as telemetry.
        let src = "fn f(d: D) { match d { DecisionRecord::Admit { job } => a(job), _ => {} } }";
        assert_eq!(rules_of(&run_structural(src, "serve")), vec!["EF-L007"]);
        let src =
            "fn f(r: R) { match r { DeclineReason::Unexplained => {} other => note(other) } }";
        assert_eq!(rules_of(&run_structural(src, "serve")), vec!["EF-L007"]);
    }

    #[test]
    fn l008_fires_inside_parallel_entry_points() {
        for (src, needle) in [
            (
                "fn f() { pool.install(|| { eprintln!(\"tick\"); work() }); }",
                "eprintln",
            ),
            (
                "fn f() { parallel_map_indexed(n, |i| { CELL.with(|c: &RefCell<u32>| {}); i }); }",
                "RefCell",
            ),
            (
                "fn f() { v.par_iter().map(|x| reg.lock().insert_into::<HashMap<u32, u32>>(x)).collect() }",
                "HashMap",
            ),
            (
                "fn f() { pool.install(|| unsafe { static mut N: u32 = 0; N += 1 }); }",
                "static mut",
            ),
            (
                "fn f() { v.into_par_iter().for_each(|x| log(Instant::now(), x)); }",
                "Instant::now",
            ),
        ] {
            let v = run(src, "bench");
            assert_eq!(rules_of(&v), vec!["EF-L008"], "missed: {src}");
            assert!(v[0].message.contains(needle), "{src}: {}", v[0].message);
        }
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
        ] {
            assert!(run(src, "serve").is_empty(), "false positive: {src}");
        }
    }

    #[test]
    fn l008_clean_outside_parallel_regions_and_on_pure_closures() {
        for src in [
            // I/O outside any parallel entry point.
            "fn f() { eprintln!(\"sequential\"); pool.install(|| run()); }",
            // Pure closure: returns values, no shared state.
            "fn f() { v.par_iter().map(|x| x * 2).collect() }",
            // Function reference, nothing to scan.
            "fn f() { reqs.into_par_iter().map(run_request).collect() }",
            // install with a clean closure body.
            "fn f() { pool.install(|| fig6::run_large(SWEEP_SEED)); }",
        ] {
            assert!(run(src, "bench").is_empty(), "false positive: {src}");
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
        let src = "fn f() { pool.install(|| v.par_iter().map(|x| println!(\"{x}\")).collect()); }";
        let v = run(src, "bench");
        assert_eq!(rules_of(&v), vec!["EF-L008"], "{v:?}");
    }

    #[test]
    fn registry_ids_are_unique_and_sorted() {
        let ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }
}
