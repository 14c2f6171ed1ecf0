//! Property-based tests for the lint lexer and rule engine.
//!
//! The claims the crate docs make — string literals, comments, and test
//! regions can never trigger a diagnostic, and justified `allow` comments
//! reliably suppress exactly their own rule — are proven here over randomly
//! generated programs, not just the hand-picked unit-test cases.

use elasticflow_lint::lint_source;
use proptest::prelude::*;

/// A snippet that violates exactly one rule when it appears in real code
/// of an in-scope crate, paired with the rule it trips.
fn violating_fragments() -> Vec<(&'static str, &'static str)> {
    vec![
        ("a == 0.0", "EF-L002"),
        ("0.0 != b", "EF-L002"),
        ("c == -0.0", "EF-L002"),
        ("d + 1e-9", "EF-L005"),
        ("std::thread::spawn(|| println!(\"tick\"))", "EF-L008"),
        ("s.spawn(|| HashMap::<u8, u8>::new()).join()", "EF-L008"),
        ("{ macro_rules! m { () => { 1 }; } m!() }", "EF-L009"),
    ]
}

fn fragment() -> impl Strategy<Value = (&'static str, &'static str)> {
    prop::sample::select(violating_fragments())
}

/// Benign filler lines a generated program may contain in any order.
fn padding_line() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "",
        "fn helper(v: u32) -> u32 { v + 1 }",
        "const LIMIT: usize = 8;",
        "// an ordinary comment",
        "/* an ordinary block comment */",
        "let label = \"plain text\";",
        "let nums = [1, 2, 3];",
    ])
}

/// Escapes a fragment for inclusion inside a normal `"…"` literal.
fn escape_for_string(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A short lowercase word usable as an allow justification.
fn justification() -> impl Strategy<Value = String> {
    prop::collection::vec(97u8..123, 3..24).prop_map(|bytes| {
        // Bytes are drawn from b'a'..b'z', so this is always valid UTF-8.
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

fn wrap_in_fn(stmt: &str) -> String {
    format!("fn generated() {{\n    let _ = {stmt};\n}}\n")
}

proptest! {
    /// Sanity (non-vacuousness): every fragment really does trip its rule
    /// when it appears as ordinary code in an in-scope crate.
    #[test]
    fn fragments_trip_their_rule_in_plain_code(
        (frag, rule) in fragment(),
        pre in prop::collection::vec(padding_line(), 0..4),
    ) {
        let mut src = pre.join("\n");
        src.push('\n');
        src.push_str(&wrap_in_fn(frag));
        let violations = lint_source(&src, "core", "core/src/gen.rs");
        prop_assert!(
            violations.iter().any(|v| v.rule == rule),
            "expected {} from:\n{}\ngot: {:?}",
            rule,
            src,
            violations
        );
    }

    /// String literals are opaque: no fragment can trigger a diagnostic
    /// from inside a normal, raw, or byte string.
    #[test]
    fn string_literals_never_trigger(
        (frag, _) in fragment(),
        kind in 0u8..3,
        pre in prop::collection::vec(padding_line(), 0..4),
    ) {
        let literal = match kind {
            0 => format!("\"{}\"", escape_for_string(frag)),
            1 => format!("r#\"{frag}\"#"),
            _ => format!("b\"{}\"", escape_for_string(frag)),
        };
        let mut src = pre.join("\n");
        src.push('\n');
        src.push_str(&wrap_in_fn(&literal));
        let violations = lint_source(&src, "core", "core/src/gen.rs");
        prop_assert!(
            violations.is_empty(),
            "string literal leaked a diagnostic:\n{}\ngot: {:?}",
            src,
            violations
        );
    }

    /// Comments are opaque: fragments inside `//` or `/* */` comments are
    /// never diagnosed.
    #[test]
    fn comments_never_trigger(
        (frag, _) in fragment(),
        block in any::<bool>(),
        pre in prop::collection::vec(padding_line(), 0..4),
    ) {
        let comment = if block {
            format!("/* {frag} */")
        } else {
            format!("// {frag}")
        };
        let mut src = pre.join("\n");
        src.push('\n');
        src.push_str("fn generated() {\n    ");
        src.push_str(&comment);
        src.push_str("\n    let _ = 1;\n}\n");
        let violations = lint_source(&src, "core", "core/src/gen.rs");
        prop_assert!(
            violations.is_empty(),
            "comment leaked a diagnostic:\n{}\ngot: {:?}",
            src,
            violations
        );
    }

    /// Test regions are skipped: `#[cfg(test)]` items, `#[test]` functions,
    /// and `mod tests` blocks may contain any fragment without diagnosis.
    #[test]
    fn test_regions_never_trigger(
        (frag, _) in fragment(),
        kind in 0u8..4,
        pre in prop::collection::vec(padding_line(), 0..4),
    ) {
        let body = wrap_in_fn(frag);
        let region = match kind {
            0 => format!("#[cfg(test)]\nmod checks {{\n{body}}}\n"),
            1 => format!("#[test]\nfn generated_case() {{\n    let _ = {frag};\n}}\n"),
            2 => format!("mod tests {{\n{body}}}\n"),
            _ => format!("#[cfg(test)]\n{body}"),
        };
        let mut src = pre.join("\n");
        src.push('\n');
        src.push_str(&region);
        let violations = lint_source(&src, "core", "core/src/gen.rs");
        prop_assert!(
            violations.is_empty(),
            "test region leaked a diagnostic:\n{}\ngot: {:?}",
            src,
            violations
        );
    }

    /// A justified allow of the right rule suppresses the diagnostic, both
    /// as a trailing comment and as a standalone comment above the line.
    #[test]
    fn justified_allow_suppresses(
        (frag, rule) in fragment(),
        trailing in any::<bool>(),
        why in justification(),
    ) {
        let src = if trailing {
            format!(
                "fn generated() {{\n    let _ = {frag}; // elasticflow-lint: allow({rule}): {why}\n}}\n"
            )
        } else {
            format!(
                "fn generated() {{\n    // elasticflow-lint: allow({rule}): {why}\n    let _ = {frag};\n}}\n"
            )
        };
        let violations = lint_source(&src, "core", "core/src/gen.rs");
        prop_assert!(
            violations.is_empty(),
            "justified allow failed to suppress:\n{}\ngot: {:?}",
            src,
            violations
        );
    }

    /// An allow naming a *different* rule never suppresses the diagnostic.
    #[test]
    fn wrong_rule_allow_does_not_suppress(
        (frag, rule) in fragment(),
        why in justification(),
    ) {
        let other = ["EF-L002", "EF-L005", "EF-L008", "EF-L009"]
            .iter()
            .find(|r| **r != rule)
            .copied()
            .unwrap_or("EF-L002");
        let src = format!(
            "fn generated() {{\n    let _ = {frag}; // elasticflow-lint: allow({other}): {why}\n}}\n"
        );
        let violations = lint_source(&src, "core", "core/src/gen.rs");
        prop_assert!(
            violations.iter().any(|v| v.rule == rule),
            "allow({}) wrongly suppressed {}:\n{}\ngot: {:?}",
            other,
            rule,
            src,
            violations
        );
    }

    /// The pipeline is total and deterministic on arbitrary token soups:
    /// no panics, in-bounds line numbers, and identical output on re-run.
    #[test]
    fn lint_is_total_and_deterministic_on_soups(
        atoms in prop::collection::vec(
            prop::sample::select(vec![
                "fn", "soup", "{", "}", "(", ")", ";", "=", "==", ".",
                "\"text\"", "r#\"raw\"#", "b\"bytes\"", "'c'", "'static",
                "1.5", "0.0", "42", "0x1f", "1e9", "as", "usize", "unwrap",
                "// line comment\n", "/* block */", "/* unterminated",
                "#[cfg(test)]", "mod", "tests", "\n",
                "// elasticflow-lint: allow(EF-L002): soup\n",
                "// elasticflow-lint: gibberish\n",
            ]),
            0..60,
        ),
    ) {
        let src = atoms.join(" ");
        let first = lint_source(&src, "core", "core/src/gen.rs");
        let second = lint_source(&src, "core", "core/src/gen.rs");
        prop_assert_eq!(&first, &second);
        let lines = src.lines().count().max(1) as u32;
        for v in &first {
            prop_assert!(
                v.line >= 1 && v.line <= lines,
                "line {} out of bounds (source has {} lines)",
                v.line,
                lines
            );
        }
    }
}
