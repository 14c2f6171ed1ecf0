//! Property-based tests for the structural extractor (`items.rs`),
//! mirroring the lexer proptests in `tests/properties.rs`.
//!
//! Claims proven over randomly generated programs:
//!
//! * **Round-trip** — a generated struct, enum or struct literal with
//!   known shape is recovered exactly (names, field and variant lists);
//! * **Totality** — extraction never panics on arbitrary token soups, and
//!   is deterministic.

use elasticflow_lint::items::{extract, StructKind};
use elasticflow_lint::lexer::{lex, strip_test_regions};
use proptest::prelude::*;

/// A short lowercase word used to seed identifier names.
fn word() -> impl Strategy<Value = String> {
    prop::collection::vec(97u8..123, 1..8).prop_map(|bytes| {
        // Bytes are drawn from b'a'..b'z', so this is always valid UTF-8.
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// `n` distinct field-like identifiers derived from a random stem. The
/// `_{i}` suffix keeps them distinct and guarantees none is a keyword.
fn idents(stem: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{stem}_{i}")).collect()
}

/// A few plausible field types, including ones with generics and fn
/// pointers (the hard cases for angle-bracket skipping).
fn field_type() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "u32",
        "f64",
        "Vec<u8>",
        "BTreeMap<JobId, JobStats>",
        "Option<Box<Node>>",
        "&'a [JobSpec]",
        "fn(u32) -> Vec<u8>",
        "(f64, u32, bool)",
    ])
}

proptest! {
    /// Generated named structs round-trip: name, kind, and the exact field
    /// list in order.
    #[test]
    fn named_structs_round_trip(
        stem in word(),
        n in 1usize..7,
        types in prop::collection::vec(field_type(), 7..8),
        with_attr in any::<bool>(),
        with_generics in any::<bool>(),
    ) {
        let fields = idents(&stem, n);
        let mut src = String::new();
        if with_attr {
            src.push_str("#[derive(Debug, Clone)]\n");
        }
        src.push_str(if with_generics {
            "pub struct Gen<'a, T: Clone> {\n"
        } else {
            "pub struct Gen {\n"
        });
        for (i, f) in fields.iter().enumerate() {
            src.push_str(&format!("    pub {}: {},\n", f, types[i % types.len()]));
        }
        src.push_str("}\n");
        let items = extract(&lex(&src).tokens);
        prop_assert_eq!(items.structs.len(), 1, "src:\n{}", src);
        let s = &items.structs[0];
        prop_assert_eq!(s.name.as_str(), "Gen");
        prop_assert_eq!(s.kind, StructKind::Named);
        let got: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        let want: Vec<&str> = fields.iter().map(String::as_str).collect();
        prop_assert_eq!(got, want, "src:\n{}", src);
    }

    /// Generated enums round-trip their variant list, across unit, tuple,
    /// and struct-payload variants.
    #[test]
    fn enums_round_trip(
        stem in word(),
        n in 1usize..7,
        payload_kind in prop::collection::vec(0u8..3, 7..8),
    ) {
        let variants: Vec<String> =
            idents(&stem, n).iter().map(|v| format!("V{v}")).collect();
        let mut src = String::from("pub enum Gen {\n");
        for (i, name) in variants.iter().enumerate() {
            match payload_kind[i % payload_kind.len()] {
                0 => src.push_str(&format!("    {name},\n")),
                1 => src.push_str(&format!("    {name}(u32, Vec<u8>),\n")),
                _ => src.push_str(&format!("    {name} {{ job: JobId, when: f64 }},\n")),
            }
        }
        src.push_str("}\n");
        let items = extract(&lex(&src).tokens);
        prop_assert_eq!(items.enums.len(), 1, "src:\n{}", src);
        let got: Vec<String> =
            items.enums[0].variants.iter().map(|v| v.name.clone()).collect();
        prop_assert_eq!(got, variants, "src:\n{}", src);
    }

    /// Struct literals round-trip their populated field names, with and
    /// without `..base` spreads.
    #[test]
    fn literals_round_trip(
        stem in word(),
        n in 1usize..6,
        shorthand in prop::collection::vec(any::<bool>(), 6..7),
        spread in any::<bool>(),
    ) {
        let fields = idents(&stem, n);
        let mut src = String::from("fn f() {\n    let s = Gen {\n");
        for (i, f) in fields.iter().enumerate() {
            if shorthand[i % shorthand.len()] {
                src.push_str(&format!("        {f},\n"));
            } else {
                src.push_str(&format!("        {f}: compute({i}),\n"));
            }
        }
        if spread {
            src.push_str("        ..Gen::base()\n");
        }
        src.push_str("    };\n}\n");
        let items = extract(&lex(&src).tokens);
        prop_assert_eq!(items.literals.len(), 1, "src:\n{}", src);
        let l = &items.literals[0];
        prop_assert_eq!(l.has_spread, spread);
        let got: Vec<&str> = l.fields.iter().map(|f| f.name.as_str()).collect();
        let want: Vec<&str> = fields.iter().map(String::as_str).collect();
        prop_assert_eq!(got, want, "src:\n{}", src);
    }

    /// Extraction is total and deterministic on arbitrary token soups, and
    /// recovered line numbers stay in bounds.
    #[test]
    fn extraction_is_total_on_soups(
        atoms in prop::collection::vec(
            prop::sample::select(vec![
                "struct", "enum", "impl", "match", "fn", "pub", "for", "where",
                "Gen", "x", "_", "=>", "=", ">", "<", "::", ":", ",", ";", "..",
                "{", "}", "(", ")", "[", "]", "#", "->", "|", "&", "'a",
                "if", "u32", "1.5", "42", "\"s\"", "\n", "// c\n", "/* b */",
            ]),
            0..80,
        ),
    ) {
        let src = atoms.join(" ");
        let lexed = lex(&src);
        let stripped = strip_test_regions(&lexed.tokens);
        let first = extract(&stripped);
        let second = extract(&stripped);
        prop_assert_eq!(&first, &second);
        let lines = src.lines().count().max(1) as u32;
        let all_lines = first
            .structs.iter().map(|s| s.line)
            .chain(first.enums.iter().map(|e| e.line))
            .chain(first.impls.iter().map(|i| i.line))
            .chain(first.literals.iter().map(|l| l.line));
        for line in all_lines {
            prop_assert!(line >= 1 && line <= lines, "line {} of {} total", line, lines);
        }
    }
}
