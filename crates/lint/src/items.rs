//! Structural item extraction over the lexed token stream.
//!
//! The token rules in [`crate::rules`] see a flat stream; the cross-file
//! snapshot-coverage rule (EF-L006) needs *shape*: which structs declare
//! which fields, which enums declare which variants, where `impl` blocks
//! put their method bodies, and which fields a struct literal populates.
//!
//! This module recovers exactly that shape with a single linear pass —
//! no external parser crates, no AST. It is a *recognizer*, not a
//! validator: on malformed input it skips forward instead of erroring,
//! and the property tests in `tests/items_properties.rs` pin down both
//! the round-trip guarantee on well-formed items and totality on
//! arbitrary token soups.
//!
//! All positions are expressed as index ranges into the token slice the
//! caller passed to [`extract`], so rule code can inspect bodies without
//! cloning tokens.

use std::ops::Range;

use crate::lexer::{Token, TokenKind};

/// One named field of a struct, or one variant of an enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field or variant name.
    pub name: String,
    /// 1-based source line of the name token.
    pub line: u32,
}

/// How a struct stores its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructKind {
    /// `struct S { a: T, … }` — fields are recovered by name.
    Named,
    /// `struct S(T, …);` — positional; no named fields to recover.
    Tuple,
    /// `struct S;` — no fields at all.
    Unit,
}

/// A recovered `struct` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructItem {
    /// Type name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Storage layout.
    pub kind: StructKind,
    /// Named fields, in declaration order (empty for tuple/unit structs).
    pub fields: Vec<Field>,
}

/// A recovered `enum` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumItem {
    /// Type name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Variants, in declaration order. Payload shapes are not recorded.
    pub variants: Vec<Field>,
}

/// A function found inside an `impl` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body, *excluding* the delimiting braces.
    /// Empty for bodiless (trait-declaration style) functions.
    pub body: Range<usize>,
}

/// A recovered `impl` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplItem {
    /// The implemented type's head identifier (`EventCore` for
    /// `impl<'t> EventCore<'t>`, the type after `for` in trait impls).
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Top-level functions of the block, in declaration order.
    pub fns: Vec<FnItem>,
}

/// A struct-literal expression (`Name { field: …, .. }`) found outside a
/// type-declaration position. Used by the snapshot-coverage rule to
/// verify capture sites populate every manifest field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiteralItem {
    /// The struct name the literal constructs.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Field names the literal populates (shorthand or `field: value`).
    pub fields: Vec<Field>,
    /// `true` when the literal ends with a `..base` spread.
    pub has_spread: bool,
}

/// Everything [`extract`] recovers from one file's token stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileItems {
    /// `struct` declarations.
    pub structs: Vec<StructItem>,
    /// `enum` declarations.
    pub enums: Vec<EnumItem>,
    /// `impl` blocks.
    pub impls: Vec<ImplItem>,
    /// Struct-literal expressions.
    pub literals: Vec<LiteralItem>,
}

/// Runs the structural pass over a (typically stripped) token stream.
pub fn extract(tokens: &[Token]) -> FileItems {
    let mut out = FileItems::default();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "struct" => {
                    i = parse_struct(tokens, i, &mut out);
                    continue;
                }
                "enum" => {
                    i = parse_enum(tokens, i, &mut out);
                    continue;
                }
                "impl" => {
                    i = parse_impl(tokens, i, &mut out);
                    continue;
                }
                _ => {
                    if let Some(next) = parse_literal(tokens, i, &mut out) {
                        i = next;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// `true` for identifiers that may legally precede a `{` that is *not* a
/// struct literal (control-flow keywords, declaration heads, operators).
fn blocks_literal(text: &str) -> bool {
    matches!(
        text,
        "struct"
            | "enum"
            | "union"
            | "trait"
            | "impl"
            | "mod"
            | "fn"
            | "for"
            | "while"
            | "loop"
            | "if"
            | "else"
            | "match"
            | "move"
            | "unsafe"
            | "async"
            | "where"
            | "in"
            | "dyn"
            | "return"
            | "break"
    )
}

/// Tries to parse a struct literal starting at `i`. To qualify, the
/// identifier must start with an uppercase letter (type convention), be
/// followed by `{`, not follow `.`/`::`-path *into* a lowercase head, and
/// the brace body must look like `field:`/shorthand pairs. Returns the
/// index one past the literal on success.
fn parse_literal(tokens: &[Token], i: usize, out: &mut FileItems) -> Option<usize> {
    let t = &tokens[i];
    if !t.text.chars().next().is_some_and(|c| c.is_uppercase()) {
        return None;
    }
    let open = i + 1;
    if !tokens.get(open).is_some_and(|n| n.is_punct('{')) {
        return None;
    }
    if let Some(prev) = i.checked_sub(1).and_then(|j| tokens.get(j)) {
        // `struct Foo {`, `impl Foo {`, `for Foo {`, `mod Foo {` … are
        // declarations, not literals; `match Foo {` is a scrutinee path.
        if prev.kind == TokenKind::Ident && blocks_literal(&prev.text) {
            return None;
        }
    }
    let close = match_delim(tokens, open, '{', '}')?;
    let mut fields = Vec::new();
    let mut has_spread = false;
    let mut j = open + 1;
    while j < close {
        // `..base` spread terminates the field list.
        if tokens[j].is_punct('.') && tokens.get(j + 1).is_some_and(|n| n.is_punct('.')) {
            has_spread = true;
            break;
        }
        if tokens[j].kind != TokenKind::Ident {
            return None; // not a struct literal after all (e.g. a block)
        }
        fields.push(Field {
            name: tokens[j].text.clone(),
            line: tokens[j].line,
        });
        j += 1;
        if j < close && tokens[j].is_punct(':') {
            // `field: value` — skip the value expression.
            j = skip_until_comma(tokens, j + 1, close);
        }
        if j < close {
            if !tokens[j].is_punct(',') {
                return None; // shorthand must be followed by `,` or `}`
            }
            j += 1;
        }
    }
    if fields.is_empty() && !has_spread {
        return None; // `{}` after a type name is more likely a block
    }
    out.literals.push(LiteralItem {
        name: t.text.clone(),
        line: t.line,
        fields,
        has_spread,
    });
    Some(close + 1)
}

/// Advances past one expression: returns the index of the `,` (or `end`)
/// that terminates it, tracking every bracket kind.
fn skip_until_comma(tokens: &[Token], mut j: usize, end: usize) -> usize {
    let mut depth = 0usize;
    while j < end {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text.chars().next().unwrap_or(' ') {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    end
}

/// Index of the token matching the opening delimiter at `open`.
fn match_delim(tokens: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Skips a generic-parameter list starting at a `<`, tolerating nested
/// angles, lifetimes, and `->` inside function-pointer types (whose `>`
/// must not close the list). Returns the index one past the closing `>`.
fn skip_generics(tokens: &[Token], mut j: usize) -> usize {
    if !tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        return j;
    }
    let mut depth = 0usize;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            let arrow = j > 0 && tokens[j - 1].is_punct('-');
            if !arrow {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
        }
        j += 1;
    }
    j
}

/// Parses `struct Name …` at `i` (the `struct` keyword). Returns the
/// index to resume scanning from.
fn parse_struct(tokens: &[Token], i: usize, out: &mut FileItems) -> usize {
    let line = tokens[i].line;
    let Some(name_tok) = tokens.get(i + 1) else {
        return i + 1;
    };
    if name_tok.kind != TokenKind::Ident {
        return i + 1;
    }
    let name = name_tok.text.clone();
    let mut j = skip_generics(tokens, i + 2);
    // A `where` clause (or trailing bounds) may precede the body; scan to
    // the first body-opening token at angle depth 0.
    let mut angle = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(j > 0 && tokens[j - 1].is_punct('-')) {
            angle -= 1;
        } else if angle <= 0 && (t.is_punct('{') || t.is_punct('(') || t.is_punct(';')) {
            break;
        }
        j += 1;
    }
    match tokens.get(j) {
        Some(t) if t.is_punct(';') => {
            out.structs.push(StructItem {
                name,
                line,
                kind: StructKind::Unit,
                fields: Vec::new(),
            });
            j + 1
        }
        Some(t) if t.is_punct('(') => {
            let close = match_delim(tokens, j, '(', ')').unwrap_or(tokens.len() - 1);
            out.structs.push(StructItem {
                name,
                line,
                kind: StructKind::Tuple,
                fields: Vec::new(),
            });
            close + 1
        }
        Some(t) if t.is_punct('{') => {
            let close = match match_delim(tokens, j, '{', '}') {
                Some(c) => c,
                None => return tokens.len(),
            };
            let fields = parse_field_list(tokens, j + 1, close);
            out.structs.push(StructItem {
                name,
                line,
                kind: StructKind::Named,
                fields,
            });
            // Resume *inside* the body so nested items in default exprs
            // (not legal in structs, but cheap to allow) are still seen.
            j + 1
        }
        _ => j,
    }
}

/// Parses a `name: Type` field list between `start` and `end` (exclusive),
/// skipping attributes and visibility modifiers.
fn parse_field_list(tokens: &[Token], start: usize, end: usize) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut j = start;
    while j < end {
        // Skip `#[…]` attributes (incl. doc attributes).
        while j < end
            && tokens[j].is_punct('#')
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match match_delim(tokens, j + 1, '[', ']') {
                Some(c) if c < end => j = c + 1,
                _ => return fields,
            }
        }
        // Skip `pub` / `pub(crate)` / `pub(in …)`.
        if j < end && tokens[j].is_ident("pub") {
            j += 1;
            if j < end && tokens[j].is_punct('(') {
                match match_delim(tokens, j, '(', ')') {
                    Some(c) if c < end => j = c + 1,
                    _ => return fields,
                }
            }
        }
        if j >= end {
            break;
        }
        if tokens[j].kind == TokenKind::Ident && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
        {
            fields.push(Field {
                name: tokens[j].text.clone(),
                line: tokens[j].line,
            });
            j = skip_until_comma(tokens, j + 2, end);
            j += 1; // past the comma (or to `end`)
        } else {
            // Not a field start — recover at the next comma.
            j = skip_until_comma(tokens, j, end) + 1;
        }
    }
    fields
}

/// Parses `enum Name { … }` at `i`. Returns the resume index.
fn parse_enum(tokens: &[Token], i: usize, out: &mut FileItems) -> usize {
    let line = tokens[i].line;
    let Some(name_tok) = tokens.get(i + 1) else {
        return i + 1;
    };
    if name_tok.kind != TokenKind::Ident {
        return i + 1;
    }
    let name = name_tok.text.clone();
    let mut j = skip_generics(tokens, i + 2);
    while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('{')) {
        return j;
    }
    let close = match match_delim(tokens, j, '{', '}') {
        Some(c) => c,
        None => return tokens.len(),
    };
    let mut variants = Vec::new();
    let mut k = j + 1;
    while k < close {
        // Skip attributes.
        while k < close
            && tokens[k].is_punct('#')
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('['))
        {
            match match_delim(tokens, k + 1, '[', ']') {
                Some(c) if c < close => k = c + 1,
                _ => break,
            }
        }
        if k >= close || tokens[k].kind != TokenKind::Ident {
            k = skip_until_comma(tokens, k, close) + 1;
            continue;
        }
        variants.push(Field {
            name: tokens[k].text.clone(),
            line: tokens[k].line,
        });
        // Skip the payload / discriminant to the variant-separating comma.
        k = skip_until_comma(tokens, k + 1, close) + 1;
    }
    out.enums.push(EnumItem {
        name,
        line,
        variants,
    });
    close + 1
}

/// Parses `impl … { … }` at `i`, recording the implemented type and the
/// block's top-level `fn` bodies. Returns `i + 1` so the main loop also
/// sees items nested inside the bodies.
fn parse_impl(tokens: &[Token], i: usize, out: &mut FileItems) -> usize {
    let line = tokens[i].line;
    let mut j = skip_generics(tokens, i + 1);
    // Head: everything up to the body brace; `for` switches to the type
    // position of a trait impl.
    let mut head_start = j;
    let mut angle = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(j > 0 && tokens[j - 1].is_punct('-')) {
            angle -= 1;
        } else if angle <= 0 && t.is_ident("for") {
            head_start = j + 1;
        } else if angle <= 0 && (t.is_ident("where") || t.is_punct('{')) {
            break;
        }
        j += 1;
    }
    // Scan forward from a `where` clause to the body brace.
    while j < tokens.len() && !tokens[j].is_punct('{') {
        j += 1;
    }
    let Some(open) = tokens.get(j).filter(|t| t.is_punct('{')).map(|_| j) else {
        return i + 1;
    };
    // Type name: the last identifier in the head at angle depth 0.
    let mut type_name = String::new();
    let mut angle = 0i32;
    for t in tokens.iter().take(open).skip(head_start) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle <= 0 && t.kind == TokenKind::Ident && !t.is_ident("where") {
            type_name = t.text.clone();
        }
    }
    let close = match match_delim(tokens, open, '{', '}') {
        Some(c) => c,
        None => tokens.len(),
    };
    // Collect top-level fns: depth 1 relative to the impl body.
    let mut fns = Vec::new();
    let mut depth = 0usize;
    let mut k = open;
    while k < close {
        let t = &tokens[k];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if depth == 1 && t.is_ident("fn") {
            if let Some(name_tok) = tokens.get(k + 1).filter(|t| t.kind == TokenKind::Ident) {
                // Signature: scan to the body `{` or terminating `;`.
                let mut b = k + 2;
                let mut sig_angle = 0i32;
                let mut sig_paren = 0i32;
                while b < close {
                    let st = &tokens[b];
                    if st.is_punct('<') {
                        sig_angle += 1;
                    } else if st.is_punct('>') && !(b > 0 && tokens[b - 1].is_punct('-')) {
                        sig_angle -= 1;
                    } else if st.is_punct('(') {
                        sig_paren += 1;
                    } else if st.is_punct(')') {
                        sig_paren -= 1;
                    } else if sig_angle <= 0
                        && sig_paren <= 0
                        && (st.is_punct('{') || st.is_punct(';'))
                    {
                        break;
                    }
                    b += 1;
                }
                if tokens.get(b).is_some_and(|t| t.is_punct('{')) {
                    let body_close = match_delim(tokens, b, '{', '}').unwrap_or(close);
                    fns.push(FnItem {
                        name: name_tok.text.clone(),
                        line: t.line,
                        body: (b + 1)..body_close,
                    });
                    k = b; // depth increments at the body brace next loop
                    continue;
                }
                fns.push(FnItem {
                    name: name_tok.text.clone(),
                    line: t.line,
                    body: b..b,
                });
                k = b;
                continue;
            }
        }
        k += 1;
    }
    out.impls.push(ImplItem {
        type_name,
        line,
        fns,
    });
    i + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> FileItems {
        extract(&lex(src).tokens)
    }

    #[test]
    fn named_struct_fields_recovered() {
        let it = items(
            "pub struct ExecutorSnapshot {\n  pub cluster: ClusterState,\n  \
             pub stats: BTreeMap<JobId, JobStatsSnapshot>,\n  pub total_pause: f64,\n}",
        );
        assert_eq!(it.structs.len(), 1);
        let s = &it.structs[0];
        assert_eq!(s.name, "ExecutorSnapshot");
        assert_eq!(s.kind, StructKind::Named);
        let names: Vec<_> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["cluster", "stats", "total_pause"]);
    }

    #[test]
    fn struct_with_attrs_and_generics() {
        let it = items(
            "#[derive(Debug)]\npub struct EventCore<'t> {\n  arrivals: &'t [JobSpec],\n  \
             #[serde(default)]\n  next_arrival: usize,\n}",
        );
        let s = &it.structs[0];
        assert_eq!(s.name, "EventCore");
        let names: Vec<_> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["arrivals", "next_arrival"]);
    }

    #[test]
    fn tuple_and_unit_structs() {
        let it = items("struct Wrapper(u32);\nstruct Marker;");
        assert_eq!(it.structs.len(), 2);
        assert_eq!(it.structs[0].kind, StructKind::Tuple);
        assert_eq!(it.structs[1].kind, StructKind::Unit);
    }

    #[test]
    fn fn_pointer_field_type_does_not_derail() {
        let it = items("struct S { cb: fn(u32) -> Vec<u8>, next: usize }");
        let names: Vec<_> = it.structs[0]
            .fields
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["cb", "next"]);
    }

    #[test]
    fn enum_variants_recovered() {
        let it = items(
            "pub enum Event {\n  Arrival { job: JobId },\n  Completion { job: JobId },\n  \
             SlotBoundary,\n  ServerFailure { server: u32 },\n}",
        );
        let e = &it.enums[0];
        assert_eq!(e.name, "Event");
        let names: Vec<_> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["Arrival", "Completion", "SlotBoundary", "ServerFailure"]
        );
    }

    #[test]
    fn impl_fns_and_bodies() {
        let it = items(
            "impl<'t> EventCore<'t> {\n  pub fn capture(&self) -> Snap {\n    \
             Snap { next_arrival: self.next_arrival }\n  }\n  fn helper(&self) {}\n}",
        );
        let im = &it.impls[0];
        assert_eq!(im.type_name, "EventCore");
        let names: Vec<_> = im.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["capture", "helper"]);
        assert!(!im.fns[0].body.is_empty());
    }

    #[test]
    fn trait_impl_type_is_after_for() {
        let it = items("impl SimObserver for MetricsCollector { fn on_event(&mut self) {} }");
        assert_eq!(it.impls[0].type_name, "MetricsCollector");
    }

    #[test]
    fn nested_fn_not_recorded_outer_body_spans() {
        let it = items("impl T {\n  fn outer(&self) {\n    fn inner() {}\n    inner();\n  }\n}");
        let names: Vec<_> = it.impls[0].fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer"]);
    }

    #[test]
    fn struct_literal_fields_recovered() {
        let it =
            items("fn f() { let s = SimSnapshot { version: V, now, round: r.round, timeline };\n}");
        assert_eq!(it.literals.len(), 1);
        let l = &it.literals[0];
        assert_eq!(l.name, "SimSnapshot");
        let names: Vec<_> = l.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["version", "now", "round", "timeline"]);
        assert!(!l.has_spread);
    }

    #[test]
    fn literal_spread_detected_and_blocks_are_not_literals() {
        let it = items(
            "fn f() { let r = RunRequest { config: Some(cfg), ..RunRequest::new(s) };\n\
             if cond { Widget::draw(); } }",
        );
        assert_eq!(it.literals.len(), 1);
        assert!(it.literals[0].has_spread);
    }

    #[test]
    fn match_scrutinee_brace_not_taken_as_literal() {
        let it = items("fn f() { match Outcome { Outcome::A => 1, _ => 2 }; }");
        // `Outcome {` here opens the match arms, not a struct literal.
        assert!(it.literals.is_empty());
    }

    #[test]
    fn totality_on_garbage() {
        for src in [
            "struct",
            "struct {",
            "enum X",
            "impl",
            "match",
            "match x",
            "struct S {",
            "impl T { fn }",
            "match x { a =>",
            "} } } {{",
            "struct S<T where { }",
        ] {
            let _ = items(src); // must not panic
        }
    }
}
