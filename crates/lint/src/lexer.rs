//! A lightweight Rust lexer for the lint pass.
//!
//! Produces a token stream with line numbers, *skipping* the three places
//! where forbidden patterns are false positives:
//!
//! * string literals (plain, raw, byte, byte-raw) — `"panic!(…)"` is data;
//! * comments (`//` line, nested `/* */` block, doc comments — which is
//!   also where `# Panics` sections and doc-test examples live);
//! * test-only code (`#[cfg(test)]` items, `mod tests { … }`, `#[test]`
//!   functions) — dropped by [`strip_test_regions`] before rule
//!   evaluation.
//!
//! While skipping comments the lexer *does* parse suppression directives of
//! the form `// elasticflow-lint: allow(EF-L00N): <justification>`; the
//! justification is mandatory (a bare allow is reported as malformed).

/// Token categories the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal.
    Int,
    /// Float literal.
    Float,
    /// String literal of any flavor (contents discarded).
    Str,
    /// Char literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Single punctuation character.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token text (empty for string literals).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Token {
    /// `true` when the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// `true` when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// A parsed `// elasticflow-lint: allow(RULE): justification` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// The rule id being suppressed (e.g. `EF-L002`).
    pub rule: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// `true` when other tokens precede the comment on its line (a
    /// trailing allow suppresses its own line; a standalone allow
    /// suppresses the next token-bearing line).
    pub trailing: bool,
}

/// Everything the lexer extracts from one source file.
#[derive(Debug, Clone, Default)]
pub struct LexedFile {
    /// The token stream (comments/strings-contents stripped).
    pub tokens: Vec<Token>,
    /// Well-formed suppression directives.
    pub allows: Vec<AllowDirective>,
    /// Lines carrying a malformed `elasticflow-lint:` comment (bad syntax
    /// or missing justification).
    pub malformed_allows: Vec<u32>,
}

/// The directive marker inside comments.
pub const DIRECTIVE_PREFIX: &str = "elasticflow-lint:";

/// Lexes one file worth of Rust source.
pub fn lex(src: &str) -> LexedFile {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: LexedFile,
    src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            out: LexedFile::default(),
            src,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> LexedFile {
        let _ = self.src;
        while let Some(c) = self.peek(0) {
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                'r' if self.is_raw_string(0) => self.raw_string(),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.plain_string();
                }
                'b' if self.peek(1) == Some('r') && self.is_raw_string(1) => {
                    self.bump();
                    self.raw_string();
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.char_or_lifetime();
                }
                '"' => self.plain_string(),
                '\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if c == '_' || c.is_alphabetic() => self.ident(),
                _ => {
                    let line = self.line;
                    let c = self.bump().unwrap_or(' ');
                    self.push(TokenKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    /// `r"`, `r#"`, `r##"`, … at `pos + offset`.
    fn is_raw_string(&self, offset: usize) -> bool {
        if self.peek(offset) != Some('r') {
            return false;
        }
        let mut i = offset + 1;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let had_tokens_on_line = self.out.tokens.last().is_some_and(|t| t.line == line);
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.parse_directive(&text, line, had_tokens_on_line);
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let had_tokens_on_line = self.out.tokens.last().is_some_and(|t| t.line == line);
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.parse_directive(&text, line, had_tokens_on_line);
    }

    /// Parses an `elasticflow-lint:` directive out of comment text.
    fn parse_directive(&mut self, comment: &str, line: u32, trailing: bool) {
        let trimmed = comment.trim_start_matches(['/', '*', '!']).trim();
        let Some(rest) = trimmed.strip_prefix(DIRECTIVE_PREFIX) else {
            return;
        };
        let rest = rest.trim();
        let ok = (|| {
            let body = rest.strip_prefix("allow(")?;
            let close = body.find(')')?;
            let rule = body[..close].trim().to_string();
            if rule.is_empty() {
                return None;
            }
            let after = body[close + 1..].trim_start();
            let justification = after.strip_prefix(':')?.trim();
            if justification.is_empty() {
                return None;
            }
            Some(AllowDirective {
                rule,
                line,
                trailing,
            })
        })();
        match ok {
            Some(directive) => self.out.allows.push(directive),
            None => self.out.malformed_allows.push(line),
        }
    }

    fn plain_string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Str, String::new(), line);
    }

    fn raw_string(&mut self) {
        let line = self.line;
        self.bump(); // 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        loop {
            match self.bump() {
                None => break,
                Some('"') => {
                    let mut matched = 0usize;
                    while matched < hashes && self.peek(0) == Some('#') {
                        matched += 1;
                        self.bump();
                    }
                    if matched == hashes {
                        break;
                    }
                }
                Some(_) => {}
            }
        }
        self.push(TokenKind::Str, String::new(), line);
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime).
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume to the closing quote.
                self.bump();
                self.bump(); // the escaped char (enough for \n, \', \\ …)
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokenKind::Char, String::new(), line);
            }
            Some(c) if self.peek(1) == Some('\'') => {
                let _ = c;
                self.bump();
                self.bump();
                self.push(TokenKind::Char, String::new(), line);
            }
            _ => {
                // Lifetime: consume identifier characters.
                let mut text = String::from("'");
                while let Some(c) = self.peek(0) {
                    if c == '_' || c.is_alphanumeric() {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokenKind::Lifetime, text, line);
            }
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let mut is_float = false;
        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Hex/octal/binary literals: 0x…, 0o…, 0b….
        if text == "0" && matches!(self.peek(0), Some('x' | 'o' | 'b')) {
            text.push(self.bump().unwrap_or('x'));
            while let Some(c) = self.peek(0) {
                if c.is_ascii_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Int, text, line);
            return;
        }
        // Fractional part: a dot is part of the number only when a digit
        // follows (`1.max(2)` stays Int + `.` + `max`).
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            text.push('.');
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some('e' | 'E')) {
            let sign_ok = match self.peek(1) {
                Some('+' | '-') => self.peek(2).is_some_and(|c| c.is_ascii_digit()),
                Some(c) => c.is_ascii_digit(),
                None => false,
            };
            if sign_ok {
                is_float = true;
                text.push(self.bump().unwrap_or('e'));
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '+' || c == '-' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Type suffix.
        let mut suffix = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                suffix.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if suffix.starts_with("f32") || suffix.starts_with("f64") {
            is_float = true;
        }
        self.push(
            if is_float {
                TokenKind::Float
            } else {
                TokenKind::Int
            },
            text,
            line,
        );
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line);
    }
}

/// Removes test-only regions from a token stream: items annotated
/// `#[cfg(test)]` or `#[test]`, and `mod tests { … }` blocks. Returns the
/// surviving tokens.
pub fn strip_test_regions(tokens: &[Token]) -> Vec<Token> {
    let mut keep = vec![true; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        // `#[cfg(test)]`-style attribute?
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let close = match matching(tokens, i + 1, '[', ']') {
                Some(c) => c,
                None => break,
            };
            let is_test_attr = {
                let body = &tokens[i + 2..close];
                let has = |s: &str| body.iter().any(|t| t.is_ident(s));
                has("test") && (has("cfg") || body.len() == 1)
            };
            if is_test_attr {
                let end = item_end(tokens, close + 1);
                for flag in keep.iter_mut().take(end).skip(i) {
                    *flag = false;
                }
                i = end;
                continue;
            }
            i = close + 1;
            continue;
        }
        // Bare `mod tests { … }` (conventional even without the cfg).
        if tokens[i].is_ident("mod")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("tests"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            if let Some(close) = matching(tokens, i + 2, '{', '}') {
                for flag in keep.iter_mut().take(close + 1).skip(i) {
                    *flag = false;
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    tokens
        .iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(t, _)| t.clone())
        .collect()
}

/// Index of the delimiter matching `tokens[open]`.
fn matching(tokens: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// One past the end of the item starting at `start`: skips any further
/// attributes, then runs to the matching `}` of the item's body (or the
/// terminating `;` for bodiless items).
fn item_end(tokens: &[Token], mut start: usize) -> usize {
    while start < tokens.len()
        && tokens[start].is_punct('#')
        && tokens.get(start + 1).is_some_and(|t| t.is_punct('['))
    {
        match matching(tokens, start + 1, '[', ']') {
            Some(close) => start = close + 1,
            None => return tokens.len(),
        }
    }
    let mut j = start;
    while j < tokens.len() {
        if tokens[j].is_punct(';') {
            return j + 1;
        }
        if tokens[j].is_punct('{') {
            return match matching(tokens, j, '{', '}') {
                Some(close) => close + 1,
                None => tokens.len(),
            };
        }
        j += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_are_opaque() {
        let toks = lex(r#"let x = "foo.unwrap() panic!";"#).tokens;
        assert!(toks.iter().all(|t| t.text != "unwrap" && t.text != "panic"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Str).count(), 1);
    }

    #[test]
    fn raw_and_byte_strings_are_opaque() {
        for src in [
            r##"let x = r#"contains .unwrap() and "quotes""#;"##,
            r#"let x = b"panic!(\"no\")";"#,
            r##"let x = br#".expect("x")"#;"##,
        ] {
            assert!(
                !idents(src)
                    .iter()
                    .any(|s| s == "unwrap" || s == "panic" || s == "expect"),
                "leaked from {src}"
            );
        }
    }

    #[test]
    fn comments_are_skipped_line_and_block() {
        let src = "// a.unwrap()\n/* panic!() /* nested .expect( */ */\nlet y = 1;";
        let names = idents(src);
        assert_eq!(names, vec!["let", "y"]);
    }

    #[test]
    fn doc_comments_are_skipped() {
        let src = "/// ex: `x.unwrap()`\n//! panic!()\nfn f() {}";
        assert_eq!(idents(src), vec!["fn", "f"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = lex("let c: char = 'x'; fn f<'a>(v: &'a str) {}").tokens;
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Char).count(), 1);
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            2
        );
    }

    #[test]
    fn escaped_char_literal() {
        let toks = lex(r"let c = '\''; let d = '\n';").tokens;
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Char).count(), 2);
    }

    #[test]
    fn float_vs_int_vs_method_call() {
        let toks = lex("let a = 1.5; let b = 2; let c = 1.max(3); let d = 2e3;").tokens;
        let floats: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Float)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(floats, vec!["1.5", "2e3"]);
        assert!(toks.iter().any(|t| t.is_ident("max")));
    }

    #[test]
    fn float_suffix_detected() {
        let toks = lex("let a = 1f64; let b = 3_f32;").tokens;
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::Float).count(),
            2
        );
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "let a = \"x\ny\";\n/* c\nc */ let b = 1;";
        let toks = lex(src).tokens;
        let b = toks.iter().find(|t| t.is_ident("b")).expect("b");
        assert_eq!(b.line, 4);
    }

    #[test]
    fn allow_directive_parsed() {
        let f = lex("// elasticflow-lint: allow(EF-L002): checked above\nx == 0.0;");
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "EF-L002");
        assert!(!f.allows[0].trailing);
        assert!(f.malformed_allows.is_empty());
    }

    #[test]
    fn trailing_allow_detected() {
        let f = lex("x == 0.0; // elasticflow-lint: allow(EF-L002): invariant");
        assert_eq!(f.allows.len(), 1);
        assert!(f.allows[0].trailing);
    }

    #[test]
    fn allow_without_justification_is_malformed() {
        for src in [
            "// elasticflow-lint: allow(EF-L002)",
            "// elasticflow-lint: allow(EF-L002):",
            "// elasticflow-lint: allow(EF-L002):   ",
            "// elasticflow-lint: allow()",
            "// elasticflow-lint: disable(EF-L002): nope",
        ] {
            let f = lex(src);
            assert!(f.allows.is_empty(), "accepted: {src}");
            assert_eq!(f.malformed_allows, vec![1], "not reported: {src}");
        }
    }

    #[test]
    fn cfg_test_items_are_stripped() {
        let src = "fn live() { a(); }\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        let toks = strip_test_regions(&lex(src).tokens);
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(toks.iter().any(|t| t.is_ident("live")));
    }

    #[test]
    fn test_attr_fn_is_stripped() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn live() { b(); }";
        let toks = strip_test_regions(&lex(src).tokens);
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(toks.iter().any(|t| t.is_ident("live")));
    }

    #[test]
    fn bare_mod_tests_is_stripped() {
        let src = "mod tests { fn t() { x.unwrap(); } }\nfn live() {}";
        let toks = strip_test_regions(&lex(src).tokens);
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(toks.iter().any(|t| t.is_ident("live")));
    }

    #[test]
    fn non_test_cfg_attr_is_kept() {
        let src = "#[cfg(feature = \"audit\")]\nfn audited() { x.unwrap(); }";
        let toks = strip_test_regions(&lex(src).tokens);
        assert!(toks.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn cfg_any_test_is_stripped() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nfn helper() { x.unwrap(); }";
        let toks = strip_test_regions(&lex(src).tokens);
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
    }
}
