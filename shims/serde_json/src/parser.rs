//! A small recursive-descent JSON parser producing the shim's [`Value`].

use crate::{Error, Value};

/// How deep arrays and objects may nest, as in real serde_json: each
/// level is one parser frame, so an unbounded depth lets one hostile
/// line overflow the thread's stack. RFC 8259 §9 lets a parser set it.
pub const RECURSION_LIMIT: usize = 128;

pub fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                c as char, self.pos
            ))),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`RECURSION_LIMIT`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == RECURSION_LIMIT {
            return Err(Error::new(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(Error::new("truncated \\u escape"));
                            }
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign (`\u+041`).
                            let hex = &self.bytes[self.pos + 1..self.pos + 5];
                            let code = hex.iter().try_fold(0u32, |code, &b| {
                                char::from(b)
                                    .to_digit(16)
                                    .map(|digit| code << 4 | digit)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))
                            })?;
                            // Surrogate pairs are unsupported; the shim never
                            // emits them (it writes non-ASCII verbatim).
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a UTF-8 boundary of the
                    // (already valid) input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Consumes a run of ASCII digits; returns how many.
    fn skip_digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Parses one number as RFC 8259 §6 spells it,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, as real
    /// serde_json does: a leading zero takes no digit after it, and a
    /// `.` or an exponent takes at least one. A number with a fraction
    /// or an exponent is a float (`str::parse::<f64>`); any other is an
    /// integer, unsigned unless it starts with `-`, except `-0`, which is
    /// the float `-0.0`.
    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let invalid = || Error::new(format!("invalid number at byte {start}"));
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_len = self.skip_digits();
        if int_len == 0 || (int_len > 1 && self.bytes[int_start] == b'0') {
            return Err(invalid());
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            is_float = true;
            if self.skip_digits() == 0 {
                return Err(invalid());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            is_float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.skip_digits() == 0 {
                return Err(invalid());
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error::new(format!("invalid number `{text}`: {e}")))
        } else if text == "-0" {
            // As in real serde_json: an integer has no negative zero, so
            // `-0` is the float that keeps its sign.
            Ok(Value::Float(-0.0))
        } else if let Some(stripped) = text.strip_prefix('-') {
            // Negative integer.
            stripped
                .parse::<u64>()
                .map_err(|e| Error::new(format!("invalid number `{text}`: {e}")))
                .and_then(|mag| {
                    // `0 - mag` reaches `i64::MIN`, whose magnitude no
                    // positive `i64` holds.
                    0i64.checked_sub_unsigned(mag)
                        .map(Value::Int)
                        .ok_or_else(|| Error::new(format!("integer `{text}` out of range")))
                })
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|e| Error::new(format!("invalid number `{text}`: {e}")))
        }
    }
}
