//! A minimal JSON reader for the lint's one config input, the snapshot
//! manifest. Hand-rolled because the lint stays std-only: it gates the
//! workspace, so it must not depend on it — or on anything else.
//!
//! Reads the full JSON grammar except `\uXXXX` surrogate pairs (accepted,
//! decoded as the replacement character) and number formats beyond what
//! `f64::parse` takes. The manifest is a small committed file; parse
//! errors carry a line number for direct fixing.

use std::collections::BTreeMap;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; config files only hold small ints).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; `BTreeMap` keeps key iteration deterministic.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        let JsonValue::Obj(m) = self else { return None };
        m.get(key)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        let JsonValue::Str(s) = self else { return None };
        Some(s)
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        let JsonValue::Arr(v) = self else { return None };
        Some(v)
    }

    /// An array of strings, if every element is a string.
    pub fn as_str_arr(&self) -> Option<Vec<String>> {
        self.as_arr()?
            .iter()
            .map(|v| v.as_str().map(str::to_owned))
            .collect()
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos < p.chars.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Parser {
    fn err(&self, what: &str) -> String {
        format!("line {}: {}", self.line, what)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.bump();
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{c}`")))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        for want in word.chars() {
            if self.bump() != Some(want) {
                return Err(self.err(&format!("expected `{word}`")));
            }
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => self.string().map(JsonValue::Str),
            Some('t') => self.literal("true", JsonValue::Bool(true)),
            Some('f') => self.literal("false", JsonValue::Bool(false)),
            Some('n') => self.literal("null", JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected `{c}`"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(JsonValue::Obj(map)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(JsonValue::Arr(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.bump();
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.bump();
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true, "e": null}, "f": []}"#)
            .expect("parse");
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(|c| c.as_str()),
            Some("x\ny")
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("d")),
            Some(&JsonValue::Bool(true))
        );
        assert_eq!(
            v.get("f").and_then(|f| f.as_arr()).map(|f| f.len()),
            Some(0)
        );
    }

    #[test]
    fn str_arr_helper() {
        let v = parse(r#"["a", "b"]"#).unwrap();
        assert_eq!(v.as_str_arr(), Some(vec!["a".into(), "b".into()]));
        assert_eq!(parse(r#"["a", 1]"#).unwrap().as_str_arr(), None);
    }

    #[test]
    fn errors_carry_lines() {
        let err = parse("{\n  \"a\": oops\n}").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(parse("{} extra").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escape_decodes() {
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }
}
