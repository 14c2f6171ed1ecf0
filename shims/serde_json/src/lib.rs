//! Offline stand-in for [`serde_json`](https://docs.rs/serde_json).
//!
//! Implements the subset of the real crate's API this workspace uses:
//! [`to_string`], [`from_str`], [`to_writer`], the [`json!`] macro, a
//! [`Value`] with indexing/accessor conveniences, and the streaming
//! [`Serializer`] they write through (over any `fmt::Write` sink, where
//! the real crate's takes an `io::Write`). Serialization streams; parsing
//! builds a [`Value`] tree and lifts it. Numbers round-trip
//! exactly: floats print through the serde shim's one float writer
//! (`serde::__json::write_f64`: Ryu's shortest round-trip digits,
//! byte-identical to `{:?}`) and parse back with `str::parse::<f64>`, so
//! `to_string` → `from_str` is the identity on every finite `f64` (the
//! real crate's `float_roundtrip` feature behavior).

#![forbid(unsafe_code)]

use std::fmt;
use std::io::{self, Write as _};

use serde::de::DeserializeOwned;
use serde::ser::Serialize;

pub use serde::__json::{Error, Serializer};
pub use serde::__value::Value;

mod parser;

/// `Result` alias matching the real crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize(&mut Serializer::new(&mut out))?;
    Ok(out)
}

/// Serializes a value as compact JSON into an `io::Write`, streamed
/// through an 8 KiB buffer: no string of the whole document is built,
/// and an unbuffered `File` sees one write per buffer, not per token.
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(writer: W, value: &T) -> Result<()> {
    let mut sink = IoSink {
        inner: io::BufWriter::new(writer),
        error: None,
    };
    let serialized = value.serialize(&mut Serializer::new(&mut sink));
    let written = match sink.error {
        Some(e) => Err(e),
        None => sink.inner.flush(),
    };
    written.map_err(|e| Error::new(format!("write error: {e}")))?;
    serialized
}

/// Adapts an `io::Write` to the writer's `fmt::Write` sink, keeping the
/// I/O error that `fmt::Error` cannot carry.
struct IoSink<W: io::Write> {
    inner: io::BufWriter<W>,
    error: Option<io::Error>,
}

impl<W: io::Write> fmt::Write for IoSink<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// Parses a JSON string into any deserializable type.
pub fn from_str<T: DeserializeOwned>(input: &str) -> Result<T> {
    let value = parser::parse(input)?;
    serde::de::from_value(value).map_err(|e| Error::new(e.to_string()))
}

/// Lowers any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    serde::ser::to_value(value)
}

/// Lifts a [`Value`] tree into any deserializable type.
pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    serde::de::from_value(value).map_err(|e| Error::new(e.to_string()))
}

/// Builds a [`Value`] from JSON-like syntax.
///
/// Supports the shapes used in this workspace: object literals with literal
/// keys, array literals, `null`, and arbitrary serializable expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(::std::vec![ $($crate::to_value(&$item)),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(::std::vec![
            $(($key.to_string(), $crate::to_value(&$val))),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&3u32).unwrap(), "3");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string("hi\n").unwrap(), "\"hi\\n\"");
        let x: f64 = from_str("0.1").unwrap();
        assert_eq!(x, 0.1);
        let n: Option<f64> = from_str("null").unwrap();
        assert_eq!(n, None);
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for &x in &[0.1f64, 1.0 / 3.0, 1e-308, 1.7976931348623157e308, 42.0] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{s}");
        }
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({
            "title": "t",
            "rows": vec![vec!["a".to_string()]],
        });
        assert_eq!(v["title"], "t");
        assert_eq!(v["rows"][0][0], "a");
        assert!(v["missing"].is_null());
    }

    #[test]
    fn vectors_and_maps_roundtrip() {
        let v = vec![1u32, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        let back: Vec<u32> = from_str(&s).unwrap();
        assert_eq!(v, back);

        let mut m = std::collections::BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        let s = to_string(&m).unwrap();
        assert_eq!(s, "{\"a\":1}");
        let back: std::collections::BTreeMap<String, u64> = from_str(&s).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn strings_roundtrip_across_escapes_and_multibyte_text() {
        for s in [
            "",
            "plain",
            "tab\there \"q\" \\ /",
            "é ü 中文 🚀",
            "a\u{0008}b\u{000c}",
        ] {
            let back: String = from_str(&to_string(s).unwrap()).unwrap();
            assert_eq!(back, s);
        }
        let back: String = from_str("\"x\\u00e9\\/y\"").unwrap();
        assert_eq!(back, "xé/y");
    }

    #[test]
    fn strings_escape_exactly_as_pinned() {
        // Quote, backslash, \n, \r and \t by name, other control
        // characters as \u00xx; DEL, non-ASCII text and `/` verbatim.
        let input = "\"\\\n\r\t\u{1}\u{1f} \u{7f}é/";
        let expected = concat!(r#""\"\\\n\r\t\u0001\u001f "#, "\u{7f}é/\"");
        assert_eq!(to_string(input).unwrap(), expected);
    }

    /// Counts the writes it receives and fails once `fail_after` bytes
    /// have gone through.
    struct Sink {
        writes: usize,
        bytes: usize,
        fail_after: usize,
    }

    impl io::Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.bytes + buf.len() > self.fail_after {
                return Err(io::Error::other("disk full"));
            }
            self.writes += 1;
            self.bytes += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn to_writer_buffers_and_reports_write_errors() {
        let value: Vec<u32> = (0..20_000).collect();
        let text = to_string(&value).unwrap();
        let mut sink = Sink {
            writes: 0,
            bytes: 0,
            fail_after: usize::MAX,
        };
        to_writer(&mut sink, &value).unwrap();
        assert_eq!(sink.bytes, text.len());
        assert!(
            sink.writes <= text.len() / 8_192 + 1,
            "{} writes for {} bytes",
            sink.writes,
            text.len()
        );
        let mut full = Sink {
            writes: 0,
            bytes: 0,
            fail_after: 1_000,
        };
        let err = to_writer(&mut full, &value).unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(from_str::<String>("\"\\u0041\\u00E9\"").unwrap(), "Aé");
        for bad in [
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u04g1\"",
            "\"\\u041\"",
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn integers_parse_across_the_whole_i64_and_u64_ranges() {
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(from_str::<i64>("9223372036854775807").unwrap(), i64::MAX);
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert!(from_str::<i64>("-9223372036854775809").is_err());
        assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
    }

    #[test]
    fn nesting_deeper_than_the_recursion_limit_is_an_error() {
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        let limit = parser::RECURSION_LIMIT;
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(
                from_str::<Value>(&nest(limit, open, close)).is_ok(),
                "{open}"
            );
            let err = from_str::<Value>(&nest(limit + 1, open, close)).unwrap_err();
            assert!(err.to_string().contains("recursion limit"), "{err}");
        }
        // One hostile line: no stack overflow, whatever its length.
        let err = from_str::<Value>(&"[".repeat(50_000)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }

    #[test]
    fn a_value_nested_a_million_deep_drops_without_overflow() {
        let mut value = Value::Null;
        for depth in 0..1_000_000 {
            value = if depth % 2 == 0 {
                Value::Array(vec![Value::UInt(depth), value])
            } else {
                Value::Object(vec![("k".to_string(), value)])
            };
        }
        drop(value);
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for (text, value) in [
            ("0", Value::UInt(0)),
            ("-0", Value::Float(-0.0)),
            ("0.5", Value::Float(0.5)),
            ("1e05", Value::Float(1e5)),
            ("1E+2", Value::Float(100.0)),
            ("-0.0e+0", Value::Float(-0.0)),
        ] {
            assert_eq!(parser::parse(text).unwrap(), value, "{text}");
        }
        for text in ["-0", "-0.0e+0"] {
            let negative_zero = parser::parse(text).unwrap().as_f64();
            assert_eq!(negative_zero.map(f64::to_bits), Some((-0.0f64).to_bits()));
        }
        // Leading zeros and a `.` without digits after it are refused,
        // alone and inside a document.
        for text in ["01", "-01", "00.5", "1.", "1.e5", "-", "1e", "1e+"] {
            assert!(parser::parse(text).is_err(), "{text}");
            assert!(parser::parse(&format!("[{text}]")).is_err(), "[{text}]");
            assert!(
                parser::parse(&format!("{{\"k\":{text}}}")).is_err(),
                "{{\"k\":{text}}}"
            );
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<u32>("not json").is_err());
        assert!(from_str::<u32>("[1,").is_err());
        assert!(from_str::<u32>("\"unterminated").is_err());
    }
}
