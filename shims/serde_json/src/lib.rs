//! Offline stand-in for [`serde_json`](https://docs.rs/serde_json).
//!
//! Implements the subset of the real crate's API this workspace uses:
//! [`to_string`], [`from_str`], [`to_writer`], the [`json!`] macro, and a
//! [`Value`] with indexing/accessor conveniences. Numbers round-trip
//! exactly: floats print via Rust's shortest-round-trip formatting and parse
//! back with `str::parse::<f64>`, so `to_string` → `from_str` is the
//! identity on every finite `f64` (the real crate's `float_roundtrip`
//! feature behavior).

#![forbid(unsafe_code)]

use std::fmt;
use std::io;

use serde::de::DeserializeOwned;
use serde::ser::Serialize;

pub use serde::__value::Value;

mod parser;

/// Error raised by JSON serialization or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<Error> for io::Error {
    fn from(e: Error) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// `Result` alias matching the real crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    serde::ser::to_value(value).write_json(&mut out);
    Ok(out)
}

/// Serializes a value as compact JSON into an `io::Write`.
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    let text = to_string(value)?;
    writer
        .write_all(text.as_bytes())
        .map_err(|e| Error::new(format!("write error: {e}")))
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
    fn parse_errors_are_reported() {
        assert!(from_str::<u32>("not json").is_err());
        assert!(from_str::<u32>("[1,").is_err());
        assert!(from_str::<u32>("\"unterminated").is_err());
    }
}
