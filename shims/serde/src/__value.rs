//! The JSON-like value tree: what the JSON parser builds, deserialization
//! reads, and `to_value` produces.

use std::fmt;

use crate::__json as json;
use crate::ser::Serialize;

/// A self-describing tree value: what the JSON parser produces and every
/// `Deserialize` impl in the shim reads, and what `to_value` builds.
///
/// Objects preserve insertion order (fields serialize in declaration order)
/// so output is deterministic and diffs are stable. A tree of any depth
/// drops without recursion (see its `Drop`), so its variants' contents
/// move out through [`Value::into_string`], [`Value::into_array`] and
/// [`Value::into_object`] rather than by pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (used for negative numbers).
    Int(i64),
    /// Unsigned integer (the common case for counts and ids).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<Value>),
    /// Object: ordered `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string slice if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64` if this is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(x) => Some(x as f64),
            Value::UInt(x) => Some(x as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The number as `u64` if it is an unsigned integer (or a non-negative
    /// signed one).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(x) => Some(x),
            Value::Int(x) if x >= 0 => Some(x as u64),
            _ => None,
        }
    }

    /// The boolean if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// `true` if this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Moves the string out if this is a string; gives `self` back if not.
    pub fn into_string(mut self) -> Result<String, Value> {
        match &mut self {
            Value::String(s) => Ok(std::mem::take(s)),
            _ => Err(self),
        }
    }

    /// Moves the elements out if this is an array; gives `self` back if not.
    pub fn into_array(mut self) -> Result<Vec<Value>, Value> {
        match &mut self {
            Value::Array(items) => Ok(std::mem::take(items)),
            _ => Err(self),
        }
    }

    /// Moves the entries out if this is an object; gives `self` back if not.
    pub fn into_object(mut self) -> Result<Vec<(String, Value)>, Value> {
        match &mut self {
            Value::Object(entries) => Ok(std::mem::take(entries)),
            _ => Err(self),
        }
    }

    /// Short human-readable name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Drops nested arrays and objects off a heap stack, not by recursion:
/// the derived drop glue takes one stack frame per level, so a deep
/// enough tree would overflow the thread's stack. The parser bounds the
/// depth of what it builds; a tree built in code has no such bound.
impl Drop for Value {
    fn drop(&mut self) {
        let mut nested = Vec::new();
        move_nested_children(self, &mut nested);
        while let Some(mut value) = nested.pop() {
            // `value` drops here with no nested children left.
            move_nested_children(&mut value, &mut nested);
        }
    }
}

/// Moves `value`'s array and object children onto `nested`; its scalar
/// children drop in place. Allocates only when a nested child exists.
fn move_nested_children(value: &mut Value, nested: &mut Vec<Value>) {
    fn is_nested(value: &Value) -> bool {
        matches!(value, Value::Array(_) | Value::Object(_))
    }
    match value {
        Value::Array(items) => nested.extend(items.drain(..).filter(is_nested)),
        Value::Object(entries) => {
            nested.extend(entries.drain(..).map(|(_, v)| v).filter(is_nested));
        }
        _ => {}
    }
}

/// Compact JSON rendering, so `println!("{value}")` matches `serde_json`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.serialize(&mut json::Serializer::new(f))
            .map_err(|_| fmt::Error)
    }
}

static NULL: Value = Value::Null;

/// Object lookup by key; missing keys index to `Value::Null` (like
/// `serde_json`).
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

/// Array lookup by position; out-of-range indexes to `Value::Null`.
impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}
