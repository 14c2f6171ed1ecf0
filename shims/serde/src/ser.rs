//! Serialization half of the serde shim.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

use crate::__value::Value;

/// Uninhabited error type: lowering into a [`Value`] cannot fail.
///
/// Mirrors `serde::ser::Impossible` in spirit; generated code eliminates it
/// with an empty `match`.
#[derive(Debug)]
pub enum Impossible {}

impl fmt::Display for Impossible {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {}
    }
}

impl std::error::Error for Impossible {}

impl Error for Impossible {
    fn custom<T: fmt::Display>(_msg: T) -> Self {
        unreachable!("Impossible error cannot be constructed")
    }
}

/// Serialization errors must be constructible from a message.
pub trait Error: Sized + std::error::Error {
    /// Builds an error carrying `msg`.
    fn custom<T: fmt::Display>(msg: T) -> Self;
}

/// A sink that consumes one [`Value`].
///
/// Unlike real serde's 30-method visitor trait, the shim funnels everything
/// through [`Serializer::serialize_value`]; the handful of named methods the
/// application's `with`-modules call are provided on top of it.
pub trait Serializer: Sized {
    /// Output of a successful serialization.
    type Ok;
    /// Error type.
    type Error: Error;

    /// Consumes a fully-built value tree.
    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;

    /// Serializes `Some(value)` (transparent, like serde's JSON behavior).
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(to_value(value))
    }

    /// Serializes `None` as null.
    fn serialize_none(self) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Null)
    }

    /// Serializes an `f64` directly.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Float(v))
    }

    /// Serializes a unit value as null.
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Null)
    }
}

/// The canonical serializer: produces the [`Value`] itself, infallibly.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValueSerializer;

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Impossible;

    fn serialize_value(self, value: Value) -> Result<Value, Impossible> {
        Ok(value)
    }
}

/// Lowers any serializable type into a [`Value`]. Infallible by
/// construction.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    match value.serialize(ValueSerializer) {
        Ok(v) => v,
        Err(impossible) => match impossible {},
    }
}

/// A type that can lower itself into the shim's data model.
pub trait Serialize {
    /// Serializes `self` into the given serializer.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

macro_rules! impl_serialize_uint {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::UInt(*self as u64))
            }
        }
    )*};
}

macro_rules! impl_serialize_int {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let v = *self as i64;
                if v >= 0 {
                    serializer.serialize_value(Value::UInt(v as u64))
                } else {
                    serializer.serialize_value(Value::Int(v))
                }
            }
        }
    )*};
}

impl_serialize_uint!(u8, u16, u32, u64, usize);
impl_serialize_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Float(*self))
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Float(f64::from(*self)))
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Bool(*self))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::String(self.to_string()))
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::String(self.clone()))
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::String(self.to_string()))
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => serializer.serialize_some(v),
            None => serializer.serialize_none(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Array(self.iter().map(to_value).collect()))
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Array(self.iter().map(to_value).collect()))
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Array(self.iter().map(to_value).collect()))
    }
}

impl<T: Serialize + Ord + std::hash::Hash> Serialize for HashSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Sort for deterministic output regardless of hash iteration order.
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        serializer.serialize_value(Value::Array(items.into_iter().map(to_value).collect()))
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::Array(vec![$(to_value(&self.$idx)),+]))
            }
        }
    )*};
}

impl_serialize_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Map keys must render to a string; numbers and strings qualify (matches
/// `serde_json`'s behavior for JSON object keys).
fn key_to_string<K: Serialize>(key: &K) -> String {
    match to_value(key) {
        Value::String(s) => s,
        Value::UInt(x) => x.to_string(),
        Value::Int(x) => x.to_string(),
        Value::Bool(b) => b.to_string(),
        other => {
            let mut s = String::new();
            other.write_json(&mut s);
            s
        }
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let entries = self
            .iter()
            .map(|(k, v)| (key_to_string(k), to_value(v)))
            .collect();
        serializer.serialize_value(Value::Object(entries))
    }
}

impl<K: Serialize + Ord + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Sort keys so serialization never leaks hash iteration order.
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let entries = entries
            .into_iter()
            .map(|(k, v)| (key_to_string(k), to_value(v)))
            .collect();
        serializer.serialize_value(Value::Object(entries))
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.clone())
    }
}
