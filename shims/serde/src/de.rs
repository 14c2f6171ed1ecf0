//! Deserialization half of the serde shim.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::str::FromStr;

use crate::__value::Value;

/// Deserialization errors must be constructible from a message.
pub trait Error: Sized + std::error::Error {
    /// Builds an error carrying `msg`.
    fn custom<T: fmt::Display>(msg: T) -> Self;
}

/// The shim's concrete deserialization error: a message string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

impl Error for DeError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        DeError(msg.to_string())
    }
}

/// A source that yields one [`Value`].
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: Error;

    /// Consumes the deserializer, producing the underlying value tree.
    fn into_value(self) -> Result<Value, Self::Error>;
}

/// The canonical deserializer: wraps an already-parsed [`Value`].
#[derive(Debug, Clone)]
pub struct ValueDeserializer(pub Value);

impl<'de> Deserializer<'de> for ValueDeserializer {
    type Error = DeError;

    fn into_value(self) -> Result<Value, DeError> {
        Ok(self.0)
    }
}

/// A type that can rebuild itself from the shim's data model.
pub trait Deserialize<'de>: Sized {
    /// Deserializes from the given deserializer.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Convenience alias matching serde's `DeserializeOwned`.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// Lifts a [`Value`] into a concrete type.
pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T, DeError> {
    T::deserialize(ValueDeserializer(value))
}

fn unexpected<T, E: Error>(expected: &str, got: &Value) -> Result<T, E> {
    Err(E::custom(format!(
        "invalid type: expected {expected}, found {}",
        got.kind()
    )))
}

macro_rules! impl_deserialize_int {
    ($($ty:ty),*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let value = deserializer.into_value()?;
                match value {
                    Value::UInt(x) => <$ty>::try_from(x)
                        .map_err(|_| D::Error::custom(format!("integer {x} out of range"))),
                    Value::Int(x) => <$ty>::try_from(x)
                        .map_err(|_| D::Error::custom(format!("integer {x} out of range"))),
                    other => unexpected("integer", &other),
                }
            }
        }
    )*};
}

impl_deserialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.into_value()?;
        match value {
            Value::Float(x) => Ok(x),
            Value::UInt(x) => Ok(x as f64),
            Value::Int(x) => Ok(x as f64),
            other => unexpected("number", &other),
        }
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        f64::deserialize(deserializer).map(|x| x as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.into_value()?;
        match value {
            Value::Bool(b) => Ok(b),
            other => unexpected("bool", &other),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer
            .into_value()?
            .into_string()
            .or_else(|other| unexpected("string", &other))
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(D::Error::custom("expected a single-character string")),
        }
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.into_value()?;
        match value {
            Value::Null => Ok(()),
            other => unexpected("null", &other),
        }
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.into_value()?;
        match value {
            Value::Null => Ok(None),
            other => from_value(other).map(Some).map_err(D::Error::custom),
        }
    }
}

fn array_items<E: Error>(value: Value, what: &str) -> Result<Vec<Value>, E> {
    value.into_array().or_else(|other| unexpected(what, &other))
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        array_items(deserializer.into_value()?, "array")?
            .into_iter()
            .map(|item| from_value(item).map_err(D::Error::custom))
            .collect()
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for std::sync::Arc<[T]> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(deserializer).map(std::sync::Arc::from)
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for VecDeque<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(deserializer).map(VecDeque::from)
    }
}

impl<'de, T: DeserializeOwned + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(deserializer).map(|v| v.into_iter().collect())
    }
}

impl<'de, T: DeserializeOwned + Eq + std::hash::Hash> Deserialize<'de> for HashSet<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(deserializer).map(|v| v.into_iter().collect())
    }
}

impl<'de, T: DeserializeOwned, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items = Vec::<T>::deserialize(deserializer)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| D::Error::custom(format!("expected an array of length {N}, found {len}")))
    }
}

macro_rules! impl_deserialize_tuple {
    ($(($len:expr => $($name:ident : $idx:tt),+))*) => {$(
        impl<'de, $($name: DeserializeOwned),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<__D: Deserializer<'de>>(deserializer: __D) -> Result<Self, __D::Error> {
                let items = array_items(deserializer.into_value()?, "tuple array")?;
                if items.len() != $len {
                    return Err(__D::Error::custom(format!(
                        "expected a tuple of length {}, found {}", $len, items.len()
                    )));
                }
                let mut items = items.into_iter();
                Ok(($({
                    let _ = $idx;
                    let item = items.next().ok_or_else(|| __D::Error::custom("tuple underflow"))?;
                    from_value::<$name>(item).map_err(__D::Error::custom)?
                },)+))
            }
        }
    )*};
}

impl_deserialize_tuple! {
    (1 => A: 0)
    (2 => A: 0, B: 1)
    (3 => A: 0, B: 1, C: 2)
    (4 => A: 0, B: 1, C: 2, D: 3)
}

fn object_entries<E: Error>(value: Value) -> Result<Vec<(String, Value)>, E> {
    value
        .into_object()
        .or_else(|other| unexpected("object", &other))
}

/// Map keys parse back from their string form.
fn key_from_string<K: DeserializeOwned, E: Error>(key: String) -> Result<K, E> {
    // Try a string value first (covers String keys), then numeric forms.
    from_value::<K>(Value::String(key.clone()))
        .or_else(|_| match u64::from_str(&key) {
            Ok(x) => from_value::<K>(Value::UInt(x)),
            Err(_) => match i64::from_str(&key) {
                Ok(x) => from_value::<K>(Value::Int(x)),
                Err(e) => Err(DeError(format!("invalid map key `{key}`: {e}"))),
            },
        })
        .map_err(E::custom)
}

impl<'de, K: DeserializeOwned + Ord, V: DeserializeOwned> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        object_entries(deserializer.into_value()?)?
            .into_iter()
            .map(|(k, v)| {
                Ok((
                    key_from_string::<K, D::Error>(k)?,
                    from_value(v).map_err(D::Error::custom)?,
                ))
            })
            .collect()
    }
}

impl<'de, K, V> Deserialize<'de> for HashMap<K, V>
where
    K: DeserializeOwned + Eq + std::hash::Hash,
    V: DeserializeOwned,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        object_entries(deserializer.into_value()?)?
            .into_iter()
            .map(|(k, v)| {
                Ok((
                    key_from_string::<K, D::Error>(k)?,
                    from_value(v).map_err(D::Error::custom)?,
                ))
            })
            .collect()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.into_value()
    }
}
