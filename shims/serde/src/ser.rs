//! Serialization half of the serde shim.
//!
//! [`Serializer`] is a streaming sink with real serde's method names: a
//! type hands it scalars one call at a time, and opens a compound
//! (sequence, map, struct or enum variant) whose elements it then feeds
//! one by one. The JSON writer (`serde_json::Serializer`) formats each
//! call straight into its output; [`ValueSerializer`] builds a [`Value`]
//! tree from the same calls.
//!
//! Compared with real serde the shim drops what the workspace never
//! calls: byte arrays, `i128`/`u128`, and the separate tuple and unit
//! struct forms (tuples serialize as sequences, unit structs as unit).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

use crate::__value::Value;

/// Uninhabited error type: lowering into a [`Value`] cannot fail.
///
/// Mirrors `serde::ser::Impossible` in spirit; [`to_value`] eliminates it
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

/// A streaming sink for one value of the shim's data model.
pub trait Serializer: Sized {
    /// Output of a successful serialization.
    type Ok;
    /// Error type.
    type Error: Error;
    /// Sink for the elements of a sequence or tuple.
    type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// Sink for the fields of a tuple variant.
    type SerializeTupleVariant: SerializeTupleVariant<Ok = Self::Ok, Error = Self::Error>;
    /// Sink for the entries of a map.
    type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;
    /// Sink for the fields of a struct.
    type SerializeStruct: SerializeStruct<Ok = Self::Ok, Error = Self::Error>;
    /// Sink for the fields of a struct variant.
    type SerializeStructVariant: SerializeStructVariant<Ok = Self::Ok, Error = Self::Error>;

    /// Serializes a boolean.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;

    /// Serializes a signed integer.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;

    /// Serializes an unsigned integer.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;

    /// Serializes a float (JSON writes non-finite ones as null).
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;

    /// Serializes a string.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;

    /// Serializes a unit value as null.
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;

    /// Serializes `None` as null.
    fn serialize_none(self) -> Result<Self::Ok, Self::Error> {
        self.serialize_unit()
    }

    /// Serializes `Some(value)` (transparent, like serde's JSON behavior).
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Self::Ok, Self::Error> {
        value.serialize(self)
    }

    /// Serializes a newtype struct as its one field.
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error> {
        value.serialize(self)
    }

    /// Serializes a unit variant as its name.
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<Self::Ok, Self::Error> {
        self.serialize_str(variant)
    }

    /// Serializes a newtype variant as `{variant: value}`.
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error> {
        let mut map = self.serialize_map(Some(1))?;
        map.serialize_entry(variant, value)?;
        map.end()
    }

    /// Opens a sequence of `len` elements, if known.
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;

    /// Opens a tuple variant, `{variant: [fields…]}`.
    fn serialize_tuple_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleVariant, Self::Error>;

    /// Opens a map of `len` entries, if known.
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;

    /// Opens a struct of `len` fields.
    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error>;

    /// Opens a struct variant, `{variant: {fields…}}`.
    fn serialize_struct_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStructVariant, Self::Error>;

    /// Serializes every item of `iter` as one sequence.
    fn collect_seq<I>(self, iter: I) -> Result<Self::Ok, Self::Error>
    where
        I: IntoIterator,
        I::Item: Serialize,
    {
        let iter = iter.into_iter();
        let mut seq = self.serialize_seq(iter.size_hint().1)?;
        for item in iter {
            seq.serialize_element(&item)?;
        }
        seq.end()
    }

    /// Serializes every `(key, value)` pair of `iter` as one map.
    fn collect_map<K, V, I>(self, iter: I) -> Result<Self::Ok, Self::Error>
    where
        K: Serialize,
        V: Serialize,
        I: IntoIterator<Item = (K, V)>,
    {
        let iter = iter.into_iter();
        let mut map = self.serialize_map(iter.size_hint().1)?;
        for (key, value) in iter {
            map.serialize_entry(&key, &value)?;
        }
        map.end()
    }
}

/// The elements of a sequence, returned by [`Serializer::serialize_seq`].
pub trait SerializeSeq {
    /// Output of the finished sequence.
    type Ok;
    /// Error type.
    type Error: Error;

    /// Serializes the next element.
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;

    /// Closes the sequence.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// The fields of a tuple variant, returned by
/// [`Serializer::serialize_tuple_variant`].
pub trait SerializeTupleVariant {
    /// Output of the finished variant.
    type Ok;
    /// Error type.
    type Error: Error;

    /// Serializes the next field.
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;

    /// Closes the variant.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// The entries of a map, returned by [`Serializer::serialize_map`].
pub trait SerializeMap {
    /// Output of the finished map.
    type Ok;
    /// Error type.
    type Error: Error;

    /// Serializes the next key. JSON object keys are strings: a string
    /// key is itself, any other key its JSON text.
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Self::Error>;

    /// Serializes the value of the key just serialized.
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;

    /// Serializes one key and its value.
    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), Self::Error> {
        self.serialize_key(key)?;
        self.serialize_value(value)
    }

    /// Closes the map.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// The fields of a struct, returned by [`Serializer::serialize_struct`].
pub trait SerializeStruct {
    /// Output of the finished struct.
    type Ok;
    /// Error type.
    type Error: Error;

    /// Serializes the field named `key`.
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error>;

    /// Closes the struct.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// The fields of a struct variant, returned by
/// [`Serializer::serialize_struct_variant`].
pub trait SerializeStructVariant {
    /// Output of the finished variant.
    type Ok;
    /// Error type.
    type Error: Error;

    /// Serializes the field named `key`.
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error>;

    /// Closes the variant.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// The canonical tree builder: produces the [`Value`] itself, infallibly.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValueSerializer;

/// A sequence or tuple variant under construction.
#[derive(Debug)]
pub struct ValueSeq {
    variant: Option<&'static str>,
    items: Vec<Value>,
}

/// A map, struct or struct variant under construction.
#[derive(Debug)]
pub struct ValueMap {
    variant: Option<&'static str>,
    entries: Vec<(String, Value)>,
    key: Option<String>,
}

/// Wraps `value` as `{variant: value}` when it is a variant's payload.
fn tag(variant: Option<&'static str>, value: Value) -> Value {
    match variant {
        Some(variant) => Value::Object(vec![(variant.to_string(), value)]),
        None => value,
    }
}

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Impossible;
    type SerializeSeq = ValueSeq;
    type SerializeTupleVariant = ValueSeq;
    type SerializeMap = ValueMap;
    type SerializeStruct = ValueMap;
    type SerializeStructVariant = ValueMap;

    fn serialize_bool(self, v: bool) -> Result<Value, Impossible> {
        Ok(Value::Bool(v))
    }

    fn serialize_i64(self, v: i64) -> Result<Value, Impossible> {
        Ok(Value::Int(v))
    }

    fn serialize_u64(self, v: u64) -> Result<Value, Impossible> {
        Ok(Value::UInt(v))
    }

    fn serialize_f64(self, v: f64) -> Result<Value, Impossible> {
        Ok(Value::Float(v))
    }

    fn serialize_str(self, v: &str) -> Result<Value, Impossible> {
        Ok(Value::String(v.to_string()))
    }

    fn serialize_unit(self) -> Result<Value, Impossible> {
        Ok(Value::Null)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<ValueSeq, Impossible> {
        Ok(ValueSeq {
            variant: None,
            items: Vec::with_capacity(len.unwrap_or(0)),
        })
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<ValueSeq, Impossible> {
        Ok(ValueSeq {
            variant: Some(variant),
            items: Vec::with_capacity(len),
        })
    }

    fn serialize_map(self, len: Option<usize>) -> Result<ValueMap, Impossible> {
        Ok(ValueMap {
            variant: None,
            entries: Vec::with_capacity(len.unwrap_or(0)),
            key: None,
        })
    }

    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<ValueMap, Impossible> {
        self.serialize_map(Some(len))
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<ValueMap, Impossible> {
        Ok(ValueMap {
            variant: Some(variant),
            entries: Vec::with_capacity(len),
            key: None,
        })
    }
}

impl SerializeSeq for ValueSeq {
    type Ok = Value;
    type Error = Impossible;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Impossible> {
        self.items.push(to_value(value));
        Ok(())
    }

    fn end(self) -> Result<Value, Impossible> {
        Ok(tag(self.variant, Value::Array(self.items)))
    }
}

impl SerializeTupleVariant for ValueSeq {
    type Ok = Value;
    type Error = Impossible;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Impossible> {
        self.serialize_element(value)
    }

    fn end(self) -> Result<Value, Impossible> {
        SerializeSeq::end(self)
    }
}

impl SerializeMap for ValueMap {
    type Ok = Value;
    type Error = Impossible;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Impossible> {
        self.key = Some(key_to_string(to_value(key)));
        Ok(())
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Impossible> {
        let key = self.key.take().unwrap_or_default();
        self.entries.push((key, to_value(value)));
        Ok(())
    }

    fn end(self) -> Result<Value, Impossible> {
        Ok(tag(self.variant, Value::Object(self.entries)))
    }
}

impl SerializeStruct for ValueMap {
    type Ok = Value;
    type Error = Impossible;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Impossible> {
        self.entries.push((key.to_string(), to_value(value)));
        Ok(())
    }

    fn end(self) -> Result<Value, Impossible> {
        SerializeMap::end(self)
    }
}

impl SerializeStructVariant for ValueMap {
    type Ok = Value;
    type Error = Impossible;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Impossible> {
        SerializeStruct::serialize_field(self, key, value)
    }

    fn end(self) -> Result<Value, Impossible> {
        SerializeMap::end(self)
    }
}

/// A map key as the object key string the tree stores: a string as
/// itself, anything else as its JSON text (what the JSON writer puts
/// between the quotes).
fn key_to_string(key: Value) -> String {
    key.into_string().unwrap_or_else(|other| other.to_string())
}

/// Lowers any serializable type into a [`Value`]. Infallible by
/// construction.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    match value.serialize(ValueSerializer) {
        Ok(v) => v,
        Err(impossible) => match impossible {},
    }
}

/// A type that can feed itself to a [`Serializer`].
pub trait Serialize {
    /// Serializes `self` into the given serializer.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

macro_rules! impl_serialize_uint {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_u64(*self as u64)
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
                    serializer.serialize_u64(v as u64)
                } else {
                    serializer.serialize_i64(v)
                }
            }
        }
    )*};
}

impl_serialize_uint!(u8, u16, u32, u64, usize);
impl_serialize_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_f64(*self)
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_f64(f64::from(*self))
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bool(*self)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.encode_utf8(&mut [0; 4]))
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
        serializer.collect_seq(self)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self)
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self)
    }
}

impl<T: Serialize + Ord + std::hash::Hash> Serialize for HashSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Sort for deterministic output regardless of hash iteration order.
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        serializer.collect_seq(items)
    }
}

macro_rules! impl_serialize_tuple {
    ($(($len:literal: $($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut seq = serializer.serialize_seq(Some($len))?;
                $(seq.serialize_element(&self.$idx)?;)+
                seq.end()
            }
        }
    )*};
}

impl_serialize_tuple! {
    (1: A: 0)
    (2: A: 0, B: 1)
    (3: A: 0, B: 1, C: 2)
    (4: A: 0, B: 1, C: 2, D: 3)
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_map(self)
    }
}

impl<K: Serialize + Ord + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Sort keys so serialization never leaks hash iteration order.
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        serializer.collect_map(entries)
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Value::Null => serializer.serialize_unit(),
            Value::Bool(b) => serializer.serialize_bool(*b),
            Value::Int(x) => serializer.serialize_i64(*x),
            Value::UInt(x) => serializer.serialize_u64(*x),
            Value::Float(x) => serializer.serialize_f64(*x),
            Value::String(s) => serializer.serialize_str(s),
            Value::Array(items) => serializer.collect_seq(items),
            Value::Object(entries) => serializer.collect_map(entries.iter().map(|(k, v)| (k, v))),
        }
    }
}
