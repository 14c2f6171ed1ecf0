//! The one compact-JSON writer. `serde_json` re-exports it as its
//! `Serializer` and `Error`; [`Value`](crate::Value)'s `Display` goes
//! through it too, so JSON formatting exists once.
//!
//! It formats each [`Serializer`](ser::Serializer) call straight into a
//! [`fmt::Write`] sink — a `String`, a `Formatter`, a hasher — with no
//! tree and no temporary string: integers print through `{x}`, floats
//! through [`write_f64`] (the shortest text that parses back to the same
//! bits, byte-identical to `{x:?}`; non-finite floats print `null`),
//! strings through `write_str`.

use std::fmt;
use std::io;

use crate::ser::{self, Serialize};
use crate::{ryu, Value};

/// Error raised by JSON serialization or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Builds an error carrying `msg`.
    pub fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

impl From<fmt::Error> for Error {
    fn from(_: fmt::Error) -> Self {
        Error::new("the JSON sink refused a write")
    }
}

impl From<Error> for io::Error {
    fn from(e: Error) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Writes `s` as a quoted JSON string: `"` and `\` escaped, `\n`, `\r`
/// and `\t` by name, other control characters as `\u00xx`, everything
/// else verbatim.
fn write_str<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[start..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        start = i + 1;
    }
    out.write_str(&s[start..])?;
    out.write_char('"')
}

/// Writes a float the way JSON carries it: a finite `v` byte for byte as
/// `format!("{v:?}")` prints it (the shortest text that parses back to
/// the same bits, rendered by the shim's Ryu (`ryu.rs`) into a stack
/// buffer with one `write_str`), a non-finite one as `null`, as real
/// `serde_json` does. Unlike reference Ryu, an exact tie between two
/// shortest candidates rounds up, as `{:?}` does; the 125-bit
/// power-of-five tables (`ryu/tables.rs`) are computed at compile time
/// from their definitions.
///
/// `elasticflow-serve`'s hand renderers call it for every float of a WAL
/// record, journal entry and response.
pub fn write_f64<W: fmt::Write + ?Sized>(out: &mut W, v: f64) -> fmt::Result {
    if !v.is_finite() {
        return out.write_str("null");
    }
    let mut buf = [0u8; ryu::MAX_LEN];
    let len = ryu::format_finite(v, &mut buf);
    out.write_str(std::str::from_utf8(&buf[..len]).map_err(|_| fmt::Error)?)
}

/// A compact-JSON [`ser::Serializer`] over a [`fmt::Write`] sink.
#[derive(Debug)]
pub struct Serializer<W> {
    out: W,
}

impl<W: fmt::Write> Serializer<W> {
    /// A writer that appends to `out`.
    pub fn new(out: W) -> Self {
        Serializer { out }
    }
}

/// An open array or object: writes the commas between its elements and
/// `close` at its end.
#[derive(Debug)]
pub struct Compound<'a, W> {
    ser: &'a mut Serializer<W>,
    first: bool,
    close: &'static str,
}

impl<W: fmt::Write> Serializer<W> {
    fn open(&mut self, open: &str, close: &'static str) -> Result<Compound<'_, W>, Error> {
        self.out.write_str(open)?;
        Ok(Compound {
            ser: self,
            first: true,
            close,
        })
    }

    /// Opens `{"variant":` followed by `open`.
    fn open_variant(
        &mut self,
        variant: &str,
        open: &str,
        close: &'static str,
    ) -> Result<Compound<'_, W>, Error> {
        self.out.write_char('{')?;
        write_str(&mut self.out, variant)?;
        self.out.write_char(':')?;
        self.open(open, close)
    }
}

impl<'a, W: fmt::Write> ser::Serializer for &'a mut Serializer<W> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a, W>;
    type SerializeTupleVariant = Compound<'a, W>;
    type SerializeMap = Compound<'a, W>;
    type SerializeStruct = Compound<'a, W>;
    type SerializeStructVariant = Compound<'a, W>;

    fn serialize_bool(self, v: bool) -> Result<(), Error> {
        Ok(self.out.write_str(if v { "true" } else { "false" })?)
    }

    fn serialize_i64(self, v: i64) -> Result<(), Error> {
        Ok(write!(self.out, "{v}")?)
    }

    fn serialize_u64(self, v: u64) -> Result<(), Error> {
        Ok(write!(self.out, "{v}")?)
    }

    fn serialize_f64(self, v: f64) -> Result<(), Error> {
        Ok(write_f64(&mut self.out, v)?)
    }

    fn serialize_str(self, v: &str) -> Result<(), Error> {
        Ok(write_str(&mut self.out, v)?)
    }

    fn serialize_unit(self) -> Result<(), Error> {
        Ok(self.out.write_str("null")?)
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a, W>, Error> {
        self.open("[", "]")
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, W>, Error> {
        self.open_variant(variant, "[", "]}")
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a, W>, Error> {
        self.open("{", "}")
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Compound<'a, W>, Error> {
        self.open("{", "}")
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, W>, Error> {
        self.open_variant(variant, "{", "}}")
    }
}

impl<W: fmt::Write> Compound<'_, W> {
    /// Writes the comma before every element but the first.
    fn separate(&mut self) -> fmt::Result {
        if self.first {
            self.first = false;
            Ok(())
        } else {
            self.ser.out.write_char(',')
        }
    }

    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.separate()?;
        value.serialize(&mut *self.ser)
    }

    fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) -> Result<(), Error> {
        self.separate()?;
        write_str(&mut self.ser.out, key)?;
        self.ser.out.write_char(':')?;
        value.serialize(&mut *self.ser)
    }

    fn close(self) -> Result<(), Error> {
        Ok(self.ser.out.write_str(self.close)?)
    }
}

impl<W: fmt::Write> ser::SerializeSeq for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.element(value)
    }

    fn end(self) -> Result<(), Error> {
        self.close()
    }
}

impl<W: fmt::Write> ser::SerializeTupleVariant for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.element(value)
    }

    fn end(self) -> Result<(), Error> {
        self.close()
    }
}

impl<W: fmt::Write> ser::SerializeMap for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    /// Writes the key as a JSON string: a string as itself, a number,
    /// boolean or null as its JSON text in quotes, anything else as its
    /// JSON text escaped into a string. Keys are lowered to a [`Value`]
    /// first, which allocates only for string and compound keys.
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Error> {
        self.separate()?;
        match ser::to_value(key) {
            Value::String(ref s) => write_str(&mut self.ser.out, s)?,
            scalar @ (Value::Null
            | Value::Bool(_)
            | Value::Int(_)
            | Value::UInt(_)
            | Value::Float(_)) => {
                self.ser.out.write_char('"')?;
                scalar.serialize(&mut *self.ser)?;
                self.ser.out.write_char('"')?;
            }
            compound @ (Value::Array(_) | Value::Object(_)) => {
                write_str(&mut self.ser.out, &compound.to_string())?;
            }
        }
        Ok(())
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.ser.out.write_char(':')?;
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), Error> {
        self.close()
    }
}

impl<W: fmt::Write> ser::SerializeStruct for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.field(key, value)
    }

    fn end(self) -> Result<(), Error> {
        self.close()
    }
}

impl<W: fmt::Write> ser::SerializeStructVariant for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.field(key, value)
    }

    fn end(self) -> Result<(), Error> {
        self.close()
    }
}
