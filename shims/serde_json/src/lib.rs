//! Offline shim for `serde_json`: the front door to the serde shim's
//! streaming JSON writer and pull parser.
//!
//! Typed values stream straight to and from text (`Serialize::write_json`
//! / `Deserialize::read_json`); a [`Value`] tree is built only when a
//! `Value` is what the caller asks for, and then out of that text
//! ([`to_value`], [`from_value`]): no type implements a second conversion.
//!
//! Floats print as Rust's `{}` formatting prints them — shortest
//! round-trip digits (what the upstream `float_roundtrip` feature
//! guarantees), never an exponent — but without going through
//! `core::fmt`: whole numbers below 2^53 take the integer digit loop and
//! every other finite value a Ryū digit generator, and
//! `tests/differential.rs` holds both to `Display` as the oracle. Integral
//! floats print without a fractional part and reparse as integers, which
//! the serde shim's numeric readers accept interchangeably.

use serde::{Deserialize, JsonReader, JsonWriter, Serialize};
pub use serde::{Error, Number, Value};
use std::io;

/// Shim `serde_json::json!`: literal JSON construction.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:tt),* $(,)? ]) => {
        $crate::Value::Array(vec![ $($crate::json!($elem)),* ])
    };
    ({ $($key:tt : $val:tt),* $(,)? }) => {
        $crate::Value::Object(vec![ $(($key.to_string(), $crate::json!($val))),* ])
    };
    ($other:expr) => { $crate::to_value(&$other).expect("a `json!` operand is a JSON value") };
}

fn write<W: io::Write, T: Serialize + ?Sized>(
    out: W,
    indent: Option<usize>,
    value: &T,
) -> Result<W, Error> {
    let mut w = JsonWriter::new(out, indent);
    value.write_json(&mut w);
    w.finish().map_err(|e| Error::msg(format!("write failed: {e}")))
}

fn into_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the writer emits UTF-8: escapes, digits and whole `str`s")
}

/// Serialise any `Serialize` type to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    to_vec(value).map(into_string)
}

/// Serialise to pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    write(Vec::new(), Some(2), value).map(into_string)
}

/// Serialise to a UTF-8 byte vector. It starts with room for a small
/// document (a journal record is ~100 bytes), so that one allocates once.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    write(Vec::with_capacity(128), None, value)
}

/// Serialise as compact JSON into any byte sink — a file, or a running
/// hash that fingerprints the document without buffering it.
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(writer: W, value: &T) -> Result<(), Error> {
    write(writer, None, value).map(drop)
}

/// Parse JSON text into any `Deserialize` type (rejecting trailing
/// garbage).
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = JsonReader::new(s);
    let value = T::read_json(&mut r)?;
    r.end()?;
    Ok(value)
}

/// Parse JSON bytes into any `Deserialize` type.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Any `Serialize` value as a [`Value`]: its compact text, read back. The
/// tree is therefore what a reader of the document sees — an integral float
/// is an integer [`Number`], a non-finite one `Null` — and a value nested
/// deeper than the reader allows is an error.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    from_slice(&to_vec(value)?)
}

/// Read a `Deserialize` type out of a [`Value`], by way of its text.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    from_slice(&to_vec(value)?)
}
