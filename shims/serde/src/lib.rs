//! Offline shim for `serde`: `Serialize`/`Deserialize` without the visitor
//! machinery. The `serde_derive` shim generates impls of these traits; the
//! `serde_json` shim is the front door (`to_string`, `from_str`, …).
//!
//! Each trait has one method. `write_json` emits tokens straight into a
//! [`JsonWriter`] text sink and `read_json` pulls them straight out of a
//! [`JsonReader`], so no intermediate tree, key `String` or number `String`
//! is built. [`Value`] is the owned JSON data model (`json!`,
//! hand-assembled artifacts) and reads and writes itself like any other
//! type; a typed value becomes a `Value` only through text
//! (`serde_json::to_value` / `from_value`), so no type describes its JSON
//! twice.

mod float;
mod reader;
mod writer;

pub use reader::JsonReader;
pub use writer::JsonWriter;

/// An open array or object, on either side: whether its next entry is the
/// first one. Generated code holds one per container it has open.
#[derive(Debug)]
pub struct Seq {
    first: bool,
}

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::io::Write;
use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

/// JSON data model: what structs serialise into and parse from.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(Number),
    /// A JSON string.
    String(String),
    /// A JSON array.
    Array(Vec<Value>),
    /// A JSON object; insertion-ordered pairs (derive emits declaration
    /// order, maps emit sorted key order, so output is deterministic).
    Object(Vec<(String, Value)>),
}

/// Exact JSON number: unsigned / signed integer or float, preserving full
/// `u64`/`i64` precision (floats use Rust's shortest-roundtrip printing,
/// which is what serde_json's `float_roundtrip` feature guarantees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Float.
    F(f64),
}

impl Number {
    /// The number a map key spells, in whatever form Rust parses (so also
    /// `+1`, `inf`): `u64`, else `i64`, else `f64`.
    pub(crate) fn from_key(s: &str) -> Option<Number> {
        if let Ok(u) = s.parse::<u64>() {
            Some(Number::U(u))
        } else if let Ok(i) = s.parse::<i64>() {
            Some(Number::I(i))
        } else {
            s.parse::<f64>().ok().map(Number::F)
        }
    }

    /// Lossy conversion to `f64`.
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }

    /// Exact `u64` if representable.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U(u) => Some(u),
            Number::I(i) if i >= 0 => Some(i as u64),
            Number::F(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }

    /// Exact `i64` if representable.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::U(u) => i64::try_from(u).ok(),
            Number::I(i) => Some(i),
            Number::F(f) if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 => {
                Some(f as i64)
            }
            _ => None,
        }
    }
}

/// (De)serialisation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Construct from any message.
    pub fn msg(m: impl Into<String>) -> Self {
        Error { msg: m.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves as JSON.
pub trait Serialize {
    /// Stream as JSON text.
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>);
}

/// Types reconstructible from JSON.
pub trait Deserialize: Sized {
    /// Parse the next value of the text.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error>;
}

/// The error for a struct field the input does not have (generated code
/// calls this; stable name, `__` prefixed).
pub fn __missing_field(name: &str, ty: &str) -> Error {
    Error::msg(format!("missing field `{name}` of {ty}"))
}

// ---------------------------------------------------------------------------
// Serialize/Deserialize for std types.
// ---------------------------------------------------------------------------

macro_rules! impl_ser_integer {
    ($as:ident, $write:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
                w.$write(*self as $wide);
            }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
                r.read_number(stringify!($t))?
                    .$as()
                    .and_then(|x| <$t>::try_from(x).ok())
                    .ok_or_else(|| Error::msg(concat!("number out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_ser_integer!(as_u64, u64 as u64: u8, u16, u32, u64, usize);
impl_ser_integer!(as_i64, i64 as i64: i8, i16, i32, i64, isize);

macro_rules! impl_ser_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) { w.f64(*self as f64); }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
                Ok(r.read_number(stringify!($t))?.as_f64() as $t)
            }
        }
    )*};
}

impl_ser_float!(f32, f64);

impl Serialize for bool {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        r.read_bool()
    }
}

impl Serialize for String {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        r.read_str("string").map(Cow::into_owned)
    }
}

impl Serialize for str {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        w.str(self);
    }
}

impl Serialize for char {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        w.str(self.encode_utf8(&mut [0; 4]));
    }
}

fn single_char(s: &str) -> Option<char> {
    let mut chars = s.chars();
    chars.next().filter(|_| chars.next().is_none())
}

impl Deserialize for char {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        single_char(&r.read_str("single-char string")?)
            .ok_or_else(|| Error::msg("expected single-char string, got string"))
    }
}

/// Pointer-like wrappers serialise as what they point to.
macro_rules! impl_ser_deref {
    ($($ptr:ty),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $ptr {
            fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
                (**self).write_json(w);
            }
        }
    )*};
}

impl_ser_deref!(&T, Box<T>, Arc<T>);

impl<T: Serialize> Serialize for Option<T> {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        match self {
            Some(t) => t.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        if r.eat_null() {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

fn write_array<'a, T: Serialize + 'a, W: Write>(
    items: impl Iterator<Item = &'a T>,
    w: &mut JsonWriter<W>,
) {
    let mut seq = w.begin_array();
    for item in items {
        w.elem(&mut seq);
        item.write_json(w);
    }
    w.end_array(seq);
}

fn read_array<T: Deserialize, C: Default + Extend<T>>(r: &mut JsonReader<'_>) -> Result<C, Error> {
    let mut seq = r.begin_array("array")?;
    let mut out = C::default();
    while r.next_elem(&mut seq)? {
        out.extend(Some(T::read_json(r)?));
    }
    Ok(out)
}

/// Sequence containers: a JSON array in iteration order.
macro_rules! impl_ser_seq {
    ($($c:ident: $($bound:ident),*;)*) => {$(
        impl<T: Serialize $(+ $bound)*> Serialize for $c<T> {
            fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
                write_array(self.iter(), w);
            }
        }
        impl<T: Deserialize $(+ $bound)*> Deserialize for $c<T> {
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
                read_array(r)
            }
        }
    )*};
}

impl_ser_seq! {
    Vec: ;
    VecDeque: ;
    BTreeSet: Ord;
}

impl<T: Serialize> Serialize for [T] {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        write_array(self.iter(), w);
    }
}

/// A hash set's elements in `Ord` order, for deterministic output.
fn sorted<T: Ord>(set: &HashSet<T>) -> Vec<&T> {
    let mut items: Vec<&T> = set.iter().collect();
    items.sort();
    items
}

impl<T: Serialize + Ord + Hash> Serialize for HashSet<T> {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        write_array(sorted(self).into_iter(), w);
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        read_array(r)
    }
}

fn write_map<'a, K: Serialize + 'a, V: Serialize + 'a, W: Write>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    w: &mut JsonWriter<W>,
) {
    let mut seq = w.begin_object();
    for (k, v) in entries {
        w.map_key(&mut seq, k);
        v.write_json(w);
    }
    w.end_object(seq);
}

/// Later duplicates of a key overwrite earlier ones, as `collect` does.
fn read_map<K: Deserialize, V: Deserialize, C: Default + Extend<(K, V)>>(
    r: &mut JsonReader<'_>,
) -> Result<C, Error> {
    let mut seq = r.begin_object("object")?;
    let mut out = C::default();
    while let Some(k) = r.next_map_key::<K>(&mut seq)? {
        out.extend(Some((k, V::read_json(r)?)));
    }
    Ok(out)
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        write_map(self.iter(), w);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        read_map(r)
    }
}

/// A hash map's entries ordered by the text each key spells (serde_json
/// would use iteration order; sorted is strictly more stable).
fn sorted_by_key_text<K: Serialize, V>(map: &HashMap<K, V>) -> Vec<(String, &K, &V)> {
    let mut entries: Vec<_> = map.iter().map(|(k, v)| (writer::key_text(k), k, v)).collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

impl<K: Serialize + Ord + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        write_map(sorted_by_key_text(self).into_iter().map(|(_, k, v)| (k, v)), w);
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        read_map(r)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        T::read_json(r).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        T::read_json(r).map(Arc::new)
    }
}

impl Deserialize for Arc<str> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        r.read_str("string").map(|s| Arc::from(&*s))
    }
}

impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        Ok(Vec::<T>::read_json(r)?.into())
    }
}

macro_rules! impl_ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
                let mut seq = w.begin_array();
                $(w.elem(&mut seq); self.$n.write_json(w);)+
                w.end_array(seq);
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $n; 1 })+;
                let mut seq = r.begin_array("array for tuple")?;
                let out = ($({ r.tuple_elem(&mut seq, LEN, "tuple")?; $t::read_json(r)? },)+);
                r.end_tuple(&mut seq, LEN, "tuple")?;
                Ok(out)
            }
        }
    )*};
}

impl_ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

static NULL_VALUE: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Object member lookup; missing keys (or non-objects) yield `Null`,
    /// matching serde_json.
    fn index(&self, key: &str) -> &Value {
        match self {
            Value::Object(o) => {
                o.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap_or(&NULL_VALUE)
            }
            _ => &NULL_VALUE,
        }
    }
}

impl std::ops::IndexMut<&str> for Value {
    /// Object member lookup for writing; missing keys are inserted as
    /// `Null` first (serde_json semantics). Panics on non-objects.
    fn index_mut(&mut self, key: &str) -> &mut Value {
        let Value::Object(o) = self else {
            panic!("cannot index non-object value with `{key}`");
        };
        if let Some(i) = o.iter().position(|(k, _)| k == key) {
            return &mut o[i].1;
        }
        o.push((key.to_string(), Value::Null));
        &mut o.last_mut().expect("just pushed").1
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    /// Array element lookup; out-of-bounds (or non-arrays) yield `Null`.
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL_VALUE),
            _ => &NULL_VALUE,
        }
    }
}

impl Serialize for Value {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Number(Number::U(u)) => w.u64(*u),
            Value::Number(Number::I(i)) => w.i64(*i),
            Value::Number(Number::F(f)) => w.f64(*f),
            Value::String(s) => w.str(s),
            Value::Array(items) => write_array(items.iter(), w),
            Value::Object(pairs) => {
                let mut seq = w.begin_object();
                for (k, v) in pairs {
                    w.field(&mut seq, k);
                    v.write_json(w);
                }
                w.end_object(seq);
            }
        }
    }
}

impl Deserialize for Value {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        Ok(match r.kind()? {
            "null" => {
                r.read_null()?;
                Value::Null
            }
            "bool" => Value::Bool(r.read_bool()?),
            "number" => Value::Number(r.read_number("number")?),
            "string" => Value::String(r.read_str("string")?.into_owned()),
            "array" => Value::Array(read_array(r)?),
            _ => {
                let mut seq = r.begin_object("object")?;
                let mut pairs = Vec::new();
                while let Some(k) = r.next_key(&mut seq)? {
                    pairs.push((k.into_owned(), Value::read_json(r)?));
                }
                Value::Object(pairs)
            }
        })
    }
}

impl Serialize for () {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        w.null();
    }
}

impl Deserialize for () {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, Error> {
        r.read_null()
    }
}
