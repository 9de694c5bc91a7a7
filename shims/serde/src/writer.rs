//! [`JsonWriter`]: the text sink typed values stream themselves into.
//!
//! Generated and std `Serialize::write_json` impls call the token methods
//! below in document order; nothing is buffered beyond the sink itself, so
//! the same code renders into a `Vec<u8>`, a file, or a running hash.

use crate::Seq;
use std::io::{self, Write};

/// Streaming JSON text writer over any [`io::Write`] sink.
///
/// Token methods are infallible so generated code stays linear; the first
/// sink error is latched and returned by [`JsonWriter::finish`].
pub struct JsonWriter<W: Write> {
    out: W,
    /// Spaces per nesting level; `None` is the compact form.
    indent: Option<usize>,
    depth: usize,
    /// The next scalar is a map key: numbers and bools are quoted, and
    /// anything that is not a scalar is a bug in the caller.
    key: bool,
    err: Option<io::Error>,
}

impl<W: Write> JsonWriter<W> {
    /// Writer into `out`; `indent` of `Some(n)` pretty-prints with `n`
    /// spaces per level.
    pub fn new(out: W, indent: Option<usize>) -> Self {
        JsonWriter { out, indent, depth: 0, key: false, err: None }
    }

    /// The sink, or the first error it returned.
    pub fn finish(self) -> io::Result<W> {
        match self.err {
            None => Ok(self.out),
            Some(e) => Err(e),
        }
    }

    fn raw(&mut self, bytes: &[u8]) {
        if let Err(e) = self.out.write_all(bytes) {
            self.err.get_or_insert(e);
        }
    }

    fn newline_indent(&mut self) {
        if let Some(w) = self.indent {
            self.raw(b"\n");
            for _ in 0..w * self.depth {
                self.raw(b" ");
            }
        }
    }

    fn not_a_key(&self, kind: &str) {
        assert!(!self.key, "map key must serialise to a string or number, got {kind}");
    }

    /// `null`.
    pub fn null(&mut self) {
        self.not_a_key("null");
        self.raw(b"null");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        self.scalar(if b { b"true" } else { b"false" });
    }

    /// A non-negative integer.
    pub fn u64(&mut self, v: u64) {
        self.integer(false, v);
    }

    /// A signed integer.
    pub fn i64(&mut self, v: i64) {
        self.integer(v < 0, v.unsigned_abs());
    }

    /// Decimal digits, formatted in place: no `String` per number.
    fn integer(&mut self, negative: bool, mut magnitude: u64) {
        let mut buf = [0u8; 21];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (magnitude % 10) as u8;
            magnitude /= 10;
            if magnitude == 0 {
                break;
            }
        }
        if negative {
            at -= 1;
            buf[at] = b'-';
        }
        self.scalar(&buf[at..]);
    }

    /// A float, as `Display` spells it (`1` rather than `1.0`: the numeric
    /// readers accept either), without `core::fmt`. A whole number below
    /// 2^53 takes the integer digit loop, which spells it the same way;
    /// above that `Display` prints the shortest round-trip digits padded
    /// with zeros, as does every other finite value (`float.rs`).
    /// JSON has no Inf/NaN, so like serde_json a non-finite value is `null`
    /// — except as a map key, which keeps its `inf`/`NaN` spelling.
    pub fn f64(&mut self, f: f64) {
        const EXACT_INTEGERS: f64 = (1u64 << 53) as f64;
        if f.abs() < EXACT_INTEGERS && f as i64 as f64 == f {
            return self.integer(f.is_sign_negative(), f.abs() as u64);
        }
        if !f.is_finite() && !self.key {
            return self.raw(b"null");
        }
        if f.is_nan() {
            return self.scalar(b"NaN");
        }
        if f.is_infinite() {
            return self.scalar(if f > 0.0 { b"inf" } else { b"-inf" });
        }
        if self.key {
            self.raw(b"\"");
        }
        crate::float::write_finite(f, |text| self.raw(text));
        if self.key {
            self.raw(b"\"");
        }
    }

    /// A bare scalar token, quoted when it stands as a map key.
    fn scalar(&mut self, token: &[u8]) {
        if self.key {
            self.raw(b"\"");
            self.raw(token);
            self.raw(b"\"");
        } else {
            self.raw(token);
        }
    }

    /// A string, escaped; plain byte runs are copied through whole.
    pub fn str(&mut self, s: &str) {
        self.raw(b"\"");
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0..=0x1f => b"",
                _ => continue,
            };
            self.raw(&bytes[start..i]);
            if escape.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                self.raw(&[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[(b >> 4) as usize],
                    HEX[(b & 15) as usize],
                ]);
            } else {
                self.raw(escape);
            }
            start = i + 1;
        }
        self.raw(&bytes[start..]);
        self.raw(b"\"");
    }

    /// JSON text the caller serialised earlier, copied through verbatim: a
    /// whole value, or — between [`JsonWriter::begin_array`] and
    /// [`JsonWriter::end_array`] of a compact writer — a comma-joined run
    /// of elements. The caller vouches that it is what this writer would
    /// have produced; nothing here parses or re-indents it.
    pub fn raw_json(&mut self, json: &[u8]) {
        self.not_a_key("raw JSON");
        self.raw(json);
    }

    fn open(&mut self, kind: &str, bracket: &[u8]) -> Seq {
        self.not_a_key(kind);
        self.raw(bracket);
        self.depth += 1;
        Seq { first: true }
    }

    /// Position the writer for an array's next element (or, within this
    /// module, any container's next entry): `,` after the first, then the
    /// entry's own line when pretty.
    pub fn elem(&mut self, seq: &mut Seq) {
        if !seq.first {
            self.raw(b",");
        }
        seq.first = false;
        self.newline_indent();
    }

    /// An empty container closes on the spot (`[]`, `{}`).
    fn close(&mut self, seq: Seq, bracket: &[u8]) {
        self.depth -= 1;
        if !seq.first {
            self.newline_indent();
        }
        self.raw(bracket);
    }

    /// `[`.
    pub fn begin_array(&mut self) -> Seq {
        self.open("array", b"[")
    }

    /// `]`.
    pub fn end_array(&mut self, seq: Seq) {
        self.close(seq, b"]");
    }

    /// `{`.
    pub fn begin_object(&mut self) -> Seq {
        self.open("object", b"{")
    }

    fn colon(&mut self) {
        self.raw(if self.indent.is_some() { b": " } else { b":" });
    }

    /// `"name":` — the value is written next.
    pub fn field(&mut self, seq: &mut Seq, name: &str) {
        self.elem(seq);
        self.str(name);
        self.colon();
    }

    /// `"name":` given as that literal, for a name that needs no escape
    /// (a Rust identifier): compact, one optional `,` and the literal;
    /// pretty, what [`JsonWriter::field`] writes for `name`.
    pub fn key(&mut self, seq: &mut Seq, literal: &'static [u8]) {
        debug_assert!(literal.starts_with(b"\"") && literal.ends_with(b"\":"));
        self.elem(seq);
        if self.indent.is_some() {
            self.raw(&literal[..literal.len() - 1]);
            self.colon();
        } else {
            self.raw(literal);
        }
    }

    /// A map entry's key: strings pass through, numbers and bools are
    /// quoted (serde_json's integer-keyed-map behaviour).
    pub fn map_key<K: crate::Serialize + ?Sized>(&mut self, seq: &mut Seq, key: &K) {
        self.elem(seq);
        self.key = true;
        key.write_json(self);
        self.key = false;
        self.colon();
    }

    /// `}`.
    pub fn end_object(&mut self, seq: Seq) {
        self.close(seq, b"}");
    }

    /// `{"Tag":` of an externally-tagged enum variant, its key given as
    /// for [`JsonWriter::key`]; close it with [`JsonWriter::end_object`]
    /// after the payload.
    pub fn begin_variant(&mut self, tag: &'static [u8]) -> Seq {
        let mut seq = self.begin_object();
        self.key(&mut seq, tag);
        seq
    }
}

/// The text `key` spells as a map key — a string's content, a number's or
/// bool's digits — rendered by the writer's key mode and unescaped by the
/// reader: what a hash map's entries are ordered by.
pub(crate) fn key_text<K: crate::Serialize + ?Sized>(key: &K) -> String {
    let mut w = JsonWriter::new(Vec::new(), None);
    w.key = true;
    key.write_json(&mut w);
    let quoted = String::from_utf8(w.out).expect("the writer emits UTF-8");
    let text = crate::JsonReader::new(&quoted).read_str("map key");
    text.expect("a key-mode scalar is one JSON string").into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Serialize;

    #[test]
    fn raw_json_splices_a_value_or_a_run_of_elements() {
        let mut w = JsonWriter::new(Vec::new(), None);
        let mut obj = w.begin_object();
        w.field(&mut obj, "one");
        w.raw_json(br#"{"t":1.5}"#);
        w.field(&mut obj, "many");
        let arr = w.begin_array();
        w.raw_json(b"1,[2],3");
        w.end_array(arr);
        w.field(&mut obj, "none");
        let arr = w.begin_array();
        w.raw_json(b"");
        w.end_array(arr);
        w.end_object(obj);
        assert_eq!(w.finish().unwrap(), br#"{"one":{"t":1.5},"many":[1,[2],3],"none":[]}"#);
    }

    #[test]
    #[should_panic(expected = "map key must serialise to a string or number, got raw JSON")]
    fn raw_json_is_not_a_map_key() {
        struct Raw;
        impl Serialize for Raw {
            fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
                w.raw_json(b"\"k\"");
            }
        }
        let mut w = JsonWriter::new(Vec::new(), None);
        let mut obj = w.begin_object();
        w.map_key(&mut obj, &Raw);
    }
}
