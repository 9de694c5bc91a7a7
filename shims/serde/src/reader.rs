//! [`JsonReader`]: the pull parser typed values read themselves out of.
//!
//! Generated and std `Deserialize::read_json` impls ask for the token they
//! expect; strings and object keys come back borrowed from the input unless
//! they contain escapes. `Value` reads itself through the same methods, so
//! there is one grammar: a typed read accepts a document if and only if
//! reading it as a `Value` and that `Value`'s text as the type would.

use crate::{Error, Number, Seq};
use std::borrow::Cow;

/// Containers may nest this deep; deeper input is an error, not a stack
/// overflow (the limit upstream serde_json uses).
const MAX_DEPTH: usize = 128;

/// Pull parser over one JSON document.
pub struct JsonReader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    /// The next scalar is a quoted map key: numbers and bools are read out
    /// of the string.
    key: bool,
}

impl<'a> JsonReader<'a> {
    /// Reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        JsonReader { src, pos: 0, depth: 0, key: false }
    }

    /// The document must end here (whitespace aside).
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(Error::msg(format!("trailing characters at byte {}", self.pos)));
        }
        Ok(())
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes().get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Kind of the value that starts here, for error messages; `Err` when
    /// nothing valid does.
    pub fn kind(&mut self) -> Result<&'static str, Error> {
        self.skip_ws();
        let rest = &self.bytes()[self.pos..];
        match self.peek() {
            Some(b'n') if rest.starts_with(b"null") => Ok("null"),
            Some(b't') if rest.starts_with(b"true") => Ok("bool"),
            Some(b'f') if rest.starts_with(b"false") => Ok("bool"),
            Some(b'"') => Ok("string"),
            Some(b'[') => Ok("array"),
            Some(b'{') => Ok("object"),
            Some(b'-' | b'0'..=b'9') => Ok("number"),
            Some(b) => Err(Error::msg(format!(
                "unexpected character `{}` at byte {}",
                b as char, self.pos
            ))),
            None => Err(Error::msg("unexpected end of input")),
        }
    }

    /// The error for finding some other value where `what` belongs.
    pub fn mismatch(&mut self, what: &str) -> Error {
        match self.kind() {
            Ok(kind) => Error::msg(format!("expected {what}, got {kind}")),
            Err(e) => e,
        }
    }

    /// Consume `null` if it is next.
    pub fn eat_null(&mut self) -> bool {
        self.skip_ws();
        self.peek() == Some(b'n') && self.eat_lit("null")
    }

    /// `null`.
    pub fn read_null(&mut self) -> Result<(), Error> {
        if self.eat_null() {
            Ok(())
        } else {
            Err(self.mismatch("null"))
        }
    }

    /// Is a string next?
    pub fn at_string(&mut self) -> bool {
        self.skip_ws();
        self.peek() == Some(b'"')
    }

    /// `true` / `false`.
    pub fn read_bool(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        if self.key {
            return match &*self.read_str("bool")? {
                "true" => Ok(true),
                "false" => Ok(false),
                other => Err(Error::msg(format!("cannot deserialise map key from `{other}`"))),
            };
        }
        match self.peek() {
            Some(b't') if self.eat_lit("true") => Ok(true),
            Some(b'f') if self.eat_lit("false") => Ok(false),
            _ => Err(self.mismatch("bool")),
        }
    }

    /// A number, exact as written: `u64`, else `i64`, else `f64`. `what`
    /// names the expected type in the mismatch error.
    pub fn read_number(&mut self, what: &str) -> Result<Number, Error> {
        self.skip_ws();
        if self.key {
            let s = self.read_str(what)?;
            return Number::from_key(&s)
                .ok_or_else(|| Error::msg(format!("cannot deserialise map key from `{s}`")));
        }
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.mismatch(what));
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let text = &self.src[start..self.pos];
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::U(u));
            }
            // `-0` stays a float: as an integer it would lose its sign.
            match text.parse::<i64>() {
                Ok(i) if i != 0 => return Ok(Number::I(i)),
                _ => {}
            }
        }
        // Digits too many for an `f64` parse to infinity, which no writer
        // could spell back.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Number::F(f)),
            Ok(_) => Err(Error::msg(format!("number `{text}` out of range"))),
            Err(_) => Err(Error::msg(format!("invalid number `{text}`"))),
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// A string; borrowed from the input unless it contains escapes.
    /// `what` names the expected type in the mismatch error.
    pub fn read_str(&mut self, what: &str) -> Result<Cow<'a, str>, Error> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.mismatch(what));
        }
        self.pos += 1;
        let mut owned: Option<String> = None;
        loop {
            // A run of plain bytes. It starts after an ASCII delimiter and
            // stops on one, so both ends are char boundaries.
            let start = self.pos;
            while let Some(&b) = self.bytes().get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = &self.src[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    out.push(self.escape()?);
                }
                Some(_) => return Err(Error::msg("unescaped control character in string")),
                None => return Err(Error::msg("unexpected end of input in string")),
            }
        }
    }

    /// The character an escape sequence stands for (the `\` is consumed).
    fn escape(&mut self) -> Result<char, Error> {
        let esc = self.peek().ok_or_else(|| Error::msg("unexpected end of input in escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the \uXXXX low half.
                    if !self.eat_lit("\\u") {
                        return Err(Error::msg("unpaired surrogate in string"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(Error::msg("invalid low surrogate"));
                    }
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(cp).ok_or_else(|| Error::msg("invalid surrogate pair"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| Error::msg("invalid \\u escape"))?
                }
            }
            other => return Err(Error::msg(format!("invalid escape `\\{}`", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| Error::msg("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::msg("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn open(&mut self, bracket: u8) -> Result<Seq, Error> {
        self.expect(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        Ok(Seq { first: true })
    }

    /// Step to the container's next entry: `Ok(false)` consumed its
    /// closing bracket instead. After a `,` an entry must follow, which
    /// the entry's own read reports.
    fn next_entry(&mut self, seq: &mut Seq, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        let first = std::mem::replace(&mut seq.first, false);
        match self.peek() {
            Some(b) if b == close && first => {}
            _ if first => return Ok(true),
            Some(b',') => {
                self.pos += 1;
                return Ok(true);
            }
            Some(b) if b == close => {}
            _ => {
                return Err(Error::msg(format!(
                    "expected `,` or `{}` at byte {}",
                    close as char, self.pos
                )))
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(false)
    }

    /// `[`; `what` names the expected type in the mismatch error.
    pub fn begin_array(&mut self, what: &str) -> Result<Seq, Error> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            return Err(self.mismatch(what));
        }
        self.open(b'[')
    }

    /// Is there another element? `Ok(false)` has consumed the `]`.
    pub fn next_elem(&mut self, seq: &mut Seq) -> Result<bool, Error> {
        self.next_entry(seq, b']')
    }

    /// Step to element `index` of an array that must hold exactly `len`.
    pub fn tuple_elem(&mut self, seq: &mut Seq, len: usize, ty: &str) -> Result<(), Error> {
        if self.next_elem(seq)? {
            Ok(())
        } else {
            Err(Error::msg(format!("expected {len}-element array for {ty}, got fewer elements")))
        }
    }

    /// The `]` of an array that must hold exactly `len` elements.
    pub fn end_tuple(&mut self, seq: &mut Seq, len: usize, ty: &str) -> Result<(), Error> {
        if self.next_elem(seq)? {
            Err(Error::msg(format!("expected {len}-element array for {ty}, got more elements")))
        } else {
            Ok(())
        }
    }

    /// `{`; `what` names the expected type in the mismatch error.
    pub fn begin_object(&mut self, what: &str) -> Result<Seq, Error> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Err(self.mismatch(what));
        }
        self.open(b'{')
    }

    /// The next member's key, positioned on its value; `Ok(None)` has
    /// consumed the `}`.
    pub fn next_key(&mut self, seq: &mut Seq) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_entry(seq, b'}')? {
            return Ok(None);
        }
        let key = self.read_str("string")?;
        self.colon()?;
        Ok(Some(key))
    }

    /// The next member's key as a typed map key (numbers and bools are
    /// read out of the string); `Ok(None)` has consumed the `}`.
    pub fn next_map_key<K: crate::Deserialize>(
        &mut self,
        seq: &mut Seq,
    ) -> Result<Option<K>, Error> {
        if !self.next_entry(seq, b'}')? {
            return Ok(None);
        }
        if !self.at_string() {
            return Err(self.mismatch("string"));
        }
        self.key = true;
        let key = K::read_json(self);
        self.key = false;
        let key = key?;
        self.colon()?;
        Ok(Some(key))
    }

    fn colon(&mut self) -> Result<(), Error> {
        self.skip_ws();
        self.expect(b':')
    }

    /// Read one struct field's value, naming the field in the error.
    pub fn field<T: crate::Deserialize>(&mut self, ty: &str, name: &str) -> Result<T, Error> {
        T::read_json(self).map_err(|e| Error::msg(format!("field `{ty}.{name}`: {e}")))
    }

    /// `{"Tag":` of an externally-tagged enum variant, positioned on the
    /// payload; finish with [`JsonReader::end_variant`].
    pub fn begin_variant(&mut self, ty: &str) -> Result<Cow<'a, str>, Error> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            let kind = self.kind()?;
            return Err(Error::msg(format!(
                "expected single-key variant object for {ty}, got {kind}"
            )));
        }
        let mut seq = self.open(b'{')?;
        self.next_key(&mut seq)?.ok_or_else(|| {
            Error::msg(format!("expected single-key variant object for {ty}, got object"))
        })
    }

    /// The `}` right after a variant's payload.
    pub fn end_variant(&mut self, ty: &str) -> Result<(), Error> {
        let mut seq = Seq { first: false };
        if self.next_entry(&mut seq, b'}')? {
            return Err(Error::msg(format!(
                "expected single-key variant object for {ty}, got object"
            )));
        }
        Ok(())
    }

    /// Skip one value of any kind, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.kind()? {
            "null" => self.read_null(),
            "bool" => self.read_bool().map(drop),
            "string" => self.read_str("string").map(drop),
            "number" => self.read_number("number").map(drop),
            "array" => {
                let mut seq = self.open(b'[')?;
                while self.next_elem(&mut seq)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            _ => {
                let mut seq = self.open(b'{')?;
                while self.next_key(&mut seq)?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }
}
