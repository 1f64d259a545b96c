//! Minimal JSON emission *and* reading — the workspace's replacement for
//! serde derives.
//!
//! The workspace must build offline with an empty cargo registry, so
//! result snapshotting cannot lean on `serde`/`serde_json`. This module
//! provides the small surface the experiment harness actually needs:
//! allocation-light JSON *emission* of report types ([`ToJson`]), with
//! hand-written impls where a derive used to sit, plus a matching
//! *reader* ([`parse_json`] → [`JsonValue`] with typed accessors) so
//! checkpoints written by the emitter can be read back for session
//! resume.
//!
//! Emission rules:
//! * floats print via Rust's shortest-roundtrip `Display`; non-finite
//!   values become `null` (JSON has no NaN/Infinity);
//! * strings are escaped per RFC 8259 (quote, backslash, control chars);
//! * field order is the declaration order of the hand impl, making
//!   snapshots stable across runs and suitable for textual diffing.
//!
//! Reading rules:
//! * numbers keep their *lexical* form until a typed accessor parses
//!   them, so `u64` stays exact and a float written by the emitter reads
//!   back bit-identically (Rust's `Display`/`parse` pair round-trips the
//!   shortest representation);
//! * `null` read as a float yields NaN, mirroring the emitter's
//!   non-finite → `null` mapping;
//! * the grammar is strict RFC 8259 (no comments, no trailing commas,
//!   full document consumed).

/// Types that can write themselves as a JSON value.
pub trait ToJson {
    /// Appends this value's JSON representation to `out`.
    fn write_json(&self, out: &mut String);

    /// Renders this value as a standalone JSON document.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Escapes and quotes `s` per RFC 8259.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Streaming object writer: `obj(out, |o| { o.field("a", &1); })`.
pub struct ObjWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjWriter<'a> {
    /// Appends `"name": <value>` (with the separating comma as needed).
    pub fn field(&mut self, name: &str, value: &dyn ToJson) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_escaped(self.out, name);
        self.out.push(':');
        value.write_json(self.out);
        self
    }
}

/// Writes one JSON object; fields are emitted inside the closure.
pub fn obj(out: &mut String, fields: impl FnOnce(&mut ObjWriter)) {
    out.push('{');
    let mut w = ObjWriter { out, first: true };
    fields(&mut w);
    out.push('}');
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}

int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for f32 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

// ---------------------------------------------------------------------------
// Reader: tokenizer + typed accessors
// ---------------------------------------------------------------------------

/// Error produced while parsing a JSON document or while reading a parsed
/// value through a typed accessor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset into the source where a *parse* error occurred
    /// (`None` for accessor errors on an already-parsed tree).
    offset: Option<usize>,
}

impl JsonError {
    /// A semantic error raised by a typed accessor or a `from_json`
    /// constructor (no source offset).
    pub fn msg(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            offset: None,
        }
    }

    fn at(message: impl Into<String>, offset: usize) -> Self {
        Self {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} (at byte {o})", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value, borrowing from the source document.
///
/// Numbers keep their lexical form ([`JsonValue::Num`] holds the source
/// token) so that integer width and float bit patterns are decided by the
/// typed accessor that finally consumes them, not by an intermediate
/// `f64`. The token is a *borrowed* slice of the input: checkpoints are
/// dominated by `f32` arrays, so owning a `String` per number made the
/// parsed tree cost a large multiple of the document size. Strings stay
/// owned because escape sequences must be decoded into fresh storage.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source token (e.g. `-1.5e3`), borrowed from
    /// the parsed document.
    Num(&'a str),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue<'a>>),
    /// An object, in source field order.
    Obj(Vec<(String, JsonValue<'a>)>),
}

/// Parses a complete JSON document (the whole input must be one value).
/// The returned tree borrows number tokens from `src`.
pub fn parse_json(src: &str) -> Result<JsonValue<'_>, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::at("trailing characters after document", p.pos));
    }
    Ok(value)
}

/// Maximum container nesting the parser accepts (guards the call stack).
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(JsonError::at(format!("expected `{lit}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue<'a>, JsonError> {
        match self.peek() {
            None => Err(JsonError::at("unexpected end of input", self.pos)),
            Some(b'n') => self.expect("null").map(|()| JsonValue::Null),
            Some(b't') => self.expect("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(JsonError::at(
                format!("unexpected character `{}`", c as char),
                self.pos,
            )),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(JsonError::at("nesting too deep", self.pos));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<JsonValue<'a>, JsonError> {
        self.enter()?;
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(JsonError::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue<'a>, JsonError> {
        self.enter()?;
        self.pos += 1; // {
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(JsonError::at("expected object key", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(JsonError::at("expected `:` after key", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(JsonError::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(JsonError::at("malformed number", self.pos)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at("digits required after `.`", self.pos));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at("digits required in exponent", self.pos));
            }
            self.digits();
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number token");
        Ok(JsonValue::Num(tok))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::at("invalid utf-8 in string", start))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(JsonError::at("raw control character in string", self.pos)),
                None => return Err(JsonError::at("unterminated string", self.pos)),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self
            .peek()
            .ok_or_else(|| JsonError::at("unterminated escape", self.pos))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let ch = if (0xd800..0xdc00).contains(&hi) {
                    // High surrogate: a low surrogate escape must follow.
                    if self.expect("\\u").is_err() {
                        return Err(JsonError::at("unpaired surrogate", self.pos));
                    }
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(JsonError::at("invalid low surrogate", self.pos));
                    }
                    let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                    char::from_u32(code)
                        .ok_or_else(|| JsonError::at("invalid surrogate pair", self.pos))?
                } else {
                    char::from_u32(hi)
                        .ok_or_else(|| JsonError::at("unpaired surrogate", self.pos))?
                };
                out.push(ch);
            }
            _ => return Err(JsonError::at("unknown escape", self.pos - 1)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(JsonError::at("truncated \\u escape", self.pos));
        }
        let tok = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| JsonError::at("non-ascii \\u escape", self.pos))?;
        let v = u32::from_str_radix(tok, 16)
            .map_err(|_| JsonError::at("non-hex \\u escape", self.pos))?;
        self.pos = end;
        Ok(v)
    }
}

impl<'a> JsonValue<'a> {
    fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }

    /// The value of field `key`; errors on a missing field or non-object.
    pub fn get(&self, key: &str) -> Result<&JsonValue<'a>, JsonError> {
        self.opt(key)
            .ok_or_else(|| JsonError::msg(format!("missing field `{key}`")))
    }

    /// The value of field `key`, or `None` when absent. Returns `None`
    /// (rather than erroring) on non-objects so optional lookups compose.
    pub fn opt(&self, key: &str) -> Option<&JsonValue<'a>> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The fields of an object.
    pub fn as_obj(&self) -> Result<&[(String, JsonValue<'a>)], JsonError> {
        match self {
            JsonValue::Obj(fields) => Ok(fields),
            other => Err(JsonError::msg(format!(
                "expected object, got {}",
                other.kind()
            ))),
        }
    }

    /// The elements of an array.
    pub fn as_arr(&self) -> Result<&[JsonValue<'a>], JsonError> {
        match self {
            JsonValue::Arr(items) => Ok(items),
            other => Err(JsonError::msg(format!(
                "expected array, got {}",
                other.kind()
            ))),
        }
    }

    /// String content.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(JsonError::msg(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }

    /// Boolean content.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(JsonError::msg(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }

    /// `true` when the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    fn num(&self) -> Result<&str, JsonError> {
        match self {
            JsonValue::Num(tok) => Ok(tok),
            other => Err(JsonError::msg(format!(
                "expected number, got {}",
                other.kind()
            ))),
        }
    }

    /// Unsigned integer content (exact; rejects fractions and overflow).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let tok = self.num()?;
        tok.parse()
            .map_err(|_| JsonError::msg(format!("`{tok}` is not a u64")))
    }

    /// `usize` content (via `u64`).
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let v = self.as_u64()?;
        usize::try_from(v).map_err(|_| JsonError::msg(format!("{v} overflows usize")))
    }

    /// `f64` content. `null` reads as NaN, mirroring the emitter's
    /// non-finite → `null` rule; finite values written by [`ToJson`]
    /// read back bit-identically.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        if self.is_null() {
            return Ok(f64::NAN);
        }
        let tok = self.num()?;
        tok.parse()
            .map_err(|_| JsonError::msg(format!("`{tok}` is not an f64")))
    }

    /// `f32` content, parsed directly at `f32` precision (bit-identical
    /// round-trip with the emitter). `null` reads as NaN.
    pub fn as_f32(&self) -> Result<f32, JsonError> {
        if self.is_null() {
            return Ok(f32::NAN);
        }
        let tok = self.num()?;
        tok.parse()
            .map_err(|_| JsonError::msg(format!("`{tok}` is not an f32")))
    }

    /// Reads an array of `f32` (checkpointed parameter buffers).
    pub fn as_f32_vec(&self) -> Result<Vec<f32>, JsonError> {
        self.as_arr()?.iter().map(JsonValue::as_f32).collect()
    }

    /// Reads an array of `u64`.
    pub fn as_u64_vec(&self) -> Result<Vec<u64>, JsonError> {
        self.as_arr()?.iter().map(JsonValue::as_u64).collect()
    }

    /// Reads an array of `usize`.
    pub fn as_usize_vec(&self) -> Result<Vec<usize>, JsonError> {
        self.as_arr()?.iter().map(JsonValue::as_usize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_render() {
        assert_eq!(3usize.to_json(), "3");
        assert_eq!((-4i64).to_json(), "-4");
        assert_eq!(true.to_json(), "true");
        assert_eq!(0.5f64.to_json(), "0.5");
        assert_eq!(1.25f32.to_json(), "1.25");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f32::INFINITY.to_json(), "null");
        assert_eq!(f64::NEG_INFINITY.to_json(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!("plain".to_json(), "\"plain\"");
        assert_eq!("a\"b\\c".to_json(), "\"a\\\"b\\\\c\"");
        assert_eq!("line\nbreak\ttab".to_json(), "\"line\\nbreak\\ttab\"");
        assert_eq!("\u{1}".to_json(), "\"\\u0001\"");
        assert_eq!("héllo →".to_json(), "\"héllo →\"");
    }

    #[test]
    fn sequences_render() {
        assert_eq!(vec![1u32, 2, 3].to_json(), "[1,2,3]");
        assert_eq!([0.5f32; 2].to_json(), "[0.5,0.5]");
        let empty: Vec<u32> = vec![];
        assert_eq!(empty.to_json(), "[]");
    }

    #[test]
    fn options_render() {
        assert_eq!(Some(7u32).to_json(), "7");
        assert_eq!(None::<u32>.to_json(), "null");
    }

    #[test]
    fn objects_render_in_field_order() {
        struct P {
            x: f32,
            name: String,
        }
        impl ToJson for P {
            fn write_json(&self, out: &mut String) {
                obj(out, |o| {
                    o.field("x", &self.x).field("name", &self.name);
                });
            }
        }
        let p = P {
            x: 1.5,
            name: "client".into(),
        };
        assert_eq!(p.to_json(), r#"{"x":1.5,"name":"client"}"#);
    }

    #[test]
    fn nested_objects_render() {
        struct Inner(u32);
        impl ToJson for Inner {
            fn write_json(&self, out: &mut String) {
                obj(out, |o| {
                    o.field("v", &self.0);
                });
            }
        }
        let xs = vec![Inner(1), Inner(2)];
        assert_eq!(xs.to_json(), r#"[{"v":1},{"v":2}]"#);
    }

    // --- reader ------------------------------------------------------------

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("\"hi\"").unwrap().as_str().unwrap(), "hi");
        assert_eq!(parse_json("0").unwrap().as_u64().unwrap(), 0);
        assert_eq!(parse_json("1.5e3").unwrap().as_f64().unwrap(), 1500.0);
    }

    #[test]
    fn parses_containers_and_accessors() {
        let v = parse_json(r#"{"a":[1,2,3],"b":{"c":"x"},"d":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str().unwrap(), "x");
        assert!(v.get("d").unwrap().is_null());
        assert!(v.opt("missing").is_none());
        assert!(v.get("missing").is_err());
        assert_eq!(v.as_obj().unwrap().len(), 3);
    }

    #[test]
    fn u64_integers_roundtrip_exactly() {
        for x in [0u64, 1, u64::MAX, (1 << 53) + 1] {
            let back = parse_json(&x.to_json()).unwrap().as_u64().unwrap();
            assert_eq!(back, x);
        }
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        let values = [
            0.1f32,
            -0.0,
            f32::MIN_POSITIVE,
            1.0e-45, // subnormal
            f32::MAX,
            1.0 / 3.0,
            -123.456e-7,
        ];
        for &x in &values {
            let back = parse_json(&x.to_json()).unwrap().as_f32().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        let values64 = [
            0.1f64,
            -0.0,
            f64::MIN_POSITIVE,
            5.0e-324,
            f64::MAX,
            2.0 / 3.0,
        ];
        for &x in &values64 {
            let back = parse_json(&x.to_json()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn nan_emits_null_and_reads_back_nan() {
        let json = f32::NAN.to_json();
        let v = parse_json(&json).unwrap();
        assert!(v.as_f32().unwrap().is_nan());
        assert!(v.as_f64().unwrap().is_nan());
    }

    #[test]
    fn escaped_strings_roundtrip() {
        for s in ["plain", "a\"b\\c", "line\nbreak\ttab", "\u{1}", "héllo →"] {
            let json = s.to_json();
            let back = parse_json(&json).unwrap();
            assert_eq!(back.as_str().unwrap(), s);
        }
        // Escapes the emitter never produces but readers must accept.
        assert_eq!(
            parse_json(r#""A\/\b\f""#).unwrap().as_str().unwrap(),
            "A/\u{8}\u{c}"
        );
        assert_eq!(parse_json(r#""😀""#).unwrap().as_str().unwrap(), "😀");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "tru",
            "[1,2",
            "{\"a\":}",
            "{\"a\" 1}",
            "1 2",
            "01",
            "1.",
            "1e",
            "[1,]",
            "{,}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 lone\"",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessor_type_mismatches_error() {
        let v = parse_json(r#"{"s":"x","n":3}"#).unwrap();
        assert!(v.get("s").unwrap().as_u64().is_err());
        assert!(v.get("n").unwrap().as_str().is_err());
        assert!(v.get("n").unwrap().as_arr().is_err());
        assert!(v.as_arr().is_err());
        // Fractions are not integers.
        assert!(parse_json("1.5").unwrap().as_u64().is_err());
    }

    #[test]
    fn emitted_objects_parse_back() {
        struct P {
            x: f32,
            name: String,
            tags: Vec<u32>,
        }
        impl ToJson for P {
            fn write_json(&self, out: &mut String) {
                obj(out, |o| {
                    o.field("x", &self.x)
                        .field("name", &self.name)
                        .field("tags", &self.tags);
                });
            }
        }
        let p = P {
            x: 0.3333334,
            name: "client \"7\"".into(),
            tags: vec![4, 5],
        };
        let json = p.to_json();
        let v = parse_json(&json).unwrap();
        assert_eq!(v.get("x").unwrap().as_f32().unwrap(), p.x);
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), p.name);
        assert_eq!(v.get("tags").unwrap().as_u64_vec().unwrap(), vec![4, 5]);
    }

    #[test]
    fn number_tokens_borrow_from_the_source() {
        // Peak-memory contract: the parsed tree must not copy number
        // tokens — `Num` holds a slice of the source document. A large
        // checkpoint is almost entirely f32 arrays, so this is the
        // difference between tree size O(doc) and O(doc * k).
        let src = String::from("[1.5,-2e3,0.25]");
        let v = parse_json(&src).unwrap();
        let range = src.as_ptr() as usize..src.as_ptr() as usize + src.len();
        for item in v.as_arr().unwrap() {
            match item {
                JsonValue::Num(tok) => {
                    let p = tok.as_ptr() as usize;
                    assert!(
                        range.contains(&p),
                        "number token `{tok}` was copied out of the source"
                    );
                }
                other => panic!("expected number, got {other:?}"),
            }
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(parse_json(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json(&ok).is_ok());
    }
}
