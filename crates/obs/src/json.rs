//! A minimal JSON value type and serialization trait.
//!
//! The workspace runs in fully offline environments, so experiment
//! output goes through this module instead of an external serializer.
//! Object keys keep insertion order, which keeps emitted reports stable
//! across runs and easy to diff.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// The JSON `null` value.
    Null,
    /// A boolean.
    Bool(bool),
    /// All numbers are f64; integral values print without a fraction.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// Insertion-ordered object.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset into the input and a short message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// An empty array.
    pub fn array() -> Json {
        Json::Arr(Vec::new())
    }

    /// Set a key on an object (replaces an existing key). An owned
    /// [`Json`] value moves in; it is not copied. Panics if `self` is not
    /// an object.
    pub fn set(&mut self, key: &str, value: impl ToJson) {
        match self {
            Json::Obj(entries) => {
                let v = value.into_json();
                if let Some(e) = entries.iter_mut().find(|(k, _)| k == key) {
                    e.1 = v;
                } else {
                    entries.push((key.to_string(), v));
                }
            }
            _ => panic!("Json::set on a non-object"),
        }
    }

    /// Push a value onto an array. An owned [`Json`] value moves in; it
    /// is not copied. Panics if `self` is not an array.
    pub fn push(&mut self, value: impl ToJson) {
        match self {
            Json::Arr(items) => items.push(value.into_json()),
            _ => panic!("Json::push on a non-array"),
        }
    }

    /// Look up a key on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value, if `self` is an integer of magnitude at most 2^53,
    /// the largest a JSON number carries exactly. Readers of counts and
    /// indices use it instead of a cast, which would read -4 as 0, 2.5
    /// as 2 and 1e300 as the type's maximum.
    pub fn as_exact_int(&self) -> Option<i64> {
        let n = self
            .as_f64()
            .filter(|n| n.fract() == 0.0 && n.abs() <= 2f64.powi(53))?;
        Some(n as i64)
    }

    /// The string value, if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if `self` is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a JSON document. Rejects trailing garbage. The inverse of
    /// `to_string()`/`to_string_pretty()` up to number formatting.
    pub fn parse(s: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in entries.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < entries.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// Compact single-line rendering (`.to_string()` comes from this).
///
/// The document renders into one `String` that is then copied into the
/// formatter. Streaming the render through the formatter skips that
/// copy but measured slower: 0.57–0.60 ms against 0.47–0.49 ms for the
/// 55,821-byte push frame of a 12,000-device `fleet-mixed` campaign
/// (2-vCPU Xeon).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Recursive-descent parser over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object_value(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object_value(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
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
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar from the (valid, since the
                    // input is &str) byte stream.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonParseError {
                offset: start,
                message: "bad number".to_string(),
            })
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// The [`Json`] representation of `self`.
    fn to_json(&self) -> Json;

    /// [`ToJson::to_json`] of an owned value. Owned trees and strings
    /// move into the result instead of being copied, so building a
    /// document from its parts costs one allocation per node.
    fn into_json(self) -> Json
    where
        Self: Sized,
    {
        self.to_json()
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }

    fn into_json(self) -> Json {
        self
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! num_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}
num_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn into_json(self) -> Json {
        Json::Str(self)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let mut obj = Json::object();
        obj.set("name", "acute\"mon");
        obj.set("k", 50u32);
        obj.set("rtt_ms", 33.25);
        obj.set("gap", Option::<f64>::None);
        obj.set("layers", vec!["user", "kernel"]);
        assert_eq!(
            obj.to_string(),
            r#"{"name":"acute\"mon","k":50,"rtt_ms":33.25,"gap":null,"layers":["user","kernel"]}"#
        );
    }

    #[test]
    fn integral_floats_print_as_integers() {
        assert_eq!(Json::Num(102.4).to_string(), "102.4");
        assert_eq!(Json::Num(50.0).to_string(), "50");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn pretty_rendering_indents() {
        let mut obj = Json::object();
        obj.set("a", 1u32);
        let mut inner = Json::object();
        inner.set("b", 2u32);
        obj.set("inner", inner);
        assert_eq!(
            obj.to_string_pretty(),
            "{\n  \"a\": 1,\n  \"inner\": {\n    \"b\": 2\n  }\n}"
        );
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut obj = Json::object();
        obj.set("x", 1u32);
        obj.set("x", 2u32);
        assert_eq!(obj.get("x"), Some(&Json::Num(2.0)));
    }

    #[derive(obs::ToJson)]
    struct Probe {
        idx: u32,
        rtt_ms: Option<f64>,
        tool: String,
    }

    #[derive(obs::ToJson, Debug, PartialEq)]
    enum Kind {
        Icmp,
        TcpSyn,
    }

    #[test]
    fn parse_round_trips_compact_and_pretty() {
        let mut obj = Json::object();
        obj.set("name", "acute\"mon");
        obj.set("k", 50u32);
        obj.set("rtt_ms", 33.25);
        obj.set("gap", Option::<f64>::None);
        obj.set("ok", true);
        obj.set("layers", vec!["user", "kernel"]);
        assert_eq!(Json::parse(&obj.to_string()).unwrap(), obj);
        assert_eq!(Json::parse(&obj.to_string_pretty()).unwrap(), obj);
    }

    #[test]
    fn parse_scalars_and_numbers() {
        assert_eq!(Json::parse(" null ").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("[]").unwrap(), Json::array());
        assert_eq!(Json::parse("{}").unwrap(), Json::object());
        assert_eq!(
            Json::parse("[1, 2,3]").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Num(3.0)])
        );
    }

    #[test]
    fn parse_string_escapes() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd\u0041""#).unwrap(),
            Json::Str("a\"b\\c\nd\u{41}".into())
        );
        // Surrogate pair (U+1F600).
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        // Non-ASCII passes through unescaped.
        assert_eq!(Json::parse("\"µs\"").unwrap(), Json::Str("µs".into()));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\q\"",
            "\"\\ud83d\"",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad:?} -> {err}");
        }
        assert_eq!(Json::parse("nope").unwrap_err().offset, 0);
    }

    #[test]
    fn derive_struct_and_enum() {
        let p = Probe {
            idx: 3,
            rtt_ms: Some(14.5),
            tool: "ping".into(),
        };
        assert_eq!(
            p.to_json().to_string(),
            r#"{"idx":3,"rtt_ms":14.5,"tool":"ping"}"#
        );
        assert_eq!(Kind::Icmp.to_json(), Json::Str("Icmp".into()));
        assert_eq!(Kind::TcpSyn.to_json().to_string(), "\"TcpSyn\"");
    }
}
