//! Hermetic stand-in for `serde_json`.
//!
//! Implements the subset this workspace uses on top of the serde shim's
//! [`Content`] model: [`Value`] (with object access/mutation), a strict
//! JSON parser ([`from_str`]), compact and pretty printers
//! ([`to_string`], [`to_string_pretty`]), and the [`to_value`] /
//! [`from_value`] bridges. Objects are ordered maps (`BTreeMap`), so key
//! order in emitted JSON is sorted — same as upstream `serde_json`
//! without its `preserve_order` feature.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Content, DeError, Deserialize, Serialize};

/// The object type behind [`Value::Object`].
pub type Map<K, V> = BTreeMap<K, V>;

/// A JSON number: integer or float, like `serde_json::Number`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Finite float.
    Float(f64),
}

impl Number {
    /// The value as `f64`.
    pub fn as_f64(&self) -> f64 {
        match self {
            Number::PosInt(v) => *v as f64,
            Number::NegInt(v) => *v as f64,
            Number::Float(v) => *v,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Number::PosInt(v) => Some(*v),
            _ => None,
        }
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (sorted keys).
    Object(Map<String, Value>),
}

impl Value {
    /// Borrows the object map, if this is an object.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutably borrows the object map, if this is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Borrows the array items, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Member lookup (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }
}

/// Error for all serde_json shim operations.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Content <-> Value bridge
// ---------------------------------------------------------------------------

fn content_to_value(content: &Content) -> Value {
    match content {
        Content::Null => Value::Null,
        Content::Bool(b) => Value::Bool(*b),
        Content::U64(v) => Value::Number(Number::PosInt(*v)),
        Content::I64(v) => Value::Number(Number::NegInt(*v)),
        Content::F64(v) => {
            if v.is_finite() {
                Value::Number(Number::Float(*v))
            } else {
                // serde_json emits null for non-finite floats.
                Value::Null
            }
        }
        Content::Str(s) => Value::String(s.clone()),
        Content::Seq(items) => Value::Array(items.iter().map(content_to_value).collect()),
        Content::Map(entries) => Value::Object(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), content_to_value(v)))
                .collect(),
        ),
    }
}

fn value_to_content(value: &Value) -> Content {
    match value {
        Value::Null => Content::Null,
        Value::Bool(b) => Content::Bool(*b),
        Value::Number(Number::PosInt(v)) => Content::U64(*v),
        Value::Number(Number::NegInt(v)) => Content::I64(*v),
        Value::Number(Number::Float(v)) => Content::F64(*v),
        Value::String(s) => Content::Str(s.clone()),
        Value::Array(items) => Content::Seq(items.iter().map(value_to_content).collect()),
        Value::Object(m) => Content::Map(
            m.iter()
                .map(|(k, v)| (k.clone(), value_to_content(v)))
                .collect(),
        ),
    }
}

impl Serialize for Value {
    fn to_content(&self) -> Content {
        value_to_content(self)
    }
}

impl Deserialize for Value {
    fn from_content(content: &Content) -> std::result::Result<Self, DeError> {
        Ok(content_to_value(content))
    }
}

/// Converts any serialisable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    Ok(content_to_value(&value.to_content()))
}

/// Reconstructs a typed value from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    Ok(T::from_content(&value_to_content(&value))?)
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

/// Serialises to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&mut out, &value.to_content(), None, 0);
    Ok(out)
}

/// Serialises to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&mut out, &value.to_content(), Some(2), 0);
    Ok(out)
}

fn write_content(out: &mut String, content: &Content, indent: Option<usize>, depth: usize) {
    write_value(out, &content_to_value(content), indent, depth);
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(Number::PosInt(v)) => out.push_str(&v.to_string()),
        Value::Number(Number::NegInt(v)) => out.push_str(&v.to_string()),
        Value::Number(Number::Float(v)) => {
            if v.is_finite() {
                // `{:?}` keeps the decimal point (`300.0`, not `300`) and
                // round-trips exactly, like upstream's ryu output.
                out.push_str(&format!("{v:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Arrays and objects nested deeper than this are rejected, as upstream
/// does, rather than recursing until the stack runs out.
const MAX_DEPTH: usize = 128;

/// Parses a typed value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut parser = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let content = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(T::from_content(&content)?)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Content> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Content::Null)
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.eat_keyword("true") {
                    Ok(Content::Bool(true))
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.eat_keyword("false") {
                    Ok(Content::Bool(false))
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::new(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let container = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                container
            }
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<Content> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Content> {
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect `\uXXXX` low half.
                                if !self.eat_keyword("\\u") {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::new("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid code point"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| Error::new("invalid code point"))?
                            };
                            out.push(c);
                            // parse_hex4 leaves pos after the digits;
                            // outer loop expects pos at the next char.
                            continue;
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: `pos` only ever advances
                    // by whole characters, so it sits on a boundary.
                    let c = (self.text.get(self.pos..))
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| Error::new("invalid utf-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Content> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_through_text() {
        let v: Value =
            from_str("{\"a\": 1, \"b\": -2, \"c\": 1.5, \"d\": true, \"e\": null}").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("c").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&Value::Null));
        let text = to_string(&v).unwrap();
        let v2: Value = from_str(&text).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn floats_keep_their_point() {
        let text = to_string(&300.0f64).unwrap();
        assert_eq!(text, "300.0");
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(back, 300.0);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\n\"quote\"\\slash\ttab".to_string();
        let text = to_string(&s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
        let uni: String = from_str("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(uni, "é😀");
    }

    #[test]
    fn pretty_print_is_reparseable() {
        let v: Value = from_str("{\"xs\": [1, 2, 3], \"nested\": {\"k\": \"v\"}}").unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let v2: Value = from_str(&pretty).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn object_mutation_via_as_object_mut() {
        let mut v: Value = from_str("{\"keep\": 1, \"drop\": 2}").unwrap();
        v.as_object_mut().unwrap().remove("drop");
        assert!(v.get("drop").is_none());
        assert_eq!(v.get("keep").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = from_str::<Value>(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        let limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str::<Value>(&limit).is_ok());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Value>("{} extra").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
    }
}
