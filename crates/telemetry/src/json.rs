//! A minimal JSON encoder and parser.
//!
//! The registry exports JSON Lines, the event ring renders its records as
//! JSON, and the `benchmark/` package parses its runs' result lines back.  Rather than pulling in `serde` (unavailable in offline
//! builds), this module provides a tiny value tree ([`JsonValue`]) that
//! callers build by hand, a renderer ([`JsonValue::render`]) and a
//! recursive-descent parser ([`JsonValue::parse`]).
//!
//! Rendering rules match what a JSON consumer expects:
//!
//! * object keys keep insertion order (callers list fields deterministically),
//! * strings are escaped per RFC 8259 (quotes, backslashes, control chars),
//! * non-finite floats render as `null` (JSON has no NaN/Infinity),
//! * integral floats render without a trailing `.0` (like `serde_json`).
//!
//! Parsing accepts any RFC 8259 document.  Numbers parse to [`JsonValue::U64`]
//! / [`JsonValue::I64`] when they are integral and fit, and to
//! [`JsonValue::F64`] otherwise, so `render → parse → render` is stable for
//! everything this workspace emits.

use std::fmt::Write;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with ordered keys.
    Object(Vec<(String, JsonValue)>),
}

/// Escape `s` into `out` as the contents of a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
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
}

/// Render an `f64` the way `serde_json` does: `null` for non-finite values,
/// no trailing `.0` for integral values.
fn render_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

impl JsonValue {
    /// Render the value as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::F64(v) => render_f64(out, *v),
            JsonValue::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Error produced by [`JsonValue::parse`]: what went wrong and the byte
/// offset in the input where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the input at which the problem was detected.
    pub offset: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Recursive-descent parser state over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonParseError> {
        Err(JsonParseError { message: message.into(), offset: self.pos })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {:?}", byte as char))
        }
    }

    fn eat_literal(
        &mut self,
        literal: &str,
        value: JsonValue,
    ) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            self.err(format!("expected {literal:?}"))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        // Far deeper than any real document; prevents stack overflow on garbage.
        if depth > 128 {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_literal("null", JsonValue::Null),
            Some(b't') => self.eat_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.parse_string().map(JsonValue::Str),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => self.err(format!("unexpected character {:?}", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else { return self.err("unterminated string") };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else { return self.err("unterminated escape") };
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
                            let unit = self.parse_hex4()?;
                            // Surrogate pairs encode astral-plane characters.
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return self.err("invalid low surrogate");
                                    }
                                    let c = 0x10000
                                        + ((u32::from(unit) - 0xD800) << 10)
                                        + (u32::from(low) - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    return self.err("lone high surrogate");
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return self.err("lone low surrogate");
                            } else {
                                char::from_u32(u32::from(unit))
                            };
                            match ch {
                                Some(ch) => out.push(ch),
                                None => return self.err("invalid \\u escape"),
                            }
                        }
                        _ => return self.err(format!("invalid escape {:?}", esc as char)),
                    }
                }
                c if c < 0x20 => return self.err("unescaped control character"),
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the byte slice.
                    let start = self.pos - 1;
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return self.err("invalid UTF-8"),
                    };
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or(JsonParseError { message: "invalid UTF-8".into(), offset: start })?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u16, JsonParseError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .and_then(|s| u16::from_str_radix(s, 16).ok());
        match chunk {
            Some(v) => {
                self.pos += 4;
                Ok(v)
            }
            None => self.err("expected 4 hex digits"),
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::I64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::F64(v)),
            _ => Err(JsonParseError { message: format!("invalid number {text:?}"), offset: start }),
        }
    }
}

impl JsonValue {
    /// Parse an RFC 8259 JSON document.
    ///
    /// Integral numbers that fit become [`JsonValue::U64`] / [`JsonValue::I64`];
    /// everything else numeric becomes [`JsonValue::F64`].  Trailing
    /// whitespace is allowed, trailing garbage is an error.
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        let value = p.parse_value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing characters after JSON value");
        }
        Ok(value)
    }

    /// Object field lookup: `Some(value)` if `self` is an object with `key`.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` if it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::U64(v) => Some(*v as f64),
            JsonValue::I64(v) => Some(*v as f64),
            JsonValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string contents if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements if the value is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields if the value is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_correctly() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::U64(18_446_744_073_709_551_615).render(), "18446744073709551615");
        assert_eq!(JsonValue::I64(-5).render(), "-5");
        assert_eq!(JsonValue::F64(2.5).render(), "2.5");
        assert_eq!(JsonValue::F64(3.0).render(), "3");
        assert_eq!(JsonValue::F64(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            JsonValue::Str("a\"b\\c\nd\u{1}".to_string()).render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn nested_structures_render_compactly() {
        let v = JsonValue::Object(vec![
            ("name".to_string(), JsonValue::Str("x".into())),
            ("xs".to_string(), JsonValue::Array(vec![JsonValue::U64(1), JsonValue::U64(2)])),
            ("opt".to_string(), JsonValue::Null),
        ]);
        assert_eq!(v.render(), "{\"name\":\"x\",\"xs\":[1,2],\"opt\":null}");
    }

    #[test]
    fn parse_round_trips_rendered_values() {
        let fields = [
            ("schema_version", JsonValue::U64(1)),
            ("name", JsonValue::Str("fig7 \"quoted\" \\ tab\there".into())),
            ("overhead_pct", JsonValue::F64(10.25)),
            ("neg", JsonValue::I64(-3)),
            ("flag", JsonValue::Bool(true)),
            ("nothing", JsonValue::Null),
            ("rows", JsonValue::Array(vec![JsonValue::U64(1), JsonValue::F64(2.5)])),
        ];
        let v = JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
        let parsed = JsonValue::parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
        assert_eq!(parsed.render(), v.render());
    }

    #[test]
    fn parse_handles_whitespace_escapes_and_unicode() {
        let v =
            JsonValue::parse(" { \"k\" : [ 1 , -2.5e1 , \"\\u00e9\\ud83d\\ude00é\" ] } ").unwrap();
        let arr = v.get("k").unwrap().as_array().unwrap();
        assert_eq!(arr[0], JsonValue::U64(1));
        assert_eq!(arr[1], JsonValue::F64(-25.0));
        assert_eq!(arr[2], JsonValue::Str("é😀é".into()));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "01x", "\"abc", "nul", "1 2", "{\"a\" 1}"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should not parse");
        }
        let err = JsonValue::parse("[1, oops]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn parse_accessors_navigate_structures() {
        let v = JsonValue::parse("{\"metrics\":{\"p99_us\":12.5,\"ops\":100}}").unwrap();
        let metrics = v.get("metrics").unwrap();
        assert_eq!(metrics.get("p99_us").unwrap().as_f64(), Some(12.5));
        assert_eq!(metrics.get("ops").unwrap().as_u64(), Some(100));
        assert_eq!(metrics.get("missing"), None);
        assert_eq!(v.as_object().unwrap().len(), 1);
        assert_eq!(v.get("metrics").unwrap().as_str(), None);
    }
}
