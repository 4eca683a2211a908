//! Dynamic JSON tree plus a recursive-descent parser.
//!
//! Numbers are held as `f64` (like real `serde_json`'s arbitrary-precision
//! feature *disabled*); every integer the workspace round-trips (`u64`
//! seeds included) is encoded in decimal by the serde shim, so parsing
//! keeps `u64::MAX`-scale seeds intact via a dedicated integer fast path.

use std::collections::BTreeMap;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number that is not an unsigned decimal integer.
    Float(f64),
    /// Unsigned decimal integers (preserves full `u64` precision).
    UInt(u64),
    /// String literal.
    String(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; key order is irrelevant to consumers, `BTreeMap` keeps
    /// iteration deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Float(x) => Some(x),
            Value::UInt(u) => Some(u as f64),
            _ => None,
        }
    }

    /// The value as a `u64` (floats only when they are exact non-negative
    /// integers below 2⁶⁴; `u64::MAX as f64` rounds up to 2⁶⁴ itself, so
    /// the bound is strict).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Float(x) if x >= 0.0 && x < u64::MAX as f64 && x.fract() == 0.0 => {
                Some(x as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object map.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Error raised by [`from_str_value`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing garbage.
pub fn from_str_value(input: &str) -> Result<Value, ParseError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn parse_object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.parse_hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(ch) => out.push(ch),
                                None => return Err(self.error("invalid unicode escape")),
                            }
                        }
                        other => {
                            return Err(self.error(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at c.
                    let start = self.pos - 1;
                    let width = utf8_width(c);
                    let end = start + width;
                    if width == 0 || end > self.bytes.len() {
                        return Err(self.error("invalid UTF-8 in string"));
                    }
                    self.pos = end;
                    match core::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.error("invalid UTF-8 in string")),
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = core::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("non-ASCII in \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("bad hex in \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_integer = true;
        if self.peek() == Some(b'.') {
            is_integer = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_integer = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            core::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if is_integer && !text.starts_with('-') {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

/// Width of the UTF-8 sequence starting with `first`, 0 when invalid.
fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        0xf0..=0xf7 => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(from_str_value("null").unwrap(), Value::Null);
        assert_eq!(from_str_value("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str_value("42").unwrap(), Value::UInt(42));
        assert_eq!(
            from_str_value("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        assert_eq!(from_str_value("-3").unwrap(), Value::Float(-3.0));
        // 2⁶⁴ overflows the integer path and must not saturate to u64::MAX.
        assert_eq!(
            from_str_value("18446744073709551616").unwrap().as_u64(),
            None
        );
        assert_eq!(from_str_value("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(from_str_value("2.5e-1").unwrap(), Value::Float(0.25));
        assert_eq!(
            from_str_value("\"a\\n\\\"b\\u00e9\"").unwrap(),
            Value::String("a\n\"bé".into())
        );
    }

    #[test]
    fn containers_and_access() {
        let v = from_str_value(" { \"xs\" : [1, 2.5, null], \"ok\": false } ").unwrap();
        let xs = v.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[0].as_u64(), Some(1));
        assert_eq!(xs[1].as_f64(), Some(2.5));
        assert!(xs[2].is_null());
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn surrogate_pairs() {
        assert_eq!(
            from_str_value("\"\\ud83d\\ude00\"").unwrap(),
            Value::String("😀".into())
        );
        assert!(from_str_value("\"\\ud83d\"").is_err());
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(
            from_str_value("\"héllo → world\"").unwrap(),
            Value::String("héllo → world".into())
        );
    }

    #[test]
    fn errors_carry_position() {
        let err = from_str_value("[1, ]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(from_str_value("{\"a\":1,}").is_err());
        assert!(from_str_value("1 2").is_err());
        assert!(from_str_value("").is_err());
    }

    #[test]
    fn round_trips_serde_shim_output() {
        // What our own encoder emits must parse back.
        let json = serde_json_self_check();
        let v = from_str_value(&json).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("rate").unwrap().as_f64(), Some(0.125));
    }

    fn serde_json_self_check() -> String {
        format!("{{\"seed\":{},\"rate\":{}}}", u64::MAX, 0.125f64)
    }

    #[test]
    fn float_exact_round_trip() {
        // Shortest-repr f64 formatting parses back to the identical bits.
        for &x in &[
            0.1f64,
            1.0 / 3.0,
            1e-300,
            123_456_789.123_456_79,
            f64::MIN_POSITIVE,
        ] {
            let v = from_str_value(&x.to_string()).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }
}
