//! Workspace-local stand-in for `serde_json`.
//!
//! Serializes the `serde` stub's [`Value`] model to JSON text and parses
//! it back. Floats are written with Rust's shortest-round-trip `{}`
//! formatting and parsed with `str::parse::<f64>`, both of which are
//! exact, so `f64` values survive `to_string` → `from_str` bit-for-bit
//! (the `float_roundtrip` guarantee of the real crate).

#![forbid(unsafe_code)]

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

/// Serialization/deserialization failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Fails if the value contains a non-finite float (JSON has no
/// representation for NaN/infinity, matching the real serde_json).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out)?;
    Ok(out)
}

/// Parses JSON text into a deserializable value.
///
/// # Errors
///
/// Fails on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

fn write_value(v: &Value, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if !x.is_finite() {
                return Err(Error(format!("non-finite float {x} cannot be serialized")));
            }
            // Rust's `{}` float formatting is shortest-round-trip; add a
            // `.0` to integral values so they parse back as floats.
            let s = x.to_string();
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at offset {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        other => {
                            return Err(Error(format!(
                                "expected `,` or `]` at offset {}, found {other:?}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        other => {
                            return Err(Error(format!(
                                "expected `,` or `}}` at offset {}, found {other:?}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!("unexpected {other:?} at offset {}", self.pos))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid keyword at offset {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(Error("unterminated string".into()));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc =
                        rest.get(1).copied().ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("invalid \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("invalid \\u escape".into()))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Copy the whole run up to the next quote or escape,
                    // validating only it: time stays linear in the input.
                    let run =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    let s = std::str::from_utf8(&rest[..run])
                        .map_err(|_| Error("invalid utf-8 in string".into()))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::I64(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::U64(u))
        } else {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for &x in
            &[0.1, 1.0 / 3.0, std::f64::consts::PI, 1e-300, -2.5e17, f64::MIN_POSITIVE, 0.0, -0.0]
        {
            let json = to_string(&x).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "value {x} via {json}");
        }
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![vec![1.5, 2.0], vec![-3.25]];
        let json = to_string(&v).unwrap();
        let back: Vec<Vec<f64>> = from_str(&json).unwrap();
        assert_eq!(v, back);
        let pairs = vec![(1u32, "a".to_string()), (2, "b\"quoted\"".to_string())];
        let back2: Vec<(u32, String)> = from_str(&to_string(&pairs).unwrap()).unwrap();
        assert_eq!(pairs, back2);
    }

    #[test]
    fn nan_is_rejected() {
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Over a megabyte of runs, escapes and multi-byte chars; a
        // per-char re-validation of the rest of the input would make
        // this quadratic (minutes).
        let text = "x\\\"é".repeat(1 << 18);
        let json = to_string(&text).unwrap();
        let start = std::time::Instant::now();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, text);
        assert!(start.elapsed() < std::time::Duration::from_secs(2), "took {:?}", start.elapsed());
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(from_str::<f64>("1.5garbage").is_err());
        assert!(from_str::<Vec<f64>>("[1.0,").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }
}
