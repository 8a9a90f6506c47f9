//! Hand-rolled JSON for the scoring endpoints: one reader, one writer.
//!
//! The scoring wire format is read and written here, not through the
//! workspace's `serde_json` stand-in, which only serializes the
//! `/v1/trace` report (inside `edm-trace`'s `TraceReport::to_json`).
//! This module implements just enough of RFC 8259 for the wire format.
//!
//! Every parse goes through one private byte reader: [`parse`] builds a
//! [`Value`] tree, while [`parse_inputs`] and [`parse_train`] read the
//! predict and `:train` bodies straight into rows in one pass. Errors
//! carry a byte offset, strings are copied in whole runs (parse time is
//! linear in the body), and nesting is capped on every path. Objects
//! keep insertion order (the `unordered-iteration` lint bans `HashMap`),
//! so output is byte-deterministic.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object (linear scan; serving payloads have
    /// a handful of keys). `None` for missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => write_number(*n, out),
            Value::Str(s) => write_escaped(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Writes `n` in Rust's shortest round-trip rendering (`{:?}`), which
/// is valid JSON for finite values; JSON has no NaN or infinity, so
/// those become `null`.
pub(crate) fn write_number(n: f64, out: &mut String) {
    if n.is_finite() {
        let _ = write!(out, "{n:?}");
    } else {
        out.push_str("null");
    }
}

pub(crate) fn write_escaped(s: &str, out: &mut String) {
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

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut r = Reader { text, pos: 0 };
    r.ws();
    let value = r.value(0)?;
    r.finish()?;
    Ok(value)
}

/// Reads a predict body, `{"inputs": [[f64, ...], ...]}`, straight into
/// rows without building a [`Value`] tree. Other keys are skipped (but
/// still checked); the first `"inputs"` wins, as [`Value::get`] picks.
///
/// # Errors
///
/// [`JsonError`] for malformed JSON or a body of the wrong shape
/// (`inputs[2][0] is not a number`), with its byte offset.
pub fn parse_inputs(text: &str) -> Result<Vec<Vec<f64>>, JsonError> {
    const SHAPE: &str = "body must be {\"inputs\": [[f64, ...], ...]}";
    let mut inputs = None;
    let mut r = Reader { text, pos: 0 };
    r.document(SHAPE, |r, key| {
        match &*key {
            "inputs" if inputs.is_none() => inputs = Some(r.rows(SHAPE)?),
            _ => drop(r.value(1)?),
        }
        Ok(())
    })?;
    inputs.ok_or_else(|| r.err(SHAPE))
}

/// [`parse_inputs`] with the error dropped. Kept as the entry point the
/// out-of-workspace perf harness times for the parse layer.
pub fn parse_inputs_fast(text: &str) -> Option<Vec<Vec<f64>>> {
    parse_inputs(text).ok()
}

/// A parsed `:train` body: family name, input rows, targets.
pub type TrainBody = (String, Vec<Vec<f64>>, Vec<f64>);

/// Reads a `:train` body,
/// `{"family": str, "inputs": [[f64, ...], ...], "targets": [f64, ...]}`,
/// in one pass. `targets` may be missing or `null` (the one-class
/// family ignores labels), which reads as no targets.
///
/// # Errors
///
/// As [`parse_inputs`], plus `"targets" is not an array` and
/// `targets[i] is not a number`.
pub fn parse_train(text: &str) -> Result<TrainBody, JsonError> {
    const SHAPE: &str =
        "body must be {\"family\": str, \"inputs\": [[f64, ...], ...], \"targets\": [f64, ...]}";
    let (mut family, mut inputs, mut targets) = (None, None, None);
    let mut r = Reader { text, pos: 0 };
    r.document(SHAPE, |r, key| {
        match &*key {
            "family" if family.is_none() => {
                if r.peek() != Some(b'"') {
                    return Err(r.err(SHAPE));
                }
                family = Some(r.string()?.into_owned());
            }
            "inputs" if inputs.is_none() => inputs = Some(r.rows("missing \"inputs\" array")?),
            "targets" if targets.is_none() => {
                targets = Some(match r.peek() {
                    Some(b'n') => r.literal("null").map(|()| Vec::new())?,
                    Some(b'[') => r.numbers(1, |i| format!("targets[{i}] is not a number"))?,
                    _ => return Err(r.err("\"targets\" is not an array")),
                });
            }
            _ => drop(r.value(1)?),
        }
        Ok(())
    })?;
    let family = family.ok_or_else(|| r.err(SHAPE))?;
    let inputs = inputs.ok_or_else(|| r.err("missing \"inputs\" array"))?;
    Ok((family, inputs, targets.unwrap_or_default()))
}

/// The one JSON byte reader: every parse in this module goes through
/// it, so the whitespace, literal, number and string rules exist once.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    /// Trailing whitespace, then the end of the input.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after the document"))
        }
    }

    /// A whole document that must be an object (`shape` names what it
    /// should look like); `each` reads the value of every key.
    fn document(
        &mut self,
        shape: &str,
        each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.ws();
        if self.peek() != Some(b'{') {
            return Err(self.err(shape));
        }
        self.object(0, each)?;
        self.finish()
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        Ok(match self.peek() {
            Some(b'{') => {
                let mut entries = Vec::new();
                self.object(depth, |r, key| {
                    entries.push((key.into_owned(), r.value(depth + 1)?));
                    Ok(())
                })?;
                Value::Object(entries)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(depth, |r, _| {
                    items.push(r.value(depth + 1)?);
                    Ok(())
                })?;
                Value::Array(items)
            }
            Some(b'"') => Value::Str(self.string()?.into_owned()),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true))?,
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false))?,
            Some(b'n') => self.literal("null").map(|()| Value::Null)?,
            Some(b'-' | b'0'..=b'9') => Value::Number(self.number()?),
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        })
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// Walks the object whose `{` is next, calling `each` with the
    /// reader at every key's value.
    fn object(
        &mut self,
        depth: usize,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.items(depth, |r, _| {
            let key = r.string()?;
            r.ws();
            r.expect(b':')?;
            r.ws();
            each(r, key)
        })
    }

    /// Walks the comma-separated items of the array or object whose
    /// opening bracket is next, calling `each` at every item with its
    /// index.
    fn items(
        &mut self,
        depth: usize,
        mut each: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let close = if self.eat(b'{') { b'}' } else { self.expect(b'[').map(|()| b']')? };
        self.ws();
        let mut i = 0;
        while !self.eat(close) {
            if i > 0 && !self.eat(b',') {
                return Err(self.err(format!("expected `,` or `{}`", close as char)));
            }
            self.ws();
            each(self, i)?;
            self.ws();
            i += 1;
        }
        Ok(())
    }

    /// The `inputs` value: an array of number arrays. `not_array` is the
    /// message for a value that is not an array at all.
    fn rows(&mut self, not_array: &str) -> Result<Vec<Vec<f64>>, JsonError> {
        if self.peek() != Some(b'[') {
            return Err(self.err(not_array));
        }
        let mut rows = Vec::new();
        self.items(1, |r, i| {
            if r.peek() != Some(b'[') {
                return Err(r.err(format!("inputs[{i}] is not an array")));
            }
            rows.push(r.numbers(2, |j| format!("inputs[{i}][{j}] is not a number"))?);
            Ok(())
        })?;
        Ok(rows)
    }

    /// An array of numbers whose `[` is next; `not_number` names the
    /// element at an index that holds anything else.
    fn numbers(
        &mut self,
        depth: usize,
        not_number: impl Fn(usize) -> String,
    ) -> Result<Vec<f64>, JsonError> {
        let mut out = Vec::new();
        self.items(depth, |r, j| {
            if !matches!(r.peek(), Some(b'-' | b'0'..=b'9')) {
                return Err(r.err(not_number(j)));
            }
            out.push(r.number()?);
            Ok(())
        })?;
        Ok(out)
    }

    /// A number in the RFC 8259 grammar
    /// `-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?`, converted from its exact
    /// slice by `str::parse`, so every finite JSON number keeps its bits.
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.err("malformed number"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.err("malformed number"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            Ok(_) => Err(self.err("number out of f64 range")),
            Err(_) => Err(self.err("malformed number")),
        }
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A string whose `"` is next. Runs between escapes are copied
    /// whole, so time is linear in the input, and a string without
    /// escapes borrows from it.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut owned = String::new();
        loop {
            let start = self.pos;
            let run = self.text.as_bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let Some(run) = run else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += run;
            // The run ends at an ASCII byte, so it is a whole `str` slice.
            let chunk = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    // Every escape pushes a char, so an empty buffer
                    // means the string had none.
                    if owned.is_empty() {
                        return Ok(Cow::Borrowed(chunk));
                    }
                    owned.push_str(chunk);
                    return Ok(Cow::Owned(owned));
                }
                Some(b'\\') => {
                    owned.push_str(chunk);
                    self.pos += 1;
                    owned.push(match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000C}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            owned.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    });
                    self.pos += 1;
                }
                _ => return Err(self.err("control character in string")),
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (the `\u` itself already
    /// consumed), combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&first) {
            // High surrogate: a `\uDC00`..`\uDFFF` low half must follow.
            if self.text[self.pos..].starts_with("\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..=0xDFFF).contains(&second) {
                    let combined = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(combined).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("bad unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        // `from_str_radix` alone would also take a leading `+`.
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let v = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
        let v = v.ok_or_else(|| self.err("expected 4 hex digits"))?;
        self.pos += 4;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        parse(src).expect(src).encode()
    }

    #[test]
    fn scalars_round_trip() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip("false"), "false");
        assert_eq!(roundtrip("3.25"), "3.25");
        assert_eq!(roundtrip("-0.5"), "-0.5");
        assert_eq!(roundtrip("1e3"), "1000.0");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn containers_round_trip_preserving_order() {
        assert_eq!(roundtrip("[1, 2.5, [3]]"), "[1.0,2.5,[3.0]]");
        assert_eq!(
            roundtrip("{\"z\": 1, \"a\": {\"k\": [true, null]}}"),
            "{\"z\":1.0,\"a\":{\"k\":[true,null]}}"
        );
    }

    #[test]
    fn string_escapes_both_ways() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v, Value::Str("a\"b\\c\nd".to_string() + "Aé😀"));
        let enc = Value::Str("tab\there \"q\" \u{1}".into()).encode();
        assert_eq!(enc, "\"tab\\there \\\"q\\\" \\u0001\"");
        assert_eq!(parse(&enc).unwrap(), Value::Str("tab\there \"q\" \u{1}".into()));
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        assert_eq!(Value::Number(f64::NAN).encode(), "null");
        assert_eq!(Value::Number(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn float_values_survive_bitwise() {
        for v in [0.1, 1.0 / 3.0, 6.02214076e23, -1.7976931348623157e308] {
            let enc = Value::Number(v).encode();
            let back = parse(&enc).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {enc}");
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[1] trailing",
            "\"\\u12\"",
            "\"\\ud800\"",
            "nan",
            "01",
            "1.",
            "1.e5",
            "-",
            "1e",
            ".5",
            "\"a\u{1}b\"",
            "{1: 2}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn object_lookup_helpers() {
        let v = parse("{\"inputs\": [[1, 2]], \"n\": 2}").unwrap();
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(2.0));
        let rows = v.get("inputs").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(v.get("missing").is_none());
        assert!(Value::Null.get("x").is_none());
    }
}
