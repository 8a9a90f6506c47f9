//! Workspace-local stand-in for `serde_json`.
//!
//! Serializes the `serde` stub's [`Value`] model to compact JSON text.
//! It is a writer only: there is no parser, and models persist through
//! `edm-model-io`. Floats are written with Rust's shortest-round-trip
//! `{}` formatting, so `to_string(&x).parse::<f64>()` gives back the
//! bits of `x` (the `float_roundtrip` guarantee of the real crate).

#![forbid(unsafe_code)]

use std::fmt;

use serde::{Serialize, Value};

/// Serialization failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for &x in
            &[0.1, 1.0 / 3.0, std::f64::consts::PI, 1e-300, -2.5e17, f64::MIN_POSITIVE, 0.0, -0.0]
        {
            let json = to_string(&x).unwrap();
            let back: f64 = json.parse().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "value {x} via {json}");
        }
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
    }

    #[test]
    fn collections_and_escapes_write_exact_text() {
        let v = vec![vec![1.5, 2.0], vec![-3.25]];
        assert_eq!(to_string(&v).unwrap(), "[[1.5,2.0],[-3.25]]");
        let pairs = vec![(1u32, "a\"q\"".to_string()), (2, "t\tn\nr\r\\\u{7}é".to_string())];
        assert_eq!(to_string(&pairs).unwrap(), r#"[[1,"a\"q\""],[2,"t\tn\nr\r\\\u0007é"]]"#);
        let (map, mut out) = (Value::Map(vec![("k".into(), Value::Null)]), String::new());
        write_value(&map, &mut out).unwrap();
        assert_eq!(out, r#"{"k":null}"#);
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    }

    #[test]
    fn nan_is_rejected() {
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string(&vec![1.0, f64::INFINITY]).is_err());
    }
}
