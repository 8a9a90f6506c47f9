//! Workspace-local stand-in for `serde`.
//!
//! The build environment has no network access, so this crate provides
//! the serialization machinery the workspace needs without the real
//! serde: a JSON-shaped [`Value`] data model, a [`Serialize`] trait
//! that converts into it, and a re-exported derive macro (from the
//! sibling `serde_derive` stub) mirroring serde's default
//! representations:
//!
//! * structs with named fields → maps keyed by field name;
//! * newtype structs → the inner value, transparently;
//! * tuple structs → sequences;
//! * unit enum variants → the variant name as a string;
//! * data-carrying enum variants → a single-entry map
//!   `{"Variant": payload}` (externally tagged).
//!
//! Serialization is write-only: nothing converts a [`Value`] back into
//! a type, and the sibling `serde_json` stub has no parser. Models
//! persist through `edm-model-io`. Floats are written with Rust's
//! shortest-round-trip formatting, so a consumer that parses the JSON
//! gets the same bits.

#![forbid(unsafe_code)]

pub use serde_derive::Serialize;

/// A JSON-shaped dynamic value: the interchange format between
/// [`Serialize`] and the `serde_json` stub's writer.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (JSON number without fraction/exponent).
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Seq(Vec<Value>),
    /// JSON object; insertion order is preserved.
    Map(Vec<(String, Value)>),
}

/// Conversion into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if (*self as i128) > i64::MAX as i128 {
                    Value::U64(*self as u64)
                } else {
                    Value::I64(*self as i64)
                }
            }
        }
    )*};
}
impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_value(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_json_shapes() {
        assert_eq!(1.5f64.to_value(), Value::F64(1.5));
        assert_eq!(7u8.to_value(), Value::I64(7));
        assert_eq!((-3i32).to_value(), Value::I64(-3));
        assert_eq!(u64::MAX.to_value(), Value::U64(u64::MAX));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!(vec![1.0, 2.5].to_value(), Value::Seq(vec![Value::F64(1.0), Value::F64(2.5)]));
        assert_eq!((3usize, 4.5f64).to_value(), Value::Seq(vec![Value::I64(3), Value::F64(4.5)]));
        assert_eq!(None::<u32>.to_value(), Value::Null);
    }
}
