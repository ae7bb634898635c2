//! Offline stand-in for `serde`.
//!
//! The build environment has no route to a crates.io mirror, so this crate
//! supplies the serialisation machinery the workspace needs with zero
//! external dependencies. Unlike real serde's visitor architecture, both
//! traits go through an owned JSON-like [`Value`] tree — simpler, and
//! exactly sufficient for the JSON snapshot/report files this repo reads
//! and writes.
//!
//! The derive macros ([`Serialize`]/[`Deserialize`], re-exported from
//! `serde_derive`) mirror serde's external representation conventions:
//! named structs become objects, newtype structs are transparent, tuple
//! structs become arrays, unit enum variants become strings, and data
//! variants become single-key objects. `#[serde(skip)]` is honoured on
//! struct fields (skipped on write, defaulted on read).

#![warn(missing_docs)]

use std::borrow::Cow;

pub use serde_derive::{Deserialize, Serialize};

pub mod value;

pub use value::{Map, Number, Value};

// ---------------------------------------------------------------------
// Error
// ---------------------------------------------------------------------

/// Serialisation/deserialisation error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error from any message.
    pub fn custom(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Wraps the error with the field it occurred in.
    pub fn in_field(self, field: &str) -> Self {
        Self {
            message: format!("field `{field}`: {}", self.message),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------
// Traits
// ---------------------------------------------------------------------

/// Types that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn to_value(&self) -> Value;

    /// `self` as a value tree, borrowed when `self` already is one.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the tree does not match `Self`'s shape.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Rebuilds `Self` from a value tree it owns, so a type that can
    /// take the tree apart need not copy it. Defaults to
    /// [`Deserialize::from_value`].
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the tree does not match `Self`'s shape.
    fn from_owned(v: Value) -> Result<Self, Error> {
        Self::from_value(&v)
    }
}

/// Reads field `key` of `map`, treating a missing key as JSON `null`
/// (so `Option` fields tolerate absence). Used by derived code.
///
/// # Errors
///
/// Propagates the field's deserialisation error, annotated with the name.
pub fn de_field<T: Deserialize>(map: &Map, key: &str) -> Result<T, Error> {
    let v = map.get(key).unwrap_or(&Value::Null);
    T::from_value(v).map_err(|e| e.in_field(key))
}

// ---------------------------------------------------------------------
// Serialize impls
// ---------------------------------------------------------------------

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F(*self))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F(*self as f64))
    }
}

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U(*self as u64))
            }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                // Non-negative values normalise to `U` so structural
                // equality holds across a text round trip.
                if *self >= 0 {
                    Value::Number(Number::U(*self as u64))
                } else {
                    Value::Number(Number::I(*self as i64))
                }
            }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

// ---------------------------------------------------------------------
// Deserialize impls
// ---------------------------------------------------------------------

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }

    fn from_owned(v: Value) -> Result<Self, Error> {
        Ok(v)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(type_err("bool", other)),
        }
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(type_err("string", other)),
        }
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => Ok(n.as_f64()),
            other => Err(type_err("number", other)),
        }
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::Number(n) => n,
                    other => return Err(type_err("integer", other)),
                };
                let out = match *n {
                    Number::U(u) => <$t>::try_from(u)
                        .map_err(|_| Error::custom(format!("{u} out of range for {}", stringify!($t)))),
                    Number::I(i) => <$t>::try_from(i)
                        .map_err(|_| Error::custom(format!("{i} out of range for {}", stringify!($t)))),
                    Number::F(f) if f.fract() == 0.0 && f >= <$t>::MIN as f64 && f <= <$t>::MAX as f64 => {
                        Ok(f as $t)
                    }
                    Number::F(f) => Err(Error::custom(format!("{f} is not a {}", stringify!($t)))),
                };
                out
            }
        }
    )*};
}
de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(type_err("array", other)),
        }
    }
}

macro_rules! de_tuple {
    ($($len:literal => ($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = match v {
                    Value::Array(items) if items.len() == $len => items,
                    Value::Array(items) => {
                        return Err(Error::custom(format!(
                            "expected array of {}, got {} elements", $len, items.len()
                        )))
                    }
                    other => return Err(type_err("array", other)),
                };
                Ok(($($t::from_value(&items[$n])?,)+))
            }
        }
    )*};
}
de_tuple! {
    1 => (0 A)
    2 => (0 A, 1 B)
    3 => (0 A, 1 B, 2 C)
    4 => (0 A, 1 B, 2 C, 3 D)
}

fn type_err(expected: &str, got: &Value) -> Error {
    Error::custom(format!("expected {expected}, got {}", got.kind_name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(
            u64::from_value(&18446744073709551615_u64.to_value()).unwrap(),
            u64::MAX
        );
        assert_eq!(i32::from_value(&(-5_i32).to_value()).unwrap(), -5);
        assert_eq!(f64::from_value(&1.5e-15_f64.to_value()).unwrap(), 1.5e-15);
        assert_eq!(Option::<f64>::from_value(&Value::Null).unwrap(), None);
        let t = ("w".to_string(), 3_usize, 4_usize, vec![1.0_f32, -2.5]);
        let back: (String, usize, usize, Vec<f32>) =
            Deserialize::from_value(&t.to_value()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn mismatches_error() {
        assert!(bool::from_value(&Value::Null).is_err());
        assert!(u32::from_value(&(-1_i64).to_value()).is_err());
        assert!(Vec::<f64>::from_value(&Value::Bool(true)).is_err());
    }
}
