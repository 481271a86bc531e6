//! Offline shim of `serde`'s `Serialize` surface.
//!
//! Instead of serde's visitor data model, serialization goes through a
//! plain JSON [`Value`] tree: `Serialize::to_value` produces a `Value`,
//! and the `serde_json` shim renders/parses it. It renders through
//! `Serialize::as_value`, which borrows a `Value` instead of copying it.
//! `#[derive(Serialize)]` comes from the sibling `serde_derive` shim.

// The derive expands to `::serde::...` paths; alias self so the derive
// also works inside this crate's own tests.
extern crate self as serde;

pub use serde_derive::Serialize;
use std::borrow::Cow;

/// A JSON value. Object fields keep insertion order (derive order).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object-field or array-index lookup, `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64` when it is a non-negative integer exactly
    /// representable in an `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Serialization into the [`Value`] data model.
pub trait Serialize {
    fn to_value(&self) -> Value;

    /// The value to render: borrowed when `self` already is a [`Value`],
    /// so rendering one copies nothing.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

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
        Value::String(self.to_string())
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(f64::from(*self))
    }
}

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )*};
}
impl_serialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

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

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Point {
        x: f64,
        y: f64,
        tags: Vec<String>,
    }

    #[derive(Serialize)]
    enum Kind {
        Alpha,
        Beta,
    }

    #[test]
    fn derive_struct_preserves_field_order() {
        let p = Point {
            x: 1.0,
            y: 2.5,
            tags: vec!["a".into()],
        };
        let v = p.to_value();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "x");
        assert_eq!(obj[1].0, "y");
        assert_eq!(v.get("y").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("tags").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn derive_unit_enum_serializes_variant_name() {
        assert_eq!(Kind::Alpha.to_value(), Value::String("Alpha".into()));
        assert_eq!(Kind::Beta.to_value(), Value::String("Beta".into()));
    }

    #[test]
    fn option_and_ints() {
        assert_eq!(None::<u32>.to_value(), Value::Null);
        assert_eq!(Some(3u32).to_value(), Value::Number(3.0));
        assert_eq!(Value::Number(3.0).as_u64(), Some(3));
        assert_eq!(Value::Number(3.5).as_u64(), None);
    }
}
