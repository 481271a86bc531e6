//! Building blocks for durable state serialization.
//!
//! Every detachable state this workspace persists (sample buffers, ROI
//! samplers, enumerator snapshots in `srank-core`, engine caches in
//! `srank-service`) serializes through the `serde_json` [`Value`] tree.
//! This module holds the shared vocabulary: a typed error, field
//! accessors that name what was missing or mistyped, and exact codecs
//! for the two primitive shapes JSON cannot carry natively —
//!
//! * **`f64` slices** ride as plain JSON numbers: the writer prints the
//!   shortest decimal that round-trips (Rust's `{}` float formatting)
//!   and the reader parses with `str::parse::<f64>`, so every finite
//!   float survives byte-for-byte. Non-finite floats would not (JSON has
//!   no NaN/Inf) — states never contain them.
//! * **full-width `u64` words** (RNG state, checksums) ride as fixed
//!   16-digit hex strings, because the shimmed JSON number is an `f64`
//!   and would silently round anything above 2⁵³.

use serde_json::Value;
use srank_geom::hyperplane::HalfSpace;

/// A persistence decode error: what field, what went wrong. Loaders are
/// corruption-tolerant — they surface this error to a caller that logs
/// and skips, never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PersistError(pub String);

impl PersistError {
    pub fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "persist: {}", self.0)
    }
}

impl std::error::Error for PersistError {}

pub type PersistResult<T> = Result<T, PersistError>;

/// Object field lookup that names the missing key in its error.
pub fn field<'a>(v: &'a Value, key: &str) -> PersistResult<&'a Value> {
    v.get(key)
        .ok_or_else(|| PersistError::new(format!("missing field '{key}'")))
}

pub fn str_field<'a>(v: &'a Value, key: &str) -> PersistResult<&'a str> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| PersistError::new(format!("field '{key}' must be a string")))
}

pub fn u64_field(v: &Value, key: &str) -> PersistResult<u64> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| PersistError::new(format!("field '{key}' must be a non-negative integer")))
}

pub fn usize_field(v: &Value, key: &str) -> PersistResult<usize> {
    Ok(u64_field(v, key)? as usize)
}

pub fn f64_field(v: &Value, key: &str) -> PersistResult<f64> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| PersistError::new(format!("field '{key}' must be a number")))
}

pub fn bool_field(v: &Value, key: &str) -> PersistResult<bool> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| PersistError::new(format!("field '{key}' must be a boolean")))
}

pub fn array_field<'a>(v: &'a Value, key: &str) -> PersistResult<&'a [Value]> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| PersistError::new(format!("field '{key}' must be an array")))
}

/// Decodes an array field of finite numbers.
pub fn f64_vec_field(v: &Value, key: &str) -> PersistResult<Vec<f64>> {
    f64_vec_value(field(v, key)?, key)
}

/// Decodes an array value of numbers (`what` names it in errors).
pub fn f64_vec_value(v: &Value, what: &str) -> PersistResult<Vec<f64>> {
    v.as_array()
        .ok_or_else(|| PersistError::new(format!("'{what}' must be an array")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| PersistError::new(format!("'{what}' must hold numbers")))
        })
        .collect()
}

/// Decodes an array field of `u32` values.
pub fn u32_vec_field(v: &Value, key: &str) -> PersistResult<Vec<u32>> {
    array_field(v, key)?
        .iter()
        .map(|x| {
            x.as_u64()
                .filter(|&n| n <= u64::from(u32::MAX))
                .map(|n| n as u32)
                .ok_or_else(|| PersistError::new(format!("'{key}' must hold u32 values")))
        })
        .collect()
}

/// Decodes an array field of `u64` counters (plain JSON numbers — exact
/// up to 2⁵³, far beyond any observation counter in this workspace).
pub fn u64_vec_field(v: &Value, key: &str) -> PersistResult<Vec<u64>> {
    array_field(v, key)?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| PersistError::new(format!("'{key}' must hold u64 values")))
        })
        .collect()
}

/// Encodes an `f64` slice as a JSON array (exact; see module docs).
pub fn f64_slice_value(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Number(x)).collect())
}

/// Encodes half-spaces as an array of exact coefficient rows.
pub fn halfspace_rows_value(halfspaces: &[HalfSpace]) -> Value {
    Value::Array(
        halfspaces
            .iter()
            .map(|h| f64_slice_value(h.coeffs()))
            .collect(),
    )
}

/// Decodes a [`halfspace_rows_value`] field whose every row must hold
/// `dim` coefficients.
pub fn halfspace_rows_field(v: &Value, key: &str, dim: usize) -> PersistResult<Vec<HalfSpace>> {
    array_field(v, key)?
        .iter()
        .map(|row| match f64_vec_value(row, key)? {
            coeffs if coeffs.len() == dim => Ok(HalfSpace::new(coeffs)),
            coeffs => Err(PersistError::new(format!(
                "'{key}' row has {} coefficients, expected d = {dim}",
                coeffs.len()
            ))),
        })
        .collect()
}

/// Encodes a `u32` slice as a JSON array (every `u32` is exact in `f64`).
pub fn u32_slice_value(xs: &[u32]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Number(f64::from(x))).collect())
}

/// Encodes a full-width `u64` as a fixed 16-digit hex string (exact;
/// plain JSON numbers round past 2⁵³).
pub fn u64_hex_value(x: u64) -> Value {
    Value::String(format!("{x:016x}"))
}

/// Decodes a [`u64_hex_value`] field.
pub fn u64_hex_field(v: &Value, key: &str) -> PersistResult<u64> {
    u64_hex(field(v, key)?, key)
}

/// Decodes a bare [`u64_hex_value`] (`what` names it in errors).
pub fn u64_hex(v: &Value, what: &str) -> PersistResult<u64> {
    let s = v
        .as_str()
        .ok_or_else(|| PersistError::new(format!("'{what}' must be a hex string")))?;
    u64::from_str_radix(s, 16)
        .map_err(|_| PersistError::new(format!("'{what}' must be a 16-digit hex word")))
}

/// Builds a JSON object from `(key, value)` pairs (insertion order kept).
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_words_round_trip_at_full_width() {
        for x in [0u64, 1, u64::MAX, 0x9e37_79b9_7f4a_7c15, (1 << 53) + 1] {
            let v = obj([("w", u64_hex_value(x))]);
            assert_eq!(u64_hex_field(&v, "w").unwrap(), x);
        }
    }

    #[test]
    fn floats_round_trip_through_json_text() {
        let xs = vec![
            0.1 + 0.2,
            std::f64::consts::PI,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            -1_234.567_891_234_567_9e-200,
        ];
        let text = serde_json::to_string(&f64_slice_value(&xs)).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        let decoded = f64_vec_field(&obj([("x", back)]), "x").unwrap();
        for (a, b) in xs.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} reparsed as {b}");
        }
    }

    #[test]
    fn errors_name_the_field() {
        let v = obj([("a", Value::Bool(true))]);
        assert!(field(&v, "b").unwrap_err().to_string().contains("'b'"));
        assert!(u64_field(&v, "a").unwrap_err().to_string().contains("'a'"));
    }
}
