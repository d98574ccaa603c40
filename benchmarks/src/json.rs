//! Builders for `serde_json::Value` trees (the shim has no `json!`).

use serde_json::{Number, Value};

/// An object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A string.
pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// A non-negative integer.
pub fn uint(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

/// A float.
pub fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}
