//! Hermetic stand-in for `serde`.
//!
//! The build environment has no registry access, so this crate provides
//! the subset of serde's programming model the workspace relies on:
//! `Serialize`/`Deserialize` traits (re-exporting the derive macros of
//! the sibling `serde_derive` shim) built around a small self-describing
//! [`Content`] tree instead of serde's visitor machinery. `serde_json`
//! (also shimmed) converts `Content` to and from JSON text and values.
//!
//! Supported surface: named / newtype / tuple structs, externally-tagged
//! enums (unit, newtype, tuple, and struct variants), `#[serde(default)]`
//! and `#[serde(default = "path")]` field attributes, missing
//! `Option<T>` fields defaulting to `None`, and impls for the std types
//! the workspace serialises (`u64`, `usize`, `i64`, `f64`, `bool`,
//! `String`, `Option`, `Vec`, pairs and triples).

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialised value: the intermediate form between
/// typed Rust data and a concrete format (JSON in this workspace).
///
/// Maps preserve insertion order; lookups during deserialisation are by
/// key, so formats that reorder keys still round-trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// Absent / JSON `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer (always `< 0`; non-negative values use `U64`).
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence (`Vec`, tuple, tuple struct/variant).
    Seq(Vec<Content>),
    /// Key-value map (struct fields, tagged enum variants, maps).
    Map(Vec<(String, Content)>),
}

impl Content {
    /// Looks up a map entry by key (`None` for missing keys or non-maps).
    pub fn get_field(&self, key: &str) -> Option<&Content> {
        match self {
            Content::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Human-readable kind name, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::U64(_) | Content::I64(_) => "integer",
            Content::F64(_) => "number",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

/// Deserialisation error: a message plus the path at which it occurred.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// A free-form error.
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError { msg: msg.into() }
    }

    /// "expected X, found Y while deserialising T".
    pub fn expected(what: &str, found: &Content, ty: &str) -> Self {
        DeError {
            msg: format!(
                "expected {what}, found {} while deserialising {ty}",
                found.kind()
            ),
        }
    }

    /// A required field was absent.
    pub fn missing_field(ty: &str, field: &str) -> Self {
        DeError {
            msg: format!("missing field `{field}` in {ty}"),
        }
    }

    /// An enum tag did not match any variant.
    pub fn unknown_variant(ty: &str, tag: &str) -> Self {
        DeError {
            msg: format!("unknown variant `{tag}` for enum {ty}"),
        }
    }

    /// Wraps the error with the field it occurred in.
    pub fn in_field(self, ty: &str, field: &str) -> Self {
        DeError {
            msg: format!("{ty}.{field}: {}", self.msg),
        }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for DeError {}

/// Types convertible into [`Content`].
pub trait Serialize {
    /// Serialises `self` into the content tree.
    fn to_content(&self) -> Content;
}

/// Types reconstructible from [`Content`].
pub trait Deserialize: Sized {
    /// Deserialises a value from the content tree.
    fn from_content(content: &Content) -> Result<Self, DeError>;

    /// Value to use when a struct field is absent. The default is an
    /// error; `Option<T>` overrides this to `None` (matching serde's
    /// behaviour of treating missing optional fields as `None`).
    fn absent() -> Result<Self, DeError> {
        Err(DeError::custom("missing value"))
    }
}

/// Derive-macro helper: resolves an absent field either to the type's
/// [`Deserialize::absent`] value or to a `missing field` error.
pub fn __missing<T: Deserialize>(ty: &str, field: &str) -> Result<T, DeError> {
    T::absent().map_err(|_| DeError::missing_field(ty, field))
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other, "bool")),
        }
    }
}

macro_rules! impl_unsigned {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_content(&self) -> Content {
                Content::U64(*self as u64)
            }
        }
        impl Deserialize for $ty {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                let v = match content {
                    Content::U64(v) => *v,
                    Content::I64(v) if *v >= 0 => *v as u64,
                    other => {
                        return Err(DeError::expected(
                            "non-negative integer",
                            other,
                            stringify!($ty),
                        ))
                    }
                };
                <$ty>::try_from(v)
                    .map_err(|_| DeError::custom(format!("{v} out of range for {}", stringify!($ty))))
            }
        }
    )*};
}

impl_unsigned!(u64, usize);

macro_rules! impl_signed {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_content(&self) -> Content {
                let v = *self as i64;
                if v >= 0 {
                    Content::U64(v as u64)
                } else {
                    Content::I64(v)
                }
            }
        }
        impl Deserialize for $ty {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                let v: i64 = match content {
                    Content::I64(v) => *v,
                    Content::U64(v) => i64::try_from(*v)
                        .map_err(|_| DeError::custom(format!("{v} out of range for i64")))?,
                    other => {
                        return Err(DeError::expected("integer", other, stringify!($ty)))
                    }
                };
                <$ty>::try_from(v)
                    .map_err(|_| DeError::custom(format!("{v} out of range for {}", stringify!($ty))))
            }
        }
    )*};
}

impl_signed!(i64);

macro_rules! impl_float {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_content(&self) -> Content {
                Content::F64(*self as f64)
            }
        }
        impl Deserialize for $ty {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                match content {
                    Content::F64(v) => Ok(*v as $ty),
                    Content::U64(v) => Ok(*v as $ty),
                    Content::I64(v) => Ok(*v as $ty),
                    other => Err(DeError::expected("number", other, stringify!($ty))),
                }
            }
        }
    )*};
}

impl_float!(f64);

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other, "String")),
        }
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }

    fn absent() -> Result<Self, DeError> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(DeError::expected("sequence", other, "Vec")),
        }
    }
}

macro_rules! impl_tuple {
    ($( ($($name:ident : $idx:tt),+) ),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$idx.to_content()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                match content {
                    Content::Seq(items) if items.len() == LEN => {
                        Ok(($($name::from_content(&items[$idx])?,)+))
                    }
                    other => Err(DeError::expected("tuple sequence", other, "tuple")),
                }
            }
        }
    )+};
}

impl_tuple!((A: 0, B: 1), (A: 0, B: 1, C: 2));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_content(&42u64.to_content()), Ok(42));
        assert_eq!(i64::from_content(&(-7i64).to_content()), Ok(-7));
        assert_eq!(f64::from_content(&1.5f64.to_content()), Ok(1.5));
        assert_eq!(bool::from_content(&true.to_content()), Ok(true));
        assert_eq!(
            String::from_content(&"hi".to_string().to_content()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn integer_content_feeds_floats() {
        // JSON "300" parses as an integer; f64 fields must accept it.
        assert_eq!(f64::from_content(&Content::U64(300)), Ok(300.0));
        assert_eq!(f64::from_content(&Content::I64(-2)), Ok(-2.0));
    }

    #[test]
    fn option_handles_null_and_absent() {
        assert_eq!(Option::<u64>::from_content(&Content::Null), Ok(None));
        assert_eq!(Option::<u64>::absent(), Ok(None));
        assert!(u64::absent().is_err());
    }

    #[test]
    fn vec_and_tuple_round_trip() {
        let v = vec![(1.0f64, 2usize), (3.0, 4)];
        assert_eq!(Vec::<(f64, usize)>::from_content(&v.to_content()), Ok(v));
    }

    #[test]
    fn map_lookup_is_by_key_not_position() {
        let m = Content::Map(vec![
            ("b".into(), Content::U64(2)),
            ("a".into(), Content::U64(1)),
        ]);
        assert_eq!(m.get_field("a"), Some(&Content::U64(1)));
        assert_eq!(m.get_field("missing"), None);
    }
}
