//! The reading half: [`Deserialize`] rebuilds a value from a parsed JSON
//! [`Value`] tree, with upstream serde's defaults — externally tagged
//! enums, unknown object keys ignored, an absent key an error unless the
//! field is an `Option` (absent = `None`) or marked `#[serde(default)]`.
//!
//! The free functions below are what `#[derive(Deserialize)]` expands to;
//! they are public for the generated code, not for direct use.

use std::collections::BTreeMap;

use crate::value::{ParseError, Value};

/// Types that can rebuild themselves from a JSON [`Value`].
pub trait Deserialize: Sized {
    /// Decodes `value`.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when `value` has the wrong shape.
    fn deserialize_value(value: &Value) -> Result<Self, Error>;

    /// The value of an absent object key. Only `Option` has one (`None`);
    /// every other type reports the key as missing.
    ///
    /// # Errors
    ///
    /// Returns a "missing field" [`Error`].
    fn deserialize_missing() -> Result<Self, Error> {
        Err(Error::new("missing field"))
    }
}

/// Why a JSON document could not be decoded: the message plus the dotted
/// path (object keys and array indices) to the offending value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    path: Vec<String>,
    message: String,
}

impl Error {
    /// An error at the current position.
    fn new(message: impl Into<String>) -> Self {
        Error {
            path: Vec::new(),
            message: message.into(),
        }
    }

    /// `expected`, but `found` has another type or range.
    fn invalid_type(expected: &str, found: &Value) -> Self {
        let found = match found {
            Value::Null => "null",
            Value::Bool(_) => "a bool",
            Value::Float(_) | Value::UInt(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        };
        Error::new(format!("expected {expected}, found {found}"))
    }

    /// Prefixes the path with the key or index `segment`.
    #[must_use]
    pub fn at(mut self, segment: impl ToString) -> Self {
        self.path.insert(0, segment.to_string());
        self
    }
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "at `{}`: {}", self.path.join("."), self.message)
        }
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::new(e.to_string())
    }
}

macro_rules! impl_unsigned_deserialize {
    ($($t:ty => $what:literal),*) => {$(
        impl Deserialize for $t {
            fn deserialize_value(value: &Value) -> Result<Self, Error> {
                value
                    .as_u64()
                    .and_then(|u| <$t>::try_from(u).ok())
                    .ok_or_else(|| Error::invalid_type($what, value))
            }
        }
    )*};
}

impl_unsigned_deserialize!(
    u64 => "an unsigned 64-bit integer",
    usize => "an unsigned integer",
    u32 => "an unsigned 32-bit integer"
);

impl Deserialize for f64 {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .ok_or_else(|| Error::invalid_type("a number", value))
    }
}

impl Deserialize for bool {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::invalid_type("a bool", value))
    }
}

impl Deserialize for String {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::invalid_type("a string", value))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        array(value, "an array", None)?
            .iter()
            .enumerate()
            .map(|(i, item)| T::deserialize_value(item).map_err(|e| e.at(i)))
            .collect()
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            v => T::deserialize_value(v).map(Some),
        }
    }

    fn deserialize_missing() -> Result<Self, Error> {
        Ok(None)
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let items = array(value, "a 2-element array", Some(2))?;
        Ok((
            A::deserialize_value(&items[0]).map_err(|e| e.at(0))?,
            B::deserialize_value(&items[1]).map_err(|e| e.at(1))?,
        ))
    }
}

/// The items of an array, of exactly `len` items when given.
fn array<'v>(value: &'v Value, expected: &str, len: Option<usize>) -> Result<&'v [Value], Error> {
    match value.as_array() {
        Some(items) if len.is_none_or(|n| n == items.len()) => Ok(items),
        _ => Err(Error::invalid_type(expected, value)),
    }
}

/// The members of a struct's JSON object, or an error.
pub fn object<'v>(value: &'v Value, ty: &str) -> Result<&'v BTreeMap<String, Value>, Error> {
    value
        .as_object()
        .ok_or_else(|| Error::invalid_type(&format!("a {ty} object"), value))
}

/// Field `key` of `map`, its absence decided by the field type
/// ([`Deserialize::deserialize_missing`]); errors carry `key` in the path.
pub fn field<T: Deserialize>(map: &BTreeMap<String, Value>, key: &str) -> Result<T, Error> {
    match map.get(key) {
        Some(v) => T::deserialize_value(v),
        None => T::deserialize_missing(),
    }
    .map_err(|e| e.at(key))
}

/// Field `key` of `map` for a `#[serde(default)]` field: absent means
/// `T::default()`.
pub fn field_or_default<T: Deserialize + Default>(
    map: &BTreeMap<String, Value>,
    key: &str,
) -> Result<T, Error> {
    match map.get(key) {
        Some(_) => field(map, key),
        None => Ok(T::default()),
    }
}

/// Splits an externally tagged enum value into `(tag, body)`: a bare
/// string is a variant with a `null` body, a one-key object is
/// `{tag: body}`; any other shape is an error.
pub fn variant<'v>(value: &'v Value, ty: &str) -> Result<(&'v str, &'v Value), Error> {
    static NULL: Value = Value::Null;
    match value {
        Value::String(tag) => Ok((tag, &NULL)),
        Value::Object(map) if map.len() == 1 => {
            let (tag, body) = map.iter().next().expect("one entry");
            Ok((tag, body))
        }
        _ => Err(Error::invalid_type(
            &format!("a {ty} variant (a string or a one-key object)"),
            value,
        )),
    }
}

/// Checks that a unit variant's body is `null`.
pub fn unit_variant(body: &Value, tag: &str) -> Result<(), Error> {
    match body {
        Value::Null => Ok(()),
        v => Err(Error::invalid_type(&format!("unit variant `{tag}`"), v)),
    }
}

/// The `len` items of a tuple variant's body array, or an error.
pub fn tuple_body(body: &Value, len: usize) -> Result<&[Value], Error> {
    array(body, &format!("a {len}-element array"), Some(len))
}

/// An error for a tag that names no variant of `ty`.
#[must_use]
pub fn unknown_variant(tag: &str, ty: &str) -> Error {
    Error::new(format!("unknown {ty} variant `{tag}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::from_str_value;

    fn decode<T: Deserialize>(json: &str) -> Result<T, Error> {
        T::deserialize_value(&from_str_value(json).unwrap())
    }

    #[test]
    fn scalars_are_typed_and_range_checked() {
        assert_eq!(decode::<u64>("18446744073709551615"), Ok(u64::MAX));
        assert!(decode::<u64>("18446744073709551616").is_err());
        assert_eq!(decode::<u32>("4294967295"), Ok(u32::MAX));
        assert!(decode::<u32>("4294967296").is_err());
        assert!(decode::<usize>("1.5").is_err());
        assert!(decode::<usize>("-1").is_err());
        assert_eq!(decode::<f64>("3"), Ok(3.0));
        assert!(decode::<f64>("\"3\"").is_err());
        assert_eq!(decode::<bool>("true"), Ok(true));
        assert_eq!(decode::<String>("\"x\""), Ok("x".to_string()));
    }

    #[test]
    fn containers() {
        assert_eq!(decode::<Vec<u32>>("[1,2]"), Ok(vec![1, 2]));
        assert_eq!(decode::<Option<u32>>("null"), Ok(None));
        assert_eq!(decode::<Option<u32>>("7"), Ok(Some(7)));
        assert_eq!(decode::<(u64, u32)>("[1,2]"), Ok((1, 2)));
        assert!(decode::<(u64, u32)>("[1,2,3]").is_err());
        let err = decode::<Vec<(u64, u32)>>("[[1,2],[3,\"x\"]]").unwrap_err();
        assert_eq!(
            err.to_string(),
            "at `1.1`: expected an unsigned 32-bit integer, found a string"
        );
    }

    #[test]
    fn absent_keys() {
        let map = BTreeMap::new();
        assert_eq!(field::<Option<u64>>(&map, "k"), Ok(None));
        assert_eq!(field_or_default::<bool>(&map, "k"), Ok(false));
        assert_eq!(
            field::<u64>(&map, "k").unwrap_err().to_string(),
            "at `k`: missing field"
        );
    }
}
