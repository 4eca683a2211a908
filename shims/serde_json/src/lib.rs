//! Offline stand-in for `serde_json`.
//!
//! Output side: [`to_string`] / [`to_string_pretty`] / [`to_writer`] over
//! the serde shim's direct-to-JSON [`Serialize`]. Input side: the serde
//! shim's parser into the dynamic [`Value`] tree ([`from_str_value`]), and
//! [`from_str`] for any [`Deserialize`] type on top of it.

#![warn(clippy::all)]

use std::io::Write;

use serde::{Deserialize, Serialize};

pub use serde::de::Error;
pub use serde::value::{from_str_value, ParseError, Value};

/// Parses `input` and decodes it as a `T`.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a document of the wrong shape.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    T::deserialize_value(&from_str_value(input)?)
}

/// Compact JSON encoding of `value`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, std::io::Error> {
    Ok(value.to_json())
}

/// Pretty (2-space indented) JSON encoding of `value`.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, std::io::Error> {
    Ok(prettify(&value.to_json()))
}

/// Writes compact JSON to `writer`.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), std::io::Error> {
    writer.write_all(value.to_json().as_bytes())
}

/// Writes pretty JSON to `writer`.
pub fn to_writer_pretty<W: Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), std::io::Error> {
    writer.write_all(prettify(&value.to_json()).as_bytes())
}

/// Re-indents a compact JSON document produced by the serde shim.
///
/// The input is trusted (it comes from our own encoder), so this is a
/// simple structural walk: newline + indent after `{`/`[`/`,`, newline
/// before `}`/`]`, with string literals passed through verbatim.
fn prettify(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut indent = 0usize;
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                out.push('"');
                let mut escaped = false;
                for s in chars.by_ref() {
                    out.push(s);
                    if escaped {
                        escaped = false;
                    } else if s == '\\' {
                        escaped = true;
                    } else if s == '"' {
                        break;
                    }
                }
            }
            '{' | '[' => {
                out.push(c);
                // Keep empty containers on one line.
                let close = if c == '{' { '}' } else { ']' };
                if chars.peek() == Some(&close) {
                    out.push(close);
                    chars.next();
                } else {
                    indent += 1;
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent));
                }
            }
            '}' | ']' => {
                indent = indent.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(c);
            }
            ',' => {
                out.push(',');
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            ':' => {
                out.push_str(": ");
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_round_trip_shape() {
        let pretty = prettify("{\"a\":[1,2],\"b\":{},\"c\":\"x,y:{}\"}");
        assert!(pretty.contains("\"a\": [\n"));
        assert!(pretty.contains("\"b\": {}"));
        // String contents must be untouched.
        assert!(pretty.contains("\"x,y:{}\""));
    }

    #[test]
    fn to_string_works() {
        assert_eq!(to_string(&vec![1u32, 2]).unwrap(), "[1,2]");
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Shape {
        Unit,
        Newtype(u32),
        Pair(u64, f64),
        Named { xs: Vec<(u64, u32)> },
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Holder {
        shapes: Vec<Shape>,
        maybe: Option<u64>,
        #[serde(default)]
        flag: bool,
    }

    #[test]
    fn derived_impls_round_trip_and_apply_absent_key_rules() {
        let holder = Holder {
            shapes: vec![
                Shape::Unit,
                Shape::Newtype(7),
                Shape::Pair(1, 0.5),
                Shape::Named { xs: vec![(2, 3)] },
            ],
            maybe: Some(4),
            flag: true,
        };
        let json = to_string(&holder).unwrap();
        assert_eq!(from_str::<Holder>(&json).unwrap(), holder);
        // Absent `Option` = None, absent `#[serde(default)]` = default,
        // unknown keys ignored, a unit variant may also come as `{tag: null}`.
        assert_eq!(
            from_str::<Holder>(r#"{"shapes": [{"Unit": null}], "extra": 1}"#).unwrap(),
            Holder {
                shapes: vec![Shape::Unit],
                maybe: None,
                flag: false,
            }
        );
        for bad in [
            r#"{"maybe": 1}"#,
            r#"{"shapes": ["Newtype"]}"#,
            r#"{"shapes": [{"Unit": 1}]}"#,
            r#"{"shapes": [{"Pair": [1]}]}"#,
            r#"{"shapes": [{"Named": {}}]}"#,
            r#"{"shapes": [{"Unit": null, "Newtype": 1}]}"#,
            r#"{"shapes": ["Circle"]}"#,
            r#"{"shapes": [], "flag": null}"#,
        ] {
            assert!(from_str::<Holder>(bad).is_err(), "accepted: {bad}");
        }
        let err = from_str::<Holder>(r#"{"shapes": [{"Named": {"xs": [[1, -2]]}}]}"#);
        assert_eq!(
            err.unwrap_err().to_string(),
            "at `shapes.0.xs.0.1`: expected an unsigned 32-bit integer, found a number"
        );
    }

    #[test]
    fn from_str_decodes_and_reports_parse_errors() {
        assert_eq!(from_str::<Vec<u32>>("[1, 2]").unwrap(), vec![1, 2]);
        assert!(from_str::<Vec<u32>>("[1,").is_err());
        assert!(from_str::<Vec<u32>>("{}").is_err());
    }
}
