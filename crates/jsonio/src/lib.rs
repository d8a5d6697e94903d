//! Shared minimal JSON reader/writer for the VITAL workspace.
//!
//! The workspace has no `serde_json` (no reachable registry — see
//! `vendor/README.md`). The JSON the harness and the online server exchange
//! is machine-generated and structurally simple, so a small recursive-descent
//! reader plus a compact writer cover the need: objects, arrays, strings
//! (with the common escapes), numbers, booleans and null.
//!
//! Two consumers share this crate:
//!
//! * the repository's `benchmark/` package (result files, `compare`), and
//! * the `serve` crate's request/response codec for `POST /v1/localize` and
//!   the `/metrics` endpoint.
//!
//! # Example
//!
//! ```
//! use jsonio::{parse, Json};
//!
//! let doc = Json::obj([
//!     ("name", Json::from("vital")),
//!     ("predictions", Json::arr([Json::from(3), Json::from(7)])),
//! ]);
//! let text = doc.to_json_string();
//! assert_eq!(text, r#"{"name":"vital","predictions":[3,7]}"#);
//! assert_eq!(parse(&text).unwrap(), doc);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]
#![warn(rust_2018_idioms)]

mod read;
mod write;

pub use read::{parse, JsonError};

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants / missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value rounded to a `usize`, if this is a non-negative
    /// integral number (the common "count" / "label" case in the serve
    /// protocol).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Serializes this value as compact JSON (no whitespace).
    ///
    /// Non-finite numbers (`NaN`, `±inf`) have no JSON representation and
    /// are written as `null`.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        write::write_compact(self, &mut out);
        out
    }

    /// Serializes this value as human-readable JSON (two-space indent) with
    /// a trailing newline — the layout of the committed `BENCH_*.json`
    /// artifacts.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        write::write_pretty(self, &mut out, 0);
        out.push('\n');
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<i32> for Json {
    fn from(v: i32) -> Self {
        Json::Num(f64::from(v))
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_none_on_wrong_variant() {
        let json = parse("[1]").unwrap();
        assert!(json.get("x").is_none());
        assert!(json.as_f64().is_none());
        assert!(json.as_bool().is_none());
        assert!(json.as_str().is_none());
        assert_eq!(json.as_array().unwrap().len(), 1);
    }

    #[test]
    fn usize_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(12.0).as_usize(), Some(12));
        assert_eq!(Json::Num(0.0).as_usize(), Some(0));
        assert_eq!(Json::Num(1.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Str("12".into()).as_usize(), None);
    }

    #[test]
    fn builders_preserve_order() {
        let json = Json::obj([("b", Json::from(1)), ("a", Json::from(2))]);
        assert_eq!(
            json,
            Json::Obj(vec![
                ("b".into(), Json::Num(1.0)),
                ("a".into(), Json::Num(2.0)),
            ])
        );
    }
}
