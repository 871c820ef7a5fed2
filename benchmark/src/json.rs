//! A JSON value and its writer — the workspace's `serde` is an offline
//! stub with no-op derives, so the benchmark serialises by hand.

use std::fmt::{self, Write as _};

/// A JSON value. Objects keep insertion order so files diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Written with Rust's shortest round-trip formatting — every digit
    /// that was measured. Non-finite numbers have no JSON form and are
    /// written as `null`.
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Compact, single-line JSON.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    f.write_char(':')?;
                    write!(f, "{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_every_kind_of_value() {
        let v = Json::obj([
            ("s", Json::str("a\"b\\c\nd\u{1}")),
            ("n", Json::Num(1.25)),
            ("i", Json::Int(-3)),
            ("b", Json::Bool(true)),
            ("z", Json::Null),
            ("a", Json::Arr(vec![Json::Int(1), Json::Arr(vec![])])),
            ("o", Json::obj::<&str>([])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"s":"a\"b\\c\nd\u0001","n":1.25,"i":-3,"b":true,"z":null,"a":[1,[]],"o":{}}"#
        );
    }

    #[test]
    fn numbers_keep_every_digit_and_non_finite_is_null() {
        let x = 0.1 + 0.2;
        assert_eq!(Json::Num(x).to_string().parse::<f64>().unwrap(), x);
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
