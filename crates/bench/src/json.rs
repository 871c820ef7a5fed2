//! Minimal hand-rolled JSON emission for the machine-readable
//! diagnostics (`diag --json` and its streaming `IngestStats` dump).
//!
//! The offline `serde` stubs have no-op derives, so the binaries emit
//! JSON by hand; before this module each emission site re-implemented
//! string escaping and the non-finite-number rule inline. The rules live
//! here once:
//!
//! * strings escape `"` `\\` and control characters (`\n`, `\t`, …,
//!   `\u00XX` for the rest) — nothing else;
//! * numbers print finitely or as `null`: bare `NaN`/`inf` are not JSON
//!   and would break every consumer.
//!
//! There is no reading side: what reads this output (CI's Python `json`
//! module and `grep`) lives outside the workspace.

use std::fmt::Write as _;

/// Escapes `s` as the *contents* of a JSON string literal (no
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A float as a JSON value: finite values at fixed 6-decimal precision,
/// non-finite values as `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// A float at shortest-round-trip precision (for values where bit-level
/// diffs matter), `null` when non-finite.
pub fn num_exact(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Incremental writer for one JSON object: `field_*` calls add
/// comma-separated members in call order, `finish` closes the object.
///
/// ```
/// use holo_bench::json::JsonObj;
/// let mut o = JsonObj::new();
/// o.field_str("name", "hospital \"full\"");
/// o.field_u64("rows", 1000);
/// o.field_num("f1", f64::NAN);
/// assert_eq!(o.finish(), r#"{"name":"hospital \"full\"","rows":1000,"f1":null}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
    members: usize,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            members: 0,
        }
    }

    fn key(&mut self, key: &str) {
        if self.members > 0 {
            self.buf.push(',');
        }
        self.members += 1;
        let _ = write!(self.buf, "\"{}\":", escape(key));
    }

    /// Adds a string member (escaped).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// Adds a float member (`null` when non-finite).
    pub fn field_num(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&num(value));
        self
    }

    /// Adds an unsigned-integer member.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds an already-serialised JSON value verbatim (a nested object,
    /// an array, `null`).
    pub fn field_raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Closes and returns the object.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape(r"a\b"), r"a\\b");
        assert_eq!(escape("a\nb\tc\rd"), r"a\nb\tc\rd");
        assert_eq!(escape("\u{08}\u{0C}"), r"\b\f");
        assert_eq!(escape("\u{01}"), "\\u0001");
        assert_eq!(escape("unicode é ok"), "unicode é ok");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(1.5), "1.500000");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        assert_eq!(num_exact(0.1), "0.1");
        assert_eq!(num_exact(f64::NAN), "null");
    }

    #[test]
    fn object_builder_produces_valid_member_sequences() {
        let mut o = JsonObj::new();
        o.field_str("s", "x\"y");
        o.field_num("n", 2.0);
        o.field_u64("u", 7);
        o.field_raw("nested", "{\"a\":1}");
        o.field_raw("none", "null");
        assert_eq!(
            o.finish(),
            r#"{"s":"x\"y","n":2.000000,"u":7,"nested":{"a":1},"none":null}"#
        );
        assert_eq!(JsonObj::new().finish(), "{}");
        // An escaped string inside a finished object nested through
        // `field_raw` keeps its escapes verbatim.
        let mut inner = JsonObj::new();
        inner.field_str("label", "hospital \"full\"\n");
        let mut outer = JsonObj::new();
        outer.field_raw("rows", &format!("[{}]", inner.finish()));
        assert_eq!(
            outer.finish(),
            r#"{"rows":[{"label":"hospital \"full\"\n"}]}"#
        );
    }
}
