//! Interned cell values.
//!
//! Every distinct cell value in a dataset is interned once into a
//! [`ValuePool`] and referenced everywhere else by a 4-byte [`Sym`]. This
//! keeps the columnar store, the statistics engine and the factor graph
//! working on dense integers, and makes value equality a single `u32`
//! compare — the dominant operation in violation detection.
//!
//! `Sym::NULL` (id 0) is reserved for missing values; the empty string
//! interns to it.

use crate::fxhash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A handle to an interned value. `Sym::NULL` denotes a missing value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Sym(pub u32);

impl Sym {
    /// The reserved symbol for missing values (`""`).
    pub const NULL: Sym = Sym(0);

    /// Whether this symbol is the missing-value sentinel.
    #[inline]
    pub fn is_null(self) -> bool {
        self == Sym::NULL
    }

    /// The raw index, usable to address dense side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Append-only string interner.
///
/// Values are never removed: repairs only ever introduce values that either
/// already occur in the dataset or come from an external dictionary, both of
/// which are interned up front.
#[derive(Debug, Default, Clone)]
pub struct ValuePool {
    strings: Vec<Box<str>>,
    lookup: FxHashMap<Box<str>, Sym>,
    /// Numeric view of each symbol (for `<`/`>` predicates), parsed when the
    /// value is interned. Finite numbers only: `nan`, `inf` or `1e400`
    /// parse as floats, but a NaN has no order and a cell reading "Nan"
    /// is more likely a place name than a number.
    numeric: Vec<Option<f64>>,
}

impl ValuePool {
    /// Creates a pool with the null sentinel pre-interned.
    pub fn new() -> Self {
        let mut pool = ValuePool {
            strings: Vec::new(),
            lookup: FxHashMap::default(),
            numeric: Vec::new(),
        };
        let null = pool.intern("");
        debug_assert_eq!(null, Sym::NULL);
        pool
    }

    /// Interns `value`, returning its symbol. Idempotent.
    pub fn intern(&mut self, value: &str) -> Sym {
        if let Some(&sym) = self.lookup.get(value) {
            return sym;
        }
        let sym = Sym(self.strings.len() as u32);
        let boxed: Box<str> = value.into();
        self.strings.push(boxed.clone());
        self.lookup.insert(boxed, sym);
        let number = value.trim().parse::<f64>().ok();
        self.numeric.push(number.filter(|x| x.is_finite()));
        sym
    }

    /// Looks up an already-interned value without inserting.
    pub fn get(&self, value: &str) -> Option<Sym> {
        self.lookup.get(value).copied()
    }

    /// The string for `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this pool.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// Numeric interpretation of `sym`, if its string parses as a finite
    /// `f64`.
    #[inline]
    pub fn as_number(&self, sym: Sym) -> Option<f64> {
        self.numeric[sym.index()]
    }

    /// The value order every ordering predicate (`<`, `>`, `≤`, `≥`) reads:
    /// two numbers compare numerically (so `"9" < "10"` and `"-0" ==
    /// "0"`), anything else compares as strings. A total order, because
    /// [`ValuePool::as_number`] holds finite numbers only.
    pub fn compare(&self, a: Sym, b: Sym) -> Ordering {
        match (self.as_number(a), self.as_number(b)) {
            // Never `None`: both sides are finite.
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
            _ => self.resolve(a).cmp(self.resolve(b)),
        }
    }

    /// Number of interned values (including the null sentinel).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the pool holds only the null sentinel.
    pub fn is_empty(&self) -> bool {
        self.strings.len() <= 1
    }

    /// Iterates over `(sym, string)` pairs, null sentinel included.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Sym(i as u32), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn null_is_reserved() {
        let pool = ValuePool::new();
        assert_eq!(pool.get(""), Some(Sym::NULL));
        assert!(Sym::NULL.is_null());
        assert_eq!(pool.resolve(Sym::NULL), "");
    }

    #[test]
    fn intern_is_idempotent() {
        let mut pool = ValuePool::new();
        let a = pool.intern("Chicago");
        let b = pool.intern("Chicago");
        assert_eq!(a, b);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn distinct_values_get_distinct_syms() {
        let mut pool = ValuePool::new();
        let a = pool.intern("IL");
        let b = pool.intern("IN");
        assert_ne!(a, b);
        assert_eq!(pool.resolve(a), "IL");
        assert_eq!(pool.resolve(b), "IN");
    }

    #[test]
    fn numeric_view() {
        let mut pool = ValuePool::new();
        let n = pool.intern("60608");
        let f = pool.intern("3.5");
        let s = pool.intern("Chicago");
        let padded = pool.intern(" 42 ");
        assert_eq!(pool.as_number(n), Some(60608.0));
        assert_eq!(pool.as_number(f), Some(3.5));
        assert_eq!(pool.as_number(s), None);
        assert_eq!(pool.as_number(padded), Some(42.0));
        assert_eq!(pool.as_number(Sym::NULL), None);
        // Rust parses these as floats; none of them is a finite number.
        for text in ["nan", "Nan", "NaN", "inf", "-Infinity", "1e400"] {
            let sym = pool.intern(text);
            assert_eq!(pool.as_number(sym), None, "{text}");
        }
    }

    #[test]
    fn compare_orders_numbers_then_strings() {
        let mut pool = ValuePool::new();
        let [nine, ten, zero, neg_zero, abc, nan] =
            ["9", "10", "0", "-0", "abc", "Nan"].map(|v| pool.intern(v));
        assert_eq!(
            pool.compare(nine, ten),
            Ordering::Less,
            "numeric, not lexicographic"
        );
        assert_eq!(pool.compare(neg_zero, zero), Ordering::Equal);
        assert_eq!(
            pool.compare(ten, abc),
            Ordering::Less,
            "mixed compares as strings"
        );
        assert_eq!(
            pool.compare(nan, nine),
            Ordering::Greater,
            "\"Nan\" is a string"
        );
        assert_eq!(pool.compare(nine, nan), Ordering::Less);
    }

    #[test]
    fn get_does_not_insert() {
        let pool = ValuePool::new();
        assert_eq!(pool.get("missing"), None);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn iter_covers_all() {
        let mut pool = ValuePool::new();
        pool.intern("a");
        pool.intern("b");
        let collected: Vec<_> = pool.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(collected, vec!["", "a", "b"]);
    }

    proptest! {
        #[test]
        fn roundtrip(values in proptest::collection::vec("[a-zA-Z0-9 .-]{0,12}", 0..50)) {
            let mut pool = ValuePool::new();
            let syms: Vec<Sym> = values.iter().map(|v| pool.intern(v)).collect();
            for (v, s) in values.iter().zip(&syms) {
                prop_assert_eq!(pool.resolve(*s), v.as_str());
                prop_assert_eq!(pool.get(v), Some(*s));
            }
        }

        #[test]
        fn equal_strings_equal_syms(a in "[a-z]{1,8}", b in "[a-z]{1,8}") {
            let mut pool = ValuePool::new();
            let sa = pool.intern(&a);
            let sb = pool.intern(&b);
            prop_assert_eq!(a == b, sa == sb);
        }
    }
}
