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
//!
//! # Layout
//!
//! Loading a table interns every cell, so the pool is built for a few
//! hundred thousand distinct values at a handful of allocations:
//!
//! * **One arena.** The values' bytes sit back to back in one `String`, in
//!   `Sym` order, and a `u32` end offset per value delimits them (a value
//!   starts where the one before it ends). Cloning the pool is a few
//!   `memcpy`s and dropping it frees a few blocks, not one box per value.
//! * **A numeric side table** of one `f64` per value, NaN where the value
//!   is not a finite number (8 bytes; `Option<f64>` would take 16).
//! * **An open-addressing index** of 8-byte `(tag, sym)` slots, probed
//!   linearly and kept at most half full. The tag is the high 32 bits of
//!   the value's [`FxHasher`] hash and the home slot is the tag's high
//!   bits. Fx ends each word with a multiply, so only its *high* bits
//!   depend on every byte; the low bits a power-of-two table would
//!   otherwise take depend only on the first bytes of each 8-byte word,
//!   and values that share a prefix (`606xx` zips, `2010-…` dates) would
//!   pile into a few slots. The tag also rejects most collisions without
//!   reading the arena, and growing the index re-slots the tags without
//!   hashing a string again. Fx is unkeyed, so values crafted to collide
//!   would make interning quadratic: the pool trusts the tables it loads.

use crate::fxhash::FxHasher;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::Hasher;

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

/// One index slot: the high 32 bits of a value's hash and its symbol, or
/// [`Slot::EMPTY`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    sym: u32,
}

impl Slot {
    /// A free slot. `u32::MAX` is never a symbol: the pool would need
    /// 2³² values, and the arena's `u32` offsets run out first.
    const EMPTY: Slot = Slot {
        tag: 0,
        sym: u32::MAX,
    };
}

/// The smallest index: 16 slots.
const MIN_SLOT_BITS: u32 = 4;

/// The index tag of `value`: the high 32 bits of its Fx hash (see the
/// module docs for why the high ones).
#[inline]
fn tag_of(value: &str) -> u32 {
    let mut hasher = FxHasher::default();
    hasher.write(value.as_bytes());
    (hasher.finish() >> 32) as u32
}

/// Append-only string interner over one arena (see the module docs).
///
/// Values are never removed: repairs only ever introduce values that either
/// already occur in the dataset or come from an external dictionary, both of
/// which are interned up front.
#[derive(Debug, Clone)]
pub struct ValuePool {
    /// Every value's bytes, back to back in symbol order.
    bytes: String,
    /// `ends[i]`: where value `i` ends in `bytes`. It starts where value
    /// `i - 1` ends; value 0 is the empty null sentinel.
    ends: Vec<u32>,
    /// Numeric view of each symbol (for `<`/`>` predicates), parsed when the
    /// value is interned; NaN where it is not a finite number. `nan`, `inf`
    /// or `1e400` parse as floats, but a NaN has no order and a cell
    /// reading "Nan" is more likely a place name than a number.
    numbers: Vec<f64>,
    /// Open-addressing index, `1 << slot_bits` slots, at most half full.
    slots: Vec<Slot>,
    slot_bits: u32,
}

impl Default for ValuePool {
    /// The same as [`ValuePool::new`]: the null sentinel is always `Sym(0)`.
    fn default() -> Self {
        ValuePool::new()
    }
}

impl ValuePool {
    /// Creates a pool with the null sentinel pre-interned.
    pub fn new() -> Self {
        let mut pool = ValuePool {
            bytes: String::new(),
            ends: Vec::new(),
            numbers: Vec::new(),
            slots: vec![Slot::EMPTY; 1 << MIN_SLOT_BITS],
            slot_bits: MIN_SLOT_BITS,
        };
        let null = pool.intern("");
        debug_assert_eq!(null, Sym::NULL);
        pool
    }

    /// The home slot of `tag`: its high `slot_bits` bits.
    #[inline]
    fn home(&self, tag: u32) -> usize {
        (tag >> (32 - self.slot_bits)) as usize
    }

    /// The slot holding `value`, or the free slot where it would go.
    #[inline]
    fn probe(&self, value: &str, tag: u32) -> (usize, Option<Sym>) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        loop {
            let slot = self.slots[i];
            if slot.sym == Slot::EMPTY.sym {
                return (i, None);
            }
            if slot.tag == tag && self.resolve(Sym(slot.sym)) == value {
                return (i, Some(Sym(slot.sym)));
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns `value`, returning its symbol. Idempotent.
    ///
    /// # Panics
    /// Panics if the arena would pass 4 GiB (its offsets are `u32`).
    pub fn intern(&mut self, value: &str) -> Sym {
        let tag = tag_of(value);
        let (slot, found) = self.probe(value, tag);
        if let Some(sym) = found {
            return sym;
        }
        let sym = Sym(self.ends.len() as u32);
        self.bytes.push_str(value);
        let end = u32::try_from(self.bytes.len()).expect("value pool arena exceeds 4 GiB");
        self.ends.push(end);
        let number = value.trim().parse::<f64>().ok();
        self.numbers
            .push(number.filter(|x| x.is_finite()).unwrap_or(f64::NAN));
        self.slots[slot] = Slot { tag, sym: sym.0 };
        if self.ends.len() * 2 > self.slots.len() {
            self.grow();
        }
        sym
    }

    /// Doubles the index, re-slotting every entry by its tag.
    fn grow(&mut self) {
        self.slot_bits += 1;
        let old = std::mem::replace(&mut self.slots, vec![Slot::EMPTY; 1 << self.slot_bits]);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.sym != Slot::EMPTY.sym) {
            let mut i = self.home(slot.tag);
            while self.slots[i].sym != Slot::EMPTY.sym {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Looks up an already-interned value without inserting.
    pub fn get(&self, value: &str) -> Option<Sym> {
        self.probe(value, tag_of(value)).1
    }

    /// The string for `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this pool.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        let i = sym.index();
        // Value 0 ends at 0, so it is its own predecessor.
        let start = self.ends[i.saturating_sub(1)];
        &self.bytes[start as usize..self.ends[i] as usize]
    }

    /// Numeric interpretation of `sym`, if its string parses as a finite
    /// `f64`.
    #[inline]
    pub fn as_number(&self, sym: Sym) -> Option<f64> {
        let x = self.numbers[sym.index()];
        (!x.is_nan()).then_some(x)
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
        self.ends.len()
    }

    /// Whether the pool holds only the null sentinel.
    pub fn is_empty(&self) -> bool {
        self.ends.len() <= 1
    }

    /// Iterates over `(sym, string)` pairs, null sentinel included.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.ends.len() as u32).map(|i| (Sym(i), self.resolve(Sym(i))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

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
    fn default_is_new() {
        let mut pool = ValuePool::default();
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.get(""), Some(Sym::NULL));
        let x = pool.intern("x");
        assert!(!x.is_null(), "a real value is not the null sentinel");
        assert_eq!(pool.resolve(x), "x");
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

    /// What the arena replaced: a hash map to the symbols and a vector of
    /// strings in symbol order.
    struct Reference {
        syms: HashMap<String, Sym>,
        strings: Vec<String>,
    }

    impl Reference {
        fn new() -> Self {
            let mut reference = Reference {
                syms: HashMap::new(),
                strings: Vec::new(),
            };
            reference.intern("");
            reference
        }

        fn intern(&mut self, value: &str) -> Sym {
            let next = Sym(self.strings.len() as u32);
            let sym = *self.syms.entry(value.to_string()).or_insert(next);
            if sym == next {
                self.strings.push(value.to_string());
            }
            sym
        }
    }

    /// `pool` answers every read as `reference` does.
    fn assert_same(pool: &ValuePool, reference: &Reference) {
        assert_eq!(pool.len(), reference.strings.len());
        assert_eq!(pool.is_empty(), reference.strings.len() <= 1);
        let listed: Vec<(Sym, &str)> = pool.iter().collect();
        let want: Vec<(Sym, &str)> = (reference.strings.iter().enumerate())
            .map(|(i, s)| (Sym(i as u32), s.as_str()))
            .collect();
        assert_eq!(listed, want);
        for (value, &sym) in &reference.syms {
            assert_eq!(pool.get(value), Some(sym), "{value:?}");
            assert_eq!(pool.resolve(sym), value);
            let number = value.trim().parse::<f64>().ok().filter(|x| x.is_finite());
            assert_eq!(pool.as_number(sym), number, "{value:?}");
        }
        let syms: Vec<Sym> = (0..pool.len() as u32).map(Sym).collect();
        for pair in syms.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let want = match (pool.as_number(a), pool.as_number(b)) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap(),
                _ => reference.strings[a.index()].cmp(&reference.strings[b.index()]),
            };
            assert_eq!(pool.compare(a, b), want);
            assert_eq!(pool.compare(b, a), want.reverse());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The arena pool against a `HashMap<String, Sym>` reference: `""`,
        /// multi-byte UTF-8, values past 16 bytes, numbers, each value
        /// interned again later on, and up to 700 distinct values (the
        /// index grows from 16 slots to 2 048). A clone then diverges from
        /// the pool it was cloned from.
        #[test]
        fn prop_arena_matches_hash_map(
            values in proptest::collection::vec("[ab09.é日😀 -]{0,24}", 0..700),
            numbers in proptest::collection::vec(0u32..5000, 0..100),
            extra in proptest::collection::vec("[xyé]{0,20}", 1..40),
        ) {
            let (mut pool, mut reference) = (ValuePool::new(), Reference::new());
            let numbers: Vec<String> = numbers.iter().map(|n| format!("{}", *n as f64 / 8.0)).collect();
            for (i, value) in values.iter().chain(&numbers).enumerate() {
                let again = values.get(i / 2).unwrap_or(value);
                for value in [value, again] {
                    prop_assert_eq!(pool.intern(value), reference.intern(value));
                }
            }
            assert_same(&pool, &reference);

            let (mut copy, mut copy_reference) = (pool.clone(), Reference::new());
            for value in &reference.strings {
                copy_reference.intern(value);
            }
            for value in &extra {
                prop_assert_eq!(copy.intern(value), copy_reference.intern(value));
            }
            assert_same(&copy, &copy_reference);
            assert_same(&pool, &reference);
            for value in extra.iter().filter(|v| !reference.syms.contains_key(*v)) {
                prop_assert_eq!(pool.get(value), None);
            }
        }

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
