//! Tied weights and their numbering.
//!
//! HoloClean's inference rules are *weight-parameterised*: e.g. a
//! relaxed denial constraint `σ` shares one weight `w(σ)` across every
//! grounding (§4.2, §5.2). The [`FeatureRegistry`] numbers structured keys
//! with dense [`WeightId`]s — a key's id is its rank among the distinct
//! keys interned, so a caller that interns a fixed key list before reading
//! ids makes each id a function of its key — and names each id by its key;
//! [`Weights`] stores the values, separating
//! *learnable* weights (updated by SGD) from *fixed* weights (the
//! minimality prior and the constant denial-constraint weight `w` of
//! Algorithm 1).

use holo_dataset::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// Dense index of a tied weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WeightId(pub u32);

impl WeightId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interns structured feature keys (e.g. `(attr, co-attr)` pairs) into
/// dense weight ids, and keeps the keys in id order.
#[derive(Debug, Clone)]
pub struct FeatureRegistry<K> {
    map: FxHashMap<K, WeightId>,
    keys: Vec<K>,
    fixed: Vec<bool>,
    initial: Vec<f64>,
}

impl<K: Hash + Eq + Clone> Default for FeatureRegistry<K> {
    fn default() -> Self {
        FeatureRegistry {
            map: FxHashMap::default(),
            keys: Vec::new(),
            fixed: Vec::new(),
            initial: Vec::new(),
        }
    }
}

impl<K: Hash + Eq + Clone> FeatureRegistry<K> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `key` as a learnable weight with a non-zero prior value —
    /// SGD starts from (and can move away from) `init`.
    pub fn learnable_init(&mut self, key: K, init: f64) -> WeightId {
        self.intern(key, false, init)
    }

    /// Interns `key` as a fixed-value weight (not touched by learning).
    pub fn fixed(&mut self, key: K, value: f64) -> WeightId {
        self.intern(key, true, value)
    }

    fn intern(&mut self, key: K, fixed: bool, value: f64) -> WeightId {
        let id = WeightId(self.fixed.len() as u32);
        match self.map.entry(key) {
            Entry::Occupied(seen) => *seen.get(),
            Entry::Vacant(slot) => {
                self.keys.push(slot.key().clone());
                slot.insert(id);
                self.fixed.push(fixed);
                self.initial.push(value);
                id
            }
        }
    }

    /// Looks up a key without interning.
    pub fn get(&self, key: &K) -> Option<WeightId> {
        self.map.get(key).copied()
    }

    /// The interned keys in id order: `keys()[id.index()]` names `id`.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Number of interned weights.
    pub fn len(&self) -> usize {
        self.fixed.len()
    }

    /// Whether no weights have been interned.
    pub fn is_empty(&self) -> bool {
        self.fixed.is_empty()
    }

    /// Materialises the weight store (initial values + fixedness mask).
    pub fn build_weights(&self) -> Weights {
        Weights {
            values: self.initial.clone(),
            fixed: self.fixed.clone(),
        }
    }
}

/// The weight vector `θ` of Eq. 1.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    values: Vec<f64>,
    fixed: Vec<bool>,
}

impl Weights {
    /// A store of `n` learnable weights initialised to zero.
    pub fn zeros(n: usize) -> Self {
        Weights {
            values: vec![0.0; n],
            fixed: vec![false; n],
        }
    }

    /// The current value of weight `id`.
    #[inline]
    pub fn get(&self, id: WeightId) -> f64 {
        self.values[id.index()]
    }

    /// Sets weight `id` unconditionally (used by tests and serialisation).
    pub fn set(&mut self, id: WeightId, value: f64) {
        self.values[id.index()] = value;
    }

    /// Whether the weight is fixed (excluded from SGD updates).
    #[inline]
    pub fn is_fixed(&self, id: WeightId) -> bool {
        self.fixed[id.index()]
    }

    /// Applies a gradient step `w += delta` unless the weight is fixed.
    #[inline]
    pub fn update(&mut self, id: WeightId, delta: f64) {
        let i = id.index();
        if !self.fixed[i] {
            self.values[i] += delta;
        }
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// L2 norm of the learnable weights among `ids` (for convergence
    /// diagnostics; a model passes the ids its design rows name).
    ///
    /// The squares are summed in **value-sorted** order, not weight-id
    /// order, so the norm is a function of the multiset of weight values
    /// alone: registries that number the same features differently report
    /// it bit for bit, and equivalence diffs over diagnostic dumps don't
    /// false-positive on floating-point association order.
    pub fn learnable_norm(&self, ids: impl IntoIterator<Item = WeightId>) -> f64 {
        let mut squares: Vec<f64> = ids
            .into_iter()
            .filter(|&id| !self.is_fixed(id))
            .map(|id| self.get(id) * self.get(id))
            .collect();
        squares.sort_by(f64::total_cmp);
        squares.iter().sum::<f64>().sqrt()
    }
}

#[cfg(test)]
impl<K: Hash + Eq + Clone> FeatureRegistry<K> {
    /// Interns `key` as a learnable weight initialised to 0.
    pub fn learnable(&mut self, key: K) -> WeightId {
        self.intern(key, false, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Key {
        Cooccur(u16, u32, u16, u32),
        Minimality,
        Dict(u8),
    }

    #[test]
    fn interning_is_idempotent() {
        let mut reg: FeatureRegistry<Key> = FeatureRegistry::new();
        let a = reg.learnable(Key::Cooccur(0, 1, 2, 3));
        let b = reg.learnable(Key::Cooccur(0, 1, 2, 3));
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        let c = reg.learnable(Key::Cooccur(0, 1, 2, 4));
        assert_ne!(a, c);
    }

    #[test]
    fn fixed_weights_keep_value_and_resist_updates() {
        let mut reg: FeatureRegistry<Key> = FeatureRegistry::new();
        let prior = reg.fixed(Key::Minimality, 1.5);
        let feat = reg.learnable(Key::Dict(0));
        let mut w = reg.build_weights();
        assert_eq!(w.get(prior), 1.5);
        assert_eq!(w.get(feat), 0.0);
        w.update(prior, 10.0);
        w.update(feat, 10.0);
        assert_eq!(w.get(prior), 1.5, "fixed weight unchanged");
        assert_eq!(w.get(feat), 10.0);
    }

    #[test]
    fn re_interning_fixed_key_preserves_first_value() {
        let mut reg: FeatureRegistry<Key> = FeatureRegistry::new();
        let a = reg.fixed(Key::Minimality, 2.0);
        let b = reg.fixed(Key::Minimality, 99.0);
        assert_eq!(a, b);
        assert_eq!(reg.build_weights().get(a), 2.0);
    }

    #[test]
    fn learnable_norm_excludes_fixed() {
        let mut reg: FeatureRegistry<Key> = FeatureRegistry::new();
        let prior = reg.fixed(Key::Minimality, 100.0);
        let feat = reg.learnable(Key::Dict(1));
        let mut w = reg.build_weights();
        w.update(feat, 3.0);
        let _ = prior;
        let all = [prior, feat];
        assert!((w.learnable_norm(all) - 3.0).abs() < 1e-12);
        assert_eq!(w.learnable_norm([prior]), 0.0, "only the ids passed");
    }

    /// The norm is a function of the value multiset, not the id order —
    /// isomorphic registries (same features interned in different
    /// sequences) report bit-identical norms.
    #[test]
    fn learnable_norm_is_id_order_invariant() {
        let values = [0.3, -1.7, 2.4e-3, 8.1, -0.2, 5.5e2, 1e-9];
        let mut a = Weights::zeros(values.len());
        let mut b = Weights::zeros(values.len());
        for (i, &v) in values.iter().enumerate() {
            a.set(WeightId(i as u32), v);
            b.set(WeightId((values.len() - 1 - i) as u32), v);
        }
        let all = || (0..values.len() as u32).map(WeightId);
        assert_eq!(
            a.learnable_norm(all()).to_bits(),
            b.learnable_norm(all()).to_bits()
        );
    }

    #[test]
    fn get_without_interning() {
        let mut reg: FeatureRegistry<Key> = FeatureRegistry::new();
        assert_eq!(reg.get(&Key::Minimality), None);
        let id = reg.learnable(Key::Minimality);
        assert_eq!(reg.get(&Key::Minimality), Some(id));
    }

    /// Every id names the key it was interned for, its rank among the
    /// distinct keys interned.
    #[test]
    fn ids_name_their_keys() {
        let mut reg: FeatureRegistry<Key> = FeatureRegistry::new();
        let a = reg.learnable(Key::Dict(3));
        let b = reg.fixed(Key::Minimality, 1.0);
        assert_eq!(reg.learnable(Key::Minimality), b, "a repeat keeps its id");
        assert_eq!(reg.learnable(Key::Dict(4)), WeightId(2));
        assert_eq!((a, b), (WeightId(0), WeightId(1)));
        assert_eq!(reg.keys(), [Key::Dict(3), Key::Minimality, Key::Dict(4)]);
        for (id, key) in reg.keys().iter().enumerate() {
            assert_eq!(reg.get(key), Some(WeightId(id as u32)));
        }
    }
}
