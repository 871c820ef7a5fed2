//! The Fx hash algorithm (as used by rustc), implemented locally.
//!
//! Coding a table hashes every cell's interned `u32` symbol on insert;
//! SipHash 1-3 (the std default) is a measurable bottleneck there. The Fx
//! multiply-xor construction is the standard fast alternative for trusted
//! in-process keys. We implement it here (~40 lines) rather than
//! pull a crate from outside the allowed dependency set. It is unkeyed:
//! where it hashes strings from a loaded table (the value pool's index, a
//! dictionary's key index), values crafted to collide would slow loading
//! down, so those tables are trusted input (see [`crate::value`]).

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// Fast, non-cryptographic hasher: `state = (rotl(state, 5) ^ word) * SEED`.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_for_same_input() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        assert_eq!(hash_of(&(1u32, 2u32, 3u32)), hash_of(&(1u32, 2u32, 3u32)));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(hash_of(&1u32), hash_of(&2u32));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
    }

    #[test]
    fn unaligned_tail_bytes_are_hashed() {
        // 9 bytes: one full 8-byte chunk plus a 1-byte remainder. The
        // remainder must influence the hash.
        assert_ne!(hash_of(&[0u8; 9].as_slice()), hash_of(&[0u8; 8].as_slice()));
        let mut a = [0u8; 9];
        a[8] = 1;
        assert_ne!(hash_of(&a.as_slice()), hash_of(&[0u8; 9].as_slice()));
    }

    #[test]
    fn map_basic_operations() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(500, 501)), Some(&500));
        assert_eq!(m.get(&(500, 502)), None);
    }

    #[test]
    fn set_dedup() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..100 {
            s.insert(i % 10);
        }
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn no_catastrophic_collisions_on_sequential_keys() {
        // Sequential u32 keys (typical for interned symbols) must spread.
        let mut buckets = [0u32; 64];
        for i in 0..64_000u32 {
            buckets[(hash_of(&i) as usize) % 64] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        let min = *buckets.iter().min().unwrap();
        // Perfectly uniform would be 1000 per bucket; allow generous slack.
        assert!(max < 2000, "bucket skew too high: max={max}");
        assert!(min > 200, "bucket skew too high: min={min}");
    }
}
