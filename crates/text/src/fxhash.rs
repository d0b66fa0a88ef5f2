//! A fast, non-cryptographic hash function and hash-map/set aliases.
//!
//! The synthesis engine stores millions of candidate transformations and
//! per-row non-covering-unit caches in hash sets (Sections 4.1.5 and 6.6 of
//! the paper), so hashing speed matters more than DoS resistance here. This
//! is an in-repo implementation of the well-known "Fx" multiply-rotate hash
//! used by rustc (the workspace deliberately keeps its dependency set to the
//! approved offline crates, so we do not pull in `rustc-hash`).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant used by the Fx hash (64-bit variant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Rotation applied between words.
const ROTATE: u32 = 5;

/// A fast, non-cryptographic hasher (Fx hash, 64-bit).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // Invariant is local (audited): `chunks_exact(8)` yields only
            // 8-byte slices by contract, so the conversion cannot fail for
            // any caller-supplied bytes.
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = 0u64;
            for (i, b) in rem.iter().enumerate() {
                word |= (*b as u64) << (8 * i);
            }
            // Mix in the remainder length so "a" and "a\0" differ.
            self.add_to_hash(word ^ (rem.len() as u64) << 56);
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

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(fx_hash_one(&"hello"), fx_hash_one(&"hello"));
        assert_eq!(fx_hash_one(&42u64), fx_hash_one(&42u64));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(fx_hash_one(&"hello"), fx_hash_one(&"hellp"));
        assert_ne!(fx_hash_one(&1u64), fx_hash_one(&2u64));
        assert_ne!(fx_hash_one(&"a"), fx_hash_one(&"a\0"));
        assert_ne!(fx_hash_one(&""), fx_hash_one(&"\0"));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get("a"), Some(&1));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn collision_rate_is_reasonable() {
        // Hash 10k short strings; distinct hashes should be almost all of them.
        let mut hashes = FxHashSet::default();
        for i in 0..10_000u32 {
            hashes.insert(fx_hash_one(&format!("row-{i}")));
        }
        assert!(hashes.len() > 9_990, "too many collisions: {}", hashes.len());
    }

    #[test]
    fn write_partial_words() {
        // Exercise the remainder path with 1..7 byte inputs.
        let mut seen = FxHashSet::default();
        for len in 1..8usize {
            let s: String = std::iter::repeat_n('x', len).collect();
            assert!(seen.insert(fx_hash_one(&s)));
        }
        assert_eq!(seen.len(), 7);
    }
}
