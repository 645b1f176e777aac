//! A small deterministic hasher for integer-keyed maps.
//!
//! The page tables on the fault path (pmaps, object residency, paged-out
//! sets, backing-store extents) are keyed by plain `u64`s that no
//! adversary chooses, so SipHash's flooding resistance buys nothing there
//! and its per-lookup cost does. [`IntHasher`] mixes each written word with
//! one 64×64→128-bit multiply whose halves are folded together, so both
//! the low bits (bucket index) and the high bits (control byte) depend on
//! every key bit — dense page numbers and page-aligned addresses alike
//! spread across the table.
//!
//! The hasher carries no per-process seed. Map iteration order is still
//! unspecified, so callers that act on an iteration sort first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (the golden-ratio constant 2^64 / φ).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiplicative hasher for integer keys (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * u128::from(MUL);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

/// `BuildHasher` for [`IntHasher`].
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed by integers, hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildIntHasher>;

/// A `HashSet` of integers, hashed with [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildIntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(n: u64) -> u64 {
        BuildIntHasher::default().hash_one(n)
    }

    #[test]
    fn hashing_is_deterministic_and_distinguishes_keys() {
        assert_eq!(hash(42), hash(42));
        let mut seen: Vec<u64> = (0..4096).map(hash).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4096);
    }

    #[test]
    fn page_aligned_keys_spread_over_low_and_high_bits() {
        // 1024 keys with a 4 KiB stride: the low 10 bits (a 1024-bucket
        // index) and the top 7 bits (hashbrown's control byte) must both
        // take many values, or the map degrades to long probe chains.
        let hashes: Vec<u64> = (0..1024u64).map(|i| hash(i << 12)).collect();
        let mut low: Vec<u64> = hashes.iter().map(|h| h & 1023).collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 600, "only {} distinct low buckets", low.len());
        let mut top: Vec<u64> = hashes.iter().map(|h| h >> 57).collect();
        top.sort_unstable();
        top.dedup();
        assert!(top.len() > 100, "only {} distinct control bytes", top.len());
    }

    #[test]
    fn maps_and_sets_work_as_usual() {
        let mut m: IntMap<u64, u32> = IntMap::default();
        let mut s: IntSet<u64> = IntSet::default();
        for i in 0..1000u64 {
            m.insert(i * 7, i as u32);
            s.insert(i * 7);
        }
        assert_eq!(m.get(&700), Some(&100));
        assert!(s.contains(&693) && !s.contains(&694));
        assert_eq!(m.len(), 1000);
    }
}
