//! One cheap deterministic hasher for the integer-keyed maps on the event
//! path.
//!
//! The std `RandomState` hashes with SipHash-1-3 under a per-process random
//! key: flood-resistant, and several times the cost of the map probe itself
//! for a `u64` key. The event path only hashes integers the simulator mints
//! (sequence numbers, request ids, rank and node indices), so the Fx
//! multiply-rotate construction (rustc's `FxHasher`) is enough. No output may
//! depend on a map's iteration order either way — the `hashmap-order` lint
//! guards that — so a fixed hasher changes no result, only the cost.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (the one `rustc-hash` 2 uses).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Fx-style multiply-rotate hasher for integer keys. Each word is folded in
/// with a rotate, xor and multiply; `finish` rotates the product's
/// well-mixed high bits down into the bucket-index bits, so keys that share
/// their low bits (multiples of a power of two) still spread.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`]: spell maps on the event path as
/// `HashMap<K, V, FxBuildHasher>` and build them with `HashMap::default()`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashes_are_fixed_across_builders() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_ne!(hash(42u64), hash(43u64));
        // Tuples fold word by word, so the order of the parts matters.
        assert_ne!(hash((1usize, 2usize)), hash((2usize, 1usize)));
        // `write` and `write_u64` agree on a whole little-endian word.
        let mut a = FxHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn strided_keys_spread_over_the_low_bits() {
        // Multiples of 64 share their low six bits; the final rotation must
        // still scatter them over a 1024-slot table's index bits.
        let slots: std::collections::BTreeSet<u64> =
            (0..1024u64).map(|i| hash(i * 64) & 1023).collect();
        assert!(slots.len() > 600, "only {} distinct slots", slots.len());
    }

    #[test]
    fn maps_built_with_it_behave_like_maps() {
        let mut m: HashMap<u64, u64, FxBuildHasher> = HashMap::default();
        for i in 0..10_000 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000).all(|i| m.get(&i) == Some(&(i * 3))));
        assert_eq!(m.remove(&17), Some(51));
        assert_eq!(m.get(&17), None);
    }
}
