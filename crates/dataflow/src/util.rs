//! Small utilities: a fast, non-cryptographic hasher for internal maps.
//!
//! Keyed operator state is hit on every record; SipHash (std's default)
//! is a measurable cost there. This is the well-known FxHash mix used by
//! rustc — not DoS-resistant, which is fine for state keyed by our own
//! derived values.

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style hasher: multiply-rotate word mixing.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_stable_and_distinguishing() {
        let mut m: FxHashMap<(u32, u32), &str> = FxHashMap::default();
        m.insert((1, 2), "a");
        m.insert((2, 1), "b");
        assert_eq!(m[&(1, 2)], "a");
        assert_eq!(m[&(2, 1)], "b");
    }

    #[test]
    fn handles_unaligned_bytes() {
        let mut h1 = FxHasher::default();
        h1.write(b"hello world");
        let mut h2 = FxHasher::default();
        h2.write(b"hello worle");
        assert_ne!(h1.finish(), h2.finish());
    }
}
