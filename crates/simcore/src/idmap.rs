//! Hash maps keyed by simulator-assigned integer ids.
//!
//! Flow ids, link ids and node ids are handed out by the simulator
//! itself, so the flooding resistance that `std`'s SipHash buys is of no
//! use here, and its per-lookup cost shows on the packet hot path (every
//! data packet looks up its flow at the host and at the sink). [`IdMap`]
//! hashes an integer key with one multiply and a rotate instead. Nothing
//! in the simulator depends on map iteration order: every iteration over
//! an `IdMap` either counts or updates entries independently.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` for simulator-assigned integer ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate hasher for integer ids (the Fx construction).
///
/// The multiply spreads each key bit into the high half of the word and
/// the final rotate brings those mixed bits down to where `HashMap` takes
/// its bucket index, so ids that differ only in high bits (flow ids are
/// `host base | counter`) still land in different buckets.
#[derive(Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    #[test]
    fn map_round_trips() {
        let mut m: IdMap<u64, u64> = IdMap::default();
        for i in 0..10_000u64 {
            m.insert((i % 4) << 40 | i, i);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|i| m[&((i % 4) << 40 | i)] == i));
    }

    #[test]
    fn ids_differing_only_in_high_bits_spread_over_buckets() {
        // Same counter, four host bases: the low bits HashMap indexes by
        // must still differ.
        let low: std::collections::HashSet<u64> =
            (0..4u64).map(|h| hash_of(h << 32 | 7) & 0xff).collect();
        assert_eq!(low.len(), 4);
    }
}
