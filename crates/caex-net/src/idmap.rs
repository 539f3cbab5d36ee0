//! Hash maps and sets keyed by the ids the program mints itself.
//!
//! `NodeId`s, `ActionId`s and small tuples of them are dense
//! program-assigned integers, not attacker-chosen text, so the keyed
//! SipHash of `std`'s default hasher buys nothing on the per-message
//! path. [`IdMap`]/[`IdSet`] hash them with one multiply per word.
//! Iteration order is unspecified (though equal across runs): sort at
//! the edge wherever something is printed or compared.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by program-assigned ids.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of program-assigned ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate hasher behind [`IdMap`] and [`IdSet`].
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// 2⁶⁴/φ, odd: the Fibonacci-hashing multiplier.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }

    /// A multiply only carries input bits upwards, and the table picks
    /// its bucket from the low bits: rotate the well-mixed high bits
    /// down so strided ids (multiples of the instance width, of 2¹⁶)
    /// still spread.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use std::hash::{BuildHasher, Hash};

    /// The fullest of 4 096 buckets, as a multiple of the mean load.
    fn worst_bucket<K: Hash>(keys: impl IntoIterator<Item = K>) -> f64 {
        const SLOTS: usize = 4_096;
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut load = vec![0u32; SLOTS];
        let mut total = 0u32;
        for key in keys {
            load[(build.hash_one(&key) as usize) % SLOTS] += 1;
            total += 1;
        }
        let mean = f64::from(total) / SLOTS as f64;
        f64::from(*load.iter().max().expect("non-empty table")) / mean.max(1.0)
    }

    /// The key shapes a fleet batch actually produces: no bucket may
    /// hold more than a small constant multiple of the mean.
    #[test]
    fn fleet_key_shapes_spread_over_the_buckets() {
        const BOUND: f64 = 8.0;
        for stride in [1u32, 4, 16, 100] {
            // node_base = i·n and action_base = i·(1+q).
            let strided = worst_bucket((0..4_000u32).map(|i| NodeId::new(i * stride)));
            assert!(strided <= BOUND, "stride {stride}: {strided}");
        }
        let pow16 = worst_bucket((0..4_000u32).map(|i| NodeId::new(i << 16)));
        assert!(pow16 <= BOUND, "multiples of 2^16: {pow16}");
        // Every ordered (from, to) pair inside each 16-node instance.
        let pairs = worst_bucket((0..100u32).flat_map(|inst| {
            (0..16u32).flat_map(move |from| {
                (0..16u32)
                    .map(move |to| (NodeId::new(inst * 16 + from), NodeId::new(inst * 16 + to)))
            })
        }));
        assert!(pairs <= BOUND, "channel pairs: {pairs}");
        // (action, round) spans as the metrics registry keys them.
        let spans = worst_bucket((0..2_000u32).flat_map(|a| [(a * 2, 1u32), (a * 2 + 1, 1)]));
        assert!(spans <= BOUND, "spans: {spans}");
    }
}
