//! Maps keyed by ids the simulation allocates itself.
//!
//! The phone's timestamp ledger and the capture's air-time index look
//! a packet id up at every stage of every packet. Those keys come from
//! counters inside the simulation, never from an adversary, so
//! SipHash's resistance to chosen keys buys nothing there, and its cost
//! per lookup is several times that of one multiply.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by a simulator-allocated `u64` (a packet id),
/// hashed with one multiply and a rotate. Nothing may depend on its
/// iteration order.
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate hasher of the Fx family: one multiply per word
/// written, no per-process random state. `finish` rotates the
/// product's well-mixed high bits down to the low bits the table
/// indexes by, so ids that differ only in their high bits (another
/// source's id space) still spread.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

const SEED: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hash_is_fixed_and_spreads_sequential_ids() {
        let build = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(build.hash_one(7u64), build.hash_one(7u64));
        // A source's ids share their high bits and count up from 0.
        // Spread over a 1 024-bucket table, they must fill more buckets
        // than a random function would (about 647 of 1 024), one
        // source alone and four sources together.
        let filled = |ids: &mut dyn Iterator<Item = u64>| {
            ids.map(|id| build.hash_one(id) & 1_023)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        assert!(filled(&mut (0..1_024).map(|c| (1 << 40) | c)) > 900);
        let four = || (0..4u64).flat_map(|s| (0..256).map(move |c| (s << 40) | c));
        assert!(filled(&mut four()) > 750);
        let map: IdMap<u64> = four().map(|id| (id, id & 0xff)).collect();
        assert_eq!(map.len(), 1_024);
        assert_eq!(map.get(&((3 << 40) | 9)), Some(&9));
    }
}
