//! Deterministic multiply-xor hashing for enclave-internal tables.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 with per-process
//! random keys — HashDoS armor for tables keyed by attacker-chosen input.
//! The trade this module makes on VIF's hot-path tables:
//!
//! - the exact-match rule table is keyed by *victim-submitted* rules,
//!   authorized against RPKI before insertion — not attacker-chosen;
//! - the hybrid filter's verdict cache and promotion queue
//!   ([`HybridFilter`](crate::hybrid::HybridFilter)) *are* fed by observed
//!   traffic, and this hasher is deterministic, so an adversary can in
//!   principle pre-compute colliding tuples. What that buys them is
//!   bounded: correctness is untouched (uncached flows fall back to the
//!   stateless hash path, and the cache is capacity-bounded), so the worst
//!   case is degraded probe cost on the colliding bucket chains. The
//!   hybrid promotes, FIFO up to its cap, only the hash-path flows it has
//!   seen twice (its second-sight tags are keyed by this hasher too), so
//!   a flood must repeat every tuple to reach the table; deployments where
//!   that probe-cost vector matters should shrink `max_cached_flows`.
//!
//! What the hot path needs in exchange is constant, tiny per-probe cost: one
//! multiply-xor round per word of key (an FxHash-style mix, as used by
//! rustc), instead of SipHash's per-byte ARX rounds. The hasher is also
//! *deterministic*, which keeps enclave behavior reproducible across
//! replicas — a property the audit-equivalence tests lean on.
//!
//! No crates.io access in this workspace, so this is an in-repo
//! implementation rather than a `rustc-hash` dependency.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// The multiplicative constant of the Fx mix (near `2^64 / φ`, odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic [`Hasher`].
///
/// One rotate-xor-multiply round per 8-byte word of input. Not collision
/// resistant against an adaptive adversary — see the [module docs](self)
/// for why that is acceptable on VIF's hot-path tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
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
}

/// [`BuildHasher`] producing [`FxHasher`]s (stateless, deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A [`HashMap`] keyed with the fast deterministic hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] keyed with the fast deterministic hasher.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;
    use vif_dataplane::{FiveTuple, Protocol};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher.hash_one(value)
    }

    #[test]
    fn deterministic_across_builders() {
        let t = FiveTuple::new(1, 2, 3, 4, Protocol::Tcp);
        assert_eq!(hash_of(&t), hash_of(&t));
        assert_eq!(hash_of(&"vif"), hash_of(&"vif"));
    }

    #[test]
    fn tuple_fields_all_contribute() {
        let base = FiveTuple::new(1, 2, 3, 4, Protocol::Tcp);
        let variants = [
            FiveTuple::new(9, 2, 3, 4, Protocol::Tcp),
            FiveTuple::new(1, 9, 3, 4, Protocol::Tcp),
            FiveTuple::new(1, 2, 9, 4, Protocol::Tcp),
            FiveTuple::new(1, 2, 3, 9, Protocol::Tcp),
            FiveTuple::new(1, 2, 3, 4, Protocol::Udp),
        ];
        for v in variants {
            assert_ne!(hash_of(&base), hash_of(&v), "{v}");
        }
    }

    #[test]
    fn byte_slices_distinguish_lengths_and_content() {
        assert_ne!(hash_of(&[0u8; 3].as_slice()), hash_of(&[0u8; 4].as_slice()));
        assert_ne!(hash_of(&b"abc".as_slice()), hash_of(&b"abd".as_slice()));
        assert_ne!(
            hash_of(&[1u8, 0, 0, 0, 0, 0, 0, 0, 2].as_slice()),
            hash_of(&[1u8, 0, 0, 0, 0, 0, 0, 0, 3].as_slice())
        );
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<FiveTuple, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(FiveTuple::new(i, !i, 1, 2, Protocol::Udp), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&FiveTuple::new(i, !i, 1, 2, Protocol::Udp)), Some(&i));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn distribution_not_degenerate() {
        // 10k sequential tuples must not collapse into few buckets: count
        // distinct top-16 bits of the hash.
        let mut high: FxHashSet<u16> = FxHashSet::default();
        for i in 0..10_000u32 {
            let t = FiveTuple::new(i, 0xCB007101, 1000, 80, Protocol::Tcp);
            high.insert((hash_of(&t) >> 48) as u16);
        }
        assert!(
            high.len() > 4_000,
            "only {} distinct high words",
            high.len()
        );
    }
}
