//! Deterministic, fast hashing for simulation-interior maps.
//!
//! The standard library's default `HashMap` hasher (SipHash-1-3) is
//! keyed by a per-process random seed and costs dozens of cycles per
//! lookup — both properties are wrong for a deterministic simulator's
//! hot path. [`FxHasher`] is the classic multiply-xor hash used by the
//! Rust compiler itself: a couple of cycles per word, no seed, and
//! therefore the same iteration-independent behavior on every run.
//!
//! Two things it is **not**:
//!
//! * DoS-resistant — never use it on attacker-controlled keys. Every
//!   key in this workspace is simulator-internal (node ids, gather ids,
//!   addresses), so flooding is not a threat model.
//! * An iteration-order guarantee — code must still never iterate a map
//!   when the order reaches the event queue. Dense `Vec` tables (see
//!   `cenju4-network::tables`) are the tool for that; `FxHashMap` is
//!   for the cold-but-frequent associative state (directories, pending
//!   sets) where a dense table would waste memory.
//!
//! # Examples
//!
//! ```
//! use cenju4_des::hash::FxHashMap;
//!
//! let mut m: FxHashMap<(u16, u16), u64> = FxHashMap::default();
//! m.insert((3, 7), 42);
//! assert_eq!(m[&(3, 7)], 42);
//! ```

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A `HashMap` keyed by the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed by the deterministic [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// 64-bit multiply-xor hasher (the rustc "Fx" function): for each input
/// word, `state = (state.rotate_left(5) ^ word) * K` with a fixed odd
/// multiplier. Unkeyed, so hashes — though not map iteration order —
/// are stable across processes and platforms of one word size.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

/// `2^64 / golden_ratio`, the usual Fibonacci-hashing multiplier.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time over the tail-padded input keeps the per-key
        // cost at a handful of cycles for the small keys used here.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// SplitMix64's output finaliser: a bijective avalanche of `z`, so
/// every input bit moves about half the output bits. A raw [`FxHasher`]
/// output is not mixed enough to be *summed*: it digests a one-word
/// value `w` to `w·K`, so the sums for {1, 4} and {2, 3} would collide.
/// One pass of this is.
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The [`FxHasher`] digest of one value.
#[inline]
pub fn fx_digest<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// An order-independent digest of a multiset: the item count and the
/// wrapping sum of [`mix64`] over each item's (offset) digest. Folding the items
/// of an unordered container (a hash map's entries, a set) in whatever
/// order it iterates gives the same digest, so a fingerprint needs no
/// sorted copy of the container — it allocates nothing. Equal multisets
/// always agree; distinct ones collide with probability about 2⁻⁶⁴.
///
/// # Examples
///
/// ```
/// use cenju4_des::hash::MultisetDigest;
///
/// let (mut a, mut b) = (MultisetDigest::default(), MultisetDigest::default());
/// for x in [3u64, 1, 2] {
///     a.insert(&x);
/// }
/// for x in [1u64, 2, 3] {
///     b.insert(&x);
/// }
/// assert_eq!(a, b);
/// b.insert(&3u64);
/// assert_ne!(a, b);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct MultisetDigest {
    len: u64,
    sum: u64,
}

impl MultisetDigest {
    /// Adds one item, given as its digest.
    #[inline]
    pub fn add(&mut self, digest: u64) {
        self.len += 1;
        // Offset first, as SplitMix64 does: `mix64` fixes 0, and an
        // all-zero item (node 0, block 0, txn 0) digests to 0 under Fx.
        self.sum = self
            .sum
            .wrapping_add(mix64(digest.wrapping_add(0x9E37_79B9_7F4A_7C15)));
    }

    /// Adds one item, digested with [`fx_digest`].
    #[inline]
    pub fn insert<T: Hash + ?Sized>(&mut self, item: &T) {
        self.add(fx_digest(item));
    }

    /// The digest of an unordered collection of items.
    pub fn of<'a, T: Hash + 'a>(items: impl IntoIterator<Item = &'a T>) -> Self {
        let mut m = MultisetDigest::default();
        for item in items {
            m.insert(item);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn unkeyed_and_deterministic() {
        // Same input, same hash — across hasher instances (SipHash with
        // RandomState would differ across *processes*; Fx never does).
        assert_eq!(hash_of(b"cenju-4"), hash_of(b"cenju-4"));
        assert_ne!(hash_of(b"cenju-4"), hash_of(b"cenju-5"));
    }

    #[test]
    fn tail_bytes_and_length_matter() {
        assert_ne!(hash_of(b"1234567890"), hash_of(b"12345678"));
        // Distinct lengths with identical zero-padded tails must differ.
        assert_ne!(hash_of(&[0u8; 3]), hash_of(&[0u8; 5]));
    }

    #[test]
    fn map_roundtrip_with_tuple_keys() {
        let mut m: FxHashMap<(u16, u16), u64> = FxHashMap::default();
        for s in 0..32u16 {
            for d in 0..32u16 {
                m.insert((s, d), (s as u64) * 100 + d as u64);
            }
        }
        assert_eq!(m.len(), 1024);
        assert_eq!(m[&(31, 7)], 3107);
        let mut set: FxHashSet<u32> = FxHashSet::default();
        assert!(set.insert(7));
        assert!(!set.insert(7));
    }

    #[test]
    fn multiset_digest_ignores_order_but_not_multiplicity() {
        let items: Vec<(u16, u64)> = (0..64u16).map(|i| (i % 5, u64::from(i) * 7)).collect();
        let forward = MultisetDigest::of(&items);
        let backward = MultisetDigest::of(items.iter().rev());
        assert_eq!(forward, backward);
        let mut doubled = forward;
        doubled.insert(&items[0]);
        assert_ne!(doubled, forward);
        // A repeated item is not an absent one: {a, a} differs from {}.
        let mut twice = MultisetDigest::default();
        twice.insert(&items[0]);
        twice.insert(&items[0]);
        assert_ne!(twice, MultisetDigest::default());
        assert_ne!(twice.sum, 0);
        // Raw Fx digests are linear in a one-word item; mixed ones not.
        assert_eq!(
            fx_digest(&1u64).wrapping_add(fx_digest(&4u64)),
            fx_digest(&2u64).wrapping_add(fx_digest(&3u64))
        );
        assert_ne!(
            MultisetDigest::of(&[1u64, 4]),
            MultisetDigest::of(&[2u64, 3])
        );
    }

    #[test]
    fn mix64_is_splitmix64s_finaliser() {
        let mut rng = crate::SplitMix64::new(0);
        assert_eq!(rng.next_u64(), mix64(0x9E37_79B9_7F4A_7C15));
    }
}
