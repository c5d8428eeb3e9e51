//! The Cenju-4 bit-pattern node-map structure.

use crate::node::{NodeId, MAX_NODES};
use core::fmt;

/// Number of bits occupied by a packed bit pattern: 4 + 4 + 2 + 32.
pub const BITS: u32 = 42;

/// The bit-pattern structure: a 42-bit, network-independent superset
/// encoding of a sharer set.
///
/// A 10-bit node number is sliced into 2 + 2 + 1 + 5 bits and each slice is
/// one-hot encoded into fields of 4, 4, 2 and 32 bits. Inserting a node ORs
/// its encoding into the fields; the represented set is the *cross product*
/// of the fields, which is always a superset of the inserted nodes.
///
/// This matches Figure 3 of the paper: inserting nodes {0, 4, 5, 32, 164}
/// yields fields `0001 / 0101 / 11 / …00110001`, which represent 12 nodes.
///
/// # Examples
///
/// ```
/// use cenju4_directory::{BitPattern, NodeId};
///
/// let mut p = BitPattern::new();
/// for n in [0u16, 4, 5, 32, 164] {
///     p.insert(NodeId::new(n));
/// }
/// assert_eq!(p.count(), 12); // 1 × 2 × 2 × 3 combinations
/// assert!(p.contains(NodeId::new(37))); // false sharer admitted by the OR
/// assert!(!p.contains(NodeId::new(1)));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct BitPattern {
    /// One-hot field over node bits \[9:8\] (4 bits used).
    a: u8,
    /// One-hot field over node bits \[7:6\] (4 bits used).
    b: u8,
    /// One-hot field over node bit \[5\] (2 bits used).
    c: u8,
    /// One-hot field over node bits \[4:0\] (all 32 bits used).
    d: u32,
}

impl BitPattern {
    /// Creates an empty pattern (represents no nodes).
    #[inline]
    pub const fn new() -> Self {
        BitPattern {
            a: 0,
            b: 0,
            c: 0,
            d: 0,
        }
    }

    /// Creates a pattern representing exactly one node.
    #[inline]
    pub fn of(node: NodeId) -> Self {
        let mut p = BitPattern::new();
        p.insert(node);
        p
    }

    /// ORs the encoding of `node` into the pattern.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        self.a |= 1 << node.bits(9, 8);
        self.b |= 1 << node.bits(7, 6);
        self.c |= 1 << node.bits(5, 5);
        self.d |= 1 << node.bits(4, 0);
    }

    /// Returns `true` if the pattern *represents* `node` — i.e. the node
    /// might hold a copy. Inserted nodes are always represented, but the
    /// cross product may also represent nodes that were never inserted.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.a & (1 << node.bits(9, 8)) != 0
            && self.b & (1 << node.bits(7, 6)) != 0
            && self.c & (1 << node.bits(5, 5)) != 0
            && self.d & (1 << node.bits(4, 0)) != 0
    }

    /// Returns `true` if no nodes are represented.
    #[inline]
    pub fn is_empty(&self) -> bool {
        // All fields are zero together (a single insert sets all four).
        self.a == 0
    }

    /// Clears the pattern.
    #[inline]
    pub fn clear(&mut self) {
        *self = BitPattern::new();
    }

    /// The number of nodes represented: the product of the fields'
    /// popcounts. Never exceeds 1024.
    #[inline]
    pub fn count(&self) -> u32 {
        self.a.count_ones() * self.b.count_ones() * self.c.count_ones() * self.d.count_ones()
    }

    /// The union of two patterns (represents a superset of both).
    #[inline]
    pub fn union(&self, other: &BitPattern) -> BitPattern {
        BitPattern {
            a: self.a | other.a,
            b: self.b | other.b,
            c: self.c | other.c,
            d: self.d | other.d,
        }
    }

    /// The number of represented nodes numbered below `n` — the count
    /// clipped to an `n`-node machine. Closed form: whole 32-node
    /// prefixes below the edge contribute `|d|` each, and the prefix the
    /// edge cuts contributes its `d` bits below the cut.
    pub fn count_below(&self, n: u16) -> u32 {
        let n = u32::from(n.min(MAX_NODES));
        let (whole, cut) = (n >> 5, n & 31);
        let prefixes = self.prefixes();
        let below = prefixes & 1u32.checked_shl(whole).map_or(u32::MAX, |b| b - 1);
        let mut count = below.count_ones() * self.d.count_ones();
        if cut != 0 && prefixes & (1 << whole) != 0 {
            count += (self.d & ((1 << cut) - 1)).count_ones();
        }
        count
    }

    /// Iterates over every represented node, in ascending node-number order.
    /// Each step jumps straight to the next set bit, so a full walk costs
    /// O(represented) rather than a scan of all 1024 node numbers.
    pub fn iter(&self) -> Iter {
        Iter {
            prefixes: if self.d == 0 { 0 } else { self.prefixes() },
            d: self.d,
            base: 0,
            left: 0,
        }
    }

    /// The represented `(a, b, c)` prefixes — node bits \[9:5\] — as a
    /// 32-bit set: bit `p` stands for nodes `32p .. 32p + 32`. It is the
    /// cross product of the three high fields, built by shifting copies of
    /// the lower field into place.
    fn prefixes(&self) -> u32 {
        let mut bc = 0u32;
        for b in 0..4 {
            if self.b & (1 << b) != 0 {
                bc |= (self.c as u32) << (2 * b);
            }
        }
        let mut abc = 0u32;
        for a in 0..4 {
            if self.a & (1 << a) != 0 {
                abc |= bc << (8 * a);
            }
        }
        abc
    }

    /// Packs the pattern into the low 42 bits of a `u64`:
    /// `a` in bits 41..38, `b` in 37..34, `c` in 33..32, `d` in 31..0.
    #[inline]
    pub fn to_bits(&self) -> u64 {
        ((self.a as u64) << 38) | ((self.b as u64) << 34) | ((self.c as u64) << 32) | self.d as u64
    }

    /// Unpacks a pattern from the low 42 bits of a `u64` (inverse of
    /// [`BitPattern::to_bits`]). Bits above 41 are ignored.
    #[inline]
    pub fn from_bits(bits: u64) -> Self {
        BitPattern {
            a: ((bits >> 38) & 0xF) as u8,
            b: ((bits >> 34) & 0xF) as u8,
            c: ((bits >> 32) & 0x3) as u8,
            d: bits as u32,
        }
    }

    /// Returns `true` if any represented node `n` satisfies
    /// `n & mask == value & mask`.
    ///
    /// This is the primitive the network switches evaluate: a switch knows
    /// that all destinations reachable through one of its ports agree with a
    /// particular address on a particular set of bit positions, and must
    /// decide whether the multicast pattern intersects that set. The
    /// computation is per-field and takes a handful of mask/popcount
    /// operations — no table indexed by network structure, matching the
    /// paper's claim that the bit pattern "does not depend on the structure
    /// of the network".
    pub fn intersects_masked(&self, mask: u32, value: u32) -> bool {
        // Nodes are 10-bit; constrained bits above bit 9 must demand zero.
        if mask & !0x3FF & value != 0 {
            return false;
        }
        self.field_allowed(self.a as u32, 8, 2, mask, value)
            && self.field_allowed(self.b as u32, 6, 2, mask, value)
            && self.field_allowed(self.c as u32, 5, 1, mask, value)
            && self.field_allowed(self.d, 0, 5, mask, value)
    }

    /// Does `field` (one-hot over node bits `lo .. lo+width`) contain any
    /// value compatible with the constraint `n & mask == value & mask`?
    #[inline]
    fn field_allowed(&self, field: u32, lo: u32, width: u32, mask: u32, value: u32) -> bool {
        let slice_mask = (mask >> lo) & ((1 << width) - 1);
        let slice_value = (value >> lo) & ((1 << width) - 1);
        if slice_mask == 0 {
            return field != 0;
        }
        // Allowed one-hot positions: v with v & slice_mask == slice_value & slice_mask.
        let mut allowed = 0u32;
        for v in 0..(1u32 << width) {
            if v & slice_mask == slice_value & slice_mask {
                allowed |= 1 << v;
            }
        }
        field & allowed != 0
    }
}

impl fmt::Debug for BitPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BitPattern({:04b} {:04b} {:02b} {:032b})",
            self.a, self.b, self.c, self.d
        )
    }
}

impl fmt::Display for BitPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?} [{} nodes]", self.count())
    }
}

impl FromIterator<NodeId> for BitPattern {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut p = BitPattern::new();
        for n in iter {
            p.insert(n);
        }
        p
    }
}

/// Iterator over the nodes represented by a [`BitPattern`], produced by
/// [`BitPattern::iter`]. Yields nodes in ascending order.
#[derive(Clone, Debug)]
pub struct Iter {
    /// Prefixes not yet entered (see [`BitPattern::prefixes`]).
    prefixes: u32,
    /// The pattern's `d` field: the low five bits every prefix pairs with.
    d: u32,
    /// First node number of the prefix being walked.
    base: u16,
    /// `d` bits of that prefix not yet yielded.
    left: u32,
}

impl Iterator for Iter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.left == 0 {
            if self.prefixes == 0 {
                return None;
            }
            self.base = (self.prefixes.trailing_zeros() << 5) as u16;
            self.prefixes &= self.prefixes - 1;
            self.left = self.d;
        }
        let low = self.left.trailing_zeros() as u16;
        self.left &= self.left - 1;
        Some(NodeId::new(self.base + low))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern_of(nodes: &[u16]) -> BitPattern {
        nodes.iter().map(|&n| NodeId::new(n)).collect()
    }

    #[test]
    fn paper_figure3_example() {
        // Figure 3: sharers {0, 4, 5, 32, 164} produce a pattern that
        // represents exactly the 12 nodes listed in Figure 3(c).
        let p = pattern_of(&[0, 4, 5, 32, 164]);
        assert_eq!(p.count(), 12);
        let expected: Vec<u16> = vec![0, 4, 5, 32, 36, 37, 128, 132, 133, 160, 164, 165];
        let got: Vec<u16> = p.iter().map(|n| n.index()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn count_below_clips_figure3_example() {
        let p = pattern_of(&[0, 4, 5, 32, 164]);
        assert_eq!(p.count_below(1024), 12);
        assert_eq!(p.count_below(160), 9); // 160, 164, 165 lie at or above
        assert_eq!(p.count_below(133), 8); // 133 itself is excluded
        assert_eq!(p.count_below(1), 1);
        assert_eq!(BitPattern::new().count_below(1024), 0);
    }

    #[test]
    fn inserted_nodes_always_represented() {
        let nodes = [0u16, 17, 99, 512, 1023];
        let p = pattern_of(&nodes);
        for &n in &nodes {
            assert!(p.contains(NodeId::new(n)));
        }
    }

    #[test]
    fn single_node_is_precise() {
        for n in [0u16, 1, 31, 32, 63, 64, 512, 1023] {
            let p = BitPattern::of(NodeId::new(n));
            assert_eq!(p.count(), 1);
            assert_eq!(p.iter().next().unwrap().index(), n);
        }
    }

    #[test]
    fn precise_within_32_nodes() {
        // Paper claim (b): all memory blocks in systems of 32 nodes or less
        // are represented precisely, because bits 9..5 are all zero and the
        // d field alone is a full bitmap of nodes 0..31.
        let nodes: Vec<u16> = vec![0, 3, 7, 15, 31];
        let p = pattern_of(&nodes);
        assert_eq!(p.count() as usize, nodes.len());
        let got: Vec<u16> = p.iter().map(|n| n.index()).collect();
        assert_eq!(got, nodes);
    }

    #[test]
    fn empty_pattern() {
        let p = BitPattern::new();
        assert!(p.is_empty());
        assert_eq!(p.count(), 0);
        assert_eq!(p.iter().count(), 0);
        assert!(!p.contains(NodeId::new(0)));
    }

    #[test]
    fn clear_resets() {
        let mut p = pattern_of(&[1, 2, 3]);
        p.clear();
        assert!(p.is_empty());
    }

    #[test]
    fn union_is_superset() {
        let a = pattern_of(&[1, 2]);
        let b = pattern_of(&[100, 200]);
        let u = a.union(&b);
        for n in [1u16, 2, 100, 200] {
            assert!(u.contains(NodeId::new(n)));
        }
    }

    #[test]
    fn bits_roundtrip() {
        let p = pattern_of(&[0, 4, 5, 32, 164]);
        let bits = p.to_bits();
        assert!(bits < (1u64 << 42));
        assert_eq!(BitPattern::from_bits(bits), p);
    }

    #[test]
    fn count_never_exceeds_1024() {
        let p = pattern_of(&(0..1024).collect::<Vec<u16>>());
        assert_eq!(p.count(), 1024);
        assert_eq!(p.iter().count(), 1024);
    }

    #[test]
    fn intersects_masked_matches_enumeration() {
        let p = pattern_of(&[0, 4, 5, 32, 164, 700]);
        // Constraints of the kind switches use: top bits fixed.
        for fixed_bits in 0..=10u32 {
            let mask: u32 = if fixed_bits == 0 {
                0
            } else {
                (((1u32 << fixed_bits) - 1) << (10 - fixed_bits)) & 0x3FF
            };
            for value_seed in [0u32, 0x155, 0x2AA, 0x3FF, 164, 700] {
                let value = value_seed & mask;
                let expected = p.iter().any(|n| (n.index() as u32) & mask == value);
                assert_eq!(
                    p.intersects_masked(mask, value),
                    expected,
                    "mask={mask:010b} value={value:010b}"
                );
            }
        }
    }

    #[test]
    fn intersects_masked_low_bit_constraints() {
        let p = pattern_of(&[6]); // 0b00110
        assert!(p.intersects_masked(0b00010, 0b00010)); // bit1 must be 1 -> ok
        assert!(!p.intersects_masked(0b00001, 0b00001)); // bit0 must be 1 -> no
    }

    #[test]
    fn intersects_masked_out_of_range_bits() {
        let p = pattern_of(&[6]);
        // Requiring a set bit above bit 9 can never match a real node.
        assert!(!p.intersects_masked(0xC00, 0x400));
        // Requiring zeros above bit 9 is always satisfied.
        assert!(p.intersects_masked(0xC00, 0x000));
    }

    #[test]
    fn from_iterator_collects() {
        let p: BitPattern = [NodeId::new(1), NodeId::new(2)].into_iter().collect();
        assert!(p.contains(NodeId::new(1)));
        assert!(p.contains(NodeId::new(2)));
    }

    #[test]
    fn debug_and_display_nonempty() {
        let p = BitPattern::of(NodeId::new(5));
        assert!(!format!("{p:?}").is_empty());
        assert!(format!("{p}").contains("1 nodes"));
    }
}
