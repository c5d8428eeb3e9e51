//! The [`NodeMap`] abstraction and the Cenju-4 dynamic pointer/bit-pattern map.

use crate::bitpattern::BitPattern;
use crate::node::{NodeId, SystemSize};
use crate::pointer::PointerSet;
use core::fmt;

/// A record of the nodes caching a memory block.
///
/// Implementations may be *imprecise*: [`NodeMap::contains`] and
/// [`NodeMap::represented`] return a **superset** of the nodes actually
/// added, never a subset. Coherence stays correct under over-approximation
/// (extra invalidations are harmless); under-approximation would violate it.
///
/// The trait has no removal operation because the Cenju-4 protocol never
/// removes a single node from an imprecise map — the directory is only ever
/// extended ([`NodeMap::add`]), collapsed to one owner
/// ([`NodeMap::set_only`]), or emptied ([`NodeMap::clear`]).
pub trait NodeMap: fmt::Debug {
    /// Records that `node` holds a copy.
    fn add(&mut self, node: NodeId);

    /// Empties the map (no node holds a copy).
    fn clear(&mut self);

    /// Returns `true` if the map *represents* `node`. Guaranteed `true` for
    /// every node added since the last `clear`/`set_only`; may also be
    /// `true` for nodes never added (imprecision).
    fn contains(&self, node: NodeId) -> bool;

    /// The number of nodes represented (within the system).
    fn count(&self) -> u32;

    /// Every represented node, ascending.
    fn represented(&self) -> Vec<NodeId>;

    /// The lowest represented node, if any: `represented().first()`.
    /// Schemes override it with a closed form that does not allocate.
    fn lowest(&self) -> Option<NodeId> {
        self.represented().first().copied()
    }

    /// Records that *only* `node` holds a copy.
    fn set_only(&mut self, node: NodeId) {
        self.clear();
        self.add(node);
    }

    /// Returns `true` if no node is represented.
    fn is_empty(&self) -> bool {
        self.count() == 0
    }
}

/// The representation a [`Cenju4NodeMap`] currently uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repr {
    /// Up to four precise pointers.
    Pointers,
    /// The 42-bit bit-pattern superset encoding.
    Pattern,
}

/// The Cenju-4 node map: four precise pointers that dynamically switch to a
/// 42-bit bit-pattern structure on the fifth sharer.
///
/// Matches the paper's two precision guarantees:
///
/// * blocks shared by ≤ 4 nodes are recorded precisely in any system size;
/// * in systems of ≤ 32 nodes every block is recorded precisely (the
///   pattern's 32-bit field is then a plain full map).
///
/// # Examples
///
/// ```
/// use cenju4_directory::{Cenju4NodeMap, NodeId, NodeMap, SystemSize};
///
/// let sys = SystemSize::new(1024)?;
/// let mut m = Cenju4NodeMap::new(sys);
/// m.add(NodeId::new(3));
/// m.set_only(NodeId::new(9)); // ownership transfer: back to one pointer
/// assert_eq!(m.represented(), vec![NodeId::new(9)]);
/// # Ok::<(), cenju4_directory::SystemSizeError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Cenju4NodeMap {
    sys: SystemSize,
    inner: Inner,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Inner {
    Pointers(PointerSet),
    Pattern(BitPattern),
}

impl Cenju4NodeMap {
    /// Creates an empty map for a machine of the given size.
    pub fn new(sys: SystemSize) -> Self {
        Cenju4NodeMap {
            sys,
            inner: Inner::Pointers(PointerSet::new()),
        }
    }

    /// Which representation is currently in use.
    pub fn repr(&self) -> Repr {
        match self.inner {
            Inner::Pointers(_) => Repr::Pointers,
            Inner::Pattern(_) => Repr::Pattern,
        }
    }

    /// The machine size this map was created for.
    pub fn system(&self) -> SystemSize {
        self.sys
    }

    /// Returns the pointer set if the map is in pointer representation.
    pub fn as_pointers(&self) -> Option<&PointerSet> {
        match &self.inner {
            Inner::Pointers(p) => Some(p),
            Inner::Pattern(_) => None,
        }
    }

    /// Returns the bit pattern if the map is in pattern representation.
    pub fn as_pattern(&self) -> Option<&BitPattern> {
        match &self.inner {
            Inner::Pointers(_) => None,
            Inner::Pattern(p) => Some(p),
        }
    }

    /// Forces the map into pattern representation holding `pattern`
    /// verbatim. Used when unpacking a directory entry whose format bit
    /// says "bit pattern" — re-adding the represented nodes one by one
    /// would be wasteful and could not distinguish four represented nodes
    /// in pattern form from four pointers.
    pub(crate) fn force_pattern(&mut self, pattern: BitPattern) {
        self.inner = Inner::Pattern(pattern);
    }

    /// The destination specification a home module hands the network when
    /// multicasting invalidations: exactly the node-map structure
    /// (pointer list or bit pattern), as in Section 3.2 of the paper.
    pub fn to_dest_spec(&self) -> DestSpec {
        match &self.inner {
            Inner::Pointers(p) => DestSpec::Pointers(*p),
            Inner::Pattern(p) => DestSpec::Pattern(*p),
        }
    }

    /// Best-effort removal for node quarantine. Pointer representation
    /// drops the node precisely; a pattern is rebuilt from its surviving
    /// represented nodes (collapsing back to pointers when four or fewer
    /// remain). A rebuilt pattern whose cross product still covers `node`
    /// through surviving sharers keeps representing it — the superset
    /// invariant allows that, and the fabric suppresses deliveries to
    /// quarantined nodes anyway.
    pub fn scrub(&mut self, node: NodeId) {
        match &mut self.inner {
            Inner::Pointers(p) => {
                p.remove(node);
            }
            Inner::Pattern(_) => {
                if !self.contains(node) {
                    return;
                }
                let mut fresh = Cenju4NodeMap::new(self.sys);
                for n in self.represented() {
                    if n != node {
                        fresh.add(n);
                    }
                }
                *self = fresh;
            }
        }
    }

    /// Returns `true` if the map records its sharers exactly (no
    /// over-approximation). Pointer representation is always precise; the
    /// pattern is precise when its represented count equals the number of
    /// inserts — which this type does not track — so pattern maps report
    /// precision only for systems of ≤ 32 nodes where the encoding is
    /// lossless.
    pub fn is_precise(&self) -> bool {
        match &self.inner {
            Inner::Pointers(_) => true,
            Inner::Pattern(_) => self.sys.nodes() <= 32,
        }
    }
}

impl NodeMap for Cenju4NodeMap {
    fn add(&mut self, node: NodeId) {
        debug_assert!(self.sys.contains(node), "node outside system");
        match &mut self.inner {
            Inner::Pointers(p) => {
                if !p.insert(node) {
                    // Fifth distinct sharer: switch representation.
                    let mut pattern: BitPattern = p.iter().collect();
                    pattern.insert(node);
                    self.inner = Inner::Pattern(pattern);
                }
            }
            Inner::Pattern(p) => p.insert(node),
        }
    }

    fn clear(&mut self) {
        self.inner = Inner::Pointers(PointerSet::new());
    }

    fn contains(&self, node: NodeId) -> bool {
        match &self.inner {
            Inner::Pointers(p) => p.contains(node),
            Inner::Pattern(p) => p.contains(node),
        }
    }

    fn count(&self) -> u32 {
        match &self.inner {
            Inner::Pointers(p) => p.len() as u32,
            // Clip the cross product to nodes that exist.
            Inner::Pattern(p) => p.count_below(self.sys.nodes()),
        }
    }

    fn represented(&self) -> Vec<NodeId> {
        match &self.inner {
            Inner::Pointers(p) => {
                let mut v: Vec<NodeId> = p.iter().collect();
                v.sort_unstable();
                v
            }
            Inner::Pattern(p) => p.iter().take_while(|n| self.sys.contains(*n)).collect(),
        }
    }

    fn lowest(&self) -> Option<NodeId> {
        match &self.inner {
            Inner::Pointers(p) => p.iter().min(),
            Inner::Pattern(p) => p.iter().next().filter(|n| self.sys.contains(*n)),
        }
    }
}

impl fmt::Debug for Cenju4NodeMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Inner::Pointers(p) => write!(f, "Cenju4NodeMap::{p:?}"),
            Inner::Pattern(p) => write!(f, "Cenju4NodeMap::{p:?}"),
        }
    }
}

/// The multicast destination specification carried in a network message.
///
/// Matches the directory's two representations, as the paper requires:
/// "coinciding the specifications of the multicast destination with the
/// directory structures prevents messages from being delivered to any nodes
/// not represented by the node map."
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DestSpec {
    /// Up to four explicit destinations.
    Pointers(PointerSet),
    /// The 42-bit superset encoding.
    Pattern(BitPattern),
    /// A precise 1024-bit destination bitmap — the specification shape of
    /// the non-Cenju-4 directory formats (full map, broadcast, coarse
    /// vector), whose structures are plain bit vectors over nodes.
    Mask([u64; 16]),
}

impl DestSpec {
    /// A spec holding a single destination.
    pub fn single(node: NodeId) -> Self {
        DestSpec::Pointers(PointerSet::of(node))
    }

    /// A precise bitmap spec over the given destinations.
    pub fn mask(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut words = [0u64; 16];
        for n in nodes {
            let i = n.index() as usize;
            words[i / 64] |= 1 << (i % 64);
        }
        DestSpec::Mask(words)
    }

    /// Returns `true` if `node` is a destination.
    pub fn contains(&self, node: NodeId) -> bool {
        match self {
            DestSpec::Pointers(p) => p.contains(node),
            DestSpec::Pattern(p) => p.contains(node),
            DestSpec::Mask(w) => {
                let i = node.index() as usize;
                w[i / 64] & (1 << (i % 64)) != 0
            }
        }
    }

    /// Returns `true` if any destination `n` satisfies
    /// `n & mask == value & mask` — the switch-side routing primitive.
    pub fn intersects_masked(&self, mask: u32, value: u32) -> bool {
        match self {
            DestSpec::Pointers(p) => p.iter().any(|n| (n.index() as u32) & mask == value & mask),
            DestSpec::Pattern(p) => p.intersects_masked(mask, value),
            DestSpec::Mask(w) => mask_iter(w).any(|n| (n.index() as u32) & mask == value & mask),
        }
    }

    /// Returns `true` if any destination `n` *that exists in the machine*
    /// satisfies `n & mask == value & mask`.
    ///
    /// This is the full switch-side routing predicate: the bit-pattern
    /// cross product may name node numbers at or beyond the machine size,
    /// and the switches must not route copies toward unconnected ports.
    /// The paper notes the switches use "their own position information in
    /// the network, the system size, and the multicast destination" — the
    /// system-size input is exactly this clipping.
    pub fn intersects_masked_existing(&self, mask: u32, value: u32, sys: SystemSize) -> bool {
        match self {
            DestSpec::Pointers(p) => p
                .iter()
                .any(|n| sys.contains(n) && (n.index() as u32) & mask == value & mask),
            DestSpec::Mask(w) => {
                mask_iter(w).any(|n| sys.contains(n) && (n.index() as u32) & mask == value & mask)
            }
            DestSpec::Pattern(p) => {
                if !p.intersects_masked(mask, value) {
                    return false;
                }
                let n = sys.nodes() as u32;
                // Power-of-two machines: existence is a high-bit mask, so
                // extend the constraint instead of enumerating.
                if n.is_power_of_two() {
                    let high = !(n - 1) & 0x3FF;
                    return p.intersects_masked(mask | high, value & !high);
                }
                p.iter()
                    .any(|node| sys.contains(node) && (node.index() as u32) & mask == value & mask)
            }
        }
    }

    /// All destinations within the machine, ascending.
    pub fn destinations(&self, sys: SystemSize) -> Vec<NodeId> {
        match self {
            DestSpec::Pointers(p) => {
                let mut v: Vec<NodeId> = p.iter().filter(|n| sys.contains(*n)).collect();
                v.sort_unstable();
                v
            }
            DestSpec::Pattern(p) => p.iter().take_while(|n| sys.contains(*n)).collect(),
            DestSpec::Mask(w) => mask_iter(w).take_while(|n| sys.contains(*n)).collect(),
        }
    }

    /// The number of destinations within the machine:
    /// `destinations(sys).len()`, counted without building the list.
    pub fn fanout(&self, sys: SystemSize) -> u32 {
        match self {
            DestSpec::Pointers(p) => p.iter().filter(|n| sys.contains(*n)).count() as u32,
            DestSpec::Pattern(p) => p.count_below(sys.nodes()),
            DestSpec::Mask(w) => {
                let n = sys.nodes() as usize;
                let whole: u32 = w[..n / 64].iter().map(|x| x.count_ones()).sum();
                let cut = match n % 64 {
                    0 => 0,
                    r => (w[n / 64] & ((1 << r) - 1)).count_ones(),
                };
                whole + cut
            }
        }
    }
}

/// Iterates a node bitmap's set bits, ascending (a destination mask, or
/// a full map's words).
pub(crate) fn mask_iter(words: &[u64]) -> impl Iterator<Item = NodeId> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        core::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            Some(NodeId::new((wi * 64) as u16 + b as u16))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(n: u16) -> SystemSize {
        SystemSize::new(n).unwrap()
    }

    #[test]
    fn stays_pointer_up_to_four() {
        let mut m = Cenju4NodeMap::new(sys(1024));
        for n in [10u16, 20, 30, 40] {
            m.add(NodeId::new(n));
        }
        assert_eq!(m.repr(), Repr::Pointers);
        assert_eq!(m.count(), 4);
        assert!(m.is_precise());
    }

    #[test]
    fn switches_on_fifth_sharer() {
        let mut m = Cenju4NodeMap::new(sys(1024));
        for n in [0u16, 4, 5, 32, 164] {
            m.add(NodeId::new(n));
        }
        assert_eq!(m.repr(), Repr::Pattern);
        assert_eq!(m.count(), 12); // the paper's Figure 3 example
        assert!(!m.is_precise());
    }

    #[test]
    fn duplicate_adds_do_not_switch() {
        let mut m = Cenju4NodeMap::new(sys(1024));
        for _ in 0..10 {
            for n in [1u16, 2, 3, 4] {
                m.add(NodeId::new(n));
            }
        }
        assert_eq!(m.repr(), Repr::Pointers);
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn set_only_collapses_to_pointer() {
        let mut m = Cenju4NodeMap::new(sys(1024));
        for n in 0..20u16 {
            m.add(NodeId::new(n));
        }
        assert_eq!(m.repr(), Repr::Pattern);
        m.set_only(NodeId::new(7));
        assert_eq!(m.repr(), Repr::Pointers);
        assert_eq!(m.represented(), vec![NodeId::new(7)]);
    }

    #[test]
    fn clear_empties() {
        let mut m = Cenju4NodeMap::new(sys(1024));
        m.add(NodeId::new(3));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn precise_in_32_node_system() {
        let mut m = Cenju4NodeMap::new(sys(32));
        for n in 0..32u16 {
            m.add(NodeId::new(n));
        }
        assert_eq!(m.repr(), Repr::Pattern);
        assert_eq!(m.count(), 32);
        assert!(m.is_precise());
        assert_eq!(m.represented().len(), 32);
    }

    #[test]
    fn count_clips_to_system_size() {
        // In a 600-node system the cross product may name nodes >= 600;
        // count() must not include them.
        let mut m = Cenju4NodeMap::new(sys(600));
        for n in [0u16, 100, 300, 599, 64] {
            m.add(NodeId::new(n));
        }
        assert_eq!(m.repr(), Repr::Pattern);
        let rep = m.represented();
        assert_eq!(rep.len() as u32, m.count());
        assert!(rep.iter().all(|n| n.index() < 600));
        for n in [0u16, 100, 300, 599, 64] {
            assert!(m.contains(NodeId::new(n)));
        }
    }

    #[test]
    fn dest_spec_round_trips_through_nodemap() {
        let s = sys(1024);
        let mut m = Cenju4NodeMap::new(s);
        for n in [0u16, 4, 5, 32, 164] {
            m.add(NodeId::new(n));
        }
        let spec = m.to_dest_spec();
        assert_eq!(spec.destinations(s).len(), 12);
        assert!(spec.contains(NodeId::new(165)));
        assert_eq!(spec.fanout(s), 12);
    }

    #[test]
    fn dest_spec_single() {
        let spec = DestSpec::single(NodeId::new(42));
        assert!(spec.contains(NodeId::new(42)));
        assert!(!spec.contains(NodeId::new(43)));
        assert_eq!(spec.fanout(sys(1024)), 1);
    }

    #[test]
    fn dest_spec_pointer_masked_matches_enumeration() {
        let mut p = PointerSet::new();
        for n in [3u16, 700, 1023] {
            p.insert(NodeId::new(n));
        }
        let spec = DestSpec::Pointers(p);
        for mask in [0u32, 0x300, 0x3C0, 0x3FF] {
            for &v in &[0u32, 3, 700, 1023] {
                let expected = [3u32, 700, 1023].iter().any(|&n| n & mask == v & mask);
                assert_eq!(spec.intersects_masked(mask, v), expected);
            }
        }
    }

    #[test]
    fn masked_existing_clips_phantom_nodes() {
        // In a 64-node machine, insert sharers whose pattern cross product
        // would name nodes >= 64 if the encoding allowed it; here use a
        // 256-node machine where it genuinely does.
        let s = sys(256);
        let mut m = Cenju4NodeMap::new(s);
        // Five sharers force the pattern; 0 and 255 set distant field bits.
        for n in [0u16, 255, 1, 2, 3] {
            m.add(NodeId::new(n));
        }
        let spec = m.to_dest_spec();
        // The raw pattern represents e.g. node 287 (0b01_00_0_11111)? No —
        // verify via enumeration against the existing-only predicate.
        for mask in [0u32, 0x300, 0x3E0, 0x3FF] {
            for v in [0u32, 31, 255, 287, 800] {
                let expected = spec
                    .destinations(s)
                    .iter()
                    .any(|n| (n.index() as u32) & mask == v & mask);
                assert_eq!(
                    spec.intersects_masked_existing(mask, v, s),
                    expected,
                    "mask={mask:#x} v={v}"
                );
            }
        }
    }

    #[test]
    fn masked_existing_non_power_of_two() {
        let s = sys(100);
        let mut m = Cenju4NodeMap::new(s);
        for n in [0u16, 99, 1, 2, 3] {
            m.add(NodeId::new(n));
        }
        let spec = m.to_dest_spec();
        for mask in [0u32, 0x3C0, 0x3FF] {
            for v in [0u32, 64, 99, 127] {
                let expected = spec
                    .destinations(s)
                    .iter()
                    .any(|n| (n.index() as u32) & mask == v & mask);
                assert_eq!(spec.intersects_masked_existing(mask, v, s), expected);
            }
        }
    }

    #[test]
    fn dest_spec_mask_matches_enumeration() {
        let s = sys(256);
        let spec = DestSpec::mask([3u16, 64, 255].into_iter().map(NodeId::new));
        assert!(spec.contains(NodeId::new(64)));
        assert!(!spec.contains(NodeId::new(65)));
        assert_eq!(spec.fanout(s), 3);
        assert_eq!(
            spec.destinations(s),
            vec![NodeId::new(3), NodeId::new(64), NodeId::new(255)]
        );
        for mask in [0u32, 0x300, 0x3C0, 0x3FF] {
            for v in [0u32, 3, 64, 255, 900] {
                let expected = [3u32, 64, 255].iter().any(|&n| n & mask == v & mask);
                assert_eq!(spec.intersects_masked(mask, v), expected);
                assert_eq!(spec.intersects_masked_existing(mask, v, s), expected);
            }
        }
    }
}
