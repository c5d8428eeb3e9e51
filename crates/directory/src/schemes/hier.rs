//! The hierarchical bit-map directory baseline (JUMP-1 style).

use crate::node::{NodeId, SystemSize};
use crate::nodemap::NodeMap;

/// A hierarchical bit map: one 4-bit field per level of the 4-ary network
/// tree, each field ORing the one-hot encoding of the sharers' branch
/// choice at that level (Matsumoto et al., JUMP-1).
///
/// On 1024 nodes the tree has six levels, so the map is six 4-bit fields —
/// 24 bits, the configuration in the paper's Figure 4. Because the *same*
/// field is shared by every switch of a level, the represented set is the
/// cross product of the branch sets: structurally like the Cenju-4 bit
/// pattern, but tied to the network shape and coarser (every level mixes
/// branches of unrelated subtrees).
///
/// # Examples
///
/// ```
/// use cenju4_directory::schemes::HierarchicalBitMap;
/// use cenju4_directory::{NodeId, NodeMap, SystemSize};
///
/// let mut m = HierarchicalBitMap::new(SystemSize::new(1024)?);
/// assert_eq!(m.levels(), 6); // six 4-bit fields = 24 bits
/// m.add(NodeId::new(0));
/// assert_eq!(m.count(), 1); // one sharer is precise
/// # Ok::<(), cenju4_directory::SystemSizeError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchicalBitMap {
    /// `fields[i]` covers tree level `i`, root first; 4 bits used per entry.
    fields: Vec<u8>,
    sys: SystemSize,
}

impl HierarchicalBitMap {
    /// Creates an empty map for a machine of the given size. The number of
    /// levels equals the machine's network stage count.
    pub fn new(sys: SystemSize) -> Self {
        HierarchicalBitMap {
            fields: vec![0; sys.stages() as usize],
            sys,
        }
    }

    /// The number of tree levels (= 4-bit fields).
    pub fn levels(&self) -> u32 {
        self.fields.len() as u32
    }

    /// The 2-bit branch of `node` at tree level `level` (0 = root).
    fn branch(&self, node: NodeId, level: usize) -> u8 {
        let levels = self.fields.len();
        ((node.index() >> (2 * (levels - 1 - level))) & 0b11) as u8
    }
}

impl NodeMap for HierarchicalBitMap {
    fn add(&mut self, node: NodeId) {
        debug_assert!(self.sys.contains(node));
        for level in 0..self.fields.len() {
            self.fields[level] |= 1 << self.branch(node, level);
        }
    }

    fn clear(&mut self) {
        self.fields.iter_mut().for_each(|f| *f = 0);
    }

    fn contains(&self, node: NodeId) -> bool {
        (0..self.fields.len())
            .all(|level| self.fields[level] & (1 << self.branch(node, level)) != 0)
    }

    fn count(&self) -> u32 {
        let raw: u32 = self
            .fields
            .iter()
            .map(|f| (*f as u32).count_ones())
            .product();
        if raw == 0 {
            return 0;
        }
        // The cross product may name addresses beyond the machine; clip.
        let ports: u32 = 1 << (2 * self.fields.len());
        if ports == self.sys.nodes() as u32 {
            raw
        } else {
            self.represented().len() as u32
        }
    }

    fn represented(&self) -> Vec<NodeId> {
        self.sys.iter().filter(|&n| self.contains(n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(n: u16) -> SystemSize {
        SystemSize::new(n).unwrap()
    }

    #[test]
    fn twenty_four_bits_on_1024_nodes() {
        let m = HierarchicalBitMap::new(sys(1024));
        assert_eq!(m.levels(), 6); // six 4-bit fields
    }

    #[test]
    fn single_sharer_is_precise() {
        for n in [0u16, 1, 500, 1023] {
            let mut m = HierarchicalBitMap::new(sys(1024));
            m.add(NodeId::new(n));
            assert_eq!(m.count(), 1, "node {n}");
            assert_eq!(m.represented(), vec![NodeId::new(n)]);
        }
    }

    #[test]
    fn siblings_are_cheap_strangers_expensive() {
        // Two nodes in the same leaf switch differ only at the last level:
        // 1 x 1 x ... x 2 = 2 represented.
        let mut m = HierarchicalBitMap::new(sys(1024));
        m.add(NodeId::new(0));
        m.add(NodeId::new(1));
        assert_eq!(m.count(), 2);

        // Two nodes differing at *every* level blow up to 2^levels.
        let mut m = HierarchicalBitMap::new(sys(1024));
        m.add(NodeId::new(0));
        // 0b01_01_01_01_01_01 differs from zero in all six digits.
        m.add(NodeId::new(0b0101010101 & 0x3FF));
        assert_eq!(m.count(), 2u32.pow(5)); // digits of a 10-bit node: top level shared
    }

    #[test]
    fn superset_invariant() {
        let mut m = HierarchicalBitMap::new(sys(1024));
        for n in [3u16, 77, 899] {
            m.add(NodeId::new(n));
            assert!(m.contains(NodeId::new(n)));
        }
        assert!(m.count() >= 3);
    }

    #[test]
    fn clear_resets() {
        let mut m = HierarchicalBitMap::new(sys(1024));
        m.add(NodeId::new(9));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn clipping_on_non_power_of_four() {
        let mut m = HierarchicalBitMap::new(sys(100));
        m.add(NodeId::new(99));
        m.add(NodeId::new(0));
        let rep = m.represented();
        assert!(rep.iter().all(|n| n.index() < 100));
        assert_eq!(m.count() as usize, rep.len());
    }

    #[test]
    fn all_nodes_representable() {
        let mut m = HierarchicalBitMap::new(sys(1024));
        for n in 0..1024u16 {
            m.add(NodeId::new(n));
        }
        assert_eq!(m.count(), 1024);
    }
}
