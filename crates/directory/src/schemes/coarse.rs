//! The coarse-vector directory baseline.

use crate::node::{NodeId, SystemSize};
use crate::nodemap::NodeMap;

/// A coarse bit vector: each of `width` bits stands for a contiguous group
/// of `ceil(N / width)` nodes (Gupta, Weber & Mowry; the overflow
/// representation of the SGI Origin directory).
///
/// The paper's Figure 4 uses the 32-bit variant on 1024 nodes, where each
/// bit covers 32 nodes — so a single sharer is represented as 32 nodes.
///
/// # Examples
///
/// ```
/// use cenju4_directory::schemes::CoarseVector;
/// use cenju4_directory::{NodeId, NodeMap, SystemSize};
///
/// let mut m = CoarseVector::new(SystemSize::new(1024)?, 32);
/// m.add(NodeId::new(0));
/// assert_eq!(m.count(), 32); // the whole first group
/// assert!(m.contains(NodeId::new(31)));
/// assert!(!m.contains(NodeId::new(32)));
/// # Ok::<(), cenju4_directory::SystemSizeError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoarseVector {
    bits: u64,
    width: u32,
    group: u32,
    sys: SystemSize,
}

impl CoarseVector {
    /// Creates an empty coarse vector of `width` bits (1..=64).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 64`.
    pub fn new(sys: SystemSize, width: u32) -> Self {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        let group = (sys.nodes() as u32).div_ceil(width);
        CoarseVector {
            bits: 0,
            width,
            group: group.max(1),
            sys,
        }
    }

    /// The number of nodes each bit stands for.
    pub fn group_size(&self) -> u32 {
        self.group
    }

    fn group_of(&self, node: NodeId) -> u32 {
        node.index() as u32 / self.group
    }

    /// Iterates the represented nodes in ascending order: each set group
    /// bit expands to its node range, clipped to the machine.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let nodes = self.sys.nodes() as u32;
        let mut bits = self.bits;
        core::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let g = bits.trailing_zeros();
            bits &= bits - 1;
            Some(g)
        })
        .flat_map(move |g| (g * self.group).min(nodes)..((g + 1) * self.group).min(nodes))
        .map(|n| NodeId::new(n as u16))
    }

    /// Best-effort removal for node quarantine: a group bit can only be
    /// cleared when it stands for `node` alone (group size 1). Wider
    /// groups keep the bit — surviving groupmates may still share the
    /// block, and the superset invariant makes the residue harmless.
    pub fn scrub(&mut self, node: NodeId) {
        if self.group == 1 {
            self.bits &= !(1 << self.group_of(node));
        }
    }
}

impl NodeMap for CoarseVector {
    fn add(&mut self, node: NodeId) {
        debug_assert!(self.sys.contains(node));
        self.bits |= 1 << self.group_of(node);
    }

    fn clear(&mut self) {
        self.bits = 0;
    }

    fn contains(&self, node: NodeId) -> bool {
        self.bits & (1 << self.group_of(node)) != 0
    }

    fn count(&self) -> u32 {
        (0..self.width)
            .filter(|&g| self.bits & (1 << g) != 0)
            .map(|g| {
                let start = g * self.group;
                let end = ((g + 1) * self.group).min(self.sys.nodes() as u32);
                end.saturating_sub(start)
            })
            .sum()
    }

    fn represented(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    fn lowest(&self) -> Option<NodeId> {
        self.iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(n: u16) -> SystemSize {
        SystemSize::new(n).unwrap()
    }

    #[test]
    fn one_sharer_costs_a_whole_group() {
        let mut m = CoarseVector::new(sys(1024), 32);
        m.add(NodeId::new(100));
        assert_eq!(m.count(), 32);
        // Node 100 is in group 3 (96..128).
        assert!(m.contains(NodeId::new(96)));
        assert!(m.contains(NodeId::new(127)));
        assert!(!m.contains(NodeId::new(128)));
    }

    #[test]
    fn same_group_sharers_share_cost() {
        let mut m = CoarseVector::new(sys(1024), 32);
        for n in 0..32u16 {
            m.add(NodeId::new(n));
        }
        assert_eq!(m.count(), 32);
    }

    #[test]
    fn all_groups_cover_machine() {
        let mut m = CoarseVector::new(sys(1024), 32);
        for n in (0..1024u16).step_by(32) {
            m.add(NodeId::new(n));
        }
        assert_eq!(m.count(), 1024);
        assert_eq!(m.represented().len(), 1024);
    }

    #[test]
    fn partial_last_group_counts_correctly() {
        // 100 nodes / 32 bits -> groups of 4; last group covers 96..100.
        let mut m = CoarseVector::new(sys(100), 32);
        assert_eq!(m.group_size(), 4);
        m.add(NodeId::new(99));
        assert_eq!(m.count(), 4);
        m.clear();
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn superset_invariant() {
        let mut m = CoarseVector::new(sys(1024), 32);
        for n in [5u16, 500, 999] {
            m.add(NodeId::new(n));
            assert!(m.contains(NodeId::new(n)));
        }
    }
}
