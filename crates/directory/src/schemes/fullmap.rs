//! The full-map directory: one presence bit per node.

use crate::node::{NodeId, SystemSize};
use crate::nodemap::{mask_iter, NodeMap};

/// A precise full bit-vector directory (Censier & Feautrier).
///
/// Storage grows linearly with machine size — the scheme the paper's
/// Table 1 marks as unscalable in hardware cost — but it is exact, so it
/// serves as the ground truth in precision comparisons.
///
/// # Examples
///
/// ```
/// use cenju4_directory::schemes::FullMap;
/// use cenju4_directory::{NodeId, NodeMap, SystemSize};
///
/// let mut m = FullMap::new(SystemSize::new(64)?);
/// m.add(NodeId::new(63));
/// assert_eq!(m.count(), 1);
/// assert!(m.contains(NodeId::new(63)));
/// # Ok::<(), cenju4_directory::SystemSizeError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FullMap {
    words: Vec<u64>,
    sys: SystemSize,
}

impl FullMap {
    /// Creates an empty full map for a machine of the given size.
    pub fn new(sys: SystemSize) -> Self {
        FullMap {
            words: vec![0; (sys.nodes() as usize).div_ceil(64)],
            sys,
        }
    }

    /// Removes a node precisely; returns whether it was present. The full
    /// map is the only baseline that supports precise removal.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (w, b) = (node.as_usize() / 64, node.as_usize() % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Iterates the present nodes in ascending order, jumping between set
    /// bits and stopping at the machine edge.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        mask_iter(&self.words).take_while(|n| self.sys.contains(*n))
    }
}

impl NodeMap for FullMap {
    fn add(&mut self, node: NodeId) {
        debug_assert!(self.sys.contains(node));
        self.words[node.as_usize() / 64] |= 1 << (node.as_usize() % 64);
    }

    fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    fn contains(&self, node: NodeId) -> bool {
        self.words
            .get(node.as_usize() / 64)
            .is_some_and(|w| w & (1 << (node.as_usize() % 64)) != 0)
    }

    fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
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
    fn is_exact() {
        let mut m = FullMap::new(sys(1024));
        let nodes = [0u16, 63, 64, 511, 1023];
        for &n in &nodes {
            m.add(NodeId::new(n));
        }
        assert_eq!(m.count() as usize, nodes.len());
        let got: Vec<u16> = m.represented().iter().map(|n| n.index()).collect();
        assert_eq!(got, nodes);
    }

    #[test]
    fn remove_is_precise() {
        let mut m = FullMap::new(sys(128));
        m.add(NodeId::new(5));
        assert!(m.remove(NodeId::new(5)));
        assert!(!m.remove(NodeId::new(5)));
        assert!(m.is_empty());
    }

    #[test]
    fn clear_and_set_only() {
        let mut m = FullMap::new(sys(128));
        m.add(NodeId::new(1));
        m.add(NodeId::new(2));
        m.set_only(NodeId::new(3));
        assert_eq!(m.represented(), vec![NodeId::new(3)]);
    }
}
