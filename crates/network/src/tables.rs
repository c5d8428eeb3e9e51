//! Dense flat tables for hot-path per-link and per-port state.
//!
//! The machine geometry is fixed at configuration time: `n` nodes and
//! `stages × (ports/4)` switches. Every piece of per-link or per-port
//! state the simulator touches on each event — sequence numbers, NIC
//! reservations, port `next_free` times, fault counters — can therefore
//! live in a flat `Vec` indexed arithmetically instead of a hashed map.
//! The index math is trivial, but it is *spec*: the property tests in
//! `tests/` prove it is a bijection over the whole supported NodeId
//! range, which is what lets the flat tables replace the `(src, dst)`-
//! keyed maps without changing behavior.
//!
//! # Examples
//!
//! ```
//! use cenju4_network::tables::{link_index, link_of_index, LinkTable};
//! use cenju4_directory::NodeId;
//!
//! let i = link_index(64, NodeId::new(3), NodeId::new(7));
//! assert_eq!(link_of_index(64, i), (NodeId::new(3), NodeId::new(7)));
//!
//! let mut t: LinkTable<u64> = LinkTable::new(64);
//! *t.get_mut(NodeId::new(3), NodeId::new(7)) += 1;
//! assert_eq!(*t.get(NodeId::new(3), NodeId::new(7)), 1);
//! ```

use cenju4_directory::NodeId;

/// Flat index of the directed link `src → dst` in an `n`-node machine:
/// row-major `src * n + dst`.
#[inline]
pub fn link_index(nodes: usize, src: NodeId, dst: NodeId) -> usize {
    debug_assert!(src.as_usize() < nodes && dst.as_usize() < nodes);
    src.as_usize() * nodes + dst.as_usize()
}

/// Inverse of [`link_index`]: recovers `(src, dst)` from a flat index.
#[inline]
pub fn link_of_index(nodes: usize, index: usize) -> (NodeId, NodeId) {
    debug_assert!(index < nodes * nodes);
    (
        NodeId::new((index / nodes) as u16),
        NodeId::new((index % nodes) as u16),
    )
}

/// Flat index of output port `port` of switch `(stage, label)`:
/// `(stage * switches_per_stage + label) * 4 + port`. Each switch is
/// radix-4, so ports occupy the low two bits.
#[inline]
pub fn port_index(switches_per_stage: u32, stage: u32, label: u32, port: u8) -> usize {
    debug_assert!(label < switches_per_stage && port < 4);
    ((stage * switches_per_stage + label) as usize) * 4 + port as usize
}

/// A dense `n × n` table of per-directed-link state, the flat
/// replacement for `HashMap<(NodeId, NodeId), T>` on the hot path.
#[derive(Debug)]
pub struct LinkTable<T> {
    nodes: usize,
    slots: Vec<T>,
}

cenju4_des::clone_fields!(LinkTable<T> { nodes, slots });

impl<T: Clone + Default> LinkTable<T> {
    /// A table with every slot at `T::default()`.
    pub fn new(nodes: usize) -> Self {
        LinkTable {
            nodes,
            slots: vec![T::default(); nodes * nodes],
        }
    }

    /// The node count this table was sized for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The state of link `src → dst`.
    #[inline]
    pub fn get(&self, src: NodeId, dst: NodeId) -> &T {
        &self.slots[link_index(self.nodes, src, dst)]
    }

    /// Mutable state of link `src → dst`.
    #[inline]
    pub fn get_mut(&mut self, src: NodeId, dst: NodeId) -> &mut T {
        &mut self.slots[link_index(self.nodes, src, dst)]
    }

    /// Iterates the non-default slots as `((src, dst), &T)`; only used on
    /// cold paths (drain/teardown), never during event processing.
    pub fn iter(&self) -> impl Iterator<Item = ((NodeId, NodeId), &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, t)| (link_of_index(self.nodes, i), t))
    }

    /// Resets every slot to `T::default()`.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|t| *t = T::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_index_is_row_major() {
        assert_eq!(link_index(16, NodeId::new(0), NodeId::new(0)), 0);
        assert_eq!(link_index(16, NodeId::new(0), NodeId::new(15)), 15);
        assert_eq!(link_index(16, NodeId::new(1), NodeId::new(0)), 16);
        assert_eq!(link_index(16, NodeId::new(15), NodeId::new(15)), 255);
    }

    #[test]
    fn port_index_packs_radix4() {
        // 128 nodes: 32 switches per stage.
        assert_eq!(port_index(32, 0, 0, 0), 0);
        assert_eq!(port_index(32, 0, 0, 3), 3);
        assert_eq!(port_index(32, 0, 1, 0), 4);
        assert_eq!(port_index(32, 1, 0, 0), 128);
        assert_eq!(port_index(32, 3, 31, 3), 3 * 128 + 31 * 4 + 3);
    }

    #[test]
    fn table_roundtrip() {
        let mut t: LinkTable<u64> = LinkTable::new(8);
        for s in 0..8u16 {
            for d in 0..8u16 {
                *t.get_mut(NodeId::new(s), NodeId::new(d)) = (s as u64) * 100 + d as u64;
            }
        }
        assert_eq!(*t.get(NodeId::new(7), NodeId::new(3)), 703);
        let non_default = t.iter().filter(|(_, &v)| v != 0).count();
        assert_eq!(non_default, 63); // (0,0) holds the default 0
    }
}
