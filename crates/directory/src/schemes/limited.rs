//! The limited-pointer-with-broadcast directory baseline.

use crate::node::{NodeId, SystemSize};
use crate::nodemap::NodeMap;
use crate::pointer::PointerSet;

/// `Dir₄B`: four precise pointers that fall back to *broadcast* (represent
/// every node) on overflow — the hardware base case of LimitLESS before its
/// software trap, and the simplest constant-storage scheme.
///
/// Included so the precision sweep shows why Cenju-4 bothered with the bit
/// pattern: past four sharers this scheme pays the full machine on every
/// invalidation.
///
/// # Examples
///
/// ```
/// use cenju4_directory::schemes::LimitedPointerBroadcast;
/// use cenju4_directory::{NodeId, NodeMap, SystemSize};
///
/// let mut m = LimitedPointerBroadcast::new(SystemSize::new(1024)?);
/// for n in 0..5u16 {
///     m.add(NodeId::new(n));
/// }
/// assert_eq!(m.count(), 1024); // overflowed to broadcast
/// # Ok::<(), cenju4_directory::SystemSizeError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LimitedPointerBroadcast {
    pointers: PointerSet,
    broadcast: bool,
    sys: SystemSize,
}

impl LimitedPointerBroadcast {
    /// Creates an empty map for a machine of the given size.
    pub fn new(sys: SystemSize) -> Self {
        LimitedPointerBroadcast {
            pointers: PointerSet::new(),
            broadcast: false,
            sys,
        }
    }

    /// Returns `true` once the map has overflowed to broadcast mode.
    pub fn is_broadcast(&self) -> bool {
        self.broadcast
    }

    /// Best-effort removal for node quarantine: drops a precise pointer;
    /// broadcast mode cannot name individual nodes, so it stays a
    /// superset and the fabric's quarantine suppression covers the rest.
    pub fn scrub(&mut self, node: NodeId) {
        if !self.broadcast {
            self.pointers.remove(node);
        }
    }
}

impl NodeMap for LimitedPointerBroadcast {
    fn add(&mut self, node: NodeId) {
        debug_assert!(self.sys.contains(node));
        if !self.broadcast && !self.pointers.insert(node) {
            self.broadcast = true;
            self.pointers.clear();
        }
    }

    fn clear(&mut self) {
        self.pointers.clear();
        self.broadcast = false;
    }

    fn contains(&self, node: NodeId) -> bool {
        self.broadcast || self.pointers.contains(node)
    }

    fn count(&self) -> u32 {
        if self.broadcast {
            self.sys.nodes() as u32
        } else {
            self.pointers.len() as u32
        }
    }

    fn represented(&self) -> Vec<NodeId> {
        if self.broadcast {
            self.sys.iter().collect()
        } else {
            let mut v: Vec<NodeId> = self.pointers.iter().collect();
            v.sort_unstable();
            v
        }
    }

    fn lowest(&self) -> Option<NodeId> {
        if self.broadcast {
            Some(NodeId::new(0))
        } else {
            self.pointers.iter().min()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(n: u16) -> SystemSize {
        SystemSize::new(n).unwrap()
    }

    #[test]
    fn precise_up_to_four() {
        let mut m = LimitedPointerBroadcast::new(sys(1024));
        for n in [9u16, 99, 999, 0] {
            m.add(NodeId::new(n));
        }
        assert!(!m.is_broadcast());
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn fifth_sharer_broadcasts() {
        let mut m = LimitedPointerBroadcast::new(sys(1024));
        for n in 0..5u16 {
            m.add(NodeId::new(n));
        }
        assert!(m.is_broadcast());
        assert_eq!(m.count(), 1024);
        assert!(m.contains(NodeId::new(777)));
    }

    #[test]
    fn clear_leaves_broadcast_mode() {
        let mut m = LimitedPointerBroadcast::new(sys(1024));
        for n in 0..5u16 {
            m.add(NodeId::new(n));
        }
        m.clear();
        assert!(!m.is_broadcast());
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn duplicates_do_not_overflow() {
        let mut m = LimitedPointerBroadcast::new(sys(1024));
        for _ in 0..3 {
            for n in [1u16, 2, 3, 4] {
                m.add(NodeId::new(n));
            }
        }
        assert!(!m.is_broadcast());
    }

    #[test]
    fn broadcast_count_respects_system_size() {
        let mut m = LimitedPointerBroadcast::new(sys(64));
        for n in 0..5u16 {
            m.add(NodeId::new(n));
        }
        assert_eq!(m.count(), 64);
        assert_eq!(m.represented().len(), 64);
    }
}
