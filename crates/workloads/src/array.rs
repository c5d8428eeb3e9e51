//! Shared-array layout: block ownership and home placement.

use cenju4_directory::NodeId;
use cenju4_protocol::Addr;

/// How a shared array's blocks are placed on home memories.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mapping {
    /// The program specified data mappings: block `b` is homed on the node
    /// that owns it under the contiguous partition (the paper's
    /// "specifying data mappings … to localize memory accesses").
    Partitioned,
    /// No data mappings: the system's default placement, modeled as a
    /// home chosen by hashing the block index — remote for `(n-1)/n` of
    /// accesses, like the paper's "no data mappings" runs.
    Unmapped,
}

impl Mapping {
    /// From the boolean the runner exposes.
    pub fn from_flag(mapped: bool) -> Mapping {
        if mapped {
            Mapping::Partitioned
        } else {
            Mapping::Unmapped
        }
    }
}

/// The most blocks one shared array holds (1 MB of 128-byte blocks).
pub const MAX_BLOCKS: u32 = 1 << 13;

/// A distributed shared array of `blocks` 128-byte blocks.
///
/// Each array instance gets a distinct `array_id` so two arrays never
/// alias the same [`Addr`].
///
/// # Examples
///
/// ```
/// use cenju4_workloads::array::{Mapping, SharedArray};
///
/// let a = SharedArray::new(0, 128, 4, Mapping::Partitioned);
/// // Contiguous partition: node 1 owns blocks 32..64 and they live there.
/// assert_eq!(a.owner(40).index(), 1);
/// assert_eq!(a.addr(40).home(), a.owner(40));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SharedArray {
    array_id: u32,
    blocks: u32,
    nodes: u16,
    mapping: Mapping,
}

impl SharedArray {
    /// Creates an array descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `blocks == 0`, `blocks > MAX_BLOCKS`, `nodes == 0`, or
    /// `array_id >= 512` (the id shares the 29-bit block-offset space).
    pub fn new(array_id: u32, blocks: u32, nodes: u16, mapping: Mapping) -> Self {
        assert!(blocks > 0 && nodes > 0);
        assert!(array_id < 512, "array id field is 9 bits");
        assert!(blocks <= MAX_BLOCKS, "array limited to 8192 blocks (1 MB)");
        SharedArray {
            array_id,
            blocks,
            nodes,
            mapping,
        }
    }

    /// Number of blocks.
    pub fn blocks(&self) -> u32 {
        self.blocks
    }

    /// The node owning block `b` under the contiguous partition.
    pub fn owner(&self, b: u32) -> NodeId {
        debug_assert!(b < self.blocks);
        NodeId::new((b as u64 * self.nodes as u64 / self.blocks as u64) as u16)
    }

    /// The contiguous range of blocks owned by `node`.
    pub fn owned_range(&self, node: NodeId) -> std::ops::Range<u32> {
        let n = self.nodes as u64;
        let b = self.blocks as u64;
        let i = node.index() as u64;
        let start = (i * b).div_ceil(n) as u32;
        let end = ((i + 1) * b).div_ceil(n) as u32;
        start..end.min(self.blocks)
    }

    /// The home node of block `b` under this array's mapping.
    pub fn home(&self, b: u32) -> NodeId {
        match self.mapping {
            Mapping::Partitioned => self.owner(b),
            Mapping::Unmapped => {
                // Deterministic bit-mixing hash (SplitMix64 finalizer) so
                // placement is uncorrelated with any partition stride.
                let mut h = (b as u64) ^ ((self.array_id as u64) << 32);
                h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                h ^= h >> 31;
                NodeId::new((h % self.nodes as u64) as u16)
            }
        }
    }

    /// The DSM address of block `b`.
    pub fn addr(&self, b: u32) -> Addr {
        debug_assert!(b < self.blocks);
        Addr::new(self.home(b), (self.array_id << 13) | b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_partition_is_contiguous_and_complete() {
        let a = SharedArray::new(1, 100, 7, Mapping::Partitioned);
        let mut count = 0;
        for n in 0..7u16 {
            let r = a.owned_range(NodeId::new(n));
            for b in r.clone() {
                assert_eq!(a.owner(b), NodeId::new(n), "block {b}");
            }
            count += r.len();
        }
        assert_eq!(count, 100);
    }

    #[test]
    fn partitioned_homes_are_owners() {
        let a = SharedArray::new(2, 64, 4, Mapping::Partitioned);
        for b in 0..64 {
            assert_eq!(a.home(b), a.owner(b));
        }
    }

    #[test]
    fn unmapped_homes_are_spread() {
        let a = SharedArray::new(3, 256, 8, Mapping::Unmapped);
        let mut seen = std::collections::HashSet::new();
        for b in 0..256 {
            seen.insert(a.home(b).index());
        }
        assert!(seen.len() >= 6, "hash placement should hit most nodes");
    }

    #[test]
    fn addresses_distinct_across_arrays() {
        let a = SharedArray::new(1, 32, 4, Mapping::Partitioned);
        let b = SharedArray::new(2, 32, 4, Mapping::Partitioned);
        for i in 0..32 {
            assert_ne!(a.addr(i).key(), b.addr(i).key());
        }
    }

    #[test]
    fn addresses_distinct_within_array() {
        let a = SharedArray::new(1, 8000, 4, Mapping::Partitioned);
        let mut keys = std::collections::HashSet::new();
        for i in 0..8000 {
            assert!(keys.insert(a.addr(i).key()), "duplicate addr for {i}");
        }
    }
}
