//! The 64-bit Cenju-4 directory entry.

use crate::bitpattern::BitPattern;
use crate::format::{DirectoryId, SharerSet};
use crate::node::SystemSize;
use crate::nodemap::{Cenju4NodeMap, NodeMap, Repr};
use crate::pointer::PointerSet;
use core::fmt;

/// The state of a memory block as recorded in its directory entry.
///
/// `Clean` and `Dirty` are the stable states; the three pending states mark
/// a transaction in flight, during which the home queues any further
/// requests for the block (Section 3.3 of the paper).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MemState {
    /// Zero or more nodes cache the data; memory is valid. (`C^m`)
    #[default]
    Clean,
    /// Exactly one node caches the data; memory may be stale. (`D^m`)
    Dirty,
    /// A read-shared request is waiting on a slave's reply. (`Ps^m`)
    PendingShared,
    /// A read-exclusive request is waiting on invalidations / a slave. (`Pe^m`)
    PendingExclusive,
    /// An ownership request is waiting on invalidations. (`Pi^m`)
    PendingInvalidate,
}

impl MemState {
    /// Returns `true` for the three pending states.
    #[inline]
    pub const fn is_pending(self) -> bool {
        matches!(
            self,
            MemState::PendingShared | MemState::PendingExclusive | MemState::PendingInvalidate
        )
    }

    /// The 3-bit hardware encoding.
    const fn to_bits(self) -> u64 {
        match self {
            MemState::Clean => 0,
            MemState::Dirty => 1,
            MemState::PendingShared => 2,
            MemState::PendingExclusive => 3,
            MemState::PendingInvalidate => 4,
        }
    }

    const fn from_bits(bits: u64) -> Option<MemState> {
        match bits {
            0 => Some(MemState::Clean),
            1 => Some(MemState::Dirty),
            2 => Some(MemState::PendingShared),
            3 => Some(MemState::PendingExclusive),
            4 => Some(MemState::PendingInvalidate),
            _ => None,
        }
    }
}

impl fmt::Display for MemState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemState::Clean => "C",
            MemState::Dirty => "D",
            MemState::PendingShared => "Ps",
            MemState::PendingExclusive => "Pe",
            MemState::PendingInvalidate => "Pi",
        };
        f.write_str(s)
    }
}

/// One 64-bit directory entry: a reservation bit, the block state, and the
/// node map (pointer or bit-pattern representation).
///
/// The hardware packs all of this into 64 bits per 128-byte block — 1/16 of
/// main memory regardless of machine size. [`DirectoryEntry::to_bits`] /
/// [`DirectoryEntry::from_bits`] implement that packing exactly:
///
/// ```text
/// bit 63      reservation (a queued request waits for this block)
/// bits 62..60 block state (C / D / Ps / Pe / Pi)
/// bit 59      node-map format: 0 = pointers, 1 = bit pattern
/// bits 58..0  node-map payload (pointer count+slots, or the 42-bit pattern)
/// ```
///
/// # Examples
///
/// ```
/// use cenju4_directory::{DirectoryEntry, MemState, NodeId, NodeMap, SystemSize};
///
/// let sys = SystemSize::new(1024)?;
/// let mut e = DirectoryEntry::new(sys);
/// e.set_state(MemState::Dirty);
/// e.map_mut().set_only(NodeId::new(7));
/// let bits = e.to_bits();
/// let back = DirectoryEntry::from_bits(bits, sys);
/// assert_eq!(back.state(), MemState::Dirty);
/// assert!(back.map().contains(NodeId::new(7)));
/// # Ok::<(), cenju4_directory::SystemSizeError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectoryEntry {
    reservation: bool,
    state: MemState,
    map: SharerSet,
}

impl DirectoryEntry {
    /// Creates a fresh entry in the paper's pointer↔bit-pattern format:
    /// clean, unreserved, no sharers.
    pub fn new(sys: SystemSize) -> Self {
        DirectoryEntry::with_format(sys, DirectoryId::PointerPattern)
    }

    /// Creates a fresh entry whose sharer set uses the given directory
    /// format: clean, unreserved, no sharers.
    pub fn with_format(sys: SystemSize, format: DirectoryId) -> Self {
        DirectoryEntry {
            reservation: false,
            state: MemState::Clean,
            map: format.instantiate(sys),
        }
    }

    /// The block state.
    #[inline]
    pub fn state(&self) -> MemState {
        self.state
    }

    /// Sets the block state.
    #[inline]
    pub fn set_state(&mut self, state: MemState) {
        self.state = state;
    }

    /// The reservation bit: set when a queued request is waiting for this
    /// block to leave its pending state.
    #[inline]
    pub fn reservation(&self) -> bool {
        self.reservation
    }

    /// Sets or clears the reservation bit.
    #[inline]
    pub fn set_reservation(&mut self, on: bool) {
        self.reservation = on;
    }

    /// The node map.
    #[inline]
    pub fn map(&self) -> &SharerSet {
        &self.map
    }

    /// Mutable access to the node map.
    #[inline]
    pub fn map_mut(&mut self) -> &mut SharerSet {
        &mut self.map
    }

    /// Packs the entry into its 64-bit hardware representation.
    ///
    /// # Panics
    ///
    /// Panics unless the entry uses the paper's pointer↔bit-pattern
    /// format — the 64-bit packing is only defined for it (a full map on
    /// 1024 nodes simply does not fit).
    pub fn to_bits(&self) -> u64 {
        let map = self
            .map
            .as_cenju4()
            .expect("64-bit packing is defined for the pointer-pattern format only");
        let mut bits = (self.reservation as u64) << 63;
        bits |= self.state.to_bits() << 60;
        match map.repr() {
            Repr::Pointers => {
                let p = map.as_pointers().expect("repr says pointers");
                bits |= p.to_bits(); // count in 42..40, slots in 39..0
            }
            Repr::Pattern => {
                let p = map.as_pattern().expect("repr says pattern");
                bits |= 1 << 59;
                bits |= p.to_bits();
            }
        }
        bits
    }

    /// Unpacks an entry from its 64-bit hardware representation.
    ///
    /// # Panics
    ///
    /// Panics if the state field holds an invalid encoding — `from_bits` is
    /// only defined on values produced by [`DirectoryEntry::to_bits`].
    pub fn from_bits(bits: u64, sys: SystemSize) -> Self {
        let reservation = bits >> 63 != 0;
        let state = MemState::from_bits((bits >> 60) & 0b111).expect("invalid state encoding");
        let map = if bits & (1 << 59) != 0 {
            Cenju4NodeMap::from_pattern(sys, BitPattern::from_bits(bits & ((1u64 << 42) - 1)))
        } else {
            Cenju4NodeMap::from_pointers(sys, PointerSet::from_bits(bits & ((1u64 << 43) - 1)))
        };
        DirectoryEntry {
            reservation,
            state,
            map: SharerSet::from_cenju4(map),
        }
    }
}

impl Cenju4NodeMap {
    /// Reconstructs a map in pointer representation (used when unpacking a
    /// directory entry from its 64-bit form).
    pub fn from_pointers(sys: SystemSize, pointers: PointerSet) -> Self {
        let mut m = Cenju4NodeMap::new(sys);
        for n in pointers.iter() {
            m.add(n);
        }
        m
    }

    /// Reconstructs a map in pattern representation (used when unpacking a
    /// directory entry from its 64-bit form).
    pub fn from_pattern(sys: SystemSize, pattern: BitPattern) -> Self {
        let mut m = Cenju4NodeMap::new(sys);
        m.force_pattern(pattern);
        m
    }
}

impl fmt::Display for DirectoryEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}{} {:?}]",
            self.state,
            if self.reservation { " R" } else { "" },
            self.map
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn sys() -> SystemSize {
        SystemSize::new(1024).unwrap()
    }

    #[test]
    fn fresh_entry_is_clean_unreserved_empty() {
        let e = DirectoryEntry::new(sys());
        assert_eq!(e.state(), MemState::Clean);
        assert!(!e.reservation());
        assert!(e.map().is_empty());
    }

    #[test]
    fn pending_classification() {
        assert!(!MemState::Clean.is_pending());
        assert!(!MemState::Dirty.is_pending());
        assert!(MemState::PendingShared.is_pending());
        assert!(MemState::PendingExclusive.is_pending());
        assert!(MemState::PendingInvalidate.is_pending());
    }

    #[test]
    fn bits_roundtrip_pointer_repr() {
        let mut e = DirectoryEntry::new(sys());
        e.set_state(MemState::PendingShared);
        e.set_reservation(true);
        for n in [1u16, 2, 3] {
            e.map_mut().add(NodeId::new(n));
        }
        let back = DirectoryEntry::from_bits(e.to_bits(), sys());
        assert_eq!(back.state(), MemState::PendingShared);
        assert!(back.reservation());
        assert_eq!(back.map().count(), 3);
        for n in [1u16, 2, 3] {
            assert!(back.map().contains(NodeId::new(n)));
        }
    }

    #[test]
    fn bits_roundtrip_pattern_repr() {
        let mut e = DirectoryEntry::new(sys());
        e.set_state(MemState::PendingInvalidate);
        for n in [0u16, 4, 5, 32, 164] {
            e.map_mut().add(NodeId::new(n));
        }
        let back = DirectoryEntry::from_bits(e.to_bits(), sys());
        assert_eq!(back.state(), MemState::PendingInvalidate);
        assert_eq!(back.map().count(), 12);
    }

    #[test]
    fn all_states_roundtrip() {
        for s in [
            MemState::Clean,
            MemState::Dirty,
            MemState::PendingShared,
            MemState::PendingExclusive,
            MemState::PendingInvalidate,
        ] {
            let mut e = DirectoryEntry::new(sys());
            e.set_state(s);
            assert_eq!(DirectoryEntry::from_bits(e.to_bits(), sys()).state(), s);
        }
    }

    #[test]
    fn with_format_selects_the_sharer_set() {
        for id in DirectoryId::ALL {
            let e = DirectoryEntry::with_format(sys(), id);
            assert_eq!(e.state(), MemState::Clean);
            assert!(e.map().is_empty());
            assert_eq!(e.map().format(), id);
        }
    }

    #[test]
    fn display_shows_state_and_reservation() {
        let mut e = DirectoryEntry::new(sys());
        e.set_state(MemState::Dirty);
        e.set_reservation(true);
        let s = e.to_string();
        assert!(s.contains('D'));
        assert!(s.contains('R'));
    }
}
