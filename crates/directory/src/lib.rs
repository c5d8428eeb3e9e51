//! Directory schemes of the Cenju-4 distributed shared memory.
//!
//! Cenju-4 (HPCA 2000) records the set of nodes caching each 128-byte memory
//! block in a 64-bit *directory entry* stored in main memory (1/16 of memory
//! capacity, independent of machine size). The record of sharers — the *node
//! map* — starts out as a **pointer structure** holding up to four precise
//! 10-bit node numbers and dynamically switches to a **bit-pattern
//! structure** when a fifth sharer appears.
//!
//! The bit-pattern structure splits the 10-bit node number into 2+2+1+5-bit
//! slices and one-hot encodes them into 4+4+2+32-bit fields (42 bits total).
//! The represented set is the cross product of the four fields, so it is a
//! superset of the true sharers — imprecise, but far tighter than a coarse
//! vector for clustered sharer sets, and decodable into the full sharer set
//! with a single memory access.
//!
//! This crate provides:
//!
//! * the exact Cenju-4 node map ([`Cenju4NodeMap`]) and its 64-bit packed
//!   directory entry ([`DirectoryEntry`]),
//! * every baseline scheme the paper compares against in Table 1 and
//!   Figure 4 ([`schemes`]),
//! * the four formats the protocol engine runs, selected by
//!   [`DirectoryId`] and held behind one [`SharerSet`] type ([`mod@format`]),
//! * the precision analytics that regenerate Figure 4 ([`precision`]), and
//! * the hardware/access cost model behind Table 1, one
//!   [`cost::SchemeCost`] row per scheme ([`cost`]).
//!
//! # Examples
//!
//! ```
//! use cenju4_directory::{Cenju4NodeMap, NodeId, NodeMap, SystemSize};
//!
//! let sys = SystemSize::new(1024)?;
//! let mut map = Cenju4NodeMap::new(sys);
//! for n in [0u16, 4, 5, 32] {
//!     map.add(NodeId::new(n));
//! }
//! // Four sharers still fit in the pointer structure: precise.
//! assert_eq!(map.count(), 4);
//!
//! map.add(NodeId::new(164)); // fifth sharer: switch to bit-pattern
//! // The paper's worked example: 5 true sharers are represented as 12.
//! assert_eq!(map.count(), 12);
//! assert!(map.contains(NodeId::new(164)));
//! # Ok::<(), cenju4_directory::SystemSizeError>(())
//! ```

pub mod bitpattern;
pub mod cost;
pub mod entry;
pub mod format;
pub mod node;
pub mod nodemap;
pub mod pointer;
pub mod precision;
pub mod schemes;

pub use bitpattern::BitPattern;
pub use entry::{DirectoryEntry, MemState};
pub use format::{DirectoryId, SharerSet};
pub use node::{NodeId, SystemSize, SystemSizeError};
pub use nodemap::{Cenju4NodeMap, NodeMap};
pub use pointer::PointerSet;
