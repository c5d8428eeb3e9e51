//! The [`DirectoryFormat`] seam: pluggable sharer-set representations.
//!
//! The paper's pointer↔bit-pattern entry is one point in the directory
//! design space surveyed by its own Table 1. This module makes that point
//! swappable: a [`DirectoryFormat`] describes a scheme's cost model (the
//! Table-1 axes) and — for the schemes the protocol engine can actually
//! run — instantiates a [`SharerSet`], the node map a home module
//! programs against without knowing the representation underneath.
//!
//! Two kinds of format exist:
//!
//! * **engine-backed** formats ([`DirectoryId`] names them) instantiate a
//!   live [`SharerSet`]: the paper's pointer+bit-pattern entry, the full
//!   map, the limited-pointer-broadcast `Dir₄B`, and the 32-bit coarse
//!   vector;
//! * **cost-only** formats (chained, LimitLESS, dynamic pointer, Origin)
//!   exist for Table-1 rows — [`DirectoryFormat::instantiate`] returns
//!   `None` because the engine has no wire realization for them.

use crate::node::{NodeId, SystemSize};
use crate::nodemap::{Cenju4NodeMap, DestSpec, NodeMap};
use crate::pointer::PointerSet;
use crate::schemes::{CoarseVector, FullMap, LimitedPointerBroadcast};
use core::fmt;

/// Pointer width needed to name one node of an `n`-node machine.
fn ptr_bits(n: u32) -> u32 {
    32 - (n.max(2) - 1).leading_zeros()
}

/// A directory scheme: its Table-1 cost model plus (for engine-backed
/// schemes) a live sharer-set factory.
///
/// The two cost functions are the axes of the paper's Table 1; the
/// derived verdicts in [`crate::cost`] recompute the paper's ○/× marks
/// from them, so any new format gets a cost row for free.
pub trait DirectoryFormat: Sync {
    /// A short stable name ("pointer-pattern", "full-map", …).
    fn name(&self) -> &'static str;

    /// Directory storage per memory block, in bits, on an `n`-node
    /// machine.
    fn storage_bits_per_block(&self, n: u32) -> u32;

    /// Sequential directory/memory accesses the home needs before it
    /// knows *every* node to invalidate, with `sharers` sharers on an
    /// `n`-node machine.
    fn accesses_to_enumerate(&self, n: u32, sharers: u32) -> u32;

    /// A live sharer set for the engine, or `None` for cost-only formats
    /// (chained directories and software-assisted schemes have no wire
    /// realization here).
    fn instantiate(&self, sys: SystemSize) -> Option<SharerSet>;
}

/// The paper's pointer↔bit-pattern entry: 64 bits, one access.
#[derive(Clone, Copy, Debug, Default)]
pub struct PointerPatternFormat;

impl DirectoryFormat for PointerPatternFormat {
    fn name(&self) -> &'static str {
        "pointer-pattern"
    }
    fn storage_bits_per_block(&self, _n: u32) -> u32 {
        64 // the packed entry
    }
    fn accesses_to_enumerate(&self, _n: u32, _sharers: u32) -> u32 {
        1 // pointer or bit-pattern: single access either way
    }
    fn instantiate(&self, sys: SystemSize) -> Option<SharerSet> {
        Some(SharerSet::cenju4(sys))
    }
}

/// Censier & Feautrier full map: one presence bit per node.
#[derive(Clone, Copy, Debug, Default)]
pub struct FullMapFormat;

impl DirectoryFormat for FullMapFormat {
    fn name(&self) -> &'static str {
        "full-map"
    }
    fn storage_bits_per_block(&self, n: u32) -> u32 {
        n
    }
    fn accesses_to_enumerate(&self, n: u32, _sharers: u32) -> u32 {
        // O(n) bits read through a 64-bit directory memory.
        n.div_ceil(64)
    }
    fn instantiate(&self, sys: SystemSize) -> Option<SharerSet> {
        Some(SharerSet::full_map(sys))
    }
}

/// `Dir₄B`: four precise pointers, broadcast on overflow.
#[derive(Clone, Copy, Debug, Default)]
pub struct LimitedPointerFormat;

impl DirectoryFormat for LimitedPointerFormat {
    fn name(&self) -> &'static str {
        "limited-pointer"
    }
    fn storage_bits_per_block(&self, _n: u32) -> u32 {
        1 + 4 * 10 // broadcast bit + four 10-bit pointers
    }
    fn accesses_to_enumerate(&self, _n: u32, _sharers: u32) -> u32 {
        1 // pointers or the broadcast bit: single access
    }
    fn instantiate(&self, sys: SystemSize) -> Option<SharerSet> {
        Some(SharerSet::limited_pointer(sys))
    }
}

/// Gupta et al. coarse vector, 32 bits (the Origin overflow format).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoarseVectorFormat;

impl DirectoryFormat for CoarseVectorFormat {
    fn name(&self) -> &'static str {
        "coarse-vector"
    }
    fn storage_bits_per_block(&self, _n: u32) -> u32 {
        32
    }
    fn accesses_to_enumerate(&self, _n: u32, _sharers: u32) -> u32 {
        1
    }
    fn instantiate(&self, sys: SystemSize) -> Option<SharerSet> {
        Some(SharerSet::coarse_vector(sys))
    }
}

/// SCI-style chained directory (cost-only).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChainedFormat;

impl DirectoryFormat for ChainedFormat {
    fn name(&self) -> &'static str {
        "chained"
    }
    fn storage_bits_per_block(&self, n: u32) -> u32 {
        2 + ptr_bits(n) // state + head pointer
    }
    fn accesses_to_enumerate(&self, _n: u32, sharers: u32) -> u32 {
        sharers.max(1) // walk the chain, one round trip per cache
    }
    fn instantiate(&self, _sys: SystemSize) -> Option<SharerSet> {
        None
    }
}

/// LimitLESS: limited pointers + software-handled overflow (cost-only).
#[derive(Clone, Copy, Debug, Default)]
pub struct LimitLessFormat;

impl DirectoryFormat for LimitLessFormat {
    fn name(&self) -> &'static str {
        "limitless"
    }
    fn storage_bits_per_block(&self, n: u32) -> u32 {
        2 + 4 * ptr_bits(n) // state + 4 pointers
    }
    fn accesses_to_enumerate(&self, _n: u32, sharers: u32) -> u32 {
        // Four pointers in hardware; beyond that, software traps.
        if sharers <= 4 {
            1
        } else {
            1 + (sharers - 4)
        }
    }
    fn instantiate(&self, _sys: SystemSize) -> Option<SharerSet> {
        None
    }
}

/// Simoni & Horowitz dynamic pointer allocation (cost-only).
#[derive(Clone, Copy, Debug, Default)]
pub struct DynamicPointerFormat;

impl DirectoryFormat for DynamicPointerFormat {
    fn name(&self) -> &'static str {
        "dynamic-pointer"
    }
    fn storage_bits_per_block(&self, n: u32) -> u32 {
        2 + ptr_bits(n) // state + list head
    }
    fn accesses_to_enumerate(&self, _n: u32, sharers: u32) -> u32 {
        sharers.max(1) // one access per pointer-list element
    }
    fn instantiate(&self, _sys: SystemSize) -> Option<SharerSet> {
        None
    }
}

/// SGI Origin: full map to 32 nodes, coarse vector beyond (cost-only —
/// its steady-state overflow behaviour is the coarse vector above).
#[derive(Clone, Copy, Debug, Default)]
pub struct OriginFormat;

impl DirectoryFormat for OriginFormat {
    fn name(&self) -> &'static str {
        "origin"
    }
    fn storage_bits_per_block(&self, _n: u32) -> u32 {
        2 + 32 // state + 32-bit vector
    }
    fn accesses_to_enumerate(&self, _n: u32, _sharers: u32) -> u32 {
        1
    }
    fn instantiate(&self, _sys: SystemSize) -> Option<SharerSet> {
        None
    }
}

/// Selector for the engine-backed directory formats, mirroring the
/// protocol selector: stable names for CLI flags, a parser that can list
/// its variants, and a [`DirectoryFormat`] handle per variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DirectoryId {
    /// The paper's pointer↔bit-pattern entry (the default).
    #[default]
    PointerPattern,
    /// Precise full bit vector.
    FullMap,
    /// Four pointers, broadcast on overflow.
    LimitedPointer,
    /// 32-bit coarse vector.
    CoarseVector,
}

impl DirectoryId {
    /// Every engine-backed format.
    pub const ALL: [DirectoryId; 4] = [
        DirectoryId::PointerPattern,
        DirectoryId::FullMap,
        DirectoryId::LimitedPointer,
        DirectoryId::CoarseVector,
    ];

    /// The stable name used by CLI flags and reports.
    pub fn name(self) -> &'static str {
        self.format().name()
    }

    /// Parses a name produced by [`DirectoryId::name`].
    pub fn parse(s: &str) -> Option<DirectoryId> {
        DirectoryId::ALL.into_iter().find(|d| d.name() == s)
    }

    /// The format's cost model.
    pub fn format(self) -> &'static dyn DirectoryFormat {
        match self {
            DirectoryId::PointerPattern => &PointerPatternFormat,
            DirectoryId::FullMap => &FullMapFormat,
            DirectoryId::LimitedPointer => &LimitedPointerFormat,
            DirectoryId::CoarseVector => &CoarseVectorFormat,
        }
    }

    /// A fresh, empty sharer set of this format.
    pub fn instantiate(self, sys: SystemSize) -> SharerSet {
        self.format()
            .instantiate(sys)
            .expect("engine-backed format must instantiate")
    }
}

impl fmt::Display for DirectoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The sharer set a home module programs against: any engine-backed
/// directory format behind one concrete type (an enum, not a boxed
/// trait object, so directory entries stay cheap to clone and compare).
///
/// Beyond the [`NodeMap`] operations, a `SharerSet` knows two things a
/// home needs that the plain map abstraction cannot answer:
///
/// * [`SharerSet::solo`] — the *precise* single holder after a
///   [`NodeMap::set_only`], even when the representation itself is
///   imprecise (a coarse vector represents a whole group, but a
///   dirty block's owner must be found exactly);
/// * [`SharerSet::push_spec`] — the multicast destination specification
///   for an invalidation or update push, excluding the requesting master
///   where the representation can do so precisely.
#[derive(Clone)]
pub struct SharerSet {
    inner: SharerInner,
    /// Precise single-holder hint: `Some(n)` iff the most recent mutation
    /// was `set_only(n)` — i.e. the true sharer set is exactly `{n}`.
    only: Option<NodeId>,
}

#[derive(Clone, PartialEq, Eq)]
enum SharerInner {
    Cenju4(Cenju4NodeMap),
    FullMap(FullMap),
    Limited(LimitedPointerBroadcast),
    Coarse(CoarseVector),
}

impl SharerSet {
    /// The paper's pointer↔bit-pattern map.
    pub fn cenju4(sys: SystemSize) -> Self {
        SharerSet {
            inner: SharerInner::Cenju4(Cenju4NodeMap::new(sys)),
            only: None,
        }
    }

    /// A precise full map.
    pub fn full_map(sys: SystemSize) -> Self {
        SharerSet {
            inner: SharerInner::FullMap(FullMap::new(sys)),
            only: None,
        }
    }

    /// Four pointers with broadcast overflow.
    pub fn limited_pointer(sys: SystemSize) -> Self {
        SharerSet {
            inner: SharerInner::Limited(LimitedPointerBroadcast::new(sys)),
            only: None,
        }
    }

    /// A 32-bit coarse vector.
    pub fn coarse_vector(sys: SystemSize) -> Self {
        SharerSet {
            inner: SharerInner::Coarse(CoarseVector::new(sys, 32)),
            only: None,
        }
    }

    /// Wraps an existing Cenju-4 map (directory-entry unpacking).
    pub fn from_cenju4(map: Cenju4NodeMap) -> Self {
        SharerSet {
            inner: SharerInner::Cenju4(map),
            only: None,
        }
    }

    /// Which format this set realizes.
    pub fn format(&self) -> DirectoryId {
        match &self.inner {
            SharerInner::Cenju4(_) => DirectoryId::PointerPattern,
            SharerInner::FullMap(_) => DirectoryId::FullMap,
            SharerInner::Limited(_) => DirectoryId::LimitedPointer,
            SharerInner::Coarse(_) => DirectoryId::CoarseVector,
        }
    }

    /// The underlying Cenju-4 map, when this set is the paper's format
    /// (the 64-bit entry packing is only defined for it).
    pub fn as_cenju4(&self) -> Option<&Cenju4NodeMap> {
        match &self.inner {
            SharerInner::Cenju4(m) => Some(m),
            _ => None,
        }
    }

    /// Folds the exact representation state into a hasher: the format,
    /// its mode bits (pointer vs pattern, broadcast-overflow), its raw
    /// contents, and the `set_only` owner hint. Two sets that *represent*
    /// the same sharers can still behave differently later (a pattern
    /// stays a pattern after removals where pointers stay precise; the
    /// owner hint short-circuits `solo`), so state fingerprinting must
    /// hash the representation, never the represented set.
    pub fn fold_raw<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.only.hash(h);
        match &self.inner {
            SharerInner::Cenju4(m) => match m.as_pointers() {
                Some(p) => (0u8, p.to_bits()).hash(h),
                None => {
                    let p = m.as_pattern().expect("repr says pattern");
                    (1u8, p.to_bits()).hash(h)
                }
            },
            SharerInner::FullMap(m) => (2u8, m.represented()).hash(h),
            SharerInner::Limited(m) => (3u8, m.is_broadcast(), m.represented()).hash(h),
            SharerInner::Coarse(m) => (4u8, m.represented()).hash(h),
        }
    }

    /// The `set_only` hint if it is still valid, else the *lowest*
    /// represented node of any non-empty set (`None` when empty). A home
    /// relies on it only for Dirty entries, whose set is a singleton, so
    /// it names a dirty block's true owner even under imprecise
    /// representations (a coarse vector's represented set covers the
    /// owner's whole group). Never allocates.
    pub fn solo(&self) -> Option<NodeId> {
        self.only.or_else(|| self.lowest())
    }

    /// Scrubs a quarantined node from the set, as precisely as the
    /// representation allows: pointer forms drop it exactly, the full map
    /// clears its bit, and imprecise forms (bit pattern, broadcast,
    /// coarse vector) shed what they can while staying a superset of the
    /// surviving sharers. Directory reconstruction after a node failure
    /// runs this over every entry; any residual representation of the
    /// dead node is harmless because the fabric discards frames addressed
    /// to quarantined nodes.
    pub fn scrub(&mut self, node: NodeId) {
        if self.only == Some(node) {
            self.only = None;
        }
        match &mut self.inner {
            SharerInner::Cenju4(m) => m.scrub(node),
            SharerInner::FullMap(m) => {
                m.remove(node);
            }
            SharerInner::Limited(m) => m.scrub(node),
            SharerInner::Coarse(m) => m.scrub(node),
        }
    }

    /// The destination specification for an invalidation or update push:
    /// every represented sharer, minus `exclude` (the requesting master)
    /// when the representation can exclude it precisely. Imprecise
    /// representations (bit pattern, broadcast, coarse vector) may
    /// deliver to the master, which then acks its own message — the
    /// paper's behaviour for the bit-pattern case.
    pub fn push_spec(&self, exclude: NodeId, sys: SystemSize) -> DestSpec {
        match &self.inner {
            SharerInner::Cenju4(m) => match m.as_pointers() {
                Some(p) => {
                    let mut q = *p;
                    q.remove(exclude);
                    DestSpec::Pointers(q)
                }
                None => m.to_dest_spec(),
            },
            SharerInner::FullMap(m) => DestSpec::mask(m.iter().filter(|&n| n != exclude)),
            SharerInner::Limited(m) => {
                if m.is_broadcast() {
                    DestSpec::mask(sys.iter())
                } else {
                    let mut q = PointerSet::new();
                    for n in m.represented() {
                        if n != exclude {
                            q.insert(n);
                        }
                    }
                    DestSpec::Pointers(q)
                }
            }
            SharerInner::Coarse(m) => DestSpec::mask(m.iter()),
        }
    }
}

impl NodeMap for SharerSet {
    fn add(&mut self, node: NodeId) {
        self.only = None;
        match &mut self.inner {
            SharerInner::Cenju4(m) => m.add(node),
            SharerInner::FullMap(m) => m.add(node),
            SharerInner::Limited(m) => m.add(node),
            SharerInner::Coarse(m) => m.add(node),
        }
    }

    fn clear(&mut self) {
        self.only = None;
        match &mut self.inner {
            SharerInner::Cenju4(m) => m.clear(),
            SharerInner::FullMap(m) => m.clear(),
            SharerInner::Limited(m) => m.clear(),
            SharerInner::Coarse(m) => m.clear(),
        }
    }

    fn contains(&self, node: NodeId) -> bool {
        match &self.inner {
            SharerInner::Cenju4(m) => m.contains(node),
            SharerInner::FullMap(m) => m.contains(node),
            SharerInner::Limited(m) => m.contains(node),
            SharerInner::Coarse(m) => m.contains(node),
        }
    }

    fn count(&self) -> u32 {
        match &self.inner {
            SharerInner::Cenju4(m) => m.count(),
            SharerInner::FullMap(m) => m.count(),
            SharerInner::Limited(m) => m.count(),
            SharerInner::Coarse(m) => m.count(),
        }
    }

    fn represented(&self) -> Vec<NodeId> {
        match &self.inner {
            SharerInner::Cenju4(m) => m.represented(),
            SharerInner::FullMap(m) => m.represented(),
            SharerInner::Limited(m) => m.represented(),
            SharerInner::Coarse(m) => m.represented(),
        }
    }

    fn lowest(&self) -> Option<NodeId> {
        match &self.inner {
            SharerInner::Cenju4(m) => m.lowest(),
            SharerInner::FullMap(m) => m.lowest(),
            SharerInner::Limited(m) => m.lowest(),
            SharerInner::Coarse(m) => m.lowest(),
        }
    }

    fn set_only(&mut self, node: NodeId) {
        self.clear();
        self.add(node);
        self.only = Some(node);
    }

    fn scheme_name(&self) -> &'static str {
        match &self.inner {
            SharerInner::Cenju4(m) => m.scheme_name(),
            SharerInner::FullMap(m) => m.scheme_name(),
            SharerInner::Limited(m) => m.scheme_name(),
            SharerInner::Coarse(m) => m.scheme_name(),
        }
    }

    fn storage_bits(&self) -> u32 {
        match &self.inner {
            SharerInner::Cenju4(m) => m.storage_bits(),
            SharerInner::FullMap(m) => m.storage_bits(),
            SharerInner::Limited(m) => m.storage_bits(),
            SharerInner::Coarse(m) => m.storage_bits(),
        }
    }
}

// The `only` hint is derived metadata (a cache of set_only history), so
// equality compares the represented sets alone — a round trip through
// the 64-bit packing, which cannot carry the hint, stays equal.
impl PartialEq for SharerSet {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
    }
}

impl Eq for SharerSet {}

impl fmt::Debug for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            SharerInner::Cenju4(m) => m.fmt(f),
            SharerInner::FullMap(m) => m.fmt(f),
            SharerInner::Limited(m) => m.fmt(f),
            SharerInner::Coarse(m) => m.fmt(f),
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
    fn id_names_round_trip() {
        for id in DirectoryId::ALL {
            assert_eq!(DirectoryId::parse(id.name()), Some(id));
            assert_eq!(id.to_string(), id.name());
        }
        assert_eq!(DirectoryId::parse("no-such-format"), None);
        assert_eq!(DirectoryId::default(), DirectoryId::PointerPattern);
    }

    #[test]
    fn every_engine_format_instantiates_empty() {
        for id in DirectoryId::ALL {
            let s = id.instantiate(sys(64));
            assert!(s.is_empty(), "{id}");
            assert_eq!(s.format(), id);
        }
    }

    #[test]
    fn cost_only_formats_do_not_instantiate() {
        for f in [
            &ChainedFormat as &dyn DirectoryFormat,
            &LimitLessFormat,
            &DynamicPointerFormat,
            &OriginFormat,
        ] {
            assert!(f.instantiate(sys(64)).is_none(), "{}", f.name());
        }
    }

    #[test]
    fn solo_survives_imprecision() {
        for id in DirectoryId::ALL {
            let mut s = id.instantiate(sys(1024));
            s.set_only(NodeId::new(100));
            // A coarse vector represents node 100's whole group, but the
            // precise owner must still be recoverable.
            assert_eq!(s.solo(), Some(NodeId::new(100)), "{id}");
            s.add(NodeId::new(7));
            assert_ne!(s.count(), 1, "{id}");
        }
    }

    #[test]
    fn solo_hint_invalidated_by_add_and_clear() {
        let mut s = SharerSet::coarse_vector(sys(1024));
        s.set_only(NodeId::new(100));
        s.add(NodeId::new(200));
        // Hint gone; represented set is two groups, no solo.
        assert!(s.count() > 1);
        s.clear();
        assert_eq!(s.solo(), None);
    }

    #[test]
    fn solo_returns_the_lowest_of_a_wider_set() {
        // Five sharers force the bit pattern; with no set_only hint, solo
        // names the lowest *represented* node rather than refusing. Here
        // that is node 0, a false sharer the cross product admits (every
        // field holds a zero digit).
        let mut s = SharerSet::cenju4(sys(128));
        for n in [100u16, 37, 64, 5, 90] {
            s.add(NodeId::new(n));
        }
        assert!(s.count() > 1);
        assert_eq!(s.solo(), Some(NodeId::new(0)));
        assert_eq!(s.solo(), s.represented().first().copied());
    }

    #[test]
    fn push_spec_excludes_master_when_precise() {
        let s1024 = sys(1024);
        for id in [DirectoryId::PointerPattern, DirectoryId::FullMap] {
            let mut s = id.instantiate(s1024);
            s.add(NodeId::new(1));
            s.add(NodeId::new(2));
            let spec = s.push_spec(NodeId::new(1), s1024);
            assert!(!spec.contains(NodeId::new(1)), "{id}");
            assert!(spec.contains(NodeId::new(2)), "{id}");
            assert_eq!(spec.fanout(s1024), 1, "{id}");
        }
    }

    #[test]
    fn push_spec_imprecise_may_include_master() {
        let s1024 = sys(1024);
        let mut s = SharerSet::coarse_vector(s1024);
        s.add(NodeId::new(1));
        s.add(NodeId::new(2)); // same 32-node group as node 1
        let spec = s.push_spec(NodeId::new(1), s1024);
        assert!(spec.contains(NodeId::new(1)));
        assert_eq!(spec.fanout(s1024), 32);

        let mut b = SharerSet::limited_pointer(s1024);
        for n in 0..5u16 {
            b.add(NodeId::new(n)); // overflow to broadcast
        }
        let spec = b.push_spec(NodeId::new(0), s1024);
        assert!(spec.contains(NodeId::new(0)));
        assert_eq!(spec.fanout(s1024), 1024);
    }

    #[test]
    fn scrub_removes_precise_sharers() {
        for id in [DirectoryId::PointerPattern, DirectoryId::FullMap] {
            let mut s = id.instantiate(sys(64));
            s.add(NodeId::new(1));
            s.add(NodeId::new(2));
            s.scrub(NodeId::new(1));
            assert!(!s.contains(NodeId::new(1)), "{id}");
            assert!(s.contains(NodeId::new(2)), "{id}");
        }
    }

    #[test]
    fn scrub_clears_the_solo_hint() {
        let mut s = SharerSet::cenju4(sys(64));
        s.set_only(NodeId::new(5));
        s.scrub(NodeId::new(5));
        assert_eq!(s.solo(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn scrub_pattern_stays_superset_of_survivors() {
        // Imprecise pattern (1024 nodes): survivors are never lost, but
        // the cross product may keep covering the dead node.
        let mut s = SharerSet::cenju4(sys(1024));
        for n in [0u16, 4, 5, 32, 164] {
            s.add(NodeId::new(n)); // five sharers force the pattern
        }
        s.scrub(NodeId::new(164));
        for n in [0u16, 4, 5, 32] {
            assert!(s.contains(NodeId::new(n)), "survivor {n} lost");
        }

        // In a <= 32-node system the pattern is lossless, so the scrub
        // removes the dead node exactly.
        let mut p = SharerSet::cenju4(sys(32));
        for n in 0..6u16 {
            p.add(NodeId::new(n));
        }
        p.scrub(NodeId::new(3));
        assert!(!p.contains(NodeId::new(3)));
        for n in [0u16, 1, 2, 4, 5] {
            assert!(p.contains(NodeId::new(n)), "survivor {n} lost");
        }
    }

    #[test]
    fn scrub_imprecise_forms_keep_superset() {
        // Broadcast mode cannot name the dead node: it stays represented.
        let mut b = SharerSet::limited_pointer(sys(64));
        for n in 0..5u16 {
            b.add(NodeId::new(n));
        }
        b.scrub(NodeId::new(3));
        assert!(b.contains(NodeId::new(4)));

        // A coarse group bit survives while groupmates may share it…
        let mut c = SharerSet::coarse_vector(sys(1024));
        c.add(NodeId::new(100));
        c.scrub(NodeId::new(100));
        assert!(c.contains(NodeId::new(101)));

        // …but clears when each bit stands for exactly one node.
        let mut c1 = SharerSet::coarse_vector(sys(16));
        c1.add(NodeId::new(7));
        c1.scrub(NodeId::new(7));
        assert!(!c1.contains(NodeId::new(7)));
    }

    #[test]
    fn equality_ignores_the_solo_hint() {
        let mut a = SharerSet::cenju4(sys(64));
        let mut b = SharerSet::cenju4(sys(64));
        a.set_only(NodeId::new(3));
        b.add(NodeId::new(3));
        assert_eq!(a, b);
        assert_eq!(a.solo(), b.solo()); // singleton: both recover node 3
    }

    #[test]
    fn debug_delegates_to_inner_map() {
        let mut s = SharerSet::cenju4(sys(64));
        s.add(NodeId::new(3));
        let direct = {
            let mut m = Cenju4NodeMap::new(sys(64));
            m.add(NodeId::new(3));
            format!("{m:?}")
        };
        assert_eq!(format!("{s:?}"), direct);
    }

    #[test]
    fn scheme_cost_axes_match_formats() {
        assert_eq!(PointerPatternFormat.storage_bits_per_block(1024), 64);
        assert_eq!(FullMapFormat.storage_bits_per_block(1024), 1024);
        assert_eq!(FullMapFormat.accesses_to_enumerate(1024, 1024), 16);
        assert_eq!(LimitedPointerFormat.storage_bits_per_block(1024), 41);
        assert_eq!(CoarseVectorFormat.storage_bits_per_block(1024), 32);
        assert_eq!(ChainedFormat.accesses_to_enumerate(1024, 100), 100);
        assert_eq!(LimitLessFormat.accesses_to_enumerate(1024, 10), 7);
        assert_eq!(OriginFormat.storage_bits_per_block(1024), 34);
    }
}
