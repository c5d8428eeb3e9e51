//! The per-node secondary cache: MESI states over 128-byte lines.

use crate::addr::Addr;
use core::fmt;
use std::sync::Arc;

/// State of a cache line: the paper's MESI states (`M^c`, `E^c`, `S^c`,
/// `I^c`) plus the Dragon protocol's shared-modified state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheState {
    /// Modified: sole valid copy, memory stale.
    Modified,
    /// Exclusive: sole copy, memory valid.
    Exclusive,
    /// Shared: one of possibly many copies, memory valid.
    Shared,
    /// Shared-modified (Dragon only): one of possibly many copies, held
    /// by the last writer. Memory is valid here — every Dragon store
    /// writes through the home — so the line is readable but further
    /// stores must go back through the home, and eviction is silent.
    SharedModified,
    /// Invalid (not cached).
    Invalid,
}

impl CacheState {
    /// Whether a load can be satisfied from this state.
    #[inline]
    pub fn readable(self) -> bool {
        !matches!(self, CacheState::Invalid)
    }

    /// Whether a store can be satisfied without any coherence action
    /// (Modified) or with a silent upgrade (Exclusive).
    #[inline]
    pub fn writable(self) -> bool {
        matches!(self, CacheState::Modified | CacheState::Exclusive)
    }
}

impl fmt::Display for CacheState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheState::Modified => "M",
            CacheState::Exclusive => "E",
            CacheState::Shared => "S",
            CacheState::SharedModified => "Sm",
            CacheState::Invalid => "I",
        })
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    key: u64,
    state: CacheState,
    stamp: u64,
    value: u64,
}

/// Filler for the unused ways of a pooled set.
const EMPTY: Line = Line {
    key: 0,
    state: CacheState::Invalid,
    stamp: 0,
    value: 0,
};

/// An eviction produced by a cache fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// The evicted block.
    pub addr: Addr,
    /// Whether the block was Modified and must be written back. Clean
    /// (Exclusive/Shared) victims are dropped silently — the paper's
    /// protocol only defines a writeback for `M^c` blocks, so the
    /// directory may keep stale sharers (harmless over-approximation).
    pub dirty: bool,
    /// The data the victim held (meaningful when `dirty`).
    pub value: u64,
}

/// A set-associative cache of 128-byte lines with LRU replacement.
///
/// Cenju-4 pairs each R10000 with a 1 MB secondary cache; the default
/// geometry is 1 MB / 128 B lines / 4-way (8192 lines, 2048 sets).
///
/// Storage follows the lines actually resident, not the geometry: a set
/// gets a pooled chunk of `assoc` line slots the first time a block maps
/// to it, so building, cloning, and dropping a cache costs O(filled
/// sets) — a checker scenario touches a handful of the 2048.
///
/// A set finds its chunk through a dense index, one `u16` per set holding
/// chunk + 1 (0: no chunk yet). The index covers the sets up to the
/// highest one opened, rounded up to a power of two, and all of them once
/// that passes an eighth: at most 4 KiB at the default geometry, and
/// nothing for a cache that never holds a line. A set keeps its chunk
/// until [`Cache::clear`], so clones share the index behind an [`Arc`]
/// and copy it only when one of them opens a new set. A power-of-two set
/// count selects the set with a mask.
///
/// # Examples
///
/// ```
/// use cenju4_directory::NodeId;
/// use cenju4_protocol::{Addr, Cache, CacheState};
///
/// let mut c = Cache::new(1 << 20, 4);
/// let a = Addr::new(NodeId::new(0), 1);
/// assert_eq!(c.state(a), CacheState::Invalid);
/// assert!(c.fill(a, CacheState::Shared).is_none());
/// assert_eq!(c.state(a), CacheState::Shared);
/// ```
#[derive(Debug)]
pub struct Cache {
    nsets: usize,
    assoc: usize,
    tick: u64,
    /// Chunk + 1 of each set (0: none) up to at least the highest set
    /// opened, shared by clones; `None` until the first fill.
    index: Option<Arc<[u16]>>,
    /// `assoc` line slots per chunk; the first `fill[chunk]` are resident.
    lines: Vec<Line>,
    fill: Vec<u32>,
}

cenju4_des::clone_fields!(Cache {
    nsets,
    assoc,
    tick,
    index,
    lines,
    fill
});

impl Cache {
    /// Creates a cache of `capacity_bytes` with `assoc`-way sets.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity is a whole number of between one and
    /// 65,535 sets of `assoc` 128-byte lines.
    pub fn new(capacity_bytes: u32, assoc: usize) -> Self {
        let nsets = Self::sets_for(capacity_bytes, assoc).expect("bad cache geometry");
        Cache {
            nsets,
            assoc,
            tick: 0,
            index: None,
            lines: Vec::new(),
            fill: Vec::new(),
        }
    }

    /// The most sets a cache may have: the index numbers chunks in a `u16`.
    const MAX_SETS: usize = u16::MAX as usize;

    /// The set count of a `capacity_bytes`, `assoc`-way cache, or `None`
    /// unless the capacity is a whole number of between one and
    /// [`Cache::MAX_SETS`] sets.
    pub(crate) fn sets_for(capacity_bytes: u32, assoc: usize) -> Option<usize> {
        let set_bytes = assoc.checked_mul(crate::addr::BLOCK_BYTES as usize)?;
        let capacity = capacity_bytes as usize;
        if set_bytes == 0 || !capacity.is_multiple_of(set_bytes) {
            return None;
        }
        let nsets = capacity / set_bytes;
        (1..=Self::MAX_SETS).contains(&nsets).then_some(nsets)
    }

    /// Total capacity in lines.
    pub fn lines(&self) -> usize {
        self.nsets * self.assoc
    }

    /// Drops every line (no writebacks — the power-loss reset of a
    /// quarantined node, not an orderly flush).
    pub fn clear(&mut self) {
        self.index = None;
        self.lines.clear();
        self.fill.clear();
    }

    /// Every block currently resident, in no particular order.
    pub fn resident(&self) -> Vec<Addr> {
        (0..self.fill.len())
            .flat_map(|c| self.chunk(c))
            .map(|l| key_to_addr(l.key))
            .collect()
    }

    fn set_of(&self, addr: Addr) -> usize {
        // Mix the home bits in so blocks of different homes spread out.
        let k = addr.key();
        let h = (k ^ (k >> 21) ^ (k >> 43)) as usize;
        if self.nsets.is_power_of_two() {
            h & (self.nsets - 1)
        } else {
            h % self.nsets
        }
    }

    /// The chunk of set `set`, if it has one.
    fn chunk_at(&self, set: usize) -> Option<usize> {
        let c = *self.index.as_deref()?.get(set)?;
        (c as usize).checked_sub(1)
    }

    /// The resident lines of chunk `c`.
    fn chunk(&self, c: usize) -> &[Line] {
        let base = c * self.assoc;
        &self.lines[base..base + self.fill[c] as usize]
    }

    fn line(&self, addr: Addr) -> Option<&Line> {
        let c = self.chunk_at(self.set_of(addr))?;
        self.chunk(c).iter().find(|l| l.key == addr.key())
    }

    /// The resident lines of `addr`'s set, and its chunk index.
    fn set_mut(&mut self, addr: Addr) -> Option<(&mut [Line], usize)> {
        let c = self.chunk_at(self.set_of(addr))?;
        let base = c * self.assoc;
        let len = self.fill[c] as usize;
        Some((&mut self.lines[base..base + len], c))
    }

    fn line_mut(&mut self, addr: Addr) -> Option<&mut Line> {
        let (set, _) = self.set_mut(addr)?;
        set.iter_mut().find(|l| l.key == addr.key())
    }

    /// The MESI state of `addr` (Invalid if absent). Does not touch LRU.
    pub fn state(&self, addr: Addr) -> CacheState {
        self.line(addr).map_or(CacheState::Invalid, |l| l.state)
    }

    /// Looks up `addr` for an access, updating LRU. Returns its state.
    pub fn touch(&mut self, addr: Addr) -> CacheState {
        self.tick += 1;
        let tick = self.tick;
        match self.line_mut(addr) {
            Some(l) => {
                l.stamp = tick;
                l.state
            }
            None => CacheState::Invalid,
        }
    }

    /// Installs `addr` with `state` holding `value`, evicting the LRU
    /// line of a full set. Returns the victim if one had to be evicted.
    ///
    /// # Panics
    ///
    /// Panics if `state` is `Invalid` or the line is already present
    /// (use [`Cache::set_state`] for upgrades).
    pub fn fill_value(&mut self, addr: Addr, state: CacheState, value: u64) -> Option<Victim> {
        assert_ne!(state, CacheState::Invalid, "cannot fill Invalid");
        self.tick += 1;
        let line = Line {
            key: addr.key(),
            state,
            stamp: self.tick,
            value,
        };
        let set_idx = self.set_of(addr);
        let assoc = self.assoc;
        let c = match self.chunk_at(set_idx) {
            Some(c) => c,
            None => self.open(set_idx),
        };
        let base = c * assoc;
        let len = self.fill[c] as usize;
        let set = &mut self.lines[base..base + len];
        assert!(
            set.iter().all(|l| l.key != addr.key()),
            "line already present"
        );
        if len < assoc {
            self.lines[base + len] = line;
            self.fill[c] += 1;
            return None;
        }
        // Stamps are unique, so the LRU line is the unique minimum.
        let old = set
            .iter_mut()
            .min_by_key(|l| l.stamp)
            .expect("full set is nonempty");
        let victim = Victim {
            addr: key_to_addr(old.key),
            dirty: old.state == CacheState::Modified,
            value: old.value,
        };
        *old = line;
        Some(victim)
    }

    /// Gives set `set` the next pooled chunk and returns it. Copies the
    /// index first if a clone still shares it, and grows it if it does
    /// not reach `set`.
    fn open(&mut self, set: usize) -> usize {
        let c = self.fill.len();
        self.lines.extend(std::iter::repeat_n(EMPTY, self.assoc));
        self.fill.push(0);
        let nsets = self.nsets;
        let index = match &mut self.index {
            Some(index) if set < index.len() => Arc::make_mut(index),
            slot => {
                // Powers of two while the sets used are few (a checker
                // scenario's handful of blocks), then every set, so a
                // cache spread over its sets regrows its index at most once.
                let len = (set + 1).next_power_of_two();
                let len = if len > nsets / 8 { nsets } else { len };
                let old = slot.as_deref().unwrap_or_default();
                let grown = (0..len).map(|i| old.get(i).copied().unwrap_or(0));
                Arc::get_mut(slot.insert(grown.collect())).expect("a new index is unshared")
            }
        };
        // At most one chunk per set, so `c + 1 <= nsets <= MAX_SETS`.
        index[set] = (c + 1) as u16;
        c
    }

    /// Installs `addr` with `state` and a zero value (convenience).
    ///
    /// # Panics
    ///
    /// As [`Cache::fill_value`].
    pub fn fill(&mut self, addr: Addr, state: CacheState) -> Option<Victim> {
        self.fill_value(addr, state, 0)
    }

    /// The data held for `addr` (0 if absent).
    pub fn value(&self, addr: Addr) -> u64 {
        self.line(addr).map_or(0, |l| l.value)
    }

    /// [`Cache::state`] and [`Cache::value`] from one lookup.
    pub fn state_and_value(&self, addr: Addr) -> (CacheState, u64) {
        self.line(addr)
            .map_or((CacheState::Invalid, 0), |l| (l.state, l.value))
    }

    /// Overwrites the data of a present line.
    ///
    /// # Panics
    ///
    /// Panics if the line is absent.
    pub fn set_value(&mut self, addr: Addr, value: u64) {
        self.line_mut(addr).expect("line absent").value = value;
    }

    /// Changes the state of a present line.
    ///
    /// # Panics
    ///
    /// Panics if the line is absent or `state` is `Invalid`
    /// (use [`Cache::invalidate`] to drop a line).
    pub fn set_state(&mut self, addr: Addr, state: CacheState) {
        assert_ne!(state, CacheState::Invalid, "use invalidate()");
        self.line_mut(addr).expect("line absent").state = state;
    }

    /// Drops `addr` from the cache if present. Returns the state it had.
    pub fn invalidate(&mut self, addr: Addr) -> CacheState {
        let Some((set, c)) = self.set_mut(addr) else {
            return CacheState::Invalid;
        };
        match set.iter().position(|l| l.key == addr.key()) {
            Some(i) => {
                let state = set[i].state;
                set.swap(i, set.len() - 1);
                self.fill[c] -= 1;
                state
            }
            None => CacheState::Invalid,
        }
    }

    /// Number of resident (non-invalid) lines.
    pub fn occupancy(&self) -> usize {
        self.fill.iter().map(|&n| n as usize).sum()
    }
}

fn key_to_addr(key: u64) -> Addr {
    Addr::new(
        cenju4_directory::NodeId::new((key >> 32) as u16),
        key as u32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenju4_directory::NodeId;

    fn addr(home: u16, block: u32) -> Addr {
        Addr::new(NodeId::new(home), block)
    }

    fn tiny() -> Cache {
        // 4 lines, 2-way: 2 sets.
        Cache::new(4 * 128, 2)
    }

    #[test]
    fn fill_and_state() {
        let mut c = tiny();
        let a = addr(0, 1);
        assert!(c.fill(a, CacheState::Exclusive).is_none());
        assert_eq!(c.state(a), CacheState::Exclusive);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn upgrade_states() {
        let mut c = tiny();
        let a = addr(0, 1);
        c.fill(a, CacheState::Shared);
        c.set_state(a, CacheState::Modified);
        assert_eq!(c.state(a), CacheState::Modified);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        let a = addr(0, 1);
        c.fill(a, CacheState::Modified);
        assert_eq!(c.invalidate(a), CacheState::Modified);
        assert_eq!(c.state(a), CacheState::Invalid);
        assert_eq!(c.invalidate(a), CacheState::Invalid);
    }

    #[test]
    fn lru_eviction_of_dirty_line_reports_writeback() {
        let mut c = Cache::new(2 * 128, 2); // one set, 2 ways
        let (a, b, d) = (addr(0, 0), addr(0, 1), addr(0, 2));
        c.fill(a, CacheState::Modified);
        c.fill(b, CacheState::Shared);
        c.touch(b); // make `a` the LRU line
        let v = c.fill(d, CacheState::Shared).expect("eviction");
        assert_eq!(v.addr, a);
        assert!(v.dirty);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = Cache::new(2 * 128, 2);
        c.fill(addr(0, 0), CacheState::Exclusive);
        c.fill(addr(0, 1), CacheState::Shared);
        c.touch(addr(0, 1));
        let v = c.fill(addr(0, 2), CacheState::Shared).expect("eviction");
        assert!(!v.dirty, "Exclusive (clean) victim needs no writeback");
    }

    #[test]
    fn touch_updates_lru() {
        let mut c = Cache::new(2 * 128, 2);
        let (a, b) = (addr(0, 0), addr(0, 1));
        c.fill(a, CacheState::Shared);
        c.fill(b, CacheState::Shared);
        c.touch(a); // b becomes LRU
        let v = c.fill(addr(0, 2), CacheState::Shared).unwrap();
        assert_eq!(v.addr, b);
    }

    #[test]
    fn readable_writable_classification() {
        assert!(CacheState::Shared.readable());
        assert!(!CacheState::Invalid.readable());
        assert!(CacheState::Modified.writable());
        assert!(CacheState::Exclusive.writable());
        assert!(!CacheState::Shared.writable());
    }

    #[test]
    fn different_homes_do_not_collide_logically() {
        let mut c = tiny();
        let a = addr(1, 7);
        let b = addr(2, 7);
        c.fill(a, CacheState::Shared);
        if c.state(b) == CacheState::Invalid {
            // Regardless of set placement, the keys must be distinct lines.
            let _ = c.fill(b, CacheState::Exclusive);
        }
        assert_eq!(c.state(a), CacheState::Shared);
    }

    #[test]
    fn default_geometry_is_1mb_4way() {
        let c = Cache::new(1 << 20, 4);
        assert_eq!(c.lines(), 8192);
    }
}

/// The pooled cache against the per-set `Vec` layout it replaced, kept
/// here as the model: seeded operation sequences must agree on every
/// returned state, value, and victim, on occupancy, and on the resident
/// set.
#[cfg(test)]
mod model_tests {
    use super::*;
    use cenju4_des::SplitMix64;
    use cenju4_directory::NodeId;

    /// One `Vec` per set, swap-removed on eviction and invalidation.
    #[derive(Clone)]
    struct VecCache {
        sets: Vec<Vec<Line>>,
        assoc: usize,
        tick: u64,
    }

    impl VecCache {
        fn new(capacity_bytes: u32, assoc: usize) -> Self {
            let nsets = (capacity_bytes / crate::addr::BLOCK_BYTES) as usize / assoc;
            VecCache {
                sets: vec![Vec::with_capacity(assoc); nsets],
                assoc,
                tick: 0,
            }
        }

        fn set_of(&self, addr: Addr) -> usize {
            let k = addr.key();
            let h = k ^ (k >> 21) ^ (k >> 43);
            (h as usize) % self.sets.len()
        }

        fn line(&self, addr: Addr) -> Option<&Line> {
            self.sets[self.set_of(addr)]
                .iter()
                .find(|l| l.key == addr.key())
        }

        fn line_mut(&mut self, addr: Addr) -> Option<&mut Line> {
            let s = self.set_of(addr);
            self.sets[s].iter_mut().find(|l| l.key == addr.key())
        }

        fn state(&self, addr: Addr) -> CacheState {
            self.line(addr).map_or(CacheState::Invalid, |l| l.state)
        }

        fn value(&self, addr: Addr) -> u64 {
            self.line(addr).map_or(0, |l| l.value)
        }

        fn touch(&mut self, addr: Addr) -> CacheState {
            self.tick += 1;
            let tick = self.tick;
            match self.line_mut(addr) {
                Some(l) => {
                    l.stamp = tick;
                    l.state
                }
                None => CacheState::Invalid,
            }
        }

        fn fill_value(&mut self, addr: Addr, state: CacheState, value: u64) -> Option<Victim> {
            self.tick += 1;
            let (tick, assoc, s) = (self.tick, self.assoc, self.set_of(addr));
            let set = &mut self.sets[s];
            let victim = (set.len() == assoc).then(|| {
                let (i, _) = set.iter().enumerate().min_by_key(|(_, l)| l.stamp).unwrap();
                let old = set.swap_remove(i);
                Victim {
                    addr: key_to_addr(old.key),
                    dirty: old.state == CacheState::Modified,
                    value: old.value,
                }
            });
            set.push(Line {
                key: addr.key(),
                state,
                stamp: tick,
                value,
            });
            victim
        }

        fn invalidate(&mut self, addr: Addr) -> CacheState {
            let s = self.set_of(addr);
            let set = &mut self.sets[s];
            match set.iter().position(|l| l.key == addr.key()) {
                Some(i) => set.swap_remove(i).state,
                None => CacheState::Invalid,
            }
        }

        fn clear(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
        }

        fn occupancy(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }

        fn resident(&self) -> Vec<Addr> {
            self.sets
                .iter()
                .flatten()
                .map(|l| key_to_addr(l.key))
                .collect()
        }
    }

    const STATES: [CacheState; 4] = [
        CacheState::Modified,
        CacheState::Exclusive,
        CacheState::Shared,
        CacheState::SharedModified,
    ];

    /// A pooled cache and its model, driven in lockstep.
    #[derive(Clone)]
    struct Twin {
        cache: Cache,
        model: VecCache,
    }

    impl Twin {
        fn new(capacity_bytes: u32, assoc: usize) -> Self {
            let twin = Twin {
                cache: Cache::new(capacity_bytes, assoc),
                model: VecCache::new(capacity_bytes, assoc),
            };
            assert_eq!(twin.cache.lines(), twin.model.sets.len() * assoc);
            twin
        }

        /// `hot_sets * (assoc + 2)` blocks that map to the first
        /// `hot_sets` sets, so those sets fill and evict.
        fn universe(&self, hot_sets: usize) -> Vec<Addr> {
            (0..u32::MAX)
                .flat_map(|b| (0..4).map(move |h| Addr::new(NodeId::new(h), b)))
                .filter(|&a| self.model.set_of(a) < hot_sets)
                .take(hot_sets * (self.model.assoc + 2))
                .collect()
        }

        /// Applies one seeded operation on a block of `universe` to both
        /// sides (a power-loss reset if `reset`) and checks that they
        /// agree. Returns whether a fill evicted.
        fn step(&mut self, rng: &mut SplitMix64, universe: &[Addr], reset: bool, at: &str) -> bool {
            let Twin { cache, model } = self;
            let addr = universe[rng.next_below(universe.len() as u64) as usize];
            let present = model.state(addr) != CacheState::Invalid;
            let state = STATES[rng.next_below(4) as usize];
            let value = rng.next_below(1_000);
            let ctx = format!("{at} {addr:?}");
            let op = if reset { 8 } else { rng.next_below(8) };
            let mut evicted = false;
            match op {
                0 | 1 if !present => {
                    let victim = model.fill_value(addr, state, value);
                    evicted = victim.is_some();
                    assert_eq!(cache.fill_value(addr, state, value), victim, "{ctx}");
                }
                0..=2 => assert_eq!(cache.touch(addr), model.touch(addr), "{ctx}"),
                3 => assert_eq!(cache.state(addr), model.state(addr), "{ctx}"),
                4 => {
                    assert_eq!(cache.value(addr), model.value(addr), "{ctx}");
                    let both = (model.state(addr), model.value(addr));
                    assert_eq!(cache.state_and_value(addr), both, "{ctx}");
                }
                5 if present => {
                    model.line_mut(addr).unwrap().state = state;
                    cache.set_state(addr, state);
                }
                6 if present => {
                    model.line_mut(addr).unwrap().value = value;
                    cache.set_value(addr, value);
                }
                5..=7 => assert_eq!(cache.invalidate(addr), model.invalidate(addr), "{ctx}"),
                _ => {
                    model.clear();
                    cache.clear();
                }
            }
            assert_eq!(cache.occupancy(), model.occupancy(), "{ctx}");
            let (mut got, mut want) = (cache.resident(), model.resident());
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{ctx}");
            evicted
        }

        fn shares_index_with(&self, other: &Twin) -> bool {
            match (&self.cache.index, &other.cache.index) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
        }
    }

    /// Drives `ops` seeded operations through both caches over a block
    /// universe that maps to at most `hot_sets` sets, so sets fill and
    /// evict.
    fn agree(capacity_bytes: u32, assoc: usize, hot_sets: usize, seed: u64, ops: usize) {
        let mut twin = Twin::new(capacity_bytes, assoc);
        let universe = twin.universe(hot_sets);
        let mut rng = SplitMix64::new(seed);
        let mut evictions = 0;
        for step in 0..ops {
            // A power-loss reset every 500 operations.
            let reset = step % 500 == 499;
            let at = format!("seed {seed} step {step}");
            evictions += usize::from(twin.step(&mut rng, &universe, reset, &at));
        }
        assert!(evictions > 0, "the sequence never evicted");
    }

    /// Warms a cache over the lower half of `hot_sets`, clones it, and
    /// drives the two apart, each against its own clone of the model:
    /// first the original opens the upper sets while the clone stays in
    /// the lower ones, then the clone alone is reset and both roam every
    /// hot set, opening sets in different orders.
    fn forks_diverge(capacity_bytes: u32, assoc: usize, hot_sets: usize, seed: u64) {
        let mut a = Twin::new(capacity_bytes, assoc);
        let every = a.universe(hot_sets);
        let lower: Vec<Addr> = every
            .iter()
            .copied()
            .filter(|&x| a.model.set_of(x) < hot_sets.div_ceil(2))
            .collect();
        let (mut rng_a, mut rng_b) = (SplitMix64::new(seed), SplitMix64::new(!seed));
        let mut evictions = 0;
        for step in 0..1_000 {
            let at = format!("seed {seed} warm step {step}");
            evictions += usize::from(a.step(&mut rng_a, &lower, false, &at));
        }
        let mut b = a.clone();
        assert!(a.shares_index_with(&b), "a clone shares the index");
        for step in 0..1_000 {
            let at = format!("seed {seed} split step {step}");
            evictions += usize::from(a.step(&mut rng_a, &every, false, &format!("{at} a")));
            evictions += usize::from(b.step(&mut rng_b, &lower, false, &format!("{at} b")));
        }
        assert!(!a.shares_index_with(&b), "opening a set unshares the index");
        b.step(&mut rng_b, &every, true, &format!("seed {seed} reset b"));
        for step in 0..1_000 {
            let at = format!("seed {seed} roam step {step}");
            evictions += usize::from(a.step(&mut rng_a, &every, false, &format!("{at} a")));
            evictions += usize::from(b.step(&mut rng_b, &every, false, &format!("{at} b")));
        }
        assert!(evictions > 0, "the sequences never evicted");
    }

    #[test]
    fn default_geometry_agrees_with_the_vec_model() {
        for seed in 0..4 {
            agree(1 << 20, 4, 6, seed, 3_000);
        }
    }

    #[test]
    fn three_set_geometry_agrees_with_the_vec_model() {
        for seed in 0..4 {
            agree(3 * 4 * 128, 4, 3, seed, 3_000);
        }
    }

    #[test]
    fn direct_mapped_geometry_agrees_with_the_vec_model() {
        for seed in 0..4 {
            agree(8 * 128, 1, 8, seed, 3_000);
        }
    }

    #[test]
    fn forked_caches_diverge_independently() {
        for seed in 0..4 {
            forks_diverge(1 << 20, 4, 6, seed);
            forks_diverge(3 * 4 * 128, 4, 3, seed);
            forks_diverge(8 * 128, 1, 8, seed);
        }
    }
}
