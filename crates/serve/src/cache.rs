//! Byte-bounded result cache with in-flight coalescing.
//!
//! Every simulate query is keyed by its [`SimKey`] (canonical config
//! fingerprint + workload knobs). The first request for a key claims an
//! `InFlight` slot and runs the simulation; concurrent requests for the
//! same key park on a condvar and receive the very same result string;
//! later requests hit the finished slot. The claim is an atomic
//! check-and-insert under one mutex, so **exactly one** simulation runs
//! per resident key at any concurrency — while the working set fits the
//! budget, the `sims` counter equals the number of distinct keys served,
//! which the stress test pins exactly.
//!
//! A claimed key must always resolve: the owner publishes either
//! [`ResultCache::fill`] (success) or [`ResultCache::fail`] (error —
//! including a panicking simulation, via the claim guard in
//! `server::simulate`). The simulator is deterministic, so a failure is
//! cached like a success and every later request for that key receives
//! the same error without re-running. Waiters hold the in-flight slot's
//! outcome cell rather than looking the key up again, so they resolve
//! even if the finished slot is evicted before they wake: an `InFlight`
//! slot can never outlive its owner, and waiters can never wedge.
//!
//! # Memory bound
//!
//! Finished slots are charged their string's length plus
//! [`ENTRY_OVERHEAD`] bytes against a constant [`BUDGET_BYTES`]. Resident
//! keys sit in a ring swept by CLOCK second-chance eviction: a hit sets
//! the slot's reference bit, and `fill`/`fail` advance the hand — clearing
//! set bits, evicting unreferenced finished slots — until the cache is
//! within budget. `InFlight` slots are never evicted (they are charged
//! nothing; at most one exists per running simulation). An evicted key is
//! simply claimed and simulated again, and since the simulator is
//! deterministic the re-run renders byte-identical bytes: eviction costs
//! time, never a changed response.

use crate::proto::SimKey;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Bytes the finished slots may occupy, overhead included.
pub const BUDGET_BYTES: usize = 1 << 20;

/// Bytes charged per finished slot on top of its string: the map entry,
/// the ring position, and the `Arc` header.
pub const ENTRY_OVERHEAD: usize = 96;

/// Deterministic service counters. `hits` and `coalesced` individually
/// depend on timing (a duplicate arriving after completion is a hit,
/// before is a coalesce), but their sum — and `sims` — are exact at any
/// thread count while the working set fits the cache budget.
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests handled (every command).
    pub requests: AtomicU64,
    /// Simulations actually run: the distinct keys served, plus one
    /// byte-identical re-run per evicted key that was asked for again.
    pub sims: AtomicU64,
    /// Queries served from a completed cache entry.
    pub hits: AtomicU64,
    /// Queries that coalesced onto an in-flight simulation.
    pub coalesced: AtomicU64,
    /// Finished cache entries evicted to stay within the byte budget.
    pub evictions: AtomicU64,
    /// Checkpoints taken.
    pub snapshots: AtomicU64,
    /// Live runs started (including resumes).
    pub runs: AtomicU64,
}

impl Counters {
    /// Queries that did not cost a simulation: cache hits + coalesced.
    /// Exact at any thread count.
    pub fn deduped(&self) -> u64 {
        self.hits.load(Ordering::SeqCst) + self.coalesced.load(Ordering::SeqCst)
    }
}

/// How a claimed key resolved, shared by every response for it.
#[derive(Clone)]
enum Outcome {
    /// The finished result line body.
    Done(Arc<String>),
    /// The simulation failed; the error message.
    Failed(Arc<String>),
}

impl Outcome {
    fn bytes(&self) -> usize {
        let (Outcome::Done(s) | Outcome::Failed(s)) = self;
        s.len() + ENTRY_OVERHEAD
    }

    fn claim(&self) -> Claim {
        match self {
            Outcome::Done(r) => Claim::Served(Arc::clone(r)),
            Outcome::Failed(e) => Claim::Failed(Arc::clone(e)),
        }
    }
}

enum Slot {
    /// Claimed: a worker is simulating this key right now. Coalesced
    /// waiters hold the cell, which the owner sets before waking them.
    InFlight(Arc<OnceLock<Outcome>>),
    /// Finished; `referenced` is the CLOCK second-chance bit.
    Finished { outcome: Outcome, referenced: bool },
}

struct Slots {
    map: HashMap<SimKey, Slot>,
    /// Every key in `map`; the front is the CLOCK hand.
    ring: VecDeque<SimKey>,
    /// Bytes charged by the finished slots.
    bytes: usize,
    budget: usize,
}

impl Slots {
    /// Publishes the outcome of a claimed key, then sweeps the CLOCK hand
    /// until the finished slots fit the budget.
    fn finish(&mut self, key: SimKey, outcome: Outcome, counters: &Counters) {
        self.bytes += outcome.bytes();
        let finished = Slot::Finished {
            outcome: outcome.clone(),
            referenced: false,
        };
        match self.map.insert(key, finished) {
            Some(Slot::InFlight(cell)) => {
                let _ = cell.set(outcome);
            }
            // Only a claimed key is published, so this is a broken
            // caller; keep the accounting exact all the same.
            Some(Slot::Finished { outcome: old, .. }) => self.bytes -= old.bytes(),
            None => self.ring.push_back(key),
        }
        // Terminates: only finished slots are charged, so while over
        // budget one exists, and the hand reaches it at most twice (once
        // to clear its bit, once to evict it).
        while self.bytes > self.budget {
            let key = self
                .ring
                .pop_front()
                .expect("charged bytes imply a resident finished slot");
            match self.map.get_mut(&key) {
                Some(Slot::Finished {
                    outcome,
                    referenced: false,
                }) => {
                    self.bytes -= outcome.bytes();
                    self.map.remove(&key);
                    counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
                Some(Slot::Finished { referenced, .. }) => {
                    *referenced = false;
                    self.ring.push_back(key);
                }
                Some(Slot::InFlight(_)) => self.ring.push_back(key),
                None => unreachable!("the ring holds exactly the resident keys"),
            }
        }
    }
}

/// The dedup/result cache.
pub struct ResultCache {
    slots: Mutex<Slots>,
    ready: Condvar,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::with_budget(BUDGET_BYTES)
    }
}

/// What [`ResultCache::claim`] decided.
pub enum Claim {
    /// The caller owns the key: run the simulation, then publish with
    /// [`ResultCache::fill`] or [`ResultCache::fail`].
    Run,
    /// Someone else already computed (or is computing) it.
    Served(Arc<String>),
    /// Someone else already tried it and it failed; the cached error.
    Failed(Arc<String>),
}

impl ResultCache {
    fn with_budget(budget: usize) -> ResultCache {
        ResultCache {
            slots: Mutex::new(Slots {
                map: HashMap::new(),
                ring: VecDeque::new(),
                bytes: 0,
                budget,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Slots> {
        self.slots
            .lock()
            .expect("cache lock poisoned: a holder panicked")
    }

    /// Atomically claims `key`, or waits for / returns the existing
    /// result. Increments the matching counter on `counters`.
    pub fn claim(&self, key: SimKey, counters: &Counters) -> Claim {
        let mut slots = self.lock();
        let cell = match slots.map.get_mut(&key) {
            None => {
                slots.map.insert(key, Slot::InFlight(Arc::default()));
                slots.ring.push_back(key);
                counters.sims.fetch_add(1, Ordering::SeqCst);
                return Claim::Run;
            }
            Some(Slot::Finished {
                outcome,
                referenced,
            }) => {
                *referenced = true;
                counters.hits.fetch_add(1, Ordering::SeqCst);
                return outcome.claim();
            }
            Some(Slot::InFlight(cell)) => Arc::clone(cell),
        };
        counters.coalesced.fetch_add(1, Ordering::SeqCst);
        loop {
            if let Some(outcome) = cell.get() {
                return outcome.claim();
            }
            slots = self
                .ready
                .wait(slots)
                .expect("cache lock poisoned: a holder panicked");
        }
    }

    /// Publishes the result for a claimed key and wakes the coalesced
    /// waiters. May evict other finished entries (see the module docs).
    pub fn fill(&self, key: SimKey, result: String, counters: &Counters) -> Arc<String> {
        let result = Arc::new(result);
        self.lock()
            .finish(key, Outcome::Done(Arc::clone(&result)), counters);
        self.ready.notify_all();
        result
    }

    /// Publishes a failure for a claimed key and wakes the coalesced
    /// waiters. The error is cached: the simulator is deterministic, so
    /// retrying the same key would fail the same way.
    pub fn fail(&self, key: SimKey, error: String, counters: &Counters) -> Arc<String> {
        let error = Arc::new(error);
        self.lock()
            .finish(key, Outcome::Failed(Arc::clone(&error)), counters);
        self.ready.notify_all();
        error
    }

    /// Number of completed entries (test observability).
    pub fn len(&self) -> usize {
        self.lock()
            .map
            .values()
            .filter(|s| {
                matches!(
                    s,
                    Slot::Finished {
                        outcome: Outcome::Done(_),
                        ..
                    }
                )
            })
            .count()
    }

    /// Whether the cache holds no completed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenju4_workloads::{AppKind, Variant};
    use std::sync::atomic::Ordering;

    fn key_n(n: u64) -> SimKey {
        SimKey {
            cfg: 0xC0FFEE + n,
            app: AppKind::Cg,
            variant: Variant::Dsm2,
            mapping: false,
            scale_bits: 1.0f64.to_bits(),
        }
    }

    fn key() -> SimKey {
        key_n(0)
    }

    /// A 100-byte result: each finished slot charges 196 bytes.
    fn result(n: u64) -> String {
        format!("{n:0>100}")
    }

    /// Room for exactly four finished 100-byte results.
    fn small_cache() -> ResultCache {
        ResultCache::with_budget(4 * (100 + ENTRY_OVERHEAD))
    }

    fn resident_bytes(cache: &ResultCache) -> usize {
        let slots = cache.lock();
        let recount: usize = slots
            .map
            .values()
            .map(|s| match s {
                Slot::Finished { outcome, .. } => outcome.bytes(),
                Slot::InFlight(_) => 0,
            })
            .sum();
        assert_eq!(recount, slots.bytes, "byte accounting drifted");
        assert_eq!(slots.ring.len(), slots.map.len());
        slots.bytes
    }

    /// Claims a key that must be cold and fills it.
    fn insert(cache: &ResultCache, counters: &Counters, n: u64) {
        assert!(matches!(cache.claim(key_n(n), counters), Claim::Run));
        cache.fill(key_n(n), result(n), counters);
    }

    /// A failed claim must resolve parked waiters and be served to
    /// later claimants — an `InFlight` slot never outlives its owner.
    #[test]
    fn failure_wakes_waiters_and_is_cached() {
        let cache = Arc::new(ResultCache::default());
        let counters = Arc::new(Counters::default());
        assert!(matches!(cache.claim(key(), &counters), Claim::Run));

        // Park a waiter on the in-flight slot, then fail the claim.
        let waiter = {
            let (cache, counters) = (Arc::clone(&cache), Arc::clone(&counters));
            std::thread::spawn(move || cache.claim(key(), &counters))
        };
        while counters.coalesced.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        cache.fail(key(), "boom".into(), &counters);

        match waiter.join().expect("waiter thread") {
            Claim::Failed(e) => assert_eq!(*e, "boom"),
            _ => panic!("waiter must see the failure"),
        }
        // A later claimant is served the cached error without a re-run.
        match cache.claim(key(), &counters) {
            Claim::Failed(e) => assert_eq!(*e, "boom"),
            _ => panic!("failure must be cached"),
        }
        assert_eq!(counters.sims.load(Ordering::SeqCst), 1);
        assert_eq!(counters.deduped(), 2);
        // Failed slots are not "completed results".
        assert!(cache.is_empty());
    }

    /// CLOCK second chance: a key hit between inserts keeps its slot
    /// while a stream of cold keys cycles through the rest.
    #[test]
    fn hot_key_survives_cold_stream() {
        let cache = small_cache();
        let counters = Counters::default();
        insert(&cache, &counters, 0);
        for n in 1..200 {
            assert!(matches!(
                cache.claim(key_n(0), &counters),
                Claim::Served(r) if *r == result(0)
            ));
            insert(&cache, &counters, n);
        }
        assert_eq!(counters.sims.load(Ordering::SeqCst), 200);
        assert_eq!(counters.hits.load(Ordering::SeqCst), 199);
        // 200 keys filled, four resident: every other cold key evicted.
        assert_eq!(counters.evictions.load(Ordering::SeqCst), 196);
        assert_eq!(cache.len(), 4);
    }

    /// An in-flight slot is never evicted, however many fills pass it,
    /// and its parked waiter still receives the owner's result.
    #[test]
    fn in_flight_slot_is_never_evicted() {
        let cache = Arc::new(small_cache());
        let counters = Arc::new(Counters::default());
        assert!(matches!(cache.claim(key(), &counters), Claim::Run));
        let waiter = {
            let (cache, counters) = (Arc::clone(&cache), Arc::clone(&counters));
            std::thread::spawn(move || cache.claim(key(), &counters))
        };
        while counters.coalesced.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        for n in 1..50 {
            insert(&cache, &counters, n);
        }
        assert!(matches!(
            cache.lock().map.get(&key()),
            Some(Slot::InFlight(_))
        ));
        cache.fill(key(), result(0), &counters);
        match waiter.join().expect("waiter thread") {
            Claim::Served(r) => assert_eq!(*r, result(0)),
            _ => panic!("waiter must receive the owner's result"),
        }
        assert_eq!(counters.sims.load(Ordering::SeqCst), 50);
    }

    /// A waiter resolves through its cell even when the finished slot is
    /// evicted before it wakes: a single result over the budget is
    /// evicted by its own fill.
    #[test]
    fn waiter_resolves_when_its_slot_is_evicted_at_once() {
        let cache = Arc::new(ResultCache::with_budget(10));
        let counters = Arc::new(Counters::default());
        assert!(matches!(cache.claim(key(), &counters), Claim::Run));
        let waiter = {
            let (cache, counters) = (Arc::clone(&cache), Arc::clone(&counters));
            std::thread::spawn(move || cache.claim(key(), &counters))
        };
        while counters.coalesced.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        cache.fill(key(), result(0), &counters);
        assert_eq!(counters.evictions.load(Ordering::SeqCst), 1);
        match waiter.join().expect("waiter thread") {
            Claim::Served(r) => assert_eq!(*r, result(0)),
            _ => panic!("waiter must receive the owner's result"),
        }
        assert!(cache.is_empty());
    }

    /// An evicted key is claimed afresh: the caller runs it again, and
    /// the re-run counts as a simulation.
    #[test]
    fn evicted_key_reclaims_as_run() {
        let cache = small_cache();
        let counters = Counters::default();
        for n in 0..5 {
            insert(&cache, &counters, n);
        }
        assert_eq!(counters.evictions.load(Ordering::SeqCst), 1);
        assert!(matches!(cache.claim(key_n(0), &counters), Claim::Run));
        assert_eq!(counters.sims.load(Ordering::SeqCst), 6);
        cache.fill(key_n(0), result(0), &counters);
        assert!(matches!(
            cache.claim(key_n(0), &counters),
            Claim::Served(r) if *r == result(0)
        ));
    }

    /// Resident bytes stay within the budget after every `fill` and
    /// `fail`, across hits, failures and evictions.
    #[test]
    fn resident_bytes_never_exceed_budget() {
        let cache = small_cache();
        let counters = Counters::default();
        let budget = 4 * (100 + ENTRY_OVERHEAD);
        for n in 0..100u64 {
            let k = key_n(n % 13);
            match cache.claim(k, &counters) {
                Claim::Run if n % 3 == 0 => {
                    cache.fail(k, format!("error {n}"), &counters);
                }
                Claim::Run => {
                    cache.fill(k, result(n), &counters);
                }
                Claim::Served(_) | Claim::Failed(_) => continue,
            }
            assert!(resident_bytes(&cache) <= budget);
        }
        assert!(counters.evictions.load(Ordering::SeqCst) > 0);
    }
}
