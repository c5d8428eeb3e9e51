//! Pins that the checker's own share of a step allocates nothing: firing
//! an event into a reused notification buffer
//! (`Engine::run_pending_into`) hands the notifications over without a
//! `Vec` of their own, and folding them into the oracle history (`note`)
//! plus the step oracles (`check_step`) allocate nothing at any step.
//! A random-walk campaign builds its scenario once and starts every walk
//! by copying that root position into one recycled position, so a walk
//! keeps the buffers the walks before it grew; what a later walk still
//! allocates regrows from the root's layout (the hash tables a copy
//! resizes to its source's, to keep their iteration order) or is made
//! afresh (each cache's per-set index at its first fill).
//! A state fingerprint allocates nothing at any position. The reduced
//! explorer backtracks by copying positions into recycled ones: a copy
//! into a position of the same shape allocates nothing, and a whole
//! exploration allocates a fraction of what forking and dropping an
//! engine per branch did. Counted by a global allocator, so the figures
//! are the same on any host.

use cenju4_check::explore::fork_into_probe;
use cenju4_check::{
    explore_reduced, random_walks_parallel, CheckConfig, Exploration, ExploreLimits, OracleState,
};
use cenju4_des::SplitMix64;
use cenju4_obs::{CounterKey, MetricsRegistry};
use cenju4_protocol::{Engine, Notification};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations, and the bytes they ask for, that the current
/// thread makes while counting is on.
struct Counting;

/// What a counted stretch asked the allocator for.
#[derive(Clone, Copy, Debug, Default)]
struct Usage {
    /// Allocations, reallocations included.
    allocs: u64,
    bytes: u64,
}

thread_local! {
    static COUNTED: Cell<Option<Usage>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTED.try_with(|c| {
        if let Some(u) = c.get() {
            c.set(Some(Usage {
                allocs: u.allocs + 1,
                bytes: u.bytes + bytes as u64,
            }));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counting only reads the requested sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and what it asked the allocator for on this thread.
fn usage_of<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    COUNTED.with(|c| c.set(Some(Usage::default())));
    let out = f();
    let usage = COUNTED.with(|c| c.replace(None)).expect("counting was on");
    (out, usage)
}

/// `f`'s result and the bytes it asked for on this thread.
fn bytes_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, usage) = usage_of(f);
    (out, usage.bytes)
}

/// The check-walks benchmark scenario: 3 nodes x 2 blocks x 2 ops with
/// the recovery layer armed over a fabric dropping one message in ten.
fn walks_scenario() -> CheckConfig {
    CheckConfig {
        nodes: 3,
        blocks: 2,
        ops_per_node: 2,
        recovery: true,
        drop_permille: 100,
        fault_seed: 1,
        ..CheckConfig::default()
    }
}

/// Steps taken before the notification buffer counts as grown.
const WARM_UP: usize = 50;

/// Over seeded walks of the scenario, each step fired on a fork of the
/// position: once the shared buffer has grown, `run_pending_into`
/// allocates no more than the same dispatch on a second fork into a
/// buffer with room to spare (the engine's own growth), while
/// `run_pending` on a third fork allocates more whenever the step
/// notifies (its fresh `Vec`); `note` and `check_step` allocate nothing
/// at any step.
#[test]
fn a_checker_step_allocates_nothing_of_its_own() {
    let cfg = walks_scenario();
    let mut notes: Vec<Notification> = Vec::new();
    let mut spare: Vec<Notification> = Vec::with_capacity(64);
    let (mut steps, mut notifying) = (0, 0);
    for walk in 0..40u64 {
        let mut rng = SplitMix64::new(walk.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut eng = cfg.engine();
        let mut oracle = OracleState::new(&cfg);
        let mut ready = Vec::new();
        loop {
            eng.ready_choices(&mut ready);
            if ready.is_empty() {
                break;
            }
            let pick = ready[rng.next_below(ready.len() as u64) as usize];
            let mut twin = eng.fork().expect("checker engines fork");
            let mut owned = eng.fork().expect("checker engines fork");
            // Step a fork as well: a fork's containers hold no spare room,
            // so all three engines regrow theirs alike.
            eng = eng.fork().expect("checker engines fork");
            notes.clear();
            let (fired, into) = bytes_of(|| eng.run_pending_into(pick, &mut notes));
            assert!(fired);
            spare.clear();
            let (_, dispatch) = bytes_of(|| twin.run_pending_into(pick, &mut spare));
            let (returned, taken) = bytes_of(|| owned.run_pending(pick).expect("fires"));
            assert_eq!(returned, notes);
            if steps >= WARM_UP {
                // The twin's figure is the dispatch's own.
                assert!(into <= dispatch, "walk {walk}: {into} > {dispatch} bytes");
                if !notes.is_empty() {
                    assert!(taken > dispatch, "run_pending returned no fresh Vec");
                    notifying += 1;
                }
            }
            let (verdict, oracles) = bytes_of(|| {
                oracle
                    .note(&notes, &eng)
                    .or_else(|| oracle.check_step(&eng))
            });
            assert_eq!(verdict, None, "walk {walk} violated");
            assert_eq!(
                oracles, 0,
                "walk {walk}: the oracles allocated {oracles} bytes"
            );
            steps += 1;
        }
    }
    assert!(
        steps > 1_000 && notifying > 100,
        "{steps} steps, {notifying} notifying"
    );
}

/// Bytes one walk of the scenario asked for when every walk built its
/// engine afresh: a new machine and a 4096-record trace ring (about
/// 229 KB of it) for a walk of about 38 steps, in 71 allocations.
const BUILDING_WALK_BYTES: u64 = 247_063;

/// Allocations walks 1 to 1000 of one campaign of the scenario make in
/// all (1,732,032 bytes), now that each starts by copying the campaign's
/// root position into one recycled position, a position carries a span
/// ledger instead of a span collector, and a retransmission sends from
/// the unacked window in place: about 12 a walk (15,400 and 2,083,968
/// bytes with the collector; 13,436 and 1,853,440 bytes with a copy of
/// the window per retransmission).
const RECYCLED_WALKS_ALLOCS: u64 = 12_219;

/// The fewest allocations walks 1 to 1000 can make and still be counted:
/// one a walk. A campaign whose walks ran on threads the counter does not
/// watch would count none.
const COUNTED_WALKS_ALLOCS: u64 = 1_000;

/// A campaign builds its root position and first walk once; the 1000
/// walks after them stay under [`RECYCLED_WALKS_ALLOCS`] and ask for
/// under a hundredth of the bytes building an engine per walk did. The
/// campaigns run on one worker, the calling thread, where the counting
/// is.
#[test]
fn campaign_walks_start_from_a_recycled_position() {
    let cfg = walks_scenario();
    let limits = ExploreLimits::default();
    let campaign = |walks| random_walks_parallel(&cfg, 1, walks, &limits, 1);
    // Installs the checker's panic hook, which happens once a process.
    campaign(1);
    let (_, first) = usage_of(|| campaign(1));
    let (out, all) = usage_of(|| campaign(1_001));
    assert!(matches!(out, Exploration::AllGreen { schedules: 1_001 }));
    let (allocs, bytes) = (all.allocs - first.allocs, all.bytes - first.bytes);
    assert!(
        (COUNTED_WALKS_ALLOCS..=RECYCLED_WALKS_ALLOCS).contains(&allocs),
        "{allocs} allocations, {bytes} bytes over 1000 walks"
    );
    assert!(
        bytes * 100 <= BUILDING_WALK_BYTES * 1_000,
        "{allocs} allocations, {bytes} bytes over 1000 walks"
    );
}

#[test]
fn bumping_a_counter_allocates_nothing() {
    let mut m = MetricsRegistry::new();
    m.incr(CounterKey::FabricSends);
    let ((), bytes) = bytes_of(|| {
        for _ in 0..1_000 {
            m.incr(CounterKey::FabricSends);
            m.add(CounterKey::FabricHops, 3);
        }
    });
    assert_eq!(bytes, 0);
    assert_eq!(m.counter("fabric.sends"), 1_001);
}

/// The check-explore benchmark scenario: 3 nodes x 1 block x 2 ops under
/// the default MESI queuing protocol, which explores reduced.
fn explore_scenario() -> CheckConfig {
    CheckConfig {
        nodes: 3,
        blocks: 1,
        ops_per_node: 2,
        ..CheckConfig::default()
    }
}

/// At every position of seeded walks of the scenario, copying the
/// position into another position of the same scenario at the same
/// point reuses every buffer: not one byte is allocated.
#[test]
fn forking_into_a_position_of_the_same_shape_allocates_nothing() {
    let cfg = explore_scenario();
    let mut positions = 0;
    for walk in 0..4u64 {
        let mut rng = SplitMix64::new(walk);
        let mut eng = cfg.engine();
        let (mut picks, mut ready, mut notes) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let mut copy = fork_into_probe(&cfg, &picks);
            let ((), bytes) = bytes_of(&mut copy);
            assert_eq!(bytes, 0, "walk {walk}, step {}", picks.len());
            positions += 1;
            eng.ready_choices(&mut ready);
            if ready.is_empty() {
                break;
            }
            let pick = rng.next_below(ready.len() as u64) as usize;
            assert!(eng.run_pending_into(ready[pick], &mut notes));
            picks.push(pick);
        }
    }
    assert!(positions > 40, "{positions} positions");
}

/// Allocations one reduced exploration of the scenario made when every
/// snapshot was a fresh fork and every backtrack dropped one.
const FORKING_EXPLORATION_ALLOCS: u64 = 166_096;

/// Allocations one reduced exploration of the scenario makes now that
/// fingerprints allocate nothing, frames recycle their event snapshots
/// and sleep sets, and positions carry a span ledger instead of a span
/// collector (33,403 before the first two, 5,740 before the ledger).
/// What is left is mostly the dedup table's own storage: a sleep
/// signature per unique state.
const RECYCLING_EXPLORATION_ALLOCS: u64 = 5_260;

/// Recycling positions cuts one exploration's allocations to under a
/// quarter of the forking explorer's, and allocation-free fingerprints
/// plus recycled frame buffers keep them under
/// [`RECYCLING_EXPLORATION_ALLOCS`], with the counts of the search
/// unchanged.
#[test]
fn a_reduced_exploration_recycles_its_positions() {
    let cfg = explore_scenario();
    let (out, usage) = usage_of(|| explore_reduced(&cfg, &ExploreLimits::default(), 1));
    assert!(matches!(out.exploration, Exploration::AllGreen { .. }));
    assert_eq!(
        (out.unique_states, out.transitions, out.leaves),
        (2376, 5920, 18)
    );
    assert!(
        usage.allocs * 4 <= FORKING_EXPLORATION_ALLOCS,
        "{} allocations, {} bytes",
        usage.allocs,
        usage.bytes
    );
    assert!(
        usage.allocs <= RECYCLING_EXPLORATION_ALLOCS,
        "{} allocations, {} bytes",
        usage.allocs,
        usage.bytes
    );
}

/// Visits every position of seeded walks of `cfg`: `walks` walks, each
/// picking uniformly among the ready events until quiescence.
fn visit_walk_positions(cfg: &CheckConfig, walks: u64, mut visit: impl FnMut(&Engine)) {
    let (mut ready, mut notes) = (Vec::new(), Vec::new());
    for walk in 0..walks {
        let mut rng = SplitMix64::new(walk);
        let mut eng = cfg.engine();
        loop {
            visit(&eng);
            eng.ready_choices(&mut ready);
            if ready.is_empty() {
                break;
            }
            let pick = ready[rng.next_below(ready.len() as u64) as usize];
            notes.clear();
            assert!(eng.run_pending_into(pick, &mut notes));
        }
    }
}

/// At every position of seeded walks of the explore scenario and of the
/// lossy check-walks scenario (timers parked, gathers open, duplicate
/// replies filtered), the state fingerprint allocates nothing.
#[test]
fn a_state_fingerprint_allocates_nothing() {
    for (cfg, walks) in [(explore_scenario(), 8), (walks_scenario(), 40)] {
        let blocks = cfg.block_addrs();
        let mut positions = 0;
        visit_walk_positions(&cfg, walks, |eng| {
            let (_, bytes) = bytes_of(|| eng.state_fingerprint(&blocks));
            assert_eq!(bytes, 0, "{cfg}: position {positions}");
            positions += 1;
        });
        assert!(positions > 100, "{cfg}: {positions} positions");
    }
}
