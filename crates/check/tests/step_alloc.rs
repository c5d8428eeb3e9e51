//! Pins that the checker's own share of a step allocates nothing: firing
//! an event into a reused notification buffer
//! (`Engine::run_pending_into`) hands the notifications over without a
//! `Vec` of their own, and folding them into the oracle history (`note`)
//! plus the step oracles (`check_step`) allocate nothing at any step.
//! The engine's dispatch still grows its own containers (span event
//! lists, cache chunks, link queues) the first time a walk needs them.
//! Counted by a global allocator, so the figures are the same on any
//! host.

use cenju4_check::{CheckConfig, OracleState};
use cenju4_des::SplitMix64;
use cenju4_obs::{CounterKey, MetricsRegistry};
use cenju4_protocol::Notification;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the current thread asks for while counting is on.
struct Counting;

thread_local! {
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTED.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + bytes as u64));
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

/// `f`'s result and the bytes it asked for on this thread.
fn bytes_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNTED.with(|c| c.set(Some(0)));
    let out = f();
    let bytes = COUNTED.with(|c| c.replace(None)).expect("counting was on");
    (out, bytes)
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

/// Over seeded walks of the scenario: once the shared buffer has grown,
/// `run_pending_into` allocates no more than the same dispatch on a fork
/// of the position into a buffer with room to spare (the engine's own
/// growth), while `run_pending` on a third fork allocates more whenever
/// the step notifies (its fresh `Vec`); `note` and `check_step` allocate
/// nothing at any step.
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
            notes.clear();
            let (fired, into) = bytes_of(|| eng.run_pending_into(pick, &mut notes));
            assert!(fired);
            spare.clear();
            let (_, dispatch) = bytes_of(|| twin.run_pending_into(pick, &mut spare));
            let (returned, taken) = bytes_of(|| owned.run_pending(pick).expect("fires"));
            assert_eq!(returned, notes);
            if steps >= WARM_UP {
                // Forks regrow their containers alike, so the twin's
                // figure is the dispatch's own.
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
