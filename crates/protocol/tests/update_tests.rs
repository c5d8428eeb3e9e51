//! Tests of the update-protocol + third-level-cache extension
//! (the Section 4.2.3 proposal, implemented via `Engine::mark_update_block`).

use cenju4_des::SimTime;
use cenju4_directory::{MemState, NodeId};
use cenju4_protocol::{Addr, CacheState, Engine, MemOp, Notification, ProtoParams, SystemConfig};

fn engine(nodes: u16) -> Engine {
    Engine::new(&SystemConfig::builder(nodes).build().unwrap())
}

fn node(n: u16) -> NodeId {
    NodeId::new(n)
}

fn run_one(eng: &mut Engine, n: NodeId, op: MemOp, a: Addr) -> (u64, bool) {
    let txn = eng.issue(eng.now(), n, op, a);
    let done = eng.run();
    done.iter()
        .find_map(|x| match x {
            Notification::Completed {
                txn: t,
                issued,
                finished,
                l3,
                ..
            } if *t == txn => Some((finished.since(*issued).as_ns(), *l3)),
            _ => None,
        })
        .expect("access completes")
}

#[test]
fn update_store_keeps_subscribers_valid() {
    let mut eng = engine(16);
    let a = Addr::new(node(0), 0);
    eng.mark_update_block(a);
    // Five readers subscribe.
    for n in 1..=5u16 {
        run_one(&mut eng, node(n), MemOp::Load, a);
        assert_eq!(eng.cache_state(node(n), a), CacheState::Shared);
    }
    // Node 3 writes through: everyone keeps a (refreshed) Shared copy.
    run_one(&mut eng, node(3), MemOp::Store, a);
    for n in 1..=5u16 {
        assert_eq!(
            eng.cache_state(node(n), a),
            CacheState::Shared,
            "node {n} must not be invalidated"
        );
        assert!(eng.l3_valid(node(n), a), "node {n} must hold an L3 copy");
    }
    assert_eq!(eng.memory_state(a), MemState::Clean);
    assert_eq!(eng.stats().invalidations.get(), 0);
    assert!(eng.stats().updates.get() >= 1);
}

#[test]
fn update_block_never_goes_exclusive() {
    let mut eng = engine(16);
    let a = Addr::new(node(0), 0);
    eng.mark_update_block(a);
    run_one(&mut eng, node(1), MemOp::Load, a);
    // Sole reader still only gets Shared (no E state on update blocks).
    assert_eq!(eng.cache_state(node(1), a), CacheState::Shared);
    run_one(&mut eng, node(1), MemOp::Store, a);
    assert_eq!(eng.cache_state(node(1), a), CacheState::Shared);
    assert_eq!(eng.memory_state(a), MemState::Clean);
}

#[test]
fn l2_miss_refills_from_local_l3_at_local_cost() {
    // Tiny cache so the block gets evicted from L2 while L3 keeps it.
    let params = ProtoParams {
        cache_bytes: 2 * 128,
        cache_assoc: 1,
        ..ProtoParams::default()
    };
    let mut eng = Engine::new(&SystemConfig::builder(16).proto(params).build().unwrap());
    let a = Addr::new(node(0), 0);
    eng.mark_update_block(a);
    let (first, l3_first) = run_one(&mut eng, node(5), MemOp::Load, a);
    assert!(!l3_first, "first read subscribes remotely");
    assert!(first > 1_000, "remote subscription");
    // Evict the line from the L2 with conflicting private-ish blocks.
    for b in 1..40u32 {
        run_one(&mut eng, node(5), MemOp::Load, Addr::new(node(5), b));
        if eng.cache_state(node(5), a) == CacheState::Invalid {
            break;
        }
    }
    assert_eq!(eng.cache_state(node(5), a), CacheState::Invalid);
    // Reload: satisfied from the local memory (L3), at local cost.
    let (second, l3_second) = run_one(&mut eng, node(5), MemOp::Load, a);
    assert!(l3_second, "refill must come from the L3");
    assert_eq!(second, 610, "L3 refill costs a local memory access");
    assert_eq!(eng.stats().l3_fills.get(), 1);
}

#[test]
fn subscribers_see_fresh_data_without_remote_misses() {
    // The CG pattern in miniature: readers re-read after each write.
    let mut eng = engine(16);
    let a = Addr::new(node(0), 0);
    eng.mark_update_block(a);
    for n in 1..=8u16 {
        run_one(&mut eng, node(n), MemOp::Load, a);
    }
    for round in 0..5 {
        run_one(&mut eng, node(1), MemOp::Store, a);
        let _ = round;
        for n in 2..=8u16 {
            // Copies stay valid: every re-read is an L2 hit.
            let (lat, _) = run_one(&mut eng, node(n), MemOp::Load, a);
            assert_eq!(lat, 30, "node {n} must hit in its L2");
        }
    }
}

#[test]
fn update_with_pointer_map_excludes_the_writer() {
    // Two subscribers: a write by one pushes exactly one update.
    let mut eng = engine(16);
    let a = Addr::new(node(0), 0);
    eng.mark_update_block(a);
    run_one(&mut eng, node(1), MemOp::Load, a);
    run_one(&mut eng, node(2), MemOp::Load, a);
    let before = eng.net_stats().delivered.get();
    run_one(&mut eng, node(1), MemOp::Store, a);
    // One push to node 2 + its ack + home ack to master (+ request).
    let delivered = eng.net_stats().delivered.get() - before;
    assert!(delivered <= 4, "push fan-out too large: {delivered}");
    assert!(eng.l3_valid(node(2), a));
}

#[test]
fn wide_subscription_uses_gathered_multicast() {
    let mut eng = engine(64);
    let a = Addr::new(node(0), 0);
    eng.mark_update_block(a);
    for n in 1..=32u16 {
        run_one(&mut eng, node(n), MemOp::Load, a);
    }
    let gathers_before = eng.net_stats().gather_delivered.get();
    run_one(&mut eng, node(1), MemOp::Store, a);
    assert!(
        eng.net_stats().gather_delivered.get() > gathers_before,
        "wide update push must use the gather hardware"
    );
    assert_eq!(eng.net_stats().gather_concurrency.current(), 0);
}

#[test]
fn cold_store_to_update_block_works() {
    let mut eng = engine(16);
    let a = Addr::new(node(3), 0);
    eng.mark_update_block(a);
    // Store without any prior read: write-through, writer subscribes.
    run_one(&mut eng, node(7), MemOp::Store, a);
    assert_eq!(eng.cache_state(node(7), a), CacheState::Shared);
    assert!(eng.l3_valid(node(7), a));
    assert_eq!(eng.memory_state(a), MemState::Clean);
}

#[test]
fn mixed_update_and_invalidate_blocks_coexist() {
    let mut eng = engine(16);
    let upd = Addr::new(node(0), 0);
    let inv = Addr::new(node(0), 1);
    eng.mark_update_block(upd);
    for n in 1..=4u16 {
        run_one(&mut eng, node(n), MemOp::Load, upd);
        run_one(&mut eng, node(n), MemOp::Load, inv);
    }
    run_one(&mut eng, node(1), MemOp::Store, upd);
    run_one(&mut eng, node(1), MemOp::Store, inv);
    // Update block: others keep copies; invalidate block: others lose them.
    assert_eq!(eng.cache_state(node(2), upd), CacheState::Shared);
    assert_eq!(eng.cache_state(node(2), inv), CacheState::Invalid);
    assert_eq!(eng.cache_state(node(1), inv), CacheState::Modified);
    assert_eq!(eng.memory_state(upd), MemState::Clean);
    assert_eq!(eng.memory_state(inv), MemState::Dirty);
}

#[test]
#[should_panic]
fn marking_a_live_block_panics() {
    let mut eng = engine(16);
    let a = Addr::new(node(0), 0);
    run_one(&mut eng, node(1), MemOp::Load, a);
    eng.mark_update_block(a);
}

#[test]
fn concurrent_update_writers_all_complete() {
    let mut eng = engine(16);
    let a = Addr::new(node(0), 0);
    eng.mark_update_block(a);
    for n in 1..=8u16 {
        run_one(&mut eng, node(n), MemOp::Load, a);
    }
    let t0 = eng.now();
    let txns: Vec<_> = (1..=8u16)
        .map(|n| eng.issue(t0, node(n), MemOp::Store, a))
        .collect();
    let done = eng.run();
    for t in txns {
        assert!(
            done.iter().any(|x| matches!(
                x,
                Notification::Completed { txn, .. } if *txn == t
            )),
            "update txn {t} lost"
        );
    }
    // Everyone still shares the block afterwards.
    for n in 1..=8u16 {
        assert_eq!(eng.cache_state(node(n), a), CacheState::Shared);
    }
    assert_eq!(eng.memory_state(a), MemState::Clean);
    assert_eq!(eng.net_stats().gather_concurrency.current(), 0);
}

#[test]
fn update_requests_queue_behind_pending_pushes() {
    // A second write arriving during a push must be queued (FIFO), not
    // lost or nacked.
    let mut eng = engine(16);
    let a = Addr::new(node(0), 0);
    eng.mark_update_block(a);
    for n in 1..=6u16 {
        run_one(&mut eng, node(n), MemOp::Load, a);
    }
    let t0 = eng.now();
    eng.issue(t0, node(1), MemOp::Store, a);
    eng.issue(
        t0 + cenju4_des::Duration::from_ns(10),
        node(2),
        MemOp::Store,
        a,
    );
    let done = eng.run();
    let completions = done
        .iter()
        .filter(|x| matches!(x, Notification::Completed { .. }))
        .count();
    assert_eq!(completions, 2);
    assert_eq!(eng.stats().nacks.get(), 0);
    assert!(eng.stats().queued_requests.get() >= 1);
}

#[test]
fn deterministic_under_update_protocol() {
    let run = || {
        let mut eng = engine(16);
        let a = Addr::new(node(0), 0);
        eng.mark_update_block(a);
        for n in 0..16u16 {
            eng.issue(SimTime::from_ns(n as u64), node(n), MemOp::Load, a);
        }
        eng.run();
        let t = eng.now();
        for n in 0..16u16 {
            eng.issue(t, node(n), MemOp::Store, a);
        }
        eng.run();
        (eng.now(), eng.net_stats().delivered.get())
    };
    assert_eq!(run(), run());
}
