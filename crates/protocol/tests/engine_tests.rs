//! End-to-end tests of the coherence engine: every appendix sequence, the
//! queuing/starvation machinery, and randomized invariant stress.

use cenju4_des::{SimTime, SplitMix64};
use cenju4_directory::{MemState, NodeId};
use cenju4_protocol::{
    Addr, CacheState, Engine, MemOp, Notification, ProtoParams, ProtocolKind, SystemConfig,
};

fn engine(nodes: u16) -> Engine {
    Engine::new(&SystemConfig::builder(nodes).build().unwrap())
}

fn node(n: u16) -> NodeId {
    NodeId::new(n)
}

fn addr(home: u16, block: u32) -> Addr {
    Addr::new(node(home), block)
}

/// Issues one access and runs to quiescence, returning its latency in ns.
fn one_access(eng: &mut Engine, n: NodeId, op: MemOp, a: Addr) -> u64 {
    let txn = eng.issue(eng.now(), n, op, a);
    let done = eng.run();
    let completion = done
        .iter()
        .find_map(|x| match x {
            Notification::Completed {
                txn: t,
                issued,
                finished,
                ..
            } if *t == txn => Some(finished.since(*issued).as_ns()),
            _ => None,
        })
        .expect("access must complete");
    completion
}

// ---------------------------------------------------------------------
// Table-2-shaped latency checks (the calibration contract)
// ---------------------------------------------------------------------

#[test]
fn shared_local_clean_load_is_610ns() {
    // Table 2 row b: load from the local shared memory, no other sharers.
    let mut eng = engine(16);
    let lat = one_access(&mut eng, node(0), MemOp::Load, addr(0, 1));
    assert_eq!(lat, 610);
    assert_eq!(eng.cache_state(node(0), addr(0, 1)), CacheState::Exclusive);
    assert_eq!(eng.memory_state(addr(0, 1)), MemState::Dirty);
}

#[test]
fn shared_remote_clean_load_matches_calibration() {
    // Table 2 row c at 2 stages: 610 + (280+130·2) + (280+140·2) = 1710.
    let mut eng = engine(16);
    let lat = one_access(&mut eng, node(0), MemOp::Load, addr(1, 1));
    assert_eq!(lat, 1710);
}

#[test]
fn shared_local_dirty_load_matches_calibration() {
    // Row d: the block is dirty in a remote cache; the home is local.
    // Sequence: local request, forward to slave (remote), slave data reply
    // (remote), local grant. 50 + 140 + 540 + 330 + 560 + 250 + 50 = 1920.
    let mut eng = engine(16);
    // Node 1 stores to node 0's memory: block becomes Modified at node 1.
    let _ = one_access(&mut eng, node(1), MemOp::Store, addr(0, 1));
    assert_eq!(eng.cache_state(node(1), addr(0, 1)), CacheState::Modified);
    // Now node 0 loads its own (dirty-remote) block.
    let lat = one_access(&mut eng, node(0), MemOp::Load, addr(0, 1));
    assert_eq!(lat, 1920);
    // Both copies Shared, memory Clean again.
    assert_eq!(eng.cache_state(node(0), addr(0, 1)), CacheState::Shared);
    assert_eq!(eng.cache_state(node(1), addr(0, 1)), CacheState::Shared);
    assert_eq!(eng.memory_state(addr(0, 1)), MemState::Clean);
}

#[test]
fn shared_remote_dirty_load_matches_calibration() {
    // Row e: everything remote: 50+540+140+540+330+560+250+560+50 = 3020.
    let mut eng = engine(16);
    let _ = one_access(&mut eng, node(2), MemOp::Store, addr(1, 1));
    let lat = one_access(&mut eng, node(0), MemOp::Load, addr(1, 1));
    assert_eq!(lat, 3020);
}

#[test]
fn latencies_scale_with_stages_not_nodes() {
    // The same remote-clean load costs more on a 4-stage machine than a
    // 2-stage one, but is identical for any node count within a stage count.
    let lat16 = {
        let mut e = engine(16);
        one_access(&mut e, node(0), MemOp::Load, addr(1, 1))
    };
    let lat64 = {
        let mut e = engine(64);
        one_access(&mut e, node(0), MemOp::Load, addr(1, 1))
    };
    let lat128 = {
        let mut e = engine(128);
        one_access(&mut e, node(0), MemOp::Load, addr(1, 1))
    };
    assert_eq!(lat64, lat128, "same stage count, same latency");
    assert!(lat64 > lat16, "more stages cost more");
    assert_eq!(lat64 - lat16, 2 * 130 + 2 * 140); // two messages, two extra stages each
}

// ---------------------------------------------------------------------
// Appendix sequences
// ---------------------------------------------------------------------

#[test]
fn read_shared_grants_exclusive_to_sole_reader() {
    let mut eng = engine(16);
    one_access(&mut eng, node(3), MemOp::Load, addr(5, 9));
    assert_eq!(eng.cache_state(node(3), addr(5, 9)), CacheState::Exclusive);
    assert_eq!(eng.memory_state(addr(5, 9)), MemState::Dirty);
}

#[test]
fn second_reader_downgrades_exclusive_owner() {
    let mut eng = engine(16);
    one_access(&mut eng, node(1), MemOp::Load, addr(0, 9));
    one_access(&mut eng, node(2), MemOp::Load, addr(0, 9));
    assert_eq!(eng.cache_state(node(1), addr(0, 9)), CacheState::Shared);
    assert_eq!(eng.cache_state(node(2), addr(0, 9)), CacheState::Shared);
    assert_eq!(eng.memory_state(addr(0, 9)), MemState::Clean);
    assert_eq!(eng.stats().forwards.get(), 1);
}

#[test]
fn reader_after_writer_gets_fresh_data_via_home() {
    let mut eng = engine(16);
    one_access(&mut eng, node(1), MemOp::Store, addr(0, 9));
    assert_eq!(eng.cache_state(node(1), addr(0, 9)), CacheState::Modified);
    one_access(&mut eng, node(2), MemOp::Load, addr(0, 9));
    // The modified owner was downgraded and supplied the line.
    assert_eq!(eng.cache_state(node(1), addr(0, 9)), CacheState::Shared);
    assert_eq!(eng.cache_state(node(2), addr(0, 9)), CacheState::Shared);
    assert_eq!(eng.memory_state(addr(0, 9)), MemState::Clean);
}

#[test]
fn read_exclusive_invalidates_all_sharers() {
    let mut eng = engine(16);
    let a = addr(0, 9);
    for n in 1..=6u16 {
        one_access(&mut eng, node(n), MemOp::Load, a);
    }
    // Node 7 (not a sharer) stores: read-exclusive with invalidations.
    one_access(&mut eng, node(7), MemOp::Store, a);
    assert_eq!(eng.cache_state(node(7), a), CacheState::Modified);
    for n in 1..=6u16 {
        assert_eq!(eng.cache_state(node(n), a), CacheState::Invalid, "node {n}");
    }
    assert_eq!(eng.memory_state(a), MemState::Dirty);
    assert_eq!(eng.stats().invalidations.get(), 1);
}

#[test]
fn ownership_upgrades_without_data_transfer() {
    let mut eng = engine(16);
    let a = addr(0, 9);
    one_access(&mut eng, node(1), MemOp::Load, a);
    one_access(&mut eng, node(2), MemOp::Load, a);
    // Node 1 stores to its Shared copy: ownership request, singlecast
    // invalidation of node 2 (one target), no data on the grant.
    one_access(&mut eng, node(1), MemOp::Store, a);
    assert_eq!(eng.cache_state(node(1), a), CacheState::Modified);
    assert_eq!(eng.cache_state(node(2), a), CacheState::Invalid);
    assert_eq!(eng.memory_state(a), MemState::Dirty);
}

#[test]
fn store_to_exclusive_is_a_silent_hit() {
    let mut eng = engine(16);
    let a = addr(1, 9);
    one_access(&mut eng, node(0), MemOp::Load, a); // Exclusive
    let before = eng.stats().requests.get();
    let lat = one_access(&mut eng, node(0), MemOp::Store, a);
    assert_eq!(eng.stats().requests.get(), before, "no coherence traffic");
    assert_eq!(lat, 30); // cache-hit latency
    assert_eq!(eng.cache_state(node(0), a), CacheState::Modified);
}

#[test]
fn writeback_on_eviction_cleans_directory() {
    // A 2-line direct-mapped cache forces evictions quickly.
    let params = ProtoParams {
        cache_bytes: 2 * 128,
        cache_assoc: 1,
        ..ProtoParams::default()
    };
    let mut eng = Engine::new(&SystemConfig::builder(16).proto(params).build().unwrap());
    // Write block A, then touch blocks until A is evicted.
    let a = addr(1, 0);
    one_access(&mut eng, node(0), MemOp::Store, a);
    assert_eq!(eng.memory_state(a), MemState::Dirty);
    let mut evicted = false;
    for b in 1..40u32 {
        one_access(&mut eng, node(0), MemOp::Store, addr(1, b));
        if eng.cache_state(node(0), a) == CacheState::Invalid {
            evicted = true;
            break;
        }
    }
    assert!(evicted, "direct-mapped cache must evict block A");
    eng.run();
    assert!(eng.stats().writebacks.get() >= 1);
    // The writeback returned ownership to memory.
    assert_eq!(eng.memory_state(a), MemState::Clean);
}

#[test]
fn multicast_invalidation_used_above_one_target() {
    let mut eng = engine(16);
    let a = addr(0, 9);
    for n in 1..=5u16 {
        one_access(&mut eng, node(n), MemOp::Load, a);
    }
    one_access(&mut eng, node(6), MemOp::Store, a);
    // Five sharers -> pattern/multicast path with one gathered reply.
    assert!(eng.net_stats().gather_delivered.get() >= 1);
    assert_eq!(eng.net_stats().gather_concurrency.current(), 0);
}

#[test]
fn singlecast_threshold_improves_small_fanout_stores() {
    // Section 4.1: "it is possible to use singlecast messages in order to
    // improve store access latency up to a certain number of nodes".
    let mk = |threshold: u32| {
        let params = ProtoParams {
            singlecast_threshold: threshold,
            ..ProtoParams::default()
        };
        Engine::new(&SystemConfig::builder(16).proto(params).build().unwrap())
    };
    let measure = |eng: &mut Engine| {
        let a = addr(0, 9);
        for n in 1..=3u16 {
            one_access(eng, node(n), MemOp::Load, a);
        }
        one_access(eng, node(1), MemOp::Store, a)
    };
    let multicast = measure(&mut mk(1));
    let singlecast = measure(&mut mk(4));
    assert!(
        singlecast < multicast,
        "2 targets: singlecast ({singlecast}) should beat multicast ({multicast})"
    );
}

#[test]
fn singlecast_threshold_preserves_correctness() {
    let params = ProtoParams {
        singlecast_threshold: 8,
        ..ProtoParams::default()
    };
    let mut eng = Engine::new(&SystemConfig::builder(16).proto(params).build().unwrap());
    let a = addr(0, 9);
    for n in 1..=6u16 {
        one_access(&mut eng, node(n), MemOp::Load, a);
    }
    one_access(&mut eng, node(1), MemOp::Store, a);
    assert_eq!(eng.cache_state(node(1), a), CacheState::Modified);
    for n in 2..=6u16 {
        assert_eq!(eng.cache_state(node(n), a), CacheState::Invalid);
    }
    assert_eq!(eng.memory_state(a), MemState::Dirty);
    // No gathers were needed below the threshold.
    assert_eq!(eng.net_stats().gather_delivered.get(), 0);
}

// ---------------------------------------------------------------------
// Queuing, contention and starvation
// ---------------------------------------------------------------------

#[test]
fn contended_stores_all_complete_without_nacks() {
    let mut eng = engine(16);
    let a = addr(0, 9);
    // Everyone reads, then everyone stores "simultaneously".
    for n in 0..16u16 {
        one_access(&mut eng, node(n), MemOp::Load, a);
    }
    let t0 = eng.now();
    let txns: Vec<_> = (0..16u16)
        .map(|n| eng.issue(t0, node(n), MemOp::Store, a))
        .collect();
    let done = eng.run();
    let completed: Vec<_> = done
        .iter()
        .filter_map(|n| match n {
            Notification::Completed { txn, .. } => Some(*txn),
            _ => None,
        })
        .collect();
    for t in &txns {
        assert!(completed.contains(t), "txn {t} starved");
    }
    assert_eq!(eng.stats().nacks.get(), 0);
    assert!(
        eng.stats().queued_requests.get() > 0,
        "contention must queue"
    );
    assert!(eng.max_request_queue_depth() > 0);
    assert!(
        eng.max_request_queue_depth() <= 16 * 4,
        "queue bound exceeded"
    );
    // Exactly one final owner.
    let owners = (0..16u16)
        .filter(|&n| eng.cache_state(node(n), a) == CacheState::Modified)
        .count();
    assert_eq!(owners, 1);
}

#[test]
fn fifo_queue_preserves_request_order() {
    // Three stores from three nodes arriving in order must be granted in
    // that order (the queuing protocol is FIFO; Figure 6b).
    let mut eng = engine(16);
    let a = addr(0, 9);
    for n in 1..=3u16 {
        one_access(&mut eng, node(n), MemOp::Load, a);
    }
    let t0 = eng.now();
    // Stagger by 1ns so arrival order at the home is deterministic.
    let mut txns = Vec::new();
    for (i, n) in [1u16, 2, 3].iter().enumerate() {
        txns.push(eng.issue(
            t0 + cenju4_des::Duration::from_ns(i as u64),
            node(*n),
            MemOp::Store,
            a,
        ));
    }
    let done = eng.run();
    let order: Vec<_> = done
        .iter()
        .filter_map(|n| match n {
            Notification::Completed { txn, finished, .. } => Some((*txn, *finished)),
            _ => None,
        })
        .collect();
    let pos = |t| order.iter().position(|(x, _)| *x == t).unwrap();
    assert!(pos(txns[0]) < pos(txns[1]));
    assert!(pos(txns[1]) < pos(txns[2]));
}

#[test]
fn nack_protocol_retries_under_contention() {
    let mut eng = Engine::new(
        &SystemConfig::builder(16)
            .kind(ProtocolKind::Nack)
            .build()
            .unwrap(),
    );
    let a = addr(0, 9);
    for n in 0..8u16 {
        one_access(&mut eng, node(n), MemOp::Load, a);
    }
    let t0 = eng.now();
    for n in 0..8u16 {
        eng.issue(t0, node(n), MemOp::Store, a);
    }
    eng.run();
    assert!(
        eng.stats().nacks.get() > 0,
        "contended stores must draw nacks"
    );
    assert!(eng.stats().retries.get() > 0);
    // The queuing protocol under the identical schedule never nacks.
    let mut q = engine(16);
    for n in 0..8u16 {
        one_access(&mut q, node(n), MemOp::Load, a);
    }
    let t0 = q.now();
    for n in 0..8u16 {
        q.issue(t0, node(n), MemOp::Store, a);
    }
    q.run();
    assert_eq!(q.stats().nacks.get(), 0);
}

#[test]
fn outstanding_limit_respected_via_backlog() {
    let mut eng = engine(16);
    // Ten misses to distinct remote blocks issued at once: only 4 MSHRs.
    let t0 = SimTime::ZERO;
    for b in 0..10u32 {
        eng.issue(t0, node(0), MemOp::Load, addr(1, b));
    }
    let done = eng.run();
    let completions = done
        .iter()
        .filter(|n| matches!(n, Notification::Completed { .. }))
        .count();
    assert_eq!(completions, 10, "backlogged accesses must complete");
    assert!(eng.max_master_input_depth() <= 4, "master buffer bound");
}

#[test]
fn deadlock_prevention_buffer_bounds_hold_under_stress() {
    let mut eng = engine(16);
    let mut rng = SplitMix64::new(2024);
    // A hot-spot stress: every node hammers home 0's blocks.
    for round in 0..50u32 {
        let t0 = eng.now();
        for n in 0..16u16 {
            let op = if rng.chance(0.5) {
                MemOp::Load
            } else {
                MemOp::Store
            };
            let a = addr(0, rng.next_below(4) as u32);
            eng.issue(t0, node(n), op, a);
            let _ = round;
        }
        eng.run();
    }
    // Paper bounds (scaled to 16 nodes x 4 outstanding = 64 messages):
    assert!(eng.max_request_queue_depth() <= 64);
    assert!(eng.max_slave_input_depth() <= 64);
    assert!(eng.max_master_input_depth() <= 4);
}

// ---------------------------------------------------------------------
// Randomized invariant stress
// ---------------------------------------------------------------------

/// After quiescence: at most one M/E copy per block; an M/E copy excludes
/// all other copies; the directory state agrees with the caches.
fn check_coherence_invariants(eng: &Engine, nodes: u16, blocks: &[Addr]) {
    for &a in blocks {
        let mut owners = Vec::new();
        let mut sharers = Vec::new();
        for n in 0..nodes {
            match eng.cache_state(node(n), a) {
                CacheState::Modified | CacheState::Exclusive => owners.push(n),
                CacheState::Shared | CacheState::SharedModified => sharers.push(n),
                CacheState::Invalid => {}
            }
        }
        assert!(owners.len() <= 1, "{a:?}: two owners {owners:?}");
        if let Some(o) = owners.first() {
            assert!(
                sharers.is_empty(),
                "{a:?}: owner {o} coexists with sharers {sharers:?}"
            );
            assert_eq!(
                eng.memory_state(a),
                MemState::Dirty,
                "{a:?}: owner but memory not dirty"
            );
        } else if eng.memory_state(a) == MemState::Dirty {
            // Legal residue: the registered sole owner silently evicted
            // its clean Exclusive line. The directory must then name
            // exactly one node and no other copies may exist; the next
            // request recovers via the forward / no-copy-reply path.
            assert!(sharers.is_empty(), "{a:?}: dirty with sharers but no owner");
            assert_eq!(
                eng.directory_sharers(a).len(),
                1,
                "{a:?}: dirty, ownerless, but directory names several nodes"
            );
        }
    }
}

#[test]
fn random_stress_preserves_coherence_invariants() {
    for seed in 0..8u64 {
        let mut eng = engine(16);
        let mut rng = SplitMix64::new(seed);
        let blocks: Vec<Addr> = (0..6).map(|i| addr((i % 4) as u16, i / 4)).collect();
        for _ in 0..40 {
            let t0 = eng.now();
            // A burst of concurrent random accesses, then quiesce.
            for _ in 0..12 {
                let n = node(rng.next_below(16) as u16);
                let a = blocks[rng.next_below(blocks.len() as u64) as usize];
                let op = if rng.chance(0.4) {
                    MemOp::Store
                } else {
                    MemOp::Load
                };
                eng.issue(t0, n, op, a);
            }
            eng.run();
            check_coherence_invariants(&eng, 16, &blocks);
        }
    }
}

#[test]
fn random_stress_on_128_nodes() {
    let mut eng = engine(128);
    let mut rng = SplitMix64::new(99);
    let blocks: Vec<Addr> = (0..10).map(|i| addr(i as u16 * 11 % 128, i)).collect();
    for _ in 0..20 {
        let t0 = eng.now();
        for _ in 0..40 {
            let n = node(rng.next_below(128) as u16);
            let a = blocks[rng.next_below(blocks.len() as u64) as usize];
            let op = if rng.chance(0.3) {
                MemOp::Store
            } else {
                MemOp::Load
            };
            eng.issue(t0, n, op, a);
        }
        eng.run();
        check_coherence_invariants(&eng, 128, &blocks);
    }
    // All gathers must have been closed.
    assert_eq!(eng.net_stats().gather_concurrency.current(), 0);
    // Gather-table budget: 1024 entries per switch in hardware.
    assert!(eng.net_stats().gather_concurrency.peak() <= 1024);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut eng = engine(16);
        let mut rng = SplitMix64::new(7);
        for _ in 0..30 {
            let t0 = eng.now();
            for _ in 0..8 {
                let n = node(rng.next_below(16) as u16);
                let a = addr(rng.next_below(4) as u16, rng.next_below(3) as u32);
                let op = if rng.chance(0.5) {
                    MemOp::Store
                } else {
                    MemOp::Load
                };
                eng.issue(t0, n, op, a);
            }
            eng.run();
        }
        (
            eng.now(),
            eng.stats().completed.get(),
            eng.stats().writebacks.get(),
            eng.net_stats().delivered.get(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn marker_notifications_fire() {
    let mut eng = engine(16);
    eng.schedule_marker(SimTime::from_ns(1000), 42);
    let done = eng.run();
    assert_eq!(
        done,
        vec![Notification::Marker {
            token: 42,
            at: SimTime::from_ns(1000)
        }]
    );
}

#[test]
fn trace_records_a_transaction_timeline() {
    let mut eng = engine(16);
    eng.enable_trace(256);
    let a = addr(0, 9);
    one_access(&mut eng, node(1), MemOp::Load, a);
    one_access(&mut eng, node(2), MemOp::Store, a);
    let timeline = eng.trace().for_block(a);
    let labels: Vec<&str> = timeline.iter().map(|r| r.label).collect();
    // The store's full sequence must appear after the load's.
    assert!(labels.contains(&"access:load"));
    assert!(labels.contains(&"home:request"));
    assert!(labels.contains(&"master:data-reply"));
    assert!(labels.contains(&"access:store"));
    // The store found the block dirty at node 1: a forward happened.
    assert!(labels.contains(&"slave:forward"));
    assert!(labels.contains(&"home:slave-reply"));
    // Timestamps are nondecreasing.
    assert!(timeline.windows(2).all(|w| w[0].at <= w[1].at));
    // And the dump renders one line per record.
    assert_eq!(eng.trace().dump_block(a).lines().count(), timeline.len());
}
