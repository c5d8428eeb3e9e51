//! Data-freshness litmus tests: the protocol must deliver the *data* of
//! the most recent write, not just the right MESI states. Every store
//! writes the unique token `txn + 1`; loads report the token they
//! observed.

use cenju4_des::{Duration, SimTime, SplitMix64};
use cenju4_directory::NodeId;
use cenju4_protocol::{Addr, Engine, MemOp, Notification, ProtoParams, SystemConfig};
use std::collections::HashMap;

fn engine(nodes: u16) -> Engine {
    Engine::new(&SystemConfig::builder(nodes).build().unwrap())
}

fn node(n: u16) -> NodeId {
    NodeId::new(n)
}

fn addr(home: u16, block: u32) -> Addr {
    Addr::new(node(home), block)
}

/// Runs one access to quiescence and returns (txn, observed value).
fn one(eng: &mut Engine, n: NodeId, op: MemOp, a: Addr) -> (u64, u64) {
    let txn = eng.issue(eng.now(), n, op, a);
    let done = eng.run();
    let v = done
        .iter()
        .find_map(|x| match x {
            Notification::Completed { txn: t, value, .. } if *t == txn => Some(*value),
            _ => None,
        })
        .expect("completes");
    (txn, v)
}

#[test]
fn read_your_own_write() {
    let mut eng = engine(16);
    let a = addr(1, 0);
    let (txn, wrote) = one(&mut eng, node(0), MemOp::Store, a);
    assert_eq!(wrote, txn + 1);
    let (_, read) = one(&mut eng, node(0), MemOp::Load, a);
    assert_eq!(read, wrote);
}

#[test]
fn reader_sees_remote_writers_data_through_forward() {
    // Dirty-remote path: the owner's cache supplies the line via the home.
    let mut eng = engine(16);
    let a = addr(0, 0);
    let (_, wrote) = one(&mut eng, node(1), MemOp::Store, a);
    let (_, read) = one(&mut eng, node(2), MemOp::Load, a);
    assert_eq!(read, wrote, "forwarded data must be the owner's");
    // And the home's memory was refreshed on the way through.
    assert_eq!(eng.memory_value(a), wrote);
}

#[test]
fn writeback_persists_data_to_memory() {
    let params = ProtoParams {
        cache_bytes: 2 * 128,
        cache_assoc: 1,
        ..ProtoParams::default()
    };
    let mut eng = Engine::new(&SystemConfig::builder(16).proto(params).build().unwrap());
    let a = addr(1, 0);
    let (_, wrote) = one(&mut eng, node(0), MemOp::Store, a);
    // Evict the dirty line.
    for b in 1..40u32 {
        one(&mut eng, node(0), MemOp::Store, addr(1, b));
        if eng.cache_value(node(0), a) == 0 {
            break;
        }
    }
    eng.run();
    assert_eq!(eng.memory_value(a), wrote, "writeback lost the data");
    // A later reader gets it from memory.
    let (_, read) = one(&mut eng, node(3), MemOp::Load, a);
    assert_eq!(read, wrote);
}

#[test]
fn invalidated_sharers_refetch_fresh_data() {
    let mut eng = engine(16);
    let a = addr(0, 0);
    for n in 1..=5u16 {
        one(&mut eng, node(n), MemOp::Load, a);
    }
    let (_, wrote) = one(&mut eng, node(6), MemOp::Store, a);
    for n in 1..=5u16 {
        let (_, read) = one(&mut eng, node(n), MemOp::Load, a);
        assert_eq!(read, wrote, "node {n} read stale data");
    }
}

#[test]
fn ownership_upgrade_preserves_write() {
    let mut eng = engine(16);
    let a = addr(0, 0);
    one(&mut eng, node(1), MemOp::Load, a);
    one(&mut eng, node(2), MemOp::Load, a);
    let (_, wrote) = one(&mut eng, node(1), MemOp::Store, a); // ownership
    let (_, read) = one(&mut eng, node(2), MemOp::Load, a);
    assert_eq!(read, wrote);
}

#[test]
fn update_protocol_pushes_fresh_values() {
    let mut eng = engine(16);
    let a = addr(0, 0);
    eng.mark_update_block(a);
    for n in 1..=6u16 {
        one(&mut eng, node(n), MemOp::Load, a);
    }
    let (_, wrote) = one(&mut eng, node(3), MemOp::Store, a);
    // Every subscriber's L2 copy was refreshed in place.
    for n in 1..=6u16 {
        let (_, read) = one(&mut eng, node(n), MemOp::Load, a);
        assert_eq!(read, wrote, "subscriber {n} has a stale copy");
        assert_eq!(eng.cache_value(node(n), a), wrote);
    }
    assert_eq!(eng.memory_value(a), wrote);
}

#[test]
fn update_l3_refill_returns_latest_value() {
    let params = ProtoParams {
        cache_bytes: 2 * 128,
        cache_assoc: 1,
        ..ProtoParams::default()
    };
    let mut eng = Engine::new(&SystemConfig::builder(16).proto(params).build().unwrap());
    let a = addr(0, 0);
    eng.mark_update_block(a);
    one(&mut eng, node(5), MemOp::Load, a); // subscribe
    let (_, wrote) = one(&mut eng, node(1), MemOp::Store, a); // push
                                                              // Evict node 5's L2 line; the L3 retains the pushed value.
    for b in 1..40u32 {
        one(&mut eng, node(5), MemOp::Load, addr(5, b));
        use cenju4_protocol::CacheState;
        if eng.cache_state(node(5), a) == CacheState::Invalid {
            break;
        }
    }
    let (_, read) = one(&mut eng, node(5), MemOp::Load, a);
    assert_eq!(read, wrote, "L3 refill returned stale data");
}

#[test]
fn per_location_monotonic_reads() {
    // One writer stores an increasing sequence; concurrent readers must
    // never observe the sequence going backwards (per-location coherence).
    let mut eng = engine(16);
    let a = addr(0, 0);
    let mut write_order: Vec<u64> = Vec::new();
    let mut reads: HashMap<u16, Vec<u64>> = HashMap::new();
    let mut pending_read: HashMap<u64, u16> = HashMap::new();
    for round in 0..30u64 {
        let t0 = eng.now() + Duration::from_ns(1);
        let wtxn = eng.issue(t0, node(0), MemOp::Store, a);
        write_order.push(wtxn + 1);
        for r in 1..=4u16 {
            let rtxn = eng.issue(t0, node(r), MemOp::Load, a);
            pending_read.insert(rtxn, r);
        }
        for note in eng.run() {
            if let Notification::Completed { txn, value, .. } = note {
                if let Some(r) = pending_read.remove(&txn) {
                    reads.entry(r).or_default().push(value);
                }
            }
        }
        let _ = round;
    }
    let rank: HashMap<u64, usize> = write_order
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i + 1))
        .collect();
    for (r, seq) in reads {
        let ranks: Vec<usize> = seq
            .iter()
            .map(|v| if *v == 0 { 0 } else { rank[v] })
            .collect();
        assert!(
            ranks.windows(2).all(|w| w[0] <= w[1]),
            "reader {r} observed non-monotonic values: {ranks:?}"
        );
    }
}

#[test]
fn random_traffic_final_values_consistent() {
    // After quiescence, memory (or the sole owner) must hold the value of
    // some completed store, and every cached copy must agree with it.
    for seed in 0..6u64 {
        let mut eng = engine(16);
        let mut rng = SplitMix64::new(seed);
        let blocks: Vec<Addr> = (0..4).map(|i| addr(i as u16, i)).collect();
        let mut last_values: HashMap<Addr, Vec<u64>> = HashMap::new();
        for _ in 0..25 {
            let t0 = eng.now();
            let mut stores: HashMap<Addr, Vec<u64>> = HashMap::new();
            for _ in 0..10 {
                let n = node(rng.next_below(16) as u16);
                let a = blocks[rng.next_below(4) as usize];
                if rng.chance(0.5) {
                    let txn = eng.issue(t0, n, MemOp::Store, a);
                    stores.entry(a).or_default().push(txn + 1);
                } else {
                    eng.issue(t0, n, MemOp::Load, a);
                }
            }
            eng.run();
            for (a, vs) in stores {
                last_values.insert(a, vs);
            }
        }
        for &a in &blocks {
            // Find the authoritative value: the owner's cache or memory.
            let owner_value = (0..16u16)
                .map(node)
                .find(|&n| {
                    use cenju4_protocol::CacheState;
                    matches!(
                        eng.cache_state(n, a),
                        CacheState::Modified | CacheState::Exclusive
                    )
                })
                .map(|n| eng.cache_value(n, a))
                .unwrap_or_else(|| eng.memory_value(a));
            if let Some(candidates) = last_values.get(&a) {
                assert!(
                    candidates.contains(&owner_value) || owner_value == 0,
                    "{a:?}: final value {owner_value} is not any of the last round's stores {candidates:?}"
                );
            }
            // Every Shared copy agrees with memory.
            for n in (0..16u16).map(node) {
                use cenju4_protocol::CacheState;
                if eng.cache_state(n, a) == CacheState::Shared {
                    assert_eq!(
                        eng.cache_value(n, a),
                        eng.memory_value(a),
                        "{a:?}: node {n} shared copy disagrees with memory"
                    );
                }
            }
        }
    }
}

#[test]
fn values_survive_queued_contention() {
    // Many writers pile up in the home queue; the final memory value must
    // be the last-serviced store, and a subsequent read returns it.
    let mut eng = engine(16);
    let a = addr(0, 0);
    for n in 0..16u16 {
        one(&mut eng, node(n), MemOp::Load, a);
    }
    let t0 = eng.now() + Duration::from_ns(1);
    let mut tokens = Vec::new();
    for n in 0..16u16 {
        let txn = eng.issue(t0 + Duration::from_ns(n as u64), node(n), MemOp::Store, a);
        tokens.push(txn + 1);
    }
    eng.run();
    let (_, read) = one(&mut eng, node(5), MemOp::Load, a);
    assert!(tokens.contains(&read), "read {read} not among stores");
    // FIFO service: the last store in arrival order wins.
    assert_eq!(read, *tokens.last().unwrap(), "FIFO order violated");
    let _ = SimTime::ZERO;
}
