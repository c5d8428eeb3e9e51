//! Tests of the user-level message-passing layer (Section 2 of the paper:
//! the controller chip supports message passing and DSM over one network).
//! Calibration targets: 9.1 µs one-way latency and 169 MB/s bandwidth on a
//! 128-node machine (Section 4.2.1).

use cenju4_des::SimTime;
use cenju4_directory::NodeId;
use cenju4_protocol::{Addr, Engine, MemOp, Notification, SystemConfig};

fn engine(nodes: u16) -> Engine {
    Engine::new(&SystemConfig::builder(nodes).build().unwrap())
}

fn node(n: u16) -> NodeId {
    NodeId::new(n)
}

/// Sends one message and returns its end-to-end latency in ns.
fn send_one(eng: &mut Engine, src: NodeId, dst: NodeId, bytes: u64, tag: u64) -> u64 {
    eng.mp_send(eng.now(), src, dst, bytes, tag);
    let done = eng.run();
    done.iter()
        .find_map(|n| match n {
            Notification::MessageDelivered {
                tag: t,
                sent,
                delivered,
                ..
            } if *t == tag => Some(delivered.since(*sent).as_ns()),
            _ => None,
        })
        .expect("message must arrive")
}

#[test]
fn small_message_latency_matches_the_papers_9_1_us() {
    let mut eng = engine(128);
    let lat = send_one(&mut eng, node(0), node(99), 8, 1);
    let err = (lat as f64 - 9_100.0).abs() / 9_100.0;
    assert!(err < 0.05, "one-way {lat} ns vs paper 9100 ns ({err:.1}%)");
}

#[test]
fn large_transfer_bandwidth_matches_169_mb_per_s() {
    let mut eng = engine(128);
    let bytes: u64 = 1 << 20; // 1 MB
    let lat = send_one(&mut eng, node(0), node(64), bytes, 2);
    // 1 MB / 169 B/us = 6204 us of serialization + ~9 us overhead.
    let expect = bytes as f64 * 1_000.0 / 169.0;
    let err = (lat as f64 - expect).abs() / expect;
    assert!(err < 0.02, "1MB took {lat} ns, expected ~{expect:.0} ns");
}

#[test]
fn message_ordering_preserved_per_pair() {
    let mut eng = engine(16);
    for tag in 0..10u64 {
        eng.mp_send(eng.now(), node(1), node(2), 256, tag);
    }
    let done = eng.run();
    let tags: Vec<u64> = done
        .iter()
        .filter_map(|n| match n {
            Notification::MessageDelivered { tag, .. } => Some(*tag),
            _ => None,
        })
        .collect();
    assert_eq!(tags, (0..10).collect::<Vec<_>>(), "messages reordered");
}

#[test]
fn carries_tag_and_size_to_receiver() {
    let mut eng = engine(16);
    eng.mp_send(SimTime::ZERO, node(3), node(7), 4096, 0xBEEF);
    let done = eng.run();
    assert!(done.iter().any(|n| matches!(
        n,
        Notification::MessageDelivered {
            to,
            from,
            tag: 0xBEEF,
            bytes: 4096,
            ..
        } if *to == node(7) && *from == node(3)
    )));
}

#[test]
fn bulk_transfer_delays_coherence_traffic_from_the_same_node() {
    // DSM and message passing share the NIC: a long outgoing transfer
    // delays a coherence request issued just after it.
    let mut clean = engine(16);
    let a = Addr::new(node(1), 0);
    let txn = clean.issue(SimTime::ZERO, node(0), MemOp::Load, a);
    let base = clean
        .run()
        .iter()
        .find_map(|n| n.latency())
        .unwrap()
        .as_ns();
    let _ = txn;

    let mut busy = engine(16);
    busy.mp_send(SimTime::ZERO, node(0), node(5), 64 * 1024, 9);
    busy.issue(SimTime::ZERO, node(0), MemOp::Load, a);
    let notes = busy.run();
    let loaded = notes
        .iter()
        .find_map(|n| match n {
            Notification::Completed {
                issued, finished, ..
            } => Some(finished.since(*issued).as_ns()),
            _ => None,
        })
        .expect("load completes");
    assert!(
        loaded > base + 100_000,
        "a 64KB transfer (~380us) must delay the load: {base} -> {loaded}"
    );
}

#[test]
fn concurrent_messages_to_one_receiver_serialize_at_its_nic() {
    let mut eng = engine(16);
    for srcn in 1..=8u16 {
        eng.mp_send(SimTime::ZERO, node(srcn), node(0), 16 * 1024, srcn as u64);
    }
    let done = eng.run();
    let mut times: Vec<u64> = done
        .iter()
        .filter_map(|n| match n {
            Notification::MessageDelivered { delivered, .. } => Some(delivered.as_ns()),
            _ => None,
        })
        .collect();
    times.sort_unstable();
    assert_eq!(times.len(), 8);
    // All eight 16 KB messages head for one node; the later ones wait.
    assert!(times[7] > times[0]);
}

#[test]
fn deterministic_mp_replay() {
    let run = || {
        let mut eng = engine(16);
        for i in 0..20u64 {
            let s = node((i % 15) as u16 + 1);
            eng.mp_send(SimTime::from_ns(i * 50), s, node(0), 1024 + i, i);
        }
        let done = eng.run();
        (eng.now(), done.len())
    };
    assert_eq!(run(), run());
}
