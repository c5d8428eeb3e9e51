//! Randomized property tests over the core data structures and protocol
//! invariants.
//!
//! These were originally written with proptest; they are now driven by the
//! in-repo [`SplitMix64`] generator so the tier-1 suite builds and runs with
//! no network access (no crates.io dependencies). Each test sweeps a fixed
//! number of seeded random cases and is therefore fully deterministic.

use cenju4::des::SplitMix64;
use cenju4::directory::nodemap::DestSpec;
use cenju4::prelude::*;

/// Number of random cases per property.
const CASES: u64 = 200;

/// A random non-empty node list with indices below `max_node`.
fn random_nodes(rng: &mut SplitMix64, max_node: u16, max_len: u64) -> Vec<u16> {
    let len = 1 + rng.next_below(max_len - 1);
    (0..len)
        .map(|_| rng.next_below(max_node as u64) as u16)
        .collect()
}

/// Every inserted node is represented — the superset invariant the whole
/// coherence argument rests on.
#[test]
fn bitpattern_is_a_superset() {
    let mut rng = SplitMix64::new(0xB17_0001);
    for _ in 0..CASES {
        let nodes = random_nodes(&mut rng, 1024, 40);
        let p: BitPattern = nodes.iter().map(|&n| NodeId::new(n)).collect();
        for &n in &nodes {
            assert!(p.contains(NodeId::new(n)), "{n} missing from {nodes:?}");
        }
        let distinct = nodes.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(p.count() as usize >= distinct);
    }
}

/// Packing a pattern into 42 bits and back is lossless.
#[test]
fn bitpattern_bits_roundtrip() {
    let mut rng = SplitMix64::new(0xB17_0002);
    for _ in 0..CASES {
        let nodes = random_nodes(&mut rng, 1024, 40);
        let p: BitPattern = nodes.iter().map(|&n| NodeId::new(n)).collect();
        assert_eq!(BitPattern::from_bits(p.to_bits()), p);
        assert!(p.to_bits() < (1u64 << 42));
    }
}

/// The switch-side masked predicate agrees with brute-force enumeration of
/// the represented set.
#[test]
fn masked_predicate_matches_enumeration() {
    let mut rng = SplitMix64::new(0xB17_0003);
    for _ in 0..CASES {
        let nodes = random_nodes(&mut rng, 1024, 40);
        let mask = rng.next_below(1024) as u32;
        let value = rng.next_below(1024) as u32;
        let p: BitPattern = nodes.iter().map(|&n| NodeId::new(n)).collect();
        let expected = p.iter().any(|n| (n.index() as u32) & mask == value & mask);
        assert_eq!(
            p.intersects_masked(mask, value),
            expected,
            "mask={mask:#x} value={value:#x} nodes={nodes:?}"
        );
    }
}

/// The dynamic map is precise up to four sharers and a superset after.
#[test]
fn cenju4_map_invariants() {
    let mut rng = SplitMix64::new(0xB17_0004);
    let sys = SystemSize::new(1024).unwrap();
    for _ in 0..CASES {
        let nodes = random_nodes(&mut rng, 1024, 40);
        let mut m = Cenju4NodeMap::new(sys);
        let mut truth = std::collections::BTreeSet::new();
        for &n in &nodes {
            m.add(NodeId::new(n));
            truth.insert(n);
        }
        for &n in &truth {
            assert!(m.contains(NodeId::new(n)));
        }
        assert!(m.count() as usize >= truth.len());
        if truth.len() <= 4 {
            assert_eq!(m.count() as usize, truth.len(), "pointer mode is precise");
        }
    }
}

/// Directory entries survive the 64-bit pack/unpack for any state,
/// reservation, and sharer set.
#[test]
fn entry_roundtrip() {
    let mut rng = SplitMix64::new(0xB17_0005);
    let sys = SystemSize::new(1024).unwrap();
    let states = [
        MemState::Clean,
        MemState::Dirty,
        MemState::PendingShared,
        MemState::PendingExclusive,
        MemState::PendingInvalidate,
    ];
    for _ in 0..CASES {
        let nodes = random_nodes(&mut rng, 1024, 40);
        let st = states[rng.next_below(states.len() as u64) as usize];
        let resv = rng.chance(0.5);
        let mut e = DirectoryEntry::new(sys);
        e.set_state(st);
        e.set_reservation(resv);
        for &n in &nodes {
            e.map_mut().add(NodeId::new(n));
        }
        let back = DirectoryEntry::from_bits(e.to_bits(), sys);
        assert_eq!(back.state(), st);
        assert_eq!(back.reservation(), resv);
        assert_eq!(back.map().count(), e.map().count());
        for &n in &nodes {
            assert!(back.map().contains(NodeId::new(n)));
        }
    }
}

/// The fabric delivers a multicast to exactly the existing represented
/// destinations — never more (phantom ports), never fewer.
#[test]
fn multicast_delivery_set_is_exact() {
    let mut rng = SplitMix64::new(0xB17_0006);
    let machines = [600u16, 64, 1024, 100];
    for case in 0..CASES {
        let machine = machines[(case % machines.len() as u64) as usize];
        let nodes = random_nodes(&mut rng, 600, 30);
        let members: Vec<u16> = nodes.into_iter().filter(|&n| n < machine).collect();
        if members.is_empty() {
            continue;
        }
        let sys = SystemSize::new(machine).unwrap();
        let spec = if members.len() <= 4 {
            let mut ps = cenju4::directory::PointerSet::new();
            for &n in &members {
                ps.insert(NodeId::new(n));
            }
            DestSpec::Pointers(ps)
        } else {
            DestSpec::Pattern(members.iter().map(|&n| NodeId::new(n)).collect())
        };
        let expected: Vec<u16> = spec.destinations(sys).iter().map(|n| n.index()).collect();
        let mut f: Fabric<u32> = Fabric::new(sys, NetParams::default());
        let dels = f.send_multicast(
            SimTime::ZERO,
            NodeId::new(0),
            spec,
            false,
            0,
            None,
            WireClass::Other,
        );
        let mut got: Vec<u16> = dels.iter().map(|d| d.node.index()).collect();
        got.sort_unstable();
        assert_eq!(got, expected, "machine={machine} members={members:?}");
    }
}

/// In-order delivery: messages between one (src, dst) pair always arrive in
/// send order, whatever mix of data/header messages.
#[test]
fn fabric_in_order_delivery() {
    let mut rng = SplitMix64::new(0xB17_0007);
    let sys = SystemSize::new(128).unwrap();
    for _ in 0..CASES {
        let src = rng.next_below(128) as u16;
        let dst = {
            let mut d = rng.next_below(128) as u16;
            if d == src {
                d = (d + 1) % 128;
            }
            d
        };
        let n_msgs = 2 + rng.next_below(18);
        let mut f: Fabric<u32> = Fabric::new(sys, NetParams::default());
        let mut last = SimTime::ZERO;
        for i in 0..n_msgs {
            let data = rng.chance(0.5);
            let ds = f.send_unicast(
                SimTime::from_ns(i),
                NodeId::new(src),
                NodeId::new(dst),
                data,
                i as u32,
                WireClass::Other,
            );
            // No fault plan: exactly one delivery per send.
            assert_eq!(ds.len(), 1, "message {i} delivered {} times", ds.len());
            assert!(ds[0].at > last, "message {i} overtook its predecessor");
            last = ds[0].at;
        }
    }
}

/// Random concurrent loads/stores leave the machine coherent: at most one
/// owner per block, owners exclude sharers, and directory state matches
/// cache contents at quiescence.
#[test]
fn protocol_coherence_under_random_traffic() {
    let mut seeds = SplitMix64::new(0xB17_0008);
    let sizes = [4u16, 16, 32];
    for case in 0..16u64 {
        let nodes = sizes[(case % sizes.len() as u64) as usize];
        let seed = seeds.next_u64();
        let cfg = SystemConfig::builder(nodes).build().unwrap();
        let mut eng = Engine::new(&cfg);
        let mut rng = SplitMix64::new(seed);
        let blocks: Vec<Addr> = (0..5)
            .map(|i| Addr::new(NodeId::new((i * 7) % nodes), i as u32))
            .collect();
        for _ in 0..15 {
            let t0 = eng.now();
            for _ in 0..10 {
                let n = NodeId::new(rng.next_below(nodes as u64) as u16);
                let a = blocks[rng.next_below(blocks.len() as u64) as usize];
                let op = if rng.chance(0.4) {
                    MemOp::Store
                } else {
                    MemOp::Load
                };
                eng.issue(t0, n, op, a);
            }
            eng.run();
            for &a in &blocks {
                let mut owners = 0;
                let mut sharers = 0;
                for i in 0..nodes {
                    match eng.cache_state(NodeId::new(i), a) {
                        CacheState::Modified | CacheState::Exclusive => owners += 1,
                        CacheState::Shared | CacheState::SharedModified => sharers += 1,
                        CacheState::Invalid => {}
                    }
                }
                assert!(owners <= 1, "{a:?}: {owners} owners (seed {seed:#x})");
                if owners == 1 {
                    assert_eq!(sharers, 0, "{a:?}: owner with sharers");
                    assert_eq!(eng.memory_state(a), MemState::Dirty);
                } else if eng.memory_state(a) == MemState::Dirty {
                    // Sole Exclusive owner silently evicted (see
                    // engine_tests::check_coherence_invariants).
                    assert_eq!(sharers, 0);
                    assert_eq!(eng.directory_sharers(a).len(), 1);
                }
            }
        }
    }
}

/// The dense link index is a bijection with `(src, dst)` over the whole
/// supported machine range: every pair maps to a distinct in-bounds slot
/// and maps back exactly. This is the invariant that lets the flat
/// `LinkTable` replace the `(src, dst)`-keyed maps on the hot path.
#[test]
fn link_index_roundtrips_over_full_node_range() {
    use cenju4::network::tables::{link_index, link_of_index};
    // Exhaustive at the 1024-node maximum (the largest machine the
    // butterfly supports), spot-checked at the other legal sizes.
    let nodes = 1024usize;
    let mut seen = vec![false; nodes * nodes];
    for s in 0..nodes as u16 {
        for d in 0..nodes as u16 {
            let (src, dst) = (NodeId::new(s), NodeId::new(d));
            let i = link_index(nodes, src, dst);
            assert!(i < nodes * nodes, "({s},{d}) out of bounds: {i}");
            assert!(!seen[i], "collision at ({s},{d}) -> {i}");
            seen[i] = true;
            assert_eq!(link_of_index(nodes, i), (src, dst));
        }
    }
    assert!(seen.iter().all(|&b| b), "index space not covered");

    // Random machines of every legal size: round-trip still exact.
    let mut rng = SplitMix64::new(0x11_0DE);
    for &nodes in &[16usize, 128, 256, 1024] {
        for _ in 0..CASES {
            let s = rng.next_below(nodes as u64) as u16;
            let d = rng.next_below(nodes as u64) as u16;
            let i = link_index(nodes, NodeId::new(s), NodeId::new(d));
            assert_eq!(link_of_index(nodes, i), (NodeId::new(s), NodeId::new(d)));
        }
    }
}

/// The flat port index is injective across the whole switch fabric of
/// each supported machine size: no two (stage, switch, port) triples
/// share a slot, and the slots exactly fill `stages * switches * 4`.
#[test]
fn port_index_is_injective_per_geometry() {
    use cenju4::network::tables::port_index;
    // (nodes, stages): radix-4 butterfly geometries from the paper.
    for &(nodes, stages) in &[(16u32, 2u32), (128, 4), (256, 4), (1024, 6)] {
        let sps = nodes / 4; // switches per stage
        let mut seen = vec![false; (stages * sps * 4) as usize];
        for stage in 0..stages {
            for label in 0..sps {
                for port in 0..4u8 {
                    let i = port_index(sps, stage, label, port);
                    assert!(!seen[i], "collision at ({stage},{label},{port})");
                    seen[i] = true;
                }
            }
        }
        assert!(
            seen.iter().all(|&b| b),
            "{nodes}-node port space not covered"
        );
    }
}
