//! Property tests pinning the closed-form sharer-set queries to the
//! definitions they replaced.
//!
//! `count`, `represented`, `solo` and `fanout` used to scan every node
//! number from 0 to 1023 and test membership; they now jump between set
//! bits, clip at the machine edge with one mask, or read the lowest set
//! field bit. Every answer must stay exactly what the scan gave, because
//! the protocol's event order — and with it every golden trace and pin —
//! depends on it. The scans survive here, and only here, as oracles.
//!
//! Driven by the in-repo [`SplitMix64`] generator: fixed seeds, fully
//! deterministic, no crates.io dependencies.

use cenju4_des::SplitMix64;
use cenju4_directory::nodemap::{DestSpec, Repr};
use cenju4_directory::schemes::CoarseVector;
use cenju4_directory::{BitPattern, DirectoryId, NodeId, NodeMap, PointerSet, SystemSize};

/// Machine sizes around every edge the closed forms handle: tiny
/// machines, the 32-node precision limit, 64-bit word edges, stage
/// boundaries and the full machine.
const SIZES: [u16; 17] = [
    2, 3, 16, 17, 31, 32, 33, 100, 127, 128, 129, 255, 256, 257, 1000, 1023, 1024,
];

/// Random cases per (size, format).
const CASES: usize = 40;

fn all_ids() -> impl Iterator<Item = NodeId> {
    (0..1024u16).map(NodeId::new)
}

/// Oracle: the represented nodes of a pattern, by scanning all 1024 ids.
fn scan_pattern(p: &BitPattern) -> Vec<NodeId> {
    all_ids().filter(|n| p.contains(*n)).collect()
}

/// Oracle: a map's represented set within the machine, by scanning.
fn scan_map(m: &impl NodeMap, sys: SystemSize) -> Vec<NodeId> {
    all_ids()
        .filter(|n| sys.contains(*n) && m.contains(*n))
        .collect()
}

/// Oracle: a destination spec's destinations within the machine.
fn scan_spec(spec: &DestSpec, sys: SystemSize) -> Vec<NodeId> {
    all_ids()
        .filter(|n| sys.contains(*n) && spec.contains(*n))
        .collect()
}

/// Asserts every query of `spec` against the scan.
fn check_spec(spec: &DestSpec, sys: SystemSize, ctx: &str) {
    let want = scan_spec(spec, sys);
    assert_eq!(spec.destinations(sys), want, "destinations {ctx}");
    assert_eq!(spec.fanout(sys) as usize, want.len(), "fanout {ctx}");
}

/// A node inside the machine, biased towards its low and high edges
/// half the time so clipping and word boundaries get exercised.
fn node_in(rng: &mut SplitMix64, sys: SystemSize) -> NodeId {
    let n = sys.nodes() as u64;
    let raw = match rng.next_below(4) {
        0 => rng.next_below(n.min(8)),
        1 => n - 1 - rng.next_below(n.min(8)),
        _ => rng.next_below(n),
    };
    NodeId::new(raw as u16)
}

#[test]
fn bit_pattern_iter_and_count_below_match_the_scan() {
    let mut rng = SplitMix64::new(0x5_4A7E_0001);
    for case in 0..2000 {
        // Raw bits cover patterns no insert sequence builds (a field
        // zero while others are not); inserts cover the realistic ones.
        let p = if case % 2 == 0 {
            BitPattern::from_bits(rng.next_u64())
        } else {
            let k = 1 + rng.next_below(40);
            (0..k)
                .map(|_| NodeId::new(rng.next_below(1024) as u16))
                .collect()
        };
        let want = scan_pattern(&p);
        assert_eq!(p.iter().collect::<Vec<_>>(), want, "iter {p:?}");
        assert_eq!(p.count() as usize, want.len(), "count {p:?}");
        let mut edges: Vec<u16> = SIZES.to_vec();
        edges.extend([0, 1, 63, 64, 65, 511, 512]);
        edges.push(rng.next_below(1025) as u16);
        for n in edges {
            let below = want.iter().filter(|m| m.index() < n).count();
            assert_eq!(p.count_below(n) as usize, below, "count_below({n}) {p:?}");
        }
    }
}

#[test]
fn pointer_and_mask_specs_match_the_scan() {
    let mut rng = SplitMix64::new(0x5_4A7E_0002);
    for &nodes in &SIZES {
        let sys = SystemSize::new(nodes).unwrap();
        for _ in 0..CASES {
            // Pointers may name nodes beyond the machine; both queries
            // must clip them.
            let mut p = PointerSet::new();
            for _ in 0..rng.next_below(5) {
                p.insert(NodeId::new(rng.next_below(1024) as u16));
            }
            check_spec(&DestSpec::Pointers(p), sys, &format!("{p:?} on {nodes}"));

            let k = rng.next_below(64);
            let mask = DestSpec::mask((0..k).map(|_| NodeId::new(rng.next_below(1024) as u16)));
            check_spec(&mask, sys, &format!("mask on {nodes}"));

            let pattern = DestSpec::Pattern(BitPattern::from_bits(rng.next_u64()));
            check_spec(&pattern, sys, &format!("{pattern:?} on {nodes}"));
        }
    }
}

/// Drives one sharer set through a random mutation sequence, tracking
/// the `set_only` hint the old `solo` definition consulted.
fn random_sharers(
    rng: &mut SplitMix64,
    id: DirectoryId,
    sys: SystemSize,
) -> (cenju4_directory::SharerSet, Option<NodeId>) {
    let mut s = id.instantiate(sys);
    let mut only = None;
    // Short runs stay in pointer form; long ones overflow to the
    // pattern, broadcast or many coarse groups.
    let ops = if rng.chance(0.5) {
        rng.next_below(6)
    } else {
        rng.next_below(60)
    };
    for _ in 0..ops {
        let n = node_in(rng, sys);
        match rng.next_below(20) {
            0 => {
                s.set_only(n);
                only = Some(n);
            }
            1 => {
                s.clear();
                only = None;
            }
            2 => {
                s.scrub(n);
                if only == Some(n) {
                    only = None;
                }
            }
            _ => {
                s.add(n);
                only = None;
            }
        }
    }
    (s, only)
}

#[test]
fn sharer_set_queries_match_the_scan_in_every_format() {
    let mut rng = SplitMix64::new(0x5_4A7E_0003);
    for &nodes in &SIZES {
        let sys = SystemSize::new(nodes).unwrap();
        for id in DirectoryId::ALL {
            for case in 0..CASES {
                let (s, only) = random_sharers(&mut rng, id, sys);
                let ctx = format!("{id} on {nodes}, case {case}: {s:?}");
                let want = scan_map(&s, sys);
                assert_eq!(s.represented(), want, "represented {ctx}");
                assert_eq!(s.count() as usize, want.len(), "count {ctx}");
                assert_eq!(s.is_empty(), want.is_empty(), "is_empty {ctx}");
                assert_eq!(s.lowest(), want.first().copied(), "lowest {ctx}");
                assert_eq!(
                    s.solo(),
                    only.or_else(|| want.first().copied()),
                    "solo {ctx}"
                );

                let exclude = node_in(&mut rng, sys);
                let spec = s.push_spec(exclude, sys);
                check_spec(&spec, sys, &ctx);
                // The push reaches every represented sharer but the
                // master, and nothing the set does not represent; the
                // precise forms drop the master exactly.
                let dests = spec.destinations(sys);
                let others: Vec<NodeId> = want.iter().copied().filter(|&n| n != exclude).collect();
                assert!(others.iter().all(|n| dests.contains(n)), "push lost {ctx}");
                assert!(dests.iter().all(|n| want.contains(n)), "push grew {ctx}");
                let precise = match id {
                    DirectoryId::FullMap => true,
                    DirectoryId::PointerPattern => s.as_cenju4().unwrap().repr() == Repr::Pointers,
                    _ => false,
                };
                if precise {
                    assert_eq!(dests, others, "precise push {ctx}");
                } else if id != DirectoryId::LimitedPointer {
                    assert_eq!(dests, want, "imprecise push {ctx}");
                }
            }
        }
    }
}

#[test]
fn coarse_vectors_of_every_width_match_the_scan() {
    let mut rng = SplitMix64::new(0x5_4A7E_0004);
    for &nodes in &SIZES {
        let sys = SystemSize::new(nodes).unwrap();
        for _ in 0..CASES {
            let width = 1 + rng.next_below(64) as u32;
            let mut m = CoarseVector::new(sys, width);
            for _ in 0..rng.next_below(8) {
                m.add(node_in(&mut rng, sys));
            }
            let want = scan_map(&m, sys);
            let ctx = format!("width {width} on {nodes}: {m:?}");
            assert_eq!(m.represented(), want, "represented {ctx}");
            assert_eq!(m.count() as usize, want.len(), "count {ctx}");
            assert_eq!(m.lowest(), want.first().copied(), "lowest {ctx}");
        }
    }
}
