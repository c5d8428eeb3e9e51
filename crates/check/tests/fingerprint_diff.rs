//! Differential test of the state fingerprint: `Engine::state_fingerprint`
//! folds unordered state (outstanding transactions, parked events, open
//! gathers, recovery bookkeeping, lost blocks and down nodes) as
//! order-independent multiset digests, and must partition states exactly
//! as the sort-based fold it replaced, kept as
//! `Engine::state_fingerprint_sorted`: over every state reached, two
//! states share a fingerprint exactly when they share a reference one.
//! Fingerprint *values* are pinned nowhere; only this partition is.

use cenju4_check::CheckConfig;
use cenju4_des::{FxHashMap, FxHashSet, SplitMix64};
use cenju4_directory::NodeId;
use cenju4_protocol::{Addr, Engine, FaultInjection, ProtocolKind};

/// Both fingerprints of every visited state, checked for a one-to-one
/// correspondence as they arrive.
#[derive(Default)]
struct Partition {
    by_fingerprint: FxHashMap<u64, u64>,
    by_reference: FxHashMap<u64, u64>,
    visits: usize,
}

impl Partition {
    /// Checks `eng`'s state and returns its reference fingerprint.
    fn visit(&mut self, eng: &Engine, blocks: &[Addr]) -> u64 {
        let fp = eng.state_fingerprint(blocks);
        let reference = eng.state_fingerprint_sorted(blocks);
        let seen = *self.by_fingerprint.entry(fp).or_insert(reference);
        assert_eq!(
            seen, reference,
            "two states the reference tells apart share fingerprint {fp:#x}"
        );
        let seen = *self.by_reference.entry(reference).or_insert(fp);
        assert_eq!(
            seen, fp,
            "one reference state has fingerprints {seen:#x} and {fp:#x}"
        );
        self.visits += 1;
        reference
    }

    /// Distinct states seen.
    fn states(&self) -> usize {
        self.by_reference.len()
    }

    /// Asserts the walk visited at least `states` distinct states and
    /// revisited some, so both directions of the equivalence were tried.
    fn assert_covered(&self, cfg: &CheckConfig, states: usize) {
        assert!(
            self.states() >= states && self.visits > self.states(),
            "{cfg}: {} visits of {} states",
            self.visits,
            self.states()
        );
    }
}

/// Every state reachable from `cfg`'s initial state, each expanded once:
/// a depth-first walk of the state graph that forks the engine per
/// successor and prunes a state whose reference fingerprint was already
/// expanded (every revisit is still checked).
fn explore_state_graph(cfg: &CheckConfig, partition: &mut Partition) {
    let blocks = cfg.block_addrs();
    let mut expanded: FxHashSet<u64> = FxHashSet::default();
    let (mut ready, mut notes) = (Vec::new(), Vec::new());
    let mut stack = vec![cfg.engine()];
    while let Some(eng) = stack.pop() {
        if !expanded.insert(partition.visit(&eng, &blocks)) {
            continue;
        }
        eng.ready_choices(&mut ready);
        for &choice in &ready {
            let mut next = eng.fork().expect("checker engines fork");
            notes.clear();
            assert!(next.run_pending_into(choice, &mut notes));
            stack.push(next);
        }
    }
}

/// Visits every position of `walks` seeded walks of `cfg`, each picking
/// uniformly among the ready events until quiescence or a step cap.
fn walk_states(cfg: &CheckConfig, walks: u64, mut visit: impl FnMut(&Engine)) {
    let (mut ready, mut notes) = (Vec::new(), Vec::new());
    for walk in 0..walks {
        let mut rng = SplitMix64::new(walk.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
        let mut eng = cfg.engine();
        for _ in 0..10_000 {
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

/// The whole reachable state graphs of the check-explore scenario
/// (3 nodes x 1 block x 2 ops) and of a wider one (2 nodes x 2 blocks x
/// 3 ops).
#[test]
fn fingerprints_partition_explored_states_like_the_sorted_fold() {
    let explore = CheckConfig {
        nodes: 3,
        blocks: 1,
        ops_per_node: 2,
        ..CheckConfig::default()
    };
    let mut partition = Partition::default();
    explore_state_graph(&explore, &mut partition);
    // At least the reduced explorer's unique-state pin for the scenario.
    partition.assert_covered(&explore, 2376);

    let wide = CheckConfig {
        nodes: 2,
        blocks: 2,
        ops_per_node: 3,
        ..CheckConfig::default()
    };
    let mut partition = Partition::default();
    explore_state_graph(&wide, &mut partition);
    partition.assert_covered(&wide, 1500);
}

/// Seeded walks under the nack protocol, whose retries leave states
/// that differ only in an outstanding transaction's retry count.
#[test]
fn fingerprints_partition_nack_retry_states_like_the_sorted_fold() {
    let cfg = CheckConfig {
        nodes: 3,
        blocks: 1,
        ops_per_node: 2,
        kind: ProtocolKind::Nack,
        ..CheckConfig::default()
    };
    let blocks = cfg.block_addrs();
    let mut partition = Partition::default();
    walk_states(&cfg, 300, |eng| {
        partition.visit(eng, &blocks);
    });
    partition.assert_covered(&cfg, 1000);
}

/// Seeded walks with recovery armed over a fabric dropping one message
/// in ten: link and transaction timers parked, gathers open in the
/// fabric, replies recorded by the duplicate filter.
#[test]
fn fingerprints_partition_lossy_recovery_states_like_the_sorted_fold() {
    let mut partition = Partition::default();
    let (mut timers, mut gathers) = (0, 0);
    // The check-walks scenario, then maximal sharing of one block, whose
    // stores invalidate two sharers through a gather (armed, each reply
    // enters the duplicate filter's replied set until the gather closes).
    for (blocks, ops_per_node) in [(2, 2), (1, 3)] {
        let cfg = CheckConfig {
            nodes: 3,
            blocks,
            ops_per_node,
            recovery: true,
            drop_permille: 100,
            fault_seed: 1,
            ..CheckConfig::default()
        };
        let addrs = cfg.block_addrs();
        walk_states(&cfg, 300, |eng| {
            partition.visit(eng, &addrs);
            timers += usize::from(eng.pending_events().iter().any(|e| e.timer));
            gathers += usize::from(eng.open_gathers() > 0);
        });
    }
    partition.assert_covered(&CheckConfig::default(), 1000);
    assert!(
        timers > 100 && gathers > 100,
        "{timers} states with a timer parked, {gathers} with a gather open"
    );
}

/// Seeded walks in which node 1 dies mid-run and is quarantined: the
/// ever-down set and the blocks lost with it enter the fingerprint.
#[test]
fn fingerprints_partition_node_down_states_like_the_sorted_fold() {
    let mut partition = Partition::default();
    let (mut down, mut lost) = (0, 0);
    for (blocks, ops_per_node) in [(2, 2), (1, 3)] {
        let cfg = CheckConfig {
            nodes: 3,
            blocks,
            ops_per_node,
            fault: FaultInjection::NodeDown,
            recovery: true,
            ..CheckConfig::default()
        };
        let addrs = cfg.block_addrs();
        walk_states(&cfg, 200, |eng| {
            partition.visit(eng, &addrs);
            if eng.was_ever_down(NodeId::new(1)) {
                down += 1;
                // A compromised block homed on a survivor was lost with
                // the dead node's copy.
                lost += usize::from(
                    addrs
                        .iter()
                        .any(|&a| !eng.was_ever_down(a.home()) && eng.value_compromised(a)),
                );
            }
        });
    }
    partition.assert_covered(&CheckConfig::default(), 500);
    assert!(
        down > 100 && lost > 0,
        "{down} states with node 1 down, {lost} with a block lost"
    );
}
