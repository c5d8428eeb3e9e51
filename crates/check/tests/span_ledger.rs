//! Differential test of the span ledger against the span collector.
//!
//! A checker engine carries a `SpanLedger`, which keeps only the open and
//! completed span counts the span-leak oracle reads. The
//! `SpanCollector` it stands in for opens and closes spans by the same
//! rules while recording everything else about them. Seeded walks run
//! with both attached, and after every step the two must report the same
//! counts: under MESI queuing, nack and Dragon, over a lossy fabric with
//! recovery, with a node going down and being quarantined, on one-line
//! caches whose evictions write dirty victims back, and under every
//! fault-injection mutant (a walk a protocol panic ends is compared up to
//! the panic).

use cenju4_check::{CheckConfig, SpanLedger};
use cenju4_des::SplitMix64;
use cenju4_directory::NodeId;
use cenju4_network::{FaultPlan, NodeDown};
use cenju4_obs::{SpanClass, SpanCollector};
use cenju4_protocol::{
    Engine, FaultInjection, ProtocolId, ProtocolKind, SystemConfig, BLOCK_BYTES,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Steps after which a walk is cut short.
const MAX_STEPS: usize = 5_000;

/// What a set of walks reached.
#[derive(Debug, Default)]
struct Reached {
    /// Steps compared.
    steps: usize,
    /// Walks that quiesced.
    quiescent: usize,
    /// Walks a protocol panic ended.
    panicked: usize,
    /// Writeback spans the collector closed.
    writebacks: usize,
    /// Spans the collector closed as abandoned.
    abandoned: usize,
}

fn scenario(nodes: u16, blocks: u16, ops_per_node: u32) -> CheckConfig {
    CheckConfig {
        nodes,
        blocks,
        ops_per_node,
        ..CheckConfig::default()
    }
}

/// The machine of `cfg` with one-line direct-mapped caches: every switch
/// of block evicts.
fn one_line_caches(cfg: &CheckConfig) -> SystemConfig {
    let mut sys = cfg.system_config().expect("scenario builds");
    sys.proto.cache_bytes = BLOCK_BYTES;
    sys.proto.cache_assoc = 1;
    sys
}

/// The ledger's and the collector's (open, completed) span counts.
fn counts(eng: &Engine) -> [(usize, usize); 2] {
    let ledger = eng.observer::<SpanLedger>().expect("ledger attached");
    let col = eng.observer::<SpanCollector>().expect("collector attached");
    [
        (ledger.open_span_count(), ledger.completed_span_count()),
        (col.open_span_count(), col.completed_span_count()),
    ]
}

/// Drives `walks` seeded walks of `cfg`'s workload on the machine `sys`
/// with a collector attached beside the ledger, asserting after every
/// step that the two agree.
fn walk_both(cfg: &CheckConfig, sys: &SystemConfig, seed: u64, walks: u64) -> Reached {
    let mut reached = Reached::default();
    let (mut ready, mut notes) = (Vec::new(), Vec::new());
    for w in 0..walks {
        let mut rng = SplitMix64::new(seed.wrapping_add(w).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut eng = cfg.engine_on(sys);
        eng.add_observer(Box::new(SpanCollector::new(sys.sys)));
        for step in 0..MAX_STEPS {
            let [ledger, col] = counts(&eng);
            assert_eq!(ledger, col, "{cfg}: walk {w} of seed {seed}, step {step}");
            reached.steps += 1;
            eng.ready_choices(&mut ready);
            if ready.is_empty() {
                reached.quiescent += 1;
                break;
            }
            let pick = ready[rng.next_below(ready.len() as u64) as usize];
            notes.clear();
            match catch_unwind(AssertUnwindSafe(|| eng.run_pending_into(pick, &mut notes))) {
                Ok(fired) => assert!(fired, "ready event vanished"),
                Err(_) => {
                    reached.panicked += 1;
                    break;
                }
            }
        }
        let col = eng.observer::<SpanCollector>().expect("collector attached");
        let closed_as = |class| {
            col.spans()
                .iter()
                .filter(|s| s.class == Some(class))
                .count()
        };
        reached.writebacks += closed_as(SpanClass::Writeback);
        reached.abandoned += closed_as(SpanClass::Abandoned);
    }
    reached
}

/// [`walk_both`] on `cfg`'s own machine.
fn walk_scenario(cfg: &CheckConfig, seed: u64, walks: u64) -> Reached {
    let sys = cfg.system_config().expect("scenario builds");
    walk_both(cfg, &sys, seed, walks)
}

#[test]
fn ledger_matches_collector_under_each_protocol() {
    let queuing = scenario(3, 2, 2);
    let nack = CheckConfig {
        kind: ProtocolKind::Nack,
        ..queuing
    };
    let dragon = CheckConfig {
        coherence: ProtocolId::Dragon,
        ..queuing
    };
    for cfg in [queuing, nack, dragon] {
        let reached = walk_scenario(&cfg, 1, 150);
        assert_eq!(reached.quiescent, 150, "{cfg}: {reached:?}");
    }
}

/// Recovery over a fabric dropping one message in ten: lost messages
/// retransmitted, duplicates filtered.
#[test]
fn ledger_matches_collector_over_a_lossy_fabric() {
    for fault_seed in 1..=3 {
        let cfg = CheckConfig {
            recovery: true,
            drop_permille: 100,
            fault_seed,
            ..scenario(3, 2, 2)
        };
        let reached = walk_scenario(&cfg, fault_seed, 150);
        assert_eq!(reached.quiescent, 150, "{cfg}: {reached:?}");
    }
}

/// Node 1 goes down and the recovery layer quarantines it, closing the
/// spans of the accesses and writebacks it strands. The node-down mutant
/// kills it at 1 µs, before any other node holds one of its blocks; on
/// one-line caches with the node going down at 3 µs instead, writebacks
/// bound for its home are in flight when it is quarantined.
#[test]
fn ledger_matches_collector_across_a_quarantine() {
    let cfg = CheckConfig {
        fault: FaultInjection::NodeDown,
        recovery: true,
        ..scenario(3, 2, 2)
    };
    let reached = walk_scenario(&cfg, 5, 150);
    assert!(reached.abandoned > 0, "{cfg}: {reached:?}");
    let cfg = CheckConfig {
        recovery: true,
        ..scenario(3, 3, 6)
    };
    let mut sys = one_line_caches(&cfg);
    sys.fault = FaultPlan::none().with_node_down(NodeDown {
        node: NodeId::new(1),
        from_ns: 3_000,
        until_ns: u64::MAX,
    });
    let reached = walk_both(&cfg, &sys, 5, 150);
    assert!(
        reached.abandoned > 0 && reached.writebacks > 0,
        "{cfg}, node 1 down from 3 µs: {reached:?}"
    );
}

/// One-line caches evict at every switch of block, so dirty victims are
/// written back while other nodes' requests for them are in flight.
#[test]
fn ledger_matches_collector_on_one_line_caches() {
    for coherence in [ProtocolId::Mesi, ProtocolId::Dragon] {
        let cfg = CheckConfig {
            coherence,
            ..scenario(3, 3, 6)
        };
        let reached = walk_both(&cfg, &one_line_caches(&cfg), 11, 150);
        assert_eq!(reached.quiescent, 150, "{cfg}: {reached:?}");
        if coherence == ProtocolId::Mesi {
            assert!(reached.writebacks > 0, "{cfg}: {reached:?}");
        }
    }
}

/// Every fault-injection mutant, on the smallest machine it fires on
/// (three nodes at least), with recovery armed where the mutant needs it.
/// A duplicated reply or a delayed invalidation makes the protocol panic
/// mid-walk.
#[test]
fn ledger_matches_collector_under_every_mutant() {
    for fault in FaultInjection::ALL {
        if fault == FaultInjection::None {
            continue;
        }
        let cfg = CheckConfig {
            fault,
            recovery: fault.needs_recovery(),
            ..scenario((fault.min_nodes() as u16).max(3), 1, 2)
        };
        let reached = walk_scenario(&cfg, 3, 100);
        assert!(reached.steps > 100, "{cfg}: {reached:?}");
        let panics = matches!(fault, FaultInjection::DupReply | FaultInjection::DelayInval);
        assert_eq!(reached.panicked > 0, panics, "{cfg}: {reached:?}");
    }
}

/// An explored engine carries the ledger and nothing the oracles do not
/// read: no span collector, and no trace, at the start or after a walk.
#[test]
fn checker_engines_carry_no_collector_and_record_no_trace() {
    let lossy = CheckConfig {
        recovery: true,
        drop_permille: 100,
        fault_seed: 1,
        ..scenario(3, 2, 2)
    };
    for cfg in [scenario(3, 1, 2), lossy] {
        let mut eng = cfg.engine();
        assert!(eng.observer::<SpanCollector>().is_none(), "{cfg}");
        assert!(eng.observer::<SpanLedger>().is_some(), "{cfg}");
        assert!(!eng.trace().enabled(), "{cfg}");
        let (mut ready, mut notes) = (Vec::new(), Vec::new());
        loop {
            eng.ready_choices(&mut ready);
            let Some(&pick) = ready.last() else {
                break;
            };
            notes.clear();
            assert!(eng.run_pending_into(pick, &mut notes));
        }
        assert!(eng.steps() > 10, "{cfg}");
        assert!(eng.trace().records().is_empty(), "{cfg}");
    }
}
