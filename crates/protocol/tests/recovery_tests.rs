//! End-to-end tests of the link-level recovery layer in uncontrolled
//! (time-ordered) runs: dropped unicasts are retransmitted, duplicates
//! are discarded by the receiver's sequence check, a lossy fabric is
//! fully masked, and exhausted budgets surface as typed
//! [`Notification::RecoveryFailed`] instead of silent hangs.

use cenju4_des::Duration;
use cenju4_directory::NodeId;
use cenju4_network::{FaultKind, FaultPlan, LinkDown, NodeDown, OneShotFault, WireClass};
use cenju4_protocol::{
    Addr, Engine, MemOp, NodeHealth, Notification, RecoveryError, RecoveryParams, SystemConfig,
};

/// A 4-node machine on a fabric following `plan`, with `recovery`.
fn engine(plan: FaultPlan, recovery: RecoveryParams) -> Engine {
    let cfg = SystemConfig::builder(4)
        .fault_plan(plan)
        .recovery(recovery)
        .build()
        .unwrap();
    Engine::new(&cfg)
}

fn node(n: u16) -> NodeId {
    NodeId::new(n)
}

/// One-shot fault against the first wire message of `class`.
fn one_shot(class: WireClass, kind: FaultKind) -> FaultPlan {
    FaultPlan::none().with_one_shot(OneShotFault {
        link: None,
        class: Some(class),
        nth: 1,
        kind,
    })
}

fn completed(notes: &[Notification]) -> usize {
    notes
        .iter()
        .filter(|n| matches!(n, Notification::Completed { .. }))
        .count()
}

/// A dropped reply is retransmitted by the sender's link timer and the
/// transaction still completes.
#[test]
fn dropped_reply_recovered_by_retransmit() {
    let mut eng = engine(
        one_shot(WireClass::Reply, FaultKind::Drop),
        RecoveryParams::default(),
    );
    eng.issue(eng.now(), node(1), MemOp::Store, Addr::new(node(0), 0));
    let notes = eng.run();
    assert_eq!(completed(&notes), 1, "store never graduated: {notes:?}");
    assert_eq!(eng.outstanding_txn_count(), 0);
    assert_eq!(eng.stats().faults_injected.get(), 1);
    assert!(eng.stats().retransmits.get() >= 1, "no retransmission");
    assert_eq!(eng.stats().recovery_errors.get(), 0);
}

/// A spuriously duplicated reply is discarded by the receiver's sequence
/// check instead of reaching the master twice.
#[test]
fn duplicated_reply_discarded() {
    let mut eng = engine(
        one_shot(WireClass::Reply, FaultKind::Duplicate { after_ns: 0 }),
        RecoveryParams::default(),
    );
    eng.issue(eng.now(), node(1), MemOp::Store, Addr::new(node(0), 0));
    let notes = eng.run();
    assert_eq!(completed(&notes), 1, "store never graduated: {notes:?}");
    assert!(
        eng.stats().link_discards.get() >= 1,
        "duplicate not discarded"
    );
    assert_eq!(eng.stats().recovery_errors.get(), 0);
}

/// A probabilistically lossy fabric (10% per message) is fully masked:
/// every access graduates and the machine quiesces clean.
#[test]
fn lossy_fabric_fully_recovered() {
    let mut eng = engine(FaultPlan::random(0xC4, 100), RecoveryParams::default());
    let mut done = 0usize;
    let mut issued = 0usize;
    for i in 0..4u32 {
        for n in 0..4u16 {
            let op = if (n as u32 + i).is_multiple_of(2) {
                MemOp::Store
            } else {
                MemOp::Load
            };
            eng.issue(eng.now(), node(n), op, Addr::new(node(0), i % 2));
            issued += 1;
            let notes = eng.run();
            assert!(
                !notes
                    .iter()
                    .any(|n| matches!(n, Notification::RecoveryFailed { .. })),
                "recovery gave up: {notes:?}"
            );
            done += completed(&notes);
        }
    }
    assert_eq!(done, issued, "lost accesses on the lossy fabric");
    assert_eq!(eng.outstanding_txn_count(), 0);
    assert!(
        eng.stats().faults_injected.get() > 0,
        "plan injected nothing"
    );
}

/// Without the recovery layer the same dropped reply strands its
/// transaction forever — the motivation for the whole layer.
#[test]
fn unrecovered_drop_strands_transaction() {
    let mut eng = engine(
        one_shot(WireClass::Reply, FaultKind::Drop),
        RecoveryParams::disabled(),
    );
    eng.issue(eng.now(), node(1), MemOp::Store, Addr::new(node(0), 0));
    let notes = eng.run();
    assert_eq!(completed(&notes), 0, "dropped reply still completed?");
    assert_eq!(eng.outstanding_txn_count(), 1, "transaction not stranded");
}

/// A permanently dead link exhausts the retransmit budget: the run ends
/// with a typed `RecoveryFailed` notification (not a hang), the stall
/// watchdog barks along the way, and the engine still quiesces.
#[test]
fn dead_link_exhausts_budget_and_reports() {
    // The home's replies to node 1 never arrive.
    let mut eng = engine(
        FaultPlan::none().with_link_down(LinkDown {
            src: node(0),
            dst: node(1),
            from_ns: 0,
            until_ns: u64::MAX,
        }),
        RecoveryParams {
            // A tiny watchdog threshold so the stalled retransmission loop
            // trips it deterministically.
            watchdog: Duration::from_ns(1),
            ..RecoveryParams::default()
        },
    );
    eng.issue(eng.now(), node(1), MemOp::Load, Addr::new(node(0), 0));
    let notes = eng.run();
    assert_eq!(completed(&notes), 0);
    assert!(
        notes
            .iter()
            .any(|n| matches!(n, Notification::RecoveryFailed { .. })),
        "no RecoveryFailed notification: {notes:?}"
    );
    assert!(eng.stats().recovery_errors.get() >= 1);
    assert!(eng.stats().retransmits.get() >= 1);
    assert!(eng.stats().stalls.get() >= 1, "watchdog never fired");
}

/// A permanently dead node is detected off its own stranded
/// retransmission stream, quarantined, and every transaction targeting
/// it escalates to a *typed* `NodeUnavailable` — never a generic
/// timeout, never a hang — and is reaped from the outstanding set.
#[test]
fn dead_node_quarantined_and_escalated_as_node_unavailable() {
    let mut eng = engine(
        FaultPlan::none().with_node_down(NodeDown {
            node: node(2),
            from_ns: 0,
            until_ns: u64::MAX,
        }),
        RecoveryParams::default(),
    );
    // A master targeting the dead home: its request dies on the wire,
    // the retransmission stream raises suspicion, and the probe
    // (consulting the plan) confirms the node is gone.
    eng.issue(eng.now(), node(1), MemOp::Load, Addr::new(node(2), 0));
    let notes = eng.run();
    assert_eq!(completed(&notes), 0);
    assert!(
        notes.iter().any(|n| matches!(
            n,
            Notification::RecoveryFailed {
                error: RecoveryError::NodeUnavailable { .. },
                ..
            }
        )),
        "no typed NodeUnavailable escalation: {notes:?}"
    );
    assert_eq!(eng.node_health(node(2)), NodeHealth::Quarantined);
    assert!(eng.stats().node_suspects.get() >= 1);
    assert!(eng.stats().node_quarantines.get() >= 1);
    assert!(eng.stats().node_unavailable.get() >= 1);
    assert_eq!(
        eng.outstanding_txn_count(),
        0,
        "abandoned transactions must be reaped, not stranded"
    );
}

/// Go-back-N across a death window: the dying node's parked frames and
/// advanced link sequences must not poison the link after revival. The
/// quarantine clears every window touching the node and the rejoin
/// resets both directions to sequence zero, so post-revival traffic
/// flows as if the links were fresh — if either side kept stale
/// sequence state, the restarted stream would be rejected and the
/// retransmit budget would blow instead of completing.
#[test]
fn node_down_window_rejoins_with_fresh_link_sequences() {
    let mut eng = engine(
        FaultPlan::none().with_node_down(NodeDown {
            node: node(1),
            from_ns: 0,
            until_ns: 500_000,
        }),
        RecoveryParams::default(),
    );
    // The doomed node's own store advances its send window into the
    // void; survivors keep talking among themselves.
    eng.issue(eng.now(), node(1), MemOp::Store, Addr::new(node(0), 0));
    eng.issue(eng.now(), node(3), MemOp::Store, Addr::new(node(0), 0));
    let notes = eng.run();
    assert_eq!(completed(&notes), 1, "survivor traffic must complete");
    assert!(eng.stats().node_quarantines.get() >= 1);
    assert!(
        eng.stats().node_rejoins.get() >= 1,
        "revival never rejoined"
    );
    assert_eq!(eng.node_health(node(1)), NodeHealth::Up);
    assert!(eng.now().as_ns() >= 500_000);
    // Post-revival: the rejoined node issues again (cold) and a survivor
    // talks to it; both directions of every touched link restart clean.
    eng.issue(eng.now(), node(1), MemOp::Load, Addr::new(node(0), 0));
    eng.issue(eng.now(), node(0), MemOp::Store, Addr::new(node(0), 0));
    let notes = eng.run();
    assert_eq!(
        completed(&notes),
        2,
        "post-revival traffic must flow on fresh sequences: {notes:?}"
    );
    assert_eq!(eng.outstanding_txn_count(), 0);
    assert_eq!(eng.stats().recovery_errors.get(), {
        // The doomed store was abandoned with one typed escalation;
        // nothing else may have burned a budget.
        1
    });
}
