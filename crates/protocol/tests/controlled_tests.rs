//! Controlled-schedule mode and issue validation.

use cenju4_des::SimTime;
use cenju4_directory::NodeId;
use cenju4_protocol::{Addr, Engine, IssueError, MemOp, Notification, SystemConfig};

fn engine(nodes: u16) -> Engine {
    Engine::new(&SystemConfig::builder(nodes).build().unwrap())
}

/// Always picking choice 0 (the minimal (time, sequence) event) must
/// reproduce the uncontrolled simulation exactly, notifications included.
#[test]
fn controlled_natural_order_matches_uncontrolled() {
    let mut plain = engine(4);
    let mut ctl = engine(4);
    ctl.enable_controlled_schedule();
    let addr = Addr::new(NodeId::new(0), 3);
    for eng in [&mut plain, &mut ctl] {
        for n in 0..4u16 {
            let op = if n % 2 == 0 {
                MemOp::Store
            } else {
                MemOp::Load
            };
            eng.issue(SimTime::ZERO, NodeId::new(n), op, addr);
        }
    }
    let base = plain.run();
    let mut got = Vec::new();
    while let Some(mut n) = ctl.run_pending(0) {
        got.append(&mut n);
    }
    assert_eq!(base, got);
}

/// Two accesses by the same node form one ordering channel: the second
/// must not be ready while the first is still parked.
#[test]
fn same_node_accesses_stay_in_program_order() {
    let mut eng = engine(2);
    eng.enable_controlled_schedule();
    let addr = Addr::new(NodeId::new(1), 0);
    eng.issue(SimTime::ZERO, NodeId::new(0), MemOp::Store, addr);
    eng.issue(SimTime::ZERO, NodeId::new(0), MemOp::Load, addr);
    let pend = eng.pending_events();
    assert_eq!(pend.len(), 2);
    assert!(pend[0].ready);
    assert!(!pend[1].ready, "program order must gate the second access");
}

/// Perturbing the schedule (always firing the *last* ready event) must
/// still graduate every transaction — different interleaving, same
/// protocol outcome.
#[test]
fn reversed_ready_choices_still_complete_all_txns() {
    let mut eng = engine(3);
    eng.enable_controlled_schedule();
    let addr = Addr::new(NodeId::new(0), 1);
    for n in 0..3u16 {
        eng.issue(SimTime::ZERO, NodeId::new(n), MemOp::Store, addr);
    }
    let mut done = 0;
    loop {
        let pend = eng.pending_events();
        let Some(choice) = pend.iter().rposition(|e| e.ready) else {
            break;
        };
        done += eng
            .run_pending(choice)
            .unwrap()
            .iter()
            .filter(|n| matches!(n, Notification::Completed { .. }))
            .count();
    }
    assert_eq!(done, 3);
    assert_eq!(eng.outstanding_txn_count(), 0);
}

#[test]
fn try_issue_rejects_bad_inputs() {
    let mut eng = engine(2);
    let addr = Addr::new(NodeId::new(0), 0);
    assert!(matches!(
        eng.try_issue(SimTime::ZERO, NodeId::new(5), MemOp::Load, addr),
        Err(IssueError::NodeOutOfRange { .. })
    ));
    assert!(matches!(
        eng.try_issue(
            SimTime::ZERO,
            NodeId::new(0),
            MemOp::Load,
            Addr::new(NodeId::new(9), 0)
        ),
        Err(IssueError::HomeOutOfRange { .. })
    ));
    assert!(eng
        .try_issue(SimTime::ZERO, NodeId::new(0), MemOp::Load, addr)
        .is_ok());
    eng.run();
    assert!(matches!(
        eng.try_issue(SimTime::ZERO, NodeId::new(0), MemOp::Load, addr),
        Err(IssueError::TimeInPast { .. })
    ));
}
