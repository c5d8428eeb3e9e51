//! `Engine::run_next` appends each step's notifications to a buffer the
//! caller owns: into an empty buffer by trading buffers with the engine,
//! into a non-empty one by appending. Three engines — one drained by
//! `run()`, one stepped with a single reused buffer cleared after every
//! step, one stepped with a buffer never cleared — must report the same
//! notification sequence, so an overwriting or duplicating `run_next`
//! fails here on either path even where the statistics would agree.

use cenju4_directory::NodeId;
use cenju4_network::FaultPlan;
use cenju4_protocol::{Addr, Engine, MemOp, Notification, ProtocolKind, SystemConfig};

const NODES: u16 = 4;

/// MESI with queuing at the home on a reliable fabric.
fn queuing() -> Engine {
    Engine::new(&SystemConfig::builder(NODES).build().unwrap())
}

/// The nack protocol with the recovery layer on a fabric that loses one
/// message in ten.
fn lossy_nack() -> Engine {
    let cfg = SystemConfig::builder(NODES)
        .kind(ProtocolKind::Nack)
        .fault_plan(FaultPlan::random(0xB0F, 100))
        .build()
        .unwrap();
    Engine::new(&cfg)
}

/// Issues one round of contended accesses: every node touches both
/// blocks, stores and loads interleaved, all at the current instant.
fn issue_round(eng: &mut Engine, round: u32) {
    let blocks = [Addr::new(NodeId::new(0), 0), Addr::new(NodeId::new(1), 4)];
    let now = eng.now();
    for n in 0..NODES {
        for (b, &a) in blocks.iter().enumerate() {
            let op = if (u32::from(n) + round + b as u32).is_multiple_of(3) {
                MemOp::Store
            } else {
                MemOp::Load
            };
            eng.issue(now, NodeId::new(n), op, a);
        }
    }
}

/// Runs eight rounds through `run()`, through `run_next` with one
/// reused buffer cleared after every step, and through `run_next` into
/// one buffer that is never cleared. Asserts all three report the same
/// notifications and every access completed; returns the `run()` engine.
fn assert_twins_agree(build: fn() -> Engine) -> Engine {
    let (mut whole, mut stepped, mut piled) = (build(), build(), build());
    let (mut by_run, mut by_step) = (Vec::new(), Vec::new());
    let (mut buf, mut pile) = (Vec::new(), Vec::new());
    for round in 0..8 {
        issue_round(&mut whole, round);
        issue_round(&mut stepped, round);
        issue_round(&mut piled, round);
        by_run.extend(whole.run());
        while stepped.run_next(&mut buf) {
            by_step.extend_from_slice(&buf);
            buf.clear();
        }
        assert!(
            !stepped.run_next(&mut buf) && buf.is_empty(),
            "a quiescent step must leave the buffer alone"
        );
        while piled.run_next(&mut pile) {}
        let piled_len = pile.len();
        assert!(
            !piled.run_next(&mut pile) && pile.len() == piled_len,
            "a quiescent step must leave the buffer alone"
        );
    }
    assert_eq!(by_run, by_step, "run() and the reused buffer disagree");
    assert_eq!(by_run, pile, "run() and the uncleared buffer disagree");
    for eng in [&stepped, &piled] {
        assert_eq!(whole.steps(), eng.steps());
        assert_eq!(whole.now(), eng.now());
    }
    assert!(
        !by_run
            .iter()
            .any(|n| matches!(n, Notification::RecoveryFailed { .. })),
        "recovery gave up"
    );
    let completions = by_run
        .iter()
        .filter(|n| matches!(n, Notification::Completed { .. }))
        .count();
    assert_eq!(completions, 8 * 2 * usize::from(NODES), "lost accesses");
    whole
}

#[test]
fn queuing_twins_report_identical_notifications() {
    assert_twins_agree(queuing);
}

#[test]
fn lossy_nack_twins_report_identical_notifications() {
    let eng = assert_twins_agree(lossy_nack);
    assert!(
        eng.stats().faults_injected.get() > 0,
        "plan injected nothing"
    );
}
