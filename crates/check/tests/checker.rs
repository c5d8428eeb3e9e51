//! Acceptance tests for the schedule-exploring checker: the correct
//! protocol survives exhaustive exploration, and each seeded mutant is
//! killed with a shrunk, deterministically replayable counterexample.

use cenju4_check::{
    explore_reduced, explore_reduced_with, random_walks, replay, CheckConfig, Counterexample,
    Exploration, ExploreLimits,
};
use cenju4_protocol::{FaultInjection, ProtocolId, ProtocolKind};

fn limits() -> ExploreLimits {
    ExploreLimits {
        max_steps: 5_000,
        max_schedules: 200_000,
        max_seconds: 120,
    }
}

/// Seeded random walks on a larger scenario stay green and are
/// reproducible run to run.
#[test]
fn random_walks_are_green_and_deterministic() {
    let cfg = CheckConfig {
        nodes: 3,
        blocks: 2,
        ..CheckConfig::default()
    };
    for _ in 0..2 {
        match random_walks(&cfg, 42, 50, &limits()) {
            Exploration::AllGreen { schedules } => assert_eq!(schedules, 50),
            other => panic!("expected green walks, got {other:?}"),
        }
    }
}

/// Kills `fault` on the 2-node scenario with the exhaustive search:
/// reduced when `reduced` (the protocol mutants), else unreduced through
/// the parallel frontier (the fabric mutants, whose one-shot fault
/// counters are order-dependent global state). Reduction must not cost
/// the checker its teeth or its reproducibility.
fn assert_mutant_killed(fault: FaultInjection, reduced: bool) {
    let cfg = CheckConfig {
        fault,
        ..CheckConfig::default()
    };
    let out = explore_reduced(&cfg, &limits(), 4);
    assert_eq!(out.reduced, reduced, "mutant {fault}: reduction armed");
    let cx = match out.exploration {
        Exploration::Falsified(cx) => cx,
        other => panic!("mutant {fault} survived: {other:?}"),
    };
    // The schedule is shrunk: no trailing zeros (they are implicit).
    assert_ne!(cx.schedule.last(), Some(&0), "unshrunk schedule");
    // It replays deterministically to the same violation, twice.
    let a = replay(&cfg, &cx.schedule, limits().max_steps);
    let b = replay(&cfg, &cx.schedule, limits().max_steps);
    assert_eq!(a.violation, b.violation, "replay is nondeterministic");
    assert_eq!(
        a.violation.as_ref(),
        Some(&cx.violation),
        "replay does not reproduce the reported violation"
    );
    // The counterexample renders a protocol trace for debugging. (Kills
    // via an internal panic cannot: the engine is gone by then.)
    if cx.violation.oracle != "panic" {
        assert!(!cx.trace.is_empty(), "counterexample lost its trace");
    }
}

/// Disabling the Section-3.3 reservation bit must be caught: parked
/// requests are never woken, so some transaction never graduates.
#[test]
fn reservation_mutant_is_killed() {
    assert_mutant_killed(FaultInjection::DisableReservation, true);
}

/// Disabling the Figure-9 spill path must be caught: the dropped request's
/// transaction never completes.
#[test]
fn spill_mutant_is_killed() {
    assert_mutant_killed(FaultInjection::DropSpilledRequests, true);
}

/// The all-zero schedule is the production order and must quiesce green.
#[test]
fn natural_schedule_replays_green() {
    let out = replay(&CheckConfig::default(), &[], 5_000);
    assert!(out.ok(), "natural schedule violated: {:?}", out.violation);
    assert!(out.steps > 0);
}

/// Dropping the first reply on the wire must be caught with recovery off:
/// the transaction never graduates, so quiescence is violated.
#[test]
fn drop_unicast_mutant_is_killed() {
    assert_mutant_killed(FaultInjection::DropUnicast, false);
}

/// A spuriously duplicated reply must be caught with recovery off: the
/// second copy reaches a master that already retired the transaction.
#[test]
fn dup_reply_mutant_is_killed() {
    assert_mutant_killed(FaultInjection::DupReply, false);
}

/// A delayed duplicate invalidation must be caught with recovery off: the
/// slave acknowledges twice and the home's bookkeeping breaks. Needs a
/// third node — in a 2-node machine the only sharer besides the writer is
/// the home itself, so no invalidation ever crosses the fabric. The
/// 3-node schedule space is too large to exhaust, so this uses seeded
/// (deterministic) random walks.
#[test]
fn delay_inval_mutant_is_killed() {
    let cfg = CheckConfig {
        nodes: 3,
        fault: FaultInjection::DelayInval,
        ..CheckConfig::default()
    };
    let cx = match random_walks(&cfg, 0x1D1A, 200, &limits()) {
        Exploration::Falsified(cx) => cx,
        other => panic!("mutant delay-inval survived: {other:?}"),
    };
    // It replays deterministically to the same violation.
    let a = replay(&cfg, &cx.schedule, limits().max_steps);
    assert_eq!(
        a.violation.as_ref(),
        Some(&cx.violation),
        "replay does not reproduce the reported violation"
    );
}

const FABRIC_MUTANTS: [FaultInjection; 3] = [
    FaultInjection::DropUnicast,
    FaultInjection::DupReply,
    FaultInjection::DelayInval,
];

/// With the recovery layer armed, every fabric mutant is *tolerated*:
/// the natural schedule and seeded random walks all reach quiescence with
/// coherent values. (Random walks with a fixed seed are deterministic, so
/// this is a stable oracle, not a flaky one.) Three nodes, because the
/// interesting recoveries — an invalidation racing a retransmitted
/// reply on a shared link — need a sharer that is remote from the home.
#[test]
fn fabric_mutants_recovered_when_armed() {
    for fault in FABRIC_MUTANTS {
        let cfg = CheckConfig {
            fault,
            recovery: true,
            nodes: 3,
            ..CheckConfig::default()
        };
        let out = replay(&cfg, &[], limits().max_steps);
        assert!(
            out.ok(),
            "natural schedule under {fault} with recovery on violated: {:?}",
            out.violation
        );
        match random_walks(&cfg, 0xFA11, 30, &limits()) {
            Exploration::AllGreen { schedules } => assert_eq!(schedules, 30),
            other => panic!("recovery failed to mask {fault}: {other:?}"),
        }
    }
}

/// Bounded probabilistic loss (10% per message) with recovery armed:
/// seeded random walks reach quiescence with coherent values, and the
/// whole exploration is deterministic (fixed fault seed + walk seed).
#[test]
fn probabilistic_drops_recovered_when_armed() {
    let cfg = CheckConfig {
        recovery: true,
        fault_seed: 99,
        drop_permille: 100,
        ..CheckConfig::default()
    };
    match random_walks(&cfg, 0xD20F, 30, &limits()) {
        Exploration::AllGreen { schedules } => assert_eq!(schedules, 30),
        other => panic!("recovery failed under probabilistic drops: {other:?}"),
    }
}

/// The same probabilistic loss with recovery *off* is falsified: some
/// message is gone for good and its transaction never graduates.
#[test]
fn probabilistic_drops_falsified_when_unarmed() {
    let cfg = CheckConfig {
        recovery: false,
        fault_seed: 99,
        drop_permille: 400,
        ..CheckConfig::default()
    };
    match random_walks(&cfg, 0xD20F, 30, &limits()) {
        Exploration::Falsified(_) => {}
        other => panic!("40% loss with no recovery went undetected: {other:?}"),
    }
}

/// A node that silently dies mid-run must be caught with recovery off:
/// every frame touching it vanishes, its transactions never graduate,
/// and quiescence is violated. Three nodes so traffic keeps flowing
/// around the casualty (the plan kills node 1).
#[test]
fn node_down_mutant_is_killed() {
    let cfg = CheckConfig {
        nodes: 3,
        fault: FaultInjection::NodeDown,
        recovery: false,
        ..CheckConfig::default()
    };
    let cx = match random_walks(&cfg, 0xDEAD, 200, &limits()) {
        Exploration::Falsified(cx) => cx,
        other => panic!("mutant node-down survived: {other:?}"),
    };
    let a = replay(&cfg, &cx.schedule, limits().max_steps);
    assert_eq!(
        a.violation.as_ref(),
        Some(&cx.violation),
        "replay does not reproduce the reported violation"
    );
}

/// Neutering quarantine (the detector suspects the dead node but lets it
/// fall back to Up) must be caught *with recovery armed*: the stranded
/// retransmissions burn a budget and the typed escalation is the wrong
/// one, so the recovery oracle fires. This is the mutant that proves the
/// quarantine step itself carries its weight.
#[test]
fn quarantine_off_mutant_is_killed() {
    let cfg = CheckConfig {
        nodes: 3,
        fault: FaultInjection::QuarantineOff,
        recovery: true,
        ..CheckConfig::default()
    };
    let cx = match random_walks(&cfg, 0xDEAD, 200, &limits()) {
        Exploration::Falsified(cx) => cx,
        other => panic!("mutant quarantine-off survived: {other:?}"),
    };
    assert_eq!(cx.violation.oracle, "recovery", "{}", cx.violation);
    let a = replay(&cfg, &cx.schedule, limits().max_steps);
    assert_eq!(
        a.violation.as_ref(),
        Some(&cx.violation),
        "replay does not reproduce the reported violation"
    );
}

/// With the recovery layer armed, a mid-run node death is *contained*:
/// the detector quarantines the casualty, homes scrub it from every
/// directory entry, masters targeting it escalate typed
/// `NodeUnavailable` errors, and every surviving transaction graduates.
/// Two blocks so one is homed *at* the casualty, exercising the
/// dead-home escalation path alongside the dead-sharer scrub path.
#[test]
fn node_down_contained_when_armed() {
    let cfg = CheckConfig {
        nodes: 3,
        blocks: 2,
        fault: FaultInjection::NodeDown,
        recovery: true,
        ..CheckConfig::default()
    };
    let out = replay(&cfg, &[], limits().max_steps);
    assert!(
        out.ok(),
        "natural schedule under node-down with recovery on violated: {:?}",
        out.violation
    );
    match random_walks(&cfg, 0xFA11, 30, &limits()) {
        Exploration::AllGreen { schedules } => assert_eq!(schedules, 30),
        other => panic!("quarantine failed to contain node-down: {other:?}"),
    }
}

/// Span-leak regression for death mid-gather: maximal sharing on one
/// block means the dying node is a sharer in some open invalidation
/// gather on most schedules. The quarantine scrub must complete those
/// gathers (treating the dead sharer as invalidated) and the span-leak
/// oracle — open spans at quiescence — must stay green on every walk.
#[test]
fn node_death_mid_gather_cannot_leak_spans() {
    let cfg = CheckConfig {
        nodes: 3,
        blocks: 1,
        ops_per_node: 3,
        fault: FaultInjection::NodeDown,
        recovery: true,
        ..CheckConfig::default()
    };
    match random_walks(&cfg, 0x6A7E, 40, &limits()) {
        Exploration::AllGreen { schedules } => assert_eq!(schedules, 40),
        other => panic!("mid-gather death leaked state: {other:?}"),
    }
}

/// The schedule space of the default 2-node/1-block scenario, pinned.
/// The unreduced DFS must visit exactly 9298 leaves: a changed count
/// means the held-set or channel-readiness semantics moved; a changed
/// per-run step count means the event sequence itself did. The reduced
/// walk must collapse the space to the pinned state/leaf counts: a
/// changed reduced count means the independence relation, the
/// fingerprint, or the sleep-set discipline moved. Treat every number
/// here as a pin, not as noise; do not update them in an optimization.
#[test]
fn reduced_schedule_space_is_pinned() {
    let cfg = CheckConfig::default();
    let full = explore_reduced_with(&cfg, &limits(), 2, false);
    assert!(!full.reduced);
    assert_eq!(full.leaves, 9298, "the unreduced schedule space moved");
    match full.exploration {
        Exploration::AllGreen { schedules } => assert_eq!(schedules, 9298),
        other => panic!("expected all-green unreduced run, got {other:?}"),
    }
    // Two fixed schedules through the same space: first-ready and
    // last-ready picks, with their exact step counts.
    let natural = cenju4_check::run_one(&cfg, |_| 0, 5_000);
    assert!(natural.ok(), "natural schedule must stay green");
    assert_eq!((natural.steps, natural.choices.len()), (16, 16));
    let reversed = cenju4_check::run_one(&cfg, |n| n.saturating_sub(1), 5_000);
    assert!(reversed.ok(), "last-ready schedule must stay green");
    assert_eq!((reversed.steps, reversed.choices.len()), (10, 10));
    let red = explore_reduced(&cfg, &limits(), 2);
    assert!(red.reduced);
    match red.exploration {
        Exploration::AllGreen { schedules } => assert_eq!(schedules, red.leaves),
        other => panic!("expected all-green reduced run, got {other:?}"),
    }
    assert_eq!(
        (
            red.unique_states,
            red.transitions,
            red.dedup_hits,
            red.leaves
        ),
        (105, 201, 93, 4),
        "the reduced state space moved"
    );
    assert_eq!(red.replayed, 0, "a sequential reduced walk never replays");
}

/// `max_schedules` caps the whole search, not each parallel job: a
/// binding cap reports exactly that many leaves at every thread count.
#[test]
fn schedule_budget_caps_the_whole_search() {
    let capped = ExploreLimits {
        max_schedules: 100,
        ..limits()
    };
    for threads in [1, 4] {
        let out = explore_reduced_with(&CheckConfig::default(), &capped, threads, false);
        assert!(
            matches!(out.exploration, Exploration::Budget { schedules: 100 }),
            "{threads} threads: {:?}",
            out.exploration
        );
    }
}

/// The printed replay command carries a non-default step cap: a
/// `progress` violation found under `--max-steps 5` only reproduces
/// under the same cap. At the default cap the flag is left out.
#[test]
fn replay_command_carries_the_step_cap() {
    let cfg = CheckConfig::default();
    let tight = ExploreLimits {
        max_steps: 5,
        ..limits()
    };
    let cx = match random_walks(&cfg, 1, 1, &tight) {
        Exploration::Falsified(cx) => cx,
        other => panic!("a 5-step cap cannot quiesce: {other:?}"),
    };
    assert_eq!((cx.violation.oracle, cx.max_steps), ("progress", 5));
    let shown = cx.to_string();
    assert!(
        shown.contains(" --max-steps 5 --schedule "),
        "replay line lost the step cap: {shown}"
    );
    let again = replay(&cfg, &cx.schedule, cx.max_steps);
    assert_eq!(again.violation.as_ref(), Some(&cx.violation));
    let default_cap = Counterexample {
        max_steps: ExploreLimits::default().max_steps,
        ..*cx
    };
    assert!(!default_cap.to_string().contains("--max-steps"));
}

/// The full walk counts — states, transitions, dedup hits, leaves —
/// pinned for the 3-node reduced scenario and the unreduced lossy one,
/// so a backtracking change that alters the walk cannot hide behind an
/// unchanged state count. Backtracking restores forks, so only the
/// parallel jobs' prefixes are ever replayed.
#[test]
fn backtracking_walk_counts_are_pinned() {
    let three = CheckConfig {
        nodes: 3,
        blocks: 1,
        ops_per_node: 2,
        ..CheckConfig::default()
    };
    let red = explore_reduced(&three, &limits(), 2);
    assert!(matches!(
        red.exploration,
        Exploration::AllGreen { schedules: 18 }
    ));
    assert_eq!(
        (
            red.unique_states,
            red.transitions,
            red.dedup_hits,
            red.leaves
        ),
        (2376, 5920, 3527, 18),
        "the 3-node reduced walk moved"
    );
    assert_eq!(red.replayed, 0);

    let lossy = CheckConfig {
        recovery: true,
        drop_permille: 100,
        fault_seed: 1,
        ..CheckConfig::default()
    };
    let full = explore_reduced(&lossy, &limits(), 2);
    assert!(!full.reduced);
    assert!(matches!(
        full.exploration,
        Exploration::AllGreen { schedules: 2036 }
    ));
    assert_eq!(
        (full.leaves, full.transitions, full.replayed),
        (2036, 28809, 188),
        "the unreduced lossy walk moved"
    );
}

/// Satellite guard: a fault that cannot fire under the config is a hard
/// validation error, not a hollow green run.
#[test]
fn unreachable_fault_configs_are_rejected() {
    let starved = CheckConfig {
        nodes: 2,
        fault: FaultInjection::NodeDown,
        ..CheckConfig::default()
    };
    let err = starved.validate().expect_err("node-down at 2 nodes passed");
    assert!(err.contains("at least 3"), "no valid range in: {err}");
    let unarmed = CheckConfig {
        nodes: 3,
        fault: FaultInjection::QuarantineOff,
        recovery: false,
        ..CheckConfig::default()
    };
    let err = unarmed
        .validate()
        .expect_err("quarantine-off sans recovery");
    assert!(err.contains("recovery"), "no recovery hint in: {err}");
    assert!(CheckConfig::default().validate().is_ok());
    assert!(CheckConfig {
        nodes: 3,
        fault: FaultInjection::NodeDown,
        ..CheckConfig::default()
    }
    .validate()
    .is_ok());
    // Machines the config builder rejects are usage errors too, not a
    // fake counterexample or a panicking explorer.
    let dragon_nack = CheckConfig {
        coherence: ProtocolId::Dragon,
        kind: ProtocolKind::Nack,
        ..CheckConfig::default()
    };
    let err = dragon_nack.validate().expect_err("dragon over nack passed");
    assert!(err.contains("requires the queuing home"), "{err}");
    let oversized = CheckConfig {
        nodes: 2000,
        ..CheckConfig::default()
    };
    let err = oversized.validate().expect_err("2000 nodes passed");
    assert!(err.contains("2000"), "no node count in: {err}");
}
