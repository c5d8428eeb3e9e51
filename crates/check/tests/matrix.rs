//! Cross-protocol × directory-format oracle matrix: every coherence
//! protocol paired with every engine-backed sharer-set format must keep
//! the full oracle suite green — SWMR, directory agreement, value
//! coherence (membership-relaxed under Dragon), queue bounds, and a
//! span-leak-free quiescence.
//!
//! Reduced exhaustive exploration is tractable on the 2-node scenario; the
//! 3-node scenarios (where invalidations and update pushes actually
//! cross the fabric to a third party) use seeded — hence deterministic —
//! random walks, like the delay-inval mutant test.

use cenju4_check::{
    explore_reduced, random_walks, replay, CheckConfig, Exploration, ExploreLimits,
};
use cenju4_directory::DirectoryId;
use cenju4_protocol::ProtocolId;

fn limits() -> ExploreLimits {
    ExploreLimits {
        max_steps: 5_000,
        max_schedules: 200_000,
        max_seconds: 120,
    }
}

/// Every (protocol, directory) pair as a scenario patch.
fn pairs() -> Vec<(ProtocolId, DirectoryId)> {
    let mut out = Vec::new();
    for &coherence in &ProtocolId::ALL {
        for &directory in &DirectoryId::ALL {
            out.push((coherence, directory));
        }
    }
    out
}

/// Bounded-exhaustive reduced DFS over the default 2-node/1-block
/// scenario for every pair: every schedule of every variant keeps all
/// oracles green.
#[test]
fn reduced_matrix_is_green() {
    for (coherence, directory) in pairs() {
        let cfg = CheckConfig {
            coherence,
            directory,
            ..CheckConfig::default()
        };
        let out = explore_reduced(&cfg, &limits(), 2);
        assert!(
            out.transitions > 100,
            "({coherence}, {directory}): suspiciously small state space"
        );
        assert!(
            matches!(out.exploration, Exploration::AllGreen { .. }),
            "({coherence}, {directory}): expected all green, got {:?}",
            out.exploration
        );
    }
}

/// Three nodes, two blocks: invalidations/update pushes reach a sharer
/// remote from both home and writer. Seeded walks per pair, all green —
/// which includes the quiescence + span-leak oracles on every walk.
#[test]
fn three_node_matrix_walks_are_green() {
    for (coherence, directory) in pairs() {
        let cfg = CheckConfig {
            nodes: 3,
            blocks: 2,
            coherence,
            directory,
            ..CheckConfig::default()
        };
        match random_walks(&cfg, 0x3A7D, 40, &limits()) {
            Exploration::AllGreen { schedules } => assert_eq!(schedules, 40),
            other => panic!("({coherence}, {directory}): expected green walks, got {other:?}"),
        }
    }
}

/// The natural (all-zero) schedule quiesces green for every pair at
/// 3 nodes — the production event order is sound under every variant.
#[test]
fn natural_schedule_is_green_for_every_pair() {
    for (coherence, directory) in pairs() {
        let cfg = CheckConfig {
            nodes: 3,
            blocks: 2,
            coherence,
            directory,
            ..CheckConfig::default()
        };
        let out = replay(&cfg, &[], 5_000);
        assert!(
            out.ok(),
            "({coherence}, {directory}) natural schedule violated: {:?}",
            out.violation
        );
    }
}

/// The checker's teeth survive the seam: the reservation mutant is still
/// killed under Dragon — the update protocol leans on the same parked-
/// request wakeup discipline, so the oracles must still catch its loss.
#[test]
fn reservation_mutant_is_killed_under_dragon() {
    let cfg = CheckConfig {
        coherence: ProtocolId::Dragon,
        fault: cenju4_protocol::FaultInjection::DisableReservation,
        ..CheckConfig::default()
    };
    match explore_reduced(&cfg, &limits(), 2).exploration {
        Exploration::Falsified(cx) => {
            // The counterexample's replay command carries the protocol
            // flag, so the variant reproduces from the printed line.
            assert!(
                format!("{cx}").contains("--protocol dragon"),
                "replay command lost the protocol flag"
            );
        }
        other => panic!("reservation mutant survived under dragon: {other:?}"),
    }
}
