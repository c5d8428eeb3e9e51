//! The parallel sweep must not change results: running the same parameter
//! points on one worker and on many workers has to produce bit-identical
//! [`RunReport`]s, because every point simulates an independent,
//! deterministic engine and the sweep only schedules them.

use cenju4_sim::prelude::*;
use cenju4_sim::sweep::sweep_on;
use cenju4_workloads::{runner, AppKind, Variant};

const SCALE: f64 = 0.25;

fn sweep_reports(threads: usize) -> Vec<RunReport> {
    let nodes = [2u16, 4, 8, 16];
    sweep_on(threads, &nodes, |&n| {
        runner::run_workload(AppKind::Cg, Variant::Dsm2, true, n, SCALE).expect("valid node count")
    })
}

#[test]
fn run_reports_identical_at_one_and_many_threads() {
    let one = sweep_reports(1);
    let four = sweep_reports(4);
    assert_eq!(one.len(), four.len());
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        assert_eq!(a, b, "point {i} diverged between 1 and 4 threads");
    }
}

/// Runs a small cross-node workload on an unreliable fabric with the
/// recovery layer armed, returning the completion report plus the fault
/// and recovery counters.
fn faulty_point(n: u16) -> (usize, u64, u64, u64, u64) {
    let cfg = SystemConfig::builder(n)
        .fault_plan(FaultPlan::random(0xFA57, 30))
        .recovery(RecoveryParams::default())
        .build()
        .expect("valid node count");
    let mut eng = Engine::new(&cfg);
    let mut completed = 0usize;
    for i in 0..3u32 {
        for node in 0..n {
            let op = if (node as u32 + i).is_multiple_of(2) {
                MemOp::Store
            } else {
                MemOp::Load
            };
            eng.issue(
                eng.now(),
                NodeId::new(node),
                op,
                Addr::new(NodeId::new(0), i),
            );
            completed += eng
                .run()
                .iter()
                .filter(|n| matches!(n, Notification::Completed { .. }))
                .count();
        }
    }
    let s = eng.stats();
    (
        completed,
        s.faults_injected.get(),
        s.retransmits.get(),
        s.link_discards.get(),
        s.gather_reissues.get(),
    )
}

/// The same `FaultPlan` seed must produce bit-identical outcomes — down
/// to the fault-injection and retransmission counters — whether the sweep
/// runs on one worker or four: the plan's decisions depend only on the
/// seed and per-link message counts, never on scheduling.
#[test]
fn fault_injection_is_deterministic_across_sweep_threads() {
    let nodes = [2u16, 4, 8];
    let one = sweep_on(1, &nodes, |&n| faulty_point(n));
    let four = sweep_on(4, &nodes, |&n| faulty_point(n));
    assert_eq!(one, four, "faulty sweep diverged between 1 and 4 threads");
    // The plan actually fired, recovery actually worked: every access
    // graduated despite injected faults at some sweep point.
    assert!(
        one.iter().any(|&(_, faults, ..)| faults > 0),
        "30 permille plan injected nothing: {one:?}"
    );
    for (&n, &(completed, ..)) in nodes.iter().zip(&one) {
        assert_eq!(completed, 3 * n as usize, "lost accesses at {n} nodes");
    }
}
