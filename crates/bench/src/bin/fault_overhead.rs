//! Measures the cost of the link-level recovery layer: a fixed
//! cross-node workload is run on fabrics of increasing loss rate with
//! recovery armed, against a lossless baseline. Reports the mean access
//! latency and the recovery counters per point, and writes the
//! machine-readable results to `BENCH_fault_overhead.json`.
//!
//! The headline numbers:
//!
//! * **0‰ armed vs baseline** — the zero-cost-when-healthy guarantee:
//!   with a lossless plan the layer stays unarmed and the overhead is
//!   exactly zero (the golden-trace tests prove bit-identity; this
//!   bench shows the timing consequence).
//! * **rising loss** — each retransmission round and gather re-issue
//!   stretches the tail; latency degrades smoothly instead of the
//!   unprotected fabric's hang.
//!
//! Run with: `cargo run --release -p cenju4-bench --bin fault_overhead`

use cenju4::prelude::*;
use cenju4_check::outln;

/// One measured configuration.
struct Point {
    drop_permille: u16,
    mean_latency_ns: u64,
    completed: u64,
    faults_injected: u64,
    retransmits: u64,
    gather_reissues: u64,
    link_discards: u64,
}

/// Issues `rounds` accesses per node (alternating stores and loads on
/// two home blocks) and runs each to completion, returning the point.
fn measure(nodes: u16, rounds: u32, drop_permille: u16) -> Point {
    let mut builder = SystemConfig::builder(nodes).recovery(RecoveryParams::default());
    if drop_permille > 0 {
        builder = builder.fault_plan(FaultPlan::random(0xBE7C, drop_permille));
    }
    let cfg = builder.build().expect("valid node count");
    let mut eng = Engine::new(&cfg);
    let mut completed = 0u64;
    let mut latency_ns = 0u64;
    for i in 0..rounds {
        for n in 0..nodes {
            let op = if (n as u32 + i).is_multiple_of(2) {
                MemOp::Store
            } else {
                MemOp::Load
            };
            eng.issue(
                eng.now(),
                NodeId::new(n),
                op,
                Addr::new(NodeId::new(0), i % 2),
            );
            for note in eng.run() {
                match note {
                    Notification::Completed { .. } => {
                        completed += 1;
                        latency_ns += note.latency().expect("completion has latency").as_ns();
                    }
                    Notification::RecoveryFailed { at, error } => {
                        panic!("recovery failed at {at:?}: {error}")
                    }
                    _ => {}
                }
            }
        }
    }
    assert_eq!(eng.outstanding_txn_count(), 0, "accesses left outstanding");
    let s = eng.stats();
    Point {
        drop_permille,
        mean_latency_ns: latency_ns / completed.max(1),
        completed,
        faults_injected: s.faults_injected.get(),
        retransmits: s.retransmits.get(),
        gather_reissues: s.gather_reissues.get(),
        link_discards: s.link_discards.get(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const NODES: u16 = 8;
    const ROUNDS: u32 = 16;
    cenju4_bench::FigArgs::from_env(None, false);
    let rates = [0u16, 5, 20, 50];

    // Each point is an independent deterministic simulation.
    let points = sweep(&rates, |&p| measure(NODES, ROUNDS, p));
    // Overhead is on the mean access latency: wall-clock quiescence also
    // waits for armed timers to self-drain, which only measures the
    // timeout parameters, not the protocol work.
    let base = points[0].mean_latency_ns.max(1);

    outln!("recovery-layer overhead, {NODES} nodes x {ROUNDS} rounds:");
    outln!(
        "{:>6}  {:>13}  {:>9}  {:>7}  {:>8}  {:>8}  {:>8}",
        "drop",
        "latency (us)",
        "overhead",
        "faults",
        "retrans",
        "reissue",
        "discard"
    );
    let mut json = String::from("{\n  \"bench\": \"fault_overhead\",\n");
    json.push_str(&format!(
        "  \"nodes\": {NODES},\n  \"rounds\": {ROUNDS},\n  \"points\": [\n"
    ));
    for (i, p) in points.iter().enumerate() {
        let overhead = p.mean_latency_ns as f64 / base as f64 - 1.0;
        outln!(
            "{:>4}\u{2030}  {:>13.2}  {:>8.1}%  {:>7}  {:>8}  {:>8}  {:>8}",
            p.drop_permille,
            p.mean_latency_ns as f64 / 1000.0,
            overhead * 100.0,
            p.faults_injected,
            p.retransmits,
            p.gather_reissues,
            p.link_discards,
        );
        json.push_str(&format!(
            "    {{\"drop_permille\": {}, \"mean_latency_ns\": {}, \
             \"completed\": {}, \"overhead_pct\": {:.2}, \"faults_injected\": {}, \
             \"retransmits\": {}, \"gather_reissues\": {}, \"link_discards\": {}}}{}\n",
            p.drop_permille,
            p.mean_latency_ns,
            p.completed,
            overhead * 100.0,
            p.faults_injected,
            p.retransmits,
            p.gather_reissues,
            p.link_discards,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_fault_overhead.json", &json)?;
    outln!("\nwrote BENCH_fault_overhead.json");
    outln!("Expected shape: 0\u{2030} is the unarmed baseline (zero overhead by");
    outln!("construction); mean latency then grows with the loss rate as");
    outln!("retransmission and re-issue timeouts stretch faulted accesses.");
    Ok(())
}
