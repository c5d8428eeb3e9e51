//! Regenerates **Figure 6**: the behaviour of a nack protocol versus the
//! Cenju-4 queuing protocol when several masters target the same block.
//!
//! Figure 6(a): with nacks, a request can lose the retry race again and
//! again — latencies are unbounded in the worst case and retries pile up.
//! Figure 6(b): the queuing home services requests in arrival order with
//! zero nacks, bounding every request's waiting time.
//!
//! Run with: `cargo run --release -p cenju4-bench --bin fig6_starvation [rounds]`

use cenju4::des::stats::OnlineStats;
use cenju4::prelude::*;
use cenju4_check::outln;

struct Outcome {
    latency: OnlineStats,
    nacks: u64,
    retries: u64,
    worst_txn_retries: u32,
    max_queue: usize,
}

fn contend(cfg: &SystemConfig, rounds: u32) -> Outcome {
    let mut eng = Engine::new(cfg);
    // The Fig-6 starvation metrics come from an observer attached to the
    // engine, not from the engine's own counters.
    eng.add_observer(Box::new(StarvationProbe::default()));
    let block = Addr::new(NodeId::new(0), 0);
    let n = cfg.sys.nodes();
    for i in 0..n {
        eng.issue(eng.now(), NodeId::new(i), MemOp::Load, block);
        eng.run();
    }
    let mut latency = OnlineStats::new();
    for _ in 0..rounds {
        let t0 = eng.now();
        for i in 0..n {
            eng.issue(t0, NodeId::new(i), MemOp::Store, block);
        }
        for note in eng.run() {
            if let Some(l) = note.latency() {
                latency.push(l.as_ns() as f64);
            }
        }
    }
    let probe: &StarvationProbe = eng.observer().expect("probe was registered");
    Outcome {
        latency,
        nacks: probe.nacks(),
        retries: probe.retries(),
        worst_txn_retries: probe.worst_txn_retries(),
        max_queue: probe.max_queue_depth(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rounds = cenju4_bench::FigArgs::from_env(Some(20.0), false).scale as u32;
    for nodes in [16u16, 64] {
        let queuing = SystemConfig::builder(nodes).build()?;
        let nack = SystemConfig::builder(nodes)
            .kind(ProtocolKind::Nack)
            .build()?;
        let q = contend(&queuing, rounds);
        let k = contend(&nack, rounds);
        outln!("{nodes} nodes, {rounds} rounds of all-store contention on one block");
        outln!("{:<24} {:>16} {:>16}", "", "queuing (6b)", "nack (6a)");
        outln!(
            "{:<24} {:>16} {:>16}",
            "completions",
            q.latency.count(),
            k.latency.count()
        );
        outln!(
            "{:<24} {:>16.1} {:>16.1}",
            "mean latency (us)",
            q.latency.mean() / 1000.0,
            k.latency.mean() / 1000.0
        );
        outln!(
            "{:<24} {:>16.1} {:>16.1}",
            "p-max latency (us)",
            q.latency.max() / 1000.0,
            k.latency.max() / 1000.0
        );
        outln!("{:<24} {:>16} {:>16}", "nacks", q.nacks, k.nacks);
        outln!("{:<24} {:>16} {:>16}", "retries", q.retries, k.retries);
        outln!(
            "{:<24} {:>16} {:>16}",
            "worst txn retries",
            q.worst_txn_retries,
            k.worst_txn_retries
        );
        outln!(
            "{:<24} {:>16} {:>16}",
            "max queue depth",
            format!("{} (<= {})", q.max_queue, nodes as usize * 4),
            "-"
        );
        outln!();
    }
    outln!("Expected shape: the queuing protocol never nacks and its worst-case");
    outln!("latency stays close to (sharers x service); the nack baseline");
    outln!("retries heavily and its worst case balloons.");
    Ok(())
}
