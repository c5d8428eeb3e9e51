//! Starvation (the paper's Figure 6): hammer one memory block from many
//! nodes under (a) a DASH-style nack protocol and (b) the Cenju-4 queuing
//! protocol, and compare fairness.
//!
//! Run with: `cargo run --release --example starvation`

use cenju4::des::stats::OnlineStats;
use cenju4::prelude::*;

/// Issues `rounds` of simultaneous stores from every node to one block and
/// returns (completion-latency stats, nacks, retries, max queue depth,
/// worst per-transaction retry count) measured by a [`StarvationProbe`]
/// observer attached to the engine.
fn contend(cfg: &SystemConfig, rounds: u32) -> (OnlineStats, u64, u64, usize, u32) {
    let mut eng = Engine::new(cfg);
    eng.add_observer(Box::new(StarvationProbe::default()));
    let block = Addr::new(NodeId::new(0), 0);
    let n = cfg.sys.nodes();
    // Warm: everyone holds the block Shared.
    for i in 0..n {
        eng.issue(eng.now(), NodeId::new(i), MemOp::Load, block);
        eng.run();
    }
    let mut lat = OnlineStats::new();
    for _ in 0..rounds {
        let t0 = eng.now();
        for i in 0..n {
            eng.issue(t0, NodeId::new(i), MemOp::Store, block);
        }
        for note in eng.run() {
            if let Some(l) = note.latency() {
                lat.push(l.as_ns() as f64);
            }
        }
    }
    let probe: &StarvationProbe = eng.observer().expect("probe was registered");
    (
        lat,
        probe.nacks(),
        probe.retries(),
        probe.max_queue_depth(),
        probe.worst_txn_retries(),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes = 16;
    let rounds = 10;
    println!("{nodes} nodes store to ONE block, {rounds} rounds\n");

    let queuing = SystemConfig::builder(nodes).build()?;
    let nack = SystemConfig::builder(nodes)
        .kind(ProtocolKind::Nack)
        .build()?;

    let (ql, qn, qr, qd, qw) = contend(&queuing, rounds);
    let (nl, nn, nr, _, nw) = contend(&nack, rounds);

    println!("                     queuing (Cenju-4)      nack (DASH-style)");
    println!(
        "completions          {:>12}           {:>12}",
        ql.count(),
        nl.count()
    );
    println!(
        "mean latency (us)    {:>12.2}           {:>12.2}",
        ql.mean() / 1000.0,
        nl.mean() / 1000.0
    );
    println!(
        "worst latency (us)   {:>12.2}           {:>12.2}",
        ql.max() / 1000.0,
        nl.max() / 1000.0
    );
    println!("nacks                {:>12}           {:>12}", qn, nn);
    println!("retries              {:>12}           {:>12}", qr, nr);
    println!("worst txn retries    {:>12}           {:>12}", qw, nw);
    println!("\nqueuing protocol: max main-memory request-queue depth = {qd}");
    println!(
        "  (bound: nodes x 4 outstanding = {} entries; 32 KB on 1024 nodes)",
        nodes * 4
    );
    println!("\nThe nack protocol spends its time re-sending requests that lose");
    println!("the race (Figure 6a); the queuing home services them FIFO with");
    println!("zero nacks (Figure 6b).");
    Ok(())
}
