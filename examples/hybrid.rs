//! The paper's motivating thesis (Section 1): Cenju-4 supports *both*
//! shared memory and message passing in hardware, and programs can combine
//! them — DSM for irregular shared state, message passing for bulk
//! transfers and reductions.
//!
//! This example runs a toy hybrid phase on 16 nodes: every node updates a
//! shared accumulator block through the DSM, then ships its 32 KB result
//! buffer to node 0 over the message-passing layer — all on the same
//! network, so the two kinds of traffic contend for real resources.
//!
//! Run with: `cargo run --release --example hybrid`

use cenju4::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SystemConfig::builder(16).build()?;
    let mut eng = Engine::new(&cfg);
    let shared = Addr::new(NodeId::new(0), 0);

    // Phase 1: everyone reads then updates the shared block (DSM).
    println!("phase 1: DSM — 15 nodes read-modify-write one shared block");
    for n in 1..16u16 {
        eng.issue(eng.now(), NodeId::new(n), MemOp::Load, shared);
        eng.run();
        eng.issue(eng.now(), NodeId::new(n), MemOp::Store, shared);
        eng.run();
    }
    let t_dsm = eng.now();
    println!(
        "  done at {:.1} us   ({} invalidations, {} forwards)",
        t_dsm.as_us_f64(),
        eng.stats().invalidations.get(),
        eng.stats().forwards.get()
    );

    // Phase 2: each node ships a 32 KB buffer to node 0 (message passing).
    println!("\nphase 2: message passing — 15 x 32 KB results to node 0");
    let t0 = eng.now();
    for n in 1..16u16 {
        eng.mp_send(t0, NodeId::new(n), NodeId::new(0), 32 * 1024, n as u64);
    }
    let mut last = t0;
    let mut count = 0;
    for note in eng.run() {
        if let Notification::MessageDelivered { delivered, .. } = note {
            last = last.max(delivered);
            count += 1;
        }
    }
    println!(
        "  {count} messages, all landed by {:.1} us ({:.1} us for the phase)",
        last.as_us_f64(),
        (last.as_ns() - t0.as_ns()) as f64 / 1000.0
    );
    println!(
        "  (15 x 32 KB = 480 KB into one NIC at 169 MB/s ≈ {:.0} us floor)",
        480.0 * 1024.0 * 1000.0 / 169.0 / 1_000_000.0 * 1000.0
    );

    // Phase 3: node 0 publishes a result through the DSM while a bulk
    // transfer is still draining — the two share the NIC.
    println!("\nphase 3: contention — node 1 sends 64 KB while loading remotely");
    let t0 = eng.now();
    eng.mp_send(t0, NodeId::new(1), NodeId::new(8), 64 * 1024, 99);
    eng.issue(
        t0,
        NodeId::new(1),
        MemOp::Load,
        Addr::new(NodeId::new(2), 5),
    );
    for note in eng.run() {
        match note {
            Notification::Completed {
                issued, finished, ..
            } => println!(
                "  remote load latency behind the transfer: {:.1} us (vs 1.7 us idle)",
                finished.since(issued).as_us_f64()
            ),
            Notification::MessageDelivered {
                sent, delivered, ..
            } => println!(
                "  64 KB transfer: {:.1} us",
                delivered.since(sent).as_us_f64()
            ),
            _ => {}
        }
    }
    println!("\nOne network, one NIC per node: the DSM request waits out the");
    println!("bulk transfer's injection serialization — the coupling the");
    println!("paper's combined-programming model implies.");
    Ok(())
}
