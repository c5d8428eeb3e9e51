//! Quickstart: build a Cenju-4 machine, run a handful of coherence
//! transactions by hand, and print what the protocol did.
//!
//! Run with: `cargo run --release --example quickstart`

use cenju4::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16-node machine (2 network stages) with the default calibration.
    let cfg = SystemConfig::builder(16).build()?;
    let mut eng = Engine::new(&cfg);
    eng.enable_trace(4096);

    // A block homed in node 0's memory.
    let block = Addr::new(NodeId::new(0), 42);

    println!("== Cenju-4 quickstart: one block, a few sharers ==\n");

    // Step 1: five nodes read the block. The first reader is granted
    // Exclusive; the others downgrade it to Shared.
    for n in 1..=5u16 {
        let txn = eng.issue(eng.now(), NodeId::new(n), MemOp::Load, block);
        let done = eng.run();
        let latency = done
            .iter()
            .find_map(|x| x.latency())
            .expect("load completes");
        println!(
            "node {n:2} load   txn {txn:3}  latency {:>6} ns  cache={}  memory={}",
            latency.as_ns(),
            eng.cache_state(NodeId::new(n), block),
            eng.memory_state(block),
        );
    }

    // Step 2: node 3 stores to its Shared copy. That is an *ownership*
    // request: no data moves; the other four copies are invalidated by a
    // multicast carrying the directory's node map, and their replies are
    // gathered in-network into a single message.
    let txn = eng.issue(eng.now(), NodeId::new(3), MemOp::Store, block);
    let done = eng.run();
    let latency = done
        .iter()
        .find_map(|x| x.latency())
        .expect("store completes");
    println!(
        "\nnode  3 store  txn {txn:3}  latency {:>6} ns  cache={}  memory={}",
        latency.as_ns(),
        eng.cache_state(NodeId::new(3), block),
        eng.memory_state(block),
    );
    for n in 1..=5u16 {
        println!(
            "        node {n:2} now caches the block as {}",
            eng.cache_state(NodeId::new(n), block)
        );
    }

    println!("\n== protocol counters ==");
    let s = eng.stats();
    println!("requests        {}", s.requests.get());
    println!("forwards        {}", s.forwards.get());
    println!("invalidations   {}", s.invalidations.get());
    println!("inval. copies   {}", s.invalidation_copies.get());
    let n = eng.net_stats();
    println!("unicasts        {}", n.unicasts.get());
    println!("multicasts      {}", n.multicasts.get());
    println!("gathers merged  {}", n.gather_absorbed.get());
    println!("gather deliver  {}", n.gather_delivered.get());

    println!("\n== protocol event timeline for the block ==");
    print!("{}", eng.trace().dump_block(block));
    Ok(())
}
