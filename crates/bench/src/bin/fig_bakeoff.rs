//! Cross-protocol bakeoff: store latency and network traffic for the
//! invalidate-based MESI protocol versus the update-based Dragon
//! protocol, across every engine-backed directory format, at 16/128/1024
//! nodes (2/4/6 network stages).
//!
//! Run with: `cargo run --release -p cenju4-bench --bin fig_bakeoff`
//!
//! Three accesses tell the whole invalidate-vs-update story on a block
//! shared machine-wide:
//!
//! 1. **first store** — MESI invalidates every copy (paying the Figure-10
//!    multicast/gather once), Dragon pushes the value to every copy
//!    (same fan-out, but the copies stay warm);
//! 2. **second store** — MESI writes into its now-Modified copy for free;
//!    Dragon pays the push again on every store;
//! 3. **reread** by a former sharer — a miss (remote dirty fetch) under
//!    MESI, a local hit under Dragon.
//!
//! `--smoke` runs only the 16-node machine and asserts the signature
//! invariants of each protocol (MESI's second store and Dragon's reread
//! generate zero network traffic) instead of writing the JSON artifact;
//! the full run writes `BENCH_bakeoff.json`.

use cenju4::prelude::*;
use cenju4_check::outln;

/// One measured access: simulated latency plus the network messages it
/// caused (endpoint deliveries, the paper's own traffic unit).
#[derive(Clone, Copy, Debug)]
struct Access {
    ns: u64,
    msgs: u64,
}

/// The three-access bakeoff point for one (protocol, directory, nodes).
#[derive(Clone, Copy, Debug)]
struct Point {
    first_store: Access,
    second_store: Access,
    reread: Access,
}

fn measure(eng: &mut Engine, node: NodeId, op: MemOp, addr: Addr) -> Access {
    let before = eng.net_stats().delivered.get();
    let txn = eng.issue(eng.now(), node, op, addr);
    let done = eng.run();
    let ns = done
        .iter()
        .find_map(|n| match n {
            Notification::Completed {
                txn: t,
                issued,
                finished,
                ..
            } if *t == txn => Some(finished.since(*issued).as_ns()),
            _ => None,
        })
        .expect("bakeoff access must complete");
    Access {
        ns,
        msgs: eng.net_stats().delivered.get() - before,
    }
}

/// Warms a machine-wide sharer set on one block, then runs the
/// store/store/reread sequence from node 1 (reread from node 2).
fn bakeoff_point(coherence: ProtocolId, directory: DirectoryId, nodes: u16) -> Point {
    let cfg = SystemConfig::builder(nodes)
        .protocol(coherence)
        .directory(directory)
        .build()
        .expect("bakeoff configuration invalid");
    let mut eng = Engine::new(&cfg);
    let a = Addr::new(NodeId::new(0), 0);
    for i in 1..=nodes {
        let reader = NodeId::new(i % nodes);
        measure(&mut eng, reader, MemOp::Load, a);
    }
    let first_store = measure(&mut eng, NodeId::new(1), MemOp::Store, a);
    let second_store = measure(&mut eng, NodeId::new(1), MemOp::Store, a);
    let reread = measure(&mut eng, NodeId::new(2), MemOp::Load, a);
    Point {
        first_store,
        second_store,
        reread,
    }
}

/// Whether the command line is `--smoke`; it takes that flag or nothing,
/// and anything else is a usage error (exit 2).
fn smoke_arg() -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => false,
        [flag] if flag == "--smoke" => true,
        _ => {
            eprintln!("unexpected arguments {args:?}\nusage: fig_bakeoff [--smoke]");
            std::process::exit(2)
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = smoke_arg();
    let machines: &[u16] = if smoke { &[16] } else { &[16, 128, 1024] };

    let mut json = String::from("{\n  \"bench\": \"bakeoff\",\n  \"machines\": [\n");
    for (mi, &nodes) in machines.iter().enumerate() {
        outln!("bakeoff on {nodes} nodes (machine-wide sharing):");
        outln!(
            "{:>8} {:>16}  {:>10} {:>5}  {:>10} {:>5}  {:>10} {:>5}",
            "protocol",
            "directory",
            "store1(ns)",
            "msgs",
            "store2(ns)",
            "msgs",
            "reread(ns)",
            "msgs"
        );
        json.push_str(&format!(
            "    {{\"nodes\": {nodes}, \"sharers\": {nodes}, \"variants\": [\n"
        ));
        let mut first_variant = true;
        for &coherence in &ProtocolId::ALL {
            for &directory in &DirectoryId::ALL {
                let p = bakeoff_point(coherence, directory, nodes);
                outln!(
                    "{:>8} {:>16}  {:>10} {:>5}  {:>10} {:>5}  {:>10} {:>5}",
                    coherence.name(),
                    directory.name(),
                    p.first_store.ns,
                    p.first_store.msgs,
                    p.second_store.ns,
                    p.second_store.msgs,
                    p.reread.ns,
                    p.reread.msgs,
                );
                if smoke {
                    // The two signature invariants of the seam: after an
                    // invalidating store the writer owns the block (free
                    // second store); after an update push every sharer is
                    // warm (free reread).
                    match coherence {
                        ProtocolId::Mesi => assert_eq!(
                            p.second_store.msgs, 0,
                            "MESI second store must be a local hit ({directory})"
                        ),
                        ProtocolId::Dragon => assert_eq!(
                            p.reread.msgs, 0,
                            "Dragon reread must be a local hit ({directory})"
                        ),
                    }
                    assert!(p.first_store.msgs > 0, "first store must cross the fabric");
                }
                json.push_str(&format!(
                    "      {}{{\"protocol\": \"{}\", \"directory\": \"{}\", \
                     \"first_store_ns\": {}, \"first_store_msgs\": {}, \
                     \"second_store_ns\": {}, \"second_store_msgs\": {}, \
                     \"reread_ns\": {}, \"reread_msgs\": {}}}\n",
                    if first_variant { "" } else { "," },
                    coherence.name(),
                    directory.name(),
                    p.first_store.ns,
                    p.first_store.msgs,
                    p.second_store.ns,
                    p.second_store.msgs,
                    p.reread.ns,
                    p.reread.msgs,
                ));
                first_variant = false;
            }
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if mi + 1 == machines.len() { "" } else { "," }
        ));
        outln!();
    }
    json.push_str("  ]\n}\n");

    if smoke {
        outln!("bakeoff-smoke: protocol signatures hold for every variant");
    } else {
        std::fs::write("BENCH_bakeoff.json", &json)?;
        outln!("wrote BENCH_bakeoff.json");
        outln!("\nExpected shape: MESI pays the invalidation fan-out once and then");
        outln!("writes locally; Dragon pays the update push on every store but");
        outln!("keeps every reader warm (zero-traffic rereads). Directory format");
        outln!("moves the fan-out set (imprecise formats over-multicast), not the");
        outln!("crossover.");
    }
    Ok(())
}
