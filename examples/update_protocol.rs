//! The paper's proposed fix for CG (Section 4.2.3), implemented: switch
//! the shared vector to an *update-type* protocol that keeps a fresh copy
//! in every subscriber's main memory (a third-level cache). Loads that
//! miss the L2 are then satisfied locally, and CG's saturation lifts.
//!
//! Run with: `cargo run --release --example update_protocol`

use cenju4::prelude::*;
use cenju4::workloads::runner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = 1.0;
    println!("CG speedup: invalidation protocol vs update + L3 (scale {scale})\n");
    println!("{:>6}  {:>12}  {:>12}", "nodes", "invalidate", "update+L3");
    let seq = runner::sequential_time(AppKind::Cg, scale)?;
    for n in [4u16, 8, 16, 32, 64, 128] {
        let inv = runner::run_workload(AppKind::Cg, Variant::Dsm2, true, n, scale)?.speedup(seq);
        let upd = runner::run_cg_with_update(n, scale)?.speedup(seq);
        println!("{n:>6}  {inv:>11.1}x  {upd:>11.1}x");
    }

    println!("\nwhere the misses go at 128 nodes:");
    let base = runner::run_workload(AppKind::Cg, Variant::Dsm2, true, 128, scale)?;
    let upd = runner::run_cg_with_update(128, scale)?;
    println!(
        "  invalidate : {:>5.1}% remote misses, {:>5.1}% local",
        base.miss_fraction(AccessClass::SharedRemote) * 100.0,
        base.miss_fraction(AccessClass::SharedLocal) * 100.0
    );
    println!(
        "  update+L3  : {:>5.1}% remote misses, {:>5.1}% local",
        upd.miss_fraction(AccessClass::SharedRemote) * 100.0,
        upd.miss_fraction(AccessClass::SharedLocal) * 100.0
    );
    println!("\nThe paper: \"it is also required for the system to make the load");
    println!("access latency scalable ... these load accesses must be satisfied");
    println!("at the local memory. One solution ... is to use the main memory as");
    println!("third-level cache and to use an update-type protocol.\" Implemented");
    println!("here as Engine::mark_update_block; the push reuses the same");
    println!("multicast/gather hardware as invalidations.");
    Ok(())
}
