//! CG speedup saturation (the paper's Figure 12 and Section 4.2.3): the
//! conjugate-gradient access pattern — every node re-reads the whole
//! shared vector each iteration — stops scaling, while BT keeps speeding
//! up.
//!
//! Run with: `cargo run --release --example cg_saturation`

use cenju4::prelude::*;
use cenju4::workloads::runner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = 0.5;
    println!("speedups of dsm(2) programs with data mappings (scale {scale})\n");
    println!("{:>6}  {:>10}  {:>10}", "nodes", "BT", "CG");
    let bt_seq = runner::sequential_time(AppKind::Bt, scale)?;
    let cg_seq = runner::sequential_time(AppKind::Cg, scale)?;
    for &n in &[2u16, 4, 8, 16, 32] {
        let bt = runner::run_workload(AppKind::Bt, Variant::Dsm2, true, n, scale)?.speedup(bt_seq);
        let cg = runner::run_workload(AppKind::Cg, Variant::Dsm2, true, n, scale)?.speedup(cg_seq);
        println!("{n:>6}  {bt:>10.2}  {cg:>10.2}");
    }

    println!("\nwhy: remote-miss fraction of all L2 misses");
    println!("{:>6}  {:>10}  {:>10}", "nodes", "BT", "CG");
    for &n in &[4u16, 16, 32] {
        let bt = runner::run_workload(AppKind::Bt, Variant::Dsm2, true, n, scale)?;
        let cg = runner::run_workload(AppKind::Cg, Variant::Dsm2, true, n, scale)?;
        println!(
            "{n:>6}  {:>9.1}%  {:>9.1}%",
            bt.miss_fraction(AccessClass::SharedRemote) * 100.0,
            cg.miss_fraction(AccessClass::SharedRemote) * 100.0
        );
    }
    println!("\nCG re-reads the entire shared vector every iteration; as nodes");
    println!("are added, each block is reused fewer times before it is");
    println!("invalidated, so remote misses stay constant per node while the");
    println!("compute shrinks — exactly the saturation the paper reports.");
    Ok(())
}
