//! Store-latency scaling (the paper's Figure 10, live): sweep the number
//! of nodes sharing a block and compare the multicast/gather hardware
//! against a singlecast invalidation storm.
//!
//! Run with: `cargo run --release --example store_scaling`

use cenju4::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("store latency vs sharers (128-node machine, 4 network stages)\n");
    println!(
        "{:>8}  {:>14}  {:>16}  {:>6}",
        "sharers", "multicast (us)", "singlecast (us)", "ratio"
    );

    let with_mc = SystemConfig::builder(128).build()?;
    let without_mc = SystemConfig::builder(128)
        .multicast(MulticastMode::SinglecastEmulation)
        .build()?;
    for k in [2u16, 4, 8, 16, 32, 64, 128] {
        let a = probes::store_latency(&with_mc, k);
        let b = probes::store_latency(&without_mc, k);
        println!(
            "{:>8}  {:>14.2}  {:>16.2}  {:>6.1}x",
            k,
            a.as_us_f64(),
            b.as_us_f64(),
            b.as_ns() as f64 / a.as_ns() as f64
        );
    }

    // The paper's headline estimate: 1024 sharers on the full machine.
    println!("\nfull 1024-node machine, all nodes sharing:");
    let big = SystemConfig::builder(1024).build()?;
    let big_sc = SystemConfig::builder(1024)
        .multicast(MulticastMode::SinglecastEmulation)
        .build()?;
    let a = probes::store_latency(&big, 1024);
    let b = probes::store_latency(&big_sc, 1024);
    println!(
        "  with multicast+gather : {:>8.1} us   (paper estimate:   6.3 us)",
        a.as_us_f64()
    );
    println!(
        "  without               : {:>8.1} us   (paper estimate: 184.0 us)",
        b.as_us_f64()
    );
    Ok(())
}
