//! Regenerates **Figure 10**: store-access latency versus the number of
//! nodes sharing the block, on 16/128/1024-node machines (2/4/6 stages),
//! with and without the network's multicast and gathering functions.
//!
//! Run with: `cargo run --release -p cenju4-bench --bin fig10_store_latency`
//!
//! `--trace-out trace.json` additionally replays the figure's golden
//! scenario with span tracing and writes a Chrome `trace_event` file;
//! `--metrics-out metrics.txt` dumps its latency histograms and counters.

use cenju4::prelude::*;
use cenju4_bench::paper::{FIG10_MULTICAST_1024, FIG10_SINGLECAST_1024};
use cenju4_bench::FigArgs;
use cenju4_check::outln;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let obs = FigArgs::from_env(None, true);
    let machine = |nodes, mode| SystemConfig::builder(nodes).multicast(mode).build();
    for nodes in [16u16, 128, 1024] {
        let with_mc = machine(nodes, MulticastMode::Hardware)?;
        let without = machine(nodes, MulticastMode::SinglecastEmulation)?;
        outln!(
            "store latency on {nodes} nodes ({} stages):",
            with_mc.sys.stages()
        );
        outln!(
            "{:>8}  {:>16}  {:>16}  {:>6}",
            "sharers",
            "multicast (us)",
            "singlecast (us)",
            "ratio"
        );
        let mut ks: Vec<u16> = vec![2, 4, 8, 16];
        if nodes >= 128 {
            ks.extend([32, 64, 128]);
        }
        if nodes == 1024 {
            ks.extend([256, 512, 1024]);
        }
        // Each sharer count is an independent simulation; sweep them in
        // parallel and print in point order.
        let pairs = sweep(&ks, |&k| {
            (
                probes::store_latency(&with_mc, k),
                probes::store_latency(&without, k),
            )
        });
        for (&k, &(a, b)) in ks.iter().zip(&pairs) {
            outln!(
                "{:>8}  {:>16.2}  {:>16.2}  {:>5.1}x",
                k,
                a.as_us_f64(),
                b.as_us_f64(),
                b.as_ns() as f64 / a.as_ns() as f64
            );
        }
        outln!();
    }

    let big = machine(1024, MulticastMode::Hardware)?;
    let big_sc = machine(1024, MulticastMode::SinglecastEmulation)?;
    let a = probes::store_latency(&big, 1024).as_ns() as f64;
    let b = probes::store_latency(&big_sc, 1024).as_ns() as f64;
    outln!("paper's 1024-sharer estimates:");
    outln!(
        "  multicast+gather : {} us",
        cenju4_bench::vs(a / 1000.0, FIG10_MULTICAST_1024 as f64 / 1000.0)
    );
    outln!(
        "  singlecast storm : {} us",
        cenju4_bench::vs(b / 1000.0, FIG10_SINGLECAST_1024 as f64 / 1000.0)
    );
    outln!("\nExpected shape: with the hardware functions the latency grows with");
    outln!("the number of *network stages*, not with the sharer count; without");
    outln!("them it grows linearly with the sharers (NIC serialization).");

    if obs.active() {
        let run = cenju4_bench::traced::fig10_run();
        obs.write(run.collector())?;
    }
    Ok(())
}
