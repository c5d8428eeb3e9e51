//! Regenerates **Figure 12**: speedups of the dsm(2)-with-mapping programs
//! as the machine grows — BT and SP to 64 nodes, CG and FT to 128. The
//! paper's headline: BT/FT/SP keep speeding up, CG saturates.
//!
//! Run with: `cargo run --release -p cenju4-bench --bin fig12_speedups [scale]`
//!
//! `--trace-out trace.json` additionally replays the figure's golden
//! mixed-workload scenario with span tracing and writes a Chrome
//! `trace_event` file; `--metrics-out metrics.txt` dumps its latency
//! histograms and counters.

use cenju4::prelude::*;
use cenju4::workloads::runner;
use cenju4_bench::paper::FIG12;
use cenju4_bench::ObsArgs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let obs = ObsArgs::parse();
    let scale = cenju4_bench::scale_arg(2.0);
    println!("Figure 12: speedups of dsm(2)+mapping programs (scale {scale})\n");
    for app in AppKind::ALL {
        let max = app.paper_nodes();
        let mut counts: Vec<u16> = vec![2, 4, 8, 16, 32, 64];
        if max == 128 {
            counts.push(128);
        }
        print!("{:>4}:", app.name());
        // One sweep worker per machine size; results come back in
        // `counts` order regardless of the thread count.
        let speedups = runner::speedups(app, Variant::Dsm2, true, &counts, scale)?;
        for (&n, s) in counts.iter().zip(&speedups) {
            print!("  {n}n={s:.1}x");
        }
        // Paper's digitized endpoints for reference.
        let refs: Vec<String> = FIG12
            .iter()
            .filter(|(a, _, _)| *a == app.name())
            .map(|(_, n, s)| format!("{n}n={s:.0}x"))
            .collect();
        println!("   [paper: {}]", refs.join(", "));
    }
    println!("\nExpected shape: near-linear for BT/FT/SP; CG flattens well below");
    println!("its node count (the whole-vector re-read pattern of Section 4.2.3).");

    if obs.active() {
        let run = cenju4_bench::traced::fig12_run();
        obs.write(run.collector())?;
    }
    Ok(())
}
