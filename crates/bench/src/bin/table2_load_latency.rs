//! Regenerates **Table 2**: load-access latencies per sharing class at
//! 2, 4 and 6 network stages, measured end-to-end through the protocol and
//! network simulators, with the paper's numbers alongside.
//!
//! Run with: `cargo run --release -p cenju4-bench --bin table2_load_latency`

use cenju4::prelude::*;
use cenju4_bench::paper::TABLE2;
use cenju4_check::{out, outln};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    cenju4_bench::FigArgs::from_env(None, false);
    outln!("Table 2: load access latencies (ns), measured vs paper\n");
    outln!(
        "{:<26} {:>22} {:>22} {:>22}",
        "",
        "2 stages (16)",
        "4 stages (128)",
        "6 stages (1024)"
    );
    let rows = [
        "a) private",
        "b) shared local (clean)",
        "c) shared remote (clean)",
        "d) shared local (dirty)",
        "e) shared remote (dirty)",
    ];
    let cfgs = TABLE2
        .iter()
        .map(|&(nodes, _)| SystemConfig::builder(nodes).build())
        .collect::<Result<Vec<_>, _>>()?;
    // The three machine sizes are independent; measure them in parallel.
    let measured = sweep(&cfgs, |cfg| {
        let r = probes::load_latencies(cfg);
        [
            r.private.as_ns(),
            r.shared_local_clean.as_ns(),
            r.shared_remote_clean.as_ns(),
            r.shared_local_dirty.as_ns(),
            r.shared_remote_dirty.as_ns(),
        ]
    });
    for (i, name) in rows.iter().enumerate() {
        out!("{name:<26}");
        for (col, (_, paper)) in TABLE2.iter().enumerate() {
            out!(
                " {:>22}",
                cenju4_bench::vs(measured[col][i] as f64, paper[i] as f64)
            );
        }
        outln!();
    }
    outln!("\nEvery row is produced by the protocol's actual message sequence;");
    outln!("only the per-component service times are calibrated (DESIGN.md).");
    Ok(())
}
