//! Regenerates **Figure 4**: the average number of nodes represented by
//! each imprecise node-map scheme versus the actual number of sharers,
//! with sharers drawn (a) from the whole 1024-node machine and (b) from
//! one 128-node group.
//!
//! Run with:
//! `cargo run --release -p cenju4-bench --bin fig4_nodemap_precision [trials]`

use cenju4::directory::precision::{group_pool, precision_curve, whole_machine_pool, SchemeKind};
use cenju4::prelude::*;
use cenju4_check::{out, outln};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trials = cenju4_bench::FigArgs::from_env(Some(200.0), false).scale as u32;
    let sys = SystemSize::new(1024)?;
    let schemes = [
        SchemeKind::CoarseVector32,
        SchemeKind::HierarchicalBitMap,
        SchemeKind::Cenju4,
    ];
    let panels: [(&str, Vec<NodeId>, Vec<u32>); 2] = [
        (
            "(a) sharers from 1024 nodes",
            whole_machine_pool(sys),
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        ),
        (
            "(b) sharers from a 128-node group",
            group_pool(sys, 0, 128),
            vec![1, 2, 4, 8, 16, 32, 64, 128],
        ),
    ];

    for (title, pool, ks) in panels {
        outln!("Figure 4{title}  [{trials} trials per point]");
        out!("{:>8}", "sharers");
        for s in schemes {
            out!("  {:>22}", s.name());
        }
        outln!();
        cenju4_bench::rule(8 + 24 * schemes.len());
        // One sweep worker per scheme; curves come back in scheme order.
        let curves = sweep(&schemes, |&s| {
            precision_curve(s, sys, &pool, &ks, trials, 0xF16)
        });
        for (i, &k) in ks.iter().enumerate() {
            out!("{k:>8}");
            for c in &curves {
                out!(
                    "  {:>14.1} ({:>4.1}x)",
                    c[i].avg_represented,
                    c[i].overcount
                );
            }
            outln!();
        }
        outln!();
    }
    outln!("Expected shape (paper): the bit-pattern curve lies well below the");
    outln!("coarse vector for small sharer counts in (a), and below both other");
    outln!("schemes across panel (b) — clustered sharers stay cheap.");
    Ok(())
}
