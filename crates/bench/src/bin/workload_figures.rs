//! Regenerates the paper's application results, which all read the same
//! simulator runs: **Figure 11** ((a) the paper's rewriting ratios, (b)
//! parallel efficiency of mpi / dsm(1) / dsm(2) with and without data
//! mappings at the paper's node counts, BT/SP 64 and CG/FT 128), **Table
//! 3** (miss ratio and private/local/remote miss breakdown of those dsm
//! runs), **Figure 12** (dsm(2)+mapping speedups as the machine grows) and
//! **Table 4** (characteristics of those runs at 16 nodes and at the
//! paper's size). [`points`] lists each distinct parallel run once, and
//! one [`sweep`] runs them all; every speedup divides
//! [`runner::sequential_time`], each app's sequential baseline.
//!
//! Run with:
//! `cargo run --release -p cenju4-bench --bin workload_figures [scale]`
//! (scale defaults to 2.0; smaller is faster). `--trace-out trace.json`
//! additionally replays Figure 12's golden mixed-workload scenario with
//! span tracing and writes a Chrome `trace_event` file;
//! `--metrics-out metrics.txt` dumps its latency histograms and counters.

use cenju4::prelude::*;
use cenju4::workloads::rewrite::paper_rewriting_ratios;
use cenju4::workloads::{runner, KernelProgram};
use cenju4_bench::paper::{FIG11B_DSM1_EFFICIENCY, FIG11B_DSM2_EFFICIENCY, FIG12, TABLE3, TABLE4};
use cenju4_bench::FigArgs;
use cenju4_check::{out, outln};

/// One simulator run: `(app, variant, mapping, nodes)`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Point(AppKind, Variant, bool, u16);

impl Point {
    fn program(self, scale: f64) -> Result<(SystemConfig, KernelProgram), ConfigError> {
        let Point(app, variant, mapping, nodes) = self;
        let cfg = SystemConfig::builder(nodes).build()?;
        let prog = KernelProgram::try_build(app, variant, mapping, &cfg, scale)?;
        Ok((cfg, prog))
    }
}

/// Figure 11(b)'s programs, run at each app's paper size.
const FIG11_PROGRAMS: [(Variant, bool); 5] = [
    (Variant::Mpi, true),
    (Variant::Dsm1, false),
    (Variant::Dsm1, true),
    (Variant::Dsm2, false),
    (Variant::Dsm2, true),
];

/// Table 3's programs, in its row order, run at each app's paper size.
const TABLE3_PROGRAMS: [(Variant, bool); 4] = [
    (Variant::Dsm1, false),
    (Variant::Dsm1, true),
    (Variant::Dsm2, false),
    (Variant::Dsm2, true),
];

/// Figure 12's machine sizes for `app`, up to its paper size.
fn fig12_nodes(app: AppKind) -> impl Iterator<Item = u16> {
    [2u16, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .filter(move |&n| n <= app.paper_nodes())
}

/// Every run the four tables read, each once: per app the union of
/// Figure 11's, Table 3's, Figure 12's and Table 4's parallel points.
fn points() -> Vec<Point> {
    let mut points = Vec::new();
    let mut add = |p: Point| {
        if !points.contains(&p) {
            points.push(p);
        }
    };
    for app in AppKind::ALL {
        let paper = app.paper_nodes();
        for (variant, mapping) in FIG11_PROGRAMS.into_iter().chain(TABLE3_PROGRAMS) {
            add(Point(app, variant, mapping, paper));
        }
        for nodes in fig12_nodes(app).chain([16, paper]) {
            add(Point(app, Variant::Dsm2, true, nodes));
        }
    }
    points
}

/// The reports of one regeneration, looked up by point, and each app's
/// sequential baseline in [`AppKind::ALL`] order, simulated ns.
struct Runs {
    points: Vec<Point>,
    reports: Vec<RunReport>,
    seq_ns: Vec<u64>,
}

impl Runs {
    fn get(&self, p: Point) -> &RunReport {
        let i = self.points.iter().position(|&q| q == p);
        &self.reports[i.expect("every printed point is in points()")]
    }

    fn speedup(&self, p: Point) -> f64 {
        let app = AppKind::ALL.iter().position(|&a| a == p.0);
        self.get(p)
            .speedup(self.seq_ns[app.expect("every app is in AppKind::ALL")])
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = FigArgs::from_env(Some(2.0), true);
    let scale = args.scale;
    let points = points();
    // Build every program before running any, so an oversized scale is a
    // typed error up front.
    for p in &points {
        p.program(scale)?;
    }
    let reports = sweep(&points, |p| {
        p.program(scale)
            .map(|(cfg, prog)| Driver::new(&cfg, prog).run())
    });
    let runs = Runs {
        reports: reports.into_iter().collect::<Result<_, _>>()?,
        points,
        seq_ns: AppKind::ALL
            .into_iter()
            .map(|app| runner::sequential_time(app, scale))
            .collect::<Result<_, _>>()?,
    };
    fig11(&runs, scale);
    table3(&runs, scale);
    fig12(&runs, scale);
    if args.active() {
        args.write(cenju4_bench::traced::fig12_run().collector())?;
    }
    table4(&runs, scale)
}

fn fig11(runs: &Runs, scale: f64) {
    outln!("Figure 11(a): program rewriting ratios (paper's measurements;");
    outln!("a human-effort metric on the Fortran sources — see DESIGN.md)\n");
    outln!(" app      mpi    dsm1-nm       dsm1    dsm2-nm       dsm2");
    for r in paper_rewriting_ratios() {
        outln!(
            "{:>4} {:>7.0}% {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
            r.app.name(),
            r.mpi * 100.0,
            r.dsm1_nomap * 100.0,
            r.dsm1 * 100.0,
            r.dsm2_nomap * 100.0,
            r.dsm2 * 100.0
        );
    }

    outln!("\nFigure 11(b): parallel efficiency, measured (scale {scale})\n");
    outln!(
        " app  nodes      mpi  dsm1-nm     dsm1  dsm2-nm     dsm2      paper dsm1     paper dsm2"
    );
    for app in AppKind::ALL {
        let n = app.paper_nodes();
        out!("{:>4} {n:>6}", app.name());
        for (variant, mapping) in FIG11_PROGRAMS {
            let efficiency = runs.speedup(Point(app, variant, mapping, n)) / n as f64;
            out!(" {:>7.0}%", efficiency * 100.0);
        }
        let p1 = FIG11B_DSM1_EFFICIENCY.iter().find(|r| r.0 == app.name());
        let p2 = FIG11B_DSM2_EFFICIENCY.iter().find(|r| r.0 == app.name());
        outln!(
            "  {:>13.0}% {:>13.0}%",
            p1.map_or(0.0, |r| r.1) * 100.0,
            p2.map_or(0.0, |r| r.2) * 100.0
        );
    }
    outln!("\nExpected shape: dsm(2)+mapping approaches mpi on BT/FT; dsm(1)");
    outln!("stays low; CG is low for every shared-memory variant.");
}

fn table3(runs: &Runs, scale: f64) {
    outln!("Table 3: secondary cache miss characteristics (scale {scale})");
    outln!("measured | paper, percentages\n");
    outln!(" app variant  mapped      miss ratio           private             local            remote");
    for app in AppKind::ALL {
        for (variant, mapped) in TABLE3_PROGRAMS {
            let r = runs.get(Point(app, variant, mapped, app.paper_nodes()));
            let (.., miss_ratio, private, local, remote) = *TABLE3
                .iter()
                .find(|p| p.0 == app.name() && p.1 == variant.name() && p.2 == mapped)
                .expect("paper row");
            outln!(
                "{:>4} {:>7} {:>7} {:>6.2} | {:>5.2} {:>7.1} | {:>6.1} {:>7.1} | {:>6.1} {:>7.1} | {:>6.1}",
                app.name(),
                variant.name(),
                if mapped { "yes" } else { "no" },
                r.miss_ratio() * 100.0,
                miss_ratio,
                r.miss_fraction(AccessClass::Private) * 100.0,
                private,
                r.miss_fraction(AccessClass::SharedLocal) * 100.0,
                local,
                r.miss_fraction(AccessClass::SharedRemote) * 100.0,
                remote,
            );
        }
        outln!();
    }
    outln!("Expected shape: dsm(2) cuts the miss ratio and shifts misses to");
    outln!("private; mapping converts remote misses to local ones on BT/FT/SP;");
    outln!("CG is insensitive to both knobs.");
}

fn fig12(runs: &Runs, scale: f64) {
    outln!("Figure 12: speedups of dsm(2)+mapping programs (scale {scale})\n");
    for app in AppKind::ALL {
        out!("{:>4}:", app.name());
        for n in fig12_nodes(app) {
            let s = runs.speedup(Point(app, Variant::Dsm2, true, n));
            out!("  {n}n={s:.1}x");
        }
        // Paper's digitized endpoints for reference.
        let refs: Vec<String> = FIG12
            .iter()
            .filter(|(a, _, _)| *a == app.name())
            .map(|(_, n, s)| format!("{n}n={s:.0}x"))
            .collect();
        outln!("   [paper: {}]", refs.join(", "));
    }
    outln!("\nExpected shape: near-linear for BT/FT/SP; CG flattens well below");
    outln!("its node count (the whole-vector re-read pattern of Section 4.2.3).");
}

fn table4(runs: &Runs, scale: f64) -> Result<(), Box<dyn std::error::Error>> {
    outln!("Table 4: characteristics of dsm(2)+mapping runs (scale {scale})");
    outln!("measured | paper where the paper reports the column\n");
    outln!(" app  nodes    time (ms)  Minstr/node          sync %         accesses P/L/R %    miss ratio %     remote miss %");
    for app in AppKind::ALL {
        for nodes in [16u16, app.paper_nodes()] {
            let p = Point(app, Variant::Dsm2, true, nodes);
            let instr = p.program(scale)?.1.node_instructions(NodeId::new(0)) as f64 / 1e6;
            let r = runs.get(p);
            let (.., psync, pmiss, premote) = *TABLE4
                .iter()
                .find(|p| p.0 == app.name() && p.1 == nodes)
                .expect("paper row");
            let total: u64 = AccessClass::ALL.iter().map(|&c| r.accesses(c)).sum();
            let frac = |c| 100.0 * r.accesses(c) as f64 / total.max(1) as f64;
            outln!(
                "{:>4} {:>6} {:>12.2} {:>12.2} {:>6.1} | {:>5.1} {:>7.0}/{:>4.0}/{:>4.0} {:>7} {:>5.2} | {:>5.2} {:>7.1} | {:>6.1}",
                app.name(),
                nodes,
                r.total_time().as_ns() as f64 / 1e6,
                instr,
                r.sync_fraction() * 100.0,
                psync,
                frac(AccessClass::Private),
                frac(AccessClass::SharedLocal),
                frac(AccessClass::SharedRemote),
                "",
                r.miss_ratio() * 100.0,
                pmiss,
                r.miss_fraction(AccessClass::SharedRemote) * 100.0,
                premote,
            );
        }
        outln!();
    }
    outln!("Expected shape: sync fraction grows with nodes; access breakdowns");
    outln!("barely move, but the REMOTE share of misses jumps — mildly for");
    outln!("BT/FT, dramatically for CG (9% -> 81% in the paper), which is what");
    outln!("saturates CG's speedup.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One regeneration runs 42 distinct points where the four separate
    /// tables ran 94: Figure 11's 20 points (Table 3's 16 among them)
    /// and Figure 12's 22 others (Table 4's 8 among Figure 12's 26). The
    /// four sequential baselines are no simulator runs.
    #[test]
    fn the_four_tables_share_42_runs() {
        let points = points();
        assert_eq!(points.len(), 42);
        assert!(points.iter().all(|p| p.1 != Variant::Seq));
    }
}
