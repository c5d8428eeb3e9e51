//! Chaos-soak campaign: a node dies mid-run under every directory
//! format, and the full oracle suite (coherence, directory agreement,
//! quiescence, span leaks) must stay green on every seeded schedule.
//!
//! Each seed fixes one scenario shape (workload size, directory format)
//! and drives a batch of independent random walks of the 3-node
//! NodeDown scenario with the recovery layer armed: the fault plan
//! kills node 1 at t = 1 µs, the failure detector suspects it off the
//! retransmission stream, quarantines it, homes scrub it from their
//! directories, and masters targeting it escalate typed
//! `NodeUnavailable` errors. A single surviving violation fails the
//! whole campaign (exit 1) — this is the soak the checker's directed
//! tests sample from.
//!
//! Everything is seeded: the campaign is bit-for-bit reproducible and
//! writes its summary to `BENCH_chaos.json`.
//!
//! Run with: `cargo run --release -p cenju4-bench --bin chaos`

use cenju4_check::{outln, run_one, CheckConfig};
use cenju4_directory::DirectoryId;
use cenju4_protocol::FaultInjection;
use std::process::ExitCode;

/// The same SplitMix64 stream the checker's random walks use, inlined so
/// the campaign's schedules are self-describing from the seed alone.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_below(&mut self, bound: u64) -> u64 {
        if bound <= 1 {
            return 0;
        }
        self.next() % bound
    }
}

/// Per-directory-format rollup.
#[derive(Default)]
struct Tally {
    walks: u64,
    steps: u64,
    max_steps: usize,
}

const SEEDS: u64 = 120;
const WALKS_PER_SEED: u64 = 3;
const MAX_STEPS: usize = 20_000;

fn main() -> ExitCode {
    cenju4_bench::FigArgs::from_env(None, false);
    let formats = DirectoryId::ALL;
    let mut tallies: Vec<Tally> = formats.iter().map(|_| Tally::default()).collect();
    let mut violations = 0u64;
    let mut total_steps = 0u64;
    let mut min_steps = usize::MAX;
    let mut max_steps = 0usize;

    outln!(
        "chaos soak: {SEEDS} seeds x {WALKS_PER_SEED} walks, 3 nodes, \
         node 1 dies at 1us, recovery armed"
    );
    for seed in 0..SEEDS {
        // Each seed fixes one scenario shape; the directory format
        // rotates so every sharer-set representation takes the scrub.
        let fmt_idx = (seed as usize) % formats.len();
        let cfg = CheckConfig {
            nodes: 3,
            blocks: 1 + (seed % 2) as u16,
            ops_per_node: 2 + ((seed / 2) % 2) as u32,
            directory: formats[fmt_idx],
            fault: FaultInjection::NodeDown,
            recovery: true,
            ..CheckConfig::default()
        };
        for walk in 0..WALKS_PER_SEED {
            let mut rng = SplitMix64(seed.wrapping_mul(WALKS_PER_SEED).wrapping_add(walk));
            let out = run_one(
                &cfg,
                |arity| rng.next_below(arity as u64) as usize,
                MAX_STEPS,
            );
            if let Some(v) = &out.violation {
                violations += 1;
                outln!("seed {seed} walk {walk}: VIOLATION under {cfg}");
                outln!("  {v}");
            }
            tallies[fmt_idx].walks += 1;
            tallies[fmt_idx].steps += out.steps as u64;
            tallies[fmt_idx].max_steps = tallies[fmt_idx].max_steps.max(out.steps);
            total_steps += out.steps as u64;
            min_steps = min_steps.min(out.steps);
            max_steps = max_steps.max(out.steps);
        }
    }

    let total_walks = SEEDS * WALKS_PER_SEED;
    outln!(
        "{:>16}  {:>6}  {:>11}  {:>9}",
        "directory",
        "walks",
        "mean steps",
        "max steps"
    );
    let mut json = String::from("{\n  \"bench\": \"chaos\",\n");
    json.push_str(&format!(
        "  \"seeds\": {SEEDS},\n  \"walks_per_seed\": {WALKS_PER_SEED},\n  \
         \"nodes\": 3,\n  \"violations\": {violations},\n"
    ));
    json.push_str(&format!(
        "  \"steps\": {{\"min\": {min_steps}, \"mean\": {}, \"max\": {max_steps}}},\n",
        total_steps / total_walks
    ));
    json.push_str("  \"formats\": [\n");
    for (i, (fmt, t)) in formats.iter().zip(&tallies).enumerate() {
        outln!(
            "{:>16}  {:>6}  {:>11}  {:>9}",
            fmt.name(),
            t.walks,
            t.steps / t.walks.max(1),
            t.max_steps
        );
        json.push_str(&format!(
            "    {{\"directory\": \"{}\", \"walks\": {}, \"mean_steps\": {}, \
             \"max_steps\": {}}}{}\n",
            fmt.name(),
            t.walks,
            t.steps / t.walks.max(1),
            t.max_steps,
            if i + 1 == formats.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write("BENCH_chaos.json", &json) {
        eprintln!("error: cannot write BENCH_chaos.json: {e}");
        return ExitCode::FAILURE;
    }
    outln!("\nwrote BENCH_chaos.json");
    if violations != 0 {
        outln!("chaos soak: {violations} of {total_walks} walks FALSIFIED an oracle");
        return ExitCode::FAILURE;
    }
    outln!("chaos soak: all {total_walks} walks green (containment held)");
    ExitCode::SUCCESS
}
