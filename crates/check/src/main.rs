//! `cenju4-check`: command-line schedule exploration for the Cenju-4
//! coherence protocol.
//!
//! Subcommands:
//!
//! * `reduced` — bounded-exhaustive DFS over every schedule of a small
//!   scenario, with dynamic partial-order reduction and state
//!   deduplication where they are sound (`--dpor off` enumerates every
//!   schedule) and deterministic parallel workers where they are not;
//!   exits 1 if any oracle is falsified.
//! * `random` — seeded random walks (fanned across threads when
//!   `--threads` is not 1); exits 1 on a falsified oracle.
//! * `replay` — replays one printed schedule deterministically.
//! * `mutants` — arms each `FaultInjection` mutant and demands a
//!   counterexample from each (the reduced search at 2 nodes, seeded
//!   parallel walks above); exits 1 if a mutant *survives* (the oracles
//!   failed to distinguish a broken protocol).
//!
//! Common flags: `--nodes N --blocks B --ops K`
//! `--protocol mesi|dragon|queuing|nack` (a coherence protocol or a home
//! discipline; repeat the flag to set both), `--directory <format>` (sharer-set
//! format; run with an unknown value to list them), `--fault <name>`
//! (run `cenju4-check` with an unknown fault to list them),
//! `--recovery on|off --fault-seed S --drop-rate P` (permille)
//! `--max-steps S --max-schedules M --max-seconds T`
//! `--threads N` (0 = all cores, honoring `CENJU4_CHECK_THREADS`);
//! `reduced` adds `--dpor on|off`, `random` adds `--seed`/`--walks`
//! (at least one walk), `replay` adds `--schedule 1,0,2` (`-` for the
//! empty schedule).
//!
//! A config whose fault mutant cannot fire (e.g. `--fault node-down
//! --nodes 2`) is a usage error, not a hollow green run; so is a machine
//! the config builder rejects (e.g. `--nodes 2000`, or `--protocol
//! dragon --protocol nack`), not a fake counterexample.

use cenju4_check::{
    default_check_threads, explore_reduced, explore_reduced_with, outln, random_walks_parallel,
    traced_replay, write_out, CheckConfig, Exploration, ExploreLimits,
};
use cenju4_directory::DirectoryId;
use cenju4_protocol::{FaultInjection, ProtocolId, ProtocolKind};
use std::process::ExitCode;

struct Args {
    cfg: CheckConfig,
    limits: ExploreLimits,
    seed: u64,
    walks: u64,
    schedule: Vec<usize>,
    /// Worker threads; 0 resolves to `default_check_threads()`.
    threads: usize,
    /// Whether `reduced` arms partial-order reduction + dedup.
    dpor: bool,
}

/// Every known fault name, straight from [`FaultInjection::ALL`] — the
/// one source of truth for `--fault` parsing, `--help` text, and the
/// `mutants` subcommand.
fn fault_names() -> String {
    FaultInjection::ALL
        .iter()
        .map(|f| f.name())
        .collect::<Vec<_>>()
        .join("|")
}

/// Every known `--protocol` value: the coherence protocols from
/// [`ProtocolId::ALL`] plus the legacy home-variant names (which keep
/// existing invocations working unchanged).
fn protocol_names() -> String {
    let mut names: Vec<&str> = ProtocolId::ALL.iter().map(|p| p.name()).collect();
    names.extend(["queuing", "nack"]);
    names.join("|")
}

/// Every known directory format name, straight from [`DirectoryId::ALL`].
fn directory_names() -> String {
    DirectoryId::ALL
        .iter()
        .map(|d| d.name())
        .collect::<Vec<_>>()
        .join("|")
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: cenju4-check <reduced|random|replay|mutants> \
         [--nodes N] [--blocks B] [--ops K] [--protocol {}] \
         [--directory {}] \
         [--fault {}] [--recovery on|off] [--fault-seed S] \
         [--drop-rate PERMILLE] [--max-steps S] \
         [--max-schedules M] [--max-seconds T] [--seed S] [--walks W] \
         [--schedule 1,0,2|-] [--threads N] [--dpor on|off]",
        protocol_names(),
        directory_names(),
        fault_names()
    );
    ExitCode::from(2)
}

fn parse(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let _bin = argv.next();
    let cmd = argv.next().ok_or("missing subcommand")?;
    let mut args = Args {
        cfg: CheckConfig::default(),
        limits: ExploreLimits::default(),
        seed: 1,
        walks: 100,
        schedule: Vec::new(),
        threads: 0,
        dpor: true,
    };
    while let Some(flag) = argv.next() {
        let mut val = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--nodes" => args.cfg.nodes = val()?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--blocks" => args.cfg.blocks = val()?.parse().map_err(|e| format!("--blocks: {e}"))?,
            "--ops" => args.cfg.ops_per_node = val()?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--protocol" => match val()?.as_str() {
                // Home-discipline names set the config's `kind`;
                // coherence-protocol names set its `protocol`. Each sets
                // one field, so a repeated flag can select both.
                "queuing" => args.cfg.kind = ProtocolKind::Queuing,
                "nack" => args.cfg.kind = ProtocolKind::Nack,
                other => match ProtocolId::parse(other) {
                    Some(id) => args.cfg.coherence = id,
                    None => {
                        return Err(format!(
                            "unknown protocol {other:?}; known protocols: {}",
                            protocol_names()
                        ))
                    }
                },
            },
            "--directory" => {
                let v = val()?;
                args.cfg.directory = DirectoryId::parse(&v).ok_or(format!(
                    "unknown directory format {v:?}; known formats: {}",
                    directory_names()
                ))?
            }
            "--fault" => {
                let v = val()?;
                args.cfg.fault = FaultInjection::parse(&v).ok_or(format!(
                    "unknown fault {v:?}; known faults: {}",
                    fault_names()
                ))?
            }
            "--recovery" => {
                args.cfg.recovery = match val()?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--recovery wants on|off, got {other:?}")),
                }
            }
            "--fault-seed" => {
                args.cfg.fault_seed = val()?.parse().map_err(|e| format!("--fault-seed: {e}"))?
            }
            "--drop-rate" => {
                let p: u16 = val()?.parse().map_err(|e| format!("--drop-rate: {e}"))?;
                if p > 1000 {
                    return Err(format!("--drop-rate is permille (0..=1000), got {p}"));
                }
                args.cfg.drop_permille = p
            }
            "--max-steps" => {
                args.limits.max_steps = val()?.parse().map_err(|e| format!("--max-steps: {e}"))?
            }
            "--max-schedules" => {
                args.limits.max_schedules = val()?
                    .parse()
                    .map_err(|e| format!("--max-schedules: {e}"))?
            }
            "--max-seconds" => {
                args.limits.max_seconds =
                    val()?.parse().map_err(|e| format!("--max-seconds: {e}"))?
            }
            "--threads" => args.threads = val()?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--dpor" => {
                args.dpor = match val()?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--dpor wants on|off, got {other:?}")),
                }
            }
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--walks" => {
                args.walks = val()?.parse().map_err(|e| format!("--walks: {e}"))?;
                // Zero walks would report a hollow "all green".
                if args.walks == 0 {
                    return Err("--walks must be at least 1".into());
                }
            }
            "--schedule" => {
                let v = val()?;
                if v != "-" {
                    args.schedule = v
                        .split(',')
                        .map(|c| c.parse().map_err(|e| format!("--schedule: {e}")))
                        .collect::<Result<_, _>>()?;
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((cmd, args))
}

fn report(what: &str, cfg: &CheckConfig, result: &Exploration) -> ExitCode {
    match result {
        Exploration::AllGreen { schedules } => {
            outln!("{what}: {cfg}: all oracles green over {schedules} schedules");
            ExitCode::SUCCESS
        }
        Exploration::Budget { schedules } => {
            outln!(
                "{what}: {cfg}: budget reached after {schedules} schedules, \
                 all green so far (inconclusive)"
            );
            ExitCode::SUCCESS
        }
        Exploration::Falsified(cx) => {
            outln!("{what}: {cfg}: FALSIFIED");
            write_out(&cx.to_string());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let (cmd, args) = match parse(std::env::args()) {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    // A machine the builder rejects would make every explorer report a
    // fake counterexample, and a fault that cannot fire a hollow green;
    // refuse both up front. `mutants` arms its own faults and bumps node
    // counts itself, so only its machine is checked.
    let checked = if cmd == "mutants" {
        CheckConfig {
            fault: FaultInjection::None,
            ..args.cfg
        }
    } else {
        args.cfg
    };
    if let Err(e) = checked.validate() {
        return usage(&e);
    }
    let threads = if args.threads == 0 {
        default_check_threads()
    } else {
        args.threads
    };
    match cmd.as_str() {
        "reduced" => {
            let out = explore_reduced_with(&args.cfg, &args.limits, threads, args.dpor);
            outln!(
                "reduced: {}: {} unique states, {} transitions, {} sleep-set \
                 skips, {} dedup hits over {} jobs x {} threads \
                 (reduction {})",
                args.cfg,
                out.unique_states,
                out.transitions,
                out.sleep_skipped,
                out.dedup_hits,
                out.jobs,
                threads,
                if out.reduced { "on" } else { "off" }
            );
            report("reduced", &args.cfg, &out.exploration)
        }
        "random" => {
            let r = random_walks_parallel(&args.cfg, args.seed, args.walks, &args.limits, threads);
            report(&format!("random (seed {})", args.seed), &args.cfg, &r)
        }
        "replay" => {
            let (out, trace) = traced_replay(&args.cfg, &args.schedule, args.limits.max_steps);
            match &out.violation {
                None => {
                    outln!(
                        "replay: {}: schedule {:?} quiesced green in {} steps",
                        args.cfg,
                        args.schedule,
                        out.steps
                    );
                    ExitCode::SUCCESS
                }
                Some(v) => {
                    outln!("replay: {}: violation at step {}", args.cfg, out.steps);
                    outln!("  {v}");
                    for line in trace.lines() {
                        outln!("    {line}");
                    }
                    ExitCode::FAILURE
                }
            }
        }
        "mutants" => {
            // Each mutant must be *killed*: the oracles must produce a
            // counterexample. A surviving mutant means the checker is
            // blind to that class of protocol bug. Recovery is forced off
            // — an armed recovery layer *tolerates* the fabric mutants,
            // which is precisely what the recovery tests verify.
            let mut all_killed = true;
            for fault in FaultInjection::ALL {
                if fault == FaultInjection::None {
                    continue;
                }
                // Some mutants cannot fire below a node count (delay-inval
                // needs a sharer remote from the home; the node mutants
                // kill node 1 and need a healthy remote pair left); bump
                // to the mutant's floor rather than run a hollow config.
                let nodes = args.cfg.nodes.max(fault.min_nodes() as u16);
                // quarantine-off is a mutant *of the recovery layer*: it
                // runs with recovery armed (the scenario builder clears
                // its quarantine switch) and must blow a retry budget.
                let recovery = fault.needs_recovery();
                let cfg = CheckConfig {
                    fault,
                    recovery,
                    nodes,
                    ..args.cfg
                };
                debug_assert!(cfg.validate().is_ok());
                // Exhaustive search is only tractable on the 2-node
                // scenario; larger ones use seeded (deterministic) walks.
                let result = if nodes <= 2 {
                    explore_reduced(&cfg, &args.limits, threads).exploration
                } else {
                    random_walks_parallel(
                        &cfg,
                        args.seed,
                        args.walks.max(200),
                        &args.limits,
                        threads,
                    )
                };
                match result {
                    Exploration::Falsified(cx) => {
                        outln!("mutant {fault}: killed");
                        write_out(&cx.to_string());
                    }
                    other => {
                        outln!("mutant {fault}: SURVIVED ({other:?})");
                        all_killed = false;
                    }
                }
            }
            if all_killed {
                outln!("mutants: all killed");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => usage(&format!("unknown subcommand {other:?}")),
    }
}
