//! Schedule exploration: bounded-exhaustive DFS, seeded random walks,
//! deterministic replay, and counterexample shrinking.
//!
//! A *schedule* is the sequence of choices the checker makes: at each
//! step it looks at the engine's ready events (those whose in-order
//! delivery channels permit firing) and picks one by index into the ready
//! list. Choice 0 is always the event the uncontrolled simulation would
//! fire next, so the all-zero schedule reproduces the production run.
//! Replays are fully deterministic: a config plus a choice prefix (plus
//! implicit zeros past the prefix) pins down the entire execution.

use crate::oracles::{OracleState, Violation};
use crate::scenario::CheckConfig;
use cenju4_des::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One schedule decision: how many events were ready, which was fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Choice {
    /// Ready events at this step.
    pub arity: usize,
    /// Index (into the ready list) that was fired.
    pub picked: usize,
}

/// The outcome of driving one schedule to quiescence (or failure).
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Events fired.
    pub steps: usize,
    /// The full decision record, one entry per step.
    pub choices: Vec<Choice>,
    /// The first falsified invariant, if any.
    pub violation: Option<Violation>,
    /// Per-block protocol trace at the violation point (empty on green
    /// runs); rendered by the engine's `Trace` observer.
    pub trace: String,
}

impl RunOutcome {
    /// Whether every oracle stayed green.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }
}

/// Exploration budgets. Every bound is a hard cap; hitting one ends the
/// exploration with [`Exploration::Budget`] rather than an error.
#[derive(Clone, Copy, Debug)]
pub struct ExploreLimits {
    /// Per-schedule step cap; exceeding it is itself reported as a
    /// progress violation (a correct finite workload must quiesce).
    pub max_steps: usize,
    /// Total schedules to try.
    pub max_schedules: u64,
    /// Wall-clock cap in seconds.
    pub max_seconds: u64,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_steps: 10_000,
            max_schedules: 1_000_000,
            max_seconds: 300,
        }
    }
}

/// A shrunk, deterministically replayable failing schedule.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The scenario it fails under.
    pub config: CheckConfig,
    /// The minimized choice prefix (zeros past the end are implicit).
    pub schedule: Vec<usize>,
    /// The invariant it falsifies.
    pub violation: Violation,
    /// The per-block protocol trace at the violation point.
    pub trace: String,
    /// Schedules explored before this one was found.
    pub schedules_explored: u64,
}

impl core::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "counterexample after {} schedules",
            self.schedules_explored
        )?;
        writeln!(f, "  scenario: {}", self.config)?;
        writeln!(f, "  violation: {}", self.violation)?;
        let sched: Vec<String> = self.schedule.iter().map(|c| c.to_string()).collect();
        writeln!(f, "  schedule: {}", sched.join(","))?;
        write!(
            f,
            "  replay: cenju4-check replay --nodes {} --blocks {} --ops {} \
             --protocol {} --fault {}",
            self.config.nodes,
            self.config.blocks,
            self.config.ops_per_node,
            match (self.config.coherence, self.config.kind) {
                (cenju4_protocol::ProtocolId::Dragon, _) => "dragon",
                (_, cenju4_protocol::ProtocolKind::Queuing) => "queuing",
                (_, cenju4_protocol::ProtocolKind::Nack) => "nack",
            },
            self.config.fault,
        )?;
        if self.config.directory != cenju4_directory::DirectoryId::default() {
            write!(f, " --directory {}", self.config.directory)?;
        }
        if self.config.recovery {
            write!(f, " --recovery on")?;
        }
        if self.config.drop_permille > 0 {
            write!(
                f,
                " --fault-seed {} --drop-rate {}",
                self.config.fault_seed, self.config.drop_permille
            )?;
        }
        writeln!(
            f,
            " --schedule {}",
            if sched.is_empty() {
                "-".to_string()
            } else {
                sched.join(",")
            }
        )?;
        if !self.trace.is_empty() {
            writeln!(f, "  trace:")?;
            for line in self.trace.lines() {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

/// How an exploration ended.
#[derive(Clone, Debug)]
pub enum Exploration {
    /// Every explored schedule kept all oracles green, and the space was
    /// exhausted (exhaustive mode) or the walk count completed (random
    /// mode).
    AllGreen {
        /// Schedules driven to quiescence.
        schedules: u64,
    },
    /// An invariant was falsified; the schedule has been shrunk.
    Falsified(Box<Counterexample>),
    /// A budget cap (schedules or wall clock) ended exploration early
    /// with all oracles green so far.
    Budget {
        /// Schedules driven before the cap hit.
        schedules: u64,
    },
}

impl Exploration {
    /// The counterexample, if one was found.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Exploration::Falsified(cx) => Some(cx),
            _ => None,
        }
    }
}

/// Drives one schedule: `pick(arity)` chooses among the ready events at
/// each step (clamped to the ready count). Panics inside the protocol are
/// caught and reported as violations, so mutants that trip internal
/// assertions still yield counterexamples instead of aborting the search.
pub fn run_one(
    cfg: &CheckConfig,
    mut pick: impl FnMut(usize) -> usize,
    max_steps: usize,
) -> RunOutcome {
    let mut choices: Vec<Choice> = Vec::new();
    let mut steps = 0usize;
    let issued = cfg.issued_ops();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut eng = cfg.engine();
        let mut oracle = OracleState::new(cfg);
        let mut ready = Vec::new();
        loop {
            eng.ready_choices(&mut ready);
            if ready.is_empty() {
                let violation = oracle.check_quiescent(&eng, issued);
                let trace = violation
                    .as_ref()
                    .map(|_| render_trace(&eng, cfg))
                    .unwrap_or_default();
                return (violation, trace);
            }
            if steps >= max_steps {
                return (
                    Some(Violation {
                        oracle: "progress",
                        detail: format!(
                            "no quiescence after {max_steps} steps — the \
                             schedule starves some transaction"
                        ),
                    }),
                    render_trace(&eng, cfg),
                );
            }
            let arity = ready.len();
            let picked = pick(arity).min(arity - 1);
            choices.push(Choice { arity, picked });
            let notes = eng
                .run_pending(ready[picked])
                .expect("ready event vanished");
            steps += 1;
            if let Some(v) = oracle.note(&notes, &eng) {
                return (Some(v), render_trace(&eng, cfg));
            }
            if let Some(v) = oracle.check_step(&eng) {
                return (Some(v), render_trace(&eng, cfg));
            }
        }
    }));
    match result {
        Ok((violation, trace)) => RunOutcome {
            steps,
            choices,
            violation,
            trace,
        },
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            RunOutcome {
                steps,
                choices,
                violation: Some(Violation {
                    oracle: "panic",
                    detail: format!("protocol panicked: {msg}"),
                }),
                trace: String::new(),
            }
        }
    }
}

pub(crate) fn render_trace(eng: &cenju4_protocol::Engine, cfg: &CheckConfig) -> String {
    let mut out = String::new();
    for addr in cfg.block_addrs() {
        let dump = eng.trace().dump_block(addr);
        if !dump.is_empty() {
            out.push_str(&format!("block {addr}:\n"));
            out.push_str(&dump);
        }
    }
    out
}

/// Replays the schedule given by `prefix` (implicit zeros afterwards).
/// Fully deterministic: two replays of the same config and prefix produce
/// identical outcomes.
pub fn replay(cfg: &CheckConfig, prefix: &[usize], max_steps: usize) -> RunOutcome {
    let mut i = 0usize;
    run_one(
        cfg,
        |_arity| {
            let c = prefix.get(i).copied().unwrap_or(0);
            i += 1;
            c
        },
        max_steps,
    )
}

/// Bounded-exhaustive DFS over all schedules of `cfg`, by replay with
/// lexicographic prefix increments. Sound for workloads whose event tree
/// is finite (the queuing protocol's always is; the nack baseline can
/// retry unboundedly — its runs are cut off by `max_steps` and reported
/// as progress violations).
pub fn exhaustive(cfg: &CheckConfig, limits: &ExploreLimits) -> Exploration {
    let start = Instant::now();
    let mut prefix: Vec<usize> = Vec::new();
    let mut schedules = 0u64;
    loop {
        let out = replay(cfg, &prefix, limits.max_steps);
        schedules += 1;
        if let Some(v) = out.violation {
            let picked = out.choices.iter().map(|c| c.picked).collect();
            return falsify(cfg, picked, v, out.trace, schedules, limits);
        }
        // Lexicographic increment: bump the deepest incrementable choice,
        // truncating everything after it (those positions restart at 0).
        let mut i = out.choices.len();
        let next = loop {
            if i == 0 {
                return Exploration::AllGreen { schedules };
            }
            i -= 1;
            if out.choices[i].picked + 1 < out.choices[i].arity {
                let mut p: Vec<usize> = out.choices[..i].iter().map(|c| c.picked).collect();
                p.push(out.choices[i].picked + 1);
                break p;
            }
        };
        prefix = next;
        if schedules >= limits.max_schedules || start.elapsed().as_secs() >= limits.max_seconds {
            return Exploration::Budget { schedules };
        }
    }
}

/// Seeded random walks: `walks` independent schedules, each driven by its
/// own deterministic stream derived from `seed`. Any failure is shrunk
/// and reported with enough information to replay it exactly.
pub fn random_walks(
    cfg: &CheckConfig,
    seed: u64,
    walks: u64,
    limits: &ExploreLimits,
) -> Exploration {
    let start = Instant::now();
    for w in 0..walks {
        if start.elapsed().as_secs() >= limits.max_seconds {
            return Exploration::Budget { schedules: w };
        }
        let mut rng = SplitMix64::new(seed.wrapping_add(w).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let out = run_one(
            cfg,
            |arity| rng.next_below(arity as u64) as usize,
            limits.max_steps,
        );
        if let Some(v) = out.violation {
            let picked = out.choices.iter().map(|c| c.picked).collect();
            return falsify(cfg, picked, v, out.trace, w + 1, limits);
        }
    }
    Exploration::AllGreen { schedules: walks }
}

pub(crate) fn falsify(
    cfg: &CheckConfig,
    picked: Vec<usize>,
    violation: Violation,
    trace: String,
    schedules: u64,
    limits: &ExploreLimits,
) -> Exploration {
    let (schedule, out) = shrink(cfg, picked, limits.max_steps);
    // Shrinking preserves *some* violation but may change which oracle
    // fires first; prefer the shrunk run's report since that is what the
    // replay command will show.
    let (violation, trace) = match out.violation {
        Some(v) => (v, out.trace),
        None => (violation, trace),
    };
    Exploration::Falsified(Box::new(Counterexample {
        config: *cfg,
        schedule,
        violation,
        trace,
        schedules_explored: schedules,
    }))
}

/// Delta-debugging-style shrink of a failing schedule: truncate trailing
/// zeros (implied by replay), then greedily zero out each nonzero choice
/// while the replay still fails. Returns the minimized schedule and its
/// replay outcome (guaranteed failing).
pub fn shrink(
    cfg: &CheckConfig,
    mut schedule: Vec<usize>,
    max_steps: usize,
) -> (Vec<usize>, RunOutcome) {
    let strip = |s: &mut Vec<usize>| {
        while s.last() == Some(&0) {
            s.pop();
        }
    };
    strip(&mut schedule);
    let mut best = replay(cfg, &schedule, max_steps);
    debug_assert!(!best.ok(), "shrink called on a passing schedule");
    let mut progress = true;
    while progress {
        progress = false;
        let mut i = schedule.len();
        while i > 0 {
            i -= 1;
            if schedule[i] == 0 {
                continue;
            }
            let mut candidate = schedule.clone();
            candidate[i] = 0;
            strip(&mut candidate);
            let out = replay(cfg, &candidate, max_steps);
            if !out.ok() {
                schedule = candidate;
                best = out;
                progress = true;
                // Accepting a stripped candidate can shorten the schedule
                // past positions this pass has not visited yet; re-clamp
                // so the scan never indexes out of bounds.
                i = i.min(schedule.len());
            }
        }
    }
    (schedule, best)
}
