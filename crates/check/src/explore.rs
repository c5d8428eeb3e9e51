//! Schedule stepping, seeded random walks, deterministic replay, and
//! counterexample shrinking. The bounded-exhaustive search over the same
//! steps is [`explore_reduced`](crate::reduce::explore_reduced).
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
use cenju4_des::{SimTime, SplitMix64};
use cenju4_protocol::{Addr, Engine, Notification, PendingEvent};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
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
    /// Total schedules to try: the leaves an exhaustive search may
    /// reach, counted across all of its jobs.
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
    /// The per-schedule step cap it was found under: a `progress`
    /// violation only reproduces under the same cap.
    pub max_steps: usize,
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
        if self.max_steps != ExploreLimits::default().max_steps {
            write!(f, " --max-steps {}", self.max_steps)?;
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
    /// exhausted (exhaustive search) or the walk count completed (random
    /// walks).
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

/// An engine position under the controlled scheduler: the engine, its
/// oracles, and its ready set. [`run_one`] drives one from the initial
/// state; the reduced explorer copies them into recycled positions to
/// backtrack.
pub(crate) struct Stepper {
    cfg: CheckConfig,
    eng: Engine,
    oracle: OracleState,
    /// The choice indices of the ready events (see
    /// [`Engine::ready_choices`]), refreshed after every fire; a ready
    /// position indexes this slice.
    ready: Vec<usize>,
    /// The last step's notifications: one buffer, cleared and refilled
    /// by every step.
    notes: Vec<Notification>,
    /// Events fired since the initial state.
    steps: usize,
}

impl Stepper {
    pub(crate) fn new(cfg: &CheckConfig) -> Self {
        let eng = cfg.engine();
        let mut ready = Vec::new();
        eng.ready_choices(&mut ready);
        Stepper {
            cfg: *cfg,
            eng,
            oracle: OracleState::new(cfg),
            ready,
            notes: Vec::new(),
            steps: 0,
        }
    }

    /// A copy of this position (see [`Engine::fork`]).
    pub(crate) fn fork(&self) -> Self {
        Stepper {
            cfg: self.cfg,
            eng: self
                .eng
                .fork()
                .expect("checker engines carry forkable observers"),
            oracle: self.oracle.clone(),
            ready: self.ready.clone(),
            notes: Vec::new(),
            steps: self.steps,
        }
    }

    /// Overwrites `dst`, a position of any scenario, with a copy of this
    /// one (see [`Engine::fork_into`]), reusing its buffers.
    pub(crate) fn fork_into(&self, dst: &mut Stepper) {
        let Stepper {
            cfg,
            eng,
            oracle,
            ready,
            notes,
            steps,
        } = dst;
        *cfg = self.cfg;
        let forked = self.eng.fork_into(eng);
        assert!(forked, "checker engines carry forkable observers");
        oracle.clone_from(&self.oracle);
        ready.clone_from(&self.ready);
        notes.clear();
        *steps = self.steps;
    }

    /// The choice indices of the ready events; empty exactly when the
    /// machine has quiesced.
    pub(crate) fn ready(&self) -> &[usize] {
        &self.ready
    }

    /// Writes the ready events' snapshots into `out` (cleared first), in
    /// ready-position order: the content digests and footprints sleep
    /// sets and lasso unrolling need (see [`Engine::ready_events_into`]).
    pub(crate) fn ready_events_into(&self, out: &mut Vec<PendingEvent>) {
        self.eng.ready_events_into(out);
    }

    pub(crate) fn now(&self) -> SimTime {
        self.eng.now()
    }

    /// The state fingerprint over `blocks` (the scenario's
    /// [`CheckConfig::block_addrs`]).
    pub(crate) fn fingerprint(&self, blocks: &[Addr]) -> u64 {
        self.eng.state_fingerprint(blocks)
    }

    /// The per-block protocol trace at this position.
    pub(crate) fn trace(&self) -> String {
        let mut out = String::new();
        for addr in self.cfg.block_addrs() {
            let dump = self.eng.trace().dump_block(addr);
            if !dump.is_empty() {
                out.push_str(&format!("block {addr}:\n"));
                out.push_str(&dump);
            }
        }
        out
    }

    /// Fires the ready event at ready-position `pick` (clamped to the
    /// last ready event), running the step oracles, and refreshes the
    /// ready set; returns the violation and its trace, if any. A protocol
    /// panic unwinds: run it under [`guarded`].
    fn step(&mut self, pick: usize) -> Option<(Violation, String)> {
        let idx = self.ready[pick.min(self.ready.len() - 1)];
        self.notes.clear();
        let fired = self.eng.run_pending_into(idx, &mut self.notes);
        assert!(fired, "ready event vanished");
        self.steps += 1;
        let v = self
            .oracle
            .note(&self.notes, &self.eng)
            .or_else(|| self.oracle.check_step(&self.eng));
        match v {
            Some(v) => Some((v, self.trace())),
            None => {
                self.eng.ready_choices(&mut self.ready);
                None
            }
        }
    }

    /// [`Stepper::step`] under [`guarded`]. After an `Err` the position
    /// may be poisoned — restore or replay before reuse.
    pub(crate) fn fire(&mut self, pick: usize) -> Result<(), (Violation, String)> {
        guarded(|| self.step(pick)).map_or(Ok(()), Err)
    }

    /// Fires the ready event with the given content digest (used when
    /// unrolling a livelock lasso: ready *indices* shift between laps
    /// but the repeating events keep their content). Returns the ready
    /// position fired.
    pub(crate) fn fire_by_content(&mut self, content: u64) -> Option<usize> {
        let mut ready = Vec::new();
        self.ready_events_into(&mut ready);
        let pick = ready.iter().position(|e| e.content == content)?;
        self.fire(pick).ok()?;
        Some(pick)
    }

    /// Rebuilds the position a known-green pick prefix reaches from the
    /// initial state.
    pub(crate) fn replay_green(cfg: &CheckConfig, picks: &[usize]) -> Self {
        let mut st = Stepper::new(cfg);
        for &p in picks {
            st.fire(p)
                .expect("a previously green prefix replayed with a violation");
        }
        st
    }

    /// The quiescence oracles, with the trace on a violation.
    pub(crate) fn check_quiescent(&self) -> Option<(Violation, String)> {
        self.oracle
            .check_quiescent(&self.eng, self.cfg.issued_ops())
            .map(|v| (v, self.trace()))
    }
}

/// Test hook, not API: builds two positions of `cfg`, both after the
/// known-green `picks`, and returns a closure that copies the first into
/// the second with `Stepper::fork_into` (the allocation pins measure
/// that copy).
#[doc(hidden)]
pub fn fork_into_probe(cfg: &CheckConfig, picks: &[usize]) -> impl FnMut() {
    let src = Stepper::replay_green(cfg, picks);
    let mut dst = Stepper::replay_green(cfg, picks);
    move || src.fork_into(&mut dst)
}

thread_local! {
    /// Whether this thread is inside [`guarded`], whose panics are
    /// reported as violations rather than on stderr.
    static GUARDED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, converting a protocol panic into a `panic` violation (with
/// no trace: the engine is mid-dispatch), so mutants that trip internal
/// assertions still yield counterexamples instead of aborting the search.
/// Such a panic prints nothing: on first use this installs a panic hook
/// that is silent inside `guarded` and defers to the previous hook
/// everywhere else.
pub(crate) fn guarded(
    f: impl FnOnce() -> Option<(Violation, String)>,
) -> Option<(Violation, String)> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !GUARDED.try_with(Cell::get).unwrap_or(false) {
                previous(info);
            }
        }));
    });
    let outer = GUARDED.replace(true);
    let result = catch_unwind(AssertUnwindSafe(f));
    GUARDED.set(outer);
    result.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic payload");
        Some((
            Violation {
                oracle: "panic",
                detail: format!("protocol panicked: {msg}"),
            },
            String::new(),
        ))
    })
}

/// The `progress` violation of a schedule still running at the step cap.
pub(crate) fn starved(max_steps: usize) -> Violation {
    Violation {
        oracle: "progress",
        detail: format!(
            "no quiescence after {max_steps} steps — the schedule starves \
             some transaction"
        ),
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
    let mut st = Stepper::new(cfg);
    let mut choices: Vec<Choice> = Vec::new();
    let failure = guarded(|| loop {
        let arity = st.ready().len();
        if arity == 0 {
            return st.check_quiescent();
        }
        if st.steps >= max_steps {
            return Some((starved(max_steps), st.trace()));
        }
        let picked = pick(arity).min(arity - 1);
        choices.push(Choice { arity, picked });
        if let Some(failure) = st.step(picked) {
            return Some(failure);
        }
    });
    let (violation, trace) = failure.unzip();
    RunOutcome {
        steps: st.steps,
        choices,
        violation,
        trace: trace.unwrap_or_default(),
    }
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
        let out = walk(cfg, seed, w, limits);
        if let Some(v) = out.violation {
            let picked = out.choices.iter().map(|c| c.picked).collect();
            return falsify(cfg, picked, v, out.trace, w + 1, limits);
        }
    }
    Exploration::AllGreen { schedules: walks }
}

/// Drives walk `w` of the stream `seed` selects: each walk draws its
/// picks from its own generator, so walk `w` is the same schedule in a
/// sequential or a parallel campaign.
pub(crate) fn walk(cfg: &CheckConfig, seed: u64, w: u64, limits: &ExploreLimits) -> RunOutcome {
    let mut rng = SplitMix64::new(seed.wrapping_add(w).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    run_one(
        cfg,
        |arity| rng.next_below(arity as u64) as usize,
        limits.max_steps,
    )
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
        max_steps: limits.max_steps,
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
