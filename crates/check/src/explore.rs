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
/// state; campaigns (see [`Runner`]) and the reduced explorer copy them
/// into recycled positions, to start each run and to backtrack.
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

    /// Fires a known-green pick sequence from this position.
    pub(crate) fn fire_green(&mut self, picks: &[usize]) {
        for &p in picks {
            self.fire(p)
                .expect("a previously green prefix replayed with a violation");
        }
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
    let [src, mut dst] = [(); 2].map(|()| {
        let mut st = Stepper::new(cfg);
        st.fire_green(picks);
        st
    });
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

/// The step loop every schedule runs: drives `st` until it quiesces,
/// fails, or reaches `max_steps` steps. `pick(arity)` chooses among the
/// ready events at each step (clamped to the ready count), and each
/// decision is appended to `choices`. Returns the first violation and its
/// trace, if any. Panics inside the protocol are caught and reported as
/// violations (see [`guarded`]); `st` may then be poisoned.
fn drive(
    st: &mut Stepper,
    mut pick: impl FnMut(usize) -> usize,
    max_steps: usize,
    choices: &mut Vec<Choice>,
) -> Option<(Violation, String)> {
    guarded(|| loop {
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
    })
}

/// The outcome [`drive`] left `st` in.
fn outcome(st: &Stepper, choices: Vec<Choice>, failure: Option<(Violation, String)>) -> RunOutcome {
    let (violation, trace) = failure.unzip();
    RunOutcome {
        steps: st.steps,
        choices,
        violation,
        trace: trace.unwrap_or_default(),
    }
}

/// Picks the choices of `prefix`, then zeros.
fn prefix_picks(prefix: &[usize]) -> impl FnMut(usize) -> usize + '_ {
    let mut i = 0usize;
    move |_arity| {
        let c = prefix.get(i).copied().unwrap_or(0);
        i += 1;
        c
    }
}

/// Picks uniformly among the ready events by walk `w`'s own generator,
/// so walk `w` is the same schedule in a sequential or a parallel
/// campaign.
fn walk_picks(seed: u64, w: u64) -> impl FnMut(usize) -> usize {
    let mut rng = SplitMix64::new(seed.wrapping_add(w).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    move |arity| rng.next_below(arity as u64) as usize
}

/// Drives one schedule from a freshly built scenario, returning the
/// position it ended on.
fn run_fresh(
    cfg: &CheckConfig,
    pick: impl FnMut(usize) -> usize,
    max_steps: usize,
) -> (RunOutcome, Stepper) {
    let mut st = Stepper::new(cfg);
    let mut choices = Vec::new();
    let failure = drive(&mut st, pick, max_steps, &mut choices);
    (outcome(&st, choices, failure), st)
}

/// Drives one schedule: `pick(arity)` chooses among the ready events at
/// each step (clamped to the ready count). Panics inside the protocol are
/// caught and reported as violations, so mutants that trip internal
/// assertions still yield counterexamples instead of aborting the search.
pub fn run_one(
    cfg: &CheckConfig,
    pick: impl FnMut(usize) -> usize,
    max_steps: usize,
) -> RunOutcome {
    run_fresh(cfg, pick, max_steps).0
}

/// Replays the schedule given by `prefix` (implicit zeros afterwards).
/// Fully deterministic: two replays of the same config and prefix produce
/// identical outcomes.
pub fn replay(cfg: &CheckConfig, prefix: &[usize], max_steps: usize) -> RunOutcome {
    run_one(cfg, prefix_picks(prefix), max_steps)
}

/// Where a campaign's schedules start: the scenario's initial position,
/// built once, and one recycled position that every run starts from a
/// copy of ([`Stepper::fork_into`]). A run rebuilds no machine, and its
/// buffers (the position's ready set and notifications, the decision
/// record) carry over from run to run. The copy overwrites every field,
/// so a run after a caught panic starts from a clean position.
pub(crate) struct Runner {
    root: Stepper,
    pos: Stepper,
    choices: Vec<Choice>,
}

impl Runner {
    pub(crate) fn new(cfg: &CheckConfig) -> Self {
        let root = Stepper::new(cfg);
        let pos = root.fork();
        Runner {
            root,
            pos,
            choices: Vec::new(),
        }
    }

    /// [`drive`] from the initial state; the decisions are left in
    /// `self.choices`.
    fn run(
        &mut self,
        pick: impl FnMut(usize) -> usize,
        max_steps: usize,
    ) -> Option<(Violation, String)> {
        self.root.fork_into(&mut self.pos);
        self.choices.clear();
        drive(&mut self.pos, pick, max_steps, &mut self.choices)
    }

    /// Drives walk `w` of the stream `seed` selects; returns its
    /// violation, if any.
    pub(crate) fn walk(
        &mut self,
        seed: u64,
        w: u64,
        max_steps: usize,
    ) -> Option<(Violation, String)> {
        self.run(walk_picks(seed, w), max_steps)
    }

    /// [`replay`] from the recycled position.
    pub(crate) fn replay(&mut self, prefix: &[usize], max_steps: usize) -> RunOutcome {
        let failure = self.run(prefix_picks(prefix), max_steps);
        self.outcome(failure)
    }

    /// The outcome of the last run, which ended in `failure`.
    fn outcome(&self, failure: Option<(Violation, String)>) -> RunOutcome {
        outcome(&self.pos, self.choices.clone(), failure)
    }

    /// The picks of the last run.
    pub(crate) fn picks(&self) -> Vec<usize> {
        self.choices.iter().map(|c| c.picked).collect()
    }

    /// The position a known-green pick prefix reaches from the initial
    /// state.
    pub(crate) fn replay_green(&mut self, picks: &[usize]) -> &mut Stepper {
        self.root.fork_into(&mut self.pos);
        self.pos.fire_green(picks);
        &mut self.pos
    }
}

/// Test hook, not API: drives the walks of one seeded campaign both ways
/// — from a freshly built scenario, as [`run_one`] does, and from a
/// campaign's recycled position, as [`random_walks`] does — and hands
/// out the engine each ended on.
#[doc(hidden)]
pub struct WalkProbe {
    runner: Runner,
    seed: u64,
    max_steps: usize,
}

impl WalkProbe {
    pub fn new(cfg: &CheckConfig, seed: u64, max_steps: usize) -> Self {
        WalkProbe {
            runner: Runner::new(cfg),
            seed,
            max_steps,
        }
    }

    /// Walk `w` on a freshly built engine.
    pub fn fresh(&self, w: u64) -> (RunOutcome, Engine) {
        let cfg = self.runner.root.cfg;
        let (out, st) = run_fresh(&cfg, walk_picks(self.seed, w), self.max_steps);
        (out, st.eng)
    }

    /// Walk `w` from the campaign's recycled position.
    pub fn recycled(&mut self, w: u64) -> (RunOutcome, &Engine) {
        let failure = self.runner.walk(self.seed, w, self.max_steps);
        (self.runner.outcome(failure), &self.runner.pos.eng)
    }
}

/// Seeded random walks: `walks` independent schedules, each driven by its
/// own deterministic stream derived from `seed`, all from one recycled
/// position (see [`Runner`]). Any failure is shrunk and reported with
/// enough information to replay it exactly.
pub fn random_walks(
    cfg: &CheckConfig,
    seed: u64,
    walks: u64,
    limits: &ExploreLimits,
) -> Exploration {
    let start = Instant::now();
    let mut runner = Runner::new(cfg);
    for w in 0..walks {
        if start.elapsed().as_secs() >= limits.max_seconds {
            return Exploration::Budget { schedules: w };
        }
        if let Some((v, trace)) = runner.walk(seed, w, limits.max_steps) {
            let picked = runner.picks();
            return falsify(&mut runner, picked, v, trace, w + 1, limits);
        }
    }
    Exploration::AllGreen { schedules: walks }
}

/// Shrinks a violation found after `schedules` schedules, replaying on
/// `runner`, and packages it as a counterexample.
pub(crate) fn falsify(
    runner: &mut Runner,
    picked: Vec<usize>,
    violation: Violation,
    trace: String,
    schedules: u64,
    limits: &ExploreLimits,
) -> Exploration {
    let (schedule, out) = shrink_on(runner, picked, limits.max_steps);
    // Shrinking preserves *some* violation but may change which oracle
    // fires first; prefer the shrunk run's report since that is what the
    // replay command will show.
    let (violation, trace) = match out.violation {
        Some(v) => (v, out.trace),
        None => (violation, trace),
    };
    Exploration::Falsified(Box::new(Counterexample {
        config: runner.root.cfg,
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
    schedule: Vec<usize>,
    max_steps: usize,
) -> (Vec<usize>, RunOutcome) {
    shrink_on(&mut Runner::new(cfg), schedule, max_steps)
}

/// [`shrink`], replaying every candidate on `runner`.
fn shrink_on(
    runner: &mut Runner,
    mut schedule: Vec<usize>,
    max_steps: usize,
) -> (Vec<usize>, RunOutcome) {
    let strip = |s: &mut Vec<usize>| {
        while s.last() == Some(&0) {
            s.pop();
        }
    };
    strip(&mut schedule);
    let mut best = runner.replay(&schedule, max_steps);
    debug_assert!(!best.ok(), "shrink called on a passing schedule");
    let mut candidate = Vec::new();
    let mut progress = true;
    while progress {
        progress = false;
        let mut i = schedule.len();
        while i > 0 {
            i -= 1;
            if schedule[i] == 0 {
                continue;
            }
            candidate.clone_from(&schedule);
            candidate[i] = 0;
            strip(&mut candidate);
            if let Some(failure) = runner.run(prefix_picks(&candidate), max_steps) {
                best = runner.outcome(Some(failure));
                std::mem::swap(&mut schedule, &mut candidate);
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
