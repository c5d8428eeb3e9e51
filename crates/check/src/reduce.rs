//! Reduced exploration: dynamic partial-order reduction, state
//! deduplication, livelock detection, and deterministic parallel search.
//!
//! The unreduced search (`reduce = false`) fires every interleaving of
//! every ready event — exponential in both nodes and operations. This
//! module prunes that tree three ways while preserving every violation
//! the full enumeration can find:
//!
//! * **Sleep sets over event footprints** (dynamic partial-order
//!   reduction). Two ready events *commute* when their
//!   [`Footprint`](cenju4_protocol::Footprint)s are disjoint — they fire
//!   at different nodes, touch different blocks (hence different
//!   directory entries and cache lines), belong to different in-network
//!   gathers, and both ride ordering channels — and their firing times
//!   are order-invariant under the scheduler's virtual-clock clamp.
//!   After a branch `t` is explored from a state, `t` is *slept* for the
//!   sibling branches: any path that would merely reorder `t` against an
//!   event it commutes with is skipped, because the reordering reaches a
//!   state the `t`-first path already covered.
//! * **State-fingerprint deduplication**. Each visited state is hashed
//!   by [`Engine::state_fingerprint`](cenju4_protocol::Engine::state_fingerprint)
//!   (caches, directories, memory, in-flight messages per channel —
//!   absolute times excluded). A revisit is pruned when some earlier
//!   visit slept a *subset* of what the current visit sleeps — i.e. the
//!   earlier visit explored at least every transition this one would.
//! * **Livelock (cycle) detection**. Deduplication alone would silently
//!   swallow starvation loops (a cycle never reaches quiescence, so the
//!   per-path step cap never fires). A revisit of a fingerprint that is
//!   still on the current DFS path is a schedule the machine can repeat
//!   forever; it is reported as a `progress` violation, and the replay
//!   command is synthesized by unrolling the cycle (matching events by
//!   content digest, since ready indices shift between laps) until the
//!   step cap makes the violation reproducible by plain replay.
//!
//! Reduction and deduplication arm only for configurations whose
//! transition system the fingerprint fully captures: the queuing
//! protocol with recovery off and a lossless fabric
//! ([`dpor_eligible`]). Everything else (nack retries, recovery timers,
//! fabric fault plans with global one-shot counters) still runs through
//! the same DFS and the same parallel harness, just unreduced.
//!
//! **Parallelism is deterministic.** A sequential breadth-first pass
//! expands the root into a fixed number of independent subtree jobs
//! (thread-count independent); workers then pull jobs the way `sweep`
//! pulls points. Every job runs to completion even after another job has
//! found a violation, so the explored-state counts and the reported
//! (lowest-job-index, DFS-first) counterexample are identical for any
//! thread count.
//!
//! **Reduction runs sequentially; parallelism covers the unreduced
//! space.** The two do not compose profitably: a subtree partition is
//! *exact* for the unreduced schedule tree (each leaf lives under
//! exactly one frontier prefix, so jobs share no work), but the reduced
//! search walks the *state graph*, which converges so heavily that
//! per-job dedup tables re-explore the shared downstream DAG from every
//! prefix — measured at 3 nodes x 2 blocks x 2 ops, 48 jobs visit 281 k
//! states where one table visits 13 k, a 20x duplication that erases
//! the parallel speedup. A shared table would undo that but makes
//! pruning depend on cross-thread timing, and with it the explored-state
//! counts. Since reduction itself shrinks the search by orders of
//! magnitude (9298 schedules to 4 at the pinned config), the reduced
//! walk stays single-threaded and deterministic, and threads go where
//! they pay: unreduced exploration here, and seeded random campaigns
//! ([`random_walks`](crate::explore::random_walks)).

use crate::explore::{falsified, falsify, starved, Exploration, ExploreLimits, Runner, Stepper};
use crate::oracles::Violation;
use crate::scenario::CheckConfig;
use cenju4_des::{FxHashMap, SimTime};
use cenju4_protocol::{PendingEvent, ProtocolKind};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of subtree jobs the frontier pass aims for. A constant (not a
/// function of the thread count) so explored-state counts are identical
/// for every `--threads` value; comfortably above any sane core count so
/// work still spreads.
const FRONTIER_JOBS: usize = 48;

/// The search loops read the wall clock once every this many
/// iterations (the first included), not on every one: read every
/// iteration, the clock took about 5% of a reduced search's time, and a
/// deadline overshot by 255 iterations is well under a millisecond.
const CLOCK_STRIDE: u32 = 256;

/// Schedules longer than this skip greedy shrinking (each greedy pass is
/// quadratic in schedule length); trailing zeros are still stripped.
/// Only unrolled livelock lassos get anywhere near it.
const SHRINK_CAP: usize = 2_000;

/// Whether partial-order reduction and state deduplication are sound for
/// this configuration: the queuing protocol, recovery off, lossless
/// fabric, and no fabric fault plan. Nack retries and recovery timers
/// fire in global deadline order (no two timer events ever commute, and
/// their deadlines are absolute times the fingerprint abstracts);
/// fabric fault plans keep global per-class one-shot counters, so the
/// *order* of sends from different nodes decides which message the fault
/// hits. Ineligible configurations are explored unreduced — same DFS,
/// same parallel harness, no pruning.
pub fn dpor_eligible(cfg: &CheckConfig) -> bool {
    cfg.kind == ProtocolKind::Queuing
        && !cfg.recovery
        && cfg.drop_permille == 0
        && cfg.fault.fabric_plan().is_none()
}

/// The outcome of a reduced exploration, with the reduction statistics
/// the pinned-count tests and the CLI report.
#[derive(Clone, Debug)]
pub struct ReducedOutcome {
    /// How the exploration ended. `AllGreen`/`Budget` schedules count
    /// *leaves*: maximal paths driven to quiescence.
    pub exploration: Exploration,
    /// Events fired across all explored paths (DFS edges, not replay
    /// overhead).
    pub transitions: u64,
    /// Maximal paths driven to quiescence.
    pub leaves: u64,
    /// Distinct state fingerprints first seen (0 when unreduced).
    pub unique_states: u64,
    /// Branches skipped because a commuting sibling order covered them.
    pub sleep_skipped: u64,
    /// Revisits pruned by the fingerprint table's subset rule.
    pub dedup_hits: u64,
    /// Whether sleep sets and deduplication were armed (see
    /// [`dpor_eligible`]).
    pub reduced: bool,
    /// Subtree jobs the frontier pass produced.
    pub jobs: usize,
}

/// Reduced bounded-exhaustive exploration with [`dpor_eligible`]
/// deciding whether reduction arms; see [`explore_reduced_with`].
pub fn explore_reduced(
    cfg: &CheckConfig,
    limits: &ExploreLimits,
    threads: usize,
) -> ReducedOutcome {
    explore_reduced_with(cfg, limits, threads, dpor_eligible(cfg))
}

/// Reduced bounded-exhaustive exploration with the reduction switch
/// exposed — the DPOR soundness harness runs both settings and compares.
/// `reduce` is ignored (forced off) for ineligible configurations.
/// Deterministic for a given config regardless of `threads`.
pub fn explore_reduced_with(
    cfg: &CheckConfig,
    limits: &ExploreLimits,
    threads: usize,
    reduce: bool,
) -> ReducedOutcome {
    let reduce = reduce && dpor_eligible(cfg);
    let params = DfsParams {
        cfg,
        limits,
        reduce,
        collect_all: false,
        deadline: Instant::now() + std::time::Duration::from_secs(limits.max_seconds),
        leaves_claimed: AtomicU64::new(0),
        frontier_oracles: Mutex::new(BTreeSet::new()),
    };
    let mut agg = DfsStats::default();
    let mut first_violation: Option<Found>;
    let job_count;
    if reduce {
        // Sequential: the reduced walk needs one global dedup table (see
        // the module docs for the measured cost of sharding it).
        let out = dfs(&params, &[], Stepper::new(cfg));
        agg.absorb(&out.stats);
        first_violation = out.violation;
        job_count = 1;
    } else {
        let (frontier_stats, frontier_violation, jobs) = expand_frontier(&params);
        agg.absorb(&frontier_stats);
        first_violation = frontier_violation;
        job_count = jobs.len();
        if first_violation.is_none() {
            let results = fan_jobs(&params, jobs, threads);
            for r in &results {
                agg.absorb(&r.stats);
            }
            // Every job ran to completion (violating jobs stop their own
            // subtree only), so picking the lowest job index is the same
            // answer for every thread count.
            first_violation = results.into_iter().find_map(|r| r.violation);
        }
    }
    let exploration = match first_violation {
        Some((picks, v)) => falsify_capped(cfg, picks, v, agg.leaves.max(1), limits),
        None if agg.budget_hit => Exploration::Budget {
            schedules: agg.leaves,
        },
        None => Exploration::AllGreen {
            schedules: agg.leaves,
        },
    };
    ReducedOutcome {
        exploration,
        transitions: agg.transitions,
        leaves: agg.leaves,
        unique_states: agg.unique_states,
        sleep_skipped: agg.sleep_skipped,
        dedup_hits: agg.dedup_hits,
        reduced: reduce,
        jobs: job_count,
    }
}

/// Collect-all exploration: instead of stopping at the first violation,
/// records the set of oracle names falsified anywhere in the schedule
/// space (each violating path is cut at its violation and the search
/// continues). The DPOR soundness harness asserts this set is identical
/// with reduction on and off. Only call on configurations whose
/// unreduced space is tractable.
pub fn violation_profile(
    cfg: &CheckConfig,
    limits: &ExploreLimits,
    threads: usize,
    reduce: bool,
) -> BTreeSet<&'static str> {
    let reduce = reduce && dpor_eligible(cfg);
    let params = DfsParams {
        cfg,
        limits,
        reduce,
        collect_all: true,
        deadline: Instant::now() + std::time::Duration::from_secs(limits.max_seconds),
        leaves_claimed: AtomicU64::new(0),
        frontier_oracles: Mutex::new(BTreeSet::new()),
    };
    let mut oracles: BTreeSet<&'static str> = BTreeSet::new();
    if reduce {
        oracles.extend(dfs(&params, &[], Stepper::new(cfg)).oracles);
    } else {
        let (_stats, _violation, jobs) = expand_frontier(&params);
        for r in fan_jobs(&params, jobs, threads) {
            oracles.extend(r.oracles);
        }
    }
    oracles.extend(params.frontier_oracles.into_inner().unwrap());
    oracles
}

// ---------------------------------------------------------------------
// The DFS core
// ---------------------------------------------------------------------

struct DfsParams<'a> {
    cfg: &'a CheckConfig,
    limits: &'a ExploreLimits,
    reduce: bool,
    collect_all: bool,
    deadline: Instant,
    /// Leaves reached so far by the frontier pass and every job: one
    /// `max_schedules` budget for the whole search.
    leaves_claimed: AtomicU64,
    /// Oracle names falsified during the frontier pass (collect-all).
    frontier_oracles: Mutex<BTreeSet<&'static str>>,
}

impl<'a> DfsParams<'a> {
    fn cfg(&self) -> &CheckConfig {
        self.cfg
    }

    /// A fresh view of the deadline for one search loop.
    fn clock(&self) -> Clock {
        Clock {
            deadline: self.deadline,
            calls: 0,
        }
    }

    /// Counts one more leaf against `max_schedules`; false once the
    /// budget is spent, so a binding cap reports exactly `max_schedules`
    /// leaves for any thread count.
    fn claim_leaf(&self) -> bool {
        self.leaves_claimed.fetch_add(1, Ordering::Relaxed) < self.limits.max_schedules
    }
}

/// One search loop's view of the wall-clock deadline, read every
/// [`CLOCK_STRIDE`] iterations.
struct Clock {
    deadline: Instant,
    calls: u32,
}

impl Clock {
    /// Whether the deadline has passed, as of the last clock read.
    fn expired(&mut self) -> bool {
        let read = self.calls.is_multiple_of(CLOCK_STRIDE);
        self.calls = self.calls.wrapping_add(1);
        read && Instant::now() >= self.deadline
    }
}

/// Buffers of popped frames, handed to the frames pushed next: a search
/// allocates a frame's buffers only while its depth first grows.
struct Recycled<T>(Vec<Vec<T>>);

impl<T> Recycled<T> {
    /// An empty buffer, recycled when one is spare.
    fn take(&mut self) -> Vec<T> {
        self.0.pop().unwrap_or_default()
    }

    /// Returns a buffer for reuse.
    fn give(&mut self, mut buf: Vec<T>) {
        if buf.capacity() > 0 {
            buf.clear();
            self.0.push(buf);
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct DfsStats {
    transitions: u64,
    leaves: u64,
    unique_states: u64,
    sleep_skipped: u64,
    dedup_hits: u64,
    budget_hit: bool,
}

impl DfsStats {
    fn absorb(&mut self, other: &DfsStats) {
        self.transitions += other.transitions;
        self.leaves += other.leaves;
        self.unique_states += other.unique_states;
        self.sleep_skipped += other.sleep_skipped;
        self.dedup_hits += other.dedup_hits;
        self.budget_hit |= other.budget_hit;
    }
}

/// A violation, with the picks that reach it from the true root.
type Found = (Vec<usize>, Violation);

struct DfsOutcome {
    stats: DfsStats,
    /// First violation in this subtree's DFS order.
    violation: Option<Found>,
    /// Collect-all verdicts.
    oracles: BTreeSet<&'static str>,
}

/// One independent subtree of the (unreduced) exploration: the pick path
/// from the root to its base state, and that state. Subtrees partition
/// the schedule tree exactly — no leaf is reachable from two different
/// frontier prefixes.
struct Job {
    prefix: Vec<usize>,
    st: Stepper,
}

/// The position held in `snap`: a fork of it while `keep` (a later
/// sibling still needs it), else the snapshot itself.
fn restore(snap: &mut Option<Stepper>, keep: bool) -> Stepper {
    if keep {
        snap.as_ref().expect("held snapshot").fork()
    } else {
        snap.take().expect("held snapshot")
    }
}

/// Sleep-signature subset test over sorted digest slices.
fn subset(a: &[u64], b: &[u64]) -> bool {
    let mut bi = b.iter();
    'outer: for x in a {
        for y in bi.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

struct Frame {
    /// Number of ready events (ready positions `0..arity`).
    arity: usize,
    /// With reduction armed, the ready events' snapshot (see
    /// [`Stepper::ready_events_into`]); empty otherwise.
    events: Vec<PendingEvent>,
    /// Content digests slept at this state, sorted: transitions covered
    /// by a commuting sibling order (inherited) or already explored here.
    sleep: Vec<u64>,
    /// Next ready position to consider.
    next: usize,
    /// Virtual clock at this state, for the commute time condition.
    now: SimTime,
    /// A copy of this state, held while a later sibling is still to
    /// fire: the backtrack to that sibling restores it.
    snap: Option<Stepper>,
}

/// Explores the subtree rooted at `st`, the position `prefix` reaches,
/// depth-first. Backtracking copies the frame's snapshot back into the
/// current position; with `params.reduce`, maintains a fingerprint table
/// (subset rule), sleep sets, and on-path cycle detection.
///
/// Positions are recycled, not freed: a snapshot is copied into a spare
/// position with [`Stepper::fork_into`], which reuses its buffers, and a
/// position displaced when the last sibling takes its frame's snapshot
/// over becomes the next spare. A fresh fork happens only when no spare
/// is left, so the positions alive at once, spares included, never
/// outnumber the snapshots held at the deepest point plus one. Frames'
/// event snapshots and sleep sets are recycled the same way.
fn dfs(params: &DfsParams, prefix: &[usize], mut st: Stepper) -> DfsOutcome {
    let cfg = params.cfg();
    let mut out = DfsOutcome {
        stats: DfsStats::default(),
        violation: None,
        oracles: BTreeSet::new(),
    };
    let mut table: FxHashMap<u64, Vec<Box<[u64]>>> = FxHashMap::default();
    let blocks = cfg.block_addrs();
    let mut stack: Vec<Frame> = Vec::new();
    // Spare positions, overwritten by the next snapshot.
    let mut spares: Vec<Stepper> = Vec::new();
    // Fingerprints of the states on `stack`, for livelock detection.
    let mut on_path: Vec<u64> = Vec::new();
    // Picks from the subtree root to the engine's current state.
    let mut path: Vec<usize> = Vec::new();
    // Whether the engine has drifted off the top-of-stack state (after
    // any backtrack) and must be restored from its snapshot before firing.
    let mut dirty = false;
    // Sleep set (sorted) to attach to the state the engine currently
    // sits on.
    let mut incoming_sleep: Vec<u64> = Vec::new();
    // Buffers of popped frames.
    let mut spare_events: Recycled<PendingEvent> = Recycled(Vec::new());
    let mut spare_sleeps: Recycled<u64> = Recycled(Vec::new());
    let mut clock = params.clock();
    // Whether the current engine state still needs its entry processing
    // (leaf/prune checks and frame creation).
    let mut entering = true;

    macro_rules! record_violation {
        ($v:expr) => {{
            let v: Violation = $v;
            if params.collect_all {
                out.oracles.insert(v.oracle);
            } else {
                let mut picks = prefix.to_vec();
                picks.extend_from_slice(&path);
                out.violation = Some((picks, v));
                return out;
            }
        }};
    }

    loop {
        if clock.expired() {
            out.stats.budget_hit = true;
            return out;
        }
        if entering {
            entering = false;
            if st.ready().is_empty() {
                if !params.claim_leaf() {
                    out.stats.budget_hit = true;
                    return out;
                }
                out.stats.leaves += 1;
                if let Some(v) = st.check_quiescent() {
                    record_violation!(v);
                }
                path.pop();
                dirty = true;
                continue;
            }
            if prefix.len() + path.len() >= params.limits.max_steps {
                record_violation!(starved(params.limits.max_steps));
                path.pop();
                dirty = true;
                continue;
            }
            if params.reduce {
                let fp = st.fingerprint(&blocks);
                if on_path.contains(&fp) {
                    // A lap of the state graph: the machine can repeat
                    // this cycle of deliveries forever.
                    let v = Violation {
                        oracle: "progress",
                        detail: format!(
                            "state repeats after {} steps — the schedule can \
                             cycle forever without quiescing",
                            prefix.len() + path.len()
                        ),
                    };
                    if params.collect_all {
                        out.oracles.insert(v.oracle);
                    } else {
                        out.violation = Some(unroll_lasso(
                            cfg,
                            params.limits,
                            prefix,
                            &path,
                            &on_path,
                            fp,
                            v,
                        ));
                        return out;
                    }
                    path.pop();
                    dirty = true;
                    continue;
                }
                let sig = &incoming_sleep;
                match table.get_mut(&fp) {
                    Some(sigs) if sigs.iter().any(|old| subset(old, sig)) => {
                        out.stats.dedup_hits += 1;
                        path.pop();
                        dirty = true;
                        continue;
                    }
                    Some(sigs) => {
                        sigs.retain(|old| !subset(sig, old));
                        sigs.push(sig.as_slice().into());
                    }
                    None => {
                        table.insert(fp, vec![sig.as_slice().into()]);
                        out.stats.unique_states += 1;
                    }
                }
                on_path.push(fp);
            } else {
                on_path.push(0);
            }
            let mut events = spare_events.take();
            if params.reduce {
                st.ready_events_into(&mut events);
            }
            stack.push(Frame {
                arity: st.ready().len(),
                events,
                sleep: std::mem::take(&mut incoming_sleep),
                next: 0,
                now: st.now(),
                snap: None,
            });
            continue;
        }
        let Some(frame) = stack.last_mut() else {
            return out;
        };
        let mut b = frame.next;
        let slept = |frame: &Frame, b: usize| {
            params.reduce && frame.sleep.binary_search(&frame.events[b].content).is_ok()
        };
        while b < frame.arity {
            if slept(frame, b) {
                out.stats.sleep_skipped += 1;
                b += 1;
            } else {
                break;
            }
        }
        if b >= frame.arity {
            let done = stack.pop().expect("the top frame");
            spares.extend(done.snap);
            spare_events.give(done.events);
            spare_sleeps.give(done.sleep);
            on_path.pop();
            if path.pop().is_some() {
                dirty = true;
            }
            continue;
        }
        frame.next = b + 1;
        let mut child_sleep = spare_sleeps.take();
        if params.reduce {
            let chosen = &frame.events[b];
            child_sleep.extend(
                frame
                    .events
                    .iter()
                    .filter(|e| {
                        frame.sleep.binary_search(&e.content).is_ok()
                            && e.commutes_with(chosen, frame.now)
                    })
                    .map(|e| e.content),
            );
            child_sleep.sort_unstable();
            child_sleep.dedup();
            if let Err(at) = frame.sleep.binary_search(&chosen.content) {
                frame.sleep.insert(at, chosen.content);
            }
        }
        // Snapshot the state only while a later sibling will need it:
        // the last sibling to fire takes the snapshot over.
        let later = (b + 1..frame.arity).any(|c| !slept(frame, c));
        if dirty {
            // Overwrites every field, so a position a caught panic
            // poisoned is fit to reuse.
            if later {
                let snap = frame.snap.as_ref().expect("held snapshot");
                snap.fork_into(&mut st);
            } else {
                let snap = frame.snap.take().expect("held snapshot");
                spares.push(std::mem::replace(&mut st, snap));
            }
            dirty = false;
        } else if later {
            frame.snap = Some(match spares.pop() {
                Some(mut spare) => {
                    st.fork_into(&mut spare);
                    spare
                }
                None => st.fork(),
            });
        }
        path.push(b);
        out.stats.transitions += 1;
        match st.fire(b) {
            Ok(()) => {
                spare_sleeps.give(std::mem::replace(&mut incoming_sleep, child_sleep));
                entering = true;
            }
            Err(v) => {
                spare_sleeps.give(child_sleep);
                record_violation!(v);
                path.pop();
                // The engine may be poisoned after a panic; the dirty
                // restore overwrites it.
                dirty = true;
            }
        }
    }
}

/// Builds a replayable counterexample for a livelock: replays to the
/// cycle entry, then laps the cycle (matching repeating events by
/// content digest, since ready indices shift between laps) until the
/// step cap, so plain replay of the emitted schedule starves and the
/// `progress` oracle fires on its own.
fn unroll_lasso(
    cfg: &CheckConfig,
    limits: &ExploreLimits,
    prefix: &[usize],
    path: &[usize],
    on_path: &[u64],
    fp: u64,
    violation: Violation,
) -> (Vec<usize>, Violation) {
    let entry = on_path.iter().position(|&f| f == fp).unwrap_or(0);
    // Picks from the true root to the cycle entry state.
    let mut picks: Vec<usize> = prefix.to_vec();
    picks.extend_from_slice(&path[..entry]);
    // The repeating transitions, by content: re-walk the cycle once to
    // record what fired (the DFS only kept pick indices).
    let mut runner = Runner::new(cfg);
    let st = runner.replay_green(&picks);
    let mut cycle: Vec<u64> = Vec::new();
    let mut ready = Vec::new();
    for &p in &path[entry..] {
        st.ready_events_into(&mut ready);
        cycle.push(ready[p.min(ready.len() - 1)].content);
        if st.fire(p).is_err() {
            break;
        }
        picks.push(p);
    }
    // Lap until the step cap; each lap re-finds the events by content.
    'unroll: while picks.len() < limits.max_steps && !cycle.is_empty() {
        for &c in &cycle {
            match st.fire_by_content(c) {
                Some(p) => picks.push(p),
                // The lap diverged (should not happen: equal fingerprints
                // mean equal per-channel contents, hence equal ready
                // sets) — fall back to whatever schedule we built.
                None => break 'unroll,
            }
            if picks.len() >= limits.max_steps {
                break 'unroll;
            }
        }
    }
    // Prefer what the replayed schedule actually reports.
    let out = runner.replay(&picks, limits.max_steps);
    (picks, out.violation.unwrap_or(violation))
}

/// Shrinks and packages a violation; skips the quadratic greedy pass for
/// very long (lasso-unrolled) schedules.
fn falsify_capped(
    cfg: &CheckConfig,
    mut picks: Vec<usize>,
    violation: Violation,
    schedules: u64,
    limits: &ExploreLimits,
) -> Exploration {
    // Guard against a schedule whose plain replay no longer fails (a
    // diverged lasso unroll): shrinking asserts on a passing start.
    let mut runner = Runner::new(cfg);
    if picks.len() > SHRINK_CAP || runner.replay(&picks, limits.max_steps).ok() {
        while picks.last() == Some(&0) {
            picks.pop();
        }
        return falsified(cfg, picks, violation, schedules, limits);
    }
    falsify(&mut runner, picks, violation, schedules, limits)
}

// ---------------------------------------------------------------------
// Frontier expansion and the worker pool
// ---------------------------------------------------------------------

/// Sequentially expands the root breadth-first into independent subtree
/// jobs (aiming for [`FRONTIER_JOBS`]). Thread-count independent by
/// construction. Returns the frontier statistics (leaves and violations
/// found at shallow depth), the first violation if one was found during
/// expansion, and the job list. Only used unreduced — the reduced walk
/// is sequential (see the module docs).
fn expand_frontier(params: &DfsParams) -> (DfsStats, Option<Found>, Vec<Job>) {
    let cfg = params.cfg();
    let mut stats = DfsStats::default();
    // Each queued job keeps its base position, so expanding it forks
    // rather than replays.
    let mut queue: std::collections::VecDeque<Job> = std::collections::VecDeque::new();
    queue.push_back(Job {
        prefix: Vec::new(),
        st: Stepper::new(cfg),
    });
    let mut clock = params.clock();
    while queue.len() < FRONTIER_JOBS {
        let Some(job) = queue.pop_front() else {
            break;
        };
        if clock.expired() {
            stats.budget_hit = true;
            queue.push_front(job);
            break;
        }
        if job.st.ready().is_empty() {
            if !params.claim_leaf() {
                stats.budget_hit = true;
                return (stats, None, Vec::new());
            }
            stats.leaves += 1;
            if let Some(v) = job.st.check_quiescent() {
                if params.collect_all {
                    params.frontier_oracles.lock().unwrap().insert(v.oracle);
                } else {
                    return (stats, Some((job.prefix, v)), Vec::new());
                }
            }
            continue;
        }
        let arity = job.st.ready().len();
        let mut base = Some(job.st);
        for b in 0..arity {
            // Fire the branch to validate it (a violation one step below
            // the frontier must surface here, not inside a job's base).
            let mut st = restore(&mut base, b + 1 < arity);
            stats.transitions += 1;
            let mut prefix = job.prefix.clone();
            prefix.push(b);
            match st.fire(b) {
                Ok(()) => queue.push_back(Job { prefix, st }),
                Err(v) => {
                    if params.collect_all {
                        params.frontier_oracles.lock().unwrap().insert(v.oracle);
                    } else {
                        return (stats, Some((prefix, v)), Vec::new());
                    }
                }
            }
        }
    }
    (stats, None, queue.into())
}

/// Runs the jobs across a worker pool, `sweep`-style: scoped threads
/// take the next job, base position and all, in job order. Results land
/// in per-job slots, so aggregation order (and therefore every count and
/// the chosen counterexample) is independent of scheduling.
fn fan_jobs(params: &DfsParams, jobs: Vec<Job>, threads: usize) -> Vec<DfsOutcome> {
    let threads = threads.max(1).min(jobs.len().max(1));
    if threads <= 1 || jobs.len() <= 1 {
        return jobs
            .into_iter()
            .map(|j| dfs(params, &j.prefix, j.st))
            .collect();
    }
    let slots: Vec<Mutex<Option<DfsOutcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let jobs = Mutex::new(jobs.into_iter().enumerate());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = jobs
                    .lock()
                    .expect("the job queue is locked only to take a job")
                    .next();
                let Some((i, job)) = next else {
                    break;
                };
                let out = dfs(params, &job.prefix, job.st);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("job slot unfilled"))
        .collect()
}
