//! Invariant oracles evaluated after every scheduler step.
//!
//! Each oracle states a property the Cenju-4 protocol must uphold in
//! *every* reachable state — including transient ones, so the checks are
//! phrased to tolerate in-flight messages (the directory may represent a
//! superset of the true sharers, never a subset):
//!
//! * **single-writer/multiple-reader** — at most one Modified/Exclusive
//!   copy machine-wide, and never alongside another readable copy;
//! * **directory agreement** — every readable cached copy is represented
//!   in its home's directory entry;
//! * **value coherence** — all Shared copies carry the same data, and a
//!   Clean block's readable copies match its home memory;
//! * **data freshness** — a completed load observes exactly the value of
//!   the last completed store to that block (or 0); the update-based
//!   Dragon protocol relaxes both value checks to membership tests
//!   (copies may straddle an in-flight update push) and adds a
//!   quiescent-convergence oracle instead;
//! * **bounded queues** — the paper's Figure-9 bounds: per-home request
//!   FIFO and slave spill buffer ≤ `4·nodes`, master input ≤ 4;
//! * **quiescence** — when no events remain, every issued transaction has
//!   graduated, every queue is empty and no gather is left open (nothing
//!   was lost or starved);
//! * **recovery** — the armed recovery layer never exhausts its retry
//!   budget under the bounded fault schedules the checker drives.

use crate::ledger::SpanLedger;
use crate::scenario::CheckConfig;
use cenju4_directory::{MemState, NodeId};
use cenju4_protocol::{
    Addr, CacheState, Engine, FaultInjection, MemOp, Notification, ProtocolId, RecoveryError,
};
use core::fmt;

/// A falsified invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired (a stable short name, e.g. `swmr`).
    pub oracle: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Running oracle state: the workload's blocks plus the store/load
/// history needed by the data-freshness check.
pub struct OracleState {
    /// The scenario: its blocks' positions index the history below.
    cfg: CheckConfig,
    /// The workload's blocks, in scenario order.
    blocks: Vec<Addr>,
    /// Value of the last *completed* store per block (0 before any), in
    /// dispatch order, by position in [`CheckConfig::block_addrs`].
    last_store: Vec<u64>,
    /// Every value a *completed* store wrote, with its block's position.
    /// Store values are globally unique (`txn + 1`), so membership in
    /// this history still rejects fabricated or corrupted data.
    store_values: Vec<(usize, u64)>,
    /// Whether the scenario deliberately kills a node with the recovery
    /// layer armed. Under that regime `NodeUnavailable` escalations are
    /// the *correct* outcome for transactions stranded on the dead node,
    /// and state/value checks must not read the casualty's frozen caches
    /// or blocks whose home memory went down with it.
    tolerate_node_down: bool,
    /// Graduated accesses seen so far.
    pub completed: usize,
    /// Accesses deliberately abandoned with a typed `NodeUnavailable`
    /// escalation (only ever non-zero when `tolerate_node_down`).
    pub abandoned: usize,
}

cenju4_des::clone_fields!(OracleState {
    cfg,
    blocks,
    last_store,
    store_values,
    tolerate_node_down,
    completed,
    abandoned,
});

impl OracleState {
    /// Fresh oracle state for one scenario run.
    pub fn new(cfg: &CheckConfig) -> Self {
        let blocks = cfg.block_addrs();
        OracleState {
            cfg: *cfg,
            last_store: vec![0; blocks.len()],
            // Room for every store the workload issues, so `note` never
            // grows the history while a run steps.
            store_values: Vec::with_capacity(cfg.issued_ops()),
            blocks,
            tolerate_node_down: cfg.recovery && cfg.fault == FaultInjection::NodeDown,
            completed: 0,
            abandoned: 0,
        }
    }

    /// The position of a workload block in the history tables.
    fn slot(&self, addr: Addr) -> usize {
        self.cfg
            .block_index(addr)
            .unwrap_or_else(|| panic!("{addr} is not a block of the scenario"))
    }

    /// The machine's nodes, in id order.
    fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.cfg.nodes).map(NodeId::new)
    }

    /// True when the oracle must not trust `node`'s cache contents: the
    /// fault plan killed it at some point, freezing (and later cold-
    /// clearing) whatever it held.
    fn casualty(&self, eng: &Engine, node: NodeId) -> bool {
        self.tolerate_node_down && eng.was_ever_down(node)
    }

    /// True when `addr`'s value history is unrecoverable by design: its
    /// home memory died, or a dirty copy was lost on the dead node.
    fn compromised(&self, eng: &Engine, addr: Addr) -> bool {
        self.tolerate_node_down && eng.value_compromised(addr)
    }

    /// Whether a load of `addr` may legitimately observe `v` under the
    /// update-based protocol: never-written (0), any completed store (an
    /// update may still be in flight toward this reader), or a store
    /// whose update push has reached the reader but whose ack gather has
    /// not yet closed at the home.
    fn dragon_legal(&self, eng: &Engine, addr: Addr, v: u64) -> bool {
        v == 0
            || self.store_values.contains(&(self.slot(addr), v))
            || eng.outstanding_store_values(addr).any(|s| s == v)
    }

    /// Folds one step's notifications into the history, checking that
    /// every completed load returns the last completed store's value.
    /// Under Dragon the check is a membership test instead: a reader may
    /// observe any completed store's value (its own update push may still
    /// be mid-gather when the load graduates), but never a value no store
    /// wrote.
    pub fn note(&mut self, notes: &[Notification], eng: &Engine) -> Option<Violation> {
        for n in notes {
            if let Notification::RecoveryFailed { error, .. } = n {
                // Under an armed node-down plan a typed `NodeUnavailable`
                // escalation is the contract: the master fails fast
                // instead of burning its retry budget on a quarantined
                // peer. Anything else (a timeout, an exhausted link or
                // gather budget) still means detection was too slow.
                if self.tolerate_node_down && matches!(error, RecoveryError::NodeUnavailable { .. })
                {
                    self.abandoned += 1;
                    continue;
                }
                return Some(Violation {
                    oracle: "recovery",
                    detail: format!("recovery layer exhausted its budget: {error}"),
                });
            }
            if let Notification::Completed {
                node,
                op,
                addr,
                value,
                ..
            } = n
            {
                self.completed += 1;
                let slot = self.slot(*addr);
                match op {
                    MemOp::Store => {
                        self.last_store[slot] = *value;
                        self.store_values.push((slot, *value));
                    }
                    MemOp::Load => {
                        // A lost dirty copy (or a dead home) legitimately
                        // leaves survivors reading the last value that
                        // made it to stable memory.
                        if self.compromised(eng, *addr) {
                            continue;
                        }
                        if self.cfg.coherence == ProtocolId::Dragon {
                            if !self.dragon_legal(eng, *addr, *value) {
                                return Some(Violation {
                                    oracle: "data-freshness",
                                    detail: format!(
                                        "load at {node} on {addr} returned {value}, \
                                         which no store (completed or in flight) wrote"
                                    ),
                                });
                            }
                        } else {
                            let want = self.last_store[slot];
                            if *value != want {
                                return Some(Violation {
                                    oracle: "data-freshness",
                                    detail: format!(
                                        "load at {node} on {addr} returned {value}, \
                                         last completed store wrote {want}"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        None
    }

    /// Evaluates the state oracles against a controlled engine after one
    /// step. The per-block checks run only on the workload blocks the
    /// step touched ([`Engine::touched_blocks`]): every other block's
    /// state is what it was after the previous step, which passed, and
    /// the changes the engine does not record (an evicted victim, a node
    /// or block newly exempted) can only remove copies from the checks.
    /// Touched blocks are checked in workload order, so a step that
    /// breaks two blocks reports the one a full scan would. The queue
    /// bounds are global and checked every step. Allocates nothing
    /// unless a violation fires.
    ///
    /// # Panics
    ///
    /// Panics if `eng` is not controlled: only a controlled engine
    /// records the blocks a step touched.
    pub fn check_step(&self, eng: &Engine) -> Option<Violation> {
        assert!(
            eng.is_controlled(),
            "touched blocks need a controlled engine"
        );
        let touched = eng.touched_blocks();
        if !touched.is_empty() {
            for &addr in &self.blocks {
                if touched.contains(&addr) {
                    if let Some(v) = self.check_block(eng, addr) {
                        return Some(v);
                    }
                }
            }
        }
        self.check_queues(eng)
    }

    /// The single-writer, directory and value oracles on one block, in
    /// that order, from one read of each live node's copy.
    fn check_block(&self, eng: &Engine, addr: Addr) -> Option<Violation> {
        // The block's authoritative value may have died with a node (a
        // lost dirty copy, or the home memory itself); survivors then
        // legitimately carry whatever last reached them, and only the
        // value checks are waived.
        let values = !self.compromised(eng, addr);
        let dragon = self.cfg.coherence == ProtocolId::Dragon;
        let mem = eng.memory_value(addr);
        let clean = eng.memory_state(addr) == MemState::Clean;
        let (mut owners, mut readers) = (0usize, 0usize);
        let mut unrepresented = None;
        let mut first_shared: Option<(NodeId, u64)> = None;
        let mut disagree = None;
        let mut stale = None;
        let mut fabricated = None;
        // A casualty's cache is frozen from its death until the
        // quarantine scrub cold-clears it; whatever it nominally holds
        // is unreachable and exempt from the state oracles.
        for n in self.nodes().filter(|&n| !self.casualty(eng, n)) {
            let s = eng.cache_state(n, addr);
            if !s.readable() {
                continue;
            }
            readers += 1;
            owners += usize::from(s.writable());
            // Every readable copy is represented in the directory. (The
            // directory may be a superset — silent clean evictions — but
            // never a subset.)
            if unrepresented.is_none() && !eng.directory_represents(addr, n) {
                unrepresented = Some(n);
            }
            if !values {
                continue;
            }
            // Value coherence. Under the invalidate-based protocol all
            // Shared copies agree exactly, and match a Clean home memory.
            // Under Dragon an update push is applied sharer by sharer, so
            // mid-push the copies legitimately straddle two store values;
            // the check weakens to membership — every readable non-owned
            // copy holds a value some store actually wrote (or the home
            // memory's), never fabricated data.
            if dragon {
                if fabricated.is_none() && !s.writable() {
                    let v = eng.cache_value(n, addr);
                    if v != mem && !self.dragon_legal(eng, addr, v) {
                        fabricated = Some((n, s, v));
                    }
                }
            } else if s == CacheState::Shared {
                let v = eng.cache_value(n, addr);
                match first_shared {
                    None => first_shared = Some((n, v)),
                    Some((_, first)) if disagree.is_none() && v != first => {
                        disagree = Some((n, v));
                    }
                    Some(_) => {}
                }
                if clean && stale.is_none() && v != mem {
                    stale = Some((n, v));
                }
            }
        }

        if owners > 1 || (owners == 1 && readers > 1) {
            return Some(self.swmr_violation(eng, addr));
        }
        if let Some(n) = unrepresented {
            let dir = eng.directory_sharers(addr);
            return Some(Violation {
                oracle: "directory",
                detail: format!(
                    "{addr}: node {n} holds a readable copy but the \
                     directory represents only {dir:?}"
                ),
            });
        }
        if let Some((n, s, v)) = fabricated {
            return Some(Violation {
                oracle: "value-coherence",
                detail: format!("{addr}: node {n}'s {s} copy holds {v}, which no store wrote"),
            });
        }
        if let (Some((first_node, first)), Some((n, v))) = (first_shared, disagree) {
            return Some(Violation {
                oracle: "value-coherence",
                detail: format!("{addr}: Shared copies disagree ({first_node}={first}, {n}={v})"),
            });
        }
        stale.map(|(n, v)| Violation {
            oracle: "value-coherence",
            detail: format!(
                "{addr}: Clean memory holds {mem} but node {n}'s Shared copy holds {v}"
            ),
        })
    }

    /// The single-writer/multiple-reader violation for `addr`, naming the
    /// offending copies (only built once the counts have fired).
    fn swmr_violation(&self, eng: &Engine, addr: Addr) -> Violation {
        let states: Vec<(NodeId, CacheState)> = self
            .nodes()
            .filter(|&n| !self.casualty(eng, n))
            .map(|n| (n, eng.cache_state(n, addr)))
            .collect();
        let owners: Vec<NodeId> = states
            .iter()
            .filter(|(_, s)| s.writable())
            .map(|(n, _)| *n)
            .collect();
        let detail = if owners.len() > 1 {
            format!("{addr}: multiple writable copies at {owners:?}")
        } else {
            let readable: Vec<NodeId> = states
                .iter()
                .filter(|(_, s)| s.readable())
                .map(|(n, _)| *n)
                .collect();
            format!(
                "{addr}: writable copy at {} coexists with readers {readable:?}",
                owners[0]
            )
        };
        Violation {
            oracle: "swmr",
            detail,
        }
    }

    /// Figure-9 queue bounds: 4 outstanding per node bounds every spill
    /// structure by 4·nodes.
    fn check_queues(&self, eng: &Engine) -> Option<Violation> {
        let max_out = eng.params().max_outstanding;
        let bound = max_out * self.cfg.nodes as usize;
        for n in self.nodes() {
            let depth = eng.request_queue_len(n);
            if depth > bound {
                return Some(Violation {
                    oracle: "queue-bound",
                    detail: format!("home {n} request queue depth {depth} exceeds 4n = {bound}"),
                });
            }
        }
        if eng.max_slave_input_depth() > bound as u64 {
            return Some(Violation {
                oracle: "queue-bound",
                detail: format!(
                    "slave input depth {} exceeds 4n = {bound}",
                    eng.max_slave_input_depth()
                ),
            });
        }
        if eng.max_master_input_depth() > max_out as u64 {
            return Some(Violation {
                oracle: "queue-bound",
                detail: format!(
                    "master input depth {} exceeds max_outstanding = {max_out}",
                    eng.max_master_input_depth()
                ),
            });
        }
        None
    }

    /// Evaluates the end-of-run oracles once no events remain: global
    /// quiescence means nothing was lost (the reservation-bit discipline
    /// woke every parked request) and every queue drained.
    pub fn check_quiescent(&self, eng: &Engine, issued: usize) -> Option<Violation> {
        // Every issued access must be accounted for: graduated, or (under
        // a tolerated node-down plan only) deliberately abandoned with a
        // typed escalation. Silent loss is a violation either way.
        if self.completed + self.abandoned != issued {
            return Some(Violation {
                oracle: "quiescence",
                detail: format!(
                    "{} of {issued} accesses graduated ({} abandoned) before \
                     the event set drained — transactions were lost or starved",
                    self.completed, self.abandoned
                ),
            });
        }
        let outstanding = eng.outstanding_txn_count();
        if outstanding != 0 {
            return Some(Violation {
                oracle: "quiescence",
                detail: format!("{outstanding} transactions still outstanding at quiescence"),
            });
        }
        for n in self.nodes() {
            let parked = eng.request_queue_len(n);
            if parked != 0 {
                return Some(Violation {
                    oracle: "quiescence",
                    detail: format!(
                        "home {n} still holds {parked} parked requests at quiescence \
                         — the reservation bit never woke them"
                    ),
                });
            }
            let pending = eng.home_pending_count(n);
            if pending != 0 {
                return Some(Violation {
                    oracle: "quiescence",
                    detail: format!("home {n} still has {pending} pending transactions"),
                });
            }
        }
        let open = eng.open_gathers();
        if open != 0 {
            return Some(Violation {
                oracle: "quiescence",
                detail: format!(
                    "{open} gather(s) still open at quiescence — combining \
                     state for lost replies was never reclaimed"
                ),
            });
        }
        // Dragon convergence: the step-level value check tolerates copies
        // straddling an in-flight update push, but once the machine is
        // quiescent every push has been applied — a Clean block's
        // readable copies must all have converged on the home memory's
        // value. (The in-order (src, dst) delivery channels make this
        // sound: the last update to each sharer cannot be overtaken.)
        if self.cfg.coherence == ProtocolId::Dragon {
            for &addr in &self.blocks {
                if eng.memory_state(addr) != MemState::Clean || self.compromised(eng, addr) {
                    continue;
                }
                let mem = eng.memory_value(addr);
                for n in self.nodes() {
                    if self.casualty(eng, n) {
                        continue;
                    }
                    let s = eng.cache_state(n, addr);
                    if s.readable() && !s.writable() && eng.cache_value(n, addr) != mem {
                        return Some(Violation {
                            oracle: "dragon-convergence",
                            detail: format!(
                                "{addr}: quiescent Clean memory holds {mem} but \
                                 node {n}'s {s} copy holds {} — an update push \
                                 was lost or misapplied",
                                eng.cache_value(n, addr)
                            ),
                        });
                    }
                }
            }
        }
        // Span-leak oracle: the scenario engine carries a SpanLedger,
        // and a span left open at quiescence is a transaction that
        // started but never graduated — a leak or a starved request the
        // counters above could miss (e.g. a lost writeback).
        if let Some(ledger) = eng.observer::<SpanLedger>() {
            let leaked = ledger.open_span_count();
            if leaked != 0 {
                return Some(Violation {
                    oracle: "span-leak",
                    detail: format!(
                        "{leaked} span(s) still open at quiescence — a \
                         transaction opened a span and never closed it"
                    ),
                });
            }
            // Abandoned accesses that failed fast at issue never open a
            // span, so the per-access floor only binds in fault-free
            // regimes. The leak check above stays exact regardless: an
            // abandonment *closes* its span (class `abandoned`).
            let spans = ledger.completed_span_count();
            if !self.tolerate_node_down && spans < issued {
                return Some(Violation {
                    oracle: "span-leak",
                    detail: format!(
                        "{spans} completed spans for {issued} issued accesses \
                         — some access never opened a span"
                    ),
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::guarded;
    use cenju4_des::{SimTime, SplitMix64};
    use cenju4_directory::DirectoryId;
    use cenju4_protocol::{Observer, ProtoMsg, ProtocolKind, SystemConfig, BLOCK_BYTES};

    impl OracleState {
        /// The allocating `check_step` the counting one replaced, kept as
        /// the reference it must match verdict for verdict.
        fn check_step_reference(&self, eng: &Engine) -> Option<Violation> {
            let nodes: Vec<NodeId> = self.nodes().collect();
            for &addr in &self.blocks {
                let states: Vec<(NodeId, CacheState)> = nodes
                    .iter()
                    .filter(|&&n| !self.casualty(eng, n))
                    .map(|&n| (n, eng.cache_state(n, addr)))
                    .collect();
                let owners: Vec<NodeId> = states
                    .iter()
                    .filter(|(_, s)| s.writable())
                    .map(|(n, _)| *n)
                    .collect();
                let readable: Vec<NodeId> = states
                    .iter()
                    .filter(|(_, s)| s.readable())
                    .map(|(n, _)| *n)
                    .collect();
                if owners.len() > 1 {
                    return Some(Violation {
                        oracle: "swmr",
                        detail: format!("{addr}: multiple writable copies at {owners:?}"),
                    });
                }
                if owners.len() == 1 && readable.len() > 1 {
                    return Some(Violation {
                        oracle: "swmr",
                        detail: format!(
                            "{addr}: writable copy at {} coexists with readers {readable:?}",
                            owners[0]
                        ),
                    });
                }
                let dir = eng.directory_sharers(addr);
                for &n in &readable {
                    if !dir.contains(&n) {
                        return Some(Violation {
                            oracle: "directory",
                            detail: format!(
                                "{addr}: node {n} holds a readable copy but the \
                                 directory represents only {dir:?}"
                            ),
                        });
                    }
                }
                if self.compromised(eng, addr) {
                    continue;
                }
                if self.cfg.coherence == ProtocolId::Dragon {
                    let mut legal = vec![0];
                    let slot = self.slot(addr);
                    legal.extend(
                        self.store_values
                            .iter()
                            .filter(|&&(s, _)| s == slot)
                            .map(|&(_, v)| v),
                    );
                    legal.extend(eng.outstanding_store_values(addr));
                    legal.push(eng.memory_value(addr));
                    for (n, s) in &states {
                        if s.readable() && !s.writable() {
                            let v = eng.cache_value(*n, addr);
                            if !legal.contains(&v) {
                                return Some(Violation {
                                    oracle: "value-coherence",
                                    detail: format!(
                                        "{addr}: node {n}'s {s} copy holds {v}, \
                                         which no store wrote"
                                    ),
                                });
                            }
                        }
                    }
                } else {
                    let shared_vals: Vec<(NodeId, u64)> = states
                        .iter()
                        .filter(|(_, s)| *s == CacheState::Shared)
                        .map(|(n, _)| (*n, eng.cache_value(*n, addr)))
                        .collect();
                    if let Some(&(first_node, first)) = shared_vals.first() {
                        for &(n, v) in &shared_vals[1..] {
                            if v != first {
                                return Some(Violation {
                                    oracle: "value-coherence",
                                    detail: format!(
                                        "{addr}: Shared copies disagree \
                                         ({first_node}={first}, {n}={v})"
                                    ),
                                });
                            }
                        }
                    }
                    if eng.memory_state(addr) == MemState::Clean {
                        let mem = eng.memory_value(addr);
                        for &(n, v) in &shared_vals {
                            if v != mem {
                                return Some(Violation {
                                    oracle: "value-coherence",
                                    detail: format!(
                                        "{addr}: Clean memory holds {mem} but node {n}'s \
                                         Shared copy holds {v}"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            let max_out = eng.params().max_outstanding;
            let bound = max_out * self.cfg.nodes as usize;
            for &n in &nodes {
                let depth = eng.request_queue_len(n);
                if depth > bound {
                    return Some(Violation {
                        oracle: "queue-bound",
                        detail: format!(
                            "home {n} request queue depth {depth} exceeds 4n = {bound}"
                        ),
                    });
                }
            }
            if eng.max_slave_input_depth() > bound as u64 {
                return Some(Violation {
                    oracle: "queue-bound",
                    detail: format!(
                        "slave input depth {} exceeds 4n = {bound}",
                        eng.max_slave_input_depth()
                    ),
                });
            }
            if eng.max_master_input_depth() > max_out as u64 {
                return Some(Violation {
                    oracle: "queue-bound",
                    detail: format!(
                        "master input depth {} exceeds max_outstanding = {max_out}",
                        eng.max_master_input_depth()
                    ),
                });
            }
            None
        }
    }

    /// What a protocol panic inside a walk means.
    #[derive(Clone, Copy, PartialEq)]
    enum OnPanic {
        /// A bug: the panic fails the test.
        Fail,
        /// A fault mutant tripping an internal assertion: the walk ends,
        /// counted as violated.
        EndWalk,
    }

    /// Drives `walks` seeded random walks over engines `build` makes,
    /// judged by the oracle `judge` builds, calling `visit` after every
    /// step. A walk ends at quiescence, after 5,000 steps, when `visit`
    /// reports a violation, when — if `stop_on_note` — `note` does, or
    /// when the protocol panics under [`OnPanic::EndWalk`]. Returns how
    /// many walks ended in one.
    fn walk(
        build: impl Fn() -> Engine,
        judge: &CheckConfig,
        seed: u64,
        walks: u64,
        stop_on_note: bool,
        on_panic: OnPanic,
        mut visit: impl FnMut(&mut Engine, &OracleState) -> bool,
    ) -> u64 {
        let mut violated = 0;
        for w in 0..walks {
            let mut rng = SplitMix64::new(seed.wrapping_add(w).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut eng = build();
            let mut oracle = OracleState::new(judge);
            let (mut ready, mut notes) = (Vec::new(), Vec::new());
            for _ in 0..5_000 {
                eng.ready_choices(&mut ready);
                if ready.is_empty() {
                    break;
                }
                let pick = ready[rng.next_below(ready.len() as u64) as usize];
                notes.clear();
                let mut fire = || {
                    assert!(eng.run_pending_into(pick, &mut notes), "ready event fires");
                    None
                };
                let panicked = match on_panic {
                    OnPanic::Fail => fire(),
                    OnPanic::EndWalk => guarded(fire),
                };
                if panicked.is_some() {
                    violated += 1;
                    break;
                }
                let noted = oracle.note(&notes, &eng).is_some() && stop_on_note;
                if visit(&mut eng, &oracle) || noted {
                    violated += 1;
                    break;
                }
            }
        }
        violated
    }

    /// How often `check_step` reported each violation path no green
    /// scenario reaches.
    #[derive(Default)]
    struct Reached {
        swmr: usize,
        directory: usize,
        clean_memory: usize,
    }

    impl Reached {
        fn count(&mut self, v: &Violation) {
            match v.oracle {
                "swmr" => self.swmr += 1,
                "directory" => self.directory += 1,
                "value-coherence" if v.detail.contains("Clean memory") => self.clean_memory += 1,
                _ => {}
            }
        }
    }

    /// A hook that may alter an engine between steps (see
    /// [`kill_node_one_once_it_reads`]).
    type Prepare = Option<fn(&mut Engine)>;

    /// Asserts `check_step` and the reference full scan agree, detail
    /// text included, at every step of walks over engines `build` makes,
    /// after `prepare` has seen each step; returns the walks that ended
    /// in a violation. With `prepare` set, a `note` violation does not
    /// end a walk: the history it leaves is the same for both scans.
    fn differential(
        build: impl Fn() -> Engine,
        judge: &CheckConfig,
        walks: u64,
        reached: &mut Reached,
        prepare: Prepare,
        on_panic: OnPanic,
    ) -> u64 {
        walk(
            build,
            judge,
            1,
            walks,
            prepare.is_none(),
            on_panic,
            |eng, oracle| {
                if let Some(prepare) = prepare {
                    prepare(eng);
                }
                let got = oracle.check_step(eng);
                assert_eq!(got, oracle.check_step_reference(eng), "{judge}");
                if let Some(v) = &got {
                    reached.count(v);
                }
                got.is_some()
            },
        )
    }

    /// [`differential`] over a scenario's own engine and oracles.
    fn differential_on(
        cfg: &CheckConfig,
        walks: u64,
        reached: &mut Reached,
        on_panic: OnPanic,
    ) -> u64 {
        differential(|| cfg.engine(), cfg, walks, reached, None, on_panic)
    }

    /// Installs the `node-down` plan once node 1 holds a readable copy of
    /// block `n0:0`. The plan's down window opened at 1,000 ns, before
    /// any remote fill lands, so node 1 dies on the spot with the copy
    /// frozen in its cache, and the failure detector quarantines it
    /// later. (The checker's own `node-down` scenario kills node 1
    /// before it can cache a remote block.)
    fn kill_node_one_once_it_reads(eng: &mut Engine) {
        let one = NodeId::new(1);
        let dead = eng.fault_plan().node_down_at(eng.now().as_ns(), one);
        if !dead
            && eng
                .cache_state(one, Addr::new(NodeId::new(0), 0))
                .readable()
        {
            eng.inject_fault(FaultInjection::NodeDown);
        }
    }

    fn scenario(nodes: u16, blocks: u16) -> CheckConfig {
        CheckConfig {
            nodes,
            blocks,
            ..CheckConfig::default()
        }
    }

    /// The three protocols under check, on `nodes` x `blocks` x `ops`.
    fn each_protocol(nodes: u16, blocks: u16, ops: u32) -> [CheckConfig; 3] {
        let mesi = CheckConfig {
            ops_per_node: ops,
            ..scenario(nodes, blocks)
        };
        [
            mesi,
            CheckConfig {
                kind: ProtocolKind::Nack,
                ..mesi
            },
            CheckConfig {
                coherence: ProtocolId::Dragon,
                ..mesi
            },
        ]
    }

    /// MESI queuing, nack, Dragon, lossy recovery dropping 100 messages
    /// per 1,000, and node-down with recovery, over 3 nodes x 2 blocks:
    /// all green under their own oracles.
    fn green_scenarios() -> [CheckConfig; 5] {
        let [mesi, nack, dragon] = each_protocol(3, 2, 2);
        [
            mesi,
            nack,
            dragon,
            CheckConfig {
                recovery: true,
                drop_permille: 100,
                fault_seed: 1,
                ..mesi
            },
            CheckConfig {
                recovery: true,
                fault: FaultInjection::NodeDown,
                ..mesi
            },
        ]
    }

    /// The touched-block `check_step` returns exactly the reference full
    /// scan's verdict, detail text included, at every step: over the
    /// green scenarios (node-down's casualty exemption included: the
    /// walks reach it) and over every fault mutant at its smallest
    /// machine, which die by panics, lost transactions and recovery
    /// errors, never by a bad copy. The copy oracles are then driven to
    /// fire by engines they do not fit:
    ///
    /// * a Dragon engine judged by MESI oracles: Shared copies disagree
    ///   mid-push;
    /// * a MESI engine whose block runs the §4.2.3 update protocol: a
    ///   sole subscriber's store writes memory through and stays Clean
    ///   while the writer's Shared copy still holds the old value;
    /// * node 1 killed while it holds a copy, judged without the
    ///   casualty exemption: the quarantine scrub drops its frozen copy
    ///   from the directory; or, under a 33-node coarse vector whose
    ///   group bit the scrub cannot clear, a reader served after the
    ///   quarantine holds a copy beside node 1's frozen Exclusive one.
    #[test]
    fn counting_check_step_matches_the_reference() {
        let mesi = scenario(3, 2);
        let green = green_scenarios();
        let mut reached = Reached::default();
        for cfg in &green {
            assert_eq!(
                differential_on(cfg, 150, &mut reached, OnPanic::Fail),
                0,
                "{cfg} is green"
            );
        }
        // The node-down walks do reach the casualty path.
        let down = green[4];
        let mut casualties = 0;
        let violated = walk(
            || down.engine(),
            &down,
            1,
            150,
            true,
            OnPanic::Fail,
            |eng, oracle| {
                casualties += usize::from(oracle.casualty(eng, NodeId::new(1)));
                false
            },
        );
        assert_eq!(violated, 0, "{down} is green");
        assert!(casualties > 0, "node-down walks never saw a casualty");

        for fault in FaultInjection::ALL {
            for blocks in [1, 2] {
                let cfg = CheckConfig {
                    fault,
                    recovery: fault.needs_recovery(),
                    ..scenario(fault.min_nodes() as u16, blocks)
                };
                differential_on(&cfg, 150, &mut reached, OnPanic::EndWalk);
            }
        }

        let dragon = green[2];
        let violated = differential(
            || dragon.engine(),
            &mesi,
            300,
            &mut reached,
            None,
            OnPanic::Fail,
        );
        assert!(
            violated > 0,
            "a Dragon engine never tripped the MESI value oracle"
        );

        let single = scenario(2, 1);
        let update = || {
            let mut eng = single.engine();
            eng.mark_update_block(Addr::new(NodeId::new(0), 0));
            eng
        };
        differential(update, &single, 150, &mut reached, None, OnPanic::Fail);

        let lossy = green[3];
        let precise = CheckConfig { blocks: 1, ..lossy };
        let coarse = CheckConfig {
            nodes: 33,
            blocks: 1,
            ops_per_node: 1,
            directory: DirectoryId::CoarseVector,
            ..lossy
        };
        for (cfg, walks) in [(precise, 100), (coarse, 1_000)] {
            differential(
                || cfg.engine(),
                &cfg,
                walks,
                &mut reached,
                Some(kill_node_one_once_it_reads),
                OnPanic::Fail,
            );
        }
        assert!(reached.swmr > 0, "no walk reached the swmr violation");
        assert!(
            reached.directory > 0,
            "no walk reached the directory violation"
        );
        assert!(
            reached.clean_memory > 0,
            "no walk reached the Clean-memory value violation"
        );
    }

    /// What the step oracles can see of one block: its directory state
    /// and represented sharers, its memory word, and every node's copy.
    type BlockView = (MemState, Vec<NodeId>, u64, Vec<(CacheState, u64)>);

    fn block_view(eng: &Engine, nodes: u16, addr: Addr) -> BlockView {
        let copies = (0..nodes)
            .map(NodeId::new)
            .map(|n| (eng.cache_state(n, addr), eng.cache_value(n, addr)))
            .collect();
        (
            eng.memory_state(addr),
            eng.directory_sharers(addr),
            eng.memory_value(addr),
            copies,
        )
    }

    /// Every block whose oracle-visible state a step changed is in
    /// `Engine::touched_blocks`, whether or not the change breaks an
    /// invariant: over the green scenarios, every fault mutant, and the
    /// node-kill engines, whose quarantine scrubs rewrite directory
    /// entries and synthesize replies. Checker caches never fill a set,
    /// so no step here evicts a victim, the one change left unrecorded.
    #[test]
    fn touched_blocks_cover_every_state_change() {
        let mut configs: Vec<(CheckConfig, Prepare, OnPanic)> = green_scenarios()
            .into_iter()
            .map(|cfg| (cfg, None, OnPanic::Fail))
            .collect();
        for fault in FaultInjection::ALL {
            let cfg = CheckConfig {
                fault,
                recovery: fault.needs_recovery(),
                ..scenario(fault.min_nodes() as u16, 2)
            };
            configs.push((cfg, None, OnPanic::EndWalk));
        }
        let lossy = green_scenarios()[3];
        for cfg in [
            CheckConfig { blocks: 1, ..lossy },
            CheckConfig {
                nodes: 33,
                blocks: 1,
                ops_per_node: 1,
                directory: DirectoryId::CoarseVector,
                ..lossy
            },
        ] {
            configs.push((cfg, Some(kill_node_one_once_it_reads), OnPanic::Fail));
        }
        let mut changed = 0;
        for (cfg, prepare, on_panic) in configs {
            let blocks = cfg.block_addrs();
            let fresh = cfg.engine();
            let initial: Vec<BlockView> = blocks
                .iter()
                .map(|&a| block_view(&fresh, cfg.nodes, a))
                .collect();
            let mut before = initial.clone();
            walk(
                || cfg.engine(),
                &cfg,
                5,
                60,
                false,
                on_panic,
                |eng, _| {
                    if let Some(prepare) = prepare {
                        prepare(eng);
                    }
                    if eng.steps() == 1 {
                        before.clone_from(&initial);
                    }
                    for (i, &addr) in blocks.iter().enumerate() {
                        let now = block_view(eng, cfg.nodes, addr);
                        if now != before[i] {
                            changed += 1;
                            assert!(
                                eng.touched_blocks().contains(&addr),
                                "{cfg}: step {} changed {addr} unrecorded",
                                eng.steps()
                            );
                            before[i] = now;
                        }
                    }
                    false
                },
            );
        }
        assert!(changed > 1_000, "only {changed} block changes were seen");
    }

    /// A writeback that reaches its home while the directory is not
    /// Dirty (a request for the block is pending there) writes memory and
    /// leaves the directory as it was, and the step still records the
    /// block. One-line caches evict at every switch of block, so seeded
    /// walks reach that race. Every block's directory and memory are
    /// compared step to step, but not its cached copies: an evicted
    /// victim is the one change left unrecorded. The walks stay green,
    /// and `check_step` matches the full scan throughout.
    #[test]
    fn a_writeback_under_a_pending_request_is_recorded() {
        let cfg = CheckConfig {
            ops_per_node: 4,
            ..scenario(3, 2)
        };
        let sys = small_caches(&cfg, 1);
        let blocks = cfg.block_addrs();
        let home_view = |eng: &Engine, addr| {
            (
                eng.memory_state(addr),
                eng.directory_sharers(addr),
                eng.memory_value(addr),
            )
        };
        let fresh = cfg.engine_on(&sys);
        let initial: Vec<_> = blocks.iter().map(|&a| home_view(&fresh, a)).collect();
        let mut before = initial.clone();
        let mut quiet_writes = 0;
        let violated = walk(
            || cfg.engine_on(&sys),
            &cfg,
            11,
            200,
            true,
            OnPanic::Fail,
            |eng, oracle| {
                if eng.steps() == 1 {
                    before.clone_from(&initial);
                }
                for (i, &addr) in blocks.iter().enumerate() {
                    let now = home_view(eng, addr);
                    if now != before[i] {
                        assert!(
                            eng.touched_blocks().contains(&addr),
                            "step {} changed {addr}'s home unrecorded",
                            eng.steps()
                        );
                        let (state, sharers, _) = &before[i];
                        quiet_writes += usize::from(now.0 == *state && now.1 == *sharers);
                        before[i] = now;
                    }
                }
                let got = oracle.check_step(eng);
                assert_eq!(got, oracle.check_step_reference(eng));
                got.is_some()
            },
        );
        assert_eq!(violated, 0, "one-line caches break no oracle");
        assert!(quiet_writes > 0, "no writeback met a pending request");
    }

    /// The machine of `cfg` with caches of `lines` lines, direct-mapped:
    /// a fill evicts whatever block shares its set.
    fn small_caches(cfg: &CheckConfig, lines: u32) -> SystemConfig {
        let mut sys = cfg.system_config().expect("scenario builds");
        sys.proto.cache_bytes = lines * BLOCK_BYTES;
        sys.proto.cache_assoc = 1;
        sys
    }

    /// Counts two eviction races from the messages a walk's engine
    /// delivers: writebacks reaching their home, and store acks that
    /// find no copy to upgrade and install the line. Under MESI a store
    /// ack finds none only when a fill evicted the copy while the store
    /// was in flight; under Dragon every store miss writes through and
    /// takes that path too.
    #[derive(Default)]
    struct EvictionRaces {
        /// Writebacks delivered so far, and the block of the last one.
        writebacks: (usize, Option<Addr>),
        /// The store ack being handled, until the next message arrives.
        ack: Option<(NodeId, Addr)>,
        /// Store acks that installed an Invalid line.
        acks_on_invalid: usize,
    }

    impl Observer for EvictionRaces {
        fn on_receive(&mut self, _: SimTime, dst: NodeId, _: NodeId, msg: &ProtoMsg) {
            self.ack = None;
            match *msg {
                ProtoMsg::WriteBack { addr, .. } => {
                    self.writebacks = (self.writebacks.0 + 1, Some(addr));
                }
                ProtoMsg::AckReply { addr, .. } => self.ack = Some((dst, addr)),
                _ => {}
            }
        }

        fn on_cache_transition(
            &mut self,
            _: SimTime,
            node: NodeId,
            addr: Addr,
            from: CacheState,
            _: CacheState,
        ) {
            if from == CacheState::Invalid && self.ack == Some((node, addr)) {
                self.acks_on_invalid += 1;
            }
        }
    }

    /// How often a set of walks reached each eviction race.
    #[derive(Debug, Default)]
    struct RacesReached {
        /// Dirty victims written back.
        dirty_writebacks: u64,
        /// Writebacks that reached a home with a request for the block
        /// pending there.
        at_pending_home: usize,
        /// Store acks that installed an Invalid line.
        acks_on_invalid: usize,
    }

    /// Drives `walks` seeded walks of `cfg`'s workload over the machine
    /// `sys`. At every step `note` and `check_step` must pass and
    /// `check_step` must match the full scan; every walk must end
    /// quiescent with `check_quiescent` green.
    fn eviction_walks(cfg: &CheckConfig, sys: &SystemConfig, walks: u64) -> RacesReached {
        let build = || {
            let mut eng = cfg.engine_on(sys);
            eng.add_observer(Box::new(EvictionRaces::default()));
            eng
        };
        let mut reached = RacesReached::default();
        let (mut delivered, mut quiescent) = (0, 0);
        let violated = walk(build, cfg, 1, walks, true, OnPanic::Fail, |eng, oracle| {
            let got = oracle.check_step(eng);
            assert_eq!(got, oracle.check_step_reference(eng), "{cfg}");
            if got.is_some() {
                return true;
            }
            let races = eng.observer::<EvictionRaces>().expect("observer attached");
            if eng.steps() == 1 {
                delivered = 0;
            }
            if let (n, Some(addr)) = races.writebacks {
                if n > delivered {
                    delivered = n;
                    reached.at_pending_home += usize::from(eng.memory_state(addr).is_pending());
                }
            }
            if eng.pending_event_count() > 0 {
                return false;
            }
            quiescent += 1;
            reached.dirty_writebacks += eng.stats().writebacks.get();
            reached.acks_on_invalid += races.acks_on_invalid;
            oracle.check_quiescent(eng, cfg.issued_ops()).is_some()
        });
        assert_eq!(violated, 0, "{cfg} broke an oracle");
        assert_eq!(quiescent, walks, "{cfg}: a walk hit the step cap");
        reached
    }

    /// Seeded walks under MESI queuing, MESI nack and Dragon, every one
    /// green under every oracle: 16 nodes x 5 blocks on the default
    /// cache (wide sharing, no evictions), then 8 x 11 on four
    /// direct-mapped lines and 3 x 3 on one, where dirty evictions race
    /// other nodes' requests for the same blocks, the race the in-order
    /// wire rule exists for. On the small caches every protocol reaches
    /// a store ack on an Invalid line, and MESI reaches dirty writebacks
    /// and writebacks at a pending home. Block counts are odd: with an
    /// even count each block is only ever loaded or only ever stored, so
    /// no MESI store upgrades a Shared copy that a fill could evict while
    /// the upgrade is in flight.
    #[test]
    fn eviction_races_keep_every_oracle_green() {
        for cfg in each_protocol(16, 5, 3) {
            let sys = cfg.system_config().expect("scenario builds");
            eviction_walks(&cfg, &sys, 20);
        }
        for (nodes, blocks, ops, lines) in [(8, 11, 14, 4), (3, 3, 6, 1)] {
            for cfg in each_protocol(nodes, blocks, ops) {
                let reached = eviction_walks(&cfg, &small_caches(&cfg, lines), 200);
                assert!(reached.acks_on_invalid > 0, "{cfg}: {reached:?}");
                if cfg.coherence == ProtocolId::Mesi {
                    assert!(reached.dirty_writebacks > 0, "{cfg}: {reached:?}");
                    assert!(reached.at_pending_home > 0, "{cfg}: {reached:?}");
                }
            }
        }
    }

    /// A dirty victim's writeback leaves before the evicting node's next
    /// request for the same block. This schedule, shrunk from a random
    /// walk on one-line caches, dispatches that request at the instant
    /// of the fill; when the writeback left at the end of the master's
    /// service time instead, the request overtook it and the home served
    /// node 2 stale memory.
    #[test]
    fn a_request_never_overtakes_its_own_writeback() {
        let cfg = each_protocol(3, 3, 6)[0];
        let mut eng = cfg.engine_on(&small_caches(&cfg, 1));
        let mut oracle = OracleState::new(&cfg);
        let picks = [2, 2, 2, 4, 0, 5, 5, 3, 5, 0, 4];
        let (mut ready, mut notes) = (Vec::new(), Vec::new());
        for step in 0.. {
            eng.ready_choices(&mut ready);
            if ready.is_empty() {
                break;
            }
            let p = picks.get(step).copied().unwrap_or(0);
            let pick = ready[p.min(ready.len() - 1)];
            notes.clear();
            assert!(eng.run_pending_into(pick, &mut notes));
            let v = oracle
                .note(&notes, &eng)
                .or_else(|| oracle.check_step(&eng));
            assert_eq!(v, None, "step {step}");
        }
        assert_eq!(oracle.check_quiescent(&eng, cfg.issued_ops()), None);
        assert!(eng.stats().writebacks.get() > 0, "no dirty writeback");
    }

    /// `Engine::ready_choices` names exactly the `ready` positions of the
    /// `pending_events` snapshot, at every step of seeded walks over the
    /// green scenarios — timer-only held sets included, which the lossy
    /// and node-down walks pass through.
    #[test]
    fn ready_choices_match_the_pending_snapshot() {
        let mut timer_only = 0;
        for cfg in &green_scenarios() {
            let mut got = Vec::new();
            let violated = walk(
                || cfg.engine(),
                cfg,
                3,
                150,
                true,
                OnPanic::Fail,
                |eng, _| {
                    eng.ready_choices(&mut got);
                    let pend = eng.pending_events();
                    let want: Vec<usize> = (0..pend.len()).filter(|&i| pend[i].ready).collect();
                    assert_eq!(got, want, "{cfg}");
                    timer_only += usize::from(!pend.is_empty() && pend.iter().all(|e| e.timer));
                    false
                },
            );
            assert_eq!(violated, 0, "{cfg} is green");
        }
        assert!(timer_only > 0, "no walk reached a timer-only held set");
    }

    /// `directory_represents` agrees with membership in
    /// `directory_sharers` for every directory format, block and node at
    /// every step, on machines small enough to stay precise and large
    /// enough to overflow the limited and coarse formats.
    #[test]
    fn directory_represents_matches_the_represented_set() {
        for directory in DirectoryId::ALL {
            for (shape, walks) in [(scenario(4, 2), 60), (scenario(40, 1), 3)] {
                let cfg = CheckConfig {
                    directory,
                    ops_per_node: if shape.nodes > 4 { 1 } else { 2 },
                    ..shape
                };
                let blocks = cfg.block_addrs();
                let violated = walk(
                    || cfg.engine(),
                    &cfg,
                    7,
                    walks,
                    true,
                    OnPanic::Fail,
                    |eng, _| {
                        for &addr in &blocks {
                            let dir = eng.directory_sharers(addr);
                            for n in (0..cfg.nodes).map(NodeId::new) {
                                assert_eq!(
                                    eng.directory_represents(addr, n),
                                    dir.contains(&n),
                                    "{cfg}: {addr} node {n}"
                                );
                            }
                        }
                        false
                    },
                );
                assert_eq!(violated, 0, "{cfg} is green");
            }
        }
    }
}
