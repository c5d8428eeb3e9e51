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

use crate::scenario::CheckConfig;
use cenju4_directory::{MemState, NodeId};
use cenju4_obs::SpanCollector;
use cenju4_protocol::{
    Addr, CacheState, Engine, FaultInjection, MemOp, Notification, ProtocolId, RecoveryError,
};
use core::fmt;
use std::collections::HashMap;

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
#[derive(Clone)]
pub struct OracleState {
    blocks: Vec<Addr>,
    nodes: u16,
    /// Protocol under check: the update-based Dragon variant relaxes the
    /// exact freshness/agreement checks to membership tests (see below).
    coherence: ProtocolId,
    /// Value of the last *completed* store per block, in dispatch order.
    last_store: HashMap<Addr, u64>,
    /// Every value a *completed* store wrote per block. Store values are
    /// globally unique (`txn + 1`), so membership in this set still
    /// rejects fabricated or corrupted data.
    store_values: HashMap<Addr, Vec<u64>>,
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

impl OracleState {
    /// Fresh oracle state for one scenario run.
    pub fn new(cfg: &CheckConfig) -> Self {
        OracleState {
            blocks: cfg.block_addrs(),
            nodes: cfg.nodes,
            coherence: cfg.coherence,
            last_store: HashMap::new(),
            store_values: HashMap::new(),
            tolerate_node_down: cfg.recovery && cfg.fault == FaultInjection::NodeDown,
            completed: 0,
            abandoned: 0,
        }
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
            || self
                .store_values
                .get(&addr)
                .is_some_and(|vs| vs.contains(&v))
            || eng.outstanding_store_values(addr).contains(&v)
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
                match op {
                    MemOp::Store => {
                        self.last_store.insert(*addr, *value);
                        self.store_values.entry(*addr).or_default().push(*value);
                    }
                    MemOp::Load => {
                        // A lost dirty copy (or a dead home) legitimately
                        // leaves survivors reading the last value that
                        // made it to stable memory.
                        if self.compromised(eng, *addr) {
                            continue;
                        }
                        if self.coherence == ProtocolId::Dragon {
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
                            let want = self.last_store.get(addr).copied().unwrap_or(0);
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

    /// Evaluates the state oracles against the engine after one step.
    /// Each live node's cache state is read once per block; the node
    /// lists a violation names are only built once one has fired.
    pub fn check_step(&self, eng: &Engine) -> Option<Violation> {
        let mut states: Vec<(NodeId, CacheState)> = Vec::with_capacity(self.nodes as usize);
        for &addr in &self.blocks {
            // A casualty's cache is frozen from its death until the
            // quarantine scrub cold-clears it; whatever it nominally
            // holds is unreachable and exempt from the state oracles.
            states.clear();
            states.extend(
                (0..self.nodes)
                    .map(NodeId::new)
                    .filter(|&n| !self.casualty(eng, n))
                    .map(|n| (n, eng.cache_state(n, addr))),
            );

            // Single writer, multiple readers.
            let owners = states.iter().filter(|(_, s)| s.writable()).count();
            let readers = states.iter().filter(|(_, s)| s.readable()).count();
            if owners > 1 || (owners == 1 && readers > 1) {
                return Some(swmr_violation(addr, &states));
            }

            // Every readable copy is represented in the directory. (The
            // directory may be a superset — silent clean evictions — but
            // never a subset.)
            for &(n, s) in &states {
                if s.readable() && !eng.directory_represents(addr, n) {
                    let dir = eng.directory_sharers(addr);
                    return Some(Violation {
                        oracle: "directory",
                        detail: format!(
                            "{addr}: node {n} holds a readable copy but the \
                             directory represents only {dir:?}"
                        ),
                    });
                }
            }

            // Value coherence. Under the invalidate-based protocol all
            // Shared copies agree exactly, and match a Clean home memory.
            // Under Dragon an update push is applied sharer by sharer, so
            // mid-push the copies legitimately straddle two store values;
            // the check weakens to membership — every readable non-owned
            // copy holds a value some store actually wrote (or the home
            // memory's), never fabricated data.
            if self.compromised(eng, addr) {
                // The block's authoritative value died with the node (a
                // lost dirty copy, or the home memory itself); survivors
                // legitimately carry whatever last reached them.
                continue;
            }
            if self.coherence == ProtocolId::Dragon {
                let mem = eng.memory_value(addr);
                for &(n, s) in &states {
                    if s.readable() && !s.writable() {
                        let v = eng.cache_value(n, addr);
                        if v != mem && !self.dragon_legal(eng, addr, v) {
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
                let shared = || {
                    states
                        .iter()
                        .filter(|(_, s)| *s == CacheState::Shared)
                        .map(|&(n, _)| (n, eng.cache_value(n, addr)))
                };
                if let Some((first_node, first)) = shared().next() {
                    if let Some((n, v)) = shared().find(|&(_, v)| v != first) {
                        return Some(Violation {
                            oracle: "value-coherence",
                            detail: format!(
                                "{addr}: Shared copies disagree \
                                 ({first_node}={first}, {n}={v})"
                            ),
                        });
                    }
                }
                if eng.memory_state(addr) == MemState::Clean {
                    let mem = eng.memory_value(addr);
                    if let Some((n, v)) = shared().find(|&(_, v)| v != mem) {
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

        // Figure-9 queue bounds: 4 outstanding per node bounds every spill
        // structure by 4·nodes.
        let max_out = eng.params().max_outstanding;
        let bound = max_out * self.nodes as usize;
        for n in (0..self.nodes).map(NodeId::new) {
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
        for n in (0..self.nodes).map(NodeId::new) {
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
        if self.coherence == ProtocolId::Dragon {
            for &addr in &self.blocks {
                if eng.memory_state(addr) != MemState::Clean || self.compromised(eng, addr) {
                    continue;
                }
                let mem = eng.memory_value(addr);
                for n in (0..self.nodes).map(NodeId::new) {
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
        // Span-leak oracle: the scenario engine carries a SpanCollector,
        // and a span left open at quiescence is a transaction that
        // started but never graduated — a leak or a starved request the
        // counters above could miss (e.g. a lost writeback).
        if let Some(col) = eng.observer::<SpanCollector>() {
            let leaked = col.open_span_count();
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
            let spans = col.completed_span_count();
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

/// The single-writer/multiple-reader violation for `addr`, naming the
/// offending copies (only built once the counts have fired).
fn swmr_violation(addr: Addr, states: &[(NodeId, CacheState)]) -> Violation {
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

#[cfg(test)]
mod tests {
    use super::*;
    use cenju4_des::SplitMix64;
    use cenju4_directory::DirectoryId;
    use cenju4_protocol::ProtocolKind;

    impl OracleState {
        /// The allocating `check_step` the counting one replaced, kept as
        /// the reference it must match verdict for verdict.
        fn check_step_reference(&self, eng: &Engine) -> Option<Violation> {
            let nodes: Vec<NodeId> = (0..self.nodes).map(NodeId::new).collect();
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
                if self.coherence == ProtocolId::Dragon {
                    let mut legal = vec![0];
                    if let Some(vs) = self.store_values.get(&addr) {
                        legal.extend_from_slice(vs);
                    }
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
            let bound = max_out * self.nodes as usize;
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

    /// Drives `walks` seeded random walks over `engine`'s scenario with
    /// the oracle `judge` builds, calling `visit` after every step. A
    /// walk ends at quiescence, after 5,000 steps, or when `note` or
    /// `visit` reports a violation. Returns how many walks ended in one.
    fn walk(
        engine: &CheckConfig,
        judge: &CheckConfig,
        seed: u64,
        walks: u64,
        mut visit: impl FnMut(&Engine, &OracleState) -> bool,
    ) -> u64 {
        let mut violated = 0;
        for w in 0..walks {
            let mut rng = SplitMix64::new(seed.wrapping_add(w).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut eng = engine.engine();
            let mut oracle = OracleState::new(judge);
            let mut ready = Vec::new();
            for _ in 0..5_000 {
                eng.ready_choices(&mut ready);
                if ready.is_empty() {
                    break;
                }
                let pick = ready[rng.next_below(ready.len() as u64) as usize];
                let notes = eng.run_pending(pick).expect("ready event fires");
                let noted = oracle.note(&notes, &eng).is_some();
                if visit(&eng, &oracle) || noted {
                    violated += 1;
                    break;
                }
            }
        }
        violated
    }

    /// Asserts `check_step` and the reference agree, detail text
    /// included, at every step; returns the walks that ended in a
    /// violation.
    fn differential(engine: &CheckConfig, judge: &CheckConfig, walks: u64) -> u64 {
        walk(engine, judge, 1, walks, |eng, oracle| {
            let got = oracle.check_step(eng);
            assert_eq!(got, oracle.check_step_reference(eng), "{engine}");
            got.is_some()
        })
    }

    fn scenario(nodes: u16, blocks: u16) -> CheckConfig {
        CheckConfig {
            nodes,
            blocks,
            ..CheckConfig::default()
        }
    }

    /// MESI queuing, nack, Dragon, lossy recovery dropping 100 messages
    /// per 1,000, and node-down with recovery, over 3 nodes x 2 blocks:
    /// all green under their own oracles.
    fn green_scenarios() -> [CheckConfig; 5] {
        let mesi = scenario(3, 2);
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

    /// The counting `check_step` returns exactly the reference verdict
    /// over the green scenarios (node-down's casualty exemption
    /// included: the walks reach it). A Dragon engine judged by MESI
    /// oracles trips `value-coherence` (its Shared-copies-disagree
    /// branch), so a violation and its text are compared too. No
    /// scenario reaches the `swmr` or `directory` violation paths, or the
    /// Clean-memory branch, today.
    #[test]
    fn counting_check_step_matches_the_reference() {
        let mesi = scenario(3, 2);
        let green = green_scenarios();
        for cfg in &green {
            assert_eq!(differential(cfg, cfg, 150), 0, "{cfg} is green");
        }
        // The node-down walks do reach the casualty path.
        let down = green[4];
        let mut casualties = 0;
        walk(&down, &down, 1, 150, |eng, oracle| {
            casualties += usize::from(oracle.casualty(eng, NodeId::new(1)));
            false
        });
        assert!(casualties > 0, "node-down walks never saw a casualty");

        let dragon = green[2];
        let violated = differential(&dragon, &mesi, 300);
        assert!(
            violated > 0,
            "a Dragon engine never tripped the MESI value oracle"
        );
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
            walk(cfg, cfg, 3, 150, |eng, _| {
                eng.ready_choices(&mut got);
                let pend = eng.pending_events();
                let want: Vec<usize> = (0..pend.len()).filter(|&i| pend[i].ready).collect();
                assert_eq!(got, want, "{cfg}");
                timer_only += usize::from(!pend.is_empty() && pend.iter().all(|e| e.timer));
                false
            });
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
                walk(&cfg, &cfg, 7, walks, |eng, _| {
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
                });
            }
        }
    }
}
