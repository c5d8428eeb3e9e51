//! The coherence engine: a deterministic scheduler over the per-node
//! master/home/slave modules.
//!
//! The engine itself owns no protocol state: the MESI caches and
//! outstanding transactions live in the [`MasterModule`]s, the directory
//! entries, memory values, and request queues in the [`HomeModule`]s,
//! and the intervention queues in the [`SlaveModule`]s. The engine's job
//! is purely to pop events off the [`MessageBus`], notify observers, and
//! route each event to the owning module.

use crate::addr::Addr;
use crate::cache::CacheState;
use crate::coherence::ProtocolId;
use crate::config::SystemConfig;
use crate::messages::{ProtoMsg, TxnId};
use crate::modules::bus::{
    BusMsg, GatherTimerOutcome, LinkTimerOutcome, MessageBus, NodeHealth, PendingEvent,
};
use crate::modules::{Ctx, NodeShard, TouchLog};
use crate::observer::{Observer, ObserverSet, TraceObserver};
use crate::params::{FaultInjection, ProtoParams, ProtocolKind, RecoveryError, RecoveryParams};
use crate::stats::EngineStats;
use cenju4_des::FxHashSet;
use cenju4_des::{Duration, SimTime};
use cenju4_directory::{DirectoryId, MemState, NodeId, NodeMap, SystemSize};
use cenju4_network::FaultPlan;
use core::fmt;

/// Why [`Engine::try_issue`] rejected an access. The legacy
/// [`Engine::issue`] panics on these instead of returning them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IssueError {
    /// The issuing node is outside the configured machine.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The machine size.
        nodes: u16,
    },
    /// The target block's home node is outside the configured machine.
    HomeOutOfRange {
        /// The block's home.
        home: NodeId,
        /// The machine size.
        nodes: u16,
    },
    /// The issue time precedes the current simulation time.
    TimeInPast {
        /// The requested issue time.
        at: SimTime,
        /// The current simulation time.
        now: SimTime,
    },
}

impl fmt::Display for IssueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssueError::NodeOutOfRange { node, nodes } => {
                write!(f, "issuing node {node} outside the {nodes}-node machine")
            }
            IssueError::HomeOutOfRange { home, nodes } => {
                write!(f, "block home {home} outside the {nodes}-node machine")
            }
            IssueError::TimeInPast { at, now } => {
                write!(f, "issue time {at} precedes current time {now}")
            }
        }
    }
}

impl std::error::Error for IssueError {}

/// A processor-issued memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// A load.
    Load,
    /// A store.
    Store,
}

/// What the engine reports back to its driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Notification {
    /// A memory access graduated.
    Completed {
        /// The issuing node.
        node: NodeId,
        /// The transaction id returned by [`Engine::issue`].
        txn: TxnId,
        /// The operation.
        op: MemOp,
        /// The target block.
        addr: Addr,
        /// When the access was issued.
        issued: SimTime,
        /// When it graduated.
        finished: SimTime,
        /// Whether it was satisfied in the local cache.
        hit: bool,
        /// Whether an L2 miss was satisfied from the node's main-memory
        /// third-level cache (update-protocol extension): a *local*
        /// access even when the block's home is remote.
        l3: bool,
        /// The data observed (loads) or written (stores). Stores write
        /// `txn + 1`, a unique non-zero token, so tests can check data
        /// freshness end to end.
        value: u64,
    },
    /// A user-level message arrived at its destination
    /// ([`Engine::mp_send`]).
    MessageDelivered {
        /// The receiving node.
        to: NodeId,
        /// The sending node.
        from: NodeId,
        /// The sender's tag.
        tag: u64,
        /// Transfer size in bytes.
        bytes: u64,
        /// When the send was issued.
        sent: SimTime,
        /// When the last byte was delivered.
        delivered: SimTime,
    },
    /// A marker scheduled with [`Engine::schedule_marker`] fired.
    Marker {
        /// The caller's token.
        token: u64,
        /// When it fired.
        at: SimTime,
    },
    /// The recovery layer exhausted a retry budget and gave up: the
    /// fabric lost something the configured budgets could not paper
    /// over. The run is no longer trustworthy — drivers should treat
    /// this as fatal.
    RecoveryFailed {
        /// When the budget ran out.
        at: SimTime,
        /// What gave up.
        error: RecoveryError,
    },
}

impl Notification {
    /// The access latency, for completion notifications.
    pub fn latency(&self) -> Option<Duration> {
        match self {
            Notification::Completed {
                issued, finished, ..
            } => Some(finished.since(*issued)),
            Notification::MessageDelivered {
                sent, delivered, ..
            } => Some(delivered.since(*sent)),
            Notification::Marker { .. } | Notification::RecoveryFailed { .. } => None,
        }
    }
}

/// The Cenju-4 DSM coherence engine.
///
/// The engine owns the per-node protocol modules, the message bus
/// (network fabric + discrete-event queue), and the observer set.
/// Drivers issue memory accesses with [`Engine::issue`] and pump the
/// simulation with [`Engine::run_next`] (one event at a time, its
/// notifications appended to a buffer the driver owns and reuses) or
/// [`Engine::run`] (to quiescence), reacting to [`Notification`]s.
/// Instrumentation — statistics, tracing, and anything user-defined —
/// attaches through [`Engine::add_observer`].
///
/// # Examples
///
/// ```
/// use cenju4_directory::NodeId;
/// use cenju4_des::SimTime;
/// use cenju4_protocol::{Addr, Engine, MemOp, SystemConfig};
///
/// let mut eng = Engine::new(&SystemConfig::builder(16).build()?);
/// let addr = Addr::new(NodeId::new(1), 0);
/// eng.issue(SimTime::ZERO, NodeId::new(0), MemOp::Load, addr);
/// let done = eng.run();
/// assert_eq!(done.len(), 1); // one completion
/// # Ok::<(), cenju4_protocol::ConfigError>(())
/// ```
pub struct Engine {
    sys: SystemSize,
    params: ProtoParams,
    kind: ProtocolKind,
    /// The coherence protocol's decision logic (MESI by default).
    coherence: ProtocolId,
    bus: MessageBus,
    /// Per-node protocol state, dense by node id.
    shards: Vec<NodeShard>,
    next_txn: TxnId,
    notifications: Vec<Notification>,
    update_blocks: FxHashSet<Addr>,
    observers: ObserverSet,
    fault: FaultInjection,
    /// Stall-watchdog state: the completion count and time of the last
    /// observed progress, and whether the current stall episode has
    /// already been reported.
    last_completed: u64,
    last_progress: SimTime,
    stalled: bool,
    /// Nodes the failure detector has ever quarantined. Oracles exempt
    /// their caches from coherence checks: a dead node's copies are
    /// unreachable by construction, and a revived node restarts cold.
    ever_down: FxHashSet<NodeId>,
    /// Blocks whose only up-to-date copy (a Dirty cache line) died with
    /// a quarantined owner — the home's memory is stale and the fresh
    /// value is unrecoverable. Value/convergence oracles skip these.
    lost_blocks: FxHashSet<Addr>,
    /// The blocks the last dispatch wrote (controlled engines only; see
    /// [`Engine::touched_blocks`]).
    touched: TouchLog,
    /// Dispatch steps executed (one per event routed by [`Engine::run_next`]).
    steps: u64,
}

// An engine owns every message in flight and every observer, so a live
// run can move to, or be forked onto, another thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine>();
};

/// [`Engine::fork`] and [`Engine::fork_into`] from one list of the
/// engine's fields, all but `observers` (which copy through
/// [`ObserverSet`], fallibly): `fork` builds a complete struct literal
/// from the list, so a field left off it does not compile, and
/// `fork_into` copies the same list.
macro_rules! engine_copies {
    ($($field:ident),+ $(,)?) => {
        /// A full copy of the engine at its current position: driving the
        /// copy and the original with the same inputs and choices produces
        /// identical notifications, statistics, traces, and fingerprints.
        /// Backtracking searches (the `cenju4-check` reduced explorer) fork
        /// a state once instead of replaying its pick path from the root.
        /// The copy owns every message in flight by value, so it shares
        /// nothing with the original and may move to another thread. To
        /// copy into an engine that is already allocated, reusing its
        /// buffers, use [`Engine::fork_into`].
        ///
        /// Returns `None` when a registered user observer does not
        /// implement [`Observer::fork`]. A fork is a live engine, not
        /// portable data: a run that only needs to be resumed
        /// later is checkpointed as its [`Engine::steps`] count and rebuilt
        /// by replaying its driver (see `cenju4_sim::Driver::resume`).
        pub fn fork(&self) -> Option<Engine> {
            Some(Engine {
                observers: self.observers.fork()?,
                $($field: self.$field.clone()),+
            })
        }

        /// [`Engine::fork`] into `dst`, an engine at any position of any
        /// configuration: afterwards `dst` is indistinguishable from a
        /// fork of `self`. Every field is copied with `clone_from`, so
        /// `dst`'s buffers, hash tables included, are reused where their
        /// sizes allow: into an engine at the same position, the copy
        /// allocates only for hash-table values that own buffers
        /// (full-map directory entries, for one), which are cloned
        /// afresh. Hash tables take the source's layout along with its
        /// contents, so iteration order, and with it every schedule,
        /// matches a fork's.
        ///
        /// Returns `false` when a registered user observer declines
        /// ([`Observer::fork_into`]); `dst` is then partly overwritten
        /// and must be overwritten again or dropped.
        pub fn fork_into(&self, dst: &mut Engine) -> bool {
            if !self.observers.fork_into(&mut dst.observers) {
                return false;
            }
            $(dst.$field.clone_from(&self.$field);)+
            true
        }
    };
}

impl Engine {
    /// Creates a fresh engine for the machine `cfg` describes: its size,
    /// network, protocol and directory selection, fault plan and
    /// recovery layer.
    pub fn new(cfg: &SystemConfig) -> Self {
        let sys = cfg.sys;
        Engine {
            sys,
            params: cfg.proto,
            kind: cfg.kind,
            coherence: cfg.coherence,
            bus: MessageBus::new(sys, cfg.net, cfg.fault.clone(), cfg.recovery),
            shards: (0..sys.nodes())
                .map(|i| NodeShard::new(NodeId::new(i), &cfg.proto, cfg.directory))
                .collect(),
            next_txn: 0,
            notifications: Vec::new(),
            update_blocks: FxHashSet::default(),
            observers: ObserverSet::default(),
            fault: FaultInjection::None,
            last_completed: 0,
            last_progress: SimTime::ZERO,
            stalled: false,
            ever_down: FxHashSet::default(),
            lost_blocks: FxHashSet::default(),
            touched: TouchLog::default(),
            steps: 0,
        }
    }

    engine_copies!(
        sys,
        params,
        kind,
        coherence,
        bus,
        shards,
        next_txn,
        notifications,
        update_blocks,
        fault,
        last_completed,
        last_progress,
        stalled,
        ever_down,
        lost_blocks,
        touched,
        steps,
    );

    /// The coherence protocol in force.
    pub fn coherence(&self) -> ProtocolId {
        self.coherence
    }

    /// The directory format fresh entries are created in.
    pub fn directory_format(&self) -> DirectoryId {
        self.shards
            .first()
            .map_or(DirectoryId::PointerPattern, |s| s.home.format)
    }

    /// Arms a test-only protocol or fabric mutation (see
    /// [`FaultInjection`]). Fabric mutants install their targeted
    /// [`FaultPlan`] on the network; protocol mutants mutate module
    /// behaviour. Used by the `cenju4-check` mutant runs to prove the
    /// invariant oracles can tell the correct protocol from broken ones;
    /// never used by production drivers.
    pub fn inject_fault(&mut self, fault: FaultInjection) {
        self.fault = fault;
        if let Some(plan) = fault.fabric_plan() {
            self.bus.set_fault_plan(plan);
        }
    }

    /// The installed fabric fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        self.bus.fault_plan()
    }

    /// The recovery-layer configuration in force.
    pub fn recovery(&self) -> RecoveryParams {
        self.bus.recovery()
    }

    /// Gathers currently open in the fabric. Zero at quiescence unless
    /// the fabric lost gather replies with recovery off.
    pub fn open_gathers(&self) -> usize {
        self.bus.open_gathers()
    }

    /// Switches the engine into **controlled-schedule mode**: events are
    /// parked instead of firing in time order, and the caller — a model
    /// checker — picks which ready event fires next via
    /// [`Engine::run_pending`]. Must be called before any access is
    /// issued.
    pub fn enable_controlled_schedule(&mut self) {
        self.bus.enable_controlled();
        self.touched.on = true;
    }

    /// Whether the engine is in controlled-schedule mode.
    pub fn is_controlled(&self) -> bool {
        self.bus.is_controlled()
    }

    /// The parked events of a controlled engine, sorted by (scheduled
    /// time, insertion sequence): index 0 is the event the uncontrolled
    /// simulation would fire next, and is always ready. Only events with
    /// `ready == true` are legal choices for [`Engine::run_pending`].
    pub fn pending_events(&self) -> Vec<PendingEvent> {
        self.bus.pending()
    }

    /// Writes the snapshots of the ready parked events of a controlled
    /// engine into `out` (cleared first), in choice order: exactly the
    /// `ready` entries of [`Engine::pending_events`], without building
    /// the others. A checker that keeps one buffer per search frame
    /// allocates nothing here once the buffer has grown.
    pub fn ready_events_into(&self, out: &mut Vec<PendingEvent>) {
        self.bus.ready_events_into(out);
    }

    /// Writes the choice indices of the ready parked events of a
    /// controlled engine into `out` (cleared first), ascending: exactly
    /// the positions of the `ready` events in [`Engine::pending_events`],
    /// without building the snapshot. Empty only when nothing is parked.
    /// A checker stepping with it reuses one buffer and allocates
    /// nothing per step.
    pub fn ready_choices(&self, out: &mut Vec<usize>) {
        self.bus.ready_into(out);
    }

    /// The blocks whose coherence state the last dispatch of a
    /// controlled engine wrote, without duplicates: a cache line's state
    /// or data at any node, a directory entry's state or sharer map, a
    /// home memory word. The blocks its [`Notification::Completed`] and
    /// [`Notification::RecoveryFailed`] notifications name are included
    /// too: a completed or abandoned store leaves the outstanding-store
    /// set, which can shrink the values a copy may legally hold without
    /// any write. Empty on an uncontrolled engine.
    ///
    /// Two changes are deliberately left out, because they can only
    /// remove copies from the oracles' view or exempt them, never break
    /// an invariant: the victim a fill evicts, and a node joining
    /// [`Engine::was_ever_down`] or a block joining
    /// [`Engine::value_compromised`]. A checker that re-checks only these
    /// blocks after a step therefore reaches the verdict a full scan
    /// would.
    pub fn touched_blocks(&self) -> &[Addr] {
        &self.touched.blocks
    }

    /// Number of parked events in a controlled engine.
    pub fn pending_event_count(&self) -> usize {
        self.bus.held_len()
    }

    /// Fires the parked event at sorted position `choice` (an index into
    /// [`Engine::pending_events`]), returning the notifications it
    /// produced, or `None` when no events remain. Allocates a fresh
    /// `Vec` per call; a step loop reuses one buffer through
    /// [`Engine::run_pending_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the chosen event is not ready — firing it would reorder
    /// an in-order delivery channel the real network guarantees.
    pub fn run_pending(&mut self, choice: usize) -> Option<Vec<Notification>> {
        let mut notes = Vec::new();
        self.run_pending_into(choice, &mut notes).then_some(notes)
    }

    /// [`Engine::run_pending`] in [`Engine::run_next`]'s shape: fires the
    /// parked event at sorted position `choice`, appending the
    /// notifications it produced to `notes`. Returns `false`, touching
    /// nothing, when no events remain. A checker that clears `notes`
    /// between steps allocates nothing per step once the buffer has
    /// grown.
    ///
    /// # Panics
    ///
    /// Panics if the chosen event is not ready.
    pub fn run_pending_into(&mut self, choice: usize, notes: &mut Vec<Notification>) -> bool {
        let Some((at, ev)) = self.bus.pop_held(choice) else {
            return false;
        };
        self.dispatch(at, ev);
        if !self.notifications.is_empty() {
            notes.append(&mut self.notifications);
        }
        true
    }

    /// Enables protocol event tracing, retaining the most recent
    /// `capacity` events. Inspect with [`Engine::trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.observers.trace = TraceObserver::with_capacity(capacity);
    }

    /// The event trace (empty unless [`Engine::enable_trace`] was called).
    pub fn trace(&self) -> &crate::trace::Trace {
        self.observers.trace.trace()
    }

    /// Registers an [`Observer`] to be notified of protocol events,
    /// after the built-in statistics and trace observers. Retrieve it
    /// later with [`Engine::observer`].
    pub fn add_observer(&mut self, obs: Box<dyn Observer>) {
        self.observers.user.push(obs);
    }

    /// The first registered observer of concrete type `T`, if any.
    pub fn observer<T: Observer + 'static>(&self) -> Option<&T> {
        self.observers
            .user
            .iter()
            .find_map(|o| o.as_ref().as_any().downcast_ref::<T>())
    }

    /// The machine size.
    pub fn system(&self) -> SystemSize {
        self.sys
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.bus.now()
    }

    /// Dispatch steps executed so far (one per event routed by
    /// [`Engine::run_next`]).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Engine counters (maintained by the built-in stats observer).
    pub fn stats(&self) -> &EngineStats {
        self.observers.stats.stats()
    }

    /// Network counters.
    pub fn net_stats(&self) -> &cenju4_network::NetStats {
        self.bus.net_stats()
    }

    /// The protocol parameters in force.
    pub fn params(&self) -> &ProtoParams {
        &self.params
    }

    /// Switches `addr` to the **update protocol** with main-memory
    /// third-level caching — the extension Section 4.2.3 of the paper
    /// proposes for CG-like access patterns. The block then runs
    /// [`Rules::UpdateBlock`](crate::coherence::Rules::UpdateBlock)
    /// through the same master/home/slave handlers as every other block,
    /// whatever the machine's protocol: stores write through to the
    /// home, which pushes the fresh data to every subscriber instead of
    /// invalidating them, and an L2 miss on a subscribing node refills
    /// from its own main memory at local cost.
    ///
    /// # Panics
    ///
    /// Panics if the block has already been accessed (mark blocks before
    /// first use; migrating a live block between protocols is not
    /// modeled).
    pub fn mark_update_block(&mut self, addr: Addr) {
        let fresh = self.shards[addr.home().as_usize()]
            .home
            .directory
            .get(&addr)
            .is_none_or(|e| e.state() == MemState::Clean && e.map().is_empty());
        assert!(fresh, "mark_update_block on a live block");
        self.update_blocks.insert(addr);
    }

    /// Whether `node`'s third-level cache holds a fresh copy of `addr`.
    pub fn l3_valid(&self, node: NodeId, addr: Addr) -> bool {
        self.shards[node.as_usize()].master.l3.contains_key(&addr)
    }

    /// The data in `addr`'s home memory (0 if never written).
    pub fn memory_value(&self, addr: Addr) -> u64 {
        self.shards[addr.home().as_usize()].home.mem_value(addr)
    }

    /// The data in `node`'s cached copy of `addr` (0 if absent).
    pub fn cache_value(&self, node: NodeId, addr: Addr) -> u64 {
        self.shards[node.as_usize()].master.cache.value(addr)
    }

    /// The MESI state of `addr` in `node`'s cache (observability for
    /// tests and experiments).
    pub fn cache_state(&self, node: NodeId, addr: Addr) -> CacheState {
        self.shards[node.as_usize()].master.cache.state(addr)
    }

    /// The nodes the directory currently records for `addr` (the
    /// represented set — possibly a superset of the true sharers).
    pub fn directory_sharers(&self, addr: Addr) -> Vec<NodeId> {
        self.shards[addr.home().as_usize()]
            .home
            .directory
            .get(&addr)
            .map(|e| e.map().represented())
            .unwrap_or_default()
    }

    /// Whether the directory's represented set for `addr` includes
    /// `node` — [`Engine::directory_sharers`]`(addr).contains(&node)`
    /// without materializing the set.
    pub fn directory_represents(&self, addr: Addr, node: NodeId) -> bool {
        self.shards[addr.home().as_usize()]
            .home
            .directory
            .get(&addr)
            .is_some_and(|e| e.map().contains(node))
    }

    /// The directory state of `addr` at its home (Clean if never touched).
    pub fn memory_state(&self, addr: Addr) -> MemState {
        self.shards[addr.home().as_usize()]
            .home
            .directory
            .get(&addr)
            .map_or(MemState::Clean, |e| e.state())
    }

    /// The deepest main-memory request-queue backlog seen at any home.
    /// The paper's starvation-freedom argument bounds this by
    /// `nodes × 4` (4096 entries / 32 KB on the full machine).
    pub fn max_request_queue_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.home.req_queue_hwm)
            .max()
            .unwrap_or(0)
    }

    /// The deepest slave-module input backlog seen at any node. The
    /// paper bounds the slave's main-memory spill buffer by `nodes × 4`
    /// messages (64 KB on the full machine).
    pub fn max_slave_input_depth(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.slave.input_q.depth_high_water())
            .max()
            .unwrap_or(0)
    }

    /// The deepest master-module input backlog seen at any node; bounded
    /// by the four outstanding requests a processor may have.
    pub fn max_master_input_depth(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.master.input_q.depth_high_water())
            .max()
            .unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Checker inspection
    // ------------------------------------------------------------------

    /// Transactions that have been issued but not yet graduated, summed
    /// across every master's outstanding table and access backlog. Zero
    /// at quiescence — anything else with an empty event set means the
    /// protocol lost a transaction.
    pub fn outstanding_txn_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.master.outstanding.len() + s.master.backlog.len())
            .sum()
    }

    /// The values of every store to `addr` that has been issued but not
    /// yet graduated, across all masters (checker observability: under
    /// an update protocol, a copy may legitimately hold one of these
    /// mid-push).
    pub fn outstanding_store_values(&self, addr: Addr) -> impl Iterator<Item = u64> + '_ {
        self.shards
            .iter()
            .flat_map(|s| s.master.outstanding.values())
            .filter(move |t| t.op == MemOp::Store && t.addr == addr)
            .map(|t| t.store_value)
    }

    /// Requests currently parked in `home`'s main-memory queue.
    pub fn request_queue_len(&self, home: NodeId) -> usize {
        self.shards[home.as_usize()].home.req_queue.len()
    }

    /// Transactions `home` is currently waiting on (forwarded requests
    /// and outstanding invalidation gathers).
    pub fn home_pending_count(&self, home: NodeId) -> usize {
        self.shards[home.as_usize()].home.pending.len()
    }

    /// The failure detector's view of `node` ([`NodeHealth::Up`] when
    /// the detector is inactive).
    pub fn node_health(&self, node: NodeId) -> NodeHealth {
        self.bus.node_health(node)
    }

    /// Whether `node` was ever quarantined during this run (it may have
    /// rejoined since). Checker oracles exempt such nodes' caches from
    /// coherence checks.
    pub fn was_ever_down(&self, node: NodeId) -> bool {
        self.ever_down.contains(&node)
    }

    /// Whether `addr`'s value can no longer be trusted end to end: its
    /// only up-to-date copy died with a quarantined owner, or its home
    /// node was down at some point (losing the directory's knowledge of
    /// live copies). Value/freshness/convergence oracles skip these.
    pub fn value_compromised(&self, addr: Addr) -> bool {
        self.lost_blocks.contains(&addr) || self.ever_down.contains(&addr.home())
    }

    /// A 64-bit fingerprint of the protocol state of a controlled
    /// engine, canonical over the given block universe: per-block
    /// directory entries (the raw representation, so two entries with
    /// the same represented set but different pointer/pattern or
    /// broadcast modes stay distinct — see `SharerSet::fold_raw`),
    /// memory words, cache lines and third-level copies per
    /// node, home pending tables and request queues, master outstanding
    /// tables and backlogs, plus the parked event set folded per ordering
    /// channel and the fabric's in-flight gather combining state.
    ///
    /// Unordered state — outstanding-transaction tables, the lost-block
    /// and ever-down sets, the parked events (see `MessageBus::fold_held`)
    /// and open gathers — folds as order-independent multiset digests
    /// ([`cenju4_des::MultisetDigest`]), and parked events contribute the
    /// content digests cached when they were parked, so a call allocates
    /// nothing and re-hashes no message. Fingerprint *values* carry no
    /// meaning beyond equality.
    ///
    /// Absolute timestamps (scheduled times, virtual clock, service-queue
    /// reservations) and LRU recency are deliberately excluded: the
    /// checker treats two states as equal when every future *protocol*
    /// transition from them agrees, which per-channel delivery order
    /// captures and absolute times do not. Two consequences the checker's
    /// callers accept: depth high-water statistics may differ between
    /// merged states, and cache evictions (impossible under checker-sized
    /// workloads, which never fill a set) would make LRU recency matter.
    ///
    /// # Panics
    ///
    /// Panics when the engine is not in controlled-schedule mode.
    pub fn state_fingerprint(&self, blocks: &[Addr]) -> u64 {
        use cenju4_des::{FxHasher, MultisetDigest};
        use std::hash::{Hash, Hasher};
        let mut h = FxHasher::default();
        self.fold_ordered_state(blocks, &mut h);
        for shard in &self.shards {
            let mut outstanding = MultisetDigest::default();
            for (txn, t) in &shard.master.outstanding {
                outstanding.insert(&(txn, t.op, t.addr, t.retries, t.backoffs, t.store_value));
            }
            outstanding.hash(&mut h);
        }
        MultisetDigest::of(&self.lost_blocks).hash(&mut h);
        MultisetDigest::of(&self.ever_down).hash(&mut h);
        self.bus.fold_held(&mut h);
        h.finish()
    }

    /// The sort-based fingerprint [`Engine::state_fingerprint`] replaced:
    /// outstanding transactions, lost blocks and down nodes sorted into
    /// fresh `Vec`s, parked events re-hashed in canonical channel order.
    /// A test reference that partitions states exactly as the fingerprint
    /// does, kept for the differential tests; not for library use.
    #[doc(hidden)]
    pub fn state_fingerprint_sorted(&self, blocks: &[Addr]) -> u64 {
        use cenju4_des::FxHasher;
        use std::hash::{Hash, Hasher};
        let mut h = FxHasher::default();
        self.fold_ordered_state(blocks, &mut h);
        for shard in &self.shards {
            let mut outstanding: Vec<(TxnId, &crate::modules::master::MasterTxn)> = shard
                .master
                .outstanding
                .iter()
                .map(|(t, x)| (*t, x))
                .collect();
            outstanding.sort_unstable_by_key(|(t, _)| *t);
            outstanding.len().hash(&mut h);
            for (txn, t) in outstanding {
                (txn, t.op, t.addr, t.retries, t.backoffs, t.store_value).hash(&mut h);
            }
        }
        let mut lost: Vec<Addr> = self.lost_blocks.iter().copied().collect();
        lost.sort_unstable();
        lost.hash(&mut h);
        let mut down: Vec<NodeId> = self.ever_down.iter().copied().collect();
        down.sort_unstable();
        down.hash(&mut h);
        self.bus.fold_held_sorted(&mut h);
        h.finish()
    }

    /// The ordered part of the state fingerprint, shared with its sorted
    /// reference: per-block coherence state, then each node's home
    /// request queue and master backlog in queue order.
    fn fold_ordered_state(&self, blocks: &[Addr], h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        for &addr in blocks {
            addr.hash(h);
            let home = &self.shards[addr.home().as_usize()].home;
            match home.directory.get(&addr) {
                Some(e) => {
                    (true, e.state(), e.reservation()).hash(h);
                    e.map().fold_raw(h);
                }
                None => false.hash(h),
            }
            home.mem.get(&addr).hash(h);
            match home.pending.get(&addr) {
                Some(p) => {
                    (true, p.master, p.txn, p.kind).hash(h);
                    match &p.expect {
                        crate::modules::home::Expect::SlaveReply => 0u8.hash(h),
                        crate::modules::home::Expect::InvAcks { remaining } => {
                            (1u8, remaining).hash(h)
                        }
                    }
                }
                None => false.hash(h),
            }
            for shard in &self.shards {
                // A tuple hashes its fields in order: the state's bytes,
                // then the value's, which the pinned state counts rely on.
                shard.master.cache.state_and_value(addr).hash(h);
                shard.master.l3.get(&addr).hash(h);
            }
        }
        for shard in &self.shards {
            shard.home.req_queue.len().hash(h);
            for q in &shard.home.req_queue {
                (q.kind, q.addr, q.master, q.txn, q.value).hash(h);
            }
            shard.master.backlog.len().hash(h);
            for (op, addr, txn, _issued) in &shard.master.backlog {
                (op, addr, txn).hash(h);
            }
        }
    }

    // ------------------------------------------------------------------
    // Driver interface
    // ------------------------------------------------------------------

    /// Schedules a memory access at time `at` (≥ the current time).
    /// Returns the transaction id that will appear in the completion
    /// notification.
    ///
    /// # Panics
    ///
    /// Panics on the conditions [`Engine::try_issue`] reports as errors:
    /// out-of-range node or home, or an issue time in the past.
    pub fn issue(&mut self, at: SimTime, node: NodeId, op: MemOp, addr: Addr) -> TxnId {
        self.try_issue(at, node, op, addr)
            .unwrap_or_else(|e| panic!("issue rejected: {e}"))
    }

    /// Schedules a memory access, validating it first: the issuing node
    /// and the block's home must lie inside the machine, and `at` must
    /// not precede the current simulation time. The panicking
    /// [`Engine::issue`] delegates here.
    pub fn try_issue(
        &mut self,
        at: SimTime,
        node: NodeId,
        op: MemOp,
        addr: Addr,
    ) -> Result<TxnId, IssueError> {
        let nodes = self.sys.nodes();
        if !self.sys.contains(node) {
            return Err(IssueError::NodeOutOfRange { node, nodes });
        }
        if !self.sys.contains(addr.home()) {
            return Err(IssueError::HomeOutOfRange {
                home: addr.home(),
                nodes,
            });
        }
        let now = self.now();
        if at < now {
            return Err(IssueError::TimeInPast { at, now });
        }
        let txn = self.next_txn;
        self.next_txn += 1;
        self.bus.schedule(
            at,
            BusMsg::Access {
                node,
                op,
                addr,
                txn,
            },
        );
        Ok(txn)
    }

    /// Sends a user-level message of `bytes` bytes from `src` to `dst` at
    /// time `at`, over the same network the DSM uses (so bulk transfers
    /// and coherence traffic contend for the NICs and switch ports). A
    /// [`Notification::MessageDelivered`] fires at the receiver when the
    /// last byte lands.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn mp_send(&mut self, at: SimTime, src: NodeId, dst: NodeId, bytes: u64, tag: u64) {
        assert_ne!(src, dst, "node-local messages need no network");
        let sw = self.params.mp_software;
        let msg = ProtoMsg::UserMessage {
            addr: Addr::new(dst, 0),
            tag,
            bytes,
        };
        // Half the software overhead on the send side, half on receive.
        let d = self
            .bus
            .send_bulk(at + Duration::from_ns(sw.as_ns() / 2), src, dst, bytes, msg);
        self.bus.schedule(
            d.at + Duration::from_ns(sw.as_ns() - sw.as_ns() / 2),
            BusMsg::MpDeliver {
                to: dst,
                from: src,
                tag,
                bytes,
                sent: at,
            },
        );
    }

    /// Schedules a marker notification at `at` — the driver's way of
    /// interleaving its own timed work (think time, synchronization) with
    /// protocol events.
    pub fn schedule_marker(&mut self, at: SimTime, token: u64) {
        self.bus.schedule(at, BusMsg::Marker(token));
    }

    /// Processes a single event, appending the notifications it produced
    /// to `notes`. Returns `false`, touching nothing, when the simulation
    /// is quiescent. A driver that clears `notes` between steps allocates
    /// nothing per step once the buffer has grown.
    pub fn run_next(&mut self, notes: &mut Vec<Notification>) -> bool {
        let Some((at, ev)) = self.bus.pop() else {
            return false;
        };
        self.dispatch(at, ev);
        // Most steps notify nothing; skip `append`'s out-of-line copy.
        // A caller that drained its buffer takes the engine's whole: the
        // buffers trade places, and the engine refills the caller's.
        if notes.is_empty() {
            std::mem::swap(notes, &mut self.notifications);
        } else if !self.notifications.is_empty() {
            notes.append(&mut self.notifications);
        }
        true
    }

    /// Runs to quiescence, returning every notification produced.
    pub fn run(&mut self) -> Vec<Notification> {
        let mut out = Vec::new();
        while self.run_next(&mut out) {}
        // On a reliable (or recovered) fabric every gather must have
        // closed by quiescence; an open one is a combining-state leak.
        // With recovery off on a faulty fabric a leak is the *expected*
        // symptom of a lost reply, so the check is skipped.
        if self.bus.armed() || self.bus.fault_plan().is_none() {
            debug_assert_eq!(self.bus.open_gathers(), 0, "gather leaked at quiescence");
        }
        out
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    /// Notifies observers of the event, then routes it to the module
    /// that owns the corresponding state. Sequenced frames pass the
    /// link layer's receiver-side admission first; discarded duplicates
    /// and gaps never reach observers or modules. Afterwards the fabric's
    /// fault log is drained and the stall watchdog checked.
    fn dispatch(&mut self, at: SimTime, ev: BusMsg) {
        self.steps += 1;
        self.touched.blocks.clear();
        self.dispatch_inner(at, ev);
        for e in self.bus.take_fault_events() {
            self.observers.on_fault_injected(&e);
        }
        self.check_stall(at);
    }

    fn dispatch_inner(&mut self, at: SimTime, ev: BusMsg) {
        // Link-layer admission and timers — handled before the protocol
        // (or any observer) sees anything.
        match &ev {
            BusMsg::Recv { dst, src, seq, .. } => {
                // A quarantined endpoint neither sends nor receives:
                // frames still in flight when the detector isolated it
                // are discarded at delivery admission, exactly like a
                // link-layer gap.
                if self.bus.detector_active()
                    && (self.bus.node_health(*dst) == NodeHealth::Quarantined
                        || self.bus.node_health(*src) == NodeHealth::Quarantined)
                {
                    self.observers.on_link_discard(at, *dst, *src, "dead-node");
                    return;
                }
                if let Some(seq) = seq {
                    if let Some(reason) = self.bus.accept_frame(*src, *dst, *seq) {
                        self.observers.on_link_discard(at, *dst, *src, reason);
                        return;
                    }
                }
            }
            BusMsg::Access {
                node, addr, txn, ..
            } => {
                // An access issued on a dead node — or targeting a block
                // homed at one — is abandoned before any observer sees
                // it, so no span ever opens for it.
                let dead = if self.bus.node_health(*node) == NodeHealth::Quarantined {
                    Some(*node)
                } else if self.bus.node_health(addr.home()) == NodeHealth::Quarantined {
                    Some(addr.home())
                } else {
                    None
                };
                if let Some(dead) = dead {
                    let (node, addr, txn) = (*node, *addr, *txn);
                    self.recovery_failed(
                        at,
                        RecoveryError::NodeUnavailable {
                            node,
                            dead,
                            txn,
                            addr,
                        },
                    );
                    return;
                }
            }
            BusMsg::Retry { node, .. }
                if self.bus.node_health(*node) == NodeHealth::Quarantined =>
            {
                return;
            }
            // The dead master's transactions were abandoned at
            // quarantine; their timers drain silently. Survivors'
            // timers still fire (and fail fast on a dead home).
            BusMsg::TxnTimer { node, .. }
                if self.bus.node_health(*node) == NodeHealth::Quarantined =>
            {
                return;
            }
            BusMsg::LinkTimer { src, dst } => {
                let (src, dst) = (*src, *dst);
                match self.bus.link_timer(at, src, dst) {
                    LinkTimerOutcome::Idle => {}
                    LinkTimerOutcome::Retransmitted { frames, attempt } => {
                        self.observers.on_retransmit(at, src, dst, frames, attempt);
                        // Repeated retransmissions on a wire are the
                        // detector's suspicion evidence: either endpoint
                        // may be the silent one, so both are probed.
                        if self.bus.detector_active()
                            && attempt >= self.bus.recovery().suspect_after
                        {
                            self.suspect(at, src);
                            self.suspect(at, dst);
                        }
                    }
                    LinkTimerOutcome::GaveUp(err) => self.recovery_failed(at, err),
                }
                return;
            }
            BusMsg::GatherTimer { home, id } => {
                let (home, id) = (*home, *id);
                match self.bus.gather_timer(at, home, id) {
                    GatherTimerOutcome::Done => {}
                    GatherTimerOutcome::Reissued { copies, attempt } => {
                        self.observers.on_gather_reissue(at, home, copies, attempt);
                    }
                    GatherTimerOutcome::GaveUp(err) => self.recovery_failed(at, err),
                }
                return;
            }
            BusMsg::ProbeTimer { node } => {
                self.probe(at, *node);
                return;
            }
            BusMsg::RejoinTimer { node } => {
                self.rejoin(at, *node);
                return;
            }
            _ => {}
        }
        match &ev {
            BusMsg::Access {
                node,
                op,
                addr,
                txn,
            } => self.observers.on_access(at, *node, *op, *addr, *txn),
            BusMsg::Retry { node, txn } => self.observers.on_retry(at, *node, *txn),
            BusMsg::Marker(token) => self.observers.on_marker(at, *token),
            BusMsg::MpDeliver {
                to,
                from,
                tag,
                bytes,
                ..
            } => self.observers.on_mp_delivered(at, *to, *from, *tag, *bytes),
            BusMsg::Recv { dst, src, msg, .. } => self.observers.on_receive(at, *dst, *src, msg),
            BusMsg::LinkTimer { .. }
            | BusMsg::GatherTimer { .. }
            | BusMsg::TxnTimer { .. }
            | BusMsg::ProbeTimer { .. }
            | BusMsg::RejoinTimer { .. } => {}
        }
        let ctx = &mut Ctx {
            params: self.params,
            kind: self.kind,
            sys: self.sys,
            bus: &mut self.bus,
            obs: &mut self.observers,
            notes: &mut self.notifications,
            touched: &mut self.touched,
            protocol: self.coherence.rules(),
            marked: &self.update_blocks,
            fault: self.fault,
        };
        match ev {
            BusMsg::Access {
                node,
                op,
                addr,
                txn,
            } => self.shards[node.as_usize()]
                .master
                .handle_access(ctx, at, op, addr, txn),
            BusMsg::Marker(token) => ctx.note(Notification::Marker { token, at }),
            BusMsg::MpDeliver {
                to,
                from,
                tag,
                bytes,
                sent,
            } => ctx.note(Notification::MessageDelivered {
                to,
                from,
                tag,
                bytes,
                sent,
                delivered: at,
            }),
            BusMsg::Retry { node, txn } => self.shards[node.as_usize()]
                .master
                .handle_retry(ctx, at, txn),
            BusMsg::TxnTimer { node, txn } => {
                if let Some(err) = self.shards[node.as_usize()]
                    .master
                    .handle_txn_timer(ctx, at, txn)
                {
                    self.recovery_failed(at, err);
                }
            }
            BusMsg::LinkTimer { .. }
            | BusMsg::GatherTimer { .. }
            | BusMsg::ProbeTimer { .. }
            | BusMsg::RejoinTimer { .. } => {
                unreachable!("link-layer and detector timers are handled before module routing")
            }
            BusMsg::Recv {
                dst,
                src,
                msg,
                gather,
                ..
            } => match &msg {
                ProtoMsg::Request { .. } | ProtoMsg::WriteBack { .. } => {
                    self.shards[dst.as_usize()].home.recv(ctx, at, msg)
                }
                ProtoMsg::SlaveReply { .. } | ProtoMsg::InvAck { .. } => {
                    self.shards[dst.as_usize()].home.reply_recv(ctx, at, msg)
                }
                ProtoMsg::Forward { .. }
                | ProtoMsg::Invalidate { .. }
                | ProtoMsg::Update { .. } => {
                    let shard = &mut self.shards[dst.as_usize()];
                    shard
                        .slave
                        .recv(ctx, at, src, msg, gather, &mut shard.master)
                }
                ProtoMsg::DataReply { .. } | ProtoMsg::AckReply { .. } | ProtoMsg::Nack { .. } => {
                    self.shards[dst.as_usize()].master.recv(ctx, at, msg)
                }
                ProtoMsg::UserMessage { .. } => {
                    unreachable!("user messages are delivered via MpDeliver")
                }
            },
        }
    }

    /// Reports a recovery-budget exhaustion to observers and the driver.
    fn recovery_failed(&mut self, at: SimTime, error: RecoveryError) {
        if let RecoveryError::TransactionTimeout { addr, .. }
        | RecoveryError::NodeUnavailable { addr, .. } = error
        {
            self.touched.note(addr);
        }
        self.observers.on_recovery_error(at, &error);
        self.notifications
            .push(Notification::RecoveryFailed { at, error });
    }

    // ------------------------------------------------------------------
    // Failure detector
    // ------------------------------------------------------------------

    /// Moves an `Up` node to `Suspected` and schedules a probe. Called
    /// for both endpoints of a wire that keeps retransmitting — either
    /// may be the silent one; the probe sorts it out.
    fn suspect(&mut self, at: SimTime, node: NodeId) {
        if self.bus.node_health(node) != NodeHealth::Up {
            return;
        }
        self.bus.set_node_health(node, NodeHealth::Suspected);
        self.observers.on_node_suspected(at, node);
        let every = self.bus.recovery().heartbeat_every;
        self.bus.schedule(at + every, BusMsg::ProbeTimer { node });
    }

    /// Probes a suspected node. The fault plan is ground truth for
    /// reachability — a real probe frame would be dropped by the fabric
    /// exactly when the plan says the node is down — so consulting it
    /// directly keeps the detector deterministic without adding probe
    /// traffic that would perturb armed golden traces.
    fn probe(&mut self, at: SimTime, node: NodeId) {
        if self.bus.node_health(node) != NodeHealth::Suspected {
            return;
        }
        if self.bus.fault_plan().node_down_at(at.as_ns(), node) {
            // Quarantine disabled (checker mutant): the suspect is never
            // isolated, so its transactions run their retry budgets into
            // the recovery errors the oracles flag as violations.
            if self.bus.recovery().quarantine {
                self.quarantine(at, node);
            }
        } else {
            // Spurious suspicion (a lossy link, not a dead node).
            self.bus.set_node_health(node, NodeHealth::Up);
        }
    }

    /// Isolates a dead node and scrubs every structure that still refers
    /// to it, so the survivors converge instead of retrying forever.
    fn quarantine(&mut self, at: SimTime, node: NodeId) {
        self.bus.set_node_health(node, NodeHealth::Quarantined);
        self.ever_down.insert(node);
        self.observers.on_node_quarantined(at, node);
        // 1. Drop unacked frames on every wire touching the node, so the
        //    go-back-N timers drain idle instead of retransmitting into
        //    the void.
        self.bus.scrub_node_links(node);
        // 2. In-flight gathers touching the dead node can never combine
        //    a full reply in the fabric. Cancel them; each surviving
        //    home's wait completes with a synthesized full-count ack —
        //    the dead sharer is treated as already invalidated.
        let gathers = self.bus.scrub_gathers_touching(node);
        for (home, addr, txn, expected) in gathers {
            self.observers.on_gather_scrub(at, home, addr);
            let ctx = &mut Ctx {
                params: self.params,
                kind: self.kind,
                sys: self.sys,
                bus: &mut self.bus,
                obs: &mut self.observers,
                notes: &mut self.notifications,
                touched: &mut self.touched,
                protocol: self.coherence.rules(),
                marked: &self.update_blocks,
                fault: self.fault,
            };
            self.shards[home.as_usize()].home.reply_recv(
                ctx,
                at,
                ProtoMsg::InvAck {
                    addr,
                    txn,
                    acks: expected,
                },
            );
        }
        // 3. Every surviving home scrubs the dead node from its
        //    directory maps and completes pendings that were waiting on
        //    it, via synthesized replies fed through the normal path.
        for i in 0..self.sys.nodes() {
            let h = NodeId::new(i);
            if h == node {
                continue;
            }
            let scrub =
                self.shards[h.as_usize()]
                    .home
                    .scrub_node(node, self.sys, &mut self.touched);
            self.lost_blocks.extend(scrub.lost);
            for msg in scrub.replies {
                let ctx = &mut Ctx {
                    params: self.params,
                    kind: self.kind,
                    sys: self.sys,
                    bus: &mut self.bus,
                    obs: &mut self.observers,
                    notes: &mut self.notifications,
                    touched: &mut self.touched,
                    protocol: self.coherence.rules(),
                    marked: &self.update_blocks,
                    fault: self.fault,
                };
                self.shards[h.as_usize()].home.reply_recv(ctx, at, msg);
            }
        }
        // 4. The dead node's own home forgets its in-flight work (the
        //    directory and memory survive for a later rejoin), and its
        //    master abandons every outstanding transaction.
        self.shards[node.as_usize()].home.scrub_self();
        let abandoned = self.shards[node.as_usize()].master.abandon_all();
        for (txn, addr) in abandoned {
            self.recovery_failed(
                at,
                RecoveryError::NodeUnavailable {
                    node,
                    dead: node,
                    txn,
                    addr,
                },
            );
        }
        // 5. If the fault plan revives the node later, schedule the
        //    rejoin handshake for the end of the down window.
        let revive = self.bus.fault_plan().node_revives_at(at.as_ns(), node);
        if let Some(ns) = revive {
            self.bus
                .schedule(SimTime::from_ns(ns), BusMsg::RejoinTimer { node });
        }
    }

    /// Rejoins a revived node cold: fresh link state, empty cache and
    /// L3, an empty directory (memory survives the outage), and a
    /// directory-scrub handshake — survivors drop cached copies of
    /// blocks homed at the revived node, since its directory no longer
    /// knows about them.
    fn rejoin(&mut self, at: SimTime, node: NodeId) {
        if self.bus.node_health(node) != NodeHealth::Quarantined {
            return;
        }
        self.bus.set_node_health(node, NodeHealth::Up);
        self.bus.reset_node_links(node);
        let shard = &mut self.shards[node.as_usize()];
        shard.master.rejoin_cold(&mut self.touched);
        shard.home.rejoin_cold(&mut self.touched);
        for i in 0..self.sys.nodes() {
            let m = NodeId::new(i);
            if m == node {
                continue;
            }
            self.shards[m.as_usize()]
                .master
                .drop_blocks_homed_at(node, &mut self.touched);
        }
        self.observers.on_node_rejoined(at, node);
    }

    /// The stall watchdog: O(1) on the hot path (a counter comparison);
    /// the outstanding-work scan only runs once the idle threshold is
    /// crossed. Fires [`Observer::on_stall`] once per stall episode —
    /// a completion re-arms it. A drained event queue is *not* a stall
    /// (nothing will ever fire again); that case is the quiescence
    /// oracle's to catch. The watchdog catches livelock: events still
    /// flowing, nothing graduating.
    fn check_stall(&mut self, at: SimTime) {
        let wd = self.bus.recovery().watchdog;
        if wd == Duration::ZERO {
            return;
        }
        let completed = self.observers.stats.stats().completed.get();
        if completed != self.last_completed {
            self.last_completed = completed;
            self.last_progress = at;
            self.stalled = false;
        } else if !self.stalled && at.since(self.last_progress) >= wd {
            let outstanding = self.outstanding_txn_count();
            if outstanding > 0 {
                self.stalled = true;
                self.observers
                    .on_stall(at, outstanding, at.since(self.last_progress));
            } else {
                // Nothing is waiting; idle time is not a stall.
                self.last_progress = at;
            }
        }
    }
}
