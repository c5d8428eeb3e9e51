//! Pluggable protocol instrumentation.
//!
//! The engine routes events to the master/home/slave modules and notifies
//! every registered [`Observer`] at well-defined points: message sends and
//! receives, state transitions, queue-depth changes, request issue/defer,
//! completions. Statistics ([`StatsObserver`]), event tracing
//! ([`TraceObserver`]) and the Figure-6 starvation probe
//! ([`StarvationProbe`]) are all ordinary observers — new instrumentation
//! needs no engine edits.
//!
//! # Examples
//!
//! Counting invalidation transactions per home node:
//!
//! ```
//! use cenju4_directory::NodeId;
//! use cenju4_des::SimTime;
//! use cenju4_protocol::observer::Observer;
//! use cenju4_protocol::{Addr, Engine, MemOp, SystemConfig};
//! use cenju4_des::FxHashMap;
//!
//! #[derive(Default)]
//! struct InvalidationsPerHome(FxHashMap<NodeId, u64>);
//!
//! impl Observer for InvalidationsPerHome {
//!     fn on_invalidation(&mut self, _at: SimTime, home: NodeId, _addr: Addr, _copies: u32) {
//!         *self.0.entry(home).or_default() += 1;
//!     }
//! }
//!
//! let mut eng = Engine::new(&SystemConfig::builder(16).build()?);
//! eng.add_observer(Box::new(InvalidationsPerHome::default()));
//! let addr = Addr::new(NodeId::new(3), 0);
//! for n in 0..2u16 {
//!     eng.issue(eng.now(), NodeId::new(n), MemOp::Load, addr);
//!     eng.run();
//! }
//! eng.issue(eng.now(), NodeId::new(0), MemOp::Store, addr); // invalidates node 1
//! eng.run();
//! let probe: &InvalidationsPerHome = eng.observer().unwrap();
//! assert_eq!(probe.0[&NodeId::new(3)], 1);
//! # Ok::<(), cenju4_protocol::ConfigError>(())
//! ```

use crate::addr::Addr;
use crate::cache::CacheState;
use crate::engine::MemOp;
use crate::messages::{ProtoMsg, ReqKind, TxnId};
use crate::params::RecoveryError;
use crate::stats::EngineStats;
use crate::trace::{Trace, TraceRecord};
use cenju4_des::FxHashMap;
use cenju4_des::{Duration, SimTime};
use cenju4_directory::{MemState, NodeId};
use cenju4_network::FaultEvent;
use std::any::Any;

/// A typed milestone inside one coherence transaction's lifetime,
/// reported through [`Observer::on_phase`]. Phases carry the transaction
/// id of the request they belong to, so span-based instrumentation can
/// reconstruct "what did transaction N do, hop by hop" without parsing
/// message traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// The home found the block pending and parked the request in its
    /// main-memory queue (`depth` = occupancy after parking).
    QueuedAtHome {
        /// Queue occupancy after the request was parked.
        depth: u32,
    },
    /// A parked request's reservation-wait ended: the queue head was
    /// woken and re-entered directory service.
    ReservationWait,
    /// The home forwarded the request to the dirty owner's slave.
    Forwarded,
    /// The home fanned an invalidation or update out to `copies` sharers
    /// (multicast or singlecast loop).
    MulticastFanout {
        /// Copies put on the wire.
        copies: u32,
    },
    /// A slave contributed its acknowledgement to an in-network gather.
    GatherContribute,
    /// The home absorbed `acks` acknowledgements of an outstanding
    /// invalidation/update (combined in-switch for multicasts).
    GatherCombine {
        /// Acknowledgements carried by this combined reply.
        acks: u32,
    },
    /// The data/ack reply reached the requesting master.
    Reply,
}

impl PhaseKind {
    /// A short stable label, used by exporters and traces.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::QueuedAtHome { .. } => "queued-at-home",
            PhaseKind::ReservationWait => "reservation-wait",
            PhaseKind::Forwarded => "forwarded",
            PhaseKind::MulticastFanout { .. } => "multicast-fanout",
            PhaseKind::GatherContribute => "gather-contribute",
            PhaseKind::GatherCombine { .. } => "gather-combine",
            PhaseKind::Reply => "reply",
        }
    }
}

/// Which protocol module a queue-depth sample belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// The processor-side master module.
    Master,
    /// The directory-side home module.
    Home,
    /// The cache-intervention slave module.
    Slave,
}

/// Object-safe downcasting support for observers, so a registered observer
/// can be retrieved concretely with [`crate::Engine::observer`].
pub trait AsAny {
    /// `self` as [`Any`].
    fn as_any(&self) -> &dyn Any;
    /// `self` as mutable [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Callbacks fired by the engine as the protocol executes. Every method
/// has a no-op default; implement only what you need.
///
/// Observers are pure instrumentation: they cannot influence protocol
/// behaviour, and all timing they see is simulated time. They are `Send`
/// so that an engine, which owns its observers, can move between threads.
#[allow(unused_variables)]
pub trait Observer: AsAny + Send {
    /// A processor access reached its master module.
    fn on_access(&mut self, at: SimTime, node: NodeId, op: MemOp, addr: Addr, txn: TxnId) {}
    /// A protocol message was sent (including node-local hand-offs).
    /// Multicasts fire once per delivered copy; gathered replies fire
    /// once per combined message actually put on the wire.
    fn on_send(&mut self, at: SimTime, src: NodeId, dst: NodeId, msg: &ProtoMsg) {}
    /// A protocol message arrived and is about to be handled.
    fn on_receive(&mut self, at: SimTime, dst: NodeId, src: NodeId, msg: &ProtoMsg) {}
    /// A master put a coherence request on the wire (`retry` when it is a
    /// nack-baseline reissue).
    fn on_request_issued(&mut self, at: SimTime, node: NodeId, kind: ReqKind, retry: bool) {}
    /// A home found the block pending and parked the request in its
    /// main-memory queue (`depth` = queue occupancy, queuing protocol) or
    /// deflected it with a nack (`depth` = `None`, nack baseline).
    fn on_request_deferred(&mut self, at: SimTime, home: NodeId, addr: Addr, depth: Option<usize>) {
    }
    /// A home started an invalidation transaction covering `copies` nodes.
    fn on_invalidation(&mut self, at: SimTime, home: NodeId, addr: Addr, copies: u32) {}
    /// A nacked master scheduled a retry.
    fn on_retry(&mut self, at: SimTime, node: NodeId, txn: TxnId) {}
    /// A coherence transaction crossed a typed phase milestone at `node`
    /// (see [`PhaseKind`]).
    fn on_phase(&mut self, at: SimTime, node: NodeId, txn: TxnId, phase: PhaseKind) {}
    /// A cached copy changed MESI state.
    fn on_cache_transition(
        &mut self,
        at: SimTime,
        node: NodeId,
        addr: Addr,
        from: CacheState,
        to: CacheState,
    ) {
    }
    /// A directory entry changed memory state at its home.
    fn on_mem_transition(
        &mut self,
        at: SimTime,
        home: NodeId,
        addr: Addr,
        from: MemState,
        to: MemState,
    ) {
    }
    /// A module's input-buffer high-water mark rose to `depth`.
    fn on_queue_depth(&mut self, at: SimTime, node: NodeId, module: ModuleKind, depth: u64) {}
    /// An L2 miss was refilled from the node's main-memory third-level
    /// cache (update-protocol extension).
    fn on_l3_fill(&mut self, at: SimTime, node: NodeId, addr: Addr) {}
    /// A memory access graduated.
    #[allow(clippy::too_many_arguments)]
    fn on_complete(
        &mut self,
        at: SimTime,
        node: NodeId,
        txn: TxnId,
        op: MemOp,
        addr: Addr,
        hit: bool,
        l3: bool,
    ) {
    }
    /// A driver-scheduled marker fired.
    fn on_marker(&mut self, at: SimTime, token: u64) {}
    /// A user-level message finished arriving.
    fn on_mp_delivered(&mut self, at: SimTime, to: NodeId, from: NodeId, tag: u64, bytes: u64) {}
    /// The fabric injected a fault (drop, duplicate, or delay).
    fn on_fault_injected(&mut self, event: &FaultEvent) {}
    /// A link's unacked window was retransmitted (go-back-N), `frames`
    /// frames on retransmission round `attempt`.
    fn on_retransmit(&mut self, at: SimTime, src: NodeId, dst: NodeId, frames: u32, attempt: u32) {}
    /// The receiver-side link layer at `node` discarded a frame or a
    /// gather reply (`"dup-frame"`, `"gap-frame"`, `"dup-gather-reply"`,
    /// `"stale-gather-reply"`).
    fn on_link_discard(&mut self, at: SimTime, node: NodeId, src: NodeId, reason: &'static str) {}
    /// A timed-out gather was cancelled and its multicast idempotently
    /// re-issued (`copies` fresh deliveries, re-issue round `attempt`).
    fn on_gather_reissue(&mut self, at: SimTime, home: NodeId, copies: u32, attempt: u32) {}
    /// The recovery layer exhausted a retry budget and gave up.
    fn on_recovery_error(&mut self, at: SimTime, err: &RecoveryError) {}
    /// The stall watchdog fired: work is outstanding but nothing has
    /// completed for `idle_for`. Reported once per stall episode.
    fn on_stall(&mut self, at: SimTime, outstanding: usize, idle_for: Duration) {}
    /// The failure detector moved `node` to `Suspected` (a wire touching
    /// it kept retransmitting) and scheduled a probe.
    fn on_node_suspected(&mut self, at: SimTime, node: NodeId) {}
    /// The failure detector quarantined `node`: every structure still
    /// referring to it is about to be scrubbed.
    fn on_node_quarantined(&mut self, at: SimTime, node: NodeId) {}
    /// An in-flight gather at `home` for `addr` was completed by the
    /// quarantine scrub (the dead sharer treated as invalidated).
    fn on_gather_scrub(&mut self, at: SimTime, home: NodeId, addr: Addr) {}
    /// A quarantined node revived and rejoined cold.
    fn on_node_rejoined(&mut self, at: SimTime, node: NodeId) {}
    /// A copy of this observer for a forked engine ([`crate::Engine::fork`]),
    /// carrying everything it has accumulated so far. `None` (the
    /// default) declines, and the engine then refuses to fork. See
    /// [`Observer::fork_into`] for copying into an observer that is
    /// already allocated.
    fn fork(&self) -> Option<Box<dyn Observer>> {
        None
    }

    /// Overwrites `dst` with a copy of this observer, for
    /// [`crate::Engine::fork_into`]; `false` declines, as a `None` from
    /// [`Observer::fork`] does. The default replaces `dst` with
    /// [`Observer::fork`]'s copy. An observer whose fork allocates can
    /// override it to reuse `dst`'s buffers when `dst` is of its own
    /// type: downcast with `(**dst).as_any_mut()` (on the observer, not
    /// on the `Box`) and `clone_from` into it.
    fn fork_into(&self, dst: &mut Box<dyn Observer>) -> bool {
        match self.fork() {
            Some(copy) => {
                *dst = copy;
                true
            }
            None => false,
        }
    }
}

/// The engine's observer slots: the always-on statistics and trace
/// observers plus any user-registered ones, notified in that order.
#[derive(Default)]
pub(crate) struct ObserverSet {
    pub stats: StatsObserver,
    pub trace: TraceObserver,
    pub user: Vec<Box<dyn Observer>>,
}

impl ObserverSet {
    /// A copy of every slot, or `None` if a user observer declines to
    /// fork.
    pub(crate) fn fork(&self) -> Option<ObserverSet> {
        Some(ObserverSet {
            stats: self.stats.clone(),
            trace: self.trace.clone(),
            user: self.user.iter().map(|o| o.fork()).collect::<Option<_>>()?,
        })
    }

    /// Overwrites `dst` with a copy of every slot, reusing its buffers;
    /// `false` if a user observer declines, leaving `dst`'s user slots
    /// partly copied.
    pub(crate) fn fork_into(&self, dst: &mut ObserverSet) -> bool {
        let ObserverSet { stats, trace, user } = dst;
        stats.clone_from(&self.stats);
        trace.clone_from(&self.trace);
        user.truncate(self.user.len());
        for (i, o) in self.user.iter().enumerate() {
            match user.get_mut(i) {
                Some(slot) => {
                    if !o.fork_into(slot) {
                        return false;
                    }
                }
                None => match o.fork() {
                    Some(copy) => user.push(copy),
                    None => return false,
                },
            }
        }
        true
    }
}

macro_rules! fan_out {
    ($( $name:ident ( $($arg:ident : $ty:ty),* ); )+) => {
        impl ObserverSet {
            $(
                #[allow(clippy::too_many_arguments)] // mirrors the Observer callback
                pub(crate) fn $name(&mut self, $($arg: $ty),*) {
                    self.stats.$name($($arg),*);
                    self.trace.$name($($arg),*);
                    for o in &mut self.user {
                        o.$name($($arg),*);
                    }
                }
            )+
        }
    };
}

fan_out! {
    on_access(at: SimTime, node: NodeId, op: MemOp, addr: Addr, txn: TxnId);
    on_send(at: SimTime, src: NodeId, dst: NodeId, msg: &ProtoMsg);
    on_receive(at: SimTime, dst: NodeId, src: NodeId, msg: &ProtoMsg);
    on_request_issued(at: SimTime, node: NodeId, kind: ReqKind, retry: bool);
    on_request_deferred(at: SimTime, home: NodeId, addr: Addr, depth: Option<usize>);
    on_invalidation(at: SimTime, home: NodeId, addr: Addr, copies: u32);
    on_retry(at: SimTime, node: NodeId, txn: TxnId);
    on_phase(at: SimTime, node: NodeId, txn: TxnId, phase: PhaseKind);
    on_cache_transition(at: SimTime, node: NodeId, addr: Addr, from: CacheState, to: CacheState);
    on_mem_transition(at: SimTime, home: NodeId, addr: Addr, from: MemState, to: MemState);
    on_queue_depth(at: SimTime, node: NodeId, module: ModuleKind, depth: u64);
    on_l3_fill(at: SimTime, node: NodeId, addr: Addr);
    on_complete(at: SimTime, node: NodeId, txn: TxnId, op: MemOp, addr: Addr, hit: bool, l3: bool);
    on_marker(at: SimTime, token: u64);
    on_mp_delivered(at: SimTime, to: NodeId, from: NodeId, tag: u64, bytes: u64);
    on_fault_injected(event: &FaultEvent);
    on_retransmit(at: SimTime, src: NodeId, dst: NodeId, frames: u32, attempt: u32);
    on_link_discard(at: SimTime, node: NodeId, src: NodeId, reason: &'static str);
    on_gather_reissue(at: SimTime, home: NodeId, copies: u32, attempt: u32);
    on_recovery_error(at: SimTime, err: &RecoveryError);
    on_stall(at: SimTime, outstanding: usize, idle_for: Duration);
    on_node_suspected(at: SimTime, node: NodeId);
    on_node_quarantined(at: SimTime, node: NodeId);
    on_gather_scrub(at: SimTime, home: NodeId, addr: Addr);
    on_node_rejoined(at: SimTime, node: NodeId);
}

/// Maintains [`EngineStats`] from observer callbacks — the counters the
/// monolithic engine used to increment inline.
#[derive(Clone, Default)]
pub struct StatsObserver {
    stats: EngineStats,
}

impl StatsObserver {
    /// The accumulated counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }
}

impl Observer for StatsObserver {
    fn on_send(&mut self, _at: SimTime, _src: NodeId, _dst: NodeId, msg: &ProtoMsg) {
        match msg {
            ProtoMsg::WriteBack { .. } => self.stats.writebacks.incr(),
            ProtoMsg::Forward { .. } => self.stats.forwards.incr(),
            _ => {}
        }
    }

    fn on_receive(&mut self, _at: SimTime, _dst: NodeId, _src: NodeId, msg: &ProtoMsg) {
        if let ProtoMsg::Nack { .. } = msg {
            self.stats.nacks.incr();
        }
    }

    fn on_request_issued(&mut self, _at: SimTime, _node: NodeId, kind: ReqKind, retry: bool) {
        self.stats.requests.incr();
        if retry {
            self.stats.retries.incr();
        } else if kind == ReqKind::Update {
            self.stats.updates.incr();
        }
    }

    fn on_request_deferred(
        &mut self,
        _at: SimTime,
        _home: NodeId,
        _addr: Addr,
        _depth: Option<usize>,
    ) {
        self.stats.queued_requests.incr();
    }

    fn on_invalidation(&mut self, _at: SimTime, _home: NodeId, _addr: Addr, copies: u32) {
        self.stats.invalidations.incr();
        self.stats.invalidation_copies.add(copies as u64);
    }

    fn on_l3_fill(&mut self, _at: SimTime, _node: NodeId, _addr: Addr) {
        self.stats.l3_fills.incr();
    }

    fn on_complete(
        &mut self,
        _at: SimTime,
        _node: NodeId,
        _txn: TxnId,
        _op: MemOp,
        _addr: Addr,
        hit: bool,
        _l3: bool,
    ) {
        self.stats.completed.incr();
        if hit {
            self.stats.hits.incr();
        }
    }

    fn on_fault_injected(&mut self, _event: &FaultEvent) {
        self.stats.faults_injected.incr();
    }

    fn on_retransmit(&mut self, _at: SimTime, _src: NodeId, _dst: NodeId, frames: u32, _a: u32) {
        self.stats.retransmits.add(frames as u64);
    }

    fn on_link_discard(&mut self, _at: SimTime, _node: NodeId, _src: NodeId, _r: &'static str) {
        self.stats.link_discards.incr();
    }

    fn on_gather_reissue(&mut self, _at: SimTime, _home: NodeId, _copies: u32, _attempt: u32) {
        self.stats.gather_reissues.incr();
    }

    fn on_recovery_error(&mut self, _at: SimTime, err: &RecoveryError) {
        self.stats.recovery_errors.incr();
        if let RecoveryError::NodeUnavailable { .. } = err {
            self.stats.node_unavailable.incr();
        }
    }

    fn on_stall(&mut self, _at: SimTime, _outstanding: usize, _idle_for: Duration) {
        self.stats.stalls.incr();
    }

    fn on_node_suspected(&mut self, _at: SimTime, _node: NodeId) {
        self.stats.node_suspects.incr();
    }

    fn on_node_quarantined(&mut self, _at: SimTime, _node: NodeId) {
        self.stats.node_quarantines.incr();
    }

    fn on_gather_scrub(&mut self, _at: SimTime, _home: NodeId, _addr: Addr) {
        self.stats.gather_scrubs.incr();
    }

    fn on_node_rejoined(&mut self, _at: SimTime, _node: NodeId) {
        self.stats.node_rejoins.incr();
    }
}

/// Maintains the per-block event timeline ([`Trace`]) from observer
/// callbacks, producing records identical to the pre-refactor inline
/// tracing (same labels, same dispatch-time stamps).
#[derive(Default)]
pub struct TraceObserver {
    trace: Trace,
}

cenju4_des::clone_fields!(TraceObserver { trace });

impl TraceObserver {
    /// A trace retaining the most recent `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceObserver {
            trace: Trace::with_capacity(capacity),
        }
    }

    /// The recorded timeline.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    #[inline]
    fn record(
        &mut self,
        at: SimTime,
        node: NodeId,
        label: &'static str,
        addr: Option<Addr>,
        txn: Option<TxnId>,
    ) {
        self.trace.record(TraceRecord {
            at,
            node,
            label,
            addr,
            txn,
        });
    }
}

impl Observer for TraceObserver {
    fn on_access(&mut self, at: SimTime, node: NodeId, op: MemOp, addr: Addr, txn: TxnId) {
        let label = match op {
            MemOp::Load => "access:load",
            MemOp::Store => "access:store",
        };
        self.record(at, node, label, Some(addr), Some(txn));
    }

    fn on_receive(&mut self, at: SimTime, dst: NodeId, _src: NodeId, msg: &ProtoMsg) {
        self.record(at, dst, msg.label(), Some(msg.addr()), None);
    }

    fn on_retry(&mut self, at: SimTime, node: NodeId, txn: TxnId) {
        self.record(at, node, "retry", None, Some(txn));
    }

    fn on_marker(&mut self, at: SimTime, _token: u64) {
        self.record(at, NodeId::new(0), "marker", None, None);
    }

    fn on_mp_delivered(&mut self, at: SimTime, to: NodeId, _from: NodeId, _tag: u64, _bytes: u64) {
        self.record(at, to, "mp:deliver", None, None);
    }
}

/// The Figure-6 starvation probe as an observer: under contention, how
/// often are requests deflected (nacks) or parked (queue depth), and how
/// unfair does service get (worst per-transaction retry count)?
#[derive(Default)]
pub struct StarvationProbe {
    nacks: u64,
    retries: u64,
    queued: u64,
    max_queue_depth: usize,
    retries_by_txn: FxHashMap<(NodeId, TxnId), u32>,
}

impl StarvationProbe {
    /// Nacks received by masters.
    pub fn nacks(&self) -> u64 {
        self.nacks
    }

    /// Retries issued after nacks.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Requests parked in home main-memory queues.
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// The deepest home request-queue occupancy observed.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// The worst retry count any single transaction suffered — the
    /// starvation signal of Figure 6(a).
    pub fn worst_txn_retries(&self) -> u32 {
        self.retries_by_txn.values().copied().max().unwrap_or(0)
    }
}

impl Observer for StarvationProbe {
    fn on_receive(&mut self, _at: SimTime, dst: NodeId, _src: NodeId, msg: &ProtoMsg) {
        if let ProtoMsg::Nack { txn, .. } = msg {
            self.nacks += 1;
            *self.retries_by_txn.entry((dst, *txn)).or_default() += 1;
        }
    }

    fn on_request_issued(&mut self, _at: SimTime, _node: NodeId, _kind: ReqKind, retry: bool) {
        if retry {
            self.retries += 1;
        }
    }

    fn on_request_deferred(
        &mut self,
        _at: SimTime,
        _home: NodeId,
        _addr: Addr,
        depth: Option<usize>,
    ) {
        self.queued += 1;
        if let Some(d) = depth {
            self.max_queue_depth = self.max_queue_depth.max(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_observer_counts_requests_and_updates() {
        let mut s = StatsObserver::default();
        let at = SimTime::ZERO;
        let n = NodeId::new(0);
        s.on_request_issued(at, n, ReqKind::ReadShared, false);
        s.on_request_issued(at, n, ReqKind::Update, false);
        s.on_request_issued(at, n, ReqKind::Update, true); // retry: not an update
        assert_eq!(s.stats().requests.get(), 3);
        assert_eq!(s.stats().updates.get(), 1);
        assert_eq!(s.stats().retries.get(), 1);
    }

    #[test]
    fn trace_observer_reproduces_dispatch_labels() {
        let mut t = TraceObserver::with_capacity(8);
        let a = Addr::new(NodeId::new(0), 1);
        t.on_access(SimTime::from_ns(5), NodeId::new(2), MemOp::Store, a, 7);
        t.on_receive(
            SimTime::from_ns(9),
            NodeId::new(0),
            NodeId::new(2),
            &ProtoMsg::Request {
                kind: ReqKind::ReadExclusive,
                addr: a,
                master: NodeId::new(2),
                txn: 7,
                value: 0,
            },
        );
        let recs = t.trace().records();
        assert_eq!(recs[0].label, "access:store");
        assert_eq!(recs[0].txn, Some(7));
        assert_eq!(recs[1].label, "home:request");
        assert_eq!(recs[1].txn, None);
    }

    #[test]
    fn starvation_probe_tracks_worst_case() {
        let mut p = StarvationProbe::default();
        let a = Addr::new(NodeId::new(0), 1);
        let nack = ProtoMsg::Nack {
            addr: a,
            txn: 3,
            kind: ReqKind::ReadShared,
        };
        for _ in 0..4 {
            p.on_receive(SimTime::ZERO, NodeId::new(1), NodeId::new(0), &nack);
        }
        p.on_request_deferred(SimTime::ZERO, NodeId::new(0), a, Some(5));
        p.on_request_deferred(SimTime::ZERO, NodeId::new(0), a, None);
        assert_eq!(p.nacks(), 4);
        assert_eq!(p.worst_txn_retries(), 4);
        assert_eq!(p.queued(), 2);
        assert_eq!(p.max_queue_depth(), 5);
    }
}
