//! Per-transaction spans and the observer that collects them.

use crate::metrics::{CounterKey, MetricsRegistry};
use cenju4_des::{FxHashMap, SimTime};
use cenju4_directory::{NodeId, SystemSize};
use cenju4_network::Topology;
use cenju4_protocol::observer::{ModuleKind, Observer, PhaseKind};
use cenju4_protocol::{Addr, MemOp, ProtoMsg, RecoveryError, ReqKind, TxnId};

/// The class a closed span lands in — one latency histogram per class.
/// Declared in sorted label order, the order the metric dumps use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanClass {
    /// A transaction (or in-flight writeback) given up on because its
    /// node — or the node it needed — was quarantined or timed out. The
    /// span closes at the moment the recovery layer surfaced the error,
    /// so abandonment never leaks an open span.
    Abandoned,
    /// Satisfied in the local L2 (no coherence traffic).
    Hit,
    /// An L2 miss refilled from the node's main-memory third-level cache.
    L3Fill,
    /// A load miss serviced by a read-shared transaction.
    LoadMiss,
    /// A transaction that suffered at least one nack/retry round before
    /// graduating (nack-baseline starvation signal).
    RecoveryRetry,
    /// A store miss serviced by a read-exclusive transaction.
    StoreMiss,
    /// A write-through on an update-protocol block (Section 4.2.3).
    Update,
    /// A data-less ownership upgrade of a Shared copy.
    Upgrade,
    /// A displaced dirty line written back to its home (pseudo-span: no
    /// transaction id, keyed by evictor and block).
    Writeback,
}

impl SpanClass {
    /// Every class, in sorted label order (the dump order).
    pub const ALL: [SpanClass; 9] = [
        SpanClass::Abandoned,
        SpanClass::Hit,
        SpanClass::L3Fill,
        SpanClass::LoadMiss,
        SpanClass::RecoveryRetry,
        SpanClass::StoreMiss,
        SpanClass::Update,
        SpanClass::Upgrade,
        SpanClass::Writeback,
    ];

    /// A short stable label, used as histogram key and trace lane name.
    pub fn label(self) -> &'static str {
        match self {
            SpanClass::Abandoned => "abandoned",
            SpanClass::Hit => "hit",
            SpanClass::L3Fill => "l3-fill",
            SpanClass::LoadMiss => "load-miss",
            SpanClass::RecoveryRetry => "recovery-retry",
            SpanClass::StoreMiss => "store-miss",
            SpanClass::Update => "update",
            SpanClass::Upgrade => "upgrade",
            SpanClass::Writeback => "writeback",
        }
    }
}

/// One typed event inside a span, stamped with simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// When the event fired.
    pub at: SimTime,
    /// The node it fired at.
    pub node: NodeId,
    /// The event label (a [`PhaseKind::label`] or `"retry"`).
    pub label: &'static str,
    /// Phase payload: queue depth, fan-out copies, combined acks — 0
    /// when the phase carries none.
    pub detail: u32,
}

/// The module lane a span event belongs to, for trace export.
pub(crate) fn event_module(label: &str) -> ModuleKind {
    match label {
        "queued-at-home" | "reservation-wait" | "forwarded" | "multicast-fanout"
        | "gather-combine" => ModuleKind::Home,
        "gather-contribute" => ModuleKind::Slave,
        _ => ModuleKind::Master,
    }
}

/// One coherence transaction's lifetime: open at the processor access,
/// closed at graduation, with every phase milestone in between. Plain
/// data: the milestones live in the owning collector's event arena
/// (read them with [`SpanCollector::events`]), so copying a span, or a
/// whole collector, copies no per-span buffer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Collector-local span id (stable within one run).
    pub id: u64,
    /// The transaction id, `None` for writeback pseudo-spans.
    pub txn: Option<TxnId>,
    /// The issuing node (evictor, for writebacks).
    pub node: NodeId,
    /// The target block.
    pub addr: Addr,
    /// The operation, when the span belongs to a processor access.
    pub op: Option<MemOp>,
    /// The request kind the master put on the wire, if any.
    pub kind: Option<ReqKind>,
    /// When the span opened.
    pub opened: SimTime,
    /// When it closed (`None` while in flight).
    pub closed: Option<SimTime>,
    /// The class assigned at close.
    pub class: Option<SpanClass>,
    /// Nack/retry rounds this transaction suffered.
    pub retries: u32,
    /// Arena index of the span's first and last phase milestones
    /// ([`NO_EVENT`] while it has none).
    first_event: u32,
    last_event: u32,
}

impl Span {
    /// The span latency, once closed.
    pub fn latency_ns(&self) -> Option<u64> {
        self.closed.map(|c| c.since(self.opened).as_ns())
    }

    /// A span opened at `at` with no milestones yet.
    fn open(
        id: u64,
        txn: Option<TxnId>,
        node: NodeId,
        addr: Addr,
        op: Option<MemOp>,
        at: SimTime,
    ) -> Self {
        Span {
            id,
            txn,
            node,
            addr,
            op,
            kind: None,
            opened: at,
            closed: None,
            class: None,
            retries: 0,
            first_event: NO_EVENT,
            last_event: NO_EVENT,
        }
    }
}

/// The arena link that ends a span's milestone list.
const NO_EVENT: u32 = u32::MAX;

/// One slot of a collector's event arena: a milestone and the arena
/// index of the next milestone of the same span.
#[derive(Clone, Copy, Debug)]
struct ArenaEvent {
    event: SpanEvent,
    next: u32,
}

/// The milestones of one span, in firing order ([`SpanCollector::events`]).
pub struct SpanEvents<'a> {
    arena: &'a [ArenaEvent],
    next: u32,
}

impl<'a> Iterator for SpanEvents<'a> {
    type Item = &'a SpanEvent;

    fn next(&mut self) -> Option<&'a SpanEvent> {
        let slot = self.arena.get(self.next as usize)?;
        self.next = slot.next;
        Some(&slot.event)
    }
}

/// An [`Observer`] that reconstructs per-transaction spans from the
/// protocol's callback stream and reduces them into a
/// [`MetricsRegistry`].
///
/// Attach with `Engine::add_observer`; retrieve with
/// `Engine::observer::<SpanCollector>()`. Every opened span must close
/// by quiescence — [`SpanCollector::open_span_count`] doubles as a
/// transaction-leak / starvation detector (the checker's quiescence
/// oracle asserts it is zero).
///
/// Storage is flat, so a `clone_from` into a collector that has grown
/// is a handful of slice copies: the spans are plain data, every span's
/// milestones share one event arena (each span threads its own through
/// arena indices), the open writebacks are one FIFO, and the
/// per-node dispatch table is a dense `Vec`.
pub struct SpanCollector {
    topo: Topology,
    spans: Vec<Span>,
    /// Every span's phase milestones, in recording order; a span's own
    /// are linked from its `first_event`.
    events: Vec<ArenaEvent>,
    /// Open processor-access spans by transaction id.
    open: FxHashMap<TxnId, usize>,
    /// Open writeback pseudo-spans as (evictor, block, span index), in
    /// send order. The fabric delivers same-link messages in order, so
    /// a receipt closes the first entry of its (evictor, block).
    open_writebacks: Vec<(NodeId, Addr, usize)>,
    /// The transaction whose access/retry dispatch is currently running
    /// at each node, indexed by node, so the txn-less
    /// `on_request_issued` callback can be attributed to its span.
    last_dispatch: Vec<Option<TxnId>>,
    metrics: MetricsRegistry,
    next_id: u64,
}

cenju4_des::clone_fields!(SpanCollector {
    topo,
    spans,
    events,
    open,
    open_writebacks,
    last_dispatch,
    metrics,
    next_id,
});

impl SpanCollector {
    /// A collector for a machine of `sys` nodes.
    pub fn new(sys: SystemSize) -> Self {
        SpanCollector {
            topo: Topology::new(sys),
            spans: Vec::new(),
            events: Vec::new(),
            open: FxHashMap::default(),
            open_writebacks: Vec::new(),
            last_dispatch: vec![None; sys.nodes() as usize],
            metrics: MetricsRegistry::new(),
            next_id: 0,
        }
    }

    /// Every span, in open order (closed and still-open alike).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The phase milestones of `span`, one of this collector's
    /// [`SpanCollector::spans`], in firing order.
    pub fn events(&self, span: &Span) -> SpanEvents<'_> {
        SpanEvents {
            arena: &self.events,
            next: span.first_event,
        }
    }

    /// The accumulated histograms and counters.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Spans still open — zero at quiescence, or the protocol leaked a
    /// transaction (the span-leak oracle).
    pub fn open_span_count(&self) -> usize {
        self.open.len() + self.open_writebacks.len()
    }

    /// Spans that opened and closed.
    pub fn completed_span_count(&self) -> usize {
        self.spans.iter().filter(|s| s.closed.is_some()).count()
    }

    /// A deterministic fingerprint of every span's class, timing, and
    /// event order — what the sweep-thread-invariance test compares.
    pub fn event_fingerprint(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "span txn={:?} node={} addr={} class={} opened={} closed={:?} retries={}\n",
                s.txn,
                s.node,
                s.addr,
                s.class.map_or("open", SpanClass::label),
                s.opened.as_ns(),
                s.closed.map(|c| c.as_ns()),
                s.retries,
            ));
            for e in self.events(s) {
                out.push_str(&format!(
                    "  {} @{} node={} detail={}\n",
                    e.label,
                    e.at.as_ns(),
                    e.node,
                    e.detail
                ));
            }
        }
        out
    }

    /// Absorbs `other` — a collector that watched a *disjoint* slice of
    /// the same run (a node shard, a sweep slot) — into this one. Spans
    /// are appended in `other`'s open order with ids, open-table indices
    /// and event-arena links re-based, and the metrics registries merge
    /// bucket-wise, so the union reports exactly what one collector
    /// watching both slices would have.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the two collectors have an open span for the
    /// same transaction id — the slices were not disjoint.
    pub fn merge(&mut self, other: SpanCollector) {
        let base = self.spans.len();
        let id_base = self.next_id;
        let event_base = self.events.len() as u32;
        let rebase = |link: u32| {
            if link == NO_EVENT {
                NO_EVENT
            } else {
                link + event_base
            }
        };
        for mut span in other.spans {
            span.id += id_base;
            span.first_event = rebase(span.first_event);
            span.last_event = rebase(span.last_event);
            self.spans.push(span);
        }
        self.events
            .extend(other.events.into_iter().map(|e| ArenaEvent {
                event: e.event,
                next: rebase(e.next),
            }));
        self.next_id += other.next_id;
        for (txn, idx) in other.open {
            let prev = self.open.insert(txn, base + idx);
            debug_assert!(prev.is_none(), "open span collision on txn {txn}");
        }
        self.open_writebacks.extend(
            other
                .open_writebacks
                .into_iter()
                .map(|(node, addr, idx)| (node, addr, base + idx)),
        );
        if self.last_dispatch.len() < other.last_dispatch.len() {
            self.last_dispatch.resize(other.last_dispatch.len(), None);
        }
        for (mine, theirs) in self.last_dispatch.iter_mut().zip(other.last_dispatch) {
            if theirs.is_some() {
                *mine = theirs;
            }
        }
        self.metrics.merge(&other.metrics);
    }

    fn push_span(&mut self, span: Span) -> usize {
        let idx = self.spans.len();
        self.spans.push(span);
        idx
    }

    /// Appends a milestone to span `idx`'s list.
    fn push_event(&mut self, idx: usize, event: SpanEvent) {
        let slot = self.events.len() as u32;
        self.events.push(ArenaEvent {
            event,
            next: NO_EVENT,
        });
        let span = &mut self.spans[idx];
        match span.last_event {
            NO_EVENT => span.first_event = slot,
            last => self.events[last as usize].next = slot,
        }
        span.last_event = slot;
    }

    fn close(&mut self, idx: usize, at: SimTime, class: SpanClass) {
        let span = &mut self.spans[idx];
        span.closed = Some(at);
        span.class = Some(class);
        let ns = at.since(span.opened).as_ns();
        self.metrics.record_latency(class, ns);
        self.metrics.incr(CounterKey::SpanClosed);
    }

    fn classify(span: &Span, hit: bool, l3: bool) -> SpanClass {
        if span.retries > 0 {
            return SpanClass::RecoveryRetry;
        }
        if hit {
            return SpanClass::Hit;
        }
        if l3 {
            return SpanClass::L3Fill;
        }
        match (span.kind, span.op) {
            (Some(ReqKind::Ownership), _) => SpanClass::Upgrade,
            (Some(ReqKind::Update), _) => SpanClass::Update,
            (Some(ReqKind::ReadExclusive), _) => SpanClass::StoreMiss,
            (Some(ReqKind::ReadShared), Some(MemOp::Store)) => SpanClass::StoreMiss,
            (Some(ReqKind::ReadShared), _) => SpanClass::LoadMiss,
            (None, Some(MemOp::Store)) => SpanClass::StoreMiss,
            (None, _) => SpanClass::LoadMiss,
        }
    }
}

impl Observer for SpanCollector {
    fn fork(&self) -> Option<Box<dyn Observer>> {
        Some(Box::new(self.clone()))
    }

    fn fork_into(&self, dst: &mut Box<dyn Observer>) -> bool {
        match (**dst).as_any_mut().downcast_mut::<SpanCollector>() {
            Some(same) => same.clone_from(self),
            None => *dst = Box::new(self.clone()),
        }
        true
    }

    fn on_access(&mut self, at: SimTime, node: NodeId, op: MemOp, addr: Addr, txn: TxnId) {
        self.last_dispatch[node.as_usize()] = Some(txn);
        if let Some(&idx) = self.open.get(&txn) {
            // A backlogged access re-dispatching once a request slot
            // freed up: the span stays open from its first issue.
            self.push_event(
                idx,
                SpanEvent {
                    at,
                    node,
                    label: "backlog-drain",
                    detail: 0,
                },
            );
            self.metrics.incr(CounterKey::PhaseBacklogDrain);
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let idx = self.push_span(Span::open(id, Some(txn), node, addr, Some(op), at));
        self.open.insert(txn, idx);
        self.metrics.incr(CounterKey::SpanOpened);
    }

    fn on_request_issued(&mut self, _at: SimTime, node: NodeId, kind: ReqKind, retry: bool) {
        let Some(txn) = self.last_dispatch[node.as_usize()] else {
            return;
        };
        if let Some(&idx) = self.open.get(&txn) {
            let span = &mut self.spans[idx];
            if span.kind.is_none() || !retry {
                span.kind = Some(kind);
            }
        }
        self.metrics.incr(match kind {
            ReqKind::ReadShared => CounterKey::RequestReadShared,
            ReqKind::ReadExclusive => CounterKey::RequestReadExclusive,
            ReqKind::Ownership => CounterKey::RequestOwnership,
            ReqKind::Update => CounterKey::RequestUpdate,
        });
    }

    fn on_retry(&mut self, at: SimTime, node: NodeId, txn: TxnId) {
        self.last_dispatch[node.as_usize()] = Some(txn);
        if let Some(&idx) = self.open.get(&txn) {
            let span = &mut self.spans[idx];
            span.retries += 1;
            let detail = span.retries;
            self.push_event(
                idx,
                SpanEvent {
                    at,
                    node,
                    label: "retry",
                    detail,
                },
            );
        }
        self.metrics.incr(CounterKey::PhaseRetry);
    }

    fn on_phase(&mut self, at: SimTime, node: NodeId, txn: TxnId, phase: PhaseKind) {
        let label = phase.label();
        let detail = match phase {
            PhaseKind::QueuedAtHome { depth } => depth,
            PhaseKind::MulticastFanout { copies } => copies,
            PhaseKind::GatherCombine { acks } => acks,
            _ => 0,
        };
        if let Some(&idx) = self.open.get(&txn) {
            self.push_event(
                idx,
                SpanEvent {
                    at,
                    node,
                    label,
                    detail,
                },
            );
        }
        self.metrics.incr(match phase {
            PhaseKind::QueuedAtHome { .. } => CounterKey::PhaseQueuedAtHome,
            PhaseKind::ReservationWait => CounterKey::PhaseReservationWait,
            PhaseKind::Forwarded => CounterKey::PhaseForwarded,
            PhaseKind::MulticastFanout { .. } => CounterKey::PhaseMulticastFanout,
            PhaseKind::GatherContribute => CounterKey::PhaseGatherContribute,
            PhaseKind::GatherCombine { .. } => CounterKey::PhaseGatherCombine,
            PhaseKind::Reply => CounterKey::PhaseReply,
        });
        self.metrics.incr(match event_module(label) {
            ModuleKind::Master => CounterKey::MasterPhases,
            ModuleKind::Home => CounterKey::HomePhases,
            ModuleKind::Slave => CounterKey::SlavePhases,
        });
    }

    fn on_send(&mut self, at: SimTime, src: NodeId, dst: NodeId, msg: &ProtoMsg) {
        self.metrics.incr(CounterKey::FabricSends);
        self.metrics.add(
            CounterKey::FabricHops,
            self.topo.hop_count(src.index() as u32, dst.index() as u32) as u64,
        );
        if let ProtoMsg::WriteBack { addr, from, .. } = *msg {
            let id = self.next_id;
            self.next_id += 1;
            let idx = self.push_span(Span::open(id, None, from, addr, None, at));
            self.open_writebacks.push((from, addr, idx));
            self.metrics.incr(CounterKey::SpanOpened);
        }
    }

    fn on_receive(&mut self, at: SimTime, dst: NodeId, _src: NodeId, msg: &ProtoMsg) {
        if let ProtoMsg::WriteBack { addr, from, .. } = *msg {
            debug_assert_eq!(dst, addr.home());
            if let Some(pos) = self
                .open_writebacks
                .iter()
                .position(|&(f, a, _)| (f, a) == (from, addr))
            {
                let (_, _, idx) = self.open_writebacks.remove(pos);
                self.close(idx, at, SpanClass::Writeback);
            }
        }
    }

    fn on_complete(
        &mut self,
        at: SimTime,
        _node: NodeId,
        txn: TxnId,
        _op: MemOp,
        _addr: Addr,
        hit: bool,
        l3: bool,
    ) {
        if let Some(idx) = self.open.remove(&txn) {
            let class = Self::classify(&self.spans[idx], hit, l3);
            self.close(idx, at, class);
        }
    }

    fn on_recovery_error(&mut self, at: SimTime, err: &RecoveryError) {
        let key = match err {
            RecoveryError::LinkRetransmitBudget { .. } => CounterKey::LinkRetransmitBudget,
            RecoveryError::GatherReissueBudget { .. } => CounterKey::GatherReissueBudget,
            RecoveryError::TransactionTimeout { .. } => CounterKey::TransactionTimeout,
            RecoveryError::NodeUnavailable { .. } => CounterKey::NodeUnavailable,
        };
        self.metrics.incr(key);
        // An abandoned transaction never graduates, so its span closes
        // here instead of at on_complete.
        if let RecoveryError::TransactionTimeout { txn, .. }
        | RecoveryError::NodeUnavailable { txn, .. } = err
        {
            if let Some(idx) = self.open.remove(txn) {
                self.close(idx, at, SpanClass::Abandoned);
            }
        }
    }

    fn on_node_suspected(&mut self, _at: SimTime, _node: NodeId) {
        self.metrics.incr(CounterKey::NodeSuspects);
    }

    fn on_node_quarantined(&mut self, at: SimTime, node: NodeId) {
        self.metrics.incr(CounterKey::NodeQuarantines);
        // A writeback touching the quarantined node — evicted by it, or
        // bound for a home on it — can never be delivered: the fabric
        // dropped it during the down window or will discard it at
        // admission. Close those pseudo-spans now so quarantine does not
        // leak spans (closing order is immaterial: a close only sets the
        // span's own fields and bumps order-free metrics).
        let mut open = std::mem::take(&mut self.open_writebacks);
        open.retain(|&(from, addr, idx)| {
            let lost = from == node || addr.home() == node;
            if lost {
                self.close(idx, at, SpanClass::Abandoned);
            }
            !lost
        });
        self.open_writebacks = open;
    }

    fn on_gather_scrub(&mut self, _at: SimTime, _home: NodeId, _addr: Addr) {
        self.metrics.incr(CounterKey::GatherScrubs);
    }

    fn on_node_rejoined(&mut self, _at: SimTime, _node: NodeId) {
        self.metrics.incr(CounterKey::NodeRejoins);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenju4_protocol::{Engine, ProtoParams, ProtocolKind, SystemConfig, SystemConfigBuilder};

    /// An engine for `cfg` with a span collector attached.
    fn collected(cfg: SystemConfigBuilder) -> Engine {
        let cfg = cfg.build().unwrap();
        let mut eng = Engine::new(&cfg);
        eng.add_observer(Box::new(SpanCollector::new(cfg.sys)));
        eng
    }

    fn engine(nodes: u16) -> Engine {
        collected(SystemConfig::builder(nodes))
    }

    #[test]
    fn load_miss_then_hit_classified() {
        let mut eng = engine(16);
        let a = Addr::new(NodeId::new(1), 0);
        eng.issue(SimTime::ZERO, NodeId::new(0), MemOp::Load, a);
        eng.run();
        eng.issue(eng.now(), NodeId::new(0), MemOp::Load, a);
        eng.run();
        let c: &SpanCollector = eng.observer().unwrap();
        assert_eq!(c.completed_span_count(), 2);
        assert_eq!(c.open_span_count(), 0);
        let classes: Vec<_> = c.spans().iter().map(|s| s.class.unwrap()).collect();
        assert_eq!(classes, vec![SpanClass::LoadMiss, SpanClass::Hit]);
        assert!(c.spans()[0].latency_ns().unwrap() > 0);
    }

    #[test]
    fn store_over_sharers_records_fanout_and_gather() {
        let mut eng = engine(16);
        let a = Addr::new(NodeId::new(0), 1);
        for n in 1..=4u16 {
            eng.issue(eng.now(), NodeId::new(n), MemOp::Load, a);
            eng.run();
        }
        eng.issue(eng.now(), NodeId::new(1), MemOp::Store, a);
        eng.run();
        let c: &SpanCollector = eng.observer().unwrap();
        assert_eq!(c.open_span_count(), 0);
        let store = c.spans().last().unwrap();
        assert_eq!(store.class, Some(SpanClass::Upgrade));
        let events: Vec<&SpanEvent> = c.events(store).collect();
        let labels: Vec<_> = events.iter().map(|e| e.label).collect();
        assert!(labels.contains(&"multicast-fanout"), "{labels:?}");
        assert!(labels.contains(&"gather-combine"), "{labels:?}");
        assert!(labels.contains(&"reply"), "{labels:?}");
        // Event timestamps are nondecreasing within the span.
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn nack_baseline_retries_classify_as_recovery_retry() {
        let mut eng = collected(SystemConfig::builder(16).kind(ProtocolKind::Nack));
        let a = Addr::new(NodeId::new(0), 1);
        // Spread the block over several sharers so a store opens a long
        // invalidation-pending window at the home …
        for n in 1..=4u16 {
            eng.issue(eng.now(), NodeId::new(n), MemOp::Load, a);
            eng.run();
        }
        // … then race two stores into that window: the loser is nacked
        // and must retry.
        let t = eng.now();
        eng.issue(t, NodeId::new(5), MemOp::Store, a);
        eng.issue(t, NodeId::new(6), MemOp::Store, a);
        eng.run();
        let c: &SpanCollector = eng.observer().unwrap();
        assert_eq!(c.open_span_count(), 0);
        assert!(c
            .spans()
            .iter()
            .any(|s| s.class == Some(SpanClass::RecoveryRetry) && s.retries > 0));
    }

    #[test]
    fn merge_unions_spans_and_metrics() {
        let run = |seed_node: u16| {
            let mut eng = engine(16);
            let a = Addr::new(NodeId::new(seed_node), 0);
            eng.issue(SimTime::ZERO, NodeId::new(0), MemOp::Load, a);
            eng.run();
            eng.issue(eng.now(), NodeId::new(0), MemOp::Load, a);
            eng.run();
            eng
        };
        let a = run(1);
        let b = run(2);
        let (ca, cb) = (
            a.observer::<SpanCollector>().unwrap(),
            b.observer::<SpanCollector>().unwrap(),
        );
        let total = ca.spans().len() + cb.spans().len();
        let sends = ca.metrics().counter("fabric.sends") + cb.metrics().counter("fabric.sends");
        let lat_count = ca.metrics().latency_summary("load-miss").unwrap().count
            + cb.metrics().latency_summary("load-miss").unwrap().count;

        let mut merged = SpanCollector::new(SystemSize::new(16).unwrap());
        merged.merge(clone_collector(ca));
        merged.merge(clone_collector(cb));
        assert_eq!(merged.spans().len(), total);
        assert_eq!(merged.open_span_count(), 0);
        assert_eq!(merged.metrics().counter("fabric.sends"), sends);
        assert_eq!(
            merged.metrics().latency_summary("load-miss").unwrap().count,
            lat_count
        );
        // Ids stay unique across the union.
        let mut ids: Vec<u64> = merged.spans().iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total);
    }

    /// Rebuilds an owned collector from a borrowed one (the engine owns
    /// its observers; merging consumes).
    fn clone_collector(c: &SpanCollector) -> SpanCollector {
        let mut out = SpanCollector::new(SystemSize::new(16).unwrap());
        out.spans = c.spans.clone();
        out.events = c.events.clone();
        out.open = c.open.clone();
        out.open_writebacks = c.open_writebacks.clone();
        out.last_dispatch = c.last_dispatch.clone();
        out.metrics = c.metrics.clone();
        out.next_id = c.next_id;
        out
    }

    #[test]
    fn writeback_pseudo_spans_close() {
        // A one-set, 4-way cache: the fifth distinct dirty block evicts a
        // Modified victim, which is written back to its home.
        let params = ProtoParams {
            cache_bytes: 4 * 128,
            cache_assoc: 4,
            ..ProtoParams::default()
        };
        let mut eng = collected(SystemConfig::builder(16).proto(params));
        for b in 0..8u32 {
            eng.issue(
                eng.now(),
                NodeId::new(0),
                MemOp::Store,
                Addr::new(NodeId::new(1), b),
            );
            eng.run();
        }
        let c: &SpanCollector = eng.observer().unwrap();
        assert_eq!(c.open_span_count(), 0, "all writeback spans must close");
        let wb = c
            .spans()
            .iter()
            .filter(|s| s.class == Some(SpanClass::Writeback))
            .count();
        assert!(wb > 0, "expected at least one writeback span");
        assert_eq!(wb as u64, eng.stats().writebacks.get());
    }

    /// Drives `c` through one round of callbacks on `nodes` nodes,
    /// offset by `round`: accesses with phase milestones (some retried,
    /// some completed), plus writebacks of which only the first is
    /// received, so the round leaves spans and writebacks open.
    fn drive(c: &mut SpanCollector, round: u64, nodes: u16) {
        let at = SimTime::from_ns(round * 1_000);
        for n in 0..nodes {
            let node = NodeId::new(n);
            let txn = round * 100 + u64::from(n);
            let addr = Addr::new(NodeId::new((n + 1) % nodes), round as u32);
            c.on_access(at, node, MemOp::Store, addr, txn);
            c.on_request_issued(at, node, ReqKind::ReadExclusive, false);
            c.on_phase(at, node, txn, PhaseKind::QueuedAtHome { depth: n.into() });
            if n % 2 == 1 {
                c.on_retry(at, node, txn);
            }
            c.on_phase(at, node, txn, PhaseKind::Reply);
            if n % 3 != 2 {
                c.on_complete(at, node, txn, MemOp::Store, addr, false, false);
            }
            let wb = ProtoMsg::WriteBack {
                addr,
                from: node,
                value: txn,
            };
            c.on_send(at, node, addr.home(), &wb);
            c.on_send(at, node, addr.home(), &wb);
            c.on_receive(at, addr.home(), node, &wb);
        }
    }

    fn collector(o: &mut Box<dyn Observer>) -> &mut SpanCollector {
        (**o).as_any_mut().downcast_mut().expect("a span collector")
    }

    /// What two collectors must agree on.
    fn view(c: &SpanCollector) -> (String, usize, usize, String, String) {
        (
            c.event_fingerprint(),
            c.open_span_count(),
            c.completed_span_count(),
            c.metrics().to_text(),
            c.metrics().to_json(),
        )
    }

    /// A `fork_into` over a collector of another shape — more nodes,
    /// more spans and events, open writebacks — equals a plain fork, and
    /// the two stay equal when driven on (new milestones thread through
    /// the copied arena, queued writebacks close in order, and a
    /// quarantine abandons the same ones).
    #[test]
    fn fork_into_a_collector_of_another_shape_equals_a_fork() {
        let mut src = SpanCollector::new(SystemSize::new(4).unwrap());
        drive(&mut src, 1, 4);
        let mut bigger = SpanCollector::new(SystemSize::new(16).unwrap());
        for round in 0..6 {
            drive(&mut bigger, round, 16);
        }
        assert!(bigger.spans().len() > src.spans().len());
        assert!(bigger.open_writebacks.len() > src.open_writebacks.len());
        let mut copied: Box<dyn Observer> = Box::new(bigger);
        assert!(src.fork_into(&mut copied));
        let mut forked = src.fork().expect("collectors fork");
        assert_eq!(view(collector(&mut copied)), view(collector(&mut forked)));
        assert_eq!(view(collector(&mut copied)), view(&src));
        for c in [collector(&mut copied), collector(&mut forked)] {
            drive(c, 7, 4);
            let node = NodeId::new(2);
            let wb = ProtoMsg::WriteBack {
                addr: Addr::new(NodeId::new(3), 1),
                from: node,
                value: 0,
            };
            c.on_receive(SimTime::from_ns(9_000), NodeId::new(3), node, &wb);
            c.on_node_quarantined(SimTime::from_ns(9_500), NodeId::new(1));
        }
        assert_eq!(view(collector(&mut copied)), view(collector(&mut forked)));
    }

    /// The static counter keys spell `phase.<label>`,
    /// `module.<module>.phases` and `module.master.request.<kind>` for
    /// every phase and request kind, including those no golden scenario
    /// reaches.
    #[test]
    fn static_counter_keys_spell_the_formatted_names() {
        let phases = [
            PhaseKind::QueuedAtHome { depth: 1 },
            PhaseKind::ReservationWait,
            PhaseKind::Forwarded,
            PhaseKind::MulticastFanout { copies: 2 },
            PhaseKind::GatherContribute,
            PhaseKind::GatherCombine { acks: 3 },
            PhaseKind::Reply,
        ];
        let kinds = [
            ReqKind::ReadShared,
            ReqKind::ReadExclusive,
            ReqKind::Ownership,
            ReqKind::Update,
        ];
        let (node, at) = (NodeId::new(0), SimTime::ZERO);
        let mut c = SpanCollector::new(SystemSize::new(4).unwrap());
        // A request is attributed to the access dispatched at its node.
        c.on_access(at, node, MemOp::Load, Addr::new(node, 0), 0);
        for phase in phases {
            c.on_phase(at, node, 0, phase);
            let label = phase.label();
            assert_eq!(c.metrics().counter(&format!("phase.{label}")), 1);
        }
        for kind in kinds {
            c.on_request_issued(at, node, kind, false);
            assert_eq!(
                c.metrics()
                    .counter(&format!("module.master.request.{kind}")),
                1
            );
        }
        let per_module: u64 = ["master", "home", "slave"]
            .iter()
            .map(|m| c.metrics().counter(&format!("module.{m}.phases")))
            .sum();
        assert_eq!(per_module, phases.len() as u64);
        assert_eq!(
            c.metrics().counters().count(),
            phases.len() + kinds.len() + 3 + 1,
            "the phase, request and module keys plus span.opened"
        );
    }
}
