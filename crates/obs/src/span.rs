//! Per-transaction spans and the observer that collects them.

use crate::metrics::{CounterKey, MetricsRegistry};
use cenju4_des::{FxHashMap, SimTime};
use cenju4_directory::{NodeId, SystemSize};
use cenju4_network::Topology;
use cenju4_protocol::observer::{ModuleKind, Observer, PhaseKind};
use cenju4_protocol::{Addr, MemOp, ProtoMsg, RecoveryError, ReqKind, TxnId};
use std::collections::VecDeque;

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
/// closed at graduation, with every phase milestone in between.
#[derive(Debug)]
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
    /// Phase milestones, in firing order.
    pub events: Vec<SpanEvent>,
    /// Nack/retry rounds this transaction suffered.
    pub retries: u32,
}

cenju4_des::clone_fields!(Span {
    id,
    txn,
    node,
    addr,
    op,
    kind,
    opened,
    closed,
    class,
    events,
    retries,
});

impl Span {
    /// The span latency, once closed.
    pub fn latency_ns(&self) -> Option<u64> {
        self.closed.map(|c| c.since(self.opened).as_ns())
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
pub struct SpanCollector {
    topo: Topology,
    spans: Vec<Span>,
    /// Open processor-access spans by transaction id.
    open: FxHashMap<TxnId, usize>,
    /// Open writeback pseudo-spans by (evictor, block), FIFO per key —
    /// the fabric delivers same-link messages in order, so the first
    /// writeback sent is the first received.
    open_writebacks: FxHashMap<(NodeId, Addr), VecDeque<usize>>,
    /// The transaction whose access/retry dispatch is currently running
    /// at each node, so the txn-less `on_request_issued` callback can be
    /// attributed to its span.
    last_dispatch: FxHashMap<NodeId, TxnId>,
    metrics: MetricsRegistry,
    next_id: u64,
}

cenju4_des::clone_fields!(SpanCollector {
    topo,
    spans,
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
            open: FxHashMap::default(),
            open_writebacks: FxHashMap::default(),
            last_dispatch: FxHashMap::default(),
            metrics: MetricsRegistry::new(),
            next_id: 0,
        }
    }

    /// Every span, in open order (closed and still-open alike).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The accumulated histograms and counters.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Spans still open — zero at quiescence, or the protocol leaked a
    /// transaction (the span-leak oracle).
    pub fn open_span_count(&self) -> usize {
        self.open.len()
            + self
                .open_writebacks
                .values()
                .map(VecDeque::len)
                .sum::<usize>()
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
            for e in &s.events {
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
    /// are appended in `other`'s open order with ids and open-table
    /// indices re-based, and the metrics registries merge bucket-wise,
    /// so the union reports exactly what one collector watching both
    /// slices would have.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the two collectors have an open span for the
    /// same transaction id — the slices were not disjoint.
    pub fn merge(&mut self, other: SpanCollector) {
        let base = self.spans.len();
        let id_base = self.next_id;
        for mut span in other.spans {
            span.id += id_base;
            self.spans.push(span);
        }
        self.next_id += other.next_id;
        for (txn, idx) in other.open {
            let prev = self.open.insert(txn, base + idx);
            debug_assert!(prev.is_none(), "open span collision on txn {txn}");
        }
        for ((node, addr), q) in other.open_writebacks {
            let slot = self.open_writebacks.entry((node, addr)).or_default();
            slot.extend(q.into_iter().map(|idx| base + idx));
        }
        for (node, txn) in other.last_dispatch {
            self.last_dispatch.insert(node, txn);
        }
        self.metrics.merge(&other.metrics);
    }

    fn push_span(&mut self, span: Span) -> usize {
        let idx = self.spans.len();
        self.spans.push(span);
        idx
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
        self.last_dispatch.insert(node, txn);
        if let Some(&idx) = self.open.get(&txn) {
            // A backlogged access re-dispatching once a request slot
            // freed up: the span stays open from its first issue.
            self.spans[idx].events.push(SpanEvent {
                at,
                node,
                label: "backlog-drain",
                detail: 0,
            });
            self.metrics.incr(CounterKey::PhaseBacklogDrain);
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let idx = self.push_span(Span {
            id,
            txn: Some(txn),
            node,
            addr,
            op: Some(op),
            kind: None,
            opened: at,
            closed: None,
            class: None,
            events: Vec::new(),
            retries: 0,
        });
        self.open.insert(txn, idx);
        self.metrics.incr(CounterKey::SpanOpened);
    }

    fn on_request_issued(&mut self, _at: SimTime, node: NodeId, kind: ReqKind, retry: bool) {
        let Some(&txn) = self.last_dispatch.get(&node) else {
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
        self.last_dispatch.insert(node, txn);
        if let Some(&idx) = self.open.get(&txn) {
            let span = &mut self.spans[idx];
            span.retries += 1;
            span.events.push(SpanEvent {
                at,
                node,
                label: "retry",
                detail: span.retries,
            });
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
            self.spans[idx].events.push(SpanEvent {
                at,
                node,
                label,
                detail,
            });
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
            let idx = self.push_span(Span {
                id,
                txn: None,
                node: from,
                addr,
                op: None,
                kind: None,
                opened: at,
                closed: None,
                class: None,
                events: Vec::new(),
                retries: 0,
            });
            self.open_writebacks
                .entry((from, addr))
                .or_default()
                .push_back(idx);
            self.metrics.incr(CounterKey::SpanOpened);
        }
    }

    fn on_receive(&mut self, at: SimTime, dst: NodeId, _src: NodeId, msg: &ProtoMsg) {
        if let ProtoMsg::WriteBack { addr, from, .. } = *msg {
            debug_assert_eq!(dst, addr.home());
            if let Some(q) = self.open_writebacks.get_mut(&(from, addr)) {
                if let Some(idx) = q.pop_front() {
                    if q.is_empty() {
                        self.open_writebacks.remove(&(from, addr));
                    }
                    self.close(idx, at, SpanClass::Writeback);
                }
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
        // leak spans.
        let mut keys: Vec<(NodeId, Addr)> = self
            .open_writebacks
            .keys()
            .filter(|(from, addr)| *from == node || addr.home() == node)
            .copied()
            .collect();
        keys.sort_unstable();
        for key in keys {
            if let Some(q) = self.open_writebacks.remove(&key) {
                for idx in q {
                    self.close(idx, at, SpanClass::Abandoned);
                }
            }
        }
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
        let labels: Vec<_> = store.events.iter().map(|e| e.label).collect();
        assert!(labels.contains(&"multicast-fanout"), "{labels:?}");
        assert!(labels.contains(&"gather-combine"), "{labels:?}");
        assert!(labels.contains(&"reply"), "{labels:?}");
        // Event timestamps are nondecreasing within the span.
        assert!(store.events.windows(2).all(|w| w[0].at <= w[1].at));
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
