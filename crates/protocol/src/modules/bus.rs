//! The typed message bus connecting the protocol modules.
//!
//! The bus owns the network fabric and the discrete-event queue: every
//! inter-module communication — remote sends over the fabric, node-local
//! hand-offs, retries, processor accesses, user-level bulk transfers —
//! goes through it as a [`BusMsg`]. The modules never touch the fabric or
//! the event queue directly, so all scheduling (and therefore the
//! simulation's deterministic event order) is concentrated here.
//!
//! # The link-level recovery layer
//!
//! When the fabric carries a non-trivial [`FaultPlan`] *and* recovery is
//! enabled ([`RecoveryParams::enabled`]), the bus **arms** a link layer
//! over every remote (src, dst) pair:
//!
//! * outgoing unicasts are stamped with a per-link sequence number and a
//!   copy is parked in the sender's go-back-N window;
//! * the receiver accepts exactly the next expected sequence number and
//!   discards duplicates and out-of-order frames
//!   ([`MessageBus::accept_frame`]); accepting a frame acknowledges it
//!   (and everything before it) instantly — the ack rides a zero-cost
//!   control network, modeling the credit-return wires of the real
//!   machine;
//! * an unacked window is retransmitted in order when its [`BusMsg::LinkTimer`]
//!   fires, with exponential backoff, until the
//!   [`RecoveryParams::max_retransmits`] budget escalates to a
//!   [`RecoveryError::LinkRetransmitBudget`];
//! * multicast copies are sequenced on their destination link exactly
//!   like unicasts — a dropped or delayed invalidation copy can therefore
//!   never reorder against the sequenced unicast stream it shares a link
//!   with (retransmitted copies re-attach their gather identifier);
//! * gather replies ride the combining tree and carry no sequence
//!   number — their recovery is the gather layer: an open gather that
//!   misses its [`BusMsg::GatherTimer`] is cancelled and its multicast
//!   idempotently re-issued under a fresh [`GatherId`], while a
//!   per-gather replied set absorbs duplicate and stale replies.
//!
//! On a lossless fabric ([`FaultPlan::is_none`]) the layer stays unarmed:
//! no sequence numbers, no timers, no window state — event-for-event the
//! same schedule as before the layer existed, which is what keeps golden
//! traces bit-identical.

use crate::addr::Addr;
use crate::engine::MemOp;
use crate::messages::{ProtoMsg, TxnId};
use crate::params::{RecoveryError, RecoveryParams};
use cenju4_des::{Duration, EventQueue, FxHashMap, FxHashSet, FxHasher, SimTime, SplitMix64};
use cenju4_directory::nodemap::DestSpec;
use cenju4_directory::{NodeId, SystemSize};
use cenju4_network::fabric::GatherId;
use cenju4_network::params::MulticastMode;
use cenju4_network::tables::LinkTable;
use cenju4_network::{
    Delivery, Fabric, FaultEvent, FaultPlan, NetParams, NetStats, Shared, WireClass,
};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// The wire class the fault plan matches a protocol message against.
pub(crate) fn wire_class(msg: &ProtoMsg) -> WireClass {
    match msg {
        ProtoMsg::Request { .. } | ProtoMsg::Forward { .. } => WireClass::Request,
        ProtoMsg::DataReply { .. }
        | ProtoMsg::AckReply { .. }
        | ProtoMsg::SlaveReply { .. }
        | ProtoMsg::InvAck { .. }
        | ProtoMsg::Nack { .. } => WireClass::Reply,
        ProtoMsg::Invalidate { .. } | ProtoMsg::Update { .. } => WireClass::Invalidation,
        ProtoMsg::WriteBack { .. } => WireClass::WriteBack,
        ProtoMsg::UserMessage { .. } => WireClass::Other,
    }
}

/// An event carried by the bus.
#[derive(Clone, Debug)]
pub enum BusMsg {
    /// A processor access reaches the master module.
    Access {
        /// The issuing node.
        node: NodeId,
        /// The operation.
        op: MemOp,
        /// The target block.
        addr: Addr,
        /// The transaction id.
        txn: TxnId,
    },
    /// A protocol message arrives at `dst`.
    Recv {
        /// The receiving node.
        dst: NodeId,
        /// The sending node.
        src: NodeId,
        /// The message.
        msg: ProtoMsg,
        /// The in-network gather this delivery belongs to, if any.
        gather: Option<GatherId>,
        /// The link-layer sequence number, when the recovery layer is
        /// armed and this is a sequenced unicast frame.
        seq: Option<u64>,
    },
    /// A nacked master retries.
    Retry {
        /// The retrying node.
        node: NodeId,
        /// The nacked transaction.
        txn: TxnId,
    },
    /// A user-level message finished arriving.
    MpDeliver {
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
    },
    /// Retransmission timeout of the link-layer window `src -> dst`.
    LinkTimer {
        /// The sending side owning the unacked window.
        src: NodeId,
        /// The receiving side.
        dst: NodeId,
    },
    /// Re-issue timeout of an open gather at `home`.
    GatherTimer {
        /// The home that opened the gather.
        home: NodeId,
        /// The gather being watched.
        id: GatherId,
    },
    /// Escalation timeout of an outstanding master transaction.
    TxnTimer {
        /// The issuing node.
        node: NodeId,
        /// The watched transaction.
        txn: TxnId,
    },
    /// Failure-detector probe of a suspected node: when it fires, the
    /// detector checks whether the suspect answers and either quarantines
    /// it or clears the suspicion.
    ProbeTimer {
        /// The suspected node.
        node: NodeId,
    },
    /// Scheduled revival of a quarantined node whose down window ends.
    RejoinTimer {
        /// The quarantined node.
        node: NodeId,
    },
    /// A caller-scheduled marker.
    Marker(u64),
}

impl BusMsg {
    /// A short human-readable label for schedule listings and traces.
    fn label(&self) -> &'static str {
        match self {
            BusMsg::Access { .. } => "proc:access",
            BusMsg::Recv { msg, .. } => msg.label(),
            BusMsg::Retry { .. } => "proc:retry",
            BusMsg::MpDeliver { .. } => "mp:deliver",
            BusMsg::LinkTimer { .. } => "timer:link",
            BusMsg::GatherTimer { .. } => "timer:gather",
            BusMsg::TxnTimer { .. } => "timer:txn",
            BusMsg::ProbeTimer { .. } => "timer:probe",
            BusMsg::RejoinTimer { .. } => "timer:rejoin",
            BusMsg::Marker(_) => "marker",
        }
    }

    /// The ordering channel this event belongs to. Events on the same
    /// channel must fire in (time, sequence) order even under a
    /// controlled scheduler: the network guarantees per-(src, dst)
    /// in-order delivery (which the protocol relies on — e.g. a writeback
    /// must reach the home before the evictor's next request for the same
    /// block), and a processor issues its accesses in program order.
    /// `None` means the event is not bound to a channel; non-timer
    /// unordered events are always ready, while timers are additionally
    /// gated (see [`MessageBus::pending`]).
    fn channel(&self) -> Option<Channel> {
        match self {
            BusMsg::Recv { dst, src, .. } if src != dst => Some(Channel::Wire(*src, *dst)),
            BusMsg::Recv { dst, .. } => Some(Channel::Local(*dst)),
            BusMsg::Access { node, .. } => Some(Channel::Proc(*node)),
            BusMsg::Retry { .. }
            | BusMsg::MpDeliver { .. }
            | BusMsg::LinkTimer { .. }
            | BusMsg::GatherTimer { .. }
            | BusMsg::TxnTimer { .. }
            | BusMsg::ProbeTimer { .. }
            | BusMsg::RejoinTimer { .. }
            | BusMsg::Marker(_) => None,
        }
    }

    /// Folds the event's content — discriminant, channel and payload,
    /// but *not* its scheduled time or insertion sequence — into a
    /// hasher. See [`PendingEvent::content`].
    fn fold_content(&self, h: &mut impl Hasher) {
        std::mem::discriminant(self).hash(h);
        match self {
            BusMsg::Access {
                node,
                op,
                addr,
                txn,
            } => (node, op, addr, txn).hash(h),
            BusMsg::Recv {
                dst,
                src,
                msg,
                gather,
                seq,
            } => (dst, src, msg, gather, seq).hash(h),
            BusMsg::Retry { node, txn } => (node, txn).hash(h),
            // `sent` is a timestamp; the digest abstracts absolute times.
            BusMsg::MpDeliver {
                to,
                from,
                tag,
                bytes,
                ..
            } => (to, from, tag, bytes).hash(h),
            BusMsg::LinkTimer { src, dst } => (src, dst).hash(h),
            BusMsg::GatherTimer { home, id } => (home, id).hash(h),
            BusMsg::TxnTimer { node, txn } => (node, txn).hash(h),
            BusMsg::ProbeTimer { node } | BusMsg::RejoinTimer { node } => node.hash(h),
            BusMsg::Marker(m) => m.hash(h),
        }
    }

    /// Whether this is a recovery-layer timer. In controlled-schedule
    /// mode timers are only ready once *nothing but timers* is parked,
    /// and then only the earliest-deadline timer is. A real timeout is
    /// calibrated to exceed any in-flight latency, and real timers fire
    /// in deadline order — a schedule that fires a timer ahead of a
    /// deliverable event, or a backoff timer ahead of an earlier link
    /// retransmission, is one the machine cannot produce. Allowing
    /// either would let the explorer forge retry-budget exhaustion by
    /// firing one transaction's escalation timer over and over while
    /// the retransmission that makes progress sits parked.
    fn is_timer(&self) -> bool {
        matches!(
            self,
            BusMsg::LinkTimer { .. }
                | BusMsg::GatherTimer { .. }
                | BusMsg::TxnTimer { .. }
                | BusMsg::ProbeTimer { .. }
                | BusMsg::RejoinTimer { .. }
        )
    }
}

/// The failure detector's view of one node. Only meaningful while the
/// detector is active (recovery armed and the fault plan contains
/// node-down windows); otherwise every node reports [`NodeHealth::Up`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum NodeHealth {
    /// Answering normally.
    #[default]
    Up,
    /// Missed enough retransmission rounds to be probed.
    Suspected,
    /// Declared dead: scrubbed from directories, all traffic to and from
    /// it is discarded until it rejoins.
    Quarantined,
}

/// An ordering channel for controlled scheduling; see [`BusMsg::channel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Remote deliveries between one ordered (src, dst) pair.
    Wire(NodeId, NodeId),
    /// Node-local hand-offs (src == dst), ordered among themselves.
    Local(NodeId),
    /// Processor accesses of one node, in program order.
    Proc(NodeId),
}

impl Channel {
    /// A canonical sort key, so state fingerprints enumerate channels in
    /// a path-independent order.
    pub fn sort_key(&self) -> (u8, u16, u16) {
        match self {
            Channel::Wire(s, d) => (0, s.as_usize() as u16, d.as_usize() as u16),
            Channel::Local(n) => (1, n.as_usize() as u16, 0),
            Channel::Proc(n) => (2, n.as_usize() as u16, 0),
        }
    }
}

/// The state a pending event can read or write when it fires: the seam
/// the checker's partial-order reduction is built on. Two ready events
/// *commute* (either firing order reaches the same protocol state) when
/// their footprints are disjoint — they fire at different nodes, touch
/// different blocks (and therefore different directory entries and cache
/// lines), and contribute to different in-network gathers — and both are
/// channel-ordered deliveries (timers and always-ready events never
/// commute: their firing discipline is globally ordered).
#[derive(Clone, Copy, Debug)]
pub struct Footprint {
    /// The node whose modules the event mutates when it fires.
    pub node: NodeId,
    /// The block (directory entry, cache line, memory word) it touches.
    /// `None` means "unknown" and conflicts with everything.
    pub addr: Option<Addr>,
    /// The in-network gather whose combining state a delivery mutates.
    pub gather: Option<GatherId>,
    /// Whether the event rides an ordering channel (non-timer,
    /// non-always-ready). Only ordered events participate in reduction.
    pub ordered: bool,
}

impl Footprint {
    /// Whether two footprints touch disjoint state. Conservative: any
    /// missing address, shared gather, or unordered event conflicts.
    pub fn disjoint(&self, other: &Footprint) -> bool {
        if !self.ordered || !other.ordered || self.node == other.node {
            return false;
        }
        let addrs_disjoint = match (self.addr, other.addr) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        };
        let gathers_disjoint = match (self.gather, other.gather) {
            (Some(a), Some(b)) => a != b,
            _ => true,
        };
        addrs_disjoint && gathers_disjoint
    }
}

/// A snapshot of one event waiting in the held queue of a controlled
/// bus, exposed to the checker through `Engine::pending_events`.
#[derive(Clone, Debug)]
pub struct PendingEvent {
    /// Scheduled firing time in the uncontrolled simulation.
    pub at: SimTime,
    /// Whether the event may fire next without violating a channel's
    /// in-order guarantee. Only ready events are legal schedule choices.
    pub ready: bool,
    /// The node the event fires at.
    pub node: NodeId,
    /// The sending node, for message deliveries.
    pub src: Option<NodeId>,
    /// Short description, e.g. `home:request` or `proc:access`.
    pub label: &'static str,
    /// The block concerned, when the event names one.
    pub addr: Option<Addr>,
    /// The transaction concerned, when the event names one.
    pub txn: Option<TxnId>,
    /// The ordering channel, if any (see [`BusMsg::channel`]).
    pub chan: Option<Channel>,
    /// Whether this is a recovery-layer timer.
    pub timer: bool,
    /// The in-network gather this delivery belongs to, if any.
    pub gather: Option<GatherId>,
    /// A digest of the event's full content (channel plus message
    /// payload), *excluding* its scheduled time and insertion sequence.
    /// Stable while the event is parked and across different paths that
    /// park the same logical event, so the checker can use it both as a
    /// transition identity for sleep sets and as the held-event
    /// contribution to a state fingerprint. Among simultaneously *ready*
    /// events digests are distinct: readiness admits one event per
    /// channel, and the digest folds the channel in.
    pub content: u64,
}

impl PendingEvent {
    /// The state this event touches when it fires — the independence
    /// seam for dynamic partial-order reduction.
    pub fn footprint(&self) -> Footprint {
        Footprint {
            node: self.node,
            addr: self.addr,
            gather: self.gather,
            ordered: self.chan.is_some(),
        }
    }

    /// Whether firing this event and `other` in either order reaches the
    /// same protocol state, given the controlled scheduler's virtual
    /// clock `now`. Requires disjoint footprints *and* order-invariant
    /// fire times: the scheduler clamps a chosen event's firing time up
    /// to the clock (`at.max(now)`), so two events commute timewise only
    /// when both are already due (`at <= now`, each fires at `now` in
    /// either order) or share a scheduled time. Timestamps downstream of
    /// the pair (fabric port contention among the messages they send) may
    /// still differ — the checker's state fingerprint deliberately
    /// abstracts absolute times, and the DPOR soundness harness checks
    /// the abstraction empirically against full enumeration.
    pub fn commutes_with(&self, other: &PendingEvent, now: SimTime) -> bool {
        let times_ok = self.at == other.at || (self.at <= now && other.at <= now);
        times_ok && self.footprint().disjoint(&other.footprint())
    }
}

/// The held event set of a bus in controlled-schedule mode. Events are
/// parked here instead of the time-ordered queue; the checker picks which
/// ready event fires next.
struct HeldQueue {
    /// Parked events as (scheduled time, insertion sequence, event). The
    /// sequence breaks time ties exactly like the event queue's tie-break,
    /// so choosing the minimal (at, seq) event reproduces the natural
    /// schedule.
    events: Vec<(SimTime, u64, BusMsg)>,
    /// Next insertion sequence number.
    seq: u64,
    /// Monotonic virtual clock: the maximum scheduled time of any event
    /// fired so far. Events chosen "early" are clamped up to this so the
    /// per-module service queues still see nondecreasing arrival times.
    now: SimTime,
}

/// A sequenced frame parked in a sender's go-back-N window until its
/// acknowledgement retires it: a unicast, or one destination's copy of a
/// multicast (which keeps the gather identifier its retransmissions must
/// re-attach).
#[derive(Clone)]
struct Frame {
    seq: u64,
    data: bool,
    /// The parked copy aliases the transmitted message's allocation;
    /// retransmits clone the handle, never the message.
    msg: Shared<ProtoMsg>,
    gather: Option<GatherId>,
}

/// The sender side of one armed link.
#[derive(Clone, Default)]
struct LinkSend {
    /// Next sequence number to stamp.
    next_seq: u64,
    /// Sent-but-unacked frames, in sequence order.
    unacked: VecDeque<Frame>,
    /// Consecutive retransmission rounds without progress.
    attempts: u32,
    /// Whether a [`BusMsg::LinkTimer`] is currently scheduled.
    timer_armed: bool,
}

/// Everything needed to idempotently re-issue a gathered multicast.
struct GatherRetry {
    spec: DestSpec,
    data: bool,
    msg: Shared<ProtoMsg>,
    /// Re-issues performed so far.
    attempts: u32,
}

/// What a fired [`BusMsg::LinkTimer`] did.
pub(crate) enum LinkTimerOutcome {
    /// The window was already empty (everything acked) — the timer
    /// self-drains without rescheduling.
    Idle,
    /// The unacked window was retransmitted and the timer re-armed.
    Retransmitted {
        /// Frames put back on the wire.
        frames: u32,
        /// Which retransmission round this was (1-based).
        attempt: u32,
    },
    /// The retransmission budget is exhausted; the window was abandoned.
    GaveUp(RecoveryError),
}

/// What a fired [`BusMsg::GatherTimer`] did.
pub(crate) enum GatherTimerOutcome {
    /// The gather already completed (or was superseded) — the timer
    /// self-drains without rescheduling.
    Done,
    /// The gather was cancelled and its multicast re-issued under a new
    /// gather id.
    Reissued {
        /// Copies delivered by the re-issued multicast.
        copies: u32,
        /// Which re-issue this was (1-based).
        attempt: u32,
    },
    /// The re-issue budget is exhausted; the gather was cancelled for
    /// good.
    GaveUp(RecoveryError),
}

/// The fabric plus the event queue, with optional deterministic delivery
/// jitter and the optional link-level recovery layer. See the module
/// docs.
pub struct MessageBus {
    fabric: Fabric<Shared<ProtoMsg>>,
    queue: EventQueue<BusMsg>,
    /// Number of nodes, the dense link-table dimension.
    nodes: usize,
    /// Optional deterministic perturbation of message delivery times,
    /// used by race-coverage tests to explore different interleavings.
    jitter: Option<(SplitMix64, u8)>,
    /// With jitter on: last delivery time (ns) per (src, dst), to
    /// preserve the network's in-order guarantee (which the protocol
    /// relies on — e.g. a writeback must reach the home before the
    /// evictor's next request for the same block). Dense; zero-sized
    /// until jitter is enabled.
    jitter_order: LinkTable<u64>,
    /// Controlled-schedule mode (the checker picks the next event).
    /// Mutually exclusive with jitter.
    held: Option<HeldQueue>,
    /// Recovery-layer configuration.
    recovery: RecoveryParams,
    /// Whether the link layer is armed: recovery enabled *and* the fabric
    /// can actually misbehave. Unarmed, every recovery path below is
    /// skipped entirely.
    armed: bool,
    /// Sender windows of armed links: a dense (src, dst) table,
    /// zero-sized until the layer arms.
    links: LinkTable<LinkSend>,
    /// Receiver side: next expected sequence number per (src, dst),
    /// dense like `links`.
    recv_next: LinkTable<u64>,
    /// Re-issue state of every open gather (armed mode only).
    gather_retries: FxHashMap<GatherId, GatherRetry>,
    /// Nodes that already contributed to each open gather, so duplicate
    /// replies are absorbed before they hit the fabric's combiner.
    gather_replied: FxHashMap<GatherId, FxHashSet<NodeId>>,
    /// Whether the node failure detector is active: the layer is armed
    /// *and* the fault plan can silence whole nodes. Inactive, the health
    /// vector is empty and every node reports [`NodeHealth::Up`].
    detector: bool,
    /// Per-node detector state; empty unless the detector is active.
    health: Vec<NodeHealth>,
}

impl MessageBus {
    pub(crate) fn new(sys: SystemSize, net: NetParams) -> Self {
        MessageBus {
            fabric: Fabric::new(sys, net),
            queue: EventQueue::new(),
            nodes: sys.nodes() as usize,
            jitter: None,
            jitter_order: LinkTable::new(0),
            held: None,
            recovery: RecoveryParams::default(),
            armed: false,
            links: LinkTable::new(0),
            recv_next: LinkTable::new(0),
            gather_retries: FxHashMap::default(),
            gather_replied: FxHashMap::default(),
            detector: false,
            health: Vec::new(),
        }
    }

    pub(crate) fn enable_jitter(&mut self, seed: u64, pct: u8) {
        assert!(
            self.held.is_none(),
            "jitter and controlled scheduling are mutually exclusive"
        );
        self.jitter = Some((SplitMix64::new(seed), pct));
        self.jitter_order = LinkTable::new(self.nodes);
    }

    /// Switches the bus into controlled-schedule mode: newly scheduled
    /// events are parked in a held set instead of the time-ordered queue,
    /// and [`MessageBus::pop_held`] fires the one the caller picks. Must
    /// be enabled before any event is scheduled.
    pub(crate) fn enable_controlled(&mut self) {
        assert!(
            self.jitter.is_none(),
            "jitter and controlled scheduling are mutually exclusive"
        );
        assert!(
            self.queue.is_empty(),
            "controlled scheduling must be enabled before events are scheduled"
        );
        self.held = Some(HeldQueue {
            events: Vec::new(),
            seq: 0,
            now: self.queue.now(),
        });
    }

    /// Whether the bus is in controlled-schedule mode.
    pub(crate) fn is_controlled(&self) -> bool {
        self.held.is_some()
    }

    /// Number of parked events (controlled mode only).
    pub(crate) fn held_len(&self) -> usize {
        self.held.as_ref().map_or(0, |h| h.events.len())
    }

    /// Snapshots the parked events, sorted by (scheduled time, insertion
    /// sequence) — index 0 is the event the uncontrolled simulation would
    /// fire next. At least one event is always ready: every channel's
    /// earliest event is, and the earliest-deadline timer becomes ready
    /// once only timers remain. Indices returned here are the choice
    /// indices accepted by [`MessageBus::pop_held`].
    pub(crate) fn pending(&self) -> Vec<PendingEvent> {
        let h = self
            .held
            .as_ref()
            .expect("pending() requires controlled mode");
        let order = Self::sorted_order(h);
        let only_timers = h.events.iter().all(|(_, _, m)| m.is_timer());
        order
            .iter()
            .map(|&i| {
                let (at, seq, msg) = &h.events[i];
                let ready = match msg.channel() {
                    None if msg.is_timer() => {
                        // Timers fire in deadline order: ready only when
                        // nothing but timers remains AND this is the
                        // earliest one.
                        only_timers && h.events.iter().all(|(a, s, _)| (*a, *s) >= (*at, *seq))
                    }
                    None => true,
                    Some(ch) => h
                        .events
                        .iter()
                        .all(|(a, s, m)| m.channel() != Some(ch) || (*a, *s) >= (*at, *seq)),
                };
                let (node, src) = match msg {
                    BusMsg::Access { node, .. }
                    | BusMsg::Retry { node, .. }
                    | BusMsg::TxnTimer { node, .. }
                    | BusMsg::ProbeTimer { node }
                    | BusMsg::RejoinTimer { node } => (*node, None),
                    BusMsg::Recv { dst, src, .. } => (*dst, Some(*src)),
                    BusMsg::MpDeliver { to, from, .. } => (*to, Some(*from)),
                    BusMsg::LinkTimer { src, dst } => (*src, Some(*dst)),
                    BusMsg::GatherTimer { home, .. } => (*home, None),
                    BusMsg::Marker(_) => (NodeId::new(0), None),
                };
                let (addr, txn) = match msg {
                    BusMsg::Access { addr, txn, .. } => (Some(*addr), Some(*txn)),
                    BusMsg::Recv { msg, .. } => (Some(msg.addr()), msg.txn()),
                    BusMsg::Retry { txn, .. } | BusMsg::TxnTimer { txn, .. } => (None, Some(*txn)),
                    BusMsg::MpDeliver { .. }
                    | BusMsg::LinkTimer { .. }
                    | BusMsg::GatherTimer { .. }
                    | BusMsg::ProbeTimer { .. }
                    | BusMsg::RejoinTimer { .. }
                    | BusMsg::Marker(_) => (None, None),
                };
                let gather = match msg {
                    BusMsg::Recv { gather, .. } => *gather,
                    _ => None,
                };
                let chan = msg.channel();
                let mut hasher = FxHasher::default();
                chan.hash(&mut hasher);
                msg.fold_content(&mut hasher);
                PendingEvent {
                    at: *at,
                    ready,
                    node,
                    src,
                    label: msg.label(),
                    addr,
                    txn,
                    chan,
                    timer: msg.is_timer(),
                    gather,
                    content: hasher.finish(),
                }
            })
            .collect()
    }

    /// Fires the parked event at sorted position `choice` (the index into
    /// [`MessageBus::pending`]'s snapshot). The event's firing time is
    /// clamped up to the virtual clock so module service queues still see
    /// nondecreasing arrivals when the checker fires events "early".
    ///
    /// # Panics
    ///
    /// Panics if the chosen event is not ready (an earlier event exists on
    /// the same ordering channel) — such a choice would forge a network
    /// reordering the real machine cannot produce.
    pub(crate) fn pop_held(&mut self, choice: usize) -> Option<(SimTime, BusMsg)> {
        let h = self
            .held
            .as_mut()
            .expect("pop_held() requires controlled mode");
        if choice >= h.events.len() {
            return None;
        }
        let order = Self::sorted_order(h);
        let idx = order[choice];
        let (at, seq) = (h.events[idx].0, h.events[idx].1);
        if let Some(ch) = h.events[idx].2.channel() {
            assert!(
                h.events
                    .iter()
                    .all(|(a, s, m)| m.channel() != Some(ch) || (*a, *s) >= (at, seq)),
                "schedule choice {choice} is not ready: an earlier event \
                 exists on its ordering channel"
            );
        } else if h.events[idx].2.is_timer() {
            assert!(
                h.events
                    .iter()
                    .all(|(a, s, m)| m.is_timer() && (*a, *s) >= (at, seq)),
                "schedule choice {choice} is not ready: timers fire in \
                 deadline order, after every deliverable event"
            );
        }
        let (at, _, msg) = h.events.remove(idx);
        let fire = at.max(h.now);
        h.now = fire;
        Some((fire, msg))
    }

    fn sorted_order(h: &HeldQueue) -> Vec<usize> {
        let mut order: Vec<usize> = (0..h.events.len()).collect();
        order.sort_by_key(|&i| (h.events[i].0, h.events[i].1));
        order
    }

    /// Folds the held event set into a hasher in a canonical,
    /// path-independent order: channels sorted by their kind and
    /// endpoints, events within a channel in their forced delivery
    /// order, unordered events sorted by content digest. Scheduled times
    /// and insertion sequences are deliberately excluded — two schedules
    /// that park the same messages in the same per-channel orders have
    /// the same digest even when they got there at different virtual
    /// times. Controlled mode only.
    pub(crate) fn fold_held(&self, h: &mut impl Hasher) {
        let held = self
            .held
            .as_ref()
            .expect("fold_held() requires controlled mode");
        // (channel sort key, at, seq, index): groups events by channel
        // and keeps the in-channel delivery order.
        type ChannelRank = ((u8, u16, u16), SimTime, u64, usize);
        let mut order: Vec<ChannelRank> = held
            .events
            .iter()
            .enumerate()
            .map(|(i, (at, seq, msg))| {
                let key = msg.channel().map_or((3, 0, 0), |c| c.sort_key());
                (key, *at, *seq, i)
            })
            .collect();
        order.sort();
        held.events.len().hash(h);
        let mut timers = Vec::new();
        let mut unordered = Vec::new();
        for (key, _, _, i) in order {
            let msg = &held.events[i].2;
            if key.0 == 3 {
                let mut hh = FxHasher::default();
                msg.fold_content(&mut hh);
                if msg.is_timer() {
                    // Timers fire in deadline order: their (at, seq) rank
                    // is behavior, keep it.
                    timers.push(hh.finish());
                } else {
                    // Always-ready events (retries, markers) have no
                    // forced mutual order; canonicalize by content.
                    unordered.push(hh.finish());
                }
            } else {
                key.hash(h);
                msg.fold_content(h);
            }
        }
        unordered.sort_unstable();
        for d in unordered {
            d.hash(h);
        }
        for (rank, d) in timers.iter().enumerate() {
            (rank, d).hash(h);
        }
        // In-flight gather combining progress lives in the fabric, not
        // the held set: replies already absorbed by a switch are state.
        self.fabric.fold_gathers(h, |p, h| (**p).hash(h));
        // Armed-mode recovery bookkeeping (empty on a lossless fabric).
        let mut replied: Vec<(GatherId, Vec<NodeId>)> = self
            .gather_replied
            .iter()
            .map(|(id, set)| {
                let mut nodes: Vec<NodeId> = set.iter().copied().collect();
                nodes.sort_unstable();
                (*id, nodes)
            })
            .collect();
        replied.sort_unstable_by_key(|(id, _)| *id);
        replied.hash(h);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        match &self.held {
            Some(h) => h.now,
            None => self.queue.now(),
        }
    }

    /// Network counters.
    pub fn net_stats(&self) -> &NetStats {
        self.fabric.stats()
    }

    // ------------------------------------------------------------------
    // Conservative-parallel executor support
    // ------------------------------------------------------------------

    /// Number of pending events in the time-ordered queue.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The timestamp of the earliest pending event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Advances the clock without popping (never rewinds) — used by the
    /// window commit so `now()` tracks events processed off-queue.
    pub(crate) fn advance_now(&mut self, at: SimTime) {
        self.queue.advance_to(at);
    }

    /// The fabric's conservative lookahead: the minimum latency of any
    /// cross-node traversal (see [`Fabric::lookahead`]).
    pub(crate) fn lookahead(&self) -> Duration {
        self.fabric.lookahead()
    }

    /// Whether deterministic timing jitter is enabled. Jitter perturbs
    /// deliveries in *global pop order*, which a windowed executor does
    /// not reproduce — jittered runs stay sequential.
    pub(crate) fn jitter_enabled(&self) -> bool {
        self.jitter.is_some()
    }

    /// Whether the fabric replicates multicasts in the switches.
    /// Emulated singlecast fan-out can hand a combined gather reply to a
    /// *local* home faster than the lookahead, so only hardware-mode
    /// runs are eligible for parallel execution.
    pub(crate) fn hardware_multicast(&self) -> bool {
        self.fabric.params().multicast == MulticastMode::Hardware
    }

    /// Installs a fabric fault plan, re-deriving whether the recovery
    /// layer is armed. Resets all link-layer state — plans are installed
    /// before a run, not mid-flight.
    pub(crate) fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fabric.set_fault_plan(plan);
        self.rearm();
    }

    /// The installed fault plan.
    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        self.fabric.fault_plan()
    }

    /// Drains the fault events the fabric recorded since the last call.
    pub(crate) fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        self.fabric.take_fault_events()
    }

    /// Installs the recovery configuration, re-deriving the armed flag.
    pub(crate) fn set_recovery(&mut self, rec: RecoveryParams) {
        self.recovery = rec;
        self.rearm();
    }

    /// The recovery configuration.
    pub(crate) fn recovery(&self) -> RecoveryParams {
        self.recovery
    }

    /// Whether the link-level recovery layer is armed; see the module
    /// docs.
    pub(crate) fn armed(&self) -> bool {
        self.armed
    }

    /// Gathers currently open in the fabric (leak check at quiescence).
    pub(crate) fn open_gathers(&self) -> usize {
        self.fabric.open_gathers()
    }

    fn rearm(&mut self) {
        self.armed = self.recovery.enabled && !self.fabric.fault_plan().is_none();
        // Dense sender/receiver tables exist only while armed; the
        // lossless fast path never pays for them.
        let dim = if self.armed { self.nodes } else { 0 };
        self.links = LinkTable::new(dim);
        self.recv_next = LinkTable::new(dim);
        self.gather_retries.clear();
        self.gather_replied.clear();
        // The failure detector only runs when whole nodes can go silent;
        // link-only fault plans keep the armed traces untouched.
        self.detector = self.armed && !self.fabric.fault_plan().node_down.is_empty();
        self.health = if self.detector {
            vec![NodeHealth::Up; self.nodes]
        } else {
            Vec::new()
        };
    }

    /// Whether the node failure detector is active.
    pub(crate) fn detector_active(&self) -> bool {
        self.detector
    }

    /// The detector's view of `node` ([`NodeHealth::Up`] when inactive).
    pub(crate) fn node_health(&self, node: NodeId) -> NodeHealth {
        if self.detector {
            self.health[node.as_usize()]
        } else {
            NodeHealth::Up
        }
    }

    pub(crate) fn set_node_health(&mut self, node: NodeId, h: NodeHealth) {
        debug_assert!(self.detector, "health transitions need an active detector");
        self.health[node.as_usize()] = h;
    }

    /// Clears the go-back-N windows of every link touching `node`, in
    /// both directions. Armed link timers are left scheduled — they fire
    /// over an empty window and self-drain as [`LinkTimerOutcome::Idle`].
    pub(crate) fn scrub_node_links(&mut self, node: NodeId) {
        for i in 0..self.nodes {
            let other = NodeId::new(i as u16);
            if other == node {
                continue;
            }
            for (s, d) in [(node, other), (other, node)] {
                let link = self.links.get_mut(s, d);
                link.unacked.clear();
                link.attempts = 0;
            }
        }
    }

    /// Resets the sequence state of every link touching `node`, in both
    /// directions, so a revived node and its peers restart from sequence
    /// zero — without this, frames sent to the revived node would be
    /// discarded forever as gap frames.
    pub(crate) fn reset_node_links(&mut self, node: NodeId) {
        for i in 0..self.nodes {
            let other = NodeId::new(i as u16);
            if other == node {
                continue;
            }
            for (s, d) in [(node, other), (other, node)] {
                let link = self.links.get_mut(s, d);
                link.next_seq = 0;
                link.unacked.clear();
                link.attempts = 0;
                *self.recv_next.get_mut(s, d) = 0;
            }
        }
    }

    /// Cancels every open gather that involves `node` — as a destination
    /// or as the home that opened it — dropping its re-issue state.
    /// Returns, for each cancelled gather homed at a *surviving* node,
    /// the `(home, addr, txn, expected)` needed to synthesize the one
    /// combined acknowledgement the home is still waiting for (`expected`
    /// is the gather's full expected contribution count: the fabric only
    /// ever hands the home a single combined reply, so the synthesized
    /// one must carry the whole fan-in).
    pub(crate) fn scrub_gathers_touching(
        &mut self,
        node: NodeId,
    ) -> Vec<(NodeId, Addr, TxnId, u32)> {
        let sys = self.fabric.topology().system();
        let mut ids: Vec<GatherId> = self
            .gather_retries
            .iter()
            .filter(|(_, r)| {
                r.msg.addr().home() == node || (sys.contains(node) && r.spec.contains(node))
            })
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        let mut out = Vec::new();
        for id in ids {
            let retry = self.gather_retries.remove(&id).expect("listed above");
            self.gather_replied.remove(&id);
            if !self.fabric.is_gather_open(id) {
                continue;
            }
            let expected = self.fabric.gather_expected(id);
            self.fabric.cancel_gather(id);
            let addr = retry.msg.addr();
            let home = addr.home();
            if home != node {
                let txn = retry.msg.txn().expect("gathered message names a txn");
                out.push((home, addr, txn, expected));
            }
        }
        out
    }

    /// Exponential backoff: `base << attempt`, saturating.
    fn backoff(base: Duration, attempt: u32) -> Duration {
        Duration::from_ns(base.as_ns().saturating_mul(1u64 << attempt.min(20)))
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, BusMsg)> {
        debug_assert!(
            self.held.is_none(),
            "a controlled bus must be stepped with pop_held()"
        );
        self.queue.pop()
    }

    /// The single choke point every scheduled event passes through: parks
    /// the event when controlled, otherwise hands it to the event queue.
    fn enqueue(&mut self, at: SimTime, msg: BusMsg) {
        match &mut self.held {
            Some(h) => {
                let seq = h.seq;
                h.seq += 1;
                h.events.push((at, seq, msg));
            }
            None => self.queue.schedule_at(at, msg),
        }
    }

    /// Schedules a raw bus event (accesses, retries, markers, deliveries
    /// already timed by the fabric).
    pub(crate) fn schedule(&mut self, at: SimTime, msg: BusMsg) {
        self.enqueue(at, msg);
    }

    /// Sends `msg` from `src` to `dst` at time `now`, using the network
    /// for remote pairs and an immediate local hand-off otherwise. With
    /// the recovery layer armed, remote sends are sequenced and parked in
    /// the link's go-back-N window until acknowledged.
    pub(crate) fn send(&mut self, now: SimTime, src: NodeId, dst: NodeId, msg: ProtoMsg) {
        if src == dst {
            self.enqueue(
                now,
                BusMsg::Recv {
                    dst,
                    src,
                    msg,
                    gather: None,
                    seq: None,
                },
            );
            return;
        }
        let class = wire_class(&msg);
        let data = msg.carries_data();
        let msg = Shared::new(msg);
        if self.armed {
            // The parked frame aliases the transmitted message.
            let seq = self.park_frame(now, src, dst, data, msg.clone(), None);
            let dels = self.fabric.send_unicast(now, src, dst, data, msg, class);
            for d in dels {
                self.schedule_delivery(d, Some(seq));
            }
        } else {
            let dels = self.fabric.send_unicast(now, src, dst, data, msg, class);
            for d in dels {
                self.schedule_delivery(d, None);
            }
        }
    }

    /// Stamps the next sequence number of the armed link `src -> dst`,
    /// parks a retransmittable copy of the frame in its go-back-N window,
    /// and arms the link's retransmission timer if it wasn't already.
    fn park_frame(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        data: bool,
        msg: Shared<ProtoMsg>,
        gather: Option<GatherId>,
    ) -> u64 {
        let link = self.links.get_mut(src, dst);
        let seq = link.next_seq;
        link.next_seq += 1;
        link.unacked.push_back(Frame {
            seq,
            data,
            msg,
            gather,
        });
        let arm_timer = !link.timer_armed;
        link.timer_armed = true;
        if arm_timer {
            self.enqueue(
                now + self.recovery.link_timeout,
                BusMsg::LinkTimer { src, dst },
            );
        }
        seq
    }

    /// Receiver-side link-layer admission of a sequenced frame. Returns
    /// `None` to deliver the frame, or a discard reason (`"dup-frame"`,
    /// `"gap-frame"`). Accepting or discarding also acknowledges the
    /// sender instantly for everything the receiver is known to hold —
    /// the ack models a zero-cost credit-return control network.
    pub(crate) fn accept_frame(
        &mut self,
        src: NodeId,
        dst: NodeId,
        seq: u64,
    ) -> Option<&'static str> {
        let expected = self.recv_next.get_mut(src, dst);
        let verdict = match seq.cmp(expected) {
            core::cmp::Ordering::Less => Some("dup-frame"),
            core::cmp::Ordering::Greater => Some("gap-frame"),
            core::cmp::Ordering::Equal => {
                *expected += 1;
                None
            }
        };
        let acked_below = *expected;
        let link = self.links.get_mut(src, dst);
        let before = link.unacked.len();
        while link.unacked.front().is_some_and(|f| f.seq < acked_below) {
            link.unacked.pop_front();
        }
        if link.unacked.len() < before {
            link.attempts = 0;
        }
        verdict
    }

    /// Handles a fired [`BusMsg::LinkTimer`]: retransmits the unacked
    /// window (go-back-N) and re-arms with exponential backoff, or
    /// self-drains when everything is acked, or gives up when the budget
    /// is exhausted.
    pub(crate) fn link_timer(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
    ) -> LinkTimerOutcome {
        let link = self.links.get_mut(src, dst);
        if link.unacked.is_empty() {
            link.timer_armed = false;
            return LinkTimerOutcome::Idle;
        }
        link.attempts += 1;
        if link.attempts > self.recovery.max_retransmits {
            let seq = link.unacked.front().expect("non-empty window").seq;
            link.unacked.clear();
            link.attempts = 0;
            link.timer_armed = false;
            return LinkTimerOutcome::GaveUp(RecoveryError::LinkRetransmitBudget { src, dst, seq });
        }
        let attempt = link.attempts;
        // Frame clones alias their parked message — a retransmission
        // round allocates nothing per frame.
        let frames: Vec<Frame> = link.unacked.iter().cloned().collect();
        for f in &frames {
            let class = wire_class(&f.msg);
            let dels = self
                .fabric
                .send_unicast(now, src, dst, f.data, f.msg.clone(), class);
            for mut d in dels {
                // A retransmitted multicast copy must still contribute to
                // its gather when it finally lands.
                d.gather = f.gather;
                self.schedule_delivery(d, Some(f.seq));
            }
        }
        self.enqueue(
            now + Self::backoff(self.recovery.link_timeout, attempt),
            BusMsg::LinkTimer { src, dst },
        );
        LinkTimerOutcome::Retransmitted {
            frames: frames.len() as u32,
            attempt,
        }
    }

    /// Opens an in-network gather for the replies to a multicast.
    pub(crate) fn open_gather(&mut self, home: NodeId, spec: DestSpec) -> GatherId {
        self.fabric.open_gather(home, spec)
    }

    /// Registers the re-issue state of a freshly opened gather and arms
    /// its timeout. No-op when the recovery layer is unarmed.
    pub(crate) fn register_gather_recovery(
        &mut self,
        now: SimTime,
        home: NodeId,
        id: GatherId,
        spec: DestSpec,
        data: bool,
        msg: ProtoMsg,
    ) {
        if !self.armed {
            return;
        }
        self.gather_retries.insert(
            id,
            GatherRetry {
                spec,
                data,
                msg: Shared::new(msg),
                attempts: 0,
            },
        );
        self.enqueue(
            now + self.recovery.gather_timeout,
            BusMsg::GatherTimer { home, id },
        );
    }

    /// Handles a fired [`BusMsg::GatherTimer`]: cancels a still-open
    /// gather and idempotently re-issues its multicast under a fresh
    /// gather id (stale replies to the old id are then discarded by
    /// [`MessageBus::send_gather_reply`]); self-drains when the gather
    /// already completed; gives up when the re-issue budget is exhausted.
    /// Re-issued copies are scheduled directly — the retransmission is
    /// invisible to `on_send` observers, like link retransmits.
    pub(crate) fn gather_timer(
        &mut self,
        now: SimTime,
        home: NodeId,
        id: GatherId,
    ) -> GatherTimerOutcome {
        if !self.fabric.is_gather_open(id) {
            self.gather_retries.remove(&id);
            self.gather_replied.remove(&id);
            return GatherTimerOutcome::Done;
        }
        let Some(mut retry) = self.gather_retries.remove(&id) else {
            return GatherTimerOutcome::Done;
        };
        self.gather_replied.remove(&id);
        self.fabric.cancel_gather(id);
        retry.attempts += 1;
        if retry.attempts > self.recovery.max_gather_reissues {
            return GatherTimerOutcome::GaveUp(RecoveryError::GatherReissueBudget { home });
        }
        let attempt = retry.attempts;
        let new_id = self.fabric.open_gather(home, retry.spec);
        let dels = self.send_multicast_shared(
            now,
            home,
            retry.spec,
            retry.data,
            retry.msg.clone(),
            Some(new_id),
        );
        let copies = dels.len() as u32;
        for (d, seq) in dels {
            self.schedule_delivery(d, seq);
        }
        self.enqueue(
            now + Self::backoff(self.recovery.gather_timeout, attempt),
            BusMsg::GatherTimer { home, id: new_id },
        );
        self.gather_retries.insert(new_id, retry);
        GatherTimerOutcome::Reissued { copies, attempt }
    }

    /// Fans `msg` out to `spec`'s destinations, returning the per-node
    /// deliveries with their link sequence numbers (not yet scheduled —
    /// the caller schedules each with [`MessageBus::schedule_delivery`]
    /// after notifying observers).
    ///
    /// With the recovery layer armed, every remote copy is sequenced on
    /// its (src, dst) link and parked in that link's go-back-N window,
    /// exactly like a unicast: the fabric's per-link FIFO then survives
    /// drops and delays of individual copies, so an invalidation can
    /// never overtake (or fall behind) the sequenced unicast stream it
    /// shares a link with. Frames are parked per *destination* (not per
    /// surviving delivery), so a copy the fault plan swallows whole is
    /// still retransmitted. Loopback copies (`dst == src`) never cross a
    /// link and stay unsequenced.
    pub(crate) fn send_multicast(
        &mut self,
        at: SimTime,
        src: NodeId,
        spec: DestSpec,
        data: bool,
        msg: ProtoMsg,
        gather: Option<GatherId>,
    ) -> Vec<(Delivery<Shared<ProtoMsg>>, Option<u64>)> {
        self.send_multicast_shared(at, src, spec, data, Shared::new(msg), gather)
    }

    /// [`MessageBus::send_multicast`] over an already-shared message: the
    /// fan-out copies and every parked per-destination frame alias the
    /// one allocation.
    fn send_multicast_shared(
        &mut self,
        at: SimTime,
        src: NodeId,
        spec: DestSpec,
        data: bool,
        msg: Shared<ProtoMsg>,
        gather: Option<GatherId>,
    ) -> Vec<(Delivery<Shared<ProtoMsg>>, Option<u64>)> {
        let class = wire_class(&msg);
        let dels = self
            .fabric
            .send_multicast(at, src, spec, data, msg.clone(), gather, class);
        if !self.armed {
            return dels.into_iter().map(|d| (d, None)).collect();
        }
        let sys = self.fabric.topology().system();
        let mut seqs: Vec<Option<u64>> = vec![None; self.nodes];
        for dst in spec.destinations(sys) {
            if dst == src {
                continue;
            }
            let seq = self.park_frame(at, src, dst, data, msg.clone(), gather);
            seqs[dst.as_usize()] = Some(seq);
        }
        dels.into_iter()
            .map(|d| {
                let seq = if d.node == src {
                    None
                } else {
                    seqs[d.node.as_usize()]
                };
                (d, seq)
            })
            .collect()
    }

    /// Contributes `msg` to gather `id`; returns the combined delivery
    /// when this was the last expected contribution. With the recovery
    /// layer armed, duplicate contributions from the same node and
    /// contributions to a gather that is no longer open are absorbed
    /// here and reported as an `Err` discard reason.
    pub(crate) fn send_gather_reply(
        &mut self,
        at: SimTime,
        node: NodeId,
        id: GatherId,
        msg: ProtoMsg,
    ) -> Result<Option<Delivery<Shared<ProtoMsg>>>, &'static str> {
        if self.armed {
            if !self.fabric.is_gather_open(id) {
                return Err("stale-gather-reply");
            }
            if !self.gather_replied.entry(id).or_default().insert(node) {
                return Err("dup-gather-reply");
            }
        }
        let d = self
            .fabric
            .send_gather_reply(at, node, id, Shared::new(msg));
        if d.is_some() {
            // The gather closed: drop its recovery state so the pending
            // timer self-drains as `Done`.
            self.gather_retries.remove(&id);
            self.gather_replied.remove(&id);
        }
        Ok(d)
    }

    /// Sends a bulk (user-level) transfer; no jitter is applied and the
    /// fabric never faults it (the MP library runs its own protocol).
    pub(crate) fn send_bulk(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        msg: ProtoMsg,
    ) -> Delivery<Shared<ProtoMsg>> {
        self.fabric.send_bulk(at, src, dst, bytes, Shared::new(msg))
    }

    /// Turns a fabric delivery into a scheduled [`BusMsg::Recv`], applying
    /// the deterministic jitter perturbation when enabled. `seq` is the
    /// link-layer sequence number of sequenced unicast frames.
    pub(crate) fn schedule_delivery(&mut self, d: Delivery<Shared<ProtoMsg>>, seq: Option<u64>) {
        let mut at = d.at;
        if let Some((rng, pct)) = &mut self.jitter {
            let now = self.queue.now();
            let delay = at.since(now).as_ns();
            let span = delay * (*pct as u64) / 100;
            if span > 0 {
                let offset = rng.next_below(2 * span + 1);
                at = now + Duration::from_ns(delay - span + offset);
            }
            // Never reorder two messages between the same pair of nodes.
            let floor = SimTime::from_ns(*self.jitter_order.get(d.src, d.node));
            if at <= floor {
                at = floor + Duration::from_ns(1);
            }
            *self.jitter_order.get_mut(d.src, d.node) = at.as_ns();
        }
        self.enqueue(
            at,
            BusMsg::Recv {
                dst: d.node,
                src: d.src,
                // Unique in the common unicast case: the unwrap is then
                // a move, not a clone.
                msg: Shared::into_inner(d.payload),
                gather: d.gather,
                seq,
            },
        );
    }
}
