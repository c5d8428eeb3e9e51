//! The three protocol modules of a Cenju-4 node and the bus that
//! connects them.
//!
//! Section 3.1 of the paper splits each node's DSM hardware into three
//! units, reproduced here one struct each:
//!
//! * [`MasterModule`] — the processor side: the MESI second-level cache,
//!   the (up to four) outstanding transactions, the access backlog, and
//!   the update-extension third-level cache held in local main memory.
//! * [`HomeModule`] — the memory side: the directory entries, the home
//!   main-memory data, pending remote transactions, and the main-memory
//!   request queue with its reservation-bit discipline (Section 3.3).
//! * [`SlaveModule`] — the intervention side: services forwards,
//!   invalidations, and update pushes against the local cache.
//!
//! Modules never call each other and never touch the event queue or the
//! network directly: all communication flows through the typed
//! [`MessageBus`](bus::MessageBus) as [`BusMsg`](bus::BusMsg) events, and
//! all instrumentation is routed to the engine's observers via [`Ctx`].
//!
//! One node's three modules live together in a [`NodeShard`]; everything
//! a handler touches beyond its own node (bus, observers, notifications)
//! goes through [`Ctx`].

pub mod bus;
pub(crate) mod home;
pub(crate) mod master;
mod slave;

pub use home::HomeModule;
pub use master::MasterModule;
pub use slave::SlaveModule;

use crate::addr::Addr;
use crate::cache::CacheState;
use crate::coherence::Rules;
use crate::engine::{MemOp, Notification};
use crate::messages::{ProtoMsg, ReqKind, TxnId};
use crate::observer::{ModuleKind, ObserverSet, PhaseKind};
use crate::params::{FaultInjection, ProtoParams, ProtocolKind, RecoveryParams};
use crate::service::ServiceQueue;
use bus::{BusMsg, MessageBus};
use cenju4_des::FxHashSet;
use cenju4_des::{Duration, SimTime};
use cenju4_directory::nodemap::DestSpec;
use cenju4_directory::{DirectoryId, MemState, NodeId, SystemSize};

/// One simulated node's complete protocol state: its master, home, and
/// slave modules. The engine owns a dense `Vec<NodeShard>` indexed by
/// node; cross-node traffic flows only through the bus.
pub(crate) struct NodeShard {
    pub master: MasterModule,
    pub home: HomeModule,
    pub slave: SlaveModule,
}

cenju4_des::clone_fields!(NodeShard {
    master,
    home,
    slave
});

impl NodeShard {
    pub(crate) fn new(node: NodeId, params: &ProtoParams, format: DirectoryId) -> Self {
        NodeShard {
            master: MasterModule::new(node, params),
            home: HomeModule::new(node, format),
            slave: SlaveModule::new(node),
        }
    }
}

/// The blocks whose coherence state (a cache line's state or data, a
/// directory entry's state or sharer map, a home memory word) the
/// current dispatch wrote, plus the blocks its completions and recovery
/// errors name. Recorded only on a controlled engine, for the checker's
/// per-step oracles (see `Engine::touched_blocks`); every other engine
/// pays one predictable branch per write. No duplicates, in first-touch
/// order.
#[derive(Default)]
pub(crate) struct TouchLog {
    pub on: bool,
    pub blocks: Vec<Addr>,
}

cenju4_des::clone_fields!(TouchLog { on, blocks });

impl TouchLog {
    #[inline]
    pub(crate) fn note(&mut self, addr: Addr) {
        if self.on {
            self.record(addr);
        }
    }

    // Out of line, so the write sites an uncontrolled engine runs carry
    // only the `on` test.
    #[inline(never)]
    fn record(&mut self, addr: Addr) {
        if !self.blocks.contains(&addr) {
            self.blocks.push(addr);
        }
    }
}

/// Per-event handler context: the shared machine configuration plus the
/// engine seam (bus, observers, driver notifications). Handed by the
/// dispatcher to every module handler, so the modules themselves own
/// nothing but their paper-mandated state.
pub(crate) struct Ctx<'a> {
    pub params: ProtoParams,
    pub kind: ProtocolKind,
    pub sys: SystemSize,
    pub bus: &'a mut MessageBus,
    pub obs: &'a mut ObserverSet,
    pub notes: &'a mut Vec<Notification>,
    /// The dispatch's write record; handlers call [`Ctx::touch`] at
    /// every coherence-state write.
    pub touched: &'a mut TouchLog,
    /// The machine's coherence protocol; read it per block through
    /// [`Ctx::protocol_for`].
    pub protocol: Rules,
    /// Blocks marked for the Section 4.2.3 update protocol.
    pub marked: &'a FxHashSet<Addr>,
    /// Test-only protocol mutation in force (checker mutant runs);
    /// [`FaultInjection::None`] in every production path.
    pub fault: FaultInjection,
}

impl Ctx<'_> {
    /// The protocol `addr` runs: [`Rules::UpdateBlock`] for marked
    /// blocks, the machine's protocol for every other block.
    pub(crate) fn protocol_for(&self, addr: Addr) -> Rules {
        if self.marked.contains(&addr) {
            Rules::UpdateBlock
        } else {
            self.protocol
        }
    }

    /// Records that this dispatch wrote `addr`'s coherence state.
    #[inline]
    pub(crate) fn touch(&mut self, addr: Addr) {
        self.touched.note(addr);
    }

    /// Sends a protocol message and notifies observers. A message for a
    /// quarantined destination is discarded at the sender instead of put
    /// on the wire — the failure detector already knows nobody is
    /// listening, so no send is observed and no span opens for it.
    pub(crate) fn send(&mut self, now: SimTime, src: NodeId, dst: NodeId, msg: ProtoMsg) {
        if self.bus.detector_active()
            && dst != src
            && self.bus.node_health(dst) == bus::NodeHealth::Quarantined
        {
            self.obs.on_link_discard(now, dst, src, "dead-node");
            return;
        }
        self.obs.on_send(now, src, dst, &msg);
        self.bus.send(now, src, dst, msg);
    }

    /// Multicasts `msg` (with an in-network reply gather) and notifies
    /// observers once per delivered copy. With the recovery layer armed,
    /// the gather is registered for timeout-driven re-issue.
    pub(crate) fn multicast(
        &mut self,
        at: SimTime,
        src: NodeId,
        spec: DestSpec,
        data: bool,
        msg: ProtoMsg,
    ) {
        let gather = self.bus.open_gather(src, spec);
        if self.bus.armed() {
            self.bus
                .register_gather_recovery(at, src, gather, spec, data, msg.clone());
        }
        let dels = self
            .bus
            .send_multicast(at, src, spec, data, msg, Some(gather));
        for (d, seq) in dels {
            self.obs.on_send(at, src, d.node, &d.payload);
            self.bus.schedule_delivery(d, seq);
        }
    }

    /// Contributes an ack to gather `id`, forwarding the combined message
    /// when this contribution closes it. With the recovery layer armed,
    /// duplicate and stale contributions are discarded here (and
    /// reported) instead of corrupting the fabric's combining state.
    pub(crate) fn gather_reply(
        &mut self,
        at: SimTime,
        node: NodeId,
        id: cenju4_network::fabric::GatherId,
        msg: ProtoMsg,
    ) {
        match self.bus.send_gather_reply(at, node, id, msg) {
            Ok(Some(d)) => {
                self.obs.on_send(at, node, d.node, &d.payload);
                self.bus.schedule_delivery(d, None);
            }
            Ok(None) => {}
            Err(reason) => self.obs.on_link_discard(at, node, node, reason),
        }
    }

    /// Schedules a bus event — always targeting the *current* node
    /// (retries, backlog wakeups, transaction timers); modules never
    /// schedule work on other nodes directly.
    pub(crate) fn schedule(&mut self, at: SimTime, msg: BusMsg) {
        self.bus.schedule(at, msg);
    }

    /// Whether the link-level recovery layer is armed.
    pub(crate) fn armed(&self) -> bool {
        self.bus.armed()
    }

    /// The recovery-layer configuration in force.
    pub(crate) fn recovery(&self) -> RecoveryParams {
        self.bus.recovery()
    }

    /// Whether the node failure detector is active.
    pub(crate) fn detector_active(&self) -> bool {
        self.bus.detector_active()
    }

    /// Whether the failure detector has quarantined `node`. A merely
    /// *suspected* node still counts as alive — suspicion can be
    /// spurious (a lossy link), and must not break a live node's
    /// protocol traffic. Always `false` when the detector is inactive.
    pub(crate) fn node_quarantined(&self, node: NodeId) -> bool {
        self.bus.node_health(node) == bus::NodeHealth::Quarantined
    }

    /// Starts service on a module input queue, reporting high-water-mark
    /// rises to observers. Returns the service completion time.
    pub(crate) fn begin(
        &mut self,
        q: &mut ServiceQueue,
        node: NodeId,
        module: ModuleKind,
        arrival: SimTime,
        service: Duration,
    ) -> SimTime {
        let before = q.depth_high_water();
        let done = q.begin(arrival, service);
        let after = q.depth_high_water();
        if after > before {
            self.obs.on_queue_depth(arrival, node, module, after);
        }
        done
    }

    /// Graduates a memory access: notifies observers and the driver.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn complete(
        &mut self,
        node: NodeId,
        txn: TxnId,
        op: MemOp,
        addr: Addr,
        issued: SimTime,
        finished: SimTime,
        hit: bool,
        l3: bool,
        value: u64,
    ) {
        // A completed store leaves the outstanding-store set for the
        // oracle's history, so the block is re-checked even when nothing
        // was written.
        self.touch(addr);
        self.obs.on_complete(finished, node, txn, op, addr, hit, l3);
        self.note(Notification::Completed {
            node,
            txn,
            op,
            addr,
            issued,
            finished,
            hit,
            l3,
            value,
        });
    }

    // ---- observer forwarding ------------------------------------------
    //
    // Modules report through these instead of holding the observer set.

    pub(crate) fn on_request_issued(
        &mut self,
        at: SimTime,
        node: NodeId,
        kind: ReqKind,
        retry: bool,
    ) {
        self.obs.on_request_issued(at, node, kind, retry);
    }

    pub(crate) fn on_request_deferred(
        &mut self,
        at: SimTime,
        home: NodeId,
        addr: Addr,
        depth: Option<usize>,
    ) {
        self.obs.on_request_deferred(at, home, addr, depth);
    }

    pub(crate) fn on_invalidation(&mut self, at: SimTime, home: NodeId, addr: Addr, copies: u32) {
        self.obs.on_invalidation(at, home, addr, copies);
    }

    pub(crate) fn on_phase(&mut self, at: SimTime, node: NodeId, txn: TxnId, phase: PhaseKind) {
        self.obs.on_phase(at, node, txn, phase);
    }

    pub(crate) fn on_cache_transition(
        &mut self,
        at: SimTime,
        node: NodeId,
        addr: Addr,
        from: CacheState,
        to: CacheState,
    ) {
        self.obs.on_cache_transition(at, node, addr, from, to);
    }

    pub(crate) fn on_mem_transition(
        &mut self,
        at: SimTime,
        home: NodeId,
        addr: Addr,
        from: MemState,
        to: MemState,
    ) {
        self.obs.on_mem_transition(at, home, addr, from, to);
    }

    pub(crate) fn on_l3_fill(&mut self, at: SimTime, node: NodeId, addr: Addr) {
        self.obs.on_l3_fill(at, node, addr);
    }

    pub(crate) fn on_link_discard(
        &mut self,
        at: SimTime,
        node: NodeId,
        src: NodeId,
        reason: &'static str,
    ) {
        self.obs.on_link_discard(at, node, src, reason);
    }

    /// Routes one driver notification.
    pub(crate) fn note(&mut self, n: Notification) {
        self.notes.push(n);
    }
}
