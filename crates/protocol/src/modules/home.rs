//! The home module: the memory side of the coherence protocol.
//!
//! Owns the directory entries and main-memory contents for the blocks
//! homed at this node, the table of pending remote transactions, and the
//! main-memory request queue with its reservation-bit wakeup discipline
//! (Section 3.3) that makes the Cenju-4 protocol starvation-free.

use crate::addr::Addr;
use crate::cache::CacheState;
use crate::messages::{ProtoMsg, ReqKind, TxnId};
use crate::modules::{Ctx, TouchLog};
use crate::observer::{ModuleKind, PhaseKind};
use crate::params::ProtocolKind;
use crate::service::ServiceQueue;
use cenju4_des::FxHashMap;
use cenju4_des::SimTime;
use cenju4_directory::nodemap::DestSpec;
use cenju4_directory::{DirectoryEntry, DirectoryId, MemState, NodeId, NodeMap, SystemSize};
use std::collections::VecDeque;

/// What a home is waiting for on a pending block.
#[derive(Clone, Debug)]
pub(crate) enum Expect {
    /// A reply from the forwarded-to owner.
    SlaveReply,
    /// Gathered (or singlecast) invalidation acks: how many are still due.
    InvAcks { remaining: u32 },
}

/// A home-side pending transaction on one block.
#[derive(Clone, Debug)]
pub(crate) struct PendingTxn {
    pub master: NodeId,
    pub txn: TxnId,
    pub kind: ReqKind,
    pub expect: Expect,
}

/// What scrubbing a dead node out of one home produced (see
/// [`HomeModule::scrub_node`]): replies the engine feeds back through
/// [`HomeModule::reply_recv`], and the blocks whose data died with the
/// node.
#[derive(Clone)]
pub(crate) struct NodeScrub {
    /// The dead node's outstanding contributions, synthesized as if it
    /// had answered just before dying. Fed through the normal reply
    /// path so completions, phases, and queue wakeups happen normally.
    pub replies: Vec<ProtoMsg>,
    /// Blocks whose only up-to-date copy (a Dirty line at the dead
    /// node) was lost — home memory is stale for them from here on.
    pub lost: Vec<Addr>,
}

/// A request parked in the home's main-memory queue.
#[derive(Clone, Copy, Debug)]
pub(crate) struct QueuedReq {
    pub kind: ReqKind,
    pub addr: Addr,
    pub master: NodeId,
    pub txn: TxnId,
    /// Write-through data for queued update requests.
    pub value: u64,
}

/// The memory-side protocol module of one node.
pub struct HomeModule {
    pub(crate) node: NodeId,
    /// The directory format fresh entries are created in.
    pub(crate) format: DirectoryId,
    pub(crate) directory: FxHashMap<Addr, DirectoryEntry>,
    /// This node's main memory contents (as home), by block.
    pub(crate) mem: FxHashMap<Addr, u64>,
    pub(crate) pending: FxHashMap<Addr, PendingTxn>,
    pub(crate) req_queue: VecDeque<QueuedReq>,
    pub(crate) req_queue_hwm: usize,
    pub(crate) input_q: ServiceQueue,
}

cenju4_des::clone_fields!(HomeModule {
    node,
    format,
    directory,
    mem,
    pending,
    req_queue,
    req_queue_hwm,
    input_q,
});

impl HomeModule {
    pub(crate) fn new(node: NodeId, format: DirectoryId) -> Self {
        HomeModule {
            node,
            format,
            directory: FxHashMap::default(),
            mem: FxHashMap::default(),
            pending: FxHashMap::default(),
            req_queue: VecDeque::new(),
            req_queue_hwm: 0,
            input_q: ServiceQueue::new(),
        }
    }

    pub(crate) fn entry(&mut self, sys: SystemSize, addr: Addr) -> &mut DirectoryEntry {
        let format = self.format;
        self.directory
            .entry(addr)
            .or_insert_with(|| DirectoryEntry::with_format(sys, format))
    }

    /// `addr`'s directory entry for a write to its state or sharer map,
    /// recorded in the dispatch's [`TouchLog`]. Reservation-bit writes go
    /// through [`HomeModule::entry`]: the bit is queue-wakeup metadata
    /// that no step oracle reads.
    fn entry_mut(&mut self, ctx: &mut Ctx, addr: Addr) -> &mut DirectoryEntry {
        ctx.touch(addr);
        self.entry(ctx.sys, addr)
    }

    /// The data in `addr`'s home memory (0 if never written).
    pub(crate) fn mem_value(&self, addr: Addr) -> u64 {
        self.mem.get(&addr).copied().unwrap_or(0)
    }

    /// Writes `value` to `addr`'s home memory.
    fn write_mem(&mut self, ctx: &mut Ctx, addr: Addr, value: u64) {
        ctx.touch(addr);
        self.mem.insert(addr, value);
    }

    // ------------------------------------------------------------------
    // Quarantine scrub
    // ------------------------------------------------------------------

    /// Scrubs a quarantined node out of this (surviving) home: pendings
    /// waiting on the dead node get synthesized replies, directory maps
    /// forget it, and its queued requests are dropped. The caller (the
    /// engine) applies the returned replies through the normal
    /// [`HomeModule::reply_recv`] path *after* this returns, so grants
    /// and queue wakeups land on already-scrubbed maps.
    pub(crate) fn scrub_node(
        &mut self,
        dead: NodeId,
        sys: SystemSize,
        touched: &mut TouchLog,
    ) -> NodeScrub {
        let mut replies = Vec::new();
        let mut lost = Vec::new();
        let mut addrs: Vec<Addr> = self.pending.keys().copied().collect();
        addrs.sort_unstable();
        for addr in addrs {
            let p = &self.pending[&addr];
            match p.expect {
                Expect::SlaveReply => {
                    // Forwarded to the dirty owner: if the owner died,
                    // its line — the only fresh copy — is gone. Complete
                    // from (stale) memory with a data-less reply.
                    let owner = self.directory.get(&addr).and_then(|e| e.map().solo());
                    if owner == Some(dead) {
                        lost.push(addr);
                        replies.push(ProtoMsg::SlaveReply {
                            addr,
                            txn: p.txn,
                            with_data: false,
                            value: 0,
                        });
                    }
                }
                Expect::InvAcks { .. } => {
                    // The dead node was one of the fan-out targets: its
                    // ack will never come, so contribute it here. Any
                    // real combined reply still in flight is tolerated
                    // by the reply path's clamp/stale-ack handling.
                    let in_fan = sys.contains(dead)
                        && self
                            .directory
                            .get(&addr)
                            .is_some_and(|e| e.map().push_spec(p.master, sys).contains(dead));
                    if in_fan {
                        replies.push(ProtoMsg::InvAck {
                            addr,
                            txn: p.txn,
                            acks: 1,
                        });
                    }
                }
            }
        }
        // Directory maps forget the dead node. A Dirty block owned by it
        // loses its only fresh copy: the entry settles Clean over stale
        // memory and the block is reported lost. (State changes here are
        // not observer-visible: there is no protocol event to hang them
        // on, and the oracles exempt compromised blocks anyway.)
        for (addr, e) in self.directory.iter_mut() {
            touched.note(*addr);
            if e.state() == MemState::Dirty && e.map().solo() == Some(dead) {
                e.set_state(MemState::Clean);
                e.map_mut().clear();
                lost.push(*addr);
            } else {
                e.map_mut().scrub(dead);
            }
        }
        self.req_queue.retain(|q| q.master != dead);
        NodeScrub { replies, lost }
    }

    /// Forgets all in-flight work at a home that has itself been
    /// quarantined: pendings, queued requests, reservations. The
    /// directory and memory survive for a later rejoin (which wipes the
    /// directory wholesale).
    pub(crate) fn scrub_self(&mut self) {
        self.pending.clear();
        self.req_queue.clear();
        for e in self.directory.values_mut() {
            e.set_reservation(false);
        }
    }

    /// A revived home restarts with an empty directory — no record of
    /// remote copies survives the outage — while main memory persists.
    pub(crate) fn rejoin_cold(&mut self, touched: &mut TouchLog) {
        for &addr in self.directory.keys() {
            touched.note(addr);
        }
        self.directory.clear();
    }

    /// Sets the directory state of `addr`, notifying observers.
    fn set_state(&mut self, ctx: &mut Ctx, at: SimTime, addr: Addr, to: MemState) {
        let node = self.node;
        let e = self.entry_mut(ctx, addr);
        let from = e.state();
        e.set_state(to);
        if from != to {
            ctx.on_mem_transition(at, node, addr, from, to);
        }
    }

    // ------------------------------------------------------------------
    // Requests and writebacks
    // ------------------------------------------------------------------

    pub(crate) fn recv(&mut self, ctx: &mut Ctx, at: SimTime, msg: ProtoMsg) {
        debug_assert_eq!(msg.addr().home(), self.node, "message routed to wrong home");
        let params = ctx.params;
        match msg {
            ProtoMsg::WriteBack { addr, from, value } => {
                let _ = ctx.begin(
                    &mut self.input_q,
                    self.node,
                    ModuleKind::Home,
                    at,
                    params.home_wb,
                );
                self.write_mem(ctx, addr, value);
                if self.entry(ctx.sys, addr).state() == MemState::Dirty {
                    debug_assert!(
                        self.entry(ctx.sys, addr).map().contains(from),
                        "writeback from non-owner"
                    );
                    self.set_state(ctx, at, addr, MemState::Clean);
                    self.entry_mut(ctx, addr).map_mut().clear();
                }
                // Otherwise: data written to memory, directory unchanged
                // (the pending transaction in flight will supersede it).
            }
            ProtoMsg::Request {
                kind,
                addr,
                master,
                txn,
                value,
            } => {
                let state = self.entry(ctx.sys, addr).state();
                if state.is_pending() {
                    match ctx.kind {
                        ProtocolKind::Queuing => {
                            let _ = ctx.begin(
                                &mut self.input_q,
                                self.node,
                                ModuleKind::Home,
                                at,
                                params.home_fwd,
                            );
                            if ctx.fault == crate::params::FaultInjection::DropSpilledRequests {
                                // Mutant: the Figure-9 spill path is
                                // disabled — the request vanishes and its
                                // transaction never completes.
                                return;
                            }
                            self.enqueue_request(ctx, at, kind, addr, master, txn, value);
                        }
                        ProtocolKind::Nack => {
                            let done = ctx.begin(
                                &mut self.input_q,
                                self.node,
                                ModuleKind::Home,
                                at,
                                params.home_fwd,
                            );
                            // Counted as deflected.
                            ctx.on_request_deferred(at, self.node, addr, None);
                            ctx.send(done, self.node, master, ProtoMsg::Nack { addr, txn, kind });
                        }
                    }
                } else {
                    self.process_request(ctx, at, kind, addr, master, txn, value);
                }
            }
            other => panic!("home received {other:?}"),
        }
    }

    /// Parks a request in the home's main-memory FIFO (queuing protocol).
    #[allow(clippy::too_many_arguments)]
    fn enqueue_request(
        &mut self,
        ctx: &mut Ctx,
        at: SimTime,
        kind: ReqKind,
        addr: Addr,
        master: NodeId,
        txn: TxnId,
        value: u64,
    ) {
        // An ownership request is converted to read-exclusive when queued:
        // by the time it is serviced the master's copy may be gone.
        // (Update requests are never converted; subscribers stay valid.)
        let kind = if kind == ReqKind::Ownership {
            ReqKind::ReadExclusive
        } else {
            kind
        };
        let was_empty = self.req_queue.is_empty();
        self.req_queue.push_back(QueuedReq {
            kind,
            addr,
            master,
            txn,
            value,
        });
        self.req_queue_hwm = self.req_queue_hwm.max(self.req_queue.len());
        ctx.on_request_deferred(at, self.node, addr, Some(self.req_queue.len()));
        ctx.on_phase(
            at,
            self.node,
            txn,
            PhaseKind::QueuedAtHome {
                depth: self.req_queue.len() as u32,
            },
        );
        assert!(
            self.req_queue.len() <= ctx.params.home_queue_capacity,
            "home request queue overflowed its 32KB bound"
        );
        if was_empty && ctx.fault != crate::params::FaultInjection::DisableReservation {
            // The new head's target block is marked so the completion of
            // its pending transaction wakes the queue. (The mutant skips
            // this, so parked requests are never woken.)
            self.entry(ctx.sys, addr).set_reservation(true);
        }
    }

    /// Services a request whose block is in a stable state, per the
    /// appendix of the paper.
    #[allow(clippy::too_many_arguments)]
    fn process_request(
        &mut self,
        ctx: &mut Ctx,
        at: SimTime,
        kind: ReqKind,
        addr: Addr,
        master: NodeId,
        txn: TxnId,
        value: u64,
    ) {
        let params = ctx.params;
        let (state, only_master, has_others, master_in_map, owner) = {
            let e = self.entry(ctx.sys, addr);
            let m = e.map();
            let count = m.count();
            let master_in = m.contains(master);
            let only_master = count == 0 || (count == 1 && master_in);
            let others = count > if master_in { 1 } else { 0 };
            // Only the forwarding branches, taken on Dirty blocks, use it.
            let owner = if e.state() == MemState::Dirty {
                m.solo()
            } else {
                None
            };
            (e.state(), only_master, others, master_in, owner)
        };
        debug_assert!(!state.is_pending());

        match kind {
            ReqKind::ReadShared => {
                if only_master && !ctx.protocol_for(addr).readers_subscribe() {
                    // Grant exclusivity: no other copies exist (a
                    // subscribing reader stays Shared, below).
                    let done = ctx.begin(
                        &mut self.input_q,
                        self.node,
                        ModuleKind::Home,
                        at,
                        params.home_clean,
                    );
                    let mem = self.mem_value(addr);
                    self.set_state(ctx, at, addr, MemState::Dirty);
                    self.entry_mut(ctx, addr).map_mut().set_only(master);
                    ctx.send(
                        done,
                        self.node,
                        master,
                        ProtoMsg::DataReply {
                            addr,
                            txn,
                            grant: CacheState::Exclusive,
                            value: mem,
                        },
                    );
                } else if state == MemState::Clean {
                    let done = ctx.begin(
                        &mut self.input_q,
                        self.node,
                        ModuleKind::Home,
                        at,
                        params.home_clean,
                    );
                    let mem = self.mem_value(addr);
                    self.entry_mut(ctx, addr).map_mut().add(master);
                    ctx.send(
                        done,
                        self.node,
                        master,
                        ProtoMsg::DataReply {
                            addr,
                            txn,
                            grant: CacheState::Shared,
                            value: mem,
                        },
                    );
                } else {
                    // Dirty at another node: forward.
                    let done = ctx.begin(
                        &mut self.input_q,
                        self.node,
                        ModuleKind::Home,
                        at,
                        params.home_fwd,
                    );
                    let slave = owner.expect("dirty block with empty map");
                    self.set_state(ctx, at, addr, MemState::PendingShared);
                    self.pending.insert(
                        addr,
                        PendingTxn {
                            master,
                            txn,
                            kind,
                            expect: Expect::SlaveReply,
                        },
                    );
                    ctx.on_phase(done, self.node, txn, PhaseKind::Forwarded);
                    ctx.send(
                        done,
                        self.node,
                        slave,
                        ProtoMsg::Forward {
                            kind,
                            addr,
                            master,
                            txn,
                        },
                    );
                }
            }
            ReqKind::ReadExclusive => {
                if only_master {
                    let done = ctx.begin(
                        &mut self.input_q,
                        self.node,
                        ModuleKind::Home,
                        at,
                        params.home_clean,
                    );
                    let mem = self.mem_value(addr);
                    self.set_state(ctx, at, addr, MemState::Dirty);
                    self.entry_mut(ctx, addr).map_mut().set_only(master);
                    ctx.send(
                        done,
                        self.node,
                        master,
                        ProtoMsg::DataReply {
                            addr,
                            txn,
                            grant: CacheState::Modified,
                            value: mem,
                        },
                    );
                } else if state == MemState::Clean {
                    // Invalidate every sharer, then grant from memory.
                    let done = ctx.begin(
                        &mut self.input_q,
                        self.node,
                        ModuleKind::Home,
                        at,
                        params.home_fwd,
                    );
                    self.set_state(ctx, at, addr, MemState::PendingExclusive);
                    self.start_invalidation(ctx, done, addr, master, txn, kind);
                } else {
                    let done = ctx.begin(
                        &mut self.input_q,
                        self.node,
                        ModuleKind::Home,
                        at,
                        params.home_fwd,
                    );
                    let slave = owner.expect("dirty block with empty map");
                    self.set_state(ctx, at, addr, MemState::PendingExclusive);
                    self.pending.insert(
                        addr,
                        PendingTxn {
                            master,
                            txn,
                            kind,
                            expect: Expect::SlaveReply,
                        },
                    );
                    ctx.on_phase(done, self.node, txn, PhaseKind::Forwarded);
                    ctx.send(
                        done,
                        self.node,
                        slave,
                        ProtoMsg::Forward {
                            kind,
                            addr,
                            master,
                            txn,
                        },
                    );
                }
            }
            ReqKind::Update => {
                // A write-through store (Dragon, or an update block).
                // While the block is dirty at one owner — possible only
                // under Dragon — the home cannot push a coherent update,
                // so it degrades the request to an invalidating
                // read-exclusive (the writer is granted Modified); on a
                // clean block the new value goes through memory and is
                // pushed to every sharer.
                if state == MemState::Dirty {
                    self.process_request(ctx, at, ReqKind::ReadExclusive, addr, master, txn, 0);
                } else {
                    self.push_update(ctx, at, addr, master, txn, value);
                }
            }
            ReqKind::Ownership => {
                if state == MemState::Clean && master_in_map && only_master {
                    // Sole sharer: upgrade without any invalidation.
                    let done = ctx.begin(
                        &mut self.input_q,
                        self.node,
                        ModuleKind::Home,
                        at,
                        params.home_fwd,
                    );
                    self.set_state(ctx, at, addr, MemState::Dirty);
                    self.entry_mut(ctx, addr).map_mut().set_only(master);
                    ctx.send(done, self.node, master, ProtoMsg::AckReply { addr, txn });
                } else if state == MemState::Clean && master_in_map && has_others {
                    let done = ctx.begin(
                        &mut self.input_q,
                        self.node,
                        ModuleKind::Home,
                        at,
                        params.home_fwd,
                    );
                    self.set_state(ctx, at, addr, MemState::PendingInvalidate);
                    self.start_invalidation(ctx, done, addr, master, txn, kind);
                } else {
                    // The master's copy is gone (crossed with an
                    // invalidation) or the block is dirty elsewhere:
                    // behave as a read-exclusive.
                    self.process_request(ctx, at, ReqKind::ReadExclusive, addr, master, txn, 0);
                }
            }
        }
    }

    /// Writes `value` through to memory and pushes the fresh line to
    /// every other sharer; their acks gather back like invalidations.
    fn push_update(
        &mut self,
        ctx: &mut Ctx,
        at: SimTime,
        addr: Addr,
        master: NodeId,
        txn: TxnId,
        value: u64,
    ) {
        let params = ctx.params;
        let done = ctx.begin(
            &mut self.input_q,
            self.node,
            ModuleKind::Home,
            at,
            params.home_wb,
        );
        self.write_mem(ctx, addr, value);
        self.entry_mut(ctx, addr).map_mut().add(master);
        let spec = self.push_spec(ctx.sys, addr, master);
        let targets = spec.fanout(ctx.sys);
        if targets == 0 {
            // Sole subscriber: ack immediately.
            ctx.send(done, self.node, master, ProtoMsg::AckReply { addr, txn });
            return;
        }
        if ctx.detector_active() {
            let dests = spec.destinations(ctx.sys);
            if dests.iter().any(|d| ctx.node_quarantined(*d)) {
                // Dead subscribers never ack: push only to the live
                // ones (forced singlecast), completing immediately via
                // a synthesized ack when none remain.
                let alive: Vec<NodeId> = dests
                    .into_iter()
                    .filter(|d| !ctx.node_quarantined(*d))
                    .collect();
                self.set_state(ctx, at, addr, MemState::PendingInvalidate);
                self.pending.insert(
                    addr,
                    PendingTxn {
                        master,
                        txn,
                        kind: ReqKind::Update,
                        expect: Expect::InvAcks {
                            remaining: (alive.len() as u32).max(1),
                        },
                    },
                );
                ctx.on_phase(
                    done,
                    self.node,
                    txn,
                    PhaseKind::MulticastFanout {
                        copies: alive.len() as u32,
                    },
                );
                if alive.is_empty() {
                    self.reply_recv(ctx, at, ProtoMsg::InvAck { addr, txn, acks: 1 });
                    return;
                }
                for dst in alive {
                    ctx.send(
                        done,
                        self.node,
                        dst,
                        ProtoMsg::Update {
                            addr,
                            master,
                            txn,
                            value,
                            singlecast: true,
                        },
                    );
                }
                return;
            }
        }
        self.set_state(ctx, at, addr, MemState::PendingInvalidate);
        self.pending.insert(
            addr,
            PendingTxn {
                master,
                txn,
                kind: ReqKind::Update,
                expect: Expect::InvAcks { remaining: targets },
            },
        );
        ctx.on_phase(
            done,
            self.node,
            txn,
            PhaseKind::MulticastFanout { copies: targets },
        );
        if targets <= params.singlecast_threshold.max(1) {
            for dst in spec.destinations(ctx.sys) {
                ctx.send(
                    done,
                    self.node,
                    dst,
                    ProtoMsg::Update {
                        addr,
                        master,
                        txn,
                        value,
                        singlecast: true,
                    },
                );
            }
        } else {
            ctx.multicast(
                done,
                self.node,
                spec,
                true,
                ProtoMsg::Update {
                    addr,
                    master,
                    txn,
                    value,
                    singlecast: false,
                },
            );
        }
    }

    /// The destinations of an invalidation or update push: every
    /// represented sharer, minus the master when the representation can
    /// exclude it precisely (a bit pattern or coarse vector cannot, so
    /// the master may receive — and must ack — its own invalidation).
    fn push_spec(&mut self, sys: SystemSize, addr: Addr, master: NodeId) -> DestSpec {
        self.entry(sys, addr).map().push_spec(master, sys)
    }

    /// Sends invalidations to the sharers of `addr` and records the
    /// pending transaction. Uses a singlecast when only one node must be
    /// invalidated, the gathered multicast otherwise (Section 4.1 notes
    /// the hardware multicasts whenever the target count exceeds one).
    fn start_invalidation(
        &mut self,
        ctx: &mut Ctx,
        at: SimTime,
        addr: Addr,
        master: NodeId,
        txn: TxnId,
        kind: ReqKind,
    ) {
        let spec = self.push_spec(ctx.sys, addr, master);
        let targets = spec.fanout(ctx.sys);
        debug_assert!(targets > 0, "invalidation with no targets");
        if ctx.detector_active() {
            let dests = spec.destinations(ctx.sys);
            if dests.iter().any(|d| ctx.node_quarantined(*d)) {
                // Quarantined sharers are already as good as
                // invalidated: fan out only to the live ones (forced
                // singlecast, so the fabric never opens a gather
                // expecting dead contributors). With none left, the
                // transaction completes via a synthesized full ack.
                let alive: Vec<NodeId> = dests
                    .into_iter()
                    .filter(|d| !ctx.node_quarantined(*d))
                    .collect();
                ctx.on_invalidation(at, self.node, addr, alive.len() as u32);
                ctx.on_phase(
                    at,
                    self.node,
                    txn,
                    PhaseKind::MulticastFanout {
                        copies: alive.len() as u32,
                    },
                );
                self.pending.insert(
                    addr,
                    PendingTxn {
                        master,
                        txn,
                        kind,
                        expect: Expect::InvAcks {
                            remaining: (alive.len() as u32).max(1),
                        },
                    },
                );
                if alive.is_empty() {
                    self.reply_recv(ctx, at, ProtoMsg::InvAck { addr, txn, acks: 1 });
                    return;
                }
                for dst in alive {
                    ctx.send(
                        at,
                        self.node,
                        dst,
                        ProtoMsg::Invalidate {
                            addr,
                            master,
                            txn,
                            singlecast: true,
                        },
                    );
                }
                return;
            }
        }
        ctx.on_invalidation(at, self.node, addr, targets);
        ctx.on_phase(
            at,
            self.node,
            txn,
            PhaseKind::MulticastFanout { copies: targets },
        );
        self.pending.insert(
            addr,
            PendingTxn {
                master,
                txn,
                kind,
                expect: Expect::InvAcks { remaining: targets },
            },
        );
        if targets <= ctx.params.singlecast_threshold.max(1) {
            for dst in spec.destinations(ctx.sys) {
                ctx.send(
                    at,
                    self.node,
                    dst,
                    ProtoMsg::Invalidate {
                        addr,
                        master,
                        txn,
                        singlecast: true,
                    },
                );
            }
        } else {
            ctx.multicast(
                at,
                self.node,
                spec,
                false,
                ProtoMsg::Invalidate {
                    addr,
                    master,
                    txn,
                    singlecast: false,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Replies
    // ------------------------------------------------------------------

    pub(crate) fn reply_recv(&mut self, ctx: &mut Ctx, at: SimTime, msg: ProtoMsg) {
        let params = ctx.params;
        match msg {
            ProtoMsg::SlaveReply {
                addr,
                txn,
                with_data,
                value,
            } => {
                let service = if with_data {
                    params.home_from_data
                } else {
                    params.home_from_ack
                };
                let done = ctx.begin(&mut self.input_q, self.node, ModuleKind::Home, at, service);
                if with_data {
                    // The owner's modified line is written back to memory.
                    self.write_mem(ctx, addr, value);
                }
                let mem = self.mem_value(addr);
                let Some(p) = self.pending.remove(&addr) else {
                    // The quarantine scrub already completed this
                    // transaction; the real reply crossed the
                    // synthesized one in flight. The data (if any) was
                    // salvaged into memory above.
                    assert!(ctx.detector_active(), "slave reply without pending txn");
                    return;
                };
                if p.txn != txn {
                    // A stale reply for an older, scrub-completed
                    // transaction on the same block.
                    assert!(ctx.detector_active(), "slave reply txn mismatch");
                    self.pending.insert(addr, p);
                    return;
                }
                if ctx.node_quarantined(p.master) {
                    // The requester died while its forward was in
                    // flight: salvage the data (done above), settle the
                    // block Clean, grant nothing, and wake the queue.
                    self.set_state(ctx, at, addr, MemState::Clean);
                    if p.kind == ReqKind::ReadExclusive {
                        // The owner invalidated its copy for this grant;
                        // nobody holds the block now.
                        self.entry_mut(ctx, addr).map_mut().clear();
                    }
                    self.drain_queue(ctx, done, addr);
                    return;
                }
                match p.kind {
                    ReqKind::ReadShared => {
                        self.set_state(ctx, at, addr, MemState::Clean);
                        self.entry_mut(ctx, addr).map_mut().add(p.master);
                        ctx.send(
                            done,
                            self.node,
                            p.master,
                            ProtoMsg::DataReply {
                                addr,
                                txn,
                                grant: CacheState::Shared,
                                value: mem,
                            },
                        );
                    }
                    ReqKind::ReadExclusive => {
                        self.set_state(ctx, at, addr, MemState::Dirty);
                        self.entry_mut(ctx, addr).map_mut().set_only(p.master);
                        ctx.send(
                            done,
                            self.node,
                            p.master,
                            ProtoMsg::DataReply {
                                addr,
                                txn,
                                grant: CacheState::Modified,
                                value: mem,
                            },
                        );
                    }
                    ReqKind::Ownership | ReqKind::Update => {
                        unreachable!("never forwarded to a slave")
                    }
                }
                self.drain_queue(ctx, done, addr);
            }
            ProtoMsg::InvAck { addr, txn, acks } => {
                let detector = ctx.detector_active();
                let Some(p) = self.pending.get_mut(&addr) else {
                    // The quarantine scrub (or its synthesized ack)
                    // already completed this gather; the real combined
                    // reply crossed it in flight.
                    assert!(detector, "inv ack without pending txn");
                    return;
                };
                if p.txn != txn {
                    assert!(detector, "inv ack txn mismatch");
                    return;
                }
                ctx.on_phase(at, self.node, txn, PhaseKind::GatherCombine { acks });
                let finished = match &mut p.expect {
                    Expect::InvAcks { remaining } => {
                        // A synthesized scrub ack can cross a real
                        // combined reply in flight: clamp rather than
                        // over-decrement (double delivery is idempotent).
                        let acks = if detector { acks.min(*remaining) } else { acks };
                        assert!(*remaining >= acks, "more acks than invalidations");
                        *remaining -= acks;
                        *remaining == 0
                    }
                    Expect::SlaveReply => panic!("inv ack while expecting slave reply"),
                };
                if !finished {
                    // Singlecast acks trickle in individually; gathered
                    // acks arrive as one combined message so this branch
                    // is only reachable in unusual configurations.
                    let _ = ctx.begin(
                        &mut self.input_q,
                        self.node,
                        ModuleKind::Home,
                        at,
                        params.home_from_ack,
                    );
                    return;
                }
                let p = self.pending.remove(&addr).expect("pending vanished");
                if ctx.node_quarantined(p.master) {
                    // The requester died mid-invalidation: memory
                    // already holds the current data, so the block
                    // settles Clean with the dead master scrubbed out
                    // and nothing granted.
                    let done = ctx.begin(
                        &mut self.input_q,
                        self.node,
                        ModuleKind::Home,
                        at,
                        params.home_from_ack,
                    );
                    self.set_state(ctx, at, addr, MemState::Clean);
                    match p.kind {
                        // An update push leaves the (live) subscribers
                        // valid; only the dead writer is scrubbed.
                        ReqKind::Update => self.entry_mut(ctx, addr).map_mut().scrub(p.master),
                        _ => self.entry_mut(ctx, addr).map_mut().clear(),
                    }
                    self.drain_queue(ctx, done, addr);
                    return;
                }
                match p.kind {
                    ReqKind::Update => {
                        // Push complete: the block stays Clean and every
                        // subscriber keeps its (now fresh) copy.
                        let done = ctx.begin(
                            &mut self.input_q,
                            self.node,
                            ModuleKind::Home,
                            at,
                            params.home_from_ack,
                        );
                        self.set_state(ctx, at, addr, MemState::Clean);
                        ctx.send(done, self.node, p.master, ProtoMsg::AckReply { addr, txn });
                        self.drain_queue(ctx, done, addr);
                    }
                    ReqKind::ReadExclusive => {
                        // Data comes from memory: full memory read service.
                        let done = ctx.begin(
                            &mut self.input_q,
                            self.node,
                            ModuleKind::Home,
                            at,
                            params.home_clean,
                        );
                        let mem = self.mem_value(addr);
                        self.set_state(ctx, at, addr, MemState::Dirty);
                        self.entry_mut(ctx, addr).map_mut().set_only(p.master);
                        ctx.send(
                            done,
                            self.node,
                            p.master,
                            ProtoMsg::DataReply {
                                addr,
                                txn,
                                grant: CacheState::Modified,
                                value: mem,
                            },
                        );
                        self.drain_queue(ctx, done, addr);
                    }
                    ReqKind::Ownership => {
                        let done = ctx.begin(
                            &mut self.input_q,
                            self.node,
                            ModuleKind::Home,
                            at,
                            params.home_from_ack,
                        );
                        self.set_state(ctx, at, addr, MemState::Dirty);
                        self.entry_mut(ctx, addr).map_mut().set_only(p.master);
                        ctx.send(done, self.node, p.master, ProtoMsg::AckReply { addr, txn });
                        self.drain_queue(ctx, done, addr);
                    }
                    ReqKind::ReadShared => unreachable!("read-shared never invalidates"),
                }
            }
            other => panic!("home reply path received {other:?}"),
        }
    }

    /// Wakes the main-memory request queue after `addr` left its pending
    /// state, per the reservation-bit discipline of Section 3.3.
    fn drain_queue(&mut self, ctx: &mut Ctx, at: SimTime, addr: Addr) {
        if !self.entry(ctx.sys, addr).reservation() {
            return;
        }
        self.entry(ctx.sys, addr).set_reservation(false);
        while let Some(head) = self.req_queue.front().copied() {
            if self.entry(ctx.sys, head.addr).state().is_pending() {
                // The head must keep waiting: mark its block and stop.
                self.entry(ctx.sys, head.addr).set_reservation(true);
                break;
            }
            self.req_queue.pop_front();
            ctx.on_phase(at, self.node, head.txn, PhaseKind::ReservationWait);
            self.process_request(
                ctx,
                at,
                head.kind,
                head.addr,
                head.master,
                head.txn,
                head.value,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scrubbing a dead node rewrites the directory entries that named
    /// it, and each such block lands in the dispatch's touched-block
    /// record, where the checker's step oracles look.
    #[test]
    fn scrub_node_records_every_scrubbed_block() {
        let sys = SystemSize::new(4).unwrap();
        let (master, dead, other) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
        let mut home = HomeModule::new(NodeId::new(0), DirectoryId::PointerPattern);
        // Forwarded to the dead node, the dirty owner: its line was the
        // only fresh copy.
        let forwarded = Addr::new(NodeId::new(0), 0);
        let e = home.entry(sys, forwarded);
        e.set_state(MemState::PendingExclusive);
        e.map_mut().set_only(dead);
        home.pending.insert(
            forwarded,
            PendingTxn {
                master,
                txn: 7,
                kind: ReqKind::ReadExclusive,
                expect: Expect::SlaveReply,
            },
        );
        // An ownership upgrade whose invalidation fan-out includes the
        // dead node.
        let fanned = Addr::new(NodeId::new(0), 1);
        let e = home.entry(sys, fanned);
        e.set_state(MemState::PendingInvalidate);
        for n in [master, dead, other] {
            e.map_mut().add(n);
        }
        home.pending.insert(
            fanned,
            PendingTxn {
                master,
                txn: 8,
                kind: ReqKind::Ownership,
                expect: Expect::InvAcks { remaining: 2 },
            },
        );
        let mut touched = TouchLog {
            on: true,
            blocks: Vec::new(),
        };
        let scrub = home.scrub_node(dead, sys, &mut touched);
        assert_eq!(scrub.lost, [forwarded]);
        assert!(matches!(
            scrub.replies[..],
            [
                ProtoMsg::SlaveReply { addr: a, txn: 7, with_data: false, .. },
                ProtoMsg::InvAck { addr: b, txn: 8, acks: 1 },
            ] if a == forwarded && b == fanned
        ));
        for addr in [forwarded, fanned] {
            assert!(!home.directory[&addr].map().contains(dead), "{addr}");
            assert!(touched.blocks.contains(&addr), "{addr} scrubbed unrecorded");
        }
    }
}
