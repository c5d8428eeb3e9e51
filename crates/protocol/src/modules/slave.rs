//! The slave module: the cache-intervention side of the protocol.
//!
//! Services forwarded requests, invalidations, and update pushes against
//! the node's cache. The cache itself (and the update-extension L3) is
//! owned by the [`MasterModule`]; the slave borrows it per message, which
//! mirrors the hardware: master and slave are distinct units sharing one
//! secondary cache.

use crate::cache::CacheState;
use crate::messages::{ProtoMsg, ReqKind};
use crate::modules::{Ctx, MasterModule};
use crate::observer::{ModuleKind, PhaseKind};
use crate::service::ServiceQueue;
use cenju4_des::SimTime;
use cenju4_directory::NodeId;
use cenju4_network::fabric::GatherId;

/// The intervention-side protocol module of one node.
pub struct SlaveModule {
    pub(crate) node: NodeId,
    pub(crate) input_q: ServiceQueue,
}

cenju4_des::clone_fields!(SlaveModule { node, input_q });

impl SlaveModule {
    pub(crate) fn new(node: NodeId) -> Self {
        SlaveModule {
            node,
            input_q: ServiceQueue::new(),
        }
    }

    pub(crate) fn recv(
        &mut self,
        ctx: &mut Ctx,
        at: SimTime,
        _src: NodeId,
        msg: ProtoMsg,
        gather: Option<GatherId>,
        master: &mut MasterModule,
    ) {
        let params = ctx.params;
        match msg {
            ProtoMsg::Forward {
                kind,
                addr,
                master: _,
                txn,
            } => {
                let done = ctx.begin(
                    &mut self.input_q,
                    self.node,
                    ModuleKind::Slave,
                    at,
                    params.slave_fwd,
                );
                let held = master.cache.value(addr);
                let with_data = match kind {
                    ReqKind::ReadShared => match master.cache.state(addr) {
                        CacheState::Modified => {
                            master.set_cache_state(ctx, at, addr, CacheState::Shared);
                            true
                        }
                        CacheState::Exclusive => {
                            master.set_cache_state(ctx, at, addr, CacheState::Shared);
                            false
                        }
                        _ => false,
                    },
                    ReqKind::ReadExclusive => {
                        matches!(master.invalidate_cache(ctx, at, addr), CacheState::Modified)
                    }
                    ReqKind::Ownership | ReqKind::Update => {
                        unreachable!("never forwarded to a slave")
                    }
                };
                ctx.send(
                    done,
                    self.node,
                    addr.home(),
                    ProtoMsg::SlaveReply {
                        addr,
                        txn,
                        with_data,
                        value: if with_data { held } else { 0 },
                    },
                );
            }
            ProtoMsg::Update {
                addr,
                master: writer,
                txn,
                value,
                singlecast,
            } => {
                // Fresh data pushed by the home: copies are updated in
                // place, not invalidated.
                let done = ctx.begin(
                    &mut self.input_q,
                    self.node,
                    ModuleKind::Slave,
                    at,
                    params.slave_inv,
                );
                if ctx.protocol_for(addr).readers_subscribe() {
                    // A subscriber's push also refreshes the third-level
                    // cache in this node's main memory.
                    master.l3.insert(addr, value);
                }
                if self.node != writer {
                    // Refresh any readable copy; a previous writer's
                    // SharedModified copy (Dragon) is demoted — the
                    // pusher is the last writer now.
                    let state = master.cache.state(addr);
                    if state.readable() {
                        master.set_cache_value(ctx, addr, value);
                        if state == CacheState::SharedModified {
                            master.set_cache_state(ctx, at, addr, CacheState::Shared);
                        }
                    }
                }
                let ack = ProtoMsg::InvAck { addr, txn, acks: 1 };
                if singlecast {
                    ctx.send(done, self.node, addr.home(), ack);
                } else {
                    let id = gather.expect("multicast update without gather id");
                    ctx.on_phase(done, self.node, txn, PhaseKind::GatherContribute);
                    ctx.gather_reply(done, self.node, id, ack);
                }
            }
            ProtoMsg::Invalidate {
                addr,
                master: writer,
                txn,
                singlecast,
            } => {
                let done = ctx.begin(
                    &mut self.input_q,
                    self.node,
                    ModuleKind::Slave,
                    at,
                    params.slave_inv,
                );
                if self.node != writer {
                    // The requester keeps its copy (it is upgrading);
                    // everyone else drops theirs.
                    let _ = master.invalidate_cache(ctx, at, addr);
                }
                let ack = ProtoMsg::InvAck { addr, txn, acks: 1 };
                if singlecast {
                    ctx.send(done, self.node, addr.home(), ack);
                } else {
                    let id = gather.expect("multicast invalidation without gather id");
                    ctx.on_phase(done, self.node, txn, PhaseKind::GatherContribute);
                    ctx.gather_reply(done, self.node, id, ack);
                }
            }
            other => panic!("slave received {other:?}"),
        }
    }
}
