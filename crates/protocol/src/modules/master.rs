//! The master module: the processor side of the coherence protocol.
//!
//! Owns the node's MESI second-level cache, the outstanding-transaction
//! table (the R10000's four-request bound), the backlog of accesses
//! waiting for a free slot, and — for the Section 4.2.3 update extension —
//! the third-level cache held in the node's main memory.

use crate::addr::Addr;
use crate::cache::{Cache, CacheState, Victim};
use crate::coherence::AccessDecision;
use crate::engine::MemOp;
use crate::messages::{ProtoMsg, ReqKind, TxnId};
use crate::modules::bus::BusMsg;
use crate::modules::{Ctx, TouchLog};
use crate::observer::{ModuleKind, PhaseKind};
use crate::params::{ProtoParams, RecoveryError};
use crate::service::ServiceQueue;
use cenju4_des::FxHashMap;
use cenju4_des::{Duration, SimTime, SplitMix64};
use cenju4_directory::NodeId;
use std::collections::VecDeque;

/// An in-flight master transaction.
#[derive(Clone, Debug)]
pub(crate) struct MasterTxn {
    pub op: MemOp,
    pub addr: Addr,
    pub issued: SimTime,
    pub retries: u32,
    /// Escalation-timer backoffs taken so far (recovery layer armed).
    pub backoffs: u32,
    /// The token a store writes (`txn + 1`).
    pub store_value: u64,
}

/// The processor-side protocol module of one node.
pub struct MasterModule {
    pub(crate) node: NodeId,
    pub(crate) cache: Cache,
    /// Blocks whose current value is held in this node's main memory
    /// (third-level cache of the update-protocol extension), with the
    /// cached data.
    pub(crate) l3: FxHashMap<Addr, u64>,
    pub(crate) outstanding: FxHashMap<TxnId, MasterTxn>,
    pub(crate) backlog: VecDeque<(MemOp, Addr, TxnId, SimTime)>,
    pub(crate) input_q: ServiceQueue,
}

cenju4_des::clone_fields!(MasterModule {
    node,
    cache,
    l3,
    outstanding,
    backlog,
    input_q
});

impl MasterModule {
    pub(crate) fn new(node: NodeId, params: &ProtoParams) -> Self {
        MasterModule {
            node,
            cache: Cache::new(params.cache_bytes, params.cache_assoc),
            l3: FxHashMap::default(),
            outstanding: FxHashMap::default(),
            backlog: VecDeque::new(),
            input_q: ServiceQueue::new(),
        }
    }

    // ------------------------------------------------------------------
    // Cache mutation helpers (with observer notification)
    // ------------------------------------------------------------------

    pub(crate) fn set_cache_state(
        &mut self,
        ctx: &mut Ctx,
        at: SimTime,
        addr: Addr,
        to: CacheState,
    ) {
        let from = self.cache.state(addr);
        self.cache.set_state(addr, to);
        ctx.touch(addr);
        if from != to {
            ctx.on_cache_transition(at, self.node, addr, from, to);
        }
    }

    pub(crate) fn invalidate_cache(
        &mut self,
        ctx: &mut Ctx,
        at: SimTime,
        addr: Addr,
    ) -> CacheState {
        let from = self.cache.invalidate(addr);
        ctx.touch(addr);
        if from != CacheState::Invalid {
            ctx.on_cache_transition(at, self.node, addr, from, CacheState::Invalid);
        }
        from
    }

    /// Fills `addr` (observers see the incoming line's transition; a
    /// displaced victim is returned for the caller to write back).
    pub(crate) fn fill_cache(
        &mut self,
        ctx: &mut Ctx,
        at: SimTime,
        addr: Addr,
        state: CacheState,
        value: u64,
    ) -> Option<Victim> {
        let victim = self.cache.fill_value(addr, state, value);
        // The victim's block is not recorded: losing a copy can break no
        // step oracle (see `Engine::touched_blocks`).
        ctx.touch(addr);
        ctx.on_cache_transition(at, self.node, addr, CacheState::Invalid, state);
        victim
    }

    /// Overwrites the data of this node's present copy of `addr`.
    pub(crate) fn set_cache_value(&mut self, ctx: &mut Ctx, addr: Addr, value: u64) {
        self.cache.set_value(addr, value);
        ctx.touch(addr);
    }

    /// Writes back a displaced dirty line to its home, sending it at
    /// `at`, the instant the fill displaced it. Every later request from
    /// this node leaves at `at + issue` or after, so on the in-order
    /// channel to the victim's home the writeback always goes first: a
    /// request for the victim's block must never reach a home that still
    /// records this node as its dirty owner, or the home serves the
    /// block from stale memory. (Sent at the end of the master's service
    /// time, it would let an access dispatched at the fill overtake it.)
    fn writeback_victim(&self, ctx: &mut Ctx, at: SimTime, victim: Option<Victim>) {
        if let Some(v) = victim {
            if v.dirty {
                ctx.send(
                    at,
                    self.node,
                    v.addr.home(),
                    ProtoMsg::WriteBack {
                        addr: v.addr,
                        from: self.node,
                        value: v.value,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Processor accesses
    // ------------------------------------------------------------------

    pub(crate) fn handle_access(
        &mut self,
        ctx: &mut Ctx,
        at: SimTime,
        op: MemOp,
        addr: Addr,
        txn: TxnId,
    ) {
        let params = ctx.params;
        let state = self.cache.touch(addr);
        let hit_done = at + params.hit;
        match ctx.protocol_for(addr).classify(op, state) {
            // Hits drain the backlog too: a backlogged access re-issued
            // by a completion often hits the line that completion just
            // filled, and if it didn't pass the drain token along the
            // chain would stall with accesses still queued (the engine
            // would go idle with transactions outstanding).
            AccessDecision::Hit => {
                let v = match op {
                    MemOp::Load => self.cache.value(addr),
                    MemOp::Store => {
                        self.set_cache_value(ctx, addr, txn + 1);
                        txn + 1
                    }
                };
                ctx.complete(self.node, txn, op, addr, at, hit_done, true, false, v);
                self.drain_backlog(ctx, hit_done);
            }
            AccessDecision::StoreUpgrade => {
                self.set_cache_state(ctx, at, addr, CacheState::Modified);
                self.set_cache_value(ctx, addr, txn + 1);
                ctx.complete(self.node, txn, op, addr, at, hit_done, true, false, txn + 1);
                self.drain_backlog(ctx, hit_done);
            }
            // A subscriber's L2 miss refills from the copy in its own
            // main memory (the update protocol's third-level cache),
            // ahead of any backlog.
            AccessDecision::Miss(ReqKind::ReadShared) if self.l3.contains_key(&addr) => {
                let v = self.l3[&addr];
                let victim = self.fill_cache(ctx, at, addr, CacheState::Shared, v);
                self.writeback_victim(ctx, at, victim);
                ctx.on_l3_fill(at, self.node, addr);
                let done = at + params.l3_fill;
                ctx.complete(self.node, txn, op, addr, at, done, false, true, v);
                self.drain_backlog(ctx, done);
            }
            AccessDecision::Miss(kind) => {
                // Miss (or upgrade): a coherence request is needed.
                let busy_on_addr = self.outstanding.values().any(|t| t.addr == addr);
                if self.outstanding.len() >= params.max_outstanding || busy_on_addr {
                    self.backlog.push_back((op, addr, txn, at));
                    return;
                }
                self.outstanding.insert(
                    txn,
                    MasterTxn {
                        op,
                        addr,
                        issued: at,
                        retries: 0,
                        backoffs: 0,
                        store_value: txn + 1,
                    },
                );
                self.arm_txn_timer(ctx, at, txn, 0);
                ctx.on_request_issued(at, self.node, kind, false);
                // Dragon write-throughs carry the store data on the wire.
                let value = if kind == ReqKind::Update { txn + 1 } else { 0 };
                ctx.send(
                    at + params.issue,
                    self.node,
                    addr.home(),
                    ProtoMsg::Request {
                        kind,
                        addr,
                        master: self.node,
                        txn,
                        value,
                    },
                );
            }
        }
    }

    pub(crate) fn handle_retry(&mut self, ctx: &mut Ctx, at: SimTime, txn: TxnId) {
        let params = ctx.params;
        let (op, addr) = {
            let Some(t) = self.outstanding.get(&txn) else {
                // Abandoned (escalation timeout or a dead home) between
                // the nack and this retry firing.
                assert!(ctx.armed(), "retry for unknown txn");
                return;
            };
            (t.op, t.addr)
        };
        // Re-evaluate the request kind: the cached copy may have been
        // invalidated while we were nacked.
        let state = self.cache.state(addr);
        let kind = ctx.protocol_for(addr).request_kind(op, state);
        ctx.on_request_issued(at, self.node, kind, true);
        let value = if kind == ReqKind::Update { txn + 1 } else { 0 };
        ctx.send(
            at + params.issue,
            self.node,
            addr.home(),
            ProtoMsg::Request {
                kind,
                addr,
                master: self.node,
                txn,
                value,
            },
        );
    }

    // ------------------------------------------------------------------
    // Recovery escalation
    // ------------------------------------------------------------------

    /// Schedules the per-transaction escalation timer when the recovery
    /// layer is armed. The timer *watches* — the link layer does the
    /// retransmitting — so it self-drains (a no-op, no re-arm) once the
    /// transaction graduates.
    fn arm_txn_timer(&mut self, ctx: &mut Ctx, at: SimTime, txn: TxnId, backoffs: u32) {
        if !ctx.armed() {
            return;
        }
        let base = ctx.recovery().txn_timeout;
        let span = base.as_ns().saturating_mul(1u64 << backoffs.min(20));
        // Decorrelated jitter on re-arms only: retriers that timed out
        // together spread over [span/2, span] instead of resynchronizing
        // into a retry storm. The draw is a pure hash of (node, txn,
        // backoff round), so runs are deterministic; first arms stay
        // exact, leaving armed-but-lossless golden traces untouched.
        let timeout = if backoffs == 0 {
            span
        } else {
            let mix = 0x9e37_79b9_7f4a_7c15u64
                ^ ((self.node.as_usize() as u64) << 32)
                ^ (txn << 8)
                ^ u64::from(backoffs);
            let mut rng = SplitMix64::new(mix);
            span / 2 + rng.next_below(span / 2 + 1)
        };
        ctx.schedule(
            at + Duration::from_ns(timeout),
            BusMsg::TxnTimer {
                node: self.node,
                txn,
            },
        );
    }

    /// Handles a fired escalation timer: a still-outstanding transaction
    /// gets another (doubled) timeout until the backoff budget runs out,
    /// at which point it is abandoned with a typed error.
    pub(crate) fn handle_txn_timer(
        &mut self,
        ctx: &mut Ctx,
        at: SimTime,
        txn: TxnId,
    ) -> Option<RecoveryError> {
        let budget = ctx.recovery().max_txn_backoffs;
        let Some(t) = self.outstanding.get_mut(&txn) else {
            return None; // graduated — the timer self-drains
        };
        // Fail fast on a dead home: the failure detector already knows
        // no reply will ever come, so the transaction escalates to a
        // typed NodeUnavailable instead of burning its backoff budget.
        if ctx.node_quarantined(t.addr.home()) {
            let addr = t.addr;
            self.outstanding.remove(&txn);
            self.drain_backlog(ctx, at);
            return Some(RecoveryError::NodeUnavailable {
                node: self.node,
                dead: addr.home(),
                txn,
                addr,
            });
        }
        t.backoffs += 1;
        if t.backoffs > budget {
            let addr = t.addr;
            self.outstanding.remove(&txn);
            // The freed request slot must pass the drain token along,
            // or accesses backlogged behind the abandoned transaction
            // would never re-issue.
            self.drain_backlog(ctx, at);
            return Some(RecoveryError::TransactionTimeout {
                node: self.node,
                txn,
                addr,
            });
        }
        let backoffs = t.backoffs;
        self.arm_txn_timer(ctx, at, txn, backoffs);
        None
    }

    /// Armed-mode tolerance: a reply for a transaction no longer
    /// outstanding (e.g. abandoned by the escalation timer, with the
    /// actual reply arriving late after all) is discarded instead of
    /// being treated as a protocol bug.
    fn discard_unknown_txn(&self, ctx: &mut Ctx, at: SimTime) -> bool {
        if ctx.armed() {
            ctx.on_link_discard(at, self.node, self.node, "unknown-txn");
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // Replies
    // ------------------------------------------------------------------

    pub(crate) fn recv(&mut self, ctx: &mut Ctx, at: SimTime, msg: ProtoMsg) {
        let params = ctx.params;
        match msg {
            ProtoMsg::DataReply {
                addr,
                txn,
                grant,
                value,
            } => {
                if !self.outstanding.contains_key(&txn) && self.discard_unknown_txn(ctx, at) {
                    return;
                }
                ctx.on_phase(at, self.node, txn, PhaseKind::Reply);
                let done = ctx.begin(
                    &mut self.input_q,
                    self.node,
                    ModuleKind::Master,
                    at,
                    params.retire,
                );
                let t = self
                    .outstanding
                    .remove(&txn)
                    .expect("reply for unknown txn");
                if ctx.protocol_for(addr).readers_subscribe() {
                    // A subscription read: the data also lands in the
                    // node's main-memory third-level cache.
                    self.l3.insert(addr, value);
                }
                // A store immediately overwrites the granted line.
                let observed = match t.op {
                    MemOp::Load => value,
                    MemOp::Store => t.store_value,
                };
                let victim = if self.cache.state(addr) != CacheState::Invalid {
                    self.set_cache_state(ctx, at, addr, grant);
                    self.set_cache_value(ctx, addr, observed);
                    None
                } else {
                    self.fill_cache(ctx, at, addr, grant, observed)
                };
                self.writeback_victim(ctx, at, victim);
                ctx.complete(
                    self.node, txn, t.op, addr, t.issued, done, false, false, observed,
                );
                self.drain_backlog(ctx, done);
            }
            ProtoMsg::AckReply { addr, txn } => {
                if !self.outstanding.contains_key(&txn) && self.discard_unknown_txn(ctx, at) {
                    return;
                }
                ctx.on_phase(at, self.node, txn, PhaseKind::Reply);
                let done = ctx.begin(
                    &mut self.input_q,
                    self.node,
                    ModuleKind::Master,
                    at,
                    params.retire,
                );
                let t = self.outstanding.remove(&txn).expect("ack for unknown txn");
                let protocol = ctx.protocol_for(addr);
                if protocol.readers_subscribe() {
                    // The writer's own main memory is fresh too.
                    self.l3.insert(addr, t.store_value);
                }
                // An acknowledged store-through-home: an ownership
                // upgrade under MESI (granting Modified), an update push
                // under Dragon (granting SharedModified) or on an update
                // block (granting Shared).
                let grant = protocol.store_ack_state();
                let victim = match self.cache.state(addr) {
                    CacheState::Invalid => {
                        // The copy was evicted while the upgrade was in
                        // flight (real hardware pins transient lines;
                        // this model lets conflicting fills race).
                        // Reinstall the line — the block's value is the
                        // store's.
                        self.fill_cache(ctx, at, addr, grant, t.store_value)
                    }
                    s if s.readable() && !s.writable() => {
                        self.set_cache_state(ctx, at, addr, grant);
                        self.set_cache_value(ctx, addr, t.store_value);
                        None
                    }
                    other => unreachable!("store ack with {other} copy"),
                };
                self.writeback_victim(ctx, at, victim);
                ctx.complete(
                    self.node,
                    txn,
                    t.op,
                    addr,
                    t.issued,
                    done,
                    false,
                    false,
                    t.store_value,
                );
                self.drain_backlog(ctx, done);
            }
            ProtoMsg::Nack { txn, .. } => {
                if !self.outstanding.contains_key(&txn) && self.discard_unknown_txn(ctx, at) {
                    return;
                }
                let t = self
                    .outstanding
                    .get_mut(&txn)
                    .expect("nack for unknown txn");
                t.retries += 1;
                ctx.schedule(
                    at + params.nack_retry,
                    BusMsg::Retry {
                        node: self.node,
                        txn,
                    },
                );
            }
            other => panic!("master received {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Quarantine and rejoin
    // ------------------------------------------------------------------

    /// Abandons every outstanding and backlogged transaction (the node
    /// was quarantined), returning `(txn, addr)` pairs in transaction
    /// order for the engine to escalate as `NodeUnavailable`.
    pub(crate) fn abandon_all(&mut self) -> Vec<(TxnId, Addr)> {
        let mut out: Vec<(TxnId, Addr)> =
            self.outstanding.iter().map(|(t, m)| (*t, m.addr)).collect();
        out.extend(self.backlog.iter().map(|(_, addr, txn, _)| (*txn, *addr)));
        out.sort_unstable_by_key(|(t, _)| *t);
        self.outstanding.clear();
        self.backlog.clear();
        out
    }

    /// A revived master restarts cold: nothing survives in the L2 or
    /// the main-memory third-level cache.
    pub(crate) fn rejoin_cold(&mut self, touched: &mut TouchLog) {
        if touched.on {
            for addr in self.cache.resident() {
                touched.note(addr);
            }
        }
        self.cache.clear();
        self.l3.clear();
    }

    /// Drops every cached copy of a block homed at `home` — the rejoin
    /// handshake after `home` revived with an empty directory, which no
    /// longer knows this node holds them.
    pub(crate) fn drop_blocks_homed_at(&mut self, home: NodeId, touched: &mut TouchLog) {
        for addr in self.cache.resident() {
            if addr.home() == home {
                self.cache.invalidate(addr);
                touched.note(addr);
            }
        }
        self.l3.retain(|addr, _| addr.home() != home);
    }

    fn drain_backlog(&mut self, ctx: &mut Ctx, at: SimTime) {
        if let Some((op, addr, txn, _issued)) = self.backlog.pop_front() {
            ctx.schedule(
                at,
                BusMsg::Access {
                    node: self.node,
                    op,
                    addr,
                    txn,
                },
            );
        }
    }
}
