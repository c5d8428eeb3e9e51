//! The span-leak oracle's bookkeeping.
//!
//! The quiescence oracle needs two numbers from the protocol's callback
//! stream: how many transaction spans are still open, and how many have
//! closed. [`SpanLedger`] keeps exactly those, by the open and close
//! rules of `cenju4_obs::SpanCollector` (`tests/span_ledger.rs` holds
//! the two to the same counts at every step), and nothing the collector
//! keeps beside them: no span records, phase milestones, histograms or
//! counters. Every explored position carries one, so a copy of a
//! position copies two short lists and a count.

use cenju4_des::SimTime;
use cenju4_directory::NodeId;
use cenju4_protocol::{Addr, MemOp, Observer, ProtoMsg, RecoveryError, TxnId};

/// An [`Observer`] that counts open and completed spans.
///
/// A processor access opens a span at its first dispatch and closes it
/// when it graduates or the recovery layer abandons it. A writeback opens
/// a span when it is sent and closes it when its home receives it, or
/// when either end is quarantined (the fabric can no longer deliver it).
#[derive(Debug, Default)]
pub struct SpanLedger {
    /// Open access spans, by transaction id.
    open: Vec<TxnId>,
    /// Open writeback spans as (evictor, block), in send order. The
    /// fabric delivers same-link messages in order, so a receipt closes
    /// the first entry of its (evictor, block).
    open_writebacks: Vec<(NodeId, Addr)>,
    /// Spans that opened and closed.
    completed: usize,
}

// Field-wise `clone_from` reuses the lists' buffers, so copying a
// position into a recycled one allocates nothing here.
cenju4_des::clone_fields!(SpanLedger {
    open,
    open_writebacks,
    completed,
});

impl SpanLedger {
    /// Spans still open: zero at quiescence, or the protocol leaked a
    /// transaction.
    pub fn open_span_count(&self) -> usize {
        self.open.len() + self.open_writebacks.len()
    }

    /// Spans that opened and closed.
    pub fn completed_span_count(&self) -> usize {
        self.completed
    }

    /// Closes the access span of `txn`, if one is open.
    fn close_txn(&mut self, txn: TxnId) {
        if let Some(i) = self.open.iter().position(|&t| t == txn) {
            self.open.swap_remove(i);
            self.completed += 1;
        }
    }
}

impl Observer for SpanLedger {
    fn fork(&self) -> Option<Box<dyn Observer>> {
        Some(Box::new(self.clone()))
    }

    fn fork_into(&self, dst: &mut Box<dyn Observer>) -> bool {
        match (**dst).as_any_mut().downcast_mut::<SpanLedger>() {
            Some(same) => same.clone_from(self),
            None => *dst = Box::new(self.clone()),
        }
        true
    }

    fn on_access(&mut self, _at: SimTime, _node: NodeId, _op: MemOp, _addr: Addr, txn: TxnId) {
        // A backlogged access re-dispatches once a request slot frees
        // up; its span stays open from the first dispatch.
        if !self.open.contains(&txn) {
            self.open.push(txn);
        }
    }

    fn on_send(&mut self, _at: SimTime, _src: NodeId, _dst: NodeId, msg: &ProtoMsg) {
        if let ProtoMsg::WriteBack { addr, from, .. } = *msg {
            self.open_writebacks.push((from, addr));
        }
    }

    fn on_receive(&mut self, _at: SimTime, _dst: NodeId, _src: NodeId, msg: &ProtoMsg) {
        if let ProtoMsg::WriteBack { addr, from, .. } = *msg {
            if let Some(i) = self.open_writebacks.iter().position(|&w| w == (from, addr)) {
                self.open_writebacks.remove(i);
                self.completed += 1;
            }
        }
    }

    fn on_complete(
        &mut self,
        _at: SimTime,
        _node: NodeId,
        txn: TxnId,
        _op: MemOp,
        _addr: Addr,
        _hit: bool,
        _l3: bool,
    ) {
        self.close_txn(txn);
    }

    fn on_recovery_error(&mut self, _at: SimTime, err: &RecoveryError) {
        // An abandoned transaction never graduates, so its span closes
        // here instead.
        if let RecoveryError::TransactionTimeout { txn, .. }
        | RecoveryError::NodeUnavailable { txn, .. } = *err
        {
            self.close_txn(txn);
        }
    }

    fn on_node_quarantined(&mut self, _at: SimTime, node: NodeId) {
        // A writeback evicted by the quarantined node, or bound for a
        // home on it, can never be delivered.
        let before = self.open_writebacks.len();
        self.open_writebacks
            .retain(|&(from, addr)| from != node && addr.home() != node);
        self.completed += before - self.open_writebacks.len();
    }
}
