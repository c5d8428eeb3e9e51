//! Protocol event tracing: a bounded ring of timestamped records for
//! debugging coherence behaviour block by block.

use crate::addr::Addr;
use crate::messages::TxnId;
use cenju4_des::SimTime;
use cenju4_directory::NodeId;
use core::fmt;
use std::collections::VecDeque;

/// One traced protocol event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the event was dispatched.
    pub at: SimTime,
    /// The node at which it happened.
    pub node: NodeId,
    /// A short static label ("access", "home:request", "slave:inv", …).
    pub label: &'static str,
    /// The block concerned, if any.
    pub addr: Option<Addr>,
    /// The transaction concerned, if any.
    pub txn: Option<TxnId>,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12} {:>5} {:<16}",
            self.at,
            self.node.to_string(),
            self.label
        )?;
        if let Some(a) = self.addr {
            write!(f, " {a}")?;
        }
        if let Some(t) = self.txn {
            write!(f, " txn={t}")?;
        }
        Ok(())
    }
}

/// A bounded ring buffer of [`TraceRecord`]s.
///
/// Disabled by default (capacity 0, recording is a no-op); enable with
/// [`Trace::with_capacity`] via `Engine::enable_trace`.
///
/// # Examples
///
/// ```
/// use cenju4_protocol::trace::{Trace, TraceRecord};
/// use cenju4_des::SimTime;
/// use cenju4_directory::NodeId;
///
/// let mut t = Trace::with_capacity(2);
/// for i in 0..3 {
///     t.record(TraceRecord {
///         at: SimTime::from_ns(i),
///         node: NodeId::new(0),
///         label: "access",
///         addr: None,
///         txn: Some(i),
///     });
/// }
/// // Bounded: only the newest two remain.
/// assert_eq!(t.records().len(), 2);
/// assert_eq!(t.records()[0].txn, Some(1));
/// ```
#[derive(Debug, Default)]
pub struct Trace {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

cenju4_des::clone_fields!(Trace {
    ring,
    capacity,
    dropped
});

impl Trace {
    /// A disabled trace (records nothing).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// A trace retaining the most recent `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            ring: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Whether recording is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends a record (no-op when disabled); evicts the oldest entry
    /// when full.
    #[inline]
    pub fn record(&mut self, r: TraceRecord) {
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(r);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> &VecDeque<TraceRecord> {
        &self.ring
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All retained records touching `addr`, oldest first.
    pub fn for_block(&self, addr: Addr) -> Vec<TraceRecord> {
        self.ring
            .iter()
            .filter(|r| r.addr == Some(addr))
            .copied()
            .collect()
    }

    /// Renders the records for one block as a timeline, one per line.
    pub fn dump_block(&self, addr: Addr) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        for r in self.for_block(addr) {
            let _ = writeln!(out, "{r}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_ns(i),
            node: NodeId::new((i % 4) as u16),
            label: "x",
            addr: Some(Addr::new(NodeId::new(0), (i % 2) as u32)),
            txn: Some(i),
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::disabled();
        t.record(rec(1));
        assert!(!t.enabled());
        assert!(t.records().is_empty());
    }

    #[test]
    fn bounded_ring_evicts_oldest() {
        let mut t = Trace::with_capacity(3);
        for i in 0..10 {
            t.record(rec(i));
        }
        assert_eq!(t.records().len(), 3);
        assert_eq!(t.dropped(), 7);
        assert_eq!(t.records()[0].txn, Some(7));
    }

    #[test]
    fn per_block_filter() {
        let mut t = Trace::with_capacity(16);
        for i in 0..8 {
            t.record(rec(i));
        }
        let a = Addr::new(NodeId::new(0), 0);
        let evens = t.for_block(a);
        assert_eq!(evens.len(), 4);
        assert!(evens.iter().all(|r| r.addr == Some(a)));
        let dump = t.dump_block(a);
        assert_eq!(dump.lines().count(), 4);
    }
}
