//! The deterministic event queue at the heart of the simulator.

use crate::time::{Duration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event together with its scheduled time and a tie-breaking
/// sequence number.
#[derive(Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// Reversed ordering so that `BinaryHeap` (a max-heap) pops the
    /// earliest event, breaking ties by insertion order.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of timestamped events.
///
/// Events scheduled for the same instant are popped in the order they were
/// scheduled, making simulations reproducible bit-for-bit.
///
/// # Examples
///
/// ```
/// use cenju4_des::{Duration, EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_in(Duration::from_ns(5), 'b');
/// q.schedule_at(SimTime::from_ns(1), 'a');
/// let mut order = Vec::new();
/// while let Some((t, e)) = q.pop() {
///     order.push((t.as_ns(), e));
/// }
/// assert_eq!(order, vec![(1, 'a'), (5, 'b')]);
/// ```
#[derive(Clone, Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (or zero before any event has been popped).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The number of events still pending.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is earlier than the current time —
    /// scheduling into the past would break causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the earliest pending event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        self.processed += 1;
        Some((s.at, s.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }
}

impl<E> core::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(30), 3);
        q.schedule_at(SimTime::from_ns(10), 1);
        q.schedule_at(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_ns(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(100), "start");
        q.pop();
        q.schedule_in(Duration::from_ns(50), "later");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(150)));
    }

    #[test]
    fn counts_processed() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(1), ());
        q.schedule_at(SimTime::from_ns(2), ());
        q.pop();
        q.pop();
        assert_eq!(q.processed(), 2);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        // A simple cascade: each event schedules a follow-up; the trace must
        // be identical across runs.
        let run = || {
            let mut q = EventQueue::new();
            q.schedule_at(SimTime::from_ns(0), 0u32);
            let mut trace = Vec::new();
            while let Some((t, e)) = q.pop() {
                trace.push((t.as_ns(), e));
                if e < 10 {
                    q.schedule_in(Duration::from_ns(3), e + 1);
                    q.schedule_in(Duration::from_ns(3), e + 100);
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), ());
        q.pop();
        q.schedule_at(SimTime::from_ns(5), ());
    }
}
