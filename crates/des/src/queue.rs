//! The deterministic event queue at the heart of the simulator.

use crate::time::{Duration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bits of a key's tag that hold the payload's slab slot.
const SLOT_BITS: u32 = 24;
/// Sequence numbers must fit the tag's remaining 40 bits.
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);

/// The heap element: an event's time in the high 64 bits and its tag
/// `seq << SLOT_BITS | slot` in the low 64. Sequence numbers are unique,
/// so comparing keys as integers orders events by `(at, seq)`, and the
/// slot bits never decide. One wide comparison has no branch for ties
/// in `at` to mispredict, and ties are common.
type Key = u128;

/// The event time held in a key's high half.
#[inline]
fn key_time(key: Key) -> SimTime {
    SimTime::from_ns((key >> 64) as u64)
}

/// A deterministic priority queue of timestamped events.
///
/// Events scheduled for the same instant are popped in the order they were
/// scheduled, making simulations reproducible bit-for-bit.
///
/// The heap orders 16-byte keys; the payloads wait in a slab whose free
/// slots are reused, so sifting never moves an event.
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
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Key>>,
    /// Payloads by slot; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slots of `slab`, reused last-freed first.
    free: Vec<u32>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

crate::clone_fields!(EventQueue<E> { heap, slab, free, now, seq, processed });

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
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
    /// Panics if `at` is earlier than the current time — scheduling into
    /// the past would break causality — and if the queue outgrows its
    /// key packing: 2^24 pending events or 2^40 schedules in total.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.seq;
        assert!(seq < SEQ_LIMIT, "event sequence numbers exhausted");
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = self.slab.len();
                assert!(slot < 1 << SLOT_BITS, "too many pending events");
                self.slab.push(Some(event));
                slot as u32
            }
        };
        let tag = seq << SLOT_BITS | u64::from(slot);
        self.heap
            .push(Reverse(Key::from(at.as_ns()) << 64 | Key::from(tag)));
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the earliest pending event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(key) = self.heap.pop()?;
        let at = key_time(key);
        debug_assert!(at >= self.now);
        let slot = key as u32 & ((1 << SLOT_BITS) - 1);
        let event = self.slab[slot as usize]
            .take()
            .expect("queued key points at an empty slot");
        self.free.push(slot);
        self.now = at;
        self.processed += 1;
        Some((at, event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse(key)| key_time(key))
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
    use crate::SplitMix64;
    use std::cmp::Ordering;

    /// A pending event of the reference queue, ordered by `(at, seq)`.
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
        /// Reversed so that the max-heap pops the earliest event, ties
        /// by insertion order.
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The keyed queue's reference: a heap that sifts whole events.
    #[derive(Clone, Default)]
    struct ReferenceQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        now: SimTime,
        seq: u64,
        processed: u64,
    }

    impl<E> ReferenceQueue<E> {
        fn schedule_at(&mut self, at: SimTime, event: E) {
            assert!(at >= self.now);
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Scheduled { at, seq, event });
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let s = self.heap.pop()?;
            self.now = s.at;
            self.processed += 1;
            Some((s.at, s.event))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|s| s.at)
        }
    }

    /// Applies one seeded operation to both queues and asserts they agree
    /// afterwards. Half the schedules land on the current instant or on
    /// an already-pending time, so ties dominate the pops; the rest pick
    /// a delay of 0–63 ns.
    fn step_both(
        rng: &mut SplitMix64,
        q: &mut EventQueue<u64>,
        r: &mut ReferenceQueue<u64>,
        next_id: &mut u64,
    ) {
        if r.heap.is_empty() || rng.next_below(100) < 55 {
            let at = match rng.next_below(4) {
                0 => r.now,
                1 => r.peek_time().unwrap_or(r.now),
                _ => r.now + Duration::from_ns(rng.next_below(64)),
            };
            q.schedule_at(at, *next_id);
            r.schedule_at(at, *next_id);
            *next_id += 1;
        } else {
            assert_eq!(q.pop(), r.pop());
        }
        assert_eq!(q.now(), r.now);
        assert_eq!(q.len(), r.heap.len());
        assert_eq!(q.is_empty(), r.heap.is_empty());
        assert_eq!(q.peek_time(), r.peek_time());
        assert_eq!(q.processed(), r.processed);
    }

    #[test]
    fn keyed_queue_matches_the_whole_event_heap() {
        let mut same_time_pops = 0u64;
        let mut pops = 0u64;
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(seed);
            let mut q = EventQueue::new();
            let mut r = ReferenceQueue::default();
            let mut next_id = 0;
            for _ in 0..2_000 {
                let before = (r.processed, r.now);
                step_both(&mut rng, &mut q, &mut r, &mut next_id);
                if r.processed > before.0 {
                    pops += 1;
                    same_time_pops += u64::from(r.now == before.1);
                }
            }
            // Clones taken mid-sequence carry on independently of the
            // originals, which keep going with their own stream.
            let (mut qc, mut rc) = (q.clone(), r.clone());
            let mut clone_rng = SplitMix64::new(seed ^ 0xC10E);
            let mut clone_id = next_id;
            for _ in 0..2_000 {
                step_both(&mut clone_rng, &mut qc, &mut rc, &mut clone_id);
                step_both(&mut rng, &mut q, &mut r, &mut next_id);
            }
            while r.peek_time().is_some() {
                assert_eq!(q.pop(), r.pop());
            }
            assert_eq!(q.pop(), None);
            assert!(q.is_empty());
        }
        assert!(
            same_time_pops * 2 >= pops,
            "ties too rare to exercise FIFO order: {same_time_pops}/{pops}"
        );
    }

    #[test]
    fn slots_are_reused_after_pops() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..100 {
                q.schedule_in(Duration::from_ns(i % 7), round * 100 + i);
            }
            for _ in 0..100 {
                q.pop().unwrap();
            }
        }
        assert_eq!(q.slab.len(), 100, "slab grew past the peak pending count");
        assert_eq!(q.free.len(), 100);
    }

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
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), ());
        q.pop();
        q.schedule_at(SimTime::from_ns(5), ());
    }
}
