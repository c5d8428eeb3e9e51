//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the minimal machinery shared by every simulated
//! component in the Cenju-4 reproduction: a nanosecond-resolution clock
//! ([`SimTime`]), a deterministic event queue ([`EventQueue`]), a small
//! deterministic pseudo-random number generator ([`SplitMix64`]), and
//! light-weight statistics helpers ([`stats::Histogram`],
//! [`stats::OnlineStats`], [`stats::HighWaterMark`]).
//!
//! Determinism is load-bearing for the reproduction: two events scheduled at
//! the same timestamp are always delivered in the order they were scheduled
//! (FIFO tie-breaking via a monotone sequence number), so a simulation run is
//! a pure function of its configuration and seed.
//!
//! # Examples
//!
//! ```
//! use cenju4_des::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule_at(SimTime::from_ns(20), "second");
//! q.schedule_at(SimTime::from_ns(10), "first");
//! q.schedule_at(SimTime::from_ns(20), "third"); // same time: FIFO order
//!
//! assert_eq!(q.pop(), Some((SimTime::from_ns(10), "first")));
//! assert_eq!(q.pop(), Some((SimTime::from_ns(20), "second")));
//! assert_eq!(q.pop(), Some((SimTime::from_ns(20), "third")));
//! assert_eq!(q.pop(), None);
//! ```

pub mod hash;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use hash::{FxHashMap, FxHashSet, FxHasher, MultisetDigest};
pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use stats::{Histogram, HistogramSummary};
pub use time::{Duration, SimTime};

/// Implements `Clone` for a struct field by field, with a `clone_from`
/// that calls `clone_from` on every field, so copying into an existing
/// value reuses its buffers (`Vec`, `VecDeque`, hash tables) instead of
/// allocating afresh as a derived `clone_from` (`*self = src.clone()`)
/// does. The field list is given once: `clone` builds a complete struct
/// literal from it, so a field left out does not compile. Each generic
/// parameter is bound by `Clone`, plus the bound written after it.
///
/// # Examples
///
/// ```
/// struct Log<T> {
///     name: String,
///     items: Vec<T>,
/// }
/// cenju4_des::clone_fields!(Log<T> { name, items });
///
/// let src = Log { name: "a".to_string(), items: vec![1, 2, 3] };
/// let mut dst = Log { name: String::with_capacity(16), items: Vec::with_capacity(8) };
/// let buf = dst.items.as_ptr();
/// dst.clone_from(&src);
/// assert_eq!(dst.items, [1, 2, 3]);
/// assert_eq!(dst.items.as_ptr(), buf); // the buffer was reused
/// assert_eq!(src.clone().name, "a");
/// ```
#[macro_export]
macro_rules! clone_fields {
    ($name:ident $(<$($g:ident $(: $bound:path)?),+>)? { $($field:ident),+ $(,)? }) => {
        impl$(<$($g: Clone $(+ $bound)?),+>)? Clone for $name$(<$($g),+>)? {
            fn clone(&self) -> Self {
                $name {
                    $($field: Clone::clone(&self.$field)),+
                }
            }

            fn clone_from(&mut self, src: &Self) {
                $(Clone::clone_from(&mut self.$field, &src.$field);)+
            }
        }
    };
}
