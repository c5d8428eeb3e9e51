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

pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use stats::{Histogram, HistogramSummary};
pub use time::{Duration, SimTime};
