//! Serialized service modeling for protocol modules.
//!
//! Each master/home/slave module "starts a service by receiving a message,
//! and does not start another service while processing a message" (Section
//! 3.4). [`ServiceQueue`] models that: arrivals are served FIFO, one at a
//! time, and the queue depth seen by each arrival is tracked so the
//! deadlock-prevention buffer bounds can be checked.

use cenju4_des::{Duration, SimTime};
use std::collections::VecDeque;

/// A single-server FIFO with exact waiting-depth accounting.
///
/// # Examples
///
/// ```
/// use cenju4_des::{Duration, SimTime};
/// use cenju4_protocol::service::ServiceQueue;
///
/// let mut q = ServiceQueue::new();
/// let d1 = q.begin(SimTime::from_ns(0), Duration::from_ns(100));
/// let d2 = q.begin(SimTime::from_ns(10), Duration::from_ns(100));
/// assert_eq!(d1.as_ns(), 100);
/// assert_eq!(d2.as_ns(), 200); // served after the first
/// assert_eq!(q.depth_high_water(), 1); // one message waited
/// ```
#[derive(Debug, Default)]
pub struct ServiceQueue {
    busy_until: SimTime,
    /// Start times of accepted jobs (drained lazily).
    starts: VecDeque<SimTime>,
    max_depth: u64,
    served: u64,
}

cenju4_des::clone_fields!(ServiceQueue {
    busy_until,
    starts,
    max_depth,
    served
});

impl ServiceQueue {
    /// Creates an idle server.
    pub fn new() -> Self {
        ServiceQueue::default()
    }

    /// Accepts a job arriving at `arrival` needing `service` time.
    /// Returns its completion time.
    ///
    /// Arrivals must be fed in nondecreasing time order (the event loop
    /// guarantees this).
    pub fn begin(&mut self, arrival: SimTime, service: Duration) -> SimTime {
        let start = arrival.max(self.busy_until);
        self.busy_until = start + service;
        self.served += 1;
        // Drop jobs that had started service before this arrival; the
        // remainder (including this one if it must wait) occupy the input
        // buffer at time `arrival`.
        while self.starts.front().is_some_and(|&s| s <= arrival) {
            self.starts.pop_front();
        }
        self.starts.push_back(start);
        if start > arrival {
            // This arrival had to wait: every job whose service had not
            // started by `arrival` (itself included) sat in the module's
            // input buffer at that instant.
            let depth = self.starts.len() as u64;
            self.max_depth = self.max_depth.max(depth);
        }
        self.busy_until
    }

    /// When the server becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Jobs accepted so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The deepest input-buffer backlog any arrival has observed
    /// (messages waiting for service, the arriving one included).
    pub fn depth_high_water(&self) -> u64 {
        self.max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_serves_immediately() {
        let mut q = ServiceQueue::new();
        let done = q.begin(SimTime::from_ns(100), Duration::from_ns(50));
        assert_eq!(done, SimTime::from_ns(150));
        assert_eq!(q.depth_high_water(), 0);
    }

    #[test]
    fn fifo_serialization() {
        let mut q = ServiceQueue::new();
        let a = q.begin(SimTime::ZERO, Duration::from_ns(100));
        let b = q.begin(SimTime::ZERO, Duration::from_ns(100));
        let c = q.begin(SimTime::ZERO, Duration::from_ns(100));
        assert_eq!(a.as_ns(), 100);
        assert_eq!(b.as_ns(), 200);
        assert_eq!(c.as_ns(), 300);
        assert_eq!(q.served(), 3);
    }

    #[test]
    fn backlog_depth_tracked() {
        let mut q = ServiceQueue::new();
        for _ in 0..10 {
            q.begin(SimTime::ZERO, Duration::from_ns(100));
        }
        assert!(q.depth_high_water() >= 9);
    }

    #[test]
    fn backlog_drains_over_time() {
        let mut q = ServiceQueue::new();
        q.begin(SimTime::ZERO, Duration::from_ns(10));
        // Long after the first finished: no backlog for the second.
        let done = q.begin(SimTime::from_ns(1_000), Duration::from_ns(10));
        assert_eq!(done, SimTime::from_ns(1_010));
        assert_eq!(q.depth_high_water(), 0);
    }
}
