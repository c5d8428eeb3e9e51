//! Run statistics in the shape of the paper's Tables 3 and 4.

use crate::driver::{Step, Target};
use cenju4_des::{Duration, SimTime};
use cenju4_protocol::ProtoParams;

/// The paper's three memory-access classes (Table 3 / Table 4 columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Private memory (not through the DSM).
    Private,
    /// Shared memory homed on the issuing node.
    SharedLocal,
    /// Shared memory homed on another node.
    SharedRemote,
}

impl AccessClass {
    /// All classes, in table order.
    pub const ALL: [AccessClass; 3] = [
        AccessClass::Private,
        AccessClass::SharedLocal,
        AccessClass::SharedRemote,
    ];

    pub(crate) const fn idx(self) -> usize {
        match self {
            AccessClass::Private => 0,
            AccessClass::SharedLocal => 1,
            AccessClass::SharedRemote => 2,
        }
    }
}

/// Per-node statistics accumulated by the driver.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeReport {
    /// Accesses per class.
    pub accesses: [u64; 3],
    /// Secondary-cache misses per class (stores to shared blocks count,
    /// as in the paper's Table 3 footnote).
    pub misses: [u64; 3],
    /// Summed access latency per class, ns.
    pub latency_ns: [u64; 3],
    /// Time modeled as non-memory instructions.
    pub think: Duration,
    /// Time spent waiting at barriers (the paper's "sync." column).
    pub sync: Duration,
    /// Barriers passed.
    pub barriers: u64,
    /// When this node's program finished.
    pub finished: SimTime,
}

impl NodeReport {
    /// Records one access.
    pub fn record(&mut self, class: AccessClass, miss: bool, latency: Duration) {
        let i = class.idx();
        self.accesses[i] += 1;
        if miss {
            self.misses[i] += 1;
        }
        self.latency_ns[i] += latency.as_ns();
    }

    /// Records `n` cache hits of cost `hit` each, and returns the time
    /// they take together, `n · hit`.
    pub fn record_hits(&mut self, class: AccessClass, n: u64, hit: Duration) -> Duration {
        let i = class.idx();
        let total = hit * n;
        self.accesses[i] += n;
        self.latency_ns[i] += total.as_ns();
        total
    }

    /// Accounts a step that involves its node alone — think time or a
    /// private access — and returns how long it takes. A shared access
    /// or a barrier involves the machine: for those nothing is recorded
    /// and the result is `None`.
    ///
    /// The driver accounts every such step through here, and so does the
    /// engine-free sequential baseline, so the two cannot drift apart.
    pub fn record_local(&mut self, step: Step, proto: &ProtoParams) -> Option<Duration> {
        match step {
            Step::Think(d) => {
                self.think += d;
                Some(d)
            }
            Step::Access {
                target: Target::PrivateHit,
                reuse,
                ..
            } => {
                let hits = u64::from(reuse.max(1));
                Some(self.record_hits(AccessClass::Private, hits, proto.hit))
            }
            Step::Access {
                target: Target::PrivateMiss,
                reuse,
                ..
            } => {
                self.record(AccessClass::Private, true, proto.private_miss);
                let hits = u64::from(reuse.max(1)) - 1;
                Some(proto.private_miss + self.record_hits(AccessClass::Private, hits, proto.hit))
            }
            Step::Access {
                target: Target::Shared(_),
                ..
            }
            | Step::Barrier => None,
        }
    }

    /// Total accesses.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Total misses.
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }
}

/// The result of a driven run: one [`NodeReport`] per node plus run-level
/// aggregates, with the derived quantities the paper tabulates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Per-node statistics.
    pub nodes: Vec<NodeReport>,
    /// Machine-wide access-latency histograms, one per class
    /// ([`AccessClass::ALL`] order; 100 ns buckets, 10 µs span).
    pub latency_hist: Vec<cenju4_des::stats::Histogram>,
}

impl RunReport {
    /// Builds a report from per-node statistics with empty histograms.
    pub fn new(nodes: Vec<NodeReport>) -> Self {
        RunReport {
            nodes,
            latency_hist: AccessClass::ALL
                .iter()
                .map(|_| cenju4_des::stats::Histogram::new(100, 100))
                .collect(),
        }
    }

    /// An approximate latency quantile for one access class, ns.
    pub fn latency_quantile(&self, class: AccessClass, p: f64) -> u64 {
        self.latency_hist[class.idx()].quantile(p)
    }

    /// The mean access latency of one class, ns.
    pub fn latency_mean(&self, class: AccessClass) -> f64 {
        self.latency_hist[class.idx()].mean()
    }

    /// Wall-clock (simulated) execution time: the latest node finish.
    pub fn total_time(&self) -> SimTime {
        self.nodes
            .iter()
            .map(|n| n.finished)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Speedup over a sequential run that took `seq_ns` simulated ns:
    /// `T_seq / T_par` (Figure 12's y-axis; divided by the node count,
    /// Figure 11(b)'s efficiency). A run that took no time counts as 1 ns.
    pub fn speedup(&self, seq_ns: u64) -> f64 {
        seq_ns as f64 / self.total_time().as_ns().max(1) as f64
    }

    /// Machine-wide accesses per class.
    pub fn accesses(&self, class: AccessClass) -> u64 {
        self.nodes.iter().map(|n| n.accesses[class.idx()]).sum()
    }

    /// Machine-wide misses per class.
    pub fn misses(&self, class: AccessClass) -> u64 {
        self.nodes.iter().map(|n| n.misses[class.idx()]).sum()
    }

    /// Overall secondary-cache miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        let acc: u64 = AccessClass::ALL.iter().map(|&c| self.accesses(c)).sum();
        let mis: u64 = AccessClass::ALL.iter().map(|&c| self.misses(c)).sum();
        if acc == 0 {
            0.0
        } else {
            mis as f64 / acc as f64
        }
    }

    /// The fraction of all accesses falling in `class` (Table 4's
    /// "executed instructions: mem. access" breakdown).
    pub fn access_fraction(&self, class: AccessClass) -> f64 {
        let total: u64 = AccessClass::ALL.iter().map(|&c| self.accesses(c)).sum();
        if total == 0 {
            0.0
        } else {
            self.accesses(class) as f64 / total as f64
        }
    }

    /// The fraction of all misses falling in `class` (Table 3's and
    /// Table 4's "secondary cache misses" breakdown).
    pub fn miss_fraction(&self, class: AccessClass) -> f64 {
        let total: u64 = AccessClass::ALL.iter().map(|&c| self.misses(c)).sum();
        if total == 0 {
            0.0
        } else {
            self.misses(class) as f64 / total as f64
        }
    }

    /// The average fraction of node time spent in barrier waits
    /// (Table 4's "sync." column).
    pub fn sync_fraction(&self) -> f64 {
        let total = self.total_time().as_ns() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let avg_sync: f64 = self
            .nodes
            .iter()
            .map(|n| n.sync.as_ns() as f64)
            .sum::<f64>()
            / self.nodes.len().max(1) as f64;
        avg_sync / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut r = NodeReport::default();
        r.record(AccessClass::Private, false, Duration::from_ns(30));
        r.record(AccessClass::SharedRemote, true, Duration::from_ns(1710));
        assert_eq!(r.total_accesses(), 2);
        assert_eq!(r.total_misses(), 1);
        assert_eq!(r.latency_ns[2], 1710);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut a = NodeReport::default();
        a.record(AccessClass::Private, true, Duration::ZERO);
        a.record(AccessClass::SharedLocal, true, Duration::ZERO);
        a.record(AccessClass::SharedRemote, true, Duration::ZERO);
        let run = RunReport::new(vec![a]);
        let total: f64 = AccessClass::ALL
            .iter()
            .map(|&c| run.access_fraction(c))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((run.miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_zeroes() {
        let run = RunReport::new(vec![]);
        assert_eq!(run.total_time(), SimTime::ZERO);
        assert_eq!(run.miss_ratio(), 0.0);
        assert_eq!(run.sync_fraction(), 0.0);
        assert_eq!(run.speedup(10), 10.0);
    }

    #[test]
    fn speedup_divides_the_sequential_time() {
        let node = |ns| NodeReport {
            finished: SimTime::from_ns(ns),
            ..NodeReport::default()
        };
        let run = RunReport::new(vec![node(400), node(250)]);
        assert_eq!(run.speedup(1000), 2.5);
    }
}
