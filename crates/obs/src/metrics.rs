//! A registry of latency histograms and counters over closed key sets.
//!
//! Every counter is a [`CounterKey`] and every latency class a
//! [`SpanClass`]: a fixed table holds one `u64` per counter and one
//! histogram slot per class, so bumping a counter or recording a sample
//! is an array index — it never searches, allocates (bar a class's first
//! sample, which allocates its histogram) or formats. Every dump iterates
//! the keys in sorted name order, so the text and JSON exports are
//! deterministic across runs and sweep thread counts, which the
//! determinism tests rely on. A counter appears in the dumps once it has
//! been added to, even with 0; a class once it holds a sample.

use crate::span::SpanClass;
use cenju4_des::{Histogram, HistogramSummary};

/// Bucket width of the per-class latency histograms. Pinned store
/// latencies on the paper's configurations run 2.6–3.5 µs, so 250 ns
/// buckets resolve p50/p90/p99 without a huge table.
pub const LATENCY_BUCKET_NS: u64 = 250;

/// Bucket count: covers 0–32 µs before the overflow bucket, comfortably
/// past the worst queued-under-contention latencies the checker explores.
pub const LATENCY_BUCKETS: usize = 128;

macro_rules! counter_keys {
    ($($(#[$doc:meta])* $key:ident => $name:literal,)*) => {
        /// A counter the [`crate::SpanCollector`] keeps: the closed set of
        /// [`MetricsRegistry`] counter keys, declared in sorted name
        /// order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum CounterKey {
            $($(#[$doc])* $key,)*
        }

        impl CounterKey {
            /// Every key, in sorted name order (the dump order).
            pub const ALL: [CounterKey; [$($name),*].len()] = [$(CounterKey::$key),*];

            /// The name the dumps print.
            pub const fn name(self) -> &'static str {
                match self {
                    $(CounterKey::$key => $name,)*
                }
            }
        }
    };
}

counter_keys! {
    /// Network hops summed over every protocol message sent.
    FabricHops => "fabric.hops",
    /// Protocol messages sent (one per delivered multicast copy).
    FabricSends => "fabric.sends",
    /// Phase milestones recorded by home modules.
    HomePhases => "module.home.phases",
    /// Phase milestones recorded by master modules.
    MasterPhases => "module.master.phases",
    /// Ownership (upgrade) requests issued.
    RequestOwnership => "module.master.request.ownership",
    /// Read-exclusive requests issued.
    RequestReadExclusive => "module.master.request.read-exclusive",
    /// Read-shared requests issued.
    RequestReadShared => "module.master.request.read-shared",
    /// Update (write-through) requests issued.
    RequestUpdate => "module.master.request.update",
    /// Phase milestones recorded by slave modules.
    SlavePhases => "module.slave.phases",
    /// Backlogged accesses re-dispatched once a request slot freed.
    PhaseBacklogDrain => "phase.backlog-drain",
    /// Requests forwarded to a dirty owner.
    PhaseForwarded => "phase.forwarded",
    /// Gathered acks combined at a home.
    PhaseGatherCombine => "phase.gather-combine",
    /// Acks contributed to an in-network gather.
    PhaseGatherContribute => "phase.gather-contribute",
    /// Invalidation or update fan-outs.
    PhaseMulticastFanout => "phase.multicast-fanout",
    /// Requests parked in a home's request queue.
    PhaseQueuedAtHome => "phase.queued-at-home",
    /// Replies received by a master.
    PhaseReply => "phase.reply",
    /// Parked requests woken by the reservation bit.
    PhaseReservationWait => "phase.reservation-wait",
    /// Nack/retry rounds.
    PhaseRetry => "phase.retry",
    /// Gathers whose re-issue budget ran out.
    GatherReissueBudget => "recovery.gather-reissue-budget",
    /// Gathers cancelled by a quarantine scrub.
    GatherScrubs => "recovery.gather-scrubs",
    /// Links whose retransmission budget ran out.
    LinkRetransmitBudget => "recovery.link-retransmit-budget",
    /// Nodes the failure detector quarantined.
    NodeQuarantines => "recovery.node-quarantines",
    /// Quarantined nodes that rejoined.
    NodeRejoins => "recovery.node-rejoins",
    /// Nodes the failure detector suspected.
    NodeSuspects => "recovery.node-suspects",
    /// Transactions abandoned on a dead node.
    NodeUnavailable => "recovery.node-unavailable",
    /// Transactions abandoned after their escalation budget.
    TransactionTimeout => "recovery.transaction-timeout",
    /// Spans closed.
    SpanClosed => "span.closed",
    /// Spans opened.
    SpanOpened => "span.opened",
}

/// Per-class latency [`Histogram`]s plus flat `u64` counters,
/// accumulated by a [`crate::SpanCollector`] and dumped as text or JSON.
///
/// # Examples
///
/// ```
/// use cenju4_obs::{CounterKey, MetricsRegistry, SpanClass};
///
/// let mut m = MetricsRegistry::new();
/// m.incr(CounterKey::FabricSends);
/// m.add(CounterKey::FabricHops, 4);
/// m.record_latency(SpanClass::LoadMiss, 2_620);
/// assert_eq!(m.counter("fabric.hops"), 4);
/// assert_eq!(m.latency_summary("load-miss").unwrap().count, 1);
/// assert!(m.to_text().contains("load-miss"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// One slot per class, indexed by `SpanClass as usize`. A class has a
    /// histogram once it has a sample; an empty one is a buffer a copy
    /// kept for reuse, and reads as absent.
    histograms: [Option<Histogram>; SpanClass::ALL.len()],
    /// One value per counter, indexed by `CounterKey as usize`.
    counters: [u64; CounterKey::ALL.len()],
    /// Bit `k` is set once counter `k` has been added to, so a counter
    /// added with 0 still prints.
    touched: u32,
}

impl Clone for MetricsRegistry {
    fn clone(&self) -> Self {
        MetricsRegistry {
            histograms: self.histograms.clone(),
            counters: self.counters,
            touched: self.touched,
        }
    }

    /// Copies `src` in place. A class `src` has no sample of keeps this
    /// registry's histogram, emptied, so the next sample does not
    /// allocate one again.
    fn clone_from(&mut self, src: &Self) {
        for (mine, theirs) in self.histograms.iter_mut().zip(&src.histograms) {
            match (mine.as_mut(), theirs) {
                (Some(mine), None) => mine.clear(),
                (_, theirs) => mine.clone_from(theirs),
            }
        }
        self.counters = src.counters;
        self.touched = src.touched;
    }
}

impl PartialEq for MetricsRegistry {
    /// Equal when every class holds the same samples and every counter
    /// the same value; emptied histograms kept for reuse do not count.
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
            && self.touched == other.touched
            && self.histograms().eq(other.histograms())
    }
}

impl Eq for MetricsRegistry {}

const _: () = assert!(CounterKey::ALL.len() <= u32::BITS as usize);

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds one latency sample to the class histogram.
    pub fn record_latency(&mut self, class: SpanClass, ns: u64) {
        self.histograms[class as usize]
            .get_or_insert_with(|| Histogram::new(LATENCY_BUCKET_NS, LATENCY_BUCKETS))
            .record(ns);
    }

    /// Increments a counter by one.
    pub fn incr(&mut self, key: CounterKey) {
        self.add(key, 1);
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, key: CounterKey, n: u64) {
        self.counters[key as usize] += n;
        self.touched |= 1 << key as u32;
    }

    /// The current value of the counter named `key` (0 if never touched
    /// or not a counter name).
    pub fn counter(&self, key: &str) -> u64 {
        CounterKey::ALL
            .binary_search_by(|k| k.name().cmp(key))
            .map_or(0, |i| self.counters[CounterKey::ALL[i] as usize])
    }

    /// The latency histogram for the class labelled `class`, if any
    /// sample was recorded.
    pub fn latency(&self, class: &str) -> Option<&Histogram> {
        let class = SpanClass::ALL.into_iter().find(|c| c.label() == class)?;
        self.sampled(class)
    }

    /// The histogram of `class`, if it holds a sample.
    fn sampled(&self, class: SpanClass) -> Option<&Histogram> {
        self.histograms[class as usize]
            .as_ref()
            .filter(|h| h.count() > 0)
    }

    /// The count/p50/p90/p99/max summary for a class.
    pub fn latency_summary(&self, class: &str) -> Option<HistogramSummary> {
        self.latency(class).map(Histogram::summary)
    }

    /// All touched counters, in sorted key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CounterKey::ALL
            .into_iter()
            .filter(|&k| self.touched & (1 << k as u32) != 0)
            .map(|k| (k.name(), self.counters[k as usize]))
    }

    /// All histograms, in sorted class order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        SpanClass::ALL
            .into_iter()
            .filter_map(|c| Some((c.label(), self.sampled(c)?)))
    }

    /// A flat, sorted, line-oriented text dump:
    /// `latency.<class> count=… p50=… p90=… p99=… max=…` then
    /// `counter.<key> = …`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (class, h) in self.histograms() {
            let s = h.summary();
            out.push_str(&format!(
                "latency.{class} count={} p50={} p90={} p99={} max={}\n",
                s.count, s.p50, s.p90, s.p99, s.max
            ));
        }
        for (key, v) in self.counters() {
            out.push_str(&format!("counter.{key} = {v}\n"));
        }
        out
    }

    /// The same dump as a JSON object:
    /// `{"latency":{"<class>":{"count":…,…}},"counters":{"<key>":…}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"latency\":{");
        for (i, (class, h)) in self.histograms().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{class}\":{}", summary_to_json(&h.summary())));
        }
        out.push_str("},\"counters\":{");
        for (i, (key, v)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{key}\":{v}"));
        }
        out.push_str("}}");
        out
    }

    /// Folds `other` into this registry: counters add, histograms merge
    /// bucket-wise. Merging is commutative on the stored aggregates, so
    /// per-shard registries from a partitioned run (one per worker or
    /// sweep slot) collapse into exactly the registry a single-shard run
    /// would have produced.
    ///
    /// # Panics
    ///
    /// Panics if both registries hold a histogram for the same class
    /// with different bucket layouts.
    ///
    /// # Examples
    ///
    /// ```
    /// use cenju4_obs::{CounterKey, MetricsRegistry, SpanClass};
    ///
    /// let mut a = MetricsRegistry::new();
    /// a.incr(CounterKey::FabricSends);
    /// a.record_latency(SpanClass::LoadMiss, 2_620);
    /// let mut b = MetricsRegistry::new();
    /// b.add(CounterKey::FabricSends, 2);
    /// b.record_latency(SpanClass::LoadMiss, 3_135);
    /// a.merge(&b);
    /// assert_eq!(a.counter("fabric.sends"), 3);
    /// assert_eq!(a.latency_summary("load-miss").unwrap().count, 2);
    /// ```
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (mine, theirs) in self.histograms.iter_mut().zip(&other.histograms) {
            match (mine.as_mut(), theirs) {
                (Some(mine), Some(h)) => mine.merge(h),
                (None, Some(h)) if h.count() > 0 => *mine = Some(h.clone()),
                _ => {}
            }
        }
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters) {
            *mine += theirs;
        }
        self.touched |= other.touched;
    }

    /// Raw bucket counts of every histogram, concatenated in key order —
    /// the exact-equality payload of the sweep-thread-invariance test.
    pub fn bucket_fingerprint(&self) -> Vec<(String, Vec<u64>)> {
        self.histograms()
            .map(|(k, h)| (k.to_string(), h.buckets().to_vec()))
            .collect()
    }
}

/// Serializes one [`HistogramSummary`] as the canonical JSON object every
/// exporter embeds — [`MetricsRegistry::to_json`] here, and the
/// `cenju4-serve` simulate responses. Field order is fixed so equal
/// summaries serialize byte-identically.
pub fn summary_to_json(s: &HistogramSummary) -> String {
    format!(
        "{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        s.count, s.p50, s.p90, s.p99, s.max
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("phase.retry"), 0);
        assert_eq!(m.counter("never"), 0);
        m.incr(CounterKey::PhaseRetry);
        m.add(CounterKey::PhaseRetry, 9);
        assert_eq!(m.counter("phase.retry"), 10);
    }

    #[test]
    fn keys_are_declared_in_sorted_name_order() {
        let names: Vec<&str> = CounterKey::ALL.iter().map(|k| k.name()).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        for (i, k) in CounterKey::ALL.into_iter().enumerate() {
            assert_eq!(k as usize, i);
        }
        let labels: Vec<&str> = SpanClass::ALL.iter().map(|c| c.label()).collect();
        assert!(labels.windows(2).all(|w| w[0] < w[1]), "{labels:?}");
        for (i, c) in SpanClass::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
        }
    }

    /// A counter added with 0 prints; an untouched one does not.
    #[test]
    fn counters_print_once_touched() {
        let mut m = MetricsRegistry::new();
        m.add(CounterKey::FabricHops, 0);
        assert_eq!(m.to_text(), "counter.fabric.hops = 0\n");
        assert_eq!(m.counters().count(), 1);
        let mut n = MetricsRegistry::new();
        n.merge(&m);
        assert_eq!(n, m);
    }

    #[test]
    fn text_and_json_dumps_are_sorted_and_parse() {
        let mut m = MetricsRegistry::new();
        m.record_latency(SpanClass::StoreMiss, 3_135);
        m.record_latency(SpanClass::LoadMiss, 2_620);
        m.incr(CounterKey::SpanOpened);
        m.incr(CounterKey::FabricSends);
        let text = m.to_text();
        let load = text.find("latency.load-miss").unwrap();
        let store = text.find("latency.store-miss").unwrap();
        assert!(load < store, "classes must dump in sorted order");
        let a = text.find("counter.fabric.sends").unwrap();
        let b = text.find("counter.span.opened").unwrap();
        assert!(a < b);

        let json = crate::json::parse(&m.to_json()).unwrap();
        let lat = json.get("latency").unwrap();
        let lm = lat.get("load-miss").unwrap();
        assert_eq!(lm.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(lm.get("max").unwrap().as_u64(), Some(2_620));
        assert_eq!(
            json.get("counters")
                .unwrap()
                .get("fabric.sends")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    /// A copy from a registry with no sample of a class keeps the
    /// destination's histogram for reuse, emptied: the copy reads, dumps
    /// and compares like its source, and the next sample lands in the
    /// kept buffer.
    #[test]
    fn a_copy_keeps_an_emptied_histogram_that_reads_as_absent() {
        let mut dst = MetricsRegistry::new();
        dst.record_latency(SpanClass::LoadMiss, 2_620);
        dst.record_latency(SpanClass::StoreMiss, 3_135);
        let mut src = MetricsRegistry::new();
        src.record_latency(SpanClass::StoreMiss, 1_000);
        src.incr(CounterKey::SpanOpened);
        let kept = dst.histograms[SpanClass::LoadMiss as usize]
            .as_ref()
            .map(|h| h.buckets().as_ptr());
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(src, dst);
        assert_eq!(dst, src.clone());
        assert!(dst.latency("load-miss").is_none());
        assert_eq!(dst.histograms().count(), 1);
        assert_eq!(dst.to_text(), src.to_text());
        assert_eq!(dst.to_json(), src.to_json());
        assert_eq!(dst.bucket_fingerprint(), src.bucket_fingerprint());
        let mut merged = MetricsRegistry::new();
        merged.merge(&dst);
        assert_eq!(merged, src);

        dst.record_latency(SpanClass::LoadMiss, 500);
        src.record_latency(SpanClass::LoadMiss, 500);
        assert_eq!(dst, src);
        assert_eq!(dst.latency_summary("load-miss").unwrap().count, 1);
        let reused = dst.histograms[SpanClass::LoadMiss as usize]
            .as_ref()
            .map(|h| h.buckets().as_ptr());
        assert_eq!(reused, kept, "the emptied histogram was reallocated");
    }

    #[test]
    fn latency_summary_reports_quantiles() {
        let mut m = MetricsRegistry::new();
        for ns in [1_000u64, 2_000, 3_000, 100_000] {
            m.record_latency(SpanClass::Upgrade, ns);
        }
        let s = m.latency_summary("upgrade").unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.max, 100_000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(m.latency_summary("not-a-class").is_none());
    }
}
