//! A registry of named latency histograms and counters.
//!
//! `BTreeMap`-backed so every dump iterates in sorted key order — the
//! text and JSON exports are deterministic across runs and sweep thread
//! counts, which the determinism tests rely on. Keys are `&'static str`:
//! every class and counter name is a literal chosen at the call site, so
//! recording a sample or bumping a counter never allocates or formats.

use cenju4_des::{Histogram, HistogramSummary};
use std::collections::BTreeMap;

/// Bucket width of the per-class latency histograms. Pinned store
/// latencies on the paper's configurations run 2.6–3.5 µs, so 250 ns
/// buckets resolve p50/p90/p99 without a huge table.
pub const LATENCY_BUCKET_NS: u64 = 250;

/// Bucket count: covers 0–32 µs before the overflow bucket, comfortably
/// past the worst queued-under-contention latencies the checker explores.
pub const LATENCY_BUCKETS: usize = 128;

/// Named per-class latency [`Histogram`]s plus flat `u64` counters,
/// accumulated by a [`crate::SpanCollector`] and dumped as text or JSON.
///
/// # Examples
///
/// ```
/// use cenju4_obs::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.incr("fabric.sends");
/// m.add("fabric.hops", 4);
/// m.record_latency("load-miss", 2_620);
/// assert_eq!(m.counter("fabric.hops"), 4);
/// assert_eq!(m.latency_summary("load-miss").unwrap().count, 1);
/// assert!(m.to_text().contains("load-miss"));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    histograms: BTreeMap<&'static str, Histogram>,
    counters: BTreeMap<&'static str, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds one latency sample to the named class histogram.
    pub fn record_latency(&mut self, class: &'static str, ns: u64) {
        self.histograms
            .entry(class)
            .or_insert_with(|| Histogram::new(LATENCY_BUCKET_NS, LATENCY_BUCKETS))
            .record(ns);
    }

    /// Increments a counter by one.
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counters.entry(key).or_default() += n;
    }

    /// The current value of a counter (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The latency histogram for a class, if any sample was recorded.
    pub fn latency(&self, class: &str) -> Option<&Histogram> {
        self.histograms.get(class)
    }

    /// The count/p50/p90/p99/max summary for a class.
    pub fn latency_summary(&self, class: &str) -> Option<HistogramSummary> {
        self.histograms.get(class).map(Histogram::summary)
    }

    /// All counters, in sorted key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms, in sorted key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// A flat, sorted, line-oriented text dump:
    /// `latency.<class> count=… p50=… p90=… p99=… max=…` then
    /// `counter.<key> = …`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (class, h) in &self.histograms {
            let s = h.summary();
            out.push_str(&format!(
                "latency.{class} count={} p50={} p90={} p99={} max={}\n",
                s.count, s.p50, s.p90, s.p99, s.max
            ));
        }
        for (key, v) in &self.counters {
            out.push_str(&format!("counter.{key} = {v}\n"));
        }
        out
    }

    /// The same dump as a JSON object:
    /// `{"latency":{"<class>":{"count":…,…}},"counters":{"<key>":…}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"latency\":{");
        for (i, (class, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{class}\":{}", summary_to_json(&h.summary())));
        }
        out.push_str("},\"counters\":{");
        for (i, (key, v)) in self.counters.iter().enumerate() {
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
    /// use cenju4_obs::MetricsRegistry;
    ///
    /// let mut a = MetricsRegistry::new();
    /// a.incr("fabric.sends");
    /// a.record_latency("load-miss", 2_620);
    /// let mut b = MetricsRegistry::new();
    /// b.add("fabric.sends", 2);
    /// b.record_latency("load-miss", 3_135);
    /// a.merge(&b);
    /// assert_eq!(a.counter("fabric.sends"), 3);
    /// assert_eq!(a.latency_summary("load-miss").unwrap().count, 2);
    /// ```
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (&class, h) in &other.histograms {
            match self.histograms.get_mut(class) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(class, h.clone());
                }
            }
        }
        for (&key, &v) in &other.counters {
            self.add(key, v);
        }
    }

    /// Raw bucket counts of every histogram, concatenated in key order —
    /// the exact-equality payload of the sweep-thread-invariance test.
    pub fn bucket_fingerprint(&self) -> Vec<(String, Vec<u64>)> {
        self.histograms
            .iter()
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
        assert_eq!(m.counter("never"), 0);
        m.incr("x");
        m.add("x", 9);
        assert_eq!(m.counter("x"), 10);
    }

    #[test]
    fn text_and_json_dumps_are_sorted_and_parse() {
        let mut m = MetricsRegistry::new();
        m.record_latency("store-miss", 3_135);
        m.record_latency("load-miss", 2_620);
        m.incr("b");
        m.incr("a");
        let text = m.to_text();
        let load = text.find("latency.load-miss").unwrap();
        let store = text.find("latency.store-miss").unwrap();
        assert!(load < store, "classes must dump in sorted order");
        let a = text.find("counter.a").unwrap();
        let b = text.find("counter.b").unwrap();
        assert!(a < b);

        let json = crate::json::parse(&m.to_json()).unwrap();
        let lat = json.get("latency").unwrap();
        let lm = lat.get("load-miss").unwrap();
        assert_eq!(lm.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(lm.get("max").unwrap().as_u64(), Some(2_620));
        assert_eq!(
            json.get("counters").unwrap().get("a").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn latency_summary_reports_quantiles() {
        let mut m = MetricsRegistry::new();
        for ns in [1_000u64, 2_000, 3_000, 100_000] {
            m.record_latency("upgrade", ns);
        }
        let s = m.latency_summary("upgrade").unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.max, 100_000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
    }
}
