//! Statistics helpers used throughout the simulator.

use crate::time::Duration;

/// Streaming mean / min / max / count over `f64` samples.
///
/// Accumulates plain sums (`Σx`, `Σx²`) rather than Welford's running
/// mean: `push` sits on the simulator's per-hop hot path, and the sum
/// form needs no division per sample. The sample magnitudes here (ns
/// waits, ≲2⁵³) are far below where the sum form loses accuracy.
///
/// # Examples
///
/// ```
/// use cenju4_des::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    count: u64,
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sumsq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds a duration sample, in nanoseconds.
    #[inline]
    pub fn push_duration(&mut self, d: Duration) {
        self.push(d.as_ns() as f64);
    }

    /// The number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The population variance (0 if fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            let mean = self.sum / self.count as f64;
            (self.sumsq / self.count as f64 - mean * mean).max(0.0)
        }
    }

    /// The population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The smallest sample (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// The largest sample (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-bucket latency histogram with power-of-two bucket widths.
///
/// Buckets are `[0, w)`, `[w, 2w)`, …, with the final bucket open-ended.
///
/// # Examples
///
/// ```
/// use cenju4_des::stats::Histogram;
///
/// let mut h = Histogram::new(100, 10); // 10 buckets of 100ns
/// h.record(50);
/// h.record(150);
/// h.record(10_000); // lands in the overflow bucket
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_count(0), 1);
/// assert_eq!(h.bucket_count(1), 1);
/// assert_eq!(h.bucket_count(9), 1);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Histogram {
    bucket_width: u64,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

/// The latency summary a [`Histogram`] reduces to: approximate quantiles
/// (bucket midpoints) plus the exact maximum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// The exact largest sample (0 if empty).
    pub max: u64,
}

crate::clone_fields!(Histogram {
    bucket_width,
    counts,
    total,
    sum,
    max
});

impl Histogram {
    /// Creates a histogram with `buckets` buckets of width `bucket_width`
    /// nanoseconds; the last bucket also absorbs all larger samples.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width == 0` or `buckets == 0`.
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0 && buckets > 0);
        Histogram {
            bucket_width,
            counts: vec![0; buckets],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample (nanoseconds).
    pub fn record(&mut self, ns: u64) {
        let idx = ((ns / self.bucket_width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += ns as u128;
        self.max = self.max.max(ns);
    }

    /// Forgets every sample, keeping the bucket layout and its storage.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
        self.max = 0;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The exact largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The configured bucket width in nanoseconds.
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    /// The per-bucket sample counts, in bucket order.
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Reduces the histogram to its p50/p90/p99/max summary.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.total,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }

    /// The mean of all recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The number of samples in bucket `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Merges another histogram into this one, as if every sample of
    /// `other` had been recorded here. Per-shard observers use this to
    /// combine into one registry without changing exported artifacts.
    ///
    /// # Panics
    ///
    /// Panics if the bucket layouts differ — merging histograms with
    /// different widths or bucket counts would silently misbin samples.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            (self.bucket_width, self.counts.len()),
            (other.bucket_width, other.counts.len()),
            "histogram bucket layouts differ"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// An approximate p-quantile (`0.0..=1.0`), computed from bucket
    /// midpoints. Returns 0 for an empty histogram.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((self.total as f64) * p.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return i as u64 * self.bucket_width + self.bucket_width / 2;
            }
        }
        (self.counts.len() as u64 - 1) * self.bucket_width + self.bucket_width / 2
    }
}

/// Tracks the maximum of a time-varying occupancy (e.g. buffer fill level).
///
/// The Cenju-4 deadlock-avoidance argument hinges on buffer occupancies
/// staying below their provisioned bounds; every bounded queue in the
/// simulator carries one of these.
///
/// # Examples
///
/// ```
/// use cenju4_des::stats::HighWaterMark;
///
/// let mut hwm = HighWaterMark::new();
/// hwm.add(3);
/// hwm.sub(1);
/// hwm.add(2);
/// assert_eq!(hwm.current(), 4);
/// assert_eq!(hwm.peak(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct HighWaterMark {
    current: u64,
    peak: u64,
}

impl HighWaterMark {
    /// Creates a tracker at zero.
    pub fn new() -> Self {
        HighWaterMark::default()
    }

    /// Increases the occupancy by `n`.
    pub fn add(&mut self, n: u64) {
        self.current += n;
        self.peak = self.peak.max(self.current);
    }

    /// Decreases the occupancy by `n`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if occupancy would go negative.
    pub fn sub(&mut self, n: u64) {
        debug_assert!(self.current >= n, "occupancy underflow");
        self.current = self.current.saturating_sub(n);
    }

    /// The current occupancy.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// The highest occupancy ever observed.
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

/// A monotonically increasing named counter set, used for message and
/// transaction accounting.
#[derive(Clone, Debug, Default)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        xs.iter().for_each(|&x| all.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..37].iter().for_each(|&x| a.push(x));
        xs[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 3.0);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = Histogram::new(10, 5);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(49);
        h.record(1000); // overflow -> last bucket
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(4), 2);
        assert_eq!(h.count(), 5);
        assert!((h.mean() - (0.0 + 9.0 + 10.0 + 49.0 + 1000.0) / 5.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantile_monotone() {
        let mut h = Histogram::new(100, 20);
        for i in 0..1000 {
            h.record(i);
        }
        let q10 = h.quantile(0.1);
        let q50 = h.quantile(0.5);
        let q90 = h.quantile(0.9);
        assert!(q10 <= q50 && q50 <= q90);
        assert!((400..=600).contains(&q50), "median {q50} implausible");
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let samples: Vec<u64> = (0..500).map(|i| (i * 37) % 2100).collect();
        let mut all = Histogram::new(100, 20);
        samples.iter().for_each(|&s| all.record(s));
        let mut a = Histogram::new(100, 20);
        let mut b = Histogram::new(100, 20);
        samples[..123].iter().for_each(|&s| a.record(s));
        samples[123..].iter().for_each(|&s| b.record(s));
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    #[should_panic(expected = "bucket layouts differ")]
    fn histogram_merge_rejects_mismatched_layout() {
        let mut a = Histogram::new(100, 20);
        a.merge(&Histogram::new(250, 20));
    }

    #[test]
    fn a_cleared_histogram_equals_a_new_one() {
        let mut h = Histogram::new(10, 4);
        for ns in [5, 15, 1_000] {
            h.record(ns);
        }
        h.clear();
        assert_eq!(h, Histogram::new(10, 4));
        h.record(15);
        assert_eq!((h.count(), h.bucket_count(1), h.max()), (1, 1, 15));
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let h = Histogram::new(10, 4);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn histogram_summary_tracks_exact_max() {
        let mut h = Histogram::new(100, 10);
        for i in 0..100 {
            h.record(i * 10);
        }
        h.record(123_456); // overflow bucket, but max stays exact
        let s = h.summary();
        assert_eq!(s.count, 101);
        assert_eq!(s.max, 123_456);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let h = Histogram::new(10, 4);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn high_water_mark_tracks_peak() {
        let mut hwm = HighWaterMark::new();
        hwm.add(5);
        hwm.sub(5);
        hwm.add(3);
        assert_eq!(hwm.peak(), 5);
        assert_eq!(hwm.current(), 3);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
    }
}
