//! Parallel parameter sweeps with deterministic result ordering.
//!
//! The paper's figures are sweeps over independent parameter points —
//! sharer counts (Figure 10), machine sizes (Figure 12, Table 2), node-map
//! schemes (Figure 4). Each point builds its own engine, so the points are
//! embarrassingly parallel; this module fans them out over `std::thread`
//! workers while keeping the result vector in point order, so a sweep's
//! output is **bit-identical** whether it runs on one thread or many.
//!
//! The worker count defaults to the machine's available parallelism and
//! can be pinned with the `CENJU4_SWEEP_THREADS` environment variable
//! (useful for determinism checks and constrained CI runners).
//!
//! # Examples
//!
//! Measure Figure 10's store latencies at several sharer counts in
//! parallel:
//!
//! ```
//! use cenju4_sim::{probes, sweep::sweep, SystemConfig};
//!
//! let cfg = SystemConfig::builder(16).build()?;
//! let ks = [2u16, 4, 8];
//! let lats = sweep(&ks, |&k| probes::store_latency(&cfg, k));
//! assert_eq!(lats.len(), 3);
//! assert!(lats[2] > lats[0]); // more sharers, longer store
//! # Ok::<(), cenju4_sim::ConfigError>(())
//! ```

use cenju4_obs::MetricsRegistry;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// One evaluated sweep point: the point's label, the measured value, and
/// the observability metrics collected while measuring it.
///
/// Produced by [`sweep_metrics`]; the metrics column makes a figure
/// sweep self-describing — each point carries its own latency
/// histograms and counters instead of a bare number.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint<R> {
    /// The parameter point, rendered with its `Display` impl.
    pub label: String,
    /// The measured value at this point.
    pub value: R,
    /// Histograms and counters collected while evaluating the point.
    pub metrics: MetricsRegistry,
}

impl<R: fmt::Display> SweepPoint<R> {
    /// One table row: `label value  <class> p50=… p99=…` for each class
    /// that recorded latency samples.
    pub fn row(&self) -> String {
        let mut out = format!("{:>8}  {}", self.label, self.value);
        for (class, h) in self.metrics.histograms() {
            let s = h.summary();
            out.push_str(&format!(
                "  {class}[n={} p50={} p99={} max={}]",
                s.count, s.p50, s.p99, s.max
            ));
        }
        out
    }
}

/// Like [`sweep`], for measurements that also produce metrics: `f`
/// returns `(value, metrics)` and each result is wrapped in a labeled
/// [`SweepPoint`]. Results are in point order and bit-identical at any
/// worker count, metrics included — the registry iterates sorted, and
/// each point's engine is private to its worker.
pub fn sweep_metrics<P, R, F>(points: &[P], f: F) -> Vec<SweepPoint<R>>
where
    P: Sync + fmt::Display,
    R: Send,
    F: Fn(&P) -> (R, MetricsRegistry) + Sync,
{
    sweep_metrics_on(default_threads(), points, f)
}

/// Like [`sweep_metrics`] with an explicit worker count.
pub fn sweep_metrics_on<P, R, F>(threads: usize, points: &[P], f: F) -> Vec<SweepPoint<R>>
where
    P: Sync + fmt::Display,
    R: Send,
    F: Fn(&P) -> (R, MetricsRegistry) + Sync,
{
    sweep_on(threads, points, |p| {
        let (value, metrics) = f(p);
        SweepPoint {
            label: p.to_string(),
            value,
            metrics,
        }
    })
}

/// The worker count used by [`sweep`]: the `CENJU4_SWEEP_THREADS`
/// environment variable if set (minimum 1), otherwise the machine's
/// available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("CENJU4_SWEEP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Evaluates `f` at every point of `points` on [`default_threads`] workers
/// and returns the results **in point order**.
///
/// Equivalent to `points.iter().map(f).collect()` — including panics,
/// which propagate to the caller — but wall-clock time scales down with
/// the worker count when the points are expensive.
pub fn sweep<P, R, F>(points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    sweep_on(default_threads(), points, f)
}

/// Like [`sweep`] with an explicit worker count.
///
/// `threads == 1` runs inline on the calling thread. Results are slotted
/// by point index, so the returned vector does not depend on scheduling.
pub fn sweep_on<P, R, F>(threads: usize, points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let threads = threads.max(1).min(points.len());
    if threads <= 1 {
        return points.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = points.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= points.len() {
                    break;
                }
                let r = f(&points[i]);
                *slots[i].lock().expect("sweep slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep slot poisoned")
                .expect("every sweep slot is filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_point_order() {
        let points: Vec<u64> = (0..100).collect();
        let out = sweep_on(8, &points, |&p| p * p);
        assert_eq!(out, points.iter().map(|&p| p * p).collect::<Vec<_>>());
    }

    #[test]
    fn one_thread_equals_many() {
        let points: Vec<u32> = (0..37).collect();
        let f = |&p: &u32| (0..=p).sum::<u32>();
        assert_eq!(sweep_on(1, &points, f), sweep_on(5, &points, f));
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let none: Vec<u8> = vec![];
        assert!(sweep_on(4, &none, |&p| p).is_empty());
        assert_eq!(sweep_on(4, &[7u8], |&p| p + 1), vec![8]);
    }

    #[test]
    fn results_may_be_fallible() {
        let points = [1u16, 0, 3];
        let out: Vec<Result<u16, &str>> =
            sweep_on(2, &points, |&p| if p == 0 { Err("zero") } else { Ok(p) });
        assert_eq!(out, vec![Ok(1), Err("zero"), Ok(3)]);
    }

    #[test]
    fn metrics_column_is_thread_invariant() {
        let points: Vec<u64> = (1..=8).collect();
        let f = |&p: &u64| {
            let mut m = MetricsRegistry::new();
            for i in 0..p {
                m.record_latency("probe", 500 * (i + 1));
            }
            m.add("ops", p);
            (p * 10, m)
        };
        let serial = sweep_metrics_on(1, &points, f);
        let parallel = sweep_metrics_on(4, &points, f);
        assert_eq!(serial, parallel);
        assert_eq!(serial[2].label, "3");
        assert_eq!(serial[2].value, 30);
        assert_eq!(serial[2].metrics.counter("ops"), 3);
        assert!(serial[2].row().contains("probe[n=3"));
    }
}
