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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

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
}
