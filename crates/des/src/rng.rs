//! A small deterministic pseudo-random number generator.
//!
//! Workload generators and Monte-Carlo analyses need reproducible random
//! streams that do not depend on platform or crate-version details, so the
//! kernel ships its own [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//! implementation instead of relying on `rand`'s default engines.

/// The SplitMix64 generator: 64 bits of state, full period 2⁶⁴.
///
/// # Examples
///
/// ```
/// use cenju4_des::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed, including zero, is valid.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        crate::hash::mix64(self.state)
    }

    /// Returns a uniformly random integer in `[0, bound)` using Lemire's
    /// multiply-shift rejection method (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly random `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Selects `k` distinct values from `[0, n)` via a partial
    /// Fisher-Yates shuffle, returned in selection order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: u64, k: usize) -> Vec<u64> {
        assert!(k as u64 <= n, "cannot sample {k} from {n}");
        // For small k relative to n, rejection sampling beats materializing
        // the whole range.
        if (k as u64) * 8 <= n {
            let mut seen = std::collections::HashSet::with_capacity(k);
            let mut out = Vec::with_capacity(k);
            while out.len() < k {
                let v = self.next_below(n);
                if seen.insert(v) {
                    out.push(v);
                }
            }
            out
        } else {
            let mut pool: Vec<u64> = (0..n).collect();
            let mut out = Vec::with_capacity(k);
            for i in 0..k {
                let j = i as u64 + self.next_below(n - i as u64);
                pool.swap(i, j as usize);
                out.push(pool[i]);
            }
            out
        }
    }

    /// Shuffles a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(3);
        for bound in [1u64, 2, 3, 7, 100, 1024] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_range() {
        let mut rng = SplitMix64::new(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut rng = SplitMix64::new(9);
        for &(n, k) in &[(10u64, 10usize), (1024, 5), (1024, 900), (128, 64)] {
            let s = rng.sample_distinct(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k);
            assert!(s.iter().all(|&v| v < n));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(13);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(17);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn mean_is_roughly_uniform() {
        let mut rng = SplitMix64::new(21);
        let n = 10_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }
}
