//! Order statistics and the outcome digest.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact `p`-quantile (nearest rank) of an ascending slice: the smallest
/// element with at least `p` of the population at or below it.
///
/// # Panics
/// Panics on an empty slice or `p` outside `(0, 1]`.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile rank {p} outside (0, 1]");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Interquartile range over the median, as the driver computes it
/// (`statistics.quantiles(values, n=4)`, exclusive method).
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (q(3) - q(1)) / median(&v)
}

/// FNV-1a over 64-bit words. The digest of a rep folds every task's
/// terminal state and completion time plus the layer counters; it is a
/// check on the simulator, not a metric, and must not depend on host time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat_all(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.eat(w);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_the_exact_nearest_rank() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&xs, 0.50), 500);
        assert_eq!(percentile_sorted(&xs, 0.99), 990);
        assert_eq!(percentile_sorted(&xs, 1.0), 1000);
        // Ten samples lie beyond p99 of a thousand.
        assert_eq!(xs.iter().filter(|&&x| x > 990).count(), 10);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        assert_eq!(percentile_sorted(&[1, 2, 3], 0.5), 2);
        assert_eq!(percentile_sorted(&[1, 2, 3, 4], 0.5), 2);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::new();
        a.eat_all([1, 2, 3]);
        let mut b = Digest::new();
        b.eat_all([1, 2, 3]);
        assert_eq!(a, b);
        // Pinned: a later change to the fold is a change to every
        // recorded `sim_digest`.
        assert_eq!(a.value(), 0xda2b_fb22_5e0d_1f05);
        let mut c = Digest::new();
        c.eat_all([3, 2, 1]);
        assert_ne!(a, c);
        assert_eq!(Digest::new().value(), 0xcbf2_9ce4_8422_2325);
    }
}
