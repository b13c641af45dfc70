//! Streaming statistics for experiment reporting.
//!
//! [`Summary`] accumulates count/mean/variance/min/max in O(1) space using
//! Welford's online algorithm; [`LogHistogram`] buckets nanosecond latencies
//! by bit length for percentile estimates. The experiment harness
//! aggregates every reported metric (wait time, overhead fraction,
//! utilization, …) through these types.

use std::fmt;

/// Online mean/variance/min/max accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another summary into this one (parallel Welford combination).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.n,
            self.mean(),
            self.stddev(),
            self.min(),
            self.max()
        )
    }
}

/// Number of buckets in a [`LogHistogram`]: bucket `i` (for `i ≥ 1`) holds
/// values in `[2^(i-1), 2^i)`; bucket 0 holds exactly the value 0.
pub const LOG_BUCKETS: usize = 65;

/// A log-bucketed histogram over unsigned nanosecond latencies.
///
/// The bucket of a value is a pure function of the value (its bit length),
/// so merging two histograms is bucket-wise addition — commutative and
/// associative. Merging per-shard histograms therefore yields the same
/// bytes in any merge order, which is what lets a fleet report tail
/// latencies that do not depend on the order its shards finish. Exact count, sum, min, and max ride along; quantiles are
/// estimated by linear interpolation inside the containing bucket using
/// integer arithmetic only, so the reported values are deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; LOG_BUCKETS],
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: [0; LOG_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Lower bound of bucket `i` (inclusive).
    fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Upper bound of bucket `i` (exclusive; saturates at `u64::MAX`).
    fn bucket_hi(i: usize) -> u64 {
        if i == 0 {
            1
        } else if i >= 64 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Record one latency sample, in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.sum += u128::from(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Fold another histogram into this one. Commutative and associative:
    /// any merge order produces identical bytes.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact smallest sample (0 if empty).
    pub fn min_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample (0 if empty).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Mean sample (integer division; 0 if empty).
    pub fn mean_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum / u128::from(self.total)) as u64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0,1]`) in nanoseconds using
    /// integer interpolation inside the containing bucket, clamped to the
    /// exact observed `[min, max]`. Returns 0 if empty.
    ///
    /// # Panics
    /// If `q` is outside `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based: ceil(q * total), at least 1.
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lo = Self::bucket_lo(i);
                let hi = Self::bucket_hi(i);
                let into = target - seen; // 1..=c
                let est = lo + (u128::from(hi - lo) * u128::from(into - 1) / u128::from(c)) as u64;
                return est.clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Bucket counts (read-only view, mainly for tests).
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }
}

/// A named, sorted collection of [`LogHistogram`]s.
///
/// Keys are owned strings so callers can label phases per tenant
/// (`"download@t3"`); iteration is in key order, making any rendering
/// byte-stable regardless of recording or merge order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSet {
    map: std::collections::BTreeMap<String, LogHistogram>,
}

impl HistSet {
    /// An empty set.
    pub fn new() -> Self {
        HistSet::default()
    }

    /// Record one sample into the named histogram (created on first use).
    pub fn record(&mut self, name: &str, ns: u64) {
        if let Some(h) = self.map.get_mut(name) {
            h.record(ns);
        } else {
            let mut h = LogHistogram::new();
            h.record(ns);
            self.map.insert(name.to_string(), h);
        }
    }

    /// Fold another set into this one, histogram by histogram. Any merge
    /// order produces identical bytes (see [`LogHistogram::merge`]).
    pub fn merge(&mut self, other: &HistSet) {
        for (k, h) in &other.map {
            if let Some(mine) = self.map.get_mut(k) {
                mine.merge(h);
            } else {
                self.map.insert(k.clone(), h.clone());
            }
        }
    }

    /// Look up a histogram by name.
    pub fn get(&self, name: &str) -> Option<&LogHistogram> {
        self.map.get(name)
    }

    /// All histograms in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &LogHistogram)> + '_ {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of named histograms.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no histograms exist.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.sum() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &xs[..37] {
            left.add(x);
        }
        for &x in &xs[37..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::new();
        a.add(5.0);
        let before = a.clone();
        a.merge(&Summary::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e.count(), 1);
        assert_eq!(e.mean(), 5.0);
    }

    #[test]
    fn log_histogram_buckets_by_bit_length() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.buckets()[0], 1); // value 0
        assert_eq!(h.buckets()[1], 1); // value 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 2); // 4, 7
        assert_eq!(h.buckets()[4], 1); // 8
        assert_eq!(h.buckets()[11], 1); // 1024
        assert_eq!(h.buckets()[64], 1); // u64::MAX
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), u64::MAX);
    }

    #[test]
    fn log_histogram_quantiles_are_ordered_and_clamped() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile_ns(0.50);
        let p90 = h.quantile_ns(0.90);
        let p99 = h.quantile_ns(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 <= h.max_ns());
        assert!(h.quantile_ns(0.0) >= h.min_ns());
        assert_eq!(h.quantile_ns(1.0), h.max_ns());
        // The median of 1..=1000 is near 500; the log-bucket estimate is
        // coarse but must land in the right bucket [512, 1024).
        assert!((256..=1000).contains(&p50), "median estimate {p50}");
        assert_eq!(h.mean_ns(), 500);
    }

    #[test]
    fn log_histogram_empty_is_zeroes() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn log_histogram_merge_is_order_insensitive() {
        // The property the parallel sweep engine rests on: merging
        // per-thread histograms in any order equals single-threaded
        // accumulation, byte for byte.
        let values: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9E3779B9) >> 13)
            .collect();
        let mut whole = LogHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        let chunks: Vec<LogHistogram> = values
            .chunks(37)
            .map(|c| {
                let mut h = LogHistogram::new();
                for &v in c {
                    h.record(v);
                }
                h
            })
            .collect();
        // Forward order.
        let mut fwd = LogHistogram::new();
        for c in &chunks {
            fwd.merge(c);
        }
        // Reverse order.
        let mut rev = LogHistogram::new();
        for c in chunks.iter().rev() {
            rev.merge(c);
        }
        assert_eq!(fwd, whole);
        assert_eq!(rev, whole);
        assert_eq!(fwd.quantile_ns(0.99), whole.quantile_ns(0.99));
    }

    #[test]
    fn hist_set_records_merges_and_sorts() {
        let mut a = HistSet::new();
        a.record("zeta", 10);
        a.record("alpha", 20);
        let mut b = HistSet::new();
        b.record("zeta", 30);
        b.record("mid", 40);
        a.merge(&b);
        let names: Vec<_> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(a.get("zeta").unwrap().count(), 2);
        assert_eq!(a.get("mid").unwrap().count(), 1);
        assert_eq!(a.len(), 3);
    }
}
