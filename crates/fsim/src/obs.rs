//! Observability primitives: a metrics registry and time-weighted
//! timelines.
//!
//! [`Metrics`] is a small named registry of counters, gauges, and value
//! distributions (backed by [`Summary`] from [`crate::stats`]).
//! [`Timeline`] records a step function of some quantity against
//! [`SimTime`] — CLB occupancy, free-fragment count, ready-queue depth —
//! storing only value *changes* so long steady states cost one point.
//!
//! Both containers iterate in deterministic (sorted-by-name) order so that
//! exported reports are byte-stable across runs.

use crate::stats::Summary;
use crate::time::SimTime;
use std::collections::BTreeMap;

/// A named registry of counters, gauges, and distributions.
///
/// Names are `&'static str` by design: metric names are part of the code,
/// not data, and static names keep recording allocation-free.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    summaries: BTreeMap<&'static str, Summary>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `by` to the named counter (created at zero on first use).
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Read a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set the named gauge to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Read a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record `value` into the named streaming summary.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.summaries.entry(name).or_default().add(value);
    }

    /// Read a summary, if any values were observed.
    pub fn summary(&self, name: &str) -> Option<&Summary> {
        self.summaries.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All summaries in name order.
    pub fn summaries(&self) -> impl Iterator<Item = (&'static str, &Summary)> + '_ {
        self.summaries.iter().map(|(&k, v)| (k, v))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.summaries.is_empty()
    }

    /// Fold another registry into this one: counters add, gauges take the
    /// other's value, summaries merge.
    pub fn absorb(&mut self, other: &Metrics) {
        for (k, v) in other.counters() {
            self.inc(k, v);
        }
        for (k, v) in other.gauges() {
            self.set_gauge(k, v);
        }
        for (k, s) in other.summaries() {
            self.summaries.entry(k).or_default().merge(s);
        }
    }
}

/// A step function of a quantity over simulated time, stored as value
/// changes.
///
/// Sampling the same value twice in a row is free (deduplicated); sampling
/// at the same instant overwrites the previous point at that instant, so
/// a burst of changes within one event collapses to its final value.
/// Timestamps must be nondecreasing.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Timeline {
    points: Vec<(SimTime, f64)>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Record the quantity's value at `at`.
    ///
    /// # Panics
    /// If `at` precedes the last recorded timestamp.
    pub fn sample(&mut self, at: SimTime, value: f64) {
        if let Some(&mut (last_at, ref mut last_v)) = self.points.last_mut() {
            assert!(at >= last_at, "timeline samples must be time-ordered");
            if at == last_at {
                *last_v = value;
                self.dedup_tail();
                return;
            }
            if *last_v == value {
                return; // step function: value unchanged, no new point
            }
        }
        self.points.push((at, value));
    }

    /// After overwriting the tail in place, drop it if it now repeats the
    /// previous value.
    fn dedup_tail(&mut self) {
        if self.points.len() >= 2 {
            let n = self.points.len();
            if self.points[n - 1].1 == self.points[n - 2].1 {
                self.points.pop();
            }
        }
    }

    /// The recorded change points, time-ordered.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of change points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest sampled value (or 0.0 if empty).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }
}

/// A named collection of [`Timeline`]s, iterated in name order.
#[derive(Debug, Default, Clone)]
pub struct TimelineSet {
    series: BTreeMap<&'static str, Timeline>,
}

impl TimelineSet {
    /// An empty set.
    pub fn new() -> Self {
        TimelineSet::default()
    }

    /// Sample the named series (created empty on first use).
    pub fn sample(&mut self, name: &'static str, at: SimTime, value: f64) {
        self.series.entry(name).or_default().sample(at, value);
    }

    /// Look up a series by name.
    pub fn get(&self, name: &str) -> Option<&Timeline> {
        self.series.get(name)
    }

    /// All series in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Timeline)> + '_ {
        self.series.iter().map(|(&k, v)| (k, v))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether no series exist.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_zero() {
        let mut m = Metrics::new();
        m.inc("downloads", 2);
        m.inc("downloads", 3);
        assert_eq!(m.counter("downloads"), 5);
        assert_eq!(m.counter("never"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut m = Metrics::new();
        m.set_gauge("occupancy", 0.5);
        m.set_gauge("occupancy", 0.75);
        assert_eq!(m.gauge("occupancy"), Some(0.75));
        assert_eq!(m.gauge("never"), None);
    }

    #[test]
    fn summaries_record() {
        let mut m = Metrics::new();
        for v in [1.0, 2.0, 3.0] {
            m.observe("lat", v);
        }
        let s = m.summary("lat").unwrap();
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn iteration_is_name_sorted() {
        let mut m = Metrics::new();
        m.inc("zeta", 1);
        m.inc("alpha", 1);
        m.inc("mid", 1);
        let names: Vec<_> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn absorb_merges() {
        let mut a = Metrics::new();
        a.inc("x", 1);
        a.observe("s", 1.0);
        let mut b = Metrics::new();
        b.inc("x", 2);
        b.inc("y", 5);
        b.observe("s", 3.0);
        b.set_gauge("g", 9.0);
        a.absorb(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
        assert_eq!(a.summary("s").unwrap().count(), 2);
        assert_eq!(a.gauge("g"), Some(9.0));
    }

    #[test]
    fn snapshot_order_is_independent_of_registration_order() {
        // Two registries fed the same data in different registration orders
        // must render identical snapshots — the exporter iterates these
        // directly into JSON, so any order sensitivity would break
        // byte-identical exports across code paths.
        let mut fwd = Metrics::new();
        let mut rev = Metrics::new();
        let names = ["zeta", "alpha", "mid", "beta"];
        for n in names {
            fwd.inc(n, 1);
            fwd.observe(n, 2.0);
        }
        for n in names.iter().rev() {
            rev.inc(n, 1);
            rev.observe(n, 2.0);
        }
        let f: Vec<_> = fwd.counters().collect();
        let r: Vec<_> = rev.counters().collect();
        assert_eq!(f, r);
        assert!(f.windows(2).all(|w| w[0].0 < w[1].0), "sorted: {f:?}");
        let fs: Vec<_> = fwd.summaries().map(|(k, _)| k).collect();
        let rs: Vec<_> = rev.summaries().map(|(k, _)| k).collect();
        assert_eq!(fs, rs);
        assert_eq!(fs, vec!["alpha", "beta", "mid", "zeta"]);
    }

    #[test]
    fn timeline_dedups_unchanged_values() {
        let mut t = Timeline::new();
        t.sample(SimTime(0), 1.0);
        t.sample(SimTime(10), 1.0); // no change -> no point
        t.sample(SimTime(20), 2.0);
        assert_eq!(t.points(), &[(SimTime(0), 1.0), (SimTime(20), 2.0)]);
    }

    #[test]
    fn timeline_same_instant_overwrites() {
        let mut t = Timeline::new();
        t.sample(SimTime(0), 1.0);
        t.sample(SimTime(5), 2.0);
        t.sample(SimTime(5), 3.0);
        assert_eq!(t.points(), &[(SimTime(0), 1.0), (SimTime(5), 3.0)]);
        // Overwriting back to the previous value collapses the point.
        t.sample(SimTime(5), 1.0);
        assert_eq!(t.points(), &[(SimTime(0), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn timeline_rejects_time_travel() {
        let mut t = Timeline::new();
        t.sample(SimTime(10), 1.0);
        t.sample(SimTime(5), 2.0);
    }

    #[test]
    fn timeline_set_is_name_sorted() {
        let mut s = TimelineSet::new();
        s.sample("z", SimTime(0), 1.0);
        s.sample("a", SimTime(0), 2.0);
        let names: Vec<_> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert_eq!(s.get("z").unwrap().points().len(), 1);
        assert_eq!(s.len(), 2);
    }
}
