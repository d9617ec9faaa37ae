//! Counters, gauges, and log2-bucketed histograms with an associative,
//! commutative `merge` — the property that lets metrics recorded apart
//! (per query backend, per cached machine) be combined in any grouping
//! without changing the totals.

use std::collections::BTreeMap;
use std::fmt;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)` — 65 buckets cover `u64`.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, work units, …).
///
/// Exact `count`/`sum`/`min`/`max` ride alongside the buckets, so means
/// are exact and only percentiles are approximate (to the bucket upper
/// bound). [`merge`](Histogram::merge) is associative and commutative
/// with the empty histogram as identity — each field merges by plain
/// addition or min/max.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    /// `u64::MAX` when empty: the identity element for `min`.
    min: u64,
    /// `0` when empty: the identity element for `max`.
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive `[lo, hi]` value range of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= HIST_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HIST_BUCKETS);
        if i == 0 {
            (0, 0)
        } else if i == HIST_BUCKETS - 1 {
            (1 << (i - 1), u64::MAX)
        } else {
            (1 << (i - 1), (1 << i) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in bucket `i` (0 when out of range).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Approximate `p`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// first bucket at which the cumulative count reaches `p · count`,
    /// clamped to the observed `max`. Returns 0 when empty.
    pub fn approx_quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Merges `other` into `self`. Associative, commutative, identity =
    /// empty histogram.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "(empty)");
        }
        write!(
            f,
            "n={} mean={:.1} min={} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.min,
            self.approx_quantile(0.50),
            self.approx_quantile(0.99),
            self.max,
        )
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// Keys are stored in `BTreeMap`s so iteration — and therefore every
/// exporter — is deterministic. [`merge`](MetricRegistry::merge)
/// combines per-worker registries: counters add, gauges take the
/// maximum (the only idempotent/associative choice that needs no
/// timestamps), histograms merge bucket-wise. All three are associative
/// and commutative with the empty registry as identity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `by` to the monotonic counter `name` (creating it at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_owned(), by);
        }
    }

    /// Sets gauge `name` to `v`. Merging gauges takes the maximum.
    pub fn set_gauge(&mut self, name: &str, v: u64) {
        self.gauges.insert(name.to_owned(), v);
    }

    /// Records a sample into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, v: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(v);
        } else {
            let mut h = Histogram::new();
            h.record(v);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// Merges a whole histogram into `name` (creating it if absent).
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        if let Some(mine) = self.histograms.get_mut(name) {
            mine.merge(h);
        } else {
            self.histograms.insert(name.to_owned(), *h);
        }
    }

    /// Current value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges `other` into `self`: counters add, gauges max, histograms
    /// merge. Associative and commutative; identity = empty registry.
    pub fn merge(&mut self, other: &MetricRegistry) {
        for (k, &v) in &other.counters {
            self.inc(k, v);
        }
        for (k, &v) in &other.gauges {
            let cur = self.gauges.get(k).copied().unwrap_or(0);
            self.gauges.insert(k.clone(), cur.max(v));
        }
        for (k, h) in &other.histograms {
            self.merge_histogram(k, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
            assert!(lo <= hi);
        }
    }

    #[test]
    fn record_tracks_exact_stats() {
        let mut h = Histogram::new();
        for v in [5u64, 0, 17, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 27);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(17));
        assert!((h.mean() - 6.75).abs() < 1e-12);
        assert_eq!(h.bucket(0), 1); // the 0
        assert_eq!(h.bucket(3), 2); // the two 5s in [4,8)
        assert_eq!(h.bucket(5), 1); // 17 in [16,32)
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds_clamped_to_max() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1000);
        assert_eq!(h.approx_quantile(0.5), 15); // [8,16) upper bound
        assert_eq!(h.approx_quantile(1.0), 1000); // clamped to max
        assert_eq!(Histogram::new().approx_quantile(0.5), 0);
    }

    #[test]
    fn empty_histogram_is_merge_identity() {
        let mut h = Histogram::new();
        h.record(42);
        let mut left = h;
        left.merge(&Histogram::new());
        let mut right = Histogram::new();
        right.merge(&h);
        assert_eq!(left, h);
        assert_eq!(right, h);
    }

    #[test]
    fn registry_merge_counters_add_gauges_max_histograms_merge() {
        let mut a = MetricRegistry::new();
        a.inc("c", 2);
        a.set_gauge("g", 7);
        a.observe("h", 1);
        let mut b = MetricRegistry::new();
        b.inc("c", 3);
        b.inc("only_b", 1);
        b.set_gauge("g", 5);
        b.observe("h", 9);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.gauge("g"), Some(7));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h").unwrap().sum(), 10);
    }

    #[test]
    fn iteration_is_sorted_by_name() {
        let mut r = MetricRegistry::new();
        r.inc("zeta", 1);
        r.inc("alpha", 1);
        r.inc("mid", 1);
        let names: Vec<&str> = r.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
