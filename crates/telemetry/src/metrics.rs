//! Named counters and log-scale histograms.
//!
//! A [`Registry`] is a concurrent map from metric name to metric. Metrics
//! are plain atomics, so recording is lock-free once a handle has been
//! resolved; resolving a name takes a read lock (write lock only on first
//! use of a name). Totals are exact under any interleaving: `count` and
//! `sum` are single `fetch_add`s, never read-modify-write races.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonic event counter.
///
/// [`Counter::set`] exists for *exporters* that mirror an externally
/// accumulated total (e.g. the score cache's hit count) into a
/// registry; instrumentation sites should only ever [`Counter::add`].
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrite with an externally accumulated total.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i > 0` counts values in
/// `[2^(i-1), 2^i)`, bucket 0 counts zeros, and the last bucket absorbs
/// everything `>= 2^63`.
pub(crate) const N_BUCKETS: usize = 65;

/// A log-scale (power-of-two bucket) histogram of `u64` samples.
///
/// `count` and `sum` are exact; quantiles are approximate (resolved to the
/// upper bound of the containing bucket, clamped to the observed max).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Upper bound (inclusive) of bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Snapshot the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((count as f64) * q).ceil() as u64;
            let mut seen = 0u64;
            for (i, &b) in buckets.iter().enumerate() {
                seen += b;
                if seen >= target {
                    return bucket_bound(i).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max,
            p50: quantile(0.5),
            p90: quantile(0.9),
            p99: quantile(0.99),
        }
    }
}

/// Point-in-time view of a [`Histogram`], serialisable into artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Approximate median (bucket upper bound).
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A concurrent registry of named counters and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve (creating on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = crate::recover(self.counters.read()).get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            crate::recover(self.counters.write())
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Resolve (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = crate::recover(self.histograms.read()).get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            crate::recover(self.histograms.write())
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Snapshot every metric, sorted by name (stable output ordering).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters: Vec<(String, u64)> = crate::recover(self.counters.read())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistogramSnapshot)> =
            crate::recover(self.histograms.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        RegistrySnapshot {
            counters,
            histograms,
        }
    }

    /// Drop every metric (fresh run boundaries in long-lived processes).
    pub fn clear(&self) {
        crate::recover(self.counters.write()).clear();
        crate::recover(self.histograms.write()).clear();
    }
}

/// Point-in-time view of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Value of the named counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Snapshot of the named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").inc();
        assert_eq!(r.snapshot().counter("a"), 4);
        assert_eq!(r.snapshot().counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(3), 7);
    }

    #[test]
    fn histogram_exact_count_sum_and_sane_quantiles() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!(s.p50 >= 500 && s.p50 <= 1000, "p50 {}", s.p50);
        assert!(s.p90 >= 900, "p90 {}", s.p90);
        assert!(s.p99 <= s.max);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn all_zero_histogram_snapshot() {
        // Zero is a real sample (bucket 0), not an empty histogram: count
        // and quantiles must reflect it, min must be 0 by observation.
        let h = Histogram::default();
        for _ in 0..5 {
            h.record(0);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!((s.p50, s.p90, s.p99), (0, 0, 0));
    }

    #[test]
    fn single_sample_histogram_snapshot() {
        let h = Histogram::default();
        h.record(42);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 42);
        assert_eq!(s.min, 42);
        assert_eq!(s.max, 42);
        // Quantiles clamp to the observed max, not the bucket bound (63).
        assert_eq!((s.p50, s.p90, s.p99), (42, 42, 42));
    }

    #[test]
    fn empty_histogram_min_is_zero_not_sentinel() {
        // The internal min register starts at u64::MAX; the snapshot must
        // never leak that sentinel.
        let s = Histogram::default().snapshot();
        assert_eq!(s.min, 0);
        assert_eq!(
            (s.p50, s.p90, s.p99),
            (0, 0, 0),
            "quantiles defined at count==0"
        );
    }

    #[test]
    fn snapshot_serialization_is_insertion_order_independent() {
        // Same metrics registered in opposite orders must serialise to
        // identical bytes — artifact diffing depends on it.
        let mk = |names: &[&str]| {
            let r = Registry::new();
            for n in names {
                r.counter(n).add(n.len() as u64);
                r.histogram(&format!("h.{n}")).record(7);
            }
            serde_json::to_string(&r.snapshot()).unwrap()
        };
        assert_eq!(
            mk(&["alpha", "beta", "gamma"]),
            mk(&["gamma", "beta", "alpha"])
        );
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        r.histogram("m").record(1);
        let s = r.snapshot();
        assert_eq!(s.counters[0].0, "a");
        assert_eq!(s.counters[1].0, "z");
        assert!(s.histogram("m").is_some());
    }

    #[test]
    fn clear_empties_registry() {
        let r = Registry::new();
        r.counter("a").inc();
        r.clear();
        assert!(r.snapshot().counters.is_empty());
    }
}
