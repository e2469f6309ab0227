//! Fixed-capacity in-process time series for trend queries.
//!
//! Counters and histograms answer "how much, in total" — they cannot
//! answer "is the eval rate falling" or "how fast is tenant-b's budget
//! burning down" without end-of-run diffing. [`TimeSeriesStore`] keeps a
//! bounded ring buffer of `(tick, value)` points per named series, fed at
//! epoch boundaries by whoever owns the tick clock (the serve scheduler
//! uses `epochs_completed`). Old points fall off the front once a series
//! reaches capacity, so memory stays bounded no matter how long a job
//! runs.
//!
//! Ticks are caller-supplied logical time, never wall-clock reads — the
//! store stays deterministic when fed deterministic values.
//!
//! ```
//! let store = telemetry::TimeSeriesStore::new(4);
//! for tick in 0..6 {
//!     store.record("job-1.best_score", tick, 0.5 + tick as f64 / 100.0);
//! }
//! let points = store.get("job-1.best_score").unwrap().points();
//! assert_eq!(points.len(), 4); // capacity bounds retention
//! assert_eq!(points.first().unwrap().tick, 2); // oldest evicted first
//! ```

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

/// One observation: a logical tick (epoch number, slice number — never
/// wall-clock) and the value sampled there.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimePoint {
    /// Caller-supplied logical time.
    pub tick: u64,
    /// Sampled value.
    pub value: f64,
}

/// A single bounded ring buffer of [`TimePoint`]s.
#[derive(Debug)]
pub struct TimeSeries {
    cap: usize,
    points: Mutex<VecDeque<TimePoint>>,
}

impl TimeSeries {
    /// New empty series retaining at most `cap` points (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            points: Mutex::new(VecDeque::new()),
        }
    }

    /// Append a point, evicting the oldest if at capacity.
    pub fn push(&self, tick: u64, value: f64) {
        let mut points = crate::recover(self.points.lock());
        if points.len() == self.cap {
            points.pop_front();
        }
        points.push_back(TimePoint { tick, value });
    }

    /// All retained points, oldest first.
    pub fn points(&self) -> Vec<TimePoint> {
        crate::recover(self.points.lock()).iter().copied().collect()
    }

    /// The most recent point, if any.
    pub fn last(&self) -> Option<TimePoint> {
        crate::recover(self.points.lock()).back().copied()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        crate::recover(self.points.lock()).len()
    }

    /// True when no point has been recorded (or all were evicted — which
    /// cannot happen, eviction only makes room for a newer point).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Average change in value per tick across the retained window:
    /// `(last.value - first.value) / (last.tick - first.tick)`. `None`
    /// with fewer than two points or a zero tick span.
    pub fn rate(&self) -> Option<f64> {
        let points = crate::recover(self.points.lock());
        let (first, last) = (points.front()?, points.back()?);
        let span = last.tick.checked_sub(first.tick)?;
        if span == 0 {
            return None;
        }
        Some((last.value - first.value) / span as f64)
    }
}

/// A concurrent map of named [`TimeSeries`], all sharing one capacity.
#[derive(Debug)]
pub struct TimeSeriesStore {
    cap: usize,
    series: RwLock<HashMap<String, Arc<TimeSeries>>>,
}

impl TimeSeriesStore {
    /// New store whose series each retain at most `cap` points.
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            series: RwLock::new(HashMap::new()),
        }
    }

    /// Resolve (creating on first use) the series named `name`. Callers
    /// on a hot path can hold the returned `Arc` and push directly.
    pub fn series(&self, name: &str) -> Arc<TimeSeries> {
        if let Some(s) = crate::recover(self.series.read()).get(name) {
            return Arc::clone(s);
        }
        Arc::clone(
            crate::recover(self.series.write())
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(TimeSeries::new(self.cap))),
        )
    }

    /// Append `(tick, value)` to the series named `name`.
    pub fn record(&self, name: &str, tick: u64, value: f64) {
        self.series(name).push(tick, value);
    }

    /// The series named `name`, if it exists (does not create).
    pub fn get(&self, name: &str) -> Option<Arc<TimeSeries>> {
        crate::recover(self.series.read()).get(name).cloned()
    }

    /// All series names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = crate::recover(self.series.read()).keys().cloned().collect();
        names.sort();
        names
    }

    /// `(name, points)` for every series, sorted by name — deterministic
    /// to serialise when fed deterministic values.
    pub fn snapshot(&self) -> Vec<(String, Vec<TimePoint>)> {
        let mut out: Vec<(String, Vec<TimePoint>)> = crate::recover(self.series.read())
            .iter()
            .map(|(k, v)| (k.clone(), v.points()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Drop every series.
    pub fn clear(&self) {
        crate::recover(self.series.write()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let s = TimeSeries::new(3);
        for tick in 0..5 {
            s.push(tick, tick as f64 * 10.0);
        }
        let points = s.points();
        assert_eq!(points.len(), 3);
        assert_eq!(
            points[0],
            TimePoint {
                tick: 2,
                value: 20.0
            }
        );
        assert_eq!(
            points[2],
            TimePoint {
                tick: 4,
                value: 40.0
            }
        );
        assert_eq!(s.last().unwrap().tick, 4);
    }

    #[test]
    fn rate_over_window() {
        let s = TimeSeries::new(10);
        assert!(s.rate().is_none());
        s.push(0, 100.0);
        assert!(s.rate().is_none(), "one point has no rate");
        s.push(4, 80.0);
        assert_eq!(s.rate(), Some(-5.0), "burn-down of 20 over 4 ticks");
        // Non-monotone ticks (resume replays an earlier epoch number)
        // must not panic — checked_sub yields None.
        let s2 = TimeSeries::new(10);
        s2.push(5, 1.0);
        s2.push(2, 2.0);
        assert!(s2.rate().is_none());
    }

    #[test]
    fn store_snapshot_sorted_and_isolated() {
        let store = TimeSeriesStore::new(8);
        store.record("z.rate", 1, 3.0);
        store.record("a.rate", 1, 1.0);
        store.record("a.rate", 2, 2.0);
        assert_eq!(
            store.names(),
            vec!["a.rate".to_string(), "z.rate".to_string()]
        );
        let snap = store.snapshot();
        assert_eq!(snap[0].0, "a.rate");
        assert_eq!(snap[0].1.len(), 2);
        assert_eq!(snap[1].1.len(), 1);
        assert!(store.get("missing").is_none());
        store.clear();
        assert!(store.names().is_empty());
    }

    #[test]
    fn capacity_floor_is_one() {
        let s = TimeSeries::new(0);
        s.push(0, 1.0);
        s.push(1, 2.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.last().unwrap().value, 2.0);
    }

    #[test]
    fn concurrent_pushes_retain_capacity() {
        let store = Arc::new(TimeSeriesStore::new(16));
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for tick in 0..100u64 {
                        store.record(&format!("t{i}"), tick, tick as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for i in 0..4 {
            let s = store.get(&format!("t{i}")).unwrap();
            assert_eq!(s.len(), 16);
            assert_eq!(s.last().unwrap().tick, 99);
        }
    }
}
