//! Content-addressed evaluation cache: one `Mutex` over one map from a
//! [`Fingerprint`] to a cached score (generic payload `V`), a logical
//! clock and plain hit/miss/insert/evict counters.
//!
//! Every `get` and `insert` stamps the entry it touches with the next
//! clock value, so [`ScoreCache::snapshot_since`] can export the working
//! set touched after a baseline. Capacity holds exactly: a new key that
//! meets a full cache first evicts the least recently stamped entry,
//! found by an O(len) scan under the same lock. The scan runs only at
//! capacity, where each resident entry already amortises a full CV
//! evaluation. One lock is enough because callers touch the cache between
//! full CV evaluations, or from the thread that submits a pool map.

use crate::fingerprint::Fingerprint;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::sync::Mutex;

/// Counter snapshot returned by [`ScoreCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
    /// Resident entries at snapshot time.
    pub len: usize,
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction of all lookups so far (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas relative to an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            len: self.len,
            capacity: self.capacity,
        }
    }
}

/// Serde-serializable export of cache entries keyed by fingerprint,
/// produced by [`ScoreCache::snapshot`] / `ScoreCache::snapshot_since`
/// and replayed into another cache by [`ScoreCache::merge`].
///
/// Entries are sorted by fingerprint so the serialized form is
/// deterministic regardless of map iteration order. On the wire each
/// entry is a `[hi, lo, value]` array: the 128-bit fingerprint travels as
/// two `u64` halves because JSON has no 128-bit integer.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSnapshot<V> {
    /// `(fingerprint, value)` pairs in ascending fingerprint order.
    pub entries: Vec<(Fingerprint, V)>,
}

impl<V> CacheSnapshot<V> {
    /// Empty snapshot.
    pub fn empty() -> Self {
        CacheSnapshot {
            entries: Vec::new(),
        }
    }

    /// Number of exported entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was exported.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<V> Default for CacheSnapshot<V> {
    fn default() -> Self {
        CacheSnapshot::empty()
    }
}

impl<V: Serialize> Serialize for CacheSnapshot<V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.entries
                .iter()
                .map(|(fp, v)| {
                    Value::Array(vec![
                        ((fp.0 >> 64) as u64).to_value(),
                        (fp.0 as u64).to_value(),
                        v.to_value(),
                    ])
                })
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for CacheSnapshot<V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v
            .as_array()
            .ok_or_else(|| DeError::new("expected array for CacheSnapshot"))?;
        let mut entries = Vec::with_capacity(items.len());
        for item in items {
            let parts = item
                .as_array()
                .ok_or_else(|| DeError::new("expected [hi, lo, value] entry"))?;
            if parts.len() != 3 {
                return Err(DeError::new("cache entry must be [hi, lo, value]"));
            }
            let hi = u64::from_value(&parts[0])?;
            let lo = u64::from_value(&parts[1])?;
            let fp = Fingerprint(((hi as u128) << 64) | lo as u128);
            entries.push((fp, V::from_value(&parts[2])?));
        }
        Ok(CacheSnapshot { entries })
    }
}

/// Cache from [`Fingerprint`] to `V`, bounded by exact LRU eviction.
pub struct ScoreCache<V> {
    inner: Mutex<Inner<V>>,
}

/// Everything behind the cache's one lock.
struct Inner<V> {
    /// Key → (value, clock stamp of its last `get` or `insert`).
    map: HashMap<u128, (V, u64)>,
    /// Logical clock: the stamp the next `get` or `insert` takes.
    tick: u64,
    /// Counters; `len` is filled in by [`ScoreCache::stats`].
    stats: CacheStats,
}

impl<V> Inner<V> {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick - 1
    }

    /// Insert (or refresh) `key`, evicting the least recently stamped
    /// entry first when a new key meets a full cache.
    fn insert(&mut self, key: Fingerprint, value: V) {
        let tick = self.next_tick();
        if let Some(slot) = self.map.get_mut(&key.0) {
            *slot = (value, tick);
            return;
        }
        if self.map.len() >= self.stats.capacity {
            if let Some((&oldest, _)) = self.map.iter().min_by_key(|(_, (_, t))| *t) {
                self.map.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        self.map.insert(key.0, (value, tick));
        self.stats.inserts += 1;
    }
}

impl<V: Clone> ScoreCache<V> {
    /// Create a cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ScoreCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats {
                    capacity: capacity.max(1),
                    ..CacheStats::default()
                },
            }),
        }
    }

    /// Resident entries right now.
    pub fn len(&self) -> usize {
        crate::lock(&self.inner).map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a cached value, refreshing its recency on hit.
    pub fn get(&self, key: Fingerprint) -> Option<V> {
        let inner = &mut *crate::lock(&self.inner);
        let tick = inner.next_tick();
        let Some((value, last_used)) = inner.map.get_mut(&key.0) else {
            inner.stats.misses += 1;
            return None;
        };
        *last_used = tick;
        inner.stats.hits += 1;
        Some(value.clone())
    }

    /// Insert (or refresh) a value, evicting the least recently used
    /// entry first if the cache is at capacity.
    pub fn insert(&self, key: Fingerprint, value: V) {
        crate::lock(&self.inner).insert(key, value);
    }

    /// Does the cache currently hold `key`? Unlike [`ScoreCache::get`]
    /// this neither refreshes recency nor touches the hit/miss counters,
    /// so warm-cache zero-miss invariants stay observable.
    pub fn contains(&self, key: Fingerprint) -> bool {
        crate::lock(&self.inner).map.contains_key(&key.0)
    }

    /// Current value of the logical LRU clock. Pair with
    /// [`ScoreCache::snapshot_since`] to export only the entries touched
    /// after a baseline (e.g. the working set of one work shard).
    pub(crate) fn current_tick(&self) -> u64 {
        crate::lock(&self.inner).tick
    }

    /// Export every resident entry, sorted by fingerprint.
    pub fn snapshot(&self) -> CacheSnapshot<V> {
        self.snapshot_since(0)
    }

    /// Export the entries whose recency is at or after `tick` (as returned
    /// by [`ScoreCache::current_tick`] at the baseline), sorted by
    /// fingerprint. Recency advances on both insert *and* lookup, so the
    /// export is the baseline-onwards working set — a superset of the new
    /// insertions, which is harmless because [`ScoreCache::merge`] is
    /// idempotent.
    pub(crate) fn snapshot_since(&self, tick: u64) -> CacheSnapshot<V> {
        let mut entries: Vec<(Fingerprint, V)> = crate::lock(&self.inner)
            .map
            .iter()
            .filter(|(_, (_, last_used))| *last_used >= tick)
            .map(|(&k, (v, _))| (Fingerprint(k), v.clone()))
            .collect();
        entries.sort_unstable_by_key(|(fp, _)| fp.0);
        CacheSnapshot { entries }
    }

    /// Replay a snapshot into this cache and return how many entries were
    /// new. Last writer wins on keys already present; since keys are
    /// content-addressed fingerprints, both writers must hold the same
    /// value — asserted in debug builds, so a fingerprint collision (or a
    /// non-deterministic producer) fails loudly instead of silently
    /// corrupting scores. Capacity and LRU eviction apply as usual.
    pub fn merge(&self, snapshot: &CacheSnapshot<V>) -> usize
    where
        V: PartialEq + std::fmt::Debug,
    {
        let mut inner = crate::lock(&self.inner);
        let mut fresh = 0;
        for (fp, value) in &snapshot.entries {
            match inner.map.get(&fp.0) {
                Some((existing, _)) => debug_assert!(
                    existing == value,
                    "cache merge: key {:032x} maps to two different values \
                     ({existing:?} resident vs {value:?} incoming)",
                    fp.0,
                ),
                None => fresh += 1,
            }
            inner.insert(*fp, value.clone());
        }
        fresh
    }

    /// The counters, with the resident-entry count at this moment.
    pub fn stats(&self) -> CacheStats {
        let inner = crate::lock(&self.inner);
        CacheStats {
            len: inner.map.len(),
            ..inner.stats
        }
    }
}

impl<V: Clone> std::fmt::Debug for ScoreCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoreCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u128) -> Fingerprint {
        // Scatter test keys the way real digests would.
        Fingerprint(n.wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_0C93_A5B7_1D43))
    }

    #[test]
    fn get_after_insert() {
        let cache = ScoreCache::new(8);
        assert_eq!(cache.get(fp(1)), None);
        cache.insert(fp(1), 0.5f64);
        assert_eq!(cache.get(fp(1)), Some(0.5));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let cache = ScoreCache::new(10);
        for i in 0..100u128 {
            cache.insert(fp(i), i as f64);
            assert!(
                cache.len() <= 10,
                "len {} after {} inserts",
                cache.len(),
                i + 1
            );
        }
        let s = cache.stats();
        assert_eq!(s.inserts, 100);
        assert_eq!(s.evictions, 90);
        assert_eq!(s.len, 10);
    }

    #[test]
    fn recently_used_entries_survive_eviction_pressure() {
        let cache = ScoreCache::new(4);
        cache.insert(fp(0), 0.0f64);
        for i in 1..40u128 {
            // Touch key 0 so it stays the most recently used.
            assert_eq!(cache.get(fp(0)), Some(0.0));
            cache.insert(fp(i), i as f64);
        }
        assert_eq!(cache.get(fp(0)), Some(0.0), "hot entry was evicted");
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache = ScoreCache::new(2);
        cache.insert(fp(1), 1.0f64);
        cache.insert(fp(1), 2.0f64);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(fp(1)), Some(2.0));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn an_insert_past_capacity_evicts_the_least_recently_used() {
        let (a, b, c, d) = (fp(1), fp(2), fp(3), fp(4));
        let cache = ScoreCache::new(3);
        cache.insert(a, 1.0f64);
        cache.insert(b, 2.0);
        cache.insert(c, 3.0);
        assert_eq!(cache.get(a), Some(1.0));
        cache.insert(d, 4.0);
        assert!(!cache.contains(b), "b was the least recently used");
        assert!(cache.contains(a) && cache.contains(c) && cache.contains(d));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn a_fresh_key_survives_its_own_insert_at_capacity_one() {
        let cache = ScoreCache::new(1);
        cache.insert(fp(1), 1.0f64);
        cache.insert(fp(2), 2.0f64);
        assert!(!cache.contains(fp(1)));
        assert_eq!(cache.get(fp(2)), Some(2.0));
        let s = cache.stats();
        assert_eq!((s.len, s.inserts, s.evictions), (1, 2, 1));
    }

    #[test]
    fn snapshot_exports_sorted_and_merge_restores() {
        let cache = ScoreCache::new(32);
        for i in 0..20u128 {
            cache.insert(fp(i), i as f64);
        }
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 20);
        assert!(
            snap.entries.windows(2).all(|w| w[0].0 .0 < w[1].0 .0),
            "snapshot must be sorted by fingerprint"
        );
        let other: ScoreCache<f64> = ScoreCache::new(32);
        assert_eq!(other.merge(&snap), 20);
        for i in 0..20u128 {
            assert_eq!(other.get(fp(i)), Some(i as f64));
        }
        // Replaying the same snapshot is idempotent: nothing is new.
        assert_eq!(other.merge(&snap), 0);
        assert_eq!(other.len(), 20);
    }

    #[test]
    fn snapshot_since_exports_only_the_recent_working_set() {
        let cache = ScoreCache::new(64);
        for i in 0..10u128 {
            cache.insert(fp(i), i as f64);
        }
        let baseline = cache.current_tick();
        cache.insert(fp(100), 100.0);
        cache.insert(fp(101), 101.0);
        assert_eq!(cache.get(fp(3)), Some(3.0)); // touched: joins the set
        let snap = cache.snapshot_since(baseline);
        let keys: Vec<u128> = snap.entries.iter().map(|(f, _)| f.0).collect();
        assert_eq!(snap.len(), 3);
        assert!(keys.contains(&fp(100).0));
        assert!(keys.contains(&fp(101).0));
        assert!(keys.contains(&fp(3).0));
    }

    #[test]
    fn snapshot_serde_round_trips_exactly() {
        let cache = ScoreCache::new(16);
        cache.insert(fp(1), 0.1f64);
        cache.insert(fp(2), -0.0f64);
        cache.insert(fp(3), 3.0f64);
        cache.insert(Fingerprint(u128::MAX - 7), f64::MIN_POSITIVE);
        let snap = cache.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: CacheSnapshot<f64> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), snap.len());
        for ((fa, va), (fb, vb)) in snap.entries.iter().zip(&back.entries) {
            assert_eq!(fa, fb);
            assert_eq!(va.to_bits(), vb.to_bits(), "f64 payload must be bit-exact");
        }
    }

    #[test]
    fn merge_overwrites_equal_values_without_growth() {
        let a = ScoreCache::new(8);
        let b = ScoreCache::new(8);
        a.insert(fp(1), 1.5f64);
        b.insert(fp(1), 1.5f64);
        b.insert(fp(2), 2.5f64);
        assert_eq!(a.merge(&b.snapshot()), 1);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(fp(1)), Some(1.5));
        assert_eq!(a.get(fp(2)), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "two different values")]
    #[cfg(debug_assertions)]
    fn merge_panics_on_conflicting_values_in_debug() {
        let a = ScoreCache::new(8);
        let b = ScoreCache::new(8);
        a.insert(fp(1), 1.0f64);
        b.insert(fp(1), 2.0f64);
        a.merge(&b.snapshot());
    }

    #[test]
    fn merge_respects_capacity() {
        let small: ScoreCache<f64> = ScoreCache::new(4);
        let big = ScoreCache::new(64);
        for i in 0..32u128 {
            big.insert(fp(i), i as f64);
        }
        small.merge(&big.snapshot());
        assert!(small.len() <= 4, "merge must evict to stay within capacity");
    }

    #[test]
    fn contains_does_not_touch_counters() {
        let cache = ScoreCache::new(8);
        cache.insert(fp(1), 1.0f64);
        assert!(cache.contains(fp(1)));
        assert!(!cache.contains(fp(2)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn concurrent_insert_lookup_evict_holds_invariants() {
        use std::sync::Arc;
        let cache = Arc::new(ScoreCache::new(64));
        let n_threads = 8;
        let per_thread = 500u128;
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let key = fp(t as u128 * per_thread + i);
                        cache.insert(key, i as f64);
                        // Mix in lookups of shared hot keys.
                        cache.get(fp(i % 7));
                        assert!(cache.len() <= 64);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.len, 64);
        assert_eq!(s.inserts, n_threads as u64 * per_thread as u64);
        assert_eq!(s.evictions, s.inserts - s.len as u64);
    }
}
