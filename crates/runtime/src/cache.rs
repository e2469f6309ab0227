//! Concurrent, content-addressed evaluation cache.
//!
//! Maps a [`Fingerprint`] to a cached score (generic payload `V`) across
//! 16 independently locked shards, with a global capacity bound, an
//! approximate-LRU eviction policy (global logical clock, per-shard LRU
//! scan), and atomic hit/miss/insert/evict counters kept *per shard*
//! (surfaced raw via [`ScoreCache::shard_stats`], aggregated by
//! [`ScoreCache::stats`]) so contention and key-skew are observable.
//!
//! Capacity invariant: once every in-flight `insert` has returned, the
//! number of resident entries is at most `capacity`; while inserts are in
//! flight, residency can overshoot by at most the number of concurrently
//! inserting threads (each over-capacity insert pays one eviction before
//! returning). The victim is the globally least-recently-used entry,
//! located by scanning the shards one lock at a time (O(len), but
//! eviction only happens at capacity, where each resident entry already
//! amortises a full CV evaluation). Locks are only ever held one shard at
//! a time, so there is no lock-ordering hazard; concurrent touches
//! between the scan and the removal merely make the LRU choice
//! approximate.

use crate::fingerprint::Fingerprint;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

const N_SHARDS: usize = 16;

struct Entry<V> {
    value: V,
    last_used: u64,
}

/// One lock domain of the cache, with its own counters so per-shard
/// statistics cost no extra synchronisation on the lookup path.
struct Shard<V> {
    map: Mutex<HashMap<u128, Entry<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    /// Evictions are charged to the shard the victim lived in.
    evictions: AtomicU64,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: crate::lock(&self.map).len(),
        }
    }
}

/// Per-shard counter snapshot returned by [`ScoreCache::shard_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ShardStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
    /// Resident entries in this shard at snapshot time.
    pub len: usize,
}

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
/// deterministic regardless of shard iteration order. On the wire each
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

/// Sharded concurrent cache from [`Fingerprint`] to `V`.
pub struct ScoreCache<V> {
    shards: Vec<Shard<V>>,
    capacity: usize,
    /// Logical clock driving LRU ordering.
    tick: AtomicU64,
    /// Resident-entry counter (kept in sync with the shard maps).
    len: AtomicUsize,
}

impl<V: Clone> ScoreCache<V> {
    /// Create a cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ScoreCache {
            shards: (0..N_SHARDS).map(|_| Shard::new()).collect(),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            len: AtomicUsize::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident entries right now.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| crate::lock(&s.map).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(&self, key: Fingerprint) -> usize {
        // High bits: FNV mixes the low bits last, the high bits are well
        // distributed for similar inputs either way.
        (key.0 >> 124) as usize % N_SHARDS
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up a cached value, refreshing its recency on hit.
    pub fn get(&self, key: Fingerprint) -> Option<V> {
        let tick = self.next_tick();
        let shard = &self.shards[self.shard_of(key)];
        let mut map = crate::lock(&shard.map);
        match map.get_mut(&key.0) {
            Some(entry) => {
                entry.last_used = tick;
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) a value, evicting the approximate global LRU
    /// entry first if the cache is at capacity.
    pub fn insert(&self, key: Fingerprint, value: V) {
        let tick = self.next_tick();
        let idx = self.shard_of(key);
        {
            let mut map = crate::lock(&self.shards[idx].map);
            if let Some(entry) = map.get_mut(&key.0) {
                entry.value = value;
                entry.last_used = tick;
                return;
            }
        }
        // Reserve a slot, insert, then pay any eviction debt. Paying after
        // the insert means a concurrent debtor always has a victim to find,
        // at the cost of letting residency overshoot `capacity` by at most
        // the number of concurrently inserting threads; the bound is exact
        // again as soon as every in-flight insert returns.
        let need_evict = self.len.fetch_add(1, Ordering::AcqRel) >= self.capacity;
        let shard = &self.shards[idx];
        let mut map = crate::lock(&shard.map);
        if let Some(entry) = map.get_mut(&key.0) {
            // A concurrent inserter beat us to this key: refresh in place
            // and release the slot we reserved.
            entry.value = value;
            entry.last_used = tick;
            drop(map);
            self.len.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        map.insert(
            key.0,
            Entry {
                value,
                last_used: tick,
            },
        );
        drop(map);
        shard.inserts.fetch_add(1, Ordering::Relaxed);
        if need_evict {
            self.evict_global_lru(key);
        }
    }

    /// Pay one eviction debt with the globally least-recently-used entry,
    /// never evicting `protect` (the entry whose insert incurred the debt).
    fn evict_global_lru(&self, protect: Fingerprint) {
        for _ in 0..16 {
            // Pass 1: find the oldest entry, one shard lock at a time.
            let mut victim: Option<(usize, u128, u64)> = None;
            for (si, shard) in self.shards.iter().enumerate() {
                let map = crate::lock(&shard.map);
                for (&k, e) in map.iter() {
                    if k != protect.0 && victim.is_none_or(|(_, _, t)| e.last_used < t) {
                        victim = Some((si, k, e.last_used));
                    }
                }
            }
            let Some((si, k, _)) = victim else {
                // Nothing evictable anywhere: concurrent evictors already
                // brought the cache under capacity; drop the debt.
                self.len.fetch_sub(1, Ordering::AcqRel);
                return;
            };
            // Pass 2: re-lock and remove. A touch between the passes just
            // makes the LRU choice approximate; a removal means another
            // evictor claimed the victim, so rescan.
            if crate::lock(&self.shards[si].map).remove(&k).is_some() {
                self.len.fetch_sub(1, Ordering::AcqRel);
                self.shards[si].evictions.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // Pathological contention: every scan lost its victim to another
        // evictor. Take any entry other than `protect`.
        for shard in &self.shards {
            let mut map = crate::lock(&shard.map);
            if let Some(&k) = map.keys().find(|&&k| k != protect.0) {
                map.remove(&k);
                drop(map);
                self.len.fetch_sub(1, Ordering::AcqRel);
                shard.evictions.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.len.fetch_sub(1, Ordering::AcqRel);
    }

    /// Does the cache currently hold `key`? Unlike [`ScoreCache::get`]
    /// this neither refreshes recency nor touches the hit/miss counters,
    /// so warm-cache zero-miss invariants stay observable.
    pub fn contains(&self, key: Fingerprint) -> bool {
        crate::lock(&self.shards[self.shard_of(key)].map).contains_key(&key.0)
    }

    /// Current value of the logical LRU clock. Pair with
    /// [`ScoreCache::snapshot_since`] to export only the entries touched
    /// after a baseline (e.g. the working set of one work shard).
    pub(crate) fn current_tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
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
        let mut entries = Vec::new();
        for shard in &self.shards {
            let map = crate::lock(&shard.map);
            for (&k, e) in map.iter() {
                if e.last_used >= tick {
                    entries.push((Fingerprint(k), e.value.clone()));
                }
            }
        }
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
        let mut fresh = 0;
        for (fp, value) in &snapshot.entries {
            #[cfg(debug_assertions)]
            {
                let map = crate::lock(&self.shards[self.shard_of(*fp)].map);
                if let Some(existing) = map.get(&fp.0) {
                    assert!(
                        existing.value == *value,
                        "cache merge: key {:032x} maps to two different values \
                         ({:?} resident vs {:?} incoming)",
                        fp.0,
                        existing.value,
                        value
                    );
                }
            }
            if !self.contains(*fp) {
                fresh += 1;
            }
            self.insert(*fp, value.clone());
        }
        fresh
    }

    /// Per-shard counters and occupancy, in shard-index order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Counters aggregated over every shard.
    pub fn stats(&self) -> CacheStats {
        let mut agg = CacheStats {
            capacity: self.capacity,
            ..CacheStats::default()
        };
        for s in self.shard_stats() {
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.inserts += s.inserts;
            agg.evictions += s.evictions;
            agg.len += s.len;
        }
        agg
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
        // Spread test keys over shards the way real digests would.
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
    fn shard_stats_sum_to_aggregate() {
        let cache = ScoreCache::new(16);
        for i in 0..64u128 {
            cache.insert(fp(i), i as f64);
            cache.get(fp(i));
            cache.get(fp(i + 1000));
        }
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), 16);
        assert!(
            shards.iter().filter(|s| s.inserts > 0).count() > 1,
            "test keys should spread over several shards"
        );
        let agg = cache.stats();
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), agg.hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), agg.misses);
        assert_eq!(shards.iter().map(|s| s.inserts).sum::<u64>(), agg.inserts);
        assert_eq!(
            shards.iter().map(|s| s.evictions).sum::<u64>(),
            agg.evictions
        );
        assert_eq!(shards.iter().map(|s| s.len).sum::<usize>(), agg.len);
        assert_eq!(agg.len, cache.len());
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
                        // Mid-flight residency may overshoot by one slot
                        // per concurrently inserting thread, and len()
                        // itself is a racy per-shard sum.
                        assert!(cache.len() <= 64 + 2 * n_threads);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.len, cache.len());
        assert!(s.len <= 64);
        assert_eq!(s.inserts, n_threads as u64 * per_thread as u64);
        // Inserts beyond capacity are paid for by evictions (a rare race
        // can drop an eviction debt, never create phantom evictions).
        assert!(s.evictions <= s.inserts - s.len as u64);
        assert!(s.evictions >= s.inserts - s.len as u64 - 64);
    }
}
