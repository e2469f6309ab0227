//! Process-wide content-addressed **signature cache** for weighted-MinHash
//! sketches — the PR-3 bin-cache pattern applied to the FPE sketch path.
//!
//! The FPE gate, `RawLabels` labelling, and FPE model selection all sketch
//! feature columns through a [`SampleCompressor`], and the same column
//! content recurs constantly: corpus columns are re-sketched for every
//! candidate `(family, d)` pair sharing a family, across train/val splits,
//! and generated columns repeat across epochs and agents. A signature
//! depends only on `(column content, family, d, seed)`, so it is cached
//! content-addressed: the key combines a domain tag, the hash family,
//! `d`, the seed, and the raw column's digest ([`fingerprint_values`],
//! over its IEEE-754 bit patterns). Two differently-derived pipelines
//! producing bit-identical columns share one entry; the collision
//! analysis in the crate root applies unchanged. There is one key domain:
//! every entry is a column as a [`SampleCompressor`] sketches it, which is
//! the only way `minhash` sketches.
//!
//! Cached values are `Arc<Signature>` (`d` × 8 bytes each, ~12 MB at the
//! default capacity and `d = 48`); the compressed vector is rebuilt from
//! the signature with a plain gather, which keeps the cache insensitive to
//! normalisation flavour.

use crate::cache::{CacheSnapshot, CacheStats, ScoreCache};
use crate::fingerprint::{fingerprint_values, Fingerprint, Hasher128};
use crate::pool::WorkerPool;
use minhash::{SampleCompressor, Signature};
use std::sync::{Arc, OnceLock};

/// Capacity of the process-wide signature cache. Entries are one
/// `d`-element signature each (8 bytes per element), so the default stays
/// in the tens of megabytes even at paper scale.
pub(crate) const SIG_CACHE_CAPACITY: usize = 32_768;

/// Columns per [`WorkerPool`] task when batch-sketching misses: large
/// enough to amortise task dispatch, small enough to load-balance.
const BATCH_CHUNK: usize = 32;

/// The signature cache's value type.
pub(crate) type SignatureCache = ScoreCache<Arc<Signature>>;

fn sig_cache() -> &'static SignatureCache {
    static CACHE: OnceLock<SignatureCache> = OnceLock::new();
    CACHE.get_or_init(|| ScoreCache::new(SIG_CACHE_CAPACITY))
}

/// Counters of the process-wide signature cache (hits = columns served
/// without re-sketching).
pub fn sig_cache_stats() -> CacheStats {
    sig_cache().stats()
}

/// Current logical clock of the process-wide signature cache; baseline
/// for [`sig_cache_snapshot_since`].
pub fn sig_cache_tick() -> u64 {
    sig_cache().current_tick()
}

/// Export the global signature cache's entries touched at or after the
/// `tick` baseline, as owned [`Signature`] payloads (the `Arc` wrapper is
/// a process-local detail, so snapshots stay serde-serializable and
/// merge-able across process boundaries).
pub fn sig_cache_snapshot_since(tick: u64) -> CacheSnapshot<Signature> {
    let inner = sig_cache().snapshot_since(tick);
    CacheSnapshot {
        entries: inner
            .entries
            .into_iter()
            .map(|(fp, sig)| (fp, (*sig).clone()))
            .collect(),
    }
}

/// Replay a signature snapshot (e.g. from another process) into the
/// global cache; returns how many entries were new. Content-addressed
/// keys make the merge idempotent, and in debug builds a key mapping to
/// two different signatures panics.
pub fn sig_cache_merge(snapshot: &CacheSnapshot<Signature>) -> usize {
    let wrapped = CacheSnapshot {
        entries: snapshot
            .entries
            .iter()
            .map(|(fp, sig)| (*fp, Arc::new(sig.clone())))
            .collect(),
    };
    sig_cache().merge(&wrapped)
}

fn compressor_key(c: &SampleCompressor, values: &[f64]) -> Fingerprint {
    let mut h = Hasher128::new();
    h.write_str("runtime::SignatureCache");
    h.write_str("compressor");
    h.write_str(c.family().name());
    h.write_u64(c.d() as u64);
    h.write_u64(c.seed());
    h.write_u128(fingerprint_values(values).0);
    h.finish()
}

/// Build `c`'s draw table for columns of `rows` rows ahead of the first
/// sketch, its per-hash-index jobs spread over the [`WorkerPool`] (under
/// the global thread budget, like every other map). A search that knows
/// its row count calls this once; without it the first sketch builds the
/// same table on its own thread.
pub fn prepare_draw_tables(c: &SampleCompressor, rows: usize) -> minhash::Result<()> {
    c.prepare_rows(rows, |jobs, job| {
        WorkerPool::new().map((0..jobs).collect(), |_ctx, i| job(i));
    })
}

/// A column's signature through the cache: a column whose
/// `(content, family, d, seed)` was sketched before is served without
/// recomputation.
pub(crate) fn compressor_signature_cached(
    c: &SampleCompressor,
    values: &[f64],
) -> minhash::Result<Arc<Signature>> {
    let cache = sig_cache();
    let key = compressor_key(c, values);
    if let Some(hit) = cache.get(key) {
        telemetry::count("minhash.sig_cache_hits", 1);
        return Ok(hit);
    }
    let sig = Arc::new(c.signature(values)?);
    cache.insert(key, Arc::clone(&sig));
    Ok(sig)
}

/// A column's FPE input through the cache: signature from the cache
/// (sketching on miss), compressed vector rebuilt by
/// `SampleCompressor::compress_normalized_with_signature`. Bit-identical
/// to sketching it afresh.
pub fn compress_normalized_cached(
    c: &SampleCompressor,
    values: &[f64],
) -> minhash::Result<Vec<f64>> {
    let sig = compressor_signature_cached(c, values)?;
    Ok(c.compress_normalized_with_signature(values, &sig))
}

/// Compress many columns through cache + batch kernel: one cache probe per
/// column, then all missing columns sketched via
/// `SampleCompressor::signature_batch` in [`WorkerPool`] chunks (telemetry
/// spans carry over to worker threads via the pool's `parent_scope`).
/// Per-column output is bit-identical to [`compress_normalized_cached`].
pub fn compress_normalized_batch(
    c: &SampleCompressor,
    cols: &[&[f64]],
) -> minhash::Result<Vec<Vec<f64>>> {
    let cache = sig_cache();
    let mut sigs: Vec<Option<Arc<Signature>>> = Vec::with_capacity(cols.len());
    let mut misses: Vec<usize> = Vec::new();
    let mut keys: Vec<Fingerprint> = Vec::with_capacity(cols.len());
    for (j, col) in cols.iter().enumerate() {
        let key = compressor_key(c, col);
        keys.push(key);
        match cache.get(key) {
            Some(hit) => {
                telemetry::count("minhash.sig_cache_hits", 1);
                sigs.push(Some(hit));
            }
            None => {
                misses.push(j);
                sigs.push(None);
            }
        }
    }
    if !misses.is_empty() {
        let chunks: Vec<Vec<usize>> = misses.chunks(BATCH_CHUNK).map(|c| c.to_vec()).collect();
        let sketched = WorkerPool::new().map(chunks, |_ctx, chunk| {
            let chunk_cols: Vec<&[f64]> = chunk.iter().map(|&j| cols[j]).collect();
            let sigs = c.signature_batch(&chunk_cols)?;
            Ok::<_, minhash::MinHashError>((chunk, sigs))
        });
        for result in sketched {
            let (chunk, chunk_sigs) = result?;
            for (j, sig) in chunk.into_iter().zip(chunk_sigs) {
                let sig = Arc::new(sig);
                cache.insert(keys[j], Arc::clone(&sig));
                sigs[j] = Some(sig);
            }
        }
    }
    // Invariant: a miss's signature was filled from its chunk's result,
    // or the `?` above returned.
    #[allow(clippy::expect_used)]
    Ok(cols
        .iter()
        .zip(&sigs)
        .map(|(&col, sig)| {
            c.compress_normalized_with_signature(col, sig.as_ref().expect("all signatures filled"))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minhash::HashFamily;

    fn col(seed: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64) * 0.7 + seed as f64).sin())
            .collect()
    }

    /// The signature cache and its counters are process-wide: every test
    /// that sketches through the cache holds this lock, so no other test's
    /// miss lands between two counter reads.
    fn cache_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        crate::lock(&LOCK)
    }

    /// A column's FPE input sketched afresh, past the cache.
    fn direct(c: &SampleCompressor, values: &[f64]) -> Vec<f64> {
        let sig = c.signature(values).unwrap();
        c.compress_normalized_with_signature(values, &sig)
    }

    #[test]
    fn cached_compress_matches_direct_and_hits_on_repeat() {
        let _cache = cache_lock();
        let c = SampleCompressor::new(HashFamily::Ccws, 32, 0xF00D).unwrap();
        let values = col(1, 300);
        let direct = direct(&c, &values);
        let cached = compress_normalized_cached(&c, &values).unwrap();
        assert_eq!(direct, cached);
        let before = sig_cache_stats();
        let again = compress_normalized_cached(&c, &values).unwrap();
        let after = sig_cache_stats();
        assert_eq!(direct, again);
        assert!(after.hits > before.hits, "repeat sketch must hit the cache");
        assert_eq!(after.misses, before.misses, "repeat sketch must not miss");
    }

    #[test]
    fn batch_matches_per_column_and_warm_batch_is_all_hits() {
        let _cache = cache_lock();
        let c = SampleCompressor::new(HashFamily::Icws, 24, 0xBEEF).unwrap();
        let cols: Vec<Vec<f64>> = (0..40).map(|s| col(s, 120)).collect();
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let batch = compress_normalized_batch(&c, &refs).unwrap();
        for (col, out) in cols.iter().zip(&batch) {
            assert_eq!(out, &direct(&c, col));
        }
        let before = sig_cache_stats();
        let warm = compress_normalized_batch(&c, &refs).unwrap();
        let after = sig_cache_stats();
        assert_eq!(batch, warm);
        assert_eq!(after.misses, before.misses, "warm batch must be miss-free");
        assert!(after.hits >= before.hits + cols.len() as u64);
    }

    #[test]
    fn pool_built_tables_sketch_like_lazily_grown_ones() {
        crate::pool::set_global_threads(4);
        // An ordinary column (the bound-ordered visit) and a heavy-tailed
        // one (the dense scan), below the tables' final size and at it.
        let columns: Vec<Vec<f64>> = [700, 5000]
            .into_iter()
            .flat_map(|n| {
                let wave = col(3, n);
                let heavy = wave.iter().map(|v| 1.0 / (v + 1.0001)).collect();
                [wave, heavy]
            })
            .collect();
        for family in HashFamily::ALL {
            // A seed of its own: tables are process-wide.
            let c = SampleCompressor::new(family, 48, 0x9001_B111).unwrap();
            // Grown lazily by the sketches, on this thread: 700 rows, then
            // 5 000.
            let lazy: Vec<Signature> = columns.iter().map(|v| c.signature(v).unwrap()).collect();
            // Dropping the registry changes no sketch (tables are rebuilt
            // from the same counters), so the next table is the pool's.
            minhash::clear_draw_tables();
            prepare_draw_tables(&c, 5000).unwrap();
            for (values, expected) in columns.iter().zip(&lazy).rev() {
                let n = values.len();
                assert_eq!(&c.signature(values).unwrap(), expected, "{family:?} n={n}");
            }
        }
    }

    #[test]
    fn sig_snapshot_merge_round_trips_and_is_idempotent() {
        let _cache = cache_lock();
        let c = SampleCompressor::new(HashFamily::Pcws, 16, 0xD157).unwrap();
        let values = col(7, 200);
        let baseline = sig_cache_tick();
        let direct = compressor_signature_cached(&c, &values).unwrap();
        let snap = sig_cache_snapshot_since(baseline);
        assert!(
            snap.entries
                .iter()
                .any(|(k, sig)| *k == compressor_key(&c, &values) && *sig == *direct),
            "snapshot must contain the entry sketched after the baseline"
        );
        // Merging a snapshot back into the cache it came from is a no-op
        // (every key already resident with an equal value).
        assert_eq!(sig_cache_merge(&snap), 0);
        // A foreign entry merges in and is then served as a hit.
        let foreign_values = col(77, 200);
        let foreign_key = compressor_key(&c, &foreign_values);
        let foreign_sig = c.signature(&foreign_values).unwrap();
        let foreign = CacheSnapshot {
            entries: vec![(foreign_key, foreign_sig.clone())],
        };
        let before = sig_cache_stats();
        assert_eq!(sig_cache_merge(&foreign), 1);
        let served = compressor_signature_cached(&c, &foreign_values).unwrap();
        assert_eq!(*served, foreign_sig);
        let after = sig_cache_stats();
        assert_eq!(after.misses, before.misses, "merged entry must serve hits");
    }

    #[test]
    fn batch_propagates_column_errors() {
        let _cache = cache_lock();
        let c = SampleCompressor::new(HashFamily::Ccws, 8, 1).unwrap();
        let good = col(3, 50);
        let empty: Vec<f64> = vec![];
        assert!(compress_normalized_batch(&c, &[&good, &empty]).is_err());
    }
}
