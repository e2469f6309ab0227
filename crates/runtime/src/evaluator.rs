//! The caching evaluator: content-addressed memoization over any scorer.
//!
//! [`Scorer`] is the narrow interface a downstream evaluation backend
//! (in practice `learners::Evaluator`) implements; [`Evaluator`] wraps a
//! scorer with a shared [`ScoreCache`] so identical (dataset content,
//! learner config, folds, CV seed) evaluations are computed once.

use crate::cache::{CacheStats, ScoreCache};
use crate::fingerprint::{fingerprint_frame, Fingerprint, FramePrefix, Hasher128};
use std::borrow::Borrow;
use std::sync::Arc;
use tabular::{Column, DataFrame};

/// A downstream evaluation backend that the runtime can memoize.
pub trait Scorer {
    type Error;

    /// Digest of everything *besides the frame* that determines the
    /// score: learner kind and hyper-parameters, fold count, CV seed.
    /// Two scorers with equal digests must score equal frames equally.
    fn config_digest(&self) -> Fingerprint;

    /// Run the full (cross-validated) evaluation of a frame.
    fn score_frame(&self, frame: &DataFrame) -> Result<f64, Self::Error>;
}

/// Default cache capacity: comfortably holds every distinct candidate of
/// a full two-stage run at paper scale while bounding memory (entries
/// are 16-byte keys + 8-byte scores plus map overhead).
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// A scorer wrapped with a content-addressed score cache.
///
/// Clones share the same cache, so one `Evaluator` can be handed to
/// several consumers (engine loops, baselines, FPE labeling) and they
/// all benefit from each other's evaluations.
pub struct Evaluator<S> {
    scorer: S,
    cache: Arc<ScoreCache<f64>>,
}

impl<S: Clone> Clone for Evaluator<S> {
    fn clone(&self) -> Self {
        Evaluator {
            scorer: self.scorer.clone(),
            cache: Arc::clone(&self.cache),
        }
    }
}

impl<S: Scorer> Evaluator<S> {
    /// Wrap `scorer` with a fresh cache of [`DEFAULT_CACHE_CAPACITY`].
    pub fn new(scorer: S) -> Self {
        Self::with_capacity(scorer, DEFAULT_CACHE_CAPACITY)
    }

    pub fn with_capacity(scorer: S, capacity: usize) -> Self {
        Evaluator {
            scorer,
            cache: Arc::new(ScoreCache::new(capacity)),
        }
    }

    /// Wrap `scorer` around an existing (shared) cache.
    pub fn with_cache(scorer: S, cache: Arc<ScoreCache<f64>>) -> Self {
        Evaluator { scorer, cache }
    }

    /// The cache key for `frame` under this scorer's configuration.
    pub fn cache_key(&self, frame: &DataFrame) -> Fingerprint {
        self.key_of(fingerprint_frame(frame))
    }

    /// `cache_key(&prefix.with_column(extra)?)` at the cost of hashing
    /// `extra` and the label rather than the whole frame.
    pub fn prefix_key(&self, prefix: &FramePrefix, extra: &Column) -> Fingerprint {
        self.key_of(prefix.fingerprint_with(extra))
    }

    /// The cache key of the frame whose [`fingerprint_frame`] is `frame` —
    /// for a caller that fingerprints its frame piecewise
    /// ([`PrefixHasher`](crate::PrefixHasher)) instead of building it.
    pub fn key_of(&self, frame: Fingerprint) -> Fingerprint {
        let mut h = Hasher128::new();
        h.write_u128(self.scorer.config_digest().0);
        h.write_u128(frame.0);
        h.finish()
    }

    /// Evaluate `frame`, serving repeats from cache. Errors are not
    /// cached: a failing evaluation is re-attempted on the next call.
    pub fn evaluate(&self, frame: &DataFrame) -> Result<f64, S::Error> {
        self.evaluate_keyed(self.cache_key(frame), || Ok(frame))
    }

    /// [`evaluate`](Self::evaluate) for a caller that already holds the
    /// frame's cache key (from [`cache_key`](Self::cache_key) or
    /// [`prefix_key`](Self::prefix_key)): `frame` is only called — so the
    /// frame only needs to exist — on a miss.
    pub fn evaluate_keyed<D, E>(
        &self,
        key: Fingerprint,
        frame: impl FnOnce() -> Result<D, E>,
    ) -> Result<f64, E>
    where
        D: Borrow<DataFrame>,
        E: From<S::Error>,
    {
        if let Some(score) = self.cache.get(key) {
            telemetry::count("evaluator.cache_hits", 1);
            return Ok(score);
        }
        let frame = frame()?;
        let frame = frame.borrow();
        debug_assert_eq!(key, self.cache_key(frame), "key must address this frame");
        let score = {
            let _span = telemetry::span("evaluator.score_frame");
            self.scorer.score_frame(frame)?
        };
        telemetry::count("evaluator.evals_computed", 1);
        self.cache.insert(key, score);
        Ok(score)
    }

    pub fn scorer(&self) -> &S {
        &self.scorer
    }

    pub fn cache(&self) -> &Arc<ScoreCache<f64>> {
        &self.cache
    }

    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tabular::{Column, DataFrame, Label};

    struct CountingScorer {
        digest: u128,
        calls: AtomicUsize,
    }

    impl CountingScorer {
        fn new(digest: u128) -> Self {
            CountingScorer {
                digest,
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl Scorer for CountingScorer {
        type Error = std::convert::Infallible;

        fn config_digest(&self) -> Fingerprint {
            Fingerprint(self.digest)
        }

        fn score_frame(&self, frame: &DataFrame) -> Result<f64, Self::Error> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            Ok(frame.columns()[0].values.iter().sum())
        }
    }

    fn frame(vals: Vec<f64>) -> DataFrame {
        let n = vals.len();
        DataFrame::new(
            "t",
            vec![Column::new("c", vals)],
            Label::Class {
                y: vec![0; n],
                n_classes: 1,
            },
        )
        .unwrap()
    }

    #[test]
    fn repeat_evaluations_hit_cache() {
        let ev = Evaluator::new(CountingScorer::new(1));
        let f = frame(vec![1.0, 2.0]);
        assert_eq!(ev.evaluate(&f).unwrap(), 3.0);
        assert_eq!(ev.evaluate(&f).unwrap(), 3.0);
        assert_eq!(ev.scorer().calls.load(Ordering::SeqCst), 1);
        let s = ev.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn equal_content_shares_entry_across_frame_objects() {
        let ev = Evaluator::new(CountingScorer::new(1));
        ev.evaluate(&frame(vec![1.0, 2.0])).unwrap();
        ev.evaluate(&frame(vec![1.0, 2.0])).unwrap();
        assert_eq!(ev.scorer().calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn config_digest_partitions_the_cache() {
        let cache = Arc::new(ScoreCache::new(64));
        let a = Evaluator::with_cache(CountingScorer::new(1), Arc::clone(&cache));
        let b = Evaluator::with_cache(CountingScorer::new(2), Arc::clone(&cache));
        let f = frame(vec![1.0]);
        a.evaluate(&f).unwrap();
        b.evaluate(&f).unwrap();
        assert_eq!(a.scorer().calls.load(Ordering::SeqCst), 1);
        assert_eq!(b.scorer().calls.load(Ordering::SeqCst), 1);
        assert_eq!(
            cache.stats().inserts,
            2,
            "different configs, different keys"
        );
    }

    #[test]
    fn different_content_misses() {
        let ev = Evaluator::new(CountingScorer::new(1));
        ev.evaluate(&frame(vec![1.0])).unwrap();
        ev.evaluate(&frame(vec![2.0])).unwrap();
        assert_eq!(ev.scorer().calls.load(Ordering::SeqCst), 2);
    }
}
