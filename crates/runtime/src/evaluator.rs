//! The caching evaluator: content-addressed memoization over any scorer.
//!
//! [`Scorer`] is the narrow interface a downstream evaluation backend
//! (in practice `learners::Evaluator`) implements; [`Evaluator`] wraps a
//! scorer with a shared [`ScoreCache`] so identical (dataset content,
//! learner config, folds, CV seed) evaluations are computed once.

use crate::cache::{CacheStats, ScoreCache};
use crate::fingerprint::{fingerprint_values, Fingerprint, FramePrefix, KeyPrefix};
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
    /// `scorer.config_digest()`, taken once — not per probe: the scorer
    /// is immutable behind [`scorer`](Self::scorer).
    config: Fingerprint,
    cache: Arc<ScoreCache<f64>>,
}

impl<S: Clone> Clone for Evaluator<S> {
    fn clone(&self) -> Self {
        Evaluator {
            scorer: self.scorer.clone(),
            config: self.config,
            cache: Arc::clone(&self.cache),
        }
    }
}

impl<S: Scorer> Evaluator<S> {
    /// Wrap `scorer` with a fresh cache of [`DEFAULT_CACHE_CAPACITY`].
    pub fn new(scorer: S) -> Self {
        Self::with_cache(scorer, Arc::new(ScoreCache::new(DEFAULT_CACHE_CAPACITY)))
    }

    /// Wrap `scorer` around an existing (shared) cache.
    pub fn with_cache(scorer: S, cache: Arc<ScoreCache<f64>>) -> Self {
        let config = scorer.config_digest();
        Evaluator {
            scorer,
            config,
            cache,
        }
    }

    /// The cache key for `frame` under this scorer's configuration.
    pub fn cache_key(&self, frame: &DataFrame) -> Fingerprint {
        KeyPrefix::of_frame(frame).finish(self.config)
    }

    /// `cache_key(&prefix.with_column(extra)?)` at the cost of digesting
    /// `extra` rather than the whole frame and its label.
    pub fn prefix_key(&self, prefix: &FramePrefix, extra: &Column) -> Fingerprint {
        self.key_of(&prefix.key, &extra.name, fingerprint_values(&extra.values))
    }

    /// The cache key of the frame that extends `prefix` by one column
    /// called `name` whose values digest to `values` — for a caller that
    /// streams its columns through a [`ColumnDigest`](crate::ColumnDigest)
    /// instead of holding them.
    pub fn key_of(&self, prefix: &KeyPrefix, name: &str, values: Fingerprint) -> Fingerprint {
        let mut key = prefix.clone();
        key.push(name, values);
        key.finish(self.config)
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
        digests: AtomicUsize,
    }

    impl CountingScorer {
        fn new(digest: u128) -> Self {
            CountingScorer {
                digest,
                calls: AtomicUsize::new(0),
                digests: AtomicUsize::new(0),
            }
        }
    }

    impl Scorer for CountingScorer {
        type Error = std::convert::Infallible;

        fn config_digest(&self) -> Fingerprint {
            self.digests.fetch_add(1, Ordering::SeqCst);
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
    fn config_is_digested_once_per_evaluator_not_per_probe() {
        let ev = Evaluator::new(CountingScorer::new(1));
        let prefix = FramePrefix::new(frame(vec![1.0, 2.0]));
        let extra = Column::new("x", vec![3.0, 4.0]);
        let extended = prefix.with_column(&extra).unwrap();
        for _ in 0..500 {
            assert_eq!(ev.prefix_key(&prefix, &extra), ev.cache_key(&extended));
            ev.evaluate(&extended).unwrap();
        }
        assert_eq!(ev.scorer().digests.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn different_content_misses() {
        let ev = Evaluator::new(CountingScorer::new(1));
        ev.evaluate(&frame(vec![1.0])).unwrap();
        ev.evaluate(&frame(vec![2.0])).unwrap();
        assert_eq!(ev.scorer().calls.load(Ordering::SeqCst), 2);
    }
}
