//! The caching evaluator: content-addressed memoization over any scorer.
//!
//! [`Scorer`] is the narrow interface a downstream evaluation backend
//! (in practice `learners::Evaluator`) implements; [`Evaluator`] wraps a
//! scorer with a shared [`ScoreCache`] so identical (dataset content,
//! learner config, folds, CV seed) evaluations are computed once.

use crate::cache::{CacheStats, ScoreCache};
use crate::fingerprint::{Fingerprint, KeyPrefix};
use std::sync::Arc;
use tabular::DataFrame;

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
        self.key_of(&KeyPrefix::of_frame(frame))
    }

    /// The cache key of the frame `prefix` describes — for a caller that
    /// keeps its columns' digests (and pushes a candidate's) instead of
    /// holding the frame: `cache_key` of that frame, at the cost of a few
    /// dozen bytes of combine.
    pub fn key_of(&self, prefix: &KeyPrefix) -> Fingerprint {
        prefix.clone().finish(self.config)
    }

    /// Evaluate `frame`, serving repeats from cache. Errors are not
    /// cached: a failing evaluation is re-attempted on the next call.
    pub fn evaluate(&self, frame: &DataFrame) -> Result<f64, S::Error> {
        self.evaluate_keyed(self.cache_key(frame), |scorer| scorer.score_frame(frame))
    }

    /// The score cached under `key` (from [`cache_key`](Self::cache_key)
    /// or [`key_of`](Self::key_of)), or on a miss whatever `miss` computes
    /// with the scorer — cached under `key`, so it must be the score of
    /// the frame `key` addresses. The miss arm chooses what the scorer
    /// reads: a frame, or state it keeps instead of one.
    pub fn evaluate_keyed<E>(
        &self,
        key: Fingerprint,
        miss: impl FnOnce(&S) -> Result<f64, E>,
    ) -> Result<f64, E> {
        if let Some(score) = self.cache.get(key) {
            telemetry::count("evaluator.cache_hits", 1);
            return Ok(score);
        }
        let score = {
            let _span = telemetry::span("evaluator.score_frame");
            miss(&self.scorer)?
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
        let selected = frame(vec![1.0, 2.0]);
        let extra = Column::new("x", vec![3.0, 4.0]);
        let extended = selected
            .with_extra_columns(std::slice::from_ref(&extra))
            .unwrap();
        let mut prefix = KeyPrefix::of_frame(&selected);
        prefix.push(&extra.name, crate::fingerprint_values(&extra.values));
        for _ in 0..500 {
            assert_eq!(ev.key_of(&prefix), ev.cache_key(&extended));
            ev.evaluate(&extended).unwrap();
        }
        assert_eq!(ev.scorer().digests.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_keyed_miss_hands_its_arm_the_scorer_and_caches_what_it_returns() {
        let ev = Evaluator::new(CountingScorer::new(1));
        let f = frame(vec![1.0, 2.0]);
        let key = ev.cache_key(&f);
        let miss = ev.evaluate_keyed(key, |s| {
            assert_eq!(s.digest, 1);
            Ok::<_, std::convert::Infallible>(9.5)
        });
        assert_eq!(miss.unwrap(), 9.5);
        let hit = ev.evaluate_keyed(key, |_| -> Result<f64, ()> { unreachable!("a hit") });
        assert_eq!(hit.unwrap(), 9.5);
        assert_eq!(ev.evaluate(&f).unwrap(), 9.5);
        assert_eq!(ev.scorer().calls.load(Ordering::SeqCst), 0);
        let failed = ev.evaluate_keyed(Fingerprint(3), |_| Err::<f64, _>("no"));
        assert!(failed.is_err());
        assert!(
            !ev.cache().contains(Fingerprint(3)),
            "errors are not cached"
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
