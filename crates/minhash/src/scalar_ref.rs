#![cfg(test)]
//! The scalar CWS reference — the oracle the table kernel of
//! [`crate::tables`] is held to, bit for bit — and everything else only
//! tests use. Test-only: the library sketches through
//! [`SampleCompressor`] and its draw tables alone.
//!
//! - [`WeightedMinHasher::signature`] re-derives every draw of every
//!   `(hash index, dimension)` pair on the fly from the counter-based RNG,
//!   at the same `(seed, i, k, slot)` counters the tables store or derive,
//!   over any weight vector (zeros, negatives and non-finite weights are
//!   dropped from the support);
//! - [`SampleCompressor::to_weights`] is the weight vector a compressor
//!   sketch sees, [`SampleCompressor::compress`] /
//!   [`SampleCompressor::compress_normalized`] the one-call compressions;
//! - [`Signature::similarity`] and [`generalized_jaccard`] are the paper's
//!   Eq. (2) estimator and its ground truth.
//!
//! Parity suite: `crate::table_parity`.

use crate::compressor::{SampleCompressor, WeightBounds};
use crate::error::{MinHashError, Result};
use crate::families::{discretize_t, empty_support, in_support, HashFamily, WeightedMinHasher};
use crate::rng::{beta21, gamma21, mix, uniform_open};
use crate::signature::{SigElement, Signature};

impl WeightedMinHasher {
    /// Extract the weighted set's support: `(dimension, weight)` pairs for
    /// every strictly positive, finite weight. Zero, negative, and
    /// non-finite (NaN/±∞) weights are **filtered out** — they carry no
    /// support mass and can never win a hash. Errors on an empty input or
    /// an empty support.
    pub(crate) fn support(weights: &[f64]) -> Result<Vec<(usize, f64)>> {
        if weights.is_empty() {
            return Err(MinHashError::EmptyInput);
        }
        let support: Vec<(usize, f64)> = weights
            .iter()
            .enumerate()
            .filter_map(|(k, &w)| in_support(w).then_some((k, w)))
            .collect();
        if support.is_empty() {
            return Err(empty_support());
        }
        Ok(support)
    }

    /// The signature of a weight vector by the scalar reference path,
    /// re-deriving every per-hash draw on the fly. Weights that are zero,
    /// negative, or non-finite are filtered out of the support and never
    /// win.
    pub(crate) fn signature(&self, weights: &[f64]) -> Result<Signature> {
        let support = Self::support(weights)?;
        let mut elements = Vec::with_capacity(self.d);
        for i in 0..self.d as u64 {
            elements.push(match self.family {
                HashFamily::MinHash => self.minhash_element(i, &support),
                HashFamily::Icws => self.icws_element(i, &support, true),
                HashFamily::ZeroBitCws => self.icws_element(i, &support, false),
                HashFamily::Pcws => self.pcws_element(i, &support),
                HashFamily::Ccws => self.ccws_element(i, &support),
            });
        }
        Ok(Signature::new(elements))
    }

    /// Classic MinHash: the support dimension with the minimum hash value.
    fn minhash_element(&self, i: u64, support: &[(usize, f64)]) -> SigElement {
        let hashed = support
            .iter()
            .map(|&(k, _)| (k, mix(self.seed, i, k as u64, 0)));
        // `support` never returns an empty support.
        let best_k = hashed.min_by_key(|&(_, h)| h).map_or(0, |(k, _)| k);
        SigElement {
            key: best_k as u32,
            t: 0,
        }
    }

    /// ICWS (Ioffe 2010). For each support dimension k:
    /// r, c ~ Gamma(2,1), β ~ U(0,1);
    /// t = ⌊ln w / r + β⌋, y = exp(r(t − β)), a = c / (y·eʳ).
    /// The minimum `a` wins; the signature element is (k*, t*).
    /// With `keep_t = false` this degenerates to 0-bit CWS.
    fn icws_element(&self, i: u64, support: &[(usize, f64)], keep_t: bool) -> SigElement {
        let mut best = (0usize, 0i32, f64::INFINITY);
        for &(k, w) in support {
            let kk = k as u64;
            let r = gamma21(self.seed, i, kk, 1);
            let c = gamma21(self.seed, i, kk, 2);
            let beta = uniform_open(self.seed, i, kk, 3);
            let t = (w.ln() / r + beta).floor();
            let y = (r * (t - beta)).exp();
            let a = c / (y * r.exp());
            if a < best.2 {
                best = (k, discretize_t(t), a);
            }
        }
        SigElement {
            key: best.0 as u32,
            t: if keep_t { best.1 } else { 0 },
        }
    }

    /// PCWS (Wu et al. 2017): ICWS with the second gamma replaced by a
    /// uniform: a = −ln x / (y·eʳ), x ~ U(0,1).
    fn pcws_element(&self, i: u64, support: &[(usize, f64)]) -> SigElement {
        let mut best = (0usize, 0i32, f64::INFINITY);
        for &(k, w) in support {
            let kk = k as u64;
            let r = gamma21(self.seed, i, kk, 1);
            let x = uniform_open(self.seed, i, kk, 2);
            let beta = uniform_open(self.seed, i, kk, 3);
            let t = (w.ln() / r + beta).floor();
            let y = (r * (t - beta)).exp();
            let a = -(x.ln()) / (y * r.exp());
            if a < best.2 {
                best = (k, discretize_t(t), a);
            }
        }
        SigElement {
            key: best.0 as u32,
            t: best.1,
        }
    }

    /// CCWS (Wu et al. 2016): samples on the raw weights instead of their
    /// logarithms: r ~ Beta(2,1), c ~ Gamma(2,1), β ~ U(0,1);
    /// t = ⌊w / r + β⌋, y = r(t − β), a = c / y (y > 0 given w > 0).
    fn ccws_element(&self, i: u64, support: &[(usize, f64)]) -> SigElement {
        let mut best = (0usize, 0i32, f64::INFINITY);
        for &(k, w) in support {
            let kk = k as u64;
            let r = beta21(self.seed, i, kk, 1);
            let c = gamma21(self.seed, i, kk, 2);
            let beta = uniform_open(self.seed, i, kk, 3);
            let t = (w / r + beta).floor();
            let y = (r * (t - beta)).max(f64::MIN_POSITIVE);
            let a = c / y;
            if a < best.2 {
                best = (k, discretize_t(t), a);
            }
        }
        SigElement {
            key: best.0 as u32,
            t: best.1,
        }
    }
}

impl SampleCompressor {
    /// The weights a sketch of the column sees (see [`WeightBounds`]) —
    /// the weight vector to hand [`WeightedMinHasher::signature`].
    pub(crate) fn to_weights(values: &[f64]) -> Vec<f64> {
        let mut bounds = WeightBounds::new();
        bounds.absorb(values);
        values.iter().map(|&v| bounds.weight(v)).collect()
    }

    /// Compress one feature column to exactly `d` values: the column's
    /// values at the `d` consistently-sampled indices.
    pub(crate) fn compress(&self, values: &[f64]) -> Result<Vec<f64>> {
        let sig = self.signature(values)?;
        Ok(self.compress_with_signature(values, &sig))
    }

    /// Compress and then z-score normalise.
    pub(crate) fn compress_normalized(&self, values: &[f64]) -> Result<Vec<f64>> {
        let sig = self.signature(values)?;
        Ok(self.compress_normalized_with_signature(values, &sig))
    }
}

impl Signature {
    /// Estimate the (generalised) Jaccard similarity between the underlying
    /// weighted sets: the fraction of colliding signature elements — the
    /// estimator whose concentration the paper's Eq. (2) constraint relies
    /// on. `None` for signatures of different or zero length.
    pub(crate) fn similarity(&self, other: &Signature) -> Option<f64> {
        let (a, b) = (&self.elements, &other.elements);
        if a.len() != b.len() || a.is_empty() {
            return None;
        }
        let hits = a.iter().zip(b).filter(|(x, y)| x == y).count();
        Some(hits as f64 / a.len() as f64)
    }
}

/// Exact generalised Jaccard similarity of two non-negative weight vectors:
/// `Σ min(aᵢ, bᵢ) / Σ max(aᵢ, bᵢ)`. Ground truth for testing the estimator;
/// `None` for vectors of different or zero length.
pub(crate) fn generalized_jaccard(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.is_empty() {
        return None;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        num += x.min(y);
        den += x.max(y);
    }
    if den <= 0.0 {
        return Some(1.0); // both all-zero: identical sets
    }
    Some(num / den)
}

mod tests {
    use super::*;
    use proptest::prelude::*;

    fn weights_a() -> Vec<f64> {
        vec![1.0, 2.0, 0.0, 4.0, 0.5, 3.0, 0.0, 1.5]
    }

    fn weights_b() -> Vec<f64> {
        vec![1.0, 2.0, 0.0, 4.0, 0.5, 0.0, 2.0, 1.5]
    }

    fn sig(pairs: &[(u32, i32)]) -> Signature {
        Signature::new(
            pairs
                .iter()
                .map(|&(key, t)| SigElement { key, t })
                .collect(),
        )
    }

    #[test]
    fn rejects_empty_inputs_and_supports() {
        let h = WeightedMinHasher::new(HashFamily::Ccws, 8, 1).unwrap();
        assert!(h.signature(&[]).is_err());
        assert!(h.signature(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn signature_is_deterministic_and_seed_sensitive() {
        for family in HashFamily::ALL {
            let h1 = WeightedMinHasher::new(family, 32, 7).unwrap();
            let h2 = WeightedMinHasher::new(family, 32, 8).unwrap();
            let s1 = h1.signature(&weights_a()).unwrap();
            let s2 = h1.signature(&weights_a()).unwrap();
            let s3 = h2.signature(&weights_a()).unwrap();
            assert_eq!(s1, s2, "{family:?} not deterministic");
            assert_ne!(s1, s3, "{family:?} ignores seed");
            assert_eq!(s1.elements.len(), 32);
        }
    }

    #[test]
    fn identical_inputs_collide_fully() {
        for family in HashFamily::ALL {
            let h = WeightedMinHasher::new(family, 16, 3).unwrap();
            let a = h.signature(&weights_a()).unwrap();
            let b = h.signature(&weights_a()).unwrap();
            assert_eq!(a.similarity(&b), Some(1.0), "{family:?}");
        }
    }

    #[test]
    fn zero_weight_dimensions_never_win() {
        for family in HashFamily::ALL {
            let h = WeightedMinHasher::new(family, 64, 5).unwrap();
            let sig = h.signature(&weights_a()).unwrap();
            for key in sig.keys() {
                assert!(weights_a()[key] > 0.0, "{family:?} picked zero-weight dim");
            }
        }
    }

    #[test]
    fn negative_and_non_finite_weights_never_win() {
        // The support filter drops (not clamps) anything that is not a
        // strictly positive finite weight: negatives, NaN, and ±∞ must be
        // unreachable as winning dimensions for every family.
        let w = vec![
            1.0,
            -5.0,
            f64::NAN,
            2.0,
            f64::INFINITY,
            0.5,
            f64::NEG_INFINITY,
            -0.0,
            3.0,
        ];
        let valid: Vec<usize> = vec![0, 3, 5, 8];
        for family in HashFamily::ALL {
            let h = WeightedMinHasher::new(family, 128, 41).unwrap();
            for key in h.signature(&w).unwrap().keys() {
                assert!(valid.contains(&key), "{family:?} picked filtered dim {key}");
            }
        }
        // A vector with no positive finite weight has an empty support.
        let h = WeightedMinHasher::new(HashFamily::Ccws, 8, 41).unwrap();
        assert!(h.signature(&[-1.0, f64::NAN, f64::INFINITY]).is_err());
    }

    #[test]
    fn similarity_estimate_tracks_generalized_jaccard() {
        // Eq. (2) of the paper: compressed similarity ≈ true similarity.
        let truth = generalized_jaccard(&weights_a(), &weights_b()).unwrap();
        for family in [HashFamily::Icws, HashFamily::Pcws, HashFamily::Ccws] {
            let h = WeightedMinHasher::new(family, 2048, 11).unwrap();
            let est = h
                .signature(&weights_a())
                .unwrap()
                .similarity(&h.signature(&weights_b()).unwrap())
                .unwrap();
            assert!(
                (est - truth).abs() < 0.1,
                "{family:?}: est {est:.3} vs truth {truth:.3}"
            );
        }
    }

    #[test]
    fn icws_estimate_is_unbiased_enough() {
        // Sharper check for the theoretically exact family.
        let truth = generalized_jaccard(&weights_a(), &weights_b()).unwrap();
        let h = WeightedMinHasher::new(HashFamily::Icws, 8192, 13).unwrap();
        let est = h
            .signature(&weights_a())
            .unwrap()
            .similarity(&h.signature(&weights_b()).unwrap())
            .unwrap();
        assert!(
            (est - truth).abs() < 0.05,
            "est {est:.3} vs truth {truth:.3}"
        );
    }

    #[test]
    fn zero_bit_collides_at_least_as_often_as_icws() {
        // 0-bit CWS drops the t component, so collisions are a superset.
        let hi = WeightedMinHasher::new(HashFamily::Icws, 512, 17).unwrap();
        let hz = WeightedMinHasher::new(HashFamily::ZeroBitCws, 512, 17).unwrap();
        let si = hi
            .signature(&weights_a())
            .unwrap()
            .similarity(&hi.signature(&weights_b()).unwrap())
            .unwrap();
        let sz = hz
            .signature(&weights_a())
            .unwrap()
            .similarity(&hz.signature(&weights_b()).unwrap())
            .unwrap();
        assert!(sz >= si, "0-bit {sz} < icws {si}");
    }

    #[test]
    fn heavier_weights_win_more_often() {
        // Dimension 0 has weight 10, dimension 1 weight 1: under consistent
        // weighted sampling dim 0 should win ≈ 10/11 of hashes.
        let w = vec![10.0, 1.0];
        for family in [HashFamily::Icws, HashFamily::Pcws, HashFamily::Ccws] {
            let h = WeightedMinHasher::new(family, 4096, 23).unwrap();
            let sig = h.signature(&w).unwrap();
            let zero_wins = sig.keys().filter(|&k| k == 0).count() as f64 / 4096.0;
            assert!(
                zero_wins > 0.75,
                "{family:?}: heavy dim won only {zero_wins:.3}"
            );
        }
    }

    #[test]
    fn weights_are_positive_and_handle_negatives() {
        let w = SampleCompressor::to_weights(&[-5.0, 0.0, 5.0, f64::NAN]);
        assert_eq!(w.len(), 4);
        assert!(w.iter().all(|&x| x > 0.0));
        assert!(w[2] > w[1] && w[1] > w[0]);
    }

    #[test]
    fn identical_signatures_have_similarity_one() {
        let s = sig(&[(1, 0), (2, 3), (5, -1)]);
        assert_eq!(s.similarity(&s), Some(1.0));
    }

    #[test]
    fn disjoint_signatures_have_similarity_zero() {
        let a = sig(&[(1, 0), (2, 0)]);
        let b = sig(&[(3, 0), (4, 0)]);
        assert_eq!(a.similarity(&b), Some(0.0));
    }

    #[test]
    fn partial_collision_counts_fraction() {
        let a = sig(&[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let b = sig(&[(1, 0), (2, 1), (3, 0), (9, 0)]);
        // key matches at 0 and 2; position 1 differs in t.
        assert_eq!(a.similarity(&b), Some(0.5));
    }

    #[test]
    fn mismatched_or_empty_signatures_have_no_similarity() {
        let a = sig(&[(1, 0)]);
        let b = sig(&[(1, 0), (2, 0)]);
        assert_eq!(a.similarity(&b), None);
        let empty = sig(&[]);
        assert_eq!(empty.similarity(&empty), None);
    }

    #[test]
    fn generalized_jaccard_basics() {
        assert_eq!(generalized_jaccard(&[1.0, 2.0], &[1.0, 2.0]), Some(1.0));
        assert_eq!(generalized_jaccard(&[1.0, 0.0], &[0.0, 1.0]), Some(0.0));
        // min-sum 1+1=2, max-sum 2+3=5.
        assert!((generalized_jaccard(&[2.0, 1.0], &[1.0, 3.0]).unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(generalized_jaccard(&[0.0], &[0.0]), Some(1.0));
        assert_eq!(generalized_jaccard(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(generalized_jaccard(&[], &[]), None);
    }

    fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(-1e6f64..1e6, len)
    }

    proptest! {
        /// Identical weighted sets collide on every signature element for
        /// every family; the estimator then reports similarity exactly 1.
        #[test]
        fn identical_sets_full_collision(values in finite_vec(2..100), fam in 0usize..5) {
            let weights = SampleCompressor::to_weights(&values);
            let hasher = WeightedMinHasher::new(HashFamily::ALL[fam], 16, 3).unwrap();
            let s1 = hasher.signature(&weights).unwrap();
            let s2 = hasher.signature(&weights).unwrap();
            prop_assert_eq!(s1.similarity(&s2), Some(1.0));
        }

        /// Eq. (2): the signature-collision similarity estimate of two related
        /// weight vectors stays within ε of the exact generalised Jaccard
        /// similarity (ICWS, large d, tolerance from Chernoff at d = 1024).
        #[test]
        fn similarity_preservation(seed_vals in finite_vec(8..40), bump in 0.0f64..2.0) {
            let a = SampleCompressor::to_weights(&seed_vals);
            let mut b = a.clone();
            for (i, v) in b.iter_mut().enumerate() {
                if i % 3 == 0 { *v += bump; }
            }
            let truth = generalized_jaccard(&a, &b).unwrap();
            let hasher = WeightedMinHasher::new(HashFamily::Icws, 1024, 11).unwrap();
            let est = hasher
                .signature(&a).unwrap()
                .similarity(&hasher.signature(&b).unwrap())
                .unwrap();
            prop_assert!((est - truth).abs() < 0.12, "est {} vs truth {}", est, truth);
        }
    }
}
