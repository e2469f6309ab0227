//! The weighted-MinHash family: classic MinHash plus the four consistent
//! weighted sampling (CWS) schemes compared in the paper's Table III —
//! ICWS (Ioffe 2010), 0-bit CWS (Li 2015, the paper's `E-AFE^L`),
//! PCWS (Wu et al. 2017, `E-AFE^P`) and CCWS (Wu et al. 2016, the paper's
//! default, plain `E-AFE`).
//!
//! All schemes produce, per hash function, the index of one input dimension
//! sampled consistently: the probability that two weighted sets pick the
//! same (index, t) pair equals (approximately, for the newer variants) their
//! generalised Jaccard similarity.

use crate::compressor::{WEIGHT_CEILING, WEIGHT_FLOOR};
use crate::error::{MinHashError, Result};
use crate::rng::{beta21, gamma21, mix, uniform_open};
use crate::signature::{SigElement, Signature};
use crate::tables::{self, RowSource};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Discretise a CWS `t = ⌊…⌋` value into the compact `i32` stored in
/// [`SigElement`]. The `as` cast saturates at the `i32` bounds (and maps
/// NaN, which the floor of a finite expression never produces, to 0), so
/// the astronomically rare out-of-range draw — requiring `r < |ln w| / 2³¹`,
/// probability below ~10⁻¹⁶ per draw at compressor weight scales — collapses
/// into the boundary bucket instead of wrapping. Both the scalar reference
/// and the table-driven kernels funnel through this one function, which is
/// part of why they are bit-identical.
pub(crate) fn discretize_t(t: f64) -> i32 {
    t as i32
}

/// Whether a weight puts its dimension in the support: strictly positive
/// and finite. Anything else carries no mass and can never win a hash.
pub(crate) fn in_support(w: f64) -> bool {
    w > 0.0 && w.is_finite()
}

fn empty_support() -> MinHashError {
    MinHashError::InvalidParam("weight vector has empty support (all weights zero)".into())
}

/// Which hashing scheme to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HashFamily {
    /// Classic unweighted MinHash over the support (non-zero dimensions).
    MinHash,
    /// Improved consistent weighted sampling (Ioffe 2010).
    Icws,
    /// 0-bit CWS (Li 2015): ICWS keeping only the winning dimension.
    ZeroBitCws,
    /// Practical CWS (Wu et al. 2017): one gamma replaced by uniforms.
    Pcws,
    /// Canonical CWS (Wu et al. 2016): samples on raw weights, no log —
    /// the paper's default family.
    Ccws,
}

impl HashFamily {
    /// All families, in the order the paper's Table III reports them.
    pub const ALL: [HashFamily; 5] = [
        HashFamily::MinHash,
        HashFamily::Icws,
        HashFamily::ZeroBitCws,
        HashFamily::Pcws,
        HashFamily::Ccws,
    ];

    /// Display name matching the paper's notation.
    pub fn name(self) -> &'static str {
        match self {
            HashFamily::MinHash => "MinHash",
            HashFamily::Icws => "ICWS",
            HashFamily::ZeroBitCws => "0bit-CWS",
            HashFamily::Pcws => "PCWS",
            HashFamily::Ccws => "CCWS",
        }
    }
}

/// A seeded weighted-MinHash hasher producing `d`-element signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightedMinHasher {
    /// Hashing scheme.
    pub family: HashFamily,
    /// Signature length (the paper's default output dimension is 48).
    pub d: usize,
    /// Seed shared by all hash functions (each hash mixes in its index).
    pub seed: u64,
}

impl WeightedMinHasher {
    /// Create a hasher; `d` must be non-zero.
    pub fn new(family: HashFamily, d: usize, seed: u64) -> Result<Self> {
        if d == 0 {
            return Err(MinHashError::InvalidParam(
                "signature dimension d must be > 0".into(),
            ));
        }
        Ok(Self { family, d, seed })
    }

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

    /// Compute the signature of a non-negative weight vector via the scalar
    /// reference path, re-deriving every per-hash draw on the fly. Weights
    /// that are zero, negative, or non-finite are filtered out of the
    /// support and never win. Prefer [`signature_tabled`] /
    /// [`signature_batch`] in hot loops — they are bit-identical and
    /// amortise the draw derivations into a precomputed table. This path
    /// stays as the oracle the table kernel is tested against.
    ///
    /// [`signature_tabled`]: WeightedMinHasher::signature_tabled
    /// [`signature_batch`]: WeightedMinHasher::signature_batch
    pub fn signature(&self, weights: &[f64]) -> Result<Signature> {
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

    /// Compute the signature via the precomputed [`tables::DrawTables`]
    /// fast path — bit-identical to [`signature`](WeightedMinHasher::signature)
    /// (pinned by the `table_parity` proptest suite) but with the draws
    /// that cost a logarithm read from a table, and without visiting rows
    /// that cannot win when every weight in the support lies in the
    /// compressor's `[floor, ceiling]` (one pass over the weights finds
    /// out). The table for this `(family, d, seed)` is created/grown
    /// lazily and shared process-wide.
    pub fn signature_tabled(&self, weights: &[f64]) -> Result<Signature> {
        let bounded = weights
            .iter()
            .all(|&w| !in_support(w) || (WEIGHT_FLOOR..=WEIGHT_CEILING).contains(&w));
        self.sketch(bounded, |w| w, weights)
    }

    /// Sketch many weight vectors. Bit-identical to calling
    /// [`signature`](WeightedMinHasher::signature) per column; errors if
    /// any column is empty or has an empty support.
    pub fn signature_batch(&self, columns: &[&[f64]]) -> Result<Vec<Signature>> {
        telemetry::count("minhash.batch_cols", columns.len() as u64);
        columns.iter().map(|w| self.signature_tabled(w)).collect()
    }

    /// The one entry into the table kernel: sketch `rows` under `weight`
    /// (see [`tables::DrawTables::sketch`]), with the scalar path's errors
    /// for an empty column and an empty support.
    pub(crate) fn sketch<S: RowSource + ?Sized>(
        &self,
        bounded: bool,
        weight: impl Fn(f64) -> f64,
        rows: &S,
    ) -> Result<Signature> {
        if rows.n_rows() == 0 {
            return Err(MinHashError::EmptyInput);
        }
        let start = telemetry::enabled().then(Instant::now);
        let elements = tables::draw_tables(self).sketch(bounded, weight, rows)?;
        if let Some(start) = start {
            telemetry::record("minhash.sig_us", start.elapsed().as_micros() as u64);
        }
        elements.map(Signature::new).ok_or_else(empty_support)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::generalized_jaccard;

    fn weights_a() -> Vec<f64> {
        vec![1.0, 2.0, 0.0, 4.0, 0.5, 3.0, 0.0, 1.5]
    }

    fn weights_b() -> Vec<f64> {
        vec![1.0, 2.0, 0.0, 4.0, 0.5, 0.0, 2.0, 1.5]
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(WeightedMinHasher::new(HashFamily::Ccws, 0, 1).is_err());
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
            assert_eq!(s1.len(), 32);
        }
    }

    #[test]
    fn identical_inputs_collide_fully() {
        for family in HashFamily::ALL {
            let h = WeightedMinHasher::new(family, 16, 3).unwrap();
            let a = h.signature(&weights_a()).unwrap();
            let b = h.signature(&weights_a()).unwrap();
            assert_eq!(a.similarity(&b).unwrap(), 1.0, "{family:?}");
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
            for sig in [h.signature(&w).unwrap(), h.signature_tabled(&w).unwrap()] {
                for key in sig.keys() {
                    assert!(valid.contains(&key), "{family:?} picked filtered dim {key}");
                }
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
}
