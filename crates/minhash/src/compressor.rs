//! The E-AFE **sample compressor**: project a feature column of arbitrary
//! length `M` onto a fixed-size vector of `d` values — the only way this
//! crate sketches.
//!
//! Following the paper (§III-B): "The basic idea of MinHash is to assign the
//! target dimension hashing values, and select d instances with the minimum
//! hashing values as the compressed results." Each of the `d` hash functions
//! consistently selects one sample index; the compressed feature is the
//! original column's value at those indices. Because selection is consistent
//! (weighted MinHash), similar columns produce similar compressed vectors —
//! the Eq. (2) constraint — and the output length is independent of `M`,
//! which is what lets one pre-trained FPE classifier serve every dataset.
//!
//! A sketch weighs row `k` by its min-shifted, range-scaled value (see
//! [`WeightBounds`]), so every weight lies in
//! `[WEIGHT_FLOOR, WEIGHT_CEILING]` by construction: the bound the sketch
//! kernel's visit and dense-scan filter rest on.

use crate::error::Result;
use crate::families::{HashFamily, WeightedMinHasher};
use crate::signature::Signature;
use crate::tables::{self, RowSource};
use serde::{Deserialize, Serialize};

/// Small floor added to every weight so all samples stay in the support —
/// and the smallest weight [`WeightBounds::weight`] can produce: with
/// `v ≥ lo` the quotient is non-negative, and adding it to the floor
/// cannot round below the floor.
pub(crate) const WEIGHT_FLOOR: f64 = 1e-6;

/// The largest weight [`WeightBounds::weight`] can produce. With
/// `lo ≤ v ≤ hi`, correctly rounded subtraction, division and addition are
/// monotone, so `(v − lo)/span + floor ≤ span/span + floor` — this very
/// sum — whether or not `span` was clamped. The sketch kernel's row bounds
/// are the hash values at this weight, and its dense scan relies on both
/// ends of `[WEIGHT_FLOOR, WEIGHT_CEILING]`.
pub(crate) const WEIGHT_CEILING: f64 = 1.0 + WEIGHT_FLOOR;

/// Accumulator for the finite min/max bounds a column's weights are
/// normalised by. Absorbing a column's chunks in row order produces bounds
/// bit-identical to the flat fold: each bound is the same sequential
/// `f64::min` / `f64::max` fold over the finite values in row order (order
/// matters for the `-0.0`/`0.0` bit pattern, so no set-shortcut is taken).
#[derive(Debug, Clone, Copy)]
pub struct WeightBounds {
    lo: f64,
    hi: f64,
}

impl Default for WeightBounds {
    fn default() -> Self {
        Self::new()
    }
}

impl WeightBounds {
    /// Empty bounds (no finite value absorbed yet).
    pub fn new() -> Self {
        WeightBounds {
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
        }
    }

    /// Fold one batch of raw values into the bounds, in row order.
    pub fn absorb(&mut self, values: &[f64]) {
        for &v in values {
            if v.is_finite() {
                self.lo = self.lo.min(v);
                self.hi = self.hi.max(v);
            }
        }
    }

    /// The non-negative weight weighted MinHash sees for one raw value:
    /// min-shift to zero, scale to [0, 1] and add a small floor so every
    /// sample stays in the support. Non-finite values, and every value when
    /// no finite one was absorbed, get the floor weight. For a value inside
    /// the bounds the weight lies in `[WEIGHT_FLOOR, WEIGHT_CEILING]`, or is
    /// NaN (`∞/∞` when `hi − lo` overflows), which no sketch counts.
    pub(crate) fn weight(&self, v: f64) -> f64 {
        if self.lo > self.hi {
            return WEIGHT_FLOOR; // no finite value absorbed
        }
        let span = (self.hi - self.lo).max(1e-12);
        if v.is_finite() {
            (v - self.lo) / span + WEIGHT_FLOOR
        } else {
            WEIGHT_FLOOR
        }
    }
}

/// Compresses feature columns of arbitrary length into `d` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleCompressor {
    hasher: WeightedMinHasher,
}

impl SampleCompressor {
    /// New compressor with the given family, output dimension `d` (the
    /// paper's default is 48 with CCWS) and seed.
    pub fn new(family: HashFamily, d: usize, seed: u64) -> Result<Self> {
        Ok(Self {
            hasher: WeightedMinHasher::new(family, d, seed)?,
        })
    }

    /// Output dimension `d`.
    pub fn d(&self) -> usize {
        self.hasher.d
    }

    /// The hash family in use.
    pub fn family(&self) -> HashFamily {
        self.hasher.family
    }

    /// The seed shared by all hash functions (part of any content-addressed
    /// cache key for this compressor's output).
    pub fn seed(&self) -> u64 {
        self.hasher.seed
    }

    /// The column's MinHash signature — the content-addressed unit the
    /// runtime's `SignatureCache` stores, from which
    /// [`compress_normalized_with_signature`](Self::compress_normalized_with_signature)
    /// rebuilds the compressed vector with a plain gather.
    pub fn signature(&self, values: &[f64]) -> Result<Signature> {
        let mut bounds = WeightBounds::new();
        bounds.absorb(values);
        self.signature_indexed(bounds, values)
    }

    /// Signatures for many columns (each column's signature bit-identical
    /// to [`signature`](Self::signature)).
    pub fn signature_batch(&self, columns: &[&[f64]]) -> Result<Vec<Signature>> {
        telemetry::count("minhash.batch_cols", columns.len() as u64);
        columns.iter().map(|c| self.signature(c)).collect()
    }

    /// Build this compressor's draw table for columns of up to `rows` rows
    /// ahead of the first sketch. The work is `d` independent jobs:
    /// `run(d, job)` may call `job(i)` for any `i < d`, in any order, on
    /// any threads, and must return only once those calls have; a job it
    /// does not run is run here, on the caller — as all of them are when a
    /// sketch finds the table too small.
    pub fn prepare_rows(
        &self,
        rows: usize,
        run: impl FnOnce(usize, &(dyn Fn(usize) + Sync)),
    ) -> Result<()> {
        tables::draw_tables(&self.hasher).grow(rows, run)
    }

    /// The signature of a column that is not a flat slice — e.g. one held
    /// as encoded chunks. `bounds` must come from a [`WeightBounds`] fold
    /// over the same rows in row order; the signature is then bit-identical
    /// to [`signature`](Self::signature) over the flat column.
    pub fn signature_indexed<S: RowSource + ?Sized>(
        &self,
        bounds: WeightBounds,
        rows: &S,
    ) -> Result<Signature> {
        self.hasher.sketch(bounds, rows)
    }

    /// Gather the compressed vector for a column from its signature: the
    /// column's values at the `d` selected indices (non-finite values map
    /// to 0).
    pub(crate) fn compress_with_signature<S: RowSource + ?Sized>(
        &self,
        rows: &S,
        sig: &Signature,
    ) -> Vec<f64> {
        sig.keys()
            .map(|k| {
                let v = rows.value_at(k);
                if v.is_finite() {
                    v
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// The FPE classifier's input for a column: the gather of
    /// `compress_with_signature`, z-score normalised so columns with
    /// different raw scales are comparable across datasets (a near-constant
    /// vector flattens to 0). `rows` is the flat column or any other
    /// [`RowSource`] over the same values, with bit-identical output.
    pub fn compress_normalized_with_signature<S: RowSource + ?Sized>(
        &self,
        rows: &S,
        sig: &Signature,
    ) -> Vec<f64> {
        let mut out = self.compress_with_signature(rows, sig);
        let n = out.len() as f64;
        let mean = out.iter().sum::<f64>() / n;
        let var = out.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let std = var.sqrt();
        if std > 1e-12 {
            for v in out.iter_mut() {
                *v = (*v - mean) / std;
            }
        } else {
            out.fill(0.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compressor() -> SampleCompressor {
        SampleCompressor::new(HashFamily::Ccws, 48, 0xE_AFE).unwrap()
    }

    #[test]
    fn output_has_fixed_dimension_regardless_of_input_length() {
        let c = compressor();
        for n in [10usize, 100, 1000, 48, 7] {
            let values: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 3.0 - 1.0).collect();
            let out = c.compress(&values).unwrap();
            assert_eq!(out.len(), 48, "input length {n}");
        }
    }

    #[test]
    fn compression_is_deterministic() {
        let c = compressor();
        let values: Vec<f64> = (0..500).map(|i| (i as f64 * 0.37).cos()).collect();
        assert_eq!(c.compress(&values).unwrap(), c.compress(&values).unwrap());
    }

    #[test]
    fn compressed_values_come_from_the_input() {
        let c = compressor();
        let values: Vec<f64> = (0..200).map(|i| i as f64 * 10.0).collect();
        for v in c.compress(&values).unwrap() {
            assert!(values.contains(&v), "{v} not in input");
        }
    }

    #[test]
    fn constant_column_compresses_without_error() {
        let c = compressor();
        let out = c.compress(&vec![3.0; 100]).unwrap();
        assert!(out.iter().all(|&v| v == 3.0));
        let norm = c.compress_normalized(&vec![3.0; 100]).unwrap();
        assert!(norm.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn normalized_output_is_zero_mean_unit_std() {
        let c = compressor();
        let values: Vec<f64> = (0..300)
            .map(|i| (i as f64 * 1.7).sin() * 40.0 + 7.0)
            .collect();
        let out = c.compress_normalized(&values).unwrap();
        let mean: f64 = out.iter().sum::<f64>() / out.len() as f64;
        let var: f64 = out.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / out.len() as f64;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn similar_columns_compress_similarly() {
        // Eq. (2): |sim(D¹,D²) − sim(D̃¹,D̃²)| < ε in spirit — a column and a
        // lightly perturbed copy should share most selected indices.
        let c = SampleCompressor::new(HashFamily::Ccws, 64, 1).unwrap();
        let a: Vec<f64> = (0..400).map(|i| (i as f64 * 0.11).sin() + 2.0).collect();
        let b: Vec<f64> = a.iter().map(|v| v * 1.01).collect();
        let ca = c.compress(&a).unwrap();
        let cb = c.compress(&b).unwrap();
        let close = ca
            .iter()
            .zip(&cb)
            .filter(|(x, y)| (**x - **y / 1.01).abs() < 1e-9)
            .count();
        assert!(
            close > 40,
            "only {close}/64 indices stable under perturbation"
        );
    }

    #[test]
    fn empty_input_errors() {
        assert!(compressor().compress(&[]).is_err());
    }

    /// A column split into chunks: the shape an out-of-core caller hands
    /// to [`SampleCompressor::signature_indexed`].
    struct Chunked<'a> {
        values: &'a [f64],
        chunk_rows: usize,
    }

    impl RowSource for Chunked<'_> {
        fn n_rows(&self) -> usize {
            self.values.len()
        }

        fn value_at(&self, k: usize) -> f64 {
            self.values[k]
        }

        fn for_each_run(&self, f: impl FnMut(&[f64])) {
            self.values.chunks(self.chunk_rows).for_each(f)
        }
    }

    fn chunked_signature(
        c: &SampleCompressor,
        values: &[f64],
        chunk_rows: usize,
    ) -> Result<Signature> {
        let mut bounds = WeightBounds::new();
        for chunk in values.chunks(chunk_rows) {
            bounds.absorb(chunk);
        }
        c.signature_indexed(bounds, &Chunked { values, chunk_rows })
    }

    #[test]
    fn chunked_signature_matches_flat_and_scalar_for_every_family() {
        let values: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.73).sin() * 25.0 - 4.0)
            .collect();
        // Nearly every weight at the floor: the dense-scan fallback.
        let skewed: Vec<f64> = values.iter().map(|v| 1.0 / (v + 29.0001)).collect();
        for family in HashFamily::ALL {
            let c = SampleCompressor::new(family, 48, 0xBEEF).unwrap();
            for column in [&values, &skewed] {
                let flat = c.signature(column).unwrap();
                let oracle = c.hasher.signature(&SampleCompressor::to_weights(column));
                assert_eq!(flat, oracle.unwrap(), "{family:?} vs scalar");
                for chunk_rows in [1usize, 7, 128, 500, 1000] {
                    assert_eq!(
                        chunked_signature(&c, column, chunk_rows).unwrap(),
                        flat,
                        "{family:?} chunk_rows={chunk_rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_signature_matches_flat_with_nonfinite_and_negatives() {
        let mut values: Vec<f64> = (0..300).map(|i| (i as f64) - 150.0).collect();
        values[3] = f64::NAN;
        values[77] = f64::INFINITY;
        values[150] = -0.0;
        values[151] = 0.0;
        let c = compressor();
        let flat = c.signature(&values).unwrap();
        assert_eq!(chunked_signature(&c, &values, 64).unwrap(), flat);
    }

    #[test]
    fn empty_column_errors_chunked_like_flat() {
        let c = compressor();
        assert!(chunked_signature(&c, &[], 16).is_err());
        assert!(c.signature_batch(&[&[1.0, 2.0], &[]]).is_err());
    }

    #[test]
    fn chunked_gather_matches_flat_compression() {
        let mut values: Vec<f64> = (0..400).map(|i| (i as f64 * 1.9).cos() * 7.0).collect();
        for k in (0..400).step_by(3) {
            values[k] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][k / 3 % 3];
        }
        let c = compressor();
        let flat = c.compress_normalized(&values).unwrap();
        let sig = chunked_signature(&c, &values, 96).unwrap();
        let chunked = Chunked {
            values: &values,
            chunk_rows: 96,
        };
        let gathered = c.compress_normalized_with_signature(&chunked, &sig);
        assert!(gathered.iter().all(|v| v.is_finite()));
        assert_eq!(gathered, flat);
    }

    #[test]
    fn weights_stay_between_floor_and_ceiling() {
        // Wide, narrow (span clamped to 1e-12), degenerate and huge ranges;
        // the maximum is attained at v = hi.
        let ranges = [
            (-5.0, 5.0),
            (0.0, 1e-300),
            (1.0, 1.0 + 1e-13),
            (3.0, 3.0),
            (-1e308, 1e308),
            (-1e-5, 7e22),
            (f64::MIN_POSITIVE, 3.0 * f64::MIN_POSITIVE),
        ];
        for (lo, hi) in ranges {
            let mut bounds = WeightBounds::new();
            bounds.absorb(&[lo, hi]);
            let mut state = 0xCE11_u64;
            for step in 0..20_000u32 {
                state = crate::rng::splitmix64(state);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                let v = match step {
                    0 => lo,
                    1 => hi,
                    _ => (lo + u * (hi - lo)).clamp(lo, hi),
                };
                let w = bounds.weight(v);
                // (±1e308 spans overflow: ∞/∞ is NaN, which the support
                // filter drops — never a weight outside the interval.)
                assert!(
                    w.is_nan() || (WEIGHT_FLOOR..=WEIGHT_CEILING).contains(&w),
                    "weight({v}) = {w} in [{lo}, {hi}]"
                );
            }
            assert_eq!(bounds.weight(f64::NAN), WEIGHT_FLOOR);
        }
    }

    #[test]
    fn nonfinite_values_are_compressible() {
        let c = compressor();
        let mut values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        values[5] = f64::NAN;
        values[50] = f64::INFINITY;
        let out = c.compress(&values).unwrap();
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
