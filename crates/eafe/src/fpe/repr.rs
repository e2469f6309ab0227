//! Fixed-size feature representations for the FPE classifier.
//!
//! The paper's §V-B surveys four classes of "approximate feature" methods —
//! meta-features, low-rank approximation, quantile data sketches (used by
//! LFE), and hashing — and picks weighted MinHash (Q6). This module
//! implements the two practical alternatives alongside MinHash so the
//! choice can be ablated empirically (`bench --bin ablation_representation`):
//!
//! - [`FeatureRepr::MinHash`] — the paper's sample compressor;
//! - [`FeatureRepr::QuantileSketch`] — `d` evenly spaced quantiles of the
//!   column (LFE's representation);
//! - [`FeatureRepr::MetaFeatures`] — a fixed vector of distributional
//!   meta-features (moments, spread, discreteness, sign structure).

use crate::error::Result;
use minhash::SampleCompressor;
use serde::{Deserialize, Serialize};

/// Number of meta-features produced by [`FeatureRepr::MetaFeatures`].
pub(crate) const META_FEATURE_DIM: usize = 12;

/// A fixed-size representation of a feature column of arbitrary length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeatureRepr {
    /// Weighted-MinHash sample compression (the paper's choice).
    MinHash(SampleCompressor),
    /// `d` evenly spaced quantiles, z-scored (LFE's quantile data sketch).
    QuantileSketch {
        /// Sketch size.
        d: usize,
    },
    /// Distributional meta-features (`META_FEATURE_DIM` = 12 values).
    MetaFeatures,
}

impl FeatureRepr {
    /// Output dimensionality.
    pub(crate) fn dim(&self) -> usize {
        match self {
            FeatureRepr::MinHash(c) => c.d(),
            FeatureRepr::QuantileSketch { d } => *d,
            FeatureRepr::MetaFeatures => META_FEATURE_DIM,
        }
    }

    /// Short display name for reports.
    pub fn name(&self) -> String {
        match self {
            FeatureRepr::MinHash(c) => format!("MinHash/{}", c.family().name()),
            FeatureRepr::QuantileSketch { d } => format!("QuantileSketch({d})"),
            FeatureRepr::MetaFeatures => "MetaFeatures".into(),
        }
    }

    /// Represent a feature column as a fixed-size vector. Non-finite inputs
    /// are tolerated (treated as missing). The MinHash arm goes through the
    /// runtime's content-addressed signature cache, so re-representing a
    /// column already sketched under this `(family, d, seed)` is a gather.
    pub fn represent(&self, values: &[f64]) -> Result<Vec<f64>> {
        match self {
            FeatureRepr::MinHash(c) => Ok(runtime::compress_normalized_cached(c, values)?),
            FeatureRepr::QuantileSketch { d } => Ok(quantile_sketch(values, *d)),
            FeatureRepr::MetaFeatures => Ok(meta_features(values)),
        }
    }

    /// Represent many columns at once, bit-identical per column to
    /// [`represent`](Self::represent). MinHash columns share one cache
    /// probe + batch table pass; quantile sketches share one scratch
    /// buffer across columns.
    pub(crate) fn represent_batch(&self, cols: &[&[f64]]) -> Result<Vec<Vec<f64>>> {
        match self {
            FeatureRepr::MinHash(c) => Ok(runtime::compress_normalized_batch(c, cols)?),
            FeatureRepr::QuantileSketch { d } => {
                let mut scratch = Vec::new();
                Ok(cols
                    .iter()
                    .map(|v| quantile_sketch_into(v, *d, &mut scratch))
                    .collect())
            }
            FeatureRepr::MetaFeatures => Ok(cols.iter().map(|v| meta_features(v)).collect()),
        }
    }
}

/// `d` evenly spaced quantiles of the finite values, z-scored so columns
/// with different raw scales are comparable. All-constant or empty inputs
/// yield zeros.
pub(crate) fn quantile_sketch(values: &[f64], d: usize) -> Vec<f64> {
    quantile_sketch_into(values, d, &mut Vec::new())
}

/// [`quantile_sketch`] with a caller-provided scratch buffer, so batch
/// callers sort into one allocation instead of cloning per column. The
/// sort is an unstable total-order sort (`f64::total_cmp`), which both
/// skips the stable sort's temp allocation and removes the
/// `partial_cmp(..).expect(..)` panic path — NaNs are filtered before the
/// sort, but a total order keeps the function panic-free by construction.
pub(crate) fn quantile_sketch_into(values: &[f64], d: usize, scratch: &mut Vec<f64>) -> Vec<f64> {
    let d = d.max(1);
    scratch.clear();
    scratch.extend(values.iter().copied().filter(|v| v.is_finite()));
    let finite = &mut *scratch;
    if finite.is_empty() {
        return vec![0.0; d];
    }
    finite.sort_unstable_by(f64::total_cmp);
    let mut sketch: Vec<f64> = (0..d)
        .map(|i| {
            let q = if d == 1 {
                0.5
            } else {
                i as f64 / (d - 1) as f64
            };
            let idx = (q * (finite.len() - 1) as f64).round() as usize;
            finite[idx]
        })
        .collect();
    // z-score the sketch itself.
    let n = sketch.len() as f64;
    let mean = sketch.iter().sum::<f64>() / n;
    let var = sketch.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let std = var.sqrt();
    if std > 1e-12 {
        for v in &mut sketch {
            *v = (*v - mean) / std;
        }
    } else {
        sketch.iter_mut().for_each(|v| *v = 0.0);
    }
    sketch
}

/// Distributional meta-features of a column: centred moments, spread,
/// discreteness, and sign structure — the hand-crafted representation the
/// ExploreKit / meta-learning line of work uses.
pub(crate) fn meta_features(values: &[f64]) -> Vec<f64> {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let n = finite.len();
    if n == 0 {
        return vec![0.0; META_FEATURE_DIM];
    }
    let nf = n as f64;
    let mean = finite.iter().sum::<f64>() / nf;
    let var = finite.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / nf;
    let std = var.sqrt();
    let centred = |p: i32| -> f64 {
        if std <= 1e-12 {
            return 0.0;
        }
        finite
            .iter()
            .map(|v| ((v - mean) / std).powi(p))
            .sum::<f64>()
            / nf
    };
    let mut sorted = finite.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    let quant = |q: f64| sorted[((q * (n - 1) as f64).round() as usize).min(n - 1)];
    let (min, max) = (sorted[0], sorted[n - 1]);
    let iqr = quant(0.75) - quant(0.25);
    let range = (max - min).max(1e-12);
    let mut uniq = sorted.clone();
    uniq.dedup();
    let zeros = finite.iter().filter(|&&v| v == 0.0).count() as f64 / nf;
    let negatives = finite.iter().filter(|&&v| v < 0.0).count() as f64 / nf;
    let integral = finite.iter().filter(|v| v.fract() == 0.0).count() as f64 / nf;

    vec![
        // location/scale, squashed to keep the classifier's input bounded
        (mean / (std + 1.0)).tanh(),
        (std / (mean.abs() + 1.0)).tanh(), // coefficient of variation
        centred(3).clamp(-10.0, 10.0) / 10.0, // skewness
        (centred(4) - 3.0).clamp(-10.0, 10.0) / 10.0, // excess kurtosis
        iqr / range,
        (quant(0.5) - min) / range, // median position in the range
        uniq.len() as f64 / nf,     // discreteness
        zeros,
        negatives,
        integral,
        (nf.ln() / 12.0).min(1.0), // log sample size
        (values.len() - n) as f64 / values.len().max(1) as f64, // missing rate
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use minhash::HashFamily;

    #[test]
    fn all_reprs_have_fixed_dim() {
        let values: Vec<f64> = (0..137).map(|i| (i as f64 * 0.3).sin() * 5.0).collect();
        let reprs = vec![
            FeatureRepr::MinHash(SampleCompressor::new(HashFamily::Ccws, 32, 1).unwrap()),
            FeatureRepr::QuantileSketch { d: 32 },
            FeatureRepr::MetaFeatures,
        ];
        for r in &reprs {
            let out = r.represent(&values).unwrap();
            assert_eq!(out.len(), r.dim(), "{}", r.name());
            assert!(out.iter().all(|v| v.is_finite()), "{}", r.name());
            // Length-independence: a longer column yields the same dim.
            let longer: Vec<f64> = (0..999).map(|i| (i as f64 * 0.1).cos()).collect();
            assert_eq!(r.represent(&longer).unwrap().len(), r.dim());
        }
    }

    #[test]
    fn quantile_sketch_is_sorted_prior_to_zscore() {
        let values = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let raw_quantiles: Vec<f64> = {
            // undo z-scoring by checking monotonicity instead
            quantile_sketch(&values, 5)
        };
        assert!(raw_quantiles.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        assert_eq!(raw_quantiles.len(), 5);
    }

    #[test]
    fn quantile_sketch_handles_degenerate_inputs() {
        assert_eq!(quantile_sketch(&[], 4), vec![0.0; 4]);
        assert_eq!(quantile_sketch(&[7.0; 10], 4), vec![0.0; 4]);
        assert_eq!(quantile_sketch(&[f64::NAN, 1.0], 3).len(), 3);
        assert_eq!(quantile_sketch(&[1.0], 1).len(), 1);
    }

    #[test]
    fn quantile_sketch_ignores_nan_and_infinities() {
        // NaN/±∞ are dropped before the sort — the sketch of a polluted
        // column equals the sketch of its finite values, with no panic.
        let clean = vec![3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0];
        let mut dirty = clean.clone();
        dirty.insert(2, f64::NAN);
        dirty.insert(5, f64::INFINITY);
        dirty.push(f64::NEG_INFINITY);
        dirty.push(f64::NAN);
        assert_eq!(quantile_sketch(&dirty, 8), quantile_sketch(&clean, 8));
        assert_eq!(quantile_sketch(&[f64::NAN; 6], 4), vec![0.0; 4]);
    }

    #[test]
    fn quantile_sketch_into_reuses_scratch_across_columns() {
        let a = vec![5.0, 1.0, 3.0, f64::NAN, 2.0];
        let b = vec![9.0, 8.0];
        let mut scratch = Vec::new();
        let sa = quantile_sketch_into(&a, 4, &mut scratch);
        let sb = quantile_sketch_into(&b, 4, &mut scratch);
        assert_eq!(sa, quantile_sketch(&a, 4));
        assert_eq!(sb, quantile_sketch(&b, 4));
    }

    #[test]
    fn represent_batch_matches_per_column_represent() {
        let cols: Vec<Vec<f64>> = (0..6)
            .map(|s| {
                (0..90)
                    .map(|i| ((i + s * 17) as f64 * 0.21).sin() * 4.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let reprs = vec![
            FeatureRepr::MinHash(SampleCompressor::new(HashFamily::Ccws, 16, 77).unwrap()),
            FeatureRepr::QuantileSketch { d: 16 },
            FeatureRepr::MetaFeatures,
        ];
        for r in &reprs {
            let batch = r.represent_batch(&refs).unwrap();
            assert_eq!(batch.len(), cols.len(), "{}", r.name());
            for (col, out) in cols.iter().zip(&batch) {
                assert_eq!(out, &r.represent(col).unwrap(), "{}", r.name());
            }
        }
    }

    #[test]
    fn meta_features_detect_structure() {
        // Integer-coded column: high integral fraction, low uniqueness.
        let ints: Vec<f64> = (0..100).map(|i| (i % 4) as f64).collect();
        let m = meta_features(&ints);
        assert_eq!(m.len(), META_FEATURE_DIM);
        assert!(m[9] > 0.99, "integral fraction {}", m[9]); // all integers
        assert!(m[6] < 0.1, "uniqueness {}", m[6]); // only 4 distinct

        // Continuous symmetric column: near-zero skew.
        let cont: Vec<f64> = (0..500).map(|i| ((i as f64) * 0.123).sin()).collect();
        let mc = meta_features(&cont);
        assert!(mc[2].abs() < 0.2, "skewness {}", mc[2]);
        assert!(mc[6] > 0.5, "uniqueness {}", mc[6]);
    }

    #[test]
    fn meta_features_missing_rate() {
        let vals = vec![1.0, f64::NAN, 2.0, f64::NAN];
        let m = meta_features(&vals);
        assert!((m[11] - 0.5).abs() < 1e-12);
        // All-NaN yields zeros, not panics.
        assert_eq!(meta_features(&[f64::NAN; 5]), vec![0.0; META_FEATURE_DIM]);
    }

    #[test]
    fn meta_features_are_bounded() {
        // Extreme magnitudes must not blow up the representation.
        let extreme: Vec<f64> = (0..50).map(|i| (i as f64) * 1e12 - 2.5e13).collect();
        let m = meta_features(&extreme);
        assert!(m.iter().all(|v| v.abs() <= 2.0), "{m:?}");
    }

    #[test]
    fn names_are_descriptive() {
        assert!(FeatureRepr::MetaFeatures.name().contains("Meta"));
        assert!(FeatureRepr::QuantileSketch { d: 8 }.name().contains('8'));
        let mh = FeatureRepr::MinHash(SampleCompressor::new(HashFamily::Icws, 8, 0).unwrap());
        assert!(mh.name().contains("ICWS"));
    }
}
