//! The Feature Pre-Evaluation (FPE) model: a sample compressor paired with
//! a binary feature-effectiveness classifier (paper §III-B, Eq. 4–6).
//!
//! Once pre-trained on public datasets, the model answers "is this
//! generated feature worth evaluating on the real downstream task?" with a
//! single compressed-vector classification — orders of magnitude cheaper
//! than a cross-validated Random Forest run, which is the entire source of
//! E-AFE's efficiency gain.

use crate::error::{EafeError, Result};
use crate::fpe::labeling::LabeledFeature;
use crate::fpe::repr::FeatureRepr;
use learners::binary_precision_recall;
use learners::{LinearConfig, LogisticRegression};
use minhash::{HashFamily, SampleCompressor};
use serde::{Deserialize, Serialize};

/// Recall/precision of the trained classifier on a validation corpus
/// (the paper's Eq. 5 quantities).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FpeMetrics {
    /// Recall of effective features — the paper's optimisation target.
    pub recall: f64,
    /// Precision on effective features — constrained to be > 0.
    pub precision: f64,
    /// Fraction of validation features classified positive (the expected
    /// pass rate of the stage-2 gate; the paper's "drop rate" is 1 − this).
    pub positive_rate: f64,
}

/// A trained FPE model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpeModel {
    repr: FeatureRepr,
    classifier: LogisticRegression,
    /// Validation metrics recorded at training time.
    pub metrics: FpeMetrics,
    /// Label threshold the training labels were produced with.
    pub thre: f64,
}

impl FpeModel {
    /// Train on labelled features whose `compressed` vectors were produced
    /// by `compressor` (dimension must match). Validation examples are used
    /// only for the recorded metrics.
    pub fn train(
        compressor: SampleCompressor,
        train: &[LabeledFeature],
        validation: &[LabeledFeature],
        thre: f64,
        seed: u64,
    ) -> Result<FpeModel> {
        Self::train_with_repr(
            FeatureRepr::MinHash(compressor),
            train,
            validation,
            thre,
            seed,
        )
    }

    /// Train with an arbitrary fixed-size representation — used by the
    /// representation ablation (MinHash vs quantile sketch vs
    /// meta-features; paper §V-B / Q6).
    pub fn train_with_repr(
        repr: FeatureRepr,
        train: &[LabeledFeature],
        validation: &[LabeledFeature],
        thre: f64,
        seed: u64,
    ) -> Result<FpeModel> {
        if train.is_empty() {
            return Err(EafeError::InvalidConfig(
                "FPE training corpus is empty".into(),
            ));
        }
        let d = repr.dim();
        for lf in train.iter().chain(validation) {
            if lf.compressed.len() != d {
                return Err(EafeError::InvalidConfig(format!(
                    "labelled feature has dimension {} but representation d = {d}",
                    lf.compressed.len()
                )));
            }
        }
        // Column-major design matrix: d feature columns, one row per example.
        let x = to_columns(train, d);
        let y: Vec<usize> = train.iter().map(|lf| lf.label).collect();
        let has_both = y.contains(&1) && y.contains(&0);
        if !has_both {
            return Err(EafeError::InvalidConfig(
                "FPE training corpus needs both positive and negative features; \
                 adjust thre or enlarge the corpus"
                    .into(),
            ));
        }
        let mut classifier = LogisticRegression::new(LinearConfig {
            epochs: 80,
            seed,
            ..LinearConfig::default()
        });
        classifier.fit(&x, &y, 2)?;

        let metrics = if validation.is_empty() {
            evaluate_classifier(&classifier, train, d)?
        } else {
            evaluate_classifier(&classifier, validation, d)?
        };
        Ok(FpeModel {
            repr,
            classifier,
            metrics,
            thre,
        })
    }

    /// The representation in use.
    pub(crate) fn repr(&self) -> &FeatureRepr {
        &self.repr
    }

    /// The MinHash sample compressor, when the representation is MinHash.
    pub fn compressor(&self) -> Option<&SampleCompressor> {
        match &self.repr {
            FeatureRepr::MinHash(c) => Some(c),
            _ => None,
        }
    }

    /// Representation dimension `d`.
    pub fn d(&self) -> usize {
        self.repr.dim()
    }

    /// Hash family in use, when the representation is MinHash.
    pub fn family(&self) -> Option<HashFamily> {
        self.compressor().map(|c| c.family())
    }

    /// Probability that a raw feature column is *effective* — the paper's
    /// Eq. (7) `p = C_D(MinHash(f̃, d))`, with `p` oriented so that higher
    /// means better (see the `reward` module for the Eq. 8 mapping).
    pub fn score_feature(&self, values: &[f64]) -> Result<f64> {
        self.score_compressed(self.repr.represent(values)?)
    }

    /// Classify an externally assembled compressed representation.
    /// The chunk-at-a-time scoring path (`crate::chunked`) builds the
    /// vector by streaming a column's chunks through the compressor and
    /// hands the result here, so a candidate is scored without ever being
    /// materialized as a flat column.
    pub(crate) fn score_compressed(&self, compressed: Vec<f64>) -> Result<f64> {
        Ok(self.classifier.predict_positive_proba_row(&compressed)?)
    }

    /// Serialise to JSON (persistence across sessions: the paper reuses one
    /// pre-trained FPE model for every target dataset).
    pub fn to_json(&self) -> Result<String> {
        Ok(serde_json::to_string(self)?)
    }

    /// Deserialise from JSON.
    pub fn from_json(json: &str) -> Result<FpeModel> {
        Ok(serde_json::from_str(json)?)
    }
}

fn to_columns(examples: &[LabeledFeature], d: usize) -> Vec<Vec<f64>> {
    let mut x = vec![Vec::with_capacity(examples.len()); d];
    for lf in examples {
        for (j, &v) in lf.compressed.iter().enumerate() {
            x[j].push(v);
        }
    }
    x
}

fn evaluate_classifier(
    classifier: &LogisticRegression,
    examples: &[LabeledFeature],
    d: usize,
) -> Result<FpeMetrics> {
    let x = to_columns(examples, d);
    let y: Vec<usize> = examples.iter().map(|lf| lf.label).collect();
    let preds = classifier.predict(&x)?;
    let (precision, recall) = binary_precision_recall(&y, &preds)?;
    let positive_rate = preds.iter().filter(|&&p| p == 1).count() as f64 / preds.len() as f64;
    Ok(FpeMetrics {
        recall,
        precision,
        positive_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minhash::HashFamily;

    /// Synthetic labelled corpus where effective features have a distinct
    /// compressed pattern (large positive tail values).
    fn corpus(n: usize, d: usize, seed: u64) -> Vec<LabeledFeature> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let label = i % 2;
                let compressed: Vec<f64> = (0..d)
                    .map(|j| {
                        let base: f64 = rng.gen_range(-0.5..0.5);
                        if label == 1 && j < d / 2 {
                            base + 1.5
                        } else {
                            base
                        }
                    })
                    .collect();
                LabeledFeature {
                    compressed,
                    label,
                    score_gain: if label == 1 { 0.05 } else { -0.01 },
                }
            })
            .collect()
    }

    fn compressor(d: usize) -> SampleCompressor {
        SampleCompressor::new(HashFamily::Ccws, d, 7).unwrap()
    }

    #[test]
    fn trains_and_separates_synthetic_corpus() {
        let train = corpus(200, 16, 1);
        let val = corpus(60, 16, 2);
        let m = FpeModel::train(compressor(16), &train, &val, 0.01, 0).unwrap();
        assert!(m.metrics.recall > 0.8, "recall {}", m.metrics.recall);
        assert!(
            m.metrics.precision > 0.8,
            "precision {}",
            m.metrics.precision
        );
        assert!(m.metrics.positive_rate > 0.2 && m.metrics.positive_rate < 0.8);
    }

    #[test]
    fn score_feature_is_probability() {
        let train = corpus(100, 8, 3);
        let m = FpeModel::train(compressor(8), &train, &[], 0.01, 0).unwrap();
        let values: Vec<f64> = (0..50).map(|i| i as f64 * 0.3).collect();
        let p = m.score_feature(&values).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn rejects_empty_or_single_class_corpus() {
        assert!(FpeModel::train(compressor(8), &[], &[], 0.01, 0).is_err());
        let all_pos: Vec<LabeledFeature> = corpus(50, 8, 4)
            .into_iter()
            .map(|mut lf| {
                lf.label = 1;
                lf
            })
            .collect();
        assert!(FpeModel::train(compressor(8), &all_pos, &[], 0.01, 0).is_err());
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let train = corpus(50, 8, 5);
        assert!(FpeModel::train(compressor(16), &train, &[], 0.01, 0).is_err());
    }

    #[test]
    fn json_round_trip_preserves_behaviour() {
        let train = corpus(120, 8, 6);
        let m = FpeModel::train(compressor(8), &train, &[], 0.01, 0).unwrap();
        let json = m.to_json().unwrap();
        let m2 = FpeModel::from_json(&json).unwrap();
        let values: Vec<f64> = (0..40).map(|i| (i as f64).sin() * 2.0).collect();
        assert_eq!(
            m.score_feature(&values).unwrap(),
            m2.score_feature(&values).unwrap()
        );
        assert_eq!(m.metrics, m2.metrics);
    }
}
