//! Cross-validated downstream-task evaluation — the paper's `A_T(F, y)`.
//!
//! The AFE loop repeatedly asks "how good is this feature set for the
//! downstream task?". Following the paper, the answer is a k-fold
//! cross-validation score: support-weighted F1 for classification, 1-RAE
//! for regression. The downstream model defaults to Random Forest and can
//! be swapped (Table V uses SVM, NB/GP and MLP on the cached features).

use crate::binned::{BinnedDataset, SplitMethod};
use crate::error::{LearnError, Result};
use crate::forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
use crate::gp::{GaussianProcess, GpConfig};
use crate::linear::{LinearConfig, LinearSvm};
use crate::metrics::{f1_score, one_minus_rae};
use crate::mlp::{MlpClassifier, MlpConfig, MlpRegressor};
use crate::nb::GaussianNb;
use serde::{Deserialize, Serialize};
use tabular::split::cv_indices;
use tabular::{DataFrame, Label, Task};

/// Which model family evaluates the features.
///
/// `NaiveBayesGp` matches the paper's Table V column "NB GP": Gaussian
/// Naive Bayes for classification datasets, Gaussian Process for regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Random forest (the paper's default downstream task).
    RandomForest,
    /// Linear SVM (classification) / not defined for regression — regression
    /// frames fall back to the forest regressor, mirroring the paper's use
    /// of SVM only on classification rows of Table V.
    Svm,
    /// Gaussian NB (classification) or Gaussian Process (regression).
    NaiveBayesGp,
    /// Multi-layer perceptron.
    Mlp,
}

impl ModelKind {
    /// Short display name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::RandomForest => "RF",
            ModelKind::Svm => "SVM",
            ModelKind::NaiveBayesGp => "NB|GP",
            ModelKind::Mlp => "MLP",
        }
    }
}

/// A reusable downstream-task evaluator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluator {
    /// Model family.
    pub kind: ModelKind,
    /// Number of CV folds (the paper uses 5-fold cross-validation).
    pub folds: usize,
    /// Seed for fold assignment and model fitting.
    pub seed: u64,
    /// Forest configuration (used by `RandomForest` and as SVM's regression
    /// fallback).
    pub forest: ForestConfig,
    /// Linear-model configuration for the SVM.
    pub linear: LinearConfig,
    /// GP configuration for regression under `NaiveBayesGp`.
    pub gp: GpConfig,
    /// MLP configuration.
    pub mlp: MlpConfig,
}

impl Default for Evaluator {
    fn default() -> Self {
        Self {
            kind: ModelKind::RandomForest,
            folds: 5,
            seed: 0,
            forest: ForestConfig::fast(),
            linear: LinearConfig::default(),
            gp: GpConfig::default(),
            mlp: MlpConfig::default(),
        }
    }
}

/// Extract a column-major feature matrix from a frame.
pub fn feature_matrix(frame: &DataFrame) -> Vec<Vec<f64>> {
    frame.columns().iter().map(|c| c.values.clone()).collect()
}

impl Evaluator {
    /// Evaluator with the given model kind and all other settings default.
    pub fn with_kind(kind: ModelKind) -> Self {
        Self {
            kind,
            ..Self::default()
        }
    }

    /// Cross-validated downstream score `A_T(F, y)` of the frame's features.
    ///
    /// Classification → support-weighted F1; regression → 1-RAE, both
    /// averaged over the folds.
    pub fn evaluate(&self, frame: &DataFrame) -> Result<f64> {
        if frame.n_cols() == 0 {
            return Err(LearnError::EmptyTrainingSet(
                "no feature columns to evaluate".into(),
            ));
        }
        let splits = cv_indices(frame.label(), self.folds, self.seed)?;
        let n_folds = splits.len();
        // When every fold trains a histogram forest, quantise the frame
        // once here and hand all folds (and all their trees) the same
        // bins — the "bin once, train everywhere" regime — and the same
        // column slices to predict their test rows from in place.
        // Non-forest model kinds keep the gather-per-fold path.
        let cols: Vec<&[f64]> = frame
            .columns()
            .iter()
            .map(|c| c.values.as_slice())
            .collect();
        let binned = if self.uses_binned_forest(frame.task()) {
            Some(BinnedDataset::from_slices_cached(
                &cols,
                self.forest.tree.max_bins,
            )?)
        } else {
            None
        };
        // Folds are independent given their index-derived seeds, so they can
        // run on the shared pool; summing in fold order afterwards keeps the
        // result bit-identical to a sequential run.
        let pool = runtime::WorkerPool::new().with_seed(self.seed);
        let fold_scores = pool.map(splits, |ctx, split| match &binned {
            Some(b) => self.fit_score_binned(b, &cols, frame.label(), &split, ctx.index as u64),
            None => {
                let train = frame.take_rows(&split.train)?;
                let test = frame.take_rows(&split.test)?;
                self.fit_score(&train, &test, ctx.index as u64)
            }
        });
        let mut total = 0.0;
        for score in fold_scores {
            total += score?;
        }
        Ok(total / n_folds as f64)
    }

    /// Whether `evaluate` trains a histogram forest on every fold (and so
    /// should bin the frame once up front): the forest kind, plus SVM's
    /// regression fallback, with [`SplitMethod::Histogram`] configured.
    fn uses_binned_forest(&self, task: Task) -> bool {
        self.forest.tree.split == SplitMethod::Histogram
            && match self.kind {
                ModelKind::RandomForest => true,
                ModelKind::Svm => task == Task::Regression,
                ModelKind::NaiveBayesGp | ModelKind::Mlp => false,
            }
    }

    /// One fold against the shared pre-binned frame: train the forest on
    /// the fold's train rows straight from the bin codes, and predict the
    /// test rows straight from the frame's columns — no sub-matrix is
    /// gathered on either side.
    fn fit_score_binned(
        &self,
        binned: &BinnedDataset,
        cols: &[&[f64]],
        label: &Label,
        split: &tabular::split::Split,
        fold_seed: u64,
    ) -> Result<f64> {
        let forest = ForestConfig {
            seed: self.seed ^ fold_seed.wrapping_mul(0x9E37),
            ..self.forest
        };
        match label {
            Label::Class { y, n_classes } => {
                let mut m = RandomForestClassifier::new(forest);
                m.fit_binned(binned, &split.train, y, *n_classes)?;
                let preds = m.predict_rows(cols, Some(&split.test))?;
                let yte: Vec<usize> = split.test.iter().map(|&r| y[r]).collect();
                f1_score(&yte, &preds, *n_classes)
            }
            Label::Reg(y) => {
                let mut m = RandomForestRegressor::new(forest);
                m.fit_binned(binned, &split.train, y)?;
                let preds = m.predict_rows(cols, Some(&split.test))?;
                let yte: Vec<f64> = split.test.iter().map(|&r| y[r]).collect();
                one_minus_rae(&yte, &preds)
            }
        }
    }

    /// Fit on `train`, score on `test` (one fold).
    pub fn fit_score(&self, train: &DataFrame, test: &DataFrame, fold_seed: u64) -> Result<f64> {
        let xtr = feature_matrix(train);
        let xte = feature_matrix(test);
        match (train.task(), train.label()) {
            (Task::Classification, Label::Class { y, n_classes }) => {
                let yte = test
                    .label()
                    .classes()
                    .expect("classification frame")
                    .to_vec();
                let preds = self.classify(&xtr, y, *n_classes, &xte, fold_seed)?;
                f1_score(&yte, &preds, *n_classes)
            }
            (Task::Regression, Label::Reg(y)) => {
                let yte = test.label().targets().expect("regression frame").to_vec();
                let preds = self.regress(&xtr, y, &xte, fold_seed)?;
                one_minus_rae(&yte, &preds)
            }
            _ => unreachable!("task and label always agree"),
        }
    }

    fn classify(
        &self,
        xtr: &[Vec<f64>],
        ytr: &[usize],
        n_classes: usize,
        xte: &[Vec<f64>],
        fold_seed: u64,
    ) -> Result<Vec<usize>> {
        let seed = self.seed ^ fold_seed.wrapping_mul(0x9E37);
        match self.kind {
            ModelKind::RandomForest => {
                let mut m = RandomForestClassifier::new(ForestConfig {
                    seed,
                    ..self.forest
                });
                m.fit(xtr, ytr, n_classes)?;
                m.predict(xte)
            }
            ModelKind::Svm => {
                let mut m = LinearSvm::new(LinearConfig {
                    seed,
                    ..self.linear
                });
                m.fit(xtr, ytr, n_classes)?;
                m.predict(xte)
            }
            ModelKind::NaiveBayesGp => {
                let mut m = GaussianNb::default();
                m.fit(xtr, ytr, n_classes)?;
                m.predict(xte)
            }
            ModelKind::Mlp => {
                let mut m = MlpClassifier::new(MlpConfig { seed, ..self.mlp });
                m.fit(xtr, ytr, n_classes)?;
                m.predict(xte)
            }
        }
    }

    fn regress(
        &self,
        xtr: &[Vec<f64>],
        ytr: &[f64],
        xte: &[Vec<f64>],
        fold_seed: u64,
    ) -> Result<Vec<f64>> {
        let seed = self.seed ^ fold_seed.wrapping_mul(0x9E37);
        match self.kind {
            ModelKind::RandomForest | ModelKind::Svm => {
                // Linear SVR is not part of the paper's Table V regression
                // rows; SVM falls back to the forest regressor.
                let mut m = RandomForestRegressor::new(ForestConfig {
                    seed,
                    ..self.forest
                });
                m.fit(xtr, ytr)?;
                m.predict(xte)
            }
            ModelKind::NaiveBayesGp => {
                let mut m = GaussianProcess::new(self.gp);
                m.fit(xtr, ytr)?;
                m.predict(xte)
            }
            ModelKind::Mlp => {
                let mut m = MlpRegressor::new(MlpConfig { seed, ..self.mlp });
                m.fit(xtr, ytr)?;
                m.predict(xte)
            }
        }
    }
}

impl runtime::Scorer for Evaluator {
    type Error = LearnError;

    /// Everything besides the frame that determines a score lives in this
    /// struct (model kind, hyper-parameters, fold count, CV seed), so the
    /// digest is simply a hash of its serialised form.
    fn config_digest(&self) -> runtime::Fingerprint {
        let mut h = runtime::Hasher128::new();
        h.write_str("learners::Evaluator");
        h.write_str(&serde_json::to_string(self).expect("evaluator config serialises"));
        h.finish()
    }

    fn score_frame(&self, frame: &DataFrame) -> Result<f64> {
        self.evaluate(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::SynthSpec;

    fn class_frame() -> DataFrame {
        SynthSpec::new("cv-c", 300, 8, Task::Classification)
            .with_seed(1)
            .generate()
            .unwrap()
    }

    fn reg_frame() -> DataFrame {
        SynthSpec::new("cv-r", 300, 8, Task::Regression)
            .with_seed(2)
            .generate()
            .unwrap()
    }

    #[test]
    fn rf_evaluation_beats_chance_on_classification() {
        let score = Evaluator::default().evaluate(&class_frame()).unwrap();
        assert!(score > 0.55, "F1 {score}");
        assert!(score <= 1.0);
    }

    #[test]
    fn rf_evaluation_positive_on_regression() {
        let score = Evaluator::default().evaluate(&reg_frame()).unwrap();
        assert!(score > 0.1, "1-rae {score}");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let f = class_frame();
        let e = Evaluator::default();
        assert_eq!(e.evaluate(&f).unwrap(), e.evaluate(&f).unwrap());
    }

    #[test]
    fn all_model_kinds_run_on_both_tasks() {
        let c = class_frame();
        let r = reg_frame();
        for kind in [
            ModelKind::RandomForest,
            ModelKind::Svm,
            ModelKind::NaiveBayesGp,
            ModelKind::Mlp,
        ] {
            let mut e = Evaluator::with_kind(kind);
            e.mlp.epochs = 5; // keep the test fast
            let sc = e.evaluate(&c).unwrap();
            assert!(sc.is_finite(), "{:?} classification score {sc}", kind);
            let sr = e.evaluate(&r).unwrap();
            assert!(sr.is_finite(), "{:?} regression score {sr}", kind);
        }
    }

    #[test]
    fn empty_feature_set_errors() {
        let f = class_frame().select_columns(&[]).unwrap();
        assert!(Evaluator::default().evaluate(&f).is_err());
    }

    #[test]
    fn kind_names() {
        assert_eq!(ModelKind::RandomForest.name(), "RF");
        assert_eq!(ModelKind::NaiveBayesGp.name(), "NB|GP");
    }

    #[test]
    fn parallel_folds_match_single_threaded_bit_for_bit() {
        let f = class_frame();
        let e = Evaluator::default();
        runtime::set_global_threads(1);
        let sequential = e.evaluate(&f).unwrap();
        runtime::set_global_threads(4);
        let parallel = e.evaluate(&f).unwrap();
        runtime::set_global_threads(0);
        assert_eq!(sequential.to_bits(), parallel.to_bits());
    }

    #[test]
    fn config_digest_tracks_configuration() {
        use runtime::Scorer;
        let a = Evaluator::default();
        let b = Evaluator::default();
        assert_eq!(a.config_digest(), b.config_digest());
        let c = Evaluator {
            seed: 17,
            ..Evaluator::default()
        };
        let d = Evaluator::with_kind(ModelKind::Mlp);
        assert_ne!(a.config_digest(), c.config_digest());
        assert_ne!(a.config_digest(), d.config_digest());
    }

    #[test]
    fn cached_evaluator_serves_repeats_from_cache() {
        let f = class_frame();
        let cached = runtime::Evaluator::new(Evaluator::default());
        let first = cached.evaluate(&f).unwrap();
        let second = cached.evaluate(&f).unwrap();
        assert_eq!(first.to_bits(), second.to_bits());
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
