//! Cross-validated downstream-task evaluation — the paper's `A_T(F, y)`.
//!
//! The AFE loop repeatedly asks "how good is this feature set for the
//! downstream task?". Following the paper, the answer is a k-fold
//! cross-validation score: support-weighted F1 for classification, 1-RAE
//! for regression. The downstream model defaults to Random Forest and can
//! be swapped (Table V uses SVM, NB/GP and MLP on the cached features).

use crate::binned::{BinnedColumn, BinnedDataset};
use crate::error::{LearnError, Result};
use crate::forest::{ForestConfig, RandomForest, Rows};
use crate::gp::{GaussianProcess, GpConfig};
use crate::linear::{LinearConfig, LinearSvm};
use crate::metrics::score;
use crate::mlp::{Mlp, MlpConfig};
use crate::nb::GaussianNb;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use tabular::cv_indices;
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

/// The process-wide CV-score memo of [`Evaluator::evaluate`], beside the
/// bin cache its keys are made from; entries are 24 bytes.
fn score_memo() -> &'static runtime::ScoreCache<f64> {
    static MEMO: OnceLock<runtime::ScoreCache<f64>> = OnceLock::new();
    MEMO.get_or_init(|| runtime::ScoreCache::new(runtime::DEFAULT_CACHE_CAPACITY))
}

/// Counters of the process-wide CV-score memo: a miss is a histogram
/// forest cross-validated, a hit one that a rank-identical frame (see
/// [`Evaluator::evaluate`]) had already paid for.
pub fn score_memo_stats() -> runtime::CacheStats {
    score_memo().stats()
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
    /// averaged over the folds. A kind that trains a binned forest
    /// ([`bin_budget`](Self::bin_budget)) bins the frame through the
    /// process-wide bin cache and scores the bins
    /// (`evaluate_binned`); the other kinds gather
    /// each fold's rows.
    pub fn evaluate(&self, frame: &DataFrame) -> Result<f64> {
        if frame.n_cols() == 0 {
            return Err(LearnError::EmptyTrainingSet(
                "no feature columns to evaluate".into(),
            ));
        }
        match self.bin_budget(frame.task()) {
            Some(max_bins) => {
                let cols: Vec<&[f64]> = frame
                    .columns()
                    .iter()
                    .map(|c| c.values.as_slice())
                    .collect();
                let binned = BinnedDataset::from_slices_cached(&cols, max_bins)?;
                self.score_binned(&binned, frame.label())
            }
            None => self.cross_validate(frame.label(), |split, fold_seed| {
                let train = frame.take_rows(&split.train)?;
                let test = frame.take_rows(&split.test)?;
                self.fit_score(&train, &test, fold_seed)
            }),
        }
    }

    /// The per-feature bin budget when every fold of an evaluation on
    /// `task` trains a histogram forest — the forest kind, plus SVM's
    /// regression fallback (linear SVR is not part of the paper's Table V
    /// regression rows) — else `None`: the kinds that read raw values.
    pub fn bin_budget(&self, task: Task) -> Option<usize> {
        let forest = match self.kind {
            ModelKind::RandomForest => true,
            ModelKind::Svm => task == Task::Regression,
            ModelKind::NaiveBayesGp | ModelKind::Mlp => false,
        };
        forest.then_some(self.forest.tree.max_bins)
    }

    /// [`evaluate`](Self::evaluate) of a forest kind on columns binned
    /// already (under [`bin_budget`](Self::bin_budget)), in column order:
    /// every fold and every tree trains on these bins and predicts its test
    /// rows from their codes, so no value column is read.
    ///
    /// A histogram forest reads a column only through its bin codes
    /// ([`BinnedColumn::rank_identity`]), so its score is a pure function
    /// of (the columns' rank identities in order, label, this
    /// configuration) and is memoised on exactly that, process-wide:
    /// `ln(|x|+1)`, `sqrt(|x|)` and `x·x` of one parent train one forest
    /// between them. Debug builds recompute every memo hit and assert the
    /// bits.
    pub(crate) fn evaluate_binned(
        &self,
        columns: &[Arc<BinnedColumn>],
        label: &Label,
    ) -> Result<f64> {
        if self.bin_budget(label.task()).is_none() {
            return Err(LearnError::InvalidParam(format!(
                "{} does not train a binned forest on {:?}",
                self.kind.name(),
                label.task()
            )));
        }
        let binned = BinnedDataset::from_columns(columns.to_vec())?;
        if binned.n_rows() != label.len() {
            return Err(LearnError::InvalidParam(format!(
                "binned columns of {} rows for a label of {}",
                binned.n_rows(),
                label.len()
            )));
        }
        self.score_binned(&binned, label)
    }

    /// The memoised binned-forest CV score (see
    /// [`evaluate_binned`](Self::evaluate_binned)).
    fn score_binned(&self, binned: &BinnedDataset, label: &Label) -> Result<f64> {
        let key = self.memo_key(binned, label);
        let memoised = score_memo().get(key);
        if let Some(score) = memoised {
            telemetry::count("cv.memo.hits", 1);
            // A debug build serves no hit: it recomputes and compares, so
            // every test run re-checks the premise on all it evaluates.
            if !cfg!(debug_assertions) {
                return Ok(score);
            }
        } else {
            telemetry::count("cv.memo.misses", 1);
        }
        let score = self.cross_validate(label, |split, fold_seed| {
            self.fit_score_binned(binned, label, split, fold_seed)
        })?;
        match memoised {
            Some(hit) => debug_assert_eq!(
                hit.to_bits(),
                score.to_bits(),
                "equal rank identities must score equally"
            ),
            None => score_memo().insert(key, score),
        }
        Ok(score)
    }

    /// Everything a binned-forest CV score depends on: this configuration,
    /// the label, the row count, and the columns' rank identities in
    /// column order (the feature index drives each node's feature draw).
    fn memo_key(&self, binned: &BinnedDataset, label: &Label) -> runtime::Fingerprint {
        let mut targets = runtime::ColumnDigest::default();
        let mut h = runtime::Hasher128::new();
        h.write_str("learners::cv_memo");
        h.write_u128(runtime::Scorer::config_digest(self).0);
        match label {
            Label::Class { y, n_classes } => {
                h.write_u64(*n_classes as u64);
                y.iter().for_each(|&c| targets.write(&[c as f64]));
            }
            Label::Reg(y) => {
                h.write_u64(0);
                targets.write(y);
            }
        }
        h.write_u128(targets.finish().0);
        h.write_u64(binned.n_rows() as u64);
        for f in 0..binned.n_features() {
            h.write_u128(binned.column(f).rank_identity().0);
        }
        h.finish()
    }

    /// The un-memoised score: `fold(split, fold_index)` scores every fold,
    /// averaged in fold order.
    fn cross_validate(
        &self,
        label: &Label,
        fold: impl Fn(&tabular::Split, u64) -> Result<f64> + Sync,
    ) -> Result<f64> {
        let splits = cv_indices(label, self.folds, self.seed)?;
        let n_folds = splits.len();
        // Folds are independent given their index-derived seeds, so they can
        // run on the shared pool; summing in fold order afterwards keeps the
        // result bit-identical to a sequential run.
        let pool = runtime::WorkerPool::new().with_seed(self.seed);
        let fold_scores = pool.map(splits, |ctx, split| fold(&split, ctx.index as u64));
        let mut total = 0.0;
        for score in fold_scores {
            total += score?;
        }
        Ok(total / n_folds as f64)
    }

    /// One fold against the shared bins: train the forest on the fold's
    /// train rows and predict its test rows, both straight from the bin
    /// codes — no sub-matrix is gathered on either side.
    fn fit_score_binned(
        &self,
        binned: &BinnedDataset,
        label: &Label,
        split: &tabular::Split,
        fold_seed: u64,
    ) -> Result<f64> {
        let mut forest = RandomForest::new(ForestConfig {
            seed: self.seed ^ fold_seed.wrapping_mul(0x9E37),
            ..self.forest
        });
        forest.fit_binned(binned, &split.train, label)?;
        let preds = forest.predict_rows(Rows::Codes(binned, &split.test))?;
        score(&label.take(&split.test), &preds)
    }

    /// Fit on `train`, score on `test` (one fold) — the gather-per-fold
    /// path of the kinds that do not train a forest.
    fn fit_score(&self, train: &DataFrame, test: &DataFrame, fold_seed: u64) -> Result<f64> {
        let xtr = feature_matrix(train);
        let preds = self.fit_predict(&xtr, train.label(), &feature_matrix(test), fold_seed)?;
        score(test.label(), &preds)
    }

    /// Fit this evaluator's raw-value kind on `xtr` against `ytr` and
    /// predict `xte`. SVM and Naive Bayes are classifiers and the GP a
    /// regressor, so NB|GP picks one by the task; the MLP serves both.
    fn fit_predict(
        &self,
        xtr: &[Vec<f64>],
        ytr: &Label,
        xte: &[Vec<f64>],
        fold_seed: u64,
    ) -> Result<Label> {
        let seed = self.seed ^ fold_seed.wrapping_mul(0x9E37);
        let classes = |y: Vec<usize>| Label::Class {
            y,
            n_classes: ytr.n_classes(),
        };
        match (self.kind, ytr) {
            (ModelKind::Mlp, _) => {
                let mut m = Mlp::new(MlpConfig { seed, ..self.mlp });
                m.fit(xtr, ytr)?;
                m.predict(xte)
            }
            (ModelKind::Svm, Label::Class { y, n_classes }) => {
                let mut m = LinearSvm::new(LinearConfig {
                    seed,
                    ..self.linear
                });
                m.fit(xtr, y, *n_classes)?;
                Ok(classes(m.predict(xte)?))
            }
            (ModelKind::NaiveBayesGp, Label::Class { y, n_classes }) => {
                let mut m = GaussianNb::default();
                m.fit(xtr, y, *n_classes)?;
                Ok(classes(m.predict(xte)?))
            }
            (ModelKind::NaiveBayesGp, Label::Reg(y)) => {
                let mut m = GaussianProcess::new(self.gp);
                m.fit(xtr, y)?;
                Ok(Label::Reg(m.predict(xte)?))
            }
            (ModelKind::RandomForest, _) | (ModelKind::Svm, Label::Reg(_)) => {
                unreachable!("forest folds train in fit_score_binned")
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
        // Invariant: a tree of numbers and unit enums with string keys has
        // no failing case in a JSON serialiser.
        #[allow(clippy::expect_used)]
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

    // -----------------------------------------------------------------
    // The memo's premise, with the memo out of the way: `cross_validate`
    // is called directly on uncached bins.
    // -----------------------------------------------------------------

    const SPECIALS: [f64; 7] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5e-323, // subnormal: 3 × the smallest positive double
        -1.0e-323,
        f64::NAN,
    ];
    const NAN_BIT: u8 = 1 << 6;
    const HUGE_BIT: u8 = 1 << 7;

    /// Which specials a column mixes in (bit `k` enables `SPECIALS[k]`,
    /// `HUGE_BIT` magnitudes near 1e100): most images stop being injective
    /// once several kinds meet, so most columns carry one kind or none.
    const PALETTES: [u8; 12] = [
        0,
        0,
        0b11,
        0b100,
        0b1100,
        0b1_0000,
        0b11_0000,
        NAN_BIT,
        HUGE_BIT,
        NAN_BIT | 0b11,
        HUGE_BIT | NAN_BIT | 0b100,
        0xFF,
    ];

    /// Row values with ties: the specials `palette` enables, a
    /// half-integer grid and free reals.
    fn column(kinds: &[u8], reals: &[f64], palette: u8) -> Vec<f64> {
        kinds
            .iter()
            .zip(reals)
            .map(|(&k, &r)| match k as usize {
                k if k < SPECIALS.len() && palette >> k & 1 == 1 => SPECIALS[k],
                7 if palette & HUGE_BIT != 0 => r * 1e98,
                14.. => r,
                _ => (r / 12.5).round() / 2.0,
            })
            .collect()
    }

    /// Whether `y` is a strictly increasing, NaN-preserving image of `x`
    /// that keeps distinct values distinct.
    fn rank_equivalent(x: &[f64], y: &[f64]) -> bool {
        let mut order: Vec<usize> = (0..x.len()).filter(|&r| !x[r].is_nan()).collect();
        order.sort_by(|&a, &b| x[a].total_cmp(&x[b]));
        x.iter().zip(y).all(|(a, b)| a.is_nan() == b.is_nan())
            && order.windows(2).all(|w| {
                let (a, b) = (w[0], w[1]);
                (x[a] == x[b] && y[a] == y[b]) || (x[a] < x[b] && y[a] < y[b])
            })
    }

    fn min_max(x: &[f64]) -> Vec<f64> {
        let finite = x.iter().copied().filter(|v| !v.is_nan());
        let lo = finite.clone().fold(f64::INFINITY, f64::min);
        let hi = finite.fold(f64::NEG_INFINITY, f64::max);
        x.iter().map(|v| (v - lo) / (hi - lo)).collect()
    }

    /// The strictly increasing images of `x` that the paper's monotone
    /// operators (and two affine maps) produce, each beside the column it
    /// is an image of: the sign-blind operators are increasing in `|x|`.
    fn monotone_images(x: &[f64]) -> Vec<(&'static str, Vec<f64>, Vec<f64>)> {
        let map = |f: fn(f64) -> f64, of: &[f64]| of.iter().map(|&v| f(v)).collect::<Vec<_>>();
        let abs = map(f64::abs, x);
        vec![
            ("x+x", x.to_vec(), map(|v| v + v, x)),
            ("0.75x+3", x.to_vec(), map(|v| 0.75 * v + 3.0, x)),
            ("x^3", x.to_vec(), map(|v| v * v * v, x)),
            ("norm", x.to_vec(), min_max(x)),
            ("log", abs.clone(), map(|v| (v.abs() + 1.0).ln(), &abs)),
            ("sqrt", abs.clone(), map(|v| v.abs().sqrt(), &abs)),
            ("x*x", abs.clone(), map(|v| v * v, &abs)),
        ]
    }

    fn identity(values: &[f64], max_bins: usize) -> runtime::Fingerprint {
        crate::BinnedColumn::build(values, max_bins).rank_identity()
    }

    fn codes(values: &[f64], max_bins: usize) -> Vec<usize> {
        let col = crate::BinnedColumn::build(values, max_bins);
        (0..values.len()).map(|r| col.codes().get(r)).collect()
    }

    /// The un-memoised score bits of `[left, candidate, right]` (or the
    /// error's text), on freshly built bins.
    fn score_bits(
        e: &Evaluator,
        cols: [&[f64]; 3],
        label: &Label,
    ) -> std::result::Result<u64, String> {
        let binned = BinnedDataset::from_slices(&cols, e.forest.tree.max_bins).unwrap();
        e.cross_validate(label, |split, seed| {
            e.fit_score_binned(&binned, label, split, seed)
        })
        .map(f64::to_bits)
        .map_err(|err| err.to_string())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// A forest cannot tell a column from a strictly increasing image
        /// of it: equal rank identity, equal CV score bits — u8 and u16
        /// codes, classification and regression, across thread counts.
        #[test]
        fn increasing_images_share_identity_and_score_bits(
            n in 1usize..401,
            kinds in proptest::collection::vec(0u8..20, 400..401),
            reals in proptest::collection::vec(-100.0f64..100.0, 400..401),
            others in proptest::collection::vec(-1.0f64..1.0, 800..801),
            classes in proptest::collection::vec(0usize..5, 400..401),
            palette in 0usize..12,
            bins in 0usize..4,
            label_kind in 0usize..3,
        ) {
            let max_bins = [4, 16, 256, 1024][bins];
            let x = column(&kinds[..n], &reals[..n], PALETTES[palette]);
            let label = match label_kind {
                0 => Label::Class { y: classes[..n].iter().map(|c| c % 2).collect(), n_classes: 2 },
                1 => Label::Class { y: classes[..n].to_vec(), n_classes: 5 },
                _ => Label::Reg(others[..n].iter().zip(&reals).map(|(a, b)| a * b).collect()),
            };
            let mut e = Evaluator::default();
            e.forest.n_trees = 3;
            e.forest.tree.max_bins = max_bins;
            let (left, right) = (&others[..n], &others[400..400 + n]);
            let mut compared = 0;
            for (name, base, image) in monotone_images(&x) {
                if !rank_equivalent(&base, &image) {
                    continue; // overflowed, absorbed or manufactured a NaN
                }
                compared += 1;
                proptest::prop_assert_eq!(
                    identity(&base, max_bins), identity(&image, max_bins), "{} identity", name
                );
                runtime::set_global_threads(1);
                let want = score_bits(&e, [left, &base, right], &label);
                runtime::set_global_threads(4);
                let got = score_bits(&e, [left, &image, right], &label);
                runtime::set_global_threads(0);
                proptest::prop_assert_eq!(want, got, "{} score", name);
            }
            proptest::prop_assert!(compared > 0, "x+x of {:?} must compare", x);
        }

        /// What the identity must tell apart: a reversed order, two rows
        /// of different codes swapped, a value merged into its neighbour.
        #[test]
        fn identity_separates_columns_a_forest_can_tell_apart(
            n in 2usize..401,
            kinds in proptest::collection::vec(0u8..20, 400..401),
            reals in proptest::collection::vec(-100.0f64..100.0, 400..401),
            palette in 0usize..12,
            bins in 0usize..4,
            i in 0usize..400,
            j in 0usize..400,
        ) {
            let max_bins = [4, 16, 256, 1024][bins];
            // No NaN here: a NaN row against its bin-0 twin is the next test.
            let x = column(&kinds[..n], &reals[..n], PALETTES[palette] & !NAN_BIT);
            let (i, j) = (i % n, j % n);
            let coded = codes(&x, max_bins);
            proptest::prop_assume!(coded[i] != coded[j]);
            let id = identity(&x, max_bins);

            let mut swapped = x.clone();
            swapped.swap(i, j);
            proptest::prop_assert!(id != identity(&swapped, max_bins), "swap {} {}", i, j);

            let negated: Vec<f64> = x.iter().map(|v| -v).collect();
            if codes(&negated, max_bins) != coded {
                proptest::prop_assert!(id != identity(&negated, max_bins), "decreasing map");
            }

            let mut merged = x.clone();
            merged.iter_mut().filter(|v| **v == x[i]).for_each(|v| *v = x[j]);
            proptest::prop_assert!(id != identity(&merged, max_bins), "merge {} into {}", i, j);
        }

        /// A forest predicts every row of the dataset its bins were built
        /// from to the same bits whether it walks the row's values or its
        /// bin codes — NaN rows, a `-inf` minimum (a NaN threshold),
        /// signed zeros, subnormals and spans past `f64::MAX` included;
        /// u8 and u16 codes, classification and regression.
        #[test]
        fn prediction_by_code_equals_prediction_by_value(
            n in 1usize..401,
            kinds in proptest::collection::vec(0u8..20, 400..401),
            reals in proptest::collection::vec(-100.0f64..100.0, 400..401),
            others in proptest::collection::vec(-1.0f64..1.0, 800..801),
            classes in proptest::collection::vec(0usize..5, 400..401),
            palette in 0usize..12,
            scale in 0usize..3,
            bins in 0usize..4,
            label_kind in 0usize..3,
            bootstrap in 0usize..2,
        ) {
            let max_bins = [4, 16, 256, 1024][bins];
            // Scaled to 1.7e306, the grid and the free reals span more
            // than `f64::MAX`: the boundaries `midpoint` must keep sorted.
            let scale = [1.0, 1e-300, 1.7e306][scale];
            let x: Vec<f64> = column(&kinds[..n], &reals[..n], PALETTES[palette])
                .into_iter()
                .map(|v| v * scale)
                .collect();
            let (left, right) = (&others[..n], &others[400..400 + n]);
            let cols = [left, x.as_slice(), right];
            let binned = BinnedDataset::from_slices(&cols, max_bins).unwrap();
            let rows: Vec<usize> = (0..n).collect();
            let forest = ForestConfig {
                n_trees: 3,
                bootstrap: bootstrap == 1,
                tree: crate::TreeConfig { max_bins, max_features: Some(2), ..Default::default() },
                ..ForestConfig::default()
            };
            let label = match label_kind {
                0 | 1 => {
                    let n_classes = [2, 5][label_kind];
                    let y = classes[..n].iter().map(|c| c % n_classes).collect();
                    Label::Class { y, n_classes }
                }
                _ => Label::Reg(others[..n].iter().zip(&reals).map(|(a, b)| a * b).collect()),
            };
            let mut m = RandomForest::new(forest);
            m.fit_binned(&binned, &rows, &label).unwrap();
            let bits = |pred: Label| -> Vec<u64> {
                match pred {
                    Label::Class { y, .. } => y.iter().map(|&c| c as u64).collect(),
                    Label::Reg(y) => y.iter().map(|v| v.to_bits()).collect(),
                }
            };
            let by_value = bits(m.predict_rows(Rows::Values(&cols)).unwrap());
            let by_code = bits(m.predict_rows(Rows::Codes(&binned, &rows)).unwrap());
            proptest::prop_assert_eq!(by_value, by_code);
        }
    }

    #[test]
    fn boundaries_stay_sorted_when_finite_values_span_more_than_f64_max() {
        let values = [-1e308, 1e308, 1.5e308, -1.2e308, 1.7e308];
        let col = crate::BinnedColumn::build(&values, 256);
        let thresholds: Vec<f64> = (0..col.n_bins() - 1).map(|b| col.threshold(b)).collect();
        assert_eq!(thresholds.len(), 4);
        assert_eq!(thresholds[1], 0.0, "midpoint of -1e308 and 1e308");
        assert!(thresholds.windows(2).all(|w| w[0] < w[1]), "{thresholds:?}");
        // Distinct values keep distinct codes, and the value rule holds.
        assert_eq!(codes(&values, 256), [1, 2, 3, 0, 4]);
        for (r, &v) in values.iter().enumerate() {
            for (b, &t) in thresholds.iter().enumerate() {
                assert_eq!(v <= t, codes(&values, 256)[r] <= b, "row {r} boundary {b}");
            }
        }
    }

    #[test]
    fn nan_row_and_smallest_value_share_a_code_but_not_an_identity() {
        // A NaN trains in bin 0 like the column minimum, but predicts right
        // of every split where the minimum predicts left.
        let with_nan = [f64::NAN, 1.0, 2.0, 1.0, 3.0];
        let with_min = [1.0, 1.0, 2.0, 1.0, 3.0];
        for max_bins in [4, 1024] {
            assert_eq!(codes(&with_nan, max_bins), codes(&with_min, max_bins));
            assert_ne!(identity(&with_nan, max_bins), identity(&with_min, max_bins));
        }
        // Likewise a -inf minimum: boundary 0 is `midpoint(-inf, 1)` = NaN,
        // which trains as `code <= 0` but sends every row right. Three
        // consecutive doubles whose two midpoints both round onto the
        // middle one get the same codes from finite thresholds.
        let eps = f64::EPSILON;
        let with_inf = [f64::NEG_INFINITY, 1.0, 2.0];
        let adjacent = [1.0 + eps, 1.0 + 2.0 * eps, 1.0 + 3.0 * eps];
        assert!(crate::BinnedColumn::build(&with_inf, 4)
            .threshold(0)
            .is_nan());
        assert_eq!(codes(&with_inf, 4), vec![0, 0, 2]);
        assert_eq!(codes(&adjacent, 4), vec![0, 0, 2]);
        assert_ne!(identity(&with_inf, 4), identity(&adjacent, 4));
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
