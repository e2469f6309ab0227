//! Random Forests — the downstream evaluation task the paper uses for both
//! AFE training ("we utilize Random Forest as the model for downstream
//! tasks") and for the RF-importance feature pre-selection step.
//!
//! Trees are trained on bootstrap resamples with √N feature subsampling and
//! fitted in parallel through the shared `runtime` worker pool. Per-tree
//! seeds and bootstrap rows are drawn sequentially up front, so the fitted
//! forest is bit-identical under any thread count.

use crate::binned::BinnedDataset;
use crate::error::{LearnError, Result};
use crate::tree::{
    argmax, for_each_coded_row, for_each_row, predict_columns, DecisionTreeClassifier,
    DecisionTreeRegressor, Tree, TreeConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runtime::WorkerPool;
use serde::{Deserialize, Serialize};

/// Forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration; `max_features = None` here means "use √N".
    pub tree: TreeConfig,
    /// Bootstrap resampling on/off.
    pub bootstrap: bool,
    /// Master seed; per-tree seeds derive from it.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 20,
            tree: TreeConfig::default(),
            bootstrap: true,
            seed: 0,
        }
    }
}

impl ForestConfig {
    /// A smaller, faster configuration for inner-loop feature evaluation.
    pub fn fast() -> Self {
        Self {
            n_trees: 10,
            tree: TreeConfig {
                max_depth: 8,
                ..TreeConfig::default()
            },
            ..Self::default()
        }
    }

    fn sqrt_features(&self, n_features: usize) -> usize {
        ((n_features as f64).sqrt().round() as usize).clamp(1, n_features)
    }
}

/// Quantise the training matrix through the process-wide bin cache,
/// timing the build under `forest.bin_us`.
fn bin_features(x: &[Vec<f64>], max_bins: usize) -> Result<BinnedDataset> {
    let _span = telemetry::span("forest.bin");
    let start = telemetry::enabled().then(std::time::Instant::now);
    let binned = BinnedDataset::build_cached(x, max_bins)?;
    if let Some(t) = start {
        telemetry::record("forest.bin_us", t.elapsed().as_micros() as u64);
    }
    Ok(binned)
}

/// Per-tree (seed, rows) draws, drawn sequentially up front so the fitted
/// forest never depends on worker scheduling. Each bootstrap draw indexes
/// straight into the caller's training subset `rows` (the identity for a
/// full-dataset fit).
fn draw_trees(
    n_trees: usize,
    rows: &[usize],
    bootstrap: bool,
    rng: &mut StdRng,
) -> Vec<(u64, Vec<usize>)> {
    (0..n_trees)
        .map(|_| {
            let seed = rng.gen::<u64>();
            let draw = if bootstrap {
                (0..rows.len())
                    .map(|_| rows[rng.gen_range(0..rows.len())])
                    .collect()
            } else {
                rows.to_vec()
            };
            (seed, draw)
        })
        .collect()
}

/// Fit one tree per `(seed, rows)` draw through the shared runtime pool,
/// under the process-wide thread budget (`runtime::set_global_threads`).
///
/// The draws carry all per-tree randomness, so results do not depend on
/// which worker runs which tree; the pool returns them in draw order.
fn fit_trees<M: Send, F: Fn(u64, &[usize]) -> Result<M> + Sync>(
    draws: Vec<(u64, Vec<usize>)>,
    fit_one: F,
) -> Result<Vec<M>> {
    let mut span = telemetry::span("forest.fit_trees");
    span.field("trees", draws.len() as f64);
    WorkerPool::new()
        .map(draws, |_ctx, (seed, rows)| fit_one(seed, &rows))
        .into_iter()
        .collect()
}

/// Random forest classifier (majority vote over per-tree class frequencies).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForestClassifier {
    /// Hyper-parameters used at fit time.
    pub config: ForestConfig,
    trees: Vec<DecisionTreeClassifier>,
    n_classes: usize,
    n_features: usize,
}

impl RandomForestClassifier {
    /// New unfitted forest.
    pub fn new(config: ForestConfig) -> Self {
        Self {
            config,
            trees: Vec::new(),
            n_classes: 0,
            n_features: 0,
        }
    }

    /// Fit on column-major features and class labels: the matrix is
    /// quantised once (through the process-wide bin cache), then
    /// [`fit_binned`](Self::fit_binned) on every row.
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Result<()> {
        if x.is_empty() || y.is_empty() {
            return Err(LearnError::EmptyTrainingSet("random forest".into()));
        }
        let binned = bin_features(x, self.config.tree.max_bins)?;
        let all: Vec<usize> = (0..y.len()).collect();
        self.fit_binned(&binned, &all, y, n_classes)
    }

    /// Fit on an already-binned dataset, training only on `rows` (e.g. a
    /// CV fold's train rows). Bootstrap draws are taken within `rows`;
    /// labels span the full dataset. No sub-matrix is gathered — every
    /// tree reads the shared bin codes directly.
    pub fn fit_binned(
        &mut self,
        binned: &BinnedDataset,
        rows: &[usize],
        y: &[usize],
        n_classes: usize,
    ) -> Result<()> {
        if binned.n_features() == 0 || rows.is_empty() || y.is_empty() {
            return Err(LearnError::EmptyTrainingSet("random forest".into()));
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut tree_cfg = self.config.tree;
        if tree_cfg.max_features.is_none() {
            tree_cfg.max_features = Some(self.config.sqrt_features(binned.n_features()));
        }
        let draws = draw_trees(self.config.n_trees, rows, self.config.bootstrap, &mut rng);
        self.trees = fit_trees(draws, |seed, tree_rows| {
            let cfg = TreeConfig { seed, ..tree_cfg };
            let mut t = DecisionTreeClassifier::new(cfg);
            t.fit_binned(binned, tree_rows, y, n_classes)?;
            Ok(t)
        })?;
        self.n_classes = n_classes;
        self.n_features = binned.n_features();
        Ok(())
    }

    fn fitted_trees(&self) -> Result<Vec<&Tree>> {
        fitted_trees(&self.trees, DecisionTreeClassifier::tree)
            .ok_or(LearnError::NotFitted("RandomForestClassifier"))
    }

    /// Averaged class probabilities of the requested rows, flat:
    /// `n_classes` values per row (see [`mean_leaves`]).
    fn proba_rows(&self, rows: Rows<'_>) -> Result<Vec<f64>> {
        Ok(mean_leaves(&self.fitted_trees()?, self.n_classes, rows))
    }

    /// Majority-vote class predictions.
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Vec<usize>> {
        self.predict_rows(Rows::Values(&predict_columns(x, self.n_features)?))
    }

    /// Majority-vote class predictions of the requested rows, read without
    /// gathering a sub-matrix.
    pub(crate) fn predict_rows(&self, rows: Rows<'_>) -> Result<Vec<usize>> {
        let proba = self.proba_rows(rows)?;
        Ok(proba.chunks_exact(self.n_classes).map(argmax).collect())
    }

    /// Mean decrease-in-impurity feature importances, normalised to sum to 1.
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        Ok(mean_importances(&self.fitted_trees()?))
    }
}

/// Random forest regressor (mean over per-tree predictions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForestRegressor {
    /// Hyper-parameters used at fit time.
    pub config: ForestConfig,
    trees: Vec<DecisionTreeRegressor>,
    n_features: usize,
}

impl RandomForestRegressor {
    /// New unfitted forest.
    pub fn new(config: ForestConfig) -> Self {
        Self {
            config,
            trees: Vec::new(),
            n_features: 0,
        }
    }

    /// Fit on column-major features and real targets: the matrix is
    /// quantised once (through the process-wide bin cache), then
    /// [`fit_binned`](Self::fit_binned) on every row.
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<()> {
        if x.is_empty() || y.is_empty() {
            return Err(LearnError::EmptyTrainingSet("random forest".into()));
        }
        let binned = bin_features(x, self.config.tree.max_bins)?;
        let all: Vec<usize> = (0..y.len()).collect();
        self.fit_binned(&binned, &all, y)
    }

    /// Fit on an already-binned dataset, training only on `rows` (e.g. a
    /// CV fold's train rows). Bootstrap draws are taken within `rows`;
    /// targets span the full dataset.
    pub fn fit_binned(&mut self, binned: &BinnedDataset, rows: &[usize], y: &[f64]) -> Result<()> {
        if binned.n_features() == 0 || rows.is_empty() || y.is_empty() {
            return Err(LearnError::EmptyTrainingSet("random forest".into()));
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut tree_cfg = self.config.tree;
        if tree_cfg.max_features.is_none() {
            // Regression forests conventionally use N/3 features.
            let n_features = binned.n_features();
            tree_cfg.max_features = Some((n_features / 3).clamp(1, n_features));
        }
        let draws = draw_trees(self.config.n_trees, rows, self.config.bootstrap, &mut rng);
        self.trees = fit_trees(draws, |seed, tree_rows| {
            let cfg = TreeConfig { seed, ..tree_cfg };
            let mut t = DecisionTreeRegressor::new(cfg);
            t.fit_binned(binned, tree_rows, y)?;
            Ok(t)
        })?;
        self.n_features = binned.n_features();
        Ok(())
    }

    fn fitted_trees(&self) -> Result<Vec<&Tree>> {
        fitted_trees(&self.trees, DecisionTreeRegressor::tree)
            .ok_or(LearnError::NotFitted("RandomForestRegressor"))
    }

    /// Mean prediction across trees.
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Vec<f64>> {
        self.predict_rows(Rows::Values(&predict_columns(x, self.n_features)?))
    }

    /// Mean prediction across trees of the requested rows, read without
    /// gathering a sub-matrix (see [`mean_leaves`]).
    pub(crate) fn predict_rows(&self, rows: Rows<'_>) -> Result<Vec<f64>> {
        Ok(mean_leaves(&self.fitted_trees()?, 1, rows))
    }

    /// Mean decrease-in-impurity feature importances, normalised to sum to 1.
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        Ok(mean_importances(&self.fitted_trees()?))
    }
}

/// The rows a fitted forest predicts.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Every row of the column-major `cols`, walked on their values.
    Values(&'a [&'a [f64]]),
    /// `rows` of the binned dataset the forest was fitted on, walked on
    /// their bin codes — the same leaves (see [`Tree::leaf_values_coded`]),
    /// with no value column in sight.
    Codes(&'a BinnedDataset, &'a [usize]),
}

/// Per requested row, the trees' `width`-wide leaf payloads added in tree
/// order, then `/ k`: one flat buffer, `width` values per row.
fn mean_leaves(trees: &[&Tree], width: usize, rows: Rows<'_>) -> Vec<f64> {
    let n_rows = match rows {
        Rows::Values(cols) => cols[0].len(),
        Rows::Codes(_, rows) => rows.len(),
    };
    let mut means = vec![0.0; n_rows * width];
    let mut out = means.chunks_exact_mut(width);
    // Invariant: `means` holds one `width` chunk per visited row.
    #[allow(clippy::expect_used)]
    let mut next = || out.next().expect("one output row per input row");
    match rows {
        Rows::Values(cols) => {
            for_each_row(cols, |x| add_leaves(trees, next(), |t| t.leaf_values(x)))
        }
        Rows::Codes(binned, rows) => for_each_coded_row(binned, rows, |c| {
            add_leaves(trees, next(), |t| t.leaf_values_coded(c))
        }),
    }
    means
}

/// One row of [`mean_leaves`]: `leaf(tree)` is the row's leaf payload.
#[inline]
fn add_leaves(trees: &[&Tree], acc: &mut [f64], leaf: impl Fn(&Tree) -> &[f64]) {
    for tree in trees {
        for (a, v) in acc.iter_mut().zip(leaf(tree)) {
            *a += v;
        }
    }
    let k = trees.len() as f64;
    for a in acc {
        *a /= k;
    }
}

/// The fitted trees of a forest's per-tree models; `None` when unfitted.
fn fitted_trees<M>(models: &[M], tree: impl Fn(&M) -> Option<&Tree>) -> Option<Vec<&Tree>> {
    if models.is_empty() {
        return None;
    }
    models.iter().map(tree).collect()
}

fn mean_importances(trees: &[&Tree]) -> Vec<f64> {
    let mut acc: Vec<f64> = Vec::new();
    for imp in trees.iter().map(|t| t.feature_importances()) {
        if acc.is_empty() {
            acc = vec![0.0; imp.len()];
        }
        for (a, v) in acc.iter_mut().zip(imp) {
            *a += v;
        }
    }
    let total: f64 = acc.iter().sum();
    if total > 0.0 {
        for a in &mut acc {
            *a /= total;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, one_minus_rae};
    use rand::Rng;

    fn nonlinear_classification(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut noise = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let av: f64 = rng.gen_range(-2.0..2.0);
            let bv: f64 = rng.gen_range(-2.0..2.0);
            a.push(av);
            b.push(bv);
            noise.push(rng.gen_range(-1.0..1.0));
            y.push(usize::from(av * bv > 0.0));
        }
        (vec![a, b, noise], y)
    }

    #[test]
    fn classifier_beats_chance_on_product_rule() {
        let (x, y) = nonlinear_classification(400, 1);
        let mut f = RandomForestClassifier::new(ForestConfig::default());
        f.fit(&x, &y, 2).unwrap();
        let acc = accuracy(&y, &f.predict(&x).unwrap()).unwrap();
        assert!(acc > 0.9, "train accuracy {acc}");
    }

    #[test]
    fn classifier_generalizes() {
        let (xtr, ytr) = nonlinear_classification(600, 2);
        let (xte, yte) = nonlinear_classification(200, 3);
        let mut f = RandomForestClassifier::new(ForestConfig::default());
        f.fit(&xtr, &ytr, 2).unwrap();
        let acc = accuracy(&yte, &f.predict(&xte).unwrap()).unwrap();
        assert!(acc > 0.8, "test accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = nonlinear_classification(200, 4);
        let mut f1 = RandomForestClassifier::new(ForestConfig::default());
        let mut f2 = RandomForestClassifier::new(ForestConfig::default());
        f1.fit(&x, &y, 2).unwrap();
        f2.fit(&x, &y, 2).unwrap();
        assert_eq!(f1.predict(&x).unwrap(), f2.predict(&x).unwrap());
    }

    #[test]
    fn importances_favour_signal_features() {
        let (x, y) = nonlinear_classification(400, 5);
        let mut f = RandomForestClassifier::new(ForestConfig::default());
        f.fit(&x, &y, 2).unwrap();
        let imp = f.feature_importances().unwrap();
        assert_eq!(imp.len(), 3);
        // Noise column (index 2) should matter least.
        assert!(imp[2] < imp[0] && imp[2] < imp[1], "importances {imp:?}");
    }

    #[test]
    fn regressor_fits_smooth_function() {
        let mut rng = StdRng::seed_from_u64(6);
        let xs: Vec<f64> = (0..300).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let y: Vec<f64> = xs.iter().map(|v| v * v + 0.1 * v).collect();
        let x = vec![xs];
        let mut f = RandomForestRegressor::new(ForestConfig::default());
        f.fit(&x, &y).unwrap();
        let score = one_minus_rae(&y, &f.predict(&x).unwrap()).unwrap();
        assert!(score > 0.9, "1-rae {score}");
    }

    #[test]
    fn unfitted_errors() {
        let f = RandomForestClassifier::new(ForestConfig::default());
        assert!(f.predict(&[vec![1.0]]).is_err());
        let r = RandomForestRegressor::new(ForestConfig::default());
        assert!(r.predict(&[vec![1.0]]).is_err());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let (x, y) = nonlinear_classification(150, 8);
        let fitted = |threads: usize| {
            runtime::set_global_threads(threads);
            let mut forest = RandomForestClassifier::new(ForestConfig::default());
            forest.fit(&x, &y, 2).unwrap();
            forest
        };
        let (seq, par) = (fitted(1), fitted(4));
        runtime::set_global_threads(0);
        assert_eq!(seq, par);
        assert_eq!(seq.predict(&x).unwrap(), par.predict(&x).unwrap());
    }

    #[test]
    fn no_bootstrap_mode_trains() {
        let (x, y) = nonlinear_classification(100, 9);
        let mut f = RandomForestClassifier::new(ForestConfig {
            bootstrap: false,
            ..ForestConfig::default()
        });
        f.fit(&x, &y, 2).unwrap();
        assert_eq!(f.predict(&x).unwrap().len(), y.len());
    }
}
