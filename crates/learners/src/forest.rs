//! Random Forests — the downstream evaluation task the paper uses for both
//! AFE training ("we utilize Random Forest as the model for downstream
//! tasks") and for the RF-importance feature pre-selection step. One
//! [`RandomForest`] serves both tasks, decided by the label it is fitted
//! on; `RandomForestClassifier`/`RandomForestRegressor` are thin shims
//! over it that only the end-to-end benchmark calls.
//!
//! Trees are trained on bootstrap resamples with √N feature subsampling and
//! fitted in parallel through the shared `runtime` worker pool. Per-tree
//! seeds and bootstrap rows are drawn sequentially up front, so the fitted
//! forest is bit-identical under any thread count.

use crate::binned::BinnedDataset;
use crate::error::{LearnError, Result};
use crate::tree::{
    argmax, for_each_coded_row, for_each_row, predict_columns, Labels, Tree, TreeConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runtime::WorkerPool;
use serde::{Deserialize, Serialize};
use tabular::{Label, Task};

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
fn fit_trees(
    draws: Vec<(u64, Vec<usize>)>,
    fit_one: impl Fn(u64, &[usize]) -> Result<Tree> + Sync,
) -> Result<Vec<Tree>> {
    let mut span = telemetry::span("forest.fit_trees");
    span.field("trees", draws.len() as f64);
    WorkerPool::new()
        .map(draws, |_ctx, (seed, rows)| fit_one(seed, &rows))
        .into_iter()
        .collect()
}

/// A random forest over either task: the [`Label`] it is fitted on picks
/// the trees' task and the default `max_features` (√N for classification,
/// N/3 for regression); it predicts the majority vote over the trees'
/// class frequencies or the mean of their predictions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    /// Hyper-parameters used at fit time.
    pub config: ForestConfig,
    trees: Vec<Tree>,
}

impl RandomForest {
    /// New unfitted forest.
    pub fn new(config: ForestConfig) -> Self {
        Self {
            config,
            trees: Vec::new(),
        }
    }

    /// Fit on column-major features: the matrix is quantised once
    /// (through the process-wide bin cache), then
    /// [`fit_binned`](Self::fit_binned) on every row.
    pub fn fit(&mut self, x: &[Vec<f64>], label: &Label) -> Result<()> {
        if x.is_empty() || label.is_empty() {
            return Err(LearnError::EmptyTrainingSet("random forest".into()));
        }
        let binned = bin_features(x, self.config.tree.max_bins)?;
        let all: Vec<usize> = (0..label.len()).collect();
        self.fit_binned(&binned, &all, label)
    }

    /// Fit on an already-binned dataset, training only on `rows` (e.g. a
    /// CV fold's train rows). Bootstrap draws are taken within `rows`;
    /// `label` spans the full dataset. No sub-matrix is gathered — every
    /// tree reads the shared bin codes directly.
    pub fn fit_binned(
        &mut self,
        binned: &BinnedDataset,
        rows: &[usize],
        label: &Label,
    ) -> Result<()> {
        self.fit_labels(binned, rows, Labels::from(label))
    }

    fn fit_labels(
        &mut self,
        binned: &BinnedDataset,
        rows: &[usize],
        labels: Labels<'_>,
    ) -> Result<()> {
        if binned.n_features() == 0 || rows.is_empty() || labels.len() == 0 {
            return Err(LearnError::EmptyTrainingSet("random forest".into()));
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut tree_cfg = self.config.tree;
        if tree_cfg.max_features.is_none() {
            let n_features = binned.n_features();
            tree_cfg.max_features = Some(match labels {
                Labels::Class { .. } => self.config.sqrt_features(n_features),
                // Regression forests conventionally use N/3 features.
                Labels::Reg(_) => (n_features / 3).clamp(1, n_features),
            });
        }
        let draws = draw_trees(self.config.n_trees, rows, self.config.bootstrap, &mut rng);
        self.trees = fit_trees(draws, |seed, tree_rows| {
            Tree::fit_labels(binned, tree_rows, labels, TreeConfig { seed, ..tree_cfg })
        })?;
        Ok(())
    }

    /// Predict column-major features.
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Label> {
        let n_features = self.fitted()?[0].n_features;
        self.predict_rows(Rows::Values(&predict_columns(x, n_features)?))
    }

    /// Predict the requested rows, read without gathering a sub-matrix.
    pub(crate) fn predict_rows(&self, rows: Rows<'_>) -> Result<Label> {
        Ok(predict_label(self.fitted()?, rows))
    }

    /// Mean decrease-in-impurity feature importances, normalised to sum to 1.
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        Ok(mean_importances(self.fitted()?))
    }

    fn fitted(&self) -> Result<&[Tree]> {
        if self.trees.is_empty() {
            return Err(LearnError::NotFitted("RandomForest"));
        }
        Ok(&self.trees)
    }
}

/// [`RandomForest`] on class labels, kept only for the probes of the
/// end-to-end benchmark (`benchmark/`), which call exactly these three
/// methods.
#[derive(Debug, Clone)]
pub struct RandomForestClassifier(RandomForest);

impl RandomForestClassifier {
    /// [`RandomForest::new`].
    pub fn new(config: ForestConfig) -> Self {
        Self(RandomForest::new(config))
    }

    /// [`RandomForest::fit_binned`] on classes `y` in `0..n_classes`.
    pub fn fit_binned(
        &mut self,
        binned: &BinnedDataset,
        rows: &[usize],
        y: &[usize],
        n_classes: usize,
    ) -> Result<()> {
        self.0
            .fit_labels(binned, rows, Labels::Class { y, n_classes })
    }

    /// [`RandomForest::predict`].
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Label> {
        self.0.predict(x)
    }
}

/// [`RandomForest`] on regression targets, kept only for the probes of
/// the end-to-end benchmark (`benchmark/`), which call exactly these three
/// methods.
#[derive(Debug, Clone)]
pub struct RandomForestRegressor(RandomForest);

impl RandomForestRegressor {
    /// [`RandomForest::new`].
    pub fn new(config: ForestConfig) -> Self {
        Self(RandomForest::new(config))
    }

    /// [`RandomForest::fit_binned`] on targets `y`.
    pub fn fit_binned(&mut self, binned: &BinnedDataset, rows: &[usize], y: &[f64]) -> Result<()> {
        self.0.fit_labels(binned, rows, Labels::Reg(y))
    }

    /// [`RandomForest::predict`].
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Label> {
        self.0.predict(x)
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

/// The trees' prediction of the requested rows, of the trees' task: the
/// argmax of the mean class frequencies, or the mean target.
pub(crate) fn predict_label(trees: &[Tree], rows: Rows<'_>) -> Label {
    let (task, width) = (trees[0].task, trees[0].n_outputs);
    let means = mean_leaves(trees, width, rows);
    match task {
        Task::Classification => Label::Class {
            y: means.chunks_exact(width).map(argmax).collect(),
            n_classes: width,
        },
        Task::Regression => Label::Reg(means),
    }
}

/// Per requested row, the trees' `width`-wide leaf payloads added in tree
/// order, then `/ k`: one flat buffer, `width` values per row.
fn mean_leaves(trees: &[Tree], width: usize, rows: Rows<'_>) -> Vec<f64> {
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
fn add_leaves(trees: &[Tree], acc: &mut [f64], leaf: impl Fn(&Tree) -> &[f64]) {
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

fn mean_importances(trees: &[Tree]) -> Vec<f64> {
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
    use crate::metrics::{accuracy, score};
    use rand::Rng;

    fn acc(truth: &Label, pred: &Label) -> f64 {
        accuracy(truth.classes().unwrap(), pred.classes().unwrap()).unwrap()
    }

    fn nonlinear_classification(n: usize, seed: u64) -> (Vec<Vec<f64>>, Label) {
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
        (vec![a, b, noise], Label::Class { y, n_classes: 2 })
    }

    #[test]
    fn classifier_beats_chance_on_product_rule() {
        let (x, y) = nonlinear_classification(400, 1);
        let mut f = RandomForest::new(ForestConfig::default());
        f.fit(&x, &y).unwrap();
        let acc = acc(&y, &f.predict(&x).unwrap());
        assert!(acc > 0.9, "train accuracy {acc}");
    }

    #[test]
    fn classifier_generalizes() {
        let (xtr, ytr) = nonlinear_classification(600, 2);
        let (xte, yte) = nonlinear_classification(200, 3);
        let mut f = RandomForest::new(ForestConfig::default());
        f.fit(&xtr, &ytr).unwrap();
        let acc = acc(&yte, &f.predict(&xte).unwrap());
        assert!(acc > 0.8, "test accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = nonlinear_classification(200, 4);
        let mut f1 = RandomForest::new(ForestConfig::default());
        let mut f2 = RandomForest::new(ForestConfig::default());
        f1.fit(&x, &y).unwrap();
        f2.fit(&x, &y).unwrap();
        assert_eq!(f1.predict(&x).unwrap(), f2.predict(&x).unwrap());
    }

    #[test]
    fn importances_favour_signal_features() {
        let (x, y) = nonlinear_classification(400, 5);
        let mut f = RandomForest::new(ForestConfig::default());
        f.fit(&x, &y).unwrap();
        let imp = f.feature_importances().unwrap();
        assert_eq!(imp.len(), 3);
        // Noise column (index 2) should matter least.
        assert!(imp[2] < imp[0] && imp[2] < imp[1], "importances {imp:?}");
    }

    #[test]
    fn regressor_fits_smooth_function() {
        let mut rng = StdRng::seed_from_u64(6);
        let xs: Vec<f64> = (0..300).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let y = Label::Reg(xs.iter().map(|v| v * v + 0.1 * v).collect());
        let x = vec![xs];
        let mut f = RandomForest::new(ForestConfig::default());
        f.fit(&x, &y).unwrap();
        let rae = score(&y, &f.predict(&x).unwrap()).unwrap();
        assert!(rae > 0.9, "1-rae {rae}");
    }

    #[test]
    fn unfitted_errors() {
        let f = RandomForest::new(ForestConfig::default());
        assert!(f.predict(&[vec![1.0]]).is_err());
        assert!(f.feature_importances().is_err());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let (x, y) = nonlinear_classification(150, 8);
        let fitted = |threads: usize| {
            runtime::set_global_threads(threads);
            let mut forest = RandomForest::new(ForestConfig::default());
            forest.fit(&x, &y).unwrap();
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
        let mut f = RandomForest::new(ForestConfig {
            bootstrap: false,
            ..ForestConfig::default()
        });
        f.fit(&x, &y).unwrap();
        assert_eq!(f.predict(&x).unwrap().len(), y.len());
    }
}
