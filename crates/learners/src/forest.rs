//! Random Forests — the downstream evaluation task the paper uses for both
//! AFE training ("we utilize Random Forest as the model for downstream
//! tasks") and for the RF-importance feature pre-selection step. One
//! [`RandomForest`] serves both tasks, decided by the label it is fitted
//! on; `RandomForestClassifier`/`RandomForestRegressor` are thin shims
//! over it that only the end-to-end benchmark calls.
//!
//! Trees are trained on bootstrap resamples with √N feature subsampling and
//! fitted in parallel through the shared `runtime` worker pool. Per-tree
//! seeds and the generator state each bootstrap draw starts from are taken
//! sequentially up front; each tree's task replays its own draw straight
//! into the tree builder. So the fitted forest is bit-identical under any
//! thread count, and only the running trees' draws are ever in memory.

use crate::binned::BinnedDataset;
use crate::error::{LearnError, Result};
use crate::tree::{
    argmax, for_each_coded_row, for_each_row, predict_columns, Labels, Tree, TreeConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runtime::WorkerPool;
use serde::{Deserialize, Serialize};
use tabular::{FoldTrain, Label, Task};

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

/// One tree's randomness, taken from the fold's generator up front: the
/// tree's seed and, under bootstrap, the generator as the tree's draw
/// starts. The draw itself is not kept; [`bootstrap_rows`] replays it.
struct TreeDraw {
    seed: u64,
    bootstrap: Option<StdRng>,
}

/// One bootstrap draw: one of `n` training positions. Stepping past a
/// draw and replaying it both call exactly this, so
/// they consume the generator alike; the step past discards the position,
/// which leaves it only the generator's own steps to pay.
#[inline]
fn bootstrap_position(n: usize, rng: &mut StdRng) -> usize {
    rng.gen_range(0..n)
}

/// The rows a forest trains on, read by position: all `n` rows, listed
/// rows (which may repeat), or a CV fold's train rows read in place. One
/// type, not a closure per source: the tree builder is compiled once.
#[derive(Clone, Copy)]
pub(crate) enum TrainRows<'a> {
    All(usize),
    Listed(&'a [usize]),
    Fold(FoldTrain<'a>),
}

impl<'a> TrainRows<'a> {
    fn len(self) -> usize {
        match self {
            TrainRows::All(n) => n,
            TrainRows::Listed(rows) => rows.len(),
            TrainRows::Fold(fold) => fold.n_rows(),
        }
    }

    #[inline]
    fn get(self, p: usize) -> usize {
        match self {
            TrainRows::All(_) => p,
            TrainRows::Listed(rows) => rows[p],
            TrainRows::Fold(fold) => fold.get(p),
        }
    }

    pub(crate) fn iter(self) -> impl ExactSizeIterator<Item = usize> + Clone + 'a {
        (0..self.len()).map(move |p| self.get(p))
    }
}

/// The bootstrap draw that starts at `rng`: `rows.len()` rows of `rows`.
fn bootstrap_rows(
    rows: TrainRows<'_>,
    mut rng: StdRng,
) -> impl ExactSizeIterator<Item = usize> + '_ {
    (0..rows.len()).map(move |_| rows.get(bootstrap_position(rows.len(), &mut rng)))
}

/// Per-tree seeds and draw states, taken sequentially up front so the
/// fitted forest never depends on worker scheduling. Under bootstrap the
/// fold's generator steps past each tree's draw of `n_rows` positions,
/// keeping only where it started.
fn draw_trees(n_trees: usize, n_rows: usize, bootstrap: bool, rng: &mut StdRng) -> Vec<TreeDraw> {
    (0..n_trees)
        .map(|_| {
            let seed = rng.gen::<u64>();
            let bootstrap = bootstrap.then(|| {
                let start = rng.clone();
                for _ in 0..n_rows {
                    bootstrap_position(n_rows, rng);
                }
                start
            });
            TreeDraw { seed, bootstrap }
        })
        .collect()
}

/// Fit one tree per draw through the shared runtime pool, under the
/// process-wide thread budget (`runtime::set_global_threads`). Each task
/// replays its tree's bootstrap draw into the builder, or reads `rows`
/// in order without bootstrap.
///
/// The draws carry all per-tree randomness, so results do not depend on
/// which worker runs which tree; the pool returns them in draw order.
fn fit_trees(
    binned: &BinnedDataset,
    rows: TrainRows<'_>,
    labels: Labels<'_>,
    tree_cfg: TreeConfig,
    draws: Vec<TreeDraw>,
) -> Result<Vec<Tree>> {
    let mut span = telemetry::span("forest.fit_trees");
    span.field("trees", draws.len() as f64);
    WorkerPool::new()
        .map(draws, |_ctx, draw| {
            let cfg = TreeConfig {
                seed: draw.seed,
                ..tree_cfg
            };
            match draw.bootstrap {
                Some(rng) => Tree::fit_labels(binned, bootstrap_rows(rows, rng), labels, cfg),
                None => Tree::fit_labels(binned, rows.iter(), labels, cfg),
            }
        })
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
        self.fit_labels(&binned, TrainRows::All(label.len()), Labels::from(label))
    }

    /// Fit on an already-binned dataset, training only on `rows` (which
    /// may repeat). Bootstrap draws are taken within `rows`;
    /// `label` spans the full dataset. No sub-matrix is gathered — every
    /// tree reads the shared bin codes directly.
    pub fn fit_binned(
        &mut self,
        binned: &BinnedDataset,
        rows: &[usize],
        label: &Label,
    ) -> Result<()> {
        self.fit_labels(binned, TrainRows::Listed(rows), Labels::from(label))
    }

    /// [`fit_binned`](Self::fit_binned) on a row view and borrowed labels.
    pub(crate) fn fit_labels(
        &mut self,
        binned: &BinnedDataset,
        rows: TrainRows<'_>,
        labels: Labels<'_>,
    ) -> Result<()> {
        let n_rows = rows.len();
        if binned.n_features() == 0 || n_rows == 0 || labels.len() == 0 {
            return Err(LearnError::EmptyTrainingSet("random forest".into()));
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let draws = draw_trees(self.config.n_trees, n_rows, self.config.bootstrap, &mut rng);
        let tree_cfg = self.tree_config(binned.n_features(), labels);
        self.trees = fit_trees(binned, rows, labels, tree_cfg, draws)?;
        Ok(())
    }

    /// The trees' configuration: `max_features` unset picks √N features
    /// for classification and N/3 for regression.
    fn tree_config(&self, n_features: usize, labels: Labels<'_>) -> TreeConfig {
        let mut tree_cfg = self.config.tree;
        if tree_cfg.max_features.is_none() {
            tree_cfg.max_features = Some(match labels {
                Labels::Class { .. } => self.config.sqrt_features(n_features),
                // Regression forests conventionally use N/3 features.
                Labels::Reg(_) => (n_features / 3).clamp(1, n_features),
            });
        }
        tree_cfg
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
        let labels = Labels::Class { y, n_classes };
        self.0.fit_labels(binned, TrainRows::Listed(rows), labels)
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
        self.0
            .fit_labels(binned, TrainRows::Listed(rows), Labels::Reg(y))
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
    Codes(&'a BinnedDataset, &'a [u32]),
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

    /// The draw as it was taken before tasks replayed it: every tree's
    /// seed and rows, drawn sequentially up front. The oracle for
    /// [`draw_trees`] + [`bootstrap_rows`].
    fn draw_trees_upfront(
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

    /// Training subsets of 1, 7 and 800 rows, with repeated ids.
    fn subsets() -> Vec<Vec<usize>> {
        vec![
            vec![4],
            vec![0, 3, 3, 9, 1, 1, 1],
            (0..800).map(|i| (i * 7) % 600).collect(),
        ]
    }

    #[test]
    fn replayed_draws_equal_the_upfront_oracle() {
        for rows in subsets() {
            for bootstrap in [true, false] {
                for n_trees in [1, 2, 6] {
                    let what = format!(
                        "{} rows, bootstrap {bootstrap}, {n_trees} trees",
                        rows.len()
                    );
                    let mut rng = StdRng::seed_from_u64(17);
                    let mut oracle_rng = rng.clone();
                    let draws = draw_trees(n_trees, rows.len(), bootstrap, &mut rng);
                    let oracle = draw_trees_upfront(n_trees, &rows, bootstrap, &mut oracle_rng);
                    // The fold's generator ends where the up-front draw left it.
                    assert_eq!(rng, oracle_rng, "{what}");
                    assert_eq!(draws.len(), oracle.len(), "{what}");
                    for (draw, (seed, drawn)) in draws.into_iter().zip(oracle) {
                        assert_eq!(draw.seed, seed, "{what}");
                        assert_eq!(draw.bootstrap.is_some(), bootstrap, "{what}");
                        let replayed: Vec<usize> = match draw.bootstrap {
                            Some(start) => {
                                bootstrap_rows(TrainRows::Listed(&rows), start).collect()
                            }
                            None => rows.clone(),
                        };
                        assert_eq!(replayed, drawn, "{what}");
                    }
                }
            }
        }
    }

    /// `forest` refitted from [`draw_trees_upfront`]'s rows, each tree
    /// built on its gathered `Vec<usize>` as before draws were replayed.
    fn fit_from_oracle(
        forest: &RandomForest,
        binned: &BinnedDataset,
        rows: &[usize],
        labels: Labels<'_>,
    ) -> RandomForest {
        let config = forest.config;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let tree_cfg = forest.tree_config(binned.n_features(), labels);
        let trees = draw_trees_upfront(config.n_trees, rows, config.bootstrap, &mut rng)
            .into_iter()
            .map(|(seed, drawn)| {
                let cfg = TreeConfig { seed, ..tree_cfg };
                Tree::fit_labels(binned, drawn.iter().copied(), labels, cfg).unwrap()
            })
            .collect();
        RandomForest { config, trees }
    }

    #[test]
    fn replayed_forest_equals_the_upfront_oracle_on_both_tasks() {
        let (x, class) = nonlinear_classification(600, 10);
        let reg = Label::Reg(x[0].iter().zip(&x[1]).map(|(a, b)| a * b + a).collect());
        let binned = BinnedDataset::build(&x, TreeConfig::default().max_bins).unwrap();
        for label in [&class, &reg] {
            for rows in subsets() {
                for bootstrap in [true, false] {
                    for n_trees in [1, 2, 6] {
                        let mut forest = RandomForest::new(ForestConfig {
                            n_trees,
                            bootstrap,
                            seed: 3,
                            ..ForestConfig::default()
                        });
                        forest.fit_binned(&binned, &rows, label).unwrap();
                        let oracle = fit_from_oracle(&forest, &binned, &rows, Labels::from(label));
                        assert!(
                            forest == oracle,
                            "{} rows, bootstrap {bootstrap}, {n_trees} trees",
                            rows.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn replayed_build_rejects_bad_rows_and_classes() {
        let (x, class) = nonlinear_classification(50, 11);
        let binned = BinnedDataset::build(&x, TreeConfig::default().max_bins).unwrap();
        let reg = Label::Reg(vec![1.0; 50]);
        for bootstrap in [true, false] {
            let mut forest = RandomForest::new(ForestConfig {
                bootstrap,
                ..ForestConfig::default()
            });
            // A row id past the label, on either task.
            for label in [&class, &reg] {
                let err = forest.fit_binned(&binned, &[50], label).unwrap_err();
                assert!(matches!(err, LearnError::InvalidParam(_)), "{err:?}");
            }
            // A class outside `0..n_classes`.
            let mut y = class.classes().unwrap().to_vec();
            y[7] = 2;
            let bad = Label::Class { y, n_classes: 2 };
            let err = forest.fit_binned(&binned, &[7, 7, 7], &bad).unwrap_err();
            assert!(matches!(err, LearnError::InvalidParam(_)), "{err:?}");
        }
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
