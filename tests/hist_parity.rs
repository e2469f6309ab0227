//! Parity of the histogram (binned) split finder — the only one `learners`
//! ships — against the exact sorted-scan oracle `support::exact_cart`
//! (proptest): on low-cardinality data — where the bin budget covers every
//! distinct value — binned training must be **bit-identical** to exact
//! training; on continuous data the two forests must agree within a
//! tolerance on the training task. The same bit-identity is pinned on
//! high-cardinality columns, where every node below the root is smaller
//! than the bin count and takes the counting scan instead of a dense
//! histogram. Plus unit checks of the bin-edge construction and the
//! sibling-subtraction identity the per-node histograms rely on, and the
//! identity `fit` ≡ bin + `fit_binned`.

mod support;

use learners::{
    accumulate_class, accumulate_reg, subtract_class, subtract_reg, BinCodes, BinnedColumn,
    BinnedDataset, DecisionTreeClassifier, DecisionTreeRegressor, Evaluator, ForestConfig,
    RandomForestClassifier, RandomForestRegressor, TreeConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::exact_cart::{ExactForest, ExactTree};

fn forest_config(seed: u64) -> ForestConfig {
    // No bootstrap: every predicted row is then a training row, whose
    // path through the tree is pinned by the identical train partitions.
    // (With bootstrap, an out-of-bag row may legitimately fall between an
    // exact node-local midpoint and the corresponding global bin
    // boundary and land on different sides.)
    ForestConfig {
        n_trees: 5,
        tree: TreeConfig {
            max_depth: 6,
            ..TreeConfig::default()
        },
        bootstrap: false,
        seed,
    }
}

/// Column-major matrix with `n_features` columns; values drawn by `gen`.
fn matrix(
    rng: &mut StdRng,
    n_rows: usize,
    n_features: usize,
    mut gen: impl FnMut(&mut StdRng) -> f64,
) -> Vec<Vec<f64>> {
    (0..n_features)
        .map(|_| (0..n_rows).map(|_| gen(rng)).collect())
        .collect()
}

/// A learnable label: does the first feature pair sum above its median?
fn threshold_labels(x: &[Vec<f64>]) -> Vec<usize> {
    let sums: Vec<f64> = (0..x[0].len()).map(|r| x[0][r] + x[1][r]).collect();
    let mut sorted = sums.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    sums.iter().map(|&s| usize::from(s > median)).collect()
}

fn accuracy(pred: &[usize], y: &[usize]) -> f64 {
    let hits = pred.iter().zip(y).filter(|(p, t)| p == t).count();
    hits as f64 / y.len() as f64
}

/// One bootstrap-sampled tree, grown twice: by the exact oracle on
/// the gathered (duplicated) sub-matrix, and by the histogram path
/// straight from the full dataset's bin codes. `distinct` values per
/// column against `n_rows` rows puts every node below the root under the
/// bin count, so the histogram tree is grown by the dense scan at the
/// root and the counting scan everywhere else; with one bin per distinct
/// value it must be the exact tree, bit for bit.
fn assert_counting_tree_matches_exact(
    seed: u64,
    n_rows: usize,
    distinct: usize,
    max_bins: usize,
    expect_u16: bool,
) -> Result<(), proptest::TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_features = rng.gen_range(3..7);
    let n_classes = rng.gen_range(2..=5);
    let x = matrix(&mut rng, n_rows, n_features, |r| {
        r.gen_range(0..distinct) as f64 * 0.5
    });
    // Learnable with label noise, so trees run deep: pure, single-row and
    // two-row nodes all occur.
    let y: Vec<usize> = (0..n_rows)
        .map(|r| {
            if rng.gen_bool(0.15) {
                rng.gen_range(0..n_classes)
            } else {
                ((x[0][r] + x[1][r]) / distinct as f64 * n_classes as f64) as usize % n_classes
            }
        })
        .collect();
    let rows: Vec<usize> = (0..n_rows).map(|_| rng.gen_range(0..n_rows)).collect();
    let min_samples_leaf = rng.gen_range(1..4);
    let cfg = TreeConfig {
        max_depth: 12,
        min_samples_leaf,
        max_features: Some(n_features.div_ceil(2)),
        seed,
        max_bins,
        ..TreeConfig::default()
    };

    let gx: Vec<Vec<f64>> = x
        .iter()
        .map(|c| rows.iter().map(|&r| c[r]).collect())
        .collect();
    let gy: Vec<usize> = rows.iter().map(|&r| y[r]).collect();
    let exact = ExactTree::fit(&gx, &gy, n_classes, cfg);

    let binned = BinnedDataset::build(&x, max_bins).expect("bin");
    for f in 0..n_features {
        let col = binned.column(f);
        prop_assert!(
            col.n_bins() > n_rows / 2,
            "nodes below the root must be sparse"
        );
        prop_assert_eq!(matches!(col.codes(), BinCodes::U16(_)), expect_u16);
    }
    let mut hist = DecisionTreeClassifier::new(cfg);
    hist.fit_binned(&binned, &rows, &y, n_classes)
        .expect("hist fit");

    let th = hist.tree().unwrap();
    prop_assert_eq!(exact.n_nodes(), th.n_nodes());
    prop_assert!(exact.n_nodes() > 3, "tree must actually split");
    prop_assert_eq!(exact.predict(&gx), hist.predict(&gx).unwrap());
    for (a, b) in exact
        .feature_importances()
        .iter()
        .zip(&th.feature_importances())
    {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "importances differ: {} vs {}",
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Counting scan ≡ exact scan on `u8` bin codes (≤ 256 bins).
    #[test]
    fn counting_scan_tree_bit_identical_to_exact_u8(
        seed in 0u64..1_000_000,
        n_rows in 120usize..260,
    ) {
        assert_counting_tree_matches_exact(seed, n_rows, 250, 256, false)?;
    }

    /// Counting scan ≡ exact scan on `u16` bin codes (> 256 bins).
    #[test]
    fn counting_scan_tree_bit_identical_to_exact_u16(
        seed in 0u64..1_000_000,
        n_rows in 700usize..900,
    ) {
        assert_counting_tree_matches_exact(seed, n_rows, 1500, 2048, true)?;
    }

    /// With ≤ 12 distinct values per column and the default 256-bin
    /// budget, every distinct value gets its own bin, so the histogram
    /// scan enumerates exactly the boundaries the sorted scan does:
    /// the two forests must be the same tree ensemble, bit for bit.
    #[test]
    fn hist_forest_bit_identical_on_low_cardinality_data(
        seed in 0u64..1_000_000,
        n_rows in 50usize..120,
        n_features in 3usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = matrix(&mut rng, n_rows, n_features, |r| r.gen_range(0..12) as f64);
        let y = threshold_labels(&x);

        let exact = ExactForest::fit(&x, &y, 2, forest_config(seed));
        let mut hist = RandomForestClassifier::new(forest_config(seed));
        hist.fit(&x, &y, 2).expect("hist fit");

        let (pe, ph) = (exact.predict(&x), hist.predict(&x).unwrap());
        prop_assert_eq!(pe, ph);
        let (ie, ih) = (
            exact.feature_importances(),
            hist.feature_importances().unwrap(),
        );
        prop_assert_eq!(ie.len(), ih.len());
        for (a, b) in ie.iter().zip(&ih) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "importances differ: {} vs {}", a, b);
        }
    }

    /// On continuous data the bin boundaries quantise split thresholds,
    /// so the ensembles differ — but both must learn the same easy
    /// threshold concept to comparable training accuracy.
    #[test]
    fn hist_forest_within_tolerance_on_continuous_data(
        seed in 0u64..1_000_000,
        n_rows in 60usize..140,
        n_features in 3usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = matrix(&mut rng, n_rows, n_features, |r| r.gen_range(-3.0f64..3.0));
        let y = threshold_labels(&x);

        let exact = ExactForest::fit(&x, &y, 2, forest_config(seed));
        let mut hist = RandomForestClassifier::new(forest_config(seed));
        hist.fit(&x, &y, 2).expect("hist fit");

        let (acc_e, acc_h) = (
            accuracy(&exact.predict(&x), &y),
            accuracy(&hist.predict(&x).expect("predict"), &y),
        );
        prop_assert!(
            (acc_e - acc_h).abs() <= 0.15,
            "train accuracy diverged: exact {} vs hist {}",
            acc_e,
            acc_h
        );
    }

    /// Sibling subtraction is exact: for any parent row set and any
    /// left/right split of it, `parent − left == right` on both the
    /// class-count and the regression-sum histograms.
    #[test]
    fn sibling_subtraction_identity(
        seed in 0u64..1_000_000,
        n_rows in 20usize..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..n_rows).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
        let col = BinnedColumn::build(&values, 16);
        let rows: Vec<usize> = (0..n_rows).collect();
        let cut = rng.gen_range(0..=n_rows);
        let (left, right) = rows.split_at(cut);

        let yc: Vec<usize> = (0..n_rows).map(|_| rng.gen_range(0..3)).collect();
        let (mut hp, mut hl, mut hr) = (Vec::new(), Vec::new(), Vec::new());
        accumulate_class(&col, &rows, &yc, 3, &mut hp);
        accumulate_class(&col, left, &yc, 3, &mut hl);
        accumulate_class(&col, right, &yc, 3, &mut hr);
        prop_assert_eq!(subtract_class(&hp, &hl), hr);

        let yr: Vec<f64> = (0..n_rows).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
        let (mut gp, mut gl, mut gr) = (Vec::new(), Vec::new(), Vec::new());
        accumulate_reg(&col, &rows, &yr, &mut gp);
        accumulate_reg(&col, left, &yr, &mut gl);
        accumulate_reg(&col, right, &yr, &mut gr);
        let sub = subtract_reg(&gp, &gl);
        prop_assert_eq!(sub.len(), gr.len());
        for (s, r) in sub.iter().zip(&gr) {
            prop_assert_eq!(s.n, r.n);
            // Sums come out of a subtraction, not a re-accumulation, so
            // compare to the float tolerance the scan itself tolerates.
            prop_assert!((s.sum - r.sum).abs() <= 1e-9 * (1.0 + r.sum.abs()));
            prop_assert!((s.sumsq - r.sumsq).abs() <= 1e-9 * (1.0 + r.sumsq.abs()));
        }
    }

    /// Bin-edge invariant on arbitrary finite columns: codes are
    /// monotone in the value, and `v <= threshold(b) ⇔ code(v) <= b`
    /// for every (value, boundary) pair — the property the histogram
    /// scan needs for its thresholds to mean what the tree thinks.
    #[test]
    fn bin_codes_respect_thresholds(
        values in prop::collection::vec(-100.0f64..100.0, 2..200),
        max_bins in 2usize..32,
    ) {
        let col = BinnedColumn::build(&values, max_bins);
        prop_assert!(col.n_bins() >= 1 && col.n_bins() <= max_bins);
        for (row, &v) in values.iter().enumerate() {
            let code = col.codes().get(row);
            prop_assert!(code < col.n_bins());
            for b in 0..col.n_bins() - 1 {
                prop_assert_eq!(
                    v <= col.threshold(b),
                    code <= b,
                    "value {} code {} disagrees with threshold({}) = {}",
                    v, code, b, col.threshold(b)
                );
            }
        }
    }
}

#[test]
fn constant_column_gets_single_bin() {
    let col = BinnedColumn::build(&[7.5; 40], 256);
    assert_eq!(col.n_bins(), 1);
    assert!((0..40).all(|r| col.codes().get(r) == 0));
}

#[test]
fn duplicate_heavy_column_stays_within_budget_with_distinct_codes() {
    // 1000 rows, 5 distinct values: one bin per distinct value, and
    // equal values always share a code.
    let values: Vec<f64> = (0..1000).map(|i| (i % 5) as f64).collect();
    let col = BinnedColumn::build(&values, 8);
    assert_eq!(col.n_bins(), 5);
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(col.codes().get(i), v as usize);
    }
}

#[test]
fn binned_dataset_rejects_ragged_matrix() {
    let x = vec![vec![1.0, 2.0, 3.0], vec![1.0, 2.0]];
    assert!(BinnedDataset::build(&x, 16).is_err());
}

/// What replaced the split-method dispatch: every default names the one
/// split finder, and `fit` is "bin, then `fit_binned` on every row" for
/// all four models at any thread count.
#[test]
fn fit_is_binning_then_fit_binned_on_all_rows() {
    let split = TreeConfig::default().split;
    assert_eq!(ForestConfig::default().tree.split, split);
    assert_eq!(ForestConfig::fast().tree.split, split);
    assert_eq!(Evaluator::default().forest.tree.split, split);

    let mut rng = StdRng::seed_from_u64(23);
    let x = matrix(&mut rng, 300, 5, |r| r.gen_range(-3.0f64..3.0));
    let yc = threshold_labels(&x);
    let yr: Vec<f64> = (0..300).map(|r| x[0][r] * x[1][r] + x[2][r]).collect();
    let all: Vec<usize> = (0..300).collect();
    let tree = TreeConfig {
        max_bins: 64, // fewer bins than distinct values: quantile cuts
        seed: 5,
        ..TreeConfig::default()
    };
    let binned = BinnedDataset::build(&x, tree.max_bins).expect("bin");
    // `fit(x, y..)` and `fit_binned(bins of x, all rows, y..)` of one model type.
    macro_rules! assert_fit_is_fit_binned {
        ($model:ident, $cfg:expr, $($label:expr),+) => {{
            let (mut a, mut b) = ($model::new($cfg), $model::new($cfg));
            a.fit(&x, $($label),+).expect("fit");
            b.fit_binned(&binned, &all, $($label),+).expect("fit_binned");
            assert_eq!(a, b, stringify!($model));
        }};
    }
    for n_threads in [1, 4] {
        runtime::set_global_threads(n_threads);
        let forest = ForestConfig {
            n_trees: 6,
            tree,
            ..ForestConfig::default()
        };
        assert_fit_is_fit_binned!(DecisionTreeClassifier, tree, &yc, 2);
        assert_fit_is_fit_binned!(DecisionTreeRegressor, tree, &yr);
        assert_fit_is_fit_binned!(RandomForestClassifier, forest, &yc, 2);
        assert_fit_is_fit_binned!(RandomForestRegressor, forest, &yr);
    }
    runtime::set_global_threads(0);
}
