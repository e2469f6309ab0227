//! Golden downstream scores: `Evaluator::evaluate(..).to_bits()` pinned as
//! literals for a handful of frames that between them cover every label
//! and code layout of the histogram tree builder — `u8`- and `u16`-coded
//! columns, 2 and 5 classes, `min_samples_leaf` 1 and 3, regression small
//! enough to stay serial and large enough to fan histograms out, constant
//! and non-finite columns, and bootstrap draws dominated by duplicates.
//!
//! The `Histogram ≡ Exact` suites (`hist_parity.rs`) pin classification
//! only, where every count is an integer. Regression sums are floats whose
//! value depends on the order rows are added in, so the only way to pin
//! them is against recorded bits: the literals below were captured on the
//! commit *before* the node-ordered label buffer landed (PR 15) and must
//! never move without a deliberate, documented change of the addition
//! order (DESIGN.md §8).
//!
//! The downstream kinds that read raw values (SVM, NB|GP, MLP) and the
//! three deep-learning baselines are pinned the same way on one frame of
//! each task, so a change to how a model picks its task shows in bits.

use eafe::{run_dl_fe, run_fe_dl, run_rtdl_n, DlBaselineConfig};
use learners::{Evaluator, ModelKind, SplitMethod};
use tabular::{Column, DataFrame, Label};

/// SplitMix64: the frames must not depend on anything the crates under
/// test generate.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// `n_cols` continuous columns of `n_rows` values each.
fn continuous(seed: u64, n_rows: usize, n_cols: usize) -> Vec<Vec<f64>> {
    let mut rng = Mix(seed);
    (0..n_cols)
        .map(|c| (0..n_rows).map(|_| rng.unit() * (1.0 + c as f64)).collect())
        .collect()
}

/// A learnable signal with noise: a product, a step and a linear term.
fn signal(x: &[Vec<f64>], r: usize, rng: &mut Mix) -> f64 {
    let step = if x[2][r].is_finite() && x[2][r] > 0.0 {
        0.7
    } else {
        -0.4
    };
    let lin = if x[1][r].is_finite() { x[1][r] } else { 0.0 };
    x[0][r] * lin + step + 0.3 * x[0][r] + 0.25 * rng.unit()
}

fn class_labels(x: &[Vec<f64>], n_classes: usize, seed: u64) -> Label {
    let mut rng = Mix(seed);
    let n = x[0].len();
    let s: Vec<f64> = (0..n).map(|r| signal(x, r, &mut rng)).collect();
    let mut sorted = s.clone();
    sorted.sort_by(f64::total_cmp);
    let y = s
        .iter()
        .map(|v| {
            (1..n_classes)
                .filter(|q| *v > sorted[q * n / n_classes])
                .count()
        })
        .collect();
    Label::Class { y, n_classes }
}

fn reg_labels(x: &[Vec<f64>], seed: u64) -> Label {
    let mut rng = Mix(seed);
    Label::Reg(
        (0..x[0].len())
            .map(|r| signal(x, r, &mut rng) * 3.0 + 10.0)
            .collect(),
    )
}

fn frame(name: &str, x: Vec<Vec<f64>>, label: Label) -> DataFrame {
    let cols = x
        .into_iter()
        .enumerate()
        .map(|(i, v)| Column::new(format!("f{i}"), v))
        .collect();
    DataFrame::new(name, cols, label).expect("well-formed frame")
}

fn evaluator(
    folds: usize,
    trees: usize,
    depth: usize,
    msl: usize,
    max_bins: usize,
    seed: u64,
) -> Evaluator {
    let mut e = Evaluator {
        folds,
        seed,
        ..Evaluator::default()
    };
    e.forest.n_trees = trees;
    e.forest.tree.max_depth = depth;
    e.forest.tree.min_samples_leaf = msl;
    e.forest.tree.max_bins = max_bins;
    assert_eq!(e.forest.tree.split, SplitMethod::Histogram);
    e
}

/// A constant column and a column carrying NaN and both infinities — what
/// the paper's log / reciprocal / divide operators produce by design.
fn hostile(seed: u64, n_rows: usize) -> Vec<Vec<f64>> {
    let mut x = continuous(seed, n_rows, 6);
    x[3] = vec![2.5; n_rows];
    for (r, v) in x[4].iter_mut().enumerate() {
        *v = match r % 11 {
            0 => f64::NAN,
            3 => f64::INFINITY,
            7 => f64::NEG_INFINITY,
            _ => *v,
        };
    }
    x
}

/// Asserted cold, then warm: the second evaluation is a CV-score memo hit
/// (`learners::cv`) — served in `--release`, recomputed and compared in a
/// debug build — and must be the same literal.
fn check(name: &str, e: &Evaluator, f: &DataFrame, expected: u64) {
    for pass in ["cold", "warm"] {
        let score = e.evaluate(f).expect("evaluation succeeds");
        assert_eq!(
            score.to_bits(),
            expected,
            "{name} ({pass}): score {score} = {:#018x}, golden {:#018x}",
            score.to_bits(),
            expected
        );
    }
}

#[test]
fn classification_u8_codes_two_classes() {
    let x = continuous(11, 400, 6);
    let y = class_labels(&x, 2, 12);
    check(
        "class_u8_2c_msl1",
        &evaluator(5, 10, 8, 1, 256, 3),
        &frame("class-u8", x, y),
        0x3fec_3c04_9ad5_b22b,
    );
}

#[test]
fn classification_u16_codes_five_classes_leaf_floor() {
    let x = continuous(21, 1500, 5);
    let y = class_labels(&x, 5, 22);
    check(
        "class_u16_5c_msl3",
        &evaluator(3, 6, 7, 3, 1024, 5),
        &frame("class-u16", x, y),
        0x3fe6_57c3_2ff9_585b,
    );
}

#[test]
fn regression_small() {
    let x = continuous(31, 300, 6);
    let y = reg_labels(&x, 32);
    check(
        "reg_300",
        &evaluator(5, 10, 8, 1, 256, 7),
        &frame("reg-300", x, y),
        0x3fd9_29f5_4788_848e,
    );
}

#[test]
fn regression_large_enough_to_fan_histograms_out() {
    // 15 columns → 5 candidate features per node; 5 × 13 333 train rows
    // clears the histogram batch grain at the root.
    let x = continuous(41, 20_000, 15);
    let y = reg_labels(&x, 42);
    check(
        "reg_20000",
        &evaluator(3, 4, 6, 3, 256, 9),
        &frame("reg-20000", x, y),
        0x3fe1_f666_eada_3a8f,
    );
}

#[test]
fn constant_and_non_finite_columns() {
    let x = hostile(51, 500);
    let yc = class_labels(&x, 3, 52);
    let yr = reg_labels(&x, 53);
    let e = evaluator(4, 8, 6, 1, 256, 13);
    check(
        "class_hostile",
        &e,
        &frame("class-hostile", x.clone(), yc),
        0x3fe3_f356_6df5_a19e,
    );
    check(
        "reg_hostile",
        &e,
        &frame("reg-hostile", x, yr),
        0x3fd9_75c9_22b5_98ec,
    );
}

#[test]
fn heavy_bootstrap_duplication() {
    // 72 rows that are copies of 9 distinct ones, one copy in seven with
    // its class flipped: every bootstrap draw is almost all duplicates,
    // and duplicate rows disagree about their label.
    let base = continuous(61, 9, 4);
    let x: Vec<Vec<f64>> = base
        .iter()
        .map(|c| (0..72).map(|r| c[r % 9]).collect())
        .collect();
    let yc = Label::Class {
        y: (0..72)
            .map(|r| ((r % 9) % 2) ^ usize::from(r % 7 == 0))
            .collect(),
        n_classes: 2,
    };
    let yr = Label::Reg(
        (0..72)
            .map(|r| ((r % 9) as f64).sqrt() + 0.01 * r as f64)
            .collect(),
    );
    let e = evaluator(3, 12, 5, 1, 256, 17);
    check(
        "class_dup",
        &e,
        &frame("class-dup", x.clone(), yc),
        0x3feb_1349_22c3_2584,
    );
    check(
        "reg_dup",
        &e,
        &frame("reg-dup", x, yr),
        0x3fe4_8a2c_9203_a159,
    );
}

/// The two frames the raw-value kinds and the DL baselines are pinned on:
/// `class_u8_2c_msl1`'s and `reg_300`'s.
fn small_frames() -> [DataFrame; 2] {
    let xc = continuous(11, 400, 6);
    let yc = class_labels(&xc, 2, 12);
    let xr = continuous(31, 300, 6);
    let yr = reg_labels(&xr, 32);
    [frame("class-u8", xc, yc), frame("reg-300", xr, yr)]
}

#[test]
fn raw_value_kinds_on_both_tasks() {
    let [class, reg] = small_frames();
    for (kind, class_bits, reg_bits) in [
        (ModelKind::Svm, 0x3fe7_9d77_556e_9dc2, 0x3fd8_ff35_6f22_ec9a),
        (
            ModelKind::NaiveBayesGp,
            0x3fe8_dd6b_0994_413d,
            0x3fe1_be64_a8ba_bf10,
        ),
        (ModelKind::Mlp, 0x3feb_6fdf_d471_bbd0, 0x3fe4_a786_cc51_8808),
    ] {
        let e = Evaluator {
            kind,
            ..evaluator(5, 10, 8, 1, 256, 3)
        };
        check(&format!("{}_class", kind.name()), &e, &class, class_bits);
        check(&format!("{}_reg", kind.name()), &e, &reg, reg_bits);
    }
}

#[test]
fn deep_learning_baselines_on_both_tasks() {
    let config = DlBaselineConfig::default();
    let [class, reg] = small_frames();
    let class_bits = [
        0x3fed_1fd4_2524_23e9,
        0x3fec_cb25_2207_a776,
        0x3fed_1f3d_1755_e963,
    ];
    let reg_bits = [
        0x3fe1_59c4_ae0e_e986,
        0x3fe0_44e5_ed33_ccae,
        0x3fdf_6b74_512d_a154,
    ];
    for (f, bits) in [(&class, class_bits), (&reg, reg_bits)] {
        let scores = [
            run_rtdl_n(&config, f).expect("RTDL_N").best_score,
            run_fe_dl(&config, f).expect("FE|DL").best_score,
            run_dl_fe(&config, f).expect("DL|FE").best_score,
        ];
        for ((method, score), expected) in ["RTDL_N", "FE|DL", "DL|FE"].iter().zip(scores).zip(bits)
        {
            assert_eq!(
                score.to_bits(),
                expected,
                "{method} on {}: score {score} = {:#018x}, golden {:#018x}",
                f.name,
                score.to_bits(),
                expected
            );
        }
    }
}
