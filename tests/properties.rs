//! Cross-crate property-based tests (proptest): algebraic invariants of the
//! operator set, the sample compressor's fixed-size output,
//! return-computation recurrences, metric identities, and CSV round-trips
//! under arbitrary inputs. (The compressor's similarity preservation, the
//! paper's Eq. 2, is checked inside `minhash`, against its test oracle.)

use eafe::{GeneratedFeature, Operator};
use minhash::{HashFamily, SampleCompressor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{discounted_returns, lambda_return, rewards_to_go, score_gains};
use runtime::{fingerprint_frame, fingerprint_values, Fingerprint, KeyPrefix};
use std::sync::atomic::{AtomicUsize, Ordering};
use tabular::{Column, DataFrame, Label, Task};

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len)
}

/// A scorer that counts its calls and scores a frame by its last column.
struct LastColumnScorer {
    calls: AtomicUsize,
}

impl runtime::Scorer for LastColumnScorer {
    type Error = tabular::TabularError;

    fn config_digest(&self) -> Fingerprint {
        Fingerprint(0x5eed)
    }

    fn score_frame(&self, frame: &DataFrame) -> Result<f64, Self::Error> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let last = frame.column(frame.n_cols() - 1)?;
        Ok(last.values.iter().map(|v| v.to_bits() as f64).sum())
    }
}

fn counting_evaluator() -> runtime::Evaluator<LastColumnScorer> {
    runtime::Evaluator::new(LastColumnScorer {
        calls: AtomicUsize::new(0),
    })
}

/// Column names and payloads a hash must not confuse: empty and
/// non-ASCII names, names that are prefixes of one another, both zeros,
/// infinities and two distinct NaN payloads.
const NAMES: [&str; 8] = ["", "a", "ab", "f0", "log(f0)", "ünï", "名前", "a,b"];

fn awkward_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..8) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::from_bits(0x7ff8_0000_0000_0001),
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        _ => rng.gen_range(-1e3f64..1e3),
    }
}

fn awkward_column(rng: &mut StdRng, n_rows: usize) -> Column {
    let name = NAMES[rng.gen_range(0..NAMES.len())];
    Column::new(name, (0..n_rows).map(|_| awkward_value(rng)).collect())
}

/// `fingerprint_frame` is the result fingerprint `perf_e2e` prints and the
/// determinism suites compare, so its value is a contract: three literals
/// captured before cache keys stopped being made from it.
#[test]
fn fingerprint_frame_is_pinned() {
    let class = |y: Vec<usize>, n_classes| Label::Class { y, n_classes };
    let empty_name = DataFrame::new(
        "d",
        vec![Column::new("", vec![1.0, -0.0, 2.5])],
        class(vec![0, 1, 0], 2),
    )
    .unwrap();
    let nan_payload = DataFrame::new(
        "ünï",
        vec![
            Column::new(
                "a",
                vec![f64::from_bits(0x7ff8_0000_0000_0001), f64::INFINITY, -1.0],
            ),
            Column::new("log(f0)", vec![0.0, 1e-300, 3.0]),
        ],
        class(vec![2, 0, 1], 3),
    )
    .unwrap();
    let regression = DataFrame::new(
        "",
        vec![Column::new("名前", vec![1.0, 2.0])],
        Label::Reg(vec![0.5, f64::from_bits(0x7ff8_0000_0000_0000)]),
    )
    .unwrap();
    let pinned = [
        (&empty_name, 0xa0e7_f234_94d0_e92e_5d16_b600_435e_1df3_u128),
        (&nan_payload, 0x7e4c_bbf4_a37c_1cb7_fe2e_b6c5_442d_7575),
        (&regression, 0xb51a_6e78_e765_bea4_575e_90d3_9cf9_ccbe),
    ];
    for (frame, expected) in pinned {
        assert_eq!(fingerprint_frame(frame), Fingerprint(expected));
    }
}

/// `Column::min`/`max`/`is_constant` and `GeneratedFeature::is_degenerate`
/// as they stood when each was its own pass over the column, verbatim —
/// the reference the one-pass versions must agree with.
fn three_pass_is_constant(values: &[f64], eps: f64) -> bool {
    let min = values
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |acc, v| match acc {
            None => Some(v),
            Some(a) => Some(f64::min(a, v)),
        });
    let max = values
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |acc, v| match acc {
            None => Some(v),
            Some(a) => Some(f64::max(a, v)),
        });
    match (min, max) {
        (Some(lo), Some(hi)) => hi - lo < eps,
        _ => true,
    }
}

fn three_pass_is_degenerate(values: &[f64]) -> bool {
    !values.iter().all(|v| v.is_finite()) || three_pass_is_constant(values, 1e-12)
}

/// Columns built to sit on every edge of the degeneracy check: empty, one
/// value, all equal, spans exactly at and one ULP either side of the
/// cut, ±0.0 mixes, subnormal spans, all-NaN — then NaN/±∞ planted at the
/// first, middle or last row.
fn adversarial_column(rng: &mut StdRng, eps: f64) -> Vec<f64> {
    let n = rng.gen_range(1..12);
    let offset = [0.0, 1.0, -3.5, 1e300][rng.gen_range(0..4usize)];
    let mut values: Vec<f64> = match rng.gen_range(0..9) {
        0 => Vec::new(),
        1 => vec![offset],
        2 => vec![offset; n],
        3 => {
            // hi - lo lands exactly on eps, or one ULP above or below it.
            let hi = match rng.gen_range(0..3) {
                0 => eps,
                1 => f64::from_bits(eps.to_bits() + 1),
                _ => f64::from_bits(eps.to_bits().saturating_sub(1)),
            };
            let mut v = vec![0.0; n];
            v.push(hi);
            v
        }
        4 => (0..n)
            .map(|_| offset + rng.gen_range(-1.0..1.0) * eps)
            .collect(),
        5 => (0..n)
            .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect(),
        6 => (0..n)
            .map(|_| f64::from_bits(rng.gen_range(0..4u64)))
            .collect(),
        7 => vec![f64::NAN; n],
        _ => (0..n).map(|_| rng.gen_range(-1e3f64..1e3)).collect(),
    };
    let turn = rng.gen_range(0..values.len().max(1));
    values.rotate_left(turn);
    if !values.is_empty() && rng.gen_range(0..2) == 0 {
        let at = [0, values.len() / 2, values.len() - 1][rng.gen_range(0..3usize)];
        values[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
        if rng.gen_range(0..4) == 0 {
            values[0] = [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2usize)];
        }
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn one_pass_degeneracy_equals_three_passes(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let eps = [1e-12, 1e-9, 0.0, 5e-324, f64::INFINITY][rng.gen_range(0..5usize)];
        let values = adversarial_column(&mut rng, eps);
        let column = Column::new("c", values.clone());
        prop_assert_eq!(column.is_constant(eps), three_pass_is_constant(&values, eps));
        let feature = GeneratedFeature {
            column: Column::new("g", adversarial_column(&mut rng, 1e-12)),
            order: 1,
        };
        prop_assert_eq!(
            feature.is_degenerate(),
            three_pass_is_degenerate(&feature.column.values)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A probe through a selection's key state addresses exactly the
    /// entry a whole-frame probe does, and the keyed evaluate path hits,
    /// misses, computes and scores exactly as `evaluate` on the built
    /// frame.
    #[test]
    fn prefix_probes_equal_whole_frame_probes(
        seed in 0u64..1_000_000,
        n_rows in 1usize..24,
        n_selected in 0usize..6,
        regression in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns: Vec<Column> = (0..1 + n_selected)
            .map(|_| awkward_column(&mut rng, n_rows))
            .collect();
        let label = if regression == 1 {
            Label::Reg((0..n_rows).map(|_| awkward_value(&mut rng)).collect())
        } else {
            let n_classes = rng.gen_range(1..5);
            Label::Class {
                y: (0..n_rows).map(|_| rng.gen_range(0..n_classes)).collect(),
                n_classes,
            }
        };
        let selected = DataFrame::new(NAMES[(seed % 8) as usize], columns, label).unwrap();
        let mut prefix = KeyPrefix::new(&selected.name, n_rows, selected.label());
        for c in selected.columns() {
            prefix.push(&c.name, fingerprint_values(&c.values));
        }

        let whole = counting_evaluator();
        let keyed = counting_evaluator();
        // Candidates repeat, so both paths see hits as well as misses.
        let pool: Vec<Column> = (0..4).map(|_| awkward_column(&mut rng, n_rows)).collect();
        for _ in 0..12 {
            let candidate = &pool[rng.gen_range(0..pool.len())];
            let frame = selected
                .with_extra_columns(std::slice::from_ref(candidate))
                .unwrap();
            let mut extended = prefix.clone();
            extended.push(&candidate.name, fingerprint_values(&candidate.values));
            let key = keyed.key_of(&extended);
            prop_assert_eq!(key, whole.cache_key(&frame));

            let expected = whole.evaluate(&frame).unwrap();
            let got = keyed
                .evaluate_keyed(key, |scorer| runtime::Scorer::score_frame(scorer, &frame))
                .unwrap();
            prop_assert_eq!(expected.to_bits(), got.to_bits());
        }
        let (w, k) = (whole.stats(), keyed.stats());
        prop_assert_eq!((w.hits, w.misses, w.inserts), (k.hits, k.misses, k.inserts));
        prop_assert_eq!(
            whole.scorer().calls.load(Ordering::SeqCst),
            keyed.scorer().calls.load(Ordering::SeqCst)
        );
        prop_assert!(k.hits > 0 && k.misses > 0);
    }

    /// Every operator is total over finite inputs: outputs are always
    /// finite regardless of zeros, negatives, or magnitude.
    #[test]
    fn operators_are_total(values_a in finite_vec(1..64), op_idx in 0usize..9) {
        let values_b: Vec<f64> = values_a.iter().rev().copied().collect();
        let op = Operator::ALL[op_idx];
        let out = op.apply(&values_a, &values_b);
        prop_assert_eq!(out.len(), values_a.len());
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    /// Min-max normalisation lands in [0, 1].
    #[test]
    fn minmax_bounds(values in finite_vec(2..64)) {
        let out = Operator::MinMaxNorm.apply(&values, &[]);
        prop_assert!(out.iter().all(|&v| (0.0..=1.0 + 1e-12).contains(&v)));
    }

    /// Generated features record order = max(parent orders) + 1.
    #[test]
    fn generated_order_rule(
        values in finite_vec(2..32),
        op_idx in 0usize..9,
        oa in 0usize..4,
        ob in 0usize..4,
    ) {
        let a = Column::new("a", values.clone());
        let b = Column::new("b", values.iter().map(|v| v + 1.0).collect());
        let op = Operator::ALL[op_idx];
        let g = GeneratedFeature::generate(op, &a, oa, &b, ob);
        if op.is_unary() {
            prop_assert_eq!(g.order, oa + 1);
        } else {
            prop_assert_eq!(g.order, oa.max(ob) + 1);
        }
        prop_assert!(g.column.is_finite());
    }

    /// The sample compressor maps any input length to exactly d values,
    /// all finite (fixed-size projection, Eq. 2's prerequisite).
    #[test]
    fn compressor_fixed_size(values in finite_vec(1..300), d in 1usize..64) {
        let c = SampleCompressor::new(HashFamily::Ccws, d, 7).unwrap();
        let sig = c.signature(&values).unwrap();
        let out = c.compress_normalized_with_signature(&values[..], &sig);
        prop_assert_eq!(out.len(), d);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    /// Eq. (9) recurrence: U_t = γ·U_{t−1} + r_t, checked against the
    /// direct double-sum definition.
    #[test]
    fn discounted_return_recurrence(rewards in finite_vec(1..24), gamma in 0.0f64..1.0) {
        let u = discounted_returns(&rewards, gamma);
        for (t, &ut) in u.iter().enumerate() {
            let direct: f64 = (0..=t)
                .map(|k| gamma.powi((t - k) as i32) * rewards[k])
                .sum();
            prop_assert!((ut - direct).abs() < 1e-6 * (1.0 + direct.abs()));
        }
    }

    /// Eq. (10) closed form equals the expanded geometric sum.
    #[test]
    fn lambda_return_closed_form(ut in -100.0f64..100.0, lambda in 0.0f64..0.999, n in 1usize..64) {
        let closed = lambda_return(ut, lambda, n);
        let direct: f64 = (1..=n).map(|k| (1.0 - lambda) * lambda.powi(k as i32 - 1) * ut).sum();
        prop_assert!((closed - direct).abs() < 1e-9 * (1.0 + direct.abs()));
    }

    /// Rewards-to-go of constant rewards is a geometric series.
    #[test]
    fn rewards_to_go_geometric(r in -10.0f64..10.0, gamma in 0.0f64..0.999, n in 1usize..32) {
        let rewards = vec![r; n];
        let g = rewards_to_go(&rewards, gamma);
        let expected = r * (1.0 - gamma.powi(n as i32)) / (1.0 - gamma).max(1e-12);
        prop_assert!((g[0] - expected).abs() < 1e-6 * (1.0 + expected.abs()));
    }

    /// score_gains telescopes: the sum of gains equals last − baseline.
    #[test]
    fn score_gains_telescope(scores in finite_vec(1..32), baseline in -10.0f64..10.0) {
        let gains = score_gains(&scores, baseline);
        let total: f64 = gains.iter().sum();
        let expected = scores.last().unwrap() - baseline;
        prop_assert!((total - expected).abs() < 1e-6 * (1.0 + expected.abs()));
    }

    /// Weighted F1 is bounded in [0, 1] and exactly 1 for perfect
    /// predictions.
    #[test]
    fn f1_bounds(y in prop::collection::vec(0usize..3, 2..64)) {
        let perfect = learners::f1_score(&y, &y, 3).unwrap();
        prop_assert!((perfect - 1.0).abs() < 1e-12);
        let shifted: Vec<usize> = y.iter().map(|&c| (c + 1) % 3).collect();
        let wrong = learners::f1_score(&y, &shifted, 3).unwrap();
        prop_assert!((0.0..=1.0).contains(&wrong));
    }

    /// 1-RAE is 1 for perfect predictions and ≤ 1 always.
    #[test]
    fn one_minus_rae_bounds(y in finite_vec(2..64)) {
        let perfect = learners::one_minus_rae(&y, &y).unwrap();
        prop_assert!((perfect - 1.0).abs() < 1e-12);
        let preds: Vec<f64> = y.iter().map(|v| v + 1.0).collect();
        let score = learners::one_minus_rae(&y, &preds).unwrap();
        prop_assert!(score <= 1.0 + 1e-12);
    }

    /// CSV round-trip preserves shape and classification labels exactly,
    /// and every feature value to the bit: signed zeros, infinities, NaN,
    /// subnormals, integers at and past 1e15 and arbitrary bit patterns.
    #[test]
    fn csv_round_trip(
        seed in 0u64..u64::MAX,
        n_cols in 1usize..5,
        n_rows in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut value = || match rng.gen_range(0..12) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5 => f64::from_bits(rng.gen_range(1..1u64 << 52)), // subnormal
            6 => -f64::from_bits(rng.gen_range(1..1u64 << 52)),
            7 => (rng.gen_range(1e15f64..1e18)).trunc(),
            8 => rng.gen_range(-1e6f64..1e6).trunc(),
            9 => rng.gen_range(-1e6f64..1e6),
            _ => f64::from_bits(rng.gen()),
        };
        let columns: Vec<Column> = (0..n_cols)
            .map(|j| Column::new(format!("c{j}"), (0..n_rows).map(|_| value()).collect()))
            .collect();
        let y: Vec<usize> = (0..n_rows).map(|i| i % 2).collect();
        let frame = DataFrame::new("p", columns, Label::Class { y, n_classes: 2 }).unwrap();
        let mut buf = Vec::new();
        tabular::csv::write_csv(&frame, &mut buf).unwrap();
        let back = tabular::csv::read_csv("p", Task::Classification, &buf[..]).unwrap();
        prop_assert_eq!(back.n_rows(), frame.n_rows());
        prop_assert_eq!(back.n_cols(), frame.n_cols());
        prop_assert_eq!(back.label().classes().unwrap(), frame.label().classes().unwrap());
        for (a, b) in frame.columns().iter().zip(back.columns()) {
            for (x, y) in a.values.iter().zip(&b.values) {
                // NaN payloads are not kept: any NaN reads back as NaN.
                if x.is_nan() {
                    prop_assert!(y.is_nan(), "{} vs {}", x, y);
                } else {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
                }
            }
        }
    }

    /// Surrogate reward (Eq. 8) is monotone in the effectiveness
    /// probability and bounded by the gain extremes.
    #[test]
    fn surrogate_reward_monotone(base in 0.0f64..1.0, p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let sr = eafe::SurrogateReward::new(base, 0.01);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(sr.pseudo_score(lo) <= sr.pseudo_score(hi) + 1e-12);
        prop_assert!(sr.pseudo_score(1.0) <= base + sr.delta_max + 1e-12);
        prop_assert!(sr.pseudo_score(0.0) >= base + sr.delta_min - sr.thre - 1e-12);
    }
}
