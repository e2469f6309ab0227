#![cfg(test)]
//! Batched-vs-scalar parity for the neural learners (proptest): training
//! through the flat batched kernels in [`crate::dense`] must be
//! **bit-identical** to the per-sample oracle (`dense/scalar_ref.rs`) —
//! the same trained parameter slab, from which predictions and embeddings
//! are computed by one shared code path — for both topologies (MLP /
//! tabular ResNet) and both labels (classes → softmax head, targets → MSE
//! head),
//! across batch sizes that do *not* divide the row count (so the ragged
//! tail minibatch and the ragged tail microbatch are both exercised).
//! Plus a GP check pinning the row-slice kernel fill + Cholesky against a
//! straight-line reference built from `Vec<Vec<f64>>` rows and the
//! per-element `cholesky_ref`. Unit tests because the oracles are
//! `#[cfg(test)]` items an integration test cannot see.

use crate::dense::scalar_ref::train_scalar;
use crate::dense::{FlatNet, LossGrad, Mat, Topology, TrainSpec};
use crate::linalg::{sq_dist, SquareMatrix};
use crate::nn::softmax_cross_entropy_into;
use crate::preprocess::{to_row_major, Standardizer};
use crate::{GaussianProcess, GpConfig, Mlp, MlpConfig, ResNet, ResNetConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::Label;

/// Column-major matrix with `n_features` columns of uniform noise.
fn matrix(rng: &mut StdRng, n_rows: usize, n_features: usize) -> Vec<Vec<f64>> {
    (0..n_features)
        .map(|_| (0..n_rows).map(|_| rng.gen_range(-2.0f64..2.0)).collect())
        .collect()
}

/// A learnable label: does the first feature pair sum above zero?
fn labels(x: &[Vec<f64>]) -> Vec<usize> {
    (0..x[0].len())
        .map(|r| usize::from(x[0][r] + x[1][r] > 0.0))
        .collect()
}

fn binary(y: &[usize]) -> Label {
    Label::Class {
        y: y.to_vec(),
        n_classes: 2,
    }
}

/// A learnable target: a fixed linear combination of the features.
fn targets(x: &[Vec<f64>]) -> Vec<f64> {
    (0..x[0].len())
        .map(|r| {
            x.iter()
                .enumerate()
                .map(|(f, c)| (f + 1) as f64 * c[r])
                .sum()
        })
        .collect()
}

/// The oracle's side of a `fit`: the rows `fit` hands its trainer
/// (standardised, row-major) through the per-sample trainer instead.
fn scalar_fit(
    topo: Topology,
    spec: &TrainSpec,
    x: &[Vec<f64>],
    n_out: usize,
    loss: LossGrad,
) -> FlatNet {
    let rows = Mat::from_columns(&Standardizer::fit(x).transform(x));
    train_scalar(topo, x.len(), n_out, &rows, spec, loss)
}

/// Targets as the regressors and the GP standardise them before training:
/// `(z-scores, mean, std)`.
fn standardised(y: &[f64]) -> (Vec<f64>, f64, f64) {
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let var = y.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / y.len() as f64;
    let std = var.sqrt().max(1e-12);
    (y.iter().map(|t| (t - mean) / std).collect(), mean, std)
}

fn assert_params_bit_equal(a: Option<&[f64]>, b: &FlatNet) {
    let (a, b) = (a.expect("fitted"), b.params());
    assert_eq!(a.len(), b.len());
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "param {i}: {p} vs {q}");
    }
}

/// Row counts `3·batch + extra` with `extra in 1..7`: the final minibatch
/// is ragged for both generated batch sizes (7 and 10), and with
/// `TRAIN_MICROBATCH = 8` the size-10 minibatches also split into a full
/// microbatch plus a ragged 2-row one.
fn dims(batch: usize, extra: usize) -> usize {
    batch * 3 + extra
}

/// Microbatch gradient reduction pinned exactly at the pool-dispatch
/// boundary: the batched trainer ships a minibatch to the worker pool
/// only when `rows × params >= PARALLEL_GRAIN`, a condition the random
/// sizes above never reach. Row counts one below, exactly at, and one
/// past the boundary must all train bit-identically to the scalar
/// reference — on one thread and on four — so crossing the dispatch
/// threshold can move *where* partials are computed but never a bit of
/// what they sum to.
#[test]
fn pool_grain_boundary_row_counts_bit_identical() {
    use crate::dense::{PARALLEL_GRAIN, TRAIN_MICROBATCH};

    let n_features = 20usize;
    let cfg_of = |rows: usize| MlpConfig {
        hidden: 64,
        epochs: 1,
        batch_size: rows, // one full-size minibatch per epoch
        seed: 77,
        ..Default::default()
    };
    // Parameter count depends only on the topology, not the row count —
    // probe it with a tiny fit instead of hard-coding layer arithmetic.
    let mut rng = StdRng::seed_from_u64(424);
    let probe_x = matrix(&mut rng, 16, n_features);
    let probe_y = labels(&probe_x);
    let mut probe = Mlp::new(cfg_of(16));
    probe.fit(&probe_x, &binary(&probe_y)).unwrap();
    let n_params = probe.trained_params().unwrap().len();
    let rows_at = PARALLEL_GRAIN.div_ceil(n_params);
    assert!(
        rows_at > TRAIN_MICROBATCH + 1,
        "boundary minibatch must span several microbatches (rows_at = {rows_at})"
    );

    for rows in [rows_at - 1, rows_at, rows_at + 1] {
        let x = matrix(&mut rng, rows, n_features);
        let y = labels(&x);
        let base = cfg_of(rows);
        let topo = Topology::Mlp {
            hidden: base.hidden,
        };
        let scalar = scalar_fit(topo, &base.train_spec(), &x, 2, &|out, i, d| {
            softmax_cross_entropy_into(out, y[i], d)
        });

        runtime::set_global_threads(1);
        let mut batched_1t = Mlp::new(base);
        batched_1t.fit(&x, &binary(&y)).unwrap();
        runtime::set_global_threads(4);
        let mut batched_4t = Mlp::new(base);
        batched_4t.fit(&x, &binary(&y)).unwrap();
        runtime::set_global_threads(0);

        assert_params_bit_equal(batched_1t.trained_params(), &scalar);
        assert_params_bit_equal(batched_4t.trained_params(), &scalar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn mlp_classifier_backends_bit_identical(
        seed in 0u64..1_000_000,
        batch in prop_oneof![Just(7usize), Just(10usize)],
        extra in 1usize..7,
        n_features in 2usize..5,
    ) {
        let n_rows = dims(batch, extra);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = matrix(&mut rng, n_rows, n_features);
        let y = labels(&x);
        let base = MlpConfig {
            hidden: 8,
            epochs: 3,
            batch_size: batch,
            seed,
            ..Default::default()
        };
        let mut batched = Mlp::new(base);
        batched.fit(&x, &binary(&y)).expect("batched fit");
        let topo = Topology::Mlp { hidden: base.hidden };
        let scalar = scalar_fit(topo, &base.train_spec(), &x, 2, &|out, i, d| {
            softmax_cross_entropy_into(out, y[i], d)
        });
        assert_params_bit_equal(batched.trained_params(), &scalar);
    }

    #[test]
    fn mlp_regressor_backends_bit_identical(
        seed in 0u64..1_000_000,
        batch in prop_oneof![Just(7usize), Just(10usize)],
        extra in 1usize..7,
        n_features in 2usize..5,
    ) {
        let n_rows = dims(batch, extra);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = matrix(&mut rng, n_rows, n_features);
        let y = targets(&x);
        let base = MlpConfig {
            hidden: 8,
            epochs: 3,
            batch_size: batch,
            seed,
            ..Default::default()
        };
        let mut batched = Mlp::new(base);
        batched.fit(&x, &Label::Reg(y.clone())).expect("batched fit");
        let (topo, (yz, ..)) = (Topology::Mlp { hidden: base.hidden }, standardised(&y));
        let scalar = scalar_fit(topo, &base.train_spec(), &x, 1, &|out, i, d| {
            d[0] = 2.0 * (out[0] - yz[i])
        });
        assert_params_bit_equal(batched.trained_params(), &scalar);
    }

    #[test]
    fn resnet_classifier_backends_bit_identical(
        seed in 0u64..1_000_000,
        batch in prop_oneof![Just(7usize), Just(10usize)],
        extra in 1usize..7,
        n_features in 2usize..5,
        n_blocks in 1usize..3,
    ) {
        let n_rows = dims(batch, extra);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = matrix(&mut rng, n_rows, n_features);
        let y = labels(&x);
        let base = ResNetConfig {
            width: 8,
            n_blocks,
            epochs: 2,
            batch_size: batch,
            seed,
            ..Default::default()
        };
        let mut batched = ResNet::new(base);
        batched.fit(&x, &binary(&y)).expect("batched fit");
        let scalar = scalar_fit(base.topology(), &base.train_spec(), &x, 2, &|out, i, d| {
            softmax_cross_entropy_into(out, y[i], d)
        });
        // Predictions and the embedding RTDL re-heads are both computed
        // from this slab by `dense::run_inference`.
        assert_params_bit_equal(batched.trained_params(), &scalar);
    }

    #[test]
    fn resnet_regressor_backends_bit_identical(
        seed in 0u64..1_000_000,
        batch in prop_oneof![Just(7usize), Just(10usize)],
        extra in 1usize..7,
        n_features in 2usize..5,
    ) {
        let n_rows = dims(batch, extra);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = matrix(&mut rng, n_rows, n_features);
        let y = targets(&x);
        let base = ResNetConfig {
            width: 8,
            n_blocks: 1,
            epochs: 2,
            batch_size: batch,
            seed,
            ..Default::default()
        };
        let mut batched = ResNet::new(base);
        batched.fit(&x, &Label::Reg(y.clone())).expect("batched fit");
        let (yz, ..) = standardised(&y);
        let scalar = scalar_fit(base.topology(), &base.train_spec(), &x, 1, &|out, i, d| {
            d[0] = 2.0 * (out[0] - yz[i])
        });
        assert_params_bit_equal(batched.trained_params(), &scalar);
    }

    /// GP posterior means through the row-slice kernel fill + row-slice
    /// Cholesky must be bit-identical to a reference computed the old
    /// way: `Vec<Vec<f64>>` training rows, per-element kernel fill, and
    /// the per-element `cholesky_ref`.
    #[test]
    fn gp_matches_scalar_reference_bitwise(
        seed in 0u64..1_000_000,
        n_rows in 10usize..30,
        n_features in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = matrix(&mut rng, n_rows, n_features);
        let y: Vec<f64> = targets(&x).iter().map(|t| t.sin()).collect();

        let config = GpConfig::default();
        let mut gp = GaussianProcess::new(config);
        gp.fit(&x, &y).expect("gp fit");
        let preds = gp.predict(&x).expect("gp predict");

        // Straight-line reference (no row cap hit: n_rows << max_train_rows).
        let scaler = Standardizer::fit(&x);
        let rows = to_row_major(&scaler.transform(&x));
        let n = rows.len();
        let (yz, y_mean, y_std) = standardised(&y);
        let ls2 = config.length_scale * config.length_scale;
        let kernel = |a: &[f64], b: &[f64]| (-sq_dist(a, b) / (2.0 * ls2)).exp();
        let mut k = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let v = kernel(&rows[i], &rows[j]);
                k.set(i, j, v);
                k.set(j, i, v);
            }
        }
        k.add_diagonal(config.noise.max(1e-10));
        let l = k.cholesky_ref().expect("reference cholesky");
        let alpha = l.cholesky_solve(&yz).expect("reference solve");
        for (r, p) in preds.iter().enumerate() {
            let kz: f64 = rows
                .iter()
                .zip(&alpha)
                .map(|(t, a)| kernel(&rows[r], t) * a)
                .sum();
            let want = kz * y_std + y_mean;
            prop_assert_eq!(p.to_bits(), want.to_bits(), "row {}: {} vs {}", r, p, want);
        }
    }
}
