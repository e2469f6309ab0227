//! Tabular ResNet — the RTDL-style baseline (`RTDL_N` in the paper's
//! Table III). A linear stem projects features to a hidden width, residual
//! blocks `z ← z + W₂ relu(W₁ z)` refine the representation, and a linear
//! head produces logits (classification) or a scalar (regression).
//!
//! Per the paper, `RTDL_N` trains the ResNet with a softmax head and then
//! *re-heads* it with a Random Forest on the penultimate representation;
//! [`ResNetClassifier::embed`] exposes that representation (computed
//! batched over the whole matrix).
//!
//! Training and inference run through the flat batched kernels in
//! [`crate::dense`] (shared driver with the MLP).

use crate::dense::{
    embed_rows, forward_rows, train_flat, validate_columns, FlatNet, Mat, Topology, TrainSpec,
};
use crate::error::{LearnError, Result};
use crate::nn::softmax_cross_entropy_into;
use crate::preprocess::Standardizer;
use crate::tree::argmax;
use serde::{Deserialize, Serialize};

/// Seed stream for the minibatch shuffle RNG (distinct from the MLP's,
/// and stable across refactors for reproducibility).
const SHUFFLE_XOR: u64 = 0xA5A5_5A5A;

/// ResNet hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResNetConfig {
    /// Hidden representation width.
    pub width: usize,
    /// Number of residual blocks.
    pub n_blocks: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Init / shuffle seed.
    pub seed: u64,
}

impl Default for ResNetConfig {
    fn default() -> Self {
        Self {
            width: 32,
            n_blocks: 2,
            epochs: 40,
            lr: 0.01,
            batch_size: 32,
            seed: 0,
        }
    }
}

impl ResNetConfig {
    pub(crate) fn topology(&self) -> Topology {
        Topology::ResNet {
            width: self.width,
            n_blocks: self.n_blocks,
        }
    }

    pub(crate) fn train_spec(&self) -> TrainSpec {
        TrainSpec {
            epochs: self.epochs,
            lr: self.lr,
            batch_size: self.batch_size,
            seed: self.seed,
            shuffle_xor: SHUFFLE_XOR,
        }
    }
}

/// Column-major view of a row-major embedding matrix (one column per
/// hidden unit), the layout the Random Forest re-heading consumes.
fn to_columns(e: &Mat) -> Vec<Vec<f64>> {
    let mut cols = vec![Vec::with_capacity(e.rows()); e.cols()];
    for r in 0..e.rows() {
        for (col, v) in cols.iter_mut().zip(e.row(r)) {
            col.push(*v);
        }
    }
    cols
}

/// Tabular ResNet classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResNetClassifier {
    /// Hyper-parameters used at fit time.
    pub config: ResNetConfig,
    core: Option<FlatNet>,
    scaler: Option<Standardizer>,
    n_classes: usize,
}

impl ResNetClassifier {
    /// New unfitted classifier.
    pub fn new(config: ResNetConfig) -> Self {
        Self {
            config,
            core: None,
            scaler: None,
            n_classes: 0,
        }
    }

    /// Fit with a softmax head.
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Result<()> {
        validate_columns(x, y.len(), "resnet")?;
        if n_classes < 2 {
            return Err(LearnError::InvalidParam("need at least 2 classes".into()));
        }
        let scaler = Standardizer::fit(x);
        let rows = Mat::from_columns(&scaler.transform(x));
        let core = train_flat(
            self.config.topology(),
            x.len(),
            n_classes,
            &rows,
            &self.config.train_spec(),
            &|out, i, d| softmax_cross_entropy_into(out, y[i], d),
        );
        self.core = Some(core);
        self.scaler = Some(scaler);
        self.n_classes = n_classes;
        Ok(())
    }

    fn parts(&self) -> Result<(&FlatNet, &Standardizer)> {
        match (&self.core, &self.scaler) {
            (Some(c), Some(s)) => Ok((c, s)),
            _ => Err(LearnError::NotFitted("ResNetClassifier")),
        }
    }

    fn check_features(&self, scaler: &Standardizer, x: &[Vec<f64>]) -> Result<()> {
        if x.len() != scaler.n_features() {
            return Err(LearnError::DimensionMismatch {
                fitted: scaler.n_features(),
                got: x.len(),
            });
        }
        Ok(())
    }

    /// Softmax-head class predictions.
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Vec<usize>> {
        let (core, scaler) = self.parts()?;
        self.check_features(scaler, x)?;
        let rows = Mat::from_columns(&scaler.transform(x));
        let outs = forward_rows(core, &rows);
        Ok((0..outs.rows()).map(|r| argmax(outs.row(r))).collect())
    }

    /// Penultimate representations, **column-major** (one column per hidden
    /// unit) so they can be fed directly to the Random Forest for the
    /// paper's `RTDL_N` re-heading. Computed with the batched kernels
    /// over the whole matrix.
    pub fn embed(&self, x: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        let (core, scaler) = self.parts()?;
        self.check_features(scaler, x)?;
        let rows = Mat::from_columns(&scaler.transform(x));
        Ok(to_columns(&embed_rows(core, &rows)))
    }

    /// The trained flat parameter slab (testing hook for bit-level parity
    /// assertions across thread counts and against the per-sample oracle).
    pub fn trained_params(&self) -> Option<&[f64]> {
        self.core.as_ref().map(FlatNet::params)
    }
}

/// Tabular ResNet regressor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResNetRegressor {
    /// Hyper-parameters used at fit time.
    pub config: ResNetConfig,
    core: Option<FlatNet>,
    scaler: Option<Standardizer>,
    y_mean: f64,
    y_std: f64,
}

impl ResNetRegressor {
    /// New unfitted regressor.
    pub fn new(config: ResNetConfig) -> Self {
        Self {
            config,
            core: None,
            scaler: None,
            y_mean: 0.0,
            y_std: 1.0,
        }
    }

    /// Fit with an MSE head over standardised targets.
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<()> {
        validate_columns(x, y.len(), "resnet")?;
        let scaler = Standardizer::fit(x);
        let rows = Mat::from_columns(&scaler.transform(x));
        self.y_mean = y.iter().sum::<f64>() / y.len() as f64;
        let var = y.iter().map(|t| (t - self.y_mean).powi(2)).sum::<f64>() / y.len() as f64;
        self.y_std = var.sqrt().max(1e-12);
        let yz: Vec<f64> = y.iter().map(|t| (t - self.y_mean) / self.y_std).collect();
        let core = train_flat(
            self.config.topology(),
            x.len(),
            1,
            &rows,
            &self.config.train_spec(),
            &|out, i, d| d[0] = 2.0 * (out[0] - yz[i]),
        );
        self.core = Some(core);
        self.scaler = Some(scaler);
        Ok(())
    }

    fn parts(&self) -> Result<(&FlatNet, &Standardizer)> {
        match (&self.core, &self.scaler) {
            (Some(c), Some(s)) => Ok((c, s)),
            _ => Err(LearnError::NotFitted("ResNetRegressor")),
        }
    }

    /// Target predictions.
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Vec<f64>> {
        let (core, scaler) = self.parts()?;
        if x.len() != scaler.n_features() {
            return Err(LearnError::DimensionMismatch {
                fitted: scaler.n_features(),
                got: x.len(),
            });
        }
        let rows = Mat::from_columns(&scaler.transform(x));
        let outs = forward_rows(core, &rows);
        Ok((0..outs.rows())
            .map(|r| outs.row(r)[0] * self.y_std + self.y_mean)
            .collect())
    }

    /// Penultimate representations, column-major (see
    /// [`ResNetClassifier::embed`]).
    pub fn embed(&self, x: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        let (core, scaler) = self.parts()?;
        if x.len() != scaler.n_features() {
            return Err(LearnError::DimensionMismatch {
                fitted: scaler.n_features(),
                got: x.len(),
            });
        }
        let rows = Mat::from_columns(&scaler.transform(x));
        Ok(to_columns(&embed_rows(core, &rows)))
    }

    /// The trained flat parameter slab (testing / benchmarking hook).
    pub fn trained_params(&self) -> Option<&[f64]> {
        self.core.as_ref().map(FlatNet::params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, one_minus_rae};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let center = if c == 0 { -1.5 } else { 1.5 };
            a.push(center + rng.gen_range(-1.0..1.0));
            b.push(center + rng.gen_range(-1.0..1.0));
            y.push(c);
        }
        (vec![a, b], y)
    }

    #[test]
    fn classifier_separates_blobs() {
        let (x, y) = blobs(200, 1);
        let mut m = ResNetClassifier::new(ResNetConfig {
            epochs: 30,
            ..Default::default()
        });
        m.fit(&x, &y, 2).unwrap();
        let acc = accuracy(&y, &m.predict(&x).unwrap()).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn embed_shape_is_column_major_width() {
        let (x, y) = blobs(50, 2);
        let cfg = ResNetConfig {
            epochs: 3,
            width: 16,
            ..Default::default()
        };
        let mut m = ResNetClassifier::new(cfg);
        m.fit(&x, &y, 2).unwrap();
        let e = m.embed(&x).unwrap();
        assert_eq!(e.len(), 16);
        assert_eq!(e[0].len(), 50);
    }

    #[test]
    fn regressor_fits_linear_function() {
        let xs: Vec<f64> = (0..150).map(|i| i as f64 / 25.0).collect();
        let y: Vec<f64> = xs.iter().map(|v| 3.0 * v - 1.0).collect();
        let mut m = ResNetRegressor::new(ResNetConfig {
            epochs: 60,
            ..Default::default()
        });
        m.fit(std::slice::from_ref(&xs), &y).unwrap();
        let score = one_minus_rae(&y, &m.predict(&[xs]).unwrap()).unwrap();
        assert!(score > 0.9, "1-rae {score}");
    }

    #[test]
    fn errors_on_bad_input() {
        let m = ResNetClassifier::new(ResNetConfig::default());
        assert!(m.predict(&[vec![1.0]]).is_err());
        assert!(m.embed(&[vec![1.0]]).is_err());
        let mut m = ResNetClassifier::new(ResNetConfig::default());
        assert!(m.fit(&[], &[], 2).is_err());
    }
}
