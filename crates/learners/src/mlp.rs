//! Multi-layer perceptron — the "MLP" downstream task of the paper's
//! Table V. One hidden ReLU layer by default, trained with Adam on softmax
//! cross-entropy (classification) or MSE (regression).
//!
//! Training and inference run through the flat batched kernels in
//! [`crate::dense`] (shared driver, one Adam loop).

use crate::dense::{forward_rows, train_flat, validate_columns, FlatNet, Mat, Topology, TrainSpec};
use crate::error::{LearnError, Result};
use crate::nn::softmax_cross_entropy_into;
use crate::preprocess::Standardizer;
use crate::tree::argmax;
use serde::{Deserialize, Serialize};

/// Seed stream for the minibatch shuffle RNG (kept distinct from the
/// init RNG, and stable across refactors for reproducibility).
const SHUFFLE_XOR: u64 = 0x9e3779b97f4a7c15;

/// MLP hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate (the paper uses 0.01).
    pub lr: f64,
    /// Mini-batch size (the paper uses 32).
    pub batch_size: usize,
    /// Init / shuffle seed.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            epochs: 40,
            lr: 0.01,
            batch_size: 32,
            seed: 0,
        }
    }
}

impl MlpConfig {
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

/// MLP classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpClassifier {
    /// Hyper-parameters used at fit time.
    pub config: MlpConfig,
    net: Option<FlatNet>,
    scaler: Option<Standardizer>,
    n_classes: usize,
}

impl MlpClassifier {
    /// New unfitted classifier.
    pub fn new(config: MlpConfig) -> Self {
        Self {
            config,
            net: None,
            scaler: None,
            n_classes: 0,
        }
    }

    /// Fit on column-major features and class labels.
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Result<()> {
        validate_columns(x, y.len(), "mlp")?;
        if n_classes < 2 {
            return Err(LearnError::InvalidParam("need at least 2 classes".into()));
        }
        let scaler = Standardizer::fit(x);
        let rows = Mat::from_columns(&scaler.transform(x));
        let net = train_flat(
            Topology::Mlp {
                hidden: self.config.hidden,
            },
            x.len(),
            n_classes,
            &rows,
            &self.config.train_spec(),
            &|out, i, d| softmax_cross_entropy_into(out, y[i], d),
        );
        self.net = Some(net);
        self.scaler = Some(scaler);
        self.n_classes = n_classes;
        Ok(())
    }

    /// Class predictions.
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Vec<usize>> {
        let (net, scaler) = match (&self.net, &self.scaler) {
            (Some(n), Some(s)) => (n, s),
            _ => return Err(LearnError::NotFitted("MlpClassifier")),
        };
        if x.len() != scaler.n_features() {
            return Err(LearnError::DimensionMismatch {
                fitted: scaler.n_features(),
                got: x.len(),
            });
        }
        let rows = Mat::from_columns(&scaler.transform(x));
        let outs = forward_rows(net, &rows);
        Ok((0..outs.rows()).map(|r| argmax(outs.row(r))).collect())
    }

    /// The trained flat parameter slab (testing hook for bit-level parity
    /// assertions across thread counts and against the per-sample oracle).
    pub fn trained_params(&self) -> Option<&[f64]> {
        self.net.as_ref().map(FlatNet::params)
    }
}

/// MLP regressor (single linear output, MSE loss, targets standardised).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct MlpRegressor {
    /// Hyper-parameters used at fit time.
    pub config: MlpConfig,
    net: Option<FlatNet>,
    scaler: Option<Standardizer>,
    y_mean: f64,
    y_std: f64,
}

impl MlpRegressor {
    /// New unfitted regressor.
    pub(crate) fn new(config: MlpConfig) -> Self {
        Self {
            config,
            net: None,
            scaler: None,
            y_mean: 0.0,
            y_std: 1.0,
        }
    }

    /// Fit on column-major features and real targets.
    pub(crate) fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<()> {
        validate_columns(x, y.len(), "mlp")?;
        let scaler = Standardizer::fit(x);
        let rows = Mat::from_columns(&scaler.transform(x));
        self.y_mean = y.iter().sum::<f64>() / y.len() as f64;
        let var = y.iter().map(|t| (t - self.y_mean).powi(2)).sum::<f64>() / y.len() as f64;
        self.y_std = var.sqrt().max(1e-12);
        let yz: Vec<f64> = y.iter().map(|t| (t - self.y_mean) / self.y_std).collect();
        let net = train_flat(
            Topology::Mlp {
                hidden: self.config.hidden,
            },
            x.len(),
            1,
            &rows,
            &self.config.train_spec(),
            &|out, i, d| d[0] = 2.0 * (out[0] - yz[i]),
        );
        self.net = Some(net);
        self.scaler = Some(scaler);
        Ok(())
    }

    /// Target predictions.
    pub(crate) fn predict(&self, x: &[Vec<f64>]) -> Result<Vec<f64>> {
        let (net, scaler) = match (&self.net, &self.scaler) {
            (Some(n), Some(s)) => (n, s),
            _ => return Err(LearnError::NotFitted("MlpRegressor")),
        };
        if x.len() != scaler.n_features() {
            return Err(LearnError::DimensionMismatch {
                fitted: scaler.n_features(),
                got: x.len(),
            });
        }
        let rows = Mat::from_columns(&scaler.transform(x));
        let outs = forward_rows(net, &rows);
        Ok((0..outs.rows())
            .map(|r| outs.row(r)[0] * self.y_std + self.y_mean)
            .collect())
    }
}

#[cfg(test)]
impl MlpRegressor {
    /// The trained flat parameter slab (testing / benchmarking hook).
    pub(crate) fn trained_params(&self) -> Option<&[f64]> {
        self.net.as_ref().map(FlatNet::params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, one_minus_rae};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn classifier_learns_xor() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut y = Vec::new();
        for _ in 0..400 {
            let av: f64 = rng.gen_range(-1.0..1.0);
            let bv: f64 = rng.gen_range(-1.0..1.0);
            a.push(av);
            b.push(bv);
            y.push(usize::from((av > 0.0) != (bv > 0.0)));
        }
        let x = vec![a, b];
        let mut m = MlpClassifier::new(MlpConfig {
            epochs: 120,
            ..Default::default()
        });
        m.fit(&x, &y, 2).unwrap();
        let acc = accuracy(&y, &m.predict(&x).unwrap()).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn regressor_fits_quadratic() {
        let xs: Vec<f64> = (0..200).map(|i| (i as f64 - 100.0) / 25.0).collect();
        let y: Vec<f64> = xs.iter().map(|v| v * v).collect();
        let x = vec![xs];
        let mut m = MlpRegressor::new(MlpConfig {
            epochs: 200,
            hidden: 24,
            ..Default::default()
        });
        m.fit(&x, &y).unwrap();
        let score = one_minus_rae(&y, &m.predict(&x).unwrap()).unwrap();
        assert!(score > 0.85, "1-rae {score}");
    }

    #[test]
    fn deterministic_given_seed() {
        let x = vec![(0..50).map(|i| i as f64).collect::<Vec<_>>()];
        let y: Vec<usize> = (0..50).map(|i| usize::from(i >= 25)).collect();
        let mut a = MlpClassifier::new(MlpConfig::default());
        let mut b = MlpClassifier::new(MlpConfig::default());
        a.fit(&x, &y, 2).unwrap();
        b.fit(&x, &y, 2).unwrap();
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
        for (p, q) in a
            .trained_params()
            .unwrap()
            .iter()
            .zip(b.trained_params().unwrap())
        {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn errors_on_bad_input() {
        let mut m = MlpClassifier::new(MlpConfig::default());
        assert!(m.fit(&[], &[], 2).is_err());
        assert!(m.predict(&[vec![1.0]]).is_err());
        let mut r = MlpRegressor::new(MlpConfig::default());
        assert!(r.fit(&[vec![1.0, 2.0]], &[1.0]).is_err());
        assert!(r.predict(&[vec![1.0]]).is_err());
    }
}
