//! Tabular ResNet — the RTDL-style baseline (`RTDL_N` in the paper's
//! Table III). A linear stem projects features to a hidden width, residual
//! blocks `z ← z + W₂ relu(W₁ z)` refine the representation, and a linear
//! head produces logits (classification) or a scalar (regression), as the
//! label it is fitted on decides (see [`crate::nn::Net`]).
//!
//! Per the paper, `RTDL_N` trains the ResNet with its own head and then
//! *re-heads* it with a Random Forest on the penultimate representation;
//! [`ResNet::embed`] exposes that representation (computed batched over
//! the whole matrix).
//!
//! Training and inference run through the flat batched kernels in
//! [`crate::dense`] (shared driver with the MLP).

use crate::dense::{Topology, TrainSpec};
use crate::error::{LearnError, Result};
use crate::nn::Net;
use serde::{Deserialize, Serialize};
use tabular::Label;

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

/// Tabular ResNet over either task: the [`Label`] it is fitted on picks
/// a softmax head over the classes or an MSE head over standardised
/// targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResNet {
    /// Hyper-parameters used at fit time.
    pub config: ResNetConfig,
    net: Option<Net>,
}

impl ResNet {
    /// New unfitted network.
    pub fn new(config: ResNetConfig) -> Self {
        Self { config, net: None }
    }

    /// Fit on column-major features against a label.
    pub fn fit(&mut self, x: &[Vec<f64>], label: &Label) -> Result<()> {
        let spec = self.config.train_spec();
        self.net = Some(Net::fit(self.config.topology(), &spec, x, label, "resnet")?);
        Ok(())
    }

    fn net(&self) -> Result<&Net> {
        self.net.as_ref().ok_or(LearnError::NotFitted("ResNet"))
    }

    /// Predict column-major features with the network's own head, of the
    /// task fitted on.
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Label> {
        self.net()?.predict(x)
    }

    /// Penultimate representations, **column-major** (one column per hidden
    /// unit) so they can be fed directly to the Random Forest for the
    /// paper's `RTDL_N` re-heading. Computed with the batched kernels
    /// over the whole matrix.
    pub fn embed(&self, x: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        self.net()?.embed(x)
    }

    /// The trained flat parameter slab (testing hook for bit-level parity
    /// assertions across thread counts and against the per-sample oracle).
    pub fn trained_params(&self) -> Option<&[f64]> {
        self.net.as_ref().map(Net::params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, score};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Label) {
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
        (vec![a, b], Label::Class { y, n_classes: 2 })
    }

    #[test]
    fn classifier_separates_blobs() {
        let (x, y) = blobs(200, 1);
        let mut m = ResNet::new(ResNetConfig {
            epochs: 30,
            ..Default::default()
        });
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        let acc = accuracy(y.classes().unwrap(), pred.classes().unwrap()).unwrap();
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
        let mut m = ResNet::new(cfg);
        m.fit(&x, &y).unwrap();
        let e = m.embed(&x).unwrap();
        assert_eq!(e.len(), 16);
        assert_eq!(e[0].len(), 50);
    }

    #[test]
    fn regressor_fits_linear_function() {
        let xs: Vec<f64> = (0..150).map(|i| i as f64 / 25.0).collect();
        let y = Label::Reg(xs.iter().map(|v| 3.0 * v - 1.0).collect());
        let mut m = ResNet::new(ResNetConfig {
            epochs: 60,
            ..Default::default()
        });
        m.fit(std::slice::from_ref(&xs), &y).unwrap();
        let rae = score(&y, &m.predict(&[xs]).unwrap()).unwrap();
        assert!(rae > 0.9, "1-rae {rae}");
    }

    #[test]
    fn errors_on_bad_input() {
        let m = ResNet::new(ResNetConfig::default());
        assert!(m.predict(&[vec![1.0]]).is_err());
        assert!(m.embed(&[vec![1.0]]).is_err());
        let mut m = ResNet::new(ResNetConfig::default());
        assert!(m.fit(&[], &Label::Reg(Vec::new())).is_err());
    }
}
