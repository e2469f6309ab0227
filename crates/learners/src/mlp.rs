//! Multi-layer perceptron — the "MLP" downstream task of the paper's
//! Table V. One hidden ReLU layer by default, trained with Adam on softmax
//! cross-entropy or MSE, as the label it is fitted on decides (see
//! [`crate::nn::Net`]).
//!
//! Training and inference run through the flat batched kernels in
//! [`crate::dense`] (shared driver, one Adam loop).

use crate::dense::{Topology, TrainSpec};
use crate::error::{LearnError, Result};
use crate::nn::Net;
use serde::{Deserialize, Serialize};
use tabular::Label;

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

/// Multi-layer perceptron over either task: the [`Label`] it is fitted on
/// picks a softmax head over the classes or one linear output trained on
/// standardised targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    /// Hyper-parameters used at fit time.
    pub config: MlpConfig,
    net: Option<Net>,
}

impl Mlp {
    /// New unfitted network.
    pub fn new(config: MlpConfig) -> Self {
        Self { config, net: None }
    }

    /// Fit on column-major features against a label.
    pub fn fit(&mut self, x: &[Vec<f64>], label: &Label) -> Result<()> {
        let topology = Topology::Mlp {
            hidden: self.config.hidden,
        };
        self.net = Some(Net::fit(
            topology,
            &self.config.train_spec(),
            x,
            label,
            "mlp",
        )?);
        Ok(())
    }

    /// Predict column-major features, of the task fitted on.
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Label> {
        self.net
            .as_ref()
            .ok_or(LearnError::NotFitted("Mlp"))?
            .predict(x)
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
    use crate::metrics::score;
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
        let (x, y) = (vec![a, b], Label::Class { y, n_classes: 2 });
        let mut m = Mlp::new(MlpConfig {
            epochs: 120,
            ..Default::default()
        });
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        let acc = crate::metrics::accuracy(y.classes().unwrap(), pred.classes().unwrap()).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn regressor_fits_quadratic() {
        let xs: Vec<f64> = (0..200).map(|i| (i as f64 - 100.0) / 25.0).collect();
        let y = Label::Reg(xs.iter().map(|v| v * v).collect());
        let x = vec![xs];
        let mut m = Mlp::new(MlpConfig {
            epochs: 200,
            hidden: 24,
            ..Default::default()
        });
        m.fit(&x, &y).unwrap();
        let rae = score(&y, &m.predict(&x).unwrap()).unwrap();
        assert!(rae > 0.85, "1-rae {rae}");
    }

    #[test]
    fn deterministic_given_seed() {
        let x = vec![(0..50).map(|i| i as f64).collect::<Vec<_>>()];
        let y = Label::Class {
            y: (0..50).map(|i| usize::from(i >= 25)).collect(),
            n_classes: 2,
        };
        let mut a = Mlp::new(MlpConfig::default());
        let mut b = Mlp::new(MlpConfig::default());
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
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
        let mut m = Mlp::new(MlpConfig::default());
        let empty = Label::Class {
            y: Vec::new(),
            n_classes: 2,
        };
        assert!(m.fit(&[], &empty).is_err());
        assert!(m.predict(&[vec![1.0]]).is_err());
        let one_class = Label::Class {
            y: vec![0, 0],
            n_classes: 1,
        };
        assert!(m.fit(&[vec![1.0, 2.0]], &one_class).is_err());
        assert!(m.fit(&[vec![1.0, 2.0]], &Label::Reg(vec![1.0])).is_err());
        assert!(m.predict(&[vec![1.0]]).is_err());
    }
}
