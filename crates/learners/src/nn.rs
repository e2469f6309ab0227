//! What the flat batched trainer in [`crate::dense`] needs beside its
//! kernels: the softmax cross-entropy gradient and the Adam optimiser (the
//! paper trains its networks with Adam, learning rate 0.01) — and [`Net`],
//! the fitted network both the MLP and the ResNet hold, whose head the
//! label it is fitted on decides.

use crate::dense::{
    embed_rows, forward_rows, train_flat, validate_columns, FlatNet, LossGrad, Mat, Topology,
    TrainSpec,
};
use crate::error::{LearnError, Result};
use crate::preprocess::Standardizer;
use crate::tree::argmax;
use serde::{Deserialize, Serialize};
use tabular::Label;

/// What a network's output layer predicts, fixed by the label it was
/// fitted on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Head {
    /// `n_classes` logits trained on softmax cross-entropy; predicts the
    /// argmax.
    Classes(usize),
    /// One linear output trained on MSE against z-scored targets;
    /// predicts `out · std + mean`.
    Target { mean: f64, std: f64 },
}

/// A network fitted on standardised features, with the head its label
/// chose.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Net {
    core: FlatNet,
    scaler: Standardizer,
    head: Head,
}

impl Net {
    /// Train `topology` on the column-major `x` (standardised) against
    /// `label`: softmax cross-entropy over at least two classes, or MSE
    /// against the standardised targets. `what` names the model in errors.
    pub(crate) fn fit(
        topology: Topology,
        spec: &TrainSpec,
        x: &[Vec<f64>],
        label: &Label,
        what: &str,
    ) -> Result<Self> {
        validate_columns(x, label.len(), what)?;
        if matches!(label, Label::Class { n_classes, .. } if *n_classes < 2) {
            return Err(LearnError::InvalidParam("need at least 2 classes".into()));
        }
        let scaler = Standardizer::fit(x);
        let rows = Mat::from_columns(&scaler.transform(x));
        let train =
            |n_out: usize, loss: LossGrad| train_flat(topology, x.len(), n_out, &rows, spec, loss);
        let (core, head) = match label {
            Label::Class { y, n_classes } => (
                train(*n_classes, &|out, i, d| {
                    softmax_cross_entropy_into(out, y[i], d)
                }),
                Head::Classes(*n_classes),
            ),
            Label::Reg(y) => {
                let mean = y.iter().sum::<f64>() / y.len() as f64;
                let var = y.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / y.len() as f64;
                let std = var.sqrt().max(1e-12);
                let yz: Vec<f64> = y.iter().map(|t| (t - mean) / std).collect();
                let core = train(1, &|out, i, d| d[0] = 2.0 * (out[0] - yz[i]));
                (core, Head::Target { mean, std })
            }
        };
        Ok(Self { core, scaler, head })
    }

    /// Standardised rows of the column-major `x`, checked against the
    /// fitted feature count.
    fn rows(&self, x: &[Vec<f64>]) -> Result<Mat> {
        if x.len() != self.scaler.n_features() {
            return Err(LearnError::DimensionMismatch {
                fitted: self.scaler.n_features(),
                got: x.len(),
            });
        }
        Ok(Mat::from_columns(&self.scaler.transform(x)))
    }

    /// Predict column-major features, of the task fitted on.
    pub(crate) fn predict(&self, x: &[Vec<f64>]) -> Result<Label> {
        let outs = forward_rows(&self.core, &self.rows(x)?);
        let rows = 0..outs.rows();
        Ok(match self.head {
            Head::Classes(n_classes) => Label::Class {
                y: rows.map(|r| argmax(outs.row(r))).collect(),
                n_classes,
            },
            Head::Target { mean, std } => {
                Label::Reg(rows.map(|r| outs.row(r)[0] * std + mean).collect())
            }
        })
    }

    /// Penultimate representations, column-major (one column per hidden
    /// unit), computed batched over the whole matrix.
    pub(crate) fn embed(&self, x: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        let e = embed_rows(&self.core, &self.rows(x)?);
        let mut cols = vec![Vec::with_capacity(e.rows()); e.cols()];
        for r in 0..e.rows() {
            for (col, v) in cols.iter_mut().zip(e.row(r)) {
                col.push(*v);
            }
        }
        Ok(cols)
    }

    /// The trained flat parameter slab.
    pub(crate) fn params(&self) -> &[f64] {
        self.core.params()
    }
}

/// Numerically-stable softmax (max-shift, exp, single-pass sum, divide),
/// written into `out`.
pub(crate) fn softmax_into(logits: &[f64], out: &mut [f64]) {
    debug_assert_eq!(logits.len(), out.len());
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for (o, &l) in out.iter_mut().zip(logits) {
        *o = (l - max).exp();
    }
    let sum: f64 = out.iter().sum();
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Softmax cross-entropy gradient for one sample: write `dlogits` into
/// `d` (the loss value itself is not needed by the training driver).
pub(crate) fn softmax_cross_entropy_into(logits: &[f64], target: usize, d: &mut [f64]) {
    softmax_into(logits, d);
    d[target] -= 1.0;
}

/// Adam optimiser state over a flat parameter vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Adam {
    /// Learning rate.
    pub lr: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// New optimiser for `n_params` parameters (paper default lr = 0.01).
    pub(crate) fn new(n_params: usize, lr: f64) -> Self {
        Self {
            lr,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
            t: 0,
        }
    }

    /// One Adam step: update `params` in place from `grads`.
    /// `params` and `grads` must both have the length given at construction.
    pub(crate) fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        const BETA1: f64 = 0.9;
        const BETA2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        debug_assert_eq!(params.len(), self.m.len());
        debug_assert_eq!(grads.len(), self.m.len());
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * grads[i];
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * grads[i] * grads[i];
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_is_distribution() {
        let mut p = [0.0; 3];
        softmax_into(&[1.0, 2.0, 3.0], &mut p);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stability under large logits.
        let mut p = [0.0; 2];
        softmax_into(&[1000.0, 1000.0], &mut p);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero() {
        let mut d = [0.0; 3];
        softmax_cross_entropy_into(&[0.2, -0.1, 0.5], 1, &mut d);
        assert!(d.iter().sum::<f64>().abs() < 1e-12);
        assert!(d[1] < 0.0); // target logit pushed up
    }

    #[test]
    fn adam_minimises_quadratic() {
        // minimise (p - 3)²
        let mut p = vec![0.0];
        let mut opt = Adam::new(1, 0.1);
        for _ in 0..500 {
            let g = vec![2.0 * (p[0] - 3.0)];
            opt.step(&mut p, &g);
        }
        assert!((p[0] - 3.0).abs() < 1e-3, "p = {}", p[0]);
    }
}
