//! What the flat batched trainer in [`crate::dense`] needs beside its
//! kernels: the softmax cross-entropy gradient and the Adam optimiser (the
//! paper trains its networks with Adam, learning rate 0.01).

use serde::{Deserialize, Serialize};

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
