//! Compact Adam optimiser for the policy parameters. Kept local to `rl` so
//! the crate stays dependency-free of the `learners` substrate (the two
//! crates sit side by side in the dependency graph).

use serde::{Deserialize, Serialize};

/// Adam state over a flat parameter vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Adam {
    /// Learning rate (the paper uses 0.01).
    pub lr: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// New optimiser for `n` parameters.
    pub(crate) fn new(n: usize, lr: f64) -> Self {
        Self {
            lr,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// One update step; `params` and `grads` must match the constructed size.
    pub(crate) fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        debug_assert_eq!(params.len(), self.m.len());
        self.t += 1;
        let c1 = 1.0 - B1.powi(self.t as i32);
        let c2 = 1.0 - B2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * grads[i];
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * grads[i] * grads[i];
            params[i] -= self.lr * (self.m[i] / c1) / ((self.v[i] / c2).sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        let mut p = vec![5.0, -4.0];
        let mut opt = Adam::new(2, 0.05);
        for _ in 0..2000 {
            let g = vec![2.0 * (p[0] - 1.0), 2.0 * (p[1] + 2.0)];
            opt.step(&mut p, &g);
        }
        assert!((p[0] - 1.0).abs() < 1e-2);
        assert!((p[1] + 2.0).abs() < 1e-2);
    }
}
