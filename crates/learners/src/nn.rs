//! Minimal neural-network building blocks shared by the MLP and tabular
//! ResNet learners: dense layers with manual backprop, ReLU, softmax
//! cross-entropy, and the Adam optimiser (the paper trains its networks
//! with Adam, learning rate 0.01).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully-connected layer `y = W x + b` with gradient accumulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    /// Weights, `w[out][in]`.
    pub w: Vec<Vec<f64>>,
    /// Biases, one per output.
    pub b: Vec<f64>,
    /// Accumulated weight gradients.
    pub gw: Vec<Vec<f64>>,
    /// Accumulated bias gradients.
    pub gb: Vec<f64>,
}

impl Dense {
    /// He-style initialisation scaled by fan-in.
    pub fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / n_in.max(1) as f64).sqrt();
        let w = (0..n_out)
            .map(|_| (0..n_in).map(|_| rng.gen_range(-scale..scale)).collect())
            .collect();
        Self {
            w,
            b: vec![0.0; n_out],
            gw: vec![vec![0.0; n_in]; n_out],
            gb: vec![0.0; n_out],
        }
    }

    /// Output dimension.
    pub fn n_out(&self) -> usize {
        self.b.len()
    }

    /// Input dimension.
    pub fn n_in(&self) -> usize {
        self.w.first().map_or(0, Vec::len)
    }

    /// Forward pass for one sample. Each output's inner product runs
    /// through the pinned SIMD lane tree ([`simd::dot`]) — the same
    /// reduction the flat batched kernels use, which is what keeps the
    /// scalar and batched training backends bit-identical.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.w
            .iter()
            .zip(&self.b)
            .map(|(row, b)| b + simd::dot(row, x))
            .collect()
    }

    /// Backward pass: accumulate parameter gradients for (x, dy) and return
    /// the gradient with respect to the input. Per-output updates are the
    /// elementwise [`simd::axpy`] (one multiply, one add per element —
    /// bitwise identical to the plain loops they replace).
    pub fn backward(&mut self, x: &[f64], dy: &[f64]) -> Vec<f64> {
        let mut dx = vec![0.0; self.n_in()];
        for (o, &g) in dy.iter().enumerate() {
            self.gb[o] += g;
            simd::axpy(&mut self.gw[o], g, x);
            simd::axpy(&mut dx, g, &self.w[o]);
        }
        dx
    }

    /// Zero the accumulated gradients.
    pub fn zero_grad(&mut self) {
        for row in &mut self.gw {
            row.iter_mut().for_each(|g| *g = 0.0);
        }
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Flattened parameter count (weights + biases).
    pub fn n_params(&self) -> usize {
        self.n_in() * self.n_out() + self.n_out()
    }
}

/// ReLU forward.
pub fn relu(x: &[f64]) -> Vec<f64> {
    x.iter().map(|&v| v.max(0.0)).collect()
}

/// ReLU backward: gate `dy` by the sign of the pre-activation.
pub fn relu_backward(pre: &[f64], dy: &[f64]) -> Vec<f64> {
    pre.iter()
        .zip(dy)
        .map(|(&p, &g)| if p > 0.0 { g } else { 0.0 })
        .collect()
}

/// Numerically-stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Softmax cross-entropy: returns (loss, dlogits) for one sample.
pub fn softmax_cross_entropy(logits: &[f64], target: usize) -> (f64, Vec<f64>) {
    let p = softmax(logits);
    let loss = -p[target].max(1e-15).ln();
    let mut d = p;
    d[target] -= 1.0;
    (loss, d)
}

/// Allocation-free [`softmax`]: write the distribution into `out`.
/// Same arithmetic (max-shift, exp, single-pass sum, divide), so the
/// values are bit-identical to the allocating version.
pub fn softmax_into(logits: &[f64], out: &mut [f64]) {
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

/// Allocation-free softmax cross-entropy gradient: write `dlogits` into
/// `d` (the loss value itself is not needed by the training drivers).
/// Bit-identical to the gradient returned by [`softmax_cross_entropy`].
pub fn softmax_cross_entropy_into(logits: &[f64], target: usize, d: &mut [f64]) {
    softmax_into(logits, d);
    d[target] -= 1.0;
}

/// Adam optimiser state over a flat parameter vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Epsilon for numerical stability.
    pub eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// New optimiser for `n_params` parameters (paper default lr = 0.01).
    pub fn new(n_params: usize, lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
            t: 0,
        }
    }

    /// One Adam step: update `params` in place from `grads`.
    /// `params` and `grads` must both have the length given at construction.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        debug_assert_eq!(params.len(), self.m.len());
        debug_assert_eq!(grads.len(), self.m.len());
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grads[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grads[i] * grads[i];
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

/// Flatten a set of dense layers' parameters into one vector (for Adam).
pub fn collect_params(layers: &[&Dense]) -> Vec<f64> {
    let mut out = Vec::new();
    for layer in layers {
        for row in &layer.w {
            out.extend_from_slice(row);
        }
        out.extend_from_slice(&layer.b);
    }
    out
}

/// Flatten gradients in the same order as [`collect_params`].
pub fn collect_grads(layers: &[&Dense]) -> Vec<f64> {
    let mut out = Vec::new();
    for layer in layers {
        for row in &layer.gw {
            out.extend_from_slice(row);
        }
        out.extend_from_slice(&layer.gb);
    }
    out
}

/// Scatter a flat parameter vector back into the layers, inverse of
/// [`collect_params`].
pub fn scatter_params(layers: &mut [&mut Dense], flat: &[f64]) {
    let mut k = 0usize;
    for layer in layers.iter_mut() {
        for row in &mut layer.w {
            for w in row.iter_mut() {
                *w = flat[k];
                k += 1;
            }
        }
        for b in &mut layer.b {
            *b = flat[k];
            k += 1;
        }
    }
    debug_assert_eq!(k, flat.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::new(2, 1, &mut rng());
        d.w = vec![vec![2.0, -1.0]];
        d.b = vec![0.5];
        assert_eq!(d.forward(&[3.0, 4.0]), vec![2.5]);
    }

    #[test]
    fn dense_backward_gradient_check() {
        // Finite-difference check of dL/dw for L = y² with y = Wx + b.
        let mut d = Dense::new(3, 2, &mut rng());
        let x = [0.3, -0.7, 1.1];
        let y = d.forward(&x);
        let dy: Vec<f64> = y.iter().map(|v| 2.0 * v).collect(); // dL/dy
        d.zero_grad();
        let dx = d.backward(&x, &dy);

        let eps = 1e-6;
        let loss = |d: &Dense, x: &[f64]| -> f64 { d.forward(x).iter().map(|v| v * v).sum() };
        // Check one weight and one input grad numerically.
        let base = loss(&d, &x);
        let mut d2 = d.clone();
        d2.w[1][2] += eps;
        let num_gw = (loss(&d2, &x) - base) / eps;
        assert!(
            (num_gw - d.gw[1][2]).abs() < 1e-4,
            "{num_gw} vs {}",
            d.gw[1][2]
        );

        let mut x2 = x;
        x2[0] += eps;
        let num_gx = (loss(&d, &x2) - base) / eps;
        assert!((num_gx - dx[0]).abs() < 1e-4, "{num_gx} vs {}", dx[0]);
    }

    #[test]
    fn relu_gates_gradient() {
        let pre = [1.0, -1.0, 0.0];
        assert_eq!(relu(&pre), vec![1.0, 0.0, 0.0]);
        assert_eq!(relu_backward(&pre, &[5.0, 5.0, 5.0]), vec![5.0, 0.0, 0.0]);
    }

    #[test]
    fn softmax_is_distribution() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stability under large logits.
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero() {
        let (loss, d) = softmax_cross_entropy(&[0.2, -0.1, 0.5], 1);
        assert!(loss > 0.0);
        assert!(d.iter().sum::<f64>().abs() < 1e-12);
        assert!(d[1] < 0.0); // target logit pushed up
    }

    #[test]
    fn into_variants_match_allocating_versions_bitwise() {
        let logits = [0.2, -0.1, 0.5, 3.0];
        let mut buf = [0.0; 4];
        softmax_into(&logits, &mut buf);
        for (a, b) in softmax(&logits).iter().zip(&buf) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        softmax_cross_entropy_into(&logits, 2, &mut buf);
        let (_, d) = softmax_cross_entropy(&logits, 2);
        for (a, b) in d.iter().zip(&buf) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
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

    #[test]
    fn param_round_trip() {
        let mut a = Dense::new(3, 2, &mut rng());
        let mut b = Dense::new(2, 1, &mut rng());
        let flat = collect_params(&[&a, &b]);
        assert_eq!(flat.len(), a.n_params() + b.n_params());
        let mut flat2 = flat.clone();
        for v in &mut flat2 {
            *v += 1.0;
        }
        scatter_params(&mut [&mut a, &mut b], &flat2);
        let flat3 = collect_params(&[&a, &b]);
        for (x, y) in flat.iter().zip(&flat3) {
            assert!((y - x - 1.0).abs() < 1e-12);
        }
    }
}
