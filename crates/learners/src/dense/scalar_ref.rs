#![cfg(test)]
//! The per-sample neural-network trainer — the oracle the flat batched
//! kernels of [`crate::dense`] are held to, bit for bit: layers with
//! manual backprop ([`Dense`]), the allocating ReLU / softmax helpers, a
//! [`ScalarNet`] over them and [`train_scalar`], the per-sample twin of
//! `train_flat`. Test-only: the library ships the batched trainer alone.
//! It shares with it exactly what defines the result — [`simd::dot`] /
//! [`simd::axpy`], the `TRAIN_MICROBATCH` partition and [`Adam`] — and
//! nothing of how the result is computed. Parity suites: `crate::nn_parity`
//! and the unit tests of `dense.rs`.

use super::{FlatNet, LossGrad, Mat, Topology, TrainSpec, TRAIN_MICROBATCH};
use crate::nn::Adam;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A fully-connected layer `y = W x + b` with gradient accumulation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Dense {
    /// Weights, `w[out][in]`.
    pub(crate) w: Vec<Vec<f64>>,
    /// Biases, one per output.
    pub(crate) b: Vec<f64>,
    /// Accumulated weight gradients.
    pub(crate) gw: Vec<Vec<f64>>,
    /// Accumulated bias gradients.
    pub(crate) gb: Vec<f64>,
}

impl Dense {
    /// He-style initialisation scaled by fan-in.
    pub(crate) fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
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
    pub(crate) fn n_out(&self) -> usize {
        self.b.len()
    }

    /// Input dimension.
    pub(crate) fn n_in(&self) -> usize {
        self.w.first().map_or(0, Vec::len)
    }

    /// Forward pass for one sample. Each output's inner product runs
    /// through the pinned SIMD lane tree ([`simd::dot`]) — the same
    /// reduction the flat batched kernels use, which is what keeps this
    /// reference and the batched trainer bit-identical.
    pub(crate) fn forward(&self, x: &[f64]) -> Vec<f64> {
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
    pub(crate) fn backward(&mut self, x: &[f64], dy: &[f64]) -> Vec<f64> {
        let mut dx = vec![0.0; self.n_in()];
        for (o, &g) in dy.iter().enumerate() {
            self.gb[o] += g;
            simd::axpy(&mut self.gw[o], g, x);
            simd::axpy(&mut dx, g, &self.w[o]);
        }
        dx
    }

    /// Zero the accumulated gradients.
    pub(crate) fn zero_grad(&mut self) {
        for row in &mut self.gw {
            row.iter_mut().for_each(|g| *g = 0.0);
        }
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Flattened parameter count (weights + biases).
    pub(crate) fn n_params(&self) -> usize {
        self.n_in() * self.n_out() + self.n_out()
    }
}

/// ReLU forward.
pub(crate) fn relu(x: &[f64]) -> Vec<f64> {
    x.iter().map(|&v| v.max(0.0)).collect()
}

/// ReLU backward: gate `dy` by the sign of the pre-activation.
pub(crate) fn relu_backward(pre: &[f64], dy: &[f64]) -> Vec<f64> {
    pre.iter()
        .zip(dy)
        .map(|(&p, &g)| if p > 0.0 { g } else { 0.0 })
        .collect()
}

/// Numerically-stable softmax.
pub(crate) fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Softmax cross-entropy: returns (loss, dlogits) for one sample.
pub(crate) fn softmax_cross_entropy(logits: &[f64], target: usize) -> (f64, Vec<f64>) {
    let p = softmax(logits);
    let loss = -p[target].max(1e-15).ln();
    let mut d = p;
    d[target] -= 1.0;
    (loss, d)
}

/// Flatten a set of dense layers' parameters into one vector (for Adam).
pub(crate) fn collect_params(layers: &[&Dense]) -> Vec<f64> {
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
pub(crate) fn collect_grads(layers: &[&Dense]) -> Vec<f64> {
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
pub(crate) fn scatter_params(layers: &mut [&mut Dense], flat: &[f64]) {
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

/// The per-sample network: `Vec<Vec<f64>>` weights via [`Dense`], fresh
/// `Vec`s per layer per sample.
pub(crate) struct ScalarNet {
    topo: Topology,
    n_in: usize,
    n_out: usize,
    /// Layers in [`FlatNet`] slab order.
    layers: Vec<Dense>,
}

/// Per-sample forward cache needed by [`ScalarNet::backward`].
pub(crate) struct ScalarCache {
    /// ResNet trunk states: after the stem and after each block.
    z_states: Vec<Vec<f64>>,
    /// Pre-activations per ReLU (MLP: the hidden layer; ResNet: `W₁ z`).
    pres: Vec<Vec<f64>>,
}

impl ScalarNet {
    pub(crate) fn init(topo: Topology, n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        let layers = FlatNet::layer_dims(topo, n_in, n_out)
            .into_iter()
            .map(|(i, o)| Dense::new(i, o, rng))
            .collect();
        Self {
            topo,
            n_in,
            n_out,
            layers,
        }
    }

    pub(crate) fn n_params(&self) -> usize {
        self.layers.iter().map(Dense::n_params).sum()
    }

    pub(crate) fn layer_refs(&self) -> Vec<&Dense> {
        self.layers.iter().collect()
    }

    pub(crate) fn layer_muts(&mut self) -> Vec<&mut Dense> {
        self.layers.iter_mut().collect()
    }

    pub(crate) fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    pub(crate) fn forward(&self, x: &[f64]) -> (ScalarCache, Vec<f64>) {
        match self.topo {
            Topology::Mlp { .. } => {
                let pre = self.layers[0].forward(x);
                let h = relu(&pre);
                let out = self.layers[1].forward(&h);
                (
                    ScalarCache {
                        z_states: Vec::new(),
                        pres: vec![pre],
                    },
                    out,
                )
            }
            Topology::ResNet { n_blocks, .. } => {
                let mut z = self.layers[0].forward(x);
                let mut z_states = vec![z.clone()];
                let mut pres = Vec::with_capacity(n_blocks);
                for blk in 0..n_blocks {
                    let pre = self.layers[1 + 2 * blk].forward(&z);
                    let h = relu(&pre);
                    let delta = self.layers[2 + 2 * blk].forward(&h);
                    for (zi, di) in z.iter_mut().zip(&delta) {
                        *zi += di;
                    }
                    pres.push(pre);
                    z_states.push(z.clone());
                }
                let out = self.layers[self.layers.len() - 1].forward(&z);
                (ScalarCache { z_states, pres }, out)
            }
        }
    }

    pub(crate) fn backward(&mut self, x: &[f64], cache: &ScalarCache, dout: &[f64]) {
        match self.topo {
            Topology::Mlp { .. } => {
                let pre = &cache.pres[0];
                let h = relu(pre);
                let dh = self.layers[1].backward(&h, dout);
                let dpre = relu_backward(pre, &dh);
                let _ = self.layers[0].backward(x, &dpre);
            }
            Topology::ResNet { n_blocks, .. } => {
                let z_final = cache.z_states.last().expect("nonempty states");
                let head = self.layers.len() - 1;
                let mut dz = self.layers[head].backward(z_final, dout);
                for blk in (0..n_blocks).rev() {
                    let z_in = &cache.z_states[blk];
                    let pre = &cache.pres[blk];
                    let h = relu(pre);
                    let dh = self.layers[2 + 2 * blk].backward(&h, &dz);
                    let dpre = relu_backward(pre, &dh);
                    let dz_branch = self.layers[1 + 2 * blk].backward(z_in, &dpre);
                    for (d, db) in dz.iter_mut().zip(dz_branch) {
                        *d += db;
                    }
                }
                let _ = self.layers[0].backward(x, &dz);
            }
        }
    }
}

impl FlatNet {
    fn from_scalar(net: &ScalarNet) -> Self {
        let dims = Self::layer_dims(net.topo, net.n_in, net.n_out);
        let (layers, total) = Self::specs_from_dims(&dims);
        let mut params = Vec::with_capacity(total);
        for layer in &net.layers {
            for row in &layer.w {
                params.extend_from_slice(row);
            }
            params.extend_from_slice(&layer.b);
        }
        debug_assert_eq!(params.len(), total);
        Self {
            topo: net.topo,
            n_in: net.n_in,
            n_out: net.n_out,
            layers,
            params,
        }
    }
}

/// [`train_flat`]'s contract, per sample: same RNG streams, same shuffle,
/// same fixed microbatch partition, the same [`Adam`] — and full parameter
/// collect/scatter copies around every optimiser step.
pub(crate) fn train_scalar(
    topo: Topology,
    n_in: usize,
    n_out: usize,
    rows: &Mat,
    spec: &TrainSpec,
    loss: LossGrad,
) -> FlatNet {
    let mut init_rng = StdRng::seed_from_u64(spec.seed);
    let mut shuffle_rng = StdRng::seed_from_u64(spec.seed ^ spec.shuffle_xor);
    let bs = spec.batch_size.max(1);
    let mut order: Vec<usize> = (0..rows.rows()).collect();
    let mut net = ScalarNet::init(topo, n_in, n_out, &mut init_rng);
    let n_params = net.n_params();
    let mut opt = Adam::new(n_params, spec.lr);
    let mut grads = vec![0.0; n_params];
    let mut dout = vec![0.0; n_out];
    for _ in 0..spec.epochs {
        order.shuffle(&mut shuffle_rng);
        for chunk in order.chunks(bs) {
            grads.fill(0.0);
            // Same fixed microbatch partition and in-order partial
            // reduction as the batched trainer, so the two form
            // identical floating-point sums.
            for mb in chunk.chunks(TRAIN_MICROBATCH) {
                net.zero_grad();
                for &i in mb {
                    let (cache, out) = net.forward(rows.row(i));
                    loss(&out, i, &mut dout);
                    net.backward(rows.row(i), &cache, &dout);
                }
                let partial = collect_grads(&net.layer_refs());
                for (g, v) in grads.iter_mut().zip(&partial) {
                    *g += v;
                }
            }
            let scale = 1.0 / chunk.len() as f64;
            grads.iter_mut().for_each(|g| *g *= scale);
            let mut params = collect_params(&net.layer_refs());
            opt.step(&mut params, &grads);
            let mut layers = net.layer_muts();
            scatter_params(&mut layers, &params);
        }
    }
    FlatNet::from_scalar(&net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{softmax_cross_entropy_into, softmax_into};

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
