//! Flat batched dense kernels for the neural learners (DESIGN.md §10).
//!
//! * [`Mat`] — a contiguous row-major activation/parameter store,
//! * [`FlatNet`] — all layer parameters in **one flat slab** (per layer:
//!   row-major weights, then biases), so the Adam step runs in place over
//!   the slab with no copies,
//! * [`FlatNet::forward_batch`] / [`FlatNet::backward_batch`] — batched
//!   kernels over a whole microbatch with reusable [`Scratch`] buffers
//!   owned by the trainer (zero per-sample allocation),
//! * a shared crate-private training driver (`train_flat`) used by both
//!   the MLP and ResNet heads (one Adam loop, two loss closures).
//!
//! # Bit-identity contract
//!
//! Two invariants are pinned by this crate's `nn_parity` unit suite and
//! `tests/parallel_determinism.rs`:
//!
//! 1. **Batched == per-sample.** Every inner product reduces through the
//!    pinned SIMD lane tree (`simd::dot`, DESIGN.md §13): four independent
//!    lane accumulators over chunks of 4, `(0+1)+(2+3)`, sequential
//!    ascending tail. Elementwise gradient updates are `simd::axpy` (one
//!    multiply + one add per cell, never FMA), and microbatch gradient
//!    accumulation visits rows in ascending order — so a per-sample
//!    trainer forms the same per-cell addend sequence. That trainer is the
//!    test oracle `dense/scalar_ref.rs` (`#[cfg(test)]`): it trains to
//!    **bit-identical** parameters.
//! 2. **1 thread == N threads.** Each minibatch is split into a *fixed
//!    microbatch partition* of [`TRAIN_MICROBATCH`] rows. Every
//!    microbatch accumulates into its own zeroed partial slab, and the
//!    partials are reduced into the gradient **serially in microbatch
//!    index order** — on the serial path and the `runtime::WorkerPool`
//!    path alike. The floating-point accumulation order is defined by
//!    the partition, not the thread count, so results are invariant
//!    under `runtime::set_global_threads`.
//!
//! The parallel path allocates one scratch + partial slab per microbatch
//! task (the pool's scoped workers cannot share the trainer's buffers);
//! the serial path reuses trainer-owned buffers and allocates nothing
//! per step. Dispatch to the pool happens only when a minibatch carries
//! enough work (`PARALLEL_GRAIN`: minibatch rows × parameters) to
//! amortise task setup.

use crate::error::{LearnError, Result};
use crate::nn::Adam;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use runtime::WorkerPool;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Fixed training microbatch size: the unit of the gradient partition.
/// Part of the reduction-order contract — changing it changes which
/// floating-point sums are formed (still deterministically, but not
/// bit-compatibly with previously trained nets).
pub(crate) const TRAIN_MICROBATCH: usize = 8;

/// Inference microbatch: rows processed per `forward_batch` call when
/// predicting/embedding. Purely a blocking factor — outputs are
/// row-independent, so it does not affect results.
const INFER_MICROBATCH: usize = 256;

/// Minimum `rows × parameters` product before a minibatch (or an
/// inference pass) is worth shipping to the worker pool; below this the
/// scoped-thread setup of `WorkerPool::map` costs more than it saves.
/// Crossing it must never change results, only where they are computed
/// (the parity suite pins one row below, at, and one past the boundary).
pub(crate) const PARALLEL_GRAIN: usize = 262_144;

/// Network shape: which architecture a [`FlatNet`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Topology {
    /// One hidden ReLU layer: `out = W₂ relu(W₁ x)`.
    Mlp {
        /// Hidden layer width.
        hidden: usize,
    },
    /// RTDL-style tabular ResNet: linear stem to `width`, `n_blocks`
    /// residual blocks `z ← z + W₂ relu(W₁ z)`, linear head.
    ResNet {
        /// Hidden representation width.
        width: usize,
        /// Number of residual blocks.
        n_blocks: usize,
    },
}

/// One dense layer's dimensions and offsets into the flat parameter slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct LayerSpec {
    /// Input dimension.
    pub n_in: usize,
    /// Output dimension.
    pub n_out: usize,
    /// Offset of the row-major `n_out × n_in` weight block.
    pub w_off: usize,
    /// Offset of the `n_out` bias block (`w_off + n_in·n_out`).
    pub b_off: usize,
}

/// A dense row-major matrix used for parameters and activations.
///
/// Unlike `Vec<Vec<f64>>` this is one contiguous allocation; rows are
/// handed out as slices. [`Mat::set_rows`] changes the *logical* row
/// count without shrinking capacity, which is how [`Scratch`] buffers
/// are reused across microbatches of different sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from column-major columns (the learners' public input
    /// layout), transposing into row-major storage.
    pub(crate) fn from_columns(cols: &[Vec<f64>]) -> Self {
        let n_rows = cols.first().map_or(0, Vec::len);
        let n_cols = cols.len();
        let mut m = Self::zeros(n_rows, n_cols);
        for (c, col) in cols.iter().enumerate() {
            debug_assert_eq!(col.len(), n_rows, "ragged column-major input");
            for (r, &v) in col.iter().enumerate() {
                m.data[r * n_cols + c] = v;
            }
        }
        m
    }

    /// Build from row-major rows.
    pub(crate) fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut m = Self::zeros(rows.len(), n_cols);
        for (r, row) in rows.iter().enumerate() {
            debug_assert_eq!(row.len(), n_cols, "ragged row-major input");
            m.row_mut(r).copy_from_slice(row);
        }
        m
    }

    /// Logical row count.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a contiguous slice.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable contiguous slice.
    #[inline]
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Change the logical row count, reusing the existing allocation
    /// when capacity allows (new cells are zeroed).
    pub(crate) fn set_rows(&mut self, rows: usize) {
        self.rows = rows;
        self.data.resize(rows * self.cols, 0.0);
    }
}

/// Reusable activation/gradient buffers for one microbatch, owned by the
/// trainer (or one pool task) and recycled across steps — the batched
/// path performs **zero per-sample allocations**.
#[derive(Debug, Clone)]
pub(crate) struct Scratch {
    /// Gathered input rows for the current microbatch.
    x: Mat,
    /// ResNet z-states: after the stem and after each block (empty for MLP).
    z: Vec<Mat>,
    /// Pre-activations per ReLU (MLP: one entry; ResNet: one per block).
    pre: Vec<Mat>,
    /// ReLU activations.
    h: Mat,
    /// ResNet branch output `W₂ relu(W₁ z)`.
    delta: Mat,
    /// Network outputs (logits / regression head).
    out: Mat,
    /// Loss gradient w.r.t. the outputs.
    dout: Mat,
    /// Gradient flowing along the residual trunk (head input gradient).
    dz: Mat,
    /// Gradient w.r.t. ReLU activations.
    dh: Mat,
    /// Gradient w.r.t. pre-activations.
    dpre: Mat,
    /// Gradient entering the trunk from one residual branch.
    dbranch: Mat,
}

impl Scratch {
    /// Set the logical microbatch size on every buffer.
    pub(crate) fn set_rows(&mut self, rows: usize) {
        self.x.set_rows(rows);
        for m in &mut self.z {
            m.set_rows(rows);
        }
        for m in &mut self.pre {
            m.set_rows(rows);
        }
        self.h.set_rows(rows);
        self.delta.set_rows(rows);
        self.out.set_rows(rows);
        self.dout.set_rows(rows);
        self.dz.set_rows(rows);
        self.dh.set_rows(rows);
        self.dpre.set_rows(rows);
        self.dbranch.set_rows(rows);
    }

    /// Penultimate representation of the last forward pass (ResNet: the
    /// final trunk state; MLP: the hidden ReLU activations).
    pub(crate) fn embedding(&self) -> &Mat {
        self.z.last().unwrap_or(&self.h)
    }
}

/// A feed-forward network with every parameter in one flat slab.
///
/// Layout: layers in forward order ([`Topology::Mlp`]: hidden, output;
/// [`Topology::ResNet`]: stem, then `W₁, W₂` per block, then head), each
/// layer contributing its row-major `n_out × n_in` weight block followed
/// by its `n_out` biases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct FlatNet {
    topo: Topology,
    n_in: usize,
    n_out: usize,
    layers: Vec<LayerSpec>,
    params: Vec<f64>,
}

impl FlatNet {
    fn layer_dims(topo: Topology, n_in: usize, n_out: usize) -> Vec<(usize, usize)> {
        match topo {
            Topology::Mlp { hidden } => vec![(n_in, hidden), (hidden, n_out)],
            Topology::ResNet { width, n_blocks } => {
                let mut dims = vec![(n_in, width)];
                for _ in 0..n_blocks {
                    dims.push((width, width));
                    dims.push((width, width));
                }
                dims.push((width, n_out));
                dims
            }
        }
    }

    fn specs_from_dims(dims: &[(usize, usize)]) -> (Vec<LayerSpec>, usize) {
        let mut layers = Vec::with_capacity(dims.len());
        let mut off = 0usize;
        for &(n_in, n_out) in dims {
            layers.push(LayerSpec {
                n_in,
                n_out,
                w_off: off,
                b_off: off + n_in * n_out,
            });
            off += n_in * n_out + n_out;
        }
        (layers, off)
    }

    /// He-initialised network: one `gen_range(-scale..scale)` per weight
    /// in slab order (`scale = sqrt(2 / n_in)`), biases zero.
    pub(crate) fn init(topo: Topology, n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        let dims = Self::layer_dims(topo, n_in, n_out);
        let (layers, total) = Self::specs_from_dims(&dims);
        let mut params = vec![0.0; total];
        for spec in &layers {
            let scale = (2.0 / spec.n_in.max(1) as f64).sqrt();
            for w in &mut params[spec.w_off..spec.b_off] {
                *w = rng.gen_range(-scale..scale);
            }
        }
        Self {
            topo,
            n_in,
            n_out,
            layers,
            params,
        }
    }

    /// Output dimension.
    pub(crate) fn n_out(&self) -> usize {
        self.n_out
    }

    /// Width of the penultimate representation.
    pub(crate) fn hidden_width(&self) -> usize {
        match self.topo {
            Topology::Mlp { hidden } => hidden,
            Topology::ResNet { width, .. } => width,
        }
    }

    /// Total parameter count.
    pub(crate) fn n_params(&self) -> usize {
        self.params.len()
    }

    /// The flat parameter slab (layout documented on the type).
    pub(crate) fn params(&self) -> &[f64] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    fn w(&self, s: LayerSpec) -> &[f64] {
        &self.params[s.w_off..s.b_off]
    }

    fn b(&self, s: LayerSpec) -> &[f64] {
        &self.params[s.b_off..s.b_off + s.n_out]
    }

    /// Allocate scratch buffers sized for microbatches of up to
    /// `cap_rows` rows.
    pub(crate) fn scratch(&self, cap_rows: usize) -> Scratch {
        let width = self.hidden_width();
        let (n_z, n_pre) = match self.topo {
            Topology::Mlp { .. } => (0, 1),
            Topology::ResNet { n_blocks, .. } => (n_blocks + 1, n_blocks),
        };
        Scratch {
            x: Mat::zeros(cap_rows, self.n_in),
            z: (0..n_z).map(|_| Mat::zeros(cap_rows, width)).collect(),
            pre: (0..n_pre).map(|_| Mat::zeros(cap_rows, width)).collect(),
            h: Mat::zeros(cap_rows, width),
            delta: Mat::zeros(cap_rows, width),
            out: Mat::zeros(cap_rows, self.n_out),
            dout: Mat::zeros(cap_rows, self.n_out),
            dz: Mat::zeros(cap_rows, width),
            dh: Mat::zeros(cap_rows, width),
            dpre: Mat::zeros(cap_rows, width),
            dbranch: Mat::zeros(cap_rows, width),
        }
    }

    /// Batched forward pass over the microbatch in `scr.x` (all rows at
    /// once); each output row is what a per-sample pass computes, bit for
    /// bit.
    pub(crate) fn forward_batch(&self, scr: &mut Scratch) {
        let Scratch {
            x,
            z,
            pre,
            h,
            delta,
            out,
            ..
        } = scr;
        match self.topo {
            Topology::Mlp { .. } => {
                let l1 = self.layers[0];
                let l2 = self.layers[1];
                dense_forward(self.w(l1), self.b(l1), x, &mut pre[0]);
                relu_batch(&pre[0], h);
                dense_forward(self.w(l2), self.b(l2), h, out);
            }
            Topology::ResNet { n_blocks, .. } => {
                let stem = self.layers[0];
                dense_forward(self.w(stem), self.b(stem), x, &mut z[0]);
                for blk in 0..n_blocks {
                    let w1 = self.layers[1 + 2 * blk];
                    let w2 = self.layers[2 + 2 * blk];
                    dense_forward(self.w(w1), self.b(w1), &z[blk], &mut pre[blk]);
                    relu_batch(&pre[blk], h);
                    dense_forward(self.w(w2), self.b(w2), h, delta);
                    // z[blk+1] = z[blk] + delta, elementwise in index order.
                    let (z_in, z_out) = z.split_at_mut(blk + 1);
                    z_out[0].data.copy_from_slice(&z_in[blk].data);
                    add_assign(&mut z_out[0], delta);
                }
                let head = self.layers[self.layers.len() - 1];
                dense_forward(self.w(head), self.b(head), &z[n_blocks], out);
            }
        }
    }

    /// Batched backward pass: accumulate parameter gradients for the
    /// microbatch last run through [`FlatNet::forward_batch`] (with
    /// `scr.dout` filled) into `grads`, a slab with the same layout as
    /// [`FlatNet::params`]. Rows are accumulated in ascending order (the
    /// per-cell addend sequence of a per-sample pass), and `grads` is
    /// *not* zeroed here, so partials can be layered.
    pub(crate) fn backward_batch(&self, scr: &mut Scratch, grads: &mut [f64]) {
        debug_assert_eq!(grads.len(), self.params.len());
        let Scratch {
            x,
            z,
            pre,
            h,
            dout,
            dz,
            dh,
            dpre,
            dbranch,
            ..
        } = scr;
        match self.topo {
            Topology::Mlp { .. } => {
                let l1 = self.layers[0];
                let l2 = self.layers[1];
                // `h` still holds relu(pre) from the forward pass.
                let (gw2, gb2) = grad_slices(grads, l2);
                dense_backward(self.w(l2), h, dout, gw2, gb2, Some(dh));
                relu_backward_batch(&pre[0], dh, dpre);
                let (gw1, gb1) = grad_slices(grads, l1);
                dense_backward(self.w(l1), x, dpre, gw1, gb1, None);
            }
            Topology::ResNet { n_blocks, .. } => {
                let head = self.layers[self.layers.len() - 1];
                let (gwh, gbh) = grad_slices(grads, head);
                dense_backward(self.w(head), &z[n_blocks], dout, gwh, gbh, Some(dz));
                for blk in (0..n_blocks).rev() {
                    let w1 = self.layers[1 + 2 * blk];
                    let w2 = self.layers[2 + 2 * blk];
                    // Recompute the block's ReLU activations (the forward
                    // buffer was overwritten by later blocks).
                    relu_batch(&pre[blk], h);
                    let (gw2, gb2) = grad_slices(grads, w2);
                    dense_backward(self.w(w2), h, dz, gw2, gb2, Some(dh));
                    relu_backward_batch(&pre[blk], dh, dpre);
                    let (gw1, gb1) = grad_slices(grads, w1);
                    dense_backward(self.w(w1), &z[blk], dpre, gw1, gb1, Some(dbranch));
                    // Residual: dz flows straight through plus via the branch.
                    add_assign(dz, dbranch);
                }
                let stem = self.layers[0];
                let (gws, gbs) = grad_slices(grads, stem);
                dense_backward(self.w(stem), x, dz, gws, gbs, None);
            }
        }
    }
}

/// Split a gradient slab into one layer's (weights, biases) views.
fn grad_slices(grads: &mut [f64], s: LayerSpec) -> (&mut [f64], &mut [f64]) {
    let (w, rest) = grads[s.w_off..].split_at_mut(s.n_in * s.n_out);
    (w, &mut rest[..s.n_out])
}

/// Batched dense forward: `out[r] = W x[r] + b` for every row.
/// Per output: `b + dot(w[o], x)` where the dot product is the pinned
/// SIMD lane tree (DESIGN.md §13).
fn dense_forward(w: &[f64], b: &[f64], x: &Mat, out: &mut Mat) {
    let n_in = x.cols();
    debug_assert_eq!(w.len(), n_in * out.cols());
    debug_assert_eq!(b.len(), out.cols());
    for r in 0..x.rows() {
        let xr = x.row(r);
        for ((slot, wrow), bias) in out.row_mut(r).iter_mut().zip(w.chunks_exact(n_in)).zip(b) {
            *slot = bias + simd::dot(wrow, xr);
        }
    }
}

/// Batched dense backward. For each row in ascending order, and each
/// output `o` in ascending order: `gb[o] += g`, then the elementwise
/// [`simd::axpy`] updates `gw[o][k] += g·x[k]` and `dx[k] += g·w[o][k]`
/// (one multiply, one add per cell, no FMA). `dx` rows are zeroed here;
/// pass `None` for the first layer where the input gradient is unused.
fn dense_backward(
    w: &[f64],
    x: &Mat,
    dy: &Mat,
    gw: &mut [f64],
    gb: &mut [f64],
    mut dx: Option<&mut Mat>,
) {
    let n_in = x.cols();
    debug_assert_eq!(w.len(), n_in * dy.cols());
    debug_assert_eq!(gw.len(), w.len());
    debug_assert_eq!(gb.len(), dy.cols());
    for r in 0..x.rows() {
        let xr = x.row(r);
        let dyr = dy.row(r);
        match dx.as_deref_mut() {
            Some(dx) => {
                let dxr = dx.row_mut(r);
                dxr.fill(0.0);
                for (((&g, gbo), gwrow), wrow) in dyr
                    .iter()
                    .zip(gb.iter_mut())
                    .zip(gw.chunks_exact_mut(n_in))
                    .zip(w.chunks_exact(n_in))
                {
                    *gbo += g;
                    simd::axpy(gwrow, g, xr);
                    simd::axpy(dxr, g, wrow);
                }
            }
            None => {
                for ((&g, gbo), gwrow) in
                    dyr.iter().zip(gb.iter_mut()).zip(gw.chunks_exact_mut(n_in))
                {
                    *gbo += g;
                    simd::axpy(gwrow, g, xr);
                }
            }
        }
    }
}

/// Elementwise batched ReLU (`v.max(0.0)`).
fn relu_batch(src: &Mat, dst: &mut Mat) {
    debug_assert_eq!(src.data.len(), dst.data.len());
    for (d, s) in dst.data.iter_mut().zip(&src.data) {
        *d = s.max(0.0);
    }
}

/// Elementwise batched ReLU gradient gate.
fn relu_backward_batch(pre: &Mat, dy: &Mat, dst: &mut Mat) {
    debug_assert_eq!(pre.data.len(), dst.data.len());
    for ((d, &p), &g) in dst.data.iter_mut().zip(&pre.data).zip(&dy.data) {
        *d = if p > 0.0 { g } else { 0.0 };
    }
}

/// Elementwise `dst += src` in index order.
fn add_assign(dst: &mut Mat, src: &Mat) {
    debug_assert_eq!(dst.data.len(), src.data.len());
    for (d, s) in dst.data.iter_mut().zip(&src.data) {
        *d += s;
    }
}

/// Loss gradient closure: `(outputs, sample index, dout buffer)`.
/// Writes dL/d(out) for one sample into the buffer.
pub(crate) type LossGrad<'a> = &'a (dyn Fn(&[f64], usize, &mut [f64]) + Sync);

/// Hyper-parameters of the shared training driver.
pub(crate) struct TrainSpec {
    pub epochs: usize,
    pub lr: f64,
    pub batch_size: usize,
    pub seed: u64,
    /// XOR'd into the seed for the shuffle RNG stream (each learner keeps
    /// its historical stream constant).
    pub shuffle_xor: u64,
}

/// Shared minibatch Adam driver for both neural learners (the single
/// training-loop implementation; the heads differ only in their loss
/// closure).
pub(crate) fn train_flat(
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
    let mut net = FlatNet::init(topo, n_in, n_out, &mut init_rng);
    let n_params = net.n_params();
    let mut opt = Adam::new(n_params, spec.lr);
    let mut grads = vec![0.0; n_params];
    let mut partial = vec![0.0; n_params];
    let mut scratch = net.scratch(TRAIN_MICROBATCH.min(bs));
    let pool = WorkerPool::new();
    for _ in 0..spec.epochs {
        order.shuffle(&mut shuffle_rng);
        for chunk in order.chunks(bs) {
            grads.fill(0.0);
            let use_pool = runtime::global_threads() != 1
                && chunk.len() > TRAIN_MICROBATCH
                && chunk.len() * n_params >= PARALLEL_GRAIN;
            if use_pool {
                let microbatches: Vec<&[usize]> = chunk.chunks(TRAIN_MICROBATCH).collect();
                let net_ref = &net;
                let partials = pool.map(microbatches, |_ctx, mb| {
                    let mut scr = net_ref.scratch(mb.len());
                    let mut p = vec![0.0; n_params];
                    microbatch_grad(net_ref, rows, mb, loss, &mut scr, &mut p);
                    p
                });
                // Reduce serially in microbatch index order — the
                // fixed-partition contract (`map` returns results
                // in submission order).
                for p in &partials {
                    for (g, v) in grads.iter_mut().zip(p) {
                        *g += v;
                    }
                }
            } else {
                for mb in chunk.chunks(TRAIN_MICROBATCH) {
                    partial.fill(0.0);
                    microbatch_grad(&net, rows, mb, loss, &mut scratch, &mut partial);
                    for (g, v) in grads.iter_mut().zip(&partial) {
                        *g += v;
                    }
                }
            }
            let scale = 1.0 / chunk.len() as f64;
            grads.iter_mut().for_each(|g| *g *= scale);
            let t = telemetry::enabled().then(Instant::now);
            opt.step(net.params_mut(), &grads);
            if let Some(t) = t {
                telemetry::record("nn.step_us", t.elapsed().as_micros() as u64);
            }
        }
    }
    net
}

/// Compute one microbatch's gradient partial into the zeroed `grads`
/// slab: gather rows, batched forward, per-row loss gradients, batched
/// backward. Instruments `nn.fwd_us`/`nn.bwd_us` histograms and the
/// `nn.batch_rows` counter.
fn microbatch_grad(
    net: &FlatNet,
    rows: &Mat,
    mb: &[usize],
    loss: LossGrad,
    scr: &mut Scratch,
    grads: &mut [f64],
) {
    scr.set_rows(mb.len());
    for (r, &i) in mb.iter().enumerate() {
        scr.x.row_mut(r).copy_from_slice(rows.row(i));
    }
    telemetry::count("nn.batch_rows", mb.len() as u64);
    let t = telemetry::enabled().then(Instant::now);
    net.forward_batch(scr);
    if let Some(t) = t {
        telemetry::record("nn.fwd_us", t.elapsed().as_micros() as u64);
    }
    for (r, &i) in mb.iter().enumerate() {
        loss(scr.out.row(r), i, scr.dout.row_mut(r));
    }
    let t = telemetry::enabled().then(Instant::now);
    net.backward_batch(scr, grads);
    if let Some(t) = t {
        telemetry::record("nn.bwd_us", t.elapsed().as_micros() as u64);
    }
}

/// Batched inference: network outputs for every row (one output row per
/// input row). Microbatched, and parallelised over the worker pool when
/// the matrix carries enough work — outputs are row-independent, so the
/// result is identical either way.
pub(crate) fn forward_rows(net: &FlatNet, rows: &Mat) -> Mat {
    run_inference(net, rows, false)
}

/// Batched penultimate representations (the ResNet trunk state feeding
/// the head — what `RTDL_N` re-heads with a Random Forest).
pub(crate) fn embed_rows(net: &FlatNet, rows: &Mat) -> Mat {
    run_inference(net, rows, true)
}

fn run_inference(net: &FlatNet, rows: &Mat, embed: bool) -> Mat {
    let out_cols = if embed {
        net.hidden_width()
    } else {
        net.n_out()
    };
    let n = rows.rows();
    let mut out = Mat::zeros(n, out_cols);
    if n == 0 {
        return out;
    }
    let spans: Vec<(usize, usize)> = (0..n)
        .step_by(INFER_MICROBATCH)
        .map(|s| (s, (s + INFER_MICROBATCH).min(n)))
        .collect();
    let run_span = |scr: &mut Scratch, span: (usize, usize), dst: &mut [f64]| {
        let (start, end) = span;
        scr.set_rows(end - start);
        for r in start..end {
            scr.x.row_mut(r - start).copy_from_slice(rows.row(r));
        }
        telemetry::count("nn.batch_rows", (end - start) as u64);
        let t = telemetry::enabled().then(Instant::now);
        net.forward_batch(scr);
        if let Some(t) = t {
            telemetry::record("nn.fwd_us", t.elapsed().as_micros() as u64);
        }
        let src = if embed { scr.embedding() } else { &scr.out };
        dst.copy_from_slice(&src.data);
    };
    if runtime::global_threads() != 1 && spans.len() >= 2 && n * net.n_params() >= PARALLEL_GRAIN {
        let pool = WorkerPool::new();
        let results = pool.map(spans.clone(), |_ctx, span| {
            let mut scr = net.scratch(span.1 - span.0);
            let mut buf = vec![0.0; (span.1 - span.0) * out_cols];
            run_span(&mut scr, span, &mut buf);
            buf
        });
        for (&(s, e), buf) in spans.iter().zip(&results) {
            out.data[s * out_cols..e * out_cols].copy_from_slice(buf);
        }
    } else {
        let mut scr = net.scratch(INFER_MICROBATCH.min(n));
        for &(s, e) in &spans {
            let (a, b) = (s * out_cols, e * out_cols);
            run_span(&mut scr, (s, e), &mut out.data[a..b]);
        }
    }
    out
}

/// Shared input validation for the neural learners (column-major
/// features vs. label count).
pub(crate) fn validate_columns(x: &[Vec<f64>], n_labels: usize, what: &str) -> Result<()> {
    if x.is_empty() || n_labels == 0 {
        return Err(LearnError::EmptyTrainingSet(what.into()));
    }
    for col in x {
        if col.len() != n_labels {
            return Err(LearnError::InvalidParam(
                "feature/label length mismatch".into(),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
impl Scratch {
    /// Input rows buffer (fill before [`FlatNet::forward_batch`]).
    pub(crate) fn x_mut(&mut self) -> &mut Mat {
        &mut self.x
    }

    /// Network outputs of the last [`FlatNet::forward_batch`] call.
    pub(crate) fn out(&self) -> &Mat {
        &self.out
    }

    /// Output-gradient buffer (fill before [`FlatNet::backward_batch`]).
    pub(crate) fn dout_mut(&mut self) -> &mut Mat {
        &mut self.dout
    }
}

#[cfg(test)]
pub(crate) mod scalar_ref;

#[cfg(test)]
mod tests {
    use super::scalar_ref::{
        collect_grads, collect_params, softmax_cross_entropy, train_scalar, ScalarNet,
    };
    use super::*;

    fn sample_rows(n: usize, d: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        Mat::from_rows(&rows)
    }

    #[test]
    fn mat_round_trips_columns() {
        let cols = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let m = Mat::from_columns(&cols);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[2.0, 5.0]);
    }

    #[test]
    fn mat_set_rows_reuses_allocation() {
        let mut m = Mat::zeros(8, 4);
        let cap = m.data.capacity();
        m.set_rows(3);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.data.len(), 12);
        m.set_rows(8);
        assert_eq!(m.data.capacity(), cap, "regrow within capacity");
    }

    #[test]
    fn init_matches_scalar_reference_bitwise() {
        for topo in [
            Topology::Mlp { hidden: 5 },
            Topology::ResNet {
                width: 4,
                n_blocks: 2,
            },
        ] {
            let flat = FlatNet::init(topo, 3, 2, &mut StdRng::seed_from_u64(11));
            let scalar = ScalarNet::init(topo, 3, 2, &mut StdRng::seed_from_u64(11));
            let reference = collect_params(&scalar.layer_refs());
            assert_eq!(flat.params().len(), reference.len());
            for (a, b) in flat.params().iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn batched_forward_matches_scalar_bitwise() {
        for topo in [
            Topology::Mlp { hidden: 6 },
            Topology::ResNet {
                width: 5,
                n_blocks: 2,
            },
        ] {
            let net = FlatNet::init(topo, 4, 3, &mut StdRng::seed_from_u64(5));
            let scalar = ScalarNet::init(topo, 4, 3, &mut StdRng::seed_from_u64(5));
            let rows = sample_rows(7, 4, 99);
            let mut scr = net.scratch(7);
            scr.set_rows(7);
            for r in 0..7 {
                scr.x_mut().row_mut(r).copy_from_slice(rows.row(r));
            }
            net.forward_batch(&mut scr);
            for r in 0..7 {
                let (_, out) = scalar.forward(rows.row(r));
                for (a, b) in scr.out().row(r).iter().zip(&out) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{topo:?} row {r}");
                }
            }
        }
    }

    #[test]
    fn batched_backward_matches_scalar_bitwise() {
        for topo in [
            Topology::Mlp { hidden: 6 },
            Topology::ResNet {
                width: 5,
                n_blocks: 2,
            },
        ] {
            let net = FlatNet::init(topo, 4, 3, &mut StdRng::seed_from_u64(8));
            let mut scalar = ScalarNet::init(topo, 4, 3, &mut StdRng::seed_from_u64(8));
            let rows = sample_rows(6, 4, 123);
            let targets = [0usize, 2, 1, 1, 0, 2];

            let mut scr = net.scratch(6);
            scr.set_rows(6);
            for r in 0..6 {
                scr.x_mut().row_mut(r).copy_from_slice(rows.row(r));
            }
            net.forward_batch(&mut scr);
            for (r, &t) in targets.iter().enumerate() {
                let logits: Vec<f64> = scr.out().row(r).to_vec();
                crate::nn::softmax_cross_entropy_into(&logits, t, scr.dout_mut().row_mut(r));
            }
            let mut grads = vec![0.0; net.n_params()];
            net.backward_batch(&mut scr, &mut grads);

            scalar.zero_grad();
            for (r, &t) in targets.iter().enumerate() {
                let (cache, out) = scalar.forward(rows.row(r));
                let (_, dout) = softmax_cross_entropy(&out, t);
                scalar.backward(rows.row(r), &cache, &dout);
            }
            let reference = collect_grads(&scalar.layer_refs());
            for (i, (a, b)) in grads.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{topo:?} grad {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn backward_batch_gradient_check() {
        // Finite-difference check of the batched kernels through the
        // residual topology (replaces the per-sample gradient check that
        // lived in resnet.rs).
        let topo = Topology::ResNet {
            width: 4,
            n_blocks: 1,
        };
        let mut net = FlatNet::init(topo, 3, 2, &mut StdRng::seed_from_u64(3));
        let x = [0.5, -1.0, 0.25];
        let target = 1usize;
        let loss_of = |net: &FlatNet| {
            let mut scr = net.scratch(1);
            scr.set_rows(1);
            scr.x_mut().row_mut(0).copy_from_slice(&x);
            net.forward_batch(&mut scr);
            softmax_cross_entropy(scr.out().row(0), target).0
        };
        let mut scr = net.scratch(1);
        scr.set_rows(1);
        scr.x_mut().row_mut(0).copy_from_slice(&x);
        net.forward_batch(&mut scr);
        let logits: Vec<f64> = scr.out().row(0).to_vec();
        crate::nn::softmax_cross_entropy_into(&logits, target, scr.dout_mut().row_mut(0));
        let mut analytic = vec![0.0; net.n_params()];
        net.backward_batch(&mut scr, &mut analytic);

        let eps = 1e-6;
        let n = net.n_params();
        for &idx in &[0usize, 5, n / 2, n - 1] {
            let orig = net.params[idx];
            net.params[idx] = orig + eps;
            let lp = loss_of(&net);
            net.params[idx] = orig - eps;
            let lm = loss_of(&net);
            net.params[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic[idx]).abs() < 1e-4,
                "param {idx}: numeric {numeric} vs analytic {}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn inference_matches_training_forward() {
        let topo = Topology::ResNet {
            width: 5,
            n_blocks: 2,
        };
        let net = FlatNet::init(topo, 4, 2, &mut StdRng::seed_from_u64(21));
        let rows = sample_rows(300, 4, 7); // > one inference microbatch
        let outs = forward_rows(&net, &rows);
        let embeds = embed_rows(&net, &rows);
        assert_eq!(outs.rows(), 300);
        assert_eq!(embeds.cols(), 5);
        let mut scr = net.scratch(1);
        for r in [0usize, 255, 299] {
            scr.set_rows(1);
            scr.x_mut().row_mut(0).copy_from_slice(rows.row(r));
            net.forward_batch(&mut scr);
            for (a, b) in outs.row(r).iter().zip(scr.out().row(0)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in embeds.row(r).iter().zip(scr.embedding().row(0)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn train_backends_bit_identical_on_small_problem() {
        let rows = sample_rows(37, 3, 55); // not a multiple of the microbatch
        let targets: Vec<usize> = (0..37).map(|i| i % 2).collect();
        let spec = TrainSpec {
            epochs: 3,
            lr: 0.01,
            batch_size: 10, // does not divide 37
            seed: 9,
            shuffle_xor: 0x9e3779b97f4a7c15,
        };
        let loss = |out: &[f64], i: usize, d: &mut [f64]| {
            crate::nn::softmax_cross_entropy_into(out, targets[i], d);
        };
        let topo = Topology::ResNet {
            width: 4,
            n_blocks: 2,
        };
        let batched = train_flat(topo, 3, 2, &rows, &spec, &loss);
        let scalar = train_scalar(topo, 3, 2, &rows, &spec, &loss);
        assert_eq!(batched.n_params(), scalar.n_params());
        for (i, (a, b)) in batched.params().iter().zip(scalar.params()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "param {i}: {a} vs {b}");
        }
    }

    #[test]
    fn validate_columns_rejects_bad_input() {
        assert!(validate_columns(&[], 0, "nn").is_err());
        assert!(validate_columns(&[vec![1.0, 2.0]], 1, "nn").is_err());
        assert!(validate_columns(&[vec![1.0, 2.0]], 2, "nn").is_ok());
    }
}
