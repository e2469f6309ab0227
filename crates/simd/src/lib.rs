//! Fixed-lane `f64` kernels with a **pinned reduction tree**.
//!
//! Every summation kernel in this crate — and therefore every consumer
//! in the workspace (`learners::dense`, `learners::linalg`) — reduces in
//! one canonical order:
//!
//! ```text
//! LANES = 4 independent accumulators over chunks of 4:
//!     acc[j] += a[4i + j] * b[4i + j]        (i ascending, j = 0..4)
//! final reduction, fixed associativity:
//!     total = (acc[0] + acc[1]) + (acc[2] + acc[3])
//! tail (len % 4 trailing elements), ascending, sequential:
//!     total += a[k] * b[k]
//! ```
//!
//! This tree is the *contract*, not an implementation detail (DESIGN.md
//! §13): the kernels below are plain Rust loops written exactly in that
//! shape, which the compiler vectorises without changing a rounding —
//! multiply and add stay separate operations (fused multiply-add rounds
//! once where the contract rounds twice). The four-way accumulator split
//! is the one deliberate reassociation, chosen once, documented here,
//! and shared by both sides of every "fast path ≡ reference path" parity
//! test downstream.
//!
//! The elementwise kernel ([`axpy`]) has no reduction at all — each output
//! element is one pinned scalar expression.
//!
//! There is one build of these kernels: no cargo feature, no runtime
//! dispatch, no intrinsics.

#![warn(missing_docs)]

/// Fixed lane width of the reduction tree. Changing this changes every
/// downstream float result; it is part of the pinned contract.
pub const LANES: usize = 4;

/// How the kernels are compiled. There is exactly one way; the type,
/// [`active_isa`] and [`detected_cpu_features`] remain only because
/// `benchmark/src/report.rs` writes them into its result header and
/// `benchmark/` is frozen against the crates' public API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Plain Rust loops in the canonical tree shape.
    Portable,
}

impl Isa {
    /// Stable lower-case name (`"portable"`), kept for `benchmark/`'s
    /// result header like the type itself.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
        }
    }
}

/// Always [`Isa::Portable`]; kept for `benchmark/`'s result header (see
/// [`Isa`]).
pub fn active_isa() -> Isa {
    Isa::Portable
}

/// SIMD-relevant CPU features present on this machine. No kernel
/// consults them; kept for `benchmark/`'s result header (see [`Isa`]),
/// where they say what the compiler's auto-vectorised loops ran on.
pub fn detected_cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut out = Vec::new();
        macro_rules! probe {
            ($($f:tt),*) => {
                $(if is_x86_feature_detected!($f) { out.push($f); })*
            };
        }
        probe!("sse2", "sse4.1", "sse4.2", "avx", "avx2", "fma", "avx512f");
        out
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Reduction kernels (the pinned tree)
// ---------------------------------------------------------------------

/// Dot product `Σ a[i]·b[i]` in the canonical reduction tree.
///
/// Slices must be the same length (debug-asserted; the shorter length
/// is used in release builds, matching `zip` semantics).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let mut ca = a[..n].chunks_exact(LANES);
    let mut cb = b[..n].chunks_exact(LANES);
    let mut acc = [0.0f64; LANES];
    for (ka, kb) in ca.by_ref().zip(cb.by_ref()) {
        acc[0] += ka[0] * kb[0];
        acc[1] += ka[1] * kb[1];
        acc[2] += ka[2] * kb[2];
        acc[3] += ka[3] * kb[3];
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        total += x * y;
    }
    total
}

/// Squared Euclidean distance `Σ (a[i]−b[i])²` in the canonical tree.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let mut ca = a[..n].chunks_exact(LANES);
    let mut cb = b[..n].chunks_exact(LANES);
    let mut acc = [0.0f64; LANES];
    for (ka, kb) in ca.by_ref().zip(cb.by_ref()) {
        let d0 = ka[0] - kb[0];
        let d1 = ka[1] - kb[1];
        let d2 = ka[2] - kb[2];
        let d3 = ka[3] - kb[3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        total += d * d;
    }
    total
}

// ---------------------------------------------------------------------
// Elementwise kernel (no reduction; per-element expression pinned)
// ---------------------------------------------------------------------

/// `out[i] += a · x[i]`. Elementwise: each element is one multiply then
/// one add (no FMA).
pub fn axpy(out: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(out.len(), x.len());
    for (o, xi) in out.iter_mut().zip(x) {
        *o += a * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_small_exact() {
        // Tail-only (n < LANES) and chunk+tail shapes, exact values.
        assert_eq!(dot(&[2.0, 3.0], &[4.0, 5.0]), 23.0);
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [1.0; 6];
        assert_eq!(dot(&a, &b), 21.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn sq_dist_small_exact() {
        assert_eq!(sq_dist(&[1.0, 2.0], &[4.0, 6.0]), 25.0);
        let a = [0.0, 0.0, 0.0, 0.0, 3.0];
        let b = [1.0, 1.0, 1.0, 1.0, 0.0];
        assert_eq!(sq_dist(&a, &b), 13.0);
    }

    #[test]
    fn axpy_matches_scalar_expression() {
        let x: Vec<f64> = (0..13).map(|i| 0.3 * i as f64 - 1.7).collect();
        let mut out: Vec<f64> = (0..13).map(|i| (i as f64).sin()).collect();
        let mut want = out.clone();
        for (o, xi) in want.iter_mut().zip(&x) {
            *o += 0.7193 * xi;
        }
        axpy(&mut out, 0.7193, &x);
        for (a, b) in out.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dot_reduction_tree_is_the_documented_one() {
        // A sum whose value depends on associativity: the kernel must
        // match the documented tree, not plain sequential order.
        let a: Vec<f64> = (0..11).map(|i| (1.0 + i as f64).exp()).collect();
        let b: Vec<f64> = (0..11).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut acc = [0.0f64; LANES];
        for i in 0..(a.len() / LANES) * LANES {
            acc[i % LANES] += a[i] * b[i];
        }
        let mut want = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for i in (a.len() / LANES) * LANES..a.len() {
            want += a[i] * b[i];
        }
        assert_eq!(dot(&a, &b).to_bits(), want.to_bits());
    }
}
