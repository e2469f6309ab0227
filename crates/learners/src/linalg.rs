//! Small dense linear-algebra helpers (row-major square matrices) backing
//! the Gaussian-process regressor. Only what the GP needs: Cholesky
//! factorisation and triangular solves.
//!
//! The factorisation and solves index the flat row-major storage through
//! row slices (one bounds check per row, contiguous inner loops) instead
//! of per-element `get`/[`SquareMatrix::set`] calls; a per-element
//! Cholesky in this file's tests is the oracle they are held to bit for
//! bit.
//!
//! Every inner-product accumulation here — the Cholesky row updates, the
//! forward substitution, and the free [`sq_dist`] helper — runs
//! through the `simd` crate's pinned reduction tree (DESIGN.md §13), the
//! one documented summation order.
//! The backward substitution walks a strided column, so it keeps its
//! sequential scalar loop (`O(n²)`, not worth a gather).

use crate::error::{LearnError, Result};

/// A dense row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SquareMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SquareMatrix {
    /// Zero matrix of side `n`.
    pub(crate) fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Element mutator.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// In-place add `v` to the diagonal (jitter / noise term).
    pub(crate) fn add_diagonal(&mut self, v: f64) {
        for i in 0..self.n {
            self.data[i * self.n + i] += v;
        }
    }

    /// Lower-triangular Cholesky factor `L` with `L Lᵀ = A`.
    /// Fails when the matrix is not (numerically) positive definite.
    ///
    /// Row-slice implementation: row `i` of `L` is built left to right
    /// while the finished rows `j < i` are read as contiguous slices, so
    /// the `O(n³)` inner loop runs on slices instead of `get`/`set`
    /// index arithmetic.
    pub(crate) fn cholesky(&self) -> Result<SquareMatrix> {
        let n = self.n;
        let mut l = SquareMatrix::zeros(n);
        for i in 0..n {
            let (above, current) = l.data.split_at_mut(i * n);
            let row_i = &mut current[..n];
            let src_i = &self.data[i * n..(i + 1) * n];
            for j in 0..i {
                let row_j = &above[j * n..(j + 1) * n];
                let sum = src_i[j] - simd::dot(&row_i[..j], &row_j[..j]);
                row_i[j] = sum / row_j[j];
            }
            let sum = src_i[i] - simd::dot(&row_i[..i], &row_i[..i]);
            if sum <= 0.0 {
                return Err(LearnError::Numerical(format!(
                    "cholesky failed: non-positive pivot {sum:.3e} at {i}"
                )));
            }
            row_i[i] = sum.sqrt();
        }
        Ok(l)
    }

    /// Cholesky with escalating diagonal jitter for numerically non-PD
    /// matrices (e.g. RBF kernel matrices with duplicated rows where the
    /// noise term alone is too small).
    ///
    /// Attempt 0 factors `self` as-is; each retry clones `self`, adds
    /// `initial_jitter × 10^attempt` to the diagonal, and tries again, up
    /// to `max_attempts` retries (so the largest jitter ever added is
    /// `initial_jitter × 10^(max_attempts-1)`). Returns the factor and
    /// the jitter that was actually added (`0.0` when none was needed);
    /// the error of the last attempt is propagated when every retry
    /// fails.
    pub(crate) fn cholesky_jittered(
        &self,
        initial_jitter: f64,
        max_attempts: usize,
    ) -> Result<(SquareMatrix, f64)> {
        let mut last_err = match self.cholesky() {
            Ok(l) => return Ok((l, 0.0)),
            Err(e) => e,
        };
        if initial_jitter <= 0.0 {
            return Err(last_err);
        }
        let mut jitter = initial_jitter;
        for _ in 0..max_attempts {
            let mut k = self.clone();
            k.add_diagonal(jitter);
            match k.cholesky() {
                Ok(l) => return Ok((l, jitter)),
                Err(e) => last_err = e,
            }
            jitter *= 10.0;
        }
        Err(last_err)
    }

    /// Solve `L x = b` for lower-triangular `L` (forward substitution).
    pub(crate) fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.check_rhs(b)?;
        let n = self.n;
        let mut x = vec![0.0; n];
        for i in 0..n {
            let row_i = &self.data[i * n..(i + 1) * n];
            let sum = b[i] - simd::dot(&row_i[..i], &x[..i]);
            let d = row_i[i];
            if d.abs() < 1e-300 {
                return Err(LearnError::Numerical("singular triangular solve".into()));
            }
            x[i] = sum / d;
        }
        Ok(x)
    }

    /// Solve `Lᵀ x = b` for lower-triangular `L` (backward substitution).
    /// `Lᵀ`'s row `i` is `L`'s column `i`, so the inner loop walks the
    /// rows below `i` as slices and reads their `i`-th element.
    pub(crate) fn solve_lower_transpose(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.check_rhs(b)?;
        let n = self.n;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for (row_k, xk) in self.data.chunks_exact(n).zip(&x).skip(i + 1) {
                sum -= row_k[i] * xk;
            }
            let d = self.data[i * n + i];
            if d.abs() < 1e-300 {
                return Err(LearnError::Numerical("singular triangular solve".into()));
            }
            x[i] = sum / d;
        }
        Ok(x)
    }

    /// Solve `A x = b` given that `self` is the Cholesky factor `L` of `A`.
    pub(crate) fn cholesky_solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.solve_lower(b)?;
        self.solve_lower_transpose(&y)
    }

    fn check_rhs(&self, b: &[f64]) -> Result<()> {
        if b.len() != self.n {
            return Err(LearnError::InvalidParam(format!(
                "rhs length {} != matrix side {}",
                b.len(),
                self.n
            )));
        }
        Ok(())
    }
}

/// Squared Euclidean distance between two equal-length slices, reduced
/// through the pinned lane tree.
#[inline]
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    simd::sq_dist(a, b)
}

#[cfg(test)]
impl SquareMatrix {
    /// Build from a row-major data vector (must have length n²).
    pub(crate) fn from_vec(n: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != n * n {
            return Err(LearnError::InvalidParam(format!(
                "matrix data length {} != {n}²",
                data.len()
            )));
        }
        Ok(Self { n, data })
    }

    /// Element accessor.
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Row `i` as a contiguous slice.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Per-element `get`/`set` Cholesky — the oracle for
    /// [`SquareMatrix::cholesky`] (no row slicing). Operands are gathered
    /// element by element, then reduced through the pinned tree
    /// ([`simd::dot`]), the one thing it shares with the row-slice path.
    pub(crate) fn cholesky_ref(&self) -> Result<SquareMatrix> {
        let n = self.n;
        let mut l = SquareMatrix::zeros(n);
        let mut li = Vec::with_capacity(n);
        let mut lj = Vec::with_capacity(n);
        for i in 0..n {
            for j in 0..=i {
                li.clear();
                lj.clear();
                for k in 0..j {
                    li.push(l.get(i, k));
                    lj.push(l.get(j, k));
                }
                let sum = self.get(i, j) - simd::dot(&li, &lj);
                if i == j {
                    if sum <= 0.0 {
                        return Err(LearnError::Numerical(format!(
                            "cholesky failed: non-positive pivot {sum:.3e} at {i}"
                        )));
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_of_known_matrix() {
        // A = [[4, 2], [2, 3]] → L = [[2, 0], [1, sqrt(2)]]
        let a = SquareMatrix::from_vec(2, vec![4.0, 2.0, 2.0, 3.0]).unwrap();
        let l = a.cholesky().unwrap();
        assert!((l.get(0, 0) - 2.0).abs() < 1e-12);
        assert!((l.get(1, 0) - 1.0).abs() < 1e-12);
        assert!((l.get(1, 1) - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(l.get(0, 1), 0.0);
    }

    #[test]
    fn cholesky_solve_recovers_solution() {
        let a =
            SquareMatrix::from_vec(3, vec![6.0, 2.0, 1.0, 2.0, 5.0, 2.0, 1.0, 2.0, 4.0]).unwrap();
        let l = a.cholesky().unwrap();
        let x_true = [1.0, -2.0, 3.0];
        // b = A x
        let b: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| a.get(i, j) * x_true[j]).sum())
            .collect();
        let x = l.cholesky_solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = SquareMatrix::from_vec(2, vec![1.0, 2.0, 2.0, 1.0]).unwrap(); // eigenvalues 3, -1
        assert!(a.cholesky().is_err());
        assert!(a.cholesky_ref().is_err());
    }

    #[test]
    fn cholesky_matches_reference_bitwise() {
        // Random-ish SPD matrix: A = B Bᵀ + n·I built from a fixed pattern.
        let n = 9;
        let mut b = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                b.set(i, j, ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.4);
            }
        }
        let mut a = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, simd::dot(b.row(i), b.row(j)));
            }
        }
        a.add_diagonal(n as f64);
        let fast = a.cholesky().unwrap();
        let reference = a.cholesky_ref().unwrap();
        for (x, y) in fast.data.iter().zip(&reference.data) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn jitter_fixes_semidefinite() {
        let mut a = SquareMatrix::from_vec(2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(a.cholesky().is_err());
        a.add_diagonal(1e-6);
        assert!(a.cholesky().is_ok());
    }

    #[test]
    fn jitter_escalation_recovers_near_singular_matrix() {
        // Rank-1 Gram matrix of a duplicated row: exactly singular, so the
        // plain factorisation fails and small jitters may round away; the
        // escalating retry must land on a jitter that factors.
        let v = [1.0, 2.0, 3.0, 4.0];
        let n = v.len();
        let mut a = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, v[i] * v[j] * 1e8);
            }
        }
        assert!(a.cholesky().is_err());
        let (l, jitter) = a.cholesky_jittered(1e-10, 12).unwrap();
        assert!(jitter > 0.0, "singular matrix needs some jitter");
        // L Lᵀ ≈ A + jitter·I on the diagonal scale.
        let recon = simd::dot(l.row(n - 1), l.row(n - 1));
        let expect = a.get(n - 1, n - 1) + jitter;
        assert!(
            (recon - expect).abs() <= 1e-6 * expect.abs(),
            "{recon} vs {expect}"
        );
        // Already-PD matrices report zero jitter.
        let pd = SquareMatrix::from_vec(2, vec![4.0, 2.0, 2.0, 3.0]).unwrap();
        let (_, j0) = pd.cholesky_jittered(1e-10, 4).unwrap();
        assert_eq!(j0, 0.0);
        // A bounded number of attempts must eventually give up.
        let indef = SquareMatrix::from_vec(2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(indef.cholesky_jittered(1e-300, 2).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(SquareMatrix::from_vec(2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn solve_checks_rhs_length() {
        let l = SquareMatrix::from_vec(2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert!(l.solve_lower(&[1.0]).is_err());
    }

    #[test]
    fn triangular_solves_match_reference_loops() {
        let n = 7;
        let mut l = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                l.set(i, j, ((i * 7 + j * 3) % 11) as f64 / 11.0 + 0.1);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 - 2.5) / 3.0).collect();
        // Reference forward substitution: per-element gather, then the
        // pinned reduction tree.
        let mut xf = vec![0.0; n];
        for i in 0..n {
            let li: Vec<f64> = (0..i).map(|k| l.get(i, k)).collect();
            let sum = b[i] - simd::dot(&li, &xf[..i]);
            xf[i] = sum / l.get(i, i);
        }
        let got = l.solve_lower(&b).unwrap();
        for (x, y) in got.iter().zip(&xf) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Reference backward substitution on the transpose.
        let mut xb = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for (k, &xk) in xb.iter().enumerate().skip(i + 1) {
                sum -= l.get(k, i) * xk;
            }
            xb[i] = sum / l.get(i, i);
        }
        let got = l.solve_lower_transpose(&b).unwrap();
        for (x, y) in got.iter().zip(&xb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn dot_and_sq_dist() {
        assert_eq!(simd::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
