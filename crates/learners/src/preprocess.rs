//! Feature preprocessing shared by the gradient-based learners
//! (linear models, MLP, ResNet, GP): per-column standardisation.

use serde::{Deserialize, Serialize};

/// Per-feature z-score standardiser fitted on training data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fit on column-major features; constant columns get std 1 so they map
    /// to all-zeros rather than dividing by zero.
    pub(crate) fn fit(x: &[Vec<f64>]) -> Self {
        let means: Vec<f64> = x
            .iter()
            .map(|col| {
                if col.is_empty() {
                    0.0
                } else {
                    col.iter().sum::<f64>() / col.len() as f64
                }
            })
            .collect();
        let stds: Vec<f64> = x
            .iter()
            .zip(&means)
            .map(|(col, &m)| {
                if col.len() < 2 {
                    return 1.0;
                }
                let var = col.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / col.len() as f64;
                let s = var.sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Self { means, stds }
    }

    /// Number of features the standardiser was fitted on.
    pub(crate) fn n_features(&self) -> usize {
        self.means.len()
    }

    /// Transform column-major features into standardised column-major copies.
    pub(crate) fn transform(&self, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        x.iter()
            .enumerate()
            .map(|(j, col)| {
                let (m, s) = (self.means[j], self.stds[j]);
                col.iter().map(|v| (v - m) / s).collect()
            })
            .collect()
    }

    /// Transform a single row-major sample in place.
    pub(crate) fn transform_row(&self, row: &mut [f64]) {
        for (j, v) in row.iter_mut().enumerate() {
            *v = (*v - self.means[j]) / self.stds[j];
        }
    }
}

/// Convert column-major features to row-major samples.
pub(crate) fn to_row_major(x: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n_rows = x.first().map_or(0, |c| c.len());
    (0..n_rows)
        .map(|i| x.iter().map(|col| col[i]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizer_zero_mean_unit_std() {
        let x = vec![vec![1.0, 2.0, 3.0, 4.0], vec![10.0, 10.0, 10.0, 10.0]];
        let s = Standardizer::fit(&x);
        let t = s.transform(&x);
        let m0: f64 = t[0].iter().sum::<f64>() / 4.0;
        assert!(m0.abs() < 1e-12);
        let v0: f64 = t[0].iter().map(|v| v * v).sum::<f64>() / 4.0;
        assert!((v0 - 1.0).abs() < 1e-9);
        // Constant column maps to zeros, not NaN.
        assert!(t[1].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transform_row_matches_transform() {
        let x = vec![vec![1.0, 3.0], vec![2.0, 6.0]];
        let s = Standardizer::fit(&x);
        let t = s.transform(&x);
        let mut row = vec![1.0, 2.0];
        s.transform_row(&mut row);
        assert!((row[0] - t[0][0]).abs() < 1e-12);
        assert!((row[1] - t[1][0]).abs() < 1e-12);
    }

    #[test]
    fn row_major_conversion() {
        let x = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let rows = to_row_major(&x);
        assert_eq!(rows, vec![vec![1.0, 3.0], vec![2.0, 4.0]]);
    }

    #[test]
    fn empty_input_is_safe() {
        let x: Vec<Vec<f64>> = vec![];
        let s = Standardizer::fit(&x);
        assert_eq!(s.n_features(), 0);
        assert!(to_row_major(&x).is_empty());
    }
}
