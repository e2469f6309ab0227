//! Gaussian Naive Bayes — the "NB" downstream task of the paper's Table V.

use crate::error::{LearnError, Result};
use crate::tree::argmax;
use serde::{Deserialize, Serialize};

/// Gaussian Naive Bayes classifier with per-class feature means/variances
/// and Laplace-style variance smoothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct GaussianNb {
    /// Added to every variance for numerical stability (sklearn's
    /// `var_smoothing` applied as an absolute floor).
    pub var_smoothing: f64,
    class_log_prior: Vec<f64>,
    /// `means[c][feature]`.
    means: Vec<Vec<f64>>,
    /// `vars[c][feature]`.
    vars: Vec<Vec<f64>>,
}

impl Default for GaussianNb {
    fn default() -> Self {
        Self::new(1e-9)
    }
}

impl GaussianNb {
    /// New unfitted model with the given variance smoothing.
    pub(crate) fn new(var_smoothing: f64) -> Self {
        Self {
            var_smoothing,
            class_log_prior: Vec::new(),
            means: Vec::new(),
            vars: Vec::new(),
        }
    }

    /// Fit on column-major features and class labels.
    pub(crate) fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Result<()> {
        if x.is_empty() || y.is_empty() {
            return Err(LearnError::EmptyTrainingSet("gaussian naive bayes".into()));
        }
        if n_classes < 2 {
            return Err(LearnError::InvalidParam("need at least 2 classes".into()));
        }
        let n_rows = y.len();
        for col in x {
            if col.len() != n_rows {
                return Err(LearnError::InvalidParam(
                    "feature/label length mismatch".into(),
                ));
            }
        }
        let n_features = x.len();
        let mut counts = vec![0usize; n_classes];
        let mut sums = vec![vec![0.0; n_features]; n_classes];
        let mut sumsqs = vec![vec![0.0; n_features]; n_classes];
        for (i, &c) in y.iter().enumerate() {
            if c >= n_classes {
                return Err(LearnError::InvalidParam(format!("class {c} out of range")));
            }
            counts[c] += 1;
            for (j, col) in x.iter().enumerate() {
                sums[c][j] += col[i];
                sumsqs[c][j] += col[i] * col[i];
            }
        }
        // Global max variance scales the smoothing floor, as in sklearn.
        let mut max_var: f64 = 0.0;
        for col in x {
            let m = col.iter().sum::<f64>() / n_rows as f64;
            let v = col.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n_rows as f64;
            max_var = max_var.max(v);
        }
        let floor = self.var_smoothing * max_var.max(1.0);

        self.class_log_prior = counts
            .iter()
            .map(|&c| ((c.max(1)) as f64 / n_rows as f64).ln())
            .collect();
        self.means = Vec::with_capacity(n_classes);
        self.vars = Vec::with_capacity(n_classes);
        for c in 0..n_classes {
            let n = counts[c].max(1) as f64;
            let mean: Vec<f64> = sums[c].iter().map(|s| s / n).collect();
            let var: Vec<f64> = sumsqs[c]
                .iter()
                .zip(&mean)
                .map(|(sq, m)| (sq / n - m * m).max(0.0) + floor)
                .collect();
            self.means.push(mean);
            self.vars.push(var);
        }
        Ok(())
    }

    /// Per-row log joint likelihood for each class.
    fn joint_log_likelihood(&self, x: &[Vec<f64>], row: usize) -> Vec<f64> {
        let k = self.class_log_prior.len();
        (0..k)
            .map(|c| {
                let mut ll = self.class_log_prior[c];
                for (j, col) in x.iter().enumerate() {
                    let v = col[row];
                    let mean = self.means[c][j];
                    let var = self.vars[c][j];
                    ll += -0.5
                        * ((2.0 * std::f64::consts::PI * var).ln() + (v - mean) * (v - mean) / var);
                }
                ll
            })
            .collect()
    }

    /// Class predictions.
    pub(crate) fn predict(&self, x: &[Vec<f64>]) -> Result<Vec<usize>> {
        if self.means.is_empty() {
            return Err(LearnError::NotFitted("GaussianNb"));
        }
        if x.len() != self.means[0].len() {
            return Err(LearnError::DimensionMismatch {
                fitted: self.means[0].len(),
                got: x.len(),
            });
        }
        let n_rows = x.first().map_or(0, |c| c.len());
        Ok((0..n_rows)
            .map(|row| argmax(&self.joint_log_likelihood(x, row)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let center = if c == 0 { -2.0 } else { 2.0 };
            a.push(center + rng.gen_range(-1.0..1.0));
            b.push(-center + rng.gen_range(-1.0..1.0));
            y.push(c);
        }
        (vec![a, b], y)
    }

    #[test]
    fn separates_gaussian_blobs() {
        let (x, y) = gaussian_blobs(200, 1);
        let mut m = GaussianNb::default();
        m.fit(&x, &y, 2).unwrap();
        let acc = accuracy(&y, &m.predict(&x).unwrap()).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn respects_class_priors_on_ambiguous_points() {
        // 90% of points are class 0; an ambiguous mid-point should lean 0.
        let mut a = vec![0.0; 90];
        a.extend(vec![0.2; 10]);
        let y: Vec<usize> = (0..100).map(|i| usize::from(i >= 90)).collect();
        let mut m = GaussianNb::new(1e-2);
        m.fit(&[a], &y, 2).unwrap();
        let pred = m.predict(&[vec![0.1]]).unwrap();
        assert_eq!(pred[0], 0);
    }

    #[test]
    fn constant_feature_does_not_crash() {
        let x = vec![vec![1.0; 10], vec![5.0; 10]];
        let y: Vec<usize> = (0..10).map(|i| i % 2).collect();
        let mut m = GaussianNb::default();
        m.fit(&x, &y, 2).unwrap();
        let preds = m.predict(&x).unwrap();
        assert_eq!(preds.len(), 10);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn errors_on_bad_input() {
        let mut m = GaussianNb::default();
        assert!(m.fit(&[], &[], 2).is_err());
        assert!(m.fit(&[vec![1.0]], &[0], 1).is_err());
        assert!(m.fit(&[vec![1.0]], &[5], 2).is_err());
        assert!(m.predict(&[vec![1.0]]).is_err());
        m.fit(&[vec![1.0, 2.0]], &[0, 1], 2).unwrap();
        assert!(m.predict(&[vec![1.0], vec![2.0]]).is_err());
    }

    #[test]
    fn multiclass_blobs() {
        let mut xs = Vec::new();
        let mut y = Vec::new();
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..150 {
            let c = i % 3;
            xs.push(c as f64 * 10.0 + rng.gen_range(-1.0..1.0));
            y.push(c);
        }
        let mut m = GaussianNb::default();
        m.fit(&[xs.clone()], &y, 3).unwrap();
        let acc = accuracy(&y, &m.predict(&[xs]).unwrap()).unwrap();
        assert!(acc > 0.95);
    }
}
