//! Linear models: multinomial logistic regression (the FPE model's binary
//! classifier) and a linear SVM trained with SGD on the hinge loss
//! (the "SVM" downstream task of the paper's Table V).

use crate::error::{LearnError, Result};
use crate::preprocess::{to_row_major, Standardizer};
use crate::tree::argmax;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Shared SGD hyper-parameters for the linear models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearConfig {
    /// Learning rate.
    pub lr: f64,
    /// L2 regularisation strength.
    pub l2: f64,
    /// Number of passes over the data.
    pub epochs: usize,
    /// Shuffling / init seed.
    pub seed: u64,
}

impl Default for LinearConfig {
    fn default() -> Self {
        Self {
            lr: 0.1,
            l2: 1e-4,
            epochs: 60,
            seed: 0,
        }
    }
}

fn validate(x: &[Vec<f64>], n_labels: usize) -> Result<usize> {
    if x.is_empty() || n_labels == 0 {
        return Err(LearnError::EmptyTrainingSet("linear model".into()));
    }
    for col in x {
        if col.len() != n_labels {
            return Err(LearnError::InvalidParam(format!(
                "feature column length {} != label length {n_labels}",
                col.len()
            )));
        }
    }
    Ok(x.len())
}

/// Multinomial logistic regression with z-score preprocessing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    /// SGD hyper-parameters.
    pub config: LinearConfig,
    /// One weight row per class: `weights[c][feature]`.
    weights: Vec<Vec<f64>>,
    biases: Vec<f64>,
    scaler: Option<Standardizer>,
}

impl LogisticRegression {
    /// New unfitted model.
    pub fn new(config: LinearConfig) -> Self {
        Self {
            config,
            weights: Vec::new(),
            biases: Vec::new(),
            scaler: None,
        }
    }

    /// Fit on column-major features and class labels.
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Result<()> {
        let n_features = validate(x, y.len())?;
        if n_classes < 2 {
            return Err(LearnError::InvalidParam("need at least 2 classes".into()));
        }
        let scaler = Standardizer::fit(x);
        let xs = scaler.transform(x);
        let rows = to_row_major(&xs);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut w = vec![vec![0.0; n_features]; n_classes];
        let mut b = vec![0.0; n_classes];
        let mut order: Vec<usize> = (0..rows.len()).collect();
        let mut probs = vec![0.0; n_classes];
        for _ in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                softmax_logits(&rows[i], &w, &b, &mut probs);
                for c in 0..n_classes {
                    let grad = probs[c] - f64::from(u8::from(y[i] == c));
                    for (wj, xj) in w[c].iter_mut().zip(&rows[i]) {
                        *wj -= self.config.lr * (grad * xj + self.config.l2 * *wj);
                    }
                    b[c] -= self.config.lr * grad;
                }
            }
        }
        self.weights = w;
        self.biases = b;
        self.scaler = Some(scaler);
        Ok(())
    }

    /// The fitted scaler, checked against an input of `n_features` columns.
    fn fitted_scaler(&self, n_features: usize) -> Result<&Standardizer> {
        let scaler = self
            .scaler
            .as_ref()
            .ok_or(LearnError::NotFitted("LogisticRegression"))?;
        if n_features != scaler.n_features() {
            return Err(LearnError::DimensionMismatch {
                fitted: scaler.n_features(),
                got: n_features,
            });
        }
        Ok(scaler)
    }

    /// Class predictions.
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Vec<usize>> {
        let scaler = self.fitted_scaler(x.len())?;
        let xs = scaler.transform(x);
        let rows = to_row_major(&xs);
        // argmax only needs the logits of each row in turn; reuse one
        // buffer instead of materialising every distribution.
        let mut probs = vec![0.0; self.weights.len()];
        Ok(rows
            .iter()
            .map(|row| {
                softmax_logits(row, &self.weights, &self.biases, &mut probs);
                argmax(&probs)
            })
            .collect())
    }

    /// Probability of the positive class (index 1) of one row-major sample
    /// under a binary model — the `p` in the paper's Eq. (7) surrogate
    /// reward.
    pub fn predict_positive_proba_row(&self, row: &[f64]) -> Result<f64> {
        let scaler = self.fitted_scaler(row.len())?;
        if self.weights.len() < 2 {
            return Err(LearnError::InvalidParam(
                "positive-class probability needs a binary model".into(),
            ));
        }
        let mut scaled = row.to_vec();
        scaler.transform_row(&mut scaled);
        let mut probs = vec![0.0; self.weights.len()];
        softmax_logits(&scaled, &self.weights, &self.biases, &mut probs);
        Ok(probs[1])
    }
}

fn softmax_logits(row: &[f64], w: &[Vec<f64>], b: &[f64], out: &mut [f64]) {
    for (c, o) in out.iter_mut().enumerate() {
        *o = b[c] + w[c].iter().zip(row).map(|(wj, xj)| wj * xj).sum::<f64>();
    }
    let max = out.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for o in out.iter_mut() {
        *o = (*o - max).exp();
        sum += *o;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Linear SVM: one-vs-rest hinge loss with SGD, z-score preprocessing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct LinearSvm {
    /// SGD hyper-parameters.
    pub config: LinearConfig,
    weights: Vec<Vec<f64>>,
    biases: Vec<f64>,
    scaler: Option<Standardizer>,
}

impl LinearSvm {
    /// New unfitted model.
    pub(crate) fn new(config: LinearConfig) -> Self {
        Self {
            config,
            weights: Vec::new(),
            biases: Vec::new(),
            scaler: None,
        }
    }

    /// Fit one-vs-rest hinge-loss separators.
    pub(crate) fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Result<()> {
        let n_features = validate(x, y.len())?;
        if n_classes < 2 {
            return Err(LearnError::InvalidParam("need at least 2 classes".into()));
        }
        let scaler = Standardizer::fit(x);
        let xs = scaler.transform(x);
        let rows = to_row_major(&xs);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut w = vec![vec![0.0; n_features]; n_classes];
        let mut b = vec![0.0; n_classes];
        let mut order: Vec<usize> = (0..rows.len()).collect();
        for _ in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                for c in 0..n_classes {
                    let target = if y[i] == c { 1.0 } else { -1.0 };
                    let margin = target
                        * (b[c]
                            + w[c]
                                .iter()
                                .zip(&rows[i])
                                .map(|(wj, xj)| wj * xj)
                                .sum::<f64>());
                    // L2 shrink always; hinge sub-gradient when violating.
                    for (wj, xj) in w[c].iter_mut().zip(&rows[i]) {
                        let hinge = if margin < 1.0 { -target * xj } else { 0.0 };
                        *wj -= self.config.lr * (hinge + self.config.l2 * *wj);
                    }
                    if margin < 1.0 {
                        b[c] += self.config.lr * target;
                    }
                }
            }
        }
        self.weights = w;
        self.biases = b;
        self.scaler = Some(scaler);
        Ok(())
    }

    /// Class predictions by maximum one-vs-rest margin.
    pub(crate) fn predict(&self, x: &[Vec<f64>]) -> Result<Vec<usize>> {
        let scaler = self
            .scaler
            .as_ref()
            .ok_or(LearnError::NotFitted("LinearSvm"))?;
        if x.len() != scaler.n_features() {
            return Err(LearnError::DimensionMismatch {
                fitted: scaler.n_features(),
                got: x.len(),
            });
        }
        let xs = scaler.transform(x);
        let rows = to_row_major(&xs);
        // One reused margin buffer across rows (no per-row allocation).
        let mut scores = vec![0.0; self.weights.len()];
        Ok(rows
            .iter()
            .map(|row| {
                for ((s, wc), bc) in scores.iter_mut().zip(&self.weights).zip(&self.biases) {
                    *s = bc + wc.iter().zip(row).map(|(wj, xj)| wj * xj).sum::<f64>();
                }
                argmax(&scores)
            })
            .collect())
    }
}

#[cfg(test)]
impl LogisticRegression {
    /// Per-row class probabilities.
    pub(crate) fn predict_proba(&self, x: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        let scaler = self.fitted_scaler(x.len())?;
        let xs = scaler.transform(x);
        let rows = to_row_major(&xs);
        let k = self.weights.len();
        let mut out = Vec::with_capacity(rows.len());
        for row in &rows {
            // Write each row's distribution once and move it into the
            // result — no intermediate buffer + clone.
            let mut probs = vec![0.0; k];
            softmax_logits(row, &self.weights, &self.biases, &mut probs);
            out.push(probs);
        }
        Ok(out)
    }

    /// Probability of the positive class (index 1) for binary models —
    /// the `p` in the paper's Eq. (7) surrogate reward.
    pub(crate) fn predict_positive_proba(&self, x: &[Vec<f64>]) -> Result<Vec<f64>> {
        let proba = self.predict_proba(x)?;
        if self.weights.len() < 2 {
            return Err(LearnError::InvalidParam(
                "positive-class probability needs a binary model".into(),
            ));
        }
        Ok(proba.into_iter().map(|p| p[1]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use rand::Rng;

    fn linearly_separable(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let av: f64 = rng.gen_range(-2.0..2.0);
            let bv: f64 = rng.gen_range(-2.0..2.0);
            a.push(av);
            b.push(bv);
            y.push(usize::from(av + 2.0 * bv > 0.3));
        }
        (vec![a, b], y)
    }

    #[test]
    fn logreg_separates_linear_data() {
        let (x, y) = linearly_separable(300, 1);
        let mut m = LogisticRegression::new(LinearConfig::default());
        m.fit(&x, &y, 2).unwrap();
        let acc = accuracy(&y, &m.predict(&x).unwrap()).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn logreg_probabilities_valid() {
        let (x, y) = linearly_separable(100, 2);
        let mut m = LogisticRegression::new(LinearConfig::default());
        m.fit(&x, &y, 2).unwrap();
        for p in m.predict_proba(&x).unwrap() {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        let pos = m.predict_positive_proba(&x).unwrap();
        assert_eq!(pos.len(), 100);
        for (i, p) in pos.iter().enumerate() {
            let row: Vec<f64> = x.iter().map(|c| c[i]).collect();
            let single = m.predict_positive_proba_row(&row).unwrap();
            assert_eq!(p.to_bits(), single.to_bits(), "row {i}");
        }
        assert!(m.predict_positive_proba_row(&[1.0]).is_err());
    }

    #[test]
    fn logreg_multiclass() {
        // Three well-separated clusters on a line.
        let mut xs = Vec::new();
        let mut y = Vec::new();
        for i in 0..150 {
            let c = i % 3;
            xs.push(c as f64 * 5.0 + (i % 7) as f64 * 0.1);
            y.push(c);
        }
        let x = vec![xs];
        let mut m = LogisticRegression::new(LinearConfig {
            epochs: 120,
            ..Default::default()
        });
        m.fit(&x, &y, 3).unwrap();
        let acc = accuracy(&y, &m.predict(&x).unwrap()).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn svm_separates_linear_data() {
        let (x, y) = linearly_separable(300, 3);
        let mut m = LinearSvm::new(LinearConfig::default());
        m.fit(&x, &y, 2).unwrap();
        let acc = accuracy(&y, &m.predict(&x).unwrap()).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn unfitted_and_mismatch_errors() {
        let m = LogisticRegression::new(LinearConfig::default());
        assert!(m.predict(&[vec![1.0]]).is_err());
        let (x, y) = linearly_separable(50, 4);
        let mut m = LinearSvm::new(LinearConfig::default());
        m.fit(&x, &y, 2).unwrap();
        assert!(m.predict(&[vec![1.0]]).is_err());
    }

    #[test]
    fn rejects_degenerate_input() {
        let mut m = LogisticRegression::new(LinearConfig::default());
        assert!(m.fit(&[], &[], 2).is_err());
        assert!(m.fit(&[vec![1.0]], &[0], 1).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = linearly_separable(120, 5);
        let mut a = LogisticRegression::new(LinearConfig::default());
        let mut b = LogisticRegression::new(LinearConfig::default());
        a.fit(&x, &y, 2).unwrap();
        b.fit(&x, &y, 2).unwrap();
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
    }
}
