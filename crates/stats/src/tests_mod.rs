//! Hypothesis tests: the paired t-test and the Wilcoxon signed-rank test —
//! the machinery behind the paper's Table VI significance analysis of
//! E-AFE against each baseline.

use crate::dist::{normal_cdf, t_two_sided_p};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced by the hypothesis tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// Samples were empty or mismatched in length.
    BadInput(String),
    /// The statistic is undefined (e.g. zero variance everywhere).
    Degenerate(String),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::BadInput(m) => write!(f, "bad input: {m}"),
            StatsError::Degenerate(m) => write!(f, "degenerate statistic: {m}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Result alias.
pub(crate) type Result<T> = std::result::Result<T, StatsError>;

/// Outcome of a hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestResult {
    /// The test statistic (t or z).
    pub statistic: f64,
    /// Degrees of freedom (0 for the normal-approximated Wilcoxon).
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n − 1 denominator).
pub(crate) fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Paired two-sided t-test on matched samples (the appropriate test for the
/// paper's per-dataset method comparison).
pub fn paired_t_test(a: &[f64], b: &[f64]) -> Result<TestResult> {
    if a.len() != b.len() {
        return Err(StatsError::BadInput(format!(
            "paired samples differ in length: {} vs {}",
            a.len(),
            b.len()
        )));
    }
    if a.len() < 2 {
        return Err(StatsError::BadInput("need at least 2 pairs".into()));
    }
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let n = diffs.len() as f64;
    let md = mean(&diffs);
    let var = sample_variance(&diffs);
    if var <= 0.0 {
        if md == 0.0 {
            // All differences identical and zero → no evidence of difference.
            return Ok(TestResult {
                statistic: 0.0,
                df: n - 1.0,
                p_value: 1.0,
            });
        }
        return Err(StatsError::Degenerate(
            "all pairwise differences identical and non-zero".into(),
        ));
    }
    let t = md / (var / n).sqrt();
    Ok(TestResult {
        statistic: t,
        df: n - 1.0,
        p_value: t_two_sided_p(t, n - 1.0),
    })
}

/// Wilcoxon signed-rank test with normal approximation and tie-corrected
/// variance; zero differences are dropped (Wilcoxon's original treatment).
pub fn wilcoxon_signed_rank(a: &[f64], b: &[f64]) -> Result<TestResult> {
    if a.len() != b.len() {
        return Err(StatsError::BadInput(format!(
            "paired samples differ in length: {} vs {}",
            a.len(),
            b.len()
        )));
    }
    let mut diffs: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| x - y)
        .filter(|d| *d != 0.0)
        .collect();
    let n = diffs.len();
    if n < 2 {
        return Err(StatsError::BadInput(
            "need at least 2 non-zero differences".into(),
        ));
    }
    // Rank |d| with average ranks for ties.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        diffs[i]
            .abs()
            .partial_cmp(&diffs[j].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0; n];
    let mut tie_correction = 0.0;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && diffs[order[j + 1]].abs() == diffs[order[i]].abs() {
            j += 1;
        }
        let avg_rank = (i + j + 2) as f64 / 2.0; // ranks are 1-based
        for &k in &order[i..=j] {
            ranks[k] = avg_rank;
        }
        let t = (j - i + 1) as f64;
        tie_correction += t * t * t - t;
        i = j + 1;
    }
    let w_plus: f64 = diffs
        .iter()
        .zip(&ranks)
        .filter(|(d, _)| **d > 0.0)
        .map(|(_, r)| r)
        .sum();
    let nf = n as f64;
    let mean_w = nf * (nf + 1.0) / 4.0;
    let var_w = nf * (nf + 1.0) * (2.0 * nf + 1.0) / 24.0 - tie_correction / 48.0;
    if var_w <= 0.0 {
        return Err(StatsError::Degenerate("zero variance of W".into()));
    }
    let z = (w_plus - mean_w) / var_w.sqrt();
    diffs.clear();
    Ok(TestResult {
        statistic: z,
        df: 0.0,
        p_value: 2.0 * (1.0 - normal_cdf(z.abs())),
    })
}

#[cfg(test)]
#[allow(clippy::module_inception)] // tests-of-the-tests-module
mod tests {
    use super::*;

    #[test]
    fn paired_t_detects_shift() {
        let a = [1.1, 2.2, 3.1, 4.3, 5.2, 6.1, 7.3, 8.2];
        // Near-constant positive shift with slight jitter → strong evidence.
        let b: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(i, x)| x - 0.5 - 0.01 * (i % 3) as f64)
            .collect();
        let r = paired_t_test(&a, &b).unwrap();
        assert!(r.p_value < 0.001, "p = {}", r.p_value);
        assert!(r.statistic > 0.0);
    }

    #[test]
    fn paired_t_no_difference() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let r = paired_t_test(&a, &a).unwrap();
        assert_eq!(r.p_value, 1.0);
        assert_eq!(r.statistic, 0.0);
    }

    #[test]
    fn paired_t_symmetric_noise_is_insignificant() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [1.1, 1.9, 3.1, 3.9, 5.1, 4.9];
        let r = paired_t_test(&a, &b).unwrap();
        assert!(r.p_value > 0.2, "p = {}", r.p_value);
    }

    #[test]
    fn paired_t_rejects_bad_input() {
        assert!(paired_t_test(&[1.0], &[1.0]).is_err());
        assert!(paired_t_test(&[1.0, 2.0], &[1.0]).is_err());
        // Identical non-zero differences → degenerate.
        assert!(paired_t_test(&[2.0, 3.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn wilcoxon_detects_consistent_improvement() {
        let a: Vec<f64> = (0..20).map(|i| 0.8 + i as f64 * 0.001).collect();
        let b: Vec<f64> = a.iter().map(|x| x - 0.05).collect();
        let r = wilcoxon_signed_rank(&a, &b).unwrap();
        assert!(r.p_value < 0.001, "p = {}", r.p_value);
    }

    #[test]
    fn wilcoxon_balanced_signs_insignificant() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [1.1, 1.9, 3.1, 3.9, 5.1, 5.9];
        let r = wilcoxon_signed_rank(&a, &b).unwrap();
        assert!(r.p_value > 0.5, "p = {}", r.p_value);
    }

    #[test]
    fn wilcoxon_drops_zero_differences() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 1.5, 2.5, 3.5, 4.5]; // first pair ties
        let r = wilcoxon_signed_rank(&a, &b).unwrap();
        assert!(r.statistic > 0.0);
        assert!(wilcoxon_signed_rank(&[1.0, 2.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn descriptive_stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((sample_variance(&[1.0, 2.0, 3.0, 4.0]) - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(sample_variance(&[1.0]), 0.0);
    }
}
