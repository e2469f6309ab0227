//! Evaluation metrics.
//!
//! The paper evaluates classification with the **F1-score** and regression
//! with **1 − relative absolute error (1-rae)**:
//!
//! ```text
//! 1-rae = 1 − Σ|ŷ − y| / Σ|ȳ − y|
//! ```
//!
//! where `ȳ` is the mean of the true targets. We additionally provide
//! accuracy, precision and recall (used by the FPE model's objective,
//! Eq. 5–6 of the paper).

use crate::error::{LearnError, Result};
use tabular::Label;

/// Confusion counts for one class in a one-vs-rest view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BinaryCounts {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// True negatives.
    pub tn: usize,
}

impl BinaryCounts {
    /// Precision = TP / (TP + FP); 0 when the denominator is 0.
    pub(crate) fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall = TP / (TP + FN); 0 when the denominator is 0.
    pub(crate) fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// F1 = harmonic mean of precision and recall; 0 when both are 0.
    pub(crate) fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn check_lengths(a: usize, b: usize) -> Result<()> {
    if a != b {
        return Err(LearnError::InvalidParam(format!(
            "prediction/truth length mismatch: {a} vs {b}"
        )));
    }
    if a == 0 {
        return Err(LearnError::EmptyTrainingSet(
            "cannot score empty predictions".into(),
        ));
    }
    Ok(())
}

/// Fraction of exactly matching class predictions.
pub fn accuracy(y_true: &[usize], y_pred: &[usize]) -> Result<f64> {
    check_lengths(y_true.len(), y_pred.len())?;
    let hits = y_true.iter().zip(y_pred).filter(|(t, p)| t == p).count();
    Ok(hits as f64 / y_true.len() as f64)
}

/// One-vs-rest confusion counts for class `c`.
pub(crate) fn counts_for_class(y_true: &[usize], y_pred: &[usize], c: usize) -> BinaryCounts {
    let mut k = BinaryCounts::default();
    for (&t, &p) in y_true.iter().zip(y_pred) {
        match (t == c, p == c) {
            (true, true) => k.tp += 1,
            (false, true) => k.fp += 1,
            (true, false) => k.fn_ += 1,
            (false, false) => k.tn += 1,
        }
    }
    k
}

/// Support-weighted F1 across all classes present in `y_true` (the
/// scikit-learn `average="weighted"` convention, matching the multi-class
/// datasets in the paper's tables; for binary problems this is close to the
/// positive-class F1 when classes are balanced).
pub fn f1_score(y_true: &[usize], y_pred: &[usize], n_classes: usize) -> Result<f64> {
    check_lengths(y_true.len(), y_pred.len())?;
    let n = y_true.len() as f64;
    let mut weighted = 0.0;
    for c in 0..n_classes.max(1) {
        let support = y_true.iter().filter(|&&t| t == c).count();
        if support == 0 {
            continue;
        }
        weighted += (support as f64 / n) * counts_for_class(y_true, y_pred, c).f1();
    }
    Ok(weighted)
}

/// Binary precision/recall for the positive class 1 — the FPE model's
/// optimisation target (paper Eq. 5).
pub fn binary_precision_recall(y_true: &[usize], y_pred: &[usize]) -> Result<(f64, f64)> {
    check_lengths(y_true.len(), y_pred.len())?;
    let k = counts_for_class(y_true, y_pred, 1);
    Ok((k.precision(), k.recall()))
}

/// 1 − relative absolute error. 1.0 is a perfect fit; predicting the mean
/// scores 0; worse-than-mean predictions go negative. When the true targets
/// are constant, returns 1.0 for exact predictions and 0.0 otherwise.
pub fn one_minus_rae(y_true: &[f64], y_pred: &[f64]) -> Result<f64> {
    check_lengths(y_true.len(), y_pred.len())?;
    let mean = y_true.iter().sum::<f64>() / y_true.len() as f64;
    let denom: f64 = y_true.iter().map(|y| (y - mean).abs()).sum();
    let num: f64 = y_true.iter().zip(y_pred).map(|(y, p)| (p - y).abs()).sum();
    if denom <= f64::EPSILON {
        return Ok(if num <= f64::EPSILON { 1.0 } else { 0.0 });
    }
    Ok(1.0 - num / denom)
}

/// The paper's score of predictions against the truth, for the truth's
/// task: support-weighted [`f1_score`] of classes, [`one_minus_rae`] of
/// targets. Predictions of the other task are an
/// [`LearnError::InvalidParam`].
pub fn score(truth: &Label, pred: &Label) -> Result<f64> {
    match (truth, pred) {
        (Label::Class { y, n_classes }, Label::Class { y: p, .. }) => f1_score(y, p, *n_classes),
        (Label::Reg(y), Label::Reg(p)) => one_minus_rae(y, p),
        _ => Err(LearnError::InvalidParam(format!(
            "{:?} predictions scored against a {:?} label",
            pred.task(),
            truth.task()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_picks_the_metric_by_task_and_refuses_a_mismatch() {
        let truth = Label::Class {
            y: vec![0, 1, 1, 2],
            n_classes: 3,
        };
        let pred = Label::Class {
            y: vec![0, 1, 2, 2],
            n_classes: 3,
        };
        let f1 = f1_score(&[0, 1, 1, 2], &[0, 1, 2, 2], 3).unwrap();
        assert_eq!(score(&truth, &pred).unwrap().to_bits(), f1.to_bits());
        let targets = Label::Reg(vec![1.0, 2.0, 4.0]);
        assert_eq!(score(&targets, &targets).unwrap(), 1.0);
        assert!(matches!(
            score(&truth, &targets),
            Err(LearnError::InvalidParam(_))
        ));
        assert!(score(&targets, &truth).is_err());
    }

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 1, 0], &[0, 1, 0, 0]).unwrap(), 0.75);
        assert!(accuracy(&[], &[]).is_err());
        assert!(accuracy(&[0], &[0, 1]).is_err());
    }

    #[test]
    fn perfect_f1_is_one() {
        let y = [0, 1, 2, 1, 0];
        assert!((f1_score(&y, &y, 3).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f1_harmonic_mean_identity() {
        // One-vs-rest counts chosen by hand: class 1 has p = 2/3, r = 2/4.
        let y_true = [1, 1, 1, 1, 0, 0, 0];
        let y_pred = [1, 1, 0, 0, 1, 0, 0];
        let k = counts_for_class(&y_true, &y_pred, 1);
        assert_eq!((k.tp, k.fp, k.fn_), (2, 1, 2));
        let p = k.precision();
        let r = k.recall();
        assert!((k.f1() - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }

    #[test]
    fn weighted_f1_reflects_support() {
        // Class 0 (support 3) is perfect; class 1 (support 1) is missed.
        let y_true = [0, 0, 0, 1];
        let y_pred = [0, 0, 0, 0];
        let f1 = f1_score(&y_true, &y_pred, 2).unwrap();
        // class 0: p = 3/4, r = 1 → f1 = 6/7, weight 3/4; class 1: f1 = 0.
        assert!((f1 - 0.75 * (6.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn all_wrong_f1_is_zero() {
        assert_eq!(f1_score(&[0, 0], &[1, 1], 2).unwrap(), 0.0);
    }

    #[test]
    fn binary_precision_recall_matches_definition() {
        let y_true = [1, 1, 0, 0, 1];
        let y_pred = [1, 0, 1, 0, 1];
        let (p, r) = binary_precision_recall(&y_true, &y_pred).unwrap();
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn one_minus_rae_perfect_and_mean() {
        let y = [1.0, 2.0, 3.0, 4.0];
        assert!((one_minus_rae(&y, &y).unwrap() - 1.0).abs() < 1e-12);
        let mean_pred = [2.5; 4];
        assert!(one_minus_rae(&y, &mean_pred).unwrap().abs() < 1e-12);
    }

    #[test]
    fn one_minus_rae_worse_than_mean_is_negative() {
        let y = [1.0, 2.0, 3.0];
        let bad = [30.0, -10.0, 99.0];
        assert!(one_minus_rae(&y, &bad).unwrap() < 0.0);
    }

    #[test]
    fn one_minus_rae_constant_targets() {
        let y = [5.0, 5.0];
        assert_eq!(one_minus_rae(&y, &[5.0, 5.0]).unwrap(), 1.0);
        assert_eq!(one_minus_rae(&y, &[4.0, 5.0]).unwrap(), 0.0);
    }

    #[test]
    fn empty_class_skipped_in_weighted_f1() {
        // n_classes = 3 but class 2 never appears in y_true.
        let y_true = [0, 1];
        let y_pred = [0, 2];
        let f1 = f1_score(&y_true, &y_pred, 3).unwrap();
        assert!((f1 - 0.5).abs() < 1e-12); // class 0 perfect (w=0.5), class 1 zero
    }
}
