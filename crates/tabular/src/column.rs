//! A single named feature column of `f64` values plus summary statistics.

use serde::{Deserialize, Serialize};

/// A named column of numeric feature values.
///
/// E-AFE operates purely on numeric features (the paper's operator set is
/// arithmetic), so every column is stored as `Vec<f64>`. Categorical inputs
/// are expected to be integer-encoded upstream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Human-readable name; generated features carry their expression string.
    pub name: String,
    /// Row values, one per sample.
    pub values: Vec<f64>,
}

impl Column {
    /// Create a column from a name and values.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            values,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean; 0.0 for an empty column.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Population standard deviation; 0.0 for columns with < 2 rows.
    pub fn std(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64;
        var.sqrt()
    }

    /// Minimum value, ignoring NaNs; `None` for an empty or all-NaN column.
    pub fn min(&self) -> Option<f64> {
        self.values
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(None, |acc, v| match acc {
                None => Some(v),
                Some(a) => Some(a.min(v)),
            })
    }

    /// Maximum value, ignoring NaNs; `None` for an empty or all-NaN column.
    pub fn max(&self) -> Option<f64> {
        self.values
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(None, |acc, v| match acc {
                None => Some(v),
                Some(a) => Some(a.max(v)),
            })
    }

    /// True when every value is finite (no NaN or ±Inf).
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// True when the column is (numerically) constant: max − min < `eps`,
    /// NaNs ignored; an empty or all-NaN column is constant. One pass
    /// that stops at the first span reaching `eps` — later rows can only
    /// widen it.
    pub fn is_constant(&self, eps: f64) -> bool {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in self.values.iter().filter(|v| !v.is_nan()) {
            lo = lo.min(v);
            hi = hi.max(v);
            if hi - lo >= eps {
                return false;
            }
        }
        lo > hi || hi - lo < eps
    }

    /// Replace every non-finite entry by `replacement`, returning how many
    /// entries were replaced. Downstream learners require finite input.
    pub fn sanitize(&mut self, replacement: f64) -> usize {
        let mut fixed = 0;
        for v in &mut self.values {
            if !v.is_finite() {
                *v = replacement;
                fixed += 1;
            }
        }
        fixed
    }

    /// Gather a sub-column at the given row indices.
    pub fn take(&self, indices: &[usize]) -> Column {
        Column {
            name: self.name.clone(),
            values: indices.iter().map(|&i| self.values[i]).collect(),
        }
    }
}

#[cfg(test)]
impl Column {
    /// Pearson correlation with another column of equal length.
    /// Returns 0.0 when either column is constant.
    pub(crate) fn correlation(&self, other: &Column) -> f64 {
        debug_assert_eq!(self.len(), other.len());
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        let (ma, mb) = (self.mean(), other.mean());
        let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
        for i in 0..n {
            let da = self.values[i] - ma;
            let db = other.values[i] - mb;
            cov += da * db;
            va += da * da;
            vb += db * db;
        }
        if va <= f64::EPSILON || vb <= f64::EPSILON {
            return 0.0;
        }
        cov / (va.sqrt() * vb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(values: &[f64]) -> Column {
        Column::new("c", values.to_vec())
    }

    #[test]
    fn basic_stats() {
        let c = col(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert!((c.mean() - 2.5).abs() < 1e-12);
        assert!((c.std() - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(c.min(), Some(1.0));
        assert_eq!(c.max(), Some(4.0));
    }

    #[test]
    fn empty_column_stats_are_safe() {
        let c = col(&[]);
        assert_eq!(c.mean(), 0.0);
        assert_eq!(c.std(), 0.0);
        assert_eq!(c.min(), None);
        assert_eq!(c.max(), None);
        assert!(c.is_constant(1e-9));
    }

    #[test]
    fn nan_handling() {
        let mut c = col(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert!(!c.is_finite());
        assert_eq!(c.min(), Some(1.0));
        // Inf is not NaN so max sees it.
        assert_eq!(c.max(), Some(f64::INFINITY));
        let fixed = c.sanitize(0.0);
        assert_eq!(fixed, 2);
        assert!(c.is_finite());
    }

    #[test]
    fn constant_detection() {
        assert!(col(&[5.0, 5.0, 5.0]).is_constant(1e-9));
        assert!(!col(&[5.0, 5.1]).is_constant(1e-9));
    }

    #[test]
    fn correlation_perfect_and_constant() {
        let a = col(&[1.0, 2.0, 3.0]);
        let b = col(&[2.0, 4.0, 6.0]);
        assert!((a.correlation(&b) - 1.0).abs() < 1e-12);
        let neg = col(&[3.0, 2.0, 1.0]);
        assert!((a.correlation(&neg) + 1.0).abs() < 1e-12);
        let konst = col(&[7.0, 7.0, 7.0]);
        assert_eq!(a.correlation(&konst), 0.0);
    }

    #[test]
    fn take_gathers_rows() {
        let c = col(&[10.0, 20.0, 30.0]);
        let t = c.take(&[2, 0]);
        assert_eq!(t.values, vec![30.0, 10.0]);
        assert_eq!(t.name, "c");
    }
}
