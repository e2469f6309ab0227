//! The central `DataFrame` type: a column-major table of numeric features
//! plus a classification or regression label.

use crate::column::Column;
use crate::error::{Result, TabularError};
use serde::{Deserialize, Serialize};

/// Downstream task type for a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Task {
    /// Multi-class classification (labels are class indices).
    Classification,
    /// Scalar regression.
    Regression,
}

impl Task {
    /// Short code used in tables ("C" or "R"), matching the paper's notation.
    pub fn code(self) -> &'static str {
        match self {
            Task::Classification => "C",
            Task::Regression => "R",
        }
    }
}

/// The label vector of a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Label {
    /// Class indices in `0..n_classes`.
    Class {
        /// Per-row class index.
        y: Vec<usize>,
        /// Total number of classes (class indices are `< n_classes`).
        n_classes: usize,
    },
    /// Real-valued regression targets.
    Reg(Vec<f64>),
}

impl Label {
    /// Number of labelled rows.
    pub fn len(&self) -> usize {
        match self {
            Label::Class { y, .. } => y.len(),
            Label::Reg(y) => y.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The task this label implies.
    pub fn task(&self) -> Task {
        match self {
            Label::Class { .. } => Task::Classification,
            Label::Reg(_) => Task::Regression,
        }
    }

    /// Gather the label at the given row indices.
    pub fn take(&self, indices: impl IntoIterator<Item = usize>) -> Label {
        match self {
            Label::Class { y, n_classes } => Label::Class {
                y: indices.into_iter().map(|i| y[i]).collect(),
                n_classes: *n_classes,
            },
            Label::Reg(y) => Label::Reg(indices.into_iter().map(|i| y[i]).collect()),
        }
    }

    /// Class labels, if classification.
    pub fn classes(&self) -> Option<&[usize]> {
        match self {
            Label::Class { y, .. } => Some(y),
            Label::Reg(_) => None,
        }
    }

    /// Regression targets, if regression.
    pub fn targets(&self) -> Option<&[f64]> {
        match self {
            Label::Reg(y) => Some(y),
            Label::Class { .. } => None,
        }
    }

    /// Number of classes (1 for regression, for uniformity).
    pub fn n_classes(&self) -> usize {
        match self {
            Label::Class { n_classes, .. } => *n_classes,
            Label::Reg(_) => 1,
        }
    }
}

/// A column-major data frame: `N` feature columns of equal length plus a
/// label vector of the same length.
///
/// This is the dataset representation `D⟨F, y⟩` from the paper's problem
/// formulation: features `F = {f[1], …, f[N]}` with label `y`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataFrame {
    /// Dataset name (used in experiment tables).
    pub name: String,
    columns: Vec<Column>,
    label: Label,
}

impl DataFrame {
    /// Build a frame, validating that all columns and the label agree on
    /// row count and that classification class indices are in range.
    pub fn new(name: impl Into<String>, columns: Vec<Column>, label: Label) -> Result<Self> {
        let n_rows = label.len();
        for c in &columns {
            if c.len() != n_rows {
                return Err(TabularError::LengthMismatch {
                    what: format!("column `{}` vs label", c.name),
                    expected: n_rows,
                    got: c.len(),
                });
            }
        }
        if let Label::Class { y, n_classes } = &label {
            if let Some(&bad) = y.iter().find(|&&c| c >= *n_classes) {
                return Err(TabularError::InvalidParam(format!(
                    "class index {bad} out of range (n_classes = {n_classes})"
                )));
            }
        }
        Ok(Self {
            name: name.into(),
            columns,
            label,
        })
    }

    /// Number of rows (samples). `M` in the paper's notation.
    pub fn n_rows(&self) -> usize {
        self.label.len()
    }

    /// Number of feature columns. `N` in the paper's notation.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// The downstream task type.
    pub fn task(&self) -> Task {
        self.label.task()
    }

    /// Borrow all feature columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Borrow one feature column by index.
    pub fn column(&self, idx: usize) -> Result<&Column> {
        self.columns
            .get(idx)
            .ok_or_else(|| TabularError::NoSuchColumn(format!("#{idx}")))
    }

    /// Borrow the label.
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// Append a feature column; must match the frame's row count.
    pub fn push_column(&mut self, column: Column) -> Result<()> {
        if column.len() != self.n_rows() {
            return Err(TabularError::LengthMismatch {
                what: format!("new column `{}`", column.name),
                expected: self.n_rows(),
                got: column.len(),
            });
        }
        self.columns.push(column);
        Ok(())
    }

    /// A new frame containing all columns except `idx` — the "residual
    /// dataset" `D_j^i` used by FPE's leave-one-feature-out labelling.
    pub fn drop_column(&self, idx: usize) -> Result<DataFrame> {
        if idx >= self.columns.len() {
            return Err(TabularError::NoSuchColumn(format!("#{idx}")));
        }
        let columns = self
            .columns
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != idx)
            .map(|(_, c)| c.clone())
            .collect();
        DataFrame::new(self.name.clone(), columns, self.label.clone())
    }

    /// A new frame keeping only the columns at the given indices (in order).
    pub fn select_columns(&self, indices: &[usize]) -> Result<DataFrame> {
        let mut columns = Vec::with_capacity(indices.len());
        for &i in indices {
            columns.push(self.column(i)?.clone());
        }
        DataFrame::new(self.name.clone(), columns, self.label.clone())
    }

    /// A new frame containing only the given rows (indices may repeat, so
    /// this also serves bootstrap resampling).
    pub fn take_rows(&self, indices: &[usize]) -> Result<DataFrame> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.n_rows()) {
            return Err(TabularError::InvalidParam(format!(
                "row index {bad} out of range (n_rows = {})",
                self.n_rows()
            )));
        }
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Ok(DataFrame {
            name: self.name.clone(),
            columns,
            label: self.label.take(indices.iter().copied()),
        })
    }

    /// Replace every non-finite feature value with 0.0; returns the number
    /// of replaced entries. Generated features can produce NaN/Inf (log of
    /// a negative, division by ~0), and learners require finite input.
    pub fn sanitize(&mut self) -> usize {
        self.columns.iter_mut().map(|c| c.sanitize(0.0)).sum()
    }

    /// Dataset shape in the paper's "Samples\Features" table notation.
    pub fn shape_str(&self) -> String {
        format!("{}\\{}", self.n_rows(), self.n_cols())
    }

    /// Concatenate this frame's columns with extra generated columns into a
    /// new frame sharing the same label.
    pub fn with_extra_columns(&self, extra: &[Column]) -> Result<DataFrame> {
        let mut columns = self.columns.clone();
        for c in extra {
            if c.len() != self.n_rows() {
                return Err(TabularError::LengthMismatch {
                    what: format!("extra column `{}`", c.name),
                    expected: self.n_rows(),
                    got: c.len(),
                });
            }
            columns.push(c.clone());
        }
        DataFrame::new(self.name.clone(), columns, self.label.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> DataFrame {
        DataFrame::new(
            "t",
            vec![
                Column::new("a", vec![1.0, 2.0, 3.0, 4.0]),
                Column::new("b", vec![10.0, 20.0, 30.0, 40.0]),
            ],
            Label::Class {
                y: vec![0, 1, 0, 1],
                n_classes: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths() {
        let err = DataFrame::new(
            "bad",
            vec![Column::new("a", vec![1.0])],
            Label::Reg(vec![1.0, 2.0]),
        )
        .unwrap_err();
        assert!(matches!(err, TabularError::LengthMismatch { .. }));
    }

    #[test]
    fn construction_validates_class_range() {
        let err = DataFrame::new(
            "bad",
            vec![Column::new("a", vec![1.0])],
            Label::Class {
                y: vec![5],
                n_classes: 2,
            },
        )
        .unwrap_err();
        assert!(matches!(err, TabularError::InvalidParam(_)));
    }

    #[test]
    fn shape_and_access() {
        let f = frame();
        assert_eq!(f.n_rows(), 4);
        assert_eq!(f.n_cols(), 2);
        assert_eq!(f.task(), Task::Classification);
        assert_eq!(f.column(1).unwrap().values[0], 10.0);
        assert!(f.column(2).is_err());
        assert_eq!(f.shape_str(), "4\\2");
    }

    #[test]
    fn drop_column_builds_residual() {
        let f = frame();
        let r = f.drop_column(0).unwrap();
        assert_eq!(r.n_cols(), 1);
        assert_eq!(r.columns()[0].name, "b");
        assert_eq!(r.n_rows(), 4);
        assert!(f.drop_column(7).is_err());
    }

    #[test]
    fn take_rows_supports_bootstrap() {
        let f = frame();
        let b = f.take_rows(&[0, 0, 3]).unwrap();
        assert_eq!(b.n_rows(), 3);
        assert_eq!(b.column(0).unwrap().values, vec![1.0, 1.0, 4.0]);
        assert_eq!(b.label().classes().unwrap(), &[0, 0, 1]);
        assert!(f.take_rows(&[9]).is_err());
    }

    #[test]
    fn push_column_checks_length() {
        let mut f = frame();
        f.push_column(Column::new("c", vec![0.0; 4])).unwrap();
        assert_eq!(f.n_cols(), 3);
        assert!(f.push_column(Column::new("d", vec![0.0; 3])).is_err());
        assert_eq!(f.n_cols(), 3);
    }

    #[test]
    fn sanitize_fixes_nonfinite() {
        let mut f = DataFrame::new(
            "t",
            vec![Column::new("a", vec![f64::NAN, 1.0, f64::NEG_INFINITY])],
            Label::Reg(vec![0.0, 1.0, 2.0]),
        )
        .unwrap();
        assert_eq!(f.sanitize(), 2);
        assert!(f.columns()[0].is_finite());
    }

    #[test]
    fn select_columns_reorders() {
        let f = frame();
        let s = f.select_columns(&[1, 0]).unwrap();
        assert_eq!(s.columns()[0].name, "b");
        assert_eq!(s.columns()[1].name, "a");
    }

    #[test]
    fn with_extra_columns_appends() {
        let f = frame();
        let g = f
            .with_extra_columns(&[Column::new("x", vec![5.0; 4])])
            .unwrap();
        assert_eq!(g.n_cols(), 3);
        assert!(f
            .with_extra_columns(&[Column::new("x", vec![5.0; 2])])
            .is_err());
    }

    #[test]
    fn label_take_regression() {
        let l = Label::Reg(vec![1.0, 2.0, 3.0]);
        assert_eq!(l.take([2, 1]).targets().unwrap(), &[3.0, 2.0]);
        assert_eq!(l.task(), Task::Regression);
        assert_eq!(l.n_classes(), 1);
    }
}
