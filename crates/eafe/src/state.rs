//! The in-RAM column store of a flat search.
//!
//! [`EngineState`] keeps every column as a flat [`Column`]: the sanitized
//! base frame, whose column `j` is agent `j`'s original feature, then the
//! accepted columns in acceptance order. It carries out a store's duties
//! (see `store.rs`) on whole columns: a candidate is generated in one
//! piece, FPE scoring goes through the process-wide signature cache, a
//! column is handed over as one run, and the raw-value frame is a copy of
//! the asked-for columns. A checkpoint writes only the base frame (and
//! the plan's lineages); a restore makes every accepted column again.

use crate::error::Result;
use crate::fpe::FpeModel;
use crate::ops::Operator;
use crate::store::{Candidate, ColumnStore};
use tabular::{Column, DataFrame, Label};

/// The in-RAM column store of a flat search: the sanitized base frame,
/// whose column `j` has id `j`, and the accepted columns, which take the
/// ids after it in acceptance order.
#[derive(Debug, Clone)]
pub struct EngineState {
    pub(crate) frame: DataFrame,
    generated: Vec<Column>,
}

impl EngineState {
    /// A store of the sanitized `frame`'s columns alone.
    pub fn new(frame: DataFrame) -> Self {
        Self {
            frame,
            generated: Vec::new(),
        }
    }

    /// Dimension of the state embedding the search driver feeds each
    /// agent's policy.
    pub const EMBEDDING_DIM: usize = 8;

    /// Column `col`: a base column, then the accepted ones.
    fn column(&self, col: usize) -> &Column {
        let base = self.frame.columns();
        base.get(col)
            .unwrap_or_else(|| &self.generated[col - base.len()])
    }
}

impl ColumnStore for EngineState {
    /// A candidate's column, named by the driver when it is framed or
    /// accepted.
    type Values = Column;

    fn dataset(&self) -> &str {
        &self.frame.name
    }

    fn n_rows(&self) -> usize {
        self.frame.n_rows()
    }

    fn label(&self) -> &Label {
        self.frame.label()
    }

    fn generate(&self, op: Operator, a: usize, b: usize) -> Result<Column> {
        let (a, b) = (&self.column(a).values, &self.column(b).values);
        Ok(Column::new(String::new(), op.apply(a, b)))
    }

    fn is_degenerate(values: &Column) -> bool {
        !values.is_finite() || values.is_constant(1e-12)
    }

    fn fpe_score(&self, fpe: &FpeModel, values: &Column) -> Result<f64> {
        fpe.score_feature(&values.values)
    }

    fn column_runs(&self, col: usize, run: &mut dyn FnMut(&[f64])) -> Result<()> {
        run(&self.column(col).values);
        Ok(())
    }

    fn candidate_runs(&self, values: &Column, run: &mut dyn FnMut(&[f64])) -> Result<()> {
        run(&values.values);
        Ok(())
    }

    fn raw_frame(&self, cols: &[usize], extra: Option<(&str, &Column)>) -> Result<DataFrame> {
        let columns = cols.iter().map(|&col| self.column(col).clone());
        let extra = extra.map(|(name, values)| Column::new(name, values.values.clone()));
        Ok(DataFrame::new(
            self.frame.name.clone(),
            columns.chain(extra).collect(),
            self.frame.label().clone(),
        )?)
    }

    fn accept(&mut self, name: &str, values: Column) -> Result<()> {
        self.generated.push(Column::new(name, values.values));
        Ok(())
    }
}

impl Candidate<Column> {
    /// The candidate's column, under its name.
    pub(crate) fn into_column(self) -> Column {
        Column::new(self.name, self.values.values)
    }
}
