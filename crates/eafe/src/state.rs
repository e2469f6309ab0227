//! RL state held in RAM: feature subgroups and the flat column store
//! (paper §II).
//!
//! Each original feature owns a **subgroup** — itself plus every accepted
//! generated feature derived within that subgroup. The state `s` is the set
//! of selected features across subgroups; it expands as qualified features
//! are accepted. Agents act on their own subgroup by sampling two member
//! features (with replacement) and applying the chosen operator.
//!
//! [`EngineState`] is the in-RAM `ColumnStore`: every member is a flat
//! [`Column`], FPE scoring goes through the process-wide signature cache,
//! and a downstream evaluation probes the score cache through a
//! [`Selection`] of the current selected columns — their key state,
//! digests and bins — so a forest evaluation reads the selection's bins
//! plus the candidate's and no selected frame is ever rebuilt. Only a
//! model kind that reads raw values gets a frame, built on a miss.

use crate::config::CachedEvaluator;
use crate::error::Result;
use crate::fpe::FpeModel;
use crate::ops::{GeneratedFeature, Operator};
use crate::store::ColumnStore;
use learners::{SelectedColumn, Selection};
use serde::{DeError, Deserialize, Serialize, Value};
use tabular::{Column, DataFrame};

/// One agent's feature subgroup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct FeatureSubgroup {
    /// Index of the original feature in the base frame.
    pub origin_idx: usize,
    /// The original feature (order 0).
    pub original: Column,
    /// Accepted generated features, in acceptance order.
    pub generated: Vec<GeneratedFeature>,
}

impl FeatureSubgroup {
    /// New subgroup around one original feature.
    pub(crate) fn new(origin_idx: usize, original: Column) -> Self {
        Self {
            origin_idx,
            original,
            generated: Vec::new(),
        }
    }

    /// Total members (original + generated).
    pub(crate) fn len(&self) -> usize {
        1 + self.generated.len()
    }

    /// Member column and its order by subgroup-local index
    /// (0 = the original feature).
    pub(crate) fn member(&self, idx: usize) -> (&Column, usize) {
        if idx == 0 {
            (&self.original, 0)
        } else {
            let g = &self.generated[idx - 1];
            (&g.column, g.order)
        }
    }

    /// Accept a generated feature into the subgroup.
    pub(crate) fn accept(&mut self, feature: GeneratedFeature) {
        self.generated.push(feature);
    }
}

/// The in-RAM column store of a flat search: the sanitized base frame and
/// one subgroup per original feature.
#[derive(Debug, Clone)]
pub struct EngineState {
    frame: DataFrame,
    /// Per-agent subgroups.
    pub(crate) subgroups: Vec<FeatureSubgroup>,
    /// The selected columns as key state, digests and bins, so a
    /// candidate's cache probe digests the candidate column and a miss
    /// bins only it. Derived from the fields above (not serialised, not
    /// compared); built on the first evaluation, extended on acceptance.
    selection: Option<Selection>,
}

impl PartialEq for EngineState {
    fn eq(&self, other: &Self) -> bool {
        self.frame == other.frame && self.subgroups == other.subgroups
    }
}

impl Serialize for EngineState {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("frame".to_string(), self.frame.to_value()),
            ("subgroups".to_string(), self.subgroups.to_value()),
        ])
    }
}

// A checkpoint is outside input: every column the search will index, hash
// or hand to a learner must have the frame's row count, and there must be
// one subgroup per base column.
impl Deserialize for EngineState {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let entries = v
            .as_map()
            .ok_or_else(|| DeError::new("expected map for EngineState"))?;
        let frame: DataFrame = Deserialize::from_value(serde::field(entries, "frame"))?;
        let subgroups: Vec<FeatureSubgroup> =
            Deserialize::from_value(serde::field(entries, "subgroups"))?;
        let n_rows = frame.n_rows();
        let mut columns = subgroups.iter().flat_map(|sub| {
            std::iter::once(&sub.original).chain(sub.generated.iter().map(|g| &g.column))
        });
        if subgroups.len() != frame.n_cols() || columns.any(|c| c.values.len() != n_rows) {
            return Err(DeError::new(format!(
                "subgroups do not match the frame's {} columns of {n_rows} rows",
                frame.n_cols()
            )));
        }
        Ok(EngineState {
            frame,
            subgroups,
            selection: None,
        })
    }
}

impl EngineState {
    /// Initial state over a sanitized frame: every original feature seeds
    /// its own subgroup.
    pub fn new(frame: DataFrame) -> Self {
        let subgroups = frame
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| FeatureSubgroup::new(i, c.clone()))
            .collect();
        Self {
            frame,
            subgroups,
            selection: None,
        }
    }

    /// Dimension of the state embedding the search driver feeds each
    /// agent's policy.
    pub const EMBEDDING_DIM: usize = 8;

    /// The selected columns in selection order: base columns, then the
    /// accepted features subgroup by subgroup.
    fn selected_columns(&self) -> impl Iterator<Item = &Column> {
        let generated = self.subgroups.iter().flat_map(|s| &s.generated);
        self.frame
            .columns()
            .iter()
            .chain(generated.map(|g| &g.column))
    }

    /// The selected frame plus `extra`, built in one copy — what a model
    /// kind that reads raw values scores.
    fn frame_with(&self, extra: Option<&Column>) -> Result<DataFrame> {
        let columns = self.selected_columns().chain(extra).cloned().collect();
        Ok(DataFrame::new(
            self.frame.name.clone(),
            columns,
            self.frame.label().clone(),
        )?)
    }

    /// The selection under `bin_budget`: the one at hand, or built from
    /// the selected columns.
    fn take_selection(&mut self, bin_budget: Option<usize>) -> Selection {
        match self.selection.take() {
            Some(selection) if selection.bin_budget() == bin_budget => selection,
            _ => self.build_selection(bin_budget),
        }
    }

    /// [`take_selection`](Self::take_selection) without checking it out:
    /// a copy of the one at hand (its bins are shared), or a built one.
    pub(crate) fn selection(&self, bin_budget: Option<usize>) -> Selection {
        match &self.selection {
            Some(selection) if selection.bin_budget() == bin_budget => selection.clone(),
            _ => self.build_selection(bin_budget),
        }
    }

    fn build_selection(&self, bin_budget: Option<usize>) -> Selection {
        let frame = &self.frame;
        let mut selection = Selection::new(&frame.name, frame.n_rows(), frame.label(), bin_budget);
        for c in self.selected_columns() {
            selection.push(SelectedColumn::of_values(&c.name, &c.values, bin_budget));
        }
        selection
    }
}

impl ColumnStore for EngineState {
    type Candidate = GeneratedFeature;
    type Frame = DataFrame;

    fn dataset(&self) -> &str {
        &self.frame.name
    }

    fn n_rows(&self) -> usize {
        self.frame.n_rows()
    }

    fn n_agents(&self) -> usize {
        self.subgroups.len()
    }

    fn members(&self, agent: usize) -> usize {
        self.subgroups[agent].len()
    }

    fn member(&self, agent: usize, idx: usize) -> (&str, usize) {
        let (col, order) = self.subgroups[agent].member(idx);
        (&col.name, order)
    }

    fn base_score(&mut self, evaluator: &CachedEvaluator) -> Result<f64> {
        Ok(evaluator.evaluate(&self.frame)?)
    }

    fn generate(&self, agent: usize, op: Operator, a: usize, b: usize) -> Result<GeneratedFeature> {
        let sub = &self.subgroups[agent];
        let (a, a_order) = sub.member(a);
        let (b, b_order) = sub.member(b);
        Ok(GeneratedFeature::generate(op, a, a_order, b, b_order))
    }

    fn name(candidate: &GeneratedFeature) -> &str {
        &candidate.column.name
    }

    fn order(candidate: &GeneratedFeature) -> usize {
        candidate.order
    }

    fn is_degenerate(candidate: &GeneratedFeature) -> bool {
        candidate.is_degenerate()
    }

    fn fpe_score(&self, fpe: &FpeModel, candidate: &GeneratedFeature) -> Result<f64> {
        fpe.score_feature(&candidate.column.values)
    }

    fn evaluate(
        &mut self,
        evaluator: &CachedEvaluator,
        candidate: &GeneratedFeature,
    ) -> Result<f64> {
        let bin_budget = evaluator.scorer().bin_budget(self.frame.task());
        let selection = self.take_selection(bin_budget);
        let score = self.evaluate_against(&selection, evaluator, candidate);
        self.selection = Some(selection);
        score
    }

    fn accept(&mut self, agent: usize, candidate: GeneratedFeature) -> Result<()> {
        if let Some(selection) = &mut self.selection {
            // The accepted column joins the selection behind its
            // subgroup's earlier acceptances.
            let at = self.frame.n_cols()
                + self.subgroups[..=agent]
                    .iter()
                    .map(|s| s.generated.len())
                    .sum::<usize>();
            let column = &candidate.column;
            let budget = selection.bin_budget();
            selection.insert(
                at,
                SelectedColumn::of_values(&column.name, &column.values, budget),
            );
        }
        self.subgroups[agent].accept(candidate);
        Ok(())
    }

    /// The selected-feature frame: all original columns plus every
    /// accepted generated column, sharing the base frame's label.
    fn engineered(&self) -> Result<DataFrame> {
        self.frame_with(None)
    }
}

impl EngineState {
    /// [`ColumnStore::evaluate`] against `selection`, this store's
    /// selection checked out for the call.
    fn evaluate_against(
        &self,
        selection: &Selection,
        evaluator: &CachedEvaluator,
        candidate: &GeneratedFeature,
    ) -> Result<f64> {
        let bin_budget = selection.bin_budget();
        let column = &candidate.column;
        let digest = runtime::fingerprint_values(&column.values);
        let key = evaluator.key_of(&selection.extended_key(&column.name, digest));
        evaluator.evaluate_keyed(key, |scorer| {
            if cfg!(debug_assertions) {
                let frame = self.frame_with(Some(column))?;
                debug_assert_eq!(
                    evaluator.cache_key(&frame),
                    key,
                    "key must address this frame"
                );
            }
            let extra =
                SelectedColumn::with_digest(&column.name, &column.values, digest, bin_budget);
            scorer.evaluate_selection(selection, Some(&extra), self.frame.label(), || {
                self.frame_with(Some(column))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{GeneratedFeature, Operator};
    use tabular::{DataFrame, Label};

    fn base() -> DataFrame {
        DataFrame::new(
            "s",
            vec![
                Column::new("f0", vec![1.0, 2.0, 3.0]),
                Column::new("f1", vec![4.0, 5.0, 6.0]),
            ],
            Label::Class {
                y: vec![0, 1, 0],
                n_classes: 2,
            },
        )
        .unwrap()
    }

    fn gen_feature(state: &EngineState) -> GeneratedFeature {
        state.generate(0, Operator::Sqrt, 0, 0).unwrap()
    }

    #[test]
    fn initial_state_mirrors_frame() {
        let s = EngineState::new(base());
        assert_eq!(s.n_agents(), 2);
        assert_eq!(s.n_generated(), 0);
        assert_eq!(s.dataset(), "s");
        assert_eq!(s.subgroups[0].len(), 1);
        assert_eq!(s.subgroups[0].member(0).1, 0); // order 0
    }

    #[test]
    fn accept_expands_state_and_frame() {
        let mut s = EngineState::new(base());
        let g = gen_feature(&s);
        s.accept(0, g).unwrap();
        assert_eq!(s.n_generated(), 1);
        assert_eq!(s.subgroups[0].len(), 2);
        let sel = s.engineered().unwrap();
        assert_eq!(sel.n_cols(), 3);
        assert_eq!(sel.columns()[2].name, "sqrt(f0)");
        assert_eq!(s.selected_names(), vec!["sqrt(f0)".to_string()]);
    }

    #[test]
    fn member_indexing_and_orders() {
        let mut s = EngineState::new(base());
        let g = gen_feature(&s);
        s.accept(0, g).unwrap();
        let (col, order) = s.subgroups[0].member(1);
        assert_eq!(col.name, "sqrt(f0)");
        assert_eq!(order, 1);
        assert_eq!(ColumnStore::member(&s, 0, 1), ("sqrt(f0)", 1));
        assert_eq!(s.members(0), 2);
    }

    #[test]
    fn deserialize_rejects_columns_that_disagree_with_the_frame() {
        let mut s = EngineState::new(base());
        let g = gen_feature(&s);
        s.accept(0, g).unwrap();
        let good = s.to_value();
        assert_eq!(EngineState::from_value(&good).unwrap(), s);

        let mut short = s.clone();
        short.subgroups[0].generated[0].column.values.pop();
        assert!(EngineState::from_value(&short.to_value()).is_err());

        let mut missing = s.clone();
        missing.subgroups.pop();
        assert!(EngineState::from_value(&missing.to_value()).is_err());
    }
}
