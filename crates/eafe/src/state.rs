//! RL state held in RAM: feature subgroups and the flat column store
//! (paper §II).
//!
//! Each original feature owns a **subgroup** — itself plus every accepted
//! generated feature derived within that subgroup. The state `s` is the set
//! of selected features across subgroups; it expands as qualified features
//! are accepted. Agents act on their own subgroup by sampling two member
//! features (with replacement) and applying the chosen operator; every
//! accepted member keeps the [`Lineage`] that says so.
//!
//! [`EngineState`] is the in-RAM `ColumnStore`: every member is a flat
//! [`Column`], and of its four duties (see `store.rs`) it carries out
//! each on whole columns — a candidate is generated in one piece, FPE
//! scoring goes through the process-wide signature cache, a member's or a
//! candidate's values are handed over as one run, and the raw-value frame
//! is the selected columns plus the candidate, copied once.
//!
//! Its checkpoint is the base frame plus each subgroup's lineages; a
//! restore makes every accepted member again from its lineage.

use crate::error::{EafeError, Result};
use crate::fpe::FpeModel;
use crate::ops::GeneratedFeature;
use crate::store::{ColumnStore, Lineage};
use serde::{DeError, Deserialize, Serialize, Value};
use tabular::{Column, DataFrame, Label};

/// A flat store's candidate: the generated column and the lineage it was
/// made from.
#[derive(Debug)]
pub struct FlatCandidate {
    pub(crate) lineage: Lineage,
    pub(crate) feature: GeneratedFeature,
}

/// The in-RAM column store of a flat search: the sanitized base frame,
/// whose column `j` is member 0 of agent `j`'s subgroup, and the members
/// each subgroup accepted since. Only the frame and the lineages are
/// written; the columns are derived from them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EngineState {
    frame: DataFrame,
    /// Per agent, the lineages of its accepted generated features in
    /// acceptance order (subgroup members `1..`).
    accepted: Vec<Vec<Lineage>>,
    /// Those features, in the same order.
    #[serde(skip)]
    features: Vec<Vec<GeneratedFeature>>,
}

// A checkpoint is outside input: every column the search will index, hash
// or hand to a learner must have the frame's row count, there must be one
// subgroup per base column, and every accepted member must have been made
// in its own subgroup from strictly earlier members.
impl Deserialize for EngineState {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let entries = v
            .as_map()
            .ok_or_else(|| DeError::new("expected map for EngineState"))?;
        let frame: DataFrame = Deserialize::from_value(serde::field(entries, "frame"))?;
        let accepted: Vec<Vec<Lineage>> =
            Deserialize::from_value(serde::field(entries, "accepted"))?;
        let (n_rows, columns) = (frame.n_rows(), frame.columns());
        if accepted.len() != columns.len() || columns.iter().any(|c| c.len() != n_rows) {
            return Err(DeError::new(format!(
                "subgroups do not match the frame's {} columns of {n_rows} rows",
                columns.len()
            )));
        }
        let mut state = EngineState::new(frame);
        let corrupt = |e: EafeError| DeError::new(e.to_string());
        for (agent, lineages) in accepted.into_iter().enumerate() {
            for (held, lineage) in (1..).zip(lineages) {
                lineage.check(agent, held)?;
                let member = state.generate(lineage).map_err(corrupt)?;
                state.accept(member).map_err(corrupt)?;
            }
        }
        Ok(state)
    }
}

impl EngineState {
    /// Initial state over a sanitized frame: every original feature seeds
    /// its own subgroup.
    pub fn new(frame: DataFrame) -> Self {
        Self {
            accepted: vec![Vec::new(); frame.n_cols()],
            features: vec![Vec::new(); frame.n_cols()],
            frame,
        }
    }

    /// Dimension of the state embedding the search driver feeds each
    /// agent's policy.
    pub const EMBEDDING_DIM: usize = 8;

    /// Member `idx` of `agent`'s subgroup (0 = the original feature) and
    /// its order.
    fn column(&self, agent: usize, idx: usize) -> (&Column, usize) {
        match idx.checked_sub(1) {
            None => (&self.frame.columns()[agent], 0),
            Some(i) => {
                let g = &self.features[agent][i];
                (&g.column, g.order)
            }
        }
    }
}

impl ColumnStore for EngineState {
    type Candidate = FlatCandidate;

    fn dataset(&self) -> &str {
        &self.frame.name
    }

    fn n_rows(&self) -> usize {
        self.frame.n_rows()
    }

    fn n_agents(&self) -> usize {
        self.accepted.len()
    }

    fn members(&self, agent: usize) -> usize {
        1 + self.accepted[agent].len()
    }

    fn member(&self, agent: usize, idx: usize) -> (&str, usize) {
        let (col, order) = self.column(agent, idx);
        (&col.name, order)
    }

    fn label(&self) -> &Label {
        self.frame.label()
    }

    fn generate(&self, lineage: Lineage) -> Result<FlatCandidate> {
        let parent = |idx| &self.column(lineage.agent, idx).0.values;
        let (a, b) = (parent(lineage.a), parent(lineage.b));
        let feature = GeneratedFeature::new(lineage.op, a, b, self.describe(lineage));
        Ok(FlatCandidate { lineage, feature })
    }

    fn lineage(candidate: &FlatCandidate) -> Lineage {
        candidate.lineage
    }

    fn name(candidate: &FlatCandidate) -> &str {
        &candidate.feature.column.name
    }

    fn order(candidate: &FlatCandidate) -> usize {
        candidate.feature.order
    }

    fn is_degenerate(candidate: &FlatCandidate) -> bool {
        candidate.feature.is_degenerate()
    }

    fn fpe_score(&self, fpe: &FpeModel, candidate: &FlatCandidate) -> Result<f64> {
        fpe.score_feature(&candidate.feature.column.values)
    }

    fn member_runs(&self, agent: usize, idx: usize, run: &mut dyn FnMut(&[f64])) -> Result<()> {
        run(&self.column(agent, idx).0.values);
        Ok(())
    }

    fn candidate_runs(&self, candidate: &FlatCandidate, run: &mut dyn FnMut(&[f64])) -> Result<()> {
        run(&candidate.feature.column.values);
        Ok(())
    }

    fn raw_frame(&self, extra: Option<&FlatCandidate>) -> Result<DataFrame> {
        let selected = self.selected().map(|(j, i)| self.column(j, i).0);
        let columns = selected.chain(extra.map(|c| &c.feature.column));
        Ok(DataFrame::new(
            self.frame.name.clone(),
            columns.cloned().collect(),
            self.frame.label().clone(),
        )?)
    }

    fn accept(&mut self, candidate: FlatCandidate) -> Result<()> {
        let agent = candidate.lineage.agent;
        self.accepted[agent].push(candidate.lineage);
        self.features[agent].push(candidate.feature);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Operator;
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

    fn sqrt_f0() -> Lineage {
        Lineage::new(0, Operator::Sqrt, 0, 0)
    }

    fn gen_feature(state: &EngineState) -> FlatCandidate {
        state.generate(sqrt_f0()).unwrap()
    }

    #[test]
    fn initial_state_mirrors_frame() {
        let s = EngineState::new(base());
        assert_eq!(s.n_agents(), 2);
        assert_eq!(s.n_generated(), 0);
        assert_eq!(s.dataset(), "s");
        assert_eq!(s.members(0), 1);
        assert_eq!(ColumnStore::member(&s, 0, 0), ("f0", 0));
    }

    #[test]
    fn accept_expands_state_and_frame() {
        let mut s = EngineState::new(base());
        let g = gen_feature(&s);
        s.accept(g).unwrap();
        assert_eq!(s.n_generated(), 1);
        assert_eq!(s.members(0), 2);
        let sel = s.raw_frame(None).unwrap();
        assert_eq!(sel.n_cols(), 3);
        assert_eq!(sel.columns()[2].name, "sqrt(f0)");
        assert_eq!(s.selected_names(), vec!["sqrt(f0)".to_string()]);
    }

    #[test]
    fn member_indexing_and_orders() {
        let mut s = EngineState::new(base());
        let g = gen_feature(&s);
        s.accept(g).unwrap();
        let (col, order) = s.column(0, 1);
        assert_eq!(col.name, "sqrt(f0)");
        assert_eq!(order, 1);
        assert_eq!(ColumnStore::member(&s, 0, 1), ("sqrt(f0)", 1));
        assert_eq!(s.members(0), 2);
    }

    #[test]
    fn deserialize_rejects_columns_that_disagree_with_the_frame() {
        let mut s = EngineState::new(base());
        let g = gen_feature(&s);
        s.accept(g).unwrap();
        let good = s.to_value();
        assert_eq!(EngineState::from_value(&good).unwrap(), s);

        let mut missing = s.clone();
        missing.accepted.pop();
        assert!(EngineState::from_value(&missing.to_value()).is_err());

        // A base column one row short: the frame alone does not check.
        let mut short_base = good.clone();
        fn at<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
            match v {
                Value::Map(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1,
                Value::Array(items) => &mut items[key.parse::<usize>().unwrap()],
                other => panic!("{key}: {other:?}"),
            }
        }
        match at(
            at(at(at(&mut short_base, "frame"), "columns"), "1"),
            "values",
        ) {
            Value::Array(values) => drop(values.pop()),
            other => panic!("values: {other:?}"),
        }
        assert!(EngineState::from_value(&short_base).is_err());
    }

    #[test]
    fn deserialize_rejects_a_member_its_lineage_does_not_describe() {
        let mut s = EngineState::new(base());
        let g = gen_feature(&s);
        s.accept(g).unwrap();
        let member = s.generate(Lineage { a: 1, ..sqrt_f0() }).unwrap();
        s.accept(member).unwrap();
        assert_eq!(EngineState::from_value(&s.to_value()).unwrap(), s);

        let rejects = |edit: &dyn Fn(&mut Lineage)| {
            let mut bad = s.clone();
            edit(&mut bad.accepted[0][1]);
            EngineState::from_value(&bad.to_value())
                .unwrap_err()
                .to_string()
        };
        // Made in another subgroup, or in none.
        assert!(rejects(&|l| l.agent = 1).contains("lineage"));
        assert!(rejects(&|l| l.agent = 9).contains("lineage"));
        // A parent that is not strictly earlier than the member (index 2).
        assert!(rejects(&|l| l.a = 2).contains("lineage"));
        assert!(rejects(&|l| l.b = 7).contains("lineage"));
    }
}
