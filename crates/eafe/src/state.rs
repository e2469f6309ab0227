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
//! [`Column`], and of its five duties (see `store.rs`) it carries out
//! each on whole columns — a candidate is generated in one piece, FPE
//! scoring goes through the process-wide signature cache, a member's or a
//! candidate's values are handed over as one run, and the raw-value frame
//! is the selected columns plus the candidate, copied once.

use crate::error::Result;
use crate::fpe::FpeModel;
use crate::ops::GeneratedFeature;
use crate::store::{ColumnStore, Lineage};
use serde::{DeError, Deserialize, Serialize, Value};
use tabular::{Column, DataFrame, Label};

/// A flat store's candidate — and, once accepted, a subgroup member: the
/// generated column and the lineage it was made from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatCandidate {
    pub(crate) lineage: Lineage,
    pub(crate) feature: GeneratedFeature,
}

/// The in-RAM column store of a flat search: the sanitized base frame,
/// whose column `j` is member 0 of agent `j`'s subgroup, and the members
/// each subgroup accepted since.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EngineState {
    frame: DataFrame,
    /// Per agent, its accepted generated features in acceptance order
    /// (subgroup members `1..`).
    accepted: Vec<Vec<FlatCandidate>>,
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
        let state = EngineState {
            frame: Deserialize::from_value(serde::field(entries, "frame"))?,
            accepted: Deserialize::from_value(serde::field(entries, "accepted"))?,
        };
        let (n_rows, columns) = (state.frame.n_rows(), state.frame.columns());
        if state.accepted.len() != columns.len() || columns.iter().any(|c| c.len() != n_rows) {
            return Err(DeError::new(format!(
                "subgroups do not match the frame's {} columns of {n_rows} rows",
                columns.len()
            )));
        }
        for (agent, members) in state.accepted.iter().enumerate() {
            for (held, member) in (1..).zip(members) {
                state.check_lineage(member, agent, held)?;
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
                let g = &self.accepted[agent][i].feature;
                (&g.column, g.order)
            }
        }
    }

    /// Checks a decoded `candidate` is the feature its lineage describes:
    /// made in subgroup `agent` from two of its first `held` members, with
    /// the name and order the lineage derives and the frame's rows.
    pub(crate) fn check_lineage(
        &self,
        candidate: &FlatCandidate,
        agent: usize,
        held: usize,
    ) -> std::result::Result<(), DeError> {
        let (l, feature) = (candidate.lineage, &candidate.feature);
        let parents_held = l.agent == agent && l.a < held && l.b < held;
        if !parents_held
            || self.describe(l) != (feature.column.name.clone(), feature.order)
            || feature.column.len() != self.n_rows()
        {
            return Err(DeError::new(format!(
                "{}: not the feature its lineage {l:?} describes in subgroup {agent}",
                feature.column.name
            )));
        }
        Ok(())
    }
}

impl ColumnStore for EngineState {
    type Candidate = FlatCandidate;
    type Frame = DataFrame;

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

    /// The selected-feature frame: all original columns plus every
    /// accepted generated column, sharing the base frame's label.
    fn engineered(&self) -> Result<DataFrame> {
        self.raw_frame(None)
    }

    fn accept(&mut self, candidate: FlatCandidate) -> Result<()> {
        self.accepted[candidate.lineage.agent].push(candidate);
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
        let sel = s.engineered().unwrap();
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

        let mut short = s.clone();
        short.accepted[0][0].feature.column.values.pop();
        assert!(EngineState::from_value(&short.to_value()).is_err());

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

        let rejects = |edit: &dyn Fn(&mut FlatCandidate)| {
            let mut bad = s.clone();
            edit(&mut bad.accepted[0][1]);
            EngineState::from_value(&bad.to_value())
                .unwrap_err()
                .to_string()
        };
        // Made in another subgroup, or in none.
        assert!(rejects(&|m| m.lineage.agent = 1).contains("lineage"));
        assert!(rejects(&|m| m.lineage.agent = 9).contains("lineage"));
        // A parent that is not strictly earlier than the member (index 2).
        assert!(rejects(&|m| m.lineage.a = 2).contains("lineage"));
        assert!(rejects(&|m| m.lineage.b = 7).contains("lineage"));
        // A name or an order the lineage does not derive.
        assert!(rejects(&|m| m.feature.column.name.push('x')).contains("describes"));
        assert!(rejects(&|m| m.feature.order = 1).contains("describes"));
    }
}
