//! The search's subgroup ledger and its column-storage seam.
//!
//! The [`Plan`] is the one record of what a search accepted: per agent
//! (one per original feature, paper §II) the subgroup's members — the
//! original, then each accepted generated feature — with their names,
//! orders, [`Lineage`]s and column ids. It names every candidate, fixes
//! the selection order (originals, then accepted features subgroup by
//! subgroup) and checks a decoded lineage; a checkpoint writes it as each
//! subgroup's lineages.
//!
//! A [`SearchStore`] holds column data only, by id: the base columns
//! `0..n`, then each accepted column in acceptance order. It generates a
//! candidate's values and says whether they are degenerate, FPE-scores
//! them, hands over a column's values run by run, builds the raw-value
//! frame of some columns and keeps accepted values as its next column —
//! on flat columns in RAM ([`crate::EngineState`]) or on compressed
//! chunks under a memory budget ([`tabular::ChunkedFrame`]). The
//! driver ([`crate::step`]) carries a [`Candidate`]'s lineage, name and
//! order beside the store's values and never branches on the store.

use crate::error::Result;
use crate::fpe::FpeModel;
use crate::ops::Operator;
use serde::{DeError, Deserialize, Serialize, Value};
use tabular::{DataFrame, Label};

/// What a generated feature is made of: the proposing agent, the operator
/// and two members of that agent's subgroup (a unary operator reads only
/// `a`). Member indices are stable because a subgroup only grows; the
/// feature joins `agent`'s subgroup when it is accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Lineage {
    pub(crate) agent: usize,
    pub(crate) op: Operator,
    pub(crate) a: usize,
    pub(crate) b: usize,
}

/// A generated feature in the driver's hands: its lineage, the name and
/// order the plan gives it, and the values a store `generate`d.
#[derive(Debug)]
pub(crate) struct Candidate<V> {
    pub(crate) lineage: Lineage,
    pub(crate) name: String,
    pub(crate) order: usize,
    pub(crate) values: V,
}

/// One subgroup member: its expression name, composition depth, what it
/// is made of (`None` for the original feature) and its column's id.
#[derive(Debug, Clone)]
struct Member {
    name: String,
    order: usize,
    lineage: Option<Lineage>,
    col: usize,
}

/// The subgroup ledger; see the module docs. Subgroup member 0 is the
/// agent's original feature, members `1..` its accepted generated features
/// in acceptance order.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    subgroups: Vec<Vec<Member>>,
}

impl Plan {
    /// One subgroup per base column, named `names`; base column `j` has id
    /// `j`.
    pub(crate) fn new(names: impl IntoIterator<Item = String>) -> Plan {
        let subgroups = names.into_iter().enumerate().map(|(col, name)| {
            vec![Member {
                name,
                order: 0,
                lineage: None,
                col,
            }]
        });
        Plan {
            subgroups: subgroups.collect(),
        }
    }

    /// Number of agents: one per original feature.
    pub(crate) fn n_agents(&self) -> usize {
        self.subgroups.len()
    }

    /// Members of `agent`'s subgroup (always at least the original).
    pub(crate) fn members(&self, agent: usize) -> usize {
        self.subgroups[agent].len()
    }

    /// Transformation orders of `agent`'s members.
    pub(crate) fn orders(&self, agent: usize) -> impl Iterator<Item = usize> + '_ {
        self.subgroups[agent].iter().map(|m| m.order)
    }

    /// Generated features accepted so far, across subgroups.
    pub(crate) fn n_generated(&self) -> usize {
        self.subgroups.iter().map(|s| s.len() - 1).sum()
    }

    /// Name and order of the feature `lineage` describes — the one place
    /// a generated feature is named (see [`Operator::expression`]) — and
    /// its parents' column ids.
    pub(crate) fn describe(&self, lineage: Lineage) -> ((String, usize), [usize; 2]) {
        let [a, b] = [lineage.a, lineage.b].map(|i| &self.subgroups[lineage.agent][i]);
        let named = lineage
            .op
            .expression((&a.name, a.order), (&b.name, b.order));
        (named, [a.col, b.col])
    }

    /// Checks a decoded lineage was made in subgroup `agent` from two of
    /// its members: all it can get wrong, since the rest is derived.
    pub(crate) fn check(&self, lineage: Lineage, agent: usize) -> std::result::Result<(), DeError> {
        let held = self.subgroups.get(agent).map_or(0, Vec::len);
        if lineage.agent != agent || lineage.a >= held || lineage.b >= held {
            return Err(DeError::new(format!(
                "lineage {lineage:?} is not made in subgroup {agent} from its first {held} members"
            )));
        }
        Ok(())
    }

    /// Adds the feature `lineage` describes, named `name` at `order`, to
    /// its agent's subgroup, as the column with the next id.
    pub(crate) fn accept(&mut self, lineage: Lineage, name: String, order: usize) {
        let col = self.n_agents() + self.n_generated();
        self.subgroups[lineage.agent].push(Member {
            name,
            order,
            lineage: Some(lineage),
            col,
        });
    }

    /// The selected columns as `(id, name)`, in selection order: every
    /// original feature, then the accepted features subgroup by subgroup.
    pub(crate) fn selected(&self) -> impl Iterator<Item = (usize, &str)> + '_ {
        let originals = self.subgroups.iter().map(|s| &s[0]);
        let generated = self.subgroups.iter().flat_map(|s| &s[1..]);
        originals.chain(generated).map(|m| (m.col, m.name.as_str()))
    }

    /// Ids of the selected columns, in selection order.
    pub(crate) fn selected_ids(&self) -> Vec<usize> {
        self.selected().map(|(col, _)| col).collect()
    }

    /// Names of the accepted generated features, subgroup by subgroup.
    pub(crate) fn selected_names(&self) -> Vec<String> {
        let generated = self.selected().skip(self.n_agents());
        generated.map(|(_, name)| name.to_string()).collect()
    }
}

/// A plan is written as each subgroup's lineages: names, orders and column
/// ids follow from them and the base frame.
impl Serialize for Plan {
    fn to_value(&self) -> Value {
        let lineages = |s: &Vec<Member>| s.iter().filter_map(|m| m.lineage).collect::<Vec<_>>();
        let accepted: Vec<Vec<Lineage>> = self.subgroups.iter().map(lineages).collect();
        accepted.to_value()
    }
}

/// Column storage behind a [`crate::step::Search`]; see the module docs.
/// Columns are addressed by id: the base columns `0..n`, then the
/// accepted ones in acceptance order.
pub trait SearchStore {
    /// A candidate's generated values, not (yet) accepted.
    type Values;

    /// Dataset name.
    fn dataset(&self) -> &str;

    /// Rows of every column, fixed for the store's lifetime.
    fn n_rows(&self) -> usize;

    /// The label every column is scored against.
    fn label(&self) -> &Label;

    /// The values of `op` applied to columns `a` and `b` (a unary
    /// operator reads only `a`).
    fn generate(&self, op: Operator, a: usize, b: usize) -> Result<Self::Values>;

    /// Constant or non-finite, hence useless downstream.
    fn is_degenerate(values: &Self::Values) -> bool;

    /// The FPE model's probability that the values make an effective
    /// feature.
    fn fpe_score(&self, fpe: &FpeModel, values: &Self::Values) -> Result<f64>;

    /// Column `col`, handed to `run` run by run in row order.
    fn column_runs(&self, col: usize, run: &mut dyn FnMut(&[f64])) -> Result<()>;

    /// A candidate's values, handed to `run` run by run in row order.
    fn candidate_runs(&self, values: &Self::Values, run: &mut dyn FnMut(&[f64])) -> Result<()>;

    /// Columns `cols`, then the values `extra` under its name, as one
    /// frame — what a model kind that reads raw values scores, and what
    /// the driver's score-cache key addresses.
    fn raw_frame(&self, cols: &[usize], extra: Option<(&str, &Self::Values)>) -> Result<DataFrame>;

    /// Keep `values` as the next column, named `name`.
    fn accept(&mut self, name: &str, values: Self::Values) -> Result<()>;
}

#[cfg(test)]
impl Lineage {
    pub(crate) fn new(agent: usize, op: Operator, a: usize, b: usize) -> Lineage {
        Lineage { agent, op, a, b }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Plan {
        Plan::new(["f0", "f1", "f2"].map(String::from))
    }

    fn accept(plan: &mut Plan, lineage: Lineage) {
        let ((name, order), _) = plan.describe(lineage);
        plan.accept(lineage, name, order);
    }

    /// Acceptances by agents 2, 0, 2 and 1: column ids run in acceptance
    /// order, the selection runs subgroup by subgroup, and each member is
    /// named from its own subgroup's parents.
    #[test]
    fn interleaved_acceptances_keep_ids_in_acceptance_order() {
        let mut plan = plan();
        let sqrt = |agent| Lineage::new(agent, Operator::Sqrt, 0, 0);
        accept(&mut plan, sqrt(2));
        accept(&mut plan, sqrt(0));
        let add = Lineage::new(2, Operator::Add, 1, 0);
        assert_eq!(plan.describe(add), (("(sqrt(f2)+f2)".into(), 2), [3, 2]));
        accept(&mut plan, add);
        accept(&mut plan, sqrt(1));

        let selected: Vec<(usize, &str)> = plan.selected().collect();
        assert_eq!(
            selected,
            [
                (0, "f0"),
                (1, "f1"),
                (2, "f2"),
                (4, "sqrt(f0)"),
                (6, "sqrt(f1)"),
                (3, "sqrt(f2)"),
                (5, "(sqrt(f2)+f2)"),
            ]
        );
        assert_eq!(plan.selected_ids(), [0, 1, 2, 4, 6, 3, 5]);
        assert_eq!(
            plan.selected_names(),
            ["sqrt(f0)", "sqrt(f1)", "sqrt(f2)", "(sqrt(f2)+f2)"]
        );
        assert_eq!(plan.orders(2).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!((plan.n_generated(), plan.members(2)), (4, 3));
        let written = Vec::<Vec<Lineage>>::from_value(&plan.to_value()).unwrap();
        assert_eq!(written, [vec![sqrt(0)], vec![sqrt(1)], vec![sqrt(2), add]]);
    }

    /// A decoded lineage must be made in the subgroup it is listed in, and
    /// from members that subgroup already holds.
    #[test]
    fn check_rejects_a_member_its_lineage_does_not_describe() {
        let mut plan = plan();
        let sqrt = Lineage::new(0, Operator::Sqrt, 0, 0);
        accept(&mut plan, sqrt);
        let second = Lineage { a: 1, ..sqrt };
        assert!(plan.check(second, 0).is_ok());
        let rejects = |l: Lineage, agent: usize| plan.check(l, agent).unwrap_err().to_string();
        // Made in another subgroup, or in none.
        assert!(rejects(Lineage { agent: 1, ..second }, 0).contains("lineage"));
        assert!(rejects(second, 1).contains("lineage"));
        assert!(rejects(Lineage { agent: 9, ..second }, 9).contains("lineage"));
        // A parent the subgroup does not hold yet: not strictly earlier
        // than the member (index 2) it would make.
        assert!(rejects(Lineage { a: 2, ..second }, 0).contains("lineage"));
        assert!(rejects(Lineage { b: 7, ..second }, 0).contains("lineage"));
    }
}
