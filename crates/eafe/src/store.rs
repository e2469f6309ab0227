//! The column-storage seam of the search driver.
//!
//! [`crate::step`] writes Algorithm 2 once, generic over a
//! [`ColumnStore`]: the in-RAM [`crate::EngineState`] (every column a flat
//! `Vec<f64>`) or the out-of-core [`crate::chunked::ChunkedStore`]
//! (compressed chunks under a memory budget). The caller picks the store
//! by the frame type it hands to [`crate::Engine::start`] or
//! [`crate::Engine::start_chunked`]; the driver never branches on it.
//!
//! A store owns the column data and nothing else. It answers a small
//! bookkeeping view — how many agents, how many members a subgroup has,
//! a member's name and order, the label — and carries out the four
//! duties that genuinely differ between the two layouts:
//!
//! 1. **generate** the candidate a [`Lineage`] describes, with its name,
//!    order and whether it is degenerate;
//! 2. **FPE-score** a candidate;
//! 3. **hand over columns**: a member's or a candidate's values run by
//!    run, and the raw-value frame of the selection (plus a candidate);
//! 4. **accept** a candidate into its proposing agent's subgroup.
//!
//! A search remembers a feature by its lineage alone: the replay buffer
//! and a checkpoint hold lineages, and `generate` makes the values again
//! wherever they are needed. Downstream evaluation is the driver's: it
//! keeps the selection's key state, digests and bins, probes the score
//! cache, bins a candidate from its runs and asks for a raw-value frame
//! only for a model kind that reads raw values. Scores, policies, RNG
//! streams, the replay buffer, counters and the phase machine are the
//! driver's too and exist once.

use crate::error::Result;
use crate::fpe::FpeModel;
use crate::ops::Operator;
use serde::{DeError, Deserialize, Serialize};
use tabular::{DataFrame, Label};

/// What a generated feature is made of: the proposing agent, the operator
/// and two members of that agent's subgroup (a unary operator reads only
/// `a`). Member indices are stable because a subgroup only grows; the
/// feature joins `agent`'s subgroup when it is accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lineage {
    pub(crate) agent: usize,
    pub(crate) op: Operator,
    pub(crate) a: usize,
    pub(crate) b: usize,
}

/// Column storage behind a [`crate::step::Search`]; see the module docs.
/// Subgroup member 0 is the agent's original feature (order 0), members
/// `1..` its accepted generated features in acceptance order.
pub trait ColumnStore {
    /// A generated feature that has not been accepted (yet).
    type Candidate;

    /// Dataset name.
    fn dataset(&self) -> &str;

    /// Rows of every column, fixed for the store's lifetime.
    fn n_rows(&self) -> usize;

    /// Number of agents: one per original feature.
    fn n_agents(&self) -> usize;

    /// Members of `agent`'s subgroup (always at least the original).
    fn members(&self, agent: usize) -> usize;

    /// Expression name and transformation order of one subgroup member.
    fn member(&self, agent: usize, idx: usize) -> (&str, usize);

    /// The label every column is scored against.
    fn label(&self) -> &Label;

    /// Duty 1: the candidate `lineage` describes, named by
    /// [`describe`](ColumnStore::describe).
    fn generate(&self, lineage: Lineage) -> Result<Self::Candidate>;

    /// Name and order of the feature `lineage` describes — the one place
    /// a generated feature is named (see [`Operator::expression`]).
    fn describe(&self, lineage: Lineage) -> (String, usize) {
        let parent = |idx| self.member(lineage.agent, idx);
        lineage.op.expression(parent(lineage.a), parent(lineage.b))
    }

    /// What a candidate is made of.
    fn lineage(candidate: &Self::Candidate) -> Lineage;

    /// A candidate's expression name.
    fn name(candidate: &Self::Candidate) -> &str;

    /// A candidate's transformation order.
    fn order(candidate: &Self::Candidate) -> usize;

    /// Duty 1: constant or non-finite, hence useless downstream.
    fn is_degenerate(candidate: &Self::Candidate) -> bool;

    /// Duty 2: the FPE model's probability that the candidate is effective.
    fn fpe_score(&self, fpe: &FpeModel, candidate: &Self::Candidate) -> Result<f64>;

    /// Duty 3: member `idx` of `agent`'s subgroup, handed to `run` run by
    /// run in row order.
    fn member_runs(&self, agent: usize, idx: usize, run: &mut dyn FnMut(&[f64])) -> Result<()>;

    /// Duty 3: `candidate`'s values, handed to `run` run by run in row
    /// order.
    fn candidate_runs(
        &self,
        candidate: &Self::Candidate,
        run: &mut dyn FnMut(&[f64]),
    ) -> Result<()>;

    /// Duty 3: the selected columns, then `extra`, as one frame — what a
    /// model kind that reads raw values scores, and what the driver's
    /// score-cache key addresses.
    fn raw_frame(&self, extra: Option<&Self::Candidate>) -> Result<DataFrame>;

    /// Duty 4: add `candidate` to its lineage's agent's subgroup.
    fn accept(&mut self, candidate: Self::Candidate) -> Result<()>;

    /// The selected columns as `(agent, member)`, in selection order:
    /// every original feature, then the accepted features subgroup by
    /// subgroup.
    fn selected(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.n_agents();
        let generated = (0..n).flat_map(move |j| (1..self.members(j)).map(move |i| (j, i)));
        (0..n).map(|j| (j, 0)).chain(generated)
    }

    /// Generated features accepted so far, across subgroups.
    fn n_generated(&self) -> usize {
        (0..self.n_agents()).map(|j| self.members(j) - 1).sum()
    }

    /// Names of the accepted generated features, subgroup by subgroup.
    fn selected_names(&self) -> Vec<String> {
        self.selected()
            .skip(self.n_agents())
            .map(|(j, i)| self.member(j, i).0.to_string())
            .collect()
    }
}

impl Lineage {
    /// Checks a decoded lineage was made in subgroup `agent` from two of its
    /// first `held` members: all it can get wrong, since the rest is derived.
    pub(crate) fn check(self, agent: usize, held: usize) -> std::result::Result<(), DeError> {
        if self.agent != agent || self.a >= held || self.b >= held {
            return Err(DeError::new(format!(
                "lineage {self:?} is not made in subgroup {agent} from its first {held} members"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
impl Lineage {
    pub(crate) fn new(agent: usize, op: Operator, a: usize, b: usize) -> Lineage {
        Lineage { agent, op, a, b }
    }
}
