//! What a search scores its candidates against: the selected columns'
//! score-cache key state, value digests and bins — never their values.
//!
//! A search evaluates the same selection extended by one candidate column
//! hundreds of times between two acceptances. A [`Selection`] holds what
//! those evaluations share: the [`KeyPrefix`] after every selected column
//! (so a cache probe digests only the candidate), and each column's digest
//! and, when the scorer trains a binned forest, its [`BinnedColumn`] (so a
//! miss bins only the candidate). An acceptance inserts one column and
//! recombines the key from the stored digests; nothing is read twice.

use crate::binned::{cached_bins, BinnedColumn};
use crate::cv::Evaluator;
use crate::error::LearnError;
use runtime::{fingerprint_values, Fingerprint, KeyPrefix};
use std::borrow::Borrow;
use std::sync::Arc;
use tabular::{DataFrame, Label};

/// One selected (or candidate) column as an evaluation reads it.
#[derive(Debug, Clone)]
pub struct SelectedColumn {
    /// Column name — part of the score-cache key.
    name: String,
    /// Digest of the values ([`runtime::ColumnDigest`]): the column's
    /// score-cache and bin-cache identity.
    digest: Fingerprint,
    /// The bins under the scorer's [`Evaluator::bin_budget`], when it has
    /// one.
    bins: Option<Arc<BinnedColumn>>,
}

impl SelectedColumn {
    /// A column whose values digest to `digest`, binned through the bin
    /// cache under `bin_budget` — by `build(max_bins)` on a cache miss —
    /// or not binned when `bin_budget` is `None`.
    pub fn new<E>(
        name: &str,
        digest: Fingerprint,
        bin_budget: Option<usize>,
        build: impl FnOnce(usize) -> Result<BinnedColumn, E>,
    ) -> Result<Self, E> {
        let bins = match bin_budget {
            Some(max_bins) => Some(cached_bins(digest, max_bins, || build(max_bins))?),
            None => None,
        };
        Ok(SelectedColumn {
            name: name.to_string(),
            digest,
            bins,
        })
    }

    /// [`new`](Self::new) for a column held in one piece.
    pub fn of_values(name: &str, values: &[f64], bin_budget: Option<usize>) -> Self {
        Self::with_digest(name, values, fingerprint_values(values), bin_budget)
    }

    /// [`of_values`](Self::of_values) for a caller that digested `values`
    /// already.
    pub fn with_digest(
        name: &str,
        values: &[f64],
        digest: Fingerprint,
        bin_budget: Option<usize>,
    ) -> Self {
        let column = Self::new(name, digest, bin_budget, |max_bins| {
            Ok::<_, std::convert::Infallible>(BinnedColumn::build(values, max_bins))
        });
        match column {
            Ok(column) => column,
            Err(never) => match never {},
        }
    }
}

/// The selected columns of a search, in selection order, as key state,
/// digests and bins; see the module docs.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Key state after the dataset name, row count and label.
    head: KeyPrefix,
    columns: Vec<SelectedColumn>,
    /// `head` extended by every column, in order.
    key: KeyPrefix,
    /// The bin budget every column's bins are built under, if binned.
    bin_budget: Option<usize>,
}

impl Selection {
    /// The empty selection of a dataset called `dataset` with `n_rows`
    /// rows and `label` (digested here, once), whose columns will be
    /// binned under `bin_budget` (not at all when `None`).
    pub fn new(dataset: &str, n_rows: usize, label: &Label, bin_budget: Option<usize>) -> Self {
        let head = KeyPrefix::new(dataset, n_rows, label);
        Selection {
            key: head.clone(),
            head,
            columns: Vec::new(),
            bin_budget,
        }
    }

    /// The bin budget the columns are binned under (`None`: no bins).
    pub fn bin_budget(&self) -> Option<usize> {
        self.bin_budget
    }

    /// Append a column.
    pub fn push(&mut self, column: SelectedColumn) {
        self.key.push(&column.name, column.digest);
        self.columns.push(column);
    }

    /// Insert a column at position `at`, recombining the key state from
    /// the stored digests.
    pub fn insert(&mut self, at: usize, column: SelectedColumn) {
        self.columns.insert(at, column);
        let mut key = self.head.clone();
        for c in &self.columns {
            key.push(&c.name, c.digest);
        }
        self.key = key;
    }

    /// Key state of the selection — with a scorer's config digest, the
    /// cache key of the frame it describes.
    pub fn key(&self) -> &KeyPrefix {
        &self.key
    }

    /// Key state of the selection extended by a column `name` whose
    /// values digest to `digest`.
    pub fn extended_key(&self, name: &str, digest: Fingerprint) -> KeyPrefix {
        let mut key = self.key.clone();
        key.push(name, digest);
        key
    }

    /// The rank identities (the digests of the bin codes) of every
    /// selected column and then `extra`'s, digested in that order, or
    /// `None` when a column has no bins. A binned forest reads a column
    /// only through its bin codes, so for one dataset, label and scorer,
    /// two extensions with equal rank keys score equally bit for bit.
    pub fn rank_key(&self, extra: &SelectedColumn) -> Option<Fingerprint> {
        let mut h = runtime::Hasher128::new();
        h.write_str("learners::Selection::rank_key");
        for c in self.columns.iter().chain(Some(extra)) {
            h.write_u128(c.bins.as_ref()?.rank_identity().0);
        }
        Some(h.finish())
    }

    /// The bins of every selected column and then `extra`'s, or `None`
    /// when a column was selected without bins.
    fn bins(&self, extra: Option<&SelectedColumn>) -> Option<Vec<Arc<BinnedColumn>>> {
        self.columns
            .iter()
            .chain(extra)
            .map(|c| c.bins.clone())
            .collect()
    }
}

impl Evaluator {
    /// Score `selection` extended by `extra` (the selection alone when
    /// `None`; binned under the selection's budget) for `label`. A kind
    /// whose [`bin_budget`](Self::bin_budget) the selection was binned
    /// under reads the columns' bins
    /// (`evaluate_binned`) and no frame exists;
    /// otherwise this scores the frame `frame` builds, counted under
    /// `eval.frames_built`.
    pub fn evaluate_selection<D, E>(
        &self,
        selection: &Selection,
        extra: Option<&SelectedColumn>,
        label: &Label,
        frame: impl FnOnce() -> Result<D, E>,
    ) -> Result<f64, E>
    where
        D: Borrow<DataFrame>,
        E: From<LearnError>,
    {
        let bins = self
            .bin_budget(label.task())
            .filter(|&budget| selection.bin_budget == Some(budget))
            .and_then(|_| selection.bins(extra));
        match bins {
            Some(bins) => Ok(self.evaluate_binned(&bins, label)?),
            None => {
                let frame = frame()?;
                telemetry::count("eval.frames_built", 1);
                Ok(self.evaluate(frame.borrow())?)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelKind;
    use tabular::{Column, SynthSpec, Task};

    fn frame(task: Task) -> DataFrame {
        SynthSpec::new("selection", 120, 4, task)
            .with_seed(3)
            .generate()
            .unwrap()
    }

    fn selection_of(frame: &DataFrame, budget: Option<usize>) -> Selection {
        let mut selection = Selection::new(&frame.name, frame.n_rows(), frame.label(), budget);
        for c in frame.columns() {
            selection.push(SelectedColumn::of_values(&c.name, &c.values, budget));
        }
        selection
    }

    /// The selection's bins score exactly as the frame does, for every
    /// kind, and an inserted column recombines to the key a selection
    /// pushed in that order has.
    #[test]
    fn a_selection_scores_and_keys_as_its_frame() {
        for task in [Task::Classification, Task::Regression] {
            let frame = frame(task);
            let extra = Column::new(
                "extra",
                frame.columns()[0].values.iter().map(|v| v * 3.0).collect(),
            );
            let whole = frame
                .with_extra_columns(std::slice::from_ref(&extra))
                .unwrap();
            for kind in [
                ModelKind::RandomForest,
                ModelKind::Svm,
                ModelKind::NaiveBayesGp,
            ] {
                let e = Evaluator::with_kind(kind);
                let budget = e.bin_budget(task);
                let selection = selection_of(&frame, budget);
                let candidate = SelectedColumn::of_values(&extra.name, &extra.values, budget);
                let mut built = 0;
                let score = e
                    .evaluate_selection(&selection, Some(&candidate), frame.label(), || {
                        built += 1;
                        Ok::<_, LearnError>(whole.clone())
                    })
                    .unwrap();
                assert_eq!(
                    score.to_bits(),
                    e.evaluate(&whole).unwrap().to_bits(),
                    "{kind:?}"
                );
                assert_eq!(built, usize::from(budget.is_none()), "{kind:?} {task:?}");
            }
            let mut inserted = selection_of(&frame, None);
            inserted.insert(
                1,
                SelectedColumn::of_values(&extra.name, &extra.values, None),
            );
            let mut pushed = Selection::new(&frame.name, frame.n_rows(), frame.label(), None);
            let mut columns: Vec<&Column> = frame.columns().iter().collect();
            columns.insert(1, &extra);
            for c in columns {
                pushed.push(SelectedColumn::of_values(&c.name, &c.values, None));
            }
            let keys = runtime::Evaluator::new(Evaluator::default());
            assert_eq!(keys.key_of(inserted.key()), keys.key_of(pushed.key()));
            let extended = selection_of(&frame, None)
                .extended_key(&extra.name, fingerprint_values(&extra.values));
            assert_eq!(keys.key_of(&extended), keys.cache_key(&whole));
        }
    }
}
