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
//!
//! Only a selection keeps bins in the process-wide bin cache: a column
//! that joins one ([`Selection::push`], [`Selection::insert`]) is cached,
//! while a candidate's bins are read from the cache when it holds them
//! and otherwise built for the candidate alone. The selection holds the
//! last candidate scored against it ([`Selection::hold_candidate`]), so
//! accepting that candidate moves its digest and bins in; a rejected
//! candidate's bins leave with it.

use crate::binned::{cached_bins, keep_bins, BinnedColumn};
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
    /// The column `name` whose values digest to `digest`, not binned.
    pub fn unbinned(name: &str, digest: Fingerprint) -> Self {
        SelectedColumn {
            name: name.to_string(),
            digest,
            bins: None,
        }
    }

    /// This column binned under `bin_budget`: unchanged when it has bins
    /// or `bin_budget` is `None`, else with the bin cache's bins, or with
    /// `build(max_bins)`'s on a cache miss. The cache does not keep what
    /// `build` made; a [`Selection`] the column joins does.
    pub fn binned<E>(
        mut self,
        bin_budget: Option<usize>,
        build: impl FnOnce(usize) -> Result<BinnedColumn, E>,
    ) -> Result<Self, E> {
        if let (Some(max_bins), None) = (bin_budget, &self.bins) {
            self.bins = Some(cached_bins(self.digest, max_bins, || build(max_bins))?);
        }
        Ok(self)
    }

    /// [`unbinned`](Self::unbinned) and then [`binned`](Self::binned),
    /// for a column held in one piece.
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
        let column = Self::unbinned(name, digest).binned(bin_budget, |max_bins| {
            Ok::<_, std::convert::Infallible>(BinnedColumn::build(values, max_bins))
        });
        match column {
            Ok(column) => column,
            Err(never) => match never {},
        }
    }

    /// The column's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The digest of the column's values.
    pub fn digest(&self) -> Fingerprint {
        self.digest
    }

    /// The column's bins, when it is binned.
    pub fn bins(&self) -> Option<&Arc<BinnedColumn>> {
        self.bins.as_ref()
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
    /// The last candidate scored against the selection; see
    /// [`hold_candidate`](Self::hold_candidate).
    candidate: Option<SelectedColumn>,
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
            candidate: None,
        }
    }

    /// The bin budget the columns are binned under (`None`: no bins).
    pub fn bin_budget(&self) -> Option<usize> {
        self.bin_budget
    }

    /// The selected columns, in selection order.
    pub fn columns(&self) -> &[SelectedColumn] {
        &self.columns
    }

    /// Append a column, keeping its bins in the bin cache.
    pub fn push(&mut self, column: SelectedColumn) {
        self.keep(&column);
        self.key.push(&column.name, column.digest);
        self.columns.push(column);
    }

    /// Insert a column at position `at`, keeping its bins in the bin
    /// cache and recombining the key state from the stored digests.
    pub fn insert(&mut self, at: usize, column: SelectedColumn) {
        self.keep(&column);
        self.columns.insert(at, column);
        let mut key = self.head.clone();
        for c in &self.columns {
            key.push(&c.name, c.digest);
        }
        self.key = key;
    }

    /// Cache the bins of `column`, which joins the selection.
    fn keep(&self, column: &SelectedColumn) {
        debug_assert_eq!(
            column.bins.is_some(),
            self.bin_budget.is_some(),
            "a selected column is binned exactly when the selection is"
        );
        if let (Some(max_bins), Some(bins)) = (self.bin_budget, &column.bins) {
            keep_bins(column.digest, max_bins, bins);
        }
    }

    /// Hold `column`, the candidate just scored against the selection
    /// (binned when its score was computed, unbinned when the score
    /// cache had it), in place of the one held before, so that accepting
    /// it takes it back ([`take_candidate`](Self::take_candidate)) instead
    /// of digesting and binning it again.
    pub fn hold_candidate(&mut self, column: SelectedColumn) {
        self.candidate = Some(column);
    }

    /// The held candidate, if any, which the selection then holds no more.
    pub fn take_candidate(&mut self) -> Option<SelectedColumn> {
        self.candidate.take()
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
