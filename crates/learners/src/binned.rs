//! Histogram binning for tree training — bin once, train everywhere.
//!
//! A textbook CART splitter re-sorts every candidate feature at every node
//! (`O(n log n)` per feature per node). The tree builder instead
//! quantises each feature **once** into at most [`TreeConfig::max_bins`]
//! quantile bins ([`BinnedColumn`]: per-row bin codes plus the boundary
//! thresholds on the original value scale) and finds node splits with a
//! single `O(n_rows)` histogram-accumulation pass per feature plus an
//! `O(n_bins)` scan. A [`BinnedDataset`] is built one time per
//! (dataset, feature-set) and shared — across every tree of a forest,
//! every fold of a cross-validation, and (through the content-addressed
//! bin cache) every downstream evaluation that sees
//! the same column content again.
//!
//! Bin-edge scheme: when a column has at most `max_bins` distinct values
//! it gets **one bin per distinct value** with boundaries at the midpoints
//! between adjacent distinct values — split enumeration is then exactly
//! a sorted scan's, so histogram training reproduces exact CART's splits
//! bit-for-bit on classification (Gini is computed from the same integer
//! counts; `tests/hist_parity.rs`). Wider columns get quantile cuts:
//! boundary candidates at ranks `b·n/max_bins`, dropped when they fall
//! inside a run of equal values, so duplicate-heavy columns spend their
//! bin budget on the values that actually vary.
//!
//! [`TreeConfig::max_bins`]: crate::tree::TreeConfig

use crate::error::{LearnError, Result};
use runtime::{fingerprint_values, Fingerprint, Hasher128, ScoreCache, WorkerPool};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// How a tree enumerates candidate splits. There is one way; the enum
/// and [`TreeConfig::split`](crate::TreeConfig::split) survive only
/// because `benchmark/src/inputs.rs` (which PRs may not edit) assigns
/// `SplitMethod::Histogram` — ROADMAP 5(e) deletes both. The exact
/// sort-and-scan finder this used to select is the test oracle
/// `tests/support/exact_cart.rs`; a checkpoint naming it no longer
/// deserialises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SplitMethod {
    /// Quantile-bin every feature once, then find splits by histogram
    /// accumulation (LightGBM-style, with sibling subtraction).
    Histogram,
}

/// Default per-feature bin budget: 255 boundaries fit `u8` codes, which
/// keeps a 10k-row column's codes in ~10 KB and a node histogram scan in
/// L1 cache.
pub const DEFAULT_MAX_BINS: usize = 256;

/// Hard ceiling on `max_bins` (codes are at most `u16`).
pub(crate) const MAX_BINS_LIMIT: usize = 65_536;

/// Per-row bin codes, sized to the bin count.
#[derive(Debug, Clone, PartialEq)]
pub enum BinCodes {
    /// Up to 256 bins.
    U8(Vec<u8>),
    /// Up to 65 536 bins.
    U16(Vec<u16>),
}

impl BinCodes {
    /// Bin code of one row.
    #[inline]
    pub fn get(&self, row: usize) -> usize {
        match self {
            BinCodes::U8(c) => c[row] as usize,
            BinCodes::U16(c) => c[row] as usize,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            BinCodes::U8(c) => c.len(),
            BinCodes::U16(c) => c.len(),
        }
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One feature column quantised into bins.
///
/// Row `r` lies in bin `codes[r]`; boundary `b` (for `b` in
/// `0..n_bins()-1`) separates bins `..=b` from `b+1..` at
/// `threshold(b)` on the original value scale: every value encoded into
/// bins `..=b` satisfies `v <= threshold(b)` and every value in bins
/// `b+1..` satisfies `v > threshold(b)`, so a fitted split predicts
/// consistently from raw values.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedColumn {
    codes: BinCodes,
    /// Boundary thresholds, ascending; `len = n_bins - 1`.
    thresholds: Vec<f64>,
    /// Rows whose value is NaN, ascending (almost always none).
    nan_rows: Vec<usize>,
    rank_identity: Fingerprint,
}

impl BinnedColumn {
    /// Quantile-bin one column into at most `max_bins` bins.
    pub fn build(values: &[f64], max_bins: usize) -> BinnedColumn {
        let one_run = |run: &mut dyn FnMut(&[f64])| {
            run(values);
            Ok::<(), std::convert::Infallible>(())
        };
        match Self::build_from_runs(values.len(), max_bins, one_run) {
            Ok(col) => col,
            Err(never) => match never {},
        }
    }

    /// [`build`](Self::build) on a column of `n_rows` values that `runs`
    /// hands over run by run, in row order — chunk by chunk, say. `runs`
    /// is called twice (once to sort, once to encode), so the only flat
    /// copy is the sort buffer.
    pub fn build_from_runs<E>(
        n_rows: usize,
        max_bins: usize,
        mut runs: impl FnMut(&mut dyn FnMut(&[f64])) -> std::result::Result<(), E>,
    ) -> std::result::Result<BinnedColumn, E> {
        debug_assert!((2..=MAX_BINS_LIMIT).contains(&max_bins));
        // Values equal under `total_cmp` are bit-equal, so sorting their
        // total-order keys yields the very sequence `sort_by(total_cmp)`
        // does, at integer-sort speed.
        let mut keys = Vec::with_capacity(n_rows);
        runs(&mut |run| keys.extend(run.iter().map(|&v| total_order_key(v))))?;
        keys.sort_unstable();
        let sorted: Vec<f64> = keys.into_iter().map(from_total_order_key).collect();
        let thresholds = thresholds_from_sorted(&sorted, max_bins);
        drop(sorted);
        let n_bins = thresholds.len() + 1;
        let encode = |v: f64| thresholds.partition_point(|&t| t < v);
        let mut nan_rows = Vec::new();
        let mut row = 0;
        let mut note_nan = |v: f64| {
            if v.is_nan() {
                nan_rows.push(row);
            }
            row += 1;
        };
        let codes = if n_bins <= 256 {
            let mut codes = Vec::with_capacity(n_rows);
            runs(&mut |run| {
                codes.extend(run.iter().map(|&v| {
                    note_nan(v);
                    encode(v) as u8
                }))
            })?;
            BinCodes::U8(codes)
        } else {
            let mut codes = Vec::with_capacity(n_rows);
            runs(&mut |run| {
                codes.extend(run.iter().map(|&v| {
                    note_nan(v);
                    encode(v) as u16
                }))
            })?;
            BinCodes::U16(codes)
        };
        debug_assert_eq!(row, n_rows, "runs must cover the column's rows");
        let mut id = Hasher128::new();
        id.write_str("learners::rank_identity");
        id.write_u64(n_bins as u64);
        id.write_u64(row as u64);
        // A -inf minimum makes boundary 0 `midpoint(-inf, _)` = NaN, the one
        // threshold that trains as `code <= 0` yet sends every row right.
        id.write_byte(u8::from(thresholds.first().is_some_and(|t| t.is_nan())));
        match &codes {
            BinCodes::U8(codes) => id.write_bytes(codes),
            BinCodes::U16(codes) => codes.iter().for_each(|c| id.write_bytes(&c.to_le_bytes())),
        }
        // A NaN row is the one place a raw value leaks past its code: it
        // trains in bin 0 (`t < NaN` is false) yet predicts right of every
        // split (`NaN <= t` is false too), unlike a finite bin-0 value.
        for &r in &nan_rows {
            id.write_u64(r as u64);
        }
        Ok(BinnedColumn {
            codes,
            thresholds,
            nan_rows,
            rank_identity: id.finish(),
        })
    }

    /// Number of bins (≥ 1; a constant column has exactly one).
    pub fn n_bins(&self) -> usize {
        self.thresholds.len() + 1
    }

    /// Value-scale threshold of boundary `b` (splitting bins `..=b` from
    /// the rest).
    pub fn threshold(&self, b: usize) -> f64 {
        self.thresholds[b]
    }

    /// The per-row bin codes.
    pub fn codes(&self) -> &BinCodes {
        &self.codes
    }

    /// Rows whose value is NaN, ascending.
    pub(crate) fn nan_rows(&self) -> &[usize] {
        &self.nan_rows
    }

    /// Digest of everything a histogram forest can read of this column:
    /// the bin count, every row's code and which rows are NaN. Training
    /// reads codes alone, and predicting a row of the column the bins were
    /// built from compares `v <= threshold(b)`, which for a non-NaN `v` is
    /// `code <= b` — so columns with equal identities (a feature and any
    /// strictly increasing transform of it that keeps its distinct values
    /// distinct) are the same column to a forest.
    pub(crate) fn rank_identity(&self) -> Fingerprint {
        self.rank_identity
    }
}

/// Bin boundaries from a `total_cmp`-sorted value slice: one bin per
/// distinct value when they fit the budget, else quantile cuts at ranks
/// `b·n/max_bins` (cuts inside a run of equal values are dropped rather
/// than duplicated, so heavy duplicates don't waste boundaries).
fn thresholds_from_sorted(sorted: &[f64], max_bins: usize) -> Vec<f64> {
    let n = sorted.len();
    let mut distinct = usize::from(n > 0);
    for i in 1..n {
        if sorted[i] > sorted[i - 1] {
            distinct += 1;
        }
    }
    let mut thresholds = Vec::new();
    if distinct <= max_bins {
        // One bin per distinct value: boundaries at every adjacent
        // distinct pair, exactly the cut points the sorted scan sees.
        for i in 1..n {
            if sorted[i] > sorted[i - 1] {
                thresholds.push(midpoint(sorted[i - 1], sorted[i]));
            }
        }
    } else {
        for b in 1..max_bins {
            let r = b * n / max_bins;
            let (lo, hi) = (sorted[r - 1], sorted[r]);
            if hi > lo {
                let t = midpoint(lo, hi);
                if thresholds.last() != Some(&t) {
                    thresholds.push(t);
                }
            }
        }
    }
    thresholds
}

/// The boundary between adjacent sorted values `a < b`. Finite values
/// more than `f64::MAX` apart overflow `b - a`, so they halve first — the
/// boundaries stay ascending. A `-inf` minimum keeps its NaN boundary (see
/// [`BinnedColumn::rank_identity`]).
fn midpoint(a: f64, b: f64) -> f64 {
    let half_gap = (b - a) / 2.0;
    if half_gap.is_infinite() && a.is_finite() && b.is_finite() {
        a / 2.0 + b / 2.0
    } else {
        a + half_gap
    }
}

/// A key whose unsigned order is `f64::total_cmp`'s: negative values
/// flip every bit, the rest flip the sign bit.
fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

fn from_total_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// A whole feature matrix quantised column by column. Columns are
/// individually reference-counted so overlapping feature sets can share
/// them through the bin cache.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    columns: Vec<Arc<BinnedColumn>>,
    n_rows: usize,
}

impl BinnedDataset {
    /// Bin a column-major feature matrix, bypassing the cache.
    pub fn build(x: &[Vec<f64>], max_bins: usize) -> Result<BinnedDataset> {
        Self::from_slices(&x.iter().map(Vec::as_slice).collect::<Vec<_>>(), max_bins)
    }

    /// Bin column slices, bypassing the cache.
    pub(crate) fn from_slices(cols: &[&[f64]], max_bins: usize) -> Result<BinnedDataset> {
        validate_cols(cols, max_bins)?;
        Ok(BinnedDataset {
            columns: cols
                .iter()
                .map(|c| Arc::new(BinnedColumn::build(c, max_bins)))
                .collect(),
            n_rows: cols[0].len(),
        })
    }

    /// Bin a column-major feature matrix through the process-wide bin
    /// cache: a column whose (content, `max_bins`) was binned before — by
    /// any tree, forest, fold, or evaluation — is reused instead of
    /// re-binned.
    pub(crate) fn build_cached(x: &[Vec<f64>], max_bins: usize) -> Result<BinnedDataset> {
        Self::from_slices_cached(&x.iter().map(Vec::as_slice).collect::<Vec<_>>(), max_bins)
    }

    /// Cached variant of [`BinnedDataset::from_slices`], for a caller that
    /// holds the columns but not their digests.
    ///
    /// Nearly all of it is hashing each column's content for its cache
    /// key (a search re-evaluates frames that differ by one column, so
    /// at most a column or two miss) — the hashing goes column-parallel
    /// under the histogram batch grain. The cache is then probed, and
    /// filled, in column order on the calling thread, so the dataset and
    /// the reuse tallies do not depend on the thread count.
    pub(crate) fn from_slices_cached(cols: &[&[f64]], max_bins: usize) -> Result<BinnedDataset> {
        validate_cols(cols, max_bins)?;
        let n_rows = cols[0].len();
        let digests = map_batch(cols.to_vec(), n_rows, fingerprint_values);
        let columns = cols
            .iter()
            .zip(digests)
            .map(|(c, digest)| {
                cached_bins(digest, max_bins, || Ok(BinnedColumn::build(c, max_bins)))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(BinnedDataset { columns, n_rows })
    }

    /// A dataset of already-binned columns, which must agree on the row
    /// count — what an evaluation that keeps its columns' bins hands the
    /// forests.
    pub(crate) fn from_columns(columns: Vec<Arc<BinnedColumn>>) -> Result<BinnedDataset> {
        let n_rows = match columns.first() {
            Some(c) if !c.codes.is_empty() => c.codes.len(),
            _ => return Err(LearnError::EmptyTrainingSet("binned dataset".into())),
        };
        if let Some(c) = columns.iter().find(|c| c.codes.len() != n_rows) {
            return Err(LearnError::InvalidParam(format!(
                "binned column length {} != {n_rows}",
                c.codes.len()
            )));
        }
        Ok(BinnedDataset { columns, n_rows })
    }

    /// Number of rows every column covers.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// One binned column.
    pub fn column(&self, f: usize) -> &BinnedColumn {
        &self.columns[f]
    }
}

fn validate_cols(cols: &[&[f64]], max_bins: usize) -> Result<()> {
    if !(2..=MAX_BINS_LIMIT).contains(&max_bins) {
        return Err(LearnError::InvalidParam(format!(
            "max_bins must be in 2..={MAX_BINS_LIMIT}, got {max_bins}"
        )));
    }
    if cols.is_empty() || cols[0].is_empty() {
        return Err(LearnError::EmptyTrainingSet("binned dataset".into()));
    }
    let n = cols[0].len();
    for c in cols {
        if c.len() != n {
            return Err(LearnError::InvalidParam(format!(
                "binned column length {} != {n}",
                c.len()
            )));
        }
    }
    Ok(())
}

/// Capacity of the process-wide bin cache. Entries are per-column
/// (codes + thresholds, roughly 1–2 bytes per row), so even at paper
/// scale the cache stays in the tens of megabytes.
pub(crate) const BIN_CACHE_CAPACITY: usize = 8_192;

fn bin_cache() -> &'static ScoreCache<Arc<BinnedColumn>> {
    static CACHE: OnceLock<ScoreCache<Arc<BinnedColumn>>> = OnceLock::new();
    CACHE.get_or_init(|| ScoreCache::new(BIN_CACHE_CAPACITY))
}

/// The bins of the column whose values digest to `digest`
/// ([`runtime::fingerprint_values`]) under `max_bins`: from the
/// process-wide bin cache, or made by `build` and cached. The probe for a
/// caller that already holds the digest — a search keys its score cache
/// by it — so nothing is hashed twice.
pub(crate) fn cached_bins<E>(
    digest: Fingerprint,
    max_bins: usize,
    build: impl FnOnce() -> std::result::Result<BinnedColumn, E>,
) -> std::result::Result<Arc<BinnedColumn>, E> {
    let mut h = Hasher128::new();
    h.write_str("learners::BinnedColumn");
    h.write_u64(max_bins as u64);
    h.write_u128(digest.0);
    let key = h.finish();
    let cache = bin_cache();
    if let Some(hit) = cache.get(key) {
        telemetry::count("binned.columns_reused", 1);
        return Ok(hit);
    }
    let built = Arc::new(build()?);
    telemetry::count("binned.columns_built", 1);
    cache.insert(key, Arc::clone(&built));
    Ok(built)
}

// ---------------------------------------------------------------------
// Histogram accumulation — the inner loop of binned split finding.
// ---------------------------------------------------------------------

/// One bin of a regression histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct RegBin {
    /// Rows in the bin.
    pub(crate) n: u32,
    /// Sum of targets.
    pub(crate) sum: f64,
    /// Sum of squared targets.
    pub(crate) sumsq: f64,
}

/// Accumulate per-bin class counts into `out` (`out[bin * n_classes +
/// class]`, cleared first) for a node given in *node order*: `y[i]` is the
/// class of `rows[i]`. One `O(rows)` pass that reads rows and labels
/// sequentially and only the bin codes at random.
pub(crate) fn accumulate_class_node(
    col: &BinnedColumn,
    rows: &[u32],
    y: &[u32],
    n_classes: usize,
    out: &mut Vec<u32>,
) {
    debug_assert_eq!(rows.len(), y.len());
    out.clear();
    out.resize(col.n_bins() * n_classes, 0);
    match &col.codes {
        BinCodes::U8(codes) => {
            for (&r, &c) in rows.iter().zip(y) {
                out[codes[r as usize] as usize * n_classes + c as usize] += 1;
            }
        }
        BinCodes::U16(codes) => {
            for (&r, &c) in rows.iter().zip(y) {
                out[codes[r as usize] as usize * n_classes + c as usize] += 1;
            }
        }
    }
}

/// Accumulate per-bin regression stats into `out` (cleared first) for a
/// node given in node order (`y[i]` is the target of `rows[i]`). Each
/// bin's `sum` and `sumsq` add their rows' targets in node order — the
/// one addition order every regression score is pinned to (DESIGN.md §8).
pub(crate) fn accumulate_reg_node(
    col: &BinnedColumn,
    rows: &[u32],
    y: &[f64],
    out: &mut Vec<RegBin>,
) {
    debug_assert_eq!(rows.len(), y.len());
    out.clear();
    out.resize(col.n_bins(), RegBin::default());
    let mut add = |bin: usize, v: f64| {
        let b = &mut out[bin];
        b.n += 1;
        b.sum += v;
        b.sumsq += v * v;
    };
    match &col.codes {
        BinCodes::U8(codes) => {
            for (&r, &v) in rows.iter().zip(y) {
                add(codes[r as usize] as usize, v);
            }
        }
        BinCodes::U16(codes) => {
            for (&r, &v) in rows.iter().zip(y) {
                add(codes[r as usize] as usize, v);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Feature-parallel accumulation — LightGBM-style feature partitioning.
//
// Each feature's node histogram is built by exactly one worker-pool task
// scanning the node's rows in node order, so every per-feature histogram
// is bit-identical to a serial `accumulate_*_node` call; `WorkerPool::map`
// returns results in submission order, so the merged Vec is in fixed
// feature-index order regardless of which thread finished first.
// N-thread output ≡ 1-thread output, bitwise (DESIGN.md §13).
// ---------------------------------------------------------------------

/// Minimum `rows × features` product before a histogram batch is worth
/// shipping to the worker pool (below this, task overhead dominates the
/// `O(rows)` scans).
pub(crate) const HIST_PARALLEL_GRAIN: usize = 65_536;

/// Whether a histogram batch of `n_features` columns over `n_rows` rows
/// should fan out across the worker pool.
fn hist_batch_parallel(n_features: usize, n_rows: usize) -> bool {
    runtime::global_threads() != 1
        && n_features >= 2
        && n_rows.saturating_mul(n_features) >= HIST_PARALLEL_GRAIN
}

/// `f` over `items`, across the worker pool when the batch (`items.len()`
/// columns of `n_rows` rows each) clears the grain and inline otherwise;
/// output is in `items` order at any thread count.
fn map_batch<T: Send, U: Send>(items: Vec<T>, n_rows: usize, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    if hist_batch_parallel(items.len(), n_rows) {
        WorkerPool::new().map(items, |_ctx, item| f(item))
    } else {
        items.into_iter().map(f).collect()
    }
}

/// One node histogram per column via `one` (see [`map_batch`]).
fn accumulate_batch<H: Send>(
    cols: &[&BinnedColumn],
    n_rows: usize,
    one: impl Fn(&BinnedColumn) -> H + Sync,
) -> Vec<H> {
    if hist_batch_parallel(cols.len(), n_rows) {
        telemetry::count("binned.hist_parallel_batches", 1);
    }
    map_batch(cols.to_vec(), n_rows, one)
}

/// One class histogram per column for a node in node order; every
/// histogram is bit-identical to a serial [`accumulate_class_node`] call.
pub(crate) fn accumulate_class_node_parallel(
    cols: &[&BinnedColumn],
    rows: &[u32],
    y: &[u32],
    n_classes: usize,
) -> Vec<Vec<u32>> {
    accumulate_batch(cols, rows.len(), |col| {
        let mut h = Vec::new();
        accumulate_class_node(col, rows, y, n_classes, &mut h);
        h
    })
}

/// One regression histogram per column for a node in node order; per-bin
/// sums are accumulated in node order by a single task, so every
/// histogram is bit-identical to a serial [`accumulate_reg_node`] call.
pub(crate) fn accumulate_reg_node_parallel(
    cols: &[&BinnedColumn],
    rows: &[u32],
    y: &[f64],
) -> Vec<Vec<RegBin>> {
    accumulate_batch(cols, rows.len(), |col| {
        let mut h = Vec::new();
        accumulate_reg_node(col, rows, y, &mut h);
        h
    })
}

/// Sibling subtraction: the right child's histogram is the parent's minus
/// the left child's, element-wise — `O(n_bins)` instead of `O(rows)`.
/// Counts are integers, so the subtracted histogram is bit-identical to
/// re-accumulation.
pub(crate) fn subtract_class(parent: &[u32], left: &[u32]) -> Vec<u32> {
    debug_assert_eq!(parent.len(), left.len());
    parent.iter().zip(left).map(|(&p, &l)| p - l).collect()
}

/// Sibling subtraction for regression histograms. Counts subtract
/// exactly; the float sums are subtracted (deterministically, but not
/// necessarily bit-identical to re-accumulation).
pub(crate) fn subtract_reg(parent: &[RegBin], left: &[RegBin]) -> Vec<RegBin> {
    debug_assert_eq!(parent.len(), left.len());
    parent
        .iter()
        .zip(left)
        .map(|(p, l)| RegBin {
            n: p.n - l.n,
            sum: p.sum - l.sum,
            sumsq: p.sumsq - l.sumsq,
        })
        .collect()
}

/// Row ids narrowed to the builder's `u32`, and each row's label pulled
/// into node order — what the tree builder hands the node-ordered kernels,
/// for tests that start from dataset rows.
#[cfg(test)]
pub(crate) fn node_order<L, T>(
    rows: &[usize],
    y: &[L],
    label: impl Fn(&L) -> T,
) -> (Vec<u32>, Vec<T>) {
    let ids = rows.iter().map(|&r| u32::try_from(r).unwrap()).collect();
    (ids, rows.iter().map(|&r| label(&y[r])).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// [`accumulate_class_node`] over dataset rows (labels indexed by row).
    fn class_hist(col: &BinnedColumn, rows: &[usize], y: &[usize], n_classes: usize) -> Vec<u32> {
        let (rows, y) = node_order(rows, y, |&c| c as u32);
        let mut h = Vec::new();
        accumulate_class_node(col, &rows, &y, n_classes, &mut h);
        h
    }

    /// [`accumulate_reg_node`] over dataset rows (targets indexed by row).
    fn reg_hist(col: &BinnedColumn, rows: &[usize], y: &[f64]) -> Vec<RegBin> {
        let (rows, y) = node_order(rows, y, |&v| v);
        let mut h = Vec::new();
        accumulate_reg_node(col, &rows, &y, &mut h);
        h
    }

    /// Both feature-parallel batches over dataset rows.
    fn batch_hists(
        cols: &[&BinnedColumn],
        rows: &[usize],
        yc: &[usize],
        n_classes: usize,
        yr: &[f64],
    ) -> (Vec<Vec<u32>>, Vec<Vec<RegBin>>) {
        let (ids, yc) = node_order(rows, yc, |&c| c as u32);
        let (_, yr) = node_order(rows, yr, |&v| v);
        (
            accumulate_class_node_parallel(cols, &ids, &yc, n_classes),
            accumulate_reg_node_parallel(cols, &ids, &yr),
        )
    }

    fn codes_of(col: &BinnedColumn, n: usize) -> Vec<usize> {
        (0..n).map(|r| col.codes().get(r)).collect()
    }

    #[test]
    fn constant_column_is_one_bin() {
        let col = BinnedColumn::build(&[3.5; 40], 256);
        assert_eq!(col.n_bins(), 1);
        assert_eq!(codes_of(&col, 40), vec![0; 40]);
    }

    #[test]
    fn few_distinct_values_get_one_bin_each() {
        let vals = [2.0, 1.0, 2.0, 3.0, 1.0, 3.0, 3.0];
        let col = BinnedColumn::build(&vals, 256);
        assert_eq!(col.n_bins(), 3);
        assert_eq!(col.threshold(0), 1.5);
        assert_eq!(col.threshold(1), 2.5);
        assert_eq!(codes_of(&col, 7), vec![1, 0, 1, 2, 0, 2, 2]);
    }

    #[test]
    fn boundary_thresholds_separate_bins_on_the_value_scale() {
        // The defining invariant: v <= threshold(b) ⇔ code(v) <= b.
        let vals: Vec<f64> = (0..1000).map(|i| ((i * 37) % 251) as f64 * 0.1).collect();
        let col = BinnedColumn::build(&vals, 64);
        assert!(col.n_bins() <= 64);
        for (r, &v) in vals.iter().enumerate() {
            let code = col.codes().get(r);
            for b in 0..col.n_bins() - 1 {
                assert_eq!(
                    v <= col.threshold(b),
                    code <= b,
                    "row {r} value {v} code {code} boundary {b}"
                );
            }
        }
    }

    #[test]
    fn duplicate_heavy_column_spends_bins_on_varying_values() {
        // 90% zeros + 100 distinct positives, budget 16: the zero run
        // must collapse into one bin, not eat quantile cuts.
        let mut vals = vec![0.0; 900];
        vals.extend((1..=100).map(|i| i as f64));
        let col = BinnedColumn::build(&vals, 16);
        assert!(col.n_bins() > 1, "degenerated to a single bin");
        assert!(col.n_bins() <= 16);
        // All zeros share bin 0.
        assert!((0..900).all(|r| col.codes().get(r) == 0));
        // The positive tail is spread over the remaining bins.
        let tail: std::collections::BTreeSet<usize> =
            (900..1000).map(|r| col.codes().get(r)).collect();
        assert!(tail.len() > 1, "tail collapsed into one bin");
    }

    #[test]
    fn wide_column_respects_bin_budget_and_ordering() {
        let vals: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.7).sin() * 100.0).collect();
        let col = BinnedColumn::build(&vals, 256);
        assert!(col.n_bins() <= 256);
        assert!(col.n_bins() > 200, "continuous column should use budget");
        // Codes are monotone in value.
        let mut pairs: Vec<(f64, usize)> = vals
            .iter()
            .enumerate()
            .map(|(r, &v)| (v, col.codes().get(r)))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1, "codes must be monotone in value");
        }
    }

    #[test]
    fn u16_codes_kick_in_past_256_bins() {
        let vals: Vec<f64> = (0..2000).map(|i| i as f64).collect();
        let col = BinnedColumn::build(&vals, 1024);
        assert!(col.n_bins() > 256);
        assert!(matches!(col.codes(), BinCodes::U16(_)));
        let small = BinnedColumn::build(&vals, 256);
        assert!(matches!(small.codes(), BinCodes::U8(_)));
    }

    #[test]
    fn sibling_subtraction_identity_class() {
        let vals: Vec<f64> = (0..200).map(|i| ((i * 13) % 17) as f64).collect();
        let y: Vec<usize> = (0..200).map(|i| (i * 7) % 3).collect();
        let col = BinnedColumn::build(&vals, 8);
        let parent: Vec<usize> = (0..200).collect();
        let (left, right): (Vec<usize>, Vec<usize>) = parent.iter().partition(|&&r| r % 3 != 0);
        let hp = class_hist(&col, &parent, &y, 3);
        let hl = class_hist(&col, &left, &y, 3);
        let hr = class_hist(&col, &right, &y, 3);
        assert_eq!(subtract_class(&hp, &hl), hr, "parent − left == right");
    }

    #[test]
    fn sibling_subtraction_identity_reg() {
        let vals: Vec<f64> = (0..100).map(|i| ((i * 31) % 23) as f64).collect();
        let y: Vec<f64> = (0..100).map(|i| (i as f64).sqrt()).collect();
        let col = BinnedColumn::build(&vals, 6);
        let parent: Vec<usize> = (0..100).collect();
        let (left, right): (Vec<usize>, Vec<usize>) = parent.iter().partition(|&&r| r < 40);
        let hp = reg_hist(&col, &parent, &y);
        let hl = reg_hist(&col, &left, &y);
        let hr = reg_hist(&col, &right, &y);
        for (s, r) in subtract_reg(&hp, &hl).iter().zip(&hr) {
            assert_eq!(s.n, r.n);
            assert!((s.sum - r.sum).abs() < 1e-9);
            assert!((s.sumsq - r.sumsq).abs() < 1e-6);
        }
    }

    #[test]
    fn batched_accumulation_matches_per_column_serial() {
        let a: Vec<f64> = (0..300).map(|i| ((i * 13) % 29) as f64).collect();
        let b: Vec<f64> = (0..300).map(|i| ((i * 7) % 11) as f64).collect();
        let yc: Vec<usize> = (0..300).map(|i| (i * 5) % 3).collect();
        let yr: Vec<f64> = (0..300).map(|i| (i as f64).cos()).collect();
        let ca = BinnedColumn::build(&a, 32);
        let cb = BinnedColumn::build(&b, 32);
        let rows: Vec<usize> = (0..300).filter(|r| r % 4 != 1).collect();
        let (batch_c, batch_r) = batch_hists(&[&ca, &cb], &rows, &yc, 3, &yr);
        for (f, col) in [&ca, &cb].into_iter().enumerate() {
            assert_eq!(
                batch_c[f],
                class_hist(col, &rows, &yc, 3),
                "class feature {f}"
            );
            assert_eq!(batch_r[f], reg_hist(col, &rows, &yr), "reg feature {f}");
        }
    }

    #[test]
    fn histograms_count_bootstrap_duplicates() {
        let vals = [1.0, 2.0, 3.0];
        let y = [0usize, 1, 1];
        let col = BinnedColumn::build(&vals, 8);
        let h = class_hist(&col, &[0, 0, 2], &y, 2);
        assert_eq!(h[0], 2, "row 0 drawn twice must count twice");
        assert_eq!(h[2 * 2 + 1], 1);
    }

    #[test]
    fn cached_build_reuses_identical_columns() {
        let a: Vec<f64> = (0..64).map(|i| (i as f64 * 1.7).cos()).collect();
        let b: Vec<f64> = (0..64).map(|i| (i as f64 * 2.3).sin()).collect();
        let before = bin_cache().stats();
        let d1 = BinnedDataset::from_slices_cached(&[&a, &b], 32).unwrap();
        let d2 = BinnedDataset::from_slices_cached(&[&a, &b], 32).unwrap();
        let after = bin_cache().stats();
        assert!(
            after.hits >= before.hits + 2,
            "second build must reuse both columns"
        );
        for f in 0..2 {
            assert_eq!(d1.column(f), d2.column(f));
        }
        // Different bin budget addresses different entries.
        let d3 = BinnedDataset::from_slices_cached(&[&a, &b], 16).unwrap();
        assert!(d3.column(0).n_bins() <= 16);
    }

    #[test]
    fn build_rejects_bad_inputs() {
        assert!(BinnedDataset::build(&[], 256).is_err());
        assert!(BinnedDataset::build(&[vec![]], 256).is_err());
        assert!(BinnedDataset::build(&[vec![1.0], vec![1.0, 2.0]], 256).is_err());
        assert!(BinnedDataset::build(&[vec![1.0]], 1).is_err());
        assert!(BinnedDataset::build(&[vec![1.0]], MAX_BINS_LIMIT + 1).is_err());
    }

    #[test]
    fn feature_parallel_histograms_identical_across_thread_counts() {
        // The feature-parallel histogram batch (one worker-pool task per
        // feature, merged in fixed feature-index order — DESIGN.md §13) must
        // be invisible: the 4-thread batch, the 1-thread batch, and a plain
        // per-column serial accumulation are all bitwise the same histograms.
        // 8 features × 12k rows clears HIST_PARALLEL_GRAIN, so the 4-thread
        // run genuinely fans out.
        let n_rows = 12_000usize;
        let n_features = 8usize;
        assert!(n_rows * n_features >= HIST_PARALLEL_GRAIN);
        let cols: Vec<BinnedColumn> = (0..n_features)
            .map(|f| {
                let vals: Vec<f64> = (0..n_rows)
                    .map(|r| (((r * (13 + f * 7)) % 997) as f64 * 0.37).sin() * 50.0)
                    .collect();
                BinnedColumn::build(&vals, 64)
            })
            .collect();
        let col_refs: Vec<&BinnedColumn> = cols.iter().collect();
        let rows: Vec<usize> = (0..n_rows).filter(|r| r % 5 != 2).collect();
        let yc: Vec<usize> = (0..n_rows).map(|r| (r * 11) % 4).collect();
        let yr: Vec<f64> = (0..n_rows).map(|r| (r as f64 * 0.01).cos()).collect();

        runtime::set_global_threads(1);
        let (class_1t, reg_1t) = batch_hists(&col_refs, &rows, &yc, 4, &yr);
        runtime::set_global_threads(4);
        let (class_4t, reg_4t) = batch_hists(&col_refs, &rows, &yc, 4, &yr);
        runtime::set_global_threads(0);

        assert_eq!(class_1t, class_4t, "class histograms 1-vs-4 threads");
        for (f, (a, b)) in reg_1t.iter().zip(&reg_4t).enumerate() {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.n, y.n, "reg counts feature {f}");
                assert_eq!(x.sum.to_bits(), y.sum.to_bits(), "reg sums feature {f}");
                assert_eq!(
                    x.sumsq.to_bits(),
                    y.sumsq.to_bits(),
                    "reg sumsq feature {f}"
                );
            }
        }
        // Both match a plain per-column serial pass.
        for (f, col) in col_refs.iter().enumerate() {
            assert_eq!(
                class_4t[f],
                class_hist(col, &rows, &yc, 4),
                "batched class vs serial, feature {f}"
            );
            for (x, y) in reg_4t[f].iter().zip(&reg_hist(col, &rows, &yr)) {
                assert_eq!((x.n, x.sum.to_bits()), (y.n, y.sum.to_bits()));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Sibling subtraction is exact: for any parent row set and any
        /// left/right split of it, `parent − left == right` on both the
        /// class-count and the regression-sum histograms.
        #[test]
        fn sibling_subtraction_identity(
            seed in 0u64..1_000_000,
            n_rows in 20usize..100,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let values: Vec<f64> = (0..n_rows).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
            let col = BinnedColumn::build(&values, 16);
            let rows: Vec<usize> = (0..n_rows).collect();
            let cut = rng.gen_range(0..=n_rows);
            let (left, right) = rows.split_at(cut);

            let yc: Vec<usize> = (0..n_rows).map(|_| rng.gen_range(0..3)).collect();
            let hp = class_hist(&col, &rows, &yc, 3);
            let hl = class_hist(&col, left, &yc, 3);
            let hr = class_hist(&col, right, &yc, 3);
            prop_assert_eq!(subtract_class(&hp, &hl), hr);

            let yr: Vec<f64> = (0..n_rows).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
            let gp = reg_hist(&col, &rows, &yr);
            let gl = reg_hist(&col, left, &yr);
            let gr = reg_hist(&col, right, &yr);
            let sub = subtract_reg(&gp, &gl);
            prop_assert_eq!(sub.len(), gr.len());
            for (s, r) in sub.iter().zip(&gr) {
                prop_assert_eq!(s.n, r.n);
                // Sums come out of a subtraction, not a re-accumulation, so
                // compare to the float tolerance the scan itself tolerates.
                prop_assert!((s.sum - r.sum).abs() <= 1e-9 * (1.0 + r.sum.abs()));
                prop_assert!((s.sumsq - r.sumsq).abs() <= 1e-9 * (1.0 + r.sumsq.abs()));
            }
        }
    }
}
