//! CART decision trees (classification via Gini impurity, regression via
//! variance reduction) — the building block of the Random Forest downstream
//! task used throughout the paper.
//!
//! Features are accessed column-major (`x[feature][row]`), matching
//! `tabular::DataFrame`'s layout so forests can train without transposing.
//!
//! Two split-finding paths share one builder, selected by
//! [`TreeConfig::split`]:
//!
//! - [`SplitMethod::Exact`] — the reference path: sort every candidate
//!   feature at every node and scan the sorted boundary positions.
//! - [`SplitMethod::Histogram`] — quantise each feature once into a
//!   [`BinnedDataset`] (see [`crate::binned`]), then find node splits by
//!   an `O(n_rows)` histogram-accumulation pass per feature plus an
//!   `O(n_bins)` scan, with the sibling-subtraction trick (a right
//!   child's histogram is its parent's minus its left sibling's).
//!
//! Both paths run node rows through a single in-place stably-partitioned
//! row-index buffer and reuse scratch sort/count buffers across nodes, so
//! steady-state split finding allocates only per-node leaf payloads and
//! (histogram path) the per-feature histograms that the subtraction trick
//! hands from parent to child.

use crate::binned::{
    self, BinCodes, BinnedDataset, RegBin, SplitMethod, DEFAULT_MAX_BINS, MAX_BINS_LIMIT,
};
use crate::error::{LearnError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters shared by classification and regression trees.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples that must land in each child.
    pub min_samples_leaf: usize,
    /// Number of candidate features per split; `None` means all features.
    /// Forests set this to √N for decorrelation.
    pub max_features: Option<usize>,
    /// Seed for the per-split feature subsampling.
    pub seed: u64,
    /// How candidate splits are enumerated.
    pub split: SplitMethod,
    /// Per-feature bin budget for [`SplitMethod::Histogram`] (ignored by
    /// the exact path).
    pub max_bins: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 10,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
            split: SplitMethod::Exact,
            max_bins: DEFAULT_MAX_BINS,
        }
    }
}

impl TreeConfig {
    fn validate(&self) -> Result<()> {
        if self.split == SplitMethod::Histogram && !(2..=MAX_BINS_LIMIT).contains(&self.max_bins) {
            return Err(LearnError::InvalidParam(format!(
                "max_bins must be in 2..={MAX_BINS_LIMIT}, got {}",
                self.max_bins
            )));
        }
        Ok(())
    }
}

/// What the tree predicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Target {
    /// Class counts at the leaf (argmax predicted, counts give probabilities).
    ClassCounts(Vec<f64>),
    /// Mean target at the leaf.
    Mean(f64),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf(Target),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Label view the builder trains against.
#[derive(Clone, Copy)]
enum Labels<'a> {
    Class { y: &'a [usize], n_classes: usize },
    Reg(&'a [f64]),
}

impl Labels<'_> {
    fn len(&self) -> usize {
        match self {
            Labels::Class { y, .. } => y.len(),
            Labels::Reg(y) => y.len(),
        }
    }
}

/// Feature view the builder trains against.
#[derive(Clone, Copy)]
enum Data<'a> {
    /// Raw column-major values; splits found by per-node sorting.
    Exact(&'a [Vec<f64>]),
    /// Pre-quantised columns; splits found by histogram scans.
    Binned(&'a BinnedDataset),
}

impl Data<'_> {
    fn n_features(&self) -> usize {
        match self {
            Data::Exact(x) => x.len(),
            Data::Binned(b) => b.n_features(),
        }
    }
}

/// A fitted CART tree. Construct through [`DecisionTreeClassifier`] or
/// [`DecisionTreeRegressor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
    n_features: usize,
    /// Total impurity decrease attributed to each feature (unnormalised).
    importances: Vec<f64>,
}

impl Tree {
    /// Per-feature importance: impurity decrease normalised to sum to 1
    /// (all zeros when the tree is a single leaf).
    pub fn feature_importances(&self) -> Vec<f64> {
        let total: f64 = self.importances.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.n_features];
        }
        self.importances.iter().map(|v| v / total).collect()
    }

    /// Number of nodes in the fitted tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn leaf_for_row(&self, x: &[Vec<f64>], row: usize) -> &Target {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf(t) => return t,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature][row] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Per-feature node histogram handed between siblings by the subtraction
/// trick.
enum Hist {
    Class(Vec<u32>),
    Reg(Vec<RegBin>),
}

/// A chosen split: `bin` is the boundary index in the histogram path
/// (unused by the exact path); `threshold` is always on the raw value
/// scale so prediction never needs the bins.
struct Candidate {
    feature: usize,
    threshold: f64,
    bin: usize,
    gain: f64,
}

/// Scratch buffers reused across every node of a build — the exact path's
/// per-node heap traffic lives (and dies) here.
#[derive(Default)]
struct Scratch {
    /// Right-side rows during the in-place stable partition.
    partition: Vec<usize>,
    /// (value, row) pairs for the exact path's per-feature sort.
    sortable: Vec<(f64, usize)>,
    /// Class counts of the current node: written by `impurity`, still
    /// current when `best_split` runs on the same node.
    node_counts: Vec<usize>,
    /// Class counts left of the scanned boundary.
    left_counts: Vec<usize>,
    /// Class counts right of the scanned boundary.
    right_counts: Vec<usize>,
    /// Small-node counting scan: class counts per bin
    /// (`bin * n_classes + class`). All-zero between scans.
    counts: Vec<u32>,
    /// Small-node counting scan: one bit per bin with a non-zero entry in
    /// `counts`. All-zero between scans.
    touched: Vec<u64>,
}

struct Builder<'a> {
    data: Data<'a>,
    labels: Labels<'a>,
    cfg: TreeConfig,
    nodes: Vec<Node>,
    importances: Vec<f64>,
    rng: StdRng,
    n_total: usize,
    feature_pool: Vec<usize>,
    /// The single row-index buffer; `grow` works on `lo..hi` ranges of it
    /// and partitions in place.
    rows: Vec<usize>,
    scratch: Scratch,
    /// Histograms obtained by sibling subtraction instead of
    /// re-accumulation (flushed to telemetry once per tree).
    hists_subtracted: u64,
    /// Small nodes split via the counting scan instead of a dense
    /// histogram (flushed to telemetry once per tree).
    sparse_scans: u64,
}

impl<'a> Builder<'a> {
    fn build(
        data: Data<'a>,
        rows: Vec<usize>,
        labels: Labels<'a>,
        cfg: TreeConfig,
    ) -> Result<Tree> {
        let n_rows = labels.len();
        if data.n_features() == 0 || n_rows == 0 || rows.is_empty() {
            return Err(LearnError::EmptyTrainingSet("decision tree".into()));
        }
        match data {
            Data::Exact(x) => {
                for col in x {
                    if col.len() != n_rows {
                        return Err(LearnError::InvalidParam(format!(
                            "feature column length {} != label length {n_rows}",
                            col.len()
                        )));
                    }
                }
            }
            Data::Binned(b) => {
                if b.n_rows() != n_rows {
                    return Err(LearnError::InvalidParam(format!(
                        "binned dataset rows {} != label length {n_rows}",
                        b.n_rows()
                    )));
                }
            }
        }
        if rows.iter().any(|&r| r >= n_rows) {
            return Err(LearnError::InvalidParam(
                "training row index out of bounds".into(),
            ));
        }
        let n_features = data.n_features();
        let n_train = rows.len();
        let mut b = Builder {
            data,
            labels,
            cfg,
            nodes: Vec::new(),
            importances: vec![0.0; n_features],
            rng: StdRng::seed_from_u64(cfg.seed),
            n_total: n_train,
            feature_pool: (0..n_features).collect(),
            rows,
            scratch: Scratch::default(),
            hists_subtracted: 0,
            sparse_scans: 0,
        };
        let timed = matches!(data, Data::Binned(_)) && telemetry::enabled();
        let start = timed.then(std::time::Instant::now);
        b.grow(0, n_train, 0, Vec::new());
        if let Some(t) = start {
            telemetry::record("tree.hist_us", t.elapsed().as_micros() as u64);
        }
        if b.hists_subtracted > 0 {
            telemetry::count("tree.hist_subtracted", b.hists_subtracted);
        }
        if b.sparse_scans > 0 {
            telemetry::count("tree.hist_sparse_scans", b.sparse_scans);
        }
        Ok(Tree {
            nodes: b.nodes,
            n_features,
            importances: b.importances,
        })
    }

    fn leaf_target(&self, lo: usize, hi: usize) -> Target {
        let rows = &self.rows[lo..hi];
        match self.labels {
            Labels::Class { y, n_classes } => {
                let mut counts = vec![0.0; n_classes];
                for &r in rows {
                    counts[y[r]] += 1.0;
                }
                Target::ClassCounts(counts)
            }
            Labels::Reg(y) => {
                let mean = rows.iter().map(|&r| y[r]).sum::<f64>() / rows.len().max(1) as f64;
                Target::Mean(mean)
            }
        }
    }

    fn impurity(&mut self, lo: usize, hi: usize) -> f64 {
        let rows = &self.rows[lo..hi];
        match self.labels {
            Labels::Class { y, n_classes } => {
                let counts = &mut self.scratch.node_counts;
                counts.clear();
                counts.resize(n_classes, 0);
                for &r in rows {
                    counts[y[r]] += 1;
                }
                gini(counts, rows.len())
            }
            Labels::Reg(y) => {
                let n = rows.len() as f64;
                let sum: f64 = rows.iter().map(|&r| y[r]).sum();
                let sumsq: f64 = rows.iter().map(|&r| y[r] * y[r]).sum();
                (sumsq / n - (sum / n) * (sum / n)).max(0.0)
            }
        }
    }

    /// Rows of `lo..hi` that the candidate sends left, without reordering
    /// anything — the leaf fallback must see rows in their original order.
    fn count_left(&self, lo: usize, hi: usize, c: &Candidate) -> usize {
        let rows = &self.rows[lo..hi];
        match self.data {
            Data::Exact(x) => {
                let col = &x[c.feature];
                rows.iter().filter(|&&r| col[r] <= c.threshold).count()
            }
            Data::Binned(b) => {
                let codes = b.column(c.feature).codes();
                rows.iter().filter(|&&r| codes.get(r) <= c.bin).count()
            }
        }
    }

    /// Stable in-place partition of `rows[lo..hi]` by the candidate's
    /// predicate; returns the left-side length. Preserves the relative
    /// order of both sides, exactly like `Iterator::partition` did.
    fn partition(&mut self, lo: usize, hi: usize, c: &Candidate) -> usize {
        let data = self.data;
        let rows = &mut self.rows[lo..hi];
        let scratch = &mut self.scratch.partition;
        match data {
            Data::Exact(x) => {
                let col = &x[c.feature];
                stable_partition(rows, scratch, |r| col[r] <= c.threshold)
            }
            Data::Binned(b) => {
                let codes = b.column(c.feature).codes();
                stable_partition(rows, scratch, |r| codes.get(r) <= c.bin)
            }
        }
    }

    /// Recursively grow the subtree for `rows[lo..hi]`; returns the node
    /// index and (histogram path) the per-feature histograms this node
    /// accumulated, which the caller turns into the right sibling's via
    /// subtraction.
    fn grow(
        &mut self,
        lo: usize,
        hi: usize,
        depth: usize,
        mut inherited: Vec<(usize, Hist)>,
    ) -> (usize, Vec<(usize, Hist)>) {
        let n = hi - lo;
        let node_impurity = self.impurity(lo, hi);
        let stop =
            depth >= self.cfg.max_depth || n < self.cfg.min_samples_split || node_impurity <= 1e-12;
        let mut node_hists = Vec::new();
        if !stop {
            let (cand, hists) = self.best_split(lo, hi, node_impurity, &mut inherited);
            node_hists = hists;
            if let Some(c) = cand {
                let nl = self.count_left(lo, hi, &c);
                if nl >= self.cfg.min_samples_leaf && n - nl >= self.cfg.min_samples_leaf {
                    self.partition(lo, hi, &c);
                    self.importances[c.feature] += c.gain * n as f64 / self.n_total as f64;
                    let idx = self.nodes.len();
                    self.nodes.push(Node::Split {
                        feature: c.feature,
                        threshold: c.threshold,
                        left: usize::MAX,
                        right: usize::MAX,
                    });
                    let (left, left_hists) = self.grow(lo, lo + nl, depth + 1, Vec::new());
                    let right_inherited = subtract_siblings(&node_hists, left_hists);
                    let (right, _) = self.grow(lo + nl, hi, depth + 1, right_inherited);
                    if let Node::Split {
                        left: l, right: r, ..
                    } = &mut self.nodes[idx]
                    {
                        *l = left;
                        *r = right;
                    }
                    return (idx, node_hists);
                }
            }
        }
        let idx = self.nodes.len();
        let target = self.leaf_target(lo, hi);
        self.nodes.push(Node::Leaf(target));
        (idx, node_hists)
    }

    /// Best candidate split over a random feature subset, or `None` if no
    /// valid split exists. Also returns (histogram path) every candidate
    /// feature's node histogram for sibling reuse.
    fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        node_impurity: f64,
        inherited: &mut Vec<(usize, Hist)>,
    ) -> (Option<Candidate>, Vec<(usize, Hist)>) {
        let k = self
            .cfg
            .max_features
            .unwrap_or(self.feature_pool.len())
            .clamp(1, self.feature_pool.len());
        self.feature_pool.shuffle(&mut self.rng);
        match self.data {
            Data::Exact(x) => (
                self.best_split_exact(x, lo, hi, k, node_impurity),
                Vec::new(),
            ),
            Data::Binned(b) => self.best_split_hist(b, lo, hi, k, node_impurity, inherited),
        }
    }

    fn best_split_exact(
        &mut self,
        x: &[Vec<f64>],
        lo: usize,
        hi: usize,
        k: usize,
        node_impurity: f64,
    ) -> Option<Candidate> {
        let rows = &self.rows[lo..hi];
        let labels = self.labels;
        let msl = self.cfg.min_samples_leaf;
        let sortable = &mut self.scratch.sortable;
        let left = &mut self.scratch.left_counts;
        let right = &mut self.scratch.right_counts;
        let mut best: Option<Candidate> = None;
        for i in 0..k {
            let feature = self.feature_pool[i];
            sortable.clear();
            sortable.extend(rows.iter().map(|&r| (x[feature][r], r)));
            sortable.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            if sortable[0].0 == sortable[sortable.len() - 1].0 {
                continue; // constant within node
            }
            if let Some((threshold, child_impurity)) =
                scan_sorted(labels, msl, sortable, left, right)
            {
                let gain = node_impurity - child_impurity;
                if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.gain) {
                    best = Some(Candidate {
                        feature,
                        threshold,
                        bin: 0,
                        gain,
                    });
                }
            }
        }
        best
    }

    /// Histogram split finding in three phases (DESIGN.md §13): classify
    /// every candidate feature, batch-accumulate the ones that need an
    /// `O(rows)` pass (feature-parallel across the worker pool, merged in
    /// fixed feature order so any thread count is bitwise identical to
    /// one), then scan serially in the shuffled `feature_pool` order the
    /// node drew — the scan order carries the strict `gain >` tie-break,
    /// so it must not change with the accumulation schedule.
    fn best_split_hist(
        &mut self,
        binned: &BinnedDataset,
        lo: usize,
        hi: usize,
        k: usize,
        node_impurity: f64,
        inherited: &mut Vec<(usize, Hist)>,
    ) -> (Option<Candidate>, Vec<(usize, Hist)>) {
        let rows = &self.rows[lo..hi];
        let labels = self.labels;
        let msl = self.cfg.min_samples_leaf;

        /// Where one candidate feature's histogram comes from.
        enum Plan {
            /// Small classification node: count the node's codes into
            /// scratch and scan only the touched bins instead of building
            /// a dense histogram.
            Sparse,
            /// Sibling subtraction already produced this feature's node
            /// histogram — skip the `O(rows)` accumulation pass.
            Ready(Hist),
            /// Needs accumulation; index into the batched results.
            Batched(usize),
        }
        let mut plans: Vec<(usize, Plan)> = Vec::with_capacity(k);
        let mut batch_features: Vec<usize> = Vec::new();
        for i in 0..k {
            let feature = self.feature_pool[i];
            let col = binned.column(feature);
            let inherited_pos = inherited.iter().position(|(f, _)| *f == feature);
            // Small nodes: a dense histogram costs O(n_bins) to allocate,
            // zero and scan no matter how few rows the node has. When the
            // node is smaller than the bin count (and no subtracted
            // histogram is already on hand), count into builder-owned
            // scratch and scan only the touched bins — bit-identical
            // boundaries and gains (integer counts), O(rows), nothing
            // stored for the children (they are even smaller and take
            // this path too).
            let plan = match inherited_pos {
                None if rows.len() < col.n_bins() && matches!(labels, Labels::Class { .. }) => {
                    Plan::Sparse
                }
                Some(p) => {
                    self.hists_subtracted += 1;
                    Plan::Ready(inherited.swap_remove(p).1)
                }
                None => {
                    batch_features.push(feature);
                    Plan::Batched(batch_features.len() - 1)
                }
            };
            plans.push((feature, plan));
        }

        // Accumulate every needed histogram in one batch — one feature per
        // worker-pool task, merged back in `batch_features` order.
        let cols: Vec<&binned::BinnedColumn> =
            batch_features.iter().map(|&f| binned.column(f)).collect();
        let mut batched: Vec<Option<Hist>> = match labels {
            Labels::Class { y, n_classes } => {
                binned::accumulate_class_parallel(&cols, rows, y, n_classes)
                    .into_iter()
                    .map(|h| Some(Hist::Class(h)))
                    .collect()
            }
            Labels::Reg(y) => binned::accumulate_reg_parallel(&cols, rows, y)
                .into_iter()
                .map(|h| Some(Hist::Reg(h)))
                .collect(),
        };

        let scratch = &mut self.scratch;
        let mut node_hists: Vec<(usize, Hist)> = Vec::with_capacity(k);
        let mut best: Option<Candidate> = None;
        for (feature, plan) in plans {
            let col = binned.column(feature);
            let hist = match plan {
                Plan::Sparse => {
                    let Labels::Class { y, .. } = labels else {
                        unreachable!("sparse scan is classification-only")
                    };
                    self.sparse_scans += 1;
                    let scanned = match col.codes() {
                        BinCodes::U8(codes) => {
                            scan_counting_class(codes, rows, y, col, msl, scratch)
                        }
                        BinCodes::U16(codes) => {
                            scan_counting_class(codes, rows, y, col, msl, scratch)
                        }
                    };
                    if let Some((bin, threshold, child_impurity)) = scanned {
                        let gain = node_impurity - child_impurity;
                        if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.gain) {
                            best = Some(Candidate {
                                feature,
                                threshold,
                                bin,
                                gain,
                            });
                        }
                    }
                    continue;
                }
                Plan::Ready(h) => h,
                Plan::Batched(idx) => batched[idx]
                    .take()
                    .expect("each batched histogram scans once"),
            };
            let scanned = match (&hist, labels) {
                (Hist::Class(h), Labels::Class { n_classes, .. }) => scan_hist_class(
                    h,
                    n_classes,
                    col,
                    msl,
                    &mut scratch.left_counts,
                    &mut scratch.right_counts,
                ),
                (Hist::Reg(h), _) => scan_hist_reg(h, col, msl),
                _ => unreachable!("histogram kind matches label kind"),
            };
            if let Some((bin, threshold, child_impurity)) = scanned {
                let gain = node_impurity - child_impurity;
                if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.gain) {
                    best = Some(Candidate {
                        feature,
                        threshold,
                        bin,
                        gain,
                    });
                }
            }
            node_hists.push((feature, hist));
        }
        (best, node_hists)
    }
}

/// Stable in-place partition: left-side rows keep their order at the
/// front, right-side rows (staged through `scratch`) keep theirs at the
/// back. Returns the left-side length.
fn stable_partition(
    rows: &mut [usize],
    scratch: &mut Vec<usize>,
    mut pred: impl FnMut(usize) -> bool,
) -> usize {
    scratch.clear();
    let mut write = 0;
    for i in 0..rows.len() {
        let r = rows[i];
        if pred(r) {
            rows[write] = r;
            write += 1;
        } else {
            scratch.push(r);
        }
    }
    rows[write..].copy_from_slice(scratch);
    write
}

/// Right sibling's histograms = parent's − left sibling's, for every
/// feature both nodes computed. Exact for class counts; deterministic for
/// regression sums.
fn subtract_siblings(parent: &[(usize, Hist)], left: Vec<(usize, Hist)>) -> Vec<(usize, Hist)> {
    let mut out = Vec::new();
    for (feature, lh) in left {
        if let Some((_, ph)) = parent.iter().find(|(f, _)| *f == feature) {
            match (ph, lh) {
                (Hist::Class(p), Hist::Class(l)) => {
                    out.push((feature, Hist::Class(binned::subtract_class(p, &l))));
                }
                (Hist::Reg(p), Hist::Reg(l)) => {
                    out.push((feature, Hist::Reg(binned::subtract_reg(p, &l))));
                }
                _ => unreachable!("sibling histograms share a kind"),
            }
        }
    }
    out
}

/// Scan sorted (value, row) pairs, returning the boundary threshold with
/// minimum weighted child impurity.
fn scan_sorted(
    labels: Labels,
    min_samples_leaf: usize,
    sorted: &[(f64, usize)],
    left: &mut Vec<usize>,
    right: &mut Vec<usize>,
) -> Option<(f64, f64)> {
    let n = sorted.len();
    match labels {
        Labels::Class { y, n_classes } => {
            left.clear();
            left.resize(n_classes, 0);
            right.clear();
            right.resize(n_classes, 0);
            for &(_, r) in sorted {
                right[y[r]] += 1;
            }
            let mut best: Option<(f64, f64)> = None;
            for i in 0..n - 1 {
                let c = y[sorted[i].1];
                left[c] += 1;
                right[c] -= 1;
                if sorted[i].0 == sorted[i + 1].0 {
                    continue; // can't split between equal values
                }
                let nl = i + 1;
                let nr = n - nl;
                if nl < min_samples_leaf || nr < min_samples_leaf {
                    continue;
                }
                let w = (nl as f64 * gini(left, nl) + nr as f64 * gini(right, nr)) / n as f64;
                if best.is_none_or(|(_, bw)| w < bw) {
                    best = Some((midpoint(sorted[i].0, sorted[i + 1].0), w));
                }
            }
            best
        }
        Labels::Reg(y) => {
            let total_sum: f64 = sorted.iter().map(|&(_, r)| y[r]).sum();
            let total_sumsq: f64 = sorted.iter().map(|&(_, r)| y[r] * y[r]).sum();
            let mut lsum = 0.0;
            let mut lsumsq = 0.0;
            let mut best: Option<(f64, f64)> = None;
            for i in 0..n - 1 {
                let v = y[sorted[i].1];
                lsum += v;
                lsumsq += v * v;
                if sorted[i].0 == sorted[i + 1].0 {
                    continue;
                }
                let nl = (i + 1) as f64;
                let nr = (n - i - 1) as f64;
                if (i + 1) < min_samples_leaf || (n - i - 1) < min_samples_leaf {
                    continue;
                }
                let lvar = (lsumsq / nl - (lsum / nl) * (lsum / nl)).max(0.0);
                let rsum = total_sum - lsum;
                let rsumsq = total_sumsq - lsumsq;
                let rvar = (rsumsq / nr - (rsum / nr) * (rsum / nr)).max(0.0);
                let w = (nl * lvar + nr * rvar) / n as f64;
                if best.is_none_or(|(_, bw)| w < bw) {
                    best = Some((midpoint(sorted[i].0, sorted[i + 1].0), w));
                }
            }
            best
        }
    }
}

/// Scan a class histogram's bin boundaries, returning `(bin, threshold,
/// weighted child impurity)` of the best boundary.
///
/// Boundary enumeration mirrors the sorted scan exactly: a boundary is
/// considered only after a non-empty bin with rows remaining on the
/// right, Gini is computed from the same integer counts through the same
/// float expressions, and ties keep the first minimum — so with one bin
/// per distinct value this path chooses bit-identical splits.
fn scan_hist_class(
    hist: &[u32],
    n_classes: usize,
    col: &binned::BinnedColumn,
    min_samples_leaf: usize,
    left: &mut Vec<usize>,
    right: &mut Vec<usize>,
) -> Option<(usize, f64, f64)> {
    let n_bins = col.n_bins();
    debug_assert_eq!(hist.len(), n_bins * n_classes);
    left.clear();
    left.resize(n_classes, 0);
    right.clear();
    right.resize(n_classes, 0);
    let mut n = 0usize;
    for b in 0..n_bins {
        for c in 0..n_classes {
            let v = hist[b * n_classes + c] as usize;
            right[c] += v;
            n += v;
        }
    }
    let mut best: Option<(usize, f64, f64)> = None;
    let mut nl = 0usize;
    for b in 0..n_bins - 1 {
        let mut bin_n = 0usize;
        for c in 0..n_classes {
            let v = hist[b * n_classes + c] as usize;
            left[c] += v;
            right[c] -= v;
            bin_n += v;
        }
        nl += bin_n;
        if bin_n == 0 {
            continue; // empty bin: same partition as the previous boundary
        }
        let nr = n - nl;
        if nr == 0 {
            break; // nothing right of here; no further boundary is valid
        }
        if nl < min_samples_leaf || nr < min_samples_leaf {
            continue;
        }
        let w = (nl as f64 * gini(left, nl) + nr as f64 * gini(right, nr)) / n as f64;
        if best.is_none_or(|(_, _, bw)| w < bw) {
            best = Some((b, col.threshold(b), w));
        }
    }
    best
}

/// Counting boundary scan for nodes smaller than the bin count: instead
/// of allocating, zeroing and walking a dense `n_bins × n_classes`
/// histogram, count the node's rows into the builder-owned
/// `scratch.counts` (marking each touched bin in `scratch.touched`), then
/// visit only the touched bins in ascending order. Each touched bin is
/// exactly a boundary the dense scan finds non-empty, the integer count
/// state there is identical, and the `w` expression and first-minimum
/// tie-break are shared — so the result is bit-identical to
/// [`scan_hist_class`] at `O(rows + n_bins / 64)` instead of
/// `O(n_bins × n_classes)`.
///
/// `scratch.node_counts` must hold the class counts of `rows` (`impurity`
/// leaves them there). Scratch invariant: `counts` and `touched` are
/// all-zero on entry and on every exit — each visited entry is zeroed as
/// it is read, and once no row remains on the right every touched bin has
/// been visited.
/// (Classification only: regression sums are order-sensitive floats,
/// so the dense accumulation stays the one canonical order.)
fn scan_counting_class<C: Copy + Into<usize>>(
    codes: &[C],
    rows: &[usize],
    y: &[usize],
    col: &binned::BinnedColumn,
    min_samples_leaf: usize,
    scratch: &mut Scratch,
) -> Option<(usize, f64, f64)> {
    let Scratch {
        node_counts,
        counts,
        touched,
        left_counts: left,
        right_counts: right,
        ..
    } = scratch;
    let n_classes = node_counts.len();
    let n_words = col.n_bins().div_ceil(64);
    if counts.len() < col.n_bins() * n_classes {
        counts.resize(col.n_bins() * n_classes, 0);
    }
    if touched.len() < n_words {
        touched.resize(n_words, 0);
    }
    for &r in rows {
        let b: usize = codes[r].into();
        counts[b * n_classes + y[r]] += 1;
        touched[b / 64] |= 1 << (b % 64);
    }
    let n = rows.len();
    left.clear();
    left.resize(n_classes, 0);
    right.clone_from(node_counts);
    let mut best: Option<(usize, f64, f64)> = None;
    let mut nl = 0usize;
    for (word_idx, word) in touched[..n_words].iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            let b = word_idx * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            for (c, count) in counts[b * n_classes..][..n_classes].iter_mut().enumerate() {
                let v = std::mem::take(count) as usize;
                left[c] += v;
                right[c] -= v;
                nl += v;
            }
            let nr = n - nl;
            if nr == 0 {
                return best; // last touched bin; boundary n_bins-1 is never a split
            }
            if nl < min_samples_leaf || nr < min_samples_leaf {
                continue;
            }
            let w = (nl as f64 * gini(left, nl) + nr as f64 * gini(right, nr)) / n as f64;
            if best.is_none_or(|(_, _, bw)| w < bw) {
                best = Some((b, col.threshold(b), w));
            }
        }
    }
    best
}

/// Scan a regression histogram's bin boundaries, returning `(bin,
/// threshold, weighted child variance)` of the best boundary.
fn scan_hist_reg(
    hist: &[RegBin],
    col: &binned::BinnedColumn,
    min_samples_leaf: usize,
) -> Option<(usize, f64, f64)> {
    let n_bins = col.n_bins();
    debug_assert_eq!(hist.len(), n_bins);
    let mut n = 0usize;
    let mut total_sum = 0.0;
    let mut total_sumsq = 0.0;
    for b in hist {
        n += b.n as usize;
        total_sum += b.sum;
        total_sumsq += b.sumsq;
    }
    let mut best: Option<(usize, f64, f64)> = None;
    let mut nl = 0usize;
    let mut lsum = 0.0;
    let mut lsumsq = 0.0;
    for (b, bin) in hist.iter().enumerate().take(n_bins - 1) {
        nl += bin.n as usize;
        lsum += bin.sum;
        lsumsq += bin.sumsq;
        if bin.n == 0 {
            continue;
        }
        let nr = n - nl;
        if nr == 0 {
            break;
        }
        if nl < min_samples_leaf || nr < min_samples_leaf {
            continue;
        }
        let nlf = nl as f64;
        let nrf = nr as f64;
        let lvar = (lsumsq / nlf - (lsum / nlf) * (lsum / nlf)).max(0.0);
        let rsum = total_sum - lsum;
        let rsumsq = total_sumsq - lsumsq;
        let rvar = (rsumsq / nrf - (rsum / nrf) * (rsum / nrf)).max(0.0);
        let w = (nlf * lvar + nrf * rvar) / n as f64;
        if best.is_none_or(|(_, _, bw)| w < bw) {
            best = Some((b, col.threshold(b), w));
        }
    }
    best
}

fn gini(counts: &[usize], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            p * p
        })
        .sum::<f64>()
}

fn midpoint(a: f64, b: f64) -> f64 {
    a + (b - a) / 2.0
}

/// A CART classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeClassifier {
    /// Hyper-parameters used at fit time.
    pub config: TreeConfig,
    tree: Option<Tree>,
    n_classes: usize,
}

impl DecisionTreeClassifier {
    /// New unfitted classifier.
    pub fn new(config: TreeConfig) -> Self {
        Self {
            config,
            tree: None,
            n_classes: 0,
        }
    }

    /// Fit on column-major features and class labels in `0..n_classes`.
    /// With [`SplitMethod::Histogram`] the features are quantised first
    /// (through the process-wide bin cache).
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Result<()> {
        if n_classes == 0 {
            return Err(LearnError::InvalidParam("n_classes must be > 0".into()));
        }
        self.config.validate()?;
        let labels = Labels::Class { y, n_classes };
        self.tree = Some(match self.config.split {
            SplitMethod::Exact => {
                Builder::build(Data::Exact(x), (0..y.len()).collect(), labels, self.config)?
            }
            SplitMethod::Histogram => {
                let binned = BinnedDataset::build_cached(x, self.config.max_bins)?;
                Builder::build(
                    Data::Binned(&binned),
                    (0..y.len()).collect(),
                    labels,
                    self.config,
                )?
            }
        });
        self.n_classes = n_classes;
        Ok(())
    }

    /// Fit on a pre-binned dataset, training only on `rows` (which may
    /// repeat indices — bootstrap draws count multiply, exactly as they
    /// would in a gathered sub-matrix). `y` spans the full dataset.
    pub fn fit_binned(
        &mut self,
        binned: &BinnedDataset,
        rows: &[usize],
        y: &[usize],
        n_classes: usize,
    ) -> Result<()> {
        if n_classes == 0 {
            return Err(LearnError::InvalidParam("n_classes must be > 0".into()));
        }
        self.tree = Some(Builder::build(
            Data::Binned(binned),
            rows.to_vec(),
            Labels::Class { y, n_classes },
            self.config,
        )?);
        self.n_classes = n_classes;
        Ok(())
    }

    /// Predict class labels for column-major features.
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Vec<usize>> {
        Ok(self
            .predict_proba(x)?
            .into_iter()
            .map(|p| argmax(&p))
            .collect())
    }

    /// Per-row class probability estimates (leaf class frequencies).
    pub fn predict_proba(&self, x: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        let tree = self
            .tree
            .as_ref()
            .ok_or(LearnError::NotFitted("DecisionTreeClassifier"))?;
        check_predict_input(x, tree.n_features)?;
        let n_rows = x.first().map_or(0, |c| c.len());
        let mut out = Vec::with_capacity(n_rows);
        for row in 0..n_rows {
            match tree.leaf_for_row(x, row) {
                Target::ClassCounts(counts) => {
                    let total: f64 = counts.iter().sum::<f64>().max(1.0);
                    out.push(counts.iter().map(|c| c / total).collect());
                }
                Target::Mean(_) => unreachable!("classifier tree has class leaves"),
            }
        }
        Ok(out)
    }

    /// The fitted tree, if any.
    pub fn tree(&self) -> Option<&Tree> {
        self.tree.as_ref()
    }
}

/// A CART regressor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeRegressor {
    /// Hyper-parameters used at fit time.
    pub config: TreeConfig,
    tree: Option<Tree>,
}

impl DecisionTreeRegressor {
    /// New unfitted regressor.
    pub fn new(config: TreeConfig) -> Self {
        Self { config, tree: None }
    }

    /// Fit on column-major features and real-valued targets. With
    /// [`SplitMethod::Histogram`] the features are quantised first
    /// (through the process-wide bin cache).
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<()> {
        self.config.validate()?;
        self.tree = Some(match self.config.split {
            SplitMethod::Exact => Builder::build(
                Data::Exact(x),
                (0..y.len()).collect(),
                Labels::Reg(y),
                self.config,
            )?,
            SplitMethod::Histogram => {
                let binned = BinnedDataset::build_cached(x, self.config.max_bins)?;
                Builder::build(
                    Data::Binned(&binned),
                    (0..y.len()).collect(),
                    Labels::Reg(y),
                    self.config,
                )?
            }
        });
        Ok(())
    }

    /// Fit on a pre-binned dataset, training only on `rows` (duplicates
    /// count multiply). `y` spans the full dataset.
    pub fn fit_binned(&mut self, binned: &BinnedDataset, rows: &[usize], y: &[f64]) -> Result<()> {
        self.tree = Some(Builder::build(
            Data::Binned(binned),
            rows.to_vec(),
            Labels::Reg(y),
            self.config,
        )?);
        Ok(())
    }

    /// Predict targets for column-major features.
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Vec<f64>> {
        let tree = self
            .tree
            .as_ref()
            .ok_or(LearnError::NotFitted("DecisionTreeRegressor"))?;
        check_predict_input(x, tree.n_features)?;
        let n_rows = x.first().map_or(0, |c| c.len());
        let mut out = Vec::with_capacity(n_rows);
        for row in 0..n_rows {
            match tree.leaf_for_row(x, row) {
                Target::Mean(m) => out.push(*m),
                Target::ClassCounts(_) => unreachable!("regressor tree has mean leaves"),
            }
        }
        Ok(out)
    }

    /// The fitted tree, if any.
    pub fn tree(&self) -> Option<&Tree> {
        self.tree.as_ref()
    }
}

fn check_predict_input(x: &[Vec<f64>], fitted: usize) -> Result<()> {
    if x.len() != fitted {
        return Err(LearnError::DimensionMismatch {
            fitted,
            got: x.len(),
        });
    }
    Ok(())
}

pub(crate) fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// XOR-ish separable data: class = (a > 0) != (b > 0).
    fn xor_data(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let av = if i % 2 == 0 { 1.0 } else { -1.0 } * (1.0 + (i % 5) as f64);
            let bv = if (i / 2) % 2 == 0 { 1.0 } else { -1.0 } * (1.0 + (i % 7) as f64);
            a.push(av);
            b.push(bv);
            y.push(usize::from((av > 0.0) != (bv > 0.0)));
        }
        (vec![a, b], y)
    }

    fn hist_config() -> TreeConfig {
        TreeConfig {
            split: SplitMethod::Histogram,
            ..Default::default()
        }
    }

    #[test]
    fn classifier_learns_xor() {
        let (x, y) = xor_data(64);
        let mut t = DecisionTreeClassifier::new(TreeConfig::default());
        t.fit(&x, &y, 2).unwrap();
        assert_eq!(t.predict(&x).unwrap(), y);
    }

    #[test]
    fn hist_classifier_learns_xor() {
        let (x, y) = xor_data(64);
        let mut t = DecisionTreeClassifier::new(hist_config());
        t.fit(&x, &y, 2).unwrap();
        assert_eq!(t.predict(&x).unwrap(), y);
    }

    #[test]
    fn hist_matches_exact_when_bins_cover_distinct_values() {
        // Every feature has far fewer distinct values than max_bins, so
        // histogram split finding sees exactly the exact path's boundaries
        // and must grow an identical tree (same splits, same train
        // predictions, bit-identical importances).
        let (x, y) = xor_data(128);
        let mut exact = DecisionTreeClassifier::new(TreeConfig::default());
        exact.fit(&x, &y, 2).unwrap();
        let mut hist = DecisionTreeClassifier::new(hist_config());
        hist.fit(&x, &y, 2).unwrap();
        assert_eq!(exact.predict(&x).unwrap(), hist.predict(&x).unwrap());
        let ei = exact.tree().unwrap().feature_importances();
        let hi = hist.tree().unwrap().feature_importances();
        for (a, b) in ei.iter().zip(&hi) {
            assert_eq!(a.to_bits(), b.to_bits(), "importances must be bit-equal");
        }
        assert_eq!(
            exact.tree().unwrap().n_nodes(),
            hist.tree().unwrap().n_nodes()
        );
    }

    #[test]
    fn fit_binned_duplicate_rows_match_gathered_fit() {
        // Training on rows [0,0,1,2,...] through fit_binned must equal
        // exact training on the gathered (duplicated) sub-matrix.
        let (x, y) = xor_data(32);
        let rows: Vec<usize> = (0..32).chain(0..8).collect();
        let gx: Vec<Vec<f64>> = x
            .iter()
            .map(|c| rows.iter().map(|&r| c[r]).collect())
            .collect();
        let gy: Vec<usize> = rows.iter().map(|&r| y[r]).collect();
        let mut exact = DecisionTreeClassifier::new(TreeConfig::default());
        exact.fit(&gx, &gy, 2).unwrap();
        let binned = BinnedDataset::build(&x, DEFAULT_MAX_BINS).unwrap();
        let mut hist = DecisionTreeClassifier::new(hist_config());
        hist.fit_binned(&binned, &rows, &y, 2).unwrap();
        assert_eq!(exact.predict(&gx).unwrap(), hist.predict(&gx).unwrap());
    }

    /// Run the counting scan on `rows` of `col`, asserting the all-zero
    /// scratch invariant on exit.
    fn counting_scan(
        col: &binned::BinnedColumn,
        rows: &[usize],
        y: &[usize],
        n_classes: usize,
        msl: usize,
        scratch: &mut Scratch,
    ) -> Option<(usize, f64, f64)> {
        scratch.node_counts.clear();
        scratch.node_counts.resize(n_classes, 0);
        for &r in rows {
            scratch.node_counts[y[r]] += 1;
        }
        let out = match col.codes() {
            BinCodes::U8(c) => scan_counting_class(c, rows, y, col, msl, scratch),
            BinCodes::U16(c) => scan_counting_class(c, rows, y, col, msl, scratch),
        };
        assert!(scratch.counts.iter().all(|&v| v == 0), "counts left dirty");
        assert!(scratch.touched.iter().all(|&w| w == 0), "bitmap left dirty");
        out
    }

    fn dense_scan(
        col: &binned::BinnedColumn,
        rows: &[usize],
        y: &[usize],
        n_classes: usize,
        msl: usize,
    ) -> Option<(usize, f64, f64)> {
        let mut hist = Vec::new();
        binned::accumulate_class(col, rows, y, n_classes, &mut hist);
        scan_hist_class(&hist, n_classes, col, msl, &mut Vec::new(), &mut Vec::new())
    }

    fn bits(r: Option<(usize, f64, f64)>) -> Option<(usize, u64, u64)> {
        r.map(|(b, t, w)| (b, t.to_bits(), w.to_bits()))
    }

    #[test]
    fn counting_scan_matches_dense_scan_and_leaves_scratch_zeroed() {
        let mut rng = StdRng::seed_from_u64(11);
        // One scratch across every scan: u8 and u16 columns, 2..=5 classes,
        // growing and shrinking bin counts — the invariant must survive
        // reuse, not just a fresh buffer.
        let mut scratch = Scratch::default();
        for case in 0..300 {
            let n_rows = rng.gen_range(1..400);
            let distinct = if case % 2 == 0 {
                rng.gen_range(1..200)
            } else {
                rng.gen_range(257..600)
            };
            let values: Vec<f64> = (0..n_rows)
                .map(|_| rng.gen_range(0..distinct) as f64)
                .collect();
            let col = binned::BinnedColumn::build(&values, 1024);
            assert_eq!(
                matches!(col.codes(), BinCodes::U16(_)),
                col.n_bins() > 256,
                "case {case}"
            );
            let n_classes = rng.gen_range(2..=5);
            let y: Vec<usize> = (0..n_rows).map(|_| rng.gen_range(0..n_classes)).collect();
            // Node rows: a bootstrap-style draw with duplicates.
            let node_len = rng.gen_range(1..=n_rows);
            let rows: Vec<usize> = (0..node_len).map(|_| rng.gen_range(0..n_rows)).collect();
            let msl = rng.gen_range(1..4);
            assert_eq!(
                bits(counting_scan(&col, &rows, &y, n_classes, msl, &mut scratch)),
                bits(dense_scan(&col, &rows, &y, n_classes, msl)),
                "case {case}"
            );
        }
    }

    #[test]
    fn counting_scan_edge_nodes_leave_scratch_zeroed() {
        let values: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let y: Vec<usize> = (0..300).map(|i| i % 3).collect();
        for max_bins in [256, 1024] {
            let col = binned::BinnedColumn::build(&values, max_bins);
            let mut scratch = Scratch::default();
            // Single row, a single repeated row (one touched bin: the scan
            // exits with nothing on the right), a pure node, and a node
            // whose last touched bin is the column's last bin.
            let nodes: [&[usize]; 4] = [&[7], &[9, 9, 9], &[0, 3, 6, 9], &[1, 2, 299]];
            for rows in nodes {
                assert_eq!(
                    bits(counting_scan(&col, rows, &y, 3, 1, &mut scratch)),
                    bits(dense_scan(&col, rows, &y, 3, 1)),
                    "rows {rows:?} max_bins {max_bins}"
                );
            }
            assert!(counting_scan(&col, &[9, 9, 9], &y, 3, 1, &mut scratch).is_none());
            // min_samples_leaf larger than either side: no boundary.
            assert!(counting_scan(&col, &[1, 2, 299], &y, 3, 2, &mut scratch).is_none());
        }
    }

    #[test]
    fn hist_regressor_fits_step_function() {
        let x = vec![(0..100).map(|i| i as f64).collect::<Vec<_>>()];
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let mut t = DecisionTreeRegressor::new(hist_config());
        t.fit(&x, &y).unwrap();
        let preds = t.predict(&x).unwrap();
        for (p, t) in preds.iter().zip(&y) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn hist_rejects_invalid_max_bins() {
        let (x, y) = xor_data(16);
        let mut t = DecisionTreeClassifier::new(TreeConfig {
            max_bins: 1,
            ..hist_config()
        });
        assert!(t.fit(&x, &y, 2).is_err());
    }

    #[test]
    fn pure_node_is_leaf() {
        let x = vec![vec![1.0, 2.0, 3.0]];
        let y = vec![1, 1, 1];
        let mut t = DecisionTreeClassifier::new(TreeConfig::default());
        t.fit(&x, &y, 2).unwrap();
        assert_eq!(t.tree().unwrap().n_nodes(), 1);
        assert_eq!(t.predict(&x).unwrap(), y);
    }

    #[test]
    fn depth_zero_predicts_majority() {
        let (x, y) = xor_data(40);
        let cfg = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let mut t = DecisionTreeClassifier::new(cfg);
        t.fit(&x, &y, 2).unwrap();
        let preds = t.predict(&x).unwrap();
        assert!(preds.iter().all(|&p| p == preds[0]));
    }

    #[test]
    fn regressor_fits_step_function() {
        let x = vec![(0..100).map(|i| i as f64).collect::<Vec<_>>()];
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let mut t = DecisionTreeRegressor::new(TreeConfig::default());
        t.fit(&x, &y).unwrap();
        let preds = t.predict(&x).unwrap();
        for (p, t) in preds.iter().zip(&y) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn regressor_constant_target_single_leaf() {
        let x = vec![vec![1.0, 2.0, 3.0, 4.0]];
        let y = vec![7.0; 4];
        let mut t = DecisionTreeRegressor::new(TreeConfig::default());
        t.fit(&x, &y).unwrap();
        assert_eq!(t.tree().unwrap().n_nodes(), 1);
        assert_eq!(t.predict(&x).unwrap(), y);
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let (x, y) = xor_data(16);
        let cfg = TreeConfig {
            min_samples_leaf: 20, // larger than half the data → no split legal
            ..Default::default()
        };
        let mut t = DecisionTreeClassifier::new(cfg);
        t.fit(&x, &y, 2).unwrap();
        assert_eq!(t.tree().unwrap().n_nodes(), 1);
    }

    #[test]
    fn importances_sum_to_one_when_split() {
        let (x, y) = xor_data(64);
        let mut t = DecisionTreeClassifier::new(TreeConfig::default());
        t.fit(&x, &y, 2).unwrap();
        let imp = t.tree().unwrap().feature_importances();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Both XOR features matter.
        assert!(imp.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn errors_on_empty_and_mismatched_input() {
        let mut t = DecisionTreeClassifier::new(TreeConfig::default());
        assert!(t.fit(&[], &[], 2).is_err());
        assert!(t.fit(&[vec![1.0, 2.0]], &[0], 2).is_err());
        assert!(t.predict(&[vec![1.0]]).is_err()); // not fitted
        let (x, y) = xor_data(8);
        t.fit(&x, &y, 2).unwrap();
        assert!(t.predict(&[vec![1.0]]).is_err()); // wrong dimension
    }

    #[test]
    fn probabilities_are_distributions() {
        let (x, y) = xor_data(32);
        let cfg = TreeConfig {
            max_depth: 1,
            ..Default::default()
        };
        let mut t = DecisionTreeClassifier::new(cfg);
        t.fit(&x, &y, 2).unwrap();
        for p in t.predict_proba(&x).unwrap() {
            assert_eq!(p.len(), 2);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn ties_in_feature_values_are_respected() {
        // Feature has duplicate values at the would-be boundary; the tree
        // must not split between equal values.
        let x = vec![vec![1.0, 1.0, 1.0, 2.0]];
        let y = vec![0, 0, 1, 1];
        let mut t = DecisionTreeClassifier::new(TreeConfig::default());
        t.fit(&x, &y, 2).unwrap();
        let preds = t.predict(&x).unwrap();
        // Rows with value 1.0 share a leaf → same prediction.
        assert_eq!(preds[0], preds[1]);
        assert_eq!(preds[1], preds[2]);
        assert_eq!(preds[3], 1);
    }
}
