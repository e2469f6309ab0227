//! CART decision trees — the building block of the Random Forest downstream
//! task used throughout the paper. One [`Tree`] serves both tasks: the
//! [`Label`] it is fitted on picks Gini impurity and class-frequency
//! leaves (classification) or variance reduction and mean leaves
//! (regression), and its predictions come back as a `Label` of that task.
//!
//! Features are accessed column-major (`x[feature][row]`), matching
//! `tabular::DataFrame`'s layout so forests can train without transposing.
//!
//! Splits are found on pre-quantised features: [`TreeConfig::max_bins`]
//! quantile bins per column, built once into a [`BinnedDataset`] (see
//! [`crate::binned`]), then per node an `O(n_rows)` histogram-accumulation
//! pass per feature plus an `O(n_bins)` scan, with the sibling-subtraction
//! trick (a right child's histogram is its parent's minus its left
//! sibling's). With one bin per distinct value this is the textbook
//! sort-and-scan CART bit for bit — `tests/hist_parity.rs` holds it to an
//! exact oracle (`tests/support/exact_cart.rs`).
//!
//! Node rows live in a single in-place stably-partitioned row-index buffer
//! with the rows' labels kept beside it in the same order (DESIGN.md §8),
//! and scratch count buffers are reused across nodes, so every per-node
//! pass reads its labels sequentially and steady-state split finding
//! allocates only the per-feature histograms that the subtraction trick
//! hands from parent to child.

use crate::binned::{self, BinCodes, BinnedDataset, RegBin, SplitMethod, DEFAULT_MAX_BINS};
use crate::error::{LearnError, Result};
use crate::forest::{predict_label, Rows};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tabular::{Label, Task};

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
    /// How candidate splits are enumerated: one value, see [`SplitMethod`].
    pub split: SplitMethod,
    /// Per-feature bin budget, in `2..=MAX_BINS_LIMIT` (65 536).
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
            split: SplitMethod::Histogram,
            max_bins: DEFAULT_MAX_BINS,
        }
    }
}

/// [`Node::feature`] of a leaf.
const LEAF: u32 = u32::MAX;

/// One node of a fitted tree. A split's two children are allocated side
/// by side, so the walk picks one with an add (`left + 1` is the right
/// child) instead of a second load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Node {
    /// Split feature, or [`LEAF`].
    feature: u32,
    /// Split: index of the left child. Leaf: offset of its payload in
    /// [`Tree::leaf_values`].
    left: u32,
    /// Split threshold on the raw value scale (`value <= threshold` goes
    /// left).
    threshold: f64,
    /// The same split on the bin-code scale: a row of the binned dataset
    /// goes left iff its code is below `cut` — the boundary index plus
    /// one, or 0 under a NaN threshold, which sends every row right (see
    /// [`for_each_coded_row`] for NaN rows).
    cut: u32,
}

impl Node {
    /// Stands in for a child until `Builder::grow` reaches it.
    const UNGROWN: Node = Node {
        feature: LEAF,
        left: 0,
        threshold: 0.0,
        cut: 0,
    };
}

/// Labels the caller hands the builder, indexed by dataset row: a
/// borrowed [`Label`].
#[derive(Clone, Copy)]
pub(crate) enum Labels<'a> {
    Class { y: &'a [usize], n_classes: usize },
    Reg(&'a [f64]),
}

impl Labels<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Labels::Class { y, .. } => y.len(),
            Labels::Reg(y) => y.len(),
        }
    }
}

impl<'a> From<&'a Label> for Labels<'a> {
    fn from(label: &'a Label) -> Self {
        match label {
            Label::Class { y, n_classes } => Labels::Class {
                y,
                n_classes: *n_classes,
            },
            Label::Reg(y) => Labels::Reg(y),
        }
    }
}

/// The labels of the builder's rows *in node order*: entry `i` is the
/// label of `Builder::rows[i]`, filled once from the tree's draw and moved
/// by the same stable partition as the rows, so every per-node pass reads
/// its labels sequentially. `spill` stages right-side labels during a
/// partition.
enum NodeLabels {
    Class {
        y: Vec<u32>,
        spill: Vec<u32>,
        n_classes: usize,
    },
    Reg {
        y: Vec<f64>,
        spill: Vec<f64>,
    },
}

/// Borrowed node-ordered labels of one node (`lo..hi` of [`NodeLabels`]).
#[derive(Clone, Copy)]
enum LabelSlice<'a> {
    Class { y: &'a [u32], n_classes: usize },
    Reg(&'a [f64]),
}

impl NodeLabels {
    fn slice(&self, lo: usize, hi: usize) -> LabelSlice<'_> {
        match self {
            NodeLabels::Class { y, n_classes, .. } => LabelSlice::Class {
                y: &y[lo..hi],
                n_classes: *n_classes,
            },
            NodeLabels::Reg { y, .. } => LabelSlice::Reg(&y[lo..hi]),
        }
    }
}

/// A fitted CART tree, of the task of the label it was fitted on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
    /// Leaf payloads, `n_outputs` values per leaf: the mean target
    /// (regression) or the class frequencies (classification).
    leaf_values: Vec<f64>,
    pub(crate) n_outputs: usize,
    pub(crate) task: Task,
    pub(crate) n_features: usize,
    /// Total impurity decrease attributed to each feature (unnormalised).
    importances: Vec<f64>,
}

impl Tree {
    /// Fit on column-major features: quantise them (through the
    /// process-wide bin cache), then [`fit_binned`](Self::fit_binned) on
    /// every row.
    pub fn fit(x: &[Vec<f64>], label: &Label, config: TreeConfig) -> Result<Tree> {
        let binned = BinnedDataset::build_cached(x, config.max_bins)?;
        let all: Vec<usize> = (0..label.len()).collect();
        Self::fit_binned(&binned, &all, label, config)
    }

    /// Fit on a pre-binned dataset, training only on `rows` (which may
    /// repeat indices — bootstrap draws count multiply, exactly as they
    /// would in a gathered sub-matrix). `label` spans the full dataset.
    pub fn fit_binned(
        binned: &BinnedDataset,
        rows: &[usize],
        label: &Label,
        config: TreeConfig,
    ) -> Result<Tree> {
        Self::fit_labels(binned, rows, Labels::from(label), config)
    }

    /// [`fit_binned`](Self::fit_binned) on borrowed labels.
    pub(crate) fn fit_labels(
        binned: &BinnedDataset,
        rows: &[usize],
        labels: Labels<'_>,
        config: TreeConfig,
    ) -> Result<Tree> {
        Builder::build(binned, rows, labels, config)
    }

    /// Predict column-major features: the majority class of each row's
    /// leaf, or its mean target.
    pub fn predict(&self, x: &[Vec<f64>]) -> Result<Label> {
        let cols = predict_columns(x, self.n_features)?;
        Ok(predict_label(
            std::slice::from_ref(self),
            Rows::Values(&cols),
        ))
    }

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

    /// The payload of the leaf that a row with feature values `x` lands in.
    #[inline]
    pub(crate) fn leaf_values(&self, x: &[f64]) -> &[f64] {
        let mut node = &self.nodes[0];
        while node.feature != LEAF {
            // Adding the comparison keeps the data-dependent choice out of
            // the branch predictor.
            let goes_left = x[node.feature as usize] <= node.threshold;
            node = &self.nodes[(node.left + u32::from(!goes_left)) as usize];
        }
        &self.leaf_values[node.left as usize..][..self.n_outputs]
    }

    /// [`leaf_values`](Self::leaf_values) of a row of the binned dataset
    /// the tree was grown on, read from its bin codes (a row from
    /// [`for_each_coded_row`]): the same leaf, because `code < cut` and
    /// `value <= threshold` agree on every row the bins were built from.
    #[inline]
    pub(crate) fn leaf_values_coded(&self, codes: &[u16]) -> &[f64] {
        let mut node = &self.nodes[0];
        while node.feature != LEAF {
            let goes_left = u32::from(codes[node.feature as usize]) < node.cut;
            node = &self.nodes[(node.left + u32::from(!goes_left)) as usize];
        }
        &self.leaf_values[node.left as usize..][..self.n_outputs]
    }
}

/// Per-feature node histogram handed between siblings by the subtraction
/// trick.
enum Hist {
    Class(Vec<u32>),
    Reg(Vec<RegBin>),
}

/// A chosen split: `bin` is the boundary index the rows are partitioned
/// by; `threshold` is the same boundary on the raw value scale, so
/// prediction never needs the bins.
struct Candidate {
    feature: usize,
    threshold: f64,
    bin: usize,
    gain: f64,
}

/// Scratch buffers reused across every node of a build.
#[derive(Default)]
struct Scratch {
    /// Right-side rows during the in-place stable partition. Grown to the
    /// largest node partitioned so far, never cleared.
    spill_rows: Vec<u32>,
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
    binned: &'a BinnedDataset,
    cfg: TreeConfig,
    nodes: Vec<Node>,
    leaf_values: Vec<f64>,
    importances: Vec<f64>,
    rng: StdRng,
    n_total: usize,
    feature_pool: Vec<usize>,
    /// The single row-index buffer; `grow` works on `lo..hi` ranges of it
    /// and partitions in place.
    rows: Vec<u32>,
    /// The labels of `rows`, in the same order, partitioned with them.
    labels: NodeLabels,
    scratch: Scratch,
    /// Histograms obtained by sibling subtraction instead of
    /// re-accumulation (flushed to telemetry once per tree).
    hists_subtracted: u64,
    /// Small nodes split via the counting scan instead of a dense
    /// histogram (flushed to telemetry once per tree).
    sparse_scans: u64,
}

impl<'a> Builder<'a> {
    /// Grow one tree on `rows` (duplicates count multiply) of `binned`;
    /// `labels` are indexed by dataset row, like `rows`.
    fn build(
        binned: &'a BinnedDataset,
        rows: &[usize],
        labels: Labels<'_>,
        cfg: TreeConfig,
    ) -> Result<Tree> {
        let n_rows = labels.len();
        if binned.n_features() == 0 || n_rows == 0 || rows.is_empty() {
            return Err(LearnError::EmptyTrainingSet("decision tree".into()));
        }
        if binned.n_rows() != n_rows {
            return Err(LearnError::InvalidParam(format!(
                "binned dataset rows {} != label length {n_rows}",
                binned.n_rows()
            )));
        }
        if u32::try_from(n_rows).is_err() {
            return Err(LearnError::InvalidParam(format!(
                "{n_rows} rows do not fit the builder's u32 row ids"
            )));
        }
        // Narrow the row ids and pull each row's label into node order.
        // The label lookup is also the bounds check: `n_rows` fits `u32`,
        // so an id that passes it narrowed losslessly.
        let out_of_bounds = || LearnError::InvalidParam("training row index out of bounds".into());
        let node_rows: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
        let node_labels = match labels {
            Labels::Class { y, n_classes } => {
                let y = rows
                    .iter()
                    .map(|&r| match y.get(r) {
                        Some(&c) if c < n_classes => Ok(c as u32),
                        Some(&c) => Err(LearnError::InvalidParam(format!(
                            "class label {c} outside 0..{n_classes}"
                        ))),
                        None => Err(out_of_bounds()),
                    })
                    .collect::<Result<Vec<u32>>>()?;
                NodeLabels::Class {
                    y,
                    spill: Vec::new(),
                    n_classes,
                }
            }
            Labels::Reg(y) => NodeLabels::Reg {
                y: rows
                    .iter()
                    .map(|&r| y.get(r).copied().ok_or_else(out_of_bounds))
                    .collect::<Result<Vec<f64>>>()?,
                spill: Vec::new(),
            },
        };
        let n_features = binned.n_features();
        let n_train = rows.len();
        let mut b = Builder {
            binned,
            cfg,
            nodes: Vec::new(),
            leaf_values: Vec::new(),
            importances: vec![0.0; n_features],
            rng: StdRng::seed_from_u64(cfg.seed),
            n_total: n_train,
            feature_pool: (0..n_features).collect(),
            rows: node_rows,
            labels: node_labels,
            scratch: Scratch::default(),
            hists_subtracted: 0,
            sparse_scans: 0,
        };
        let start = telemetry::enabled().then(std::time::Instant::now);
        b.nodes.push(Node::UNGROWN);
        b.grow(0, 0, n_train, 0, Vec::new());
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
            leaf_values: b.leaf_values,
            n_outputs: match labels {
                Labels::Class { n_classes, .. } => n_classes,
                Labels::Reg(_) => 1,
            },
            task: match labels {
                Labels::Class { .. } => Task::Classification,
                Labels::Reg(_) => Task::Regression,
            },
            n_features,
            importances: b.importances,
        })
    }

    /// Make node `at` the leaf for `lo..hi`: its class frequencies or mean
    /// target.
    fn set_leaf(&mut self, at: usize, lo: usize, hi: usize) {
        let offset = self.leaf_values.len();
        match self.labels.slice(lo, hi) {
            LabelSlice::Class { y, n_classes } => {
                self.leaf_values.resize(offset + n_classes, 0.0);
                let counts = &mut self.leaf_values[offset..];
                for &c in y {
                    counts[c as usize] += 1.0;
                }
                let total = (y.len() as f64).max(1.0);
                for c in counts {
                    *c /= total;
                }
            }
            LabelSlice::Reg(y) => {
                let mean = y.iter().sum::<f64>() / y.len().max(1) as f64;
                self.leaf_values.push(mean);
            }
        }
        self.nodes[at] = Node {
            feature: LEAF,
            left: offset as u32,
            threshold: 0.0,
            cut: 0,
        };
    }

    fn impurity(&mut self, lo: usize, hi: usize) -> f64 {
        match self.labels.slice(lo, hi) {
            LabelSlice::Class { y, n_classes } => {
                let counts = &mut self.scratch.node_counts;
                counts.clear();
                counts.resize(n_classes, 0);
                for &c in y {
                    counts[c as usize] += 1;
                }
                gini(counts, y.len())
            }
            LabelSlice::Reg(y) => {
                let n = y.len() as f64;
                // One pass, two accumulators, each adding in node order
                // from `-0.0` — exactly what two `Iterator::sum` passes
                // compute, bit for bit.
                let (mut sum, mut sumsq) = (-0.0f64, -0.0f64);
                for &v in y {
                    sum += v;
                    sumsq += v * v;
                }
                (sumsq / n - (sum / n) * (sum / n)).max(0.0)
            }
        }
    }

    /// Stable in-place partition of `rows[lo..hi]` (and their labels) by
    /// `code <= c.bin`; returns the left-side length. A scanned boundary
    /// sends left exactly the rows the scan summed, so the count comes out
    /// of the partition itself and both sides hold `min_samples_leaf` rows.
    fn partition(&mut self, lo: usize, hi: usize, c: &Candidate) -> usize {
        let rows = &mut self.rows[lo..hi];
        let spill = &mut self.scratch.spill_rows;
        let labels = &mut self.labels;
        let nl = match self.binned.column(c.feature).codes() {
            BinCodes::U8(codes) => {
                labels.partition(lo, hi, rows, spill, |r| codes[r as usize] as usize <= c.bin)
            }
            BinCodes::U16(codes) => {
                labels.partition(lo, hi, rows, spill, |r| codes[r as usize] as usize <= c.bin)
            }
        };
        let msl = self.cfg.min_samples_leaf;
        debug_assert!(
            nl >= msl && hi - lo - nl >= msl,
            "a scanned boundary keeps {msl} rows per side, got {nl} | {}",
            hi - lo - nl
        );
        nl
    }

    /// Recursively grow the subtree for `rows[lo..hi]` into node `at`;
    /// returns the per-feature histograms this node accumulated, which the
    /// caller turns into the right sibling's via subtraction.
    fn grow(
        &mut self,
        at: usize,
        lo: usize,
        hi: usize,
        depth: usize,
        mut inherited: Vec<(usize, Hist)>,
    ) -> Vec<(usize, Hist)> {
        let n = hi - lo;
        let node_impurity = self.impurity(lo, hi);
        let stop =
            depth >= self.cfg.max_depth || n < self.cfg.min_samples_split || node_impurity <= 1e-12;
        let mut node_hists = Vec::new();
        if !stop {
            let (cand, hists) = self.best_split(lo, hi, node_impurity, &mut inherited);
            node_hists = hists;
            if let Some(c) = cand {
                let nl = self.partition(lo, hi, &c);
                self.importances[c.feature] += c.gain * n as f64 / self.n_total as f64;
                let left = self.nodes.len();
                self.nodes.extend([Node::UNGROWN, Node::UNGROWN]);
                self.nodes[at] = Node {
                    feature: c.feature as u32,
                    left: left as u32,
                    threshold: c.threshold,
                    cut: if c.threshold.is_nan() {
                        0
                    } else {
                        c.bin as u32 + 1
                    },
                };
                let left_hists = self.grow(left, lo, lo + nl, depth + 1, Vec::new());
                let right_inherited = subtract_siblings(&node_hists, left_hists);
                self.grow(left + 1, lo + nl, hi, depth + 1, right_inherited);
                return node_hists;
            }
        }
        self.set_leaf(at, lo, hi);
        node_hists
    }

    /// Best candidate split over a random feature subset (`None` if no
    /// valid split exists), and every candidate feature's node histogram
    /// for sibling reuse. Three phases (DESIGN.md §13): classify every
    /// candidate feature, batch-accumulate the ones that need an `O(rows)`
    /// pass (feature-parallel across the worker pool, merged in fixed
    /// feature order so any thread count is bitwise identical to one),
    /// then scan serially in the shuffled `feature_pool` order the node
    /// drew — the scan order carries the strict `gain >` tie-break, so it
    /// must not change with the accumulation schedule.
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
        let binned = self.binned;
        let rows = &self.rows[lo..hi];
        let labels = self.labels.slice(lo, hi);
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
                None if rows.len() < col.n_bins() && matches!(labels, LabelSlice::Class { .. }) => {
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
            LabelSlice::Class { y, n_classes } => {
                binned::accumulate_class_node_parallel(&cols, rows, y, n_classes)
                    .into_iter()
                    .map(|h| Some(Hist::Class(h)))
                    .collect()
            }
            LabelSlice::Reg(y) => binned::accumulate_reg_node_parallel(&cols, rows, y)
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
                    let LabelSlice::Class { y, .. } = labels else {
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
                // Invariant: `plans` names every batch index exactly once.
                #[allow(clippy::expect_used)]
                Plan::Batched(idx) => batched[idx]
                    .take()
                    .expect("each batched histogram scans once"),
            };
            let scanned = match &hist {
                Hist::Class(h) => scan_hist_class(h, col, msl, scratch),
                Hist::Reg(h) => scan_hist_reg(h, col, msl),
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

impl NodeLabels {
    /// Stably partition `rows` — the builder's `lo..hi` — and this
    /// buffer's `lo..hi` in lockstep; returns the left-side length.
    fn partition(
        &mut self,
        lo: usize,
        hi: usize,
        rows: &mut [u32],
        spill_rows: &mut Vec<u32>,
        pred: impl FnMut(u32) -> bool,
    ) -> usize {
        match self {
            NodeLabels::Class { y, spill, .. } => {
                stable_partition(rows, &mut y[lo..hi], spill_rows, spill, pred)
            }
            NodeLabels::Reg { y, spill } => {
                stable_partition(rows, &mut y[lo..hi], spill_rows, spill, pred)
            }
        }
    }
}

/// Stable in-place partition of a node's rows and labels (parallel
/// slices): left-side entries keep their order at the front, right-side
/// entries (staged through the spill buffers) keep theirs at the back —
/// exactly `Iterator::partition`. Returns the left-side length.
///
/// The predicate of a good split is a coin flip per row, so instead of
/// branching on it every entry is written to *both* destinations and the
/// predicate only decides which cursor advances. The left cursor never
/// passes the read position, so the in-place write is safe; the spill
/// buffers are sized once per call and never zeroed.
fn stable_partition<L: Copy + Default>(
    rows: &mut [u32],
    labels: &mut [L],
    spill_rows: &mut Vec<u32>,
    spill_labels: &mut Vec<L>,
    mut pred: impl FnMut(u32) -> bool,
) -> usize {
    let n = rows.len();
    assert_eq!(labels.len(), n, "rows and labels are parallel");
    if spill_rows.len() < n {
        spill_rows.resize(n, 0);
    }
    if spill_labels.len() < n {
        spill_labels.resize(n, L::default());
    }
    let (spill_rows, spill_labels) = (&mut spill_rows[..n], &mut spill_labels[..n]);
    let (mut left, mut right) = (0usize, 0usize);
    for i in 0..n {
        let (row, label) = (rows[i], labels[i]);
        let goes_left = pred(row);
        rows[left] = row;
        labels[left] = label;
        spill_rows[right] = row;
        spill_labels[right] = label;
        left += usize::from(goes_left);
        right += usize::from(!goes_left);
    }
    rows[left..].copy_from_slice(&spill_rows[..right]);
    labels[left..].copy_from_slice(&spill_labels[..right]);
    left
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

/// Scan a class histogram's bin boundaries, returning `(bin, threshold,
/// weighted child impurity)` of the best boundary.
///
/// Boundary enumeration mirrors a sorted scan exactly: a boundary is
/// considered only after a non-empty bin with rows remaining on the
/// right, Gini is computed from the integer counts, and ties keep the
/// first minimum — so with one bin per distinct value this chooses the
/// exact CART's splits bit for bit.
///
/// `scratch.node_counts` must hold the node's class counts (`impurity`
/// leaves them there): they are the histogram's totals, so the scan does
/// not walk every bin once more just to add them up.
fn scan_hist_class(
    hist: &[u32],
    col: &binned::BinnedColumn,
    min_samples_leaf: usize,
    scratch: &mut Scratch,
) -> Option<(usize, f64, f64)> {
    let Scratch {
        node_counts,
        left_counts: left,
        right_counts: right,
        ..
    } = scratch;
    let n_classes = node_counts.len();
    let n_bins = col.n_bins();
    debug_assert_eq!(hist.len(), n_bins * n_classes);
    left.clear();
    left.resize(n_classes, 0);
    right.clone_from(node_counts);
    let n: usize = node_counts.iter().sum();
    debug_assert_eq!(n, hist.iter().map(|&v| v as usize).sum::<usize>());
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
/// `y[i]` is the class of `rows[i]`; `scratch.node_counts` must hold the
/// class counts of the node (`impurity` leaves them there). Scratch invariant: `counts` and `touched` are
/// all-zero on entry and on every exit — each visited entry is zeroed as
/// it is read, and once no row remains on the right every touched bin has
/// been visited.
/// (Classification only: regression sums are order-sensitive floats,
/// so the dense accumulation stays the one canonical order.)
fn scan_counting_class<C: Copy + Into<usize>>(
    codes: &[C],
    rows: &[u32],
    y: &[u32],
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
    for (&r, &c) in rows.iter().zip(y) {
        let b: usize = codes[r as usize].into();
        counts[b * n_classes + c as usize] += 1;
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

/// Column slices of a column-major matrix, checked against the feature
/// count a model was fitted on (and non-empty, so `cols[0]` gives the row
/// count).
pub(crate) fn predict_columns(x: &[Vec<f64>], fitted: usize) -> Result<Vec<&[f64]>> {
    if x.len() != fitted {
        return Err(LearnError::DimensionMismatch {
            fitted,
            got: x.len(),
        });
    }
    Ok(x.iter().map(Vec::as_slice).collect())
}

/// Rows whose feature values are gathered together before any tree walks
/// them: 256 rows of a dozen features stay well inside L1.
const PREDICT_BLOCK: usize = 256;

/// Call `row(x)` once per row of the column-major `cols`, in order, with
/// `x` the row's feature values side by side — what [`Tree::leaf_values`]
/// walks.
///
/// Rows are transposed a block at a time into one small row-major buffer,
/// so the walk that follows finds each value with one L1 load off the
/// row's base instead of chasing a column pointer first.
pub(crate) fn for_each_row(cols: &[&[f64]], mut row: impl FnMut(&[f64])) {
    let n_cols = cols.len();
    let n_rows = cols[0].len();
    let mut buf = vec![0.0; n_cols * PREDICT_BLOCK.min(n_rows)];
    for start in (0..n_rows).step_by(PREDICT_BLOCK) {
        let len = PREDICT_BLOCK.min(n_rows - start);
        for (c, col) in cols.iter().enumerate() {
            let dst = buf[c..].iter_mut().step_by(n_cols);
            for (d, &v) in dst.zip(&col[start..start + len]) {
                *d = v;
            }
        }
        buf[..len * n_cols].chunks_exact(n_cols).for_each(&mut row);
    }
}

/// [`for_each_row`] over the bin codes of `rows` of `binned`, picked by
/// index (a CV fold's test rows, which come shuffled: the gather is a run
/// of independent loads) — what [`Tree::leaf_values_coded`] walks — with
/// the one value a code cannot
/// show folded in: a NaN row reads `u16::MAX`, which no `cut` exceeds, so
/// it goes right at every split exactly as `NaN <= threshold` does. (A
/// real code of `u16::MAX` is in the top bin, which goes right at every
/// split too.)
pub(crate) fn for_each_coded_row(
    binned: &BinnedDataset,
    rows: &[usize],
    mut row: impl FnMut(&[u16]),
) {
    let n_cols = binned.n_features();
    let mut buf = vec![0u16; n_cols * PREDICT_BLOCK.min(rows.len())];
    for block in rows.chunks(PREDICT_BLOCK) {
        for c in 0..n_cols {
            let col = binned.column(c);
            let dst = buf[c..].iter_mut().step_by(n_cols);
            match col.codes() {
                BinCodes::U8(codes) => {
                    for (d, &r) in dst.zip(block) {
                        *d = u16::from(codes[r]);
                    }
                }
                BinCodes::U16(codes) => {
                    for (d, &r) in dst.zip(block) {
                        *d = codes[r];
                    }
                }
            }
            let nan_rows = col.nan_rows();
            if !nan_rows.is_empty() {
                let dst = buf[c..].iter_mut().step_by(n_cols);
                for (d, r) in dst.zip(block) {
                    if nan_rows.binary_search(r).is_ok() {
                        *d = u16::MAX;
                    }
                }
            }
        }
        buf[..block.len() * n_cols]
            .chunks_exact(n_cols)
            .for_each(&mut row);
    }
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
    fn xor_data(n: usize) -> (Vec<Vec<f64>>, Label) {
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
        (vec![a, b], Label::Class { y, n_classes: 2 })
    }

    /// The classes of a classification prediction.
    fn classes(pred: Label) -> Vec<usize> {
        pred.classes().unwrap().to_vec()
    }

    #[test]
    fn classifier_learns_xor() {
        let (x, y) = xor_data(64);
        let t = Tree::fit(&x, &y, TreeConfig::default()).unwrap();
        assert_eq!(t.predict(&x).unwrap(), y);
    }

    #[test]
    fn fit_binned_duplicate_rows_match_gathered_fit() {
        // Training on rows [0,0,1,2,...] through fit_binned must equal
        // training on the gathered (duplicated) sub-matrix: every distinct
        // value survives the gather, so both see the same bins.
        let (x, y) = xor_data(32);
        let rows: Vec<usize> = (0..32).chain(0..8).collect();
        let gx: Vec<Vec<f64>> = x
            .iter()
            .map(|c| rows.iter().map(|&r| c[r]).collect())
            .collect();
        let gathered = Tree::fit(&gx, &y.take(&rows), TreeConfig::default()).unwrap();
        let binned = BinnedDataset::build(&x, DEFAULT_MAX_BINS).unwrap();
        let indexed = Tree::fit_binned(&binned, &rows, &y, TreeConfig::default()).unwrap();
        assert_eq!(gathered, indexed);
    }

    /// A node in the builder's layout: narrowed row ids, and each row's
    /// class pulled into node order.
    fn node_of(rows: &[usize], y: &[usize]) -> (Vec<u32>, Vec<u32>) {
        binned::node_order(rows, y, |&c| c as u32)
    }

    /// Leave the node's class counts in `scratch.node_counts`, as
    /// `impurity` does before either scan runs.
    fn set_node_counts(scratch: &mut Scratch, labels: &[u32], n_classes: usize) {
        scratch.node_counts.clear();
        scratch.node_counts.resize(n_classes, 0);
        for &c in labels {
            scratch.node_counts[c as usize] += 1;
        }
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
        let (rows, labels) = node_of(rows, y);
        set_node_counts(scratch, &labels, n_classes);
        let out = match col.codes() {
            BinCodes::U8(c) => scan_counting_class(c, &rows, &labels, col, msl, scratch),
            BinCodes::U16(c) => scan_counting_class(c, &rows, &labels, col, msl, scratch),
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
        let (rows, labels) = node_of(rows, y);
        let mut scratch = Scratch::default();
        set_node_counts(&mut scratch, &labels, n_classes);
        let mut hist = Vec::new();
        binned::accumulate_class_node(col, &rows, &labels, n_classes, &mut hist);
        scan_hist_class(&hist, col, msl, &mut scratch)
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

    /// Rows of a histogram's bins `..=bin`: what the scan counted as the
    /// left side of that boundary.
    fn left_of(bin_rows: impl Iterator<Item = usize>, bin: usize) -> usize {
        bin_rows.take(bin + 1).sum()
    }

    #[test]
    fn binned_split_sends_left_exactly_the_rows_the_scan_counted() {
        // The binned path partitions without a look-ahead count, so every
        // boundary a scan returns must (a) keep `min_samples_leaf` rows on
        // each side and (b) send left — by `code <= bin` — exactly the rows
        // the scan summed: dense class and regression histograms, freshly
        // accumulated and obtained by sibling subtraction, and the
        // counting scan.
        let mut rng = StdRng::seed_from_u64(29);
        let mut scratch = Scratch::default();
        let (mut spill_rows, mut spill_c, mut spill_r) = (Vec::new(), Vec::new(), Vec::new());
        let mut splits = 0;
        for case in 0..300 {
            let n_rows = rng.gen_range(8..500usize);
            let distinct = rng.gen_range(2..400);
            let values: Vec<f64> = (0..n_rows)
                .map(|_| rng.gen_range(0..distinct) as f64)
                .collect();
            let col = binned::BinnedColumn::build(&values, if case % 2 == 0 { 64 } else { 1024 });
            let n_classes = rng.gen_range(2..=5);
            let yc: Vec<usize> = (0..n_rows).map(|_| rng.gen_range(0..n_classes)).collect();
            let yr: Vec<f64> = (0..n_rows).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let msl = rng.gen_range(1..4);
            // A parent node (a bootstrap draw) cut in two at random: the
            // right part's histograms come out of a subtraction.
            let parent: Vec<usize> = (0..n_rows).map(|_| rng.gen_range(0..n_rows)).collect();
            let cut = rng.gen_range(0..parent.len());
            let (left_part, node) = parent.split_at(cut);
            let (ids, classes) = node_of(node, &yc);
            let targets: Vec<f64> = node.iter().map(|&r| yr[r]).collect();
            let code_of = |r: u32| col.codes().get(r as usize);

            let hist_of = |rows: &[usize]| {
                let (ids, classes) = node_of(rows, &yc);
                let targets: Vec<f64> = rows.iter().map(|&r| yr[r]).collect();
                let (mut hc, mut hr) = (Vec::new(), Vec::new());
                binned::accumulate_class_node(&col, &ids, &classes, n_classes, &mut hc);
                binned::accumulate_reg_node(&col, &ids, &targets, &mut hr);
                (hc, hr)
            };
            let (fresh_c, fresh_r) = hist_of(node);
            let (parent_c, parent_r) = hist_of(&parent);
            let (left_c, left_r) = hist_of(left_part);
            let class_hists = [fresh_c, binned::subtract_class(&parent_c, &left_c)];
            let reg_hists = [fresh_r, binned::subtract_reg(&parent_r, &left_r)];

            let mut check = |bin: usize, counted: usize, what: &str| {
                let (mut rows, mut labels) = (ids.clone(), classes.clone());
                let nl =
                    stable_partition(&mut rows, &mut labels, &mut spill_rows, &mut spill_c, |r| {
                        code_of(r) <= bin
                    });
                assert_eq!(nl, counted, "case {case} {what}: partition vs scan");
                assert!(
                    nl >= msl && node.len() - nl >= msl,
                    "case {case} {what}: {nl} | {} under min_samples_leaf {msl}",
                    node.len() - nl
                );
                splits += 1;
            };
            set_node_counts(&mut scratch, &classes, n_classes);
            for (h, what) in class_hists.iter().zip(["class", "class subtracted"]) {
                if let Some((bin, _, _)) = scan_hist_class(h, &col, msl, &mut scratch) {
                    let per_bin = h.chunks(n_classes).map(|b| b.iter().sum::<u32>() as usize);
                    check(bin, left_of(per_bin, bin), what);
                }
            }
            for (h, what) in reg_hists.iter().zip(["reg", "reg subtracted"]) {
                if let Some((bin, _, _)) = scan_hist_reg(h, &col, msl) {
                    check(bin, left_of(h.iter().map(|b| b.n as usize), bin), what);
                }
            }
            let counted = match col.codes() {
                BinCodes::U8(c) => scan_counting_class(c, &ids, &classes, &col, msl, &mut scratch),
                BinCodes::U16(c) => scan_counting_class(c, &ids, &classes, &col, msl, &mut scratch),
            };
            if let Some((bin, _, _)) = counted {
                let left = ids.iter().filter(|&&r| code_of(r) <= bin).count();
                check(bin, left, "counting");
            }
            // The regression label buffer moves the same way.
            if let Some((bin, _, _)) = scan_hist_reg(&reg_hists[0], &col, msl) {
                let (mut rows, mut labels) = (ids.clone(), targets.clone());
                stable_partition(&mut rows, &mut labels, &mut spill_rows, &mut spill_r, |r| {
                    code_of(r) <= bin
                });
                for (&r, &v) in rows.iter().zip(&labels) {
                    assert_eq!(v.to_bits(), yr[r as usize].to_bits(), "case {case}");
                }
            }
        }
        assert!(splits > 600, "only {splits} boundaries were checked");
    }

    #[test]
    fn stable_partition_of_tiny_nodes() {
        let (mut spill_rows, mut spill_labels) = (Vec::new(), Vec::new());
        for (rows, expect_left) in [
            (vec![], 0),
            (vec![4], 1),
            (vec![5], 0),
            (vec![5, 4], 1),
            (vec![4, 6], 2),
            (vec![7, 9], 0),
        ] {
            let mut got_rows: Vec<u32> = rows.clone();
            let mut labels: Vec<f64> = rows.iter().map(|&r| r as f64 * 0.5).collect();
            let nl = stable_partition(
                &mut got_rows,
                &mut labels,
                &mut spill_rows,
                &mut spill_labels,
                |r| r % 2 == 0,
            );
            let (left, right): (Vec<u32>, Vec<u32>) = rows.iter().partition(|&&r| r % 2 == 0);
            assert_eq!(nl, expect_left, "{rows:?}");
            assert_eq!(got_rows, [left, right].concat(), "{rows:?}");
            let aligned: Vec<f64> = got_rows.iter().map(|&r| r as f64 * 0.5).collect();
            assert_eq!(labels, aligned, "{rows:?}");
        }
    }

    proptest::proptest! {
        /// The write-both-advance-one partition is `Iterator::partition`
        /// on the (row, label) pairs — so rows keep their order on both
        /// sides and every label stays beside its row — for any predicate
        /// on the row id, with duplicate rows, through spill buffers that
        /// carry whatever the previous (possibly larger) call left in them.
        #[test]
        fn stable_partition_matches_iterator_partition(
            rows in proptest::collection::vec(0u32..64, 0..300),
            next in proptest::collection::vec(0u32..64, 0..40),
            goes_left in proptest::collection::vec(0u8..2, 64..65),
        ) {
            let (mut spill_rows, mut spill_labels) = (Vec::new(), Vec::new());
            for rows in [rows, next] {
                // Position-stamped labels: duplicates of a row stay
                // distinguishable, so a swapped pair cannot hide.
                let pairs: Vec<(u32, u32)> =
                    rows.iter().enumerate().map(|(i, &r)| (r, i as u32)).collect();
                let (left, right): (Vec<_>, Vec<_>) =
                    pairs.iter().partition(|(r, _)| goes_left[*r as usize] == 1);
                let mut got_rows = rows.clone();
                let mut got_labels: Vec<u32> = pairs.iter().map(|p| p.1).collect();
                let nl = stable_partition(
                    &mut got_rows,
                    &mut got_labels,
                    &mut spill_rows,
                    &mut spill_labels,
                    |r| goes_left[r as usize] == 1,
                );
                proptest::prop_assert_eq!(nl, left.len());
                let got: Vec<(u32, u32)> = got_rows.into_iter().zip(got_labels).collect();
                proptest::prop_assert_eq!(got, [left, right].concat());
            }
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
    fn rejects_invalid_max_bins() {
        let (x, y) = xor_data(16);
        let cfg = TreeConfig {
            max_bins: 1,
            ..Default::default()
        };
        assert!(Tree::fit(&x, &y, cfg).is_err());
    }

    #[test]
    fn pure_node_is_leaf() {
        let x = vec![vec![1.0, 2.0, 3.0]];
        let y = Label::Class {
            y: vec![1, 1, 1],
            n_classes: 2,
        };
        let t = Tree::fit(&x, &y, TreeConfig::default()).unwrap();
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict(&x).unwrap(), y);
    }

    #[test]
    fn depth_zero_predicts_majority() {
        let (x, y) = xor_data(40);
        let cfg = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let preds = classes(Tree::fit(&x, &y, cfg).unwrap().predict(&x).unwrap());
        assert!(preds.iter().all(|&p| p == preds[0]));
    }

    #[test]
    fn regressor_fits_step_function() {
        let x = vec![(0..100).map(|i| i as f64).collect::<Vec<_>>()];
        let y = Label::Reg((0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect());
        let preds = Tree::fit(&x, &y, TreeConfig::default())
            .unwrap()
            .predict(&x)
            .unwrap();
        for (p, t) in preds.targets().unwrap().iter().zip(y.targets().unwrap()) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn regressor_constant_target_single_leaf() {
        let x = vec![vec![1.0, 2.0, 3.0, 4.0]];
        let y = Label::Reg(vec![7.0; 4]);
        let t = Tree::fit(&x, &y, TreeConfig::default()).unwrap();
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict(&x).unwrap(), y);
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let (x, y) = xor_data(16);
        let cfg = TreeConfig {
            min_samples_leaf: 20, // larger than half the data → no split legal
            ..Default::default()
        };
        assert_eq!(Tree::fit(&x, &y, cfg).unwrap().n_nodes(), 1);
    }

    #[test]
    fn importances_sum_to_one_when_split() {
        let (x, y) = xor_data(64);
        let imp = Tree::fit(&x, &y, TreeConfig::default())
            .unwrap()
            .feature_importances();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Both XOR features matter.
        assert!(imp.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn errors_on_empty_and_mismatched_input() {
        let cfg = TreeConfig::default();
        let class = |y: Vec<usize>| Label::Class { y, n_classes: 2 };
        assert!(Tree::fit(&[], &class(Vec::new()), cfg).is_err());
        assert!(Tree::fit(&[vec![1.0, 2.0]], &class(vec![0]), cfg).is_err());
        let (x, y) = xor_data(8);
        let t = Tree::fit(&x, &y, cfg).unwrap();
        assert!(t.predict(&[vec![1.0]]).is_err()); // wrong dimension
    }

    #[test]
    fn ties_in_feature_values_are_respected() {
        // Feature has duplicate values at the would-be boundary; the tree
        // must not split between equal values.
        let x = vec![vec![1.0, 1.0, 1.0, 2.0]];
        let y = Label::Class {
            y: vec![0, 0, 1, 1],
            n_classes: 2,
        };
        let preds = classes(
            Tree::fit(&x, &y, TreeConfig::default())
                .unwrap()
                .predict(&x)
                .unwrap(),
        );
        // Rows with value 1.0 share a leaf → same prediction.
        assert_eq!(preds[0], preds[1]);
        assert_eq!(preds[1], preds[2]);
        assert_eq!(preds[3], 1);
    }
}
