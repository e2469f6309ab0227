//! Exact (sort-and-scan) classification CART and a no-frills forest over
//! it — the reference `tests/hist_parity.rs` holds the histogram builder
//! to. `learners` ships one split finder; this is the textbook one it must
//! agree with wherever the bins cover every distinct value.
//!
//! Self-contained on purpose: nothing here but the two config structs comes
//! from `learners`, so a bug in the library cannot hide in its own oracle.
//! `gini`, `midpoint`, the weighted child impurity, the `gain > 1e-12` and
//! strict `>` tie-breaks, the look-ahead left count and the node visiting
//! order (node, left subtree, right subtree; one `feature_pool.shuffle` per
//! node that is not stopped) are the expressions the library's own exact
//! path had until it was deleted — cross-checked against it bit for bit
//! before the delete (EXPERIMENTS.md "PR 23").

use learners::{ForestConfig, TreeConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

enum Node {
    /// Class frequencies of the rows that landed here.
    Leaf(Vec<f64>),
    /// `value <= threshold` goes to the next node, the rest to `right`.
    Split {
        feature: usize,
        threshold: f64,
        right: usize,
    },
}

/// A fitted exact classification tree.
pub(crate) struct ExactTree {
    nodes: Vec<Node>,
    /// Impurity decrease per feature, unnormalised.
    importances: Vec<f64>,
}

struct Grower<'a> {
    x: &'a [Vec<f64>],
    y: &'a [usize],
    n_classes: usize,
    cfg: TreeConfig,
    rng: StdRng,
    feature_pool: Vec<usize>,
    nodes: Vec<Node>,
    importances: Vec<f64>,
}

impl Grower<'_> {
    /// Grow the subtree of `rows` (node order = row order, kept stable by
    /// every partition); returns its root's index.
    fn grow(&mut self, rows: &[usize], depth: usize) -> usize {
        let (x, n) = (self.x, rows.len());
        let mut counts = vec![0usize; self.n_classes];
        for &r in rows {
            counts[self.y[r]] += 1;
        }
        let node_impurity = gini(&counts, n);
        let stop =
            depth >= self.cfg.max_depth || n < self.cfg.min_samples_split || node_impurity <= 1e-12;
        let at = self.nodes.len();
        if !stop {
            if let Some((feature, threshold, gain)) = self.best_split(rows, node_impurity) {
                // Look-ahead count: `midpoint` can round onto the upper of
                // the two values it separates and so send more rows left
                // than the scan counted.
                let goes_left = |r: &&usize| x[feature][**r] <= threshold;
                let nl = rows.iter().filter(goes_left).count();
                let msl = self.cfg.min_samples_leaf;
                if nl >= msl && n - nl >= msl {
                    let (left, right): (Vec<usize>, Vec<usize>) = rows.iter().partition(goes_left);
                    self.importances[feature] += gain * n as f64 / self.y.len() as f64;
                    self.nodes.push(Node::Leaf(Vec::new()));
                    self.grow(&left, depth + 1);
                    let right = self.grow(&right, depth + 1);
                    self.nodes[at] = Node::Split {
                        feature,
                        threshold,
                        right,
                    };
                    return at;
                }
            }
        }
        let total = (n as f64).max(1.0);
        let frequencies = counts.iter().map(|&c| c as f64 / total).collect();
        self.nodes.push(Node::Leaf(frequencies));
        at
    }

    /// `(feature, threshold, gain)` of the best split over this node's
    /// random feature subset.
    fn best_split(&mut self, rows: &[usize], node_impurity: f64) -> Option<(usize, f64, f64)> {
        let k = self
            .cfg
            .max_features
            .unwrap_or(self.feature_pool.len())
            .clamp(1, self.feature_pool.len());
        self.feature_pool.shuffle(&mut self.rng);
        let mut best: Option<(usize, f64, f64)> = None;
        for &feature in &self.feature_pool[..k] {
            let mut sorted: Vec<(f64, usize)> = rows
                .iter()
                .map(|&r| (self.x[feature][r], self.y[r]))
                .collect();
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            if sorted[0].0 == sorted[sorted.len() - 1].0 {
                continue; // constant within node
            }
            if let Some((threshold, child_impurity)) =
                scan_sorted(&sorted, self.n_classes, self.cfg.min_samples_leaf)
            {
                let gain = node_impurity - child_impurity;
                if gain > 1e-12 && best.is_none_or(|b| gain > b.2) {
                    best = Some((feature, threshold, gain));
                }
            }
        }
        best
    }
}

/// Scan value-sorted `(value, class)` pairs; returns the boundary threshold
/// with minimum weighted child impurity (first minimum on ties).
fn scan_sorted(
    sorted: &[(f64, usize)],
    n_classes: usize,
    min_samples_leaf: usize,
) -> Option<(f64, f64)> {
    let n = sorted.len();
    let mut left = vec![0usize; n_classes];
    let mut right = vec![0usize; n_classes];
    for &(_, c) in sorted {
        right[c] += 1;
    }
    let mut best: Option<(f64, f64)> = None;
    for i in 0..n - 1 {
        let c = sorted[i].1;
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
        let w = (nl as f64 * gini(&left, nl) + nr as f64 * gini(&right, nr)) / n as f64;
        if best.is_none_or(|(_, bw)| w < bw) {
            best = Some((midpoint(sorted[i].0, sorted[i + 1].0), w));
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

fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

impl ExactTree {
    /// Fit on every row of the column-major `x`.
    pub(crate) fn fit(x: &[Vec<f64>], y: &[usize], n_classes: usize, cfg: TreeConfig) -> ExactTree {
        let mut g = Grower {
            x,
            y,
            n_classes,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            feature_pool: (0..x.len()).collect(),
            nodes: Vec::new(),
            importances: vec![0.0; x.len()],
        };
        let all: Vec<usize> = (0..y.len()).collect();
        g.grow(&all, 0);
        ExactTree {
            nodes: g.nodes,
            importances: g.importances,
        }
    }

    /// Class frequencies of the leaf that row `row` of `x` lands in.
    fn leaf(&self, x: &[Vec<f64>], row: usize) -> &[f64] {
        let mut at = 0;
        loop {
            match &self.nodes[at] {
                Node::Leaf(frequencies) => return frequencies,
                Node::Split {
                    feature,
                    threshold,
                    right,
                } => {
                    at = if x[*feature][row] <= *threshold {
                        at + 1
                    } else {
                        *right
                    }
                }
            }
        }
    }

    pub(crate) fn predict(&self, x: &[Vec<f64>]) -> Vec<usize> {
        (0..x[0].len()).map(|r| argmax(self.leaf(x, r))).collect()
    }

    pub(crate) fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Impurity decrease per feature, normalised to sum to 1 (all zeros for
    /// a single leaf).
    pub(crate) fn feature_importances(&self) -> Vec<f64> {
        let total: f64 = self.importances.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.importances.len()];
        }
        self.importances.iter().map(|v| v / total).collect()
    }
}

/// Exact trees on per-tree draws: seeds and bootstrap rows come off one
/// RNG in tree order, every tree trains on its gathered sub-matrix.
pub(crate) struct ExactForest {
    trees: Vec<ExactTree>,
    n_classes: usize,
}

impl ExactForest {
    pub(crate) fn fit(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        cfg: ForestConfig,
    ) -> ExactForest {
        let n_rows = y.len();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut tree_cfg = cfg.tree;
        if tree_cfg.max_features.is_none() {
            let sqrt = ((x.len() as f64).sqrt().round() as usize).clamp(1, x.len());
            tree_cfg.max_features = Some(sqrt);
        }
        let trees = (0..cfg.n_trees)
            .map(|_| {
                let seed = rng.gen::<u64>();
                let rows: Vec<usize> = if cfg.bootstrap {
                    (0..n_rows).map(|_| rng.gen_range(0..n_rows)).collect()
                } else {
                    (0..n_rows).collect()
                };
                let xb: Vec<Vec<f64>> = x
                    .iter()
                    .map(|col| rows.iter().map(|&r| col[r]).collect())
                    .collect();
                let yb: Vec<usize> = rows.iter().map(|&r| y[r]).collect();
                ExactTree::fit(&xb, &yb, n_classes, TreeConfig { seed, ..tree_cfg })
            })
            .collect();
        ExactForest { trees, n_classes }
    }

    /// Per row: the trees' leaf frequencies added in tree order, `/ k`,
    /// first maximum.
    pub(crate) fn predict(&self, x: &[Vec<f64>]) -> Vec<usize> {
        let k = self.trees.len() as f64;
        (0..x[0].len())
            .map(|r| {
                let mut acc = vec![0.0; self.n_classes];
                for tree in &self.trees {
                    for (a, p) in acc.iter_mut().zip(tree.leaf(x, r)) {
                        *a += p;
                    }
                }
                for a in &mut acc {
                    *a /= k;
                }
                argmax(&acc)
            })
            .collect()
    }

    /// Sum of the trees' normalised importances, renormalised to sum to 1.
    pub(crate) fn feature_importances(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.trees[0].importances.len()];
        for tree in &self.trees {
            for (a, v) in acc.iter_mut().zip(tree.feature_importances()) {
                *a += v;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        acc
    }
}
