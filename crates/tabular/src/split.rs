//! Train/test splitting and the (stratified) k-fold cross-validation fold
//! order. All splitters are deterministic given a seed.

use crate::error::{Result, TabularError};
use crate::frame::Label;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A single train/test index partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Row indices assigned to the training portion.
    pub train: Vec<usize>,
    /// Row indices assigned to the test portion.
    pub test: Vec<usize>,
}

/// Shuffle-and-cut train/test split. `test_fraction` must be in (0, 1) and
/// both sides must end up non-empty.
pub fn train_test_indices(n_rows: usize, test_fraction: f64, seed: u64) -> Result<Split> {
    if !(0.0..1.0).contains(&test_fraction) || test_fraction == 0.0 {
        return Err(TabularError::InvalidParam(format!(
            "test_fraction must be in (0,1), got {test_fraction}"
        )));
    }
    if n_rows < 2 {
        return Err(TabularError::Empty(format!(
            "need at least 2 rows to split, got {n_rows}"
        )));
    }
    let mut idx: Vec<usize> = (0..n_rows).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    let n_test = ((n_rows as f64) * test_fraction).round().max(1.0) as usize;
    let n_test = n_test.min(n_rows - 1);
    let (test, train) = idx.split_at(n_test);
    Ok(Split {
        train: train.to_vec(),
        test: test.to_vec(),
    })
}

/// The k folds of a cross-validation as one order of `u32` row ids (the
/// tree builder's): fold 0's rows, then fold 1's, …, then fold k−1's, with
/// k + 1 offsets. Fold `t` tests on its slice and trains on the rest, read
/// in place ([`FoldTrain`]): n ids however many folds run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldOrder {
    order: Vec<u32>,
    offsets: Vec<usize>,
}

impl FoldOrder {
    /// `k` folds, dealt round-robin after a seeded shuffle: stratified for
    /// classification (class by class, each shuffled in turn, so each fold
    /// about keeps the class distribution), of all rows for regression.
    pub fn new(label: &Label, k: usize, seed: u64) -> Result<FoldOrder> {
        let n = label.len();
        if k < 2 {
            return Err(TabularError::InvalidParam(format!(
                "k-fold requires k >= 2, got {k}"
            )));
        }
        if n < k {
            return Err(TabularError::Empty(format!(
                "need at least k = {k} rows, got {n}"
            )));
        }
        let n_ids = u32::try_from(n)
            .map_err(|_| TabularError::InvalidParam(format!("{n} rows exceed u32 ids")))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shuffled = |mut rows: Vec<u32>| {
            rows.shuffle(&mut rng);
            rows
        };
        let dealt: Vec<u32> = match label {
            Label::Class { y, n_classes } => {
                let mut by_class = vec![Vec::new(); *n_classes];
                (0..n_ids).zip(y).for_each(|(r, &c)| by_class[c].push(r));
                by_class.into_iter().flat_map(shuffled).collect()
            }
            Label::Reg(_) => shuffled((0..n_ids).collect()),
        };
        // Dealt row i goes to fold i % k, as that fold's (i / k)-th row.
        let offsets: Vec<usize> = (0..=k).map(|t| t * (n / k) + t.min(n % k)).collect();
        let mut order = vec![0u32; n];
        for (i, &r) in dealt.iter().enumerate() {
            order[offsets[i % k] + i / k] = r;
        }
        Ok(FoldOrder { order, offsets })
    }

    /// Fold `t`'s test rows.
    pub fn test(&self, t: usize) -> &[u32] {
        &self.order[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Fold `t`'s train rows: every other fold's, in fold order.
    pub fn train(&self, t: usize) -> FoldTrain<'_> {
        let (lo, skip) = (self.offsets[t], self.test(t).len());
        let order = &self.order;
        FoldTrain { order, lo, skip }
    }
}

/// One fold's train rows, read in place: the [`FoldOrder`] without the
/// fold's `skip` test rows from `lo` on, so position `p` holds `order[p]`
/// before `lo` and `order[p + skip]` from it on.
#[derive(Debug, Clone, Copy)]
pub struct FoldTrain<'a> {
    order: &'a [u32],
    lo: usize,
    skip: usize,
}

impl FoldTrain<'_> {
    /// Number of train rows.
    pub fn n_rows(self) -> usize {
        self.order.len() - self.skip
    }

    /// The row at position `p < n_rows()`, branch-free: bootstrap draws land anywhere.
    #[inline]
    pub fn get(self, p: usize) -> usize {
        self.order[p + usize::from(p >= self.lo) * self.skip] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_test_partition_is_complete_and_disjoint() {
        let s = train_test_indices(100, 0.25, 7).unwrap();
        assert_eq!(s.test.len(), 25);
        assert_eq!(s.train.len(), 75);
        let mut all: Vec<usize> = s.train.iter().chain(&s.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn train_test_is_deterministic_per_seed() {
        let a = train_test_indices(50, 0.2, 42).unwrap();
        let b = train_test_indices(50, 0.2, 42).unwrap();
        let c = train_test_indices(50, 0.2, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn train_test_rejects_bad_params() {
        assert!(train_test_indices(10, 0.0, 0).is_err());
        assert!(train_test_indices(10, 1.0, 0).is_err());
        assert!(train_test_indices(1, 0.5, 0).is_err());
    }

    #[test]
    fn tiny_split_keeps_both_sides_nonempty() {
        let s = train_test_indices(2, 0.9, 0).unwrap();
        assert_eq!(s.test.len(), 1);
        assert_eq!(s.train.len(), 1);
    }

    /// The k materialised train and test lists the fold order replaced,
    /// as `cv_indices` built them (error checks left out): the oracle for
    /// [`FoldOrder`].
    fn k_lists(label: &Label, k: usize, seed: u64) -> Vec<Split> {
        let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
        match label {
            Label::Class { y, .. } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); label.n_classes()];
                for (i, &c) in y.iter().enumerate() {
                    per_class[c].push(i);
                }
                let mut cursor = 0usize; // round-robin across class boundaries too
                for class_rows in &mut per_class {
                    class_rows.shuffle(&mut rng);
                    for &row in class_rows.iter() {
                        folds[cursor % k].push(row);
                        cursor += 1;
                    }
                }
            }
            Label::Reg(y) => {
                let mut idx: Vec<usize> = (0..y.len()).collect();
                idx.shuffle(&mut StdRng::seed_from_u64(seed));
                for (i, &row) in idx.iter().enumerate() {
                    folds[i % k].push(row);
                }
            }
        }
        // `build_splits`.
        (0..k)
            .map(|t| {
                let test = folds[t].clone();
                let train = folds
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != t)
                    .flat_map(|(_, f)| f.iter().copied())
                    .collect();
                Split { train, test }
            })
            .collect()
    }

    fn labels(n: usize) -> Vec<Label> {
        let reg = Label::Reg((0..n).map(|i| i as f64).collect());
        // Class 2 holds one row, fewer than any k: its row lands in one fold.
        let mut y: Vec<usize> = (0..n).map(|i| usize::from(i % 3 == 0)).collect();
        y[n / 2] = 2;
        vec![reg, Label::Class { y, n_classes: 4 }]
    }

    #[test]
    fn fold_order_yields_the_k_lists_element_by_element() {
        for k in [2, 3, 5] {
            for n in [k, k + 1, 4 * k - 1, 97] {
                for label in labels(n) {
                    for seed in [0, 9] {
                        let folds = FoldOrder::new(&label, k, seed).unwrap();
                        let oracle = k_lists(&label, k, seed);
                        assert_eq!(oracle.len(), k);
                        for (t, want) in oracle.iter().enumerate() {
                            let test: Vec<usize> =
                                folds.test(t).iter().map(|&r| r as usize).collect();
                            let train = folds.train(t);
                            let by_position: Vec<usize> =
                                (0..train.n_rows()).map(|p| train.get(p)).collect();
                            let what =
                                format!("k {k}, n {n}, seed {seed}, fold {t}, {:?}", label.task());
                            assert_eq!(test, want.test, "{what}");
                            assert_eq!(by_position, want.train, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn folds_cover_all_rows_once() {
        let folds = FoldOrder::new(&Label::Reg(vec![0.0; 23]), 5, 3).unwrap();
        let mut seen = [0usize; 23];
        for t in 0..5 {
            assert_eq!(folds.train(t).n_rows() + folds.test(t).len(), 23);
            for &i in folds.test(t) {
                seen[i as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn fold_order_rejects_bad_params() {
        let reg = Label::Reg(vec![0.0; 10]);
        assert!(FoldOrder::new(&reg, 1, 0).is_err());
        assert!(FoldOrder::new(&Label::Reg(vec![0.0; 3]), 5, 0).is_err());
        let class = Label::Class {
            y: vec![0, 1],
            n_classes: 2,
        };
        assert!(FoldOrder::new(&class, 3, 0).is_err());
    }

    #[test]
    fn stratified_preserves_class_balance() {
        // 40 of class 0, 20 of class 1.
        let mut y = vec![0usize; 40];
        y.extend(vec![1usize; 20]);
        let label = Label::Class { y, n_classes: 2 };
        let folds = FoldOrder::new(&label, 4, 9).unwrap();
        for t in 0..4 {
            let ones = folds
                .test(t)
                .iter()
                .filter(|&&i| label.classes().unwrap()[i as usize] == 1)
                .count();
            // Each fold of 15 should hold ~5 of class 1.
            assert!((4..=6).contains(&ones), "fold had {ones} of class 1");
        }
    }
}
