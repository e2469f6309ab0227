//! Train/test splitting and (stratified) k-fold cross-validation index
//! generation. All splitters are deterministic given a seed.

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

/// Plain k-fold partition of `n_rows` rows into `k` folds after a seeded
/// shuffle. Every row appears in exactly one test fold.
pub(crate) fn kfold_indices(n_rows: usize, k: usize, seed: u64) -> Result<Vec<Split>> {
    if k < 2 {
        return Err(TabularError::InvalidParam(format!(
            "k-fold requires k >= 2, got {k}"
        )));
    }
    if n_rows < k {
        return Err(TabularError::Empty(format!(
            "need at least k = {k} rows, got {n_rows}"
        )));
    }
    let mut idx: Vec<usize> = (0..n_rows).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &row) in idx.iter().enumerate() {
        folds[i % k].push(row);
    }
    Ok(build_splits(folds))
}

/// Stratified k-fold for classification: each fold approximately preserves
/// the class distribution. Falls back to an error for regression labels.
pub(crate) fn stratified_kfold_indices(label: &Label, k: usize, seed: u64) -> Result<Vec<Split>> {
    let y = match label {
        Label::Class { y, .. } => y,
        Label::Reg(_) => {
            return Err(TabularError::InvalidParam(
                "stratified k-fold requires classification labels".into(),
            ))
        }
    };
    if k < 2 {
        return Err(TabularError::InvalidParam(format!(
            "k-fold requires k >= 2, got {k}"
        )));
    }
    if y.len() < k {
        return Err(TabularError::Empty(format!(
            "need at least k = {k} rows, got {}",
            y.len()
        )));
    }
    let n_classes = label.n_classes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (i, &c) in y.iter().enumerate() {
        per_class[c].push(i);
    }
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut cursor = 0usize; // round-robin across class boundaries too
    for class_rows in &mut per_class {
        class_rows.shuffle(&mut rng);
        for &row in class_rows.iter() {
            folds[cursor % k].push(row);
            cursor += 1;
        }
    }
    Ok(build_splits(folds))
}

/// Choose the appropriate k-fold strategy for the label type: stratified for
/// classification, plain for regression.
pub fn cv_indices(label: &Label, k: usize, seed: u64) -> Result<Vec<Split>> {
    match label {
        Label::Class { .. } => stratified_kfold_indices(label, k, seed),
        Label::Reg(y) => kfold_indices(y.len(), k, seed),
    }
}

fn build_splits(folds: Vec<Vec<usize>>) -> Vec<Split> {
    let k = folds.len();
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

    #[test]
    fn kfold_covers_all_rows_once() {
        let splits = kfold_indices(23, 5, 3).unwrap();
        assert_eq!(splits.len(), 5);
        let mut seen = [0usize; 23];
        for s in &splits {
            assert_eq!(s.train.len() + s.test.len(), 23);
            for &i in &s.test {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn kfold_rejects_bad_params() {
        assert!(kfold_indices(10, 1, 0).is_err());
        assert!(kfold_indices(3, 5, 0).is_err());
    }

    #[test]
    fn stratified_preserves_class_balance() {
        // 40 of class 0, 20 of class 1.
        let mut y = vec![0usize; 40];
        y.extend(vec![1usize; 20]);
        let label = Label::Class { y, n_classes: 2 };
        let splits = stratified_kfold_indices(&label, 4, 9).unwrap();
        for s in &splits {
            let ones = s
                .test
                .iter()
                .filter(|&&i| label.classes().unwrap()[i] == 1)
                .count();
            // Each fold of 15 should hold ~5 of class 1.
            assert!((4..=6).contains(&ones), "fold had {ones} of class 1");
        }
    }

    #[test]
    fn stratified_rejects_regression() {
        assert!(stratified_kfold_indices(&Label::Reg(vec![1.0; 10]), 2, 0).is_err());
    }

    #[test]
    fn cv_indices_dispatches_on_task() {
        let class = Label::Class {
            y: vec![0, 1, 0, 1, 0, 1],
            n_classes: 2,
        };
        assert_eq!(cv_indices(&class, 3, 0).unwrap().len(), 3);
        let reg = Label::Reg(vec![0.0; 6]);
        assert_eq!(cv_indices(&reg, 3, 0).unwrap().len(), 3);
    }
}
