//! Row sampling utilities: uniform and stratified subsampling. These
//! drive the paper's Figure 1 experiment (sample percentage vs
//! performance/time).

use crate::error::{Result, TabularError};
use crate::frame::{DataFrame, Label};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Uniformly subsample `fraction` of the rows without replacement.
/// At least one row is always kept.
pub(crate) fn subsample_fraction(frame: &DataFrame, fraction: f64, seed: u64) -> Result<DataFrame> {
    if !(0.0..=1.0).contains(&fraction) || fraction == 0.0 {
        return Err(TabularError::InvalidParam(format!(
            "fraction must be in (0,1], got {fraction}"
        )));
    }
    let n = frame.n_rows();
    if n == 0 {
        return Err(TabularError::Empty(
            "cannot subsample an empty frame".into(),
        ));
    }
    let keep = (((n as f64) * fraction).round() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    idx.truncate(keep);
    idx.sort_unstable(); // preserve original row ordering
    frame.take_rows(&idx)
}

/// Stratified subsample for classification frames: keeps `fraction` of each
/// class (at least one row per non-empty class). Falls back to uniform
/// subsampling for regression frames.
pub fn stratified_subsample(frame: &DataFrame, fraction: f64, seed: u64) -> Result<DataFrame> {
    let y = match frame.label() {
        Label::Class { y, .. } => y.clone(),
        Label::Reg(_) => return subsample_fraction(frame, fraction, seed),
    };
    if !(0.0..=1.0).contains(&fraction) || fraction == 0.0 {
        return Err(TabularError::InvalidParam(format!(
            "fraction must be in (0,1], got {fraction}"
        )));
    }
    if y.is_empty() {
        return Err(TabularError::Empty(
            "cannot subsample an empty frame".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n_classes = frame.label().n_classes();
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (i, &c) in y.iter().enumerate() {
        per_class[c].push(i);
    }
    let mut kept = Vec::new();
    for rows in &mut per_class {
        if rows.is_empty() {
            continue;
        }
        rows.shuffle(&mut rng);
        let keep = (((rows.len() as f64) * fraction).round() as usize).clamp(1, rows.len());
        kept.extend_from_slice(&rows[..keep]);
    }
    kept.sort_unstable();
    frame.take_rows(&kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::frame::{DataFrame, Label};

    fn class_frame(n: usize) -> DataFrame {
        DataFrame::new(
            "t",
            vec![Column::new("a", (0..n).map(|i| i as f64).collect())],
            Label::Class {
                y: (0..n).map(|i| i % 3).collect(),
                n_classes: 3,
            },
        )
        .unwrap()
    }

    #[test]
    fn subsample_keeps_expected_count() {
        let f = class_frame(100);
        let s = subsample_fraction(&f, 0.25, 1).unwrap();
        assert_eq!(s.n_rows(), 25);
        // Ordering preserved ascending since source column is 0..n.
        let v = &s.column(0).unwrap().values;
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn subsample_min_one_row() {
        let f = class_frame(10);
        let s = subsample_fraction(&f, 0.01, 1).unwrap();
        assert_eq!(s.n_rows(), 1);
    }

    #[test]
    fn subsample_rejects_bad_fraction() {
        let f = class_frame(10);
        assert!(subsample_fraction(&f, 0.0, 1).is_err());
        assert!(subsample_fraction(&f, 1.5, 1).is_err());
    }

    #[test]
    fn stratified_keeps_all_classes() {
        let f = class_frame(90);
        let s = stratified_subsample(&f, 0.1, 2).unwrap();
        let y = s.label().classes().unwrap();
        for c in 0..3 {
            assert!(y.contains(&c), "class {c} missing after subsample");
        }
        assert_eq!(s.n_rows(), 9);
    }

    #[test]
    fn stratified_falls_back_for_regression() {
        let f = DataFrame::new(
            "r",
            vec![Column::new("a", vec![1.0; 20])],
            Label::Reg(vec![0.0; 20]),
        )
        .unwrap();
        let s = stratified_subsample(&f, 0.5, 0).unwrap();
        assert_eq!(s.n_rows(), 10);
    }
}
