//! High-level pipeline helpers: RF-importance feature pre-selection
//! (paper §IV-B: "E-AFE first conducts feature selection of less than
//! maximum features according to the feature importance via RF"), one-call
//! FPE bootstrapping from a synthetic public corpus, and Table V's
//! cached-feature re-evaluation with alternative downstream models.

use crate::config::EafeConfig;
use crate::error::Result;
use crate::fpe::{search, FpeModel, FpeSearchSpace, RawLabels};
use learners::{
    feature_matrix, Evaluator, ForestConfig, ModelKind, RandomForestClassifier,
    RandomForestRegressor,
};
use tabular::public_corpus;
use tabular::{DataFrame, Label};

/// Keep the `max_features` most RF-important columns of a frame (identity
/// when the frame is already narrow enough).
pub fn preselect_features(frame: &DataFrame, max_features: usize, seed: u64) -> Result<DataFrame> {
    if frame.n_cols() <= max_features || max_features == 0 {
        return Ok(frame.clone());
    }
    let x = feature_matrix(frame);
    let cfg = ForestConfig {
        seed,
        ..ForestConfig::fast()
    };
    let importances = match frame.label() {
        Label::Class { y, n_classes } => {
            let mut rf = RandomForestClassifier::new(cfg);
            rf.fit(&x, y, *n_classes)?;
            rf.feature_importances()?
        }
        Label::Reg(y) => {
            let mut rf = RandomForestRegressor::new(cfg);
            rf.fit(&x, y)?;
            rf.feature_importances()?
        }
    };
    let keep = crate::baselines::top_k(&importances, max_features);
    Ok(frame.select_columns(&keep)?)
}

/// Pre-train an FPE model from a synthetic public corpus in one call —
/// the paper pre-trains on 239 OpenML datasets; `n_class`/`n_reg` scale
/// that corpus down for laptop runs (see DESIGN.md §2).
pub fn bootstrap_fpe(
    n_class: usize,
    n_reg: usize,
    space: &FpeSearchSpace,
    evaluator: &Evaluator,
    seed: u64,
) -> Result<FpeModel> {
    let corpus = public_corpus(n_class, n_reg, seed)?;
    let n_val = (corpus.len() / 5).max(1);
    let split = corpus.len().saturating_sub(n_val);
    // One cache across train and validation labelling: the corpora are
    // disjoint, but every per-frame baseline `A₀` is re-requested by the
    // augmented labelling and served from cache.
    let evaluator = runtime::Evaluator::new(evaluator.clone());
    // Augment the paper's leave-one-out labelling with add-one-in labels
    // for generated features: the gate's real input distribution.
    let gen_per_dataset = 8;
    let train =
        RawLabels::compute_augmented(&corpus[..split], &evaluator, gen_per_dataset, 3, seed)?;
    let val =
        RawLabels::compute_augmented(&corpus[split..], &evaluator, gen_per_dataset, 3, seed ^ 1)?;
    Ok(search(space, &train, &val)?.model)
}

/// Re-evaluate a cached engineered feature set with an alternative
/// downstream model (the paper's Table V: SVM, NB/GP, MLP).
pub fn reevaluate(engineered: &DataFrame, kind: ModelKind, base: &EafeConfig) -> Result<f64> {
    let mut evaluator = base.evaluator.clone();
    evaluator.kind = kind;
    Ok(evaluator.evaluate(engineered)?)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit per-field tweaks read clearer in tests
mod tests {
    use super::*;
    use minhash::HashFamily;
    use tabular::{SynthSpec, Task};

    fn fast_evaluator() -> Evaluator {
        let mut e = Evaluator::default();
        e.folds = 3;
        e.forest.n_trees = 6;
        e.forest.tree.max_depth = 5;
        e
    }

    #[test]
    fn preselect_keeps_top_features() {
        let frame = SynthSpec::new("pre", 150, 20, Task::Classification)
            .with_seed(21)
            .generate()
            .unwrap();
        let narrow = preselect_features(&frame, 8, 0).unwrap();
        assert_eq!(narrow.n_cols(), 8);
        assert_eq!(narrow.n_rows(), 150);
        // Identity when already narrow.
        let same = preselect_features(&narrow, 20, 0).unwrap();
        assert_eq!(same.n_cols(), 8);
    }

    #[test]
    fn preselect_works_for_regression() {
        let frame = SynthSpec::new("pre-r", 120, 15, Task::Regression)
            .with_seed(22)
            .generate()
            .unwrap();
        let narrow = preselect_features(&frame, 5, 0).unwrap();
        assert_eq!(narrow.n_cols(), 5);
    }

    #[test]
    fn bootstrap_fpe_trains_a_model() {
        let space = FpeSearchSpace {
            families: vec![HashFamily::Ccws],
            dims: vec![16],
            thre: 0.0,
            seed: 3,
        };
        let fpe = bootstrap_fpe(4, 2, &space, &fast_evaluator(), 51).unwrap();
        assert_eq!(fpe.d(), 16);
        assert!(fpe.metrics.recall >= 0.0);
        // The model must actually discriminate: score a couple of columns.
        let v: Vec<f64> = (0..60).map(|i| (i as f64 * 0.7).sin()).collect();
        let p = fpe.score_feature(&v).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn reevaluate_with_alternative_models() {
        let frame = SynthSpec::new("reval", 120, 6, Task::Classification)
            .with_seed(23)
            .generate()
            .unwrap();
        let mut cfg = EafeConfig::fast();
        cfg.evaluator = fast_evaluator();
        for kind in [ModelKind::Svm, ModelKind::NaiveBayesGp] {
            let score = reevaluate(&frame, kind, &cfg).unwrap();
            assert!(score.is_finite(), "{kind:?} score {score}");
        }
    }
}
