//! Feature-Validness labelling (paper Eq. 3, Algorithm 1 lines 3–16).
//!
//! For every public dataset `Dⁱ` the downstream task first scores the full
//! feature set (`A₀ⁱ`), then each residual dataset `D_jⁱ = Dⁱ − F_jⁱ`
//! obtained by leaving feature `j` out (`A_jⁱ`). Feature `j` is labelled
//! **effective** (1) when removing it costs more than `thre`:
//! `A₀ⁱ − A_jⁱ > thre` (Algorithm 1 line 9; Eq. 3's `sgn(A₀ − A_j + thre)`
//! has the threshold's sign flipped relative to the algorithm — we follow
//! the algorithm, which matches the text "thre is the threshold of score
//! gain ... larger than 0, so that better features can be found").
//!
//! Each labelled feature is represented by its MinHash-compressed,
//! z-scored sample vector so one classifier serves all datasets.

use crate::config::CachedEvaluator;
use crate::error::Result;
use runtime::WorkerPool;
use serde::{Deserialize, Serialize};
use tabular::DataFrame;

/// One labelled training example for the FPE binary classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledFeature {
    /// Fixed-size compressed representation (`d` values).
    pub compressed: Vec<f64>,
    /// 1 = effective, 0 = ineffective.
    pub label: usize,
    /// The raw score gain `A₀ − A_j` that produced the label (kept for the
    /// paper's Figure 6 threshold study).
    pub score_gain: f64,
}

/// The leave-one-feature-out score gain `A₀ − A_j` of every feature, in
/// column order; a single-feature dataset has none (the residual set
/// would be empty). [`crate::fpe::RawLabels`] labels these at any `thre`.
pub(crate) fn score_gains_for_dataset(
    frame: &DataFrame,
    evaluator: &CachedEvaluator,
) -> Result<Vec<f64>> {
    if frame.n_cols() < 2 {
        return Ok(Vec::new());
    }
    let _span = telemetry::span("fpe.score_gains");
    let a0 = evaluator.evaluate(frame)?;
    WorkerPool::new()
        .map((0..frame.n_cols()).collect(), |_ctx, j| {
            Ok(a0 - evaluator.evaluate(&frame.drop_column(j)?)?)
        })
        .into_iter()
        .collect()
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit per-field tweaks read clearer in tests
mod tests {
    use super::*;
    use learners::Evaluator;
    use tabular::{SynthSpec, Task};

    fn small_evaluator() -> CachedEvaluator {
        let mut e = Evaluator::default();
        e.folds = 3;
        e.forest.n_trees = 8;
        e.forest.tree.max_depth = 6;
        runtime::Evaluator::new(e)
    }

    #[test]
    fn every_feature_gets_a_finite_gain() {
        let frame = SynthSpec::new("lab", 120, 6, Task::Classification)
            .with_seed(3)
            .generate()
            .unwrap();
        let gains = score_gains_for_dataset(&frame, &small_evaluator()).unwrap();
        assert_eq!(gains.len(), 6);
        assert!(gains.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn single_feature_dataset_yields_no_gains() {
        let frame = SynthSpec::new("one", 60, 1, Task::Regression)
            .generate()
            .unwrap();
        assert!(score_gains_for_dataset(&frame, &small_evaluator())
            .unwrap()
            .is_empty());
    }
}
