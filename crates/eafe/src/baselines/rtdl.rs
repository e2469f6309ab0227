//! Deep-learning baselines (paper §IV-A3 and Table III):
//!
//! - **RTDL_N (`DL_N`)** — an RTDL-style tabular ResNet trained with its
//!   native head, then *re-headed* with a Random Forest on the penultimate
//!   representation: "after training and validating the ResNet …, we change
//!   the downstream task of ResNet, softmax, into RF, then test".
//! - **FE|DL** — features selected by feature engineering fed into the
//!   deep-learning model.
//! - **DL|FE** — original features through the trained ResNet; its output
//!   representation is then handed to the feature-engineering selector
//!   (RF-importance selection) and scored with the RF downstream task.
//!
//! Unlike the cross-validated AFE methods, these use a fixed
//! train/validation/test partition — which the paper identifies as the
//! source of the ResNet's fragility on small datasets.

use crate::error::Result;
use crate::report::{EpochPoint, PhaseTimer, RunResult};
use learners::{
    f1_score, feature_matrix, one_minus_rae, ForestConfig, LearnError, RandomForestClassifier,
    RandomForestRegressor, ResNetClassifier, ResNetConfig, ResNetRegressor,
};
use tabular::train_test_indices;
use tabular::{DataFrame, Label};

/// Configuration shared by the three DL baselines.
#[derive(Debug, Clone)]
pub struct DlBaselineConfig {
    /// ResNet settings.
    pub resnet: ResNetConfig,
    /// Forest settings for the RF re-head / selector.
    pub forest: ForestConfig,
    /// Test fraction of the fixed split.
    pub test_fraction: f64,
    /// Features kept by DL|FE's importance selection.
    pub dlfe_keep: usize,
    /// Split/seed master.
    pub seed: u64,
}

impl Default for DlBaselineConfig {
    fn default() -> Self {
        Self {
            resnet: ResNetConfig {
                epochs: 25,
                ..ResNetConfig::default()
            },
            forest: ForestConfig::fast(),
            test_fraction: 0.25,
            dlfe_keep: 12,
            seed: 0xD1,
        }
    }
}

/// A model's predictions on the test rows, shaped by the task.
enum Predictions {
    Class(Vec<usize>),
    Reg(Vec<f64>),
}

/// Score predictions with the paper's metric for the task.
fn score_predictions(test: &DataFrame, preds: Predictions) -> Result<f64> {
    Ok(match (test.label(), preds) {
        (Label::Class { y, n_classes }, Predictions::Class(p)) => f1_score(y, &p, *n_classes)?,
        (Label::Reg(y), Predictions::Reg(p)) => one_minus_rae(y, &p)?,
        _ => {
            let msg = "predictions do not match the test rows' task".to_string();
            return Err(LearnError::InvalidParam(msg).into());
        }
    })
}

fn single_point_result(
    method: &str,
    frame: &DataFrame,
    score: f64,
    timer: &PhaseTimer,
) -> RunResult {
    RunResult {
        method: method.into(),
        dataset: frame.name.clone(),
        base_score: score,
        best_score: score,
        trace: vec![EpochPoint {
            epoch: 0,
            score,
            downstream_evals: 1,
            elapsed_secs: timer.total_secs(),
        }],
        generated_features: 0,
        downstream_evals: 1,
        selected: Vec::new(),
        generation_secs: timer.generation_secs(),
        eval_secs: timer.eval_secs(),
        total_secs: timer.total_secs(),
        // The DL baselines use a fixed split, not the cached CV evaluator.
        cache_hits: 0,
        cache_misses: 0,
    }
}

/// `RTDL_N`: ResNet feature extractor + RF head, fixed split.
pub fn run_rtdl_n(config: &DlBaselineConfig, frame: &DataFrame) -> Result<RunResult> {
    let mut frame = frame.clone();
    frame.sanitize();
    let _run_span = telemetry::span("rtdl.run_rtdl_n");
    let mut timer = PhaseTimer::new();
    timer.start();
    let split = train_test_indices(frame.n_rows(), config.test_fraction, config.seed)?;
    let train = frame.take_rows(&split.train)?;
    let test = frame.take_rows(&split.test)?;
    let xtr = feature_matrix(&train);
    let xte = feature_matrix(&test);

    let score = match train.label() {
        Label::Class { y, n_classes } => {
            let mut net = ResNetClassifier::new(ResNetConfig {
                seed: config.seed,
                ..config.resnet
            });
            timer.generation(|| net.fit(&xtr, y, *n_classes))?;
            // Re-head: RF on penultimate representations.
            let etr = net.embed(&xtr)?;
            let ete = net.embed(&xte)?;
            let mut rf = RandomForestClassifier::new(ForestConfig {
                seed: config.seed,
                ..config.forest
            });
            timer.evaluation(|| -> Result<()> {
                rf.fit(&etr, y, *n_classes)?;
                Ok(())
            })?;
            let preds = rf.predict(&ete)?;
            score_predictions(&test, Predictions::Class(preds))?
        }
        Label::Reg(y) => {
            let mut net = ResNetRegressor::new(ResNetConfig {
                seed: config.seed,
                ..config.resnet
            });
            timer.generation(|| net.fit(&xtr, y))?;
            let etr = net.embed(&xtr)?;
            let ete = net.embed(&xte)?;
            let mut rf = RandomForestRegressor::new(ForestConfig {
                seed: config.seed,
                ..config.forest
            });
            timer.evaluation(|| -> Result<()> {
                rf.fit(&etr, y)?;
                Ok(())
            })?;
            let preds = rf.predict(&ete)?;
            score_predictions(&test, Predictions::Reg(preds))?
        }
    };
    Ok(single_point_result("RTDL_N", &frame, score, &timer))
}

/// `FE|DL`: an (already feature-engineered) frame scored by the ResNet's
/// own head on a fixed split.
pub fn run_fe_dl(config: &DlBaselineConfig, engineered: &DataFrame) -> Result<RunResult> {
    let mut frame = engineered.clone();
    frame.sanitize();
    let _run_span = telemetry::span("rtdl.run_fe_dl");
    let mut timer = PhaseTimer::new();
    timer.start();
    let split = train_test_indices(frame.n_rows(), config.test_fraction, config.seed)?;
    let train = frame.take_rows(&split.train)?;
    let test = frame.take_rows(&split.test)?;
    let xtr = feature_matrix(&train);
    let xte = feature_matrix(&test);

    let score = match train.label() {
        Label::Class { y, n_classes } => {
            let mut net = ResNetClassifier::new(ResNetConfig {
                seed: config.seed,
                ..config.resnet
            });
            timer.generation(|| net.fit(&xtr, y, *n_classes))?;
            let preds = timer.evaluation(|| net.predict(&xte))?;
            score_predictions(&test, Predictions::Class(preds))?
        }
        Label::Reg(y) => {
            let mut net = ResNetRegressor::new(ResNetConfig {
                seed: config.seed,
                ..config.resnet
            });
            timer.generation(|| net.fit(&xtr, y))?;
            let preds = timer.evaluation(|| net.predict(&xte))?;
            score_predictions(&test, Predictions::Reg(preds))?
        }
    };
    Ok(single_point_result("FE|DL", &frame, score, &timer))
}

/// `DL|FE`: ResNet representation of the raw features → RF-importance
/// feature selection → RF scoring on the fixed split.
pub fn run_dl_fe(config: &DlBaselineConfig, frame: &DataFrame) -> Result<RunResult> {
    let mut frame = frame.clone();
    frame.sanitize();
    let _run_span = telemetry::span("rtdl.run_dl_fe");
    let mut timer = PhaseTimer::new();
    timer.start();
    let split = train_test_indices(frame.n_rows(), config.test_fraction, config.seed)?;
    let train = frame.take_rows(&split.train)?;
    let test = frame.take_rows(&split.test)?;
    let xtr = feature_matrix(&train);
    let xte = feature_matrix(&test);

    let score = match train.label() {
        Label::Class { y, n_classes } => {
            let mut net = ResNetClassifier::new(ResNetConfig {
                seed: config.seed,
                ..config.resnet
            });
            timer.generation(|| net.fit(&xtr, y, *n_classes))?;
            let etr = net.embed(&xtr)?;
            let ete = net.embed(&xte)?;
            // Feature engineering step: keep the most important embedding
            // dimensions by RF importance.
            let mut probe = RandomForestClassifier::new(ForestConfig {
                seed: config.seed,
                ..config.forest
            });
            probe.fit(&etr, y, *n_classes)?;
            let keep = top_k(&probe.feature_importances()?, config.dlfe_keep);
            let etr_sel = select_columns(&etr, &keep);
            let ete_sel = select_columns(&ete, &keep);
            let mut rf = RandomForestClassifier::new(ForestConfig {
                seed: config.seed ^ 1,
                ..config.forest
            });
            timer.evaluation(|| -> Result<()> {
                rf.fit(&etr_sel, y, *n_classes)?;
                Ok(())
            })?;
            score_predictions(&test, Predictions::Class(rf.predict(&ete_sel)?))?
        }
        Label::Reg(y) => {
            let mut net = ResNetRegressor::new(ResNetConfig {
                seed: config.seed,
                ..config.resnet
            });
            timer.generation(|| net.fit(&xtr, y))?;
            let etr = net.embed(&xtr)?;
            let ete = net.embed(&xte)?;
            let mut probe = RandomForestRegressor::new(ForestConfig {
                seed: config.seed,
                ..config.forest
            });
            probe.fit(&etr, y)?;
            let keep = top_k(&probe.feature_importances()?, config.dlfe_keep);
            let etr_sel = select_columns(&etr, &keep);
            let ete_sel = select_columns(&ete, &keep);
            let mut rf = RandomForestRegressor::new(ForestConfig {
                seed: config.seed ^ 1,
                ..config.forest
            });
            timer.evaluation(|| -> Result<()> {
                rf.fit(&etr_sel, y)?;
                Ok(())
            })?;
            score_predictions(&test, Predictions::Reg(rf.predict(&ete_sel)?))?
        }
    };
    Ok(single_point_result("DL|FE", &frame, score, &timer))
}

/// Indices of the `k` largest importances.
pub(crate) fn top_k(importances: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..importances.len()).collect();
    idx.sort_by(|&a, &b| {
        importances[b]
            .partial_cmp(&importances[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(k.max(1));
    idx.sort_unstable();
    idx
}

fn select_columns(x: &[Vec<f64>], keep: &[usize]) -> Vec<Vec<f64>> {
    keep.iter().map(|&i| x[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::{SynthSpec, Task};

    fn fast_config() -> DlBaselineConfig {
        DlBaselineConfig {
            resnet: ResNetConfig {
                epochs: 4,
                width: 12,
                n_blocks: 1,
                ..ResNetConfig::default()
            },
            forest: ForestConfig {
                n_trees: 6,
                ..ForestConfig::fast()
            },
            dlfe_keep: 6,
            ..Default::default()
        }
    }

    fn class_frame() -> DataFrame {
        SynthSpec::new("dl-c", 150, 6, Task::Classification)
            .with_seed(11)
            .generate()
            .unwrap()
    }

    fn reg_frame() -> DataFrame {
        SynthSpec::new("dl-r", 150, 6, Task::Regression)
            .with_seed(12)
            .generate()
            .unwrap()
    }

    #[test]
    fn rtdl_n_runs_both_tasks() {
        let cfg = fast_config();
        let rc = run_rtdl_n(&cfg, &class_frame()).unwrap();
        assert_eq!(rc.method, "RTDL_N");
        assert!(rc.best_score.is_finite());
        assert!((0.0..=1.0).contains(&rc.best_score));
        let rr = run_rtdl_n(&cfg, &reg_frame()).unwrap();
        assert!(rr.best_score.is_finite());
    }

    #[test]
    fn fe_dl_and_dl_fe_run() {
        let cfg = fast_config();
        let f = class_frame();
        let a = run_fe_dl(&cfg, &f).unwrap();
        assert_eq!(a.method, "FE|DL");
        let b = run_dl_fe(&cfg, &f).unwrap();
        assert_eq!(b.method, "DL|FE");
        assert!(a.best_score.is_finite() && b.best_score.is_finite());
        // Regression variants.
        let r = reg_frame();
        assert!(run_fe_dl(&cfg, &r).is_ok());
        assert!(run_dl_fe(&cfg, &r).is_ok());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = fast_config();
        let f = class_frame();
        let a = run_rtdl_n(&cfg, &f).unwrap();
        let b = run_rtdl_n(&cfg, &f).unwrap();
        assert_eq!(a.best_score, b.best_score);
    }

    #[test]
    fn top_k_selects_largest() {
        let imp = [0.1, 0.5, 0.05, 0.3, 0.05];
        assert_eq!(top_k(&imp, 2), vec![1, 3]);
        assert_eq!(top_k(&imp, 100).len(), 5);
        assert_eq!(top_k(&imp, 0).len(), 1); // clamped to 1
    }
}
