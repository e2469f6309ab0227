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
use learners::{feature_matrix, ForestConfig, RandomForest, ResNet, ResNetConfig};
use tabular::train_test_indices;
use tabular::DataFrame;

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

/// What every DL baseline starts from: the fixed train/test split of a
/// sanitised copy of the frame, its feature matrices, and a ResNet fitted
/// on the train rows (timed as generation).
struct Fitted {
    train: DataFrame,
    test: DataFrame,
    xtr: Vec<Vec<f64>>,
    xte: Vec<Vec<f64>>,
    net: ResNet,
    timer: PhaseTimer,
}

fn fit_resnet(config: &DlBaselineConfig, frame: &DataFrame) -> Result<Fitted> {
    let mut frame = frame.clone();
    frame.sanitize();
    let mut timer = PhaseTimer::new();
    timer.start();
    let split = train_test_indices(frame.n_rows(), config.test_fraction, config.seed)?;
    let train = frame.take_rows(&split.train)?;
    let test = frame.take_rows(&split.test)?;
    let xtr = feature_matrix(&train);
    let xte = feature_matrix(&test);
    let mut net = ResNet::new(ResNetConfig {
        seed: config.seed,
        ..config.resnet
    });
    timer.generation(|| net.fit(&xtr, train.label()))?;
    Ok(Fitted {
        train,
        test,
        xtr,
        xte,
        net,
        timer,
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
    let _run_span = telemetry::span("rtdl.run_rtdl_n");
    let mut f = fit_resnet(config, frame)?;
    // Re-head: RF on penultimate representations.
    let etr = f.net.embed(&f.xtr)?;
    let ete = f.net.embed(&f.xte)?;
    let mut rf = RandomForest::new(ForestConfig {
        seed: config.seed,
        ..config.forest
    });
    f.timer.evaluation(|| rf.fit(&etr, f.train.label()))?;
    let score = learners::score(f.test.label(), &rf.predict(&ete)?)?;
    Ok(single_point_result("RTDL_N", frame, score, &f.timer))
}

/// `FE|DL`: an (already feature-engineered) frame scored by the ResNet's
/// own head on a fixed split.
pub fn run_fe_dl(config: &DlBaselineConfig, engineered: &DataFrame) -> Result<RunResult> {
    let _run_span = telemetry::span("rtdl.run_fe_dl");
    let mut f = fit_resnet(config, engineered)?;
    let preds = f.timer.evaluation(|| f.net.predict(&f.xte))?;
    let score = learners::score(f.test.label(), &preds)?;
    Ok(single_point_result("FE|DL", engineered, score, &f.timer))
}

/// `DL|FE`: ResNet representation of the raw features → RF-importance
/// feature selection → RF scoring on the fixed split.
pub fn run_dl_fe(config: &DlBaselineConfig, frame: &DataFrame) -> Result<RunResult> {
    let _run_span = telemetry::span("rtdl.run_dl_fe");
    let mut f = fit_resnet(config, frame)?;
    let etr = f.net.embed(&f.xtr)?;
    let ete = f.net.embed(&f.xte)?;
    // Feature engineering step: keep the most important embedding
    // dimensions by RF importance.
    let mut probe = RandomForest::new(ForestConfig {
        seed: config.seed,
        ..config.forest
    });
    probe.fit(&etr, f.train.label())?;
    let keep = top_k(&probe.feature_importances()?, config.dlfe_keep);
    let etr_sel = select_columns(&etr, &keep);
    let ete_sel = select_columns(&ete, &keep);
    let mut rf = RandomForest::new(ForestConfig {
        seed: config.seed ^ 1,
        ..config.forest
    });
    f.timer.evaluation(|| rf.fit(&etr_sel, f.train.label()))?;
    let score = learners::score(f.test.label(), &rf.predict(&ete_sel)?)?;
    Ok(single_point_result("DL|FE", frame, score, &f.timer))
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
