//! Configuration for the E-AFE engine, mirroring the paper's §IV-A4
//! reproducibility settings: Adam with learning rate 0.01, batch size 32,
//! 4 unary + 5 binary operators, maximum order 5, threshold `thre` = 0.01,
//! 200 training epochs per stage. The MinHash output dimension (48) and
//! family (CCWS) belong to the FPE model's compressor, not to this config.

use crate::error::{EafeError, Result};
use learners::{Evaluator, ModelKind};
use rl::{PolicyConfig, ReturnConfig};
use serde::{Deserialize, Serialize};

/// A downstream evaluator wrapped with the runtime's content-addressed
/// score cache: identical (dataset content, learner config, folds, CV
/// seed) evaluations are computed once and served from cache after.
pub type CachedEvaluator = runtime::Evaluator<Evaluator>;

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EafeConfig {
    /// Maximum transformation order (composition depth); paper default 5.
    pub max_order: usize,
    /// Feature transformations each agent attempts per epoch (`T`).
    pub steps_per_epoch: usize,
    /// Stage-1 (FPE-surrogate) training epochs.
    pub stage1_epochs: usize,
    /// Stage-2 (downstream-task) training epochs.
    pub stage2_epochs: usize,
    /// FPE label threshold `thre`; paper default 0.01.
    pub thre: f64,
    /// Replay-buffer capacity for stage-1 positives.
    pub replay_capacity: usize,
    /// Cap on selected generated features (as a multiple of the original
    /// feature count) so the state space stays bounded.
    pub max_generated_ratio: f64,
    /// Return discounting (γ, λ, horizon).
    pub returns: ReturnConfig,
    /// RL policy settings (the RNN agent per feature).
    pub policy: PolicyConfig,
    /// Downstream evaluator (model kind, CV folds, forest settings).
    pub evaluator: Evaluator,
    /// Stop stage-2 training early when the best score has not improved
    /// for this many consecutive epochs (`None` disables early stopping —
    /// the paper's headline comparison runs "the same epoch without early
    /// stopping", but its complexity analysis assumes the option exists).
    pub early_stop_patience: Option<usize>,
    /// Master seed.
    pub seed: u64,
}

impl Default for EafeConfig {
    fn default() -> Self {
        Self {
            max_order: 5,
            steps_per_epoch: 4,
            stage1_epochs: 8,
            stage2_epochs: 8,
            thre: 0.01,
            replay_capacity: 64,
            max_generated_ratio: 2.0,
            returns: ReturnConfig::default(),
            policy: PolicyConfig::default(),
            evaluator: Evaluator::with_kind(ModelKind::RandomForest),
            early_stop_patience: None,
            seed: 0xE_AFE,
        }
    }
}

impl EafeConfig {
    /// A fast configuration for unit tests and examples: fewer epochs,
    /// fewer steps, smaller forests.
    pub fn fast() -> Self {
        let mut cfg = Self {
            steps_per_epoch: 2,
            stage1_epochs: 2,
            stage2_epochs: 2,
            ..Self::default()
        };
        cfg.evaluator.folds = 3;
        cfg.evaluator.forest.n_trees = 8;
        cfg.evaluator.forest.tree.max_depth = 6;
        cfg
    }

    /// Validate parameter domains.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.max_order == 0 {
            return Err(EafeError::InvalidConfig("max_order must be >= 1".into()));
        }
        if self.steps_per_epoch == 0 {
            return Err(EafeError::InvalidConfig(
                "steps_per_epoch must be >= 1".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.thre) {
            return Err(EafeError::InvalidConfig(format!(
                "thre must be in [0,1), got {}",
                self.thre
            )));
        }
        if self.max_generated_ratio <= 0.0 {
            return Err(EafeError::InvalidConfig(
                "max_generated_ratio must be > 0".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.returns.gamma) {
            return Err(EafeError::InvalidConfig("gamma must be in [0,1]".into()));
        }
        if !(0.0..1.0).contains(&self.returns.lambda) {
            return Err(EafeError::InvalidConfig("lambda must be in [0,1)".into()));
        }
        if self.early_stop_patience == Some(0) {
            return Err(EafeError::InvalidConfig(
                "early_stop_patience must be >= 1 when set".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit per-field tweaks read clearer in tests
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = EafeConfig::default();
        assert_eq!(c.max_order, 5);
        assert_eq!(c.thre, 0.01);
        assert_eq!(c.policy.lr, 0.01);
        assert_eq!(c.evaluator.folds, 5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fast_config_is_valid_and_smaller() {
        let c = EafeConfig::fast();
        assert!(c.validate().is_ok());
        assert!(c.stage1_epochs < EafeConfig::default().stage1_epochs);
    }

    #[test]
    fn validation_catches_bad_domains() {
        let mut c = EafeConfig::default();
        c.max_order = 0;
        assert!(c.validate().is_err());
        let mut c = EafeConfig::default();
        c.thre = 1.5;
        assert!(c.validate().is_err());
        let mut c = EafeConfig::default();
        c.returns.lambda = 1.0;
        assert!(c.validate().is_err());
        let mut c = EafeConfig::default();
        c.max_generated_ratio = 0.0;
        assert!(c.validate().is_err());
        let mut c = EafeConfig::default();
        c.early_stop_patience = Some(0);
        assert!(c.validate().is_err());
    }
}
