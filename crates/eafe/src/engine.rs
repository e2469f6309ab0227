//! The E-AFE engine: the RL-based feature generation/selection loop of
//! Figure 5 and Algorithm 2, instrumented for the paper's efficiency
//! experiments.
//!
//! One engine implements four of the paper's methods via two switches:
//!
//! | Method    | Gate                | Two-stage | Returns      |
//! |-----------|---------------------|-----------|--------------|
//! | `E-AFE`   | FPE classifier      | yes       | λ-returns    |
//! | `E-AFE_D` | random dropout 0.5  | no        | λ-returns    |
//! | `E-AFE_R` | FPE classifier      | no        | rewards-to-go (plain policy gradient) |
//! | `NFS`     | none (evaluate all) | no        | rewards-to-go (plain policy gradient) |
//!
//! Stage 1 (two-stage only) never touches the downstream task: the FPE
//! model's probability is mapped to a pseudo-score (Eq. 8) that drives
//! policy updates, and promising features accumulate in a replay buffer.
//! Stage 2 replays those features against the real downstream task and
//! continues training with downstream score gains as rewards.
//!
//! The search itself lives in the stepped state machine of
//! [`crate::step`]: [`Engine::start`] opens a resumable
//! [`crate::SearchState`], [`Engine::step`] advances it one epoch at a
//! time, and [`Engine::run`] below is a thin blocking driver over those —
//! identical results, same RNG streams, one code path, whether the
//! columns sit in RAM or in an out-of-core [`tabular::ChunkedFrame`]
//! ([`Engine::run_chunked`]).

use crate::config::EafeConfig;
use crate::error::Result;
use crate::fpe::FpeModel;
use crate::report::RunResult;
use runtime::ScoreCache;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tabular::DataFrame;

/// The candidate-feature gate applied before downstream evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Gate {
    /// E-AFE's pre-trained FPE model.
    Fpe(Box<FpeModel>),
    /// The `E-AFE_D` ablation: drop a uniform fraction of candidates.
    RandomDrop {
        /// Probability of dropping each candidate.
        rate: f64,
    },
    /// No gate (NFS): every generated feature is evaluated downstream.
    None,
}

/// A configured AFE method ready to run on datasets.
///
/// An engine round-trips through serde as its *method definition*
/// (config + gate + switches): the shared score cache is a process-local
/// handle, so a restored engine starts with a private cache until a new
/// one is attached via `with_cache`. This is what lets a job server
/// checkpoint (engine, search state) pairs to disk and resume them after
/// a restart.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Engine {
    /// Engine configuration.
    pub config: EafeConfig,
    /// Candidate gate.
    pub(crate) gate: Gate,
    /// Run the FPE-surrogate initialisation stage (requires an FPE gate);
    /// set by the method's constructor.
    pub(crate) two_stage: bool,
    /// Use the paper's Eq. 9/10 λ-returns; `false` uses plain
    /// rewards-to-go policy gradient (the `E-AFE_R` / NFS formulation).
    pub use_lambda_returns: bool,
    /// Method name recorded in results.
    pub method_name: String,
    /// Score cache shared with other runs (benchmark harnesses inject one
    /// so repeated evaluations across methods/epochs are computed once).
    /// `None` gives the run a private cache, keeping isolated runs
    /// reproducible and unaffected by other runs in the same process.
    #[serde(skip)]
    pub cache: Option<Arc<ScoreCache<f64>>>,
}

impl Engine {
    /// The full E-AFE method (paper Algorithm 2).
    pub fn e_afe(config: EafeConfig, fpe: FpeModel) -> Engine {
        Engine {
            config,
            gate: Gate::Fpe(Box::new(fpe)),
            two_stage: true,
            use_lambda_returns: true,
            method_name: "E-AFE".into(),
            cache: None,
        }
    }

    /// E-AFE with a named MinHash-variant label (`E-AFE^I`, `E-AFE^P`, …).
    pub fn e_afe_variant(config: EafeConfig, fpe: FpeModel, label: &str) -> Engine {
        let mut e = Engine::e_afe(config, fpe);
        e.method_name = label.to_string();
        e
    }

    /// The `E-AFE_D` ablation: FPE replaced by random dropout.
    pub fn e_afe_d(config: EafeConfig, drop_rate: f64) -> Engine {
        Engine {
            config,
            gate: Gate::RandomDrop { rate: drop_rate },
            two_stage: false,
            use_lambda_returns: true,
            method_name: "E-AFE_D".into(),
            cache: None,
        }
    }

    /// The `E-AFE_R` ablation: FPE gate kept, RL framework replaced by the
    /// plain policy-gradient formulation NFS uses.
    pub fn e_afe_r(config: EafeConfig, fpe: FpeModel) -> Engine {
        Engine {
            config,
            gate: Gate::Fpe(Box::new(fpe)),
            two_stage: false,
            use_lambda_returns: false,
            method_name: "E-AFE_R".into(),
            cache: None,
        }
    }

    /// The NFS baseline: RNN agents with policy gradient, no gate — every
    /// generated feature is evaluated on the downstream task.
    pub fn nfs(config: EafeConfig) -> Engine {
        Engine {
            config,
            gate: Gate::None,
            two_stage: false,
            use_lambda_returns: false,
            method_name: "NFS".into(),
            cache: None,
        }
    }

    /// Share an externally owned score cache with this engine. Runs then
    /// reuse (and contribute to) evaluations made by any other consumer
    /// of the same cache — other methods, other epochs, other datasets'
    /// identical frames — instead of starting cold.
    pub fn with_cache(mut self, cache: Arc<ScoreCache<f64>>) -> Engine {
        self.cache = Some(cache);
        self
    }

    /// Run the method on a dataset, producing the instrumented result.
    pub fn run(&self, frame: &DataFrame) -> Result<RunResult> {
        Ok(self.run_full(frame)?.0)
    }

    /// Like [`Engine::run`], but also returns the engineered frame (the
    /// original features plus every accepted generated feature) — the
    /// cached feature set the paper's Table V re-evaluates with SVM, NB/GP
    /// and MLP downstream models.
    ///
    /// This is a thin blocking driver over the stepped state machine:
    /// [`Engine::start`], [`Engine::step`] until done, [`Engine::finish`].
    pub fn run_full(&self, frame: &DataFrame) -> Result<(RunResult, DataFrame)> {
        self.finish(&self.drive(|| self.start(frame))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpe::{search, FpeSearchSpace, RawLabels};
    use minhash::HashFamily;
    use tabular::public_corpus;
    use tabular::{SynthSpec, Task};

    fn fast_config() -> EafeConfig {
        EafeConfig::fast()
    }

    fn target_frame() -> DataFrame {
        SynthSpec::new("engine-test", 150, 5, Task::Classification)
            .with_seed(5)
            .generate()
            .unwrap()
    }

    fn trained_fpe() -> FpeModel {
        let corpus = public_corpus(3, 1, 77).unwrap();
        let mut ev = fast_config().evaluator;
        ev.folds = 3;
        let ev = runtime::Evaluator::new(ev);
        let train = RawLabels::compute(&corpus[..3], &ev).unwrap();
        let val = RawLabels::compute(&corpus[3..], &ev).unwrap();
        let space = FpeSearchSpace {
            families: vec![HashFamily::Ccws],
            dims: vec![16],
            thre: 0.0,
            seed: 1,
        };
        search(&space, &train, &val).unwrap().model
    }

    #[test]
    fn nfs_evaluates_every_nondegenerate_candidate() {
        let engine = Engine::nfs(fast_config());
        let result = engine.run(&target_frame()).unwrap();
        assert_eq!(result.method, "NFS");
        // +1 for the base evaluation; only degenerate candidates escape
        // evaluation when there is no gate.
        assert!(result.downstream_evals <= result.generated_features + 1);
        assert!(result.downstream_evals >= result.generated_features / 2);
        assert!(result.best_score >= result.base_score);
        assert!(!result.trace.is_empty());
    }

    #[test]
    fn random_dropout_halves_evaluations() {
        let full = Engine::nfs(fast_config()).run(&target_frame()).unwrap();
        let dropped = Engine::e_afe_d(fast_config(), 0.5)
            .run(&target_frame())
            .unwrap();
        assert_eq!(dropped.method, "E-AFE_D");
        assert_eq!(full.generated_features, dropped.generated_features);
        assert!(
            dropped.downstream_evals < full.downstream_evals,
            "dropout {} vs full {}",
            dropped.downstream_evals,
            full.downstream_evals
        );
    }

    #[test]
    fn e_afe_runs_two_stages_and_reduces_evals() {
        let fpe = trained_fpe();
        let engine = Engine::e_afe(fast_config(), fpe.clone());
        let result = engine.run(&target_frame()).unwrap();
        assert_eq!(result.method, "E-AFE");
        assert!(result.best_score >= result.base_score);
        // Stage 1 generates features that never hit the downstream task, so
        // evals per generated feature must be below NFS's 1:1.
        let nfs = Engine::nfs(fast_config()).run(&target_frame()).unwrap();
        let eafe_ratio = result.downstream_evals as f64 / result.generated_features as f64;
        let nfs_ratio = nfs.downstream_evals as f64 / nfs.generated_features as f64;
        assert!(
            eafe_ratio < nfs_ratio,
            "E-AFE {eafe_ratio:.2} vs NFS {nfs_ratio:.2}"
        );
    }

    #[test]
    fn e_afe_r_single_stage_with_gate() {
        let result = Engine::e_afe_r(fast_config(), trained_fpe())
            .run(&target_frame())
            .unwrap();
        assert_eq!(result.method, "E-AFE_R");
        assert!(result.best_score >= result.base_score);
    }

    #[test]
    fn two_stage_without_fpe_is_rejected() {
        let mut engine = Engine::e_afe_d(fast_config(), 0.5);
        engine.two_stage = true;
        assert!(engine.run(&target_frame()).is_err());
    }

    #[test]
    fn results_are_deterministic_given_seed() {
        let a = Engine::nfs(fast_config()).run(&target_frame()).unwrap();
        let b = Engine::nfs(fast_config()).run(&target_frame()).unwrap();
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.downstream_evals, b.downstream_evals);
        assert_eq!(a.selected, b.selected);
    }

    #[test]
    fn trace_is_monotone_in_score_and_evals() {
        let result = Engine::nfs(fast_config()).run(&target_frame()).unwrap();
        for w in result.trace.windows(2) {
            assert!(w[1].score >= w[0].score);
            assert!(w[1].downstream_evals >= w[0].downstream_evals);
            assert!(w[1].elapsed_secs >= w[0].elapsed_secs);
        }
    }

    #[test]
    fn timer_attributes_most_time_to_evaluation() {
        // The Table I phenomenon: downstream evaluation dominates runtime.
        // A frame no sibling test searches: the CV-score memo is
        // process-wide, and a release build serves the hits a sibling's
        // search of the same frame left there, so evaluation would look
        // cheap only because it was already paid for.
        let frame = SynthSpec::new("engine-timer", 150, 5, Task::Classification)
            .with_seed(5)
            .generate()
            .unwrap();
        let result = Engine::nfs(fast_config()).run(&frame).unwrap();
        assert!(
            result.eval_time_fraction() > 0.5,
            "eval fraction {}",
            result.eval_time_fraction()
        );
    }

    #[test]
    fn early_stopping_truncates_training() {
        let frame = target_frame();
        let mut cfg = fast_config();
        cfg.stage2_epochs = 20;
        cfg.early_stop_patience = Some(2);
        let stopped = Engine::nfs(cfg.clone()).run(&frame).unwrap();
        cfg.early_stop_patience = None;
        let full = Engine::nfs(cfg).run(&frame).unwrap();
        assert!(
            stopped.trace.len() <= full.trace.len(),
            "early stopping ran longer: {} vs {}",
            stopped.trace.len(),
            full.trace.len()
        );
        // A stopped run never has a trailing improving epoch.
        let tail = &stopped.trace[stopped.trace.len().saturating_sub(2)..];
        if stopped.trace.len() < full.trace.len() && tail.len() == 2 {
            assert!(tail[1].score <= tail[0].score + 1e-12);
        }
    }

    #[test]
    fn regression_dataset_is_supported() {
        let frame = SynthSpec::new("engine-reg", 120, 4, Task::Regression)
            .with_seed(6)
            .generate()
            .unwrap();
        let result = Engine::nfs(fast_config()).run(&frame).unwrap();
        assert!(result.best_score >= result.base_score);
    }

    #[test]
    fn engine_serde_round_trip_drops_only_the_cache() {
        let engine = Engine::e_afe_d(fast_config(), 0.5).with_cache(Arc::new(ScoreCache::new(16)));
        let json = serde_json::to_string(&engine).unwrap();
        let back: Engine = serde_json::from_str(&json).unwrap();
        assert_eq!(back.method_name, engine.method_name);
        assert_eq!(back.two_stage, engine.two_stage);
        assert_eq!(back.use_lambda_returns, engine.use_lambda_returns);
        assert!(matches!(back.gate, Gate::RandomDrop { rate } if rate == 0.5));
        assert!(back.cache.is_none(), "cache handle is process-local");
        // The restored engine runs identically (private cache, same seeds).
        let frame = target_frame();
        let a = engine.run(&frame).unwrap();
        let b = back.run(&frame).unwrap();
        assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
        assert_eq!(a.selected, b.selected);
    }
}
