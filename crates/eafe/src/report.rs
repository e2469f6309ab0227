//! Run results, phase timers, and evaluation counters — the instrumentation
//! behind Table I (generation vs evaluation time), Table IV (downstream
//! evaluation counts), and Figure 7 (learning curves).

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One point on a learning curve (Figure 7 samples epochs
/// 0, 10, 30, 60, 90, 120, 150, 200).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochPoint {
    /// Epoch index (stage-2 epochs for two-stage methods).
    pub epoch: usize,
    /// Best downstream score achieved so far.
    pub score: f64,
    /// Cumulative downstream evaluations so far.
    pub downstream_evals: usize,
    /// Cumulative wall-clock seconds so far.
    pub elapsed_secs: f64,
}

/// Complete result of one AFE run on one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Method name (e.g. "E-AFE", "NFS", "E-AFE_D").
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Downstream score of the raw feature set.
    pub base_score: f64,
    /// Best downstream score achieved.
    pub best_score: f64,
    /// Per-epoch learning curve.
    pub trace: Vec<EpochPoint>,
    /// Number of generated features (before any gate).
    pub generated_features: usize,
    /// Number of candidate features evaluated on the downstream task.
    pub downstream_evals: usize,
    /// Names of the accepted generated features.
    pub selected: Vec<String>,
    /// Time spent generating features (policy steps + operator application).
    pub generation_secs: f64,
    /// Time spent on downstream evaluation.
    pub eval_secs: f64,
    /// Total wall-clock time.
    pub total_secs: f64,
    /// Downstream evaluations served from the runtime's score cache.
    pub cache_hits: u64,
    /// Downstream evaluations actually computed (cache misses).
    pub cache_misses: u64,
}

impl RunResult {
    /// Score improvement over the raw features.
    pub fn improvement(&self) -> f64 {
        self.best_score - self.base_score
    }

    /// Fraction of total time spent evaluating (the paper's Table I shows
    /// ~90% for NFS).
    pub fn eval_time_fraction(&self) -> f64 {
        if self.total_secs <= 0.0 {
            return 0.0;
        }
        self.eval_secs / self.total_secs
    }

    /// Fraction of downstream evaluations served from the score cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }
}

/// Wall-clock phase accounting.
#[derive(Debug, Default)]
pub(crate) struct PhaseTimer {
    generation: Duration,
    evaluation: Duration,
    started: Option<Instant>,
}

impl PhaseTimer {
    /// New timer; call [`PhaseTimer::start`] to begin total timing.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Mark the start of the run.
    pub(crate) fn start(&mut self) {
        self.started = Some(Instant::now());
    }

    /// Time a generation-phase closure.
    pub(crate) fn generation<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.generation += t0.elapsed();
        out
    }

    /// Time an evaluation-phase closure.
    pub(crate) fn evaluation<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.evaluation += t0.elapsed();
        out
    }

    /// Seconds spent in generation.
    pub(crate) fn generation_secs(&self) -> f64 {
        self.generation.as_secs_f64()
    }

    /// Seconds spent in evaluation.
    pub(crate) fn eval_secs(&self) -> f64 {
        self.evaluation.as_secs_f64()
    }

    /// Total seconds since [`PhaseTimer::start`].
    pub(crate) fn total_secs(&self) -> f64 {
        self.started.map_or(0.0, |t| t.elapsed().as_secs_f64())
    }
}

/// Which kind of work slice an [`EpochReport`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchStage {
    /// A stage-1 (FPE-surrogate) training epoch.
    Stage1,
    /// The one-time replay of stage-1 positives against the downstream task.
    Seed,
    /// A stage-2 (downstream-task) training epoch.
    Stage2,
}

/// An accepted generated feature together with the downstream score gain
/// it delivered at acceptance — the ranked, weighted feature-set export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedFeature {
    /// Feature expression (e.g. `log(f0) * f3`).
    pub name: String,
    /// Downstream score gain the feature delivered when accepted.
    pub weight: f64,
}

/// The anytime progress report returned by each `Engine::step` slice:
/// best-so-far score and weighted feature set plus cumulative budget
/// spent. Reports are monotone — `best_score` never decreases and
/// `best_features` only grows — so the latest report is always the best
/// answer available.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Which stage this slice ran.
    pub stage: SearchStage,
    /// Epoch index within its stage (0 for the seeding slice).
    pub epoch: usize,
    /// Total step slices completed so far across all stages.
    pub epochs_completed: usize,
    /// Downstream score of the raw feature set.
    pub base_score: f64,
    /// Best downstream score achieved so far.
    pub best_score: f64,
    /// Best-so-far weighted feature set, in acceptance order.
    pub best_features: Vec<WeightedFeature>,
    /// Cumulative features generated so far.
    pub generated: usize,
    /// Cumulative downstream evaluations so far.
    pub downstream_evals: usize,
    /// Cumulative compute seconds so far.
    pub elapsed_secs: f64,
    /// True once the search has finished (all epochs or early stop).
    pub done: bool,
}

/// Counter for generated features and downstream evaluations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct EvalCounter {
    /// Features generated by agents.
    pub generated: usize,
    /// Features submitted to the downstream task.
    pub evaluated: usize,
    /// Features dropped by the gate (FPE or random dropout).
    pub dropped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_result_derived_metrics() {
        let r = RunResult {
            method: "E-AFE".into(),
            dataset: "d".into(),
            base_score: 0.7,
            best_score: 0.75,
            trace: vec![],
            generated_features: 100,
            downstream_evals: 40,
            selected: vec![],
            generation_secs: 1.0,
            eval_secs: 9.0,
            total_secs: 10.0,
            cache_hits: 5,
            cache_misses: 35,
        };
        assert!((r.improvement() - 0.05).abs() < 1e-12);
        assert!((r.eval_time_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn timer_attributes_phases() {
        let mut t = PhaseTimer::new();
        t.start();
        t.generation(|| std::thread::sleep(Duration::from_millis(5)));
        t.evaluation(|| std::thread::sleep(Duration::from_millis(10)));
        assert!(t.generation_secs() >= 0.004);
        assert!(t.eval_secs() >= 0.009);
        assert!(t.total_secs() >= t.generation_secs() + t.eval_secs() - 1e-4);
    }

    #[test]
    fn run_result_serialises() {
        let r = RunResult {
            method: "NFS".into(),
            dataset: "x".into(),
            base_score: 0.5,
            best_score: 0.6,
            trace: vec![EpochPoint {
                epoch: 0,
                score: 0.5,
                downstream_evals: 1,
                elapsed_secs: 0.1,
            }],
            generated_features: 1,
            downstream_evals: 1,
            selected: vec!["log(f0)".into()],
            generation_secs: 0.0,
            eval_secs: 0.1,
            total_secs: 0.1,
            cache_hits: 0,
            cache_misses: 1,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
