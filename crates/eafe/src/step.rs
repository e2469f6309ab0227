//! The resumable stepped search: [`Engine::start`] / [`Engine::step`] /
//! [`Engine::finish`].
//!
//! [`Engine::run`] used to be one blocking loop; it is now a thin driver
//! over an explicit state machine so a long-lived server can interleave
//! many searches on one process (`crates/serve`), pause a search at any
//! epoch boundary, checkpoint it to disk, and resume it — on the same or
//! a different process — with **bit-identical** results.
//!
//! The unit of work is one *slice*: a stage-1 epoch, the stage-1→2
//! replay seeding, or a stage-2 epoch. Each [`Engine::step`] call runs
//! exactly one slice and returns an [`EpochReport`] carrying the
//! best-so-far score and weighted feature set — the anytime contract: a
//! caller can stop after any slice and keep the best result found so far.
//!
//! ## Determinism contract
//!
//! [`SearchState`] is serde-serializable and captures *everything* the
//! search depends on: the sanitized frame, per-agent policies (including
//! Adam moments), both RNG streams (as raw xoshiro state words), the
//! replay buffer, the adaptive gate window, and all counters. Restoring a
//! checkpoint and stepping to completion therefore produces the same
//! scores, evaluation counts, and selected features — bit for bit — as an
//! uninterrupted run, under any thread count. Two things are deliberately
//! *outside* the contract, because they are process-local observability:
//! wall-clock times (`elapsed_secs` and friends) and score-cache
//! hit/miss tallies (a resumed run starts with a cold private cache; the
//! cache only short-circuits recomputation, never changes a score).

use crate::config::{CachedEvaluator, EafeConfig};
use crate::engine::{Engine, Gate};
use crate::error::{EafeError, Result};
use crate::ops::{GeneratedFeature, Operator};
use crate::report::{
    EpochPoint, EpochReport, EvalCounter, PhaseTimer, RunResult, SearchStage, WeightedFeature,
};
use crate::reward::SurrogateReward;
use crate::state::EngineState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{returns_from_scores, rewards_to_go, score_gains, ReplayBuffer, RnnPolicy, StepCache};
use runtime::FramePrefix;
use serde::{DeError, Deserialize, Serialize, Value};
use tabular::{Column, DataFrame};

/// Where a search currently stands; advanced by [`Engine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchPhase {
    /// Stage-1 (FPE-surrogate) training, about to run this epoch.
    Stage1 {
        /// Next stage-1 epoch index to run.
        epoch: usize,
    },
    /// About to replay stage-1 positives against the downstream task.
    Seed,
    /// Stage-2 (downstream-task) training, about to run this epoch.
    Stage2 {
        /// Next stage-2 epoch index to run.
        epoch: usize,
    },
    /// The search has finished; [`Engine::step`] is a no-op.
    Done,
}

/// A serializable snapshot of both engine RNG streams (xoshiro256++
/// state words, captured via the vendored `StdRng`'s state accessor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct RngState([u64; 4]);

impl RngState {
    fn seed(seed: u64) -> Self {
        RngState(StdRng::seed_from_u64(seed).state())
    }

    fn to_rng(self) -> StdRng {
        StdRng::from_state(self.0)
    }

    fn capture(rng: &StdRng) -> Self {
        RngState(rng.state())
    }
}

/// Adaptive FPE gate threshold for stage 2.
///
/// The paper asserts E-AFE's "drop rate is more than 0.5"; a fixed 0.5
/// probability cut cannot guarantee that when the classifier's output
/// distribution on *generated* (rather than original) features is shifted.
/// The gate therefore passes a candidate only when its effective-class
/// probability clears both 0.5 and the running median of recently observed
/// scores — keeping the classifier's ranking while pinning the asymptotic
/// pass rate at ≤ 50%.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AdaptiveGate {
    window: Vec<f64>,
    cap: usize,
}

impl AdaptiveGate {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            window: Vec::with_capacity(cap),
            cap: cap.max(1),
        }
    }

    /// Record the score and decide whether the candidate passes.
    /// `scratch` is overwritten; callers keep one across a slice's
    /// candidates so the median costs no allocation.
    pub(crate) fn observe_and_pass(&mut self, p: f64, scratch: &mut Vec<f64>) -> bool {
        if self.window.len() == self.cap {
            self.window.remove(0);
        }
        self.window.push(p);
        scratch.clear();
        scratch.extend_from_slice(&self.window);
        let mid = scratch.len() / 2;
        let (_, median, _) = scratch.select_nth_unstable_by(mid, |a, b| {
            a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
        });
        p >= median.max(0.5)
    }
}

/// The serializable body of a [`SearchState`] (everything the search
/// depends on; see the module docs for the determinism contract).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SearchCore {
    /// The sanitized base frame the search runs on.
    frame: DataFrame,
    /// Subgroups, current score, last reward.
    state: EngineState,
    /// One RNN policy per original feature.
    policies: Vec<RnnPolicy>,
    /// Policy/generation RNG stream.
    rng: RngState,
    /// Dedicated dropout-gate stream (see `Engine::run_full`'s notes).
    gate_rng: RngState,
    /// Stage-1 positives awaiting downstream replay.
    replay: ReplayBuffer<GeneratedFeature>,
    /// Stage-2 adaptive FPE gate window.
    fpe_gate: AdaptiveGate,
    /// Current position in the search.
    phase: SearchPhase,
    /// Downstream score of the raw feature set.
    base_score: f64,
    /// Best downstream score achieved so far.
    best_score: f64,
    /// Stage-2 learning curve (epoch 0 = the base evaluation).
    trace: Vec<EpochPoint>,
    /// Generated/evaluated/dropped tallies.
    counter: EvalCounter,
    /// Stage-2 epochs since the best score last improved.
    epochs_since_improvement: usize,
    /// Cap on accepted generated features.
    max_generated: usize,
    /// Completed [`Engine::step`] slices.
    slices: usize,
    /// Accepted features with their downstream score gains, in
    /// acceptance order — the anytime weighted feature set.
    weighted: Vec<WeightedFeature>,
    /// Accumulated generation seconds across slices.
    generation_secs: f64,
    /// Accumulated evaluation seconds across slices.
    eval_secs: f64,
    /// Accumulated total compute seconds across slices (excludes time
    /// the search spends parked between slices).
    total_secs: f64,
    /// Score-cache hits attributed to this search.
    cache_hits: u64,
    /// Score-cache misses attributed to this search.
    cache_misses: u64,
}

/// A paused (or finished) search: the resumable state machine behind
/// [`Engine::run`], produced by [`Engine::start`] and advanced one
/// epoch-granular slice at a time by [`Engine::step`].
///
/// Serializing a `SearchState` checkpoints the search; deserializing and
/// stepping to completion reproduces the uninterrupted run bit for bit
/// (scores, evaluation counts, selected features — see the module docs
/// for what is excluded). The evaluator handle and the cache-probe prefix
/// are process-local and are lazily rebuilt after a restore.
pub struct SearchState {
    core: SearchCore,
    /// Process-local caching evaluator; rebuilt lazily after deserialize.
    evaluator: Option<CachedEvaluator>,
    /// The current selected frame with its hash state, so a candidate's
    /// cache probe hashes the candidate column, not the frame. Derived
    /// from `core`; dropped whenever a feature is accepted.
    prefix: Option<FramePrefix>,
}

impl Serialize for SearchState {
    fn to_value(&self) -> Value {
        self.core.to_value()
    }
}

impl Deserialize for SearchState {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        Ok(SearchState {
            core: SearchCore::from_value(v)?,
            evaluator: None,
            prefix: None,
        })
    }
}

impl Clone for SearchState {
    fn clone(&self) -> Self {
        SearchState {
            core: self.core.clone(),
            // The clone re-derives its own evaluator on first step so the
            // two copies do not share a private cache (mirrors restore).
            evaluator: self.evaluator.clone(),
            prefix: self.prefix.clone(),
        }
    }
}

impl SearchState {
    /// True once the search has consumed all its epochs (or stopped
    /// early); further [`Engine::step`] calls are no-ops.
    pub fn is_done(&self) -> bool {
        self.core.phase == SearchPhase::Done
    }

    /// Current position in the search.
    pub fn phase(&self) -> SearchPhase {
        self.core.phase
    }

    /// Dataset name this search runs on.
    pub fn dataset(&self) -> &str {
        &self.core.frame.name
    }

    /// Downstream score of the raw feature set.
    pub fn base_score(&self) -> f64 {
        self.core.base_score
    }

    /// Best downstream score achieved so far.
    pub fn best_score(&self) -> f64 {
        self.core.best_score
    }

    /// Completed [`Engine::step`] slices.
    pub fn epochs_completed(&self) -> usize {
        self.core.slices
    }

    /// Cumulative downstream evaluations so far.
    pub fn downstream_evals(&self) -> usize {
        self.core.counter.evaluated
    }

    /// Cumulative features generated so far (before any gate).
    pub fn features_generated(&self) -> usize {
        self.core.counter.generated
    }

    /// Accumulated compute seconds (excludes time parked between slices).
    pub fn elapsed_secs(&self) -> f64 {
        self.core.total_secs
    }

    /// Best-so-far weighted feature set, in acceptance order: each
    /// accepted feature with the downstream score gain it delivered.
    pub fn best_features(&self) -> &[WeightedFeature] {
        &self.core.weighted
    }

    /// Stage-2 learning curve so far (epoch 0 = the base evaluation).
    pub fn trace(&self) -> &[EpochPoint] {
        &self.core.trace
    }
}

impl Engine {
    pub(crate) fn make_evaluator(&self) -> CachedEvaluator {
        match &self.cache {
            Some(shared) => runtime::Evaluator::with_cache(
                self.config.evaluator.clone(),
                std::sync::Arc::clone(shared),
            ),
            None => runtime::Evaluator::new(self.config.evaluator.clone()),
        }
    }

    /// Validate the configuration and open a resumable search on `frame`:
    /// sanitize it, score the raw feature set, and set up policies, RNG
    /// streams, and counters. Advance the search with [`Engine::step`].
    pub fn start(&self, frame: &DataFrame) -> Result<SearchState> {
        self.config.validate()?;
        if matches!(&self.gate, Gate::RandomDrop { rate } if !(0.0..=1.0).contains(rate)) {
            return Err(EafeError::InvalidConfig(
                "drop rate must be in [0,1]".into(),
            ));
        }
        if self.two_stage && !matches!(self.gate, Gate::Fpe(_)) {
            return Err(EafeError::InvalidConfig(
                "two-stage training requires an FPE gate".into(),
            ));
        }
        let mut frame = frame.clone();
        frame.sanitize();

        let cfg = &self.config;
        let mut timer = PhaseTimer::new();
        timer.start();
        let mut counter = EvalCounter::default();
        let rng = RngState::seed(cfg.seed);
        // The dropout gate draws from its own stream so gating decisions
        // never perturb policy/generation draws: E-AFE_D with rate 0 must
        // explore exactly the candidates NFS does.
        let gate_rng = RngState::seed(runtime::derive_seed(cfg.seed, 0x67617465, 0));

        // Every downstream evaluation goes through the runtime's
        // content-addressed cache: repeat candidates (replayed features,
        // re-explored transformations) are computed once.
        let evaluator = self.make_evaluator();
        let cache_start = evaluator.stats();

        let base_score = {
            let _eval_span = telemetry::span("engine.evaluate");
            timer.evaluation(|| evaluator.evaluate(&frame))?
        };
        counter.evaluate();
        let state = EngineState::new(&frame, base_score);
        let n_agents = state.n_agents();
        let max_generated = ((n_agents as f64 * cfg.max_generated_ratio).ceil() as usize).max(1);

        let mut policy_cfg = cfg.policy;
        policy_cfg.state_dim = EngineState::EMBEDDING_DIM;
        policy_cfg.n_actions = Operator::ALL.len();
        let policies: Vec<RnnPolicy> = (0..n_agents)
            .map(|j| {
                RnnPolicy::new(rl::PolicyConfig {
                    seed: cfg.seed ^ (j as u64).wrapping_mul(0x9E3779B9),
                    ..policy_cfg
                })
            })
            .collect::<rl::Result<_>>()?;

        let trace = vec![EpochPoint {
            epoch: 0,
            score: base_score,
            downstream_evals: counter.evaluated,
            elapsed_secs: timer.total_secs(),
        }];

        let phase = if self.two_stage {
            if cfg.stage1_epochs > 0 {
                SearchPhase::Stage1 { epoch: 0 }
            } else {
                SearchPhase::Seed
            }
        } else if cfg.stage2_epochs > 0 {
            SearchPhase::Stage2 { epoch: 0 }
        } else {
            SearchPhase::Done
        };

        let cache_delta = evaluator.stats().since(&cache_start);
        Ok(SearchState {
            core: SearchCore {
                frame,
                state,
                policies,
                rng,
                gate_rng,
                replay: ReplayBuffer::new(cfg.replay_capacity),
                fpe_gate: AdaptiveGate::new(256),
                phase,
                base_score,
                best_score: base_score,
                trace,
                counter,
                epochs_since_improvement: 0,
                max_generated,
                slices: 0,
                weighted: Vec::new(),
                generation_secs: timer.generation_secs(),
                eval_secs: timer.eval_secs(),
                total_secs: timer.total_secs(),
                cache_hits: cache_delta.hits,
                cache_misses: cache_delta.misses,
            },
            evaluator: Some(evaluator),
            prefix: None,
        })
    }

    /// Run one epoch-granular slice of the search (a stage-1 epoch, the
    /// replay seeding, or a stage-2 epoch) and report the best-so-far
    /// result. Calling `step` on a finished search is a no-op that
    /// returns the terminal report.
    pub fn step(&self, search: &mut SearchState) -> Result<EpochReport> {
        let (stage, epoch) = match search.core.phase {
            SearchPhase::Done => return Ok(self.report(search, SearchStage::Stage2, 0)),
            SearchPhase::Stage1 { epoch } => (SearchStage::Stage1, epoch),
            SearchPhase::Seed => (SearchStage::Seed, 0),
            SearchPhase::Stage2 { epoch } => (SearchStage::Stage2, epoch),
        };
        let evaluator = search
            .evaluator
            .get_or_insert_with(|| self.make_evaluator())
            .clone();
        let mut timer = PhaseTimer::new();
        timer.start();
        let cache_start = evaluator.stats();

        match stage {
            SearchStage::Stage1 => self.step_stage1(&mut search.core, &mut timer, epoch)?,
            SearchStage::Seed => {
                self.step_seed(&mut search.core, &evaluator, &mut search.prefix, &mut timer)?
            }
            SearchStage::Stage2 => self.step_stage2(
                &mut search.core,
                &evaluator,
                &mut search.prefix,
                &mut timer,
                epoch,
            )?,
        }

        let core = &mut search.core;
        core.slices += 1;
        core.generation_secs += timer.generation_secs();
        core.eval_secs += timer.eval_secs();
        core.total_secs += timer.total_secs();
        let delta = evaluator.stats().since(&cache_start);
        core.cache_hits += delta.hits;
        core.cache_misses += delta.misses;
        Ok(self.report(search, stage, epoch))
    }

    fn report(&self, search: &SearchState, stage: SearchStage, epoch: usize) -> EpochReport {
        let core = &search.core;
        EpochReport {
            stage,
            epoch,
            epochs_completed: core.slices,
            base_score: core.base_score,
            best_score: core.best_score,
            best_features: core.weighted.clone(),
            generated: core.counter.generated,
            downstream_evals: core.counter.evaluated,
            elapsed_secs: core.total_secs,
            done: core.phase == SearchPhase::Done,
        }
    }

    /// One stage-1 epoch: every agent explores against the FPE surrogate;
    /// promising candidates accumulate in the replay buffer.
    #[allow(clippy::needless_range_loop)] // `policies[j]` mirrors the paper's per-agent notation
    fn step_stage1(
        &self,
        core: &mut SearchCore,
        timer: &mut PhaseTimer,
        epoch: usize,
    ) -> Result<()> {
        let cfg = &self.config;
        let fpe = match &self.gate {
            Gate::Fpe(m) => m.as_ref(),
            _ => {
                return Err(EafeError::InvalidConfig(
                    "stage-1 search state requires an FPE gate".into(),
                ))
            }
        };
        let mut rng = core.rng.to_rng();
        let surrogate = SurrogateReward::new(core.base_score, cfg.thre);
        let total_epochs = cfg.stage1_epochs.max(1);
        let n_agents = core.state.n_agents();

        let mut epoch_span = telemetry::span("engine.stage1_epoch");
        epoch_span.field("epoch", epoch as f64);
        let epoch_frac = epoch as f64 / total_epochs as f64;
        for j in 0..n_agents {
            core.policies[j].reset();
            let mut episode: Vec<StepCache> = Vec::with_capacity(cfg.steps_per_epoch);
            let mut pseudo_scores = Vec::with_capacity(cfg.steps_per_epoch);
            for t in 0..cfg.steps_per_epoch {
                let feat = {
                    let x =
                        core.state
                            .embedding(j, t, cfg.steps_per_epoch, epoch_frac, cfg.max_order);
                    let cache = timer.generation(|| core.policies[j].step(&x, &mut rng))?;
                    let op = Operator::from_action(cache.action);
                    let feat =
                        timer.generation(|| generate_candidate(&core.state, j, op, &mut rng));
                    episode.push(cache);
                    feat
                };
                core.counter.generate();
                let pseudo = if feat.is_degenerate() || feat.order > cfg.max_order {
                    core.counter.drop_feature();
                    surrogate.pseudo_score(0.0)
                } else {
                    let p = timer.generation(|| fpe.score_feature(&feat.column.values))?;
                    if p >= 0.5 {
                        telemetry::count("fpe.gate.accept", 1);
                        core.replay.push(p, feat);
                    } else {
                        telemetry::count("fpe.gate.reject", 1);
                        core.counter.drop_feature();
                    }
                    surrogate.pseudo_score(p)
                };
                pseudo_scores.push(pseudo);
            }
            let rets = {
                let _reward_span = telemetry::span("engine.reward");
                returns_from_scores(&pseudo_scores, core.base_score, &cfg.returns)
            };
            let steps: Vec<(StepCache, f64)> = episode.into_iter().zip(rets).collect();
            let _update_span = telemetry::span("engine.policy_update");
            timer.generation(|| core.policies[j].update(&steps))?;
        }
        core.rng = RngState::capture(&rng);
        core.phase = if epoch + 1 < cfg.stage1_epochs {
            SearchPhase::Stage1 { epoch: epoch + 1 }
        } else {
            SearchPhase::Seed
        };
        Ok(())
    }

    /// Seed stage 2: replay the promising stage-1 features against the
    /// real downstream task (Algorithm 2 line 16). The drain is capped at
    /// one epoch's generation budget so the one-time seeding cost stays
    /// comparable to a single training epoch.
    fn step_seed(
        &self,
        core: &mut SearchCore,
        evaluator: &CachedEvaluator,
        prefix: &mut Option<FramePrefix>,
        timer: &mut PhaseTimer,
    ) -> Result<()> {
        let cfg = &self.config;
        let n_agents = core.state.n_agents();
        let drain_budget = cfg.steps_per_epoch * n_agents;
        for (_, feat) in core
            .replay
            .drain_by_priority()
            .into_iter()
            .take(drain_budget)
        {
            if core.state.n_generated() >= core.max_generated {
                break;
            }
            let score = evaluate_candidate(core, evaluator, prefix, timer, &feat.column)?;
            core.counter.evaluate();
            if score > core.state.current_score {
                *prefix = None;
                core.state.last_reward = score - core.state.current_score;
                core.state.current_score = score;
                core.best_score = core.best_score.max(score);
                core.weighted.push(WeightedFeature {
                    name: feat.column.name.clone(),
                    weight: core.state.last_reward,
                });
                let origin = feature_origin(&feat, &core.state);
                core.state.subgroups[origin].accept(feat);
            }
        }
        core.phase = if cfg.stage2_epochs > 0 {
            SearchPhase::Stage2 { epoch: 0 }
        } else {
            SearchPhase::Done
        };
        Ok(())
    }

    /// One stage-2 epoch (or the single stage for one-stage methods):
    /// every agent generates candidates, gated candidates hit the real
    /// downstream task, and policies update on score gains.
    #[allow(clippy::needless_range_loop)] // `policies[j]` mirrors the paper's per-agent notation
    fn step_stage2(
        &self,
        core: &mut SearchCore,
        evaluator: &CachedEvaluator,
        prefix: &mut Option<FramePrefix>,
        timer: &mut PhaseTimer,
        epoch: usize,
    ) -> Result<()> {
        let cfg = &self.config;
        let mut rng = core.rng.to_rng();
        let mut gate_rng = core.gate_rng.to_rng();
        let mut gate_scratch = Vec::new();
        let n_agents = core.state.n_agents();

        let mut epoch_span = telemetry::span("engine.stage2_epoch");
        epoch_span.field("epoch", epoch as f64);
        let epoch_frac = epoch as f64 / cfg.stage2_epochs.max(1) as f64;
        for j in 0..n_agents {
            core.policies[j].reset();
            let episode_start_score = core.state.current_score;
            let mut episode: Vec<StepCache> = Vec::with_capacity(cfg.steps_per_epoch);
            let mut score_trace = Vec::with_capacity(cfg.steps_per_epoch);
            for t in 0..cfg.steps_per_epoch {
                let feat = {
                    let x =
                        core.state
                            .embedding(j, t, cfg.steps_per_epoch, epoch_frac, cfg.max_order);
                    let cache = timer.generation(|| core.policies[j].step(&x, &mut rng))?;
                    let op = Operator::from_action(cache.action);
                    let feat =
                        timer.generation(|| generate_candidate(&core.state, j, op, &mut rng));
                    episode.push(cache);
                    feat
                };
                core.counter.generate();

                let structurally_ok = !feat.is_degenerate()
                    && feat.order <= cfg.max_order
                    && core.state.n_generated() < core.max_generated;
                let passes_gate = structurally_ok
                    && match &self.gate {
                        Gate::Fpe(fpe) => {
                            let p = timer.generation(|| fpe.score_feature(&feat.column.values))?;
                            let pass = core.fpe_gate.observe_and_pass(p, &mut gate_scratch);
                            telemetry::count(
                                if pass {
                                    "fpe.gate.accept"
                                } else {
                                    "fpe.gate.reject"
                                },
                                1,
                            );
                            pass
                        }
                        Gate::RandomDrop { rate } => !gate_rng.gen_bool(*rate),
                        Gate::None => true,
                    };

                if !passes_gate {
                    core.counter.drop_feature();
                    score_trace.push(core.state.current_score);
                    continue;
                }

                let score = evaluate_candidate(core, evaluator, prefix, timer, &feat.column)?;
                core.counter.evaluate();
                core.state.last_reward = score - core.state.current_score;
                if score > core.state.current_score {
                    *prefix = None;
                    core.state.current_score = score;
                    core.best_score = core.best_score.max(score);
                    core.weighted.push(WeightedFeature {
                        name: feat.column.name.clone(),
                        weight: core.state.last_reward,
                    });
                    core.state.subgroups[j].accept(feat);
                }
                score_trace.push(score.max(core.state.current_score));
            }
            let rets = {
                let _reward_span = telemetry::span("engine.reward");
                if self.use_lambda_returns {
                    returns_from_scores(&score_trace, episode_start_score, &cfg.returns)
                } else {
                    let gains = score_gains(&score_trace, episode_start_score);
                    rewards_to_go(&gains, cfg.returns.gamma)
                }
            };
            let steps: Vec<(StepCache, f64)> = episode.into_iter().zip(rets).collect();
            let _update_span = telemetry::span("engine.policy_update");
            timer.generation(|| core.policies[j].update(&steps))?;
        }
        core.rng = RngState::capture(&rng);
        core.gate_rng = RngState::capture(&gate_rng);

        epoch_span.field("best_score", core.best_score);
        let improved = core
            .trace
            .last()
            .is_none_or(|last| core.best_score > last.score + f64::EPSILON);
        core.trace.push(EpochPoint {
            epoch: epoch + 1,
            score: core.best_score,
            downstream_evals: core.counter.evaluated,
            elapsed_secs: core.total_secs + timer.total_secs(),
        });
        if improved {
            core.epochs_since_improvement = 0;
        } else {
            core.epochs_since_improvement += 1;
        }
        let stopped_early = cfg
            .early_stop_patience
            .is_some_and(|patience| core.epochs_since_improvement >= patience);
        core.phase = if stopped_early || epoch + 1 >= cfg.stage2_epochs {
            SearchPhase::Done
        } else {
            SearchPhase::Stage2 { epoch: epoch + 1 }
        };
        Ok(())
    }

    /// Package the search's best-so-far result — callable at any epoch
    /// boundary (the anytime contract), not just after completion.
    /// Returns the instrumented [`RunResult`] plus the engineered frame
    /// (original features + every accepted generated feature).
    pub fn finish(&self, search: &SearchState) -> Result<(RunResult, DataFrame)> {
        let core = &search.core;
        let engineered = core.state.selected_frame(&core.frame)?;
        let result = RunResult {
            method: self.method_name.clone(),
            dataset: core.frame.name.clone(),
            base_score: core.base_score,
            best_score: core.best_score,
            trace: core.trace.clone(),
            generated_features: core.counter.generated,
            downstream_evals: core.counter.evaluated,
            selected: core.state.selected_names(),
            generation_secs: core.generation_secs,
            eval_secs: core.eval_secs,
            total_secs: core.total_secs,
            cache_hits: core.cache_hits,
            cache_misses: core.cache_misses,
        };
        Ok((result, engineered))
    }
}

// ---------------------------------------------------------------------------
// Speculation: predicting the next slice's compute-heavy work
// ---------------------------------------------------------------------------

impl Engine {
    /// The caching evaluator this engine's searches use — public so a
    /// distributed worker can score speculated candidate frames with the
    /// identical scorer configuration (and so ship back content-addressed
    /// cache entries the coordinator's own evaluator will hit).
    pub fn evaluator(&self) -> CachedEvaluator {
        self.make_evaluator()
    }

    /// FPE-score a candidate column through this engine's gate model, or
    /// `None` when the engine has no FPE gate. Scoring sketches the column
    /// through the process-wide signature cache, so calling this on
    /// speculated columns warms the cache a subsequent [`Engine::step`]
    /// (in this or another process, via snapshot/merge) will hit.
    pub fn fpe_score(&self, values: &[f64]) -> Result<Option<f64>> {
        match &self.gate {
            Gate::Fpe(fpe) => Ok(Some(fpe.score_feature(values)?)),
            _ => Ok(None),
        }
    }

    /// Predict the candidate columns the *next* slice will FPE-score,
    /// without advancing the search.
    ///
    /// Stage-1 prediction is **exact**: within an epoch, candidate
    /// generation consumes policy and RNG state only — FPE scores feed the
    /// replay buffer and the end-of-episode policy update, never the
    /// within-epoch draws — so replaying generation from cloned state
    /// yields precisely the columns `step` will score. Stage-2 prediction
    /// is **optimistic**: an accepted candidate mutates the subgroups and
    /// generation budget mid-epoch, diverging every later draw, so columns
    /// past the first acceptance may be wasted work. Mispredictions cost
    /// only compute: the signature cache is content-addressed and only
    /// short-circuits recomputation, never changes a score.
    #[allow(clippy::needless_range_loop)] // mirrors `step_stage1`'s notation
    pub fn speculate_fpe_columns(&self, search: &SearchState) -> Result<Vec<Column>> {
        let core = &search.core;
        let cfg = &self.config;
        if !matches!(self.gate, Gate::Fpe(_)) {
            return Ok(Vec::new());
        }
        let (epoch, total_epochs, stage1) = match core.phase {
            SearchPhase::Stage1 { epoch } => (epoch, cfg.stage1_epochs.max(1), true),
            SearchPhase::Stage2 { epoch } => (epoch, cfg.stage2_epochs.max(1), false),
            _ => return Ok(Vec::new()),
        };
        let mut rng = core.rng.to_rng();
        let mut policies = core.policies.clone();
        let epoch_frac = epoch as f64 / total_epochs as f64;
        let n_agents = core.state.n_agents();
        let budget_open = core.state.n_generated() < core.max_generated;
        let mut columns = Vec::new();
        for j in 0..n_agents {
            policies[j].reset();
            for t in 0..cfg.steps_per_epoch {
                let x = core
                    .state
                    .embedding(j, t, cfg.steps_per_epoch, epoch_frac, cfg.max_order);
                let cache = policies[j].step(&x, &mut rng)?;
                let op = Operator::from_action(cache.action);
                let feat = generate_candidate(&core.state, j, op, &mut rng);
                // Stage 1 scores every structurally sound candidate; stage 2
                // additionally requires the generation budget to be open
                // (mirrors `structurally_ok` in `step_stage2`).
                if !feat.is_degenerate() && feat.order <= cfg.max_order && (stage1 || budget_open) {
                    columns.push(feat.column);
                }
            }
            // No policy update: updates only influence later epochs, and we
            // predict exactly one slice ahead.
        }
        Ok(columns)
    }

    /// Predict the candidate frames the *next* slice will send to the
    /// downstream evaluator, without advancing the search. Returns the
    /// shared frame prefix (the current selected frame) plus one candidate
    /// column per predicted evaluation — evaluation `k`'s frame is
    /// `prefix.with_extra_columns(&[candidates[k]])`, the same
    /// construction `step` uses, so fingerprints line up entry for entry.
    ///
    /// The prediction assumes **no acceptance** during the slice: an
    /// acceptance re-bases every later candidate on a larger selected
    /// frame, so entries past the first acceptance miss and are computed
    /// locally. The prefix of predicted evaluations up to (and including)
    /// the first acceptance is exact.
    #[allow(clippy::needless_range_loop)] // mirrors `step_stage2`'s notation
    pub fn speculate_evals(&self, search: &SearchState) -> Result<(DataFrame, Vec<Column>)> {
        let core = &search.core;
        let cfg = &self.config;
        let prefix = core.state.selected_frame(&core.frame)?;
        let mut candidates = Vec::new();
        match core.phase {
            SearchPhase::Seed => {
                if core.state.n_generated() < core.max_generated {
                    let drain_budget = cfg.steps_per_epoch * core.state.n_agents();
                    let mut replay = core.replay.clone();
                    for (_, feat) in replay.drain_by_priority().into_iter().take(drain_budget) {
                        candidates.push(feat.column);
                    }
                }
            }
            SearchPhase::Stage2 { epoch } => {
                let mut rng = core.rng.to_rng();
                let mut gate_rng = core.gate_rng.to_rng();
                let mut policies = core.policies.clone();
                let mut fpe_gate = core.fpe_gate.clone();
                let mut gate_scratch = Vec::new();
                let epoch_frac = epoch as f64 / cfg.stage2_epochs.max(1) as f64;
                let n_agents = core.state.n_agents();
                let budget_open = core.state.n_generated() < core.max_generated;
                for j in 0..n_agents {
                    policies[j].reset();
                    for t in 0..cfg.steps_per_epoch {
                        let x = core.state.embedding(
                            j,
                            t,
                            cfg.steps_per_epoch,
                            epoch_frac,
                            cfg.max_order,
                        );
                        let cache = policies[j].step(&x, &mut rng)?;
                        let op = Operator::from_action(cache.action);
                        let feat = generate_candidate(&core.state, j, op, &mut rng);
                        let structurally_ok =
                            !feat.is_degenerate() && feat.order <= cfg.max_order && budget_open;
                        let passes_gate = structurally_ok
                            && match &self.gate {
                                Gate::Fpe(fpe) => {
                                    let p = fpe.score_feature(&feat.column.values)?;
                                    fpe_gate.observe_and_pass(p, &mut gate_scratch)
                                }
                                Gate::RandomDrop { rate } => !gate_rng.gen_bool(*rate),
                                Gate::None => true,
                            };
                        if passes_gate {
                            candidates.push(feat.column);
                        }
                    }
                }
            }
            SearchPhase::Stage1 { .. } | SearchPhase::Done => {}
        }
        Ok((prefix, candidates))
    }
}

/// Downstream score of the selected frame extended by `candidate`. The
/// cache is probed with the prefix key (building `prefix` from the current
/// selection if an acceptance dropped it); the candidate frame is built
/// only when the probe misses.
fn evaluate_candidate(
    core: &SearchCore,
    evaluator: &CachedEvaluator,
    prefix: &mut Option<FramePrefix>,
    timer: &mut PhaseTimer,
    candidate: &Column,
) -> Result<f64> {
    let prefix = match prefix {
        Some(prefix) => prefix,
        None => prefix.insert(FramePrefix::new(core.state.selected_frame(&core.frame)?)),
    };
    let _eval_span = telemetry::span("engine.evaluate");
    timer.evaluation(|| {
        let key = evaluator.prefix_key(prefix, candidate);
        evaluator.evaluate_keyed(key, || Ok(prefix.with_column(candidate)?))
    })
}

/// Generate one candidate feature for agent `j`: sample two subgroup
/// members with replacement and apply the operator (paper Figure 3).
fn generate_candidate(
    state: &EngineState,
    agent: usize,
    op: Operator,
    rng: &mut impl Rng,
) -> GeneratedFeature {
    let sub = &state.subgroups[agent];
    let ia = sub.sample_member(rng);
    let ib = sub.sample_member(rng);
    let (a, ao) = sub.member(ia);
    let (b, bo) = sub.member(ib);
    GeneratedFeature::generate(op, a, ao, b, bo)
}

/// Which subgroup a replayed feature should join: the subgroup whose
/// original feature name appears first in the expression (falls back to 0).
fn feature_origin(feat: &GeneratedFeature, state: &EngineState) -> usize {
    let expr = &feat.column.name;
    state
        .subgroups
        .iter()
        .position(|s| expr.contains(s.original.name.as_str()))
        .unwrap_or(0)
}

/// `EafeConfig` helper shared by step tests and doctests: how many
/// slices a full run of this configuration takes (stage-1 epochs + the
/// seeding slice for two-stage engines, plus stage-2 epochs), an upper
/// bound when early stopping is enabled.
pub fn max_slices(cfg: &EafeConfig, two_stage: bool) -> usize {
    let stage1 = if two_stage { cfg.stage1_epochs + 1 } else { 0 };
    stage1 + cfg.stage2_epochs
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::{SynthSpec, Task};

    fn fast_config() -> EafeConfig {
        EafeConfig::fast()
    }

    fn target_frame() -> DataFrame {
        SynthSpec::new("step-test", 150, 5, Task::Classification)
            .with_seed(5)
            .generate()
            .unwrap()
    }

    #[test]
    fn adaptive_gate_pins_pass_rate_at_or_below_half() {
        let mut gate = AdaptiveGate::new(64);
        let mut scratch = Vec::new();
        // Scores clustered high: a fixed 0.5 cut would pass everything.
        let mut passed = 0;
        let n = 500;
        for i in 0..n {
            let p = 0.7 + 0.2 * ((i as f64 * 0.713).sin());
            if gate.observe_and_pass(p, &mut scratch) {
                passed += 1;
            }
        }
        let rate = passed as f64 / n as f64;
        assert!(rate <= 0.6, "pass rate {rate}");
        assert!(rate >= 0.2, "gate should not drop everything: {rate}");
    }

    #[test]
    fn adaptive_gate_respects_absolute_floor() {
        let mut gate = AdaptiveGate::new(64);
        // All scores below 0.5 → nothing passes even though all equal the
        // running median.
        let mut scratch = Vec::new();
        for _ in 0..100 {
            assert!(!gate.observe_and_pass(0.3, &mut scratch));
        }
    }

    #[test]
    fn adaptive_gate_decides_by_the_sorted_window_median() {
        // Reference: keep the last `cap` scores, sort, take the upper median.
        let mut gate = AdaptiveGate::new(16);
        let mut scratch = Vec::new();
        let mut recent: Vec<f64> = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..200 {
            // Coarse values so ties at the median are common.
            let p = f64::from(rng.gen_range(0..12u32)) / 11.0;
            recent.push(p);
            if recent.len() > 16 {
                recent.remove(0);
            }
            let mut sorted = recent.clone();
            sorted.sort_by(f64::total_cmp);
            let expected = p >= sorted[sorted.len() / 2].max(0.5);
            assert_eq!(gate.observe_and_pass(p, &mut scratch), expected, "step {i}");
            assert_eq!(gate.window, recent, "window stays in arrival order");
        }
    }

    #[test]
    fn rng_state_round_trips_the_stream() {
        let mut rng = RngState::seed(7).to_rng();
        for _ in 0..13 {
            rng.gen::<u64>();
        }
        let snap = RngState::capture(&rng);
        let mut resumed = snap.to_rng();
        for _ in 0..50 {
            assert_eq!(rng.gen::<u64>(), resumed.gen::<u64>());
        }
    }

    #[test]
    fn stepped_run_matches_blocking_run() {
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        let blocking = engine.run(&frame).unwrap();

        let mut state = engine.start(&frame).unwrap();
        let mut reports = Vec::new();
        while !state.is_done() {
            reports.push(engine.step(&mut state).unwrap());
        }
        let (stepped, _) = engine.finish(&state).unwrap();

        assert_eq!(blocking.best_score.to_bits(), stepped.best_score.to_bits());
        assert_eq!(blocking.downstream_evals, stepped.downstream_evals);
        assert_eq!(blocking.generated_features, stepped.generated_features);
        assert_eq!(blocking.selected, stepped.selected);
        assert_eq!(blocking.trace.len(), stepped.trace.len());
        for (a, b) in blocking.trace.iter().zip(&stepped.trace) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert_eq!(reports.len(), fast_config().stage2_epochs);
        assert!(reports.last().unwrap().done);
    }

    #[test]
    fn reports_are_monotone_and_carry_weighted_features() {
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        let mut state = engine.start(&frame).unwrap();
        let mut last_best = state.base_score();
        let mut last_evals = 0usize;
        while !state.is_done() {
            let r = engine.step(&mut state).unwrap();
            assert!(r.best_score >= last_best, "anytime best must be monotone");
            assert!(r.downstream_evals >= last_evals);
            last_best = r.best_score;
            last_evals = r.downstream_evals;
            // Weighted set names mirror the accepted features; weights are
            // the positive downstream gains that earned acceptance.
            for w in &r.best_features {
                assert!(w.weight > 0.0, "{}: weight {}", w.name, w.weight);
            }
        }
        let (result, _) = engine.finish(&state).unwrap();
        let names: Vec<String> = state
            .best_features()
            .iter()
            .map(|w| w.name.clone())
            .collect();
        let mut sorted_names = names.clone();
        sorted_names.sort();
        let mut sorted_selected = result.selected.clone();
        sorted_selected.sort();
        assert_eq!(sorted_names, sorted_selected);
        let gain_sum: f64 = state.best_features().iter().map(|w| w.weight).sum();
        assert!(
            (gain_sum - (result.best_score - result.base_score)).abs() < 1e-9,
            "gains {gain_sum} vs improvement {}",
            result.improvement()
        );
    }

    #[test]
    fn step_after_done_is_a_noop() {
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        let mut state = engine.start(&frame).unwrap();
        while !state.is_done() {
            engine.step(&mut state).unwrap();
        }
        let evals = state.downstream_evals();
        let r = engine.step(&mut state).unwrap();
        assert!(r.done);
        assert_eq!(state.downstream_evals(), evals);
    }

    #[test]
    fn finish_midway_returns_anytime_result() {
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        let mut state = engine.start(&frame).unwrap();
        engine.step(&mut state).unwrap();
        let (result, engineered) = engine.finish(&state).unwrap();
        assert!(result.best_score >= result.base_score);
        assert_eq!(
            engineered.n_cols(),
            frame.n_cols() + result.selected.len(),
            "engineered frame carries the accepted features so far"
        );
        assert!(!state.is_done());
    }

    #[test]
    fn search_state_serde_round_trip_preserves_everything() {
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        let mut state = engine.start(&frame).unwrap();
        engine.step(&mut state).unwrap();
        let json = serde_json::to_string(&state).unwrap();
        let restored: SearchState = serde_json::from_str(&json).unwrap();
        assert_eq!(state.core, restored.core);
        assert!(restored.evaluator.is_none(), "evaluator is process-local");
    }

    #[test]
    fn speculative_warming_preserves_results_bitwise() {
        let frame = target_frame();
        let cfg = fast_config();
        let solo = Engine::nfs(cfg.clone()).run(&frame).unwrap();

        // Warmed run: before every slice, evaluate all speculated frames
        // into the shared cache — exactly what a distributed coordinator
        // does with worker results — then step and compare bitwise.
        let cache = std::sync::Arc::new(runtime::ScoreCache::new(4096));
        let engine = Engine::nfs(cfg).with_cache(std::sync::Arc::clone(&cache));
        let evaluator = engine.evaluator();
        let mut state = engine.start(&frame).unwrap();
        let mut warm_hits = 0u64;
        while !state.is_done() {
            let (prefix, candidates) = engine.speculate_evals(&state).unwrap();
            for candidate in &candidates {
                let speculative = prefix
                    .with_extra_columns(std::slice::from_ref(candidate))
                    .unwrap();
                evaluator.evaluate(&speculative).unwrap();
            }
            let before = evaluator.stats();
            engine.step(&mut state).unwrap();
            warm_hits += evaluator.stats().since(&before).hits;
        }
        let (warmed, _) = engine.finish(&state).unwrap();
        assert_eq!(solo.best_score.to_bits(), warmed.best_score.to_bits());
        assert_eq!(solo.downstream_evals, warmed.downstream_evals);
        assert_eq!(solo.generated_features, warmed.generated_features);
        assert_eq!(solo.selected, warmed.selected);
        for (a, b) in solo.trace.iter().zip(&warmed.trace) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert!(warm_hits > 0, "speculated evaluations must serve step hits");
    }

    #[test]
    fn speculative_warming_holds_with_a_random_drop_gate() {
        // E-AFE_D draws gate decisions from the dedicated gate stream;
        // speculation must replay that stream without perturbing it.
        let frame = target_frame();
        let cfg = fast_config();
        let solo = Engine::e_afe_d(cfg.clone(), 0.4).run(&frame).unwrap();

        let cache = std::sync::Arc::new(runtime::ScoreCache::new(4096));
        let engine = Engine::e_afe_d(cfg, 0.4).with_cache(std::sync::Arc::clone(&cache));
        let evaluator = engine.evaluator();
        let mut state = engine.start(&frame).unwrap();
        while !state.is_done() {
            let (prefix, candidates) = engine.speculate_evals(&state).unwrap();
            for candidate in &candidates {
                let speculative = prefix
                    .with_extra_columns(std::slice::from_ref(candidate))
                    .unwrap();
                evaluator.evaluate(&speculative).unwrap();
            }
            engine.step(&mut state).unwrap();
        }
        let (warmed, _) = engine.finish(&state).unwrap();
        assert_eq!(solo.best_score.to_bits(), warmed.best_score.to_bits());
        assert_eq!(solo.downstream_evals, warmed.downstream_evals);
        assert_eq!(solo.selected, warmed.selected);
    }

    #[test]
    fn speculation_does_not_mutate_the_search() {
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        let mut state = engine.start(&frame).unwrap();
        engine.step(&mut state).unwrap();
        let before = state.core.clone();
        engine.speculate_evals(&state).unwrap();
        engine.speculate_fpe_columns(&state).unwrap();
        assert_eq!(state.core, before);
    }

    #[test]
    fn speculated_evals_prefix_matches_the_real_slice_until_acceptance() {
        // With no gate, the first speculated candidate frame is exactly the
        // first frame the slice evaluates: its cache entry must be hit.
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        let mut state = engine.start(&frame).unwrap();
        let evaluator = state.evaluator.clone().unwrap();
        while !state.is_done() {
            let (prefix, candidates) = engine.speculate_evals(&state).unwrap();
            if let Some(first) = candidates.first() {
                let speculative = prefix
                    .with_extra_columns(std::slice::from_ref(first))
                    .unwrap();
                let key = evaluator.cache_key(&speculative);
                evaluator.evaluate(&speculative).unwrap();
                assert!(evaluator.cache().contains(key));
                let shard_hits_before = evaluator.stats();
                engine.step(&mut state).unwrap();
                assert!(
                    evaluator.stats().since(&shard_hits_before).hits >= 1,
                    "first speculated frame must be served from cache"
                );
            } else {
                engine.step(&mut state).unwrap();
            }
        }
    }

    #[test]
    fn max_slices_bounds_the_stepped_run() {
        let cfg = fast_config();
        let frame = target_frame();
        let engine = Engine::nfs(cfg.clone());
        let mut state = engine.start(&frame).unwrap();
        let mut n = 0;
        while !state.is_done() {
            engine.step(&mut state).unwrap();
            n += 1;
            assert!(n <= max_slices(&cfg, false), "runaway stepped search");
        }
        assert_eq!(n, max_slices(&cfg, false));
    }
}
