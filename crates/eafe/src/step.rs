//! The search driver: Algorithm 2 written once, as a resumable state
//! machine — [`Engine::start`] / [`Engine::step`] / [`Engine::finish`].
//!
//! A [`Search`] holds its RL state as the crate-private `Plan` of the
//! subgroups beside a column store (the crate-private `ColumnStore`, see
//! `store.rs`): the in-RAM [`EngineState`] behind [`SearchState`], the
//! out-of-core [`ChunkedFrame`] behind [`ChunkedSearch`]. Everything
//! else lives here, once: the policies, both RNG streams, the replay
//! buffer, the adaptive gate, the counters, the phase machine, and the
//! one evaluation path — the selection's key state, digests and bins,
//! the score-cache probe, and the candidate binned from its runs on a
//! miss. A long-lived server interleaves many searches on one process
//! (`crates/serve`), pauses one at any epoch boundary, checkpoints it
//! and resumes it — on the same or another process — with
//! **bit-identical** results.
//!
//! The unit of work is one *slice*: a stage-1 epoch, the stage-1→2
//! replay seeding, or a stage-2 epoch. Each [`Engine::step`] call runs
//! exactly one slice and returns an [`EpochReport`] carrying the
//! best-so-far score and weighted feature set — the anytime contract: a
//! caller can stop after any slice and keep the best result found so far.
//!
//! A candidate is named and made in exactly one place
//! (`RlState::generate`), proposed in one (`propose`), judged in one
//! (`Engine::gate`), scored in one (`probe`) and joins the plan and the
//! store in one (`RlState::accept`). The speculation replays in
//! `speculate.rs` ([`Engine::speculate_fpe_columns`],
//! [`Engine::speculate_evals`]) call `propose` and the gate on copies of
//! the streams, which is what makes their predictions exact. A search
//! remembers a candidate by its lineage alone: the replay buffer holds
//! lineages, and the seeding slice makes each one again.
//!
//! ## Determinism contract
//!
//! [`SearchState`] is serde-serializable and captures *everything* the
//! search depends on: the sanitized frame, the plan's lineages, per-agent
//! policies (including Adam moments), both RNG streams (as raw xoshiro
//! state words), the replay buffer's lineages, the adaptive gate window
//! and all counters — no generated value: a restore replays the plan onto
//! the base frame through `generate`/`accept`. Stepping a restored search
//! to completion produces the same scores, evaluation counts and selected
//! features — bit for bit — as an uninterrupted run, under any thread
//! count. Outside the contract, as process-local observability: wall-clock
//! times and score-cache hit/miss tallies (a resumed run starts with a
//! cold private cache, which never changes a score). The evaluator and the
//! selection are process-local too, rebuilt on first use after a restore.
//! A [`ChunkedSearch`] lives and dies with its frame handle: it has no
//! serde form.

use crate::config::{CachedEvaluator, EafeConfig};
use crate::engine::{Engine, Gate};
use crate::error::{EafeError, Result};
use crate::ops::Operator;
use crate::report::{
    EpochPoint, EpochReport, EvalCounter, PhaseTimer, RunResult, SearchStage, WeightedFeature,
};
use crate::reward::SurrogateReward;
use crate::state::EngineState;
use crate::store::{Candidate, ColumnStore, Lineage, Plan};
use learners::{BinnedColumn, SelectedColumn, Selection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{returns_from_scores, rewards_to_go, score_gains, ReplayBuffer, RnnPolicy, StepCache};
use runtime::{ColumnDigest, Fingerprint};
use serde::{DeError, Deserialize, Serialize, Value};
use tabular::{ChunkedFrame, DataFrame};

mod speculate;

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

impl SearchPhase {
    /// The slice this phase is about to run; `None` once done.
    fn slice(self) -> Option<(SearchStage, usize)> {
        match self {
            SearchPhase::Stage1 { epoch } => Some((SearchStage::Stage1, epoch)),
            SearchPhase::Seed => Some((SearchStage::Seed, 0)),
            SearchPhase::Stage2 { epoch } => Some((SearchStage::Stage2, epoch)),
            SearchPhase::Done => None,
        }
    }
}

/// A serializable snapshot of an engine RNG stream (xoshiro256++ state
/// words, captured via the vendored `StdRng`'s state accessor). A slice
/// checks the live generator out with [`RngState::to_rng`] and writes it
/// back with [`RngState::capture`].
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
struct AdaptiveGate {
    window: Vec<f64>,
    cap: usize,
}

impl AdaptiveGate {
    fn new(cap: usize) -> Self {
        Self {
            window: Vec::with_capacity(cap),
            cap: cap.max(1),
        }
    }

    /// Record the score and decide whether the candidate passes.
    /// `scratch` is overwritten; callers keep one across a slice's
    /// candidates so the median costs no allocation.
    fn observe_and_pass(&mut self, p: f64, scratch: &mut Vec<f64>) -> bool {
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

/// The RL state `s` (paper §II): the selected features — the plan of the
/// subgroups and the column store `S` holding their columns — and what
/// they score.
#[derive(Debug, Clone)]
struct RlState<S> {
    /// Column data: the base columns and the accepted ones.
    store: S,
    /// The subgroups: every member's name, order, lineage and column.
    plan: Plan,
    /// Most recent downstream score of the selected feature set.
    current_score: f64,
    /// Score change of the most recent evaluated action (for embeddings).
    last_reward: f64,
}

/// Everything a search depends on (see the module docs for the determinism
/// contract), over RL state `R`: an [`RlState`] over some column store.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SearchCore<R> {
    /// Plan, columns, current score, last reward.
    state: R,
    /// One RNN policy per original feature.
    policies: Vec<RnnPolicy>,
    /// Policy/generation RNG stream.
    rng: RngState,
    /// Dedicated dropout-gate stream (see [`Engine::start`]'s notes).
    gate_rng: RngState,
    /// Lineages of the stage-1 positives awaiting downstream replay.
    replay: ReplayBuffer<Lineage>,
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

/// A paused (or finished) search over column store `B`: the resumable
/// state machine behind [`Engine::run`] and [`Engine::run_chunked`],
/// advanced one epoch-granular slice at a time by [`Engine::step`].
#[derive(Clone)]
pub struct Search<B: ColumnStore> {
    core: Core<B>,
    /// Process-local caching evaluator; rebuilt lazily after deserialize.
    /// A clone shares it (and so its cache, which never changes a score).
    evaluator: Option<CachedEvaluator>,
    /// The selected columns as key state, digests and bins, so a
    /// candidate's probe digests only the candidate and a miss bins only
    /// it, plus the last probed candidate, which an acceptance moves in.
    /// Process-local like the evaluator: derived from the store, never
    /// serialised, built by the first evaluation (again after a restore)
    /// and extended on acceptance.
    selection: Option<Selection>,
}

/// A search over an in-RAM frame, produced by [`Engine::start`].
///
/// Serializing a `SearchState` checkpoints the search; deserializing and
/// stepping to completion reproduces the uninterrupted run bit for bit
/// (scores, evaluation counts, selected features — see the module docs
/// for what is excluded). The evaluator handle and the selection are
/// process-local and are lazily rebuilt after a restore.
pub type SearchState = Search<EngineState>;

/// A search over an out-of-core [`tabular::ChunkedFrame`], produced by
/// [`Engine::start_chunked`].
pub type ChunkedSearch = Search<ChunkedFrame>;

/// A search's core over column store `B`.
type Core<B> = SearchCore<RlState<B>>;

impl<B: ColumnStore> RlState<B> {
    /// The candidate `lineage` describes: named by the plan, its values
    /// generated by the store from the parents' columns.
    fn generate(&self, lineage: Lineage) -> Result<Candidate<B::Values>> {
        let ((name, order), [a, b]) = self.plan.describe(lineage);
        let values = self.store.generate(lineage.op, a, b)?;
        Ok(Candidate {
            lineage,
            name,
            order,
            values,
        })
    }

    /// Add `candidate` to its proposing agent's subgroup: its values
    /// become the store's next column.
    fn accept(&mut self, candidate: Candidate<B::Values>) -> Result<()> {
        self.store.accept(&candidate.name, candidate.values)?;
        self.plan
            .accept(candidate.lineage, candidate.name, candidate.order);
        Ok(())
    }

    /// The selected columns, then `extra`, as one raw-value frame.
    fn raw_frame(&self, extra: Option<&Candidate<B::Values>>) -> Result<DataFrame> {
        let extra = extra.map(|c| (c.name.as_str(), &c.values));
        self.store.raw_frame(&self.plan.selected_ids(), extra)
    }
}

impl Serialize for RlState<EngineState> {
    fn to_value(&self) -> Value {
        let store = Value::Map(vec![
            ("frame".to_string(), self.store.frame.to_value()),
            ("accepted".to_string(), self.plan.to_value()),
        ]);
        Value::Map(vec![
            ("store".to_string(), store),
            ("current_score".to_string(), self.current_score.to_value()),
            ("last_reward".to_string(), self.last_reward.to_value()),
        ])
    }
}

// A checkpoint is outside input: every column the search will index, hash
// or hand to a learner must have the frame's row count, there must be one
// subgroup per base column, and every accepted member must pass the plan's
// check before it is made again.
impl Deserialize for RlState<EngineState> {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let entries = v.as_map().unwrap_or_default();
        let store = serde::field(entries, "store").as_map().unwrap_or_default();
        let frame: DataFrame = Deserialize::from_value(serde::field(store, "frame"))?;
        let accepted: Vec<Vec<Lineage>> = Deserialize::from_value(serde::field(store, "accepted"))?;
        let (n_rows, columns) = (frame.n_rows(), frame.columns());
        if accepted.len() != columns.len() || columns.iter().any(|c| c.len() != n_rows) {
            return Err(DeError::new(format!(
                "subgroups do not match the frame's {} columns of {n_rows} rows",
                columns.len()
            )));
        }
        let mut state = RlState {
            plan: Plan::new(columns.iter().map(|c| c.name.clone())),
            store: EngineState::new(frame),
            current_score: Deserialize::from_value(serde::field(entries, "current_score"))?,
            last_reward: Deserialize::from_value(serde::field(entries, "last_reward"))?,
        };
        let corrupt = |e: EafeError| DeError::new(e.to_string());
        for (agent, lineages) in accepted.into_iter().enumerate() {
            for lineage in lineages {
                state.plan.check(lineage, agent)?;
                let candidate = state.generate(lineage).map_err(corrupt)?;
                state.accept(candidate).map_err(corrupt)?;
            }
        }
        Ok(state)
    }
}

impl Serialize for SearchState {
    fn to_value(&self) -> Value {
        self.core.to_value()
    }
}

// A checkpoint is outside input: the driver indexes `policies` by agent,
// so a file with fewer (or more) policies than subgroups is corrupt, not a
// panic waiting in the scheduler thread; a replayed lineage's subgroup
// must hold its parents. `RlState`'s `Deserialize` checks the rest.
impl Deserialize for SearchState {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let core: Core<EngineState> = SearchCore::from_value(v)?;
        let plan = &core.state.plan;
        if core.policies.len() != plan.n_agents() {
            return Err(DeError::new(format!(
                "{} policies for {} subgroups",
                core.policies.len(),
                plan.n_agents()
            )));
        }
        for &lineage in core.replay.items() {
            plan.check(lineage, lineage.agent)?;
        }
        Ok(Search {
            core,
            evaluator: None,
            selection: None,
        })
    }
}

impl<B: ColumnStore> Search<B> {
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
        self.core.state.store.dataset()
    }

    /// The store's ids of the selected columns, in selection order.
    pub(crate) fn selected_ids(&self) -> Vec<usize> {
        self.core.state.plan.selected_ids()
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

impl ChunkedSearch {
    /// The chunked frame the search runs on (base + accepted columns);
    /// its [`tabular::ChunkedFrame::stats`] expose residency/spill traffic.
    pub fn frame(&self) -> &tabular::ChunkedFrame {
        &self.core.state.store
    }
}

/// The fixed-size state embedding fed to an agent's RNN policy: eight
/// cheap, bounded summary statistics of the current state
/// ([`EngineState::EMBEDDING_DIM`]).
fn embedding<B: ColumnStore>(
    cfg: &EafeConfig,
    state: &RlState<B>,
    agent: usize,
    step: usize,
    epoch_frac: f64,
) -> Vec<f64> {
    let plan = &state.plan;
    let members = plan.members(agent);
    let total_order: usize = plan.orders(agent).sum();
    let mean_order = total_order as f64 / members as f64;
    vec![
        1.0, // bias
        (members as f64).ln() / 4.0,
        (state.last_reward * 10.0).clamp(-1.0, 1.0),
        state.current_score.clamp(-1.0, 1.0),
        mean_order / cfg.max_order.max(1) as f64,
        (step as f64 + 0.5) / cfg.steps_per_epoch.max(1) as f64,
        epoch_frac.clamp(0.0, 1.0),
        (agent as f64 + 0.5) / plan.n_agents().max(1) as f64,
    ]
}

/// One proposal (paper Figure 3): embed the state, let the agent's policy
/// pick an operator, sample two members of the agent's subgroup with
/// replacement and generate the candidate that lineage describes. `rng`
/// is drawn in that order — policy step, member `a`, member `b` — and
/// nothing else in a slice draws from it.
fn propose<B: ColumnStore>(
    cfg: &EafeConfig,
    state: &RlState<B>,
    policy: &mut RnnPolicy,
    rng: &mut StdRng,
    agent: usize,
    step: usize,
    epoch_frac: f64,
) -> Result<(StepCache, Candidate<B::Values>)> {
    let x = embedding(cfg, state, agent, step, epoch_frac);
    let cache = policy.step(&x, rng)?;
    let op = Operator::from_action(cache.action);
    let members = state.plan.members(agent);
    let a = rng.gen_range(0..members);
    let b = rng.gen_range(0..members);
    Ok((cache, state.generate(Lineage { agent, op, a, b })?))
}

/// The gate-side streams a slice advances: the real epochs check them out
/// of the core and write them back, speculation works on copies.
struct GateStreams {
    window: AdaptiveGate,
    rng: StdRng,
    scratch: Vec<f64>,
}

impl GateStreams {
    fn of<R>(core: &SearchCore<R>) -> Self {
        GateStreams {
            window: core.fpe_gate.clone(),
            rng: core.gate_rng.to_rng(),
            scratch: Vec::new(),
        }
    }
}

impl Engine {
    /// Validate the configuration and open a resumable search on `frame`:
    /// sanitize it, score the raw feature set, and set up policies, RNG
    /// streams, and counters. Advance the search with [`Engine::step`].
    pub fn start(&self, frame: &DataFrame) -> Result<SearchState> {
        let mut frame = frame.clone();
        frame.sanitize();
        let plan = Plan::new(frame.columns().iter().map(|c| c.name.clone()));
        self.open(EngineState::new(frame), plan)
    }

    /// Open a search on a store whose base columns are already sanitized,
    /// and the plan of those columns alone.
    pub(crate) fn open<B: ColumnStore>(&self, store: B, plan: Plan) -> Result<Search<B>> {
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

        let cfg = &self.config;
        let mut timer = PhaseTimer::new();
        timer.start();
        let mut counter = EvalCounter::default();

        // The one place a search learns its row count: a MinHash gate's
        // draw table is built for it here, on every core the budget
        // allows, instead of inside the first candidate's sketch.
        if let Gate::Fpe(fpe) = &self.gate {
            if let Some(compressor) = fpe.compressor() {
                runtime::prepare_draw_tables(compressor, store.n_rows())?;
            }
        }

        // Every downstream evaluation goes through the runtime's
        // content-addressed cache: repeat candidates (replayed features,
        // re-explored transformations) are computed once.
        let evaluator = self.evaluator();
        let cache_start = evaluator.stats();

        let mut state = RlState {
            store,
            plan,
            current_score: 0.0,
            last_reward: 0.0,
        };
        let mut selection = None;
        let base_score = {
            let _eval_span = telemetry::span("engine.evaluate");
            timer.evaluation(|| probe(&state, &evaluator, &mut selection, None))?
        };
        state.current_score = base_score;
        counter.evaluate();
        let n_agents = state.plan.n_agents();
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
            self.stage1_or_seed(0)
        } else {
            self.stage2_or_done(0)
        };

        let cache_delta = evaluator.stats().since(&cache_start);
        Ok(Search {
            core: SearchCore {
                state,
                policies,
                rng: RngState::seed(cfg.seed),
                // The dropout gate draws from its own stream so gating
                // decisions never perturb policy/generation draws: E-AFE_D
                // with rate 0 must explore exactly the candidates NFS does.
                gate_rng: RngState::seed(runtime::derive_seed(cfg.seed, 0x67617465, 0)),
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
            selection,
        })
    }

    /// Stage-1 epoch `epoch` if the stage runs that many, else the seeding.
    fn stage1_or_seed(&self, epoch: usize) -> SearchPhase {
        if epoch < self.config.stage1_epochs {
            SearchPhase::Stage1 { epoch }
        } else {
            SearchPhase::Seed
        }
    }

    /// Stage-2 epoch `epoch` if the stage runs that many, else the end.
    fn stage2_or_done(&self, epoch: usize) -> SearchPhase {
        if epoch < self.config.stage2_epochs {
            SearchPhase::Stage2 { epoch }
        } else {
            SearchPhase::Done
        }
    }

    /// How far through its stage's epochs a training epoch lies, in [0, 1).
    fn epoch_frac(&self, stage: SearchStage, epoch: usize) -> f64 {
        let total_epochs = match stage {
            SearchStage::Stage1 => self.config.stage1_epochs,
            _ => self.config.stage2_epochs,
        };
        epoch as f64 / total_epochs.max(1) as f64
    }

    /// Run one epoch-granular slice of the search (a stage-1 epoch, the
    /// replay seeding, or a stage-2 epoch) and report the best-so-far
    /// result. Calling `step` on a finished search is a no-op that
    /// returns the terminal report.
    pub fn step<B: ColumnStore>(&self, search: &mut Search<B>) -> Result<EpochReport> {
        let Some((stage, epoch)) = search.core.phase.slice() else {
            return Ok(report(&search.core, SearchStage::Stage2, 0));
        };
        let evaluator = search
            .evaluator
            .get_or_insert_with(|| self.evaluator())
            .clone();
        let mut timer = PhaseTimer::new();
        timer.start();
        let cache_start = evaluator.stats();

        let (core, selection) = (&mut search.core, &mut search.selection);
        match stage {
            SearchStage::Seed => self.seed(core, &evaluator, selection, &mut timer)?,
            _ => self.epoch(core, &evaluator, selection, &mut timer, stage, epoch)?,
        }

        core.slices += 1;
        core.generation_secs += timer.generation_secs();
        core.eval_secs += timer.eval_secs();
        core.total_secs += timer.total_secs();
        let delta = evaluator.stats().since(&cache_start);
        core.cache_hits += delta.hits;
        core.cache_misses += delta.misses;
        Ok(report(core, stage, epoch))
    }

    /// Is a candidate worth an FPE score or an evaluation at all? Not when
    /// it is degenerate or deeper than the order cap, and in stage 2 not
    /// once the generation budget is spent.
    fn structurally_ok<B: ColumnStore>(
        &self,
        core: &Core<B>,
        candidate: &Candidate<B::Values>,
        stage: SearchStage,
    ) -> bool {
        // Cheapest first: the degeneracy check may scan the column.
        candidate.order <= self.config.max_order
            && (stage == SearchStage::Stage1 || core.state.plan.n_generated() < core.max_generated)
            && !B::is_degenerate(&candidate.values)
    }

    /// The gate: a candidate passes iff it is [structurally
    /// sound](Engine::structurally_ok) and the configured gate lets it
    /// through. With an FPE model, stage 1 cuts the probability at 0.5 and
    /// stage 2 asks the adaptive window. Returns the verdict and the FPE
    /// probability when one was computed. The gate streams advance only
    /// for structurally sound candidates.
    fn gate<B: ColumnStore>(
        &self,
        core: &Core<B>,
        candidate: &Candidate<B::Values>,
        stage: SearchStage,
        streams: &mut GateStreams,
    ) -> Result<(bool, Option<f64>)> {
        if !self.structurally_ok(core, candidate, stage) {
            return Ok((false, None));
        }
        Ok(match &self.gate {
            Gate::Fpe(fpe) => {
                let p = core.state.store.fpe_score(fpe, &candidate.values)?;
                let pass = if stage == SearchStage::Stage1 {
                    p >= 0.5
                } else {
                    streams.window.observe_and_pass(p, &mut streams.scratch)
                };
                (pass, Some(p))
            }
            Gate::RandomDrop { rate } => (!streams.rng.gen_bool(*rate), None),
            Gate::None => (true, None),
        })
    }

    /// One training epoch — Algorithm 2's loop, run against the FPE
    /// surrogate in stage 1 and against the downstream task in stage 2 (the
    /// only stage of one-stage methods). Every agent runs one episode of
    /// proposals through the gate. In stage 1 a passing candidate joins the
    /// replay buffer and the step earns the surrogate's pseudo-score; in
    /// stage 2 it is evaluated downstream, accepted if it improves the
    /// score, and the step earns the score reached. The policy then updates
    /// on the episode's returns.
    fn epoch<B: ColumnStore>(
        &self,
        core: &mut Core<B>,
        evaluator: &CachedEvaluator,
        selection: &mut Option<Selection>,
        timer: &mut PhaseTimer,
        stage: SearchStage,
        epoch: usize,
    ) -> Result<()> {
        let cfg = &self.config;
        let stage1 = stage == SearchStage::Stage1;
        if stage1 && !matches!(self.gate, Gate::Fpe(_)) {
            return Err(EafeError::InvalidConfig(
                "stage-1 search state requires an FPE gate".into(),
            ));
        }
        let mut epoch_span = telemetry::span(if stage1 {
            "engine.stage1_epoch"
        } else {
            "engine.stage2_epoch"
        });
        epoch_span.field("epoch", epoch as f64);
        let epoch_frac = self.epoch_frac(stage, epoch);
        let surrogate = SurrogateReward::new(core.base_score, cfg.thre);
        let mut rng = core.rng.to_rng();
        let mut streams = GateStreams::of(core);

        for agent in 0..core.state.plan.n_agents() {
            core.policies[agent].reset();
            let episode_start_score = if stage1 {
                core.base_score
            } else {
                core.state.current_score
            };
            let mut episode: Vec<StepCache> = Vec::with_capacity(cfg.steps_per_epoch);
            let mut scores = Vec::with_capacity(cfg.steps_per_epoch);
            for step in 0..cfg.steps_per_epoch {
                let policy = &mut core.policies[agent];
                let (cache, candidate) = timer.generation(|| {
                    propose(cfg, &core.state, policy, &mut rng, agent, step, epoch_frac)
                })?;
                episode.push(cache);
                core.counter.generate();
                telemetry::count(candidate.lineage.op.counter_name(), 1);

                let (pass, fpe_p) =
                    timer.generation(|| self.gate(core, &candidate, stage, &mut streams))?;
                if fpe_p.is_some() {
                    let verdict = if pass {
                        "fpe.gate.accept"
                    } else {
                        "fpe.gate.reject"
                    };
                    telemetry::count(verdict, 1);
                }
                if !pass {
                    core.counter.drop_feature();
                }
                scores.push(if stage1 {
                    let p = fpe_p.unwrap_or(0.0);
                    if pass {
                        core.replay.push(p, candidate.lineage);
                    }
                    surrogate.pseudo_score(p)
                } else if pass {
                    let score = evaluate(core, evaluator, selection, timer, &candidate)?;
                    core.state.last_reward = score - core.state.current_score;
                    if score > core.state.current_score {
                        accept(core, selection, candidate, score)?;
                    }
                    score.max(core.state.current_score)
                } else {
                    core.state.current_score
                });
            }
            let returns = {
                let _reward_span = telemetry::span("engine.reward");
                if stage1 || self.use_lambda_returns {
                    returns_from_scores(&scores, episode_start_score, &cfg.returns)
                } else {
                    let gains = score_gains(&scores, episode_start_score);
                    rewards_to_go(&gains, cfg.returns.gamma)
                }
            };
            let steps: Vec<(StepCache, f64)> = episode.into_iter().zip(returns).collect();
            let _update_span = telemetry::span("engine.policy_update");
            timer.generation(|| core.policies[agent].update(&steps))?;
        }
        core.rng = RngState::capture(&rng);
        core.gate_rng = RngState::capture(&streams.rng);
        core.fpe_gate = streams.window;

        if stage1 {
            core.phase = self.stage1_or_seed(epoch + 1);
            return Ok(());
        }
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
        core.phase = if stopped_early {
            SearchPhase::Done
        } else {
            self.stage2_or_done(epoch + 1)
        };
        Ok(())
    }

    /// The lineages of the stage-1 positives the seeding slice tries, best
    /// first. The drain is capped at one epoch's generation budget so the
    /// one-time seeding cost stays comparable to a single training epoch.
    fn seed_queue(
        &self,
        n_agents: usize,
        replay: &mut ReplayBuffer<Lineage>,
    ) -> impl Iterator<Item = Lineage> {
        let drained = replay.drain_by_priority();
        let budget = self.config.steps_per_epoch * n_agents;
        drained.into_iter().take(budget).map(|(_, lineage)| lineage)
    }

    /// Seed stage 2: replay the promising stage-1 features against the
    /// real downstream task (Algorithm 2 line 16), each made again from its
    /// lineage. A feature that improves the score joins the subgroup of the
    /// agent that proposed it.
    fn seed<B: ColumnStore>(
        &self,
        core: &mut Core<B>,
        evaluator: &CachedEvaluator,
        selection: &mut Option<Selection>,
        timer: &mut PhaseTimer,
    ) -> Result<()> {
        for lineage in self.seed_queue(core.state.plan.n_agents(), &mut core.replay) {
            if core.state.plan.n_generated() >= core.max_generated {
                break;
            }
            let candidate = timer.generation(|| core.state.generate(lineage))?;
            let score = evaluate(core, evaluator, selection, timer, &candidate)?;
            if score > core.state.current_score {
                core.state.last_reward = score - core.state.current_score;
                accept(core, selection, candidate, score)?;
            }
        }
        core.phase = self.stage2_or_done(0);
        Ok(())
    }

    /// Package the search's best-so-far result — callable at any epoch
    /// boundary (the anytime contract), not just after completion.
    /// Returns the instrumented [`RunResult`] plus the engineered frame
    /// (original features + every accepted generated feature).
    pub fn finish(&self, search: &SearchState) -> Result<(RunResult, DataFrame)> {
        Ok((self.result(search), search.core.state.raw_frame(None)?))
    }

    /// The instrumented [`RunResult`] of a search's best-so-far state.
    pub(crate) fn result<B: ColumnStore>(&self, search: &Search<B>) -> RunResult {
        let core = &search.core;
        RunResult {
            method: self.method_name.clone(),
            dataset: core.state.store.dataset().to_string(),
            base_score: core.base_score,
            best_score: core.best_score,
            trace: core.trace.clone(),
            generated_features: core.counter.generated,
            downstream_evals: core.counter.evaluated,
            selected: core.state.plan.selected_names(),
            generation_secs: core.generation_secs,
            eval_secs: core.eval_secs,
            total_secs: core.total_secs,
            cache_hits: core.cache_hits,
            cache_misses: core.cache_misses,
        }
    }

    /// Blocking driver over [`Engine::step`], shared by
    /// [`Engine::run_full`] and [`Engine::run_chunked`]: opens a search,
    /// steps it to the end and hands it back finished.
    pub(crate) fn drive<B: ColumnStore>(
        &self,
        open: impl FnOnce() -> Result<Search<B>>,
    ) -> Result<Search<B>> {
        let mut run_span = telemetry::span("engine.run");
        let mut search = open()?;
        while !search.is_done() {
            self.step(&mut search)?;
        }
        run_span.field("generated", search.core.counter.generated as f64);
        run_span.field("downstream_evals", search.downstream_evals() as f64);
        run_span.field("best_score", search.best_score());
        Ok(search)
    }

    /// The caching evaluator this engine's searches use — public so a
    /// distributed worker can score speculated candidate frames with the
    /// identical scorer configuration (and so ship back content-addressed
    /// cache entries the coordinator's own evaluator will hit).
    pub fn evaluator(&self) -> CachedEvaluator {
        match &self.cache {
            Some(shared) => runtime::Evaluator::with_cache(
                self.config.evaluator.clone(),
                std::sync::Arc::clone(shared),
            ),
            None => runtime::Evaluator::new(self.config.evaluator.clone()),
        }
    }
}

fn report<R>(core: &SearchCore<R>, stage: SearchStage, epoch: usize) -> EpochReport {
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

/// One counted downstream evaluation of the selection plus `candidate`.
fn evaluate<B: ColumnStore>(
    core: &mut Core<B>,
    evaluator: &CachedEvaluator,
    selection: &mut Option<Selection>,
    timer: &mut PhaseTimer,
    candidate: &Candidate<B::Values>,
) -> Result<f64> {
    let _eval_span = telemetry::span("engine.evaluate");
    let state = &core.state;
    let score = timer.evaluation(|| probe(state, evaluator, selection, Some(candidate)))?;
    core.counter.evaluate();
    Ok(score)
}

/// Accept `candidate`, which scored `score` (above the current score),
/// into its proposing agent's subgroup; its weight is
/// `core.state.last_reward`, the gain it delivered. A built selection
/// gains the column behind its subgroup's earlier acceptances: the
/// candidate its `probe` held, with the digest and bins that probe made
/// (binned here only when its score came from the score cache).
fn accept<B: ColumnStore>(
    core: &mut Core<B>,
    selection: &mut Option<Selection>,
    candidate: Candidate<B::Values>,
    score: f64,
) -> Result<()> {
    core.state.current_score = score;
    core.best_score = core.best_score.max(score);
    core.weighted.push(WeightedFeature {
        name: candidate.name.clone(),
        weight: core.state.last_reward,
    });
    if let Some(selection) = selection {
        let plan = &core.state.plan;
        let agent = candidate.lineage.agent;
        let at = plan.n_agents() + (0..=agent).map(|j| plan.members(j) - 1).sum::<usize>();
        let store = &core.state.store;
        let runs = |run: &mut dyn FnMut(&[f64])| store.candidate_runs(&candidate.values, run);
        let column = match selection.take_candidate() {
            Some(held) if held.name() == candidate.name => held,
            _ => unbinned(&candidate.name, runs)?,
        };
        let column = bin(column, store.n_rows(), selection.bin_budget(), runs)?;
        selection.insert(at, column);
    }
    core.state.accept(candidate)
}

/// The downstream score of the selection extended by `candidate` — of
/// the selection alone when `None` — and the one place a search scores
/// anything. The score cache is probed with the selection's key state
/// plus the candidate's digest (≡ `cache_key` of the raw-value frame); a
/// miss bins only the candidate, from its runs (or reads its bins from
/// the bin cache, which does not keep them), and the store builds a frame
/// only for a model kind that reads raw values. `held` is the selection,
/// built here from the selected columns when it is missing or was binned
/// under another budget; it holds the candidate afterwards, in place of
/// the one probed before, for `accept` to take.
fn probe<B: ColumnStore>(
    state: &RlState<B>,
    evaluator: &CachedEvaluator,
    held: &mut Option<Selection>,
    candidate: Option<&Candidate<B::Values>>,
) -> Result<f64> {
    let store = &state.store;
    let budget = evaluator.scorer().bin_budget(store.label().task());
    let selection = selection_under(state, held.take(), budget)?;
    let selection = held.insert(selection);
    // The previous candidate's bins go before this one's are built.
    selection.take_candidate();
    let mut extra = candidate
        .map(|c| unbinned(&c.name, |run| store.candidate_runs(&c.values, run)))
        .transpose()?;
    let key = evaluator.key_of(&match &extra {
        Some(column) => selection.extended_key(column.name(), column.digest()),
        None => selection.key().clone(),
    });
    let score = evaluator.evaluate_keyed(key, |scorer| {
        if cfg!(debug_assertions) {
            let frame = state.raw_frame(candidate)?;
            debug_assert_eq!(
                evaluator.cache_key(&frame),
                key,
                "key must address this frame"
            );
        }
        if let (Some(c), Some(column)) = (candidate, extra.take()) {
            let runs = |run: &mut dyn FnMut(&[f64])| store.candidate_runs(&c.values, run);
            extra = Some(bin(column, store.n_rows(), budget, runs)?);
        }
        scorer.evaluate_selection(selection, extra.as_ref(), store.label(), || {
            state.raw_frame(candidate)
        })
    })?;
    if let Some(column) = extra {
        selection.hold_candidate(column);
    }
    Ok(score)
}

/// `held` when it was binned under `budget`, else the selection of the
/// selected columns under it, each digested and binned from its runs.
fn selection_under<B: ColumnStore>(
    state: &RlState<B>,
    held: Option<Selection>,
    budget: Option<usize>,
) -> Result<Selection> {
    if let Some(selection) = held.filter(|s| s.bin_budget() == budget) {
        return Ok(selection);
    }
    let store = &state.store;
    let mut selection = Selection::new(store.dataset(), store.n_rows(), store.label(), budget);
    for (col, name) in state.plan.selected() {
        let runs = |run: &mut dyn FnMut(&[f64])| store.column_runs(col, run);
        let column = unbinned(name, runs)?;
        selection.push(bin(column, store.n_rows(), budget, runs)?);
    }
    Ok(selection)
}

/// The digest of the column `runs` hands over run by run.
fn digest(runs: impl FnOnce(&mut dyn FnMut(&[f64])) -> Result<()>) -> Result<Fingerprint> {
    let mut digest = ColumnDigest::default();
    runs(&mut |run| digest.write(run))?;
    Ok(digest.finish())
}

/// The column `name` that `runs` hands over, digested and not binned.
fn unbinned(
    name: &str,
    runs: impl FnOnce(&mut dyn FnMut(&[f64])) -> Result<()>,
) -> Result<SelectedColumn> {
    Ok(SelectedColumn::unbinned(name, digest(runs)?))
}

/// `column`, of `n_rows` rows, binned under `budget` unless it is binned
/// already: from the bin cache, or from the runs `runs` hands over again.
fn bin(
    column: SelectedColumn,
    n_rows: usize,
    budget: Option<usize>,
    runs: impl FnMut(&mut dyn FnMut(&[f64])) -> Result<()>,
) -> Result<SelectedColumn> {
    column.binned(budget, |bins| {
        BinnedColumn::build_from_runs(n_rows, bins, runs)
    })
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
    use std::sync::Arc;
    use tabular::{ChunkOptions, ChunkedFrame, Column, InMemoryStore, Label, SynthSpec, Task};

    fn fast_config() -> EafeConfig {
        EafeConfig::fast()
    }

    fn target_frame() -> DataFrame {
        SynthSpec::new("step-test", 150, 5, Task::Classification)
            .with_seed(5)
            .generate()
            .unwrap()
    }

    fn chunked(frame: &DataFrame, chunk_rows: usize) -> ChunkedFrame {
        let options = ChunkOptions::default().with_chunk_rows(chunk_rows);
        ChunkedFrame::from_dataframe(frame, options, Box::new(InMemoryStore::new())).unwrap()
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

    fn rl_state(last_reward: f64) -> RlState<EngineState> {
        let mut frame = target_frame();
        frame.sanitize();
        RlState {
            plan: Plan::new(frame.columns().iter().map(|c| c.name.clone())),
            store: EngineState::new(frame),
            current_score: 0.8,
            last_reward,
        }
    }

    #[test]
    fn embedding_is_fixed_size_and_bounded() {
        let cfg = fast_config();
        let mut state = rl_state(5.0); // deliberately out of range → clamped
        let e = embedding(&cfg, &state, 1, 2, 0.5);
        assert_eq!(e.len(), EngineState::EMBEDDING_DIM);
        assert!(e.iter().all(|v| v.is_finite() && v.abs() <= 2.0), "{e:?}");
        assert_eq!(e[0], 1.0);
        assert_eq!(e[2], 1.0); // clamped reward
        assert_eq!(e[4], 0.0, "an untouched subgroup has mean order 0");

        // One order-1 member beside the original: mean order 1/2.
        let sqrt = state.generate(Lineage::new(1, Operator::Sqrt, 0, 0));
        state.accept(sqrt.unwrap()).unwrap();
        let e = embedding(&cfg, &state, 1, 2, 0.5);
        assert!((e[4] - 0.5 / cfg.max_order as f64).abs() < 1e-12);
    }

    #[test]
    fn proposals_draw_both_members_from_the_agents_own_subgroup() {
        let cfg = fast_config();
        let mut state = rl_state(0.0);
        let sqrt = state.generate(Lineage::new(2, Operator::Sqrt, 0, 0));
        state.accept(sqrt.unwrap()).unwrap();
        let mut policy = RnnPolicy::new(rl::PolicyConfig {
            state_dim: EngineState::EMBEDDING_DIM,
            n_actions: Operator::ALL.len(),
            ..cfg.policy
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (mut composed, mut fresh) = (0, 0);
        for i in 0..100 {
            let step = i % cfg.steps_per_epoch;
            let (_, candidate) =
                propose(&cfg, &state, &mut policy, &mut rng, 2, step, 0.0).unwrap();
            let lineage = candidate.lineage;
            assert_eq!(lineage.agent, 2, "{lineage:?}");
            assert!(lineage.a < 2 && lineage.b < 2, "{lineage:?}");
            let expr = &candidate.name;
            assert_eq!(
                (expr.clone(), candidate.order),
                state.plan.describe(lineage).0
            );
            match candidate.order {
                1 => fresh += 1,
                2 => composed += 1,
                order => panic!("{expr}: order {order} from members of order 0 and 1"),
            }
        }
        assert!(fresh > 0 && composed > 0, "both members must be reachable");
    }

    /// A replayed candidate joins the subgroup of the agent that proposed
    /// it. With twelve columns `f0..f11`, agent 10's `sqrt(f10)` contains
    /// the name `f1` too; a guess by name would hand it to subgroup 1.
    #[test]
    fn a_seeded_feature_joins_its_proposing_agents_subgroup() {
        let frame = SynthSpec::new("twelve", 150, 12, Task::Classification)
            .with_seed(5)
            .generate()
            .unwrap();
        let engine = Engine::nfs(fast_config());
        let mut search = engine.start(&frame).unwrap();
        let core = &mut search.core;
        let candidate = core.state.generate(Lineage::new(10, Operator::Sqrt, 0, 0));
        let candidate = candidate.unwrap();
        assert_eq!(candidate.name, "sqrt(f10)");
        core.replay.push(1.0, candidate.lineage);
        core.phase = SearchPhase::Seed;
        // Any score improves on this one: the candidate is accepted.
        core.state.current_score = f64::NEG_INFINITY;
        engine.step(&mut search).unwrap();

        let plan = &search.core.state.plan;
        assert_eq!(plan.selected_names(), ["sqrt(f10)"]);
        assert_eq!(plan.members(10), 2, "sqrt(f10) joins subgroup 10");
        assert_eq!(plan.members(1), 1);
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
        assert_eq!(state.to_value(), restored.to_value());
        assert!(restored.evaluator.is_none(), "evaluator is process-local");
    }

    /// A flat state's checkpoint decodes to the state it came from — its
    /// columns made again in subgroup order, not in the order they were
    /// accepted — and is refused when a subgroup is missing, a base column
    /// is short, or a lineage fails the plan's check.
    #[test]
    fn a_restore_replays_the_plan_and_rejects_what_disagrees_with_it() {
        let base = DataFrame::new(
            "s",
            vec![
                Column::new("f0", vec![1.0, 2.0, 3.0]),
                Column::new("f1", vec![4.0, 5.0, 6.0]),
            ],
            Label::Class {
                y: vec![0, 1, 0],
                n_classes: 2,
            },
        )
        .unwrap();
        let mut state = RlState {
            plan: Plan::new(["f0", "f1"].map(String::from)),
            store: EngineState::new(base),
            current_score: 0.5,
            last_reward: 0.25,
        };
        let sqrt = |agent| Lineage::new(agent, Operator::Sqrt, 0, 0);
        for lineage in [sqrt(1), sqrt(0), Lineage { a: 1, ..sqrt(0) }] {
            let candidate = state.generate(lineage).unwrap();
            state.accept(candidate).unwrap();
        }
        let good = state.to_value();
        let restored = RlState::<EngineState>::from_value(&good).unwrap();
        assert_eq!(restored.to_value(), good);
        assert_eq!(restored.plan.selected_ids(), [0, 1, 2, 3, 4]);
        assert_eq!(state.plan.selected_ids(), [0, 1, 3, 4, 2]);
        assert_eq!(
            restored.raw_frame(None).unwrap(),
            state.raw_frame(None).unwrap()
        );

        fn at<'a>(v: &'a mut Value, path: &str) -> &'a mut Value {
            path.split('.').fold(v, |v, key| match v {
                Value::Map(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1,
                Value::Array(items) => &mut items[key.parse::<usize>().unwrap()],
                other => panic!("{key}: {other:?}"),
            })
        }
        let rejects = |path: &str, edit: &dyn Fn(&mut Value)| {
            let mut bad = good.clone();
            edit(at(&mut bad, path));
            let err = RlState::<EngineState>::from_value(&bad).err();
            err.map(|e| e.to_string()).unwrap_or_default()
        };
        let pop = |v: &mut Value| match v {
            Value::Array(items) => drop(items.pop()),
            other => panic!("{other:?}"),
        };
        assert!(rejects("store.accepted", &pop).contains("subgroups"));
        assert!(rejects("store.frame.columns.1.values", &pop).contains("subgroups"));
        let another_subgroup = |v: &mut Value| *v = Value::U64(1);
        assert!(rejects("store.accepted.0.1.agent", &another_subgroup).contains("lineage"));
    }

    /// Paths of the arrays of `n` numbers in `v`.
    fn numeric_arrays(v: &Value, path: &str, n: usize, out: &mut Vec<String>) {
        let number = |x: &Value| matches!(x, Value::I64(_) | Value::U64(_) | Value::F64(_));
        match v {
            Value::Array(items) => {
                if items.len() == n && items.iter().all(number) {
                    out.push(path.to_string());
                }
                for (i, item) in items.iter().enumerate() {
                    numeric_arrays(item, &format!("{path}.{i}"), n, out);
                }
            }
            Value::Map(entries) => {
                for (key, item) in entries {
                    numeric_arrays(item, &format!("{path}.{key}"), n, out);
                }
            }
            _ => {}
        }
    }

    /// A checkpoint writes the base frame and lineages, never a generated
    /// column: the only arrays of `n_rows` numbers in it are the base
    /// frame's, its columns and its label. Checked on an E-AFE search
    /// whose replay buffer is full after stage 1 and on an NFS search
    /// that has accepted a feature; both decode to the search they came
    /// from.
    #[test]
    fn a_checkpoint_holds_no_generated_value() {
        // A prime row count, so no policy matrix has that many entries.
        let n_rows = 173;
        let frame = SynthSpec::new("no-values", n_rows, 4, Task::Classification)
            .with_seed(5)
            .generate()
            .unwrap();
        let cfg = fast_config();
        let space = crate::FpeSearchSpace {
            families: vec![minhash::HashFamily::Ccws],
            dims: vec![16],
            thre: 0.0,
            seed: 1,
        };
        let fpe = crate::bootstrap_fpe(3, 1, &space, &cfg.evaluator, 7).unwrap();

        let e_afe = Engine::e_afe(cfg.clone(), fpe);
        let mut staged = e_afe.start(&frame).unwrap();
        while staged.phase() != SearchPhase::Seed {
            e_afe.step(&mut staged).unwrap();
        }
        assert!(!staged.core.replay.is_empty(), "stage 1 kept candidates");

        let nfs = Engine::nfs(cfg);
        let mut accepted = nfs.start(&frame).unwrap();
        nfs.step(&mut accepted).unwrap();
        let sqrt = Lineage::new(1, Operator::Sqrt, 0, 0);
        let core = &mut accepted.core;
        let candidate = core.state.generate(sqrt).unwrap();
        accept(core, &mut accepted.selection, candidate, core.best_score).unwrap();
        assert_eq!(accepted.core.state.plan.n_generated(), 1);

        for search in [staged, accepted] {
            let checkpoint = search.to_value();
            let mut found = Vec::new();
            numeric_arrays(&checkpoint, "", n_rows, &mut found);
            let n_cols = search.core.state.plan.n_agents();
            let mut expected: Vec<String> = (0..n_cols)
                .map(|j| format!(".state.store.frame.columns.{j}.values"))
                .collect();
            expected.push(".state.store.frame.label.Class.y".to_string());
            assert_eq!(found, expected);
            let restored = SearchState::from_value(&checkpoint).unwrap();
            assert_eq!(restored.to_value(), checkpoint);
        }
    }

    /// An accepted candidate joins the selection with the bins its probe
    /// built — the very allocation, so it is neither digested nor binned
    /// again — in both column stores.
    #[test]
    fn an_accepted_column_keeps_the_bins_its_probe_built() {
        fn accept_one<B: ColumnStore>(mut search: Search<B>) {
            let evaluator = search.evaluator.clone().unwrap();
            let lineage = Lineage::new(1, Operator::Multiply, 0, 0);
            let candidate = search.core.state.generate(lineage).unwrap();
            let misses = evaluator.stats().misses;
            let state = &search.core.state;
            let score = probe(state, &evaluator, &mut search.selection, Some(&candidate));
            assert_eq!(evaluator.stats().misses, misses + 1, "a computed score");
            let held = search.selection.clone().unwrap().take_candidate().unwrap();
            let probed = Arc::clone(held.bins().expect("a miss bins the candidate"));
            let name = candidate.name.clone();
            let n_agents = state.plan.n_agents();
            accept(
                &mut search.core,
                &mut search.selection,
                candidate,
                score.unwrap(),
            )
            .unwrap();
            let selection = search.selection.as_mut().unwrap();
            // Agent 1's first acceptance goes behind the base columns and
            // agent 0's (none yet).
            let column = &selection.columns()[n_agents];
            assert_eq!(column.name(), name);
            assert_eq!(column.digest(), held.digest());
            assert!(Arc::ptr_eq(column.bins().unwrap(), &probed));
            assert!(selection.take_candidate().is_none(), "moved, not copied");
        }
        let engine = Engine::nfs(fast_config());
        let frame = target_frame();
        accept_one(engine.start(&frame).unwrap());
        accept_one(engine.start_chunked(chunked(&frame, 32)).unwrap());
    }

    /// The driver's probe over the flat store, over the chunked store at
    /// every chunk size and `cache_key` of the materialised frame address
    /// one cache entry — observed through a shared cache, so it holds
    /// where the probe's debug assertion is compiled out — and the score
    /// the probe computes from either store's bins is
    /// `learners::Evaluator::evaluate` of that frame, to the bit. Subgroup
    /// 0 accepts before and after subgroup 1, so column ids and selection
    /// order differ.
    #[test]
    fn flat_chunked_and_whole_frame_keys_agree() {
        let accepted = [
            (0, Operator::Sqrt, 0, 0),
            (1, Operator::Add, 0, 0),
            (0, Operator::Multiply, 0, 1),
        ];
        // Accept the leading `accepted` into a search's state, then
        // propose the candidate both stores are probed with.
        fn select<B: ColumnStore>(
            search: Search<B>,
            accepted: &[(usize, Operator, usize, usize)],
        ) -> (RlState<B>, Candidate<B::Values>) {
            let mut state = search.core.state;
            for &(agent, op, a, b) in accepted {
                let feature = state.generate(Lineage::new(agent, op, a, b)).unwrap();
                state.accept(feature).unwrap();
            }
            let candidate = state.generate(Lineage::new(2, Operator::Log, 0, 0));
            (state, candidate.unwrap())
        }
        let engine = Engine::nfs(fast_config());
        for task in [Task::Classification, Task::Regression] {
            let frame = SynthSpec::new("key-parity", 60, 3, task)
                .with_seed(11)
                .generate()
                .unwrap();
            for extras in 0..=accepted.len() {
                let evaluator = CachedEvaluator::new(fast_config().evaluator);
                let (flat, candidate) = select(engine.start(&frame).unwrap(), &accepted[..extras]);
                let score = probe(&flat, &evaluator, &mut None, Some(&candidate)).unwrap();
                let whole = flat
                    .raw_frame(None)
                    .unwrap()
                    .with_extra_columns(&[candidate.into_column()])
                    .unwrap();
                assert_eq!(whole.n_cols(), 3 + extras + 1);
                assert!(evaluator.cache().contains(evaluator.cache_key(&whole)));
                let direct = evaluator.scorer().evaluate(&whole).unwrap();
                assert_eq!(
                    score.to_bits(),
                    direct.to_bits(),
                    "{task:?}, {extras} accepted"
                );

                for chunk_rows in [1, 7, 256, frame.n_rows()] {
                    let search = engine.start_chunked(chunked(&frame, chunk_rows)).unwrap();
                    let (chunked, candidate) = select(search, &accepted[..extras]);
                    let mut selection = None;
                    let again = probe(&chunked, &evaluator, &mut selection, Some(&candidate));
                    assert_eq!(score.to_bits(), again.unwrap().to_bits());
                    // A cache of its own: the probe computes the score
                    // from the bins it built chunk by chunk.
                    let own = CachedEvaluator::new(fast_config().evaluator);
                    let computed = probe(&chunked, &own, &mut selection, Some(&candidate));
                    let computed = computed.unwrap();
                    assert_eq!(own.stats().misses, 1);
                    assert_eq!(
                        computed.to_bits(),
                        direct.to_bits(),
                        "chunk_rows {chunk_rows}"
                    );
                }
                let stats = evaluator.stats();
                assert_eq!(
                    (stats.misses, stats.inserts, stats.hits),
                    (1, 1, 4),
                    "{task:?}, {extras} accepted"
                );
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
