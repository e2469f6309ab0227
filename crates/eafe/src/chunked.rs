//! Chunk-at-a-time E-AFE execution over an out-of-core [`ChunkedFrame`]:
//! [`Engine::run_chunked`] and the stepped
//! [`Engine::start_chunked`] / [`Engine::step_chunked`] /
//! [`Engine::finish_chunked`] mirror of [`crate::step`].
//!
//! The flat engine keeps every subgroup member — originals and accepted
//! candidates alike — as an in-RAM `Vec<f64>`, and every *rejected*
//! candidate is also fully materialized just to be FPE-scored. At 10M+
//! rows that working set is what runs out of memory first. This driver
//! keeps all column data as compressed chunks governed by the frame's
//! [`tabular::FrameBudget`]:
//!
//! - candidates are generated chunk-at-a-time ([`Operator::apply_chunk`]
//!   plus the [`Operator::column_bounds`] prepass for min-max
//!   normalisation), encoded per chunk, and never exist as a flat column;
//! - FPE gate scoring sketches those chunks in place (a
//!   [`minhash::WeightBounds`] pass, then
//!   [`SampleCompressor::signature_indexed`] over a chunk-backed
//!   [`minhash::RowSource`]), so stage-1 — which by design never touches
//!   the downstream task — runs without materializing anything;
//! - chunk encoding fans out over the [`runtime::WorkerPool`] with
//!   results merged in chunk-index order, so 1-thread ≡ N-thread.
//!
//! Downstream evaluations still materialize the selected frame plus the
//! candidate column transiently (the CV learners need flat data), and the
//! per-chunk transforms/folds replay the flat path's exact expression
//! sequences, so a chunked run is **bit-identical** to
//! [`Engine::run_full`] on the materialized frame: same RNG streams, same
//! candidates, same scores, same accepted features. The parity tests
//! below pin that contract for every gate/stage combination.
//!
//! What is deliberately *not* mirrored: [`crate::SearchState`]'s serde
//! checkpointing (a chunked search lives and dies with its frame handle;
//! checkpoint/resume stays on the flat path) and the signature cache
//! (chunk-backed sketches bypass `runtime::sigcache` — scores are bitwise
//! unchanged, the cache only ever short-circuits recomputation).

use crate::config::CachedEvaluator;
use crate::engine::{Engine, Gate};
use crate::error::{EafeError, Result};
use crate::fpe::repr::FeatureRepr;
use crate::fpe::FpeModel;
use crate::ops::Operator;
use crate::report::{
    EpochPoint, EpochReport, EvalCounter, PhaseTimer, RunResult, SearchStage, WeightedFeature,
};
use crate::reward::SurrogateReward;
use crate::state::EngineState;
use crate::step::{AdaptiveGate, SearchPhase};
use minhash::{RowSource, SampleCompressor, WeightBounds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{returns_from_scores, rewards_to_go, score_gains, ReplayBuffer, RnnPolicy, StepCache};
use runtime::{PrefixHasher, WorkerPool};
use tabular::{ChunkEncoding, ChunkedFrame, Column, DataFrame};

/// A generated candidate held as compressed chunks — the chunked
/// counterpart of [`crate::GeneratedFeature`], which never exists as a
/// flat `Vec<f64>`.
#[derive(Debug, Clone)]
struct ChunkedCandidate {
    /// Expression name (same formatting as the flat path).
    name: String,
    /// Composition depth.
    order: usize,
    /// Per-chunk encodings, in chunk-index order.
    chunks: Vec<ChunkEncoding>,
    /// Constant/non-finite — mirrors `GeneratedFeature::is_degenerate`.
    degenerate: bool,
}

/// An accepted generated feature: where its chunks live in the frame.
#[derive(Debug, Clone)]
struct GenRef {
    /// Column index in the search's [`ChunkedFrame`].
    col: usize,
    /// Composition depth.
    order: usize,
    /// Expression name.
    name: String,
}

/// One agent's subgroup, referencing columns of the chunked frame instead
/// of owning flat copies (mirrors [`crate::FeatureSubgroup`]).
#[derive(Debug, Clone)]
struct ChunkedSubgroup {
    /// The original feature's column index (order 0).
    origin_col: usize,
    /// The original feature's name (used by `feature_origin`).
    origin_name: String,
    /// Accepted generated features, in acceptance order.
    generated: Vec<GenRef>,
}

impl ChunkedSubgroup {
    fn len(&self) -> usize {
        1 + self.generated.len()
    }

    /// Member `(frame column, order, name)`; index 0 is the original.
    fn member(&self, idx: usize) -> (usize, usize, &str) {
        if idx == 0 {
            (self.origin_col, 0, self.origin_name.as_str())
        } else {
            let g = &self.generated[idx - 1];
            (g.col, g.order, g.name.as_str())
        }
    }

    /// Same draw as `FeatureSubgroup::sample_member`.
    fn sample_member(&self, rng: &mut impl Rng) -> usize {
        rng.gen_range(0..self.len())
    }

    fn mean_order(&self) -> f64 {
        let total: usize = self.generated.iter().map(|g| g.order).sum();
        total as f64 / self.len() as f64
    }
}

/// A running (or finished) chunked search: the out-of-core mirror of
/// [`crate::SearchState`], advanced by [`Engine::step_chunked`].
pub struct ChunkedSearch {
    /// Sanitized base frame; accepted candidates are appended as columns.
    frame: ChunkedFrame,
    /// Base (original-feature) column count; agents = base columns.
    n_base: usize,
    subgroups: Vec<ChunkedSubgroup>,
    current_score: f64,
    last_reward: f64,
    policies: Vec<RnnPolicy>,
    rng: StdRng,
    gate_rng: StdRng,
    replay: ReplayBuffer<ChunkedCandidate>,
    fpe_gate: AdaptiveGate,
    phase: SearchPhase,
    base_score: f64,
    best_score: f64,
    trace: Vec<EpochPoint>,
    counter: EvalCounter,
    epochs_since_improvement: usize,
    max_generated: usize,
    slices: usize,
    weighted: Vec<WeightedFeature>,
    generation_secs: f64,
    eval_secs: f64,
    total_secs: f64,
    cache_hits: u64,
    cache_misses: u64,
    evaluator: CachedEvaluator,
    /// Hash state of the selected frame declared one column wider, shared
    /// by every candidate probe until an acceptance changes the selection.
    /// Only the state: the selected columns stay under the frame's budget.
    prefix: Option<PrefixHasher>,
}

impl ChunkedSearch {
    /// True once the search has consumed all its epochs (or stopped early).
    pub fn is_done(&self) -> bool {
        self.phase == SearchPhase::Done
    }

    /// Current position in the search.
    pub fn phase(&self) -> SearchPhase {
        self.phase
    }

    /// Dataset name this search runs on.
    pub fn dataset(&self) -> &str {
        &self.frame.name
    }

    /// Downstream score of the raw feature set.
    pub fn base_score(&self) -> f64 {
        self.base_score
    }

    /// Best downstream score achieved so far.
    pub fn best_score(&self) -> f64 {
        self.best_score
    }

    /// Cumulative downstream evaluations so far.
    pub fn downstream_evals(&self) -> usize {
        self.counter.evaluated
    }

    /// Cumulative features generated so far (before any gate).
    pub fn features_generated(&self) -> usize {
        self.counter.generated
    }

    /// Best-so-far weighted feature set, in acceptance order.
    pub fn best_features(&self) -> &[WeightedFeature] {
        &self.weighted
    }

    /// The chunked frame the search runs on (base + accepted columns);
    /// its [`ChunkedFrame::stats`] expose residency/spill traffic.
    pub fn frame(&self) -> &ChunkedFrame {
        &self.frame
    }

    fn n_generated(&self) -> usize {
        self.subgroups.iter().map(|s| s.generated.len()).sum()
    }

    /// Mirror of `EngineState::embedding` over subgroup refs.
    fn embedding(
        &self,
        agent: usize,
        step: usize,
        steps_per_epoch: usize,
        epoch_frac: f64,
        max_order: usize,
    ) -> Vec<f64> {
        let sub = &self.subgroups[agent];
        vec![
            1.0, // bias
            (sub.len() as f64).ln() / 4.0,
            (self.last_reward * 10.0).clamp(-1.0, 1.0),
            self.current_score.clamp(-1.0, 1.0),
            sub.mean_order() / max_order.max(1) as f64,
            (step as f64 + 0.5) / steps_per_epoch.max(1) as f64,
            epoch_frac.clamp(0.0, 1.0),
            (agent as f64 + 0.5) / self.subgroups.len().max(1) as f64,
        ]
    }

    /// Mirror of `feature_origin`: the subgroup whose original feature
    /// name appears first in the expression (falls back to 0).
    fn feature_origin(&self, expr: &str) -> usize {
        self.subgroups
            .iter()
            .position(|s| expr.contains(s.origin_name.as_str()))
            .unwrap_or(0)
    }

    /// Accept a candidate: its chunks move into the budgeted frame (and
    /// from there spill to the store under memory pressure).
    fn accept(&mut self, origin: usize, cand: ChunkedCandidate) -> Result<()> {
        // Accepted columns land inside the selected order.
        self.prefix = None;
        let col = self.frame.push_column_chunks(&cand.name, cand.chunks)?;
        self.subgroups[origin].generated.push(GenRef {
            col,
            order: cand.order,
            name: cand.name,
        });
        Ok(())
    }

    /// Materialize the selected frame (base columns + accepted features in
    /// subgroup order) — transient, for downstream evaluation only. The
    /// column order and names match `EngineState::selected_frame` exactly,
    /// so the evaluator's content-addressed cache keys coincide too.
    fn selected_dataframe(&self) -> Result<DataFrame> {
        let mut cols = Vec::with_capacity(self.n_base + self.n_generated());
        for j in 0..self.n_base {
            let mut values = Vec::new();
            self.frame.materialize_column(j, &mut values)?;
            cols.push(Column::new(self.frame.column_name(j)?.to_string(), values));
        }
        for sub in &self.subgroups {
            for g in &sub.generated {
                let mut values = Vec::new();
                self.frame.materialize_column(g.col, &mut values)?;
                cols.push(Column::new(g.name.clone(), values));
            }
        }
        Ok(DataFrame::new(
            self.frame.name.clone(),
            cols,
            self.frame.label().clone(),
        )?)
    }

    /// The selected frame plus one candidate column — what one downstream
    /// evaluation sees.
    fn candidate_frame(&self, cand: &ChunkedCandidate) -> Result<DataFrame> {
        let selected = self.selected_dataframe()?;
        let mut values = Vec::with_capacity(self.frame.n_rows());
        for enc in &cand.chunks {
            enc.fold_values((), |(), v| values.push(v));
        }
        let col = Column::new(cand.name.clone(), values);
        Ok(selected.with_extra_columns(std::slice::from_ref(&col))?)
    }

    /// Hash the selected frame's header (declaring one more column than it
    /// has) and columns, chunk by chunk, in `selected_dataframe` order.
    fn selected_prefix(&self) -> Result<PrefixHasher> {
        let n_cols = self.n_base + self.n_generated() + 1;
        let mut h = PrefixHasher::new(&self.frame.name, self.frame.n_rows(), n_cols);
        let mut buf = runtime::scratch_f64_with_capacity(self.frame.chunk_rows());
        let mut add = |col: usize, name: &str| {
            h.column(name);
            self.frame
                .for_each_chunk(col, &mut buf, |_, _, values| h.values(values))
        };
        for j in 0..self.n_base {
            add(j, self.frame.column_name(j)?)?;
        }
        for g in self.subgroups.iter().flat_map(|sub| &sub.generated) {
            add(g.col, &g.name)?;
        }
        Ok(h)
    }

    /// Downstream score of the selected frame extended by `cand` — the
    /// chunked mirror of `step::evaluate_candidate`. The cache is probed
    /// with a key hashed from the prefix state and the candidate's chunks
    /// (≡ `cache_key(candidate_frame)`, debug-asserted by
    /// `evaluate_keyed` on a miss); only a miss materializes the frame.
    fn evaluate_candidate(
        &mut self,
        timer: &mut PhaseTimer,
        cand: &ChunkedCandidate,
    ) -> Result<f64> {
        if self.prefix.is_none() {
            self.prefix = Some(self.selected_prefix()?);
        }
        let mut h = self.prefix.clone().expect("prefix built above");
        let _eval_span = telemetry::span("engine.evaluate");
        timer.evaluation(|| {
            h.column(&cand.name);
            cand.rows(self.frame.chunk_rows(), self.frame.n_rows())
                .for_each_run(|run| h.values(run));
            let key = self.evaluator.key_of(h.finish(self.frame.label()));
            self.evaluator
                .evaluate_keyed(key, || self.candidate_frame(cand))
        })
    }
}

/// Generate one candidate for agent `j`: the chunked mirror of
/// `generate_candidate` — same member draws, same expression name, same
/// values chunk by chunk.
fn generate_candidate_chunked(
    frame: &ChunkedFrame,
    sub: &ChunkedSubgroup,
    op: Operator,
    rng: &mut impl Rng,
) -> Result<ChunkedCandidate> {
    let ia = sub.sample_member(rng);
    let ib = sub.sample_member(rng);
    let a = sub.member(ia);
    let b = sub.member(ib);
    generate_chunked(frame, op, a, b)
}

/// Apply `op` to two frame columns chunk-at-a-time: decode each chunk
/// into pooled scratch, transform with [`Operator::apply_chunk`], and
/// re-encode — in parallel across chunks when the pool is active, merged
/// in chunk-index order. Values are bit-identical to
/// `GeneratedFeature::generate` on the materialized parents.
fn generate_chunked(
    frame: &ChunkedFrame,
    op: Operator,
    a: (usize, usize, &str),
    b: (usize, usize, &str),
) -> Result<ChunkedCandidate> {
    telemetry::count(op.counter_name(), 1);
    let (a_col, a_order, a_name) = a;
    let (b_col, b_order, b_name) = b;
    let (name, order) = if op.is_unary() {
        (format!("{}({})", op.symbol(), a_name), a_order + 1)
    } else {
        (
            format!("({}{}{})", a_name, op.symbol(), b_name),
            a_order.max(b_order) + 1,
        )
    };
    // Whole-column prepass for min-max normalisation: one sequential
    // row-order fold per accumulator, the exact `column_bounds` chains.
    let bounds = if op.needs_bounds() {
        Some(
            frame.fold_column(a_col, (f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            })?,
        )
    } else {
        None
    };

    let one = |k: usize| -> Result<(ChunkEncoding, f64, f64)> {
        let ea = frame.chunk(a_col, k)?;
        let mut va = runtime::scratch_f64_with_capacity(ea.len());
        ea.decode_into(&mut va);
        let mut out = runtime::scratch_f64_with_capacity(va.len());
        if op.is_unary() {
            op.apply_chunk(&va, &[], bounds, &mut out);
        } else {
            let eb = frame.chunk(b_col, k)?;
            let mut vb = runtime::scratch_f64_with_capacity(eb.len());
            eb.decode_into(&mut vb);
            op.apply_chunk(&va, &vb, bounds, &mut out);
        }
        // Per-chunk min/max for the degeneracy check; combined across
        // chunks in chunk-index order below. `apply_chunk` clamps every
        // output to finite, so the NaN filter of `Column::min` is moot.
        let lo = out.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = out.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Ok((ChunkEncoding::encode(&out), lo, hi))
    };

    let n_chunks = frame.n_chunks();
    // Same shape as the binned-histogram gate: parallel encode only when
    // there are multiple chunks and enough rows to amortize dispatch.
    let parallel = runtime::global_threads() != 1 && n_chunks >= 2 && frame.n_rows() >= 65_536;
    let parts: Vec<Result<(ChunkEncoding, f64, f64)>> = if parallel {
        WorkerPool::new().map((0..n_chunks).collect(), |_ctx, k| one(k))
    } else {
        (0..n_chunks).map(one).collect()
    };

    let mut chunks = Vec::with_capacity(n_chunks);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for part in parts {
        let (enc, clo, chi) = part?;
        lo = lo.min(clo);
        hi = hi.max(chi);
        chunks.push(enc);
    }
    // Mirrors `is_degenerate`: outputs are always finite (clamped), so
    // only the `is_constant(1e-12)` arm can fire. min/max are
    // order-insensitive over finite values up to the sign of zero, which
    // cannot change the `hi - lo < eps` verdict.
    let degenerate = !(hi - lo).is_finite() || hi - lo < 1e-12;
    Ok(ChunkedCandidate {
        name,
        order,
        chunks,
        degenerate,
    })
}

/// A candidate's chunks as the MinHash kernel's row source: random access
/// for the few rows a sketch visits, one decoded pass for the dense scan.
struct CandidateRows<'a> {
    chunks: &'a [ChunkEncoding],
    chunk_rows: usize,
    n_rows: usize,
}

impl ChunkedCandidate {
    fn rows(&self, chunk_rows: usize, n_rows: usize) -> CandidateRows<'_> {
        CandidateRows {
            chunks: &self.chunks,
            chunk_rows,
            n_rows,
        }
    }
}

impl RowSource for CandidateRows<'_> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn value_at(&self, k: usize) -> f64 {
        self.chunks[k / self.chunk_rows].value_at(k % self.chunk_rows)
    }

    fn for_each_run(&self, mut f: impl FnMut(&[f64])) {
        let mut buf = runtime::scratch_f64_with_capacity(self.chunk_rows);
        for enc in self.chunks {
            enc.decode_into(&mut buf);
            f(&buf);
        }
    }
}

/// FPE-score a chunked candidate. The MinHash representation works off the
/// chunks (a weight-bounds pass, then the indexed sketch + gather) and is
/// bit-identical to `FpeModel::score_feature` on the materialized column;
/// other representations need the full flat values and fall back to a
/// transient pooled decode.
fn score_candidate(
    fpe: &FpeModel,
    cand: &ChunkedCandidate,
    chunk_rows: usize,
    n_rows: usize,
) -> Result<f64> {
    match fpe.repr() {
        FeatureRepr::MinHash(c) => {
            let rows = cand.rows(chunk_rows, n_rows);
            let mut bounds = WeightBounds::new();
            rows.for_each_run(|run| bounds.absorb(run));
            let sig = c.signature_indexed(bounds, &rows)?;
            let mut compressed: Vec<f64> = sig
                .keys()
                .map(|k| SampleCompressor::gather_value(rows.value_at(k)))
                .collect();
            SampleCompressor::normalize(&mut compressed);
            fpe.score_compressed(compressed)
        }
        _ => {
            let mut flat = runtime::scratch_f64_with_capacity(n_rows);
            for enc in &cand.chunks {
                enc.fold_values((), |(), v| flat.push(v));
            }
            fpe.score_feature(&flat)
        }
    }
}

impl Engine {
    /// Open a chunked search: sanitize the frame in place (chunk by
    /// chunk), score the raw feature set, and set up policies and RNG
    /// streams — the out-of-core mirror of [`Engine::start`]. Takes the
    /// frame by value: the search owns it, appends accepted columns to
    /// it, and hands it back (reordered) from [`Engine::finish_chunked`].
    pub fn start_chunked(&self, mut frame: ChunkedFrame) -> Result<ChunkedSearch> {
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
        frame.sanitize()?;

        let cfg = &self.config;
        let mut timer = PhaseTimer::new();
        timer.start();
        let mut counter = EvalCounter::default();
        let rng = StdRng::seed_from_u64(cfg.seed);
        let gate_rng = StdRng::seed_from_u64(runtime::derive_seed(cfg.seed, 0x67617465, 0));

        let evaluator = self.make_evaluator();
        let cache_start = evaluator.stats();

        let n_base = frame.n_cols();
        let subgroups: Vec<ChunkedSubgroup> = (0..n_base)
            .map(|j| {
                Ok(ChunkedSubgroup {
                    origin_col: j,
                    origin_name: frame.column_name(j)?.to_string(),
                    generated: Vec::new(),
                })
            })
            .collect::<Result<_>>()?;

        let mut search = ChunkedSearch {
            frame,
            n_base,
            subgroups,
            current_score: 0.0,
            last_reward: 0.0,
            policies: Vec::new(),
            rng,
            gate_rng,
            replay: ReplayBuffer::new(cfg.replay_capacity),
            fpe_gate: AdaptiveGate::new(256),
            phase: SearchPhase::Done,
            base_score: 0.0,
            best_score: 0.0,
            trace: Vec::new(),
            counter: EvalCounter::default(),
            epochs_since_improvement: 0,
            max_generated: 0,
            slices: 0,
            weighted: Vec::new(),
            generation_secs: 0.0,
            eval_secs: 0.0,
            total_secs: 0.0,
            cache_hits: 0,
            cache_misses: 0,
            evaluator,
            prefix: None,
        };

        let base_score = {
            let _eval_span = telemetry::span("engine.evaluate");
            let base_frame = search.selected_dataframe()?;
            timer.evaluation(|| search.evaluator.evaluate(&base_frame))?
        };
        counter.evaluate();

        let n_agents = search.subgroups.len();
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

        let cache_delta = search.evaluator.stats().since(&cache_start);
        search.current_score = base_score;
        search.policies = policies;
        search.phase = phase;
        search.base_score = base_score;
        search.best_score = base_score;
        search.trace = trace;
        search.counter = counter;
        search.max_generated = max_generated;
        search.generation_secs = timer.generation_secs();
        search.eval_secs = timer.eval_secs();
        search.total_secs = timer.total_secs();
        search.cache_hits = cache_delta.hits;
        search.cache_misses = cache_delta.misses;
        Ok(search)
    }

    /// Run one epoch-granular slice of a chunked search — the out-of-core
    /// mirror of [`Engine::step`].
    pub fn step_chunked(&self, search: &mut ChunkedSearch) -> Result<EpochReport> {
        let (stage, epoch) = match search.phase {
            SearchPhase::Done => return Ok(self.report_chunked(search, SearchStage::Stage2, 0)),
            SearchPhase::Stage1 { epoch } => (SearchStage::Stage1, epoch),
            SearchPhase::Seed => (SearchStage::Seed, 0),
            SearchPhase::Stage2 { epoch } => (SearchStage::Stage2, epoch),
        };
        let mut timer = PhaseTimer::new();
        timer.start();
        let cache_start = search.evaluator.stats();

        match stage {
            SearchStage::Stage1 => self.chunked_stage1(search, &mut timer, epoch)?,
            SearchStage::Seed => self.chunked_seed(search, &mut timer)?,
            SearchStage::Stage2 => self.chunked_stage2(search, &mut timer, epoch)?,
        }

        search.slices += 1;
        search.generation_secs += timer.generation_secs();
        search.eval_secs += timer.eval_secs();
        search.total_secs += timer.total_secs();
        let delta = search.evaluator.stats().since(&cache_start);
        search.cache_hits += delta.hits;
        search.cache_misses += delta.misses;
        Ok(self.report_chunked(search, stage, epoch))
    }

    fn report_chunked(
        &self,
        search: &ChunkedSearch,
        stage: SearchStage,
        epoch: usize,
    ) -> EpochReport {
        EpochReport {
            stage,
            epoch,
            epochs_completed: search.slices,
            base_score: search.base_score,
            best_score: search.best_score,
            best_features: search.weighted.clone(),
            generated: search.counter.generated,
            downstream_evals: search.counter.evaluated,
            elapsed_secs: search.total_secs,
            done: search.phase == SearchPhase::Done,
        }
    }

    /// Stage-1 epoch over chunks: candidates are generated and
    /// FPE-scored without ever being materialized.
    fn chunked_stage1(
        &self,
        s: &mut ChunkedSearch,
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
        let surrogate = SurrogateReward::new(s.base_score, cfg.thre);
        let total_epochs = cfg.stage1_epochs.max(1);
        let n_agents = s.subgroups.len();
        let chunk_rows = s.frame.chunk_rows();
        let n_rows = s.frame.n_rows();

        let mut epoch_span = telemetry::span("engine.stage1_epoch");
        epoch_span.field("epoch", epoch as f64);
        let epoch_frac = epoch as f64 / total_epochs as f64;
        for j in 0..n_agents {
            s.policies[j].reset();
            let mut episode: Vec<StepCache> = Vec::with_capacity(cfg.steps_per_epoch);
            let mut pseudo_scores = Vec::with_capacity(cfg.steps_per_epoch);
            for t in 0..cfg.steps_per_epoch {
                let x = s.embedding(j, t, cfg.steps_per_epoch, epoch_frac, cfg.max_order);
                let cache = timer.generation(|| s.policies[j].step(&x, &mut s.rng))?;
                let op = Operator::from_action(cache.action);
                let cand = timer.generation(|| {
                    generate_candidate_chunked(&s.frame, &s.subgroups[j], op, &mut s.rng)
                })?;
                episode.push(cache);
                s.counter.generate();
                let pseudo = if cand.degenerate || cand.order > cfg.max_order {
                    s.counter.drop_feature();
                    surrogate.pseudo_score(0.0)
                } else {
                    let p = timer.generation(|| score_candidate(fpe, &cand, chunk_rows, n_rows))?;
                    if p >= 0.5 {
                        telemetry::count("fpe.gate.accept", 1);
                        s.replay.push(p, cand);
                    } else {
                        telemetry::count("fpe.gate.reject", 1);
                        s.counter.drop_feature();
                    }
                    surrogate.pseudo_score(p)
                };
                pseudo_scores.push(pseudo);
            }
            let rets = {
                let _reward_span = telemetry::span("engine.reward");
                returns_from_scores(&pseudo_scores, s.base_score, &cfg.returns)
            };
            let steps: Vec<(StepCache, f64)> = episode.into_iter().zip(rets).collect();
            let _update_span = telemetry::span("engine.policy_update");
            timer.generation(|| s.policies[j].update(&steps))?;
        }
        s.phase = if epoch + 1 < cfg.stage1_epochs {
            SearchPhase::Stage1 { epoch: epoch + 1 }
        } else {
            SearchPhase::Seed
        };
        Ok(())
    }

    /// Seed stage 2: replay stage-1 positives against the downstream task.
    fn chunked_seed(&self, s: &mut ChunkedSearch, timer: &mut PhaseTimer) -> Result<()> {
        let cfg = &self.config;
        let n_agents = s.subgroups.len();
        let drain_budget = cfg.steps_per_epoch * n_agents;
        let drained = s.replay.drain_by_priority();
        for (_, cand) in drained.into_iter().take(drain_budget) {
            if s.n_generated() >= s.max_generated {
                break;
            }
            let score = s.evaluate_candidate(timer, &cand)?;
            s.counter.evaluate();
            if score > s.current_score {
                s.last_reward = score - s.current_score;
                s.current_score = score;
                s.best_score = s.best_score.max(score);
                s.weighted.push(WeightedFeature {
                    name: cand.name.clone(),
                    weight: s.last_reward,
                });
                let origin = s.feature_origin(&cand.name);
                s.accept(origin, cand)?;
            }
        }
        s.phase = if cfg.stage2_epochs > 0 {
            SearchPhase::Stage2 { epoch: 0 }
        } else {
            SearchPhase::Done
        };
        Ok(())
    }

    /// One stage-2 epoch over chunks.
    fn chunked_stage2(
        &self,
        s: &mut ChunkedSearch,
        timer: &mut PhaseTimer,
        epoch: usize,
    ) -> Result<()> {
        let cfg = &self.config;
        let n_agents = s.subgroups.len();
        let chunk_rows = s.frame.chunk_rows();
        let n_rows = s.frame.n_rows();
        let mut gate_scratch = Vec::new();

        let mut epoch_span = telemetry::span("engine.stage2_epoch");
        epoch_span.field("epoch", epoch as f64);
        let epoch_frac = epoch as f64 / cfg.stage2_epochs.max(1) as f64;
        for j in 0..n_agents {
            s.policies[j].reset();
            let episode_start_score = s.current_score;
            let mut episode: Vec<StepCache> = Vec::with_capacity(cfg.steps_per_epoch);
            let mut score_trace = Vec::with_capacity(cfg.steps_per_epoch);
            for t in 0..cfg.steps_per_epoch {
                let x = s.embedding(j, t, cfg.steps_per_epoch, epoch_frac, cfg.max_order);
                let cache = timer.generation(|| s.policies[j].step(&x, &mut s.rng))?;
                let op = Operator::from_action(cache.action);
                let cand = timer.generation(|| {
                    generate_candidate_chunked(&s.frame, &s.subgroups[j], op, &mut s.rng)
                })?;
                episode.push(cache);
                s.counter.generate();

                let structurally_ok = !cand.degenerate
                    && cand.order <= cfg.max_order
                    && s.n_generated() < s.max_generated;
                let passes_gate = structurally_ok
                    && match &self.gate {
                        Gate::Fpe(fpe) => {
                            let p = timer
                                .generation(|| score_candidate(fpe, &cand, chunk_rows, n_rows))?;
                            let pass = s.fpe_gate.observe_and_pass(p, &mut gate_scratch);
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
                        Gate::RandomDrop { rate } => !s.gate_rng.gen_bool(*rate),
                        Gate::None => true,
                    };

                if !passes_gate {
                    s.counter.drop_feature();
                    score_trace.push(s.current_score);
                    continue;
                }

                let score = s.evaluate_candidate(timer, &cand)?;
                s.counter.evaluate();
                s.last_reward = score - s.current_score;
                if score > s.current_score {
                    s.current_score = score;
                    s.best_score = s.best_score.max(score);
                    s.weighted.push(WeightedFeature {
                        name: cand.name.clone(),
                        weight: s.last_reward,
                    });
                    s.accept(j, cand)?;
                }
                score_trace.push(score.max(s.current_score));
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
            timer.generation(|| s.policies[j].update(&steps))?;
        }

        epoch_span.field("best_score", s.best_score);
        let improved = s
            .trace
            .last()
            .is_none_or(|last| s.best_score > last.score + f64::EPSILON);
        s.trace.push(EpochPoint {
            epoch: epoch + 1,
            score: s.best_score,
            downstream_evals: s.counter.evaluated,
            elapsed_secs: s.total_secs + timer.total_secs(),
        });
        if improved {
            s.epochs_since_improvement = 0;
        } else {
            s.epochs_since_improvement += 1;
        }
        let stopped_early = cfg
            .early_stop_patience
            .is_some_and(|patience| s.epochs_since_improvement >= patience);
        s.phase = if stopped_early || epoch + 1 >= cfg.stage2_epochs {
            SearchPhase::Done
        } else {
            SearchPhase::Stage2 { epoch: epoch + 1 }
        };
        Ok(())
    }

    /// Package the chunked search's best-so-far result. The engineered
    /// frame comes back as a [`ChunkedFrame`] view (no re-encoding) with
    /// columns in the flat path's selected order: base columns, then
    /// accepted features by subgroup.
    pub fn finish_chunked(&self, search: &ChunkedSearch) -> Result<(RunResult, ChunkedFrame)> {
        let order: Vec<usize> = (0..search.n_base)
            .chain(
                search
                    .subgroups
                    .iter()
                    .flat_map(|s| s.generated.iter().map(|g| g.col)),
            )
            .collect();
        let engineered = search.frame.select_columns(&order)?;
        let selected: Vec<String> = search
            .subgroups
            .iter()
            .flat_map(|s| s.generated.iter().map(|g| g.name.clone()))
            .collect();
        let result = RunResult {
            method: self.method_name.clone(),
            dataset: search.frame.name.clone(),
            base_score: search.base_score,
            best_score: search.best_score,
            trace: search.trace.clone(),
            generated_features: search.counter.generated,
            downstream_evals: search.counter.evaluated,
            selected,
            generation_secs: search.generation_secs,
            eval_secs: search.eval_secs,
            total_secs: search.total_secs,
            cache_hits: search.cache_hits,
            cache_misses: search.cache_misses,
        };
        Ok((result, engineered))
    }

    /// Run the method on an out-of-core frame — the chunked counterpart
    /// of [`Engine::run_full`], bit-identical to it on the materialized
    /// frame. Takes the frame by value (it is sanitized in place and
    /// grows the accepted columns); the engineered frame view is
    /// returned alongside the result.
    pub fn run_chunked(&self, frame: ChunkedFrame) -> Result<(RunResult, ChunkedFrame)> {
        let mut run_span = telemetry::span("engine.run");
        let mut search = self.start_chunked(frame)?;
        while !search.is_done() {
            self.step_chunked(&mut search)?;
        }
        run_span.field("generated", search.features_generated() as f64);
        run_span.field("downstream_evals", search.downstream_evals() as f64);
        run_span.field("best_score", search.best_score());
        self.finish_chunked(&search)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EafeConfig;
    use crate::fpe::{search as fpe_search, FpeSearchSpace, RawLabels};
    use minhash::HashFamily;
    use tabular::registry::public_corpus;
    use tabular::{ChunkOptions, FrameBudget, InMemoryStore, MmapStore, SynthSpec, Task};

    fn fast_config() -> EafeConfig {
        EafeConfig::fast()
    }

    fn target_frame() -> DataFrame {
        SynthSpec::new("chunked-test", 150, 5, Task::Classification)
            .with_seed(5)
            .generate()
            .unwrap()
    }

    fn chunk(frame: &DataFrame, chunk_rows: usize) -> ChunkedFrame {
        ChunkedFrame::from_dataframe(
            frame,
            ChunkOptions::default().with_chunk_rows(chunk_rows),
            Box::new(InMemoryStore::new()),
        )
        .unwrap()
    }

    fn assert_parity(engine: &Engine, frame: &DataFrame, cf: ChunkedFrame) {
        let (flat_res, flat_eng) = engine.run_full(frame).unwrap();
        let (res, eng) = engine.run_chunked(cf).unwrap();
        assert_eq!(flat_res.base_score.to_bits(), res.base_score.to_bits());
        assert_eq!(flat_res.best_score.to_bits(), res.best_score.to_bits());
        assert_eq!(flat_res.downstream_evals, res.downstream_evals);
        assert_eq!(flat_res.generated_features, res.generated_features);
        assert_eq!(flat_res.selected, res.selected);
        // Keyed chunked probes address the very entries the flat ones do.
        assert_eq!(
            (flat_res.cache_hits, flat_res.cache_misses),
            (res.cache_hits, res.cache_misses)
        );
        assert_eq!(flat_res.trace.len(), res.trace.len());
        for (a, b) in flat_res.trace.iter().zip(&res.trace) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        let eng_df = eng.to_dataframe().unwrap();
        assert_eq!(flat_eng.n_cols(), eng_df.n_cols());
        for (ca, cb) in flat_eng.columns().iter().zip(eng_df.columns()) {
            assert_eq!(ca.name, cb.name);
            assert_eq!(ca.values.len(), cb.values.len());
            for (x, y) in ca.values.iter().zip(&cb.values) {
                assert_eq!(x.to_bits(), y.to_bits(), "column {}", ca.name);
            }
        }
    }

    #[test]
    fn nfs_chunked_matches_flat_bitwise() {
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        // Multi-chunk and single-chunk layouts.
        assert_parity(&engine, &frame, chunk(&frame, 32));
        assert_parity(&engine, &frame, chunk(&frame, 1024));
    }

    #[test]
    fn random_dropout_chunked_matches_flat_bitwise() {
        let frame = target_frame();
        let engine = Engine::e_afe_d(fast_config(), 0.5);
        assert_parity(&engine, &frame, chunk(&frame, 64));
    }

    #[test]
    fn two_stage_e_afe_chunked_matches_flat_bitwise() {
        // Exercises stage-1 streamed FPE scoring, the replay seeding, and
        // the stage-2 adaptive gate — all against the flat reference.
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
        let fpe = fpe_search(&space, &train, &val).unwrap().model;
        let frame = target_frame();
        let engine = Engine::e_afe(fast_config(), fpe);
        assert_parity(&engine, &frame, chunk(&frame, 48));
    }

    #[test]
    fn tight_budget_spills_but_results_are_identical() {
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        let cf = ChunkedFrame::from_dataframe(
            &frame,
            ChunkOptions::default()
                .with_chunk_rows(16)
                // A few hundred bytes: only a couple of chunks stay resident.
                .with_budget(FrameBudget::from_bytes(512)),
            Box::new(InMemoryStore::new()),
        )
        .unwrap();
        let (res, eng) = engine.run_chunked(cf).unwrap();
        assert!(
            eng.stats().chunks_spilled > 0,
            "budget should force spills: {:?}",
            eng.stats()
        );
        let flat = engine.run(&frame).unwrap();
        assert_eq!(flat.best_score.to_bits(), res.best_score.to_bits());
        assert_eq!(flat.selected, res.selected);
    }

    #[test]
    fn mmap_store_matches_memory_store() {
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        let dir = std::env::temp_dir().join(format!("eafe-chunked-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("search.eafc");
        let cf = ChunkedFrame::from_dataframe(
            &frame,
            ChunkOptions::default()
                .with_chunk_rows(16)
                .with_budget(FrameBudget::from_bytes(512)),
            Box::new(MmapStore::create(&path).unwrap()),
        )
        .unwrap();
        let (res, _) = engine.run_chunked(cf).unwrap();
        let mem = engine
            .run_chunked(
                ChunkedFrame::from_dataframe(
                    &frame,
                    ChunkOptions::default().with_chunk_rows(16),
                    Box::new(InMemoryStore::new()),
                )
                .unwrap(),
            )
            .unwrap()
            .0;
        assert_eq!(mem.best_score.to_bits(), res.best_score.to_bits());
        assert_eq!(mem.selected, res.selected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stepped_chunked_run_is_anytime() {
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        let mut search = engine.start_chunked(chunk(&frame, 64)).unwrap();
        let mut last_best = search.base_score();
        while !search.is_done() {
            let r = engine.step_chunked(&mut search).unwrap();
            assert!(r.best_score >= last_best, "anytime best must be monotone");
            last_best = r.best_score;
        }
        let (result, _) = engine.finish_chunked(&search).unwrap();
        assert!(result.best_score >= result.base_score);
        assert_eq!(
            result.selected.len(),
            search.best_features().len(),
            "weighted set mirrors accepted features"
        );
    }
}
