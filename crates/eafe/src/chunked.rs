//! Out-of-core column storage for the search driver: [`ChunkedStore`]
//! over a [`ChunkedFrame`], behind [`Engine::run_chunked`] and the stepped
//! [`Engine::start_chunked`] / [`Engine::step_chunked`] /
//! [`Engine::finish_chunked`].
//!
//! The flat store keeps every subgroup member — originals and accepted
//! candidates alike — as an in-RAM `Vec<f64>`, and every *rejected*
//! candidate is also fully materialized just to be FPE-scored. At 10M+
//! rows that working set is what runs out of memory first. This store
//! keeps all column data as compressed chunks governed by the frame's
//! [`tabular::FrameBudget`], and carries out its four duties (see
//! `store.rs`) on chunks:
//!
//! - candidates are generated chunk-at-a-time
//!   ([`crate::Operator::apply_chunk`] plus the
//!   [`crate::Operator::column_bounds`] prepass for min-max
//!   normalisation), encoded per chunk, and never exist as a flat column;
//! - FPE gate scoring sketches those chunks in place (a
//!   [`minhash::WeightBounds`] pass, then
//!   [`minhash::SampleCompressor::signature_indexed`] and
//!   `compress_normalized_with_signature` over a chunk-backed
//!   [`minhash::RowSource`] — the flat column's code over another row
//!   source), so stage-1 — which by design never touches the downstream
//!   task — runs without materializing anything;
//! - chunk encoding fans out over the [`runtime::WorkerPool`] with
//!   results merged in chunk-index order, so 1-thread ≡ N-thread;
//! - columns are handed over chunk by chunk: the driver digests and bins
//!   a member or a candidate from its decoded chunks, so a forest's
//!   evaluation never materializes a flat column (the bin builder's sort
//!   buffer is the one flat copy). Only a model kind that reads raw
//!   values gets the selected frame plus the candidate, materialized on
//!   its miss;
//! - an accepted candidate's chunks move into the frame, and the
//!   engineered frame is a column-selection view of it;
//! - a candidate outlives no slice: the replay buffer holds lineages, so
//!   no column stays resident outside the frame's budget across stage 1.
//!
//! The per-chunk transforms/folds replay the flat store's exact
//! expression sequences and the bins are the same bytes, so a chunked
//! run is **bit-identical** to [`Engine::run_full`] on the materialized
//! frame: same RNG streams, same candidates, same scores, same accepted
//! features. The parity tests below pin that contract for every
//! gate/stage combination, slice by slice.
//!
//! The loop itself is [`crate::step`]'s; this file is only the store. It
//! does not go through the signature cache (chunk-backed sketches bypass
//! `runtime::sigcache` — scores are bitwise unchanged, the cache only
//! ever short-circuits recomputation).
//!
//! A chunked search also has no serde form: it lives and dies with its
//! frame handle.

use crate::engine::Engine;
use crate::error::Result;
use crate::fpe::FeatureRepr;
use crate::fpe::FpeModel;
use crate::report::{EpochReport, RunResult};
use crate::step::ChunkedSearch;
use crate::store::{ColumnStore, Lineage};
use minhash::{RowSource, WeightBounds};
use runtime::WorkerPool;
use tabular::{ChunkEncoding, ChunkedFrame, Column, DataFrame, Label};

/// A generated candidate held as compressed chunks — the chunked
/// counterpart of the flat store's candidate, which never exists as a
/// flat `Vec<f64>`.
#[derive(Debug)]
pub struct ChunkedCandidate {
    /// What it is made of.
    lineage: Lineage,
    /// Expression name, derived from the lineage.
    name: String,
    /// Composition depth.
    order: usize,
    /// Per-chunk encodings, in chunk-index order.
    chunks: Vec<ChunkEncoding>,
    /// Constant/non-finite — same verdict as
    /// `GeneratedFeature::is_degenerate` on the materialized column.
    degenerate: bool,
}

/// A subgroup member: where its chunks live in the frame.
#[derive(Debug, Clone)]
struct MemberRef {
    /// Column index in the search's [`ChunkedFrame`].
    col: usize,
    /// Composition depth (0 for the original feature).
    order: usize,
    /// Expression name.
    name: String,
}

/// The out-of-core `ColumnStore`: subgroups reference columns of a
/// [`ChunkedFrame`] instead of owning flat copies.
pub struct ChunkedStore {
    /// Sanitized base frame; accepted candidates are appended as columns.
    frame: ChunkedFrame,
    /// Per agent: the original feature, then its accepted generated
    /// features in acceptance order.
    subgroups: Vec<Vec<MemberRef>>,
}

impl ChunkedStore {
    /// One subgroup per column of `frame`, which must be sanitized.
    fn new(frame: ChunkedFrame) -> Result<Self> {
        let subgroups = (0..frame.n_cols())
            .map(|col| {
                Ok(vec![MemberRef {
                    col,
                    order: 0,
                    name: frame.column_name(col)?.to_string(),
                }])
            })
            .collect::<Result<_>>()?;
        Ok(ChunkedStore { frame, subgroups })
    }

    pub(crate) fn frame(&self) -> &ChunkedFrame {
        &self.frame
    }

    /// Original features plus every accepted one: a [`ChunkedFrame`] view
    /// (no re-encoding) with columns in the flat store's selected order.
    fn engineered(&self) -> Result<ChunkedFrame> {
        let order: Vec<usize> = self
            .selected()
            .map(|(j, i)| self.subgroups[j][i].col)
            .collect();
        Ok(self.frame.select_columns(&order)?)
    }

    /// A candidate's chunks as the MinHash kernel's row source.
    fn rows<'a>(&self, cand: &'a ChunkedCandidate) -> CandidateRows<'a> {
        CandidateRows {
            chunks: &cand.chunks,
            chunk_rows: self.frame.chunk_rows(),
            n_rows: self.frame.n_rows(),
        }
    }
}

impl ColumnStore for ChunkedStore {
    type Candidate = ChunkedCandidate;

    fn dataset(&self) -> &str {
        &self.frame.name
    }

    fn n_rows(&self) -> usize {
        self.frame.n_rows()
    }

    fn n_agents(&self) -> usize {
        self.subgroups.len()
    }

    fn members(&self, agent: usize) -> usize {
        self.subgroups[agent].len()
    }

    fn member(&self, agent: usize, idx: usize) -> (&str, usize) {
        let m = &self.subgroups[agent][idx];
        (&m.name, m.order)
    }

    fn label(&self) -> &Label {
        self.frame.label()
    }

    fn generate(&self, lineage: Lineage) -> Result<ChunkedCandidate> {
        generate_chunked(self, lineage)
    }

    fn lineage(candidate: &ChunkedCandidate) -> Lineage {
        candidate.lineage
    }

    fn name(candidate: &ChunkedCandidate) -> &str {
        &candidate.name
    }

    fn order(candidate: &ChunkedCandidate) -> usize {
        candidate.order
    }

    fn is_degenerate(candidate: &ChunkedCandidate) -> bool {
        candidate.degenerate
    }

    /// The MinHash representation works off the chunks (a weight-bounds
    /// pass, then the compressor's indexed sketch and gather) and is
    /// bit-identical to `FpeModel::score_feature` on the materialized
    /// column; other representations need the full flat values and fall
    /// back to a transient pooled decode.
    fn fpe_score(&self, fpe: &FpeModel, candidate: &ChunkedCandidate) -> Result<f64> {
        match fpe.repr() {
            FeatureRepr::MinHash(c) => {
                let rows = self.rows(candidate);
                let mut bounds = WeightBounds::new();
                rows.for_each_run(|run| bounds.absorb(run));
                let sig = c.signature_indexed(bounds, &rows)?;
                fpe.score_compressed(c.compress_normalized_with_signature(&rows, &sig))
            }
            _ => {
                let mut flat = runtime::scratch_f64_with_capacity(self.frame.n_rows());
                for enc in &candidate.chunks {
                    enc.fold_values((), |(), v| flat.push(v));
                }
                fpe.score_feature(&flat)
            }
        }
    }

    /// Decoded chunk by chunk into pooled scratch.
    fn member_runs(&self, agent: usize, idx: usize, run: &mut dyn FnMut(&[f64])) -> Result<()> {
        let mut buf = runtime::scratch_f64_with_capacity(self.frame.chunk_rows());
        let col = self.subgroups[agent][idx].col;
        Ok(self
            .frame
            .for_each_chunk(col, &mut buf, |_, _, values| run(values))?)
    }

    fn candidate_runs(
        &self,
        candidate: &ChunkedCandidate,
        run: &mut dyn FnMut(&[f64]),
    ) -> Result<()> {
        self.rows(candidate).for_each_run(run);
        Ok(())
    }

    /// Materialized transiently, in the flat store's column order and with
    /// its names, so the evaluator's content-addressed cache keys coincide.
    fn raw_frame(&self, extra: Option<&ChunkedCandidate>) -> Result<DataFrame> {
        let mut frame = self.engineered()?.to_dataframe()?;
        if let Some(cand) = extra {
            let mut values = Vec::with_capacity(self.frame.n_rows());
            for enc in &cand.chunks {
                enc.fold_values((), |(), v| values.push(v));
            }
            frame.push_column(Column::new(cand.name.clone(), values))?;
        }
        Ok(frame)
    }

    /// The candidate's chunks move into the budgeted frame (and from there
    /// spill to the store under memory pressure).
    fn accept(&mut self, candidate: ChunkedCandidate) -> Result<()> {
        let col = self
            .frame
            .push_column_chunks(&candidate.name, candidate.chunks)?;
        self.subgroups[candidate.lineage.agent].push(MemberRef {
            col,
            order: candidate.order,
            name: candidate.name,
        });
        Ok(())
    }
}

/// The candidate `lineage` describes, its operator applied to the two
/// parent columns chunk-at-a-time: decode each chunk into pooled scratch,
/// transform with [`crate::Operator::apply_chunk`], and re-encode — in
/// parallel across chunks when the pool is active, merged in chunk-index
/// order. Values are bit-identical to [`crate::Operator::apply`] on the
/// materialized parents.
fn generate_chunked(store: &ChunkedStore, lineage: Lineage) -> Result<ChunkedCandidate> {
    let (frame, op, sub) = (&store.frame, lineage.op, &store.subgroups[lineage.agent]);
    let (a_col, b_col) = (sub[lineage.a].col, sub[lineage.b].col);
    let (name, order) = store.describe(lineage);
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
    // Same verdict as `is_degenerate`: outputs are always finite
    // (clamped), so only the `is_constant(1e-12)` arm can fire. min/max
    // are order-insensitive over finite values up to the sign of zero,
    // which cannot change the `hi - lo < eps` verdict.
    let degenerate = !(hi - lo).is_finite() || hi - lo < 1e-12;
    Ok(ChunkedCandidate {
        lineage,
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

impl Engine {
    /// Open a chunked search: sanitize the frame in place (chunk by
    /// chunk), then everything [`Engine::start`] does. Takes the frame by
    /// value: the search owns it, appends accepted columns to it, and
    /// hands it back (reordered) from [`Engine::finish_chunked`].
    pub fn start_chunked(&self, mut frame: ChunkedFrame) -> Result<ChunkedSearch> {
        frame.sanitize()?;
        self.open(ChunkedStore::new(frame)?)
    }

    /// [`Engine::step`] on a chunked search.
    pub fn step_chunked(&self, search: &mut ChunkedSearch) -> Result<EpochReport> {
        self.step(search)
    }

    /// [`Engine::finish`] on a chunked search. The engineered frame comes
    /// back as a [`ChunkedFrame`] view (no re-encoding) with columns in
    /// the flat path's selected order: base columns, then accepted
    /// features by subgroup.
    pub fn finish_chunked(&self, search: &ChunkedSearch) -> Result<(RunResult, ChunkedFrame)> {
        Ok((self.result(search), search.store().engineered()?))
    }

    /// Run the method on an out-of-core frame — the chunked counterpart
    /// of [`Engine::run_full`], bit-identical to it on the materialized
    /// frame. Takes the frame by value (it is sanitized in place and
    /// grows the accepted columns); the engineered frame view is
    /// returned alongside the result.
    pub fn run_chunked(&self, frame: ChunkedFrame) -> Result<(RunResult, ChunkedFrame)> {
        self.finish_chunked(&self.drive(|| self.start_chunked(frame))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CachedEvaluator, EafeConfig};
    use crate::fpe::{search as fpe_search, FpeSearchSpace, LabeledFeature, RawLabels};
    use crate::step::probe;
    use crate::{EngineState, GeneratedFeature, Operator};
    use minhash::{HashFamily, SampleCompressor};
    use tabular::public_corpus;
    use tabular::{ChunkOptions, FrameBudget, InMemoryStore, Label, MmapStore, SynthSpec, Task};

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
        // Both stores under the one driver, slice by slice.
        let mut flat = engine.start(frame).unwrap();
        let mut chunked = engine.start_chunked(cf).unwrap();
        assert_eq!(flat.phase(), chunked.phase());
        while !flat.is_done() {
            let a = engine.step(&mut flat).unwrap();
            let b = engine.step_chunked(&mut chunked).unwrap();
            assert_eq!((a.stage, a.epoch), (b.stage, b.epoch));
            let slice = format!("{:?} epoch {}", a.stage, a.epoch);
            assert_eq!(a.epochs_completed, b.epochs_completed, "{slice}");
            assert_eq!(a.best_score.to_bits(), b.best_score.to_bits(), "{slice}");
            assert_eq!(a.best_features.len(), b.best_features.len(), "{slice}");
            for (x, y) in a.best_features.iter().zip(&b.best_features) {
                assert_eq!(x.name, y.name, "{slice}");
                assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "{slice}");
            }
            assert_eq!(a.generated, b.generated, "{slice}");
            assert_eq!(a.downstream_evals, b.downstream_evals, "{slice}");
            assert_eq!(a.done, b.done, "{slice}");
            assert_eq!(flat.phase(), chunked.phase(), "{slice}");
            assert_eq!(flat.epochs_completed(), chunked.epochs_completed());
            assert_eq!(flat.trace().len(), chunked.trace().len(), "{slice}");
            assert!(chunked.elapsed_secs() >= 0.0);
        }
        assert!(chunked.is_done());
        let (flat_res, flat_eng) = engine.finish(&flat).unwrap();
        let (res, eng) = engine.finish_chunked(&chunked).unwrap();
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

    /// The driver's probe over the flat store, over the chunked store at
    /// every chunk size and `cache_key` of the materialised frame address
    /// one cache entry — observed through a shared cache, so it holds
    /// where the probe's debug assertion is compiled out — and the score
    /// the probe computes from either store's bins is
    /// `learners::Evaluator::evaluate` of that frame, to the bit.
    #[test]
    fn flat_chunked_and_whole_frame_keys_agree() {
        let accepted = [
            (0, Operator::Sqrt, 0, 0),
            (1, Operator::Add, 0, 0),
            (0, Operator::Multiply, 0, 1),
        ];
        // Accept the leading `accepted` into a store, then propose the
        // candidate both stores are probed with.
        fn select<B: ColumnStore>(
            store: &mut B,
            accepted: &[(usize, Operator, usize, usize)],
        ) -> B::Candidate {
            for &(agent, op, a, b) in accepted {
                let feature = store.generate(Lineage::new(agent, op, a, b)).unwrap();
                store.accept(feature).unwrap();
            }
            store
                .generate(Lineage::new(2, Operator::Log, 0, 0))
                .unwrap()
        }
        for task in [Task::Classification, Task::Regression] {
            let frame = SynthSpec::new("key-parity", 60, 3, task)
                .with_seed(11)
                .generate()
                .unwrap();
            for extras in 0..=accepted.len() {
                let evaluator = CachedEvaluator::new(fast_config().evaluator);
                let mut flat = EngineState::new(frame.clone());
                let candidate = select(&mut flat, &accepted[..extras]);
                let score = probe(&flat, &evaluator, &mut None, Some(&candidate)).unwrap();
                let whole = flat
                    .raw_frame(None)
                    .unwrap()
                    .with_extra_columns(std::slice::from_ref(&candidate.feature.column))
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
                    let mut chunked = ChunkedStore::new(chunk(&frame, chunk_rows)).unwrap();
                    let candidate = select(&mut chunked, &accepted[..extras]);
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

    /// A chunked candidate's `degenerate` flag is the flat verdict on its
    /// materialised column, for every operator over constant, near-constant
    /// (spans around the `1e-12` cut), signed-zero and ordinary parents.
    #[test]
    fn chunked_degenerate_flag_matches_the_flat_verdict() {
        let n = 40;
        let ramp = |step: f64| (0..n).map(|i| 1.0 + i as f64 * step).collect::<Vec<f64>>();
        let columns = vec![
            Column::new("ordinary", ramp(0.37)),
            Column::new("constant", vec![3.0; n]),
            Column::new("below_cut", ramp(1e-15)),
            Column::new("at_cut", ramp(1e-12 / (n - 1) as f64)),
            Column::new("above_cut", ramp(1e-13)),
            Column::new(
                "zeros",
                (0..n)
                    .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                    .collect(),
            ),
            Column::new(
                "tiny",
                (0..n).map(|i| f64::from_bits(1 + i as u64)).collect(),
            ),
        ];
        let n_agents = columns.len();
        let frame = DataFrame::new(
            "degenerate",
            columns,
            Label::Class {
                y: (0..n).map(|i| i % 2).collect(),
                n_classes: 2,
            },
        )
        .unwrap();
        let (mut degenerate, mut sound) = (0, 0);
        for chunk_rows in [1, 7, n] {
            let mut store = ChunkedStore::new(chunk(&frame, chunk_rows)).unwrap();
            // A second member per subgroup, so binary operators also see
            // two different parents.
            for agent in 0..n_agents {
                let member = store
                    .generate(Lineage::new(agent, Operator::Sqrt, 0, 0))
                    .unwrap();
                store.accept(member).unwrap();
            }
            for agent in 0..n_agents {
                for op in Operator::ALL {
                    for (a, b) in [(0, 0), (0, 1), (1, 0)] {
                        let candidate = store.generate(Lineage::new(agent, op, a, b)).unwrap();
                        let mut values = Vec::with_capacity(n);
                        for enc in &candidate.chunks {
                            enc.fold_values((), |(), v| values.push(v));
                        }
                        let flat = GeneratedFeature {
                            column: Column::new(candidate.name.clone(), values),
                            order: candidate.order,
                        };
                        assert_eq!(
                            ChunkedStore::is_degenerate(&candidate),
                            flat.is_degenerate(),
                            "{} at chunk_rows {chunk_rows}",
                            candidate.name
                        );
                        if flat.is_degenerate() {
                            degenerate += 1;
                        } else {
                            sound += 1;
                        }
                    }
                }
            }
        }
        assert!(degenerate > 50 && sound > 50, "{degenerate} / {sound}");
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

    /// An FPE model over `family` whose classifier is fitted to a
    /// synthetic corpus: its probabilities are arbitrary but fixed, which
    /// is all bit-equality needs.
    fn fpe_over(family: HashFamily, d: usize) -> FpeModel {
        let train: Vec<LabeledFeature> = (0..40)
            .map(|i| LabeledFeature {
                compressed: (0..d)
                    .map(|j| ((i * d + j) as f64 * 0.618).sin() + (i % 2 * (j % 3)) as f64)
                    .collect(),
                label: i % 2,
                score_gain: 0.0,
            })
            .collect();
        let compressor = SampleCompressor::new(family, d, 0xF1A7).unwrap();
        FpeModel::train(compressor, &train, &[], 0.01, 3).unwrap()
    }

    /// The flat and the chunked store hand the FPE model the same input —
    /// one compressor function over two row sources — for every hash
    /// family, at every chunk size, on a heavy-tailed candidate (the dense
    /// scan) as on ordinary ones (the bound-ordered visit).
    #[test]
    fn flat_and_chunked_fpe_probabilities_are_bit_equal_for_every_family() {
        let n = 1000;
        let wave = (0..n).map(|i| (i as f64 * 0.37).sin() * 20.0 - 3.0);
        // Strictly positive with one row near zero: its reciprocal weighs
        // the floor in every row but one, a one-sided heavy tail that
        // outlives the visit's 256-id prefix.
        let near_zero = (0..n).map(|i| match i {
            617 => 1e-7,
            _ => 1.0 + (i as f64 * 0.11).cos().abs(),
        });
        let frame = DataFrame::new(
            "fpe-parity",
            vec![
                Column::new("wave", wave.collect()),
                Column::new("near_zero", near_zero.collect()),
            ],
            Label::Class {
                y: (0..n).map(|i| i % 2).collect(),
                n_classes: 2,
            },
        )
        .unwrap();
        let candidates = [
            (0, Operator::Sqrt),
            (0, Operator::MinMaxNorm),
            (1, Operator::Log),
            (1, Operator::Reciprocal),
        ];
        for family in HashFamily::ALL {
            let fpe = fpe_over(family, 48);
            for chunk_rows in [1, 7, 4096] {
                let store = ChunkedStore::new(chunk(&frame, chunk_rows)).unwrap();
                for (agent, op) in candidates {
                    let candidate = store.generate(Lineage::new(agent, op, 0, 0)).unwrap();
                    let mut flat = Vec::with_capacity(n);
                    for enc in &candidate.chunks {
                        enc.fold_values((), |(), v| flat.push(v));
                    }
                    let expected = fpe.score_feature(&flat).unwrap();
                    let chunked = store.fpe_score(&fpe, &candidate).unwrap();
                    assert_eq!(
                        chunked.to_bits(),
                        expected.to_bits(),
                        "{family:?} {} at chunk_rows {chunk_rows}",
                        candidate.name
                    );
                }
            }
        }
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
