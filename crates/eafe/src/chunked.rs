//! Out-of-core column storage for the search driver: a [`ChunkedFrame`]
//! as a column store, behind [`Engine::run_chunked`] and the stepped
//! [`Engine::start_chunked`] / [`Engine::step_chunked`] /
//! [`Engine::finish_chunked`].
//!
//! The flat store keeps every column as an in-RAM `Vec<f64>` and
//! materializes every candidate, rejected ones included; at 10M+ rows
//! that working set runs out of memory first. This store keeps all column
//! data as compressed chunks under the frame's [`tabular::FrameBudget`];
//! a column's id is its index in the frame, which appends each accepted
//! column in acceptance order. Its duties (see `store.rs`), on chunks:
//!
//! - a candidate is generated chunk-at-a-time
//!   ([`crate::Operator::apply_chunk`], after the
//!   [`crate::Operator::column_bounds`] prepass for min-max
//!   normalisation) and encoded per chunk, fanned out over the
//!   [`runtime::WorkerPool`] and merged in chunk-index order, so
//!   1-thread ≡ N-thread; it never exists as a flat column;
//! - FPE scoring sketches those chunks in place (a
//!   [`minhash::WeightBounds`] pass, then
//!   [`minhash::SampleCompressor::signature_indexed`] and
//!   `compress_normalized_with_signature` over a chunk-backed
//!   [`minhash::RowSource`]), so stage 1 materializes nothing; it skips
//!   `runtime::sigcache`, which only ever short-circuits recomputation;
//! - columns are handed over chunk by chunk, so a forest's evaluation
//!   never materializes a flat column (the bin builder's sort buffer is
//!   the one flat copy); only a model kind that reads raw values gets a
//!   frame, materialized on its miss;
//! - an accepted candidate's chunks move into the frame, whose
//!   column-selection view in the plan's order is the engineered frame;
//!   any other candidate outlives no slice (the replay buffer holds
//!   lineages), so no column stays resident outside the budget.
//!
//! The per-chunk transforms and folds replay the flat store's exact
//! expression sequences and the bins are the same bytes, so a chunked run
//! is **bit-identical** to [`Engine::run_full`] on the materialized frame.
//! The parity tests below pin that contract for every gate/stage
//! combination, slice by slice. A chunked search has no serde form: it
//! lives and dies with its frame handle.

use crate::engine::Engine;
use crate::error::Result;
use crate::fpe::FeatureRepr;
use crate::fpe::FpeModel;
use crate::ops::Operator;
use crate::report::{EpochReport, RunResult};
use crate::step::ChunkedSearch;
use crate::store::{Plan, SearchStore};
use minhash::{RowSource, WeightBounds};
use runtime::WorkerPool;
use tabular::{ChunkEncoding, ChunkedFrame, Column, DataFrame, Label};

/// A candidate's values held as compressed chunks — the chunked
/// counterpart of the flat store's candidate column — which never exist
/// as a flat `Vec<f64>`.
#[derive(Debug)]
pub struct ChunkedValues {
    /// Per-chunk encodings, in chunk-index order.
    chunks: Vec<ChunkEncoding>,
    /// Constant/non-finite — same verdict as
    /// `GeneratedFeature::is_degenerate` on the materialized column.
    degenerate: bool,
}

impl ChunkedValues {
    /// The chunks, of `frame`'s chunk size, as the MinHash kernel's row
    /// source.
    fn rows(&self, frame: &ChunkedFrame) -> CandidateRows<'_> {
        CandidateRows {
            chunks: &self.chunks,
            chunk_rows: frame.chunk_rows(),
            n_rows: frame.n_rows(),
        }
    }
}

/// The out-of-core `SearchStore` is the search's sanitized
/// [`ChunkedFrame`] itself, which appends the accepted columns.
impl SearchStore for ChunkedFrame {
    type Values = ChunkedValues;

    fn dataset(&self) -> &str {
        &self.name
    }

    fn n_rows(&self) -> usize {
        ChunkedFrame::n_rows(self)
    }

    fn label(&self) -> &Label {
        ChunkedFrame::label(self)
    }

    /// Chunk-at-a-time: decode each chunk into pooled scratch, transform
    /// with [`crate::Operator::apply_chunk`], and re-encode — in parallel
    /// across chunks when the pool is active, merged in chunk-index order.
    /// Values are bit-identical to [`crate::Operator::apply`] on the
    /// materialized parents.
    fn generate(&self, op: Operator, a_col: usize, b_col: usize) -> Result<ChunkedValues> {
        // Whole-column prepass for min-max normalisation: one sequential
        // row-order fold per accumulator, the exact `column_bounds` chains.
        let bounds = if op.needs_bounds() {
            Some(
                self.fold_column(a_col, (f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(v), hi.max(v))
                })?,
            )
        } else {
            None
        };

        let one = |k: usize| -> Result<(ChunkEncoding, f64, f64)> {
            let ea = self.chunk(a_col, k)?;
            let mut va = runtime::scratch_f64_with_capacity(ea.len());
            ea.decode_into(&mut va);
            let mut out = runtime::scratch_f64_with_capacity(va.len());
            if op.is_unary() {
                op.apply_chunk(&va, &[], bounds, &mut out);
            } else {
                let eb = self.chunk(b_col, k)?;
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

        let n_chunks = self.n_chunks();
        // Same shape as the binned-histogram gate: parallel encode only when
        // there are multiple chunks and enough rows to amortize dispatch.
        let parallel = runtime::global_threads() != 1 && n_chunks >= 2 && self.n_rows() >= 65_536;
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
        Ok(ChunkedValues { chunks, degenerate })
    }

    fn is_degenerate(candidate: &ChunkedValues) -> bool {
        candidate.degenerate
    }

    /// The MinHash representation works off the chunks (a weight-bounds
    /// pass, then the compressor's indexed sketch and gather) and is
    /// bit-identical to `FpeModel::score_feature` on the materialized
    /// column; other representations need the full flat values and fall
    /// back to a transient pooled decode.
    fn fpe_score(&self, fpe: &FpeModel, candidate: &ChunkedValues) -> Result<f64> {
        match fpe.repr() {
            FeatureRepr::MinHash(c) => {
                let rows = candidate.rows(self);
                let mut bounds = WeightBounds::new();
                rows.for_each_run(|run| bounds.absorb(run));
                let sig = c.signature_indexed(bounds, &rows)?;
                fpe.score_compressed(c.compress_normalized_with_signature(&rows, &sig))
            }
            _ => {
                let mut flat = runtime::scratch_f64_with_capacity(self.n_rows());
                for enc in &candidate.chunks {
                    enc.fold_values((), |(), v| flat.push(v));
                }
                fpe.score_feature(&flat)
            }
        }
    }

    /// Decoded chunk by chunk into pooled scratch.
    fn column_runs(&self, col: usize, run: &mut dyn FnMut(&[f64])) -> Result<()> {
        let mut buf = runtime::scratch_f64_with_capacity(self.chunk_rows());
        Ok(self.for_each_chunk(col, &mut buf, |_, _, values| run(values))?)
    }

    fn candidate_runs(&self, candidate: &ChunkedValues, run: &mut dyn FnMut(&[f64])) -> Result<()> {
        candidate.rows(self).for_each_run(run);
        Ok(())
    }

    /// Materialized transiently, with the frame's names, so the
    /// evaluator's content-addressed cache keys coincide with the flat
    /// store's.
    fn raw_frame(
        &self,
        cols: &[usize],
        extra: Option<(&str, &ChunkedValues)>,
    ) -> Result<DataFrame> {
        let mut frame = self.select_columns(cols)?.to_dataframe()?;
        if let Some((name, cand)) = extra {
            let mut values = Vec::with_capacity(self.n_rows());
            for enc in &cand.chunks {
                enc.fold_values((), |(), v| values.push(v));
            }
            frame.push_column(Column::new(name, values))?;
        }
        Ok(frame)
    }

    /// The candidate's chunks move into the budgeted frame (and from there
    /// spill to the store under memory pressure).
    fn accept(&mut self, name: &str, values: ChunkedValues) -> Result<()> {
        self.push_column_chunks(name, values.chunks)?;
        Ok(())
    }
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
        let plan = Plan::new(frame.columns().iter().map(|c| c.name.clone()));
        self.open(frame, plan)
    }

    /// [`Engine::step`] on a chunked search.
    pub fn step_chunked(&self, search: &mut ChunkedSearch) -> Result<EpochReport> {
        self.step(search)
    }

    /// [`Engine::finish`] on a chunked search. The engineered frame comes
    /// back as a [`ChunkedFrame`] view (no re-encoding) with columns in
    /// the plan's selection order: base columns, then accepted features by
    /// subgroup.
    pub fn finish_chunked(&self, search: &ChunkedSearch) -> Result<(RunResult, ChunkedFrame)> {
        let engineered = search.frame().select_columns(&search.selected_ids())?;
        Ok((self.result(search), engineered))
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
    use crate::config::EafeConfig;
    use crate::fpe::{search as fpe_search, FpeSearchSpace, LabeledFeature, RawLabels};
    use crate::EngineState;
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

    /// A chunked candidate's `degenerate` flag is the flat store's verdict
    /// on its materialised column, for every operator over constant,
    /// near-constant (spans around the `1e-12` cut), signed-zero and
    /// ordinary parents.
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
            let mut store = chunk(&frame, chunk_rows);
            // A second column per base column (id `n_agents + j`), so
            // binary operators also see two different parents.
            for col in 0..n_agents {
                let sqrt = store.generate(Operator::Sqrt, col, col).unwrap();
                store.accept(&format!("sqrt{col}"), sqrt).unwrap();
            }
            for col in 0..n_agents {
                let derived = n_agents + col;
                for op in Operator::ALL {
                    for (a, b) in [(col, col), (col, derived), (derived, col)] {
                        let candidate = store.generate(op, a, b).unwrap();
                        let mut values = Vec::with_capacity(n);
                        for enc in &candidate.chunks {
                            enc.fold_values((), |(), v| values.push(v));
                        }
                        let flat = EngineState::is_degenerate(&Column::new("flat", values));
                        assert_eq!(
                            ChunkedFrame::is_degenerate(&candidate),
                            flat,
                            "{op:?} of columns {a} and {b} at chunk_rows {chunk_rows}"
                        );
                        if flat {
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

    /// A later epoch accepts into an earlier subgroup, so the frame's
    /// column ids leave selection order; both stores still agree slice by
    /// slice and on the finished frame.
    #[test]
    fn out_of_subgroup_order_acceptances_chunked_match_flat_bitwise() {
        let frame = SynthSpec::new("chunked-test", 150, 5, Task::Classification)
            .with_seed(7)
            .generate()
            .unwrap();
        let engine = Engine::nfs(fast_config());
        let flat = engine.drive(|| engine.start(&frame)).unwrap();
        let ids = flat.selected_ids();
        assert!(ids.windows(2).any(|w| w[0] > w[1]), "{ids:?}");
        assert_parity(&engine, &frame, chunk(&frame, 32));
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
                let store = chunk(&frame, chunk_rows);
                for (col, op) in candidates {
                    let candidate = store.generate(op, col, col).unwrap();
                    let mut flat = Vec::with_capacity(n);
                    for enc in &candidate.chunks {
                        enc.fold_values((), |(), v| flat.push(v));
                    }
                    let expected = fpe.score_feature(&flat).unwrap();
                    let chunked = store.fpe_score(&fpe, &candidate).unwrap();
                    assert_eq!(
                        chunked.to_bits(),
                        expected.to_bits(),
                        "{family:?} {op:?} of column {col} at chunk_rows {chunk_rows}"
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
