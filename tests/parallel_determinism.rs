//! Determinism of the shared parallel evaluation runtime: a fixed-seed
//! E-AFE / NFS run must produce **bit-identical** scores whether the
//! runtime executes on one thread or many, and whether the score cache is
//! private or shared. The runtime guarantees this by deriving every
//! task's RNG seed from (root seed, stream, task index) instead of from
//! thread identity or scheduling order, and by returning `WorkerPool`
//! results in submission order.
//!
//! `runtime::set_global_threads` is process-global, so the single- vs
//! multi-threaded comparisons run sequentially inside one `#[test]` per
//! scenario rather than as separate tests.

use std::sync::{Arc, Mutex};

use eafe::{
    bootstrap_fpe, EafeConfig, Engine, FpeSearchSpace, RunResult, SearchPhase, SearchState,
};
use minhash::HashFamily;
use runtime::ScoreCache;
use tabular::{DataFrame, SynthSpec, Task};

/// Held by the one test that counts misses of the process-wide signature
/// cache, and by every test that sketches columns other than [`frame`]'s
/// through it.
static FOREIGN_SKETCHES: Mutex<()> = Mutex::new(());

fn fast_config() -> EafeConfig {
    let mut cfg = EafeConfig::fast();
    cfg.stage1_epochs = 2;
    cfg.stage2_epochs = 3;
    cfg.steps_per_epoch = 3;
    cfg
}

fn frame() -> DataFrame {
    SynthSpec::new("par-det", 180, 5, Task::Classification)
        .with_seed(41)
        .generate()
        .unwrap()
}

fn fpe() -> eafe::FpeModel {
    let cfg = fast_config();
    let space = FpeSearchSpace {
        families: vec![HashFamily::Ccws],
        dims: vec![16],
        thre: 0.01,
        seed: 9,
    };
    bootstrap_fpe(4, 2, &space, &cfg.evaluator, 9).expect("FPE bootstrap")
}

/// Exact equality on everything score-bearing: seeds are fixed, so the
/// parallel schedule must not leak into any reported number.
fn assert_bit_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(
        a.base_score.to_bits(),
        b.base_score.to_bits(),
        "{what}: base"
    );
    assert_eq!(
        a.best_score.to_bits(),
        b.best_score.to_bits(),
        "{what}: best"
    );
    assert_eq!(a.downstream_evals, b.downstream_evals, "{what}: evals");
    assert_eq!(
        a.generated_features, b.generated_features,
        "{what}: generated"
    );
    assert_eq!(a.trace.len(), b.trace.len(), "{what}: trace length");
    for (x, y) in a.trace.iter().zip(&b.trace) {
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{what}: trace score");
    }
}

#[test]
fn nfs_scores_identical_across_thread_counts() {
    let frame = frame();
    runtime::set_global_threads(1);
    let single = Engine::nfs(fast_config()).run(&frame).unwrap();
    runtime::set_global_threads(4);
    let multi = Engine::nfs(fast_config()).run(&frame).unwrap();
    runtime::set_global_threads(0);
    assert_bit_identical(&single, &multi, "NFS 1-vs-4 threads");
}

#[test]
fn e_afe_scores_identical_across_thread_counts() {
    let frame = frame();
    let fpe = fpe();
    runtime::set_global_threads(1);
    let single = Engine::e_afe(fast_config(), fpe.clone())
        .run(&frame)
        .unwrap();
    runtime::set_global_threads(4);
    let multi = Engine::e_afe(fast_config(), fpe).run(&frame).unwrap();
    runtime::set_global_threads(0);
    assert_bit_identical(&single, &multi, "E-AFE 1-vs-4 threads");
}

#[test]
fn fpe_gated_engine_identical_with_warm_signature_cache() {
    // The FPE gate now sketches through the table-driven kernels and the
    // process-wide signature cache. Two invariants: (1) a warm-cache
    // 4-thread re-run of the fixed-seed FPE-gated engine is bit-identical
    // to the cold 1-thread run, and (2) the re-run re-sketches nothing —
    // every column of the identical run is already cached, so the sketch
    // path contributes zero cache misses (mirroring the PR-1 score-cache
    // zero-miss rerun test).
    let frame = frame();
    let fpe = fpe();
    let _quiet = FOREIGN_SKETCHES.lock().unwrap_or_else(|e| e.into_inner());
    runtime::set_global_threads(1);
    let cold = Engine::e_afe(fast_config(), fpe.clone())
        .run(&frame)
        .unwrap();
    let before = runtime::sig_cache_stats();
    runtime::set_global_threads(4);
    let warm = Engine::e_afe(fast_config(), fpe).run(&frame).unwrap();
    runtime::set_global_threads(0);
    let after = runtime::sig_cache_stats();
    assert_bit_identical(&cold, &warm, "E-AFE warm-sig-cache 1-vs-4 threads");
    // Note: the sig cache is process-global and other tests in this binary
    // sketch the *same* fixed-seed columns (or hold `FOREIGN_SKETCHES`), so
    // concurrent tests can only add hits here, not misses.
    assert_eq!(
        after.misses, before.misses,
        "warm re-run must serve every sketch from the signature cache"
    );
    assert!(
        after.hits > before.hits,
        "warm re-run should actually exercise the signature cache"
    );
}

#[test]
fn speculation_predicts_the_next_slice_exactly() {
    // Caches only short-circuit, so "warming does no harm" holds even for
    // a speculation that predicts nothing. This pins the stronger claim:
    // (1) a stage-1 slice FPE-scores exactly the speculated columns —
    // after warming them, the slice misses the signature cache zero times;
    // (2) with an FPE gate in stage 2, the first speculated evaluation is
    // one the slice performs — pre-inserting that single score turns
    // exactly one of the slice's misses into a hit.
    let fpe = fpe();
    let _quiet = FOREIGN_SKETCHES.lock().unwrap_or_else(|e| e.into_inner());
    // Everything an unlocked test can sketch is warm after this run, so
    // only this test can add signature-cache misses below.
    Engine::e_afe(fast_config(), fpe.clone())
        .run(&frame())
        .unwrap();
    let foreign = SynthSpec::new("spec-exact", 180, 5, Task::Classification)
        .with_seed(97)
        .generate()
        .unwrap();
    let engine = Engine::e_afe(fast_config(), fpe);
    let mut search = engine.start(&foreign).unwrap();

    assert!(matches!(search.phase(), SearchPhase::Stage1 { epoch: 0 }));
    let columns = engine.speculate_fpe_columns(&search).unwrap();
    assert!(!columns.is_empty());
    let cold = runtime::sig_cache_stats();
    for column in &columns {
        engine.fpe_score(&column.values).unwrap();
    }
    let warmed = runtime::sig_cache_stats();
    assert!(
        warmed.since(&cold).misses > 0,
        "foreign columns must not have been cached before warming"
    );
    engine.step(&mut search).unwrap();
    let stepped = runtime::sig_cache_stats().since(&warmed);
    assert_eq!(
        stepped.misses, 0,
        "stage-1 slice sketched a column speculation did not predict"
    );
    assert!(stepped.hits >= columns.len() as u64);

    // One slice of a restored copy of `search` on a private score cache,
    // optionally pre-loaded with the first speculated evaluation.
    let slice_stats = |checkpoint: &str, warm_first: bool| {
        let cache = Arc::new(ScoreCache::new(4096));
        let engine = engine.clone().with_cache(Arc::clone(&cache));
        let mut copy: SearchState = serde_json::from_str(checkpoint).unwrap();
        let (prefix, _, candidates) = engine.speculate_evals(&copy).unwrap();
        let first = candidates.first()?;
        if warm_first {
            let speculative = prefix
                .with_extra_columns(std::slice::from_ref(first))
                .unwrap();
            engine.evaluator().evaluate(&speculative).unwrap();
        }
        let before = cache.stats();
        engine.step(&mut copy).unwrap();
        Some(cache.stats().since(&before))
    };
    let mut checked = 0;
    while !search.is_done() {
        if matches!(search.phase(), SearchPhase::Stage2 { .. }) {
            let checkpoint = serde_json::to_string(&search).unwrap();
            if let Some(cold) = slice_stats(&checkpoint, false) {
                let warm = slice_stats(&checkpoint, true).unwrap();
                assert_eq!(
                    (warm.hits, warm.misses + 1),
                    (cold.hits + 1, cold.misses),
                    "the first speculated evaluation must be one the slice performs"
                );
                checked += 1;
            }
        }
        engine.step(&mut search).unwrap();
    }
    assert!(
        checked > 0,
        "no stage-2 slice had a gated candidate to check"
    );
}

#[test]
fn binned_forest_identical_across_thread_counts() {
    // The histogram (binned) training path must be as schedule-oblivious
    // as the exact path: per-tree seeds and bootstrap draws are fixed up
    // front and the pool returns trees in submission order, so a 1-thread
    // and a 4-thread fit of the same forest are the same ensemble —
    // checked at both the raw-forest and the CV-evaluator level.
    use learners::{Evaluator, ForestConfig, RandomForest, SplitMethod};

    let frame = frame();
    let x = learners::feature_matrix(&frame);

    let cfg = ForestConfig {
        n_trees: 12,
        tree: learners::TreeConfig {
            split: SplitMethod::Histogram,
            ..learners::TreeConfig::default()
        },
        seed: 17,
        ..ForestConfig::default()
    };
    let mut evaluator = Evaluator::default();
    evaluator.forest.tree.split = SplitMethod::Histogram;

    runtime::set_global_threads(1);
    let mut single = RandomForest::new(cfg);
    single.fit(&x, frame.label()).unwrap();
    let score_single = evaluator.evaluate(&frame).unwrap();
    runtime::set_global_threads(4);
    let mut multi = RandomForest::new(cfg);
    multi.fit(&x, frame.label()).unwrap();
    let score_multi = evaluator.evaluate(&frame).unwrap();
    runtime::set_global_threads(0);

    assert_eq!(single.predict(&x).unwrap(), multi.predict(&x).unwrap());
    for (a, b) in single
        .feature_importances()
        .unwrap()
        .iter()
        .zip(&multi.feature_importances().unwrap())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "binned importances: {a} vs {b}");
    }
    assert_eq!(
        score_single.to_bits(),
        score_multi.to_bits(),
        "binned CV score 1-vs-4 threads: {score_single} vs {score_multi}"
    );
}

#[test]
fn gp_predict_identical_across_thread_counts() {
    // GP posterior-mean prediction chunks test rows over the worker pool
    // and reduces each row's RBF distances through the pinned SIMD lane
    // tree; neither may move a bit between thread counts. 700 test rows ×
    // 400 capped training rows clears the predict grain, so the 4-thread
    // run genuinely fans out.
    use learners::{GaussianProcess, GpConfig};

    let n = 700usize;
    let xs: Vec<Vec<f64>> = (0..3)
        .map(|f| {
            (0..n)
                .map(|r| (r as f64 * 0.013 + f as f64).sin() * 3.0)
                .collect()
        })
        .collect();
    let y: Vec<f64> = (0..n).map(|r| (r as f64 * 0.02).cos() * 2.0).collect();
    let mut gp = GaussianProcess::new(GpConfig::default());
    gp.fit(&xs, &y).unwrap();

    runtime::set_global_threads(1);
    let single = gp.predict(&xs).unwrap();
    runtime::set_global_threads(4);
    let multi = gp.predict(&xs).unwrap();
    runtime::set_global_threads(0);
    for (a, b) in single.iter().zip(&multi) {
        assert_eq!(a.to_bits(), b.to_bits(), "gp predict 1-vs-4 threads");
    }
}

#[test]
fn mlp_training_identical_across_thread_counts() {
    // The batched NN trainer splits every minibatch into fixed-size
    // microbatches and reduces their gradient partials serially in chunk
    // index order, so the parallel schedule cannot move a bit: a 1-thread
    // and a 4-thread fit are the same network. The config is sized past
    // the trainer's parallel grain (batch 128 × ~2.9k params) so the
    // 4-thread run genuinely exercises the worker pool.
    use learners::{Mlp, MlpConfig};

    let frame = SynthSpec::new("nn-det", 384, 20, Task::Classification)
        .with_seed(77)
        .generate()
        .unwrap();
    let x = learners::feature_matrix(&frame);
    let cfg = MlpConfig {
        hidden: 128,
        epochs: 3,
        batch_size: 128,
        seed: 23,
        ..MlpConfig::default()
    };

    runtime::set_global_threads(1);
    let mut single = Mlp::new(cfg);
    single.fit(&x, frame.label()).unwrap();
    runtime::set_global_threads(4);
    let mut multi = Mlp::new(cfg);
    multi.fit(&x, frame.label()).unwrap();
    let mut refit = Mlp::new(cfg);
    refit.fit(&x, frame.label()).unwrap();
    runtime::set_global_threads(0);

    for (name, other) in [("1-vs-4 threads", &multi), ("4-thread refit", &refit)] {
        for (a, b) in single
            .trained_params()
            .unwrap()
            .iter()
            .zip(other.trained_params().unwrap())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "mlp params {name}: {a} vs {b}");
        }
        assert_eq!(
            single.predict(&x).unwrap(),
            other.predict(&x).unwrap(),
            "mlp predictions {name}"
        );
    }
}

#[test]
fn resnet_training_identical_across_thread_counts() {
    // Same invariant for the tabular ResNet (and the embedding the RTDL_N
    // re-heading consumes): width 48 × 2 blocks ≈ 10.5k params at batch 64
    // clears the parallel grain, so the 4-thread fit runs microbatches on
    // the pool and must still match the 1-thread fit bit for bit.
    use learners::{ResNet, ResNetConfig};

    let frame = SynthSpec::new("nn-det-rn", 192, 20, Task::Classification)
        .with_seed(78)
        .generate()
        .unwrap();
    let x = learners::feature_matrix(&frame);
    let cfg = ResNetConfig {
        width: 48,
        n_blocks: 2,
        epochs: 2,
        batch_size: 64,
        seed: 24,
        ..ResNetConfig::default()
    };

    runtime::set_global_threads(1);
    let mut single = ResNet::new(cfg);
    single.fit(&x, frame.label()).unwrap();
    runtime::set_global_threads(4);
    let mut multi = ResNet::new(cfg);
    multi.fit(&x, frame.label()).unwrap();
    runtime::set_global_threads(0);

    for (a, b) in single
        .trained_params()
        .unwrap()
        .iter()
        .zip(multi.trained_params().unwrap())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "resnet params: {a} vs {b}");
    }
    assert_eq!(single.predict(&x).unwrap(), multi.predict(&x).unwrap());
    let (es, em) = (single.embed(&x).unwrap(), multi.embed(&x).unwrap());
    for (cs, cm) in es.iter().zip(&em) {
        for (a, b) in cs.iter().zip(cm) {
            assert_eq!(a.to_bits(), b.to_bits(), "resnet embedding: {a} vs {b}");
        }
    }
}

#[test]
fn telemetry_collection_does_not_change_scores() {
    // Instrumentation must be a pure observer: running the same
    // fixed-seed engine with a live telemetry sink (and across thread
    // counts) cannot move a single bit of any reported score.
    let frame = frame();
    let baseline = Engine::nfs(fast_config()).run(&frame).unwrap();

    let sink = Arc::new(telemetry::MemorySink::new());
    telemetry::install(Arc::clone(&sink) as Arc<dyn telemetry::Sink>);
    runtime::set_global_threads(1);
    let traced_single = Engine::nfs(fast_config()).run(&frame).unwrap();
    runtime::set_global_threads(4);
    let traced_multi = Engine::nfs(fast_config()).run(&frame).unwrap();
    runtime::set_global_threads(0);
    telemetry::uninstall();

    assert_bit_identical(&baseline, &traced_single, "NFS untraced-vs-traced");
    assert_bit_identical(&baseline, &traced_multi, "NFS traced 1-vs-4 threads");
    // The trace actually observed the runs it must not perturb.
    let engine_spans = sink
        .events()
        .iter()
        .filter_map(telemetry::Event::as_span)
        .filter(|s| s.name == "engine.run")
        .count();
    assert!(
        engine_spans >= 2,
        "expected engine.run spans from both traced runs, saw {engine_spans}"
    );
}

#[test]
fn shared_cache_does_not_change_scores() {
    // A shared content-addressed cache may only short-circuit evaluations
    // whose inputs fingerprint identically — so scores cannot move.
    let frame = frame();
    let cold = Engine::nfs(fast_config()).run(&frame).unwrap();
    let cache = Arc::new(ScoreCache::new(4096));
    let warm1 = Engine::nfs(fast_config())
        .with_cache(Arc::clone(&cache))
        .run(&frame)
        .unwrap();
    let warm2 = Engine::nfs(fast_config())
        .with_cache(Arc::clone(&cache))
        .run(&frame)
        .unwrap();
    assert_bit_identical(&cold, &warm1, "NFS private-vs-shared cache");
    assert_bit_identical(&cold, &warm2, "NFS cold-vs-warm shared cache");
    // The second identical run must be served largely from cache.
    assert!(
        warm2.cache_hits > 0,
        "repeated fixed-seed run should hit the shared cache (hits = {})",
        warm2.cache_hits
    );
    assert_eq!(
        warm2.cache_misses, 0,
        "every evaluation of an identical rerun is cached"
    );
}

#[test]
fn checkpoint_resume_is_bit_identical_across_thread_counts() {
    // The stepped engine's search state serializes completely — raw RNG
    // stream words, policy parameters, replay buffer, adaptive-gate
    // window — so a run that is checkpointed to JSON and restored at
    // EVERY epoch boundary (the worst case a server restart can produce)
    // must match the uninterrupted blocking run bit for bit, on one
    // thread and on four.
    let frame = frame();
    for threads in [1usize, 4] {
        runtime::set_global_threads(threads);
        let uninterrupted = Engine::nfs(fast_config()).run(&frame).unwrap();

        let mut engine = Engine::nfs(fast_config());
        let mut state = engine.start(&frame).unwrap();
        let cap = eafe::max_slices(&fast_config(), false);
        let mut slices = 0usize;
        while !state.is_done() {
            // Full restart: engine + state → JSON → fresh objects.
            let engine_json = serde_json::to_string(&engine).unwrap();
            let state_json = serde_json::to_string(&state).unwrap();
            engine = serde_json::from_str(&engine_json).unwrap();
            state = serde_json::from_str(&state_json).unwrap();
            engine.step(&mut state).unwrap();
            slices += 1;
            assert!(slices <= cap, "stepped run exceeded {cap} slices");
        }
        let (resumed, _frame) = engine.finish(&state).unwrap();
        runtime::set_global_threads(0);
        assert_bit_identical(
            &uninterrupted,
            &resumed,
            &format!("NFS checkpoint-every-epoch vs blocking, {threads} threads"),
        );
    }
}

#[test]
fn e_afe_checkpoint_resume_across_stage1_and_seed_is_bit_identical() {
    // Stage-1 checkpoints carry the replay buffer's candidates with their
    // lineages, and the seeding slice accepts each into its proposing
    // agent's subgroup: a run restored from JSON before every slice —
    // every stage-1 epoch, the seeding, every stage-2 epoch — must match
    // the uninterrupted run bit for bit.
    let frame = frame();
    let fpe = fpe();
    let uninterrupted = Engine::e_afe(fast_config(), fpe.clone())
        .run(&frame)
        .unwrap();

    let mut engine = Engine::e_afe(fast_config(), fpe);
    let mut state = engine.start(&frame).unwrap();
    let mut phases = Vec::new();
    while !state.is_done() {
        phases.push(state.phase());
        let engine_json = serde_json::to_string(&engine).unwrap();
        let state_json = serde_json::to_string(&state).unwrap();
        engine = serde_json::from_str(&engine_json).unwrap();
        state = serde_json::from_str(&state_json).unwrap();
        engine.step(&mut state).unwrap();
    }
    assert!(phases.contains(&SearchPhase::Stage1 { epoch: 1 }));
    assert!(phases.contains(&SearchPhase::Seed));
    let (resumed, _frame) = engine.finish(&state).unwrap();
    assert_bit_identical(&uninterrupted, &resumed, "E-AFE checkpoint-every-slice");
}

#[test]
fn chunked_engine_matches_flat_across_thread_counts() {
    // The out-of-core driver (DESIGN.md §14) replays the exact RNG
    // streams, candidate draws, and evaluation order of the in-RAM
    // engine, so a full fixed-seed run over compressed chunks — even
    // under a budget tight enough to force spill/evict churn — must be
    // bit-identical to `Engine::run` on the flat frame, at 1 and at 4
    // worker threads.
    use tabular::{ChunkOptions, ChunkedFrame, FrameBudget, InMemoryStore};

    let frame = frame();
    let opts = ChunkOptions::default()
        .with_chunk_rows(32)
        .with_budget(FrameBudget::from_bytes(2048));
    for threads in [1usize, 4] {
        runtime::set_global_threads(threads);
        let flat = Engine::nfs(fast_config()).run(&frame).unwrap();
        let chunked =
            ChunkedFrame::from_dataframe(&frame, opts, Box::new(InMemoryStore::new())).unwrap();
        let (out, engineered) = Engine::nfs(fast_config()).run_chunked(chunked).unwrap();
        runtime::set_global_threads(0);
        assert_bit_identical(
            &flat,
            &out,
            &format!("chunked-vs-flat engine, {threads} threads"),
        );
        // The engineered chunked frame holds the same columns bit for bit.
        let back = engineered.to_dataframe().unwrap();
        assert_eq!(back.n_rows(), frame.n_rows());
        assert!(
            engineered.stats().chunks_spilled > 0,
            "the 2 KiB budget must actually exercise the spill path"
        );
    }
}

#[test]
fn fpe_gated_chunked_engine_matches_flat_when_sketches_take_the_dense_tail() {
    // Reciprocals of values that come close to zero: a few rows up to 10⁶,
    // the rest near 1, so every base column and nearly every candidate
    // built on them (a reciprocal chain) weighs all but a few rows at the
    // floor — MinHash's bound-ordered visit runs out of prefix and the
    // sketch is the dense scan. More than 256 rows, or the prefix would
    // hold every row. Flat and chunked, 1 and 4 threads, must agree on
    // every score bit and on the score cache's hit/miss tallies (the
    // chunked driver probes with keys hashed chunk by chunk).
    use tabular::{ChunkOptions, ChunkedFrame, Column, FrameBudget, InMemoryStore, Label};

    let n = 700;
    let columns: Vec<Column> = (0..4)
        .map(|j| {
            let values = (0..n)
                .map(|i| {
                    1.0 / ((i as f64 * 0.618_033_988_749_895 + j as f64 * 0.37).fract() + 1e-6)
                })
                .collect();
            Column::new(format!("r{j}"), values)
        })
        .collect();
    let y = (0..n)
        .map(|i| usize::from(columns[0].values[i] * columns[1].values[i] > 4.0))
        .collect();
    let frame = DataFrame::new("tail", columns, Label::Class { y, n_classes: 2 }).unwrap();
    let fpe = fpe();
    let opts = ChunkOptions::default()
        .with_chunk_rows(96)
        .with_budget(FrameBudget::from_bytes(4096));

    let _foreign = FOREIGN_SKETCHES.lock().unwrap_or_else(|e| e.into_inner());
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        runtime::set_global_threads(threads);
        let flat = Engine::e_afe(fast_config(), fpe.clone())
            .run(&frame)
            .unwrap();
        let chunked =
            ChunkedFrame::from_dataframe(&frame, opts, Box::new(InMemoryStore::new())).unwrap();
        let (out, _) = Engine::e_afe(fast_config(), fpe.clone())
            .run_chunked(chunked)
            .unwrap();
        runtime::set_global_threads(0);
        let what = format!("tail-forcing chunked-vs-flat, {threads} threads");
        assert_bit_identical(&flat, &out, &what);
        assert_eq!(flat.selected, out.selected, "{what}: selected");
        assert_eq!(
            (flat.cache_hits, flat.cache_misses),
            (out.cache_hits, out.cache_misses),
            "{what}: score-cache tallies"
        );
        runs.push(out);
    }
    assert_bit_identical(&runs[0], &runs[1], "tail-forcing chunked 1-vs-4 threads");
    assert!(
        runs[0].cache_hits + runs[0].cache_misses > 1,
        "the search must probe"
    );
}

#[test]
fn chunked_engine_mmap_rerun_matches_memory_store() {
    // Same engine, same seed, different column store: a rerun backed by
    // an on-disk `.eafc` file store must reproduce the in-memory-store
    // run bit for bit — the storage backend is invisible to the search.
    use tabular::{ChunkOptions, ChunkedFrame, FrameBudget, InMemoryStore, MmapStore};

    let frame = frame();
    let opts = ChunkOptions::default()
        .with_chunk_rows(32)
        .with_budget(FrameBudget::from_bytes(2048));
    let dir = std::env::temp_dir().join(format!("eafe-det-mmap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mem_frame =
        ChunkedFrame::from_dataframe(&frame, opts, Box::new(InMemoryStore::new())).unwrap();
    let (mem_out, _) = Engine::nfs(fast_config()).run_chunked(mem_frame).unwrap();

    let store = MmapStore::create(dir.join("det.eafc")).unwrap();
    let mapped_frame = ChunkedFrame::from_dataframe(&frame, opts, Box::new(store)).unwrap();
    let (mmap_out, _) = Engine::nfs(fast_config())
        .run_chunked(mapped_frame)
        .unwrap();

    assert_bit_identical(&mem_out, &mmap_out, "mmap-store rerun vs memory store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_observability_is_a_pure_observer() {
    // Full observability on — per-tenant scoped metrics and the status
    // server being scraped while the scheduler runs — must not move a bit
    // of any served result relative to the same engine run solo with
    // observability off. (The global telemetry sink is deliberately NOT
    // installed here: other tests in this binary own it.)
    use serve::{Budget, JobServer, JobStatus, ServerConfig};

    let frame = frame();
    let cfg_a = fast_config();
    let mut cfg_b = fast_config();
    cfg_b.seed = cfg_a.seed.wrapping_add(303);
    let solo_a = Engine::nfs(cfg_a.clone()).run(&frame).unwrap();
    let solo_b = Engine::nfs(cfg_b.clone()).run(&frame).unwrap();

    let server = JobServer::new(ServerConfig {
        status_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.status_addr().unwrap();
    let a = server
        .submit("tenant-a", &frame, Engine::nfs(cfg_a), Budget::unlimited())
        .unwrap();
    let b = server
        .submit("tenant-b", &frame, Engine::nfs(cfg_b), Budget::unlimited())
        .unwrap();
    // Scrape both endpoints while the scheduler is live: reads must be
    // pure observers too.
    a.next_event();
    serve::scrape(addr, "/metrics").unwrap();
    serve::scrape(addr, "/status").unwrap();
    let oa = a.wait().unwrap();
    let ob = b.wait().unwrap();
    assert_eq!(oa.status, JobStatus::Completed);
    assert_eq!(ob.status, JobStatus::Completed);

    assert_bit_identical(
        &solo_a,
        &oa.result.unwrap(),
        "tenant-a observed-vs-solo scores",
    );
    assert_bit_identical(
        &solo_b,
        &ob.result.unwrap(),
        "tenant-b observed-vs-solo scores",
    );
    // The observability plane actually saw the run it must not perturb.
    let snap = server.metrics().snapshot();
    for tenant in ["tenant-a", "tenant-b"] {
        let scope = snap.get(&[("tenant", tenant)]).unwrap();
        assert!(scope.counter("serve.epochs") > 0, "{tenant} epochs counted");
    }
}

#[test]
fn server_restart_with_two_tenants_matches_solo_runs() {
    // Two tenants share one server — one scheduler interleaving their
    // epochs round-robin, one content-addressed score cache — and the
    // server is shut down mid-run and resumed from its checkpoint
    // directory. Wherever the restart lands, each tenant's final result
    // must be bit-identical to running its engine alone, at 1 and 4
    // worker threads.
    use serve::{Budget, JobServer, JobStatus, ServerConfig};

    let frame = frame();
    let cfg_a = fast_config();
    let mut cfg_b = fast_config();
    cfg_b.seed = cfg_a.seed.wrapping_add(101);

    let root = std::env::temp_dir().join(format!("eafe-serve-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    for threads in [1usize, 4] {
        runtime::set_global_threads(threads);
        let solo_a = Engine::nfs(cfg_a.clone()).run(&frame).unwrap();
        let solo_b = Engine::nfs(cfg_b.clone()).run(&frame).unwrap();

        let dir = root.join(format!("t{threads}"));
        let config = ServerConfig {
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let mut server = JobServer::new(config.clone()).unwrap();
        let a = server
            .submit(
                "tenant-a",
                &frame,
                Engine::nfs(cfg_a.clone()),
                Budget::unlimited(),
            )
            .unwrap();
        let b = server
            .submit(
                "tenant-b",
                &frame,
                Engine::nfs(cfg_b.clone()),
                Budget::unlimited(),
            )
            .unwrap();
        // Let both tenants make some progress, then stop the server at
        // an arbitrary point and restart it from the checkpoints.
        a.next_event();
        b.next_event();
        server.shutdown().unwrap();

        let (_server2, handles) = JobServer::resume(config).unwrap();
        let finish = |handle: &serve::JobHandle, tenant: &str| -> eafe::RunResult {
            // A tenant that completed before the shutdown has no
            // checkpoint; its outcome lives on the original handle.
            let outcome = match handle.wait() {
                Ok(o) => o,
                Err(_) => handles
                    .iter()
                    .find(|h| h.id() == handle.id())
                    .unwrap_or_else(|| panic!("{tenant}: no resumed handle"))
                    .wait()
                    .unwrap(),
            };
            assert_eq!(outcome.status, JobStatus::Completed, "{tenant}");
            assert_eq!(outcome.tenant, tenant);
            outcome.result.unwrap()
        };
        let got_a = finish(&a, "tenant-a");
        let got_b = finish(&b, "tenant-b");
        runtime::set_global_threads(0);

        assert_bit_identical(
            &solo_a,
            &got_a,
            &format!("tenant-a served-with-restart vs solo, {threads} threads"),
        );
        assert_bit_identical(
            &solo_b,
            &got_b,
            &format!("tenant-b served-with-restart vs solo, {threads} threads"),
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Multi-process distribution (crates/dist): a coordinator in this process
// drives real `dist_worker` child processes over TCP. The determinism
// contract extends across process boundaries: solo ≡ N worker processes,
// bitwise, at any per-worker thread count, even when a worker is killed
// mid-search and its shard is reassigned.
// ---------------------------------------------------------------------------

fn spawn_worker_process(addr: &str, threads: usize) -> std::process::Child {
    std::process::Command::new(env!("CARGO_BIN_EXE_dist_worker"))
        .args(["--connect", addr, "--threads", &threads.to_string()])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn dist_worker")
}

/// A worker connection that can take its worker process down at a fixed
/// point of the search: just before the `kill_at`-th shard would go out
/// on it, the process is SIGKILLed and reaped. The shard is then sent to
/// a peer that is certainly dead, so the coordinator must notice (failed
/// send or failed receive) and reassign it — whatever the search's speed.
struct KillableTransport {
    inner: dist::TcpTransport,
    /// The process behind `inner` and how many more shards it may take.
    victim: Option<(std::process::Child, usize)>,
}

impl dist::Transport for KillableTransport {
    fn send(&mut self, msg: &dist::Msg) -> dist::Result<()> {
        if matches!(msg, dist::Msg::Work(_)) {
            if let Some((child, shards_left)) = &mut self.victim {
                if *shards_left == 0 {
                    let _ = child.kill();
                    let _ = child.wait();
                    self.victim = None;
                } else {
                    *shards_left -= 1;
                }
            }
        }
        self.inner.send(msg)
    }

    fn recv(&mut self) -> dist::Result<dist::Msg> {
        self.inner.recv()
    }
}

/// Run `engine` through a coordinator with `n_workers` child processes
/// (`threads` pool threads each). `kill_after_shards` kills the first
/// worker once it has been sent that many shards, to exercise shard
/// reassignment.
fn dist_run(
    engine: &Engine,
    frame: &DataFrame,
    n_workers: usize,
    threads: usize,
    kill_after_shards: Option<usize>,
) -> (RunResult, DataFrame) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Spawn and accept one at a time, so connection `i` is child `i`.
    let mut children = Vec::new();
    let mut transports = Vec::new();
    for i in 0..n_workers {
        let child = spawn_worker_process(&addr, threads);
        let inner = dist::TcpTransport::from_stream(listener.accept().unwrap().0);
        let victim = match kill_after_shards {
            Some(shards) if i == 0 => Some((child, shards)),
            _ => {
                children.push(child);
                None
            }
        };
        transports.push(KillableTransport { inner, victim });
    }
    let mut coordinator = dist::Coordinator::new(transports);
    let out = coordinator.run(engine, frame).unwrap();
    drop(coordinator); // orderly Bye; surviving workers exit cleanly
    for mut child in children {
        let status = child.wait().expect("wait for dist_worker");
        assert!(status.success(), "surviving worker exited with {status}");
    }
    out
}

#[test]
fn multi_process_distribution_matches_solo_bitwise() {
    let frame = frame();
    let (solo, solo_frame) = Engine::nfs(fast_config()).run_full(&frame).unwrap();
    let solo_fp = runtime::fingerprint_frame(&solo_frame);
    for threads in [1usize, 4] {
        let before = runtime::global_dist_stats();
        let (result, engineered) = dist_run(&Engine::nfs(fast_config()), &frame, 2, threads, None);
        let after = runtime::global_dist_stats();
        assert_bit_identical(
            &solo,
            &result,
            &format!("multi-process NFS, 2 workers x {threads} threads"),
        );
        assert_eq!(
            solo_fp,
            runtime::fingerprint_frame(&engineered),
            "multi-process NFS, {threads} threads/worker: engineered frame"
        );
        assert_eq!(solo.selected, result.selected);
        assert!(
            after.shards_completed > before.shards_completed,
            "worker processes must complete shards ({threads} threads)"
        );
    }
}

#[test]
fn multi_process_fpe_distribution_matches_solo_bitwise() {
    // The two-stage FPE engine exercises both dispatch rounds: stage-1
    // slices warm signatures (round 0), stage-2 slices warm signatures
    // and downstream scores (rounds 0 and 1) — all shipped back across
    // the process boundary as fingerprint-keyed snapshots.
    let frame = frame();
    let fpe = fpe();
    let (solo, solo_frame) = Engine::e_afe(fast_config(), fpe.clone())
        .run_full(&frame)
        .unwrap();
    let (result, engineered) = dist_run(&Engine::e_afe(fast_config(), fpe), &frame, 2, 4, None);
    assert_bit_identical(&solo, &result, "multi-process E-AFE, 2 workers");
    assert_eq!(
        runtime::fingerprint_frame(&solo_frame),
        runtime::fingerprint_frame(&engineered),
        "multi-process E-AFE: engineered frame"
    );
}

#[test]
fn multi_process_worker_killed_mid_search_is_reassigned() {
    let frame = frame();
    let (solo, solo_frame) = Engine::nfs(fast_config()).run_full(&frame).unwrap();
    let before = runtime::global_dist_stats();
    let (result, engineered) = dist_run(&Engine::nfs(fast_config()), &frame, 2, 1, Some(1));
    let after = runtime::global_dist_stats();
    assert_bit_identical(&solo, &result, "multi-process NFS with a killed worker");
    assert_eq!(
        runtime::fingerprint_frame(&solo_frame),
        runtime::fingerprint_frame(&engineered),
        "killed-worker run: engineered frame"
    );
    assert!(
        after.shards_retried > before.shards_retried,
        "the killed worker's in-flight shard must be re-dispatched"
    );
}
