//! Layer probes: direct calls into each crate's public functions on the
//! table of the workload's first panel search, fixed iteration counts,
//! median reported.
//! They say what a layer costs on this input whether or not the workload's
//! search ever reaches it.

use crate::inputs;
use crate::spec::{Sizes, TALL_BUDGET_MIB, TALL_CHUNK_ROWS, THREADS};
use crate::stats::median;
use eafe::{FpeModel, Operator};
use learners::{BinnedDataset, RandomForestClassifier, RandomForestRegressor, DEFAULT_MAX_BINS};
use minhash::{HashFamily, SampleCompressor};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tabular::{
    ChunkEncoding, ChunkOptions, ChunkedFrame, Column, DataFrame, FrameBudget, Label, MmapStore,
    DEFAULT_CHUNK_ROWS,
};

/// Median wall time of `f` over `iters` calls, in `scale` units per second
/// (1e3 → ms, 1e6 → µs).
fn timed<T>(iters: usize, scale: f64, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * scale
        })
        .collect();
    median(&samples)
}

/// Candidate columns as the search would generate them: every operator
/// over neighbouring column pairs, cycled up to `n`.
fn candidate_columns(frame: &DataFrame, n: usize) -> Vec<Vec<f64>> {
    let cols = frame.columns();
    (0..n)
        .map(|i| {
            let a = &cols[i % cols.len()].values;
            let b = &cols[(i + 1) % cols.len()].values;
            Operator::ALL[i % Operator::ALL.len()].apply(a, b)
        })
        .collect()
}

/// Run every probe; returns `(metric name, value)` pairs.
pub fn run(
    workload: &str,
    s: &Sizes,
    seed: u64,
    dir: &Path,
    fpe: &FpeModel,
) -> Result<Vec<(String, f64)>, String> {
    runtime::set_global_threads(THREADS);
    let member_seed = inputs::member_seed(workload, seed, 1);
    let raw = inputs::table_spec(workload, s, member_seed)
        .generate()
        .map_err(|e| format!("generate probe table: {e}"))?;
    let mut frame = eafe::preselect_features(&raw, s.preselect, member_seed)
        .map_err(|e| format!("preselect probe table: {e}"))?;
    frame.sanitize();
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| out.push((k.to_string(), v));
    let first = &frame.columns()[0].values;

    // --- tabular -----------------------------------------------------------
    let chunk: Vec<f64> = first
        .iter()
        .copied()
        .cycle()
        .take(DEFAULT_CHUNK_ROWS)
        .collect();
    put(
        "tabular.chunk_encode_ms",
        timed(5, 1e3, || ChunkEncoding::encode(&chunk)),
    );
    let encoded = ChunkEncoding::encode(&chunk);
    let mut decoded = Vec::new();
    put(
        "tabular.chunk_decode_ms",
        timed(5, 1e3, || encoded.decode_into(&mut decoded)),
    );
    let spill_path = dir.join(format!("probe-{}.eafc", std::process::id()));
    // Push every column through a spill store under the tall workload's
    // budget, then read every chunk back.
    let spill_round = || -> Result<u64, String> {
        let store = MmapStore::create(&spill_path).map_err(|e| e.to_string())?;
        let opts = ChunkOptions::default()
            .with_chunk_rows(TALL_CHUNK_ROWS)
            .with_budget(FrameBudget::from_mib(TALL_BUDGET_MIB));
        let cf = ChunkedFrame::from_dataframe(&frame, opts, Box::new(store))
            .map_err(|e| e.to_string())?;
        let mut rows = 0u64;
        for col in 0..cf.n_cols() {
            for k in 0..cf.n_chunks() {
                rows += cf.chunk(col, k).map_err(|e| e.to_string())?.len() as u64;
            }
        }
        Ok(rows)
    };
    let spill = spill_round().map(|_| timed(3, 1.0, spill_round));
    let _ = std::fs::remove_file(&spill_path);
    put(
        "tabular.spill_fetch_s",
        spill.map_err(|e| format!("spill round trip: {e}"))?,
    );

    // --- eafe --------------------------------------------------------------
    let cols = frame.columns();
    put(
        "eafe.ops_apply_ms",
        timed(3, 1e3, || {
            for (j, col) in cols.iter().enumerate() {
                let b = &cols[(j + 1) % cols.len()].values;
                for op in Operator::ALL {
                    black_box(op.apply(&col.values, b));
                }
            }
        }),
    );
    // Cold: every call scores a column the signature cache has not seen.
    let candidates = candidate_columns(&frame, 40);
    let mut next = candidates.iter();
    put(
        "eafe.fpe_score_ms",
        timed(8, 1e3, || {
            fpe.score_feature(next.next().expect("8 of 40 candidates"))
        }),
    );

    // --- minhash -----------------------------------------------------------
    let compressor = SampleCompressor::new(HashFamily::Ccws, 48, member_seed)
        .map_err(|e| format!("SampleCompressor::new: {e}"))?;
    minhash::clear_draw_tables();
    put(
        "minhash.table_build_ms",
        timed(1, 1e3, || compressor.signature(first)),
    );
    put(
        "minhash.sketch_col_ms",
        timed(5, 1e3, || compressor.signature(first)),
    );
    let batch: Vec<&[f64]> = candidates[8..40].iter().map(Vec::as_slice).collect();
    put(
        "minhash.sketch_batch_ms",
        timed(3, 1e3, || compressor.signature_batch(&batch)),
    );
    // CCWS keeps three f64 draws (r, c, β) per (row, hash).
    put(
        "minhash.table_mib",
        (frame.n_rows() * 48 * 3 * 8) as f64 / (1024.0 * 1024.0),
    );

    // --- learners ----------------------------------------------------------
    let evaluator = inputs::config(s, member_seed).evaluator;
    put(
        "learners.cv_eval_ms",
        timed(1, 1e3, || evaluator.evaluate(&frame)),
    );
    let x = learners::feature_matrix(&frame);
    put(
        "learners.bin_build_ms",
        timed(3, 1e3, || BinnedDataset::build(&x, DEFAULT_MAX_BINS)),
    );
    let binned = BinnedDataset::build(&x, DEFAULT_MAX_BINS).map_err(|e| format!("bin: {e}"))?;
    let rows: Vec<usize> = (0..frame.n_rows()).collect();
    match frame.label() {
        Label::Class { y, n_classes } => {
            let mut forest = RandomForestClassifier::new(evaluator.forest);
            put(
                "learners.forest_fit_ms",
                timed(3, 1e3, || forest.fit_binned(&binned, &rows, y, *n_classes)),
            );
            put(
                "learners.forest_predict_ms",
                timed(3, 1e3, || forest.predict(&x)),
            );
        }
        Label::Reg(y) => {
            let mut forest = RandomForestRegressor::new(evaluator.forest);
            put(
                "learners.forest_fit_ms",
                timed(3, 1e3, || forest.fit_binned(&binned, &rows, y)),
            );
            put(
                "learners.forest_predict_ms",
                timed(3, 1e3, || forest.predict(&x)),
            );
        }
    }

    // --- rl ----------------------------------------------------------------
    let mut policy = rl::RnnPolicy::new(rl::PolicyConfig {
        state_dim: eafe::EngineState::EMBEDDING_DIM,
        n_actions: Operator::ALL.len(),
        seed: member_seed,
        ..rl::PolicyConfig::default()
    })
    .map_err(|e| format!("RnnPolicy::new: {e}"))?;
    let mut rng = StdRng::seed_from_u64(member_seed);
    let state = [0.25f64; eafe::EngineState::EMBEDDING_DIM];
    put(
        "rl.policy_episode_us",
        timed(200, 1e6, || {
            policy.reset();
            let steps: Vec<_> = (0..4)
                .map(|t| {
                    (
                        policy.step(&state, &mut rng).expect("policy step"),
                        0.1 * t as f64,
                    )
                })
                .collect();
            policy.update(&steps)
        }),
    );
    // The buffer's only read-out is the priority-ordered drain.
    put(
        "rl.replay_push_sample_us",
        timed(200, 1e6, || {
            let mut replay = rl::ReplayBuffer::new(64);
            for i in 0..128usize {
                replay.push(rng.gen::<f64>(), i);
            }
            replay.drain_by_priority()
        }),
    );

    // --- runtime -----------------------------------------------------------
    let cached = runtime::Evaluator::new(evaluator.clone());
    cached
        .evaluate(&frame)
        .map_err(|e| format!("warm the score cache: {e}"))?;
    put(
        "runtime.cache_probe_us",
        timed(20, 1e6, || cached.cache().get(cached.cache_key(&frame))),
    );
    let mut key = 0u128;
    put(
        "runtime.cache_insert_us",
        timed(1000, 1e6, || {
            key += 1;
            cached.cache().insert(runtime::Fingerprint(key), 0.5)
        }),
    );
    let pool = runtime::WorkerPool::new();
    put(
        "runtime.pool_map_us",
        timed(50, 1e6, || pool.map((0..64usize).collect(), |_, i| i)),
    );

    // --- simd --------------------------------------------------------------
    let a: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.37).sin()).collect();
    let b: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.11).cos()).collect();
    // One sample = 1000 calls, so the clock's resolution does not show.
    let per_call = |f: fn(&[f64], &[f64]) -> f64| {
        timed(15, 1e9 / 1000.0, || {
            (0..1000)
                .map(|_| f(black_box(&a), black_box(&b)))
                .sum::<f64>()
        })
    };
    put("simd.dot_ns", per_call(simd::dot));
    put("simd.sq_dist_ns", per_call(simd::sq_dist));

    // --- dist --------------------------------------------------------------
    let msg = dist::Msg::Work(dist::WorkShard {
        slice: 0,
        round: 1,
        shard: 0,
        seed: member_seed,
        tasks: dist::ShardTasks::Eval {
            prefix: frame.clone(),
            candidates: vec![Column::new("candidate", candidates[0].clone())],
        },
    });
    put(
        "dist.encode_ms",
        timed(5, 1e3, || dist::protocol::encode(&msg)),
    );
    let bytes = dist::protocol::encode(&msg).map_err(|e| format!("encode: {e}"))?;
    put(
        "dist.decode_ms",
        timed(5, 1e3, || dist::protocol::decode(&bytes)),
    );
    Ok(out)
}
