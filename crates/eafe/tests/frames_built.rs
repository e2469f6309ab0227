//! Which evaluations build a `DataFrame`, counted under
//! `eval.frames_built` with telemetry on: none for a forest, in either
//! column store; one per score-cache miss for a model kind that reads raw
//! values. The counter is process-global, so this file holds one test.

use eafe::{EafeConfig, Engine};
use learners::ModelKind;
use std::sync::Arc;
use tabular::{ChunkOptions, ChunkedFrame, DataFrame, InMemoryStore, SynthSpec, Task};

fn frames_built() -> u64 {
    telemetry::global().snapshot().counter("eval.frames_built")
}

fn chunked(frame: &DataFrame) -> ChunkedFrame {
    ChunkedFrame::from_dataframe(
        frame,
        ChunkOptions::default().with_chunk_rows(32),
        Box::new(InMemoryStore::new()),
    )
    .unwrap()
}

#[test]
fn only_a_model_that_reads_raw_values_builds_frames() {
    let frame = SynthSpec::new("frames", 120, 4, Task::Classification)
        .with_seed(9)
        .generate()
        .unwrap();
    telemetry::install(Arc::new(telemetry::MemorySink::new()));

    let forest = Engine::nfs(EafeConfig::fast());
    let before = frames_built();
    let flat = forest.run(&frame).unwrap();
    let (tall, _) = forest.run_chunked(chunked(&frame)).unwrap();
    assert_eq!(
        frames_built() - before,
        0,
        "a forest search builds no frame"
    );
    assert!(flat.cache_misses > 1 && tall.cache_misses > 1);

    let mut cfg = EafeConfig::fast();
    cfg.evaluator.kind = ModelKind::Mlp;
    cfg.evaluator.mlp.epochs = 2;
    let mlp = Engine::nfs(cfg);
    let before = frames_built();
    let flat = mlp.run(&frame).unwrap();
    let after_flat = frames_built();
    let (tall, _) = mlp.run_chunked(chunked(&frame)).unwrap();
    let after_tall = frames_built();
    telemetry::uninstall();

    // Every miss, the base score's included, builds one frame in either
    // store.
    assert_eq!(after_flat - before, flat.cache_misses);
    assert_eq!(after_tall - after_flat, tall.cache_misses);
    assert_eq!(flat.best_score.to_bits(), tall.best_score.to_bits());
}
