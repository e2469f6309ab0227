//! Who keeps bins in the process-wide bin cache: the columns that join a
//! search's selection (the base columns, each accepted candidate) and the
//! frames `Evaluator::evaluate` bins — never a candidate a search only
//! scores. The cache and the telemetry counters are process-wide, so the
//! tests of this binary take one lock and run one at a time.

use eafe::{EafeConfig, Engine, RunResult};
use learners::{bin_cache_stats, Evaluator};
use std::sync::{Arc, Mutex, MutexGuard};
use tabular::{ChunkOptions, ChunkedFrame, DataFrame, InMemoryStore, SynthSpec, Task};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `(binned.columns_built, binned.columns_reused)` so far.
fn binned() -> (u64, u64) {
    let snapshot = telemetry::global().snapshot();
    (
        snapshot.counter("binned.columns_built"),
        snapshot.counter("binned.columns_reused"),
    )
}

/// A frame whose content no other test of this binary bins.
fn frame(seed: u64) -> DataFrame {
    SynthSpec::new("bin-cache", 160, 5, Task::Classification)
        .with_seed(seed)
        .generate()
        .unwrap()
}

fn chunked(frame: &DataFrame) -> ChunkedFrame {
    ChunkedFrame::from_dataframe(
        frame,
        ChunkOptions::default().with_chunk_rows(32),
        Box::new(InMemoryStore::new()),
    )
    .unwrap()
}

/// Over a whole forest search, flat and chunked: the bin cache grows by
/// the accepted columns alone, however many rejected candidates were
/// scored, and every column is binned (or read from the cache) once —
/// the base columns when the search starts, a candidate when its score
/// is computed, an accepted candidate never again.
#[test]
fn only_selected_columns_stay_in_the_bin_cache() {
    let _serial = serial();
    telemetry::install(Arc::new(telemetry::MemorySink::new()));
    let mut cfg = EafeConfig::fast();
    cfg.stage2_epochs = 6;
    let engine = Engine::nfs(cfg);
    let check = |store: &str, n_base: usize, run: &dyn Fn() -> RunResult| {
        let (built, reused) = binned();
        let len = bin_cache_stats().len;
        let result = run();
        let accepted = result.selected.len();
        let computed = result.cache_misses as usize - 1;
        assert!(
            computed >= accepted + 20,
            "{store}: {computed} candidates scored, {accepted} accepted"
        );
        assert_eq!(bin_cache_stats().len - len, n_base + accepted, "{store}");
        let (built_now, reused_now) = binned();
        assert_eq!(
            (built_now - built + reused_now - reused) as usize,
            n_base + computed,
            "{store}"
        );
    };
    let flat = frame(21);
    check("flat", flat.n_cols(), &|| engine.run(&flat).unwrap());
    let tall = frame(22);
    check("chunked", tall.n_cols(), &|| {
        engine.run_chunked(chunked(&tall)).unwrap().0
    });
    telemetry::uninstall();
}

/// A frame evaluated twice is binned once: the frame path (what FPE
/// pre-training runs) keeps caching every column it bins.
#[test]
fn evaluating_a_frame_twice_bins_each_column_once() {
    let _serial = serial();
    telemetry::install(Arc::new(telemetry::MemorySink::new()));
    let frame = frame(23);
    let evaluator = Evaluator::default();
    let start = binned();
    let first = evaluator.evaluate(&frame).unwrap();
    let once = binned();
    let second = evaluator.evaluate(&frame).unwrap();
    let twice = binned();
    telemetry::uninstall();
    let n_cols = frame.n_cols() as u64;
    assert_eq!((once.0 - start.0, once.1 - start.1), (n_cols, 0));
    assert_eq!((twice.0 - once.0, twice.1 - once.1), (0, n_cols));
    assert_eq!(first.to_bits(), second.to_bits());
}
