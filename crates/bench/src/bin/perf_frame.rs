//! **Out-of-core data layer benchmark** — peak RSS and wall-clock of the
//! chunked columnar pipeline (`tabular::ChunkedFrame`) against the flat
//! in-RAM `DataFrame` baseline, over the three chunk consumers the
//! tentpole rewired: histogram building (`learners::BinnedColumn`),
//! MinHash sketching (`signature_indexed` over chunk-backed rows), and elementwise
//! operator application (`eafe::Operator::apply_chunk`).
//!
//! Peak RSS is `VmHWM` from `/proc/self/status` — a process-lifetime
//! high-water mark — so every measured configuration runs in its own
//! child process (the binary re-execs itself with `--child <mode>`).
//! Modes:
//!
//! - `flat` — `SynthSpec::generate()` materializes the full `f64` frame,
//!   workload runs on flat columns;
//! - `mem` — `generate_chunked` streams into an `InMemoryStore` (budget
//!   bounds *decoded* residency; encoded bytes stay in RAM);
//! - `mmap` — `generate_chunked` streams into an `MmapStore` (`.eafc`
//!   file); under a `FrameBudget` the resident working set tracks the
//!   budget, not the dataset.
//!
//! The streamed generator is a seed-pinned *sibling* of the in-RAM one
//! (same marginals, chunk-size-dependent draws), so chunked modes are
//! fingerprint-compared against each other, while flat ≡ chunked bitwise
//! identity is asserted in-process on a shared `from_dataframe` copy
//! before any child runs.
//!
//! Regenerate: `scripts/bench_frame.sh` (or
//! `cargo run -p bench --release --bin perf_frame`).
//!
//! ```text
//! --smoke              CI gate: chunked workload <= 1.15x flat at a
//!                      fit-in-RAM size, and a budget-capped mmap run
//!                      completing (with spills) at 4x-budget data size;
//!                      exit 1 on failure
//! --rows <n>           dataset rows                       (default 6000000)
//! --cols <n>           feature columns                    (default 24)
//! --chunk-rows <n>     rows per chunk                     (default 65536)
//! --budget-mb <n>      FrameBudget for budgeted modes, 0 = unbounded
//!                                                         (default 24)
//! --store mem|mmap     backend for the budgeted run       (default mmap)
//! --engine-rows <n>    also run a chunked NFS engine pass at this row
//!                      count (0 = skip)                   (default 0)
//! --engine-budget-mb <n>  FrameBudget for the engine pass (default 64)
//! --seed <n>           data seed                          (default 0xEAFE)
//! --out <dir>          artifact directory                 (default bench_results)
//! --threads <n>        worker-thread ceiling, 0 = all cores (default 0)
//! --quiet / --metrics / --trace-out <p>   as in every bench bin
//! ```

use bench::{fmt_secs, CommonArgs, TextTable};
use eafe::{EafeConfig, Engine, Operator, SplitMethod};
use learners::BinnedColumn;
use minhash::{HashFamily, RowSource, SampleCompressor, WeightBounds};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
use tabular::{
    ChunkEncoding, ChunkOptions, ChunkedFrame, ColumnStore, DataFrame, FrameBudget, InMemoryStore,
    MmapStore, SynthSpec, Task, DEFAULT_CHUNK_ROWS,
};

/// Bins for the histogram stage (the learners' default working size).
const MAX_BINS: usize = 64;
/// MinHash signature dimension for the sketch stage.
const SKETCH_D: usize = 16;
/// Rows sketched per column (both workloads sketch the same prefix). The
/// CWS draw tables are `O(rows × d)` **workload** state — at 4M rows and
/// d = 16 they alone are ~1.5 GiB, identical in every mode, which would
/// drown the data-layer RSS comparison this bench exists to make. Two
/// chunks' worth still exercises the multi-chunk sketch path.
const SKETCH_ROWS: usize = 2 * DEFAULT_CHUNK_ROWS;

// ---------------------------------------------------------------------------
// Fingerprinting — FNV-1a over value bit patterns, identical fold order in
// the flat and chunked workloads so equal data ⇒ equal fingerprint.
// ---------------------------------------------------------------------------

fn fnv_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100000001b3)
}

/// Peak resident set size of this process, in KiB (`VmHWM`).
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn sketcher(seed: u64) -> SampleCompressor {
    SampleCompressor::new(HashFamily::Ccws, SKETCH_D, seed).expect("valid compressor")
}

/// The three-consumer workload over flat columns; returns the fingerprint.
fn workload_flat(df: &DataFrame, seed: u64) -> u64 {
    let c = sketcher(seed);
    let mut h: u64 = 0xcbf29ce484222325;
    for j in 0..df.n_cols() {
        let values = &df.column(j).expect("column").values;
        // 1. Histogram codes.
        let b = BinnedColumn::build(values, MAX_BINS);
        h = fnv_mix(h, b.n_bins() as u64);
        for r in 0..values.len() {
            h = fnv_mix(h, b.codes().get(r) as u64);
        }
        // 2. MinHash compressed representation (capped prefix; see
        //    SKETCH_ROWS).
        let cap = values.len().min(SKETCH_ROWS);
        let compressed = c.compress_normalized(&values[..cap]).expect("compress");
        for v in &compressed {
            h = fnv_mix(h, v.to_bits());
        }
        // 3. Elementwise operator pass.
        let out = Operator::Log.apply(values, &[]);
        for v in &out {
            h = fnv_mix(h, v.to_bits());
        }
    }
    h
}

/// The first `n_rows` rows of one frame column as the MinHash kernel's
/// row source, fetched through the frame's budget.
struct FrameRows<'a> {
    frame: &'a ChunkedFrame,
    col: usize,
    n_rows: usize,
}

impl RowSource for FrameRows<'_> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn value_at(&self, k: usize) -> f64 {
        self.frame.value_at(self.col, k).expect("value")
    }

    fn for_each_run(&self, mut f: impl FnMut(&[f64])) {
        let chunk_rows = self.frame.chunk_rows();
        let mut buf = Vec::with_capacity(chunk_rows);
        for k in 0..self.n_rows.div_ceil(chunk_rows) {
            let enc = self.frame.chunk(self.col, k).expect("chunk");
            enc.decode_into(&mut buf);
            f(&buf[..buf.len().min(self.n_rows - k * chunk_rows)]);
        }
    }
}

/// The same workload over chunked columns: histogram from encoded chunks,
/// sketch over chunk-backed rows, operator applied per chunk. On equal
/// data this is bit-identical to [`workload_flat`].
fn workload_chunked(frame: &ChunkedFrame, seed: u64) -> u64 {
    let c = sketcher(seed);
    let chunk_rows = frame.chunk_rows();
    let mut h: u64 = 0xcbf29ce484222325;
    let mut buf: Vec<f64> = Vec::with_capacity(chunk_rows);
    let mut out: Vec<f64> = Vec::with_capacity(chunk_rows);
    for j in 0..frame.n_cols() {
        // 1. Histogram codes straight from the encoded chunks. The binned
        //    builder needs the whole column's encodings at once (its
        //    thresholds are full-column quantiles), so this stage pins one
        //    column of Arc handles; they are dropped before the streaming
        //    stages so the FrameBudget governs residency everywhere else.
        let handles: Vec<Arc<ChunkEncoding>> = (0..frame.n_chunks())
            .map(|k| frame.chunk(j, k).expect("chunk"))
            .collect();
        let b = BinnedColumn::build_chunked(&handles, MAX_BINS);
        drop(handles);
        h = fnv_mix(h, b.n_bins() as u64);
        for r in 0..frame.n_rows() {
            h = fnv_mix(h, b.codes().get(r) as u64);
        }
        // 2. MinHash: bounds pass, then indexed sketch + keyed gather,
        //    over the same capped prefix as the flat workload. Chunks are
        //    re-fetched on demand — the budget's LRU decides what stays.
        let rows = FrameRows {
            frame,
            col: j,
            n_rows: frame.n_rows().min(SKETCH_ROWS),
        };
        let mut bounds = WeightBounds::new();
        rows.for_each_run(|run| bounds.absorb(run));
        let sig = c.signature_indexed(bounds, &rows).expect("signature");
        let mut compressed: Vec<f64> = sig
            .keys()
            .map(|k| SampleCompressor::gather_value(rows.value_at(k)))
            .collect();
        SampleCompressor::normalize(&mut compressed);
        for v in &compressed {
            h = fnv_mix(h, v.to_bits());
        }
        // 3. Elementwise operator pass, chunk-at-a-time, on-demand fetch.
        for k in 0..frame.n_chunks() {
            let enc = frame.chunk(j, k).expect("chunk");
            enc.decode_into(&mut buf);
            out.clear();
            Operator::Log.apply_chunk(&buf, &[], None, &mut out);
            for v in &out {
                h = fnv_mix(h, v.to_bits());
            }
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Child processes — one per measured configuration.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ChildResult {
    mode: String,
    rows: usize,
    cols: usize,
    chunk_rows: usize,
    budget_mb: u64,
    gen_secs: f64,
    workload_secs: f64,
    total_secs: f64,
    vm_hwm_kb: u64,
    /// Workload fingerprint (hex), or the engine's best score bits.
    fingerprint: String,
    chunks_spilled: u64,
    chunks_loaded: u64,
    encoded_bytes: u64,
}

fn budget(mb: u64) -> FrameBudget {
    if mb == 0 {
        FrameBudget::unbounded()
    } else {
        FrameBudget::from_mib(mb)
    }
}

fn spec(rows: usize, cols: usize, seed: u64) -> SynthSpec {
    SynthSpec::new("frame-bench", rows, cols, Task::Classification).with_seed(seed)
}

fn eafc_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("perf_frame_{}_{tag}.eafc", std::process::id()))
}

fn make_store(mode: &str, tag: &str) -> Box<dyn ColumnStore> {
    if mode == "mmap" {
        Box::new(MmapStore::create(eafc_path(tag)).expect("create .eafc"))
    } else {
        Box::new(InMemoryStore::new())
    }
}

/// One measured pipeline in this (child) process. Prints a `RESULT` line.
fn run_child(mode: &str, rows: usize, cols: usize, chunk_rows: usize, budget_mb: u64, seed: u64) {
    let start = Instant::now();
    let result = match mode {
        "flat" => {
            let df = spec(rows, cols, seed).generate().expect("generate");
            let gen_secs = start.elapsed().as_secs_f64();
            let w = Instant::now();
            let fp = workload_flat(&df, seed);
            finish_child(
                mode,
                rows,
                cols,
                chunk_rows,
                budget_mb,
                gen_secs,
                w,
                start,
                format!("{fp:016x}"),
                0,
            )
        }
        "mem" | "mmap" => {
            let opts = ChunkOptions::default()
                .with_chunk_rows(chunk_rows)
                .with_budget(budget(budget_mb));
            let frame = spec(rows, cols, seed)
                .generate_chunked(opts, make_store(mode, "data"))
                .expect("generate_chunked");
            let gen_secs = start.elapsed().as_secs_f64();
            let w = Instant::now();
            let fp = workload_chunked(&frame, seed);
            let enc = frame.encoded_bytes();
            let mut r = finish_child(
                mode,
                rows,
                cols,
                chunk_rows,
                budget_mb,
                gen_secs,
                w,
                start,
                format!("{fp:016x}"),
                enc,
            );
            let stats = frame.stats();
            r.chunks_spilled = stats.chunks_spilled;
            r.chunks_loaded = stats.chunks_loaded;
            r
        }
        "engine" => {
            // A full (small-config) NFS engine pass over an out-of-core
            // frame: the acceptance-criterion run that must complete with
            // the budget below the dataset's f64 footprint.
            let opts = ChunkOptions::default()
                .with_chunk_rows(chunk_rows)
                .with_budget(budget(budget_mb));
            let frame = spec(rows, cols, seed)
                .generate_chunked(opts, make_store("mmap", "engine"))
                .expect("generate_chunked");
            let gen_secs = start.elapsed().as_secs_f64();
            let mut cfg = EafeConfig::fast();
            cfg.seed = seed;
            cfg.max_order = 3;
            cfg.steps_per_epoch = 1;
            cfg.stage2_epochs = 1;
            cfg.evaluator.folds = 2;
            cfg.evaluator.forest.n_trees = 4;
            cfg.evaluator.forest.tree.max_depth = 5;
            cfg.evaluator.forest.tree.split = SplitMethod::Histogram;
            let w = Instant::now();
            let (res, eng) = Engine::nfs(cfg).run_chunked(frame).expect("engine run");
            let enc = eng.encoded_bytes();
            let mut r = finish_child(
                mode,
                rows,
                cols,
                chunk_rows,
                budget_mb,
                gen_secs,
                w,
                start,
                format!(
                    "best={:016x} evals={}",
                    res.best_score.to_bits(),
                    res.downstream_evals
                ),
                enc,
            );
            let stats = eng.stats();
            r.chunks_spilled = stats.chunks_spilled;
            r.chunks_loaded = stats.chunks_loaded;
            r
        }
        other => panic!("unknown child mode {other}"),
    };
    let _ = std::fs::remove_file(eafc_path("data"));
    let _ = std::fs::remove_file(eafc_path("engine"));
    println!(
        "RESULT {}",
        serde_json::to_string(&result).expect("serialize result")
    );
}

#[allow(clippy::too_many_arguments)]
fn finish_child(
    mode: &str,
    rows: usize,
    cols: usize,
    chunk_rows: usize,
    budget_mb: u64,
    gen_secs: f64,
    workload_start: Instant,
    start: Instant,
    fingerprint: String,
    encoded_bytes: u64,
) -> ChildResult {
    ChildResult {
        mode: mode.to_string(),
        rows,
        cols,
        chunk_rows,
        budget_mb,
        gen_secs,
        workload_secs: workload_start.elapsed().as_secs_f64(),
        total_secs: start.elapsed().as_secs_f64(),
        vm_hwm_kb: vm_hwm_kb(),
        fingerprint,
        chunks_spilled: 0,
        chunks_loaded: 0,
        encoded_bytes,
    }
}

/// Re-exec this binary to run one configuration in a fresh process (so
/// each mode gets its own `VmHWM`). A failing child fails this run with
/// its own exit code (see `bench::run_self_child`).
fn spawn_child(args: &Args, mode: &str, rows: usize, budget_mb: u64) -> ChildResult {
    let child_args: Vec<String> = [
        "--child",
        mode,
        "--rows",
        &rows.to_string(),
        "--cols",
        &args.cols.to_string(),
        "--chunk-rows",
        &args.chunk_rows.to_string(),
        "--budget-mb",
        &budget_mb.to_string(),
        "--seed",
        &args.seed.to_string(),
        "--threads",
        &args.threads.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let what = format!("mode {mode}");
    let stdout = bench::run_self_child(&child_args, &what);
    serde_json::from_str(bench::child_result_line(&stdout, &what)).expect("parse child result")
}

// ---------------------------------------------------------------------------
// Parent
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct Data {
    rows: usize,
    cols: usize,
    chunk_rows: usize,
    budget_mb: u64,
    store: String,
    flat_f64_mb: f64,
    runs: Vec<ChildResult>,
    /// Chunked (unbounded, in-RAM) workload vs flat workload, percent.
    workload_overhead_pct: f64,
    /// Flat peak RSS over the budgeted out-of-core run's peak RSS.
    rss_reduction: f64,
    engine: Option<ChildResult>,
}

struct Args {
    smoke: bool,
    rows: usize,
    cols: usize,
    chunk_rows: usize,
    budget_mb: u64,
    store: String,
    engine_rows: usize,
    engine_budget_mb: u64,
    seed: u64,
    threads: usize,
    child: Option<String>,
    common: CommonArgs,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        rows: 6_000_000,
        cols: 24,
        chunk_rows: DEFAULT_CHUNK_ROWS,
        budget_mb: 24,
        store: "mmap".to_string(),
        engine_rows: 0,
        engine_budget_mb: 64,
        seed: 0xE_AFE,
        threads: 0,
        child: None,
        common: CommonArgs::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--rows" => args.rows = value("--rows").parse().expect("int rows"),
            "--cols" => args.cols = value("--cols").parse().expect("int cols"),
            "--chunk-rows" => {
                args.chunk_rows = value("--chunk-rows").parse().expect("int chunk-rows")
            }
            "--budget-mb" => args.budget_mb = value("--budget-mb").parse().expect("int budget-mb"),
            "--store" => {
                args.store = value("--store");
                assert!(
                    args.store == "mem" || args.store == "mmap",
                    "--store must be mem|mmap"
                );
            }
            "--engine-rows" => {
                args.engine_rows = value("--engine-rows").parse().expect("int engine-rows")
            }
            "--engine-budget-mb" => {
                args.engine_budget_mb = value("--engine-budget-mb")
                    .parse()
                    .expect("int engine-budget-mb")
            }
            "--seed" => args.seed = value("--seed").parse().expect("int seed"),
            "--threads" => args.threads = value("--threads").parse().expect("int threads"),
            "--child" => args.child = Some(value("--child")),
            "--out" => args.common.out = std::path::PathBuf::from(value("--out")),
            "--quiet" => args.common.quiet = true,
            "--metrics" => args.common.metrics = true,
            "--trace-out" => {
                args.common.trace_out = Some(std::path::PathBuf::from(value("--trace-out")))
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --smoke --rows n --cols n --chunk-rows n --budget-mb n \
                     --store mem|mmap --engine-rows n --engine-budget-mb n --seed n \
                     --out dir --threads n --quiet --metrics --trace-out path"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    assert!(args.chunk_rows > 0, "--chunk-rows must be >= 1");
    runtime::set_global_threads(args.threads);
    args.common.install_telemetry();
    args
}

/// Flat ≡ chunked bitwise identity on *identical* data: `from_dataframe`
/// is a bit-copy of the flat frame, so the two workloads must agree.
fn assert_flat_chunked_parity(seed: u64) {
    let df = SynthSpec::new("frame-parity", 30_000, 6, Task::Classification)
        .with_seed(seed)
        .generate()
        .expect("generate parity frame");
    let flat_fp = workload_flat(&df, seed);
    let cf = ChunkedFrame::from_dataframe(
        &df,
        ChunkOptions::default().with_chunk_rows(4096),
        Box::new(InMemoryStore::new()),
    )
    .expect("from_dataframe");
    let chunked_fp = workload_chunked(&cf, seed);
    assert_eq!(
        format!("{flat_fp:016x}"),
        format!("{chunked_fp:016x}"),
        "flat and chunked workloads diverged on identical data"
    );
}

fn mb(kb: u64) -> f64 {
    kb as f64 / 1024.0
}

fn main() {
    let args = parse_args();
    if let Some(mode) = &args.child {
        run_child(
            mode,
            args.rows,
            args.cols,
            args.chunk_rows,
            args.budget_mb,
            args.seed,
        );
        return;
    }

    println!("== perf_frame: out-of-core chunked data layer vs flat in-RAM frames ==");
    let flat_f64_mb = (args.rows * args.cols * 8) as f64 / (1024.0 * 1024.0);
    println!(
        "settings: rows={} cols={} ({:.0} MiB as f64) chunk_rows={} budget={} MiB store={} threads={}",
        args.rows,
        args.cols,
        flat_f64_mb,
        args.chunk_rows,
        args.budget_mb,
        args.store,
        runtime::global_threads(),
    );
    assert_flat_chunked_parity(args.seed);
    println!("parity ok: flat == chunked workload fingerprints on identical data");

    if args.smoke {
        run_smoke(&args);
        return;
    }

    // Artifact run: flat baseline, fit-in-RAM chunked (unbounded memory
    // store), and the budgeted out-of-core configuration.
    let flat = spawn_child(&args, "flat", args.rows, 0);
    let mem = spawn_child(&args, "mem", args.rows, 0);
    let capped = spawn_child(&args, &args.store, args.rows, args.budget_mb);
    assert_eq!(
        mem.fingerprint, capped.fingerprint,
        "budgeted {} run diverged from unbounded chunked run",
        args.store
    );

    let mut runs = vec![flat.clone(), mem.clone(), capped.clone()];
    let engine = if args.engine_rows > 0 {
        // The engine pass uses a narrow frame (4 columns) so the search
        // has few agents; the point is out-of-core completion, not score.
        let e_args = Args {
            smoke: false,
            rows: args.engine_rows,
            cols: 4,
            chunk_rows: args.chunk_rows,
            budget_mb: args.engine_budget_mb,
            store: "mmap".to_string(),
            engine_rows: 0,
            engine_budget_mb: 0,
            seed: args.seed,
            threads: args.threads,
            child: None,
            common: CommonArgs::default(),
        };
        let r = spawn_child(&e_args, "engine", args.engine_rows, args.engine_budget_mb);
        println!(
            "engine: {} rows under {} MiB budget -> {} in {} (peak RSS {:.0} MiB, {} spills)",
            args.engine_rows,
            args.engine_budget_mb,
            r.fingerprint,
            fmt_secs(r.total_secs),
            mb(r.vm_hwm_kb),
            r.chunks_spilled,
        );
        runs.push(r.clone());
        Some(r)
    } else {
        None
    };

    let overhead_pct = (mem.workload_secs / flat.workload_secs - 1.0) * 100.0;
    let rss_reduction = flat.vm_hwm_kb as f64 / capped.vm_hwm_kb as f64;

    let mut table = TextTable::new(vec![
        "Mode",
        "Budget",
        "Gen",
        "Workload",
        "Peak RSS",
        "Spills",
        "Fingerprint",
    ]);
    for r in &runs {
        table.row(vec![
            r.mode.clone(),
            if r.budget_mb == 0 {
                "-".to_string()
            } else {
                format!("{} MiB", r.budget_mb)
            },
            fmt_secs(r.gen_secs),
            fmt_secs(r.workload_secs),
            format!("{:.0} MiB", mb(r.vm_hwm_kb)),
            r.chunks_spilled.to_string(),
            r.fingerprint.clone(),
        ]);
    }
    table.print();
    println!(
        "chunked workload overhead (fit-in-RAM): {overhead_pct:+.1}%  |  peak-RSS reduction \
         (flat / budgeted {}): {rss_reduction:.1}x",
        args.store
    );
    if overhead_pct > 15.0 {
        eprintln!("WARNING: chunked workload overhead above the 15% target");
    }
    if rss_reduction < 4.0 {
        eprintln!("WARNING: peak-RSS reduction below the 4x target");
    }

    args.common.write_json(
        "BENCH_frame.json",
        &Data {
            rows: args.rows,
            cols: args.cols,
            chunk_rows: args.chunk_rows,
            budget_mb: args.budget_mb,
            store: args.store.clone(),
            flat_f64_mb,
            runs,
            workload_overhead_pct: overhead_pct,
            rss_reduction,
            engine,
        },
    );
    args.common.finish();
}

/// The CI gate: small enough to run in release CI, strict enough to catch
/// a broken chunk pipeline or a pathological slowdown.
fn run_smoke(args: &Args) {
    let rows = if args.rows == 4_000_000 {
        400_000
    } else {
        args.rows
    };
    let cols = if args.cols == 12 { 8 } else { args.cols };
    let chunk_rows = if args.chunk_rows == DEFAULT_CHUNK_ROWS {
        32_768
    } else {
        args.chunk_rows
    };
    let smoke_args = Args {
        smoke: true,
        rows,
        cols,
        chunk_rows,
        budget_mb: args.budget_mb,
        store: args.store.clone(),
        engine_rows: 0,
        engine_budget_mb: 0,
        seed: args.seed,
        threads: args.threads,
        child: None,
        common: CommonArgs::default(),
    };
    // Budget at a quarter of the dataset's f64 footprint: the capped run
    // below therefore processes 4x its RAM budget.
    let f64_mb = (rows * cols * 8) as f64 / (1024.0 * 1024.0);
    let budget_mb = ((f64_mb / 4.0) as u64).max(1);

    // Two timing samples per timed mode; min taken (smoke sizes are small
    // enough for scheduler noise to matter).
    let flat = [
        spawn_child(&smoke_args, "flat", rows, 0),
        spawn_child(&smoke_args, "flat", rows, 0),
    ];
    let mem = [
        spawn_child(&smoke_args, "mem", rows, 0),
        spawn_child(&smoke_args, "mem", rows, 0),
    ];
    let capped = spawn_child(&smoke_args, "mmap", rows, budget_mb);

    let flat_secs = flat[0].workload_secs.min(flat[1].workload_secs);
    let mem_secs = mem[0].workload_secs.min(mem[1].workload_secs);
    let ratio = mem_secs / flat_secs;
    println!(
        "workload: flat {} chunked {} ({:.2}x) | capped mmap run: {} spills, fp {}",
        fmt_secs(flat_secs),
        fmt_secs(mem_secs),
        ratio,
        capped.chunks_spilled,
        capped.fingerprint,
    );
    let mut failed = false;
    if mem[0].fingerprint != capped.fingerprint {
        eprintln!("SMOKE FAIL: budget-capped mmap fingerprint diverged from in-RAM chunked");
        failed = true;
    }
    if capped.chunks_spilled == 0 {
        eprintln!(
            "SMOKE FAIL: {} MiB budget over {:.0} MiB data produced no spills",
            budget_mb, f64_mb
        );
        failed = true;
    }
    if ratio > 1.15 {
        eprintln!("SMOKE FAIL: chunked workload {ratio:.2}x flat (target <= 1.15x)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("smoke ok: parity, spill-under-budget completion, and overhead within 15%");
}
