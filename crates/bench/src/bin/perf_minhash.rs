//! **MinHash sketch benchmark** — naive scalar sketching vs the
//! table-driven and batch kernels, plus the content-addressed signature
//! cache, at paper-scale shapes (d = 48, 1k–10k rows, 100–1000 columns)
//! and one tall shape (80k rows), each over two column mixes:
//!
//! - **smooth** — bounded waves, weights spread over `[0, 1]`: the table
//!   kernel's bound-ordered visit settles every hash index after a handful
//!   of rows;
//! - **skewed** — one-sided heavy tails (reciprocals of near-zero values),
//!   nearly every weight at the floor: the visit runs out of prefix and the
//!   sketch is the dense scan — the table kernel's worst case.
//!
//! For each shape and mix the binary sketches every column through the
//! compressor's `to_weights` weighting under three paths:
//!
//! - **naive** — `WeightedMinHasher::signature`, re-deriving every
//!   `(i, k)` draw per column (the pre-PR-4 hot loop);
//! - **table** — `signature_tabled`, per-column lookups into the
//!   precomputed [`DrawTables`] (warm-table regime; the one-off build
//!   cost, prefix index included, is its own column);
//! - **batch** — `signature_batch`, all columns in one call.
//!
//! All three produce bit-identical signatures (asserted every run). A
//! final section times a cold vs warm `compress_normalized_batch` through
//! the runtime's signature cache and reports the warm pass's cache misses
//! (zero when the cache is doing its job).
//!
//! Regenerate: `scripts/bench_minhash.sh` (or
//! `cargo run -p bench --release --bin perf_minhash`).
//!
//! ```text
//! --family <f>   ccws|icws|pcws|0bit|minhash|all     (default ccws)
//! --dim <d>      signature dimension                 (default 48)
//! --rows <n>     override the shape grid: rows       (with --cols)
//! --cols <n>     override the shape grid: columns    (with --rows)
//! --naive / --table / --batch
//!                time only the named paths           (default: all)
//! --no-cache     skip the signature-cache section
//! --smoke        one small shape, both mixes, 1 repeat, no artifact; exit
//!                1 if the table path is slower than naive (the CI gate)
//! --repeats <n>  timing repeats per cell, min taken  (default 2)
//! --seed <n>     data + hasher seed                  (default 0xEAFE)
//! --out <dir>    artifact directory                  (default bench_results)
//! --threads <n>  worker-thread ceiling, 0 = all      (default 0)
//! --quiet        suppress per-shape progress lines
//! --metrics      end-of-run telemetry counter/histogram summary
//! --trace-out <path>  JSON-lines telemetry event stream
//! ```
//!
//! [`DrawTables`]: minhash::DrawTables

use bench::{fmt_secs, CommonArgs, TextTable};
use minhash::{HashFamily, SampleCompressor, Signature, WeightedMinHasher};
use serde::Serialize;
use std::time::Instant;

/// Paper-shaped (rows, columns) grid at the default d = 48.
const SHAPES: &[(usize, usize)] = &[(1000, 100), (5000, 500), (10_000, 1000), (80_000, 32)];
const SMOKE_SHAPE: (usize, usize) = (1000, 100);

#[derive(Serialize)]
struct Row {
    mix: &'static str,
    family: String,
    d: usize,
    rows: usize,
    cols: usize,
    naive_secs: f64,
    table_secs: f64,
    batch_secs: f64,
    table_build_secs: f64,
    speedup_table: f64,
    speedup_batch: f64,
    cache_cold_secs: f64,
    cache_warm_secs: f64,
    cache_warm_misses: u64,
}

struct Args {
    families: Vec<HashFamily>,
    dim: usize,
    shape: Option<(usize, usize)>,
    run_naive: bool,
    run_table: bool,
    run_batch: bool,
    cache_section: bool,
    smoke: bool,
    repeats: usize,
    seed: u64,
    common: CommonArgs,
}

fn parse_family(name: &str) -> Vec<HashFamily> {
    match name {
        "ccws" => vec![HashFamily::Ccws],
        "icws" => vec![HashFamily::Icws],
        "pcws" => vec![HashFamily::Pcws],
        "0bit" | "zerobit" => vec![HashFamily::ZeroBitCws],
        "minhash" => vec![HashFamily::MinHash],
        "all" => HashFamily::ALL.to_vec(),
        other => panic!("--family must be ccws|icws|pcws|0bit|minhash|all, got {other}"),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        families: vec![HashFamily::Ccws],
        dim: 48,
        shape: None,
        run_naive: false,
        run_table: false,
        run_batch: false,
        cache_section: true,
        smoke: false,
        repeats: 2,
        seed: 0xE_AFE,
        common: CommonArgs::default(),
    };
    let (mut rows, mut cols) = (None, None);
    let mut threads = 0usize;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--family" => args.families = parse_family(&value("--family")),
            "--dim" => args.dim = value("--dim").parse().expect("int dim"),
            "--rows" => rows = Some(value("--rows").parse().expect("int rows")),
            "--cols" => cols = Some(value("--cols").parse().expect("int cols")),
            "--naive" => args.run_naive = true,
            "--table" => args.run_table = true,
            "--batch" => args.run_batch = true,
            "--no-cache" => args.cache_section = false,
            "--smoke" => args.smoke = true,
            "--repeats" => args.repeats = value("--repeats").parse().expect("int repeats"),
            "--seed" => args.seed = value("--seed").parse().expect("int seed"),
            "--out" => args.common.out = std::path::PathBuf::from(value("--out")),
            "--threads" => threads = value("--threads").parse().expect("int threads"),
            "--quiet" => args.common.quiet = true,
            "--metrics" => args.common.metrics = true,
            "--trace-out" => {
                args.common.trace_out = Some(std::path::PathBuf::from(value("--trace-out")))
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --family ccws|icws|pcws|0bit|minhash|all --dim n --rows n \
                     --cols n --naive --table --batch --no-cache --smoke --repeats n \
                     --seed n --out dir --threads n --quiet --metrics --trace-out path"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    // No path flag = time every path.
    if !(args.run_naive || args.run_table || args.run_batch) {
        args.run_naive = true;
        args.run_table = true;
        args.run_batch = true;
    }
    match (rows, cols) {
        (Some(r), Some(c)) => args.shape = Some((r, c)),
        (None, None) => {}
        _ => panic!("--rows and --cols must be given together"),
    }
    assert!(args.repeats >= 1, "--repeats must be >= 1");
    assert!(args.dim >= 1, "--dim must be >= 1");
    runtime::set_global_threads(threads);
    args.common.install_telemetry();
    args
}

/// The column mixes, in report order.
const MIXES: [&str; 2] = ["smooth", "skewed"];

/// Deterministic synthetic columns: all-finite, distinct content per
/// column (so every column is a distinct cache entry). `smooth` is a
/// bounded wave; `skewed` the reciprocal of an equidistributed sequence on
/// `(0, 1)` — `recip` of anything that comes close to zero: a handful of
/// rows up to 10⁶, the rest near 1, so min-max weighting leaves all but a
/// few dozen rows at the floor.
fn make_columns(mix: &str, rows: usize, cols: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..cols)
        .map(|j| {
            let phase = (seed.wrapping_add(j as u64) % 997) as f64 * 0.013;
            (0..rows)
                .map(|i| match mix {
                    "smooth" => ((i as f64) * 0.37 + (j as f64) * 1.73 + phase).sin() * 5.0,
                    _ => 1.0 / (((i as f64) * 0.618_033_988_749_895 + phase).fract() + 1e-6),
                })
                .collect()
        })
        .collect()
}

/// Minimum wall-clock of `f` over `repeats` runs; `f` must return the
/// signatures so the work cannot be optimised away (and so parity between
/// paths can be asserted).
fn time_sketch(repeats: usize, mut f: impl FnMut() -> Vec<Signature>) -> (f64, Vec<Signature>) {
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..repeats {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, out)
}

fn main() {
    let args = parse_args();
    let shapes: Vec<(usize, usize)> = match (args.smoke, args.shape) {
        (true, _) => vec![SMOKE_SHAPE],
        (false, Some(s)) => vec![s],
        (false, None) => SHAPES.to_vec(),
    };
    let repeats = if args.smoke { 1 } else { args.repeats };
    println!("== perf_minhash: naive vs table vs batch sketching ==");
    println!(
        "settings: d={} repeats={repeats} seed={:#x} threads={} families={}",
        args.dim,
        args.seed,
        runtime::global_threads(),
        args.families
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(","),
    );

    let mut table = TextTable::new(vec![
        "Mix",
        "Family",
        "Shape",
        "Naive",
        "Table",
        "Batch",
        "Build (once)",
        "Speedup T",
        "Speedup B",
        "Cache cold/warm",
        "Warm miss",
    ]);
    let mut rows_out = Vec::new();
    // One (family, shape, mix) cell per iteration.
    let cells = args
        .families
        .iter()
        .flat_map(|&f| shapes.iter().map(move |&s| (f, s)))
        .flat_map(|(f, s)| MIXES.map(|mix| (f, s, mix)));
    for (family, (n_rows, n_cols), mix) in cells {
        let columns = make_columns(mix, n_rows, n_cols, args.seed);
        let hasher = WeightedMinHasher::new(family, args.dim, args.seed).expect("hasher");
        let compressor = SampleCompressor::new(family, args.dim, args.seed).expect("compressor");
        let weights: Vec<Vec<f64>> = columns
            .iter()
            .map(|c| SampleCompressor::to_weights(c))
            .collect();
        let wrefs: Vec<&[f64]> = weights.iter().map(Vec::as_slice).collect();

        // One-off table build (the warm-up that also makes the timed
        // table/batch passes see the engine's steady-state regime).
        let t = Instant::now();
        hasher
            .signature_tabled(&vec![1.0; n_rows])
            .expect("warm-up signature");
        let table_build_secs = t.elapsed().as_secs_f64();

        let (naive_secs, naive_sigs) = if args.run_naive {
            time_sketch(repeats, || {
                wrefs
                    .iter()
                    .map(|w| hasher.signature(w).expect("naive signature"))
                    .collect()
            })
        } else {
            (0.0, Vec::new())
        };
        let (table_secs, table_sigs) = if args.run_table {
            time_sketch(repeats, || {
                wrefs
                    .iter()
                    .map(|w| hasher.signature_tabled(w).expect("tabled signature"))
                    .collect()
            })
        } else {
            (0.0, Vec::new())
        };
        let (batch_secs, batch_sigs) = if args.run_batch {
            time_sketch(repeats, || {
                hasher.signature_batch(&wrefs).expect("batch signature")
            })
        } else {
            (0.0, Vec::new())
        };
        if args.run_naive && args.run_table {
            assert_eq!(naive_sigs, table_sigs, "table path diverged from naive");
        }
        if args.run_naive && args.run_batch {
            assert_eq!(naive_sigs, batch_sigs, "batch path diverged from naive");
        }

        let (mut cache_cold, mut cache_warm, mut warm_misses) = (0.0, 0.0, 0u64);
        if args.cache_section {
            let crefs: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
            let t = Instant::now();
            let cold = runtime::compress_normalized_batch(&compressor, &crefs)
                .expect("cold batch compress");
            cache_cold = t.elapsed().as_secs_f64();
            let before = runtime::sig_cache_stats();
            let t = Instant::now();
            let warm = runtime::compress_normalized_batch(&compressor, &crefs)
                .expect("warm batch compress");
            cache_warm = t.elapsed().as_secs_f64();
            warm_misses = runtime::sig_cache_stats().misses - before.misses;
            assert_eq!(cold, warm, "warm cache pass changed the output");
        }

        let div = |a: f64, b: f64| if a > 0.0 && b > 0.0 { a / b } else { 0.0 };
        let speedup_table = div(naive_secs, table_secs);
        let speedup_batch = div(naive_secs, batch_secs);
        if !args.common.quiet {
            eprintln!(
                "  {} {n_rows}x{n_cols} {mix}: table {speedup_table:.2}x, batch {speedup_batch:.2}x",
                family.name()
            );
        }
        table.row(vec![
            mix.to_string(),
            family.name().to_string(),
            format!("{n_rows}x{n_cols}"),
            fmt_secs(naive_secs),
            fmt_secs(table_secs),
            fmt_secs(batch_secs),
            fmt_secs(table_build_secs),
            format!("{speedup_table:.2}x"),
            format!("{speedup_batch:.2}x"),
            format!("{}/{}", fmt_secs(cache_cold), fmt_secs(cache_warm)),
            warm_misses.to_string(),
        ]);
        rows_out.push(Row {
            mix,
            family: family.name().to_string(),
            d: args.dim,
            rows: n_rows,
            cols: n_cols,
            naive_secs,
            table_secs,
            batch_secs,
            table_build_secs,
            speedup_table,
            speedup_batch,
            cache_cold_secs: cache_cold,
            cache_warm_secs: cache_warm,
            cache_warm_misses: warm_misses,
        });
    }
    table.print();

    if args.smoke {
        for r in &rows_out {
            if r.naive_secs > 0.0 && r.table_secs > r.naive_secs {
                eprintln!(
                    "SMOKE FAIL: {} {} table path ({}) slower than naive ({})",
                    r.mix,
                    r.family,
                    fmt_secs(r.table_secs),
                    fmt_secs(r.naive_secs)
                );
                std::process::exit(1);
            }
            if r.cache_warm_misses > 0 {
                eprintln!(
                    "SMOKE FAIL: {} warm cache pass missed {} times",
                    r.family, r.cache_warm_misses
                );
                std::process::exit(1);
            }
        }
        println!("smoke ok: table <= naive, warm cache miss-free");
        args.common.finish();
        return;
    }
    args.common.write_json("BENCH_minhash.json", &rows_out);
    args.common.finish();
}
