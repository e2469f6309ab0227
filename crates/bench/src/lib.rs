//! Shared harness for the paper's reproduction: thirteen table, figure
//! and ablation binaries on one flag parser ([`CommonArgs`]) and one
//! `{header, data, telemetry}` artifact envelope, plus `trace_tool`
//! ([`Trace`]). Performance is measured elsewhere — `benchmark/`
//! (`perf_e2e`) is the repo's one bench surface.
//!
//! Every table/figure binary accepts the same flags:
//!
//! ```text
//! --scale <f>        sample-count scale factor in (0,1]      (default 0.05)
//! --datasets <list>  comma-separated Table III names, or "all", or
//!                    "motivation" (the 4 datasets of Table I / Fig. 1)
//! --epochs1 <n>      stage-1 epochs                          (default 4)
//! --epochs2 <n>      stage-2 epochs                          (default 8)
//! --steps <n>        transformations per agent per epoch     (default 3)
//! --max-features <n> RF-importance pre-selection cap         (default 16)
//! --seed <n>         master seed                             (default 0xEAFE)
//! --out <dir>        artifact directory                      (default bench_results)
//! --threads <n>      worker-thread ceiling, 0 = all cores    (default 0)
//! --no-cache         disable score-cache sharing across runs
//! --quiet            suppress per-dataset/per-epoch progress lines
//! --metrics          print the end-of-run telemetry summary
//! --trace-out <path> stream telemetry events to a JSON-lines file
//! ```
//!
//! `--metrics` / `--trace-out` install the workspace telemetry sink for
//! the duration of the run; without them instrumentation costs one atomic
//! load per site. Every artifact's JSON envelope carries a `telemetry`
//! block (counters, histograms, span aggregates — empty when disabled).
//!
//! Paper-fidelity note: the defaults are scaled down from the paper's
//! 200-epoch runs so every binary finishes in minutes on a laptop. The
//! comparisons the paper makes are relative (who wins, by what factor),
//! which survives proportional scaling; EXPERIMENTS.md records the exact
//! settings used for the committed results.

#![warn(missing_docs)]

use eafe::{bootstrap_fpe, EafeConfig, FpeModel, FpeSearchSpace};
use learners::Evaluator;
use minhash::HashFamily;
use runtime::ScoreCache;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;
use tabular::{find_dataset, DataFrame, DatasetInfo, TARGET_DATASETS};

mod trace;

pub use trace::Trace;

/// Common command-line arguments.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Sample-count scale factor.
    pub scale: f64,
    /// Dataset names to run on.
    pub datasets: Vec<String>,
    /// Stage-1 epochs.
    pub epochs1: usize,
    /// Stage-2 epochs.
    pub epochs2: usize,
    /// Transformations per agent per epoch.
    pub steps: usize,
    /// Pre-selection cap on original features.
    pub max_features: usize,
    /// Master seed.
    pub seed: u64,
    /// Output directory for JSON artifacts.
    pub out: PathBuf,
    /// Worker-thread ceiling (0 = the machine's available parallelism).
    pub threads: usize,
    /// Score cache shared by every run this binary launches (`None` when
    /// `--no-cache` disables sharing for A/B wall-clock comparisons).
    pub cache: Option<Arc<ScoreCache<f64>>>,
    /// Suppress progress lines (`--quiet`); data tables and the telemetry
    /// summary still print.
    pub quiet: bool,
    /// Print the end-of-run telemetry summary (`--metrics`).
    pub metrics: bool,
    /// Stream telemetry events to this JSON-lines file (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// In-memory event collector backing the end-of-run summary; `Some`
    /// exactly when telemetry was switched on by `--metrics`/`--trace-out`.
    pub collector: Option<Arc<telemetry::MemorySink>>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            scale: 0.05,
            datasets: vec![
                "PimaIndian".into(),
                "credit-a".into(),
                "diabetes".into(),
                "German Credit".into(),
            ],
            epochs1: 4,
            epochs2: 8,
            steps: 3,
            max_features: 16,
            seed: 0xE_AFE,
            out: PathBuf::from("bench_results"),
            threads: 0,
            cache: Some(Arc::new(ScoreCache::new(runtime::DEFAULT_CACHE_CAPACITY))),
            quiet: false,
            metrics: false,
            trace_out: None,
            collector: None,
        }
    }
}

impl CommonArgs {
    /// Parse from `std::env::args`; unknown flags abort with usage help.
    pub fn parse() -> CommonArgs {
        let mut args = CommonArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--scale" => args.scale = value("--scale").parse().expect("float scale"),
                "--datasets" => {
                    let raw = value("--datasets");
                    args.datasets = match raw.as_str() {
                        "all" => TARGET_DATASETS.iter().map(|d| d.name.to_string()).collect(),
                        "motivation" => tabular::motivation_datasets()
                            .iter()
                            .map(|d| d.name.to_string())
                            .collect(),
                        list => list.split(',').map(|s| s.trim().to_string()).collect(),
                    };
                }
                "--epochs1" => args.epochs1 = value("--epochs1").parse().expect("int epochs1"),
                "--epochs2" => args.epochs2 = value("--epochs2").parse().expect("int epochs2"),
                "--steps" => args.steps = value("--steps").parse().expect("int steps"),
                "--max-features" => {
                    args.max_features = value("--max-features").parse().expect("int max-features")
                }
                "--seed" => args.seed = value("--seed").parse().expect("int seed"),
                "--out" => args.out = PathBuf::from(value("--out")),
                "--threads" => args.threads = value("--threads").parse().expect("int threads"),
                "--no-cache" => args.cache = None,
                "--quiet" => args.quiet = true,
                "--metrics" => args.metrics = true,
                "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out"))),
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale f --datasets list|all|motivation --epochs1 n \
                         --epochs2 n --steps n --max-features n --seed n --out dir \
                         --threads n --no-cache --quiet --metrics --trace-out path"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        assert!(
            args.scale > 0.0 && args.scale <= 1.0,
            "--scale must be in (0,1]"
        );
        runtime::set_global_threads(args.threads);
        args.install_telemetry();
        args
    }

    /// Install the telemetry sink when `--metrics` or `--trace-out` asked
    /// for it: an in-memory collector (for the end-of-run summary and the
    /// artifact `telemetry` block), fanned out to a JSON-lines file when
    /// `--trace-out` names one.
    fn install_telemetry(&mut self) {
        if !self.metrics && self.trace_out.is_none() {
            return;
        }
        let collector = Arc::new(telemetry::MemorySink::new());
        let mut sinks: Vec<Arc<dyn telemetry::Sink>> =
            vec![Arc::clone(&collector) as Arc<dyn telemetry::Sink>];
        if let Some(path) = &self.trace_out {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("create trace-out dir");
                }
            }
            let file = telemetry::JsonLinesSink::create(path)
                .unwrap_or_else(|e| panic!("open {path:?}: {e}"));
            sinks.push(Arc::new(file));
        }
        telemetry::install(Arc::new(telemetry::FanoutSink(sinks)));
        self.collector = Some(collector);
    }

    /// Resolve dataset infos, failing loudly on unknown names.
    pub fn dataset_infos(&self) -> Vec<DatasetInfo> {
        self.datasets
            .iter()
            .map(|n| find_dataset(n).unwrap_or_else(|_| panic!("unknown dataset `{n}`")))
            .collect()
    }

    /// Load one dataset at the configured scale, with RF-importance
    /// pre-selection down to `max_features` columns (the paper's §IV-B
    /// pre-step for wide datasets).
    pub fn load(&self, info: &DatasetInfo) -> DataFrame {
        let frame = info
            .load_scaled(self.scale)
            .unwrap_or_else(|e| panic!("generating {}: {e}", info.name));
        eafe::preselect_features(&frame, self.max_features, self.seed)
            .unwrap_or_else(|e| panic!("pre-selecting {}: {e}", info.name))
    }

    /// Engine configuration derived from the flags.
    pub fn config(&self) -> EafeConfig {
        let mut cfg = EafeConfig {
            stage1_epochs: self.epochs1,
            stage2_epochs: self.epochs2,
            steps_per_epoch: self.steps,
            seed: self.seed,
            ..EafeConfig::default()
        };
        cfg.evaluator = self.evaluator();
        cfg
    }

    /// The shared downstream evaluator (5-fold RF CV, small fast forests).
    pub fn evaluator(&self) -> Evaluator {
        let mut e = Evaluator {
            folds: 5,
            seed: self.seed,
            ..Evaluator::default()
        };
        e.forest.n_trees = 10;
        e.forest.tree.max_depth = 8;
        e
    }

    /// Load (or pre-train and cache) the FPE model for a hash family.
    /// Caching makes the FPE reusable across bench binaries, mirroring the
    /// paper's "the FPE model can be reused" deployment argument.
    pub fn fpe_model(&self, family: HashFamily, d: usize) -> FpeModel {
        std::fs::create_dir_all(&self.out).expect("create out dir");
        let path = self
            .out
            .join(format!("fpe_{}_{d}_{}.json", family.name(), self.seed));
        if let Ok(json) = std::fs::read_to_string(&path) {
            if let Ok(model) = FpeModel::from_json(&json) {
                return model;
            }
        }
        let space = FpeSearchSpace {
            families: vec![family],
            dims: vec![d],
            thre: 0.01, // the paper's default label threshold
            seed: self.seed,
        };
        let mut ev = self.evaluator();
        ev.folds = 3; // labelling is the expensive part; 3-fold suffices
        let model = bootstrap_fpe(12, 6, &space, &ev, self.seed)
            .expect("FPE bootstrap should succeed on the synthetic corpus");
        std::fs::write(&path, model.to_json().expect("serialise FPE")).expect("cache FPE model");
        model
    }

    /// Wrap a downstream evaluator with this binary's shared score cache
    /// (or a private one under `--no-cache`).
    pub fn cached(&self, evaluator: Evaluator) -> eafe::CachedEvaluator {
        match &self.cache {
            Some(c) => runtime::Evaluator::with_cache(evaluator, Arc::clone(c)),
            None => runtime::Evaluator::new(evaluator),
        }
    }

    /// Attach this binary's shared score cache to an engine, so every
    /// method/dataset run contributes to and benefits from one cache.
    /// No-op under `--no-cache`.
    pub fn engine(&self, engine: eafe::Engine) -> eafe::Engine {
        match &self.cache {
            Some(c) => engine.with_cache(Arc::clone(c)),
            None => engine,
        }
    }

    /// Run the AutoFS_R baseline through this binary's shared cache (a
    /// private one under `--no-cache`): its result and engineered frame.
    pub fn run_autofs_r(
        &self,
        config: &EafeConfig,
        frame: &DataFrame,
    ) -> eafe::Result<(eafe::RunResult, DataFrame)> {
        eafe::run_autofs_r(config, frame, self.cache.clone())
    }

    /// The runtime header recorded in every JSON artifact: thread count,
    /// the shared score cache's cumulative counters at write time, and the
    /// wall-clock write timestamp (timestamps live here so the captured
    /// run logs stay byte-deterministic).
    pub(crate) fn artifact_header(&self) -> ArtifactHeader {
        let stats = self.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        ArtifactHeader {
            threads: runtime::global_threads(),
            cache_shared: self.cache.is_some(),
            cache_hits: stats.hits,
            cache_misses: stats.misses,
            cache_hit_rate: stats.hit_rate(),
            cache_evictions: stats.evictions,
            written_at_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }

    /// Snapshot the telemetry state for the artifact envelope. Always
    /// present so consumers can branch on `enabled` instead of key
    /// presence; counters/histograms/spans are empty when telemetry is off.
    pub(crate) fn telemetry_block(&self) -> TelemetryBlock {
        let enabled = self.collector.is_some();
        if enabled {
            self.export_cache_counters();
        }
        let snapshot = if enabled {
            telemetry::global().snapshot()
        } else {
            telemetry::RegistrySnapshot::default()
        };
        let spans = match &self.collector {
            Some(c) => telemetry::Summary::from_events(&c.events()),
            None => telemetry::Summary::default(),
        };
        TelemetryBlock {
            enabled,
            counters: snapshot.counters,
            histograms: snapshot.histograms,
            spans,
        }
    }

    /// Mirror the score cache's totals into the metrics registry under
    /// `score_cache.*` — and the process-wide signature cache's under
    /// `sig_cache.*` — so the artifact block and `--metrics` summary
    /// carry both caches' counters.
    fn export_cache_counters(&self) {
        let mirror = |family: &str, s: runtime::CacheStats| {
            let registry = telemetry::global();
            let set = |what: &str, v: u64| {
                registry.counter(&format!("{family}.{what}")).set(v);
            };
            set("hits", s.hits);
            set("misses", s.misses);
            set("inserts", s.inserts);
            set("evictions", s.evictions);
            set("len", s.len as u64);
        };
        if let Some(cache) = &self.cache {
            mirror("score_cache", cache.stats());
        }
        let sig = runtime::sig_cache_stats();
        if sig.hits + sig.misses > 0 {
            mirror("sig_cache", sig);
        }
    }

    /// Write a JSON artifact under the output directory, wrapped in an
    /// envelope whose `header` records the runtime configuration (thread
    /// count, shared-cache counters), whose `data` is `value`, and whose
    /// `telemetry` block carries counters/histograms/span aggregates
    /// (empty unless `--metrics`/`--trace-out` enabled collection).
    pub fn write_json<T: Serialize>(&self, filename: &str, value: &T) {
        std::fs::create_dir_all(&self.out).expect("create out dir");
        let path = self.out.join(filename);
        let artifact = serde::Value::Map(vec![
            ("header".to_string(), self.artifact_header().to_value()),
            ("data".to_string(), value.to_value()),
            ("telemetry".to_string(), self.telemetry_block().to_value()),
        ]);
        let json = serde_json::to_string_pretty(&artifact).expect("serialise artifact");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        eprintln!("wrote {}", path.display());
    }

    /// End-of-run hook for every bench binary: print the shared-cache
    /// summary, render the telemetry summary when collection is on, and
    /// flush the sink so a `--trace-out` file is complete before the
    /// process exits.
    pub fn finish(&self) {
        if let Some(cache) = &self.cache {
            let stats = cache.stats();
            println!(
                "cache: {} hits / {} misses ({:.1}% hit rate), {} evictions, {} live",
                stats.hits,
                stats.misses,
                stats.hit_rate() * 100.0,
                stats.evictions,
                stats.len,
            );
        }
        let sig = runtime::sig_cache_stats();
        if sig.hits + sig.misses > 0 {
            println!(
                "sig cache: {} hits / {} misses ({:.1}% hit rate), {} evictions, {} live",
                sig.hits,
                sig.misses,
                sig.hit_rate() * 100.0,
                sig.evictions,
                sig.len,
            );
        }
        let Some(collector) = &self.collector else {
            return;
        };
        self.export_cache_counters();
        // Append every registry counter total to the event stream so a
        // `--trace-out` file is self-contained: `trace_tool`'s cache
        // report reads these without needing the artifact envelope.
        // Snapshot order is sorted by name, so traces stay deterministic.
        if self.trace_out.is_some() {
            for (name, value) in &telemetry::global().snapshot().counters {
                telemetry::emit(&telemetry::Event::Count(telemetry::CountEvent {
                    name: name.clone(),
                    value: *value,
                }));
            }
        }
        telemetry::flush();
        if !self.metrics {
            return;
        }
        let snapshot = telemetry::global().snapshot();
        if !snapshot.counters.is_empty() {
            println!("\n== telemetry counters ==");
            for (name, v) in &snapshot.counters {
                println!("{name:<40} {v}");
            }
        }
        if !snapshot.histograms.is_empty() {
            println!("\n== telemetry histograms ==");
            for (name, h) in &snapshot.histograms {
                println!(
                    "{name:<28} n={} mean={:.0} p50={} p90={} p99={} max={}",
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max,
                );
            }
        }
        let summary = telemetry::Summary::from_events(&collector.events());
        if !summary.spans.is_empty() {
            println!("\n== telemetry spans ==");
            print!("{}", summary.render());
        }
    }
}

/// Runtime provenance recorded in each artifact's `header` field.
#[derive(Debug, Clone, Serialize)]
pub struct ArtifactHeader {
    /// Worker-thread ceiling in effect.
    pub threads: usize,
    /// Whether runs shared one score cache (false under `--no-cache`).
    pub cache_shared: bool,
    /// Cumulative shared-cache hits at write time.
    pub cache_hits: u64,
    /// Cumulative shared-cache misses at write time.
    pub cache_misses: u64,
    /// Hit fraction of all shared-cache lookups.
    pub cache_hit_rate: f64,
    /// Entries evicted by the capacity bound.
    pub cache_evictions: u64,
    /// Unix timestamp (seconds) at which the artifact was written. Kept in
    /// the header — never in the captured run log — so logs stay
    /// byte-deterministic across runs.
    pub written_at_unix: u64,
}

/// Telemetry snapshot embedded as the `telemetry` key of every artifact
/// envelope. Always present; `enabled` says whether collection was on.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryBlock {
    /// Whether `--metrics`/`--trace-out` enabled collection for this run.
    pub enabled: bool,
    /// Name → value pairs of every registered counter.
    pub counters: Vec<(String, u64)>,
    /// Name → snapshot pairs of every registered histogram.
    pub histograms: Vec<(String, telemetry::HistogramSnapshot)>,
    /// Per-span-name aggregates (count, total/self/max time).
    pub spans: telemetry::Summary,
}

/// Minimal fixed-width table printer for reproducing the paper's layouts.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a score to the paper's 3-decimal convention.
pub fn fmt_score(v: f64) -> String {
    format!("{v:.3}")
}

/// Format seconds compactly.
pub fn fmt_secs(v: f64) -> String {
    if v < 1.0 {
        format!("{:.0}ms", v * 1000.0)
    } else {
        format!("{v:.1}s")
    }
}

/// Print the standard bench header so artifacts are self-describing.
pub fn print_header(what: &str, args: &CommonArgs) {
    println!("== {what} ==");
    println!(
        "settings: scale={} epochs={}+{} steps={} max_features={} seed={:#x} threads={} \
         cache={}",
        args.scale,
        args.epochs1,
        args.epochs2,
        args.steps,
        args.max_features,
        args.seed,
        runtime::global_threads(),
        if args.cache.is_some() {
            "shared"
        } else {
            "off"
        },
    );
    println!(
        "note: synthetic same-shape stand-ins for the paper's datasets; \
         sample counts scaled by the factor above (see DESIGN.md §2)\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["Dataset", "Score"]);
        t.row(vec!["PimaIndian", "0.790"]);
        t.row(vec!["x", "0.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Dataset"));
        assert!(lines[2].starts_with("PimaIndian"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_score(0.123456), "0.123");
        assert_eq!(fmt_secs(0.5), "500ms");
        assert_eq!(fmt_secs(12.34), "12.3s");
    }

    #[test]
    fn default_args_resolve_datasets() {
        let args = CommonArgs::default();
        let infos = args.dataset_infos();
        assert_eq!(infos.len(), 4);
        assert_eq!(infos[0].name, "PimaIndian");
    }

    #[test]
    fn telemetry_block_is_empty_when_disabled() {
        let args = CommonArgs::default();
        let block = args.telemetry_block();
        assert!(!block.enabled);
        assert!(block.counters.is_empty());
        assert!(block.histograms.is_empty());
        assert!(block.spans.spans.is_empty());
    }

    #[test]
    fn header_carries_write_timestamp() {
        let args = CommonArgs::default();
        // 2020-01-01 as a sanity floor: the clock is set and monotone-ish.
        assert!(args.artifact_header().written_at_unix > 1_577_836_800);
    }

    #[test]
    fn load_applies_scale_and_preselect() {
        let args = CommonArgs {
            scale: 0.1,
            max_features: 4,
            ..CommonArgs::default()
        };
        let info = find_dataset("German Credit").unwrap();
        let frame = args.load(&info);
        assert_eq!(frame.n_cols(), 4);
        assert!(frame.n_rows() <= 110);
    }
}
