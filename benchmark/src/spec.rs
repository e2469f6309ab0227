//! The benchmark's fixed vocabulary: workload names and sizes, and every
//! metric name with its unit, direction and source. `BENCHMARK.json` at
//! the repo root lists the same names; `--smoke` checks the two agree.

/// Default seed of the committed baseline.
pub const DEFAULT_SEED: u64 = 60158;
/// Worker-thread budget every workload pins (the host has 2 cores).
pub const THREADS: usize = 2;

pub const WORKLOADS: [&str; 5] = [
    "eafe_table",
    "nfs_table",
    "eafe_tall",
    "serve_4t",
    "dist_2w",
];

/// One line per workload: why it exists (also in `BENCHMARK.json`).
pub fn why(workload: &str) -> &'static str {
    match workload {
        "eafe_table" => "the paper's method on a table: FPE gate, MinHash, policy and cache reads carry the search",
        "nfs_table" => "same tables and config without the gate: learners carry the search, the cache sees writes",
        "eafe_tall" => "rows dominate: streamed sketches, chunk spill/fetch and the large-node histogram path",
        "serve_4t" => "four tenants share one job server and one score cache: scheduler and concurrent cache use",
        "dist_2w" => "coordinator and two TCP worker processes, no synthetic delay: wire, shards and merge",
        _ => "",
    }
}

/// Input and search sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub rows: usize,
    pub cols: usize,
    /// Columns kept by `preselect_features` (table workloads).
    pub preselect: usize,
    pub stage1_epochs: usize,
    pub stage2_epochs: usize,
    pub steps: usize,
    pub folds: usize,
    pub trees: usize,
    pub depth: usize,
    /// Panel searches of one run (searches 1..=members; search 0 is the
    /// seed's own), sized so that on the reference host they take 5 to
    /// 15 s together and a whole run 17 to 22 s.
    pub members: usize,
}

/// Sizes of `workload`; `smoke` is roughly a tenth of the work. The
/// schedules are the issue's (30+30 epochs, 4 or 3 steps: long enough for
/// the policy to repeat itself, which is what fills the score cache); the
/// tables are a fifth to a third of its rows so that one run covers a
/// panel of searches (README, "Sizing").
pub fn sizes(workload: &str, smoke: bool) -> Sizes {
    let table = Sizes {
        rows: 1000,
        cols: 20,
        preselect: 12,
        stage1_epochs: 30,
        stage2_epochs: 30,
        steps: 4,
        folds: 5,
        trees: 8,
        depth: 6,
        members: 27,
    };
    let shared = Sizes {
        cols: 12,
        steps: 3,
        members: 2,
        ..table
    };
    let full = match workload {
        "eafe_table" => table,
        "nfs_table" => Sizes {
            members: 7,
            ..table
        },
        "eafe_tall" => Sizes {
            rows: 80_000,
            cols: 8,
            preselect: 8,
            stage1_epochs: 2,
            stage2_epochs: 2,
            steps: 2,
            folds: 3,
            trees: 6,
            depth: 6,
            members: 2,
        },
        "serve_4t" => shared,
        "dist_2w" => Sizes {
            stage1_epochs: 0,
            members: 3,
            ..shared
        },
        other => panic!("unknown workload {other}"),
    };
    if !smoke {
        return full;
    }
    Sizes {
        rows: full.rows / 4,
        stage1_epochs: full.stage1_epochs.min(3),
        stage2_epochs: full.stage2_epochs.min(3),
        steps: 2,
        folds: 3,
        trees: 4,
        members: 1,
        ..full
    }
}

/// Resident-chunk budget of `eafe_tall`, small enough that every seed spills.
pub const TALL_BUDGET_MIB: u64 = 1;
/// Rows per chunk of `eafe_tall`: a quarter of the default, so the table is
/// several chunks per column at a size one run can repeat.
pub const TALL_CHUNK_ROWS: usize = 16_384;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Count returned by the public API for the first panel search:
    /// deterministic, must repeat exactly on every run.
    Count,
    /// Benchmark-owned span around a public call, or a duration/size the
    /// public API reports; mean over the traced panel searches.
    Span,
    /// The bench calls the layer's public function directly, fixed
    /// iteration count, median reported.
    Probe,
    /// Computed by the parent from pooled samples of the traced panel
    /// searches.
    Pooled,
}

impl Source {
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Count => "count",
            Source::Span => "span",
            Source::Probe => "probe",
            Source::Pooled => "pooled",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// End-to-end metrics; same names on every workload. Totals are sums over
/// the searches of one run and `evals_per_s` is a ratio of sums, so one
/// long search weighs as it should. `fail_frac` of the issue is the
/// contract's `failed / attempted`: a metric that is always 0 cannot be
/// gated by a ratio.
pub const END_TO_END: [Metric; 6] = [
    Metric {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    Metric {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    Metric {
        name: "time_to_target_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    Metric {
        name: "evals_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    Metric {
        name: "cpu_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    Metric {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.1,
    },
];

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, better: Better, source: Source) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        source,
    }
}

use Source::{Count, Pooled, Probe, Span};

/// Per-layer metrics; layers are crate names.
pub const PER_LAYER: [LayerMetric; 60] = [
    m("tabular.csv_read_s", "s", Lower, Span),
    m("tabular.csv_write_s", "s", Lower, Span),
    m("tabular.chunk_encode_ms", "ms", Lower, Probe),
    m("tabular.chunk_decode_ms", "ms", Lower, Probe),
    m("tabular.chunks_spilled", "count", Lower, Count),
    m("tabular.chunks_loaded", "count", Lower, Count),
    m("tabular.resident_hwm_mib", "MiB", Lower, Span),
    m("tabular.spill_fetch_s", "s", Lower, Probe),
    m("eafe.preselect_s", "s", Lower, Span),
    m("eafe.start_s", "s", Lower, Span),
    m("eafe.stage1_s", "s", Lower, Span),
    m("eafe.seed_s", "s", Lower, Span),
    m("eafe.stage2_s", "s", Lower, Span),
    m("eafe.finish_s", "s", Lower, Span),
    m("eafe.step_p50_ms", "ms", Lower, Pooled),
    m("eafe.step_p95_ms", "ms", Lower, Pooled),
    m("eafe.generated", "count", Higher, Count),
    m("eafe.downstream_evals", "count", Lower, Count),
    m("eafe.gate_pass_frac", "ratio", Lower, Count),
    m("eafe.generation_s", "s", Lower, Span),
    m("eafe.eval_s", "s", Lower, Span),
    m("eafe.ops_apply_ms", "ms", Lower, Probe),
    m("eafe.fpe_score_ms", "ms", Lower, Probe),
    m("minhash.sketch_col_ms", "ms", Lower, Probe),
    m("minhash.sketch_batch_ms", "ms", Lower, Probe),
    m("minhash.table_build_ms", "ms", Lower, Probe),
    m("minhash.table_mib", "MiB", Lower, Probe),
    m("learners.cv_eval_ms", "ms", Lower, Probe),
    m("learners.bin_build_ms", "ms", Lower, Probe),
    m("learners.forest_fit_ms", "ms", Lower, Probe),
    m("learners.forest_predict_ms", "ms", Lower, Probe),
    m("rl.policy_episode_us", "us", Lower, Probe),
    m("rl.replay_push_sample_us", "us", Lower, Probe),
    m("runtime.cache_hits", "count", Higher, Count),
    m("runtime.cache_misses", "count", Lower, Count),
    m("runtime.cache_hit_frac", "ratio", Higher, Count),
    m("runtime.sig_cache_lookups", "count", Lower, Count),
    m("runtime.sig_cache_hit_frac", "ratio", Higher, Count),
    m("runtime.cache_probe_us", "us", Lower, Probe),
    m("runtime.cache_insert_us", "us", Lower, Probe),
    m("runtime.pool_map_us", "us", Lower, Probe),
    m("runtime.pool_inline_fallbacks", "count", Lower, Span),
    m("simd.dot_ns", "ns", Lower, Probe),
    m("simd.sq_dist_ns", "ns", Lower, Probe),
    m("serve.submit_us", "us", Lower, Span),
    m("serve.admission_wait_ms", "ms", Lower, Span),
    m("serve.report_gap_p50_ms", "ms", Lower, Pooled),
    m("serve.report_gap_p95_ms", "ms", Lower, Pooled),
    m("serve.sched_overhead_frac", "ratio", Lower, Span),
    m("serve.shared_cache_hit_frac", "ratio", Higher, Count),
    m("dist.shards_dispatched", "count", Lower, Count),
    m("dist.shards_retried", "count", Lower, Count),
    m("dist.entries_merged", "count", Lower, Count),
    m("dist.entries_fresh", "count", Higher, Count),
    m("dist.wire_s", "s", Lower, Span),
    m("dist.bytes_mib", "MiB", Lower, Span),
    m("dist.spec_useful_frac", "ratio", Higher, Count),
    m("dist.encode_ms", "ms", Lower, Probe),
    m("dist.decode_ms", "ms", Lower, Probe),
    m("telemetry.overhead_frac", "ratio", Lower, Pooled),
];

/// Nominal seconds of one contract run (`run_seconds`): the run length
/// the panels are sized for.
pub const RUN_SECONDS: u64 = 15;
/// End-to-end runs per workload of the `run` subcommand.
pub const REPEATS: usize = 5;
/// Times each half of the set-up (pre-training; model store + tables) is
/// repeated; `setup_s` is the sum of the two medians.
pub const SETUP_REPEATS: usize = 3;

/// The content of the repo's `BENCHMARK.json`, from the tables above.
pub fn benchmark_json() -> serde::Value {
    use crate::json::{int, num, obj, text};
    use serde::Value::Array;
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj(vec![
        ("command", Array(command.iter().map(|c| text(*c)).collect())),
        ("paths", Array(vec![text("benchmark")])),
        ("run_seconds", int(RUN_SECONDS)),
        (
            "workloads",
            Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(*w)), ("why", text(why(w)))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Names may only use the characters the benchmark contract allows.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn smoke_sizes_are_smaller() {
        for w in WORKLOADS {
            let (full, smoke) = (sizes(w, false), sizes(w, true));
            assert!(smoke.rows <= full.rows && smoke.members == 1, "{w}");
            assert!(!why(w).is_empty());
        }
    }
}
