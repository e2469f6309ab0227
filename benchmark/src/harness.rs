//! The parent side of one benchmark run: set up the inputs, run the
//! workload's searches each in a fresh self-exec'd child (cold
//! process-wide caches, clean peak RSS — what a CLI user pays), verify
//! every result and fold the children's reports into named metrics.

use crate::inputs::{self, Scratch};
use crate::json::{self, get_bool, get_f64, get_num_map, get_nums, get_str, get_u64};
use crate::spec::{self, Source};
use crate::stats;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::Instant;

/// One run of one workload, as the benchmark contract asks for it.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Nominal length of the run: the panel is covered in full at
    /// `spec::RUN_SECONDS` and in proportion otherwise. A clock never ends
    /// a run, because totals over fewer searches are other totals.
    pub seconds: f64,
    /// Per-layer pass: every search runs untraced then traced, then the
    /// layer probes run.
    pub trace: bool,
    pub smoke: bool,
}

/// The pre-trained FPE model as JSON and the seconds its training takes
/// (median of `SETUP_REPEATS` trainings: one sample moved by 30 % between
/// two processes). Once per process: the model's seed is a constant, so
/// every run of a `run` or `spread` invocation would train the identical
/// model again.
fn pretrained() -> &'static (String, f64) {
    static MODEL: OnceLock<(String, f64)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut json = String::new();
        let samples: Vec<f64> = (0..spec::SETUP_REPEATS)
            .map(|_| {
                let t = Instant::now();
                json = inputs::pretrain_fpe()
                    .to_json()
                    .expect("an FPE model always serializes");
                t.elapsed().as_secs_f64()
            })
            .collect();
        (json, stats::median(&samples))
    })
}

/// A run's outcome: the contract's result line plus the raw samples.
#[derive(Debug)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of every end-to-end metric, from the run's
    /// untraced searches.
    pub end_to_end: Vec<(String, f64, String)>,
    /// Every per-layer metric; empty unless the run was a `trace` one.
    pub per_layer: Vec<(String, f64, String)>,
    /// One entry per distinct search of the run: what its untraced child
    /// reported (the replay that ends a run is checked, not kept).
    pub members: Vec<Value>,
    /// Times of the repeated part of the set-up (everything but FPE
    /// pre-training); `setup_s` is pre-training plus their median.
    pub setup_samples: Vec<f64>,
}

impl RunOutput {
    /// The one-line JSON object the benchmark contract defines: the
    /// per-layer metrics of a `trace` run, the end-to-end ones otherwise.
    pub fn result_line(&self) -> String {
        let listed = if self.per_layer.is_empty() {
            &self.end_to_end
        } else {
            &self.per_layer
        };
        let metrics = Value::Map(
            listed
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        json::obj(vec![
                            ("value", json::num(*value)),
                            ("unit", json::text(unit.as_str())),
                        ]),
                    )
                })
                .collect(),
        );
        json::to_line(&json::obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", json::int(self.attempted)),
            ("failed", json::int(self.failed)),
            ("metrics", metrics),
        ]))
    }
}

/// Where traced children append their spans.
pub fn trace_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("trace-{workload}.jsonl"))
}

struct Children<'a> {
    opts: &'a Options,
    dir: &'a Path,
    exe: PathBuf,
    attempted: u64,
    failed: u64,
}

impl Children<'_> {
    /// Run one child to completion and parse the report on its last
    /// stdout line. A child that dies, exits non-zero or reports a failed
    /// check counts as one failed operation and yields `None`.
    fn spawn(&mut self, what: &str, extra: &[&str]) -> Option<Value> {
        self.attempted += 1;
        let mut cmd = Command::new(&self.exe);
        cmd.arg("child")
            .args(["--workload", &self.opts.workload])
            .args(["--seed", &self.opts.seed.to_string()])
            .arg("--dir")
            .arg(self.dir)
            .args(extra);
        if self.opts.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child, so none outlives this call.
        let failure = match cmd.output() {
            Err(e) => format!("cannot start: {e}"),
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                let report = text.lines().last().and_then(|l| serde_json::parse(l).ok());
                match report {
                    Some(v) if out.status.success() && get_bool(&v, "ok") => return Some(v),
                    Some(v) => format!("{}: {}", out.status, get_str(&v, "error")),
                    None => format!(
                        "{}: {}",
                        out.status,
                        String::from_utf8_lossy(&out.stderr).trim()
                    ),
                }
            }
        };
        eprintln!("perf-e2e: {} {what} failed: {failure}", self.opts.workload);
        self.failed += 1;
        None
    }

    fn search(&mut self, member: usize, traced: bool) -> Option<Value> {
        let member_arg = member.to_string();
        let trace_out = trace_path(&self.opts.workload);
        let mut extra = vec!["--member", member_arg.as_str()];
        if traced {
            extra.push("--trace-out");
            extra.push(trace_out.to_str().expect("the manifest path is UTF-8"));
        }
        self.spawn(&format!("search {member}"), &extra)
    }

    /// A repeated search must reproduce the first one bit for bit.
    fn check_same(&mut self, first: &Value, again: &Value, what: &str) {
        if get_str(first, "fingerprint") != get_str(again, "fingerprint") {
            eprintln!(
                "perf-e2e: {} {what}: fingerprint {} != {}",
                self.opts.workload,
                get_str(again, "fingerprint"),
                get_str(first, "fingerprint")
            );
            self.failed += 1;
        }
    }
}

fn sum(members: &[Value], key: &str) -> f64 {
    members.iter().map(|m| get_f64(m, key)).sum()
}

/// End-to-end metrics from the run's untraced panel searches (search 0,
/// the seed's own, is checked but not timed into them). Totals are sums
/// and the rate is a ratio of sums: the searches differ in how much they
/// compute, so averaging per-search rates would let the short ones vote
/// as loudly as the long ones.
fn end_to_end(members: &[Value], setup_s: f64) -> Vec<(String, f64, String)> {
    let panel = || members.iter().filter(|m| get_u64(m, "member") > 0);
    let total = |key: &str| panel().map(|m| get_f64(m, key)).sum::<f64>();
    let peak = panel()
        .map(|m| get_f64(m, "peak_rss_mib"))
        .fold(0.0, f64::max);
    spec::END_TO_END
        .iter()
        .map(|metric| {
            let value = match metric.name {
                "setup_s" => setup_s,
                "wall_s" => total("wall_s"),
                "time_to_target_s" => total("time_to_target_s"),
                "evals_per_s" => total("downstream_evals") / total("wall_s"),
                "cpu_s" => total("cpu_s"),
                "peak_rss_mib" => peak,
                other => unreachable!("unlisted end-to-end metric {other}"),
            };
            (metric.name.to_string(), value, metric.unit.to_string())
        })
        .collect()
}

fn pooled(members: &[Value], key: &str) -> Vec<f64> {
    members.iter().flat_map(|m| get_nums(m, key)).collect()
}

/// Median and 95th percentile of the pooled samples. Below 200 samples
/// the 95th has fewer than ten samples beyond it, and the highest
/// percentile that has ten stands in for it.
fn median_and_p95(samples: &[f64]) -> (f64, f64) {
    let median = stats::median(samples);
    let tail = stats::highest_supported_percentile(samples.len()).map_or(median, |p| {
        stats::percentile(samples, p.min(95.0)).max(median)
    });
    (median, tail)
}

/// Per-layer metrics from the traced panel searches, their untraced twins
/// and the probes. A name a workload has nothing to say about reads 0.
fn per_layer(
    traced: &[Value],
    untraced: &[Value],
    probes: &[(String, f64)],
) -> Vec<(String, f64, String)> {
    let layers: Vec<Vec<(String, f64)>> = traced.iter().map(|m| get_num_map(m, "layer")).collect();
    let lookup = |entries: &[(String, f64)], name: &str| {
        entries.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    };
    let (step_p50, step_p95) = median_and_p95(&pooled(traced, "step_ms"));
    let (gap_p50, gap_p95) = median_and_p95(&pooled(traced, "report_gap_ms"));
    let untraced_wall = sum(untraced, "wall_s");
    spec::PER_LAYER
        .iter()
        .map(|metric| {
            let value = match (metric.source, metric.name) {
                (Source::Count, name) => {
                    layers.first().and_then(|l| lookup(l, name)).unwrap_or(0.0)
                }
                (Source::Span, name) => {
                    let seen: Vec<f64> = layers.iter().filter_map(|l| lookup(l, name)).collect();
                    stats::mean(&seen)
                }
                (Source::Probe, name) => lookup(probes, name).unwrap_or(0.0),
                (Source::Pooled, "eafe.step_p50_ms") => step_p50,
                (Source::Pooled, "eafe.step_p95_ms") => step_p95,
                (Source::Pooled, "serve.report_gap_p50_ms") => gap_p50,
                (Source::Pooled, "serve.report_gap_p95_ms") => gap_p95,
                (Source::Pooled, "telemetry.overhead_frac") if untraced_wall > 0.0 => {
                    sum(traced, "wall_s") / untraced_wall - 1.0
                }
                (Source::Pooled, _) => 0.0,
            };
            (metric.name.to_string(), value, metric.unit.to_string())
        })
        .collect()
}

/// Run `opts.workload` once and report its metrics.
pub fn measure(opts: &Options) -> Result<RunOutput, String> {
    let sizes = spec::sizes(&opts.workload, opts.smoke);
    let nominal = sizes.members as f64 * opts.seconds / spec::RUN_SECONDS as f64;
    let panel = (nominal.round() as usize).max(1);
    let scratch = Scratch::create().map_err(|e| format!("create scratch directory: {e}"))?;
    let (fpe_json, pretrain_s) = pretrained();
    let repeats = if opts.smoke { 1 } else { spec::SETUP_REPEATS };
    let mut setup_samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t = Instant::now();
        inputs::set_up(
            &opts.workload,
            opts.seed,
            opts.smoke,
            panel,
            scratch.dir(),
            fpe_json,
        )
        .map_err(|e| format!("set-up: {e}"))?;
        setup_samples.push(t.elapsed().as_secs_f64());
    }

    let mut children = Children {
        opts,
        dir: scratch.dir(),
        exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        attempted: 0,
        failed: 0,
    };
    // Searches the end-to-end metrics are taken over (always untraced).
    let mut members: Vec<Value> = Vec::new();
    let mut replay = None;
    let mut per_layer_metrics = Vec::new();
    if opts.trace {
        let trace_file = trace_path(&opts.workload);
        std::fs::create_dir_all(trace_file.parent().expect("trace path has a parent"))
            .and_then(|()| std::fs::write(&trace_file, b""))
            .map_err(|e| format!("reset {}: {e}", trace_file.display()))?;
        // Traced panel searches and their untraced twins.
        let (mut traced, mut twins) = (Vec::new(), Vec::new());
        for member in 0..=panel {
            let Some(first) = children.search(member, false) else {
                continue;
            };
            let Some(second) = children.search(member, true) else {
                continue;
            };
            children.check_same(&first, &second, "traced twin");
            // Search 0 is checked, never measured.
            if member > 0 {
                twins.push(first.clone());
                traced.push(second);
            }
            members.push(first);
        }
        let probes = children
            .spawn("probes", &["--probes"])
            .map(|v| get_num_map(&v, "layer"))
            .unwrap_or_default();
        per_layer_metrics = per_layer(&traced, &twins, &probes);
    } else {
        for member in 0..=panel {
            members.extend(children.search(member, false));
        }
        // Correctness: search 0 again must reproduce its own first run.
        replay = children.search(0, false);
        if let (Some(again), Some(first)) = (&replay, members.first().cloned()) {
            if get_u64(&first, "member") == 0 {
                children.check_same(&first, again, "replay of search 0");
            }
        }
    }
    if !members.iter().any(|m| get_u64(m, "member") > 0) {
        return Err(format!("{}: no panel search completed", opts.workload));
    }
    for m in members.iter().chain(&replay) {
        eprintln!(
            "perf-e2e: {} search {} {}: wall {:.3}s cpu {:.3}s to-target {:.3}s, {} evals of which {} computed",
            opts.workload,
            get_u64(m, "member"),
            get_str(m, "fingerprint"),
            get_f64(m, "wall_s"),
            get_f64(m, "cpu_s"),
            get_f64(m, "time_to_target_s"),
            get_u64(m, "downstream_evals"),
            get_u64(m, "computed_evals"),
        );
    }
    Ok(RunOutput {
        attempted: children.attempted,
        failed: children.failed,
        end_to_end: end_to_end(&members, pretrain_s + stats::median(&setup_samples)),
        per_layer: per_layer_metrics,
        members,
        setup_samples,
    })
}
