//! The `run` subcommand: every workload, five end-to-end runs plus one
//! per-layer run each, printed metric by metric and written as one result
//! file (provenance header, raw per-search samples, medians, quartiles).
//! And `spread`: the benchmark contract's steadiness check, ten end-to-end
//! runs of every workload on ten seeds.

use crate::harness::{measure, Options, RunOutput};
use crate::json::{self, get_f64, get_str, get_u64};
use crate::spec;
use crate::stats;
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub struct RunArgs {
    pub seed: u64,
    /// Run the workloads last to first (the second set of an agreement
    /// check alternates the order).
    pub reverse: bool,
    pub out: PathBuf,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(seed: u64, order: &[&str]) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::obj(vec![
        ("benchmark", json::text("perf_e2e")),
        (
            "git_sha",
            json::text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", json::text(command_line("rustc", &["--version"]))),
        ("nproc", json::int(nproc as u64)),
        ("threads", json::int(spec::THREADS as u64)),
        ("simd_isa", json::text(simd::active_isa().name())),
        (
            "cpu_features",
            Value::Array(
                simd::detected_cpu_features()
                    .into_iter()
                    .map(json::text)
                    .collect(),
            ),
        ),
        ("seed", json::int(seed)),
        ("run_seconds", json::int(spec::RUN_SECONDS)),
        ("repeats", json::int(spec::REPEATS as u64)),
        (
            "workload_order",
            Value::Array(order.iter().map(|w| json::text(*w)).collect()),
        ),
    ])
}

/// The per-search numbers kept in the result file.
fn search_row(repeat: usize, m: &Value) -> Value {
    let mut row = vec![("repeat", json::int(repeat as u64))];
    row.push(("member", json::int(get_u64(m, "member"))));
    row.push(("fingerprint", json::text(get_str(m, "fingerprint"))));
    for key in [
        "wall_s",
        "cpu_s",
        "time_to_target_s",
        "peak_rss_mib",
        "downstream_evals",
        "computed_evals",
    ] {
        row.push((key, json::num(get_f64(m, key))));
    }
    json::obj(row)
}

/// One end-to-end metric of one workload: its samples and their quartiles.
fn metric_entry(metric: &spec::Metric, samples: &[f64]) -> Value {
    let (q1, median, q3) = stats::quartiles(samples);
    json::obj(vec![
        ("unit", json::text(metric.unit)),
        ("better", json::text(metric.better.as_str())),
        ("bound", json::num(metric.bound)),
        ("n", json::int(samples.len() as u64)),
        ("median", json::num(median)),
        ("q1", json::num(q1)),
        ("q3", json::num(q3)),
        ("spread", json::num(stats::spread(samples))),
        ("samples", json::nums(samples)),
    ])
}

struct WorkloadRuns {
    timed: Vec<RunOutput>,
    traced: RunOutput,
}

impl WorkloadRuns {
    fn failed(&self) -> u64 {
        self.timed.iter().map(|r| r.failed).sum::<u64>() + self.traced.failed
    }

    fn attempted(&self) -> u64 {
        self.timed.iter().map(|r| r.attempted).sum::<u64>() + self.traced.attempted
    }

    /// One value per untraced run of end-to-end metric `name`.
    fn samples(&self, name: &str) -> Vec<f64> {
        self.timed
            .iter()
            .filter_map(|r| r.end_to_end.iter().find(|(n, _, _)| n == name))
            .map(|(_, v, _)| *v)
            .collect()
    }

    /// Mean wall seconds of each search index over every untraced run.
    fn wall_by_member(&self) -> BTreeMap<u64, f64> {
        let mut walls: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for m in self.timed.iter().flat_map(|r| &r.members) {
            walls
                .entry(get_u64(m, "member"))
                .or_default()
                .push(get_f64(m, "wall_s"));
        }
        walls
            .into_iter()
            .map(|(k, v)| (k, stats::mean(&v)))
            .collect()
    }

    fn to_value(&self) -> Value {
        let end_to_end = Value::Map(
            spec::END_TO_END
                .iter()
                .map(|metric| {
                    (
                        metric.name.to_string(),
                        metric_entry(metric, &self.samples(metric.name)),
                    )
                })
                .collect(),
        );
        let per_layer = Value::Map(
            spec::PER_LAYER
                .iter()
                .zip(&self.traced.per_layer)
                .map(|(metric, (name, value, unit))| {
                    let entry = json::obj(vec![
                        ("unit", json::text(unit.as_str())),
                        ("source", json::text(metric.source.as_str())),
                        ("value", json::num(*value)),
                    ]);
                    (name.clone(), entry)
                })
                .collect(),
        );
        // One fingerprint per search index; reruns of an index that
        // disagreed were already counted as failures.
        let fingerprints: BTreeMap<u64, String> = self
            .timed
            .iter()
            .flat_map(|r| &r.members)
            .chain(&self.traced.members)
            .map(|m| (get_u64(m, "member"), get_str(m, "fingerprint").to_string()))
            .collect();
        let searches: Vec<Value> = self
            .timed
            .iter()
            .enumerate()
            .flat_map(|(repeat, r)| r.members.iter().map(move |m| search_row(repeat, m)))
            .collect();
        let setup: Vec<f64> = self
            .timed
            .iter()
            .flat_map(|r| r.setup_samples.clone())
            .collect();
        json::obj(vec![
            ("attempted", json::int(self.attempted())),
            ("failed", json::int(self.failed())),
            (
                "fail_frac",
                json::num(self.failed() as f64 / self.attempted().max(1) as f64),
            ),
            // Equal counts mean every run covered the same searches, so
            // the totals of two files of one seed are comparable.
            (
                "searches_per_run",
                Value::Array(
                    self.timed
                        .iter()
                        .map(|r| json::int(r.members.len() as u64))
                        .collect(),
                ),
            ),
            ("end_to_end", end_to_end),
            ("per_layer", per_layer),
            (
                "fingerprints",
                Value::Array(fingerprints.into_values().map(json::text).collect()),
            ),
            ("setup_samples_s", json::nums(&setup)),
            ("searches", Value::Array(searches)),
        ])
    }
}

fn runs_wall(runs: &WorkloadRuns) -> f64 {
    runs.timed
        .iter()
        .flat_map(|r| &r.members)
        .map(|m| get_f64(m, "wall_s"))
        .sum()
}

/// Ratio of summed wall times over the search indices both workloads ran.
fn wall_ratio(num: &WorkloadRuns, den: &WorkloadRuns) -> f64 {
    let (num, den) = (num.wall_by_member(), den.wall_by_member());
    let common: Vec<u64> = num
        .keys()
        .filter(|k| den.contains_key(k))
        .copied()
        .collect();
    let total = |walls: &BTreeMap<u64, f64>| common.iter().map(|k| walls[k]).sum::<f64>();
    total(&num) / total(&den)
}

/// Sum over every untraced search of a number in its layer report.
fn layer_total(runs: &WorkloadRuns, name: &str) -> f64 {
    runs.timed
        .iter()
        .flat_map(|r| &r.members)
        .map(|m| get_f64(json::get(m, "layer"), name))
        .sum()
}

fn layer_value(runs: &WorkloadRuns, name: &str) -> f64 {
    runs.traced
        .per_layer
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(0.0, |(_, v, _)| *v)
}

fn print_workload(name: &str, runs: &WorkloadRuns) {
    println!("\n== {name}: {} ==", spec::why(name));
    println!(
        "  searches attempted {} failed {} (fail_frac {:.3})",
        runs.attempted(),
        runs.failed(),
        runs.failed() as f64 / runs.attempted().max(1) as f64
    );
    for metric in &spec::END_TO_END {
        let samples = runs.samples(metric.name);
        let (q1, median, q3) = stats::quartiles(&samples);
        println!(
            "  {:<28} {:>14.4} {:<6} q1 {:.4} q3 {:.4} n {}",
            metric.name,
            median,
            metric.unit,
            q1,
            q3,
            samples.len()
        );
    }
    for (name, value, unit) in &runs.traced.per_layer {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
}

/// Run everything, print every metric by name with its unit, write the
/// result file. Returns the number of failed operations.
pub fn run(args: &RunArgs) -> Result<u64, String> {
    let mut order: Vec<&str> = spec::WORKLOADS.to_vec();
    if args.reverse {
        order.reverse();
    }
    println!(
        "perf_e2e: seed {} · {} end-to-end runs of {} s + 1 per-layer run per workload",
        args.seed,
        spec::REPEATS,
        spec::RUN_SECONDS
    );
    let mut all: BTreeMap<&str, WorkloadRuns> = BTreeMap::new();
    for &workload in &order {
        let opts = |trace| Options {
            workload: workload.to_string(),
            seed: args.seed,
            seconds: spec::RUN_SECONDS as f64,
            trace,
            smoke: false,
        };
        let timed = (0..spec::REPEATS)
            .map(|_| measure(&opts(false)))
            .collect::<Result<Vec<_>, _>>()?;
        let runs = WorkloadRuns {
            timed,
            traced: measure(&opts(true))?,
        };
        print_workload(workload, &runs);
        all.insert(workload, runs);
    }

    let eafe_evals: f64 = layer_value(&all["eafe_table"], "eafe.downstream_evals");
    let derived = vec![
        (
            "eafe_vs_nfs_wall_ratio",
            wall_ratio(&all["nfs_table"], &all["eafe_table"]),
        ),
        (
            "eafe_vs_nfs_evals_ratio",
            layer_value(&all["nfs_table"], "eafe.downstream_evals") / eafe_evals.max(1.0),
        ),
        (
            "dist_vs_solo_wall_ratio",
            runs_wall(&all["dist_2w"]) / layer_total(&all["dist_2w"], "dist.solo_wall_s"),
        ),
    ];
    println!("\n== derived (not gating) ==");
    for (name, value) in &derived {
        println!("  {name:<28} {value:>14.4} ratio");
    }
    let failed: u64 = all.values().map(WorkloadRuns::failed).sum();
    println!("\nfailed operations: {failed}\nclaim: null");

    let doc = json::obj(vec![
        ("header", header(args.seed, &order)),
        (
            "workloads",
            Value::Map(
                spec::WORKLOADS
                    .iter()
                    .map(|w| (w.to_string(), all[w].to_value()))
                    .collect(),
            ),
        ),
        (
            "derived",
            json::obj(derived.iter().map(|(k, v)| (*k, json::num(*v))).collect()),
        ),
        ("claim", Value::Null),
    ]);
    if let Some(parent) = args.out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(&args.out, json::to_pretty(&doc) + "\n")
        .map_err(|e| format!("write {}: {e}", args.out.display()))?;
    println!("wrote {}", args.out.display());
    Ok(failed)
}

/// The steadiness check of the benchmark contract: one end-to-end run of
/// every workload on each of ten consecutive seeds, and per metric the
/// distance between the first and third quartile of the ten values as a
/// share of their median. Returns the number of failed operations.
pub fn spread(first_seed: u64, out: &Path) -> Result<u64, String> {
    let seeds: Vec<u64> = (first_seed..first_seed + 10).collect();
    let mut failed = 0;
    let mut workloads = Vec::new();
    for workload in spec::WORKLOADS {
        let mut runs = Vec::with_capacity(seeds.len());
        let mut run_secs = Vec::with_capacity(seeds.len());
        for &seed in &seeds {
            let t = std::time::Instant::now();
            runs.push(measure(&Options {
                workload: workload.to_string(),
                seed,
                seconds: spec::RUN_SECONDS as f64,
                trace: false,
                smoke: false,
            })?);
            run_secs.push(t.elapsed().as_secs_f64());
        }
        failed += runs.iter().map(|r| r.failed).sum::<u64>();
        println!(
            "\n== {workload}: seeds {first_seed}..{}, a run takes {:.1} s ==",
            first_seed + 9,
            stats::median(&run_secs)
        );
        let mut metrics = Vec::new();
        for (i, metric) in spec::END_TO_END.iter().enumerate() {
            let samples: Vec<f64> = runs.iter().map(|r| r.end_to_end[i].1).collect();
            println!(
                "  {:<18} median {:>12.4} {:<5} spread {:.3}  bound {:.2}",
                metric.name,
                stats::median(&samples),
                metric.unit,
                stats::spread(&samples),
                metric.bound,
            );
            metrics.push((metric.name, metric_entry(metric, &samples)));
        }
        let searches = runs.iter().map(|r| json::int(r.members.len() as u64));
        workloads.push((
            workload,
            json::obj(vec![
                ("searches_per_run", Value::Array(searches.collect())),
                ("run_secs", json::nums(&run_secs)),
                ("end_to_end", json::obj(metrics)),
            ]),
        ));
    }
    let mut head = header(first_seed, &spec::WORKLOADS);
    if let Value::Map(entries) = &mut head {
        entries.push((
            "seeds".to_string(),
            Value::Array(seeds.iter().map(|s| json::int(*s)).collect()),
        ));
    }
    let doc = json::obj(vec![("header", head), ("workloads", json::obj(workloads))]);
    std::fs::write(out, json::to_pretty(&doc) + "\n")
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("\nfailed operations: {failed}\nwrote {}", out.display());
    Ok(failed)
}
