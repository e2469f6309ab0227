//! `perf_e2e` — the repo's end-to-end benchmark.
//!
//! ```text
//! perf-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; last stdout line is the result object
//!     (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
//! perf-e2e run [--seed n] [--reverse] [--out file]
//!     every workload, every metric, one result file
//! perf-e2e spread [--seed n] [--out file]
//!     ten end-to-end runs per workload on seeds n..n+9: spread of every metric
//! perf-e2e compare <base.json> <new.json>     exit 1 on regression
//! perf-e2e --smoke                            tiny sizes, checks every name
//! perf-e2e benchmark-json                     print the repo's BENCHMARK.json
//! perf-e2e worker --connect HOST:PORT         (internal) dist worker process
//! perf-e2e child ...                          (internal) one search
//! ```

mod compare;
mod harness;
mod inputs;
mod json;
mod probes;
mod report;
mod spans;
mod spec;
mod stats;
mod sys;
mod workloads;

use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `--flag value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("bad value for {name}: {text}")),
        }
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.value(name).ok_or(format!("missing {name}"))
    }
}

fn workload_arg(flags: &Flags) -> Result<String, String> {
    let name = flags.required("--workload")?;
    if spec::WORKLOADS.contains(&name) {
        Ok(name.to_string())
    } else {
        Err(format!(
            "unknown workload {name}; one of {:?}",
            spec::WORKLOADS
        ))
    }
}

/// One search (or the probes) in this process; prints the report line.
fn child(flags: &Flags) -> Result<i32, String> {
    let workload = workload_arg(flags)?;
    let seed: u64 = flags.parsed("--seed", spec::DEFAULT_SEED)?;
    let dir = PathBuf::from(flags.required("--dir")?);
    let sizes = spec::sizes(&workload, flags.has("--smoke"));
    if flags.has("--probes") {
        let fpe = workloads::load_fpe(&dir)?;
        let layer = probes::run(&workload, &sizes, seed, &dir, &fpe)?;
        let report = json::obj(vec![
            ("ok", Value::Bool(true)),
            ("layer", json::num_map(&layer)),
        ]);
        println!("{}", json::to_line(&report));
        return Ok(0);
    }

    let member: usize = flags.parsed("--member", 0)?;
    let trace_out = flags.value("--trace-out").map(PathBuf::from);
    // The traced twin also switches the program's own telemetry on, solely
    // so its cost shows up as `telemetry.overhead_frac`.
    let sink = trace_out.as_ref().map(|_| {
        let sink = Arc::new(telemetry::MemorySink::new());
        telemetry::install(sink.clone());
        sink
    });
    let job = workloads::Job {
        workload: &workload,
        sizes,
        seed: inputs::member_seed(&workload, seed, member),
        member,
        dir: &dir,
    };
    let mut rec = spans::Recorder::new(member as u64);
    let outcome = workloads::run(&job, &mut rec);
    telemetry::uninstall();
    if let (Some(path), Some(sink)) = (&trace_out, &sink) {
        write_trace(path, &rec, &sink.take())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let mut report = vec![("member", json::int(member as u64))];
    let code = match outcome {
        Ok(m) => {
            report.extend([
                ("ok", Value::Bool(true)),
                ("fingerprint", json::text(format!("{:016x}", m.fingerprint))),
                ("wall_s", json::num(m.wall_s)),
                ("cpu_s", json::num(m.cpu_s)),
                ("peak_rss_mib", json::num(m.peak_rss_mib)),
                ("time_to_target_s", json::num(m.time_to_target_s)),
                ("downstream_evals", json::int(m.downstream_evals)),
                ("computed_evals", json::int(m.computed_evals)),
                ("layer", json::num_map(&m.layer)),
                ("step_ms", json::nums(&m.step_ms)),
                ("report_gap_ms", json::nums(&m.report_gap_ms)),
            ]);
            0
        }
        Err(e) => {
            report.extend([("ok", Value::Bool(false)), ("error", json::text(e))]);
            1
        }
    };
    println!("{}", json::to_line(&json::obj(report)));
    Ok(code)
}

/// Append this run's spans to the workload's trace file and leave the
/// program's own telemetry summary (un-named, not gating) beside it.
fn write_trace(
    path: &Path,
    rec: &spans::Recorder,
    events: &[telemetry::Event],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::io::BufWriter::new(
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?,
    );
    rec.write_jsonl(&mut file)?;
    file.flush()?;
    let summary = telemetry::Summary::from_events(events).render();
    std::fs::write(path.with_extension("telemetry.txt"), summary)
}

/// The contract's entry point: one run of one workload.
fn contract_run(flags: &Flags) -> Result<i32, String> {
    let trace = match flags.required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let out = harness::measure(&harness::Options {
        workload: workload_arg(flags)?,
        seed: flags.parsed("--seed", spec::DEFAULT_SEED)?,
        seconds: flags.parsed("--seconds", spec::RUN_SECONDS as f64)?,
        trace,
        smoke: false,
    })?;
    println!("{}", out.result_line());
    Ok(0)
}

/// Every workload at about a tenth of the size, one search each: checks
/// that `BENCHMARK.json` says what the benchmark does, that every name in
/// it is emitted with a finite value and that all names are well formed.
fn smoke() -> Result<i32, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let listed = serde_json::parse(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    // Compared as text: the parser and the builder pick different integer
    // variants for the same number.
    if json::to_line(&listed) != json::to_line(&spec::benchmark_json()) {
        return Err("BENCHMARK.json differs from `perf-e2e benchmark-json`; regenerate it".into());
    }
    let workloads = spec::WORKLOADS;
    let end_to_end: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
    let per_layer: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
    if let Some(bad) = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .find(|n| !spec::valid_name(n))
    {
        return Err(format!("malformed name {bad}"));
    }

    let mut failed = 0;
    for workload in workloads {
        // One traced run gives both sets: its untraced twins carry the
        // end-to-end metrics.
        let out = harness::measure(&harness::Options {
            workload: workload.to_string(),
            seed: spec::DEFAULT_SEED,
            seconds: 0.0,
            trace: true,
            smoke: true,
        })?;
        failed += out.failed;
        for (emitted, names) in [(&out.end_to_end, &end_to_end), (&out.per_layer, &per_layer)] {
            if !emitted
                .iter()
                .map(|(n, _, _)| n.as_str())
                .eq(names.iter().copied())
            {
                return Err(format!(
                    "{workload}: emitted {emitted:?}, expected {names:?}"
                ));
            }
            if let Some((name, value, _)) = emitted.iter().find(|(_, v, _)| !v.is_finite()) {
                return Err(format!("{workload}: {name} = {value} is not finite"));
            }
        }
        println!("smoke {workload}: ok");
    }
    println!(
        "smoke: {} workloads, {} end-to-end and {} per-layer names emitted, {failed} failed operations",
        workloads.len(),
        end_to_end.len(),
        per_layer.len()
    );
    Ok(i32::from(failed > 0))
}

fn compare_files(paths: &[String]) -> Result<i32, String> {
    let [base, new] = paths else {
        return Err("usage: perf-e2e compare <base.json> <new.json>".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|t| serde_json::parse(&t).map_err(|e| format!("parse {path}: {e}")))
    };
    let bad = compare::compare(&load(base)?, &load(new)?)?;
    println!("\n{bad} regressed or mismatched");
    Ok(i32::from(bad > 0))
}

fn dispatch(args: Vec<String>) -> Result<i32, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c.to_string(), args[1..].to_vec()),
        _ => (String::new(), args),
    };
    let flags = Flags(rest);
    match command.as_str() {
        "" if flags.has("--smoke") => smoke(),
        "" => contract_run(&flags),
        "run" => {
            let seed = flags.parsed("--seed", spec::DEFAULT_SEED)?;
            let default_out =
                Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/run-seed{seed}.json"));
            let failed = report::run(&report::RunArgs {
                seed,
                reverse: flags.has("--reverse"),
                out: flags.value("--out").map_or(default_out, PathBuf::from),
            })?;
            Ok(i32::from(failed > 0))
        }
        "spread" => {
            let seed = flags.parsed("--seed", 1)?;
            let default_out = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("results/spread-seed{seed}.json"));
            let out = flags.value("--out").map_or(default_out, PathBuf::from);
            Ok(i32::from(report::spread(seed, &out)? > 0))
        }
        "compare" => compare_files(&flags.0),
        "benchmark-json" => {
            println!("{}", json::to_pretty(&spec::benchmark_json()));
            Ok(0)
        }
        "worker" => Ok(workloads::worker(flags.required("--connect")?)),
        "child" => child(&flags),
        other => Err(format!("unknown command {other}")),
    }
}

fn main() {
    let code = dispatch(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("perf-e2e: {e}");
        2
    });
    std::process::exit(code);
}
