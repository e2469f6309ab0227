//! Offline trace analysis for `--trace-out` JSON-lines files.
//!
//! ```text
//! trace_tool <trace.jsonl> [more.jsonl ...] [sections]
//!
//!   --folded [PATH]       collapsed-stack flamegraph output (inferno /
//!                         speedscope folded format); written to PATH,
//!                         or stdout when PATH is omitted or `-`
//!   --critical-path       heaviest root-to-leaf span chain
//!   --attribution [KEY]   self-time grouped by span field KEY
//!                         (default `job`), inherited down the tree
//!   --cache               cache-efficiency report from counter totals
//! ```
//!
//! Several trace files merge into one report: file `p`'s spans are
//! tagged with a `process = p` field (order of the command line), span
//! ids are re-based so per-process id counters never collide, and
//! counter totals sum. `--attribution process` then splits time per
//! process — the natural view for a distributed run's coordinator +
//! worker trace files.
//!
//! With no section flags, every report prints to stdout. Typical
//! flamegraph pipeline:
//!
//! ```sh
//! cargo run --release --bin table1 -- --trace-out out/trace.jsonl
//! cargo run --release --bin trace_tool -- out/trace.jsonl --folded out/trace.folded
//! inferno-flamegraph < out/trace.folded > out/flame.svg
//! ```

use bench::Trace;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    // Leading non-flag arguments are input files; several merge into one
    // report with per-file `process` tags.
    let mut inputs: Vec<PathBuf> = Vec::new();
    while let Some(path) = args
        .peek()
        .filter(|a| !a.starts_with("--") && *a != "-h")
        .cloned()
    {
        inputs.push(PathBuf::from(path));
        args.next();
    }
    if inputs.is_empty() {
        eprintln!(
            "usage: trace_tool <trace.jsonl> [more.jsonl ...] [--folded [PATH|-]] \
             [--critical-path] [--attribution [KEY]] [--cache]"
        );
        return ExitCode::FAILURE;
    }

    // Section selection; an optional value follows --folded/--attribution
    // when the next token is not itself a flag.
    let mut folded: Option<Option<PathBuf>> = None;
    let mut critical = false;
    let mut attribution: Option<String> = None;
    let mut cache = false;
    let mut any = false;
    while let Some(flag) = args.next() {
        any = true;
        // An optional value follows when the next token is not a flag.
        let mut optional_value = || -> Option<String> {
            let next = args.peek().filter(|v| !v.starts_with("--")).cloned();
            if next.is_some() {
                args.next();
            }
            next
        };
        match flag.as_str() {
            "--folded" => {
                folded = Some(optional_value().filter(|p| p != "-").map(PathBuf::from));
            }
            "--critical-path" => critical = true,
            "--attribution" => {
                attribution = Some(optional_value().unwrap_or_else(|| "job".to_string()));
            }
            "--cache" => cache = true,
            other => {
                eprintln!("trace_tool: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    if !any {
        folded = Some(None);
        critical = true;
        attribution = Some("job".to_string());
        cache = true;
    }

    let mut traces = Vec::with_capacity(inputs.len());
    for path in &inputs {
        match Trace::from_path(path) {
            Ok(t) => traces.push(t),
            Err(e) => {
                eprintln!("trace_tool: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let trace = if traces.len() == 1 {
        traces.pop().expect("one trace")
    } else {
        Trace::merged(traces)
    };
    eprintln!(
        "loaded {} file(s): {} spans, {} counters",
        inputs.len(),
        trace.spans.len(),
        trace.counts.len()
    );

    if let Some(dest) = folded {
        let text = trace.folded();
        match dest {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, &text) {
                    eprintln!("trace_tool: write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "wrote {} folded stacks to {}",
                    text.lines().count(),
                    path.display()
                );
            }
            None => print!("{text}"),
        }
    }
    if critical {
        print!("{}", trace.critical_path());
    }
    if let Some(key) = attribution {
        print!("{}", trace.attribution(&key));
    }
    if cache {
        print!("{}", trace.cache_report());
    }
    ExitCode::SUCCESS
}
