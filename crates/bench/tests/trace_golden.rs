//! Golden-output tests for the offline trace toolchain: the committed
//! fixture models a two-job run (nested engine→epoch→evaluate spans plus
//! end-of-run cache counters) and every report is pinned to its exact
//! expected text, so any drift in folded-stack weighting, critical-path
//! descent, attribution, or cache aggregation fails loudly.

use bench::Trace;
use std::path::Path;
use std::process::Command;

fn fixture() -> &'static Path {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/trace_small.jsonl"
    ))
}

#[test]
fn folded_output_matches_golden() {
    let trace = Trace::from_path(fixture()).unwrap();
    assert_eq!(
        trace.folded(),
        "engine.run 250\n\
         engine.run;epoch 700\n\
         engine.run;epoch;evaluate 450\n\
         engine.run;epoch;evaluate;forest.fit 200\n"
    );
}

#[test]
fn critical_path_matches_golden() {
    let trace = Trace::from_path(fixture()).unwrap();
    assert_eq!(
        trace.critical_path(),
        "critical path (heaviest chain):\n\
         \x20 engine.run  total 1000 us, self 150 us  [root]\n\
         \x20   epoch  total 450 us, self 100 us  [ 45.0% of parent]\n\
         \x20     evaluate  total 350 us, self 350 us  [ 77.8% of parent]\n"
    );
}

#[test]
fn attribution_matches_golden() {
    let trace = Trace::from_path(fixture()).unwrap();
    let report = trace.attribution("job");
    assert!(report.starts_with("time attribution by `job` (1600 us total):\n"));
    let rows: Vec<String> = report
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    assert_eq!(rows, ["job=1 1000 us 62.5%", "job=2 600 us 37.5%"]);
}

#[test]
fn cache_report_matches_golden() {
    let trace = Trace::from_path(fixture()).unwrap();
    let report = trace.cache_report();
    assert!(report.starts_with("cache efficiency:\n"), "{report}");
    assert!(
        report.contains("score_cache") && report.contains("50.0% hit rate"),
        "the score cache's counters form one family: {report}"
    );
    let evaluator = report
        .lines()
        .find(|l| l.trim_start().starts_with("evaluator"))
        .expect("evaluator hit/miss pair becomes a family row");
    assert!(
        evaluator.contains("50 hits") && evaluator.contains("50.0% hit rate"),
        "{evaluator}"
    );
    // `cv.memo.hits` / `.misses` (learners): of the evaluator's 50 computed
    // scores, 20 trained a forest.
    let memo = report
        .lines()
        .find(|l| l.trim_start().starts_with("cv.memo"))
        .expect("the CV-score memo's pair is a family like any other");
    assert!(
        memo.contains("30 hits") && memo.contains("20 misses") && memo.contains("60.0% hit rate"),
        "{memo}"
    );
}

/// The CLI end-to-end: run the real binary on the fixture with no
/// section flags and require all four reports on stdout.
#[test]
fn trace_tool_cli_prints_all_sections() {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .arg(fixture())
        .output()
        .expect("run trace_tool");
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("engine.run;epoch;evaluate;forest.fit 200"));
    assert!(stdout.contains("critical path (heaviest chain):"));
    assert!(stdout.contains("time attribution by `job`"));
    assert!(stdout.contains("cache efficiency:"));
}

/// `--folded PATH` writes the folded stacks to the named file and keeps
/// stdout free of them.
#[test]
fn trace_tool_cli_writes_folded_file() {
    let dir = std::env::temp_dir().join("eafe_trace_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let folded = dir.join("trace_small.folded");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .arg(fixture())
        .arg("--folded")
        .arg(&folded)
        .output()
        .expect("run trace_tool");
    assert!(out.status.success(), "{:?}", out);
    let text = std::fs::read_to_string(&folded).unwrap();
    assert_eq!(text.lines().count(), 4);
    assert!(text.contains("engine.run 250"));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.is_empty(),
        "folded-to-file leaves stdout empty: {stdout}"
    );
}
