//! **Figure 1** — sample percentage vs downstream performance and vs
//! computation time. The paper's motivation study: score plateaus well
//! before 100% of the samples, while evaluation time keeps climbing.
//!
//! Regenerate: `cargo run -p bench --release --bin fig1 --no-cache
//! [--scale 0.2]` — without `--no-cache` a repeated subsample is a score
//! cache hit and its time is the probe's, not the evaluation's.

use bench::{fmt_score, fmt_secs, print_header, CommonArgs, TextTable};
use serde::Serialize;
use std::time::Instant;
use tabular::stratified_subsample;

const FRACTIONS: [f64; 8] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0];
const REPEATS: u64 = 5; // the paper repeats 10 times; 5 keeps this quick

#[derive(Serialize)]
struct Point {
    dataset: String,
    fraction: f64,
    mean_score: f64,
    mean_secs: f64,
}

fn main() {
    let args = CommonArgs::parse();
    print_header("Figure 1: sample percentage vs performance and time", &args);
    let evaluator = args.cached(args.evaluator());

    let mut points = Vec::new();
    for info in args.dataset_infos() {
        let frame = args.load(&info);
        let mut table = TextTable::new(vec!["Sample %", "Score", "Eval time"]);
        for &fraction in &FRACTIONS {
            // The full sample is the same frame whatever the seed, so it
            // is evaluated once: a repeat would time the process-wide CV
            // memo's hit, not a cross-validation.
            let repeats = if fraction < 1.0 { REPEATS } else { 1 };
            let mut score_sum = 0.0;
            let mut secs_sum = 0.0;
            for rep in 0..repeats {
                let sub =
                    stratified_subsample(&frame, fraction, args.seed ^ rep).expect("subsample");
                let t0 = Instant::now();
                let score = evaluator.evaluate(&sub).expect("evaluate");
                secs_sum += t0.elapsed().as_secs_f64();
                score_sum += score;
            }
            let p = Point {
                dataset: info.name.to_string(),
                fraction,
                mean_score: score_sum / repeats as f64,
                mean_secs: secs_sum / repeats as f64,
            };
            table.row(vec![
                format!("{:.0}%", fraction * 100.0),
                fmt_score(p.mean_score),
                fmt_secs(p.mean_secs),
            ]);
            points.push(p);
        }
        println!("--- {} ({}) ---", info.name, frame.shape_str());
        table.print();
        println!();
    }
    args.write_json("fig1.json", &points);

    // Shape check the paper's claim: for each dataset, the score at 50%
    // samples should be within a few points of the 100% score while time
    // should be clearly lower.
    for info in args.dataset_infos() {
        let series: Vec<&Point> = points.iter().filter(|p| p.dataset == info.name).collect();
        let half = series.iter().find(|p| p.fraction == 0.5).unwrap();
        let full = series.iter().find(|p| p.fraction == 1.0).unwrap();
        println!(
            "{}: score@50% = {:.3} vs score@100% = {:.3} (gap {:+.3}); \
             time@50% = {} vs time@100% = {}",
            info.name,
            half.mean_score,
            full.mean_score,
            half.mean_score - full.mean_score,
            fmt_secs(half.mean_secs),
            fmt_secs(full.mean_secs),
        );
    }
    args.finish();
}
