//! **Figure 6** — the FPE label threshold `thre` vs the score-gain
//! distribution: how many features each threshold labels effective, and
//! the recall the trained FPE classifier achieves at that threshold. The
//! precision is printed beside the validation base rate — the precision
//! of a classifier that calls every validation feature effective.
//!
//! Regenerate: `cargo run -p bench --release --bin fig6`

use bench::{print_header, CommonArgs, TextTable};
use eafe::fpe::{search, FpeSearchSpace, RawLabels};
use minhash::HashFamily;
use serde::Serialize;
use tabular::public_corpus;

const THRESHOLDS: [f64; 5] = [0.0, 0.005, 0.01, 0.02, 0.05];

#[derive(Serialize)]
struct Row {
    thre: f64,
    positive_fraction: f64,
    recall: f64,
    precision: f64,
    val_positive_fraction: f64,
}

fn main() {
    let args = CommonArgs::parse();
    print_header("Figure 6: thre vs score gain / recall", &args);

    let mut evaluator = args.evaluator();
    evaluator.folds = 3;
    let evaluator = args.cached(evaluator);
    let corpus = public_corpus(12, 6, args.seed).expect("corpus");
    let n_val = corpus.len() / 5;
    let split = corpus.len() - n_val.max(1);
    println!(
        "labelling {} public datasets (train {}, val {}) by leave-one-feature-out...",
        corpus.len(),
        split,
        corpus.len() - split
    );
    let train = RawLabels::compute(&corpus[..split], &evaluator).expect("train labels");
    let val = RawLabels::compute(&corpus[split..], &evaluator).expect("val labels");
    println!(
        "labelled {} train / {} val features\n",
        train.len(),
        val.len()
    );

    // The score-gain distribution itself (Figure 6's x-axis).
    let mut gains: Vec<f64> = train.features.iter().map(|(_, g)| *g).collect();
    gains.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |q: f64| gains[((gains.len() - 1) as f64 * q) as usize];
    println!(
        "score-gain distribution: p10 {:+.4}  p50 {:+.4}  p90 {:+.4}  max {:+.4}\n",
        pct(0.1),
        pct(0.5),
        pct(0.9),
        gains[gains.len() - 1]
    );

    let mut table = TextTable::new(vec![
        "thre",
        "positives",
        "recall",
        "precision",
        "val base rate",
    ]);
    let mut rows = Vec::new();
    for &thre in &THRESHOLDS {
        let positive_fraction = |labels: &RawLabels| {
            labels.features.iter().filter(|(_, g)| *g > thre).count() as f64 / labels.len() as f64
        };
        let positives = positive_fraction(&train);
        let val_positives = positive_fraction(&val);
        let space = FpeSearchSpace {
            families: vec![HashFamily::Ccws],
            dims: vec![32],
            thre,
            seed: args.seed,
        };
        let (recall, precision) = match search(&space, &train, &val) {
            Ok(result) => (result.model.metrics.recall, result.model.metrics.precision),
            Err(_) => (f64::NAN, f64::NAN), // single-class at extreme thre
        };
        table.row(vec![
            format!("{thre:.3}"),
            format!("{:.1}%", positives * 100.0),
            format!("{recall:.3}"),
            format!("{precision:.3}"),
            format!("{val_positives:.3}"),
        ]);
        rows.push(Row {
            thre,
            positive_fraction: positives,
            recall,
            precision,
            val_positive_fraction: val_positives,
        });
    }
    table.print();
    args.write_json("fig6.json", &rows);
    println!(
        "\nshape check: positives (and typically recall pressure) shrink as thre grows — \
         the paper picks thre = 0.01 as the recall/selectivity trade-off."
    );
    args.finish();
}
