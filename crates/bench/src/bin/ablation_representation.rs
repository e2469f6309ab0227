//! **Ablation (extra, paper Q6)** — why MinHash? The paper argues for
//! MinHash over the other approximate-feature representations its related
//! work surveys (§V-B): quantile data sketches (LFE) and meta-features.
//! This bench trains one FPE classifier per representation on identical
//! labels and compares (a) classifier recall/precision and (b) the final
//! E-AFE score and evaluation count when that classifier drives the gate.
//!
//! Regenerate: `cargo run -p bench --release --bin ablation_representation`

use bench::{fmt_score, print_header, CommonArgs, TextTable};
use eafe::fpe::{FeatureRepr, FpeModel, RawLabels};
use eafe::Engine;
use minhash::{HashFamily, SampleCompressor};
use serde::Serialize;
use tabular::public_corpus;

#[derive(Serialize)]
struct Row {
    representation: String,
    recall: f64,
    precision: f64,
    positive_rate: f64,
    mean_score: f64,
    mean_evals: f64,
}

fn main() {
    let args = CommonArgs::parse();
    print_header("Ablation: FPE feature representation (paper Q6)", &args);

    let mut label_ev = args.evaluator();
    label_ev.folds = 3;
    let label_ev = args.cached(label_ev);
    println!("labelling the public corpus once (shared across representations)...");
    let corpus = public_corpus(12, 6, args.seed).expect("corpus");
    let train =
        RawLabels::compute_augmented(&corpus[..14], &label_ev, 8, 3, args.seed).expect("train");
    let val =
        RawLabels::compute_augmented(&corpus[14..], &label_ev, 8, 3, args.seed ^ 1).expect("val");
    println!(
        "labelled {} train / {} val features\n",
        train.len(),
        val.len()
    );

    let reprs = vec![
        FeatureRepr::MinHash(SampleCompressor::new(HashFamily::Ccws, 48, args.seed).unwrap()),
        FeatureRepr::QuantileSketch { d: 48 },
        FeatureRepr::MetaFeatures,
    ];

    let frames: Vec<_> = args
        .dataset_infos()
        .iter()
        .map(|info| args.load(info))
        .collect();
    let cfg = args.config();

    let mut table = TextTable::new(vec![
        "representation",
        "recall",
        "precision",
        "pos-rate",
        "mean E-AFE score",
        "mean evals",
    ]);
    let mut rows = Vec::new();
    for repr in reprs {
        let name = repr.name();
        if !args.quiet {
            eprintln!("training FPE with {name} ...");
        }
        let t = train.represent(&repr, 0.01).expect("train repr");
        let v = val.represent(&repr, 0.01).expect("val repr");
        let model = FpeModel::train_with_repr(repr, &t, &v, 0.01, args.seed).expect("train");
        let m = model.metrics;

        let mut scores = Vec::new();
        let mut evals = Vec::new();
        for frame in &frames {
            let engine = args.engine(Engine::e_afe_variant(cfg.clone(), model.clone(), "E-AFE*"));
            let r = engine.run(frame).expect("run");
            scores.push(r.best_score);
            evals.push(r.downstream_evals as f64);
        }
        let mean_score = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
        let mean_evals = evals.iter().sum::<f64>() / evals.len().max(1) as f64;
        table.row(vec![
            name.clone(),
            fmt_score(m.recall),
            fmt_score(m.precision),
            fmt_score(m.positive_rate),
            fmt_score(mean_score),
            format!("{mean_evals:.0}"),
        ]);
        rows.push(Row {
            representation: name,
            recall: m.recall,
            precision: m.precision,
            positive_rate: m.positive_rate,
            mean_score,
            mean_evals,
        });
    }
    table.print();
    args.write_json("ablation_representation.json", &rows);
    println!(
        "\npaper's Q6 argument: MinHash both fixes the dimension across \
         datasets AND preserves sample similarity (Eq. 2); sketches keep \
         marginals only, meta-features compress harder still."
    );
    args.finish();
}
