//! **Figure 8** — hyper-parameter sensitivity of E-AFE: the label
//! threshold `thre`, the MinHash signature output dimension `d`, and the
//! maximum transformation order. Each sweep varies one parameter with the
//! others at their paper defaults (thre = 0.01, d = 48, order = 5), on the
//! first configured dataset.
//!
//! Regenerate: `cargo run -p bench --release --bin fig8`

use bench::{fmt_score, print_header, CommonArgs, TextTable};
use eafe::fpe::{search, FpeSearchSpace, RawLabels};
use eafe::Engine;
use minhash::HashFamily;
use serde::Serialize;
use tabular::public_corpus;

#[derive(Serialize)]
struct SweepPoint {
    parameter: String,
    value: f64,
    score: f64,
    downstream_evals: usize,
    total_secs: f64,
}

fn main() {
    let args = CommonArgs::parse();
    print_header("Figure 8: hyperparameter sensitivity", &args);
    let info = args.dataset_infos()[0];
    let frame = args.load(&info);
    println!("dataset: {} ({})\n", info.name, frame.shape_str());

    // Pre-compute corpus labels once; each (thre, d) candidate re-trains
    // the FPE classifier from them (the cheap part).
    let mut label_ev = args.evaluator();
    label_ev.folds = 3;
    let label_ev = args.cached(label_ev);
    let corpus = public_corpus(10, 5, args.seed).expect("corpus");
    let train = RawLabels::compute(&corpus[..12], &label_ev).expect("train labels");
    let val = RawLabels::compute(&corpus[12..], &label_ev).expect("val labels");

    let mut points = Vec::new();
    let cfg = args.config();
    let fpe_for = |thre: f64, d: usize| {
        let space = FpeSearchSpace {
            families: vec![HashFamily::Ccws],
            dims: vec![d],
            thre,
            seed: args.seed,
        };
        search(&space, &train, &val).expect("FPE search").model
    };

    // --- Sweep 1: thre ---
    let mut t1 = TextTable::new(vec!["thre", "score", "evals", "secs"]);
    for &thre in &[0.005, 0.01, 0.02, 0.05] {
        let mut c = cfg.clone();
        c.thre = thre;
        let r = args
            .engine(Engine::e_afe(c, fpe_for(thre, 48)))
            .run(&frame)
            .expect("run");
        t1.row(vec![
            format!("{thre}"),
            fmt_score(r.best_score),
            r.downstream_evals.to_string(),
            format!("{:.1}", r.total_secs),
        ]);
        points.push(SweepPoint {
            parameter: "thre".into(),
            value: thre,
            score: r.best_score,
            downstream_evals: r.downstream_evals,
            total_secs: r.total_secs,
        });
    }
    println!("sweep: thre (d = 48, order = 5)");
    t1.print();

    // --- Sweep 2: MinHash signature output dimension d ---
    let mut t2 = TextTable::new(vec!["d", "score", "evals", "secs"]);
    for &d in &[16usize, 32, 48, 64, 96] {
        let r = args
            .engine(Engine::e_afe(cfg.clone(), fpe_for(0.01, d)))
            .run(&frame)
            .expect("run");
        t2.row(vec![
            d.to_string(),
            fmt_score(r.best_score),
            r.downstream_evals.to_string(),
            format!("{:.1}", r.total_secs),
        ]);
        points.push(SweepPoint {
            parameter: "signature_dim".into(),
            value: d as f64,
            score: r.best_score,
            downstream_evals: r.downstream_evals,
            total_secs: r.total_secs,
        });
    }
    println!("\nsweep: MinHash output dimension (thre = 0.01, order = 5)");
    t2.print();

    // --- Sweep 3: maximum transformation order ---
    let fpe_default = fpe_for(0.01, 48);
    let mut t3 = TextTable::new(vec!["max order", "score", "evals", "secs"]);
    for order in 1..=5usize {
        let mut c = cfg.clone();
        c.max_order = order;
        let r = args
            .engine(Engine::e_afe(c, fpe_default.clone()))
            .run(&frame)
            .expect("run");
        t3.row(vec![
            order.to_string(),
            fmt_score(r.best_score),
            r.downstream_evals.to_string(),
            format!("{:.1}", r.total_secs),
        ]);
        points.push(SweepPoint {
            parameter: "max_order".into(),
            value: order as f64,
            score: r.best_score,
            downstream_evals: r.downstream_evals,
            total_secs: r.total_secs,
        });
    }
    println!("\nsweep: maximum order (thre = 0.01, d = 48)");
    t3.print();

    args.write_json("fig8.json", &points);
    println!(
        "\npaper shape: E-AFE is not strictly sensitive to these parameters; \
         smaller thre → larger recall; very small d hurts; higher order can \
         help some datasets at sharply growing cost."
    );
    args.finish();
}
