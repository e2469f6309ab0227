//! FPE pre-training deep dive: run Algorithm 1's hyper-parameter search
//! over hash families × signature dimensions on a public corpus, inspect
//! the recall/precision landscape, persist the winning model to JSON, and
//! reload it — the "pre-train once, deploy everywhere" workflow the paper's
//! complexity analysis argues for.
//!
//! ```sh
//! cargo run --release --example fpe_pretraining
//! ```

use eafe::fpe::{search, FpeSearchSpace, RawLabels};
use eafe::FpeModel;
use learners::Evaluator;
use minhash::HashFamily;
use tabular::public_corpus;

fn main() {
    // A scaled-down public corpus (the paper uses 141 classification + 98
    // regression OpenML datasets; synthetic stand-ins here — DESIGN.md §2).
    let corpus = public_corpus(12, 6, 2024).expect("corpus");
    let (train_corpus, val_corpus) = corpus.split_at(14);
    println!(
        "public corpus: {} training + {} validation datasets",
        train_corpus.len(),
        val_corpus.len()
    );

    let evaluator = Evaluator {
        folds: 3,
        ..Evaluator::default()
    };
    // Route through the shared runtime: content-addressed score caching
    // means the per-frame baselines A₀ are evaluated once across both
    // labelling passes.
    let evaluator = runtime::Evaluator::new(evaluator);
    println!("labelling features by leave-one-out + generated add-one-in gains...");
    let train = RawLabels::compute_augmented(train_corpus, &evaluator, 8, 3, 1).expect("train");
    let val = RawLabels::compute_augmented(val_corpus, &evaluator, 8, 3, 2).expect("val");
    println!(
        "labelled {} train / {} val features",
        train.len(),
        val.len()
    );

    // The Algorithm 1 sweep: 4 CWS families x 4 signature dimensions.
    let space = FpeSearchSpace {
        families: vec![
            HashFamily::Ccws,
            HashFamily::Icws,
            HashFamily::Pcws,
            HashFamily::ZeroBitCws,
        ],
        dims: vec![16, 32, 48, 64],
        thre: 0.01,
        seed: 2024,
    };
    println!("\nsearching {} compressor candidates...", 16);
    let result = search(&space, &train, &val).expect("search");

    println!(
        "\n{:<10} {:>4} {:>8} {:>10} {:>9}",
        "family", "d", "recall", "precision", "feasible"
    );
    for o in &result.outcomes {
        println!(
            "{:<10} {:>4} {:>8.3} {:>10.3} {:>9}",
            o.family.name(),
            o.d,
            o.recall,
            o.precision,
            o.feasible
        );
    }
    let model = result.model;
    println!(
        "\nwinner: {} with d = {} (recall {:.3}, precision {:.3})",
        model
            .family()
            .expect("search picked a MinHash model")
            .name(),
        model.d(),
        model.metrics.recall,
        model.metrics.precision
    );

    // Persist and reload — the deployment path.
    let json = model.to_json().expect("serialise");
    std::fs::create_dir_all("bench_results").expect("mkdir");
    std::fs::write("bench_results/fpe_example.json", &json).expect("write");
    let reloaded = FpeModel::from_json(&json).expect("reload");
    let probe: Vec<f64> = (0..100).map(|i| (i as f64 * 0.31).sin() * 2.0).collect();
    assert_eq!(
        model.score_feature(&probe).expect("score"),
        reloaded.score_feature(&probe).expect("score")
    );
    println!("persisted to bench_results/fpe_example.json and verified reload.");
}
