//! Integration tests of the FPE model's cross-dataset transfer: the whole
//! point of Algorithm 1 is that a classifier pre-trained on public datasets
//! carries over to unseen target datasets through the fixed-size MinHash
//! representation.

use eafe::fpe::{search, FpeSearchSpace, RawLabels};
use eafe::{bootstrap_fpe, EafeConfig, FpeModel};
use learners::Evaluator;
use minhash::HashFamily;
use tabular::public_corpus;

fn evaluator() -> Evaluator {
    let mut e = Evaluator {
        folds: 3,
        ..Evaluator::default()
    };
    e.forest.n_trees = 8;
    e.forest.tree.max_depth = 6;
    e
}

fn labels(seed: u64, n_class: usize, n_reg: usize) -> RawLabels {
    let corpus = public_corpus(n_class, n_reg, seed).unwrap();
    RawLabels::compute_augmented(&corpus, &runtime::Evaluator::new(evaluator()), 6, 3, seed)
        .unwrap()
}

#[test]
fn fpe_transfers_to_unseen_corpus() {
    // Train on one corpus, validate on a disjoint one (different seed →
    // different datasets): recall must beat the trivial all-negative
    // classifier and precision must be non-zero (paper Eq. 6 constraints).
    let train = labels(100, 6, 3);
    let val = labels(200, 3, 2);
    let space = FpeSearchSpace {
        families: vec![HashFamily::Ccws],
        dims: vec![32],
        thre: 0.01,
        seed: 1,
    };
    let result = search(&space, &train, &val).unwrap();
    let m = result.model.metrics;
    assert!(m.recall > 0.0, "recall {}", m.recall);
    assert!(m.precision > 0.0, "precision {}", m.precision);
    assert!(
        m.positive_rate < 0.95,
        "gate passes almost everything: {}",
        m.positive_rate
    );
}

#[test]
fn search_prefers_higher_recall_candidates() {
    let train = labels(300, 6, 3);
    let val = labels(400, 3, 2);
    let space = FpeSearchSpace {
        families: vec![HashFamily::Ccws, HashFamily::Icws],
        dims: vec![16, 48],
        thre: 0.01,
        seed: 2,
    };
    let result = search(&space, &train, &val).unwrap();
    let winner_recall = result.model.metrics.recall;
    for outcome in result.outcomes.iter().filter(|o| o.feasible) {
        assert!(
            winner_recall + 1e-12 >= outcome.recall,
            "winner recall {winner_recall} < feasible candidate {outcome:?}"
        );
    }
}

#[test]
fn persisted_fpe_model_is_identical_in_the_engine() {
    use eafe::{EafeConfig, Engine};
    use tabular::{SynthSpec, Task};

    let train = labels(500, 5, 2);
    let val = labels(600, 2, 1);
    let space = FpeSearchSpace {
        families: vec![HashFamily::Ccws],
        dims: vec![16],
        thre: 0.01,
        seed: 3,
    };
    let model = search(&space, &train, &val).unwrap().model;
    let reloaded = FpeModel::from_json(&model.to_json().unwrap()).unwrap();

    let frame = SynthSpec::new("transfer", 150, 5, Task::Classification)
        .with_seed(61)
        .generate()
        .unwrap();
    let cfg = EafeConfig::fast();
    let a = Engine::e_afe(cfg.clone(), model).run(&frame).unwrap();
    let b = Engine::e_afe(cfg, reloaded).run(&frame).unwrap();
    assert_eq!(a.best_score, b.best_score);
    assert_eq!(a.downstream_evals, b.downstream_evals);
    assert_eq!(a.selected, b.selected);
}

#[test]
fn augmented_labelling_supersets_plain_labelling() {
    let corpus = public_corpus(3, 1, 700).unwrap();
    let ev = runtime::Evaluator::new(evaluator());
    let plain = RawLabels::compute(&corpus, &ev).unwrap();
    let augmented = RawLabels::compute_augmented(&corpus, &ev, 4, 3, 7).unwrap();
    assert!(augmented.len() > plain.len());
    // The plain (leave-one-out) labels are a prefix of the augmented set.
    for (p, a) in plain.features.iter().zip(&augmented.features) {
        assert_eq!(p.0, a.0);
        assert!((p.1 - a.1).abs() < 1e-12);
    }
}

/// The FPE model of the benchmark's pre-training spec (CCWS, d = 48,
/// `thre` 0.01, five classification and two regression corpus tables, the
/// fast evaluator) serialises to the bytes it always has. The benchmark
/// hands every child process the model as this JSON and users persist it
/// with `--fpe`, so the compressor's serde form and the model's bits are
/// pinned: the form by the JSON's head, the rest by its length and
/// 128-bit digest.
#[test]
fn benchmark_fpe_model_json_is_pinned() {
    const FPE_SEED: u64 = 0x6670_6521;
    let space = FpeSearchSpace {
        families: vec![HashFamily::Ccws],
        dims: vec![48],
        thre: 0.01,
        seed: FPE_SEED,
    };
    let evaluator = EafeConfig::fast().evaluator;
    let fpe = bootstrap_fpe(5, 2, &space, &evaluator, FPE_SEED).unwrap();
    let json = fpe.to_json().unwrap();
    let head = r#"{"repr":{"MinHash":{"hasher":{"family":"Ccws","d":48,"seed":1718641953}}},"#;
    assert!(
        json.starts_with(head),
        "{}",
        &json[..head.len().min(json.len())]
    );
    assert_eq!(json.len(), 4126);
    let mut digest = runtime::Hasher128::new();
    digest.write_str(&json);
    assert_eq!(digest.finish().0, 0xb883_d694_9080_6d59_803d_6738_b66f_0a55);
    assert_eq!(FpeModel::from_json(&json).unwrap(), fpe);
}
