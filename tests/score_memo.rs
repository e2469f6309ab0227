//! The CV-score memo (`learners::cv`) keyed on rank identities: what must
//! hit, what must not, and that a search cannot tell it is there.
//!
//! The premise itself — equal bin codes, equal score bits — is pinned in
//! `crates/learners` against the un-memoised fold loop. Here the memo is
//! in the way on purpose: every assertion reads `score_memo_stats()`
//! deltas, so the tests of this binary take one lock and run one at a
//! time. Debug builds recompute every hit and assert its bits; only
//! `--release` (scripts/ci.sh) serves one.

use eafe::{EafeConfig, Engine, RunResult};
use learners::{score_memo_stats, Evaluator};
use runtime::fingerprint_frame;
use std::sync::{Mutex, MutexGuard};
use tabular::{Column, DataFrame, Label, SynthSpec, Task};

fn memo_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `(hits, misses)` the memo counted while `f` ran.
fn memo_delta<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = score_memo_stats();
    let out = f();
    let during = score_memo_stats().since(&before);
    (out, during.hits, during.misses)
}

/// Three columns of few distinct values (every bin budget ≥ 8 codes them
/// alike) whose content no other test of this binary evaluates.
fn columns(n: usize) -> Vec<Vec<f64>> {
    (0..3u64)
        .map(|c| {
            (0..n as u64)
                .map(|r| ((r * (7 + 4 * c) + r * r * (c + 1)) % (5 + c)) as f64 - 2.0)
                .collect()
        })
        .collect()
}

fn classes(n: usize) -> Vec<usize> {
    (0..n).map(|r| (r * r + r / 3) % 2).collect()
}

fn frame(name: &str, cols: &[Vec<f64>], label: Label) -> DataFrame {
    let cols = cols
        .iter()
        .enumerate()
        .map(|(i, v)| Column::new(format!("{name}{i}"), v.clone()))
        .collect();
    DataFrame::new(name, cols, label).expect("well-formed frame")
}

#[test]
fn the_key_holds_everything_a_score_depends_on() {
    let _serial = memo_lock();
    const N: usize = 120;
    let x = columns(N);
    let y = Label::Class {
        y: classes(N),
        n_classes: 2,
    };
    let mut base = Evaluator::default();
    base.forest.n_trees = 4;
    base.forest.tree.max_depth = 4;
    base.forest.tree.max_bins = 64;

    let (want, hits, misses) = memo_delta(|| base.evaluate(&frame("a", &x, y.clone())).unwrap());
    assert_eq!((hits, misses), (0, 1), "first sight of the frame");

    // Same ranks, label and configuration: one forest serves them all.
    // Frame and column names are not part of a score.
    let mut images = x.clone();
    images[0] = x[0].iter().map(|v| v + v).collect();
    images[1] = x[1].iter().map(|v| 0.5 * v - 7.0).collect();
    images[2] = x[2].iter().map(|v| v * v * v).collect();
    for (what, cols) in [("the frame again", &x), ("increasing images", &images)] {
        let (score, hits, misses) =
            memo_delta(|| base.evaluate(&frame("renamed", cols, y.clone())).unwrap());
        assert_eq!((hits, misses), (1, 0), "{what}");
        assert_eq!(score.to_bits(), want.to_bits(), "{what}");
    }

    // Same codes, anything else different: no hit.
    let with = |edit: fn(&mut Evaluator)| {
        let mut e = base.clone();
        edit(&mut e);
        e
    };
    let mut flipped = classes(N);
    flipped[17] ^= 1;
    let mut swapped = x.clone();
    swapped.swap(0, 2);
    let mut extra = x.clone();
    extra.push(x[0].clone());
    let regression = Label::Reg(classes(N).iter().map(|&c| c as f64).collect());
    let class = |y: Vec<usize>| Label::Class { y, n_classes: 2 };
    let variants: Vec<(&str, Evaluator, Vec<Vec<f64>>, Label)> = vec![
        ("label", base.clone(), x.clone(), class(flipped)),
        (
            "class count",
            base.clone(),
            x.clone(),
            Label::Class {
                y: classes(N),
                n_classes: 3,
            },
        ),
        ("task", base.clone(), x.clone(), regression),
        ("CV seed", with(|e| e.seed = 9), x.clone(), y.clone()),
        ("folds", with(|e| e.folds = 4), x.clone(), y.clone()),
        (
            "n_trees",
            with(|e| e.forest.n_trees = 5),
            x.clone(),
            y.clone(),
        ),
        (
            "max_depth",
            with(|e| e.forest.tree.max_depth = 3),
            x.clone(),
            y.clone(),
        ),
        (
            "max_bins",
            with(|e| e.forest.tree.max_bins = 32),
            x.clone(),
            y.clone(),
        ),
        ("column order", base.clone(), swapped, y.clone()),
        ("one extra column", base.clone(), extra, y.clone()),
    ];
    for (what, e, cols, label) in variants {
        let (_, hits, misses) = memo_delta(|| e.evaluate(&frame("a", &cols, label)).unwrap());
        assert_eq!((hits, misses), (0, 1), "a different {what} must miss");
    }
}

#[test]
fn scorers_without_a_binned_forest_bypass_the_memo() {
    let _serial = memo_lock();
    let x = columns(90);
    let f = frame(
        "bypass",
        &x,
        Label::Class {
            y: classes(90),
            n_classes: 2,
        },
    );
    let nb = Evaluator::with_kind(learners::ModelKind::NaiveBayesGp);
    let (_, hits, misses) = memo_delta(|| {
        nb.evaluate(&f).unwrap();
        nb.evaluate(&f).unwrap()
    });
    assert_eq!((hits, misses), (0, 0));
}

/// Everything of a result but its clocks.
fn without_clocks(mut r: RunResult) -> RunResult {
    (r.generation_secs, r.eval_secs, r.total_secs) = (0.0, 0.0, 0.0);
    r.trace.iter_mut().for_each(|p| p.elapsed_secs = 0.0);
    r
}

#[test]
fn a_search_cannot_tell_the_memo_is_there() {
    let _serial = memo_lock();
    let table = SynthSpec::new("memo-nfs", 240, 8, Task::Classification)
        .with_seed(60158)
        .generate()
        .unwrap();
    let mut cfg = EafeConfig::fast();
    cfg.stage2_epochs = 8;
    cfg.steps_per_epoch = 3;
    // A fresh engine — so a fresh score cache — per run: the second run
    // asks the memo for every forest the first one trained.
    let run = || Engine::nfs(cfg.clone()).run_full(&table).unwrap();

    let ((cold, cold_frame), hits, misses) = memo_delta(run);
    // The memo sits below the score cache: one lookup per miss up there.
    assert_eq!(hits + misses, cold.cache_misses);
    assert!(
        hits * 10 >= (hits + misses) * 3,
        "rank-duplicates inside one NFS search: {hits} hits of {} lookups",
        hits + misses
    );

    let ((warm, warm_frame), warm_hits, warm_misses) = memo_delta(run);
    assert_eq!((warm_hits, warm_misses), (hits + misses, 0));
    assert_eq!(
        fingerprint_frame(&cold_frame),
        fingerprint_frame(&warm_frame)
    );
    // downstream_evals, cache_hits, cache_misses, selected, every trace
    // score: the whole result.
    assert_eq!(without_clocks(cold), without_clocks(warm));
}
