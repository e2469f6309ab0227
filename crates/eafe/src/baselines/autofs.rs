//! The `AutoFS_R` baseline (paper §IV-A3): the AutoFS interactive
//! reinforcement-learning *feature selection* framework applied to a pool
//! of **randomly generated** features.
//!
//! AutoFS cannot generate features, so the paper feeds it a random pool:
//! "we generated features randomly and selected features by AutoFS". Here
//! a pool of random transformations is produced up front (uniform operator
//! and operand choices, no learning), then one binary keep/drop RL agent
//! per feature performs selection, rewarded by the downstream score gain.
//! Every toggle is evaluated on the downstream task, which is why Table IV
//! shows `FS_R` with the highest evaluation counts.

use crate::config::EafeConfig;
use crate::error::Result;
use crate::ops::{GeneratedFeature, Operator};
use crate::report::{EpochPoint, EvalCounter, PhaseTimer, RunResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{PolicyConfig, RnnPolicy};
use runtime::ScoreCache;
use std::sync::Arc;
use tabular::{Column, DataFrame};

/// Generate `count` random features from uniformly chosen operators and
/// operands over the original features (+ previously generated ones, so
/// higher orders are reachable). Degenerate outputs are skipped.
pub(crate) fn random_feature_pool(
    frame: &DataFrame,
    count: usize,
    max_order: usize,
    rng: &mut StdRng,
) -> Vec<GeneratedFeature> {
    let mut pool: Vec<GeneratedFeature> = Vec::with_capacity(count);
    let originals: Vec<(&Column, usize)> = frame.columns().iter().map(|c| (c, 0usize)).collect();
    let mut attempts = 0usize;
    while pool.len() < count && attempts < count * 10 {
        attempts += 1;
        let op = Operator::ALL[rng.gen_range(0..Operator::ALL.len())];
        let pick = |rng: &mut StdRng, pool: &[GeneratedFeature]| -> (Column, usize) {
            let total = originals.len() + pool.len();
            let idx = rng.gen_range(0..total);
            if idx < originals.len() {
                (originals[idx].0.clone(), originals[idx].1)
            } else {
                let g = &pool[idx - originals.len()];
                (g.column.clone(), g.order)
            }
        };
        let (a, ao) = pick(rng, &pool);
        let (b, bo) = pick(rng, &pool);
        let feat = GeneratedFeature::generate(op, &a, ao, &b, bo);
        if feat.is_degenerate() || feat.order > max_order {
            continue;
        }
        // Skip exact-name duplicates to keep the pool diverse.
        if pool.iter().any(|g| g.column.name == feat.column.name) {
            continue;
        }
        telemetry::count(op.counter_name(), 1);
        pool.push(feat);
    }
    pool
}

/// Run the `AutoFS_R` baseline, returning its result and the engineered
/// frame (original features plus the best selected subset) for Table V
/// re-evaluation.
///
/// The pool size is `steps_per_epoch × n_original` (matching the per-epoch
/// generation budget of the RNN methods) and selection runs for
/// `stage2_epochs` epochs, evaluating after every agent toggle. With a
/// `cache`, evaluations share that externally owned runtime score cache,
/// so toggles whose frames any consumer of it already evaluated are served
/// without recomputation; without one, the run has a private cache.
pub fn run_autofs_r(
    config: &EafeConfig,
    frame: &DataFrame,
    cache: Option<Arc<ScoreCache<f64>>>,
) -> Result<(RunResult, DataFrame)> {
    config.validate()?;
    let mut frame = frame.clone();
    frame.sanitize();

    let _run_span = telemetry::span("autofs.run");
    let mut timer = PhaseTimer::new();
    timer.start();
    let mut counter = EvalCounter::default();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xA0F5);

    let evaluator = match cache {
        Some(shared) => runtime::Evaluator::with_cache(config.evaluator.clone(), shared),
        None => runtime::Evaluator::new(config.evaluator.clone()),
    };
    let cache_start = evaluator.stats();

    let base_score = timer.evaluation(|| evaluator.evaluate(&frame))?;
    counter.evaluated += 1;

    // Random generation phase.
    let pool_size = (config.steps_per_epoch * frame.n_cols()).max(4);
    let pool =
        timer.generation(|| random_feature_pool(&frame, pool_size, config.max_order, &mut rng));
    counter.generated += pool.len();

    // One binary agent per pool feature.
    let policy_cfg = PolicyConfig {
        state_dim: 4,
        hidden_dim: 8,
        n_actions: 2, // 0 = drop, 1 = keep
        lr: config.policy.lr,
        entropy_coef: config.policy.entropy_coef,
        l2: config.policy.l2,
        seed: config.seed,
    };
    let mut agents: Vec<RnnPolicy> = (0..pool.len())
        .map(|j| {
            RnnPolicy::new(PolicyConfig {
                seed: config.seed ^ (j as u64).wrapping_mul(0x51_7C),
                ..policy_cfg
            })
        })
        .collect::<rl::Result<_>>()?;

    let mut selected: Vec<bool> = vec![false; pool.len()];
    let mut current_score = base_score;
    let mut best_score = base_score;
    let mut best_selected = selected.clone();
    let mut trace = vec![EpochPoint {
        epoch: 0,
        score: base_score,
        downstream_evals: counter.evaluated,
        elapsed_secs: timer.total_secs(),
    }];

    let epochs = config.stage1_epochs + config.stage2_epochs;
    for epoch in 0..epochs {
        let mut epoch_span = telemetry::span("autofs.epoch");
        epoch_span.field("epoch", epoch as f64);
        let epoch_frac = epoch as f64 / epochs.max(1) as f64;
        for (j, agent) in agents.iter_mut().enumerate() {
            agent.reset();
            let n_selected = selected.iter().filter(|&&s| s).count();
            let x = [
                1.0,
                epoch_frac,
                n_selected as f64 / pool.len().max(1) as f64,
                current_score.clamp(-1.0, 1.0),
            ];
            let cache = timer.generation(|| agent.step(&x, &mut rng))?;
            let keep = cache.action == 1;
            if keep == selected[j] {
                // No state change: reward 0, still a learning signal.
                timer.generation(|| agent.update(&[(cache, 0.0)]))?;
                continue;
            }
            let mut trial = selected.clone();
            trial[j] = keep;
            let candidate = assemble(&frame, &pool, &trial)?;
            let score = {
                let _eval_span = telemetry::span("autofs.evaluate");
                timer.evaluation(|| evaluator.evaluate(&candidate))?
            };
            counter.evaluated += 1;
            let reward = score - current_score;
            if reward > 0.0 {
                selected = trial;
                current_score = score;
                if score > best_score {
                    best_score = score;
                    best_selected = selected.clone();
                }
            }
            timer.generation(|| agent.update(&[(cache, reward)]))?;
        }
        trace.push(EpochPoint {
            epoch: epoch + 1,
            score: best_score,
            downstream_evals: counter.evaluated,
            elapsed_secs: timer.total_secs(),
        });
    }

    let selected_names: Vec<String> = pool
        .iter()
        .zip(&best_selected)
        .filter(|(_, &s)| s)
        .map(|(g, _)| g.column.name.clone())
        .collect();

    let engineered = assemble(&frame, &pool, &best_selected)?;
    let cache_stats = evaluator.stats().since(&cache_start);
    let result = RunResult {
        method: "AutoFS_R".into(),
        dataset: frame.name.clone(),
        base_score,
        best_score,
        trace,
        generated_features: counter.generated,
        downstream_evals: counter.evaluated,
        selected: selected_names,
        generation_secs: timer.generation_secs(),
        eval_secs: timer.eval_secs(),
        total_secs: timer.total_secs(),
        cache_hits: cache_stats.hits,
        cache_misses: cache_stats.misses,
    };
    Ok((result, engineered))
}

fn assemble(frame: &DataFrame, pool: &[GeneratedFeature], selected: &[bool]) -> Result<DataFrame> {
    let extra: Vec<Column> = pool
        .iter()
        .zip(selected)
        .filter(|(_, &s)| s)
        .map(|(g, _)| g.column.clone())
        .collect();
    Ok(frame.with_extra_columns(&extra)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::{SynthSpec, Task};

    fn frame() -> DataFrame {
        SynthSpec::new("autofs-test", 120, 4, Task::Classification)
            .with_seed(8)
            .generate()
            .unwrap()
    }

    #[test]
    fn pool_respects_order_and_uniqueness() {
        let f = frame();
        let mut rng = StdRng::seed_from_u64(1);
        let pool = random_feature_pool(&f, 20, 3, &mut rng);
        assert!(!pool.is_empty());
        for g in &pool {
            assert!(g.order <= 3);
            assert!(!g.is_degenerate());
        }
        let mut names: Vec<&str> = pool.iter().map(|g| g.column.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "pool contains duplicate expressions");
    }

    #[test]
    fn autofs_improves_or_matches_base() {
        let result = run_autofs_r(&EafeConfig::fast(), &frame(), None).unwrap().0;
        assert_eq!(result.method, "AutoFS_R");
        assert!(result.best_score >= result.base_score);
        assert!(result.generated_features > 0);
        assert!(result.downstream_evals >= 1);
        assert_eq!(
            result.trace.len(),
            EafeConfig::fast().stage1_epochs + EafeConfig::fast().stage2_epochs + 1
        );
    }

    #[test]
    fn autofs_is_deterministic() {
        let a = run_autofs_r(&EafeConfig::fast(), &frame(), None).unwrap().0;
        let b = run_autofs_r(&EafeConfig::fast(), &frame(), None).unwrap().0;
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.selected, b.selected);
    }

    #[test]
    fn selected_features_come_from_pool() {
        let result = run_autofs_r(&EafeConfig::fast(), &frame(), None).unwrap().0;
        for name in &result.selected {
            assert!(
                name.contains('f'),
                "selected feature `{name}` has unexpected name"
            );
        }
    }
}
