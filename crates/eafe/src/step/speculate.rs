//! Speculation: predicting the next slice's compute-heavy work without
//! advancing the search. The replays call the driver's own `propose` and
//! `Engine::gate` on copies of the policies and streams, which is what
//! makes their predictions exact up to the first acceptance; a
//! distributed coordinator warms its caches with them.

use super::{propose, selection_under, GateStreams, SearchPhase, SearchState};
use crate::engine::{Engine, Gate};
use crate::error::Result;
use crate::report::SearchStage;
use crate::store::Candidate;
use learners::Selection;
use tabular::{Column, DataFrame};

impl Engine {
    /// FPE-score a candidate column through this engine's gate model, or
    /// `None` when the engine has no FPE gate. Scoring sketches the column
    /// through the process-wide signature cache, so calling this on
    /// speculated columns warms the cache a subsequent [`Engine::step`]
    /// (in this or another process, via snapshot/merge) will hit.
    pub fn fpe_score(&self, values: &[f64]) -> Result<Option<f64>> {
        match &self.gate {
            Gate::Fpe(fpe) => Ok(Some(fpe.score_feature(values)?)),
            _ => Ok(None),
        }
    }

    /// Replay the next slice's proposals on copies of the policies and
    /// streams, without advancing the search, and collect the columns of
    /// the candidates `keep` selects. `keep` sees each candidate with the
    /// slice's stage and the gate streams, so it can ask
    /// [`Engine::structurally_ok`] or [`Engine::gate`] exactly what the
    /// real epoch will ask. There is no policy update: updates only
    /// influence later epochs, and speculation predicts one slice ahead.
    fn replay_proposals(
        &self,
        search: &SearchState,
        mut keep: impl FnMut(&Candidate<Column>, SearchStage, &mut GateStreams) -> Result<bool>,
    ) -> Result<Vec<Column>> {
        let core = &search.core;
        let cfg = &self.config;
        let (stage, epoch) = match core.phase.slice() {
            Some(slice) if slice.0 != SearchStage::Seed => slice,
            _ => return Ok(Vec::new()),
        };
        let epoch_frac = self.epoch_frac(stage, epoch);
        let mut rng = core.rng.to_rng();
        let mut streams = GateStreams::of(core);
        let mut policies = core.policies.clone();
        let mut columns = Vec::new();
        for (agent, policy) in policies.iter_mut().enumerate() {
            policy.reset();
            for step in 0..cfg.steps_per_epoch {
                let (_, candidate) =
                    propose(cfg, &core.state, policy, &mut rng, agent, step, epoch_frac)?;
                if keep(&candidate, stage, &mut streams)? {
                    columns.push(candidate.into_column());
                }
            }
        }
        Ok(columns)
    }

    /// Predict the candidate columns the *next* slice will FPE-score,
    /// without advancing the search.
    ///
    /// Stage-1 prediction is **exact**: within an epoch, candidate
    /// generation consumes policy and RNG state only — FPE scores feed the
    /// replay buffer and the end-of-episode policy update, never the
    /// within-epoch draws — so replaying generation from cloned state
    /// yields precisely the columns `step` will score. Stage-2 prediction
    /// is **optimistic**: an accepted candidate mutates the subgroups and
    /// generation budget mid-epoch, diverging every later draw, so columns
    /// past the first acceptance may be wasted work. Mispredictions cost
    /// only compute: the signature cache is content-addressed and only
    /// short-circuits recomputation, never changes a score.
    pub fn speculate_fpe_columns(&self, search: &SearchState) -> Result<Vec<Column>> {
        if !matches!(self.gate, Gate::Fpe(_)) {
            return Ok(Vec::new());
        }
        self.replay_proposals(search, |candidate, stage, _| {
            Ok(self.structurally_ok(&search.core, candidate, stage))
        })
    }

    /// Predict the candidate frames the *next* slice will send to the
    /// downstream evaluator, without advancing the search. Returns the
    /// shared frame prefix (the current selected frame), the search's own
    /// [`Selection`] of it under this engine's bin budget (key state,
    /// digests and bins — what `step` keys and scores against), and one
    /// candidate column per predicted evaluation — evaluation `k`'s frame
    /// is `prefix.with_extra_columns(&[candidates[k]])`, the same
    /// construction `step` uses, so fingerprints line up entry for entry.
    ///
    /// The prediction assumes **no acceptance** during the slice: an
    /// acceptance re-bases every later candidate on a larger selected
    /// frame, so entries past the first acceptance miss and are computed
    /// locally. The prefix of predicted evaluations up to (and including)
    /// the first acceptance is exact.
    pub fn speculate_evals(
        &self,
        search: &SearchState,
    ) -> Result<(DataFrame, Selection, Vec<Column>)> {
        let core = &search.core;
        let state = &core.state;
        let prefix = state.raw_frame(None)?;
        let budget = self.config.evaluator.bin_budget(prefix.task());
        let selection = selection_under(state, search.selection.clone(), budget)?;
        let candidates = match core.phase {
            SearchPhase::Seed if state.plan.n_generated() < core.max_generated => self
                .seed_queue(state.plan.n_agents(), &mut core.replay.clone())
                .map(|lineage| Ok(state.generate(lineage)?.into_column()))
                .collect::<Result<_>>()?,
            SearchPhase::Stage2 { .. } => self
                .replay_proposals(search, |candidate, stage, streams| {
                    Ok(self.gate(core, candidate, stage, streams)?.0)
                })?,
            _ => Vec::new(),
        };
        Ok((prefix, selection, candidates))
    }
}

#[cfg(test)]
mod tests {
    use crate::config::EafeConfig;
    use crate::engine::Engine;
    use serde::Serialize;
    use tabular::{DataFrame, SynthSpec, Task};

    fn fast_config() -> EafeConfig {
        EafeConfig::fast()
    }

    fn target_frame() -> DataFrame {
        SynthSpec::new("step-test", 150, 5, Task::Classification)
            .with_seed(5)
            .generate()
            .unwrap()
    }

    #[test]
    fn speculative_warming_preserves_results_bitwise() {
        let frame = target_frame();
        let cfg = fast_config();
        let solo = Engine::nfs(cfg.clone()).run(&frame).unwrap();

        // Warmed run: before every slice, evaluate all speculated frames
        // into the shared cache — exactly what a distributed coordinator
        // does with worker results — then step and compare bitwise.
        let cache = std::sync::Arc::new(runtime::ScoreCache::new(4096));
        let engine = Engine::nfs(cfg).with_cache(std::sync::Arc::clone(&cache));
        let evaluator = engine.evaluator();
        let mut state = engine.start(&frame).unwrap();
        let mut warm_hits = 0u64;
        while !state.is_done() {
            let (prefix, _, candidates) = engine.speculate_evals(&state).unwrap();
            for candidate in &candidates {
                let speculative = prefix
                    .with_extra_columns(std::slice::from_ref(candidate))
                    .unwrap();
                evaluator.evaluate(&speculative).unwrap();
            }
            let before = evaluator.stats();
            engine.step(&mut state).unwrap();
            warm_hits += evaluator.stats().since(&before).hits;
        }
        let (warmed, _) = engine.finish(&state).unwrap();
        assert_eq!(solo.best_score.to_bits(), warmed.best_score.to_bits());
        assert_eq!(solo.downstream_evals, warmed.downstream_evals);
        assert_eq!(solo.generated_features, warmed.generated_features);
        assert_eq!(solo.selected, warmed.selected);
        for (a, b) in solo.trace.iter().zip(&warmed.trace) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert!(warm_hits > 0, "speculated evaluations must serve step hits");
    }

    #[test]
    fn speculative_warming_holds_with_a_random_drop_gate() {
        // E-AFE_D draws gate decisions from the dedicated gate stream;
        // speculation must replay that stream without perturbing it.
        let frame = target_frame();
        let cfg = fast_config();
        let solo = Engine::e_afe_d(cfg.clone(), 0.4).run(&frame).unwrap();

        let cache = std::sync::Arc::new(runtime::ScoreCache::new(4096));
        let engine = Engine::e_afe_d(cfg, 0.4).with_cache(std::sync::Arc::clone(&cache));
        let evaluator = engine.evaluator();
        let mut state = engine.start(&frame).unwrap();
        while !state.is_done() {
            let (prefix, _, candidates) = engine.speculate_evals(&state).unwrap();
            for candidate in &candidates {
                let speculative = prefix
                    .with_extra_columns(std::slice::from_ref(candidate))
                    .unwrap();
                evaluator.evaluate(&speculative).unwrap();
            }
            engine.step(&mut state).unwrap();
        }
        let (warmed, _) = engine.finish(&state).unwrap();
        assert_eq!(solo.best_score.to_bits(), warmed.best_score.to_bits());
        assert_eq!(solo.downstream_evals, warmed.downstream_evals);
        assert_eq!(solo.selected, warmed.selected);
    }

    #[test]
    fn speculation_does_not_mutate_the_search() {
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        let mut state = engine.start(&frame).unwrap();
        engine.step(&mut state).unwrap();
        let before = state.to_value();
        engine.speculate_evals(&state).unwrap();
        engine.speculate_fpe_columns(&state).unwrap();
        assert_eq!(state.to_value(), before);
    }

    #[test]
    fn speculated_evals_prefix_matches_the_real_slice_until_acceptance() {
        // With no gate, the first speculated candidate frame is exactly the
        // first frame the slice evaluates: its cache entry must be hit.
        let frame = target_frame();
        let engine = Engine::nfs(fast_config());
        let mut state = engine.start(&frame).unwrap();
        let evaluator = state.evaluator.clone().unwrap();
        while !state.is_done() {
            let (prefix, _, candidates) = engine.speculate_evals(&state).unwrap();
            if let Some(first) = candidates.first() {
                let speculative = prefix
                    .with_extra_columns(std::slice::from_ref(first))
                    .unwrap();
                let key = evaluator.cache_key(&speculative);
                evaluator.evaluate(&speculative).unwrap();
                assert!(evaluator.cache().contains(key));
                let shard_hits_before = evaluator.stats();
                engine.step(&mut state).unwrap();
                assert!(
                    evaluator.stats().since(&shard_hits_before).hits >= 1,
                    "first speculated frame must be served from cache"
                );
            } else {
                engine.step(&mut state).unwrap();
            }
        }
    }
}
