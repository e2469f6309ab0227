//! FPE hyper-parameter search (Algorithm 1, lines 1–2 and 21–23):
//! sweep the hash-function options and compression sizes `d`, training one
//! classifier per combination, and keep the combination maximising
//! validation **recall** subject to `precision > 0` and `recall < 1`
//! (paper Eq. 6).
//!
//! The expensive part of Algorithm 1 — leave-one-feature-out downstream
//! evaluations — does not depend on the compressor, so labels (score gains)
//! are computed once per corpus and only re-compressed per candidate.

use crate::config::CachedEvaluator;
use crate::error::{EafeError, Result};
use crate::fpe::labeling::{score_gains_for_dataset, LabeledFeature};
use crate::fpe::model::FpeModel;
use minhash::{HashFamily, SampleCompressor};
use runtime::WorkerPool;
use serde::{Deserialize, Serialize};
use tabular::DataFrame;

/// Search space over the sample compressor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpeSearchSpace {
    /// Hash families to try (the paper compares CCWS, ICWS, PCWS, 0-bit).
    pub families: Vec<HashFamily>,
    /// Candidate signature dimensions `d` (the paper's default is 48).
    pub dims: Vec<usize>,
    /// Label threshold `thre`.
    pub thre: f64,
    /// Seed for compressors and classifier init.
    pub seed: u64,
}

impl Default for FpeSearchSpace {
    fn default() -> Self {
        Self {
            families: vec![
                HashFamily::Ccws,
                HashFamily::Icws,
                HashFamily::Pcws,
                HashFamily::ZeroBitCws,
            ],
            dims: vec![16, 32, 48, 64],
            thre: 0.01,
            seed: 0xE_AFE,
        }
    }
}

/// Per-candidate outcome, kept for reporting (Figure 8's `d` sweep).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateOutcome {
    /// Hash family tried.
    pub family: HashFamily,
    /// Signature dimension tried.
    pub d: usize,
    /// Validation recall.
    pub recall: f64,
    /// Validation precision.
    pub precision: f64,
    /// Whether the Eq. 6 constraints held.
    pub feasible: bool,
}

/// Result of the search: the winning model plus the full sweep trace.
#[derive(Debug, Clone)]
pub struct FpeSearchResult {
    /// The best model per Eq. 6.
    pub model: FpeModel,
    /// Every candidate's metrics.
    pub outcomes: Vec<CandidateOutcome>,
}

/// Raw labelling of a corpus: per-dataset feature columns with their
/// leave-one-out score gains. Compressor-independent, so it can be reused
/// across the sweep (and cached across threshold studies).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawLabels {
    /// For each feature: the raw column values and its score gain.
    pub features: Vec<(Vec<f64>, f64)>,
}

impl RawLabels {
    /// Run the leave-one-feature-out evaluations over a corpus.
    pub fn compute(corpus: &[DataFrame], evaluator: &CachedEvaluator) -> Result<RawLabels> {
        let mut features = Vec::new();
        for frame in corpus {
            let gains = score_gains_for_dataset(frame, evaluator)?;
            for (j, gain) in gains.into_iter().enumerate() {
                features.push((frame.column(j)?.values.clone(), gain));
            }
        }
        Ok(RawLabels { features })
    }

    /// Like [`RawLabels::compute`], but additionally labels randomly
    /// *generated* features per dataset by their add-one-in score gain
    /// `A(D + f̃) − A(D)`.
    ///
    /// The paper labels only original features by leave-one-out (Eq. 3),
    /// yet the FPE gate is applied to *generated* features at run time;
    /// training on the actual input distribution markedly improves the
    /// gate's transfer (see DESIGN.md §2 — this is the one place we extend
    /// the paper's recipe, and the extension uses only machinery the paper
    /// already has).
    pub fn compute_augmented(
        corpus: &[DataFrame],
        evaluator: &CachedEvaluator,
        generated_per_dataset: usize,
        max_order: usize,
        seed: u64,
    ) -> Result<RawLabels> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut out = Self::compute(corpus, evaluator)?;
        for (i, frame) in corpus.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37));
            let pool = crate::baselines::random_feature_pool(
                frame,
                generated_per_dataset,
                max_order,
                &mut rng,
            );
            if pool.is_empty() {
                continue;
            }
            // Served from cache: `compute` above already evaluated `frame`.
            let a0 = evaluator.evaluate(frame)?;
            let labelled = WorkerPool::new().map(pool, |_ctx, feat| -> Result<_> {
                let candidate = frame.with_extra_columns(std::slice::from_ref(&feat.column))?;
                let gain = evaluator.evaluate(&candidate)? - a0;
                Ok((feat.column.values, gain))
            });
            for item in labelled {
                out.features.push(item?);
            }
        }
        Ok(out)
    }

    /// Materialise labelled examples for a specific compressor + threshold.
    pub fn compress(
        &self,
        compressor: &SampleCompressor,
        thre: f64,
    ) -> Result<Vec<LabeledFeature>> {
        self.represent(&crate::fpe::repr::FeatureRepr::MinHash(*compressor), thre)
    }

    /// Materialise labelled examples for an arbitrary representation. All
    /// columns are represented in one batch, so a MinHash sweep re-visiting
    /// this corpus under an already-seen `(family, d, seed)` is served
    /// entirely from the runtime's signature cache.
    pub fn represent(
        &self,
        repr: &crate::fpe::repr::FeatureRepr,
        thre: f64,
    ) -> Result<Vec<LabeledFeature>> {
        let cols: Vec<&[f64]> = self.features.iter().map(|(v, _)| v.as_slice()).collect();
        let compressed = repr.represent_batch(&cols)?;
        Ok(compressed
            .into_iter()
            .zip(&self.features)
            .map(|(compressed, (_, gain))| LabeledFeature {
                compressed,
                label: usize::from(*gain > thre),
                score_gain: *gain,
            })
            .collect())
    }

    /// Number of labelled features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when no features were labelled.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }
}

/// Run the sweep of Algorithm 1 given pre-computed raw labels for the
/// training and validation corpora.
pub fn search(
    space: &FpeSearchSpace,
    train_labels: &RawLabels,
    val_labels: &RawLabels,
) -> Result<FpeSearchResult> {
    if space.families.is_empty() || space.dims.is_empty() {
        return Err(EafeError::InvalidConfig(
            "FPE search space must contain at least one family and one dim".into(),
        ));
    }
    if train_labels.is_empty() {
        return Err(EafeError::InvalidConfig(
            "FPE search needs a non-empty labelled corpus".into(),
        ));
    }
    let mut search_span = telemetry::span("fpe.search");
    search_span.field(
        "candidates",
        (space.families.len() * space.dims.len()) as f64,
    );
    let mut outcomes = Vec::new();
    let mut best: Option<(f64, FpeModel)> = None;
    for &family in &space.families {
        for &d in &space.dims {
            let mut cand_span = telemetry::span("fpe.search_candidate");
            cand_span.field("d", d as f64);
            let compressor =
                SampleCompressor::new(family, d, space.seed).map_err(EafeError::MinHash)?;
            let train = train_labels.compress(&compressor, space.thre)?;
            let val = val_labels.compress(&compressor, space.thre)?;
            let model = match FpeModel::train(compressor, &train, &val, space.thre, space.seed) {
                Ok(m) => m,
                Err(EafeError::InvalidConfig(_)) => continue, // single-class corpus
                Err(e) => return Err(e),
            };
            let m = model.metrics;
            // Eq. 6: maximise recall s.t. precision > 0 and recall < 1
            // (recall = 1 usually means "classify everything positive",
            // which would make the stage-2 gate useless).
            let feasible = m.precision > 0.0 && m.recall < 1.0;
            outcomes.push(CandidateOutcome {
                family,
                d,
                recall: m.recall,
                precision: m.precision,
                feasible,
            });
            if feasible && best.as_ref().is_none_or(|(r, _)| m.recall > *r) {
                best = Some((m.recall, model));
            }
        }
    }
    // If no candidate satisfied the strict constraints, fall back to the
    // highest-recall candidate overall rather than failing the pipeline.
    if best.is_none() {
        for &family in &space.families {
            for &d in &space.dims {
                let compressor =
                    SampleCompressor::new(family, d, space.seed).map_err(EafeError::MinHash)?;
                let train = train_labels.compress(&compressor, space.thre)?;
                let val = val_labels.compress(&compressor, space.thre)?;
                if let Ok(model) = FpeModel::train(compressor, &train, &val, space.thre, space.seed)
                {
                    let r = model.metrics.recall;
                    if best.as_ref().is_none_or(|(br, _)| r > *br) {
                        best = Some((r, model));
                    }
                }
            }
        }
    }
    let model = best.map(|(_, m)| m).ok_or_else(|| {
        EafeError::InvalidConfig(
            "no FPE candidate could be trained (corpus may be single-class at this thre)".into(),
        )
    })?;
    Ok(FpeSearchResult { model, outcomes })
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit per-field tweaks read clearer in tests
mod tests {
    use super::*;
    use learners::Evaluator;
    use tabular::public_corpus;

    fn small_evaluator() -> CachedEvaluator {
        let mut e = Evaluator::default();
        e.folds = 3;
        e.forest.n_trees = 6;
        e.forest.tree.max_depth = 5;
        runtime::Evaluator::new(e)
    }

    fn labels() -> (RawLabels, RawLabels) {
        let corpus = public_corpus(4, 2, 31).unwrap();
        let ev = small_evaluator();
        let train = RawLabels::compute(&corpus[..4], &ev).unwrap();
        let val = RawLabels::compute(&corpus[4..], &ev).unwrap();
        (train, val)
    }

    #[test]
    fn raw_labels_cover_all_features() {
        let (train, val) = labels();
        assert!(!train.is_empty());
        assert!(!val.is_empty());
        // 4 classification datasets with 5..24 features each.
        assert!(train.len() >= 20, "train labels {}", train.len());
        assert!(val.len() >= 10);
    }

    #[test]
    fn search_returns_feasible_or_fallback_model() {
        let (train, val) = labels();
        let space = FpeSearchSpace {
            families: vec![HashFamily::Ccws, HashFamily::Icws],
            dims: vec![8, 16],
            thre: 0.0,
            seed: 1,
        };
        let result = search(&space, &train, &val).unwrap();
        assert!(!result.outcomes.is_empty());
        assert!(result.model.metrics.recall >= 0.0);
        assert_eq!(result.model.thre, 0.0);
    }

    #[test]
    fn search_rejects_empty_space() {
        let (train, val) = labels();
        let space = FpeSearchSpace {
            families: vec![],
            dims: vec![8],
            ..Default::default()
        };
        assert!(search(&space, &train, &val).is_err());
        assert!(search(
            &FpeSearchSpace::default(),
            &RawLabels { features: vec![] },
            &val
        )
        .is_err());
    }

    #[test]
    fn compress_respects_threshold() {
        let (train, _) = labels();
        let c = SampleCompressor::new(HashFamily::Ccws, 8, 0).unwrap();
        let lo = train.compress(&c, -10.0).unwrap(); // everything positive
        assert!(lo.iter().all(|l| l.label == 1));
        let hi = train.compress(&c, 10.0).unwrap(); // nothing positive
        assert!(hi.iter().all(|l| l.label == 0));
    }
}
