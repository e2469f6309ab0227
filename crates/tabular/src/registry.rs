//! Registry of the paper's 36 evaluation datasets (Table III) and the public
//! pre-training corpus (239 OpenML datasets in the paper).
//!
//! The real datasets are not redistributable, so each registry entry pairs
//! the paper-reported shape with a deterministic synthetic stand-in of the
//! same shape (see [`crate::synth`] and DESIGN.md §2 for why the substitution
//! preserves the measured behaviour). Ultra-wide datasets (> [`FEATURE_CAP`]
//! columns) are capped, mirroring the paper's own RF-importance pre-selection
//! step ("E-AFE first conducts feature selection of less than maximum
//! features … on the 36 raw target datasets", §IV-B).

use crate::error::{Result, TabularError};
use crate::frame::{DataFrame, Task};
use crate::synth::SynthSpec;
use serde::{Deserialize, Serialize};

/// Hard cap on generated feature columns for ultra-wide datasets.
pub(crate) const FEATURE_CAP: usize = 512;

/// Hard cap on generated rows for very tall datasets; benches can lower it
/// further with a scale factor, never raise it above the paper shape.
pub(crate) const SAMPLE_CAP: usize = 20_000;

/// Static description of one of the paper's target datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetInfo {
    /// Dataset name as printed in Table III.
    pub name: &'static str,
    /// Downstream task.
    pub task: Task,
    /// Paper-reported sample count.
    pub samples: usize,
    /// Paper-reported feature count.
    pub features: usize,
    /// Class count used by the synthetic stand-in (2 unless noted).
    pub classes: usize,
}

/// All 36 target datasets of Table III, in paper order
/// (26 classification, 10 regression).
pub const TARGET_DATASETS: [DatasetInfo; 36] = [
    ds("Higgs Boson", Task::Classification, 50000, 28, 2),
    ds("A. Employee", Task::Classification, 32769, 9, 2),
    ds("PimaIndian", Task::Classification, 768, 8, 2),
    ds("SpectF", Task::Classification, 267, 44, 2),
    ds("SVMGuide3", Task::Classification, 1243, 21, 2),
    ds("German Credit", Task::Classification, 1001, 24, 2),
    ds("Bikeshare DC", Task::Regression, 10886, 11, 1),
    ds("Housing Boston", Task::Regression, 506, 13, 1),
    ds("Airfoil", Task::Regression, 1503, 5, 1),
    ds("AP. ovary", Task::Classification, 275, 10936, 2),
    ds("Lymphography", Task::Classification, 148, 18, 4),
    ds("Ionosphere", Task::Classification, 351, 34, 2),
    ds("Openml 618", Task::Regression, 1000, 50, 1),
    ds("Openml 589", Task::Regression, 1000, 25, 1),
    ds("Openml 616", Task::Regression, 500, 50, 1),
    ds("Openml 607", Task::Regression, 1000, 50, 1),
    ds("Openml 620", Task::Regression, 1000, 25, 1),
    ds("Openml 637", Task::Regression, 500, 50, 1),
    ds("Openml 586", Task::Regression, 1000, 25, 1),
    ds("Credit Default", Task::Classification, 30000, 25, 2),
    ds("Messidor features", Task::Classification, 1150, 19, 2),
    ds("Wine Q. Red", Task::Classification, 999, 12, 3),
    ds("Wine Q. White", Task::Classification, 4900, 12, 3),
    ds("SpamBase", Task::Classification, 4601, 57, 2),
    ds("AP. lung", Task::Classification, 203, 10936, 2),
    ds("credit-a", Task::Classification, 690, 6, 2),
    ds("diabetes", Task::Classification, 768, 8, 2),
    ds("fertility", Task::Classification, 100, 9, 2),
    ds("gisette", Task::Classification, 2100, 5000, 2),
    ds("hepatitis", Task::Classification, 155, 6, 2),
    ds("labor", Task::Classification, 57, 8, 2),
    ds("lymph", Task::Classification, 138, 10936, 4),
    ds("madelon", Task::Classification, 780, 500, 2),
    ds("megawatt1", Task::Classification, 253, 37, 2),
    ds("secom", Task::Classification, 470, 590, 2),
    ds("sonar", Task::Classification, 208, 60, 2),
];

const fn ds(
    name: &'static str,
    task: Task,
    samples: usize,
    features: usize,
    classes: usize,
) -> DatasetInfo {
    DatasetInfo {
        name,
        task,
        samples,
        features,
        classes,
    }
}

impl DatasetInfo {
    /// Effective (generated) shape after the feature cap, sample cap, and an
    /// optional scale factor in (0, 1] applied to the sample count.
    pub(crate) fn effective_shape(&self, scale: f64) -> (usize, usize) {
        let scale = scale.clamp(1e-6, 1.0);
        let rows = (((self.samples as f64) * scale).round() as usize)
            .clamp(1, SAMPLE_CAP)
            .min(self.samples)
            .max(24); // enough rows for 5-fold stratified CV
        let cols = self.features.min(FEATURE_CAP);
        (rows.min(self.samples.max(24)), cols)
    }

    /// Generate the synthetic stand-in at full (capped) shape.
    pub fn load(&self) -> Result<DataFrame> {
        self.load_scaled(1.0)
    }

    /// Generate the synthetic stand-in at a scaled sample count.
    pub fn load_scaled(&self, scale: f64) -> Result<DataFrame> {
        let (rows, cols) = self.effective_shape(scale);
        SynthSpec::new(self.name, rows, cols, self.task)
            .with_classes(self.classes.max(2))
            .with_seed(0xE_AFE)
            .generate()
    }
}

/// Look up a Table III dataset by (case-insensitive) name.
pub fn find_dataset(name: &str) -> Result<DatasetInfo> {
    TARGET_DATASETS
        .iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
        .copied()
        .ok_or_else(|| TabularError::NoSuchColumn(format!("dataset `{name}`")))
}

/// The four datasets used in the paper's Table I / Figure 1 motivation study.
pub fn motivation_datasets() -> Vec<DatasetInfo> {
    ["PimaIndian", "credit-a", "diabetes", "German Credit"]
        .iter()
        .filter_map(|n| find_dataset(n).ok())
        .collect()
}

/// Generate the public pre-training corpus: `n_class` classification and
/// `n_reg` regression datasets with varied shapes (the paper uses 141 + 98).
/// Shapes are drawn deterministically from `seed`.
pub fn public_corpus(n_class: usize, n_reg: usize, seed: u64) -> Result<Vec<DataFrame>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n_class + n_reg);
    for i in 0..(n_class + n_reg) {
        let task = if i < n_class {
            Task::Classification
        } else {
            Task::Regression
        };
        let rows = rng.gen_range(120..800);
        let cols = rng.gen_range(5..24);
        let classes = if task == Task::Classification {
            rng.gen_range(2..4)
        } else {
            1
        };
        let frame = SynthSpec::new(format!("public-{i}"), rows, cols, task)
            .with_classes(classes.max(2))
            .with_noise(rng.gen_range(0.05..0.4))
            .with_depth(rng.gen_range(1..4))
            .with_seed(seed.wrapping_add(i as u64 * 7919))
            .generate()?;
        out.push(frame);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_paper_counts() {
        assert_eq!(TARGET_DATASETS.len(), 36);
        let n_class = TARGET_DATASETS
            .iter()
            .filter(|d| d.task == Task::Classification)
            .count();
        assert_eq!(n_class, 26);
        assert_eq!(36 - n_class, 10);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(find_dataset("pimaindian").unwrap().samples, 768);
        assert!(find_dataset("no-such").is_err());
    }

    #[test]
    fn effective_shape_applies_caps() {
        let wide = find_dataset("AP. ovary").unwrap();
        let (rows, cols) = wide.effective_shape(1.0);
        assert_eq!(cols, FEATURE_CAP);
        assert_eq!(rows, 275);

        let tall = find_dataset("Higgs Boson").unwrap();
        let (rows, _) = tall.effective_shape(1.0);
        assert_eq!(rows, SAMPLE_CAP);
    }

    #[test]
    fn scale_reduces_rows_with_floor() {
        let d = find_dataset("PimaIndian").unwrap();
        let (rows, cols) = d.effective_shape(0.1);
        assert_eq!(cols, 8);
        assert_eq!(rows, 77);
        let (tiny_rows, _) = d.effective_shape(0.0001);
        assert_eq!(tiny_rows, 24); // floor for 5-fold CV
    }

    #[test]
    fn load_scaled_generates_dataset() {
        let d = find_dataset("labor").unwrap();
        let f = d.load().unwrap();
        assert_eq!(f.n_rows(), 57);
        assert_eq!(f.n_cols(), 8);
        assert_eq!(f.task(), Task::Classification);
    }

    #[test]
    fn motivation_datasets_present() {
        let m = motivation_datasets();
        assert_eq!(m.len(), 4);
        assert_eq!(m[0].name, "PimaIndian");
    }

    #[test]
    fn public_corpus_mixes_tasks() {
        let corpus = public_corpus(3, 2, 11).unwrap();
        assert_eq!(corpus.len(), 5);
        assert_eq!(
            corpus
                .iter()
                .filter(|f| f.task() == Task::Classification)
                .count(),
            3
        );
        // Deterministic.
        let again = public_corpus(3, 2, 11).unwrap();
        assert_eq!(corpus[0], again[0]);
    }
}
