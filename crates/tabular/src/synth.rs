//! Synthetic dataset generation with *planted operator compositions*.
//!
//! The paper evaluates on 36 OpenML/UCI datasets and pre-trains its FPE model
//! on 239 public datasets. Those datasets are not redistributable here, so we
//! generate synthetic stand-ins whose labels depend on hidden compositions of
//! the very operator set E-AFE searches over (log, sqrt, reciprocal, min-max,
//! +, −, ×, ÷, mod). This preserves the property the experiments rely on:
//! automated feature engineering can genuinely discover features that improve
//! the downstream score, some generated features are useful and many are not,
//! and a pre-evaluation classifier has real signal to learn.
//!
//! Generation is fully deterministic given a [`SynthSpec`] (including seed).

use crate::chunk::{ChunkEncoding, ChunkOptions, ChunkedFrame};
use crate::column::Column;
use crate::error::{Result, TabularError};
use crate::frame::{DataFrame, Label, Task};
use crate::store::ColumnStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal, Normal, Uniform};
use serde::{Deserialize, Serialize};

/// Specification of a synthetic dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthSpec {
    /// Dataset name.
    pub name: String,
    /// Number of rows.
    pub n_samples: usize,
    /// Number of visible feature columns.
    pub n_features: usize,
    /// Task type.
    pub task: Task,
    /// Number of classes (ignored for regression; min 2 for classification).
    pub n_classes: usize,
    /// Fraction of features carrying signal (the rest are distractors).
    pub informative_fraction: f64,
    /// Standard deviation of additive label noise, relative to signal std.
    pub noise: f64,
    /// Maximum composition depth of the planted terms (1..=3 is realistic).
    pub composition_depth: usize,
    /// RNG seed; two specs differing only in seed give different datasets.
    pub seed: u64,
}

impl SynthSpec {
    /// A reasonable default spec: binary classification, 30% distractors,
    /// mild noise, depth-2 planted compositions.
    pub fn new(name: impl Into<String>, n_samples: usize, n_features: usize, task: Task) -> Self {
        Self {
            name: name.into(),
            n_samples,
            n_features,
            task,
            n_classes: 2,
            informative_fraction: 0.7,
            noise: 0.2,
            composition_depth: 2,
            seed: 0x5eed,
        }
    }

    /// Builder: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set the class count.
    pub(crate) fn with_classes(mut self, n_classes: usize) -> Self {
        self.n_classes = n_classes;
        self
    }

    /// Builder: set the noise level.
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }

    /// Builder: set composition depth of planted terms.
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.composition_depth = depth;
        self
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Result<DataFrame> {
        generate(self)
    }

    /// Generate the dataset chunk-at-a-time, emitting encoded chunks
    /// directly to `store` under the given chunk options, so the feature
    /// matrix never materializes in RAM (peak feature memory is one
    /// chunk-row stripe plus whatever the budget keeps resident).
    ///
    /// Deterministic for a given `(spec, chunk_rows)`: every `(column,
    /// chunk)` pair draws from its own seed-derived RNG stream, so output
    /// is independent of generation order but *does* depend on the chunk
    /// size. The streamed dataset is therefore a sibling of
    /// [`generate`](Self::generate)'s (same marginals, planted terms, and
    /// label construction), not a bit-copy of it.
    pub fn generate_chunked(
        &self,
        opts: ChunkOptions,
        store: Box<dyn ColumnStore>,
    ) -> Result<ChunkedFrame> {
        generate_chunked(self, opts, store)
    }
}

/// The unary primitives used in planted compositions. These mirror the
/// E-AFE operator set so the search space contains the ground truth.
fn unary(which: usize, x: f64) -> f64 {
    match which % 4 {
        0 => (x.abs() + 1.0).ln(),
        1 => x.abs().sqrt(),
        2 => 1.0 / (x.abs() + 1.0),
        _ => x, // identity stands in for min-max (an affine map)
    }
}

/// The binary primitives used in planted compositions.
fn binary(which: usize, a: f64, b: f64) -> f64 {
    match which % 5 {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        3 => a / (b.abs() + 1.0),
        _ => {
            let m = b.abs() + 1.0;
            a - m * (a / m).floor()
        }
    }
}

/// One planted term: a composition tree over informative base columns,
/// described by flat op choices so it is cheap to evaluate per row.
#[derive(Debug, Clone)]
struct PlantedTerm {
    cols: Vec<usize>,
    unary_ops: Vec<usize>,
    binary_ops: Vec<usize>,
    weight: f64,
}

impl PlantedTerm {
    fn eval(&self, row: &[f64]) -> f64 {
        // Fold the chosen columns left-to-right through unary+binary ops.
        let mut acc = unary(self.unary_ops[0], row[self.cols[0]]);
        for k in 1..self.cols.len() {
            let operand = unary(self.unary_ops[k], row[self.cols[k]]);
            acc = binary(self.binary_ops[k - 1], acc, operand);
        }
        if acc.is_finite() {
            acc
        } else {
            0.0
        }
    }
}

/// The marginal distributions columns are drawn from, shared by the in-RAM
/// and streaming generators.
struct Marginals {
    normal: Normal,
    lognormal: LogNormal,
    uniform: Uniform,
}

impl Marginals {
    fn new() -> Result<Self> {
        Ok(Marginals {
            normal: Normal::new(0.0, 1.0).map_err(param_error)?,
            lognormal: LogNormal::new(0.0, 0.5).map_err(param_error)?,
            uniform: Uniform::new(-1.0f64, 1.0),
        })
    }

    fn sample(&self, kind: u8, scale: f64, rng: &mut StdRng) -> f64 {
        match kind {
            0 => self.normal.sample(rng) * scale,
            1 => self.lognormal.sample(rng) * scale,
            2 => self.uniform.sample(rng) * scale,
            // integer-ish encoded categorical
            _ => rng.gen_range(0..8) as f64,
        }
    }
}

fn validate(spec: &SynthSpec) -> Result<usize> {
    if spec.n_samples == 0 || spec.n_features == 0 {
        return Err(TabularError::Empty(format!(
            "synthetic dataset `{}` must have rows and columns",
            spec.name
        )));
    }
    if spec.task == Task::Classification && spec.n_classes < 2 {
        return Err(TabularError::InvalidParam(
            "classification requires at least 2 classes".into(),
        ));
    }
    if !(0.0..=1.0).contains(&spec.informative_fraction) {
        return Err(TabularError::InvalidParam(
            "informative_fraction must be in [0,1]".into(),
        ));
    }
    Ok(spec.composition_depth.clamp(1, 4))
}

/// Choose informative columns and plant composition terms. Draw order is
/// part of the determinism contract for [`SynthSpec::generate`].
fn plant_terms(spec: &SynthSpec, depth: usize, rng: &mut StdRng) -> Vec<PlantedTerm> {
    let n_informative = ((spec.n_features as f64 * spec.informative_fraction).round() as usize)
        .clamp(1, spec.n_features);
    let n_terms = (n_informative / 2).clamp(1, 8);
    let mut terms = Vec::with_capacity(n_terms + n_informative.min(4));
    for _ in 0..n_terms {
        let arity = rng.gen_range(1..=depth.max(1));
        let cols: Vec<usize> = (0..=arity)
            .map(|_| rng.gen_range(0..n_informative))
            .collect();
        let unary_ops: Vec<usize> = (0..cols.len()).map(|_| rng.gen_range(0..5)).collect();
        let binary_ops: Vec<usize> = (0..cols.len().saturating_sub(1))
            .map(|_| rng.gen_range(0..5))
            .collect();
        terms.push(PlantedTerm {
            cols,
            unary_ops,
            binary_ops,
            weight: rng.gen_range(0.5..2.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
        });
    }
    // A few direct linear terms so the *raw* features already carry signal
    // (baselines must score above chance, as in the paper's Table III).
    for j in 0..n_informative.min(4) {
        terms.push(PlantedTerm {
            cols: vec![j],
            unary_ops: vec![3], // identity
            binary_ops: vec![],
            weight: rng.gen_range(0.5..1.5),
        });
    }
    terms
}

/// Turn the latent signal into the task's label vector.
fn labels_from_z(spec: &SynthSpec, z: Vec<f64>) -> Label {
    match spec.task {
        Task::Regression => Label::Reg(z),
        Task::Classification => {
            let cuts = quantile_cuts(&z, spec.n_classes);
            let y: Vec<usize> = z
                .iter()
                .map(|&v| cuts.iter().take_while(|&&c| v > c).count())
                .collect();
            Label::Class {
                y,
                n_classes: spec.n_classes,
            }
        }
    }
}

fn generate(spec: &SynthSpec) -> Result<DataFrame> {
    let depth = validate(spec)?;
    let mut rng = StdRng::seed_from_u64(spec.seed ^ hash_name(&spec.name));

    // --- base feature matrix, column-major, mixed marginal distributions ---
    let marginals = Marginals::new()?;
    let mut columns: Vec<Column> = Vec::with_capacity(spec.n_features);
    for j in 0..spec.n_features {
        let kind = rng.gen_range(0..4u8);
        let scale = 10f64.powi(rng.gen_range(-1..2));
        let values: Vec<f64> = (0..spec.n_samples)
            .map(|_| marginals.sample(kind, scale, &mut rng))
            .collect();
        columns.push(Column::new(format!("f{j}"), values));
    }

    let terms = plant_terms(spec, depth, &mut rng);

    // --- latent signal z per row ---
    let mut z = vec![0.0f64; spec.n_samples];
    let row_buf: Vec<&[f64]> = columns.iter().map(|c| c.values.as_slice()).collect();
    let mut row = vec![0.0f64; spec.n_features];
    for (i, zi) in z.iter_mut().enumerate() {
        for (j, col) in row_buf.iter().enumerate() {
            row[j] = col[i];
        }
        // Standardise each term's contribution scale via tanh squashing so a
        // single heavy-tailed term cannot dominate the label.
        *zi = terms
            .iter()
            .map(|t| t.weight * (t.eval(&row) / 3.0).tanh())
            .sum();
    }

    // --- additive noise, relative to signal spread ---
    let z_std = std_of(&z).max(1e-9);
    if spec.noise > 0.0 {
        let noise = Normal::new(0.0, spec.noise * z_std).map_err(param_error)?;
        for zi in z.iter_mut() {
            *zi += noise.sample(&mut rng);
        }
    }

    DataFrame::new(spec.name.clone(), columns, labels_from_z(spec, z))
}

/// SplitMix64-style finalizer deriving one independent stream seed per
/// `(column, chunk)` pair for the streaming generator.
fn derive_stream_seed(base: u64, col: u64, chunk: u64) -> u64 {
    let mut x =
        base ^ col.wrapping_mul(0x9E3779B97F4A7C15) ^ chunk.wrapping_mul(0xD1B54A32D192ED03);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn generate_chunked(
    spec: &SynthSpec,
    opts: ChunkOptions,
    store: Box<dyn ColumnStore>,
) -> Result<ChunkedFrame> {
    let depth = validate(spec)?;
    let base_seed = spec.seed ^ hash_name(&spec.name);
    // Meta draws (column marginals, planted terms) come from one stream;
    // per-(column, chunk) value draws each get their own derived stream so
    // a chunk's contents are independent of generation order.
    let mut meta_rng = StdRng::seed_from_u64(base_seed ^ 0x73747265616d); // "stream"
    let marginals = Marginals::new()?;
    let kinds_scales: Vec<(u8, f64)> = (0..spec.n_features)
        .map(|_| {
            let kind = meta_rng.gen_range(0..4u8);
            let scale = 10f64.powi(meta_rng.gen_range(-1..2));
            (kind, scale)
        })
        .collect();
    let terms = plant_terms(spec, depth, &mut meta_rng);

    let mut cf = ChunkedFrame::new_streaming(spec.name.clone(), spec.n_samples, opts, store);
    for j in 0..spec.n_features {
        cf.begin_column(format!("f{j}"));
    }

    // --- stripe sweep: one chunk-row stripe of all columns at a time ---
    let chunk_rows = cf.chunk_rows();
    let n_chunks = spec.n_samples.div_ceil(chunk_rows);
    let mut stripe: Vec<Vec<f64>> = vec![Vec::with_capacity(chunk_rows); spec.n_features];
    let mut z: Vec<f64> = Vec::with_capacity(spec.n_samples);
    let mut row = vec![0.0f64; spec.n_features];
    for k in 0..n_chunks {
        let rows = chunk_rows.min(spec.n_samples - k * chunk_rows);
        for (j, buf) in stripe.iter_mut().enumerate() {
            let (kind, scale) = kinds_scales[j];
            let mut crng = StdRng::seed_from_u64(derive_stream_seed(base_seed, j as u64, k as u64));
            buf.clear();
            buf.extend((0..rows).map(|_| marginals.sample(kind, scale, &mut crng)));
        }
        for i in 0..rows {
            for (j, buf) in stripe.iter().enumerate() {
                row[j] = buf[i];
            }
            z.push(
                terms
                    .iter()
                    .map(|t| t.weight * (t.eval(&row) / 3.0).tanh())
                    .sum(),
            );
        }
        for (j, buf) in stripe.iter().enumerate() {
            cf.append_chunk(j, ChunkEncoding::encode(buf))?;
        }
    }

    // --- additive noise, relative to signal spread (own derived stream) ---
    let z_std = std_of(&z).max(1e-9);
    if spec.noise > 0.0 {
        let mut noise_rng = StdRng::seed_from_u64(base_seed ^ 0x6e6f697365); // "noise"
        let noise = Normal::new(0.0, spec.noise * z_std).map_err(param_error)?;
        for zi in z.iter_mut() {
            *zi += noise.sample(&mut noise_rng);
        }
    }

    cf.set_label(labels_from_z(spec, z))?;
    Ok(cf)
}

/// Quantile cut points splitting values into `k` roughly equal classes.
fn quantile_cuts(values: &[f64], k: usize) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (1..k)
        .map(|q| {
            let idx = (q * sorted.len()) / k;
            sorted[idx.min(sorted.len() - 1)]
        })
        .collect()
}

fn param_error(e: rand_distr::ParamError) -> TabularError {
    TabularError::InvalidParam(format!("distribution parameter: {e}"))
}

fn std_of(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = v.iter().sum::<f64>() / v.len() as f64;
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
}

/// Stable FNV-1a hash of the dataset name, mixed into the seed so that two
/// same-shaped datasets with different names differ.
fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let f = SynthSpec::new("s", 200, 12, Task::Classification)
            .generate()
            .unwrap();
        assert_eq!(f.n_rows(), 200);
        assert_eq!(f.n_cols(), 12);
        assert_eq!(f.task(), Task::Classification);
    }

    #[test]
    fn deterministic_per_spec() {
        let spec = SynthSpec::new("d", 100, 6, Task::Regression).with_seed(9);
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a, b);
        let c = spec.with_seed(10).generate().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn different_names_differ() {
        let a = SynthSpec::new("x", 50, 5, Task::Regression)
            .generate()
            .unwrap();
        let b = SynthSpec::new("y", 50, 5, Task::Regression)
            .generate()
            .unwrap();
        assert_ne!(a.columns()[0].values, b.columns()[0].values);
    }

    #[test]
    fn all_values_finite() {
        let f = SynthSpec::new("fin", 500, 20, Task::Regression)
            .with_depth(4)
            .generate()
            .unwrap();
        for c in f.columns() {
            assert!(c.is_finite(), "column {} has non-finite values", c.name);
        }
        assert!(f.label().targets().unwrap().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn classification_classes_are_balanced_and_in_range() {
        let f = SynthSpec::new("cls", 600, 10, Task::Classification)
            .with_classes(3)
            .generate()
            .unwrap();
        let y = f.label().classes().unwrap();
        let mut counts = [0usize; 3];
        for &c in y {
            assert!(c < 3);
            counts[c] += 1;
        }
        for &c in &counts {
            // Quantile cuts give near-balanced classes.
            assert!(c > 100, "class counts {counts:?}");
        }
    }

    #[test]
    fn rejects_degenerate_specs() {
        assert!(SynthSpec::new("e", 0, 5, Task::Regression)
            .generate()
            .is_err());
        assert!(SynthSpec::new("e", 5, 0, Task::Regression)
            .generate()
            .is_err());
        assert!(SynthSpec::new("e", 5, 5, Task::Classification)
            .with_classes(1)
            .generate()
            .is_err());
    }

    #[test]
    fn chunked_generation_is_deterministic_and_well_shaped() {
        use crate::budget::FrameBudget;
        use crate::store::InMemoryStore;
        let spec = SynthSpec::new("stream", 5_000, 6, Task::Classification).with_seed(42);
        let opts = ChunkOptions::default()
            .with_chunk_rows(512)
            .with_budget(FrameBudget::from_bytes(24 * 1024));
        let a = spec
            .generate_chunked(opts, Box::new(InMemoryStore::new()))
            .unwrap();
        let b = spec
            .generate_chunked(opts, Box::new(InMemoryStore::new()))
            .unwrap();
        assert_eq!(a.n_rows(), 5_000);
        assert_eq!(a.n_cols(), 6);
        assert_eq!(a.task(), Task::Classification);
        assert!(
            a.stats().chunks_spilled > 0,
            "tight budget should spill during generation"
        );
        let da = a.to_dataframe().unwrap();
        let db = b.to_dataframe().unwrap();
        assert_eq!(da, db);
        for c in da.columns() {
            assert!(c.is_finite());
        }
        // A different seed gives different data.
        let c = spec
            .clone()
            .with_seed(43)
            .generate_chunked(opts, Box::new(InMemoryStore::new()))
            .unwrap()
            .to_dataframe()
            .unwrap();
        assert_ne!(da, c);
    }

    #[test]
    fn raw_features_correlate_with_regression_target() {
        // The direct linear planted terms guarantee raw-feature signal.
        let f = SynthSpec::new("sig", 2000, 8, Task::Regression)
            .with_noise(0.1)
            .generate()
            .unwrap();
        let y = Column::new("y", f.label().targets().unwrap().to_vec());
        let best = f
            .columns()
            .iter()
            .map(|c| c.correlation(&y).abs())
            .fold(0.0f64, f64::max);
        assert!(best > 0.15, "max |corr| = {best}");
    }
}
