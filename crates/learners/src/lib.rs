//! # learners
//!
//! From-scratch machine-learning substrate for the E-AFE reproduction.
//! Everything the paper's evaluation pipeline needs, with no external ML
//! dependencies:
//!
//! - `forest` — Random Forests, the paper's downstream evaluation task;
//! - `tree` — the underlying CART trees (histogram split finding);
//! - `binned` — quantile feature binning shared by trees, forests, and
//!   CV folds;
//! - `linear` — logistic regression (the FPE binary classifier) and a
//!   linear SVM (Table V);
//! - `nb` — Gaussian Naive Bayes (Table V);
//! - `gp` — Gaussian Process regression (Table V);
//! - `mlp` — multi-layer perceptron (Table V);
//! - `resnet` — RTDL-style tabular ResNet (the `RTDL_N` baseline);
//! - `dense` — flat batched dense kernels and the shared training
//!   driver behind the MLP/ResNet heads (DESIGN.md §10);
//! - `metrics` — F1, precision/recall, 1-RAE;
//! - `cv` — the cross-validated downstream score `A_T(F, y)`;
//! - `selection` — a search's selected columns as key state, digests
//!   and bins, which a candidate's score is computed against.

#![warn(missing_docs)]
// ROADMAP 3(a): no `unwrap`/`expect` on the library's paths. A survivor
// carries a local `#[allow]` and the invariant that makes it unreachable.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod binned;
mod cv;
mod dense;
mod error;
mod forest;
mod gp;
mod linalg;
mod linear;
mod metrics;
mod mlp;
mod nb;
mod nn;
mod preprocess;
mod resnet;
mod selection;
mod tree;

pub use binned::{
    accumulate_class, accumulate_class_parallel, accumulate_reg, accumulate_reg_parallel,
    subtract_class, subtract_reg, BinCodes, BinnedColumn, BinnedDataset, RegBin, SplitMethod,
    DEFAULT_MAX_BINS, HIST_PARALLEL_GRAIN,
};
pub use cv::{feature_matrix, score_memo_stats, Evaluator, ModelKind};
pub use error::{LearnError, Result};
pub use forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
pub use gp::{GaussianProcess, GpConfig};
pub use linear::{LinearConfig, LogisticRegression};
pub use metrics::{accuracy, binary_precision_recall, f1_score, one_minus_rae};
pub use mlp::{MlpClassifier, MlpConfig};
pub use resnet::{ResNetClassifier, ResNetConfig, ResNetRegressor};
pub use selection::{SelectedColumn, Selection};
pub use tree::{DecisionTreeClassifier, DecisionTreeRegressor, Tree, TreeConfig};

#[cfg(test)]
mod nn_parity;
