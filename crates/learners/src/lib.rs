//! # learners
//!
//! From-scratch machine-learning substrate for the E-AFE reproduction.
//! Everything the paper's evaluation pipeline needs, with no external ML
//! dependencies. A learner that serves both tasks is one type: it fits on
//! a `tabular::Label` and predicts one, and the classification/regression
//! choice lives inside its fit and predict.
//!
//! - `forest` — Random Forests, the paper's downstream evaluation task
//!   (`RandomForest`; `RandomForestClassifier`/`RandomForestRegressor`
//!   are shims kept only for the end-to-end benchmark);
//! - `tree` — the underlying CART trees (histogram split finding);
//! - `binned` — quantile feature binning shared by trees, forests, and
//!   CV folds;
//! - `linear` — logistic regression (the FPE binary classifier) and a
//!   linear SVM (Table V);
//! - `nb` — Gaussian Naive Bayes (Table V);
//! - `gp` — Gaussian Process regression (Table V);
//! - `mlp` — multi-layer perceptron (Table V);
//! - `resnet` — RTDL-style tabular ResNet (the `RTDL_N` baseline);
//! - `nn` — the fitted network the MLP and ResNet share, its label-chosen
//!   head, and the Adam optimiser;
//! - `dense` — flat batched dense kernels and the shared training
//!   driver behind the MLP/ResNet heads (DESIGN.md §10);
//! - `metrics` — F1, precision/recall, 1-RAE, and `score`, which picks
//!   between them by the label's task;
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
    bin_cache_stats, BinCodes, BinnedColumn, BinnedDataset, SplitMethod, DEFAULT_MAX_BINS,
};
pub use cv::{feature_matrix, score_memo_stats, Evaluator, ModelKind};
pub use error::{LearnError, Result};
pub use forest::{ForestConfig, RandomForest, RandomForestClassifier, RandomForestRegressor};
pub use gp::{GaussianProcess, GpConfig};
pub use linear::{LinearConfig, LogisticRegression};
pub use metrics::{accuracy, binary_precision_recall, f1_score, one_minus_rae, score};
pub use mlp::{Mlp, MlpConfig};
pub use resnet::{ResNet, ResNetConfig};
pub use selection::{SelectedColumn, Selection};
pub use tree::{Tree, TreeConfig};

#[cfg(test)]
mod nn_parity;
