//! # learners
//!
//! From-scratch machine-learning substrate for the E-AFE reproduction.
//! Everything the paper's evaluation pipeline needs, with no external ML
//! dependencies:
//!
//! - [`forest`] — Random Forests, the paper's downstream evaluation task;
//! - [`tree`] — the underlying CART trees (histogram split finding);
//! - [`binned`] — quantile feature binning shared by trees, forests, and
//!   CV folds;
//! - [`linear`] — logistic regression (the FPE binary classifier) and a
//!   linear SVM (Table V);
//! - [`nb`] — Gaussian Naive Bayes (Table V);
//! - [`gp`] — Gaussian Process regression (Table V);
//! - [`mlp`] — multi-layer perceptron (Table V);
//! - [`resnet`] — RTDL-style tabular ResNet (the `RTDL_N` baseline);
//! - [`dense`] — flat batched dense kernels and the shared training
//!   driver behind the MLP/ResNet heads (DESIGN.md §10);
//! - [`metrics`] — F1, precision/recall, 1-RAE;
//! - [`cv`] — the cross-validated downstream score `A_T(F, y)`;
//! - [`selection`] — a search's selected columns as key state, digests
//!   and bins, which a candidate's score is computed against.

#![warn(missing_docs)]
// ROADMAP 3(a): no `unwrap`/`expect` on the library's paths. A survivor
// carries a local `#[allow]` and the invariant that makes it unreachable.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod binned;
pub mod cv;
pub mod dense;
pub mod error;
pub mod forest;
pub mod gp;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod nb;
pub mod nn;
pub mod preprocess;
pub mod resnet;
pub mod selection;
pub mod tree;

pub use binned::{BinnedColumn, BinnedDataset, SplitMethod, DEFAULT_MAX_BINS};
pub use cv::{feature_matrix, score_memo_stats, Evaluator, ModelKind};
pub use dense::{FlatNet, Mat, Topology};
pub use error::{LearnError, Result};
pub use forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
pub use gp::{GaussianProcess, GpConfig};
pub use linalg::SquareMatrix;
pub use linear::{LinearConfig, LinearSvm, LogisticRegression};
pub use metrics::{accuracy, f1_score, one_minus_rae};
pub use mlp::{MlpClassifier, MlpConfig, MlpRegressor};
pub use nb::GaussianNb;
pub use resnet::{ResNetClassifier, ResNetConfig, ResNetRegressor};
pub use selection::{SelectedColumn, Selection};
pub use tree::{DecisionTreeClassifier, DecisionTreeRegressor, TreeConfig};

#[cfg(test)]
mod nn_parity;
