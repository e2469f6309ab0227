//! The Feature Pre-Evaluation (FPE) model (paper §III-B, Algorithm 1):
//! sample compression with weighted MinHash + a pre-trained binary
//! feature-effectiveness classifier, plus the hyper-parameter search over
//! hash families and signature dimensions.

mod labeling;
mod model;
mod repr;
mod search;

pub use labeling::LabeledFeature;
pub use model::{FpeMetrics, FpeModel};
pub use repr::FeatureRepr;
pub use search::{search, CandidateOutcome, FpeSearchResult, FpeSearchSpace, RawLabels};
