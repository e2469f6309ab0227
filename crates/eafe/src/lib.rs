//! # eafe
//!
//! A from-scratch Rust implementation of **E-AFE** — *Toward Efficient
//! Automated Feature Engineering* (ICDE 2023): reinforcement-learning-based
//! automated feature engineering accelerated by a MinHash-compressed
//! Feature Pre-Evaluation (FPE) model and a two-stage policy-training
//! strategy.
//!
//! ## Quick start
//!
//! ```
//! use eafe::{bootstrap_fpe, EafeConfig, Engine, FpeSearchSpace};
//! use tabular::{SynthSpec, Task};
//!
//! // 1. A target dataset (here: synthetic; see `tabular::registry` for the
//! //    paper's 36 datasets).
//! let frame = SynthSpec::new("demo", 150, 5, Task::Classification)
//!     .generate()
//!     .unwrap();
//!
//! // 2. Pre-train the FPE model on a public corpus (done once, reusable).
//! let cfg = EafeConfig::fast();
//! let space = FpeSearchSpace {
//!     families: vec![minhash::HashFamily::Ccws],
//!     dims: vec![16],
//!     thre: 0.0,
//!     seed: 1,
//! };
//! let fpe = bootstrap_fpe(3, 1, &space, &cfg.evaluator, 7).unwrap();
//!
//! // 3. Run E-AFE.
//! let result = Engine::e_afe(cfg, fpe).run(&frame).unwrap();
//! assert!(result.best_score >= result.base_score);
//! ```
//!
//! ## Module map
//!
//! - `ops` — the 9 transformation operators (paper §II, "Action");
//! - [`fpe`] — sample compression + feature pre-selection (Algorithm 1);
//! - `reward` — the stage-1 surrogate reward (Eqs. 7–8);
//! - `engine` — the four methods (E-AFE / E-AFE_D / E-AFE_R / NFS) as
//!   one configured [`Engine`] and its blocking `run`;
//! - `step` — the search driver: Algorithm 2 written once as a
//!   resumable state machine (start/step/finish, speculation, the
//!   checkpoint of [`SearchState`]), generic over where the columns live;
//! - `store` (private) — the subgroups' one ledger (`Plan`, `Lineage`)
//!   and the `SearchStore` trait, which keeps columns only;
//! - `state` — the in-RAM column store behind [`SearchState`];
//! - `chunked` — the out-of-core column store behind [`ChunkedSearch`];
//! - `baselines` — AutoFS_R and the deep-learning baselines;
//! - `pipeline` — pre-selection, FPE bootstrapping, Table V re-evaluation;
//! - `report` — instrumented results (timers, counters, learning curves).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod baselines;
mod chunked;
mod config;
mod engine;
mod error;
pub mod fpe;
mod ops;
mod pipeline;
mod report;
mod reward;
mod state;
mod step;
mod store;

pub use baselines::{run_autofs_r, run_dl_fe, run_fe_dl, run_rtdl_n, DlBaselineConfig};
pub use config::{CachedEvaluator, EafeConfig};
pub use engine::Engine;
pub use error::{EafeError, Result};
pub use fpe::{FpeModel, FpeSearchSpace, RawLabels};
pub use learners::{SelectedColumn, Selection, SplitMethod};
pub use ops::{GeneratedFeature, Operator};
pub use pipeline::{bootstrap_fpe, preselect_features, reevaluate};
pub use report::{EpochPoint, EpochReport, RunResult, SearchStage, WeightedFeature};
pub use reward::SurrogateReward;
pub use state::EngineState;
pub use step::{max_slices, ChunkedSearch, Search, SearchPhase, SearchState};
