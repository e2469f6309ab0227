//! # tabular
//!
//! Column-major tabular data substrate for the E-AFE reproduction:
//!
//! - [`DataFrame`] / [`Column`] / [`Label`] — the dataset representation
//!   `D⟨F, y⟩` from the paper's problem formulation;
//! - `chunk` / `store` / `budget` — the out-of-core layer: compressed
//!   chunked columns ([`ChunkedFrame`]), pluggable chunk persistence
//!   ([`ColumnStore`] with in-memory and file-backed `.eafc` backends), and
//!   resident-bytes budgeting with LRU spill/evict ([`FrameBudget`]);
//! - `split` — train/test split and the (stratified) k-fold fold order;
//! - `sample` — uniform and stratified subsampling;
//! - [`csv`] — simple persistence;
//! - `synth` / `registry` — deterministic synthetic stand-ins for the
//!   paper's 36 target datasets and the public pre-training corpus, with
//!   planted operator compositions so feature engineering has real signal
//!   to discover (see DESIGN.md §2).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod budget;
mod chunk;
mod column;
pub mod csv;
mod error;
mod frame;
mod registry;
mod sample;
mod split;
mod store;
mod synth;

pub use budget::{global_frame_stats, FrameBudget, FrameStats};
pub use chunk::{ChunkEncoding, ChunkOptions, ChunkedColumn, ChunkedFrame, DEFAULT_CHUNK_ROWS};
pub use column::Column;
pub use error::{Result, TabularError};
pub use frame::{DataFrame, Label, Task};
pub use registry::{
    find_dataset, motivation_datasets, public_corpus, DatasetInfo, TARGET_DATASETS,
};
pub use sample::stratified_subsample;
pub use split::{train_test_indices, FoldOrder, FoldTrain, Split};
pub use store::{ChunkTicket, ColumnStore, InMemoryStore, MmapStore};
pub use synth::SynthSpec;
