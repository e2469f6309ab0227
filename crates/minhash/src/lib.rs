//! # minhash
//!
//! Weighted MinHash substrate for E-AFE's Feature Pre-Evaluation model:
//!
//! - [`families`] — classic MinHash plus the four consistent weighted
//!   sampling schemes the paper compares (ICWS, 0-bit CWS, PCWS, and the
//!   default CCWS);
//! - [`signature`] — fixed-length signatures and the collision-rate
//!   similarity estimator (with exact generalised Jaccard for testing);
//! - [`compressor`] — the sample compressor that projects a feature column
//!   of arbitrary length onto a fixed `d`-dimensional vector (paper §III-B,
//!   Eq. 2), enabling one pre-trained FPE classifier to serve any dataset;
//! - [`rng`] — counter-based deterministic Gamma/Beta/Uniform variates:
//!   any draw can be re-derived from `(seed, i, k)` wherever it is needed;
//! - [`tables`] — per-`(seed, i, k)` tables of the one kind of draw that
//!   costs a logarithm, and the sketch kernel over them: a bound-ordered
//!   visit of the few rows that can win a hash, with a dense scan behind
//!   it (bit-identical to the scalar reference, pinned by the
//!   `table_parity` proptest suite). Callers hand it a [`RowSource`] — a
//!   flat slice, or their own chunked column.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod compressor;
pub mod error;
pub mod families;
pub mod rng;
pub mod signature;
pub mod tables;

pub use compressor::{SampleCompressor, WeightBounds};
pub use error::{MinHashError, Result};
pub use families::{HashFamily, WeightedMinHasher};
pub use signature::{generalized_jaccard, SigElement, Signature};
pub use tables::{clear_draw_tables, draw_tables, DrawTables, RowSource};
