//! # minhash
//!
//! The sample compressor of E-AFE's Feature Pre-Evaluation model (paper
//! §III-B, Eq. 2): [`SampleCompressor`] projects a feature column of
//! arbitrary length onto `d` consistently sampled rows, so one
//! pre-trained FPE classifier serves every dataset. It is the crate's one
//! way to sketch:
//!
//! - [`HashFamily`] picks the scheme — classic MinHash or one of the four
//!   consistent weighted sampling schemes the paper compares (ICWS, 0-bit
//!   CWS, PCWS, and the default CCWS);
//! - a column is weighed by its [`WeightBounds`] (min-shifted and
//!   range-scaled into `[1e-6, 1 + 1e-6]`) and sketched into a
//!   [`Signature`] by one table-driven kernel: per-`(seed, i, k)` bounds
//!   (and, for the log-domain families, the draws that cost a logarithm),
//!   a bound-ordered visit of the few rows that can win a hash, and a
//!   dense scan behind it. Every draw is a counter-based function of
//!   `(seed, i, k)`, re-derivable anywhere;
//! - callers hand the kernel a [`RowSource`] — a flat slice, or their own
//!   chunked column — and rebuild the FPE input from the signature with
//!   [`SampleCompressor::compress_normalized_with_signature`].
//!
//! The scalar per-draw definition of each scheme is a `#[cfg(test)]`
//! oracle (`scalar_ref.rs`), to which the `table_parity` unit suite holds
//! the kernel bit for bit.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod compressor;
mod error;
mod families;
mod rng;
mod signature;
mod tables;

pub use compressor::{SampleCompressor, WeightBounds};
pub use error::{MinHashError, Result};
pub use families::HashFamily;
pub use signature::Signature;
pub use tables::{clear_draw_tables, RowSource};

#[cfg(test)]
mod scalar_ref;
#[cfg(test)]
mod table_parity;
