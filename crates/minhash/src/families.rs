//! The weighted-MinHash family: classic MinHash plus the four consistent
//! weighted sampling (CWS) schemes compared in the paper's Table III —
//! ICWS (Ioffe 2010), 0-bit CWS (Li 2015, the paper's `E-AFE^L`),
//! PCWS (Wu et al. 2017, `E-AFE^P`) and CCWS (Wu et al. 2016, the paper's
//! default, plain `E-AFE`).
//!
//! All schemes produce, per hash function, the index of one input dimension
//! sampled consistently: the probability that two weighted sets pick the
//! same (index, t) pair equals (approximately, for the newer variants) their
//! generalised Jaccard similarity. The sketch itself is the table kernel of
//! [`crate::tables`]; the scalar per-draw definition of each scheme is the
//! test oracle `scalar_ref.rs`.

use crate::compressor::WeightBounds;
use crate::error::{MinHashError, Result};
use crate::signature::Signature;
use crate::tables::{self, RowSource};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Discretise a CWS `t = ⌊…⌋` value into the compact `i32` stored in
/// [`SigElement`](crate::signature::SigElement). The `as` cast saturates
/// at the `i32` bounds (and maps NaN, which the floor of a finite
/// expression never produces, to 0), so the astronomically rare
/// out-of-range draw — requiring `r < |ln w| / 2³¹`, probability below
/// ~10⁻¹⁶ per draw at compressor weight scales — collapses into the
/// boundary bucket instead of wrapping. The kernel and the scalar oracle
/// both funnel through this one function, which is part of why they are
/// bit-identical.
pub(crate) fn discretize_t(t: f64) -> i32 {
    t as i32
}

/// Whether a weight puts its dimension in the support: strictly positive
/// and finite. Anything else carries no mass and can never win a hash.
pub(crate) fn in_support(w: f64) -> bool {
    w > 0.0 && w.is_finite()
}

pub(crate) fn empty_support() -> MinHashError {
    MinHashError::InvalidParam("weight vector has empty support (all weights zero)".into())
}

/// Which hashing scheme to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HashFamily {
    /// Classic unweighted MinHash over the support (non-zero dimensions).
    MinHash,
    /// Improved consistent weighted sampling (Ioffe 2010).
    Icws,
    /// 0-bit CWS (Li 2015): ICWS keeping only the winning dimension.
    ZeroBitCws,
    /// Practical CWS (Wu et al. 2017): one gamma replaced by uniforms.
    Pcws,
    /// Canonical CWS (Wu et al. 2016): samples on raw weights, no log —
    /// the paper's default family.
    Ccws,
}

impl HashFamily {
    /// All families, in the order the paper's Table III reports them.
    pub const ALL: [HashFamily; 5] = [
        HashFamily::MinHash,
        HashFamily::Icws,
        HashFamily::ZeroBitCws,
        HashFamily::Pcws,
        HashFamily::Ccws,
    ];

    /// Display name matching the paper's notation.
    pub fn name(self) -> &'static str {
        match self {
            HashFamily::MinHash => "MinHash",
            HashFamily::Icws => "ICWS",
            HashFamily::ZeroBitCws => "0bit-CWS",
            HashFamily::Pcws => "PCWS",
            HashFamily::Ccws => "CCWS",
        }
    }
}

/// A seeded weighted-MinHash hasher producing `d`-element signatures: the
/// `(family, d, seed)` a [`SampleCompressor`](crate::SampleCompressor)
/// sketches with, and the key of its draw table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct WeightedMinHasher {
    /// Hashing scheme.
    pub(crate) family: HashFamily,
    /// Signature length (the paper's default output dimension is 48).
    pub(crate) d: usize,
    /// Seed shared by all hash functions (each hash mixes in its index).
    pub(crate) seed: u64,
}

impl WeightedMinHasher {
    /// Create a hasher; `d` must be non-zero.
    pub(crate) fn new(family: HashFamily, d: usize, seed: u64) -> Result<Self> {
        if d == 0 {
            return Err(MinHashError::InvalidParam(
                "signature dimension d must be > 0".into(),
            ));
        }
        Ok(Self { family, d, seed })
    }

    /// The one entry into the table kernel: sketch `rows` under the
    /// weights `bounds` gives them (see [`tables::DrawTables::sketch`]),
    /// with an error for an empty column.
    pub(crate) fn sketch<S: RowSource + ?Sized>(
        &self,
        bounds: WeightBounds,
        rows: &S,
    ) -> Result<Signature> {
        if rows.n_rows() == 0 {
            return Err(MinHashError::EmptyInput);
        }
        let start = telemetry::enabled().then(Instant::now);
        let elements = tables::draw_tables(self).sketch(bounds, rows)?;
        if let Some(start) = start {
            telemetry::record("minhash.sig_us", start.elapsed().as_micros() as u64);
        }
        elements.map(Signature::new).ok_or_else(empty_support)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_a_zero_dimension() {
        assert!(WeightedMinHasher::new(HashFamily::Ccws, 0, 1).is_err());
        assert!(WeightedMinHasher::new(HashFamily::Ccws, 1, 1).is_ok());
    }
}
