#![cfg(test)]
//! Bit-identity of the sketch kernel (`tables.rs`: the bound-ordered
//! visit, the dense scan behind it) against the scalar oracle
//! (`scalar_ref.rs`), for all five hash families, on compressor columns —
//! the kernel's only domain: random values (negatives, NaN, ±∞, −0.0),
//! dimensions and seeds; constant, one-row and heavy-tailed columns; row
//! counts around the 64-row blocks of the least `c` and the 256-id prefix
//! floor; tables grown in both directions.
//!
//! A unit suite because the oracle is a `#[cfg(test)]` item an integration
//! test cannot see. The kernel stores or derives every draw at the
//! oracle's counters and never rewrites the arithmetic, so every signature
//! element — winner index and discretised `t` alike — must match exactly.

use crate::families::{HashFamily, WeightedMinHasher};
use crate::{SampleCompressor, Signature};
use proptest::prelude::*;

/// The oracle's signature of a column: the scalar path over the weights a
/// compressor sketch of it sees.
fn oracle(c: &SampleCompressor, values: &[f64]) -> Signature {
    let hasher = WeightedMinHasher::new(c.family(), c.d(), c.seed()).unwrap();
    hasher
        .signature(&SampleCompressor::to_weights(values))
        .unwrap()
}

/// Column values across several magnitudes, with zeros, signed zeros,
/// negatives and non-finite values sprinkled in.
fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -1e6f64..1e6,
        2 => Just(0.0),
        1 => Just(-0.0),
        1 => -10.0f64..0.0,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

fn column() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(value(), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// signature() == signature_batch([v])[0] == the oracle, element for
    /// element, for every family.
    #[test]
    fn kernel_and_batch_match_the_oracle(
        values in column(),
        d in 1usize..64,
        seed in 0u64..1_000_000,
    ) {
        for family in HashFamily::ALL {
            let c = SampleCompressor::new(family, d, seed).unwrap();
            let sig = c.signature(&values).unwrap();
            prop_assert_eq!(&sig, &oracle(&c, &values), "{:?} diverges", family);
            let batch = c.signature_batch(&[&values]).unwrap();
            prop_assert_eq!(&batch[0], &sig, "{:?} batch diverges", family);
        }
    }

    /// A batch of many columns returns exactly the per-column oracle
    /// signatures, independent of batch composition (table growth
    /// triggered by one column must not disturb another's sketch).
    #[test]
    fn batch_matches_per_column_oracle(
        cols in prop::collection::vec(column(), 1..8),
        seed in 0u64..1_000_000,
    ) {
        for family in HashFamily::ALL {
            let c = SampleCompressor::new(family, 16, seed).unwrap();
            let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
            let batch = c.signature_batch(&refs).unwrap();
            prop_assert_eq!(batch.len(), cols.len());
            for (col, sig) in cols.iter().zip(&batch) {
                prop_assert_eq!(sig, &oracle(&c, col), "{:?} batch column diverges", family);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The column shapes and row counts where the visit and the dense scan part
// ways.
// ---------------------------------------------------------------------------

/// Ids a prefix tier keeps per hash index at the least (`tables::TIER0_ROWS`).
const PREFIX: usize = 256;

/// Rows per block whose least `c` a CCWS column keeps (`tables::C_BLOCK`).
const C_BLOCK: usize = 64;

/// Row counts around a block of the dense scan's least-`c` test, around
/// the prefix floor, the paper's table sizes, and a non-power-of-two past
/// the last small tier.
const ROW_COUNTS: [usize; 11] = [
    1,
    2,
    C_BLOCK - 1,
    C_BLOCK,
    C_BLOCK + 1,
    PREFIX - 1,
    PREFIX,
    PREFIX + 1,
    1000,
    4097,
    6000,
];

fn unit(state: &mut u64) -> f64 {
    *state = crate::rng::splitmix64(*state);
    ((*state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Columns of `n` rows, each a shape the kernel treats differently.
fn column_shapes(n: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let mut s = seed;
    let wave: Vec<f64> = (0..n).map(|_| unit(&mut s) * 40.0 - 7.0).collect();
    // recip of something that comes close to zero: a one-sided heavy tail,
    // nearly every weight at the floor.
    let recip = wave.iter().map(|v| 1.0 / (v + 7.0 + 1e-7)).collect();
    // Floor weights but a few (every 97th row).
    let sparse = (0..n)
        .map(|k| {
            if k % 97 == 0 {
                0.2 + 0.8 * unit(&mut s)
            } else {
                0.0
            }
        })
        .collect();
    // Every kind of value a raw weight vector would drop, among ordinary
    // ones.
    let holes = [0.0, -1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    let mut holed = wave.clone();
    for (k, v) in holed.iter_mut().enumerate().skip(1) {
        if k % 3 != 0 {
            *v = holes[k % holes.len()];
        }
    }
    // hi − lo overflows: rows at `hi` weigh ∞/∞ = NaN and drop out of the
    // support, rows at `lo` weigh the floor.
    let huge = (0..n)
        .map(|k| if k % 2 == 0 { -f64::MAX } else { f64::MAX })
        .collect();
    vec![
        ("wave", wave),
        ("recip", recip),
        ("sparse", sparse),
        ("holed", holed),
        ("constant", vec![-2.5; n]),
        ("all-nan", vec![f64::NAN; n]),
        ("huge", huge),
    ]
}

fn assert_matches_oracle(c: &SampleCompressor, what: &str, values: &[f64]) {
    assert_eq!(
        c.signature(values).unwrap(),
        oracle(c, values),
        "{:?} d={} {what} n={}",
        c.family(),
        c.d(),
        values.len()
    );
}

#[test]
fn kernel_matches_the_oracle_on_every_column_shape_and_row_count() {
    for family in HashFamily::ALL {
        // A seed of its own per family and direction, outside the
        // proptests' range (the table registry is process-wide), so each
        // table grows exactly as the loop order says: small-after-large
        // first…
        let shrinking = SampleCompressor::new(family, 24, 0x5A11_0000_0000).unwrap();
        for &n in ROW_COUNTS.iter().rev() {
            for (what, col) in column_shapes(n, n as u64) {
                assert_matches_oracle(&shrinking, what, &col);
            }
        }
        // …then large-after-small, every growth rebuilding the top tier…
        let growing = SampleCompressor::new(family, 48, 0x6B0C_0000_0000).unwrap();
        for &n in &ROW_COUNTS {
            for (what, col) in column_shapes(n, n as u64 ^ 0xF00D) {
                assert_matches_oracle(&growing, what, &col);
            }
        }
        // …and a small column once more on the fully grown table.
        for (what, col) in column_shapes(300, 3) {
            assert_matches_oracle(&growing, what, &col);
        }
    }
}
