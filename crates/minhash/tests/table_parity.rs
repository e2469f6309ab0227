//! Bit-identity of the table-driven and batch sketch kernels against the
//! scalar reference (`WeightedMinHasher::signature`), for all five hash
//! families, across random weights (including zeros, negatives, and
//! non-finite values the support filter must drop), dimensions, and seeds.
//!
//! This is the contract that lets the engine swap sketch paths freely:
//! table lookups hoist values (`r`, `c`, `β`, `eʳ`, `ln w`) but never
//! rewrite the arithmetic, so every signature element — winner index and
//! discretised `t` alike — must match the scalar path exactly.

use minhash::{HashFamily, SampleCompressor, WeightedMinHasher};
use proptest::prelude::*;

/// Weight generator: mostly positive values across several magnitudes,
/// with zeros, negatives, and non-finite values sprinkled in so the
/// support filter gets exercised.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => 1e-6f64..1e6,
        2 => Just(0.0),
        1 => -10.0f64..0.0,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
    ]
}

fn weight_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(weight(), 1..200)
}

fn has_support(w: &[f64]) -> bool {
    w.iter().any(|&v| v > 0.0 && v.is_finite())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// signature() == signature_tabled() == signature_batch([w])[0],
    /// element for element, for every family.
    #[test]
    fn tabled_and_batch_match_scalar_reference(
        weights in weight_vec(),
        d in 1usize..64,
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(has_support(&weights));
        for family in HashFamily::ALL {
            let h = WeightedMinHasher::new(family, d, seed).unwrap();
            let scalar = h.signature(&weights).unwrap();
            let tabled = h.signature_tabled(&weights).unwrap();
            prop_assert_eq!(
                scalar.elements(), tabled.elements(),
                "{:?} tabled diverges", family
            );
            let batch = h.signature_batch(&[&weights]).unwrap();
            prop_assert_eq!(
                scalar.elements(), batch[0].elements(),
                "{:?} batch diverges", family
            );
        }
    }

    /// Batch sketching many columns at once returns exactly the per-column
    /// scalar signatures, independent of batch composition (table growth
    /// triggered by one column must not disturb another's sketch).
    #[test]
    fn batch_matches_per_column_scalar(
        cols in prop::collection::vec(weight_vec(), 1..8),
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(cols.iter().all(|c| has_support(c)));
        for family in HashFamily::ALL {
            let h = WeightedMinHasher::new(family, 16, seed).unwrap();
            let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
            let batch = h.signature_batch(&refs).unwrap();
            prop_assert_eq!(batch.len(), cols.len());
            for (col, sig) in cols.iter().zip(&batch) {
                let scalar = h.signature(col).unwrap();
                prop_assert_eq!(
                    scalar.elements(), sig.elements(),
                    "{:?} batch column diverges", family
                );
            }
        }
    }

    /// The compressor's cached-path decomposition (signature + gather +
    /// normalise) reproduces compress()/compress_normalized() exactly.
    #[test]
    fn compressor_signature_path_matches_direct(
        values in prop::collection::vec(-1e4f64..1e4, 2..150),
        seed in 0u64..100_000,
    ) {
        for family in HashFamily::ALL {
            let c = SampleCompressor::new(family, 24, seed).unwrap();
            let sig = c.signature(&values).unwrap();
            prop_assert_eq!(
                c.compress(&values).unwrap(),
                c.compress_with_signature(&values, &sig)
            );
            prop_assert_eq!(
                c.compress_normalized(&values).unwrap(),
                c.compress_normalized_with_signature(&values, &sig)
            );
            let batch = c.signature_batch(&[&values]).unwrap();
            prop_assert_eq!(&batch[0], &sig);
        }
    }
}

// ---------------------------------------------------------------------------
// The indexed kernel (bound-ordered visit, dense scan behind it) against the
// scalar oracle, on the weight shapes and row counts where they part ways.
// ---------------------------------------------------------------------------

/// Ids a prefix tier keeps per hash index at the least (`tables::TIER0_ROWS`).
const PREFIX: usize = 256;

/// Row counts around the prefix floor, the paper's table sizes, and a
/// non-power-of-two past the last small tier.
const ROW_COUNTS: [usize; 8] = [1, 2, PREFIX - 1, PREFIX, PREFIX + 1, 1000, 4097, 6000];

fn unit(state: &mut u64) -> f64 {
    *state = minhash::rng::splitmix64(*state);
    ((*state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Raw-weight vectors of length `n`, each a shape the kernel treats
/// differently; every one has a non-empty support.
fn weight_shapes(n: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let mut s = seed;
    let uniform: Vec<f64> = (0..n).map(|_| unit(&mut s)).collect();
    // One-sided heavy tail: floor weights but a few (every 97th row).
    let heavy: Vec<f64> = (0..n)
        .map(|k| {
            if k % 97 == 0 {
                0.2 + 0.8 * unit(&mut s)
            } else {
                1e-6
            }
        })
        .collect();
    // Unsupported rows of every kind among ordinary ones.
    let holes = [0.0, -1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    let mut holed = uniform.clone();
    for (k, w) in holed.iter_mut().enumerate().skip(1) {
        if k % 3 != 0 {
            *w = holes[k % holes.len()];
        }
    }
    // Above the compressor's ceiling: the raw entry must fall back.
    let mut above = uniform.clone();
    above[n / 2] = 1.5;
    vec![
        ("uniform", uniform),
        ("all-equal", vec![0.37; n]),
        ("all-floor", vec![1e-6; n]),
        ("heavy-tail", heavy),
        ("holed", holed),
        ("above-ceiling", above),
        (
            "far-above-ceiling",
            (0..n).map(|k| 1.0 + k as f64).collect(),
        ),
    ]
}

fn assert_indexed_matches_scalar(h: &WeightedMinHasher, what: &str, weights: &[f64]) {
    let scalar = h.signature(weights).unwrap();
    let tabled = h.signature_tabled(weights).unwrap();
    assert_eq!(
        scalar.elements(),
        tabled.elements(),
        "{:?} d={} {what} n={}",
        h.family,
        h.d,
        weights.len()
    );
}

#[test]
fn indexed_kernel_matches_scalar_on_every_weight_shape_and_row_count() {
    for family in HashFamily::ALL {
        // A seed of its own per family and direction, so each table grows
        // exactly as the loop order says: small-after-large first…
        let shrinking = WeightedMinHasher::new(family, 24, 0x5A11).unwrap();
        for &n in ROW_COUNTS.iter().rev() {
            for (what, w) in weight_shapes(n, n as u64) {
                assert_indexed_matches_scalar(&shrinking, what, &w);
            }
        }
        // …then large-after-small, every growth rebuilding the top tier.
        let growing = WeightedMinHasher::new(family, 24, 0x6B0C).unwrap();
        for &n in &ROW_COUNTS {
            for (what, w) in weight_shapes(n, n as u64 ^ 0xF00D) {
                assert_indexed_matches_scalar(&growing, what, &w);
            }
        }
        // And a small column once more on the fully grown table.
        for (what, w) in weight_shapes(300, 3) {
            assert_indexed_matches_scalar(&growing, what, &w);
        }
    }
}

#[test]
fn compressor_matches_scalar_on_skewed_and_non_finite_columns() {
    for family in HashFamily::ALL {
        let c = SampleCompressor::new(family, 48, 0xC0DE).unwrap();
        let oracle = WeightedMinHasher::new(family, 48, 0xC0DE).unwrap();
        for &n in &ROW_COUNTS {
            let mut s = n as u64;
            let wave: Vec<f64> = (0..n).map(|_| unit(&mut s) * 40.0 - 7.0).collect();
            // recip of something that comes close to zero: one-sided tail.
            let recip: Vec<f64> = wave.iter().map(|v| 1.0 / (v + 7.0 + 1e-7)).collect();
            let mut holed = wave.clone();
            for (k, v) in holed.iter_mut().enumerate() {
                match k % 11 {
                    3 => *v = f64::NAN,
                    5 => *v = f64::INFINITY,
                    7 => *v = f64::NEG_INFINITY,
                    _ => {}
                }
            }
            let constant = vec![-2.5; n];
            let all_nan = vec![f64::NAN; n];
            // hi − lo overflows: rows at `hi` weigh ∞/∞ = NaN and drop out
            // of the support, rows at `lo` weigh the floor.
            let huge: Vec<f64> = (0..n)
                .map(|k| if k % 2 == 0 { -f64::MAX } else { f64::MAX })
                .collect();
            for (what, col) in [
                ("wave", &wave),
                ("recip", &recip),
                ("holed", &holed),
                ("constant", &constant),
                ("all-nan", &all_nan),
                ("huge", &huge),
            ] {
                let expected = oracle
                    .signature(&SampleCompressor::to_weights(col))
                    .unwrap();
                assert_eq!(
                    c.signature(col).unwrap(),
                    expected,
                    "{family:?} {what} n={n}"
                );
            }
        }
    }
}
