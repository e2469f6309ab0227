//! Property tests for the pinned reduction tree (DESIGN.md §13).
//!
//! Two families of guarantees:
//!
//! 1. **Tier parity** — the dispatched kernels are bitwise identical to
//!    the portable tier on arbitrary inputs and lengths (this is what
//!    CI's feature-on pass verifies against the intrinsics).
//! 2. **Tolerance vs. naive** — the tree's one deliberate
//!    reassociation stays numerically close to the plain sequential
//!    sum, so swapping callers onto the tree was a rounding-level
//!    change, not a numerical rewrite.

use proptest::prelude::*;

fn values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 0..200)
}

/// Trim two independently generated vectors to a shared length so every
/// kernel sees equal-length slices (covering all tail shapes).
fn paired(a: &[f64], b: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = a.len().min(b.len());
    (a[..n].to_vec(), b[..n].to_vec())
}

fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn naive_sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// The proptests draw lengths below 200; callers also hand the kernels
/// whole columns, so tier parity is pinned at row-count scale as well.
#[test]
fn dispatched_kernels_are_portable_bitwise_at_long_lengths() {
    for n in [1_024usize, 4_096, 16_384] {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.618).sin() * 100.0).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.414).cos() * 100.0).collect();
        assert_eq!(
            simd::dot(&a, &b).to_bits(),
            simd::dot_portable(&a, &b).to_bits(),
            "dot tier mismatch at n={n}"
        );
        assert_eq!(
            simd::sq_dist(&a, &b).to_bits(),
            simd::sq_dist_portable(&a, &b).to_bits(),
            "sq_dist tier mismatch at n={n}"
        );
        let (mut got, mut want) = (b.clone(), b);
        simd::axpy(&mut got, -1.75, &a);
        simd::axpy_portable(&mut want, -1.75, &a);
        assert!(
            got.iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits()),
            "axpy tier mismatch at n={n}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dispatched_dot_is_portable_bitwise(xs in values(), ys in values()) {
        let (a, b) = paired(&xs, &ys);
        prop_assert_eq!(
            simd::dot(&a, &b).to_bits(),
            simd::dot_portable(&a, &b).to_bits()
        );
    }

    #[test]
    fn dispatched_sq_dist_is_portable_bitwise(xs in values(), ys in values()) {
        let (a, b) = paired(&xs, &ys);
        prop_assert_eq!(
            simd::sq_dist(&a, &b).to_bits(),
            simd::sq_dist_portable(&a, &b).to_bits()
        );
    }

    #[test]
    fn dispatched_axpy_is_portable_bitwise(
        xs in values(),
        ys in values(),
        a in -10.0f64..10.0,
    ) {
        let (x, mut out) = paired(&xs, &ys);
        let mut want = out.clone();
        simd::axpy_portable(&mut want, a, &x);
        simd::axpy(&mut out, a, &x);
        for (got, want) in out.iter().zip(&want) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn tree_dot_is_tolerance_close_to_sequential(xs in values(), ys in values()) {
        let (a, b) = paired(&xs, &ys);
        let tree = simd::dot(&a, &b);
        let seq = naive_dot(&a, &b);
        let scale = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum::<f64>();
        prop_assert!((tree - seq).abs() <= 1e-12 * scale.max(1.0));
    }

    #[test]
    fn tree_sq_dist_is_tolerance_close_to_sequential(xs in values(), ys in values()) {
        let (a, b) = paired(&xs, &ys);
        let tree = simd::sq_dist(&a, &b);
        let seq = naive_sq_dist(&a, &b);
        prop_assert!((tree - seq).abs() <= 1e-12 * seq.max(1.0));
    }
}
