//! Property tests for the pinned reduction tree (DESIGN.md §13).
//!
//! Two families of guarantees:
//!
//! 1. **The documented tree** — `dot`, `sq_dist` and `axpy` are bitwise
//!    identical, on arbitrary inputs and lengths, to the contract
//!    written out index by index in this file (four accumulators over
//!    `i % 4`, `(0+1)+(2+3)`, ascending tail; multiply and add separate).
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

/// The contract of the crate docs, spelled out per index: products
/// `term(i)` accumulate into lane `i % LANES` over the whole chunks,
/// lanes reduce `(0+1)+(2+3)`, the tail adds on ascending.
fn documented_tree(n: usize, term: impl Fn(usize) -> f64) -> f64 {
    let body = (n / simd::LANES) * simd::LANES;
    let mut acc = [0.0f64; simd::LANES];
    for i in 0..body {
        acc[i % simd::LANES] += term(i);
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in body..n {
        total += term(i);
    }
    total
}

fn documented_dot(a: &[f64], b: &[f64]) -> f64 {
    documented_tree(a.len(), |i| a[i] * b[i])
}

fn documented_sq_dist(a: &[f64], b: &[f64]) -> f64 {
    documented_tree(a.len(), |i| {
        let d = a[i] - b[i];
        d * d
    })
}

/// `out[i] + a * x[i]`: one multiply, then one add.
fn documented_axpy(out: &[f64], a: f64, x: &[f64]) -> Vec<f64> {
    out.iter().zip(x).map(|(o, xi)| o + a * xi).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The proptests draw lengths below 200; callers also hand the kernels
/// whole columns, so the tree is pinned at row-count scale as well.
#[test]
fn kernels_are_the_documented_tree_at_long_lengths() {
    for n in [1_024usize, 4_096, 16_384] {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.618).sin() * 100.0).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.414).cos() * 100.0).collect();
        assert_eq!(
            simd::dot(&a, &b).to_bits(),
            documented_dot(&a, &b).to_bits(),
            "dot leaves the tree at n={n}"
        );
        assert_eq!(
            simd::sq_dist(&a, &b).to_bits(),
            documented_sq_dist(&a, &b).to_bits(),
            "sq_dist leaves the tree at n={n}"
        );
        let want = documented_axpy(&b, -1.75, &a);
        let mut got = b;
        simd::axpy(&mut got, -1.75, &a);
        assert_eq!(bits(&got), bits(&want), "axpy mismatch at n={n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_is_the_documented_tree(xs in values(), ys in values()) {
        let (a, b) = paired(&xs, &ys);
        prop_assert_eq!(simd::dot(&a, &b).to_bits(), documented_dot(&a, &b).to_bits());
    }

    #[test]
    fn sq_dist_is_the_documented_tree(xs in values(), ys in values()) {
        let (a, b) = paired(&xs, &ys);
        prop_assert_eq!(
            simd::sq_dist(&a, &b).to_bits(),
            documented_sq_dist(&a, &b).to_bits()
        );
    }

    #[test]
    fn axpy_is_one_multiply_then_one_add(
        xs in values(),
        ys in values(),
        a in -10.0f64..10.0,
    ) {
        let (x, mut out) = paired(&xs, &ys);
        let want = documented_axpy(&out, a, &x);
        simd::axpy(&mut out, a, &x);
        prop_assert_eq!(bits(&out), bits(&want));
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
