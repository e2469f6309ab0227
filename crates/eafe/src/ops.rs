//! The feature-transformation operator set (paper §II, "Action"):
//! four unary operators — logarithm, min-max normalisation, square root,
//! reciprocal — and five binary operators — addition, subtraction,
//! multiplication, division, and modulo.
//!
//! Every transformation is in the form `OPERATOR(feature₁, feature₂)`; for
//! unary operators both operands are the same feature. Operators are made
//! total (log of negatives, division by ~0, …) by the standard guards used
//! in the AFE literature, so generated columns are always finite.

use serde::{Deserialize, Serialize};
use std::fmt;
use tabular::Column;

/// Guard threshold below which a divisor is treated as zero.
const DIV_EPS: f64 = 1e-9;

/// A feature-transformation operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operator {
    /// `ln(|x| + 1)` — safe logarithm.
    Log,
    /// `(x − min) / (max − min)` — min-max normalisation.
    MinMaxNorm,
    /// `√|x|` — safe square root.
    Sqrt,
    /// `1 / x`, 0 where `|x|` is tiny — safe reciprocal.
    Reciprocal,
    /// `a + b`.
    Add,
    /// `a − b`.
    Subtract,
    /// `a × b`.
    Multiply,
    /// `a / b`, 0 where `|b|` is tiny.
    Divide,
    /// `a mod b` (euclidean-ish remainder), 0 where `|b|` is tiny.
    Modulo,
}

impl Operator {
    /// All nine operators: the action space of each E-AFE agent.
    pub const ALL: [Operator; 9] = [
        Operator::Log,
        Operator::MinMaxNorm,
        Operator::Sqrt,
        Operator::Reciprocal,
        Operator::Add,
        Operator::Subtract,
        Operator::Multiply,
        Operator::Divide,
        Operator::Modulo,
    ];

    /// Operator by action index (the RL policy's discrete action space).
    pub(crate) fn from_action(action: usize) -> Operator {
        Self::ALL[action % Self::ALL.len()]
    }

    /// True for the single-operand operators.
    pub fn is_unary(self) -> bool {
        matches!(
            self,
            Operator::Log | Operator::MinMaxNorm | Operator::Sqrt | Operator::Reciprocal
        )
    }

    /// Display symbol.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            Operator::Log => "log",
            Operator::MinMaxNorm => "norm",
            Operator::Sqrt => "sqrt",
            Operator::Reciprocal => "recip",
            Operator::Add => "+",
            Operator::Subtract => "-",
            Operator::Multiply => "*",
            Operator::Divide => "/",
            Operator::Modulo => "%",
        }
    }

    /// Telemetry counter name for candidates generated with this operator
    /// (static, so counting never allocates).
    pub(crate) fn counter_name(self) -> &'static str {
        match self {
            Operator::Log => "ops.generated.log",
            Operator::MinMaxNorm => "ops.generated.norm",
            Operator::Sqrt => "ops.generated.sqrt",
            Operator::Reciprocal => "ops.generated.recip",
            Operator::Add => "ops.generated.add",
            Operator::Subtract => "ops.generated.sub",
            Operator::Multiply => "ops.generated.mul",
            Operator::Divide => "ops.generated.div",
            Operator::Modulo => "ops.generated.mod",
        }
    }

    /// True when [`Operator::apply`] needs whole-column min/max bounds
    /// before any element can be produced (min-max normalisation). Chunk
    /// pipelines run the [`Operator::column_bounds`] prepass first.
    pub(crate) fn needs_bounds(self) -> bool {
        matches!(self, Operator::MinMaxNorm)
    }

    /// The whole-column prepass for bounded operators: `(min, max)` via
    /// row-order `f64::min`/`f64::max` folds. Chunk pipelines reproduce
    /// this by folding across chunks in row order (the fold chains are
    /// element-wise identical, so bounds — and every value derived from
    /// them — match the flat computation bit for bit).
    pub(crate) fn column_bounds(values: &[f64]) -> (f64, f64) {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    }

    /// Apply the operator to one chunk of rows, appending to `out`.
    /// `bounds` are the bounds of the whole column `a` is a chunk of —
    /// `Some(column_bounds(a_full))` — or `None` when `a` is the whole
    /// column; only [`Operator::needs_bounds`] operators read them. With
    /// those bounds, splitting a column into chunks and calling this per
    /// chunk is bit-identical to one [`Operator::apply`] over the flat
    /// column. Non-finite outputs are clamped to 0.
    pub(crate) fn apply_chunk(
        self,
        a: &[f64],
        b: &[f64],
        bounds: Option<(f64, f64)>,
        out: &mut Vec<f64>,
    ) {
        let start = out.len();
        out.reserve(a.len());
        match self {
            Operator::Log => out.extend(a.iter().map(|&x| (x.abs() + 1.0).ln())),
            Operator::Sqrt => out.extend(a.iter().map(|&x| x.abs().sqrt())),
            Operator::Reciprocal => {
                out.extend(
                    a.iter()
                        .map(|&x| if x.abs() < DIV_EPS { 0.0 } else { 1.0 / x }),
                )
            }
            Operator::MinMaxNorm => {
                let (lo, hi) = bounds.unwrap_or_else(|| Self::column_bounds(a));
                let span = hi - lo;
                if !span.is_finite() || span < DIV_EPS {
                    out.extend(std::iter::repeat_n(0.0, a.len()));
                } else {
                    out.extend(a.iter().map(|&x| (x - lo) / span));
                }
            }
            Operator::Add => {
                debug_assert_eq!(a.len(), b.len());
                out.extend(a.iter().zip(b).map(|(x, y)| x + y));
            }
            Operator::Subtract => {
                debug_assert_eq!(a.len(), b.len());
                out.extend(a.iter().zip(b).map(|(x, y)| x - y));
            }
            Operator::Multiply => {
                debug_assert_eq!(a.len(), b.len());
                out.extend(a.iter().zip(b).map(|(x, y)| x * y));
            }
            Operator::Divide => {
                debug_assert_eq!(a.len(), b.len());
                out.extend(
                    a.iter()
                        .zip(b)
                        .map(|(x, y)| if y.abs() < DIV_EPS { 0.0 } else { x / y }),
                );
            }
            Operator::Modulo => {
                debug_assert_eq!(a.len(), b.len());
                out.extend(a.iter().zip(b).map(|(&x, &y)| {
                    let m = y.abs();
                    if m < DIV_EPS {
                        0.0
                    } else {
                        x - m * (x / m).floor()
                    }
                }));
            }
        }
        for v in &mut out[start..] {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
    }

    /// Expression name and transformation order of this operator applied
    /// to parents `a` and `b`, each given as `(name, order)`: `op(a)` at
    /// `a`'s order + 1 for unary operators, `(a op b)` at the deeper
    /// parent's order + 1 for binary ones.
    pub(crate) fn expression(self, a: (&str, usize), b: (&str, usize)) -> (String, usize) {
        if self.is_unary() {
            (format!("{}({})", self.symbol(), a.0), a.1 + 1)
        } else {
            (
                format!("({}{}{})", a.0, self.symbol(), b.0),
                a.1.max(b.1) + 1,
            )
        }
    }

    /// Apply the operator: binary operators use both operands, unary
    /// operators only the first (paper: "in this case, feature₁ and
    /// feature₂ are the same feature"). Non-finite outputs are clamped to 0.
    pub fn apply(self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(a.len());
        self.apply_chunk(a, b, None, &mut out);
        out
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A generated feature: its values, a human-readable expression, and its
/// transformation order (composition depth; original features are order 0,
/// the paper caps order at 5).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedFeature {
    /// The feature column (name = expression string).
    pub column: Column,
    /// Composition depth.
    pub order: usize,
}

impl GeneratedFeature {
    /// Apply `op` to two parent features, producing a child of order
    /// `max(parent orders) + 1` with an expression-string name.
    pub fn generate(
        op: Operator,
        a: &Column,
        a_order: usize,
        b: &Column,
        b_order: usize,
    ) -> GeneratedFeature {
        let (name, order) = op.expression((&a.name, a_order), (&b.name, b_order));
        GeneratedFeature {
            column: Column::new(name, op.apply(&a.values, &b.values)),
            order,
        }
    }

    /// True when the feature is degenerate: constant or non-finite, hence
    /// useless for any downstream model.
    pub fn is_degenerate(&self) -> bool {
        !self.column.is_finite() || self.column.is_constant(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str, v: &[f64]) -> Column {
        Column::new(name, v.to_vec())
    }

    #[test]
    fn action_space_has_nine_operators() {
        assert_eq!(Operator::ALL.len(), 9);
        let unary = Operator::ALL.iter().filter(|o| o.is_unary()).count();
        assert_eq!(unary, 4);
        assert_eq!(Operator::from_action(0), Operator::Log);
        assert_eq!(Operator::from_action(9), Operator::Log); // wraps

        // A `search.candidate` span's `op` field is the discriminant: it
        // must be the policy's action.
        for (action, op) in Operator::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, action);
        }
    }

    #[test]
    fn counter_names_are_distinct_and_namespaced() {
        let names: std::collections::HashSet<_> =
            Operator::ALL.iter().map(|o| o.counter_name()).collect();
        assert_eq!(names.len(), Operator::ALL.len());
        assert!(names.iter().all(|n| n.starts_with("ops.generated.")));
    }

    #[test]
    fn log_is_safe_for_negatives() {
        let out = Operator::Log.apply(&[-1.0, 0.0, std::f64::consts::E - 1.0], &[]);
        assert!((out[0] - 2.0f64.ln()).abs() < 1e-12);
        assert_eq!(out[1], 0.0);
        assert!((out[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn minmax_normalises_to_unit_interval() {
        let out = Operator::MinMaxNorm.apply(&[2.0, 4.0, 6.0], &[]);
        assert_eq!(out, vec![0.0, 0.5, 1.0]);
        // Constant column normalises to zeros, not NaN.
        let konst = Operator::MinMaxNorm.apply(&[5.0, 5.0], &[]);
        assert_eq!(konst, vec![0.0, 0.0]);
    }

    #[test]
    fn sqrt_handles_negatives() {
        let out = Operator::Sqrt.apply(&[-4.0, 9.0], &[]);
        assert_eq!(out, vec![2.0, 3.0]);
    }

    #[test]
    fn reciprocal_guards_zero() {
        let out = Operator::Reciprocal.apply(&[2.0, 0.0, -0.5], &[]);
        assert_eq!(out, vec![0.5, 0.0, -2.0]);
    }

    #[test]
    fn binary_arithmetic() {
        let a = [6.0, 8.0];
        let b = [3.0, 2.0];
        assert_eq!(Operator::Add.apply(&a, &b), vec![9.0, 10.0]);
        assert_eq!(Operator::Subtract.apply(&a, &b), vec![3.0, 6.0]);
        assert_eq!(Operator::Multiply.apply(&a, &b), vec![18.0, 16.0]);
        assert_eq!(Operator::Divide.apply(&a, &b), vec![2.0, 4.0]);
    }

    #[test]
    fn divide_guards_zero_divisor() {
        assert_eq!(Operator::Divide.apply(&[5.0], &[0.0]), vec![0.0]);
        assert_eq!(Operator::Divide.apply(&[5.0], &[1e-12]), vec![0.0]);
    }

    #[test]
    fn modulo_matches_euclidean_remainder() {
        let out = Operator::Modulo.apply(&[7.0, -7.0, 7.5], &[3.0, 3.0, 0.0]);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[1], 2.0); // floored remainder is non-negative
        assert_eq!(out[2], 0.0); // zero divisor guard
    }

    #[test]
    fn outputs_are_always_finite() {
        let a = [f64::MAX, -f64::MAX];
        let out = Operator::Multiply.apply(&a, &a); // overflows to ±Inf
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn generate_tracks_order_and_name() {
        let a = col("f0", &[1.0, 2.0]);
        let b = col("f1", &[3.0, 4.0]);
        let g = GeneratedFeature::generate(Operator::Add, &a, 0, &b, 2);
        assert_eq!(g.order, 3);
        assert_eq!(g.column.name, "(f0+f1)");
        assert_eq!(g.column.values, vec![4.0, 6.0]);

        let u = GeneratedFeature::generate(Operator::Log, &a, 1, &a, 1);
        assert_eq!(u.order, 2);
        assert_eq!(u.column.name, "log(f0)");
    }

    #[test]
    fn degenerate_detection() {
        let a = col("f0", &[1.0, 1.0]);
        let g = GeneratedFeature::generate(Operator::MinMaxNorm, &a, 0, &a, 0);
        assert!(g.is_degenerate()); // constant → all zeros
        let b = col("f1", &[1.0, 2.0]);
        let h = GeneratedFeature::generate(Operator::Sqrt, &b, 0, &b, 0);
        assert!(!h.is_degenerate());
    }

    #[test]
    fn chunked_apply_matches_flat_apply_bitwise() {
        let a: Vec<f64> = (0..257)
            .map(|i| ((i as f64 * 0.37).sin() * 50.0).round() / 2.0 - 10.0)
            .collect();
        let mut b: Vec<f64> = (0..257)
            .map(|i| ((i as f64 * 0.61).cos() * 8.0).round())
            .collect();
        b[3] = 0.0;
        b[100] = -0.0;
        for op in Operator::ALL {
            let flat = op.apply(&a, &b);
            // Without bounds, the chunk is the whole column.
            let mut whole = Vec::new();
            op.apply_chunk(&a, &b, None, &mut whole);
            assert_eq!(flat, whole, "{op}");
            for chunk_rows in [1usize, 7, 64, 256, 257, 500] {
                let bounds = op.needs_bounds().then(|| Operator::column_bounds(&a));
                let mut chunked = Vec::new();
                for (ca, cb) in a.chunks(chunk_rows).zip(b.chunks(chunk_rows)) {
                    op.apply_chunk(ca, cb, bounds, &mut chunked);
                }
                assert_eq!(flat.len(), chunked.len());
                for (x, y) in flat.iter().zip(&chunked) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{op} chunk_rows={chunk_rows}");
                }
            }
        }
    }

    #[test]
    fn subtract_same_feature_is_degenerate() {
        let a = col("f0", &[1.5, 2.5, 3.5]);
        let g = GeneratedFeature::generate(Operator::Subtract, &a, 0, &a, 0);
        assert!(g.is_degenerate());
    }
}
