//! Return computations: the paper's discounted k-step return `U_t`
//! (Eq. 9) and λ-return `U_t^λ` (Eq. 10).
//!
//! The paper defines the per-step reward as the score gain
//! `r_t = A_t − A_{t−1}` and accumulates it as
//!
//! ```text
//! U_t = Σ_{k=0}^{t} γ^{t−k} r_k          (Eq. 9)
//! U_t^λ = (1−λ) Σ_{k=1}^{n} λ^{k−1} U_t  (Eq. 10)
//! ```
//!
//! Eq. (9) discounts *past* rewards toward the present (old gains fade);
//! Eq. (10)'s inner term does not depend on `k`, so the sum telescopes to
//! the closed form `U_t (1 − λⁿ)` — we implement exactly that, which is
//! what the authors' released code computes as well.

use serde::{Deserialize, Serialize};

/// Discount parameters for return computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReturnConfig {
    /// Discount factor γ ∈ \[0, 1\].
    pub gamma: f64,
    /// λ for the λ-return, ∈ \[0, 1).
    pub lambda: f64,
    /// Horizon `n = N × T` in Eq. (10): agents × transformations per agent.
    pub horizon: usize,
}

impl Default for ReturnConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            lambda: 0.9,
            horizon: 64,
        }
    }
}

/// Per-step rewards from a score trace: `r_t = A_t − A_{t−1}` with
/// `A_{−1}` given as `baseline`.
pub fn score_gains(scores: &[f64], baseline: f64) -> Vec<f64> {
    let mut prev = baseline;
    scores
        .iter()
        .map(|&a| {
            let r = a - prev;
            prev = a;
            r
        })
        .collect()
}

/// Eq. (9): `U_t = Σ_{k=0}^{t} γ^{t−k} r_k` for every `t`, computed with the
/// forward recurrence `U_t = γ U_{t−1} + r_t` in O(n).
pub fn discounted_returns(rewards: &[f64], gamma: f64) -> Vec<f64> {
    let mut u = Vec::with_capacity(rewards.len());
    let mut acc = 0.0;
    for &r in rewards {
        acc = gamma * acc + r;
        u.push(acc);
    }
    u
}

/// The conventional *reward-to-go* return `G_t = Σ_{k≥t} γ^{k−t} r_k`,
/// provided for the ablation bench comparing the paper's Eq. (9) against
/// the textbook formulation.
pub fn rewards_to_go(rewards: &[f64], gamma: f64) -> Vec<f64> {
    let mut g = vec![0.0; rewards.len()];
    let mut acc = 0.0;
    for (i, &r) in rewards.iter().enumerate().rev() {
        acc = r + gamma * acc;
        g[i] = acc;
    }
    g
}

/// Eq. (10): `U_t^λ = (1−λ) Σ_{k=1}^{n} λ^{k−1} U_t = U_t (1 − λⁿ)`.
pub fn lambda_return(u_t: f64, lambda: f64, horizon: usize) -> f64 {
    if horizon == 0 {
        return 0.0;
    }
    u_t * (1.0 - lambda.powi(horizon as i32))
}

/// Apply [`lambda_return`] element-wise to a return trace.
pub(crate) fn lambda_returns(u: &[f64], cfg: &ReturnConfig) -> Vec<f64> {
    u.iter()
        .map(|&ut| lambda_return(ut, cfg.lambda, cfg.horizon))
        .collect()
}

/// Full paper pipeline: scores → gains (Eq. 9 upper) → discounted returns
/// (Eq. 9 lower) → λ-returns (Eq. 10).
pub fn returns_from_scores(scores: &[f64], baseline: f64, cfg: &ReturnConfig) -> Vec<f64> {
    let gains = score_gains(scores, baseline);
    let u = discounted_returns(&gains, cfg.gamma);
    lambda_returns(&u, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_gains_difference_chain() {
        let gains = score_gains(&[0.5, 0.7, 0.6], 0.4);
        assert_eq!(gains.len(), 3);
        assert!((gains[0] - 0.1).abs() < 1e-12);
        assert!((gains[1] - 0.2).abs() < 1e-12);
        assert!((gains[2] + 0.1).abs() < 1e-12);
    }

    #[test]
    fn discounted_matches_direct_formula() {
        let r = [1.0, 2.0, 3.0];
        let gamma = 0.5;
        let u = discounted_returns(&r, gamma);
        // U_2 = γ²r_0 + γr_1 + r_2 = 0.25 + 1 + 3 = 4.25
        assert!((u[0] - 1.0).abs() < 1e-12);
        assert!((u[1] - 2.5).abs() < 1e-12);
        assert!((u[2] - 4.25).abs() < 1e-12);
    }

    #[test]
    fn gamma_zero_returns_are_rewards() {
        let r = [3.0, -1.0, 2.0];
        assert_eq!(discounted_returns(&r, 0.0), r.to_vec());
    }

    #[test]
    fn gamma_one_returns_are_cumulative_sums() {
        let r = [1.0, 1.0, 1.0];
        assert_eq!(discounted_returns(&r, 1.0), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn rewards_to_go_is_reverse_discount() {
        let r = [1.0, 2.0, 4.0];
        let g = rewards_to_go(&r, 0.5);
        // G_0 = 1 + 0.5·2 + 0.25·4 = 3
        assert!((g[0] - 3.0).abs() < 1e-12);
        assert!((g[1] - 4.0).abs() < 1e-12);
        assert!((g[2] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_return_closed_form() {
        // (1-λ) Σ_{k=1}^{3} λ^{k-1} = (1-λ)(1+λ+λ²) = 1-λ³.
        let direct: f64 = (1.0 - 0.5) * (1.0 + 0.5 + 0.25) * 2.0;
        assert!((lambda_return(2.0, 0.5, 3) - direct).abs() < 1e-12);
        assert_eq!(lambda_return(5.0, 0.9, 0), 0.0);
    }

    #[test]
    fn lambda_return_approaches_ut_for_long_horizons() {
        let lr = lambda_return(1.0, 0.9, 1000);
        assert!((lr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_pipeline_shape_and_sign() {
        let cfg = ReturnConfig::default();
        // Monotonically improving scores → all λ-returns positive.
        let out = returns_from_scores(&[0.5, 0.6, 0.7, 0.8], 0.45, &cfg);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|&v| v > 0.0), "{out:?}");
        // Degrading scores → negative returns eventually.
        let bad = returns_from_scores(&[0.4, 0.3, 0.2], 0.45, &cfg);
        assert!(bad.iter().all(|&v| v < 0.0), "{bad:?}");
    }
}
