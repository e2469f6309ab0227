//! The RNN policy agent (paper Figure 4): one recurrent cell per original
//! feature whose hidden state carries the action-probability context from
//! round to round, a softmax head over the transformation operators, and a
//! REINFORCE update implementing the paper's Eq. (1) loss
//!
//! ```text
//! L(θ, h, r) = −r·log π(a) − β·H(π) + λ‖θ‖²
//! ```
//!
//! (the paper writes the policy-gradient and entropy terms with informal
//! signs; we use the standard convention where minimising `L` ascends the
//! reward-weighted log-likelihood and *encourages* exploration via the
//! entropy bonus `H`, and `λ‖θ‖²` is the weight decay the paper's third
//! term specifies).
//!
//! Backpropagation through time is truncated at one step: the previous
//! hidden state is treated as a constant input, which is the standard
//! cheap approximation for policy RNNs of this size.

use crate::adam::Adam;
use crate::error::{Result, RlError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Policy hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Dimension of the state embedding fed to the cell.
    pub state_dim: usize,
    /// Hidden width of the recurrent cell.
    pub hidden_dim: usize,
    /// Number of discrete actions (E-AFE: 9 transformation operators).
    pub n_actions: usize,
    /// Adam learning rate (paper: 0.01).
    pub lr: f64,
    /// Entropy-bonus coefficient β.
    pub entropy_coef: f64,
    /// L2 weight decay λ.
    pub l2: f64,
    /// Initialisation seed.
    pub seed: u64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            state_dim: 8,
            hidden_dim: 16,
            n_actions: 9,
            lr: 0.01,
            entropy_coef: 0.01,
            l2: 1e-4,
            seed: 0,
        }
    }
}

/// Everything the backward pass needs about one forward step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepCache {
    /// State embedding fed in.
    pub x: Vec<f64>,
    /// Hidden state before the step.
    pub h_prev: Vec<f64>,
    /// Hidden state after the step (post-tanh).
    pub h: Vec<f64>,
    /// Action probabilities.
    pub probs: Vec<f64>,
    /// The sampled action.
    pub action: usize,
}

/// A recurrent softmax policy over a discrete action set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RnnPolicy {
    /// Hyper-parameters.
    pub config: PolicyConfig,
    wx: Vec<Vec<f64>>, // hidden × state
    wh: Vec<Vec<f64>>, // hidden × hidden
    bh: Vec<f64>,
    wo: Vec<Vec<f64>>, // actions × hidden
    bo: Vec<f64>,
    hidden: Vec<f64>,
    opt: Adam,
}

impl RnnPolicy {
    /// New policy with uniform initial action distribution (paper: "for the
    /// first round generation, we set the action probability distribution as
    /// uniform") — achieved by zero-initialising the output head.
    pub fn new(config: PolicyConfig) -> Result<Self> {
        if config.state_dim == 0 || config.hidden_dim == 0 || config.n_actions == 0 {
            return Err(RlError::InvalidParam(
                "state_dim, hidden_dim and n_actions must be > 0".into(),
            ));
        }
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut mat = |rows: usize, cols: usize, scale: f64| -> Vec<Vec<f64>> {
            (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(-scale..scale)).collect())
                .collect()
        };
        let sx = (1.0 / config.state_dim as f64).sqrt();
        let sh = (1.0 / config.hidden_dim as f64).sqrt();
        let wx = mat(config.hidden_dim, config.state_dim, sx);
        let wh = mat(config.hidden_dim, config.hidden_dim, sh);
        let n_params = config.hidden_dim * (config.state_dim + config.hidden_dim + 1)
            + config.n_actions * (config.hidden_dim + 1);
        Ok(Self {
            config,
            wx,
            wh,
            bh: vec![0.0; config.hidden_dim],
            wo: vec![vec![0.0; config.hidden_dim]; config.n_actions],
            bo: vec![0.0; config.n_actions],
            hidden: vec![0.0; config.hidden_dim],
            opt: Adam::new(n_params, config.lr),
        })
    }

    /// Reset the recurrent state (start of an episode).
    pub fn reset(&mut self) {
        self.hidden.iter_mut().for_each(|h| *h = 0.0);
    }

    fn forward(&self, x: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
        if x.len() != self.config.state_dim {
            return Err(RlError::DimensionMismatch {
                expected: self.config.state_dim,
                got: x.len(),
            });
        }
        let h: Vec<f64> = (0..self.config.hidden_dim)
            .map(|i| {
                let a = self.bh[i] + dot(&self.wx[i], x) + dot(&self.wh[i], &self.hidden);
                a.tanh()
            })
            .collect();
        let logits: Vec<f64> = self
            .wo
            .iter()
            .zip(&self.bo)
            .map(|(row, b)| b + dot(row, &h))
            .collect();
        Ok((h, softmax(&logits)))
    }

    /// Advance one step: compute the action distribution, sample an action,
    /// update the recurrent state, and return the cache for learning.
    pub fn step(&mut self, x: &[f64], rng: &mut impl Rng) -> Result<StepCache> {
        let (h, probs) = self.forward(x)?;
        let action = sample_categorical(&probs, rng);
        let cache = StepCache {
            x: x.to_vec(),
            h_prev: self.hidden.clone(),
            h: h.clone(),
            probs,
            action,
        };
        self.hidden = h;
        Ok(cache)
    }

    /// REINFORCE update over an episode of (step, λ-return) pairs
    /// (paper Eq. 12 with the Eq. 1 loss). Returns the mean loss.
    pub fn update(&mut self, steps: &[(StepCache, f64)]) -> Result<f64> {
        if steps.is_empty() {
            return Ok(0.0);
        }
        let cfg = self.config;
        let mut gwx = vec![vec![0.0; cfg.state_dim]; cfg.hidden_dim];
        let mut gwh = vec![vec![0.0; cfg.hidden_dim]; cfg.hidden_dim];
        let mut gbh = vec![0.0; cfg.hidden_dim];
        let mut gwo = vec![vec![0.0; cfg.hidden_dim]; cfg.n_actions];
        let mut gbo = vec![0.0; cfg.n_actions];
        let mut total_loss = 0.0;

        for (cache, ret) in steps {
            if cache.x.len() != cfg.state_dim || cache.probs.len() != cfg.n_actions {
                return Err(RlError::DimensionMismatch {
                    expected: cfg.state_dim,
                    got: cache.x.len(),
                });
            }
            let p = &cache.probs;
            let entropy: f64 = -p
                .iter()
                .filter(|&&v| v > 0.0)
                .map(|&v| v * v.ln())
                .sum::<f64>();
            total_loss += -ret * p[cache.action].max(1e-15).ln() - cfg.entropy_coef * entropy;

            // dL/dlogit_j = ret·(p_j − δ_aj)  +  β·p_j·(ln p_j + H)
            let dlogits: Vec<f64> = (0..cfg.n_actions)
                .map(|j| {
                    let pg = ret * (p[j] - f64::from(u8::from(j == cache.action)));
                    let ent = cfg.entropy_coef * p[j] * (p[j].max(1e-15).ln() + entropy);
                    pg + ent
                })
                .collect();

            // Head gradients and dL/dh.
            let mut dh = vec![0.0; cfg.hidden_dim];
            for (j, &dl) in dlogits.iter().enumerate() {
                gbo[j] += dl;
                for (i, &hi) in cache.h.iter().enumerate() {
                    gwo[j][i] += dl * hi;
                    dh[i] += dl * self.wo[j][i];
                }
            }
            // Through tanh into the cell (truncated BPTT-1).
            for i in 0..cfg.hidden_dim {
                let da = dh[i] * (1.0 - cache.h[i] * cache.h[i]);
                gbh[i] += da;
                for (k, &xk) in cache.x.iter().enumerate() {
                    gwx[i][k] += da * xk;
                }
                for (k, &hk) in cache.h_prev.iter().enumerate() {
                    gwh[i][k] += da * hk;
                }
            }
        }

        let scale = 1.0 / steps.len() as f64;
        let mut params = Vec::new();
        let mut grads = Vec::new();
        let pack = |w: &[Vec<f64>], g: &[Vec<f64>], params: &mut Vec<f64>, grads: &mut Vec<f64>| {
            for (wr, gr) in w.iter().zip(g) {
                for (&wv, &gv) in wr.iter().zip(gr) {
                    params.push(wv);
                    grads.push(gv * scale + cfg.l2 * wv);
                }
            }
        };
        pack(&self.wx, &gwx, &mut params, &mut grads);
        pack(&self.wh, &gwh, &mut params, &mut grads);
        for (&b, &g) in self.bh.iter().zip(&gbh) {
            params.push(b);
            grads.push(g * scale);
        }
        pack(&self.wo, &gwo, &mut params, &mut grads);
        for (&b, &g) in self.bo.iter().zip(&gbo) {
            params.push(b);
            grads.push(g * scale);
        }

        self.opt.step(&mut params, &grads);

        // Unpack, in the order packed.
        let slots = (self.wx.iter_mut().flatten())
            .chain(self.wh.iter_mut().flatten())
            .chain(self.bh.iter_mut())
            .chain(self.wo.iter_mut().flatten())
            .chain(self.bo.iter_mut());
        let mut unpacked = 0;
        for (w, p) in slots.zip(params.iter()) {
            *w = *p;
            unpacked += 1;
        }
        debug_assert_eq!(unpacked, params.len());

        Ok(total_loss * scale)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Numerically-stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Sample an index from a probability vector.
pub(crate) fn sample_categorical(probs: &[f64], rng: &mut impl Rng) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

#[cfg(test)]
impl RnnPolicy {
    /// Current action probabilities for a state without advancing the
    /// recurrent state.
    pub(crate) fn action_probs(&self, x: &[f64]) -> Result<Vec<f64>> {
        let (_, probs) = self.forward(x)?;
        Ok(probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn policy(n_actions: usize) -> RnnPolicy {
        RnnPolicy::new(PolicyConfig {
            state_dim: 3,
            hidden_dim: 8,
            n_actions,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn initial_distribution_is_uniform() {
        let p = policy(4);
        let probs = p.action_probs(&[0.1, -0.2, 0.5]).unwrap();
        for &v in &probs {
            assert!((v - 0.25).abs() < 1e-12, "{probs:?}");
        }
    }

    #[test]
    fn step_advances_hidden_state() {
        let mut p = policy(4);
        let mut rng = StdRng::seed_from_u64(1);
        let c1 = p.step(&[1.0, 0.0, 0.0], &mut rng).unwrap();
        assert_eq!(c1.h_prev, vec![0.0; 8]);
        let c2 = p.step(&[1.0, 0.0, 0.0], &mut rng).unwrap();
        assert_eq!(c2.h_prev, c1.h);
        p.reset();
        let c3 = p.step(&[1.0, 0.0, 0.0], &mut rng).unwrap();
        assert_eq!(c3.h_prev, vec![0.0; 8]);
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert!(RnnPolicy::new(PolicyConfig {
            n_actions: 0,
            ..Default::default()
        })
        .is_err());
        let mut p = policy(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(p.step(&[1.0], &mut rng).is_err());
        assert!(p.action_probs(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn positive_reward_increases_action_probability() {
        let mut p = policy(3);
        let mut rng = StdRng::seed_from_u64(2);
        let x = [0.5, -0.5, 1.0];
        let before = p.action_probs(&x).unwrap()[1];
        // Repeatedly reward action 1.
        for _ in 0..200 {
            p.reset();
            let mut cache = p.step(&x, &mut rng).unwrap();
            cache.action = 1;
            p.update(&[(cache, 1.0)]).unwrap();
        }
        p.reset();
        let after = p.action_probs(&x).unwrap()[1];
        assert!(after > before + 0.2, "before {before:.3}, after {after:.3}");
    }

    #[test]
    fn negative_reward_decreases_action_probability() {
        let mut p = policy(3);
        let mut rng = StdRng::seed_from_u64(3);
        let x = [0.5, -0.5, 1.0];
        for _ in 0..200 {
            p.reset();
            let mut cache = p.step(&x, &mut rng).unwrap();
            cache.action = 0;
            p.update(&[(cache, -1.0)]).unwrap();
        }
        p.reset();
        let after = p.action_probs(&x).unwrap()[0];
        assert!(after < 0.2, "after {after:.3}");
    }

    #[test]
    fn entropy_bonus_keeps_distribution_soft() {
        // With a strong entropy coefficient, even persistent rewards should
        // not fully collapse the distribution.
        let mut p = RnnPolicy::new(PolicyConfig {
            state_dim: 3,
            hidden_dim: 8,
            n_actions: 3,
            entropy_coef: 0.5,
            ..Default::default()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let x = [1.0, 1.0, 1.0];
        for _ in 0..300 {
            p.reset();
            let mut cache = p.step(&x, &mut rng).unwrap();
            cache.action = 2;
            p.update(&[(cache, 1.0)]).unwrap();
        }
        p.reset();
        let probs = p.action_probs(&x).unwrap();
        assert!(probs[2] < 0.95, "collapsed anyway: {probs:?}");
        assert!(probs[2] > 1.0 / 3.0, "did not learn at all: {probs:?}");
    }

    #[test]
    fn update_on_empty_episode_is_noop() {
        let mut p = policy(3);
        assert_eq!(p.update(&[]).unwrap(), 0.0);
    }

    #[test]
    fn sample_categorical_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(5);
        let probs = [0.1, 0.7, 0.2];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[sample_categorical(&probs, &mut rng)] += 1;
        }
        assert!((counts[1] as f64 / 10_000.0 - 0.7).abs() < 0.03);
    }

    #[test]
    fn softmax_stability() {
        let p = softmax(&[1e6, 1e6]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }
}
