//! # rl
//!
//! Reinforcement-learning substrate for E-AFE: the RNN policy agent of the
//! paper's Figure 4 with a REINFORCE update (Eqs. 1 and 12), the discounted
//! and λ-return computations (Eqs. 9–10), and the replay buffer that bridges
//! the two training stages (Algorithm 2).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod adam;
mod error;
mod policy;
mod replay;
mod returns;

pub use error::{Result, RlError};
pub use policy::{softmax, PolicyConfig, RnnPolicy, StepCache};
pub use replay::ReplayBuffer;
pub use returns::{
    discounted_returns, lambda_return, returns_from_scores, rewards_to_go, score_gains,
    ReturnConfig,
};
