//! # eafe-stats
//!
//! Statistical testing substrate for E-AFE's improvement analysis (the
//! paper's Table VI reports paired p-values of E-AFE against AutoFS_R,
//! RTDL_N and NFS for both performance and running time):
//!
//! - `dist` — standard normal CDF, Student's t CDF, incomplete beta;
//! - `tests` — paired t-test and Wilcoxon signed-rank.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod dist;
#[path = "tests_mod.rs"]
mod tests;

pub use tests::{mean, paired_t_test, wilcoxon_signed_rank, StatsError, TestResult};
