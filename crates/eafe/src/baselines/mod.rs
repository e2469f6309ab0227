//! Baseline methods compared against E-AFE in the paper's Table III:
//! `AutoFS_R` (RL feature selection over a random pool) and the
//! deep-learning baselines (`RTDL_N`, `FE|DL`, `DL|FE`). `NFS`, `E-AFE_D`
//! and `E-AFE_R` share E-AFE's unified [`crate::engine::Engine`].

mod autofs;
mod rtdl;

pub(crate) use autofs::random_feature_pool;
pub use autofs::run_autofs_r;
pub(crate) use rtdl::top_k;
pub use rtdl::{run_dl_fe, run_fe_dl, run_rtdl_n, DlBaselineConfig};
