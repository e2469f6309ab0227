//! The paper's directional claims as count-only regression tests
//! (ROADMAP item 4(a)): fixed seeds, no clocks, so they hold or fail the
//! same way on every host. Anything that makes an evaluation cheaper or
//! skips it *below* the score cache (the CV-score memo, a faster forest)
//! must leave every count here where it is; the wall-clock side of the
//! same claims is tracked per PR in EXPERIMENTS.md.

use eafe::{bootstrap_fpe, EafeConfig, Engine, FpeSearchSpace, RunResult};
use minhash::HashFamily;
use std::sync::OnceLock;
use tabular::{SynthSpec, Task};

fn schedule() -> EafeConfig {
    let mut cfg = EafeConfig::fast();
    cfg.stage1_epochs = 4;
    cfg.stage2_epochs = 6;
    cfg.steps_per_epoch = 3;
    cfg.seed = 60158;
    cfg
}

/// NFS and E-AFE on one table under one schedule and seed (run once for
/// both tests).
fn nfs_and_eafe() -> &'static (RunResult, RunResult) {
    static RUNS: OnceLock<(RunResult, RunResult)> = OnceLock::new();
    RUNS.get_or_init(run_both)
}

fn run_both() -> (RunResult, RunResult) {
    let table = SynthSpec::new("claims", 240, 8, Task::Classification)
        .with_seed(7)
        .generate()
        .unwrap();
    let space = FpeSearchSpace {
        families: vec![HashFamily::Ccws],
        dims: vec![16],
        thre: 0.01,
        seed: 5,
    };
    let fpe = bootstrap_fpe(5, 2, &space, &schedule().evaluator, 5).expect("FPE bootstrap");
    (
        Engine::nfs(schedule()).run(&table).unwrap(),
        Engine::e_afe(schedule(), fpe).run(&table).unwrap(),
    )
}

/// Table IV: the FPE gate spares E-AFE downstream evaluations NFS pays
/// for. Generation is not what differs — stage 2 of both runs the same
/// epochs × steps — so the absolute counts compare.
#[test]
fn nfs_evaluates_downstream_more_often_than_e_afe() {
    let (nfs, eafe) = nfs_and_eafe();
    assert!(
        nfs.downstream_evals > eafe.downstream_evals,
        "NFS {} evals of {} generated, E-AFE {} of {}",
        nfs.downstream_evals,
        nfs.generated_features,
        eafe.downstream_evals,
        eafe.generated_features
    );
}

/// Algorithm 2's premise: most generated candidates never reach the
/// downstream task (`eafe.gate_pass_frac` < ½ in `perf_e2e`), while NFS,
/// which has no gate, evaluates most of what it generates.
#[test]
fn the_fpe_gate_drops_a_majority_of_candidates() {
    let (nfs, eafe) = nfs_and_eafe();
    assert!(
        2 * eafe.downstream_evals < eafe.generated_features,
        "E-AFE evaluated {} of {} generated",
        eafe.downstream_evals,
        eafe.generated_features
    );
    assert!(
        2 * nfs.downstream_evals > nfs.generated_features,
        "NFS evaluated {} of {} generated",
        nfs.downstream_evals,
        nfs.generated_features
    );
}
