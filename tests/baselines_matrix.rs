//! Integration tests for the full Table III method matrix: every method
//! the paper compares must run on the same dataset and produce sane,
//! mutually-comparable results.

use eafe::{
    bootstrap_fpe, run_autofs_r, run_dl_fe, run_fe_dl, run_rtdl_n, DlBaselineConfig, EafeConfig,
    Engine, FpeSearchSpace,
};
use learners::{ModelKind, ResNetConfig};
use minhash::HashFamily;
use tabular::{DataFrame, SynthSpec, Task};

fn frame() -> DataFrame {
    SynthSpec::new("matrix", 180, 6, Task::Classification)
        .with_seed(3)
        .generate()
        .unwrap()
}

fn cfg() -> EafeConfig {
    EafeConfig::fast()
}

fn fpe(family: HashFamily) -> eafe::FpeModel {
    let space = FpeSearchSpace {
        families: vec![family],
        dims: vec![16],
        thre: 0.01,
        seed: 9,
    };
    bootstrap_fpe(4, 2, &space, &cfg().evaluator, 9).expect("FPE")
}

fn dl_cfg() -> DlBaselineConfig {
    DlBaselineConfig {
        resnet: ResNetConfig {
            epochs: 5,
            width: 16,
            n_blocks: 1,
            ..ResNetConfig::default()
        },
        dlfe_keep: 8,
        ..DlBaselineConfig::default()
    }
}

#[test]
fn all_eleven_table3_methods_run() {
    let frame = frame();
    let fpe_ccws = fpe(HashFamily::Ccws);
    let (eafe_result, engineered) = Engine::e_afe(cfg(), fpe_ccws.clone())
        .run_full(&frame)
        .unwrap();

    let results = vec![
        run_autofs_r(&cfg(), &frame, None).unwrap().0,
        run_rtdl_n(&dl_cfg(), &frame).unwrap(),
        Engine::nfs(cfg()).run(&frame).unwrap(),
        run_fe_dl(&dl_cfg(), &engineered).unwrap(),
        run_dl_fe(&dl_cfg(), &frame).unwrap(),
        Engine::e_afe_r(cfg(), fpe_ccws.clone())
            .run(&frame)
            .unwrap(),
        Engine::e_afe_d(cfg(), 0.5).run(&frame).unwrap(),
        Engine::e_afe_variant(cfg(), fpe(HashFamily::ZeroBitCws), "E-AFE^L")
            .run(&frame)
            .unwrap(),
        Engine::e_afe_variant(cfg(), fpe(HashFamily::Pcws), "E-AFE^P")
            .run(&frame)
            .unwrap(),
        Engine::e_afe_variant(cfg(), fpe(HashFamily::Icws), "E-AFE^I")
            .run(&frame)
            .unwrap(),
        eafe_result,
    ];
    let names: Vec<&str> = results.iter().map(|r| r.method.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "AutoFS_R", "RTDL_N", "NFS", "FE|DL", "DL|FE", "E-AFE_R", "E-AFE_D", "E-AFE^L",
            "E-AFE^P", "E-AFE^I", "E-AFE"
        ]
    );
    for r in &results {
        assert!(r.best_score.is_finite(), "{} produced NaN", r.method);
        assert!(
            (-1.0..=1.0).contains(&r.best_score),
            "{} score {} out of metric range",
            r.method,
            r.best_score
        );
        assert!(r.total_secs >= 0.0);
    }
    // RL-based AFE methods never end below their own baseline.
    for r in &results {
        if !matches!(r.method.as_str(), "RTDL_N" | "FE|DL" | "DL|FE") {
            assert!(
                r.best_score >= r.base_score,
                "{}: best {} < base {}",
                r.method,
                r.best_score,
                r.base_score
            );
        }
    }
}

#[test]
fn table5_reevaluation_of_cached_features() {
    let frame = frame();
    let (_, engineered) = Engine::e_afe(cfg(), fpe(HashFamily::Ccws))
        .run_full(&frame)
        .unwrap();
    let mut config = cfg();
    config.evaluator.mlp.epochs = 5;
    for kind in [ModelKind::Svm, ModelKind::NaiveBayesGp, ModelKind::Mlp] {
        let score = eafe::reevaluate(&engineered, kind, &config).unwrap();
        assert!(score.is_finite(), "{kind:?}");
    }
}

#[test]
fn dropout_rate_extremes() {
    let frame = frame();
    // rate 0 behaves like NFS (evaluates all structurally valid).
    let none = Engine::e_afe_d(cfg(), 0.0).run(&frame).unwrap();
    let nfs = Engine::nfs(cfg()).run(&frame).unwrap();
    assert_eq!(none.downstream_evals, nfs.downstream_evals);
    // rate 1 evaluates nothing beyond the base score.
    let all = Engine::e_afe_d(cfg(), 1.0).run(&frame).unwrap();
    assert_eq!(all.downstream_evals, 1);
    assert_eq!(all.best_score, all.base_score);
}

#[test]
fn minhash_variant_engines_differ_only_in_label() {
    let frame = frame();
    let l = Engine::e_afe_variant(cfg(), fpe(HashFamily::ZeroBitCws), "E-AFE^L")
        .run(&frame)
        .unwrap();
    assert_eq!(l.method, "E-AFE^L");
    assert!(l.best_score >= l.base_score);
}
