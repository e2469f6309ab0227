//! **Table III** — the main comparison: scores of all eleven methods on
//! the target datasets (F1 for classification, 1-RAE for regression).
//!
//! Columns, in paper order: `FS_R` (AutoFS over random features), `DL_N`
//! (RTDL ResNet re-headed with RF), `NFS`, `FE|DL`, `DL|FE`, `E-AFE_R`,
//! `E-AFE_D`, `E-AFE^L` (0-bit CWS), `E-AFE^P` (PCWS), `E-AFE^I` (ICWS),
//! and `E-AFE` (CCWS, the full method).
//!
//! Regenerate (4 quick datasets): `cargo run -p bench --release --bin table3`
//! Full paper matrix:            `... --bin table3 -- --datasets all`
//!
//! The JSON artifact feeds `table6` (significance analysis).

use bench::{fmt_score, print_header, CommonArgs, TextTable};
use eafe::{run_dl_fe, run_fe_dl, run_rtdl_n, DlBaselineConfig};
use eafe::{Engine, RunResult};
use minhash::HashFamily;
use serde::Serialize;

/// Artifact row: every method's score and wall time on one dataset.
#[derive(Serialize)]
pub struct DatasetRow {
    dataset: String,
    task: String,
    shape: String,
    scores: Vec<(String, f64)>,
    times: Vec<(String, f64)>,
}

fn record(row: &mut DatasetRow, result: &RunResult) {
    row.scores.push((result.method.clone(), result.best_score));
    row.times.push((result.method.clone(), result.total_secs));
}

fn main() {
    let args = CommonArgs::parse();
    print_header("Table III: comparison on target datasets", &args);

    let cfg = args.config();
    let dl_cfg = DlBaselineConfig {
        seed: args.seed,
        ..DlBaselineConfig::default()
    };
    // One FPE model per hash-family variant (cached across runs).
    let fpe_ccws = args.fpe_model(HashFamily::Ccws, 48);
    let fpe_licws = args.fpe_model(HashFamily::ZeroBitCws, 48);
    let fpe_pcws = args.fpe_model(HashFamily::Pcws, 48);
    let fpe_icws = args.fpe_model(HashFamily::Icws, 48);

    // (column header, recorded method name) in paper order.
    const METHODS: [(&str, &str); 11] = [
        ("FS_R", "AutoFS_R"),
        ("DL_N", "RTDL_N"),
        ("NFS", "NFS"),
        ("FE|DL", "FE|DL"),
        ("DL|FE", "DL|FE"),
        ("E-AFE_R", "E-AFE_R"),
        ("E-AFE_D", "E-AFE_D"),
        ("E-AFE^L", "E-AFE^L"),
        ("E-AFE^P", "E-AFE^P"),
        ("E-AFE^I", "E-AFE^I"),
        ("E-AFE", "E-AFE"),
    ];
    let mut headers = vec!["Dataset".to_string(), "C\\R".into(), "Samples\\Feat".into()];
    headers.extend(METHODS.iter().map(|(label, _)| label.to_string()));
    let mut table = TextTable::new(headers);

    let mut rows: Vec<DatasetRow> = Vec::new();
    for info in args.dataset_infos() {
        if !args.quiet {
            eprintln!("running {} ...", info.name);
        }
        let frame = args.load(&info);
        let mut row = DatasetRow {
            dataset: info.name.to_string(),
            task: info.task.code().to_string(),
            shape: frame.shape_str(),
            scores: Vec::new(),
            times: Vec::new(),
        };

        // The full E-AFE first: its engineered features also feed FE|DL.
        let (eafe_result, engineered) = args
            .engine(Engine::e_afe(cfg.clone(), fpe_ccws.clone()))
            .run_full(&frame)
            .expect("E-AFE");

        record(&mut row, &args.run_autofs_r(&cfg, &frame).expect("FS_R").0);
        record(&mut row, &run_rtdl_n(&dl_cfg, &frame).expect("DL_N"));
        record(
            &mut row,
            &args
                .engine(Engine::nfs(cfg.clone()))
                .run(&frame)
                .expect("NFS"),
        );
        record(&mut row, &run_fe_dl(&dl_cfg, &engineered).expect("FE|DL"));
        record(&mut row, &run_dl_fe(&dl_cfg, &frame).expect("DL|FE"));
        record(
            &mut row,
            &args
                .engine(Engine::e_afe_r(cfg.clone(), fpe_ccws.clone()))
                .run(&frame)
                .expect("E-AFE_R"),
        );
        record(
            &mut row,
            &args
                .engine(Engine::e_afe_d(cfg.clone(), 0.5))
                .run(&frame)
                .expect("E-AFE_D"),
        );
        record(
            &mut row,
            &args
                .engine(Engine::e_afe_variant(
                    cfg.clone(),
                    fpe_licws.clone(),
                    "E-AFE^L",
                ))
                .run(&frame)
                .expect("E-AFE^L"),
        );
        record(
            &mut row,
            &args
                .engine(Engine::e_afe_variant(
                    cfg.clone(),
                    fpe_pcws.clone(),
                    "E-AFE^P",
                ))
                .run(&frame)
                .expect("E-AFE^P"),
        );
        record(
            &mut row,
            &args
                .engine(Engine::e_afe_variant(
                    cfg.clone(),
                    fpe_icws.clone(),
                    "E-AFE^I",
                ))
                .run(&frame)
                .expect("E-AFE^I"),
        );
        record(&mut row, &eafe_result);

        let mut cells = vec![row.dataset.clone(), row.task.clone(), row.shape.clone()];
        for (label, recorded) in METHODS {
            let score = row
                .scores
                .iter()
                .find(|(name, _)| name == recorded)
                .map(|(_, s)| *s)
                .unwrap_or_else(|| panic!("method {label} not recorded"));
            cells.push(fmt_score(score));
        }
        table.row(cells);
        rows.push(row);
    }
    table.print();
    args.write_json("table3.json", &rows);

    // Summary: the paper reports E-AFE ~2.9% above the best baseline mean.
    let mean_of = |name: &str| -> f64 {
        let vals: Vec<f64> = rows
            .iter()
            .flat_map(|r| r.scores.iter())
            .filter(|(m, _)| m == name)
            .map(|(_, s)| *s)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    println!();
    for (label, recorded) in METHODS {
        println!("mean {label:<8} = {:.4}", mean_of(recorded));
    }
    args.finish();
}
