//! **Table V** — robustness of the cached engineered features to a change
//! of downstream model: the feature sets produced (with RF in the loop) by
//! AutoFS_R, NFS and E-AFE are re-evaluated with SVM, NB/GP and MLP.
//!
//! Regenerate: `cargo run -p bench --release --bin table5`

use bench::{fmt_score, print_header, CommonArgs, TextTable};
use eafe::{reevaluate, Engine};
use learners::ModelKind;
use minhash::HashFamily;
use serde::Serialize;

const KINDS: [ModelKind; 3] = [ModelKind::Svm, ModelKind::NaiveBayesGp, ModelKind::Mlp];

#[derive(Serialize)]
struct Row {
    dataset: String,
    task: String,
    /// (method, model, score)
    scores: Vec<(String, String, f64)>,
}

fn main() {
    let args = CommonArgs::parse();
    print_header(
        "Table V: cached features under replaced downstream tasks",
        &args,
    );

    let cfg = args.config();
    let fpe = args.fpe_model(HashFamily::Ccws, 48);

    let mut headers = vec!["Dataset".to_string(), "C\\R".into()];
    for method in ["AutoFS_R", "NFS", "E-AFE"] {
        for kind in KINDS {
            headers.push(format!("{method}:{}", kind.name()));
        }
    }
    let mut table = TextTable::new(headers);

    let mut rows = Vec::new();
    for info in args.dataset_infos() {
        if !args.quiet {
            eprintln!("running {} ...", info.name);
        }
        let frame = args.load(&info);
        let (_, fs_frame) = args.run_autofs_r(&cfg, &frame).expect("FS_R");
        let (_, nfs_frame) = args
            .engine(Engine::nfs(cfg.clone()))
            .run_full(&frame)
            .expect("NFS");
        let (_, eafe_frame) = args
            .engine(Engine::e_afe(cfg.clone(), fpe.clone()))
            .run_full(&frame)
            .expect("E-AFE");

        let mut row = Row {
            dataset: info.name.to_string(),
            task: info.task.code().to_string(),
            scores: Vec::new(),
        };
        let mut cells = vec![row.dataset.clone(), row.task.clone()];
        for (method, engineered) in [
            ("AutoFS_R", &fs_frame),
            ("NFS", &nfs_frame),
            ("E-AFE", &eafe_frame),
        ] {
            for kind in KINDS {
                let score = reevaluate(engineered, kind, &cfg).expect("re-evaluate");
                cells.push(fmt_score(score));
                row.scores
                    .push((method.to_string(), kind.name().to_string(), score));
            }
        }
        table.row(cells);
        rows.push(row);
    }
    table.print();
    args.write_json("table5.json", &rows);

    // Shape check: E-AFE's features should win (or tie) most cells against
    // both baselines under every replacement model.
    let mut wins = 0usize;
    let mut cells = 0usize;
    for row in &rows {
        for kind in KINDS {
            let get = |m: &str| {
                row.scores
                    .iter()
                    .find(|(mm, kk, _)| mm == m && kk == kind.name())
                    .map(|(_, _, s)| *s)
                    .unwrap()
            };
            let eafe = get("E-AFE");
            if eafe + 1e-9 >= get("AutoFS_R") && eafe + 1e-9 >= get("NFS") {
                wins += 1;
            }
            cells += 1;
        }
    }
    println!(
        "\nshape check: E-AFE features best-or-tied in {wins}/{cells} \
         (dataset × replacement-model) cells."
    );
    args.finish();
}
