//! **Figure 7** — learning curves: best downstream score vs training
//! epoch for AutoFS_R, NFS, E-AFE_D and E-AFE. The paper's claim: E-AFE
//! saturates ≥ 2× faster than NFS (and reaches the same score with far
//! fewer downstream evaluations / seconds).
//!
//! Regenerate: `cargo run -p bench --release --bin fig7 [--epochs2 12]`

use bench::{fmt_score, print_header, CommonArgs, TextTable};
use eafe::{Engine, RunResult};
use minhash::HashFamily;
use serde::Serialize;

#[derive(Serialize)]
struct Curve {
    dataset: String,
    method: String,
    /// (epoch, best score so far, cumulative downstream evals, seconds)
    points: Vec<(usize, f64, usize, f64)>,
}

fn curve(result: &RunResult, dataset: &str) -> Curve {
    Curve {
        dataset: dataset.to_string(),
        method: result.method.clone(),
        points: result
            .trace
            .iter()
            .map(|p| (p.epoch, p.score, p.downstream_evals, p.elapsed_secs))
            .collect(),
    }
}

fn main() {
    let args = CommonArgs::parse();
    print_header("Figure 7: learning curves (score vs epoch)", &args);
    let cfg = args.config();
    let fpe = args.fpe_model(HashFamily::Ccws, 48);

    let mut curves = Vec::new();
    for info in args.dataset_infos() {
        if !args.quiet {
            eprintln!("running {} ...", info.name);
        }
        let frame = args.load(&info);
        let runs = vec![
            args.run_autofs_r(&cfg, &frame).expect("FS_R").0,
            args.engine(Engine::nfs(cfg.clone()))
                .run(&frame)
                .expect("NFS"),
            args.engine(Engine::e_afe_d(cfg.clone(), 0.5))
                .run(&frame)
                .expect("E-AFE_D"),
            args.engine(Engine::e_afe(cfg.clone(), fpe.clone()))
                .run(&frame)
                .expect("E-AFE"),
        ];

        println!("--- {} ({}) ---", info.name, frame.shape_str());
        let max_epoch = runs.iter().map(|r| r.trace.len()).max().unwrap_or(0);
        let mut table = TextTable::new(vec!["epoch", "AutoFS_R", "NFS", "E-AFE_D", "E-AFE"]);
        for e in 0..max_epoch {
            let cell = |r: &RunResult| {
                r.trace
                    .get(e.min(r.trace.len().saturating_sub(1)))
                    .map(|p| fmt_score(p.score))
                    .unwrap_or_else(|| "-".into())
            };
            table.row(vec![
                e.to_string(),
                cell(&runs[0]),
                cell(&runs[1]),
                cell(&runs[2]),
                cell(&runs[3]),
            ]);
        }
        table.print();

        // Speed-to-score: epochs each method needs to reach 99% of NFS's
        // final score (the paper's "2x faster when saturated").
        let nfs_final = runs[1].trace.last().map(|p| p.score).unwrap_or(0.0);
        let target = runs[1].base_score + 0.99 * (nfs_final - runs[1].base_score);
        for r in &runs {
            let reach = r
                .trace
                .iter()
                .find(|p| p.score >= target)
                .map(|p| p.epoch.to_string())
                .unwrap_or_else(|| "never".into());
            println!(
                "{:>8}: reaches 99% of NFS-final at epoch {reach} \
                 (final {:.3}, evals {}, {:.1}s)",
                r.method, r.best_score, r.downstream_evals, r.total_secs
            );
        }
        println!();
        for r in &runs {
            curves.push(curve(r, info.name));
        }
    }
    args.write_json("fig7.json", &curves);
    args.finish();
}
