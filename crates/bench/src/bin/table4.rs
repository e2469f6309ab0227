//! **Table IV** — number of features evaluated on the downstream task in
//! one epoch, per method. The paper's headline efficiency mechanism:
//! E-AFE evaluates fewer than 50% of what NFS / AutoFS_R evaluate because
//! the FPE gate drops unpromising candidates before the expensive
//! cross-validated Random Forest ever runs.
//!
//! Regenerate: `cargo run -p bench --release --bin table4`

use bench::{print_header, CommonArgs, TextTable};
use eafe::Engine;
use minhash::HashFamily;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dataset: String,
    generated: usize,
    fs_r: usize,
    nfs: usize,
    e_afe_d: usize,
    e_afe: usize,
}

/// Marginal downstream evaluations of the final (steady-state) training
/// epoch, from the trace — this matches the paper's "one epoch in the
/// target dataset" accounting, which excludes one-time costs such as
/// E-AFE's replay-buffer seeding.
fn per_epoch_evals(result: &eafe::RunResult) -> usize {
    match result.trace.as_slice() {
        [.., prev, last] => last.downstream_evals - prev.downstream_evals,
        _ => result.downstream_evals,
    }
}

fn main() {
    let args = CommonArgs::parse();
    print_header("Table IV: downstream feature evaluations per epoch", &args);

    let cfg = args.config();
    let fpe = args.fpe_model(HashFamily::Ccws, 48);

    let mut table = TextTable::new(vec![
        "Dataset",
        "gen/epoch",
        "FS_R",
        "NFS",
        "E-AFE_D",
        "E-AFE",
    ]);
    let mut rows = Vec::new();
    for info in args.dataset_infos() {
        if !args.quiet {
            eprintln!("running {} ...", info.name);
        }
        let frame = args.load(&info);
        let (fs_r, _) = args.run_autofs_r(&cfg, &frame).expect("FS_R");
        let nfs = args
            .engine(Engine::nfs(cfg.clone()))
            .run(&frame)
            .expect("NFS");
        let eafe_d = args
            .engine(Engine::e_afe_d(cfg.clone(), 0.5))
            .run(&frame)
            .expect("E-AFE_D");
        let eafe = args
            .engine(Engine::e_afe(cfg.clone(), fpe.clone()))
            .run(&frame)
            .expect("E-AFE");
        let row = Row {
            dataset: info.name.to_string(),
            generated: per_epoch_evals(&nfs).max(cfg.steps_per_epoch * frame.n_cols()),
            fs_r: per_epoch_evals(&fs_r),
            nfs: per_epoch_evals(&nfs),
            e_afe_d: per_epoch_evals(&eafe_d),
            e_afe: per_epoch_evals(&eafe),
        };
        table.row(vec![
            row.dataset.clone(),
            row.generated.to_string(),
            row.fs_r.to_string(),
            row.nfs.to_string(),
            row.e_afe_d.to_string(),
            row.e_afe.to_string(),
        ]);
        rows.push(row);
    }
    table.print();
    args.write_json("table4.json", &rows);

    let sum = |f: fn(&Row) -> usize| rows.iter().map(f).sum::<usize>() as f64;
    println!(
        "\nshape check: E-AFE evaluates {:.0}% of NFS's count \
         (paper: < 50%); E-AFE_D evaluates {:.0}%.",
        100.0 * sum(|r| r.e_afe) / sum(|r| r.nfs).max(1.0),
        100.0 * sum(|r| r.e_afe_d) / sum(|r| r.nfs).max(1.0),
    );
    args.finish();
}
