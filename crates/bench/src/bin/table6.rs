//! **Table VI** — statistical significance of E-AFE's improvement over
//! AutoFS_R, RTDL_N and NFS, in both performance and running time
//! (paired two-sided t-test over the per-dataset results, as the paper
//! reports; a Wilcoxon signed-rank cross-check is printed alongside).
//!
//! Consumes `bench_results/table3.json` if present (so run `table3` first
//! — ideally with `--datasets all`); otherwise it runs the four needed
//! methods itself on the configured datasets.
//!
//! Regenerate: `cargo run -p bench --release --bin table6`

use bench::{print_header, CommonArgs, TextTable};
use eafe::Engine;
use eafe::{run_rtdl_n, DlBaselineConfig};
use eafe_stats::{paired_t_test, wilcoxon_signed_rank};
use minhash::HashFamily;
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct DatasetRow {
    dataset: String,
    task: String,
    shape: String,
    scores: Vec<(String, f64)>,
    times: Vec<(String, f64)>,
}

#[derive(Serialize)]
struct PValueRow {
    baseline: String,
    performance_p: f64,
    time_p: f64,
    performance_wilcoxon_p: f64,
    time_wilcoxon_p: f64,
}

fn collect(rows: &[DatasetRow], method: &str, times: bool) -> Vec<f64> {
    rows.iter()
        .map(|r| {
            let src = if times { &r.times } else { &r.scores };
            src.iter()
                .find(|(m, _)| m == method)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("method {method} missing for {}", r.dataset))
        })
        .collect()
}

fn main() {
    let args = CommonArgs::parse();
    print_header("Table VI: p-values of E-AFE vs baselines", &args);

    let rows: Vec<DatasetRow> = match std::fs::read_to_string(args.out.join("table3.json")) {
        Ok(json) => {
            println!("using cached table3.json\n");
            // Artifacts are wrapped in a {header, data} envelope; accept
            // bare arrays too so pre-envelope artifacts stay readable.
            let value = serde_json::parse(&json).expect("parse table3.json");
            let data = value
                .as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == "data").map(|(_, v)| v))
                .unwrap_or(&value);
            serde::Deserialize::from_value(data).expect("decode table3.json")
        }
        Err(_) => {
            println!("table3.json not found; running FS_R / DL_N / NFS / E-AFE inline\n");
            let cfg = args.config();
            let dl_cfg = DlBaselineConfig {
                seed: args.seed,
                ..DlBaselineConfig::default()
            };
            let fpe = args.fpe_model(HashFamily::Ccws, 48);
            args.dataset_infos()
                .iter()
                .map(|info| {
                    if !args.quiet {
                        eprintln!("running {} ...", info.name);
                    }
                    let frame = args.load(info);
                    let mut row = DatasetRow {
                        dataset: info.name.to_string(),
                        task: info.task.code().to_string(),
                        shape: frame.shape_str(),
                        scores: Vec::new(),
                        times: Vec::new(),
                    };
                    for result in [
                        args.run_autofs_r(&cfg, &frame).expect("FS_R").0,
                        run_rtdl_n(&dl_cfg, &frame).expect("DL_N"),
                        args.engine(Engine::nfs(cfg.clone()))
                            .run(&frame)
                            .expect("NFS"),
                        args.engine(Engine::e_afe(cfg.clone(), fpe.clone()))
                            .run(&frame)
                            .expect("E-AFE"),
                    ] {
                        row.scores.push((result.method.clone(), result.best_score));
                        row.times.push((result.method.clone(), result.total_secs));
                    }
                    row
                })
                .collect()
        }
    };

    let eafe_scores = collect(&rows, "E-AFE", false);
    let eafe_times = collect(&rows, "E-AFE", true);

    let mut table = TextTable::new(vec![
        "P-value vs",
        "Performance (t)",
        "Time (t)",
        "Performance (Wilcoxon)",
        "Time (Wilcoxon)",
    ]);
    let mut out_rows = Vec::new();
    // Paper naming: FS_R is AutoFS_R, DL_N is RTDL_N.
    for (label, method) in [("AutoFS_R", "FS_R"), ("RTDL_N", "DL_N"), ("NFS", "NFS")] {
        // Fall back to the inline-run method names when table3.json came
        // from the inline path (which uses the long names already).
        let find = |times| {
            if rows[0].scores.iter().any(|(m, _)| m == method) {
                collect(&rows, method, times)
            } else {
                collect(&rows, label, times)
            }
        };
        let base_scores = find(false);
        let base_times = find(true);
        let perf_t = paired_t_test(&eafe_scores, &base_scores)
            .map(|r| r.p_value)
            .unwrap_or(f64::NAN);
        let time_t = paired_t_test(&eafe_times, &base_times)
            .map(|r| r.p_value)
            .unwrap_or(f64::NAN);
        let perf_w = wilcoxon_signed_rank(&eafe_scores, &base_scores)
            .map(|r| r.p_value)
            .unwrap_or(f64::NAN);
        let time_w = wilcoxon_signed_rank(&eafe_times, &base_times)
            .map(|r| r.p_value)
            .unwrap_or(f64::NAN);
        table.row(vec![
            label.to_string(),
            format!("{perf_t:.2e}"),
            format!("{time_t:.2e}"),
            format!("{perf_w:.2e}"),
            format!("{time_w:.2e}"),
        ]);
        out_rows.push(PValueRow {
            baseline: label.to_string(),
            performance_p: perf_t,
            time_p: time_t,
            performance_wilcoxon_p: perf_w,
            time_wilcoxon_p: time_w,
        });
    }
    table.print();
    args.write_json("table6.json", &out_rows);
    println!(
        "\npaper shape: time improvements significant vs all baselines; \
         performance significant vs RTDL_N, near-significant vs AutoFS_R, \
         not significant vs NFS (E-AFE's gain over NFS is efficiency)."
    );
    args.finish();
}
