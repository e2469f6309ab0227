//! `e-afe` — command-line interface for running automated feature
//! engineering on a CSV table or a registry dataset.
//!
//! ```text
//! e-afe --input data.csv --task classification --output engineered.csv
//! e-afe --dataset "German Credit" --method nfs --epochs2 10
//! ```
//!
//! CSV format: a header row, numeric feature columns, and a final label
//! column named `__label__` (class index for classification, real value
//! for regression) — see `tabular::csv`.

use eafe::{bootstrap_fpe, preselect_features, EafeConfig, Engine, FpeModel, FpeSearchSpace};
use minhash::HashFamily;
use std::path::PathBuf;
use std::process::ExitCode;
use tabular::{DataFrame, Task};

struct Cli {
    input: Option<PathBuf>,
    dataset: Option<String>,
    task: Task,
    method: String,
    output: Option<PathBuf>,
    fpe_path: Option<PathBuf>,
    epochs1: usize,
    epochs2: usize,
    steps: usize,
    max_features: usize,
    scale: f64,
    seed: u64,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            input: None,
            dataset: None,
            task: Task::Classification,
            method: "e-afe".into(),
            output: None,
            fpe_path: None,
            epochs1: 4,
            epochs2: 8,
            steps: 3,
            max_features: 16,
            scale: 0.2,
            seed: 0xE_AFE,
        }
    }
}

const USAGE: &str = "\
e-afe: efficient automated feature engineering (ICDE 2023 reproduction)

usage: e-afe [--input FILE.csv | --dataset NAME] [options]

input:
  --input FILE.csv        numeric CSV with final `__label__` column
  --task classification|regression   label type for --input (default classification)
  --dataset NAME          a Table III dataset name (synthetic stand-in)
  --scale F               sample scale factor for --dataset (default 0.2)

method:
  --method e-afe|nfs|autofs|dropout  (default e-afe)
  --epochs1 N             stage-1 epochs (default 4)
  --epochs2 N             stage-2 epochs (default 8)
  --steps N               transformations per agent per epoch (default 3)
  --max-features N        RF-importance pre-selection cap (default 16)
  --seed N                master seed

output:
  --output FILE.csv       write the engineered feature table
  --fpe FILE.json         load the FPE model from (or pre-train and save to) this path
  --help                  this text
";

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--input" => cli.input = Some(PathBuf::from(value("--input")?)),
            "--dataset" => cli.dataset = Some(value("--dataset")?),
            "--task" => {
                cli.task = match value("--task")?.as_str() {
                    "classification" | "c" => Task::Classification,
                    "regression" | "r" => Task::Regression,
                    other => return Err(format!("unknown task `{other}`")),
                }
            }
            "--method" => cli.method = value("--method")?,
            "--output" => cli.output = Some(PathBuf::from(value("--output")?)),
            "--fpe" => cli.fpe_path = Some(PathBuf::from(value("--fpe")?)),
            "--epochs1" => cli.epochs1 = parse_num(&value("--epochs1")?)?,
            "--epochs2" => cli.epochs2 = parse_num(&value("--epochs2")?)?,
            "--steps" => cli.steps = parse_num(&value("--steps")?)?,
            "--max-features" => cli.max_features = parse_num(&value("--max-features")?)?,
            "--seed" => cli.seed = parse_num(&value("--seed")?)? as u64,
            "--scale" => {
                cli.scale = value("--scale")?
                    .parse()
                    .map_err(|_| "bad float for --scale".to_string())?
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if cli.input.is_none() && cli.dataset.is_none() {
        return Err("need --input FILE.csv or --dataset NAME (try --help)".into());
    }
    Ok(cli)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad integer `{s}`"))
}

fn load_frame(cli: &Cli) -> Result<DataFrame, String> {
    if let Some(path) = &cli.input {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path:?}: {e}"))?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "input".into());
        return tabular::csv::read_csv(&name, cli.task, file)
            .map_err(|e| format!("parse {path:?}: {e}"));
    }
    let name = cli.dataset.as_ref().expect("validated");
    let info = tabular::find_dataset(name).map_err(|e| e.to_string())?;
    info.load_scaled(cli.scale).map_err(|e| e.to_string())
}

fn obtain_fpe(cli: &Cli, config: &EafeConfig) -> Result<FpeModel, String> {
    if let Some(path) = &cli.fpe_path {
        if let Ok(json) = std::fs::read_to_string(path) {
            let model = FpeModel::from_json(&json).map_err(|e| e.to_string())?;
            eprintln!("loaded FPE model from {}", path.display());
            return Ok(model);
        }
    }
    eprintln!("pre-training FPE model (cache with --fpe to skip next time)...");
    let space = FpeSearchSpace {
        families: vec![HashFamily::Ccws],
        dims: vec![48],
        thre: config.thre,
        seed: cli.seed,
    };
    let mut ev = config.evaluator.clone();
    ev.folds = 3;
    let model = bootstrap_fpe(10, 5, &space, &ev, cli.seed).map_err(|e| e.to_string())?;
    if let Some(path) = &cli.fpe_path {
        std::fs::write(path, model.to_json().map_err(|e| e.to_string())?)
            .map_err(|e| format!("write {path:?}: {e}"))?;
        eprintln!("saved FPE model to {}", path.display());
    }
    Ok(model)
}

fn run() -> Result<(), String> {
    let cli = parse_args()?;
    let raw = load_frame(&cli)?;
    eprintln!(
        "dataset `{}`: {} rows x {} features ({})",
        raw.name,
        raw.n_rows(),
        raw.n_cols(),
        raw.task().code()
    );
    let frame = preselect_features(&raw, cli.max_features, cli.seed).map_err(|e| e.to_string())?;
    if frame.n_cols() < raw.n_cols() {
        eprintln!(
            "pre-selected {} of {} features by RF importance",
            frame.n_cols(),
            raw.n_cols()
        );
    }

    let config = EafeConfig {
        stage1_epochs: cli.epochs1,
        stage2_epochs: cli.epochs2,
        steps_per_epoch: cli.steps,
        seed: cli.seed,
        ..EafeConfig::default()
    };

    let (result, engineered) = match cli.method.as_str() {
        "e-afe" => {
            let fpe = obtain_fpe(&cli, &config)?;
            Engine::e_afe(config, fpe)
                .run_full(&frame)
                .map_err(|e| e.to_string())?
        }
        "nfs" => Engine::nfs(config)
            .run_full(&frame)
            .map_err(|e| e.to_string())?,
        "dropout" => Engine::e_afe_d(config, 0.5)
            .run_full(&frame)
            .map_err(|e| e.to_string())?,
        "autofs" => eafe::run_autofs_r(&config, &frame, None).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown method `{other}` (try --help)")),
    };

    println!("method:            {}", result.method);
    println!("base score:        {:.4}", result.base_score);
    println!(
        "best score:        {:.4}  ({:+.4})",
        result.best_score,
        result.improvement()
    );
    println!(
        "features:          {} generated, {} evaluated downstream, {} selected",
        result.generated_features,
        result.downstream_evals,
        result.selected.len()
    );
    println!(
        "time:              {:.2}s total ({:.0}% evaluation)",
        result.total_secs,
        result.eval_time_fraction() * 100.0
    );
    if !result.selected.is_empty() {
        println!("selected features:");
        for name in &result.selected {
            println!("  {name}");
        }
    }

    if let Some(path) = &cli.output {
        let mut file = std::fs::File::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
        tabular::csv::write_csv(&engineered, &mut file).map_err(|e| e.to_string())?;
        println!("wrote engineered table to {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
