//! The `compare` subcommand: two result files side by side. Per workload
//! and end-to-end metric it prints both medians and quartiles, the
//! relative change and a verdict. Counts and the panel's result
//! fingerprints must be equal; search 0's too when both files ran the same
//! seed.

use crate::json::{get, get_f64, get_nums, get_str, get_u64};
use crate::spec::{self, Better};
use crate::stats;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline median by more than the bound.
    Regressed,
    /// The run-to-run spread of either side exceeds the bound, so the
    /// medians cannot settle the question.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Change of `new` against `base` as a share of `base`, signed so that
/// positive means worse.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let change = (new - base) / base.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Verdict on one metric from the two sides' samples.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    if stats::spread(base) > bound || stats::spread(new) > bound {
        Verdict::Unresolved
    } else if worsening(stats::median(base), stats::median(new), better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Header fields that fix how the runs were made; two files are
/// comparable only if they agree on all of them.
const RUN_PARAMETERS: [&str; 5] = ["benchmark", "run_seconds", "repeats", "threads", "nproc"];

/// Compare two parsed result files; prints the table and returns how many
/// rows regressed or mismatched. Files that are not comparable — made
/// with other run parameters, or missing a workload or a metric — are an
/// error, never a pass.
pub fn compare(base: &Value, new: &Value) -> Result<u64, String> {
    let (bh, nh) = (get(base, "header"), get(new, "header"));
    for key in RUN_PARAMETERS {
        if get(bh, key) == &Value::Null || get(bh, key) != get(nh, key) {
            return Err(format!(
                "not comparable: header field {key} is {:?} in base and {:?} in new",
                get(bh, key),
                get(nh, key)
            ));
        }
    }
    let same_seed = get_u64(bh, "seed") == get_u64(nh, "seed");
    println!(
        "base: seed {} @ {}   new: seed {} @ {}",
        get_u64(bh, "seed"),
        get_str(bh, "git_sha"),
        get_u64(nh, "seed"),
        get_str(nh, "git_sha")
    );
    let mut bad = 0;
    for workload in spec::WORKLOADS {
        let side = |doc| get(get(doc, "workloads"), workload);
        let (b, n) = (side(base), side(new));
        if b == &Value::Null || n == &Value::Null {
            return Err(format!("not comparable: workload {workload} is missing"));
        }
        println!("\n== {workload} ==");
        // Totals compare only over the very same searches; a run that lost
        // one to a failure covered fewer.
        let searches = |w| get_nums(w, "searches_per_run");
        if searches(b) != searches(n) || searches(b).windows(2).any(|w| w[0] != w[1]) {
            println!(
                "  NOT COMPARED: the runs covered different searches ({:?} and {:?})",
                searches(b),
                searches(n)
            );
            bad += 1;
            continue;
        }
        for metric in &spec::END_TO_END {
            let samples = |w| get_nums(get(get(w, "end_to_end"), metric.name), "samples");
            let (bs, ns) = (samples(b), samples(n));
            if bs.is_empty() || bs.len() != ns.len() || !bs.iter().chain(&ns).all(|x| x.is_finite())
            {
                return Err(format!(
                    "not comparable: {workload} {} has {} samples in base and {} in new",
                    metric.name,
                    bs.len(),
                    ns.len()
                ));
            }
            let (bq, nq) = (stats::quartiles(&bs), stats::quartiles(&ns));
            let v = verdict(&bs, &ns, metric.better, metric.bound);
            bad += u64::from(v == Verdict::Regressed);
            println!(
                "  {:<18} {:>12.4} [{:.4}, {:.4}] -> {:>12.4} [{:.4}, {:.4}] {:<5} worse by {:+.1}% (bound {:.0}%)  {}",
                metric.name,
                bq.1,
                bq.0,
                bq.2,
                nq.1,
                nq.0,
                nq.2,
                metric.unit,
                100.0 * worsening(bq.1, nq.1, metric.better),
                100.0 * metric.bound,
                v.as_str(),
            );
        }
        // `fail_frac`: any failed operation on either side is a bad row.
        for (label, w) in [("base", b), ("new", n)] {
            let (failed, attempted) = (get_u64(w, "failed"), get_u64(w, "attempted"));
            if attempted == 0 {
                return Err(format!(
                    "not comparable: {workload} attempted nothing in {label}"
                ));
            }
            println!(
                "  fail_frac ({label:<4})   {:>12.4} ratio ({failed} of {attempted}; bound 0)",
                failed as f64 / attempted as f64
            );
            bad += u64::from(failed > 0);
        }
        let mut mismatches = 0;
        for metric in spec::PER_LAYER
            .iter()
            .filter(|m| m.source == spec::Source::Count)
        {
            let value = |w| get_f64(get(get(w, "per_layer"), metric.name), "value");
            if !(value(b).is_finite() && value(n).is_finite()) {
                return Err(format!(
                    "not comparable: {workload} {} is missing",
                    metric.name
                ));
            }
            if value(b).to_bits() != value(n).to_bits() {
                println!("  MISMATCH {}: {} != {}", metric.name, value(b), value(n));
                mismatches += 1;
            }
        }
        let prints = |w: &Value| -> Vec<Value> {
            get(w, "fingerprints")
                .as_array()
                .map(<[Value]>::to_vec)
                .unwrap_or_default()
        };
        let (bp, np) = (prints(b), prints(n));
        // Search 0 is the seed's own; the panel is the same on every seed.
        let from = usize::from(!same_seed);
        if bp.len() <= from || bp.len() != np.len() || bp[from..] != np[from..] {
            println!("  MISMATCH result fingerprints");
            mismatches += 1;
        }
        if mismatches == 0 {
            println!(
                "  counts equal, {} result fingerprints equal",
                bp.len() - from
            );
        }
        bad += mismatches;
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn verdicts_on_hand_built_samples() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.6, 11.5, 11.7, 11.6, 11.55];
        let faster = [8.0, 8.1, 7.9, 8.0, 8.05];
        let noisy = [6.0, 14.0, 9.0, 12.0, 10.0];
        assert_eq!(verdict(&steady, &steady, Better::Lower, 0.1), Verdict::Ok);
        assert_eq!(
            verdict(&steady, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(verdict(&steady, &faster, Better::Lower, 0.1), Verdict::Ok);
        // Higher is better: the "faster" numbers are now the regression.
        assert_eq!(
            verdict(&steady, &faster, Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(verdict(&steady, &slower, Better::Higher, 0.1), Verdict::Ok);
        // Within the bound is not a regression.
        assert_eq!(verdict(&steady, &slower, Better::Lower, 0.2), Verdict::Ok);
        // A spread wider than the bound on either side settles nothing.
        assert_eq!(
            verdict(&noisy, &steady, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&steady, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    /// A result file with every workload and metric; `wall` scales the
    /// totals' samples.
    fn doc(seed: u64, wall: f64) -> Value {
        use crate::json::{int, num, nums, obj, text};
        let workloads = spec::WORKLOADS
            .iter()
            .map(|w| {
                let metrics = spec::END_TO_END
                    .iter()
                    .map(|m| {
                        let scale = if m.name == "wall_s" { wall } else { 1.0 };
                        let samples = [10.0, 10.1, 9.9, 10.0, 10.05].map(|x| x * scale);
                        (m.name, obj(vec![("samples", nums(&samples))]))
                    })
                    .collect();
                let counts = spec::PER_LAYER
                    .iter()
                    .map(|m| (m.name, obj(vec![("value", num(3.0))])))
                    .collect();
                let entry = obj(vec![
                    ("attempted", int(20)),
                    ("failed", int(0)),
                    ("searches_per_run", nums(&[3.0; 5])),
                    ("end_to_end", obj(metrics)),
                    ("per_layer", obj(counts)),
                    (
                        "fingerprints",
                        Value::Array(vec![text(format!("{seed:x}")), text("00ff")]),
                    ),
                ]);
                (*w, entry)
            })
            .collect();
        let header = obj(vec![
            ("benchmark", text("perf_e2e")),
            ("git_sha", text("0")),
            ("seed", int(seed)),
            ("run_seconds", int(spec::RUN_SECONDS)),
            ("repeats", int(5)),
            ("threads", int(2)),
            ("nproc", int(2)),
        ]);
        obj(vec![("header", header), ("workloads", obj(workloads))])
    }

    /// `doc` with one entry of one workload replaced.
    fn with(mut doc: Value, workload: &str, key: &str, value: Value) -> Value {
        let Value::Map(top) = &mut doc else {
            unreachable!()
        };
        let Value::Map(workloads) = &mut top[1].1 else {
            unreachable!()
        };
        let entry = workloads.iter_mut().find(|e| e.0 == workload);
        let Some((_, Value::Map(fields))) = entry else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != key);
        fields.push((key.to_string(), value));
        doc
    }

    #[test]
    fn whole_files_compare_row_by_row() {
        assert_eq!(compare(&doc(7, 1.0), &doc(7, 1.0)), Ok(0));
        assert_eq!(compare(&doc(7, 1.0), &doc(7, 1.2)), Ok(0));
        // 30 % more wall on every workload: one regressed row each,
        // whatever the seeds (the timed panel is the same on all).
        assert_eq!(compare(&doc(7, 1.0), &doc(7, 1.3)), Ok(5));
        assert_eq!(compare(&doc(7, 1.0), &doc(8, 1.3)), Ok(5));
        assert_eq!(compare(&doc(7, 1.0), &doc(7, 0.7)), Ok(0));
    }

    #[test]
    fn failures_and_differing_results_are_bad_rows() {
        let base = doc(7, 1.0);
        let failed = with(doc(7, 1.0), "serve_4t", "failed", crate::json::int(1));
        assert_eq!(compare(&base, &failed), Ok(1));
        let text = crate::json::text;
        let panel_differs = Value::Array(vec![text("7"), text("beef")]);
        let differs = with(doc(7, 1.0), "dist_2w", "fingerprints", panel_differs);
        assert_eq!(compare(&base, &differs), Ok(1));
        // Search 0 may differ between seeds, not within one.
        let first_differs = Value::Array(vec![text("beef"), text("00ff")]);
        let differs = with(
            doc(7, 1.0),
            "dist_2w",
            "fingerprints",
            first_differs.clone(),
        );
        assert_eq!(compare(&base, &differs), Ok(1));
        let differs = with(doc(8, 1.0), "dist_2w", "fingerprints", first_differs);
        assert_eq!(compare(&base, &differs), Ok(0));
        // Fewer searches in one run: the totals are not comparable.
        let short = crate::json::nums(&[3.0, 3.0, 2.0, 3.0, 3.0]);
        let cut = with(doc(7, 1.0), "eafe_tall", "searches_per_run", short);
        assert_eq!(compare(&base, &cut), Ok(1));
    }

    #[test]
    fn files_that_are_not_comparable_are_an_error() {
        let base = doc(7, 1.0);
        let mut other_repeats = doc(7, 1.0);
        if let Value::Map(top) = &mut other_repeats {
            if let Value::Map(header) = &mut top[0].1 {
                header.retain(|(k, _)| k != "repeats");
                header.push(("repeats".into(), crate::json::int(3)));
            }
        }
        assert!(compare(&base, &other_repeats).is_err());
        let no_metrics = with(doc(7, 1.0), "nfs_table", "end_to_end", Value::Null);
        assert!(compare(&base, &no_metrics).is_err());
        let no_counts = with(doc(7, 1.0), "nfs_table", "per_layer", Value::Null);
        assert!(compare(&base, &no_counts).is_err());
        let mut no_workload = doc(7, 1.0);
        if let Value::Map(top) = &mut no_workload {
            if let Value::Map(workloads) = &mut top[1].1 {
                workloads.retain(|(k, _)| k != "dist_2w");
            }
        }
        assert!(compare(&base, &no_workload).is_err());
    }
}
