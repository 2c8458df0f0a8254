//! `repeat`: do two sets of runs of the same code agree?
//!
//! Runs the sets back to back, every run with another seed and the two
//! sets with the same seeds, as the acceptance procedure does. For every
//! workload × end-to-end metric it prints both medians, how much worse
//! the second is, and the quartile spread of each set against the
//! metric's bound; writes `benchmark/out/repeat.json`; and fails if a
//! pair is outside its bound.

use crate::metrics::END_TO_END;
use crate::stats::{median, quartile_spread};
use crate::{sys, workloads};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use xia_obs::json::Json;

/// What `repeat` runs.
pub struct Plan {
    /// Sets of runs.
    pub sets: usize,
    /// Runs per set and workload, each with its own seed.
    pub runs: usize,
    /// Seed of the first run of every set.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: u64,
}

/// Bound and direction of one end-to-end metric, from `BENCHMARK.json`.
struct Gate {
    bound: f64,
    higher_is_better: bool,
}

fn gates() -> Result<BTreeMap<String, Gate>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let file = Json::parse(&text)?;
    let listed = file.get("end_to_end").and_then(Json::as_arr);
    listed
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or("metric without bound")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            Ok((
                name.to_string(),
                Gate {
                    bound,
                    higher_is_better: better == "higher",
                },
            ))
        })
        .collect()
}

/// Runs one workload in a child process and returns its metric values.
fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(line).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} seed {seed} failed its checks:\n{stdout}"
        ));
    }
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err(format!("{workload} seed {seed}: no metrics"));
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?)))
        .collect())
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worse_by(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let change = (second - first) / first.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// Runs the plan, prints the table, writes `repeat.json`.
pub fn repeat(plan: &Plan) -> Result<ExitCode, String> {
    let gates = gates()?;
    // values[set][(workload, metric)] = one value per run
    let mut values: Vec<BTreeMap<(&str, String), Vec<f64>>> = vec![BTreeMap::new(); plan.sets];
    for (set, set_values) in values.iter_mut().enumerate() {
        for run in 0..plan.runs {
            for workload in workloads::NAMES {
                let seed = plan.seed + run as u64;
                eprintln!("set {} run {} {workload} seed {seed}", set + 1, run + 1);
                for (metric, value) in one_run(workload, seed, plan.seconds)? {
                    set_values
                        .entry((workload, metric))
                        .or_default()
                        .push(value);
                }
            }
        }
    }

    println!(
        "{:<15} {:<14} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "worse", "spread1", "spread2", "bound"
    );
    let mut rows = Vec::new();
    let mut all_ok = true;
    for workload in workloads::NAMES {
        for (metric, _) in END_TO_END {
            let gate = gates
                .get(metric)
                .ok_or(format!("{metric} is not in BENCHMARK.json"))?;
            let per_set: Vec<&Vec<f64>> = values
                .iter()
                .map(|set| &set[&(workload, metric.to_string())])
                .collect();
            let medians: Vec<f64> = per_set.iter().map(|v| median(v)).collect();
            let spreads: Vec<f64> = per_set.iter().map(|v| quartile_spread(v)).collect();
            let (first, last) = (medians[0], medians[medians.len() - 1]);
            let worse = worse_by(first, last, gate.higher_is_better);
            let widest = spreads.iter().copied().fold(0.0, f64::max);
            // Set-up is gated on its medians only: its spread is not.
            let ok = worse <= gate.bound && (metric == "setup_s" || widest <= gate.bound);
            all_ok &= ok;
            println!(
                "{workload:<15} {metric:<14} {first:>12.4} {last:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                worse * 100.0,
                spreads[0] * 100.0,
                spreads[spreads.len() - 1] * 100.0,
                gate.bound * 100.0,
                if ok { "ok" } else { "OUTSIDE BOUND" }
            );
            rows.push(Json::Obj(vec![
                ("workload".into(), Json::Str(workload.into())),
                ("metric".into(), Json::Str(metric.into())),
                (
                    "values".into(),
                    Json::Arr(
                        per_set
                            .iter()
                            .map(|v| Json::Arr(v.iter().copied().map(Json::Num).collect()))
                            .collect(),
                    ),
                ),
                (
                    "medians".into(),
                    Json::Arr(medians.into_iter().map(Json::Num).collect()),
                ),
                (
                    "spreads".into(),
                    Json::Arr(spreads.into_iter().map(Json::Num).collect()),
                ),
                ("worse_by".into(), Json::Num(worse)),
                ("bound".into(), Json::Num(gate.bound)),
                ("ok".into(), Json::Bool(ok)),
            ]));
        }
    }
    let report = Json::Obj(vec![
        ("sets".into(), Json::Num(plan.sets as f64)),
        ("runs".into(), Json::Num(plan.runs as f64)),
        ("seed".into(), Json::Num(plan.seed as f64)),
        ("seconds".into(), Json::Num(plan.seconds as f64)),
        ("rows".into(), Json::Arr(rows)),
    ]);
    let file = format!("{}/repeat.json", sys::OUT_DIR);
    std::fs::create_dir_all(sys::OUT_DIR)
        .and_then(|()| std::fs::write(&file, report.render()))
        .map_err(|e| format!("cannot write {file}: {e}"))?;
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(10.0, 11.0, false) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, true) + 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, true) - 0.1).abs() < 1e-12);
    }
}
