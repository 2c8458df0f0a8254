//! The repository's benchmark: four closed-loop workloads over the whole
//! advisor, seven end-to-end metrics each, and a traced pass that times
//! every layer beneath them. See `benchmark/README.md`.
//!
//! ```text
//! xia-benchmark run    --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! xia-benchmark repeat [--sets 2] [--runs N] [--seed N] [--seconds S]
//! ```
//!
//! Run from the repository root. The last line of `run`'s standard
//! output is the result object the benchmark contract prescribes.

mod inputs;
mod metrics;
mod probe;
mod repeat;
mod run;
mod stats;
mod sys;
mod trace;
mod verify;
mod workloads;

use std::process::{Command, ExitCode};
use workloads::Scale;

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage:
  xia-benchmark run --workload <cold-recommend|search-sweep|cophy-100k|serve-mixed|all>
                    [--seed N] [--seconds S] [--trace 0|1] [--quick]
  xia-benchmark repeat [--sets 2] [--runs N] [--seed N] [--seconds S]";

/// `--name value` options and bare flags of one invocation.
struct Options(Vec<(String, Option<String>)>);

impl Options {
    fn parse(args: &[String], flags: &[&str]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                return Err(format!("unexpected argument `{arg}`"));
            }
            let value = if flags.contains(&arg.as_str()) {
                None
            } else {
                Some(it.next().ok_or(format!("`{arg}` needs a value"))?.clone())
            };
            out.push((arg.clone(), value));
        }
        Ok(Self(out))
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn text(&self, name: &str) -> Option<&str> {
        let found = self.0.iter().rfind(|(n, _)| n == name);
        found.and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        self.text(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("`{name} {v}` is not a whole number"))
        })
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option `{n}`")),
            None => Ok(()),
        }
    }
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let opts = Options::parse(args, &["--quick"])?;
    opts.reject_unknown(&["--workload", "--seed", "--seconds", "--trace", "--quick"])?;
    let workload = opts.text("--workload").ok_or("missing --workload")?;
    let seed = opts.number("--seed", DEFAULT_SEED)?;
    let scale = Scale {
        seconds: opts.number("--seconds", DEFAULT_SECONDS)?.clamp(1, 60),
        quick: opts.flag("--quick"),
    };
    let traced = match opts.text("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("`--trace {other}`: expected 0 or 1")),
    };
    if workload == "all" {
        return run_all(args);
    }
    print!(
        "{}",
        sys::header(workload, seed, scale.seconds, scale.quick)
    );
    let outcome = run::run_named(workload, seed, &scale, traced)
        .ok_or(format!("unknown workload `{workload}`"))?;
    let defs = run::reported(traced);
    for (name, unit) in defs {
        if let Some(value) = outcome.values.get(name) {
            println!("{name:<40} {value:>16.4} {unit}");
        }
    }
    println!(
        "attempted {} ops, {} failed",
        outcome.attempted, outcome.failed
    );
    for warning in &outcome.warnings {
        println!("# WARNING: {warning}");
    }
    for violation in &outcome.violations {
        println!("# CHECK FAILED: {violation}");
    }
    println!("{}", metrics::result_line(&outcome, defs)?);
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One process per workload, so `peak_rss_mb` belongs to that workload.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for name in workloads::NAMES {
        let child_args = args
            .iter()
            .map(|a| if a == "all" { name } else { a.as_str() });
        let status = Command::new(&exe)
            .arg("run")
            .args(child_args)
            .status()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn repeat_command(args: &[String]) -> Result<ExitCode, String> {
    let opts = Options::parse(args, &[])?;
    opts.reject_unknown(&["--sets", "--runs", "--seed", "--seconds"])?;
    repeat::repeat(&repeat::Plan {
        sets: opts.number("--sets", 2)?.max(1) as usize,
        runs: opts.number("--runs", 5)?.max(2) as usize,
        seed: opts.number("--seed", DEFAULT_SEED)?,
        seconds: opts.number("--seconds", DEFAULT_SECONDS)?.clamp(1, 60),
    })
}

fn main() -> ExitCode {
    // The harness must measure the same thing whatever the caller's
    // environment: these two change worker counts and data scale.
    std::env::remove_var("XIA_JOBS");
    std::env::remove_var("XIA_SCALE");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) if command == "run" => run_command(rest),
        Some((command, rest)) if command == "repeat" => repeat_command(rest),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("xia-benchmark: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn options_take_values_flags_and_the_last_repeat() {
        let o = Options::parse(
            &args("--workload a --quick --seed 7 --seed 9"),
            &["--quick"],
        )
        .expect("parses");
        assert_eq!(o.text("--workload"), Some("a"));
        assert!(o.flag("--quick"));
        assert_eq!(o.number("--seed", 42), Ok(9));
        assert_eq!(o.number("--seconds", 15), Ok(15));
        assert!(o.reject_unknown(&["--workload", "--seed"]).is_err());
        assert!(Options::parse(&args("--seed"), &[]).is_err());
        assert!(Options::parse(&args("stray"), &[]).is_err());
        assert!(Options::parse(&args("--seed x"), &[])
            .expect("parses")
            .number("--seed", 1)
            .is_err());
    }

    #[test]
    fn default_seconds_is_the_contract_run_length() {
        let file = xia_obs::json::Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json");
        let run_seconds = file
            .get("run_seconds")
            .and_then(xia_obs::json::Json::as_num);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS as f64));
    }
}
