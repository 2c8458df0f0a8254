//! `xia-bench`: the experiment harness's one entry point.
//!
//! ```text
//! xia-bench tables [<name>...]   regenerate results/*.csv (every table when no name is given)
//! xia-bench gate <name>...       run CI gates; exit 1 if any fails
//! ```
//!
//! Run it from the repository root in release mode, e.g. `cargo run
//! --release -p xia-bench -- tables fig2`.

use std::process::ExitCode;
use xia_bench::{gate, tables};

fn usage() -> ExitCode {
    let names: Vec<&str> = tables::ENTRIES.iter().map(|e| e.name).collect();
    let gates: Vec<&str> = gate::GATES.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "usage: xia-bench tables [<name>...]\n       xia-bench gate <name>...\n\
         tables: {}\ngates: {}",
        names.join(" "),
        gates.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, names)) if cmd == "tables" => match tables::run(names) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                usage()
            }
        },
        Some((cmd, names)) if cmd == "gate" && !names.is_empty() => {
            let mut gates = Vec::new();
            for n in names {
                match gate::GATES.iter().find(|(name, _)| name == n) {
                    Some(g) => gates.push(*g),
                    None => {
                        eprintln!("unknown gate `{n}`");
                        return usage();
                    }
                }
            }
            // Run every named gate, then fail if any failed.
            let failed: Vec<&str> = gates
                .into_iter()
                .filter(|(_, run)| !run())
                .map(|(name, _)| name)
                .collect();
            if failed.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("failed gates: {failed:?}");
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
