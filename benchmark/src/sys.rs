//! Process-level facts: memory high-water mark, CPU time, the scratch
//! directory, and the environment lines of the output header.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Where the benchmark writes: trace files, `repeat.json`, and the
/// per-process scratch directories. Relative to the repository root, the
/// directory the benchmark command is run from.
pub const OUT_DIR: &str = "benchmark/out";

/// `VmHWM` of this process in MB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of this process and its joined threads.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command
    // name, which is parenthesised and may itself contain spaces.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: Vec<f64> = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    const TICKS_PER_SECOND: f64 = 100.0;
    if ticks.len() == 2 {
        (ticks[0] + ticks[1]) / TICKS_PER_SECOND
    } else {
        f64::NAN
    }
}

/// A scratch directory under [`OUT_DIR`] for the database image and the
/// workload files, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `benchmark/out/tmp-<pid>-<tag>`.
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let path = Path::new(OUT_DIR).join(format!("tmp-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The path of `name` inside the directory, as the CLI takes it.
    pub fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The header printed before any result: what was run, on what.
pub fn header(workload: &str, seed: u64, seconds: u64, quick: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!(
        "# xia-benchmark workload={workload} seed={seed} seconds={seconds}\n\
         # nproc={nproc} rustc=\"{}\" commit={}\n",
        first_line_of("rustc", &["--version"]),
        // Asked only in a git checkout: elsewhere git would search the
        // parent directories, outside the tree the benchmark may touch.
        if Path::new(".git").exists() {
            first_line_of("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".into()
        },
    );
    if quick {
        out.push_str("# QUICK MODE: 1/20 of every op count; numbers are not comparable\n");
    }
    out
}
