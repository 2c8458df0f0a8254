//! `cold-recommend`: the DBA's cold path, `xia recommend` minus process
//! start.
//!
//! The data-path workload. One op opens the persisted image, refreshes
//! statistics, reads and parses a workload file, advises with the
//! heuristic search and drops the database; loading and dropping are
//! about 98 % of it. Parse, ingest, persistence-format and RUNSTATS work
//! shows here; search work must not.

use super::{advisor_params, budget_at, parse_workload, recommendation_ok, staged_prepare};
use super::{Quality, Scenario, Timed};
use crate::inputs;
use crate::sys::ScratchDir;
use crate::trace::Tracer;
use crate::verify::{self, ExecTotals, IndexSpec};
use std::time::Duration;
use xia_advisor::{Advisor, SearchAlgorithm};
use xia_cli::{CliError, CmdOutput};
use xia_storage::{load_database_lenient, save_database};
use xia_workloads::Workload;

/// The workload's name.
pub const NAME: &str = "cold-recommend";
/// Workload files a run rotates over. Forty random queries are a small
/// sample, so one file's recommendation quality moves by a quarter from
/// seed to seed; the mean over twenty moves by under a tenth.
const STREAMS: usize = 20;
/// Synthetic queries per file, after the 11 TPoX queries and before the
/// 4-statement update mix.
const SYNTHETIC: usize = 40;
/// Untimed ops that end set-up.
const WARMUPS: usize = 3;
const ALGORITHM: SearchAlgorithm = SearchAlgorithm::GreedyHeuristics;

/// One workload file and what the library says about it.
struct WorkloadFile {
    path: String,
    texts: Vec<String>,
    budget: u64,
    /// The library's recommendation, as the CLI prints an index list.
    expected_ddl: Vec<String>,
    est_speedup: f64,
    /// The first output seen; every later one must equal it byte for byte.
    first_output: Option<String>,
}

/// State of one run.
pub struct ColdRecommend {
    scratch: ScratchDir,
    files: Vec<WorkloadFile>,
    violations: Vec<String>,
}

impl ColdRecommend {
    fn image(&self) -> String {
        self.scratch.file("tpox.xiadb")
    }

    /// One op on the file at position `index`, checked against the
    /// library and the first output.
    fn op(&mut self, index: usize) -> bool {
        let image = self.image();
        let file = &mut self.files[index % STREAMS];
        let Ok(out) = cli_recommend(&image, &file.path, file.budget) else {
            return false;
        };
        let ddl: Vec<&str> = out
            .text
            .lines()
            .filter(|l| l.starts_with("CREATE INDEX"))
            .collect();
        out.code == 0
            && !out.text.lines().any(|l| l.starts_with("warning"))
            && ddl == file.expected_ddl
            && *file.first_output.get_or_insert_with(|| out.text.clone()) == out.text
    }
}

/// `xia recommend <image> -w <file> -b <budget> -a heuristics --jobs 1`,
/// in-process: exactly the command minus process start.
pub fn cli_recommend(image: &str, file: &str, budget: u64) -> Result<CmdOutput, CliError> {
    let budget = budget.to_string();
    let args = [
        image,
        "-w",
        file,
        "-b",
        &budget,
        "-a",
        ALGORITHM.name(),
        "--jobs",
        "1",
    ];
    xia_cli::commands::recommend(&args.map(str::to_string))
}

/// What [`cli_recommend`] does, re-enacted from the library calls it
/// makes, a span around each. Whatever the command adds on top (argument
/// handling, output) is the difference between the two.
pub fn staged_recommend(tracer: &mut Tracer, image: &str, file: &str, budget: u64) -> bool {
    let params = advisor_params();
    let loaded = tracer.span("storage.load_database_lenient", |_| {
        load_database_lenient(image)
    });
    let Ok((mut db, report)) = loaded else {
        return false;
    };
    tracer.span("storage.runstats_all", |_| db.runstats_all());
    let workload = tracer.span("xpath.parse_workload_file", |_| {
        let text = std::fs::read_to_string(file).unwrap_or_default();
        let mut w = Workload::new();
        for (freq, stmt) in xia_cli::workload_file::split_statements(&text) {
            let _ = w.try_push_with_freq(&stmt, freq);
        }
        w
    });
    let set = staged_prepare(tracer, &mut db, &workload, &params);
    let rec = tracer.span("advisor.recommend_prepared", |_| {
        Advisor::recommend_prepared(&mut db, &workload, &set, budget, ALGORITHM, &params)
    });
    tracer.span("storage.drop_database", |_| drop(db));
    report.is_clean() && rec.is_ok_and(|r| recommendation_ok(&r, budget))
}

/// Writes statement texts as a workload file: statements separated by
/// blank lines.
pub fn write_workload_file(path: &str, texts: &[String]) {
    std::fs::write(path, texts.join("\n\n")).expect("write the workload file");
}

impl Scenario for ColdRecommend {
    const NAME: &'static str = NAME;
    /// 140 ops in 30 s.
    const UNITS_PER_SECOND: f64 = 140.0 / 30.0;
    const ALGORITHM: SearchAlgorithm = ALGORITHM;
    const STAGES_MUST_ADD_UP: bool = true;

    fn setup(seed: u64) -> Self {
        let scratch = ScratchDir::create(NAME).expect("scratch directory under benchmark/out");
        let mut db = inputs::build_db(seed);
        let params = advisor_params();
        let mut violations = Vec::new();
        let files = (0..STREAMS)
            .map(|k| {
                let texts = inputs::mixed_statements(&db, seed, k as u64, SYNTHETIC, true);
                let workload = parse_workload(&texts);
                let set = Advisor::prepare(&mut db, &workload, &params);
                let budget = budget_at(set.config_size(&Advisor::all_index_config(&set)), 0.5);
                let rec = Advisor::recommend(&mut db, &workload, budget, ALGORITHM, &params)
                    .expect("the generated workload can be advised");
                if !recommendation_ok(&rec, budget) {
                    violations.push(format!("file {k}: library recommendation fails its checks"));
                }
                let path = scratch.file(&format!("workload-{k}.xq"));
                write_workload_file(&path, &texts);
                WorkloadFile {
                    path,
                    texts,
                    budget,
                    expected_ddl: rec
                        .indexes
                        .iter()
                        .map(|ix| {
                            format!(
                                "CREATE INDEX ON {} PATTERN '{}' AS {};",
                                ix.collection, ix.pattern, ix.kind
                            )
                        })
                        .collect(),
                    est_speedup: rec.speedup,
                    first_output: None,
                }
            })
            .collect();
        let mut state = Self {
            scratch,
            files,
            violations,
        };
        save_database(&db, state.image()).expect("save the database image");
        // The op loads its own copy; holding a second one would double
        // the memory a DBA's `xia recommend` never holds.
        drop(db);
        for index in 0..WARMUPS {
            if !state.op(index) {
                state
                    .violations
                    .push("a warm-up op failed its checks".into());
            }
        }
        state
    }

    fn timed(&mut self, units: usize, cap: Duration) -> Timed {
        Timed::run_units(units, cap, |index, timed| timed.record(|| self.op(index)))
    }

    fn staged(&mut self, units: usize, tracer: &mut Tracer) -> Timed {
        let image = self.image();
        Timed::run_units(units, Duration::MAX, |op, timed| {
            let file = &self.files[op % STREAMS];
            tracer.set_op(op as u64);
            timed.record(|| staged_recommend(tracer, &image, &file.path, file.budget));
        })
    }

    fn probe_statements(&self) -> Vec<String> {
        self.files[0].texts.clone()
    }

    fn finish(mut self) -> Quality {
        let mut exec = ExecTotals::default();
        match load_database_lenient(self.image()) {
            Ok((mut db, _)) => {
                for file in &self.files {
                    // What the CLI printed is what gets built and run.
                    let Some(output) = &file.first_output else {
                        continue; // only a quick run leaves a file unvisited
                    };
                    let specs: Result<Vec<IndexSpec>, String> =
                        output.lines().filter_map(verify::ddl_line_spec).collect();
                    match specs {
                        Ok(specs) => verify::execute_both_ways(
                            &mut db,
                            &parse_workload(&file.texts),
                            verify::SAMPLE,
                            &specs,
                            &mut exec,
                        ),
                        Err(e) => self.violations.push(e),
                    }
                }
            }
            Err(e) => self
                .violations
                .push(format!("the image does not load: {e}")),
        }
        Quality {
            est_speedup: self.files.iter().map(|f| f.est_speedup).sum::<f64>() / STREAMS as f64,
            exec,
            violations: self.violations,
        }
    }
}
