//! `search-sweep`: the paper's Fig. 2/3 grid on a resident database.
//!
//! The what-if workload. The database is in memory and its statistics
//! are fresh, so parse and ingest do nothing; one op is a whole
//! `Advisor::recommend` for one (algorithm, budget) cell, and search plus
//! benefit evaluation are about two thirds of it. The statements include
//! the update mix, so maintenance costing runs beside query costing.

use super::{advisor_params, budget_at, parse_workload, recommendation_ok, staged_prepare};
use super::{Quality, Scenario, Timed};
use crate::inputs;
use crate::trace::Tracer;
use crate::verify::{self, ExecTotals, IndexSpec};
use std::time::Duration;
use xia_advisor::{Advisor, Recommendation, SearchAlgorithm};
use xia_storage::Database;
use xia_workloads::Workload;

/// The workload's name.
pub const NAME: &str = "search-sweep";
/// Statement streams a run rotates over, one per sweep.
const STREAMS: usize = 10;
/// Synthetic queries per stream, after the 11 TPoX queries and before
/// the 4-statement update mix: 415 statements, about 60 candidates.
const SYNTHETIC: usize = 400;
/// Untimed sweeps that end set-up.
const WARMUP_SWEEPS: usize = 2;
/// The paper's five algorithms, in its presentation order.
pub const ALGORITHMS: [SearchAlgorithm; 5] = [
    SearchAlgorithm::Greedy,
    SearchAlgorithm::GreedyHeuristics,
    SearchAlgorithm::TopDownLite,
    SearchAlgorithm::TopDownFull,
    SearchAlgorithm::Dp,
];
/// Budgets as fractions of the All-Index size.
pub const FRACTIONS: [f64; 4] = [0.10, 0.25, 0.50, 1.00];
/// Cells of one sweep, visited algorithm-major in the order above.
const CELLS: usize = ALGORITHMS.len() * FRACTIONS.len();
/// The cell whose recommendation is built and executed afterwards.
const VERIFIED_CELL: (SearchAlgorithm, f64) = (SearchAlgorithm::GreedyHeuristics, 0.50);

/// What the first visit of a cell returned; later visits must agree.
struct CellResult {
    est_benefit: f64,
    speedup: f64,
}

struct Stream {
    workload: Workload,
    all_index_size: u64,
    cells: [Option<CellResult>; CELLS],
    verified: Option<Result<Vec<IndexSpec>, String>>,
}

/// State of one run.
pub struct SearchSweep {
    db: Database,
    streams: Vec<Stream>,
    violations: Vec<String>,
}

fn cell(index: usize) -> (SearchAlgorithm, f64) {
    (
        ALGORITHMS[index / FRACTIONS.len()],
        FRACTIONS[index % FRACTIONS.len()],
    )
}

impl Stream {
    /// Checks a cell's recommendation and remembers its first result.
    fn check(&mut self, index: usize, budget: u64, rec: &Recommendation) -> bool {
        if cell(index) == VERIFIED_CELL && self.verified.is_none() {
            self.verified = Some(verify::index_specs(&rec.indexes));
        }
        let first = self.cells[index].get_or_insert(CellResult {
            est_benefit: rec.est_benefit,
            speedup: rec.speedup,
        });
        recommendation_ok(rec, budget) && first.est_benefit.to_bits() == rec.est_benefit.to_bits()
    }
}

impl SearchSweep {
    /// Sweep `index`: the 20 cells on its stream, each an op.
    fn sweep(&mut self, index: usize, timed: &mut Timed) {
        let stream = &mut self.streams[index % STREAMS];
        for index in 0..CELLS {
            let (algorithm, fraction) = cell(index);
            let budget = budget_at(stream.all_index_size, fraction);
            timed.record(|| {
                let rec = Advisor::recommend(
                    &mut self.db,
                    &stream.workload,
                    budget,
                    algorithm,
                    &advisor_params(),
                );
                rec.is_ok_and(|rec| stream.check(index, budget, &rec))
            });
        }
    }
}

impl Scenario for SearchSweep {
    const NAME: &'static str = NAME;
    /// 60 sweeps of 20 ops in 30 s.
    const UNITS_PER_SECOND: f64 = 60.0 / 30.0;
    const ALGORITHM: SearchAlgorithm = VERIFIED_CELL.0;
    const STAGES_MUST_ADD_UP: bool = true;

    fn setup(seed: u64) -> Self {
        let mut db = inputs::build_db(seed);
        let streams = (0..STREAMS)
            .map(|k| {
                let texts = inputs::mixed_statements(&db, seed, k as u64, SYNTHETIC, true);
                let workload = parse_workload(&texts);
                let set = Advisor::prepare(&mut db, &workload, &advisor_params());
                Stream {
                    workload,
                    all_index_size: set.config_size(&Advisor::all_index_config(&set)),
                    cells: Default::default(),
                    verified: None,
                }
            })
            .collect();
        let mut state = Self {
            db,
            streams,
            violations: Vec::new(),
        };
        let mut warmup = Timed::default();
        for index in 0..WARMUP_SWEEPS {
            state.sweep(index, &mut warmup);
        }
        if warmup.failed > 0 {
            state
                .violations
                .push(format!("{} warm-up ops failed their checks", warmup.failed));
        }
        state
    }

    fn timed(&mut self, units: usize, cap: Duration) -> Timed {
        Timed::run_units(units, cap, |index, timed| self.sweep(index, timed))
    }

    fn staged(&mut self, units: usize, tracer: &mut Tracer) -> Timed {
        Timed::run_units(units, Duration::MAX, |sweep, timed| {
            let stream = &mut self.streams[sweep % STREAMS];
            for index in 0..CELLS {
                let (algorithm, fraction) = cell(index);
                let budget = budget_at(stream.all_index_size, fraction);
                tracer.set_op((sweep * CELLS + index) as u64);
                timed.record(|| {
                    let params = advisor_params();
                    let set = staged_prepare(tracer, &mut self.db, &stream.workload, &params);
                    let rec = tracer.span("advisor.recommend_prepared", |_| {
                        Advisor::recommend_prepared(
                            &mut self.db,
                            &stream.workload,
                            &set,
                            budget,
                            algorithm,
                            &params,
                        )
                    });
                    rec.is_ok_and(|rec| stream.check(index, budget, &rec))
                });
            }
        })
    }

    fn probe_statements(&self) -> Vec<String> {
        let entries = self.streams[0].workload.entries();
        entries.iter().map(|e| e.text.clone()).collect()
    }

    fn finish(mut self) -> Quality {
        let mut exec = ExecTotals::default();
        let mut speedups = Vec::new();
        for stream in &self.streams {
            speedups.extend(stream.cells.iter().flatten().map(|c| c.speedup));
            match &stream.verified {
                Some(Ok(specs)) => verify::execute_both_ways(
                    &mut self.db,
                    &stream.workload,
                    verify::SAMPLE,
                    specs,
                    &mut exec,
                ),
                Some(Err(e)) => self.violations.push(e.clone()),
                None => {} // only a quick run leaves a stream unvisited
            }
        }
        Quality {
            est_speedup: speedups.iter().sum::<f64>() / speedups.len() as f64,
            exec,
            violations: self.violations,
        }
    }
}
