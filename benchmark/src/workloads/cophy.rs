//! `cophy-100k`: 100,000 statements through compression and the
//! LP-relaxation search.
//!
//! The statement-volume workload. One op turns statement texts into a
//! workload, advises it with `cophy` (which compresses it to about 8,600
//! weighted templates first) and frees it. Statement parsing, template
//! keys, compression and the LP search show here and nowhere else.

use super::{advisor_params, budget_at, parse_workload, recommendation_ok, staged_prepare};
use super::{Quality, Scenario, Timed};
use crate::inputs;
use crate::trace::Tracer;
use crate::verify::{self, ExecTotals, IndexSpec};
use std::time::Duration;
use xia_advisor::{compress_workload, Advisor, Recommendation, SearchAlgorithm};
use xia_obs::{EventJournal, Telemetry};
use xia_storage::Database;
use xia_workloads::Workload;

/// The workload's name.
pub const NAME: &str = "cophy-100k";
/// Synthetic statements. One stream, not several: 100,000 statements are
/// statistically the same workload on every seed already, and alternating
/// between two would put the median op between their two latency modes.
const STATEMENTS: usize = 100_000;
/// Templates executed in the verification step: more than the other
/// workloads' per-stream sample, because there is only this one stream.
const VERIFIED: usize = 320;
/// Untimed ops that end set-up.
const WARMUPS: usize = 2;
const ALGORITHM: SearchAlgorithm = SearchAlgorithm::Cophy;
/// The budget as a fraction of the compressed workload's All-Index size.
/// 100,000 statements are statistically the same workload on every seed,
/// so the only thing that moves the recommendation is whether one large
/// index still fits: at 0.5 that flips from seed to seed (estimated
/// speedup 1.54, 1.70 or 2.11), from 0.6 to 0.8 it never does.
const BUDGET_FRACTION: f64 = 0.7;

/// What the first op returned; later ops must agree.
struct FirstResult {
    est_benefit: f64,
    speedup: f64,
    indexes: Result<Vec<IndexSpec>, String>,
}

/// State of one run.
pub struct Cophy {
    db: Database,
    texts: Vec<String>,
    budget: u64,
    first: Option<FirstResult>,
    violations: Vec<String>,
}

/// The workload as `Advisor::recommend` compresses it for `cophy`.
fn compressed(workload: &Workload) -> Workload {
    compress_workload(workload, &Telemetry::off(), &EventJournal::off()).workload
}

impl Cophy {
    fn check(&mut self, rec: &Recommendation) -> bool {
        let first = self.first.get_or_insert_with(|| FirstResult {
            est_benefit: rec.est_benefit,
            speedup: rec.speedup,
            indexes: verify::index_specs(&rec.indexes),
        });
        recommendation_ok(rec, self.budget)
            && first.est_benefit.to_bits() == rec.est_benefit.to_bits()
    }

    /// Texts → workload → `cophy` recommendation → free the workload.
    fn op(&mut self) -> bool {
        let workload = parse_workload(&self.texts);
        let rec = Advisor::recommend(
            &mut self.db,
            &workload,
            self.budget,
            ALGORITHM,
            &advisor_params(),
        );
        drop(workload);
        rec.is_ok_and(|rec| self.check(&rec))
    }
}

impl Scenario for Cophy {
    const NAME: &'static str = NAME;
    /// 56 ops in 30 s.
    const UNITS_PER_SECOND: f64 = 56.0 / 30.0;
    const ALGORITHM: SearchAlgorithm = ALGORITHM;
    const STAGES_MUST_ADD_UP: bool = true;

    fn setup(seed: u64) -> Self {
        let mut db = inputs::build_db(seed);
        let texts = inputs::synthetic_queries(&db, STATEMENTS, seed, 0);
        let templates = compressed(&parse_workload(&texts));
        let set = Advisor::prepare(&mut db, &templates, &advisor_params());
        let all_index_size = set.config_size(&Advisor::all_index_config(&set));
        let mut state = Self {
            db,
            texts,
            budget: budget_at(all_index_size, BUDGET_FRACTION),
            first: None,
            violations: Vec::new(),
        };
        for _ in 0..WARMUPS {
            if !state.op() {
                state
                    .violations
                    .push("a warm-up op failed its checks".into());
            }
        }
        state
    }

    fn timed(&mut self, units: usize, cap: Duration) -> Timed {
        Timed::run_units(units, cap, |_, timed| timed.record(|| self.op()))
    }

    fn staged(&mut self, units: usize, tracer: &mut Tracer) -> Timed {
        Timed::run_units(units, Duration::MAX, |op, timed| {
            tracer.set_op(op as u64);
            timed.record(|| {
                let params = advisor_params();
                let workload =
                    tracer.span("xpath.workload_from_texts", |_| parse_workload(&self.texts));
                let templates = tracer.span("advisor.compress_workload", |_| {
                    compress_workload(&workload, &params.telemetry, &params.journal).workload
                });
                let set = staged_prepare(tracer, &mut self.db, &templates, &params);
                let rec = tracer.span("advisor.recommend_prepared", |_| {
                    Advisor::recommend_prepared(
                        &mut self.db,
                        &templates,
                        &set,
                        self.budget,
                        ALGORITHM,
                        &params,
                    )
                });
                tracer.span("xpath.drop_workload", |_| drop(workload));
                rec.is_ok_and(|rec| self.check(&rec))
            });
        })
    }

    fn probe_statements(&self) -> Vec<String> {
        self.texts.clone()
    }

    fn finish(mut self) -> Quality {
        let mut exec = ExecTotals::default();
        let mut est_speedup = f64::NAN;
        match self.first.take() {
            Some(first) => {
                est_speedup = first.speedup;
                match first.indexes {
                    Ok(specs) => verify::execute_both_ways(
                        &mut self.db,
                        &compressed(&parse_workload(&self.texts)),
                        VERIFIED,
                        &specs,
                        &mut exec,
                    ),
                    Err(e) => self.violations.push(e),
                }
            }
            None => self.violations.push("no op ran".into()),
        }
        Quality {
            est_speedup,
            exec,
            violations: self.violations,
        }
    }
}
