//! The four workloads and what they share.
//!
//! Every workload is a closed loop of a fixed number of ops: the count is
//! a pure function of `--seconds`, sized so the timed phase lasts about
//! that long on the 2-core reference box, and both sides of a comparison
//! do identical work. Inside one run, ops rotate over several statement
//! streams drawn from the seed, so a metric averages over more inputs
//! than one stream gives and moves less from seed to seed.

pub mod cold_recommend;
pub mod cophy;
pub mod search_sweep;
pub mod serve_mixed;

use crate::trace::Tracer;
use crate::verify::ExecTotals;
use std::time::{Duration, Instant};
use xia_advisor::{AdvisorParams, CandidateSet, Recommendation, SearchAlgorithm};
use xia_storage::Database;
use xia_workloads::Workload;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    cold_recommend::NAME,
    search_sweep::NAME,
    cophy::NAME,
    serve_mixed::NAME,
];

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `--seconds`: the timed phase's target length on the reference box.
    pub seconds: u64,
    /// `--quick`: a twentieth of every count, for smoke runs.
    pub quick: bool,
}

impl Scale {
    /// Units of work for a workload that completes `per_second` units a
    /// second on the reference box; at least one.
    pub fn units(&self, per_second: f64) -> usize {
        let share = if self.quick { 0.05 } else { 1.0 };
        ((per_second * self.seconds as f64 * share).round() as usize).max(1)
    }

    /// The timed phase stops at a unit boundary once it has run this
    /// long, so a much slower box still ends inside the contract's limit.
    /// Never reached on the reference box.
    pub fn cap(&self) -> Duration {
        Duration::from_secs(self.seconds * 4)
    }
}

/// Latencies of one timed phase.
#[derive(Debug, Default)]
pub struct Timed {
    /// One latency per op, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the whole phase, all clients together.
    pub wall_s: f64,
    /// Ops whose correctness check failed.
    pub failed: u64,
}

impl Timed {
    /// Runs `unit(i, timed)` for `i` in `0..units`, stopping early at a
    /// unit boundary once `cap` has passed, and records the wall time.
    pub fn run_units(
        units: usize,
        cap: Duration,
        mut unit: impl FnMut(usize, &mut Timed),
    ) -> Timed {
        let mut timed = Timed::default();
        let start = Instant::now();
        for index in 0..units {
            if start.elapsed() > cap {
                break;
            }
            unit(index, &mut timed);
        }
        timed.wall_s = start.elapsed().as_secs_f64();
        timed
    }

    /// Times `op` once and records whether its check passed.
    pub fn record(&mut self, op: impl FnOnce() -> bool) {
        let t = Instant::now();
        let ok = op();
        self.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.failed += u64::from(!ok);
    }
}

/// What a workload reports after its timed phase.
#[derive(Debug, Default)]
pub struct Quality {
    /// Mean optimizer-estimated speedup of the run's recommendations.
    pub est_speedup: f64,
    /// The verification executions, summed over the verified streams.
    pub exec: ExecTotals,
    /// Failed checks that belong to no single op.
    pub violations: Vec<String>,
}

/// One workload: set-up, the op loop, the same loop staged under spans,
/// and the checks that follow.
pub trait Scenario: Sized {
    /// The workload's name.
    const NAME: &'static str;
    /// Units of work per second on the reference box (see [`Scale`]).
    const UNITS_PER_SECOND: f64;
    /// The search algorithm the layer probes take as this workload's own.
    const ALGORITHM: SearchAlgorithm;
    /// Whether a traced run warns when the staged ops do not add up to
    /// the untraced op within a tenth; false where a stage is a whole
    /// request over the wire.
    const STAGES_MUST_ADD_UP: bool;

    /// Everything before the first timed op, warm-ups included.
    fn setup(seed: u64) -> Self;
    /// Runs units `0..units` with tracing off. Unit `i` always works on
    /// the same inputs, so two passes of equal length do identical work.
    fn timed(&mut self, units: usize, cap: Duration) -> Timed;
    /// Runs units `0..units` re-enacted stage by stage, a span around
    /// each call into a layer.
    fn staged(&mut self, units: usize, tracer: &mut Tracer) -> Timed;
    /// The statement texts the layer probes run on.
    fn probe_statements(&self) -> Vec<String>;
    /// Quality metrics and end-of-run checks. Consumes the state.
    fn finish(self) -> Quality;
}

/// Advisor parameters for every call the benchmark makes: one what-if
/// worker, whatever the environment says.
pub fn advisor_params() -> AdvisorParams {
    AdvisorParams {
        jobs: 1,
        ..AdvisorParams::default()
    }
}

/// Parses generated statement texts.
pub fn parse_workload(texts: &[String]) -> Workload {
    Workload::from_texts(texts.iter().map(String::as_str)).expect("generated statements parse")
}

/// A budget as a fraction of the All-Index size.
pub fn budget_at(all_index_size: u64, fraction: f64) -> u64 {
    (all_index_size as f64 * fraction).round() as u64
}

/// The checks every recommendation must pass.
pub fn recommendation_ok(rec: &Recommendation, budget: u64) -> bool {
    rec.complete && !rec.degraded && rec.total_size <= budget && rec.speedup.is_finite()
}

/// `Advisor::prepare` re-enacted from its three public stages, a span
/// around each, with the telemetry sink a real run threads through them.
pub fn staged_prepare(
    tracer: &mut Tracer,
    db: &mut Database,
    workload: &Workload,
    params: &AdvisorParams,
) -> CandidateSet {
    let t = &params.telemetry;
    let mut set = tracer.span("advisor.enumerate_candidates", |_| {
        xia_advisor::enumerate_candidates_traced(db, workload, t)
    });
    tracer.span("advisor.generalize_set", |_| {
        xia_advisor::generalize_set_fast(&mut set, t, &params.journal)
    });
    tracer.span("advisor.size_candidates", |_| {
        xia_advisor::size_candidates_traced(db, &mut set, t)
    });
    set
}
