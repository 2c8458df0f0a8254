//! E16: CoPhy workload compression + LP-relaxation scaling.
//!
//! Sweeps synthetic workloads from thousands to 100k statements and
//! compares the cophy search (compression on) against plain greedy on the
//! uncompressed workload: advisor wall time, evaluate-mode optimizer
//! calls, estimated benefit, and — for cophy — the LP certificate (the
//! fractional bound and the provable gap to it). On sizes small enough to
//! afford it, the DP knapsack over standalone benefits supplies the true
//! standalone optimum so the certificate can be checked against it.
//!
//! The paper-shaped claims E16 exists to demonstrate: cophy's call count
//! scales with the number of *templates* (roughly constant in statement
//! count once the template space saturates) while it recommends a
//! configuration of matched quality. Greedy's evaluator costs each
//! template once too, so its call count matches cophy's; what
//! compression still saves shows in `wall_ms`, the per-statement work.

use crate::lab::TpoxLab;
use crate::report::{f, Table};
use xia_advisor::search::{cophy_with_outcome, dp_knapsack, standalone_benefits};
use xia_advisor::{Advisor, AdvisorParams, BenefitEvaluator, SearchAlgorithm};
use xia_obs::{Counter, Event, EventJournal, Telemetry};
use xia_workloads::Workload;

/// One (workload size, algorithm) measurement.
#[derive(Debug, Clone)]
pub struct CophyScaleRow {
    /// Original (uncompressed) statement count.
    pub n_statements: usize,
    /// Templates the compressor built (0 for non-cophy rows).
    pub templates: u64,
    /// Search algorithm measured.
    pub algo: SearchAlgorithm,
    /// Advisor wall time, milliseconds (prepare excluded — both
    /// algorithms share the same candidate set).
    pub wall_ms: f64,
    /// Evaluate-mode optimizer calls.
    pub evaluate_calls: u64,
    /// Estimated benefit of the recommendation.
    pub est_benefit: f64,
    /// LP fractional bound (cophy only; 0 otherwise).
    pub lp_bound: f64,
    /// Relative gap to the DP standalone optimum, percent; `NaN` when DP
    /// was skipped (large instances).
    pub dp_gap_pct: f64,
}

/// Measures one algorithm on one workload. The budget is half the
/// All-Index size — the regime where search actually has to choose.
/// Goes through [`Advisor::recommend`] so cophy's compression hook runs
/// and `advisor_time` covers the full pipeline (compress + prepare +
/// search), which is what "100k statements in seconds" must mean.
fn measure(
    lab: &mut TpoxLab,
    workload: &Workload,
    algo: SearchAlgorithm,
    budget: u64,
    with_dp: bool,
) -> CophyScaleRow {
    let telemetry = Telemetry::new();
    let journal = EventJournal::new();
    let params = AdvisorParams {
        telemetry: telemetry.clone(),
        journal: journal.clone(),
        ..AdvisorParams::default()
    };
    let rec = Advisor::recommend(&mut lab.db, workload, budget, algo, &params).expect("advise");
    let lp_bound = journal
        .events()
        .iter()
        .find_map(|(_, e)| match e {
            Event::LpRelaxed { bound, .. } => Some(*bound),
            _ => None,
        })
        .unwrap_or(0.0);
    let dp_gap_pct = if with_dp {
        // Score cophy's configuration and DP's in the same standalone
        // currency the certificate is stated in, over the original
        // (uncompressed) workload.
        let set = Advisor::prepare(&mut lab.db, workload, &params);
        let all: Vec<_> = set.ids().collect();
        let mut ev = BenefitEvaluator::new(&mut lab.db, workload, &set);
        let benefits = standalone_benefits(&mut ev, &all);
        let out = cophy_with_outcome(&mut ev, &all, budget);
        let d = dp_knapsack(&mut ev, &all, budget);
        let dp_value: f64 = d.iter().map(|id| benefits[id]).sum();
        if dp_value > 0.0 {
            ((dp_value - out.value) / dp_value * 100.0).max(0.0)
        } else {
            0.0
        }
    } else {
        f64::NAN
    };
    CophyScaleRow {
        n_statements: workload.len(),
        templates: telemetry.get(Counter::TemplatesBuilt),
        algo,
        wall_ms: rec.advisor_time.as_secs_f64() * 1e3,
        evaluate_calls: telemetry.get(Counter::OptimizerEvaluateCalls),
        est_benefit: rec.est_benefit,
        lp_bound,
        dp_gap_pct,
    }
}

/// Runs the sweep: for each size, every algorithm in `algos` on the same
/// synthetic workload. DP cross-checks run only on sizes `<= dp_max`.
pub fn run(
    lab: &mut TpoxLab,
    sizes: &[usize],
    algos: &[SearchAlgorithm],
    dp_max: usize,
) -> Vec<CophyScaleRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let workload = lab.synthetic_workload(n, 0xE16 ^ n as u64);
        // Budget from a shared prepare pass so every algorithm answers
        // the same question; the timed runs re-prepare internally.
        let set = Advisor::prepare(&mut lab.db, &workload, &AdvisorParams::default());
        let budget = set.config_size(&Advisor::all_index_config(&set)) / 2;
        for &algo in algos {
            let with_dp = algo == SearchAlgorithm::Cophy && n <= dp_max;
            rows.push(measure(lab, &workload, algo, budget, with_dp));
        }
    }
    rows
}

/// Renders the sweep table (also the `results/cophy_scaling.csv` schema).
pub fn table(rows: &[CophyScaleRow]) -> Table {
    let mut t = Table::new(
        "E16 — CoPhy compression + LP relaxation: scaling to 100k statements",
        &[
            "n_statements",
            "templates",
            "algo",
            "wall_ms",
            "evaluate_calls",
            "est_benefit",
            "lp_bound",
            "dp_gap_pct",
        ],
    );
    for r in rows {
        t.row(vec![
            r.n_statements.to_string(),
            r.templates.to_string(),
            r.algo.name().to_string(),
            f(r.wall_ms),
            r.evaluate_calls.to_string(),
            f(r.est_benefit),
            f(r.lp_bound),
            if r.dp_gap_pct.is_nan() {
                "-".to_string()
            } else {
                f(r.dp_gap_pct)
            },
        ]);
    }
    t
}
