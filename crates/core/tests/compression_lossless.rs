//! Property suite: CoPhy workload compression is *lossless for advising*.
//!
//! Compressing a workload into weighted cost-identity templates (see
//! `xia_advisor::compress_workload`) changes how much per-statement work
//! the advisor does — never what it recommends. Nor, on a clean run, the
//! optimizer calls it makes: the evaluator costs each template once over
//! the raw workload too. These tests draw randomized
//! workloads of up to 200 statements (synthetic queries whose literals
//! come from actual document values, so parameter collisions and thus
//! non-trivial compression are common), run the cophy search compressed
//! (`Advisor::recommend`) and over the raw statements (`Advisor::prepare`,
//! then `Advisor::recommend_prepared`), and require the same recommendation
//! under a matrix of conditions: clean, injected optimizer/stats faults,
//! and an exhausted what-if budget — each at 1 and 4 workers.
//!
//! Configurations and index DDL must match exactly. Cost totals are
//! compared at a 1e-9 *relative* tolerance: a template's contribution is
//! `weight × δ(representative)` compressed versus `Σ 1.0 × δ(member)`
//! uncompressed, and although every member's δ is bit-identical to the
//! representative's (that is the template-key contract, fault verdicts
//! included via content-derived salts), float multiplication versus
//! repeated addition may differ in the last ulps.

use xia_advisor::{Advisor, AdvisorParams, SearchAlgorithm, WhatIfBudget};
use xia_fault::{FaultInjector, FaultSite};
use xia_obs::{Counter, Telemetry};
use xia_storage::Database;
use xia_workloads::synthetic::{self, SyntheticConfig};
use xia_workloads::tpox::{self, TpoxConfig};
use xia_workloads::Workload;

const SEED: u64 = 0xD37E;

fn setup() -> Database {
    let mut db = Database::new();
    tpox::generate(&mut db, &TpoxConfig::tiny());
    db
}

/// Random workload of `n ≤ 200` statements over the tiny TPoX data.
fn random_workload(db: &Database, n: usize, seed: u64) -> Workload {
    assert!(n <= 200, "property suite is sized for ≤200 statements");
    let coll = db.collection(tpox::SECURITY_COLL).expect("SDOC exists");
    let texts = synthetic::generate_queries(
        coll,
        &SyntheticConfig {
            queries: n,
            seed,
            anchor_prob: 0.25,
            ..SyntheticConfig::default()
        },
    );
    Workload::from_texts(texts.iter().map(|s| s.as_str())).unwrap()
}

struct Outcome {
    config: Vec<xia_advisor::CandId>,
    indexes: Vec<String>,
    est_benefit: f64,
    baseline_cost: f64,
    workload_cost: f64,
    budget_exhausted: u64,
    faults_injected: u64,
    templates_built: u64,
    optimizer_calls: u64,
}

fn advise(
    db: &mut Database,
    w: &Workload,
    compress: bool,
    jobs: usize,
    make_params: &dyn Fn() -> AdvisorParams,
) -> Outcome {
    let params = AdvisorParams {
        jobs,
        telemetry: Telemetry::new(),
        ..make_params()
    };
    let (budget, algo) = (u64::MAX / 2, SearchAlgorithm::Cophy);
    let rec = if compress {
        Advisor::recommend(db, w, budget, algo, &params)
    } else {
        let set = Advisor::prepare(db, w, &params);
        Advisor::recommend_prepared(db, w, &set, budget, algo, &params)
    }
    .expect("advise");
    Outcome {
        config: rec.config.clone(),
        indexes: rec.indexes.iter().map(|ix| format!("{ix:?}")).collect(),
        est_benefit: rec.est_benefit,
        baseline_cost: rec.baseline_cost,
        workload_cost: rec.workload_cost,
        budget_exhausted: params.telemetry.get(Counter::WhatIfBudgetExhausted),
        faults_injected: params.telemetry.get(Counter::FaultsInjected),
        templates_built: params.telemetry.get(Counter::TemplatesBuilt),
        optimizer_calls: rec.eval_stats.optimizer_calls,
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The property itself: same recommendation and (tolerance-equal) cost
/// totals compressed and over the raw workload, for every worker count.
/// Returns the optimizer calls of each side at the last worker count.
fn assert_lossless(w: &Workload, tag: &str, make_params: &dyn Fn() -> AdvisorParams) -> (u64, u64) {
    let mut calls = (0, 0);
    for jobs in [1usize, 4] {
        let mut db_on = setup();
        let on = advise(&mut db_on, w, true, jobs, make_params);
        let mut db_off = setup();
        let off = advise(&mut db_off, w, false, jobs, make_params);
        assert_eq!(
            on.config, off.config,
            "[{tag} jobs={jobs}] compression changed the configuration"
        );
        assert_eq!(
            on.indexes, off.indexes,
            "[{tag} jobs={jobs}] compression changed the index DDL"
        );
        for (name, a, b) in [
            ("est_benefit", on.est_benefit, off.est_benefit),
            ("baseline_cost", on.baseline_cost, off.baseline_cost),
            ("workload_cost", on.workload_cost, off.workload_cost),
        ] {
            assert!(
                close(a, b),
                "[{tag} jobs={jobs}] {name} diverged: on={a} off={b}"
            );
        }
        // Compression must actually have happened for the property to
        // mean anything: templates built, and strictly fewer of them
        // than statements (the synthetic generator collides literals).
        assert!(on.templates_built > 0, "[{tag}] compression never ran");
        assert!(
            (on.templates_built as usize) < w.len(),
            "[{tag}] workload did not compress ({} templates for {} statements)",
            on.templates_built,
            w.len()
        );
        assert_eq!(
            off.templates_built, 0,
            "[{tag}] the raw-workload reference compressed"
        );
        calls = (on.optimizer_calls, off.optimizer_calls);
    }
    calls
}

#[test]
fn compression_is_lossless_clean() {
    let db = setup();
    for (n, seed) in [(60, SEED), (200, SEED ^ 0xA5A5), (120, 0x17)] {
        let w = random_workload(&db, n, seed);
        let tag = format!("clean n={n} seed={seed:#x}");
        let (compressed, raw) = assert_lossless(&w, &tag, &AdvisorParams::default);
        // The raw run's evaluator costs each template once, as the
        // compressed run does: compression saves no optimizer call.
        assert_eq!(compressed, raw, "[{tag}] optimizer calls");
    }
}

#[test]
fn compression_is_lossless_under_optimizer_faults() {
    let db = setup();
    let w = random_workload(&db, 150, SEED);
    let mk = || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.3),
        ..AdvisorParams::default()
    };
    assert_lossless(&w, "optimizer-faults", &mk);
    // The schedule must fire in both modes for the matrix leg to bite.
    let mut db_probe = setup();
    let probe = advise(&mut db_probe, &w, true, 1, &mk);
    assert!(probe.faults_injected > 0, "0.3 fault rate never fired");
}

#[test]
fn compression_is_lossless_under_stats_faults() {
    let db = setup();
    let w = random_workload(&db, 150, SEED ^ 0x5A5A);
    assert_lossless(&w, "stats-faults", &|| AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::StatsUnavailable, 0.5),
        ..AdvisorParams::default()
    });
}

#[test]
fn compression_is_lossless_under_exhausted_budget() {
    let db = setup();
    let w = random_workload(&db, 150, SEED ^ 0x0F0F);
    let mk = || AdvisorParams {
        what_if_budget: WhatIfBudget::calls(24),
        ..AdvisorParams::default()
    };
    assert_lossless(&w, "exhausted-budget", &mk);
    // The budget must actually trip in both modes.
    for compress in [true, false] {
        let mut db_probe = setup();
        let probe = advise(&mut db_probe, &w, compress, 1, &mk);
        assert!(
            probe.budget_exhausted > 0,
            "24-call budget never tripped (compress={compress})"
        );
    }
}
