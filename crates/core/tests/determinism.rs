//! Determinism suite: the advisor's output is a pure function of
//! (workload, seed, parameters) — the `--jobs` worker count changes only
//! wall-clock time, never the recommendation or the telemetry totals.
//!
//! Every nondeterministic decision (cache lookups, budget charging, fault
//! salts, stats-availability probes) is planned serially on the
//! coordinator; workers execute pure costing tasks. These tests pin that
//! contract: identical recommendations (bit-for-bit benefit estimates) and
//! identical counter totals at `--jobs` 1, 4, and 8 — clean, under
//! injected faults, and under an exhausted what-if budget.

use xia_advisor::{
    Advisor, AdvisorParams, BenefitEvaluator, Recommendation, SearchAlgorithm, WhatIfBudget,
    XiaError,
};
use xia_fault::{FaultInjector, FaultSite};
use xia_obs::{Counter, Telemetry};
use xia_storage::Database;
use xia_workloads::synthetic::{generate_queries, SyntheticConfig};
use xia_workloads::tpox::{self, TpoxConfig};
use xia_workloads::Workload;

const SEED: u64 = 0xD37E;
const JOBS: [usize; 3] = [1, 4, 8];

/// Counters whose totals must not depend on the worker count.
const PINNED: [Counter; 12] = [
    Counter::OptimizerEvaluateCalls,
    Counter::BenefitCacheHits,
    Counter::BenefitCacheMisses,
    Counter::BenefitEvaluations,
    Counter::CostFallbacks,
    Counter::WhatIfBudgetExhausted,
    Counter::FaultsInjected,
    Counter::VirtualIndexesCreated,
    Counter::VirtualIndexesDropped,
    Counter::TemplatesBuilt,
    Counter::StmtsCompressed,
    Counter::LpIterations,
];

/// Everything the suite compares across worker counts.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    config: Vec<xia_advisor::CandId>,
    indexes: Vec<String>,
    est_benefit_bits: u64,
    baseline_bits: u64,
    workload_bits: u64,
    optimizer_calls: u64,
    stmt_cache_hits: u64,
    cache_hits: u64,
    cache_misses: u64,
    counters: Vec<(Counter, u64)>,
}

fn run(algo: SearchAlgorithm, jobs: usize, make_params: impl Fn() -> AdvisorParams) -> Fingerprint {
    run_with(algo, jobs, 0, make_params)
}

/// [`run`] over the TPoX queries plus `synthetic` random path queries and
/// (when there are any) the update mix.
fn run_with(
    algo: SearchAlgorithm,
    jobs: usize,
    synthetic: usize,
    make_params: impl Fn() -> AdvisorParams,
) -> Fingerprint {
    run_advising(jobs, synthetic, make_params, |db, w, params| {
        Advisor::recommend(db, w, u64::MAX / 2, algo, params)
    })
}

/// [`run_with`], the recommendation coming from `advise`.
fn run_advising(
    jobs: usize,
    synthetic: usize,
    make_params: impl Fn() -> AdvisorParams,
    advise: impl Fn(&mut Database, &Workload, &AdvisorParams) -> Result<Recommendation, XiaError>,
) -> Fingerprint {
    let mut db = Database::new();
    let cfg = TpoxConfig::tiny();
    tpox::generate(&mut db, &cfg);
    let mut texts = tpox::queries(&cfg);
    if synthetic > 0 {
        texts.extend(generate_queries(
            db.collection(tpox::SECURITY_COLL).expect("generated"),
            &SyntheticConfig {
                queries: synthetic,
                seed: SEED,
                ..Default::default()
            },
        ));
        texts.extend(tpox::update_mix(&cfg));
    }
    let w = Workload::from_texts(texts.iter().map(|s| s.as_str())).unwrap();
    let params = AdvisorParams {
        jobs,
        telemetry: Telemetry::new(),
        ..make_params()
    };
    let rec = advise(&mut db, &w, &params).expect("advise");
    Fingerprint {
        config: rec.config.clone(),
        indexes: rec.indexes.iter().map(|ix| format!("{ix:?}")).collect(),
        est_benefit_bits: rec.est_benefit.to_bits(),
        baseline_bits: rec.baseline_cost.to_bits(),
        workload_bits: rec.workload_cost.to_bits(),
        optimizer_calls: rec.eval_stats.optimizer_calls,
        stmt_cache_hits: rec.eval_stats.stmt_cache_hits,
        cache_hits: rec.eval_stats.cache_hits,
        cache_misses: rec.eval_stats.cache_misses,
        counters: PINNED
            .iter()
            .map(|&c| (c, params.telemetry.get(c)))
            .collect(),
    }
}

fn assert_jobs_invariant(algo: SearchAlgorithm, make_params: impl Fn() -> AdvisorParams) {
    assert_same_at_every_jobs(&format!("{algo:?}"), |jobs| run(algo, jobs, &make_params));
}

/// `run(jobs)` must not depend on `jobs`; returns what it gives.
fn assert_same_at_every_jobs(what: &str, run: impl Fn(usize) -> Fingerprint) -> Fingerprint {
    let reference = run(JOBS[0]);
    assert!(
        !reference.config.is_empty(),
        "suite must exercise a non-trivial recommendation"
    );
    for &jobs in &JOBS[1..] {
        assert_eq!(
            reference,
            run(jobs),
            "jobs=1 and jobs={jobs} disagree for {what}"
        );
    }
    reference
}

#[test]
fn fanned_out_batches_are_jobs_invariant() {
    // The TPoX queries alone never fill a batch past the fan-out
    // threshold (256 tasks), so everything above runs its workers'
    // code serially. 300 more statements put the standalone-benefit
    // batch over it: here the pool really spawns — clean, with every
    // third optimizer call failing, and with statistics going missing.
    // A batch has one task per statement costing, and a statement whose
    // template another one costs in it is a task too, so the width is
    // counted in costings; baseline costing is one task per template
    // (87 here) and fans out in `baseline_costing_fans_out_per_class`.
    // A seed whose rolls hide some collection's statistics but leave the
    // security collection (all 300 synthetic statements) costable.
    const STATS_SEED: u64 = 6;
    let mixes: [fn() -> AdvisorParams; 3] = [
        AdvisorParams::default,
        || AdvisorParams {
            faults: FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.3),
            ..Default::default()
        },
        || AdvisorParams {
            faults: FaultInjector::seeded(STATS_SEED).with_rate(FaultSite::StatsUnavailable, 0.4),
            ..Default::default()
        },
    ];
    for (m, make_params) in mixes.into_iter().enumerate() {
        let reference = run_with(SearchAlgorithm::GreedyHeuristics, 1, 300, make_params);
        let costings = reference.optimizer_calls + reference.stmt_cache_hits;
        assert!(costings > 1000, "mix {m}: a wide workload");
        let fallbacks = reference
            .counters
            .iter()
            .find(|(c, _)| *c == Counter::CostFallbacks);
        assert_eq!(fallbacks.is_some_and(|(_, n)| *n > 0), m > 0, "mix {m}");
        for jobs in [4, 8] {
            let other = run_with(SearchAlgorithm::GreedyHeuristics, jobs, 300, make_params);
            assert_eq!(reference, other, "mix {m}: jobs=1 and jobs={jobs} disagree");
        }
    }
}

#[test]
fn baseline_costing_fans_out_per_class() {
    // 300 templates (a numeric range keeps its literal in the template),
    // each written twice under another variable name: one baseline task
    // per template, past the fan-out threshold, whose answer — or fault
    // verdict — both statements take.
    let mut db = Database::new();
    tpox::generate(&mut db, &TpoxConfig::tiny());
    let texts: Vec<String> = (0..300)
        .flat_map(|i| {
            ["s", "t"].map(|v| {
                let bound = format!("{}.{:02}", i / 100, i % 100);
                format!("for ${v} in SECURITY('SDOC')/Security[Yield > {bound}] return ${v}")
            })
        })
        .collect();
    let w = Workload::from_texts(texts.iter().map(|s| s.as_str())).unwrap();
    let set = Advisor::prepare(&mut db, &w, &AdvisorParams::default());
    let mixes: [fn() -> FaultInjector; 2] = [FaultInjector::off, || {
        FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.3)
    }];
    for (m, faults) in mixes.into_iter().enumerate() {
        let baseline = |jobs: usize| {
            let params = AdvisorParams {
                jobs,
                faults: faults(),
                ..AdvisorParams::default()
            };
            let ev = BenefitEvaluator::configured(&db, &w, &set, &params);
            (
                ev.baseline_cost().to_bits(),
                ev.fallback_count(),
                ev.eval_stats(),
            )
        };
        let reference = baseline(1);
        assert_eq!(
            reference.2.optimizer_calls, 300,
            "mix {m}: a call per template"
        );
        let fallbacks = reference.1;
        assert_eq!(fallbacks > 0, m > 0, "mix {m}");
        assert_eq!(fallbacks % 2, 0, "mix {m}: a template's statements split");
        for jobs in [4, 8] {
            assert_eq!(reference, baseline(jobs), "mix {m}: jobs=1 and jobs={jobs}");
        }
    }
}

#[test]
fn clean_run_is_jobs_invariant_greedy() {
    assert_jobs_invariant(SearchAlgorithm::Greedy, AdvisorParams::default);
}

#[test]
fn clean_run_is_jobs_invariant_heuristics() {
    assert_jobs_invariant(SearchAlgorithm::GreedyHeuristics, AdvisorParams::default);
}

#[test]
fn clean_run_is_jobs_invariant_cophy() {
    // Compression is on by default for cophy; it runs on the coordinator
    // (first-occurrence template order), so the compressed run must be
    // jobs-invariant like every other mode — including the compression
    // counters pinned below.
    assert_jobs_invariant(SearchAlgorithm::Cophy, AdvisorParams::default);
    let probe = run(SearchAlgorithm::Cophy, 4, AdvisorParams::default);
    let get = |c: Counter| {
        probe
            .counters
            .iter()
            .find(|(k, _)| *k == c)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    };
    assert!(get(Counter::TemplatesBuilt) > 0, "compression never ran");
    assert!(get(Counter::LpIterations) > 0, "relaxation never iterated");
}

#[test]
fn cophy_without_compression_is_jobs_invariant() {
    // The per-statement reference: the same search over the raw workload.
    let reference = assert_same_at_every_jobs("cophy over the raw workload", |jobs| {
        run_advising(jobs, 0, AdvisorParams::default, |db, w, params| {
            let set = Advisor::prepare(db, w, params);
            Advisor::recommend_prepared(db, w, &set, u64::MAX / 2, SearchAlgorithm::Cophy, params)
        })
    });
    assert!(
        reference.counters.contains(&(Counter::TemplatesBuilt, 0)),
        "the reference compressed"
    );
}

#[test]
fn cophy_faults_are_jobs_invariant() {
    assert_jobs_invariant(SearchAlgorithm::Cophy, || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.3),
        ..AdvisorParams::default()
    });
}

#[test]
fn optimizer_faults_are_jobs_invariant() {
    assert_jobs_invariant(SearchAlgorithm::GreedyHeuristics, || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.3),
        ..AdvisorParams::default()
    });
    // The schedule must actually fire for the invariant to mean anything.
    let probe = run(SearchAlgorithm::GreedyHeuristics, 4, || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.3),
        ..AdvisorParams::default()
    });
    let injected = probe
        .counters
        .iter()
        .find(|(c, _)| *c == Counter::FaultsInjected)
        .map(|&(_, n)| n)
        .unwrap_or(0);
    assert!(injected > 0, "0.3 fault rate never fired");
}

#[test]
fn stats_faults_are_jobs_invariant() {
    assert_jobs_invariant(SearchAlgorithm::Greedy, || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::StatsUnavailable, 0.5),
        ..AdvisorParams::default()
    });
}

#[test]
fn call_budget_exhaustion_is_jobs_invariant() {
    // A tight call budget forces the degradation ladder mid-search. Budget
    // charging happens at task-planning time on the coordinator, so the
    // exact statement at which the budget trips is identical for every
    // worker count.
    assert_jobs_invariant(SearchAlgorithm::Greedy, || AdvisorParams {
        what_if_budget: WhatIfBudget::calls(4),
        ..AdvisorParams::default()
    });
}

#[test]
fn faults_and_budget_combined_are_jobs_invariant() {
    assert_jobs_invariant(SearchAlgorithm::GreedyHeuristics, || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.2),
        what_if_budget: WhatIfBudget::calls(32),
        ..AdvisorParams::default()
    });
}

#[test]
fn repeated_runs_at_same_jobs_are_identical() {
    for jobs in JOBS {
        let a = run(
            SearchAlgorithm::GreedyHeuristics,
            jobs,
            AdvisorParams::default,
        );
        let b = run(
            SearchAlgorithm::GreedyHeuristics,
            jobs,
            AdvisorParams::default,
        );
        assert_eq!(a, b, "jobs={jobs} not reproducible run-to-run");
    }
}

// ---------------------------------------------------------------------
// Observability surfaces: the decision journal is emitted entirely on
// the coordinator, so its JSONL export must be byte-identical across
// worker counts. Trace reports contain wall-clock timings; with those masked, the remaining
// structure (counters, span tree, latency sample counts) must be
// byte-identical across worker counts too.

/// One full advisor run with the journal enabled; returns the journal
/// JSONL and the time-masked trace-report JSON.
fn run_observed(jobs: usize, make_params: impl Fn() -> AdvisorParams) -> (String, String) {
    let mut db = Database::new();
    let cfg = TpoxConfig::tiny();
    tpox::generate(&mut db, &cfg);
    let w = Workload::from_texts(tpox::queries(&cfg).iter().map(|s| s.as_str())).unwrap();
    let params = AdvisorParams {
        jobs,
        telemetry: Telemetry::new(),
        journal: xia_obs::EventJournal::new(),
        ..make_params()
    };
    let rec = Advisor::recommend(
        &mut db,
        &w,
        u64::MAX / 2,
        SearchAlgorithm::GreedyHeuristics,
        &params,
    )
    .expect("advise");
    assert!(!rec.config.is_empty());
    let mut report = params.telemetry.report();
    mask_report(&mut report);
    (params.journal.to_jsonl(), report.to_json())
}

/// Zeroes every wall-clock-derived field, keeping structure and sample
/// counts (which are jobs-invariant) intact.
fn mask_report(r: &mut xia_obs::TraceReport) {
    for p in &mut r.phases {
        mask_span(p);
    }
    for (_, s) in &mut r.latencies {
        mask_summary(s);
    }
}

fn mask_span(s: &mut xia_obs::SpanSnapshot) {
    s.micros = 0;
    mask_summary(&mut s.latency);
    for c in &mut s.children {
        mask_span(c);
    }
}

fn mask_summary(s: &mut xia_obs::HistSummary) {
    s.p50_ns = 0;
    s.p95_ns = 0;
    s.p99_ns = 0;
    s.max_ns = 0;
}

#[test]
fn journal_jsonl_is_byte_identical_across_jobs() {
    let (j1, _) = run_observed(1, AdvisorParams::default);
    assert!(!j1.is_empty(), "journal must record the run");
    for &jobs in &JOBS[1..] {
        let (j, _) = run_observed(jobs, AdvisorParams::default);
        assert_eq!(j1, j, "clean journal diverged at jobs={jobs}");
    }
}

#[test]
fn journal_jsonl_is_byte_identical_across_jobs_under_faults() {
    let faulty = || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.3),
        ..AdvisorParams::default()
    };
    let (j1, _) = run_observed(1, faulty);
    assert!(
        j1.contains("fault_injected"),
        "a 0.3 optimizer-cost fault rate must surface in the journal"
    );
    for &jobs in &JOBS[1..] {
        let (j, _) = run_observed(jobs, faulty);
        assert_eq!(j1, j, "faulty journal diverged at jobs={jobs}");
    }
}

#[test]
fn journal_jsonl_is_byte_identical_across_jobs_under_exhausted_budget() {
    let tight = || AdvisorParams {
        what_if_budget: WhatIfBudget::calls(4),
        ..AdvisorParams::default()
    };
    let (j1, _) = run_observed(1, tight);
    assert!(
        j1.contains("budget_exhausted"),
        "a 4-call budget must trip and be journaled"
    );
    for &jobs in &JOBS[1..] {
        let (j, _) = run_observed(jobs, tight);
        assert_eq!(j1, j, "budget-exhausted journal diverged at jobs={jobs}");
    }
}

#[test]
fn masked_trace_report_is_byte_identical_across_jobs() {
    let (_, r1) = run_observed(1, AdvisorParams::default);
    assert!(
        r1.contains("what_if_call"),
        "latency section missing from the report: {r1}"
    );
    for &jobs in &JOBS[1..] {
        let (_, r) = run_observed(jobs, AdvisorParams::default);
        assert_eq!(r1, r, "masked trace report diverged at jobs={jobs}");
    }
    let faulty = || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.3),
        ..AdvisorParams::default()
    };
    let (_, f1) = run_observed(1, faulty);
    for &jobs in &JOBS[1..] {
        let (_, f) = run_observed(jobs, faulty);
        assert_eq!(f1, f, "masked faulty trace report diverged at jobs={jobs}");
    }
}

// ---------------------------------------------------------------------
// Run-lifecycle matrix: cooperative cancellation and the deadline must
// both preserve the determinism contract. A run stopped at a given poll
// must produce the same recommendation, pinned counters, and full JSONL
// journal at every worker count.

use xia_advisor::RunController;

/// Everything a lifecycle run must reproduce: completion state, the
/// recommendation, the pinned counters, and the byte-exact journal.
#[derive(Debug, PartialEq)]
struct LifecycleRun {
    complete: bool,
    config: Vec<xia_advisor::CandId>,
    indexes: Vec<String>,
    est_benefit_bits: u64,
    counters: Vec<(Counter, u64)>,
    journal: String,
}

fn run_lifecycle(
    jobs: usize,
    make_params: &dyn Fn() -> AdvisorParams,
    ctl: RunController,
) -> LifecycleRun {
    let mut db = Database::new();
    let cfg = TpoxConfig::tiny();
    tpox::generate(&mut db, &cfg);
    let w = Workload::from_texts(tpox::queries(&cfg).iter().map(|s| s.as_str())).unwrap();
    let params = AdvisorParams {
        jobs,
        telemetry: Telemetry::new(),
        journal: xia_obs::EventJournal::new(),
        ctl,
        ..make_params()
    };
    let set = Advisor::prepare(&mut db, &w, &params);
    let rec = Advisor::recommend_prepared(
        &mut db,
        &w,
        &set,
        u64::MAX / 2,
        SearchAlgorithm::GreedyHeuristics,
        &params,
    )
    .expect("advise");
    LifecycleRun {
        complete: rec.complete,
        config: rec.config.clone(),
        indexes: rec.indexes.iter().map(|ix| format!("{ix:?}")).collect(),
        est_benefit_bits: rec.est_benefit.to_bits(),
        counters: PINNED
            .iter()
            .map(|&c| (c, params.telemetry.get(c)))
            .collect(),
        journal: params.journal.to_jsonl(),
    }
}

#[test]
fn partial_results_are_jobs_invariant() {
    // Cooperative polls happen only on the coordinator, so a cancelled
    // run stops at the same point — and returns the same best-so-far
    // configuration — for every worker count.
    for k in [1u64, 3, 6] {
        let r1 = run_lifecycle(
            1,
            &AdvisorParams::default,
            RunController::new().with_cancel_after_polls(k),
        );
        assert!(!r1.complete, "cancel after {k} polls must stop the run");
        assert!(
            r1.journal.contains("run_stopped"),
            "stop must be journaled: {}",
            r1.journal
        );
        for jobs in [4usize, 8] {
            let r = run_lifecycle(
                jobs,
                &AdvisorParams::default,
                RunController::new().with_cancel_after_polls(k),
            );
            assert_eq!(r1, r, "partial result diverged at jobs={jobs}, k={k}");
        }
    }
    // A zero deadline expires at the first poll, deterministically.
    let d1 = run_lifecycle(
        1,
        &AdvisorParams::default,
        RunController::new().with_deadline_ms(0),
    );
    assert!(!d1.complete);
    for jobs in [4usize, 8] {
        let d = run_lifecycle(
            jobs,
            &AdvisorParams::default,
            RunController::new().with_deadline_ms(0),
        );
        assert_eq!(d1, d, "deadline partial result diverged at jobs={jobs}");
    }
}

#[test]
fn journal_round_trips_through_jsonl() {
    let mut db = Database::new();
    let cfg = TpoxConfig::tiny();
    tpox::generate(&mut db, &cfg);
    let w = Workload::from_texts(tpox::queries(&cfg).iter().map(|s| s.as_str())).unwrap();
    let params = AdvisorParams {
        journal: xia_obs::EventJournal::new(),
        ..AdvisorParams::default()
    };
    Advisor::recommend(
        &mut db,
        &w,
        u64::MAX / 2,
        SearchAlgorithm::TopDownFull,
        &params,
    )
    .expect("advise");
    let events = params.journal.events();
    assert!(!events.is_empty());
    let parsed = xia_obs::EventJournal::parse_jsonl(&params.journal.to_jsonl()).expect("parse");
    assert_eq!(events, parsed, "JSONL round-trip must preserve the stream");
}
