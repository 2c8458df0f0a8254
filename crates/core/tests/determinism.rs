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
    Advisor, AdvisorParams, Recommendation, SearchAlgorithm, WhatIfBudget, XiaError,
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
    // code serially. 300 more statements put baseline costing and the
    // standalone-benefit batch over it: here the pool really spawns —
    // clean, with every third optimizer call failing, and with statistics
    // going missing.
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
        assert!(reference.optimizer_calls > 1000, "mix {m}: a wide workload");
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

/// The value part of a fingerprint: everything the recommendation promises
/// the user, excluding call accounting. Pruned and unpruned runs serve
/// some costings from the statement cache instead of re-invoking the
/// optimizer, so call counters legitimately differ across *modes* (they
/// stay pinned across worker counts within each mode); the recommendation
/// itself — configuration, index DDL, and every cost estimate, bit for
/// bit — must not.
fn values(f: &Fingerprint) -> (Vec<xia_advisor::CandId>, Vec<String>, u64, u64, u64) {
    (
        f.config.clone(),
        f.indexes.clone(),
        f.est_benefit_bits,
        f.baseline_bits,
        f.workload_bits,
    )
}

fn assert_prune_invariant(algo: SearchAlgorithm, make_params: impl Fn() -> AdvisorParams) {
    for jobs in [1, 4] {
        let on = run(algo, jobs, || AdvisorParams {
            prune: true,
            ..make_params()
        });
        assert!(!on.config.is_empty() || algo == SearchAlgorithm::Greedy);
        let off = run(algo, jobs, || AdvisorParams {
            prune: false,
            ..make_params()
        });
        assert_eq!(
            values(&on),
            values(&off),
            "pruning changed the recommendation for {algo:?} at jobs={jobs}"
        );
    }
}

#[test]
fn pruning_preserves_recommendation_clean() {
    assert_prune_invariant(SearchAlgorithm::Greedy, AdvisorParams::default);
    assert_prune_invariant(SearchAlgorithm::GreedyHeuristics, AdvisorParams::default);
    assert_prune_invariant(SearchAlgorithm::TopDownFull, AdvisorParams::default);
}

#[test]
fn pruning_preserves_recommendation_under_faults() {
    assert_prune_invariant(SearchAlgorithm::GreedyHeuristics, || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.3),
        ..AdvisorParams::default()
    });
    assert_prune_invariant(SearchAlgorithm::Greedy, || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::StatsUnavailable, 0.5),
        ..AdvisorParams::default()
    });
}

#[test]
fn pruning_preserves_recommendation_under_exhausted_budget() {
    // The budget account charges only statements actually re-costed —
    // identically with pruning on or off — so the exact probe at which
    // the budget trips (and the degradation ladder engages) is the same
    // in both modes.
    assert_prune_invariant(SearchAlgorithm::Greedy, || AdvisorParams {
        what_if_budget: WhatIfBudget::calls(4),
        ..AdvisorParams::default()
    });
    assert_prune_invariant(SearchAlgorithm::GreedyHeuristics, || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.2),
        what_if_budget: WhatIfBudget::calls(32),
        ..AdvisorParams::default()
    });
}

#[test]
fn unpruned_mode_is_jobs_invariant() {
    // `--no-prune` replays statement-cache hits through real optimizer
    // calls; those calls are planned on the coordinator like any other,
    // so the mode stays jobs-invariant including every pinned counter.
    assert_jobs_invariant(SearchAlgorithm::GreedyHeuristics, || AdvisorParams {
        prune: false,
        ..AdvisorParams::default()
    });
}

#[test]
fn pruning_saves_calls_and_reports_counters() {
    let run_with = |prune: bool| {
        let mut db = Database::new();
        let cfg = TpoxConfig::tiny();
        tpox::generate(&mut db, &cfg);
        let w = Workload::from_texts(tpox::queries(&cfg).iter().map(|s| s.as_str())).unwrap();
        let params = AdvisorParams {
            prune,
            telemetry: Telemetry::new(),
            ..AdvisorParams::default()
        };
        let rec = Advisor::recommend(
            &mut db,
            &w,
            u64::MAX / 2,
            SearchAlgorithm::GreedyHeuristics,
            &params,
        )
        .expect("advise");
        (rec.eval_stats.optimizer_calls, params.telemetry)
    };
    let (calls_on, t_on) = run_with(true);
    let (calls_off, t_off) = run_with(false);
    assert!(
        calls_on < calls_off,
        "pruning saved no optimizer calls: on={calls_on} off={calls_off}"
    );
    assert!(t_on.get(Counter::StatementsPruned) > 0);
    assert!(t_on.get(Counter::StmtCacheHits) > 0);
    assert!(t_on.get(Counter::DeltaProbes) > 0);
    assert_eq!(t_off.get(Counter::StatementsPruned), 0);
    // The searches issue the same probe sequence in both modes.
    assert_eq!(
        t_on.get(Counter::DeltaProbes),
        t_off.get(Counter::DeltaProbes)
    );
}

/// `--no-fastpath` parity: the interning/semi-naive fast path must leave
/// the *entire* fingerprint untouched — recommendation, every cost bit,
/// and every pinned counter. (The fast path's own accounting lives in
/// counters outside the pinned set, so fast-on and fast-off runs agree on
/// everything compared here.)
fn assert_fastpath_invariant(algo: SearchAlgorithm, make_params: impl Fn() -> AdvisorParams) {
    for jobs in [1, 4] {
        let on = run(algo, jobs, || AdvisorParams {
            fastpath: true,
            ..make_params()
        });
        assert!(!on.config.is_empty() || algo == SearchAlgorithm::Greedy);
        let off = run(algo, jobs, || AdvisorParams {
            fastpath: false,
            ..make_params()
        });
        assert_eq!(
            on, off,
            "fast path changed the outcome for {algo:?} at jobs={jobs}"
        );
    }
}

#[test]
fn fastpath_preserves_recommendation_clean() {
    assert_fastpath_invariant(SearchAlgorithm::Greedy, AdvisorParams::default);
    assert_fastpath_invariant(SearchAlgorithm::GreedyHeuristics, AdvisorParams::default);
    assert_fastpath_invariant(SearchAlgorithm::TopDownFull, AdvisorParams::default);
}

#[test]
fn fastpath_preserves_recommendation_under_faults() {
    assert_fastpath_invariant(SearchAlgorithm::GreedyHeuristics, || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.3),
        ..AdvisorParams::default()
    });
    assert_fastpath_invariant(SearchAlgorithm::Greedy, || AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::StatsUnavailable, 0.5),
        ..AdvisorParams::default()
    });
}

#[test]
fn fastpath_preserves_recommendation_under_exhausted_budget() {
    assert_fastpath_invariant(SearchAlgorithm::Greedy, || AdvisorParams {
        what_if_budget: WhatIfBudget::calls(4),
        ..AdvisorParams::default()
    });
}

#[test]
fn naive_mode_is_jobs_invariant() {
    // `--no-fastpath` is the parity baseline; it must satisfy the same
    // jobs-invariance contract as the default path.
    assert_jobs_invariant(SearchAlgorithm::GreedyHeuristics, || AdvisorParams {
        fastpath: false,
        ..AdvisorParams::default()
    });
}

/// Candidate-set-level parity on the real TPoX workload: patterns, kinds,
/// origins, and DAG edge lists (in stored order) must be byte-identical
/// with the semi-naive fixpoint on or off.
#[test]
fn fastpath_preserves_candidate_set_and_dag() {
    let prepare = |fastpath: bool| {
        let mut db = Database::new();
        let cfg = TpoxConfig::tiny();
        tpox::generate(&mut db, &cfg);
        let w = Workload::from_texts(tpox::queries(&cfg).iter().map(|s| s.as_str())).unwrap();
        let params = AdvisorParams {
            fastpath,
            telemetry: Telemetry::new(),
            ..AdvisorParams::default()
        };
        let set = Advisor::prepare(&mut db, &w, &params);
        let dump: Vec<String> = set
            .iter()
            .map(|c| {
                format!(
                    "{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
                    c.id,
                    c.collection,
                    c.pattern,
                    c.kind,
                    c.origin,
                    c.children,
                    c.parents,
                    c.affected.iter().collect::<Vec<_>>()
                )
            })
            .collect();
        (dump, params.telemetry)
    };
    let (fast, t_fast) = prepare(true);
    let (naive, t_naive) = prepare(false);
    assert_eq!(fast, naive, "candidate set diverges fast vs naive");
    // Both modes report pair visits; the fast path visits strictly fewer.
    let nv = t_naive.get(Counter::GeneralizePairsVisited);
    let fv = t_fast.get(Counter::GeneralizePairsVisited);
    assert!(nv > 0 && fv > 0, "pair-visit accounting missing");
    assert!(fv < nv, "semi-naive visited {fv}, naive {nv}");
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
// worker counts and across the fast/naive generalization paths. Trace
// reports contain wall-clock timings; with those masked, the remaining
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
fn journal_jsonl_is_identical_fastpath_vs_naive() {
    let (fast, _) = run_observed(1, || AdvisorParams {
        fastpath: true,
        ..AdvisorParams::default()
    });
    let (naive, _) = run_observed(1, || AdvisorParams {
        fastpath: false,
        ..AdvisorParams::default()
    });
    assert_eq!(
        fast, naive,
        "fast-path and naive generalization must derive the same events"
    );
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
// Run-lifecycle matrix: cooperative cancellation, checkpoint/resume, and
// the resource governor must all preserve the determinism contract. A
// run killed at *any* checkpoint and resumed must reproduce the
// uninterrupted run bit for bit — recommendation, pinned counters, and
// the full JSONL journal — at every worker count. (Latency histograms
// are excluded: warm-served tasks legitimately skip what-if samples.)

use xia_advisor::RunController;

/// Everything a lifecycle run must reproduce: completion state, the
/// recommendation, the pinned counters plus the lifecycle-specific ones,
/// and the byte-exact journal.
#[derive(Debug, PartialEq)]
struct LifecycleRun {
    complete: bool,
    config: Vec<xia_advisor::CandId>,
    indexes: Vec<String>,
    est_benefit_bits: u64,
    counters: Vec<(Counter, u64)>,
    journal: String,
}

fn lifecycle_counters(t: &Telemetry) -> Vec<(Counter, u64)> {
    let mut v: Vec<(Counter, u64)> = PINNED.iter().map(|&c| (c, t.get(c))).collect();
    v.push((
        Counter::CheckpointsWritten,
        t.get(Counter::CheckpointsWritten),
    ));
    v.push((
        Counter::GovernorDemotions,
        t.get(Counter::GovernorDemotions),
    ));
    v
}

fn run_lifecycle(
    jobs: usize,
    make_params: &dyn Fn() -> AdvisorParams,
    ctl: RunController,
    resume_from: Option<&std::path::Path>,
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
    if let Some(path) = resume_from {
        let entries =
            xia_advisor::load_checkpoint(path, xia_advisor::candidate_digest(&set), &params.faults)
                .expect("checkpoint must load");
        params.ctl.install_warm(entries);
    }
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
        counters: lifecycle_counters(&params.telemetry),
        journal: params.journal.to_jsonl(),
    }
}

fn lc_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xia_lc_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The any-prefix resume property: kill the run at the k-th cooperative
/// poll for a sweep of k, resume each from its checkpoint, and require
/// the resumed run to equal the uninterrupted (checkpointing) run —
/// journal included — at jobs 1 and 4.
fn assert_resume_equivalence(tag: &str, make_params: &dyn Fn() -> AdvisorParams) {
    let dir = lc_dir(tag);
    for jobs in [1usize, 4] {
        let full_ck = dir.join(format!("full_{jobs}.ckpt"));
        let full = run_lifecycle(
            jobs,
            make_params,
            RunController::new().with_checkpoint(&full_ck, 1),
            None,
        );
        assert!(full.complete, "uninterrupted run must complete");
        assert!(!full.config.is_empty(), "suite needs a non-trivial run");
        for k in 1..=4u64 {
            let kill_ck = dir.join(format!("kill_{jobs}_{k}.ckpt"));
            let killed = run_lifecycle(
                jobs,
                make_params,
                RunController::new()
                    .with_cancel_after_polls(k)
                    .with_checkpoint(&kill_ck, 1),
                None,
            );
            assert!(!killed.complete, "cancel at poll {k} must stop the run");
            assert!(kill_ck.exists(), "stopped run must leave a checkpoint");
            let next_ck = dir.join(format!("next_{jobs}_{k}.ckpt"));
            let resumed = run_lifecycle(
                jobs,
                make_params,
                RunController::new().with_checkpoint(&next_ck, 1),
                Some(&kill_ck),
            );
            assert_eq!(
                resumed, full,
                "kill at poll {k} + resume diverged from uninterrupted (jobs={jobs}, {tag})"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_matches_uninterrupted_clean() {
    assert_resume_equivalence("clean", &AdvisorParams::default);
}

#[test]
fn resume_matches_uninterrupted_under_faults() {
    assert_resume_equivalence("faults", &|| AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.3),
        ..AdvisorParams::default()
    });
}

#[test]
fn resume_matches_uninterrupted_under_exhausted_budget() {
    assert_resume_equivalence("budget", &|| AdvisorParams {
        what_if_budget: WhatIfBudget::calls(32),
        ..AdvisorParams::default()
    });
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
            None,
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
                None,
            );
            assert_eq!(r1, r, "partial result diverged at jobs={jobs}, k={k}");
        }
    }
    // A zero deadline expires at the first poll, deterministically.
    let d1 = run_lifecycle(
        1,
        &AdvisorParams::default,
        RunController::new().with_deadline_ms(0),
        None,
    );
    assert!(!d1.complete);
    for jobs in [4usize, 8] {
        let d = run_lifecycle(
            jobs,
            &AdvisorParams::default,
            RunController::new().with_deadline_ms(0),
            None,
        );
        assert_eq!(d1, d, "deadline partial result diverged at jobs={jobs}");
    }
}

#[test]
fn governor_ladder_is_deterministic_across_jobs() {
    // A 1-byte budget trips on the first batch and walks the ladder; the
    // coordinator-side byte tally makes every demotion (and the degraded
    // costings after it) identical at every worker count.
    let mk = || RunController::new().with_mem_budget(1);
    let r1 = run_lifecycle(1, &AdvisorParams::default, mk(), None);
    assert!(
        r1.complete,
        "the governor degrades, it does not stop the run"
    );
    let demotions = r1
        .counters
        .iter()
        .find(|(c, _)| *c == Counter::GovernorDemotions)
        .map(|&(_, n)| n)
        .unwrap_or(0);
    assert!(demotions > 0, "a 1-byte budget must demote");
    assert!(
        r1.journal.contains("governor_demoted"),
        "every demotion must be journaled"
    );
    for jobs in [4usize, 8] {
        let r = run_lifecycle(jobs, &AdvisorParams::default, mk(), None);
        assert_eq!(r1, r, "governor run diverged at jobs={jobs}");
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
