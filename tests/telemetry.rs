//! Integration tests for the xia-obs telemetry threading: deterministic
//! counter values on the paper's two-statement example, the phase-span
//! tree of a full advisor run, JSON round-tripping of live reports, and
//! the disabled-handle fast path.

use xia_advisor::{Advisor, AdvisorParams, BenefitEvaluator, CostingState, SearchAlgorithm};
use xia_obs::{Counter, Telemetry, TraceReport};
use xia_storage::Database;
use xia_workloads::Workload;

/// TPoX-flavoured collection like the paper's running example.
fn paper_db() -> Database {
    let mut db = Database::new();
    let c = db.create_collection("SDOC");
    for i in 0..40 {
        c.build_doc("Security", |b| {
            b.leaf(
                "Symbol",
                if i == 0 {
                    "BCIIPRC".to_string()
                } else {
                    format!("S{i}")
                }
                .as_str(),
            );
            b.leaf("Yield", 3.0 + (i % 5) as f64);
            b.begin("SecInfo");
            b.begin(if i % 2 == 0 { "StockInfo" } else { "FundInfo" });
            b.leaf("Sector", if i % 4 == 0 { "Energy" } else { "Tech" });
            b.end();
            b.end();
            b.leaf("Name", format!("N{i}").as_str());
        });
    }
    db
}

/// The paper's two statements (Table I): Q1 yields candidate C1, Q2 yields
/// C2 and C3.
fn paper_workload() -> Workload {
    Workload::from_texts([
        r#"for $sec in SECURITY('SDOC')/Security
           where $sec/Symbol = "BCIIPRC"
           return $sec"#,
        r#"for $sec in SECURITY('SDOC')/Security[Yield>4.5]
           where $sec/SecInfo/*/Sector = "Energy"
           return <Security>{$sec/Name}</Security>"#,
    ])
    .unwrap()
}

#[test]
fn full_run_populates_counters_and_phase_tree() {
    let mut db = paper_db();
    let w = paper_workload();
    let params = AdvisorParams::default();
    let rec = Advisor::recommend(
        &mut db,
        &w,
        u64::MAX / 2,
        SearchAlgorithm::GreedyHeuristics,
        &params,
    )
    .expect("advise");
    assert!(!rec.config.is_empty());
    let t = &params.telemetry;

    // Deterministic counts from the paper example: one Enumerate-mode call
    // per statement, three basic candidates.
    assert_eq!(t.get(Counter::OptimizerEnumerateCalls), 2);
    assert_eq!(t.get(Counter::CandidatesEnumerated), 3);
    assert!(t.get(Counter::CandidatesGeneralized) > 0);
    assert_eq!(t.get(Counter::CandidatesAdmitted), rec.config.len() as u64);
    // Every candidate (basic + generalized) was sized via stats derivation.
    assert!(t.get(Counter::StatsDerivations) >= t.get(Counter::CandidatesEnumerated));
    assert!(t.get(Counter::OptimizerEvaluateCalls) > 0);
    assert!(t.get(Counter::BenefitEvaluations) > 0);
    assert!(t.get(Counter::VirtualIndexesCreated) > 0);
    assert_eq!(
        t.get(Counter::VirtualIndexesCreated),
        t.get(Counter::VirtualIndexesDropped),
        "every what-if virtual index must be cleaned up"
    );
    assert!(t.get(Counter::IndexMatchingAttempts) > 0);
    assert!(t.get(Counter::SelectivityEstimates) > 0);
    assert!(t.get(Counter::EstIndexBytes) > 0);

    // The acceptance bar: at least 8 distinct non-zero counters.
    let nonzero = t.counters().iter().filter(|&&(_, v)| v > 0).count();
    assert!(
        nonzero >= 8,
        "only {nonzero} non-zero counters: {:?}",
        t.counters()
    );

    // Phase tree: one advise root covering the whole pipeline.
    let roots = t.span_snapshots();
    let advise = roots
        .iter()
        .find(|r| r.name == "advise")
        .expect("advise root span");
    for phase in ["enumerate", "generalize", "size", "search"] {
        assert!(
            advise.child(phase).is_some(),
            "missing {phase} under advise"
        );
    }
    // Benefit evaluation nests inside the per-algorithm search span
    // (`search:<algorithm>:evaluate` since each algorithm records its
    // own search-loop span).
    let algo = advise
        .child("search")
        .unwrap()
        .child("heuristics")
        .expect("per-algorithm span under search");
    assert!(algo.child("evaluate").is_some());
    assert!(t.span_micros("evaluate") > 0);
}

#[test]
fn telemetry_cache_counters_match_eval_stats() {
    let mut db = paper_db();
    let w = paper_workload();
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut db, &w, &params);
    let all: Vec<_> = set.ids().collect();

    // Cache on: second identical evaluation is served from the memo.
    let t = Telemetry::new();
    let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
    ev.set_telemetry(&t);
    let b1 = ev.benefit(&all);
    let evals_after_first = t.get(Counter::OptimizerEvaluateCalls);
    assert!(evals_after_first > 0);
    let b2 = ev.benefit(&all);
    assert_eq!(b1, b2);
    assert_eq!(
        t.get(Counter::OptimizerEvaluateCalls),
        evals_after_first,
        "cached re-evaluation must not call the optimizer"
    );
    assert_eq!(t.get(Counter::BenefitCacheHits), ev.eval_stats().cache_hits);
    assert_eq!(
        t.get(Counter::BenefitCacheMisses),
        ev.eval_stats().cache_misses
    );
    assert!(t.get(Counter::BenefitCacheHits) > 0);

    // Cache off: neither hits nor misses are counted, the statement cache
    // serves nothing, and the repeat evaluation pays the optimizer calls
    // again.
    let t2 = Telemetry::new();
    {
        let mut ev2 = BenefitEvaluator::new(&mut db, &w, &set);
        ev2.set_telemetry(&t2);
        ev2.use_cache = false;
        let c1 = ev2.benefit(&all);
        let evals1 = t2.get(Counter::OptimizerEvaluateCalls);
        let c2 = ev2.benefit(&all);
        let evals2 = t2.get(Counter::OptimizerEvaluateCalls);
        assert_eq!(c1, c2, "determinism does not depend on the cache");
        assert_eq!(c1, b1, "cache must not change the benefit value");
        assert_eq!(evals2, 2 * evals1, "uncached repeat re-costs everything");
        assert_eq!(t2.get(Counter::BenefitCacheHits), 0);
        assert_eq!(t2.get(Counter::BenefitCacheMisses), 0);
        assert_eq!(t2.get(Counter::StmtCacheHits), 0);
    }

    // Default switches: the statement cache outlives a run's memo. A
    // second evaluator over the same costing state starts with an empty
    // memo and misses it, and every costing is served from the statement
    // cache without an optimizer call.
    let mut state = CostingState::default();
    BenefitEvaluator::retained(&db, &w, &set, &params, &mut state).benefit(&all);
    let t3 = Telemetry::new();
    let params3 = AdvisorParams {
        telemetry: t3.clone(),
        ..AdvisorParams::default()
    };
    let mut ev3 = BenefitEvaluator::retained(&db, &w, &set, &params3, &mut state);
    assert_eq!(ev3.benefit(&all), b1, "the statement cache moved a benefit");
    assert_eq!(t3.get(Counter::OptimizerEvaluateCalls), 0);
    assert!(t3.get(Counter::BenefitCacheMisses) > 0);
    let served = t3.get(Counter::StmtCacheHits);
    assert!(served > 0, "the statement cache never served");
    assert_eq!(served, ev3.eval_stats().stmt_cache_hits);
    assert_eq!(t3.get(Counter::StatementsPruned), served);
}

#[test]
fn live_report_round_trips_through_json() {
    let mut db = paper_db();
    let w = paper_workload();
    let params = AdvisorParams::default();
    let _rec = Advisor::recommend(
        &mut db,
        &w,
        u64::MAX / 2,
        SearchAlgorithm::TopDownFull,
        &params,
    )
    .expect("advise");
    let mut report = params.telemetry.report();
    // Hostile statement text: quotes, backslashes, control chars, unicode.
    report.push_statement("q \"x\" \\ \t\n \u{1} é €", 123.5, 7.0);
    report.push_statement("plain", 10.0, 10.0);
    let json = report.to_json();
    let back = TraceReport::from_json(&json).expect("round-trip parse");
    assert_eq!(back, report);
    assert_eq!(back.statements[0].statement, "q \"x\" \\ \t\n \u{1} é €");
    assert!(back.counter("optimizer_evaluate_calls").unwrap() > 0);
    assert!(!back.phases.is_empty());
}

#[test]
fn disabled_handle_records_nothing_and_stays_cheap() {
    let mut db = paper_db();
    let w = paper_workload();
    let params = AdvisorParams {
        telemetry: Telemetry::off(),
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
    assert!(!rec.config.is_empty());
    assert_eq!(params.telemetry.get(Counter::OptimizerEvaluateCalls), 0);
    assert!(params.telemetry.span_snapshots().is_empty());
    assert!(params.telemetry.counters().iter().all(|&(_, v)| v == 0));

    // Generous smoke bound on the raw handle overhead: 10M increments on a
    // disabled handle well under a second (it is a branch on None).
    let off = Telemetry::off();
    let start = std::time::Instant::now();
    for _ in 0..10_000_000 {
        off.incr(Counter::SelectivityEstimates);
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "disabled-handle counter path is too slow"
    );
}
