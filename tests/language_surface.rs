//! Language-surface integration: the extended TPoX and XMark query sets
//! (existence, disjunction, `let`, `order by`, SQL/XML) must parse, plan,
//! execute, and produce results consistent with full scans.

use xia_optimizer::{execute_query, AccessChoice, Optimizer, Plan};
use xia_storage::Database;
use xia_workloads::tpox::{self, TpoxConfig};
use xia_workloads::xmark::{self, XmarkConfig};
use xia_workloads::Workload;

fn check_workload(db: &mut Database, workload: &Workload) {
    db.runstats_all();
    let mut matched_any = false;
    for entry in workload.entries() {
        let coll = entry.statement.collection();
        let (collection, catalog, stats) = db
            .parts(coll)
            .unwrap_or_else(|| panic!("collection {coll} missing"));
        let optimizer = Optimizer::new(collection, stats, catalog);
        let plan = optimizer.optimize(entry.statement);
        let via_plan = execute_query(entry.statement, &plan, collection, catalog)
            .unwrap_or_else(|e| panic!("{e} for `{}`", entry.text));
        let scan = Plan {
            access: AccessChoice::Scan,
            ..plan.clone()
        };
        let via_scan = execute_query(entry.statement, &scan, collection, catalog).unwrap();
        assert_eq!(
            via_plan.docs_matched, via_scan.docs_matched,
            "plan/scan disagree for `{}`",
            entry.text
        );
        if via_plan.docs_matched > 0 {
            matched_any = true;
        }
    }
    assert!(matched_any, "no extended query matched any document");
}

#[test]
fn tpox_extended_queries_parse_plan_and_execute() {
    let cfg = TpoxConfig::tiny();
    let mut db = Database::new();
    tpox::generate(&mut db, &cfg);
    let texts = tpox::extended_queries(&cfg);
    assert_eq!(texts.len(), 6);
    let workload = Workload::from_texts(texts.iter().map(|s| s.as_str()))
        .expect("extended TPoX queries parse");
    check_workload(&mut db, &workload);
}

#[test]
fn xmark_extended_queries_parse_plan_and_execute() {
    let cfg = XmarkConfig::tiny();
    let mut db = Database::new();
    xmark::generate(&mut db, &cfg);
    let texts = xmark::extended_queries(&cfg);
    assert_eq!(texts.len(), 5);
    let workload = Workload::from_texts(texts.iter().map(|s| s.as_str()))
        .expect("extended XMark queries parse");
    check_workload(&mut db, &workload);
}

#[test]
fn extended_queries_enumerate_candidates_and_advise() {
    // The advisor handles the full language surface end to end.
    let cfg = TpoxConfig::tiny();
    let mut db = Database::new();
    tpox::generate(&mut db, &cfg);
    let mut texts = tpox::queries(&cfg);
    texts.extend(tpox::extended_queries(&cfg));
    let workload = Workload::from_texts(texts.iter().map(|s| s.as_str())).unwrap();
    let rec = xia_advisor::Advisor::recommend(
        &mut db,
        &workload,
        u64::MAX / 2,
        xia_advisor::SearchAlgorithm::GreedyHeuristics,
        &xia_advisor::AdvisorParams::default(),
    )
    .expect("advise");
    assert!(rec.candidates_basic > 10);
    assert!(rec.speedup > 1.0);
    // The existence pattern over the optional Dividend element is a
    // candidate (structural access).
    let set =
        xia_advisor::Advisor::prepare(&mut db, &workload, &xia_advisor::AdvisorParams::default());
    let pats: Vec<String> = set.iter().map(|c| c.pattern.to_string()).collect();
    assert!(
        pats.iter().any(|p| p.contains("Dividend")),
        "no Dividend candidate in {pats:?}"
    );
}
