//! The decision journal's JSONL bytes, pinned cell by cell.
//!
//! Each cell runs the advisor with an armed journal and compares the
//! rendered JSONL with a committed fixture under
//! `tests/fixtures/journal/`. A change to how events are built or stored
//! must leave every byte, every seq number and every event order as it
//! was. `XIA_BLESS=1` rewrites the fixtures; a failing cell prints its
//! first differing line.

use std::path::PathBuf;
use xia_advisor::{Advisor, AdvisorParams, SearchAlgorithm};
use xia_bench::lab::TpoxLab;
use xia_fault::{FaultInjector, FaultSite};
use xia_obs::json::Json;
use xia_obs::{EventJournal, Telemetry};
use xia_server::{ServerSession, SessionOptions};
use xia_workloads::Workload;

fn fixture_path(cell: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/journal")
        .join(format!("{cell}.jsonl"))
}

/// Compares `jsonl` with the cell's fixture, or rewrites the fixture
/// under `XIA_BLESS=1`.
fn check(cell: &str, jsonl: &str) {
    assert!(!jsonl.is_empty(), "{cell}: the journal is empty");
    let path = fixture_path(cell);
    if std::env::var("XIA_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixture dir");
        std::fs::write(&path, jsonl).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{cell}: {}: {e} (XIA_BLESS=1 writes it)", path.display()));
    if want == jsonl {
        return;
    }
    let (mut got_lines, mut want_lines) = (jsonl.lines(), want.lines());
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (Some(g), Some(w)) if g == w => continue,
            (g, w) => panic!(
                "{cell}: journal differs from {} at line {line}\n  fixture: {}\n  got:     {}",
                path.display(),
                w.unwrap_or("<end of fixture>"),
                g.unwrap_or("<end of journal>"),
            ),
        }
    }
}

/// Half the All-Index size of `workload` on the lab's database.
fn half_all_index(lab: &mut TpoxLab, workload: &Workload) -> u64 {
    let set = Advisor::prepare(&mut lab.db, workload, &AdvisorParams::default());
    set.config_size(&Advisor::all_index_config(&set)) / 2
}

/// One armed advisor run; its journal as JSONL.
fn advise_jsonl(
    lab: &mut TpoxLab,
    workload: &Workload,
    budget: u64,
    algorithm: SearchAlgorithm,
    faults: FaultInjector,
) -> String {
    let params = AdvisorParams {
        journal: EventJournal::new(),
        faults,
        ..AdvisorParams::default()
    };
    Advisor::recommend(&mut lab.db, workload, budget, algorithm, &params).expect("advise");
    params.journal.to_jsonl()
}

#[test]
fn every_algorithm_on_tpox_with_updates() {
    let mut lab = TpoxLab::quick();
    let workload = lab.workload_with_updates();
    let budget = half_all_index(&mut lab, &workload);
    for algorithm in SearchAlgorithm::ALL {
        let jsonl = advise_jsonl(&mut lab, &workload, budget, algorithm, FaultInjector::off());
        check(&format!("tpox-updates-{}", algorithm.name()), &jsonl);
    }
}

#[test]
fn heuristics_on_a_mixed_workload_with_generalizations() {
    let mut lab = TpoxLab::quick();
    let workload = lab.mixed_workload(60);
    let budget = half_all_index(&mut lab, &workload);
    let algorithm = SearchAlgorithm::GreedyHeuristics;
    let jsonl = advise_jsonl(&mut lab, &workload, budget, algorithm, FaultInjector::off());
    assert!(jsonl.contains("\"pair_generalized\""), "no generalization");
    check("mixed-60-heuristics", &jsonl);
}

#[test]
fn optimizer_faults_on_tpox_with_updates() {
    let mut lab = TpoxLab::quick();
    let workload = lab.workload_with_updates();
    let budget = half_all_index(&mut lab, &workload);
    let faults = FaultInjector::seeded(7).with_rate(FaultSite::OptimizerCost, 0.2);
    let jsonl = advise_jsonl(
        &mut lab,
        &workload,
        budget,
        SearchAlgorithm::TopDownFull,
        faults,
    );
    assert!(jsonl.contains("\"fault_injected\""), "no fault fired");
    check("tpox-updates-topdown-full-optimizer-cost-0.2", &jsonl);
}

#[test]
fn a_server_session_read_back_through_its_journal_verb() {
    let mut lab = TpoxLab::quick();
    let workload = lab.mixed_workload(60);
    let budget = half_all_index(&mut lab, &workload);
    Advisor::freshen(&mut lab.db, &Telemetry::off());
    let texts: Vec<(String, f64)> = workload
        .entries()
        .into_iter()
        .map(|e| (e.text.clone(), e.freq))
        .collect();
    let mut session = ServerSession::new(&SessionOptions {
        jobs: Some(1),
        ..SessionOptions::default()
    });
    let algorithms = [
        SearchAlgorithm::GreedyHeuristics,
        SearchAlgorithm::TopDownLite,
        SearchAlgorithm::Greedy,
        SearchAlgorithm::Cophy,
    ];
    for batch in [&texts[..40], &texts[40..48]] {
        session.observe(&lab.db, batch).expect("observe");
        for algorithm in algorithms {
            session
                .recommend_reply(&lab.db, budget, algorithm)
                .expect("recommend");
        }
    }
    let reply = Json::parse(&session.journal_reply()).expect("journal reply is JSON");
    let jsonl = reply.get("jsonl").and_then(Json::as_str).expect("jsonl");
    check("server-session", jsonl);
}
