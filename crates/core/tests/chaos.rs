//! Chaos suite: the full advise loop under every injected fault class.
//!
//! The contract under fault injection (ISSUE 2 acceptance criteria): the
//! advisor either returns a degraded-but-usable recommendation or a typed
//! error — it never panics. All injectors are seeded, so every run of this
//! suite exercises the identical fault schedule.

use xia_advisor::{Advisor, AdvisorParams, SearchAlgorithm, WhatIfBudget, XiaError};
use xia_fault::{FaultInjector, FaultSite};
use xia_storage::Database;
use xia_workloads::tpox::{self, TpoxConfig};
use xia_workloads::Workload;

const SEED: u64 = 0xC4A05;

fn db() -> Database {
    let mut db = Database::new();
    tpox::generate(&mut db, &TpoxConfig::tiny());
    db
}

fn workload() -> Workload {
    let cfg = TpoxConfig::tiny();
    Workload::from_texts(tpox::queries(&cfg).iter().map(|s| s.as_str())).unwrap()
}

fn params_with(faults: FaultInjector) -> AdvisorParams {
    AdvisorParams {
        faults,
        ..AdvisorParams::default()
    }
}

#[test]
fn total_optimizer_failure_still_yields_a_recommendation() {
    // Every Evaluate-mode what-if call fails; benefit evaluation degrades
    // to the heuristic ladder (0.5x baseline). Candidates still rank by
    // affected baseline mass, so the recommendation must be non-empty.
    let mut db = db();
    let w = workload();
    let params = params_with(FaultInjector::seeded(SEED).with_always(FaultSite::OptimizerCost));
    let rec = Advisor::recommend(&mut db, &w, u64::MAX / 2, SearchAlgorithm::Greedy, &params)
        .expect("degraded recommendation, not an error");
    assert!(
        rec.degraded,
        "total cost failure must mark the run degraded"
    );
    assert!(rec.cost_fallbacks > 0);
    assert!(
        !rec.config.is_empty(),
        "heuristic fallback must still recommend indexes"
    );
    assert!(params.faults.injected(FaultSite::OptimizerCost) > 0);
}

#[test]
fn partial_optimizer_faults_recommend_and_are_deterministic() {
    let run = || {
        let mut db = db();
        let w = workload();
        let params =
            params_with(FaultInjector::seeded(SEED).with_rate(FaultSite::OptimizerCost, 0.3));
        let rec = Advisor::recommend(
            &mut db,
            &w,
            u64::MAX / 2,
            SearchAlgorithm::GreedyHeuristics,
            &params,
        )
        .expect("advise");
        let injected = params.faults.injected(FaultSite::OptimizerCost);
        (rec.config.clone(), rec.cost_fallbacks, injected)
    };
    let (config_a, fallbacks_a, injected_a) = run();
    let (config_b, fallbacks_b, injected_b) = run();
    assert!(injected_a > 0, "30% rate over a tpox run must fire");
    assert_eq!(config_a, config_b, "same seed, same recommendation");
    assert_eq!(fallbacks_a, fallbacks_b);
    assert_eq!(injected_a, injected_b);
    assert!(!config_a.is_empty());
    assert!(fallbacks_a > 0);
}

#[test]
fn stats_unavailable_faults_degrade_without_panicking() {
    // With statistics permanently unavailable the optimizer cannot cost
    // anything: candidates disappear at enumeration and every baseline is
    // heuristic. The advisor must still return cleanly.
    let mut db = db();
    let w = workload();
    let params = params_with(FaultInjector::seeded(SEED).with_always(FaultSite::StatsUnavailable));
    let rec = Advisor::recommend(&mut db, &w, u64::MAX / 2, SearchAlgorithm::Greedy, &params)
        .expect("degraded recommendation, not a panic");
    assert!(rec.degraded);
    assert!(rec.cost_fallbacks > 0);
    // The fault lived in per-phase views; the database itself still has
    // every statistic and no virtual index.
    for name in db.collection_names() {
        assert!(db.stats_cached(name).is_some(), "{name}");
        assert!(db.catalog(name).unwrap().iter().all(|d| !d.is_virtual()));
    }
}

#[test]
fn intermittent_stats_faults_keep_the_loop_alive() {
    let mut db = db();
    let w = workload();
    let params =
        params_with(FaultInjector::seeded(SEED).with_rate(FaultSite::StatsUnavailable, 0.5));
    // Run the loop several times over the same database — statistics
    // come and go from the advisor's view as the injector fires.
    for algo in [SearchAlgorithm::Greedy, SearchAlgorithm::GreedyHeuristics] {
        let rec = Advisor::recommend(&mut db, &w, u64::MAX / 2, algo, &params);
        match rec {
            Ok(r) => assert!(r.baseline_cost >= 0.0),
            Err(e) => {
                let _typed: XiaError = e; // any typed error is acceptable; panics are not
            }
        }
    }
    assert!(params.faults.calls(FaultSite::StatsUnavailable) > 0);
}

#[test]
fn storage_io_faults_during_load_leave_a_usable_partial_database() {
    // Save cleanly, reload under storage-io faults: unreadable documents
    // are skipped, and the advisor tunes whatever survived.
    let full = db();
    let mut bytes = Vec::new();
    xia_storage::save_database_to(&full, &mut bytes).unwrap();

    let path = std::env::temp_dir().join(format!("xia_chaos_{}.xiadb", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let faults = FaultInjector::seeded(SEED).with_rate(FaultSite::StorageIo, 0.10);
    let (partial, report) = xia_storage::load_database_lenient_faulted(&path, &faults).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(report.docs_skipped > 0, "10% over a tpox dump must fire");
    assert!(report.docs_loaded > 0, "most documents survive");

    let mut partial = partial;
    let w = workload();
    let params = AdvisorParams::default();
    let rec = Advisor::recommend(
        &mut partial,
        &w,
        u64::MAX / 2,
        SearchAlgorithm::GreedyHeuristics,
        &params,
    )
    .expect("partial database still tunes");
    assert!(rec.baseline_cost > 0.0);
}

#[test]
fn storage_io_faults_during_save_surface_as_typed_errors() {
    let full = db();
    let faults = FaultInjector::seeded(SEED).with_always(FaultSite::StorageIo);
    let mut bytes = Vec::new();
    let err = xia_storage::save_database_to_faulted(&full, &mut bytes, &faults).unwrap_err();
    assert!(matches!(err, xia_storage::PersistError::Io(_)), "{err}");
}

#[test]
fn one_bad_statement_of_n_is_quarantined_not_fatal() {
    let mut db = db();
    let mut w = workload();
    let n = w.len() + 1;
    w.push(r#"collection('GHOST')/Thing[Field = "x"]"#).unwrap();
    let params = AdvisorParams::default();
    let rec = Advisor::recommend(
        &mut db,
        &w,
        u64::MAX / 2,
        SearchAlgorithm::GreedyHeuristics,
        &params,
    )
    .expect("N-1 good statements still tune");
    assert_eq!(rec.quarantined.len(), 1);
    assert!(
        rec.quarantined[0].detail.contains("GHOST"),
        "{:?}",
        rec.quarantined
    );
    assert!(rec.degraded);
    assert!(!rec.config.is_empty());
    let _ = n;
}

#[test]
fn strict_mode_turns_degradation_into_a_typed_error() {
    let mut db = db();
    let mut w = workload();
    w.push(r#"collection('GHOST')/Thing[Field = "x"]"#).unwrap();
    let params = AdvisorParams {
        strict: true,
        ..AdvisorParams::default()
    };
    let err = Advisor::recommend(
        &mut db,
        &w,
        u64::MAX / 2,
        SearchAlgorithm::GreedyHeuristics,
        &params,
    )
    .unwrap_err();
    assert!(
        matches!(err, XiaError::StrictDegradation { quarantined: 1, .. }),
        "{err}"
    );
}

#[test]
fn all_statements_quarantined_is_a_typed_error() {
    let mut db = db();
    let w = Workload::from_texts([
        r#"collection('GHOST')/a[b = 1]"#,
        r#"collection('PHANTOM')/c[d = 2]"#,
    ])
    .unwrap();
    let err = Advisor::recommend(
        &mut db,
        &w,
        u64::MAX / 2,
        SearchAlgorithm::Greedy,
        &AdvisorParams::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, XiaError::AllStatementsQuarantined { total: 2 }),
        "{err}"
    );
}

#[test]
fn empty_workload_is_a_typed_error() {
    let mut db = db();
    let err = Advisor::recommend(
        &mut db,
        &Workload::new(),
        u64::MAX / 2,
        SearchAlgorithm::Greedy,
        &AdvisorParams::default(),
    )
    .unwrap_err();
    assert!(matches!(err, XiaError::EmptyWorkload), "{err}");
}

#[test]
fn exhausted_what_if_budget_falls_back_and_stays_deterministic() {
    let run = || {
        let mut db = db();
        let w = workload();
        let params = AdvisorParams {
            what_if_budget: WhatIfBudget::calls(4),
            ..AdvisorParams::default()
        };
        Advisor::recommend(
            &mut db,
            &w,
            u64::MAX / 2,
            SearchAlgorithm::GreedyHeuristics,
            &params,
        )
        .expect("budget exhaustion degrades, it does not fail")
    };
    let a = run();
    let b = run();
    assert!(a.degraded, "4 calls cannot cover a tpox search");
    assert!(a.cost_fallbacks > 0);
    assert_eq!(a.config, b.config, "budget fallback is deterministic");
    assert!(!a.config.is_empty());
}

// ---------------------------------------------------------------------
// Checkpoint robustness: a corrupt checkpoint must never panic or poison
// a run — every mutation is rejected at load and the advisor starts
// cold; injected checkpoint-io faults abandon the write (with a
// warning), never the run.

use xia_advisor::RunController;
use xia_obs::{Counter, Telemetry};

/// Runs the advisor, killed deterministically mid-search so a checkpoint
/// with real warm entries lands at `path`; returns the candidate digest
/// the checkpoint was written against.
fn make_checkpoint(path: &std::path::Path) -> u64 {
    let mut db = db();
    let w = workload();
    let params = AdvisorParams {
        ctl: RunController::new()
            .with_cancel_after_polls(3)
            .with_checkpoint(path, 1),
        ..AdvisorParams::default()
    };
    let set = Advisor::prepare(&mut db, &w, &params);
    let digest = xia_advisor::candidate_digest(&set);
    let rec = Advisor::recommend_prepared(
        &mut db,
        &w,
        &set,
        u64::MAX / 2,
        SearchAlgorithm::GreedyHeuristics,
        &params,
    )
    .expect("a cancelled run still returns a partial recommendation");
    assert!(!rec.complete, "cancel after 3 polls must stop the run");
    digest
}

#[test]
fn checkpoint_corruption_sweep_rejects_every_mutation() {
    let dir = std::env::temp_dir().join(format!("xia_chaos_ck_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("c.ckpt");
    let digest = make_checkpoint(&ck);
    let off = FaultInjector::off();
    let entries = xia_advisor::load_checkpoint(&ck, digest, &off).expect("pristine loads");
    assert!(!entries.is_empty(), "checkpoint must hold warm entries");
    // A checkpoint for a different candidate set is stale, not usable.
    assert!(xia_advisor::load_checkpoint(&ck, digest ^ 1, &off).is_err());
    let bytes = std::fs::read(&ck).unwrap();
    let bad = dir.join("bad.ckpt");
    // Every truncation point: no proper prefix may parse.
    for cut in 0..bytes.len() {
        std::fs::write(&bad, &bytes[..cut]).unwrap();
        assert!(
            xia_advisor::load_checkpoint(&bad, digest, &off).is_err(),
            "truncation at {cut}/{} accepted",
            bytes.len()
        );
    }
    // Bit flips across the file: the checksum (or the framing) catches
    // every one — wrong warm costs must never be replayed silently.
    for pos in (0..bytes.len()).step_by(3) {
        for bit in [0x01u8, 0x10, 0x80] {
            let mut m = bytes.clone();
            m[pos] ^= bit;
            std::fs::write(&bad, &m).unwrap();
            assert!(
                xia_advisor::load_checkpoint(&bad, digest, &off).is_err(),
                "bit flip at {pos} (mask {bit:#04x}) accepted"
            );
        }
    }
    // An injected read fault degrades the same way: Err, then cold start.
    let read_faults = FaultInjector::seeded(SEED).with_always(FaultSite::CheckpointIo);
    assert!(xia_advisor::load_checkpoint(&ck, digest, &read_faults).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_io_write_faults_abandon_the_write_not_the_run() {
    let dir = std::env::temp_dir().join(format!("xia_chaos_ckw_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("w.ckpt");
    let mut db1 = db();
    let w = workload();
    let params = AdvisorParams {
        faults: FaultInjector::seeded(SEED).with_always(FaultSite::CheckpointIo),
        telemetry: Telemetry::new(),
        ctl: RunController::new().with_checkpoint(&ck, 1),
        ..AdvisorParams::default()
    };
    let rec = Advisor::recommend(
        &mut db1,
        &w,
        u64::MAX / 2,
        SearchAlgorithm::GreedyHeuristics,
        &params,
    )
    .expect("checkpoint faults must not fail the run");
    assert!(rec.complete, "the run itself is unaffected");
    assert!(
        !rec.warnings.is_empty(),
        "abandoned checkpoint writes must surface as warnings"
    );
    assert_eq!(
        params.telemetry.get(Counter::CheckpointsWritten),
        0,
        "every write was abandoned"
    );
    // The recommendation is exactly what a run without checkpointing
    // produces — lifecycle plumbing never leaks into the answer.
    let mut db2 = db();
    let clean = Advisor::recommend(
        &mut db2,
        &w,
        u64::MAX / 2,
        SearchAlgorithm::GreedyHeuristics,
        &AdvisorParams::default(),
    )
    .unwrap();
    assert_eq!(rec.config, clean.config);
    assert_eq!(rec.est_benefit.to_bits(), clean.est_benefit.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_fault_class_with_every_algorithm_never_panics() {
    // The full matrix at a moderate rate; each cell must end in Ok or a
    // typed error, and the fault handle must report its own activity.
    for site in FaultSite::ALL {
        for algo in SearchAlgorithm::ALL {
            let mut db = db();
            let w = workload();
            let params = params_with(FaultInjector::seeded(SEED).with_rate(site, 0.25));
            let result = Advisor::recommend(&mut db, &w, u64::MAX / 2, algo, &params);
            match result {
                Ok(rec) => {
                    assert!(rec.speedup >= 0.0, "{site}/{algo:?}: bogus speedup");
                }
                Err(e) => {
                    assert!(!format!("{e}").is_empty(), "{site}/{algo:?}");
                }
            }
        }
    }
}
