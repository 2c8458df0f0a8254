//! End-to-end integration: TPoX data → advisor → materialized indexes →
//! physical execution, crossing every crate in the workspace.

use xia_advisor::{Advisor, AdvisorParams, SearchAlgorithm};
use xia_bench::lab::{actual_execution, estimated_workload_cost, TpoxLab};
use xia_optimizer::{execute_query, Optimizer};
use xia_workloads::tpox;

#[test]
fn recommended_indexes_speed_up_real_execution() {
    let mut lab = TpoxLab::quick();
    let workload = lab.workload();
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, &workload, &params);
    let budget = set.config_size(&Advisor::all_index_config(&set));
    let rec = Advisor::recommend_prepared(
        &mut lab.db,
        &workload,
        &set,
        budget,
        SearchAlgorithm::GreedyHeuristics,
        &params,
    )
    .expect("advise");
    assert!(!rec.config.is_empty());

    let baseline = actual_execution(&mut lab.db, &workload, &set, &[]);
    let indexed = actual_execution(&mut lab.db, &workload, &set, &rec.config);
    // Same results, fewer nodes touched.
    assert_eq!(baseline.docs, indexed.docs);
    assert!(
        indexed.nodes < baseline.nodes / 2,
        "indexed={} baseline={}",
        indexed.nodes,
        baseline.nodes
    );
    assert!(
        indexed.indexed_statements >= 5,
        "only {} statements used indexes",
        indexed.indexed_statements
    );
}

#[test]
fn recommended_indexes_are_used_by_the_optimizer() {
    // The paper's tight-coupling guarantee: recommended indexes are
    // actually used in plans.
    let mut lab = TpoxLab::quick();
    let workload = lab.workload();
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, &workload, &params);
    let budget = set.config_size(&Advisor::all_index_config(&set));
    let rec = Advisor::recommend_prepared(
        &mut lab.db,
        &workload,
        &set,
        budget,
        SearchAlgorithm::GreedyHeuristics,
        &params,
    )
    .expect("advise");
    Advisor::materialize(&mut lab.db, &set, &rec.config);
    lab.db.runstats_all();

    let mut used = std::collections::HashSet::new();
    for entry in workload.entries() {
        let coll = entry.statement.collection();
        let (collection, catalog, stats) = lab.db.parts(coll).unwrap();
        let optimizer = Optimizer::new(collection, stats, catalog);
        let plan = optimizer.optimize(entry.statement);
        for ix in plan.used_indexes() {
            used.insert((coll.to_string(), ix));
        }
    }
    // Every recommended index serves at least one statement.
    let mut total_defined = 0;
    for coll in lab.db.collection_names().iter().map(|s| s.to_string()) {
        let catalog = lab.db.catalog(&coll).unwrap();
        for def in catalog.iter() {
            total_defined += 1;
            assert!(
                used.contains(&(coll.clone(), def.id)),
                "recommended index {} on {} unused",
                def.pattern,
                coll
            );
        }
    }
    assert_eq!(total_defined, rec.config.len());
}

#[test]
fn estimated_and_actual_speedups_agree_in_direction() {
    let mut lab = TpoxLab::quick();
    let workload = lab.workload();
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, &workload, &params);
    let all = Advisor::all_index_config(&set);

    let est_base = estimated_workload_cost(&mut lab.db, &workload, &set, &[]);
    let est_all = estimated_workload_cost(&mut lab.db, &workload, &set, &all);
    assert!(est_all < est_base);

    let act_base = actual_execution(&mut lab.db, &workload, &set, &[]);
    let act_all = actual_execution(&mut lab.db, &workload, &set, &all);
    assert!(act_all.nodes < act_base.nodes);
}

#[test]
fn update_workload_discourages_wide_indexes() {
    // With a heavy update mix, the advisor must account for maintenance:
    // the benefit of every index drops relative to the query-only case.
    let mut lab = TpoxLab::quick();
    let queries_only = lab.workload();
    let with_updates = {
        let mut texts = tpox::queries(&lab.cfg);
        for _ in 0..20 {
            texts.extend(tpox::update_mix(&lab.cfg));
        }
        xia_workloads::Workload::from_texts(texts.iter().map(|s| s.as_str())).unwrap()
    };
    let params = AdvisorParams::default();

    let set_q = Advisor::prepare(&mut lab.db, &queries_only, &params);
    let sym = set_q
        .lookup(
            "SDOC",
            &xia_xpath::parse_linear_path("/Security/Symbol").unwrap(),
            xia_xpath::ValueKind::Str,
        )
        .unwrap();
    let mut ev_q = xia_advisor::BenefitEvaluator::new(&mut lab.db, &queries_only, &set_q);
    let b_queries = ev_q.benefit(&[sym]);
    drop(ev_q);

    let set_u = Advisor::prepare(&mut lab.db, &with_updates, &params);
    let sym_u = set_u
        .lookup(
            "SDOC",
            &xia_xpath::parse_linear_path("/Security/Symbol").unwrap(),
            xia_xpath::ValueKind::Str,
        )
        .unwrap();
    let mut ev_u = xia_advisor::BenefitEvaluator::new(&mut lab.db, &with_updates, &set_u);
    let mc = ev_u.mc_total(sym_u);
    assert!(mc > 0.0);
    let b_updates = ev_u.benefit(&[sym_u]);
    assert!(
        b_updates < b_queries + 1e-9 || mc > 0.0,
        "maintenance cost must be charged"
    );
}

#[test]
fn multi_collection_workload_recommends_per_collection_indexes() {
    let mut lab = TpoxLab::quick();
    let workload = lab.workload();
    let params = AdvisorParams::default();
    let rec = Advisor::recommend(
        &mut lab.db,
        &workload,
        u64::MAX / 2,
        SearchAlgorithm::GreedyHeuristics,
        &params,
    )
    .expect("advise");
    let colls: std::collections::HashSet<&str> =
        rec.indexes.iter().map(|i| i.collection.as_str()).collect();
    assert!(colls.contains("SDOC"));
    assert!(colls.contains("ODOC"));
    assert!(colls.contains("CDOC"));
}

#[test]
fn advisor_handles_or_and_sqlxml_statements() {
    // Disjunctions and SQL/XML statements flow through the whole pipeline:
    // enumeration, search, materialization, execution.
    let mut lab = TpoxLab::quick();
    let workload = xia_workloads::Workload::from_texts([
        // OR branches become candidates.
        r#"for $s in SECURITY('SDOC')/Security[Yield > 9.5 or PE >= 55]
           return $s/Symbol"#,
        // SQL/XML surface syntax.
        r#"SELECT XMLQUERY('$d/Security/Name') FROM SDOC
           WHERE XMLEXISTS('$d/Security[Symbol = "SYM00003"]')"#,
    ])
    .unwrap();
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, &workload, &params);
    let pats: Vec<String> = set.iter().map(|c| c.pattern.to_string()).collect();
    assert!(pats.contains(&"/Security/Yield".to_string()), "{pats:?}");
    assert!(pats.contains(&"/Security/PE".to_string()), "{pats:?}");
    assert!(pats.contains(&"/Security/Symbol".to_string()), "{pats:?}");

    let rec = Advisor::recommend_prepared(
        &mut lab.db,
        &workload,
        &set,
        u64::MAX / 2,
        SearchAlgorithm::GreedyHeuristics,
        &params,
    )
    .expect("advise");
    assert!(rec.speedup > 1.0, "speedup {}", rec.speedup);
    // Physical execution agrees with a scan on the OR query.
    let baseline = xia_bench::lab::actual_execution(&mut lab.db, &workload, &set, &[]);
    let indexed = xia_bench::lab::actual_execution(&mut lab.db, &workload, &set, &rec.config);
    assert_eq!(baseline.docs, indexed.docs);
}

#[test]
fn executing_a_query_against_each_collection_works() {
    let mut lab = TpoxLab::quick();
    for (coll, q) in [
        ("SDOC", r#"collection('SDOC')/Security[Yield > 5]"#),
        ("ODOC", r#"collection('ODOC')/Order[Quantity >= 5000]"#),
        ("CDOC", r#"collection('CDOC')/Customer[Premium = "Y"]"#),
    ] {
        let stmt = xia_xpath::parse_statement(q).unwrap();
        lab.db.runstats_all();
        let (collection, catalog, stats) = lab.db.parts(coll).unwrap();
        let optimizer = Optimizer::new(collection, stats, catalog);
        let plan = optimizer.optimize(&stmt);
        let res = execute_query(&stmt, &plan, collection, catalog).unwrap();
        assert!(res.docs_matched > 0, "{q} matched nothing");
    }
}
