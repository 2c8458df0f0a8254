//! TPoX tuning session: the paper's primary evaluation scenario.
//!
//! Generates the three TPoX-like collections, tunes for the 11-query
//! workload plus an update mix under several disk budgets, compares all
//! five search algorithms, then materializes the winning configuration and
//! measures the *actual* (executed) speedup.
//!
//! ```sh
//! cargo run --release --example tpox_tuning
//! ```

use std::time::Instant;
use xia_advisor::{Advisor, AdvisorParams, SearchAlgorithm};
use xia_optimizer::{execute_query, Optimizer};
use xia_storage::Database;
use xia_workloads::tpox::{self, TpoxConfig};
use xia_workloads::Workload;

fn main() {
    let cfg = TpoxConfig::default();
    let mut db = Database::new();
    println!(
        "generating TPoX-like data ({} securities, {} orders, {} customers)...",
        cfg.securities, cfg.orders, cfg.customers
    );
    tpox::generate(&mut db, &cfg);

    let mut texts = tpox::queries(&cfg);
    texts.extend(tpox::update_mix(&cfg));
    let workload = Workload::from_texts(texts.iter().map(|s| s.as_str())).expect("parses");
    println!(
        "workload: {} statements ({} queries, {} updates)\n",
        workload.len(),
        workload
            .entries()
            .iter()
            .filter(|e| !e.statement.is_modification())
            .count(),
        workload
            .entries()
            .iter()
            .filter(|e| e.statement.is_modification())
            .count(),
    );

    // Tune under a sweep of budgets.
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut db, &workload, &params);
    let all_size = set.config_size(&Advisor::all_index_config(&set));
    println!(
        "candidates: {} basic, {} total; All-Index size {:.1} KiB\n",
        set.basic_ids().len(),
        set.len(),
        all_size as f64 / 1024.0
    );

    println!(
        "{:<14} {:>10} {:>9} {:>8} {:>7} {:>11}",
        "algorithm", "budget", "speedup", "indexes", "G/S", "opt. calls"
    );
    let mut best: Option<(SearchAlgorithm, Vec<xia_advisor::CandId>, f64)> = None;
    for frac in [0.25, 0.5, 1.0] {
        let budget = (all_size as f64 * frac) as u64;
        for algo in SearchAlgorithm::ALL {
            let rec = Advisor::recommend_prepared(&mut db, &workload, &set, budget, algo, &params)
                .expect("advise");
            println!(
                "{:<14} {:>9.2}x {:>8.2}x {:>8} {:>3}/{:<3} {:>11}",
                algo.name(),
                frac,
                rec.speedup,
                rec.indexes.len(),
                rec.general_count,
                rec.specific_count,
                rec.eval_stats.optimizer_calls
            );
            if best.as_ref().is_none_or(|(_, _, s)| rec.speedup > *s) {
                best = Some((algo, rec.config.clone(), rec.speedup));
            }
        }
    }
    let (algo, config, est) = best.expect("at least one recommendation");
    println!(
        "\nbest: {} (estimated {est:.2}x) — materializing and executing...",
        algo.name()
    );

    // Actual speedup: execute the query side with and without the indexes.
    let queries: Vec<&str> = texts[..11].iter().map(|s| s.as_str()).collect();
    let query_workload = Workload::from_texts(queries).expect("parses");
    let t_scan = run_queries(&mut db, &query_workload);
    Advisor::materialize(&mut db, &set, &config);
    db.runstats_all();
    let t_indexed = run_queries(&mut db, &query_workload);
    println!(
        "actual execution: {:.1} ms without indexes, {:.1} ms with — {:.1}x",
        t_scan * 1e3,
        t_indexed * 1e3,
        t_scan / t_indexed.max(1e-9)
    );
}

fn run_queries(db: &mut Database, workload: &Workload) -> f64 {
    db.runstats_all();
    let start = Instant::now();
    for entry in workload.entries() {
        let coll = entry.statement.collection();
        let (collection, catalog, stats) = db.parts(coll).expect("collection exists");
        let optimizer = Optimizer::new(collection, stats, catalog);
        let plan = optimizer.optimize(entry.statement);
        execute_query(entry.statement, &plan, collection, catalog).expect("plan executes");
    }
    start.elapsed().as_secs_f64()
}
