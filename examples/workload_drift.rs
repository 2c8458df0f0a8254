//! Workload drift: why general indexes matter (paper Section VI-B).
//!
//! Trains the advisor on a small training workload, then confronts the
//! recommended configurations with a *drifted* workload containing queries
//! the advisor never saw. Top-down's general indexes keep serving the new
//! queries; greedy-with-heuristics' specific indexes do not.
//!
//! ```sh
//! cargo run --release --example workload_drift
//! ```

use xia_advisor::{Advisor, AdvisorParams, SearchAlgorithm};
use xia_optimizer::Optimizer;
use xia_storage::Database;
use xia_workloads::Workload;

fn main() {
    let mut db = Database::new();
    let coll = db.create_collection("SDOC");
    // Securities with many sibling leaves under SecInfo so there is room
    // for unseen-but-similar query patterns.
    let leaves = ["Sector", "Industry", "SubSector", "Region", "Exchange"];
    let filler = "prospectus liquidity covenant settlement clearing custodian ".repeat(30);
    for i in 0..400 {
        coll.build_doc("Security", |b| {
            b.leaf("Symbol", format!("SYM{i:05}").as_str());
            b.begin("SecInfo");
            b.begin(if i % 2 == 0 { "StockInfo" } else { "FundInfo" });
            for (k, leaf) in leaves.iter().enumerate() {
                b.leaf(leaf, format!("{leaf}-{}", (i + k) % 12).as_str());
            }
            b.end();
            b.end();
            // Realistic document bulk (real TPoX docs are several KB).
            b.leaf("Prospectus", filler.as_str());
        });
    }

    // Training: queries over two of the five leaves.
    let training = Workload::from_texts([
        r#"for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Sector = "Sector-3" return $s"#,
        r#"for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Industry = "Industry-5" return $s"#,
    ])
    .expect("training parses");

    // Drifted workload: same shape, *different* leaves.
    let drifted = Workload::from_texts([
        r#"for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/SubSector = "SubSector-2" return $s"#,
        r#"for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Region = "Region-7" return $s"#,
        r#"for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Exchange = "Exchange-1" return $s"#,
    ])
    .expect("drifted parses");

    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut db, &training, &params);
    let budget = 4 * set.config_size(&Advisor::all_index_config(&set));

    println!(
        "training on {} queries, budget {} bytes\n",
        training.len(),
        budget
    );
    for algo in [
        SearchAlgorithm::GreedyHeuristics,
        SearchAlgorithm::TopDownLite,
    ] {
        let rec = Advisor::recommend_prepared(&mut db, &training, &set, budget, algo, &params)
            .expect("advise");
        println!("{}:", algo.name());
        for ix in &rec.indexes {
            println!(
                "  {} [{}] {}",
                ix.pattern,
                ix.kind,
                if ix.general { "(general)" } else { "" }
            );
        }
        // How many *drifted* statements can use the recommendation?
        Advisor::materialize(&mut db, &set, &rec.config);
        db.runstats_all();
        let mut usable = 0;
        for entry in drifted.entries() {
            let (collection, catalog, stats) = db.parts("SDOC").expect("SDOC exists");
            let optimizer = Optimizer::new(collection, stats, catalog);
            if optimizer.optimize(entry.statement).uses_indexes() {
                usable += 1;
            }
        }
        println!(
            "  → {usable}/{} unseen queries can use this configuration\n",
            drifted.len()
        );
        if let Some(cat) = db.catalog_mut("SDOC") {
            cat.drop_all();
        }
    }
}
