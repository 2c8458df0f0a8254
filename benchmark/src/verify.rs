//! Verification by execution: run query statements with no index and
//! again with a recommended configuration built, and compare what the
//! executor visited and matched.
//!
//! `nodes_speedup` is a ratio of two exact node counts, never of two
//! timings, so it repeats bit for bit on one seed.

use std::time::Instant;
use xia_advisor::advisor::RecommendedIndex;
use xia_optimizer::{execute_query, Optimizer};
use xia_storage::Database;
use xia_workloads::Workload;
use xia_xpath::{LinearPath, ValueKind};

/// An index to build: collection, pattern, key type.
pub type IndexSpec = (String, LinearPath, ValueKind);

/// Query statements executed per statement stream unless a workload says
/// otherwise. Scanning is the slow side (about a millisecond per statement
/// at scale 4), so large workloads are verified on their first statements.
pub const SAMPLE: usize = 64;

/// Parses `collection`, `pattern`, `kind` as the advisor prints them.
pub fn index_spec(collection: &str, pattern: &str, kind: &str) -> Result<IndexSpec, String> {
    xia_cli::commands::parse_index_spec(&format!("{collection}:{pattern}:{kind}"))
        .map_err(|e| e.to_string())
}

/// The recommended indexes of a library recommendation, parsed back from
/// the pattern text the advisor reports.
pub fn index_specs(indexes: &[RecommendedIndex]) -> Result<Vec<IndexSpec>, String> {
    indexes
        .iter()
        .map(|ix| index_spec(&ix.collection, &ix.pattern, &ix.kind.to_string()))
        .collect()
}

/// Parses one `CREATE INDEX ON <c> PATTERN '<p>' AS <kind>;` line of the
/// CLI's output; `None` for any other line.
pub fn ddl_line_spec(line: &str) -> Option<Result<IndexSpec, String>> {
    let rest = line.strip_prefix("CREATE INDEX ON ")?;
    let (collection, rest) = rest.split_once(" PATTERN '")?;
    let (pattern, rest) = rest.rsplit_once("' AS ")?;
    Some(index_spec(collection, pattern, rest.strip_suffix(';')?))
}

/// Totals over every verified workload of a run.
#[derive(Debug, Default)]
pub struct ExecTotals {
    /// Nodes visited with no index.
    pub nodes_scan: u64,
    /// Nodes visited with the recommended indexes built.
    pub nodes_indexed: u64,
    /// Wall time of the scan executions.
    pub scan_ms: f64,
    /// Wall time of the indexed executions.
    pub indexed_ms: f64,
    /// Wall time of building the indexes and refreshing statistics.
    pub index_build_ms: f64,
    /// Statements whose two executions matched different documents, or
    /// that failed to execute.
    pub violations: Vec<String>,
}

impl ExecTotals {
    /// Nodes visited without ÷ with the recommended indexes.
    pub fn nodes_speedup(&self) -> f64 {
        self.nodes_scan as f64 / self.nodes_indexed as f64
    }
}

fn drop_indexes(db: &mut Database) {
    let names: Vec<String> = db
        .collection_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    for name in &names {
        if let Some(catalog) = db.catalog_mut(name) {
            catalog.drop_all();
        }
    }
}

/// Executes the first `sample` query statements under the current
/// catalog; returns per statement `(docs_matched, nodes_visited)`.
fn execute_sample(
    db: &Database,
    workload: &Workload,
    sample: usize,
) -> Result<Vec<(u64, u64)>, String> {
    workload
        .entries()
        .iter()
        .filter(|e| !e.statement.is_modification())
        .take(sample)
        .map(|e| {
            let (collection, catalog, stats) = db
                .parts(e.statement.collection())
                .ok_or_else(|| format!("no fresh statistics for `{}`", e.text))?;
            let plan = Optimizer::new(collection, stats, catalog).optimize(&e.statement);
            let r = execute_query(&e.statement, &plan, collection, catalog)
                .map_err(|err| format!("`{}` does not execute: {err}", e.text))?;
            Ok((r.docs_matched, r.nodes_visited))
        })
        .collect()
}

/// Executes `workload`'s first `sample` queries with an empty catalog,
/// builds `indexes`, executes again, and adds the counts to `totals`.
/// Leaves the catalog empty.
pub fn execute_both_ways(
    db: &mut Database,
    workload: &Workload,
    sample: usize,
    indexes: &[IndexSpec],
    totals: &mut ExecTotals,
) {
    drop_indexes(db);
    db.runstats_all();
    let t = Instant::now();
    let scan = execute_sample(db, workload, sample);
    totals.scan_ms += t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    for (collection, pattern, kind) in indexes {
        match db.parts_mut(collection) {
            Some((coll, catalog, _)) => {
                catalog.create_physical(coll, pattern, *kind);
            }
            None => totals.violations.push(format!(
                "recommended index on unknown collection {collection}"
            )),
        }
    }
    db.runstats_all();
    totals.index_build_ms += t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let indexed = execute_sample(db, workload, sample);
    totals.indexed_ms += t.elapsed().as_secs_f64() * 1e3;
    drop_indexes(db);

    match (scan, indexed) {
        (Ok(scan), Ok(indexed)) => {
            for (i, (s, x)) in scan.iter().zip(&indexed).enumerate() {
                if s.0 != x.0 {
                    totals.violations.push(format!(
                        "query {i}: scan matched {} documents, index plan {}",
                        s.0, x.0
                    ));
                }
                totals.nodes_scan += s.1;
                totals.nodes_indexed += x.1;
            }
        }
        (Err(e), _) | (_, Err(e)) => totals.violations.push(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddl_lines_parse_back_into_specs() {
        let spec =
            ddl_line_spec("CREATE INDEX ON SDOC PATTERN '/Security/SecInfo/*/Sector' AS string;")
                .expect("a DDL line")
                .expect("parses");
        assert_eq!(spec.0, "SDOC");
        assert_eq!(spec.1.to_string(), "/Security/SecInfo/*/Sector");
        assert_eq!(spec.2, ValueKind::Str);
        let spec = ddl_line_spec("CREATE INDEX ON ODOC PATTERN '/Order//*' AS numerical;")
            .expect("a DDL line")
            .expect("parses");
        assert_eq!(spec.2, ValueKind::Num);
        assert!(ddl_line_spec("workload: 55 statements; candidates: 29 basic, 52 total").is_none());
        assert!(ddl_line_spec("CREATE INDEX ON SDOC PATTERN '/a' AS blob;")
            .expect("a DDL line")
            .is_err());
    }

    /// One seed gives one answer, bit for bit: the quality metrics and
    /// every count the advisor reports.
    #[test]
    fn one_seed_gives_the_same_quality_and_counts() {
        use crate::inputs;
        use crate::workloads::{advisor_params, budget_at, parse_workload};
        use xia_advisor::{Advisor, SearchAlgorithm};

        let measure = |seed: u64| {
            let mut db = inputs::build_db(seed);
            let workload = parse_workload(&inputs::mixed_statements(&db, seed, 0, 40, true));
            let set = Advisor::prepare(&mut db, &workload, &advisor_params());
            let budget = budget_at(set.config_size(&Advisor::all_index_config(&set)), 0.5);
            let rec = Advisor::recommend(
                &mut db,
                &workload,
                budget,
                SearchAlgorithm::GreedyHeuristics,
                &advisor_params(),
            )
            .expect("advisable");
            let mut exec = ExecTotals::default();
            let specs = index_specs(&rec.indexes).expect("patterns parse back");
            execute_both_ways(&mut db, &workload, SAMPLE, &specs, &mut exec);
            assert_eq!(exec.violations, Vec::<String>::new());
            assert!(exec.nodes_indexed < exec.nodes_scan, "the indexes are used");
            (
                rec.speedup.to_bits(),
                exec.nodes_speedup().to_bits(),
                (exec.nodes_scan, exec.nodes_indexed),
                (rec.eval_stats.optimizer_calls, rec.eval_stats.cache_hits),
                (
                    rec.eval_stats.stmt_cache_hits,
                    rec.eval_stats.statements_pruned,
                ),
                (rec.candidates_basic, rec.candidates_total),
            )
        };
        assert_eq!(measure(11), measure(11));
        assert_ne!(measure(11), measure(12));
    }
}
