//! Shared experiment environment: a TPoX database plus workload builders
//! and what-if / execution helpers used by several experiments.

use std::time::{Duration, Instant};
use xia_advisor::{CandId, CandidateSet};
use xia_optimizer::{execute_query, Optimizer};
use xia_storage::Database;
use xia_workloads::synthetic::{self, SyntheticConfig};
use xia_workloads::tpox::{self, TpoxConfig};
use xia_workloads::Workload;

/// The value of environment variable `name`, or `default` when it is
/// unset or does not parse.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A TPoX-populated database with the benchmark workloads.
pub struct TpoxLab {
    /// The populated database.
    pub db: Database,
    /// Generator configuration used.
    pub cfg: TpoxConfig,
}

impl TpoxLab {
    /// Builds a lab at the given configuration.
    pub fn new(cfg: TpoxConfig) -> Self {
        let mut db = Database::new();
        tpox::generate(&mut db, &cfg);
        Self { db, cfg }
    }

    /// A small lab for tests (fast even in debug builds).
    pub fn quick() -> Self {
        Self::new(TpoxConfig::tiny())
    }

    /// The standard experiment lab. Scale with `XIA_SCALE` (default 1).
    pub fn standard() -> Self {
        Self::new(TpoxConfig::scaled(env_or("XIA_SCALE", 1usize).max(1)))
    }

    /// The 11-query TPoX workload.
    pub fn workload(&self) -> Workload {
        Workload::from_texts(tpox::queries(&self.cfg).iter().map(|s| s.as_str()))
            .expect("generated queries parse")
    }

    /// The 11 queries plus the update mix.
    pub fn workload_with_updates(&self) -> Workload {
        let mut texts = tpox::queries(&self.cfg);
        texts.extend(tpox::update_mix(&self.cfg));
        Workload::from_texts(texts.iter().map(|s| s.as_str())).expect("generated texts parse")
    }

    /// `n` synthetic queries over the security collection.
    pub fn synthetic_workload(&self, n: usize, seed: u64) -> Workload {
        let coll = self
            .db
            .collection(tpox::SECURITY_COLL)
            .expect("lab has SDOC");
        let texts = synthetic::generate_queries(
            coll,
            &SyntheticConfig {
                queries: n,
                seed,
                ..Default::default()
            },
        );
        Workload::from_texts(texts.iter().map(|s| s.as_str())).expect("synthetic queries parse")
    }

    /// The paper's Fig. 4/5 workload: the 11 TPoX queries followed by `n`
    /// synthetic queries "to increase workload diversity".
    pub fn mixed_workload(&self, n_synth: usize) -> Workload {
        self.workload()
            .concat(&self.synthetic_workload(n_synth, 0xd1f7))
    }

    /// The E11 "sparse" workload: `n` anchored two-predicate synthetic
    /// queries over the security collection. Nearly every statement
    /// shares one anchor predicate while carrying a distinct second
    /// predicate, so candidate relevance sets overlap heavily — the
    /// regime where statement-relevance pruning pays (each what-if probe
    /// touches a configuration group spanning many statements, of which
    /// only a few are relevant to the probed candidate).
    pub fn sparse_workload(&self, n: usize) -> Workload {
        let coll = self
            .db
            .collection(tpox::SECURITY_COLL)
            .expect("lab has SDOC");
        let texts = synthetic::generate_queries(
            coll,
            &SyntheticConfig {
                queries: n,
                seed: 0x5aa5,
                wildcard_prob: 0.0,
                anchor_prob: 0.9,
                ..Default::default()
            },
        );
        Workload::from_texts(texts.iter().map(|s| s.as_str())).expect("sparse queries parse")
    }
}

/// Estimated total (frequency-weighted) workload cost with the given
/// candidate configuration installed as virtual indexes. Restores the
/// catalogs (no virtual indexes) before returning.
pub fn estimated_workload_cost(
    db: &mut Database,
    workload: &Workload,
    set: &CandidateSet,
    config: &[CandId],
) -> f64 {
    db.runstats_all();
    install_virtuals(db, set, config);
    let mut total = 0.0;
    for entry in workload.entries() {
        let coll = entry.statement.collection();
        let Some((collection, catalog, stats)) = db.parts(coll) else {
            continue;
        };
        let optimizer = Optimizer::new(collection, stats, catalog);
        total += entry.freq * optimizer.optimize(entry.statement).total_cost;
    }
    install_virtuals(db, set, &[]);
    total
}

fn install_virtuals(db: &mut Database, set: &CandidateSet, config: &[CandId]) {
    let names: Vec<String> = db
        .collection_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    for name in &names {
        if let Some(cat) = db.catalog_mut(name) {
            cat.drop_all_virtual();
        }
    }
    for &id in config {
        let c = set.get(id);
        let (pattern, kind, coll) = (c.pattern.clone(), c.kind, c.collection.clone());
        if let Some((collection, catalog, stats)) = db.parts_mut(&coll) {
            catalog.create_virtual(collection, stats, &pattern, kind);
        }
    }
}

/// Rounds per actual-execution measurement (fastest kept).
pub const EXEC_ROUNDS: usize = 3;

/// Result of a physical execution run.
#[derive(Debug, Clone, Default)]
pub struct ExecRun {
    /// Total wall time over all query statements.
    pub elapsed: Duration,
    /// Total documents matched.
    pub docs: u64,
    /// Total nodes visited.
    pub nodes: u64,
    /// Statements that used at least one index in their plan.
    pub indexed_statements: usize,
}

/// Executes all *query* statements of a workload physically under the
/// given configuration (materialized as physical indexes), measuring wall
/// time — the paper's actual-speedup measurement. Runs the workload
/// [`EXEC_ROUNDS`] times and keeps the fastest round to suppress timing
/// noise. Drops every index before returning.
pub fn actual_execution(
    db: &mut Database,
    workload: &Workload,
    set: &CandidateSet,
    config: &[CandId],
) -> ExecRun {
    // Clean slate, then materialize.
    let names: Vec<String> = db
        .collection_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    for name in &names {
        if let Some(cat) = db.catalog_mut(name) {
            cat.drop_all();
        }
    }
    xia_advisor::Advisor::materialize(db, set, config);
    db.runstats_all();

    let mut run = ExecRun::default();
    let mut best = Duration::MAX;
    for round in 0..EXEC_ROUNDS {
        let mut round_run = ExecRun::default();
        let start = Instant::now();
        for entry in workload.entries() {
            if entry.statement.is_modification() {
                continue;
            }
            let coll = entry.statement.collection();
            let Some((collection, catalog, stats)) = db.parts(coll) else {
                continue;
            };
            let optimizer = Optimizer::new(collection, stats, catalog);
            let plan = optimizer.optimize(entry.statement);
            if plan.uses_indexes() {
                round_run.indexed_statements += 1;
            }
            let reps = entry.freq.max(1.0) as usize;
            for _ in 0..reps {
                let result = execute_query(entry.statement, &plan, collection, catalog)
                    .expect("physical plans execute");
                round_run.docs += result.docs_matched;
                round_run.nodes += result.nodes_visited;
            }
        }
        let elapsed = start.elapsed();
        if round == 0 {
            run = round_run;
        }
        best = best.min(elapsed);
    }
    run.elapsed = best;

    for name in &names {
        if let Some(cat) = db.catalog_mut(name) {
            cat.drop_all();
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_advisor::{Advisor, AdvisorParams};

    #[test]
    fn lab_builds_and_workloads_parse() {
        let lab = TpoxLab::quick();
        assert_eq!(lab.workload().len(), 11);
        assert_eq!(lab.workload_with_updates().len(), 15);
        assert_eq!(lab.mixed_workload(9).len(), 20);
        assert_eq!(lab.synthetic_workload(5, 1).len(), 5);
    }

    #[test]
    fn estimated_cost_drops_with_indexes() {
        let mut lab = TpoxLab::quick();
        let w = lab.workload();
        let set = Advisor::prepare(&mut lab.db, &w, &AdvisorParams::default());
        let all = Advisor::all_index_config(&set);
        let base = estimated_workload_cost(&mut lab.db, &w, &set, &[]);
        let with = estimated_workload_cost(&mut lab.db, &w, &set, &all);
        assert!(with < base, "with={with} base={base}");
    }

    #[test]
    fn actual_execution_speeds_up_with_indexes() {
        let mut lab = TpoxLab::quick();
        let w = lab.workload();
        let set = Advisor::prepare(&mut lab.db, &w, &AdvisorParams::default());
        let all = Advisor::all_index_config(&set);
        let baseline = actual_execution(&mut lab.db, &w, &set, &[]);
        let indexed = actual_execution(&mut lab.db, &w, &set, &all);
        assert_eq!(baseline.indexed_statements, 0);
        assert!(indexed.indexed_statements > 5);
        // Results agree regardless of plan shape.
        assert_eq!(baseline.docs, indexed.docs);
        // Far less navigation with indexes.
        assert!(indexed.nodes * 2 < baseline.nodes);
    }
}
