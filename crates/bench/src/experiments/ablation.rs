//! E9 ablations: the design choices DESIGN.md calls out.
//!
//! * **Benefit-evaluation machinery** (paper Section VI-C): affected sets,
//!   sub-configuration decomposition, and the evaluation cache each reduce
//!   Evaluate-mode optimizer calls. Measured by running the same search
//!   with each switch disabled.
//! * **β sweep** (Section VI-A): the greedy-heuristics size-expansion
//!   threshold; the paper found β = 10% to work well.

use crate::lab::TpoxLab;
use crate::report::{f, Table};
use std::time::Instant;
use xia_advisor::{search, Advisor, AdvisorParams, BenefitEvaluator};

/// One ablation configuration result.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which switches were on: (affected sets, sub-configs, cache).
    pub switches: (bool, bool, bool),
    /// What-if worker threads used for the search.
    pub jobs: usize,
    /// Evaluate-mode optimizer calls during the search.
    pub optimizer_calls: u64,
    /// Wall time of the search in milliseconds.
    pub ms: f64,
    /// Benefit of the final configuration (sanity: should not change).
    pub benefit: f64,
    /// Sub-configuration cache hits (telemetry) during the search.
    pub cache_hits: u64,
    /// Sub-configuration cache misses (telemetry) during the search.
    pub cache_misses: u64,
    /// Per-statement costings served from the projection-keyed statement
    /// cost cache (telemetry) during the search.
    pub stmt_cache_hits: u64,
}

/// Runs greedy-with-heuristics under each combination of evaluator
/// switches, single- and multi-threaded (the all-on combo repeats at
/// `jobs = 4` so the table reports the parallel evaluation time
/// alongside the serial one). The cache switch turns off both memo
/// levels, the sub-configuration memo and the statement cache, so a
/// cache-off row sends every costing to the optimizer.
pub fn run_switches(lab: &mut TpoxLab) -> Vec<AblationRow> {
    let workload = lab.workload();
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, &workload, &params);
    let all: Vec<_> = set.ids().collect();
    let budget = set.config_size(&Advisor::all_index_config(&set));

    let combos = [
        (true, true, true, 1),
        (true, true, true, 4),
        (false, true, true, 1),
        (true, false, true, 1),
        (true, true, false, 1),
        (false, false, false, 1),
    ];
    let mut rows = Vec::new();
    for (aff, sub, cache, jobs) in combos {
        let telemetry = xia_obs::Telemetry::new();
        let mut ev = BenefitEvaluator::new(&mut lab.db, &workload, &set);
        ev.set_telemetry(&telemetry);
        ev.set_jobs(jobs);
        ev.use_affected_sets = aff;
        ev.use_subconfigs = sub;
        ev.use_cache = cache;
        let calls0 = ev.eval_stats().optimizer_calls;
        let start = Instant::now();
        let config = search::greedy_heuristics(&mut ev, &all, budget, params.beta);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let calls = ev.eval_stats().optimizer_calls - calls0;
        let cache_hits = telemetry.get(xia_obs::Counter::BenefitCacheHits);
        let cache_misses = telemetry.get(xia_obs::Counter::BenefitCacheMisses);
        let stmt_cache_hits = telemetry.get(xia_obs::Counter::StmtCacheHits);
        let benefit = ev.benefit(&config);
        rows.push(AblationRow {
            switches: (aff, sub, cache),
            jobs,
            optimizer_calls: calls,
            ms,
            benefit,
            cache_hits,
            cache_misses,
            stmt_cache_hits,
        });
    }
    rows
}

/// Renders the switch-ablation table.
pub fn switches_table(rows: &[AblationRow]) -> Table {
    let mut t = Table::new(
        "Ablation — benefit-evaluation machinery (greedy+heuristics search)",
        &[
            "affected-sets",
            "sub-configs",
            "cache",
            "jobs",
            "optimizer calls",
            "ms",
            "benefit",
            "cache hits",
            "cache misses",
            "stmt cache hits",
        ],
    );
    for r in rows {
        t.row(vec![
            r.switches.0.to_string(),
            r.switches.1.to_string(),
            r.switches.2.to_string(),
            r.jobs.to_string(),
            r.optimizer_calls.to_string(),
            f(r.ms),
            f(r.benefit),
            r.cache_hits.to_string(),
            r.cache_misses.to_string(),
            r.stmt_cache_hits.to_string(),
        ]);
    }
    t
}

/// One β-sweep result.
#[derive(Debug, Clone)]
pub struct BetaRow {
    /// β value.
    pub beta: f64,
    /// Generalized indexes recommended.
    pub general: usize,
    /// Specific indexes recommended.
    pub specific: usize,
    /// Estimated speedup.
    pub speedup: f64,
}

/// Sweeps β for greedy-with-heuristics at a generous budget.
pub fn run_beta(lab: &mut TpoxLab, betas: &[f64]) -> Vec<BetaRow> {
    let workload = lab.mixed_workload(9);
    let base_params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, &workload, &base_params);
    let budget = 4 * set.config_size(&Advisor::all_index_config(&set));
    let mut rows = Vec::new();
    for &beta in betas {
        let params = AdvisorParams {
            beta,
            ..AdvisorParams::default()
        };
        let rec = Advisor::recommend_prepared(
            &mut lab.db,
            &workload,
            &set,
            budget,
            xia_advisor::SearchAlgorithm::GreedyHeuristics,
            &params,
        )
        .expect("advise");
        rows.push(BetaRow {
            beta,
            general: rec.general_count,
            specific: rec.specific_count,
            speedup: rec.speedup,
        });
    }
    rows
}

/// Renders the β-sweep table.
pub fn beta_table(rows: &[BetaRow]) -> Table {
    let mut t = Table::new(
        "Ablation — β sweep for the greedy-heuristics size condition",
        &["beta", "general", "specific", "speedup"],
    );
    for r in rows {
        t.row(vec![
            format!("{:.2}", r.beta),
            r.general.to_string(),
            r.specific.to_string(),
            f(r.speedup),
        ]);
    }
    t
}

/// Default β values.
pub const DEFAULT_BETAS: [f64; 6] = [0.0, 0.05, 0.10, 0.25, 0.50, 1.00];

#[cfg(test)]
mod tests {
    use super::*;
    use xia_advisor::SearchAlgorithm;
    use xia_obs::{Counter, Telemetry};

    #[test]
    fn cache_ablation_shows_canonical_hit_rate() {
        let mut lab = TpoxLab::quick();
        let rows = run_switches(&mut lab);
        let by = |aff: bool, sub: bool, cache: bool, jobs: usize| {
            rows.iter()
                .find(|r| r.switches == (aff, sub, cache) && r.jobs == jobs)
                .expect("combo present")
                .clone()
        };
        let cached = by(true, true, true, 1);
        let uncached = by(true, true, false, 1);
        // The cache must absorb repeat evaluations: strictly fewer
        // Evaluate-mode optimizer calls, same final benefit.
        assert!(
            cached.optimizer_calls < uncached.optimizer_calls,
            "cached={} uncached={}",
            cached.optimizer_calls,
            uncached.optimizer_calls
        );
        assert!((cached.benefit - uncached.benefit).abs() < 1e-6 * uncached.benefit.abs().max(1.0));
        assert_eq!(uncached.stmt_cache_hits, 0, "cache off serves nothing");
        // Canonical (sorted) keys: the greedy-heuristics search revisits
        // sub-configurations in many orders, so a healthy share of lookups
        // must hit. Insertion-order keys used to leave this near zero.
        let hit_rate =
            cached.cache_hits as f64 / (cached.cache_hits + cached.cache_misses).max(1) as f64;
        assert!(
            hit_rate > 0.25,
            "hit rate {hit_rate:.3} ({} hits / {} misses)",
            cached.cache_hits,
            cached.cache_misses
        );
        // The parallel all-on row is the same search: identical call count
        // and benefit, whatever the worker count.
        let par = by(true, true, true, 4);
        assert_eq!(par.optimizer_calls, cached.optimizer_calls);
        assert_eq!(par.cache_hits, cached.cache_hits);
        assert_eq!(par.cache_misses, cached.cache_misses);
        assert!((par.benefit - cached.benefit).abs() < 1e-12);
    }

    #[test]
    fn pruning_ablation_hits_statement_cache() {
        // The CI gate on statement-relevance pruning: the statement cache
        // must actually serve costings (a silent regression would leave
        // this at zero) ...
        let mut lab = TpoxLab::quick();
        let rows = run_switches(&mut lab);
        let all_on = rows
            .iter()
            .find(|r| r.switches == (true, true, true) && r.jobs == 1)
            .expect("combo present");
        assert!(
            all_on.stmt_cache_hits > 0,
            "pruning never hit the statement cost cache"
        );
        // ... and pay where it is meant to: on the anchored sparse
        // workload, overlapping relevance merges what-if groups across
        // many statements, and a delta probe re-costs only the statements
        // relevant to the added candidate. Each statement-cache hit is an
        // optimizer call a cache-off evaluator makes, so (calls + hits) /
        // calls is the factor the layer saves: at least 3×.
        let workload = lab.sparse_workload(96);
        let set = Advisor::prepare(&mut lab.db, &workload, &AdvisorParams::default());
        let budget = (set.config_size(&Advisor::all_index_config(&set)) as f64 * 0.75).round();
        let telemetry = Telemetry::new();
        let params = AdvisorParams {
            telemetry: telemetry.clone(),
            ..AdvisorParams::default()
        };
        Advisor::recommend_prepared(
            &mut lab.db,
            &workload,
            &set,
            budget as u64,
            SearchAlgorithm::GreedyHeuristics,
            &params,
        )
        .expect("advise");
        let calls = telemetry.get(Counter::OptimizerEvaluateCalls);
        let hits = telemetry.get(Counter::StmtCacheHits);
        assert!(
            calls + hits >= 3 * calls,
            "expected ≥3× fewer calls: {calls} calls, {hits} statement-cache hits"
        );
        assert!(telemetry.get(Counter::DeltaProbes) > 0);
    }
}
