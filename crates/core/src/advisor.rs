//! The advisor facade: end-to-end index recommendation.

use crate::benefit::{BenefitEvaluator, EvalStats, WhatIfBudget};
use crate::candidate::{CandId, CandOrigin, CandidateSet};
use crate::costing::CostingState;
use crate::enumerate::{enumerate_candidates_into, size_candidates_ids};
use crate::error::{StatementIssue, XiaError};
use crate::generalize::generalize_set_extend;
use crate::runctl::{RunController, StopReason};
use crate::search;
use std::time::{Duration, Instant};
use xia_fault::FaultInjector;
use xia_obs::{Counter, Event, EventJournal, Telemetry};
use xia_storage::{Database, StatsView};
use xia_workloads::Workload;
use xia_xpath::ValueKind;

/// Which configuration-search algorithm to run (paper Section VII-B
/// evaluates the first five; `cophy` is the post-paper scale-out for
/// huge workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchAlgorithm {
    /// Plain greedy by benefit density (ignores interaction).
    Greedy,
    /// Greedy with the paper's heuristics (Section VI-A).
    GreedyHeuristics,
    /// Top-down over the generalization DAG, standalone benefits.
    TopDownLite,
    /// Top-down with interaction-aware benefit evaluation.
    TopDownFull,
    /// Dynamic-programming knapsack (optimal modulo interaction).
    Dp,
    /// CoPhy-style: workload compression + LP-relaxation search with a
    /// certified quality bound (built for 100k+-statement workloads).
    Cophy,
}

impl SearchAlgorithm {
    /// All algorithms: the paper's five in presentation order, then
    /// `cophy`.
    pub const ALL: [SearchAlgorithm; 6] = [
        SearchAlgorithm::Greedy,
        SearchAlgorithm::GreedyHeuristics,
        SearchAlgorithm::TopDownLite,
        SearchAlgorithm::TopDownFull,
        SearchAlgorithm::Dp,
        SearchAlgorithm::Cophy,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SearchAlgorithm::Greedy => "greedy",
            SearchAlgorithm::GreedyHeuristics => "heuristics",
            SearchAlgorithm::TopDownLite => "topdown-lite",
            SearchAlgorithm::TopDownFull => "topdown-full",
            SearchAlgorithm::Dp => "dp",
            SearchAlgorithm::Cophy => "cophy",
        }
    }
}

/// Tunable advisor parameters.
#[derive(Debug, Clone)]
pub struct AdvisorParams {
    /// β of the greedy-heuristics size condition
    /// (`Size(x_g) ≤ (1+β)·ΣSize(x_i)`); the paper found 10% to work well.
    pub beta: f64,
    /// Telemetry sink threaded through the whole pipeline: phase timers,
    /// what-if call accounting, candidate counters. Enabled by default
    /// (the handle is near-zero-cost); swap in [`Telemetry::off`] to
    /// disable collection entirely.
    pub telemetry: Telemetry,
    /// Fault injector threaded through storage and the optimizer
    /// (disabled by default; see the `xia-fault` crate).
    pub faults: FaultInjector,
    /// What-if call budget (`--what-if-budget`); when exhausted, benefit
    /// evaluation falls back to cached and then heuristic costs (unlimited
    /// by default).
    pub what_if_budget: WhatIfBudget,
    /// Strict mode: fail with [`XiaError::StrictDegradation`] instead of
    /// returning a degraded recommendation.
    pub strict: bool,
    /// What-if worker threads for benefit evaluation (`--jobs`). `0` means
    /// auto-detect (one per available core); recommendations are identical
    /// for every value — only wall-clock time changes. Defaults to the
    /// `XIA_JOBS` environment variable, or 1.
    pub jobs: usize,
    /// Decision-provenance journal (`--journal`, `explain --why`). Unlike
    /// telemetry, journaling is *opt-in*: the default handle is disabled,
    /// so event payloads are never even constructed. All emission sites
    /// run on the coordinator thread in deterministic order, so the JSONL
    /// export is byte-identical for every `jobs` value.
    pub journal: EventJournal,
    /// Run-lifecycle controller (`--deadline-ms`, `--cancel-after-polls`):
    /// wall-clock deadline and cooperative cancellation.
    /// Disabled by default; a stopped run returns a partial
    /// recommendation ([`Recommendation::complete`] is `false`) instead
    /// of an error.
    pub ctl: RunController,
}

impl AdvisorParams {
    /// Resolves [`AdvisorParams::jobs`] to a concrete worker count
    /// (`0` → available parallelism).
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    fn default_jobs() -> usize {
        std::env::var("XIA_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1)
    }
}

impl Default for AdvisorParams {
    fn default() -> Self {
        Self {
            beta: 0.10,
            telemetry: Telemetry::new(),
            faults: FaultInjector::off(),
            what_if_budget: WhatIfBudget::unlimited(),
            strict: false,
            jobs: Self::default_jobs(),
            journal: EventJournal::off(),
            ctl: RunController::off(),
        }
    }
}

/// One recommended index.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendedIndex {
    /// Collection (XML column) to create the index on.
    pub collection: String,
    /// Index pattern (linear XPath).
    pub pattern: String,
    /// Key type.
    pub kind: ValueKind,
    /// Estimated size in bytes.
    pub size: u64,
    /// Whether the pattern came from generalization.
    pub general: bool,
}

/// The advisor's output.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Chosen candidate ids (into the candidate set used for the run).
    pub config: Vec<CandId>,
    /// Human-consumable index list.
    pub indexes: Vec<RecommendedIndex>,
    /// Estimated benefit of the configuration (paper formula).
    pub est_benefit: f64,
    /// Estimated workload cost with no indexes.
    pub baseline_cost: f64,
    /// Estimated workload cost under the configuration.
    pub workload_cost: f64,
    /// `baseline_cost / workload_cost`.
    pub speedup: f64,
    /// Total estimated size of the configuration.
    pub total_size: u64,
    /// Number of generalized indexes recommended (paper Table IV "G").
    pub general_count: usize,
    /// Number of specific (basic) indexes recommended (Table IV "S").
    pub specific_count: usize,
    /// Wall-clock advisor time (paper Fig. 3).
    pub advisor_time: Duration,
    /// Evaluate-mode optimizer calls made during the search.
    pub eval_stats: EvalStats,
    /// Basic candidates enumerated (paper Table III).
    pub candidates_basic: usize,
    /// Total candidates after generalization (Table III).
    pub candidates_total: usize,
    /// Statements quarantined during evaluation (missing collection,
    /// parse-stage issues appended by the caller). The recommendation
    /// covers the remaining statements.
    pub quarantined: Vec<StatementIssue>,
    /// Whether any fallback or quarantine degraded this run.
    pub degraded: bool,
    /// Benefit evaluations answered heuristically (injected faults,
    /// unavailable statistics, or what-if budget exhaustion).
    pub cost_fallbacks: u64,
    /// Whether the run ran to completion. `false` means the run
    /// controller stopped the search early (deadline or cancellation)
    /// and the configuration is the best one found so far.
    pub complete: bool,
    /// Why the run stopped early, when [`Recommendation::complete`] is
    /// `false`.
    pub stop: Option<StopReason>,
}

/// A recommendation produced by a run the controller stopped early:
/// best-so-far configuration plus the reason the search unwound.
#[derive(Debug, Clone)]
pub struct PartialRecommendation<'a> {
    /// The best-so-far recommendation (fully priced and sized).
    pub recommendation: &'a Recommendation,
    /// Why the run stopped.
    pub reason: StopReason,
}

impl Recommendation {
    /// The partial-result view, when the run was stopped early.
    pub fn partial(&self) -> Option<PartialRecommendation<'_>> {
        self.stop.map(|reason| PartialRecommendation {
            recommendation: self,
            reason,
        })
    }

    /// Renders the recommendation as a DB2-pureXML-style DDL script.
    ///
    /// ```text
    /// CREATE INDEX idx_sdoc_1 ON "SDOC" (XMLCOL)
    ///   GENERATE KEY USING XMLPATTERN '/Security/Symbol' AS SQL VARCHAR(64);
    /// ```
    pub fn ddl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut counters: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for ix in &self.indexes {
            let n = counters.entry(ix.collection.as_str()).or_insert(0);
            *n += 1;
            let sql_type = match ix.kind {
                ValueKind::Str => "SQL VARCHAR(64)",
                ValueKind::Num => "SQL DOUBLE",
            };
            let _ = writeln!(
                out,
                "CREATE INDEX idx_{}_{} ON \"{}\" (XMLCOL)\n  GENERATE KEY USING XMLPATTERN '{}' AS {};",
                ix.collection.to_lowercase(),
                n,
                ix.collection,
                ix.pattern,
                sql_type
            );
        }
        out
    }
}

/// The XML Index Advisor.
pub struct Advisor;

impl Advisor {
    /// The one-shot preamble, and the only part of advising that writes
    /// the database: refreshes stale statistics, drops virtual indexes a
    /// previous tool left in the catalogs, and attaches the sink that
    /// counts such storage-side work. Every `&mut Database` entry point
    /// runs it and then the same read-only code a shared snapshot runs
    /// ([`crate::TuningSession`]); a no-op on a database already fresh.
    pub fn freshen(db: &mut Database, telemetry: &Telemetry) {
        db.set_telemetry(telemetry);
        db.runstats_all();
        db.drop_all_virtual();
    }

    /// Enumerates, generalizes, and sizes the candidate set for a workload
    /// (steps 1–2 of the pipeline). Exposed separately so experiments can
    /// share one candidate set across searches.
    pub fn prepare(db: &mut Database, workload: &Workload, params: &AdvisorParams) -> CandidateSet {
        Self::freshen(db, &params.telemetry);
        Self::prepare_on(db, workload, params)
    }

    /// [`Advisor::prepare`] over a database that is only read.
    pub(crate) fn prepare_on(
        db: &Database,
        workload: &Workload,
        params: &AdvisorParams,
    ) -> CandidateSet {
        let mut set = CandidateSet::new();
        Self::extend_prepared(db, workload, 0, &mut set, params);
        set
    }

    /// Brings a prepared candidate set up to date with a workload that
    /// grew by entries `from..`: enumerates the new statements into `set`,
    /// extends the generalization closure from the new candidates, and
    /// sizes what was added. With `from == 0` and an empty set this is the
    /// whole of preparation. Enumeration and sizing each see their own
    /// stats-unavailable roll; the database is only read.
    pub(crate) fn extend_prepared(
        db: &Database,
        workload: &Workload,
        from: usize,
        set: &mut CandidateSet,
        params: &AdvisorParams,
    ) {
        let t = &params.telemetry;
        let mut added = {
            let _enumerate = t.span("enumerate");
            let view = StatsView::roll(db, &params.faults);
            enumerate_candidates_into(&view, workload, from, set, t)
        };
        t.add(Counter::CandidatesEnumerated, added.len() as u64);
        if params.journal.is_enabled() {
            for &id in &added {
                let c = set.get(id);
                params.journal.emit(|| Event::CandidateGenerated {
                    collection: c.collection.clone(),
                    pattern: c.pattern.to_string(),
                    kind: c.kind.to_string(),
                    origin: "basic".to_string(),
                });
            }
        }
        let created = {
            let _generalize = t.span("generalize");
            // Seeded with every candidate of a new set, the extending
            // fixpoint is the full semi-naive fixpoint.
            generalize_set_extend(set, &added, t, &params.journal)
        };
        t.add(Counter::CandidatesGeneralized, created.len() as u64);
        added.extend(created);
        let _size = t.span("size");
        let view = StatsView::roll(db, &params.faults);
        size_candidates_ids(&view, set, &added, t);
    }

    /// The *All Index* configuration: one index per basic candidate — the
    /// paper's upper-bound configuration for query-only workloads.
    pub fn all_index_config(set: &CandidateSet) -> Vec<CandId> {
        set.basic_ids()
    }

    /// Runs the full pipeline and recommends a configuration within
    /// `budget` bytes using `algorithm`.
    ///
    /// Degrades gracefully: statements that cannot be costed are
    /// quarantined (reported in [`Recommendation::quarantined`]) and
    /// optimizer failures fall back to heuristic costs — an `Err` means
    /// no useful recommendation exists at all (empty workload, everything
    /// quarantined, or strict mode refusing degradation).
    ///
    /// A [`SearchAlgorithm::Cophy`] run first clusters the workload into
    /// weighted cost-identity templates and advises over the
    /// representatives ([`crate::compress`]; lossless for advising). Its
    /// per-statement reference is [`Advisor::prepare`] +
    /// [`Advisor::recommend_prepared`] over the raw workload.
    pub fn recommend(
        db: &mut Database,
        workload: &Workload,
        budget: u64,
        algorithm: SearchAlgorithm,
        params: &AdvisorParams,
    ) -> Result<Recommendation, XiaError> {
        if workload.is_empty() {
            return Err(XiaError::EmptyWorkload);
        }
        Self::freshen(db, &params.telemetry);
        let compressed;
        let workload = if algorithm == SearchAlgorithm::Cophy {
            let _compress = params.telemetry.span("compress");
            compressed =
                crate::compress::compress_workload(workload, &params.telemetry, &params.journal);
            &compressed.workload
        } else {
            workload
        };
        let start = Instant::now();
        let _advise = params.telemetry.span("advise");
        let set = Self::prepare_on(db, workload, params);
        let mut state = CostingState::default();
        Self::search_prepared(
            db, workload, &set, budget, algorithm, params, start, &mut state,
        )
    }

    /// Runs only the search step over a prepared candidate set (used by
    /// the experiment harness to share enumeration/generalization work).
    pub fn recommend_prepared(
        db: &mut Database,
        workload: &Workload,
        set: &CandidateSet,
        budget: u64,
        algorithm: SearchAlgorithm,
        params: &AdvisorParams,
    ) -> Result<Recommendation, XiaError> {
        Self::freshen(db, &params.telemetry);
        let mut state = CostingState::default();
        Self::recommend_retained(db, workload, set, budget, algorithm, params, &mut state)
    }

    /// [`Advisor::recommend_prepared`] over a database that is only read
    /// and a costing state the caller keeps: costs `state` already holds
    /// for `workload` and `set` are searched, not recomputed, and what
    /// this run computes stays in it. The one-shot entry points pass a
    /// fresh state and drop it; [`crate::TuningSession`] keeps one.
    pub fn recommend_retained(
        db: &Database,
        workload: &Workload,
        set: &CandidateSet,
        budget: u64,
        algorithm: SearchAlgorithm,
        params: &AdvisorParams,
        state: &mut CostingState,
    ) -> Result<Recommendation, XiaError> {
        if workload.is_empty() {
            return Err(XiaError::EmptyWorkload);
        }
        let start = Instant::now();
        let _advise = params.telemetry.span("advise");
        Self::search_prepared(db, workload, set, budget, algorithm, params, start, state)
    }

    /// Baseline costing, search, and pricing of the chosen configuration;
    /// `start` is when the enclosing "advise" span opened.
    #[allow(clippy::too_many_arguments)]
    fn search_prepared(
        db: &Database,
        workload: &Workload,
        set: &CandidateSet,
        budget: u64,
        algorithm: SearchAlgorithm,
        params: &AdvisorParams,
        start: Instant,
        state: &mut CostingState,
    ) -> Result<Recommendation, XiaError> {
        let basic = set.basic_ids().len();
        let total = set.len();
        let mut ev = BenefitEvaluator::retained(db, workload, set, params, state);
        Self::check_viability(&ev, params)?;
        let config = {
            let _search = params.telemetry.span("search");
            Self::search_with(&mut ev, set, budget, algorithm, params)
        };
        Self::finish_checked(set, &mut ev, config, basic, total, start, params)
    }

    /// Rejects runs where nothing survived quarantine.
    fn check_viability(ev: &BenefitEvaluator<'_>, _params: &AdvisorParams) -> Result<(), XiaError> {
        if ev.active_statements() == 0 {
            return Err(XiaError::AllStatementsQuarantined {
                total: ev.quarantined().len(),
            });
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_checked(
        set: &CandidateSet,
        ev: &mut BenefitEvaluator<'_>,
        config: Vec<CandId>,
        candidates_basic: usize,
        candidates_total: usize,
        start: Instant,
        params: &AdvisorParams,
    ) -> Result<Recommendation, XiaError> {
        let rec = Self::finish(set, ev, config, candidates_basic, candidates_total, start);
        if params.strict && rec.degraded {
            return Err(XiaError::StrictDegradation {
                quarantined: rec.quarantined.len(),
                fallbacks: rec.cost_fallbacks,
            });
        }
        Ok(rec)
    }

    fn search_with(
        ev: &mut BenefitEvaluator<'_>,
        set: &CandidateSet,
        budget: u64,
        algorithm: SearchAlgorithm,
        params: &AdvisorParams,
    ) -> Vec<CandId> {
        // Every algorithm records a span named after itself, nested under
        // the generic "search" phase, so `--trace` latency histograms
        // carry one search-loop row per `--algorithm` value.
        let _algo = params.telemetry.span(algorithm.name());
        let all: Vec<CandId> = set.ids().collect();
        match algorithm {
            SearchAlgorithm::Greedy => search::greedy(ev, &all, budget),
            SearchAlgorithm::GreedyHeuristics => {
                search::greedy_heuristics(ev, &all, budget, params.beta)
            }
            SearchAlgorithm::TopDownLite => search::top_down(ev, &all, budget, false),
            SearchAlgorithm::TopDownFull => search::top_down(ev, &all, budget, true),
            SearchAlgorithm::Dp => search::dp_knapsack(ev, &all, budget),
            SearchAlgorithm::Cophy => search::cophy(ev, &all, budget),
        }
    }

    fn finish(
        set: &CandidateSet,
        ev: &mut BenefitEvaluator<'_>,
        config: Vec<CandId>,
        candidates_basic: usize,
        candidates_total: usize,
        start: Instant,
    ) -> Recommendation {
        ev.telemetry()
            .add(Counter::CandidatesAdmitted, config.len() as u64);
        // This run's containment work, not the lifetime total of a state
        // that may have served earlier runs.
        let cover = ev.cover_stats();
        ev.telemetry().add(Counter::ContainCacheHits, cover.hits);
        ev.telemetry()
            .add(Counter::ContainFastRejects, cover.fast_rejects);
        let est_benefit = ev.benefit(&config);
        let baseline_cost = ev.baseline_cost();
        let workload_cost = ev.workload_cost(&config);
        let speedup = if workload_cost <= 0.0 {
            f64::INFINITY
        } else {
            baseline_cost / workload_cost
        };
        let indexes: Vec<RecommendedIndex> = config
            .iter()
            .map(|&id| {
                let c = set.get(id);
                RecommendedIndex {
                    collection: c.collection.clone(),
                    pattern: c.pattern.to_string(),
                    kind: c.kind,
                    size: c.size,
                    general: c.origin == CandOrigin::Generalized,
                }
            })
            .collect();
        let general_count = indexes.iter().filter(|i| i.general).count();
        let specific_count = indexes.len() - general_count;
        let total_size = set.config_size(&config);
        // The authoritative admission record: every index in the final
        // configuration gets a KEPT decision with the configuration-level
        // benefit, whatever the search algorithm recorded along the way.
        for ix in &indexes {
            ev.journal().emit(|| Event::KnapsackDecision {
                pattern: ix.pattern.clone(),
                kept: true,
                benefit: est_benefit,
                size: ix.size,
            });
        }
        // A stopped run records why (coordinator-side, after the partial
        // configuration was priced).
        let stop = ev.ctl().stopped();
        if let Some(reason) = stop {
            ev.journal().emit(|| Event::RunStopped {
                reason: reason.name().to_string(),
            });
        }
        Recommendation {
            config,
            indexes,
            est_benefit,
            baseline_cost,
            workload_cost,
            speedup,
            total_size,
            general_count,
            specific_count,
            advisor_time: start.elapsed(),
            eval_stats: ev.eval_stats(),
            candidates_basic,
            candidates_total,
            quarantined: ev.quarantined().to_vec(),
            degraded: ev.is_degraded(),
            cost_fallbacks: ev.fallback_count(),
            complete: stop.is_none(),
            stop,
        }
    }

    /// What-if analysis: evaluates a *user-specified* index configuration
    /// (collection, pattern, kind triples) against a workload, without
    /// creating any physical index — the advisor-as-a-library equivalent
    /// of `db2advis -i`. Patterns that duplicate enumerated candidates are
    /// merged with them; new patterns become ad-hoc candidates with
    /// affected sets computed by coverage against the basic candidates.
    pub fn what_if(
        db: &mut Database,
        workload: &Workload,
        indexes: &[(String, xia_xpath::LinearPath, ValueKind)],
        params: &AdvisorParams,
    ) -> Result<Recommendation, XiaError> {
        if workload.is_empty() {
            return Err(XiaError::EmptyWorkload);
        }
        Self::freshen(db, &params.telemetry);
        let start = Instant::now();
        let _advise = params.telemetry.span("advise");
        let mut set = Self::prepare_on(db, workload, params);
        let mut config = Vec::new();
        let basics = set.basic_ids();
        for (coll, pattern, kind) in indexes {
            let id = set.insert(coll, pattern, *kind, CandOrigin::Generalized);
            // Affected set by coverage over the basic candidates.
            let mut affected = set.get(id).affected.clone();
            for &b in &basics {
                let cb = set.get(b);
                if &cb.collection == coll
                    && cb.kind == *kind
                    && xia_xpath::contain::covers(pattern, &cb.pattern)
                {
                    let cb_affected = cb.affected.clone();
                    affected.union_with(&cb_affected);
                }
            }
            set.get_mut(id).affected = affected;
            if !config.contains(&id) {
                config.push(id);
            }
        }
        let ids: Vec<CandId> = set.ids().collect();
        let view = StatsView::roll(db, &params.faults);
        size_candidates_ids(&view, &mut set, &ids, &params.telemetry);
        let basic = set.basic_ids().len();
        let total = set.len();
        let mut ev = BenefitEvaluator::configured(db, workload, &set, params);
        Self::check_viability(&ev, params)?;
        Self::finish_checked(&set, &mut ev, config, basic, total, start, params)
    }

    /// Materializes a recommendation: builds the recommended indexes as
    /// physical indexes in the database's catalogs. Returns the number of
    /// indexes created. (Used for actual-speedup measurements, Fig. 5.)
    pub fn materialize(db: &mut Database, set: &CandidateSet, config: &[CandId]) -> usize {
        let mut created = 0;
        for &id in config {
            let c = set.get(id);
            let (coll, pattern, kind) = (c.collection.clone(), c.pattern.clone(), c.kind);
            if let Some((collection, catalog, _)) = db.parts_mut(&coll) {
                catalog.create_physical(collection, &pattern, kind);
                created += 1;
            }
        }
        created
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_workloads::tpox::{self, TpoxConfig};

    fn setup() -> (Database, Workload) {
        let mut db = Database::new();
        let cfg = TpoxConfig::tiny();
        tpox::generate(&mut db, &cfg);
        let w = Workload::from_texts(tpox::queries(&cfg).iter().map(|s| s.as_str())).unwrap();
        (db, w)
    }

    #[test]
    fn all_algorithms_fit_the_budget_and_speed_up() {
        let (mut db, w) = setup();
        let params = AdvisorParams::default();
        let set = Advisor::prepare(&mut db, &w, &params);
        let all_size = set.config_size(&Advisor::all_index_config(&set));
        let budget = all_size; // generous budget
        for algo in SearchAlgorithm::ALL {
            let rec =
                Advisor::recommend_prepared(&mut db, &w, &set, budget, algo, &params).unwrap();
            assert!(
                rec.total_size <= budget,
                "{}: size {} > budget {budget}",
                algo.name(),
                rec.total_size
            );
            assert!(
                rec.speedup > 1.0,
                "{}: speedup {} not > 1",
                algo.name(),
                rec.speedup
            );
            assert!(!rec.config.is_empty(), "{}: empty config", algo.name());
        }
    }

    #[test]
    fn tight_budget_yields_smaller_configs() {
        let (mut db, w) = setup();
        let params = AdvisorParams::default();
        let set = Advisor::prepare(&mut db, &w, &params);
        let all_size = set.config_size(&Advisor::all_index_config(&set));
        let big = Advisor::recommend_prepared(
            &mut db,
            &w,
            &set,
            all_size,
            SearchAlgorithm::GreedyHeuristics,
            &params,
        )
        .unwrap();
        let small = Advisor::recommend_prepared(
            &mut db,
            &w,
            &set,
            all_size / 8,
            SearchAlgorithm::GreedyHeuristics,
            &params,
        )
        .unwrap();
        assert!(small.total_size <= all_size / 8);
        assert!(small.config.len() <= big.config.len());
        assert!(small.speedup <= big.speedup * 1.01);
    }

    #[test]
    fn top_down_recommends_more_general_indexes_than_heuristics() {
        let (mut db, w) = setup();
        let params = AdvisorParams::default();
        let set = Advisor::prepare(&mut db, &w, &params);
        // Large budget: top-down keeps generals, heuristics sticks to
        // specifics (paper Table IV).
        let budget = set.config_size(&set.ids().collect::<Vec<_>>());
        let td = Advisor::recommend_prepared(
            &mut db,
            &w,
            &set,
            budget,
            SearchAlgorithm::TopDownLite,
            &params,
        )
        .unwrap();
        let gh = Advisor::recommend_prepared(
            &mut db,
            &w,
            &set,
            budget,
            SearchAlgorithm::GreedyHeuristics,
            &params,
        )
        .unwrap();
        assert!(
            td.general_count >= gh.general_count,
            "topdown G={} heuristics G={}",
            td.general_count,
            gh.general_count
        );
    }

    #[test]
    fn recommendation_reports_candidate_counts() {
        let (mut db, w) = setup();
        let rec = Advisor::recommend(
            &mut db,
            &w,
            u64::MAX / 2,
            SearchAlgorithm::Greedy,
            &AdvisorParams::default(),
        )
        .unwrap();
        assert!(rec.candidates_basic > 0);
        assert!(rec.candidates_total >= rec.candidates_basic);
        assert!(rec.eval_stats.optimizer_calls > 0);
        assert!(rec.advisor_time.as_nanos() > 0);
    }

    #[test]
    fn zero_budget_recommends_nothing() {
        let (mut db, w) = setup();
        for algo in SearchAlgorithm::ALL {
            let rec = Advisor::recommend(&mut db, &w, 0, algo, &AdvisorParams::default()).unwrap();
            assert!(rec.config.is_empty(), "{}: {:?}", algo.name(), rec.indexes);
            assert_eq!(rec.total_size, 0);
        }
    }

    #[test]
    fn materialize_creates_physical_indexes() {
        let (mut db, w) = setup();
        let params = AdvisorParams::default();
        let set = Advisor::prepare(&mut db, &w, &params);
        let rec = Advisor::recommend_prepared(
            &mut db,
            &w,
            &set,
            u64::MAX / 2,
            SearchAlgorithm::GreedyHeuristics,
            &params,
        )
        .unwrap();
        let n = Advisor::materialize(&mut db, &set, &rec.config);
        assert_eq!(n, rec.config.len());
        let total_phys: usize = db
            .collection_names()
            .iter()
            .map(|c| {
                db.catalog(c)
                    .unwrap()
                    .iter()
                    .filter(|d| !d.is_virtual())
                    .count()
            })
            .sum();
        assert_eq!(total_phys, n);
    }

    #[test]
    fn what_if_prices_user_configurations() {
        let (mut db, w) = setup();
        let params = AdvisorParams::default();
        // A config the user proposes by hand: one good index, one useless.
        let config = vec![
            (
                "SDOC".to_string(),
                xia_xpath::parse_linear_path("/Security/Symbol").unwrap(),
                ValueKind::Str,
            ),
            (
                "SDOC".to_string(),
                xia_xpath::parse_linear_path("/Security/NoSuchThing").unwrap(),
                ValueKind::Str,
            ),
        ];
        let rec = Advisor::what_if(&mut db, &w, &config, &params).unwrap();
        assert_eq!(rec.config.len(), 2);
        assert!(rec.speedup > 1.0, "symbol index must pay off");
        // The useless index contributes size but no benefit.
        assert!(rec
            .indexes
            .iter()
            .any(|i| i.pattern == "/Security/NoSuchThing"));
    }

    #[test]
    fn what_if_general_pattern_covers_multiple_queries() {
        let (mut db, w) = setup();
        let params = AdvisorParams::default();
        let config = vec![(
            "SDOC".to_string(),
            xia_xpath::parse_linear_path("/Security//*").unwrap(),
            ValueKind::Str,
        )];
        let rec = Advisor::what_if(&mut db, &w, &config, &params).unwrap();
        assert!(rec.speedup > 1.0);
    }
}
