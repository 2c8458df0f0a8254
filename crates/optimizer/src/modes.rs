//! The optimizer proper, with the two advisor-facing modes.
//!
//! Evaluate mode is split in two. [`Optimizer::prepare`] does everything
//! about a statement that no catalog can change — normalization, one
//! [`PatternStats::collect`] per distinct path, per-pattern document and
//! posting estimates, the scan alternative's cost — and
//! [`Optimizer::plan`] does the rest per configuration: index matching,
//! probe costing against each matching definition's statistics, greedy
//! index-ANDing. `plan` is the only planner; [`Optimizer::optimize`] is
//! `plan(&prepare(stmt))`. An advisor that prices one statement under
//! thousands of sub-configurations prepares it once.

use crate::cost::CostModel;
use crate::maintenance;
use crate::matching::{self, CandidatePattern};
use crate::plan::{AccessChoice, IndexUse, Plan, PlanStep};
use crate::selectivity::PatternStats;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use xia_fault::{FaultInjector, FaultSite, InjectedFault};
use xia_obs::{Counter, Telemetry};
use xia_storage::{Catalog, CatalogView, Collection, CollectionStats};
use xia_xpath::{
    normalize_statement, AccessPattern, LinearPath, NormalizedQuery, PatternPred, Statement,
    ValueKind,
};

/// An Evaluate-mode costing failure. The what-if interface treats the
/// optimizer as an oracle; this is the oracle declining to answer — the
/// advisor degrades to cached or heuristic costs instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostError {
    /// A fault injected by the xia-fault harness.
    Injected(InjectedFault),
    /// Collection statistics were unavailable or stale for the named
    /// collection, so no cost estimate could be produced.
    StatsUnavailable(String),
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::Injected(e) => write!(f, "optimizer cost estimation failed: {e}"),
            CostError::StatsUnavailable(coll) => {
                write!(f, "statistics unavailable for collection `{coll}`")
            }
        }
    }
}

impl std::error::Error for CostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CostError::Injected(e) => Some(e),
            CostError::StatsUnavailable(_) => None,
        }
    }
}

/// A cost-based optimizer bound to one collection's data, statistics, and
/// catalog — the server-side component the advisor calls into.
pub struct Optimizer<'a> {
    collection: &'a Collection,
    stats: &'a CollectionStats,
    catalog: CatalogView<'a>,
    cost_model: CostModel,
    evaluate_calls: Cell<u64>,
    /// Telemetry sink for mode entry points, index-matching attempts, and
    /// selectivity estimates (off unless attached).
    telemetry: Telemetry,
    /// Fault injector for Evaluate-mode failures (off unless attached).
    faults: FaultInjector,
}

impl<'a> Optimizer<'a> {
    /// Binds an optimizer to a collection.
    pub fn new(
        collection: &'a Collection,
        stats: &'a CollectionStats,
        catalog: &'a Catalog,
    ) -> Self {
        Self::with_cost_model(collection, stats, catalog, CostModel::default())
    }

    /// Binds an optimizer to a catalog view (base catalog plus an optional
    /// what-if overlay). This is Evaluate mode's side-effect-free entry
    /// point: the candidate configuration lives in the overlay, the shared
    /// catalog is never mutated, and any number of such optimizers can
    /// cost concurrently against the same database.
    pub fn with_view(
        collection: &'a Collection,
        stats: &'a CollectionStats,
        view: CatalogView<'a>,
    ) -> Self {
        Self::with_view_cost_model(collection, stats, view, CostModel::default())
    }

    /// Binds an optimizer with a custom cost model.
    pub fn with_cost_model(
        collection: &'a Collection,
        stats: &'a CollectionStats,
        catalog: &'a Catalog,
        cost_model: CostModel,
    ) -> Self {
        Self::with_view_cost_model(collection, stats, catalog.view(), cost_model)
    }

    /// [`Optimizer::with_view`] with a custom cost model.
    pub fn with_view_cost_model(
        collection: &'a Collection,
        stats: &'a CollectionStats,
        view: CatalogView<'a>,
        cost_model: CostModel,
    ) -> Self {
        Self {
            collection,
            stats,
            catalog: view,
            cost_model,
            evaluate_calls: Cell::new(0),
            telemetry: Telemetry::off(),
            faults: FaultInjector::off(),
        }
    }

    /// Attaches a telemetry sink; subsequent mode calls count against it.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// Attaches a fault injector; subsequent [`Optimizer::try_optimize`]
    /// calls roll its `optimizer-cost` site.
    pub fn set_faults(&mut self, faults: &FaultInjector) {
        self.faults = faults.clone();
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Number of Evaluate-mode invocations so far (the paper's Fig. 3
    /// efficiency metric).
    pub fn evaluate_calls(&self) -> u64 {
        self.evaluate_calls.get()
    }

    /// Resets the Evaluate-mode call counter.
    pub fn reset_calls(&self) {
        self.evaluate_calls.set(0);
    }

    /// **Enumerate Indexes mode** (paper Section IV): optimize `stmt` with
    /// the universal `//*` virtual index in place and return the rewritten
    /// query patterns that index matching matched — the basic candidates.
    ///
    /// The returned patterns have predicates already folded in (the access
    /// patterns of the normalized statement) and carry the key type implied
    /// by the compared literal.
    pub fn enumerate_indexes(&self, stmt: &Statement) -> Vec<CandidatePattern> {
        self.telemetry.incr(Counter::OptimizerEnumerateCalls);
        let Some(nq) = normalize_statement(stmt) else {
            return Vec::new(); // inserts read nothing
        };
        let mut out: Vec<CandidatePattern> = Vec::new();
        for ap in nq.patterns.iter().chain(nq.or_groups.iter().flatten()) {
            // The //* universal index matches every indexable pattern.
            if !matching::pattern_is_indexable(ap) {
                continue;
            }
            // Existence patterns become string-typed candidates (the key
            // type is irrelevant for structural access; DB2 would create a
            // VARCHAR index).
            let kind = ap.pred.value_kind().unwrap_or(ValueKind::Str);
            let cand = CandidatePattern {
                collection: nq.collection.clone(),
                pattern: ap.linear.clone(),
                kind,
            };
            if !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }

    /// **Evaluate Indexes mode** (paper Section III): return the best plan
    /// for `stmt` under the current catalog, virtual indexes included.
    /// Counted — the advisor's benefit evaluation efficiency is measured in
    /// these calls. The one-shot form of [`Optimizer::prepare`] followed by
    /// [`Optimizer::plan`].
    pub fn optimize(&self, stmt: &Statement) -> Plan {
        self.plan(&self.prepare(stmt))
    }

    /// Fallible Evaluate-mode entry point: like [`Optimizer::optimize`],
    /// but rolls the attached fault injector's `optimizer-cost` site first
    /// and reports the failure instead of costing. Direct execution paths
    /// keep the infallible [`Optimizer::optimize`].
    pub fn try_optimize(&self, stmt: &Statement) -> Result<Plan, CostError> {
        self.roll_cost_fault()?;
        Ok(self.optimize(stmt))
    }

    /// [`Optimizer::try_optimize`] over a prepared statement: the fault
    /// roll, then [`Optimizer::plan`]. The advisor's what-if calls go
    /// through this so they can degrade gracefully.
    pub fn try_plan(&self, prepared: &PreparedStatement) -> Result<Plan, CostError> {
        self.roll_cost_fault()?;
        Ok(self.plan(prepared))
    }

    fn roll_cost_fault(&self) -> Result<(), CostError> {
        self.faults.roll(FaultSite::OptimizerCost).map_err(|e| {
            self.telemetry.incr(Counter::FaultsInjected);
            CostError::Injected(e)
        })
    }

    /// The configuration-invariant half of an Evaluate-mode call:
    /// normalizes `stmt` and estimates everything about it that the
    /// catalog cannot change. One [`PatternStats::collect`] per distinct
    /// path of the statement.
    pub fn prepare(&self, stmt: &Statement) -> PreparedStatement {
        self.prepare_shared(stmt, &mut PathStatsMemo::default())
    }

    /// [`Optimizer::prepare`] through a caller-held memo, so statements
    /// that share paths share the collection passes. The memo must only
    /// ever see optimizers bound to one collection's statistics.
    pub fn prepare_shared(&self, stmt: &Statement, memo: &mut PathStatsMemo) -> PreparedStatement {
        let shape = match normalize_statement(stmt) {
            Some(nq) => Shape::Access(self.prepare_access(nq, memo)),
            None => {
                let Statement::Insert { xml, .. } = stmt else {
                    unreachable!("only inserts normalize to None");
                };
                let nodes = estimate_payload_nodes(xml) as f64;
                Shape::Insert {
                    cost: self.cost_model.insert_cost(nodes, xml.len() as f64),
                    payload: maintenance::payload_values(xml),
                }
            }
        };
        PreparedStatement {
            node_count: self.stats.node_count,
            shape,
        }
    }

    fn prepare_access(&self, nq: NormalizedQuery, memo: &mut PathStatsMemo) -> AccessShape {
        let cm = &self.cost_model;
        let root_docs = self.pattern_stats(&nq.root, memo).docs_upper as f64;
        let patterns: Vec<PreparedPattern> = nq
            .patterns
            .into_iter()
            .map(|ap| self.prepare_pattern(ap, memo))
            .collect();
        let or_groups: Vec<PreparedGroup> = nq
            .or_groups
            .into_iter()
            .map(|group| {
                let branches: Vec<PreparedPattern> = group
                    .into_iter()
                    .map(|ap| self.prepare_pattern(ap, memo))
                    .collect();
                // Selectivity of a disjunction group: 1 − Π(1 − sel_branch).
                let selectivity = if root_docs == 0.0 {
                    0.0
                } else {
                    let miss: f64 = branches
                        .iter()
                        .map(|b| 1.0 - (b.docs / root_docs).clamp(0.0, 1.0))
                        .product();
                    (1.0 - miss).clamp(0.0, 1.0)
                };
                PreparedGroup {
                    branches,
                    selectivity,
                }
            })
            .collect();

        // Result documents applying all predicates by navigation.
        let est_docs_scan = if root_docs == 0.0 {
            0.0
        } else {
            let mut docs = root_docs;
            for p in &patterns {
                docs *= (p.docs / root_docs).clamp(0.0, 1.0);
            }
            for g in &or_groups {
                docs *= g.selectivity;
            }
            docs
        };
        let mut scan_cost = cm.scan_cost(
            self.stats.node_count as f64,
            self.stats.value_bytes as f64,
            patterns.len() + or_groups.len(),
        );
        if nq.is_modification {
            scan_cost += cm.write_cost(
                est_docs_scan,
                self.stats.avg_doc_nodes(),
                self.stats.avg_doc_bytes(),
            );
        }
        AccessShape {
            root_docs,
            est_docs_scan,
            scan_cost,
            is_modification: nq.is_modification,
            patterns,
            or_groups,
        }
    }

    /// Everything index costing needs to know about one access pattern.
    fn prepare_pattern(&self, ap: AccessPattern, memo: &mut PathStatsMemo) -> PreparedPattern {
        let ps = self.pattern_stats(&ap.linear, memo);
        let (docs, postings, leak) = match &ap.pred {
            // Existence: answered from the index's per-path document lists
            // (structural postings); the probe is keyed by path id, so a
            // general index pays no extra.
            PatternPred::Exists => {
                let docs = ps.docs_upper as f64;
                (docs, docs, None)
            }
            PatternPred::Compare(op, _) => {
                // Pattern-level matches (what survives path filtering).
                let kind = ap.pred.value_kind().unwrap_or(ValueKind::Str);
                let matching_nodes = ps.matching_nodes(&ap.pred, kind, self.stats);
                let leak = Leak {
                    entries_pattern: ps.entries_for(kind) as f64,
                    selectivity: ps.predicate_selectivity(&ap.pred, self.stats),
                    fraction: if op.is_equality() { 0.05 } else { 0.25 },
                };
                (ps.matching_docs(matching_nodes), matching_nodes, Some(leak))
            }
        };
        PreparedPattern {
            ap,
            docs,
            postings,
            leak,
        }
    }

    /// The memoized [`PatternStats`] of `path`, collected on first sight.
    fn pattern_stats<'m>(
        &self,
        path: &LinearPath,
        memo: &'m mut PathStatsMemo,
    ) -> &'m PatternStats {
        if !memo.by_path.contains_key(path) {
            self.telemetry.incr(Counter::SelectivityEstimates);
            let ps = PatternStats::collect(path, self.collection, self.stats);
            memo.by_path.insert(path.clone(), ps);
        }
        &memo.by_path[path]
    }

    /// The per-configuration half of an Evaluate-mode call, and the only
    /// planner: index matching against the catalog view, probe costing from
    /// the prepared estimates and each matching definition's statistics,
    /// greedy index-ANDing. Counted like [`Optimizer::optimize`]. The
    /// prepared statement owns its estimates and borrows nothing, so the
    /// statistics are this optimizer's: it must be bound to the statistics
    /// (and cost model) the statement was prepared from.
    pub fn plan(&self, prepared: &PreparedStatement) -> Plan {
        debug_assert_eq!(
            prepared.node_count, self.stats.node_count,
            "statement prepared against other statistics"
        );
        self.evaluate_calls.set(self.evaluate_calls.get() + 1);
        self.telemetry.incr(Counter::OptimizerEvaluateCalls);
        let q = match &prepared.shape {
            Shape::Access(q) => q,
            Shape::Insert { cost, .. } => {
                return Plan {
                    access: AccessChoice::Scan,
                    est_docs: 1.0,
                    total_cost: *cost,
                    scan_cost: *cost,
                }
            }
        };

        let mut steps: Vec<PlanStep> = Vec::new();
        for (pi, p) in q.patterns.iter().enumerate() {
            if let Some(u) = self.best_index_use(pi, p) {
                steps.push(PlanStep::Probe(u));
            }
        }
        // Index-ORing: a disjunction group is indexable only if *every*
        // branch has a matching index (otherwise the union is incomplete
        // and the group must be evaluated residually).
        for (gi, group) in q.or_groups.iter().enumerate() {
            let branches: Vec<Option<IndexUse>> = group
                .branches
                .iter()
                .enumerate()
                .map(|(bi, p)| self.best_index_use(bi, p))
                .collect();
            if branches.iter().all(|b| b.is_some()) && !branches.is_empty() {
                let branches: Vec<IndexUse> = branches
                    .into_iter()
                    .map(|b| b.expect("checked all some"))
                    .collect();
                let est_docs = if q.root_docs == 0.0 {
                    0.0
                } else {
                    let miss: f64 = branches
                        .iter()
                        .map(|u| 1.0 - (u.est_docs / q.root_docs).clamp(0.0, 1.0))
                        .product();
                    q.root_docs * (1.0 - miss)
                };
                steps.push(PlanStep::Union {
                    group: gi,
                    branches,
                    est_docs,
                });
            }
        }

        // Greedy index-ANDing: most selective first; keep adding while the
        // combined cost improves. This creates real index interaction.
        steps.sort_by(|a, b| {
            a.est_docs()
                .partial_cmp(&b.est_docs())
                .expect("finite doc estimates")
        });
        let mut best_cost = f64::INFINITY;
        let mut best_len = 0usize;
        for i in 0..steps.len() {
            let cost = self.index_and_cost(q, &steps[..=i]);
            if cost < best_cost {
                best_cost = cost;
                best_len = i + 1;
            }
        }
        steps.truncate(best_len);

        if steps.is_empty() || best_cost >= q.scan_cost {
            Plan {
                access: AccessChoice::Scan,
                est_docs: q.est_docs_scan,
                total_cost: q.scan_cost,
                scan_cost: q.scan_cost,
            }
        } else {
            let est_docs = combined_docs(q, &steps, true);
            Plan {
                access: AccessChoice::IndexAnd(steps),
                est_docs,
                total_cost: best_cost,
                scan_cost: q.scan_cost,
            }
        }
    }

    /// The cheapest matching index probe for one access pattern, if any.
    fn best_index_use(&self, pattern_idx: usize, p: &PreparedPattern) -> Option<IndexUse> {
        let mut best: Option<IndexUse> = None;
        // One matching attempt per live definition in the view.
        let mut attempts = 0u64;
        for def in self.catalog.iter() {
            attempts += 1;
            if !matching::index_matches(def, &p.ap) {
                continue;
            }
            let use_ = self.cost_index_use(pattern_idx, p, def);
            let better = match &best {
                None => true,
                Some(b) => {
                    use_.probe_cost < b.probe_cost
                        || (use_.probe_cost == b.probe_cost && use_.est_postings < b.est_postings)
                }
            };
            if better {
                best = Some(use_);
            }
        }
        self.telemetry.add(Counter::IndexMatchingAttempts, attempts);
        best
    }

    fn cost_index_use(
        &self,
        pattern_idx: usize,
        p: &PreparedPattern,
        def: &xia_storage::IndexDef,
    ) -> IndexUse {
        // A probe of a more general index also scans postings from paths
        // beyond the query pattern's (path-filtered away afterwards). We
        // charge a leakage fraction of the extra entries: small for
        // equality probes (mostly disjoint key domains), larger for range
        // probes (numeric ranges overlap across paths). This keeps the
        // specific index strictly preferable when both match, while the
        // general index still beats a scan — the trade-off the paper's
        // search algorithms navigate.
        let est_postings = match &p.leak {
            None => p.postings,
            Some(leak) => {
                let extra_entries = (def.stats.entries as f64 - leak.entries_pattern).max(0.0);
                p.postings + extra_entries * leak.selectivity * leak.fraction
            }
        };
        let probe_cost = self.cost_model.probe_cost(
            def.stats.levels,
            est_postings,
            def.stats.avg_key_width + xia_storage::size::POSTING_BYTES,
        );
        IndexUse {
            index: def.id,
            pattern_idx,
            est_postings,
            est_docs: p.docs,
            probe_cost,
        }
    }

    fn index_and_cost(&self, q: &AccessShape, steps: &[PlanStep]) -> f64 {
        let cm = &self.cost_model;
        let probe: f64 = steps.iter().map(|s| s.probe_cost()).sum();
        let docs_after_indexes = combined_docs(q, steps, false);
        let residual_preds = (q.patterns.len() + q.or_groups.len()).saturating_sub(steps.len());
        let mut cost = probe
            + cm.fetch_cost(
                docs_after_indexes,
                self.stats.avg_doc_nodes(),
                self.stats.avg_doc_bytes(),
                residual_preds,
            );
        if q.is_modification {
            let final_docs = combined_docs(q, steps, true);
            cost += cm.write_cost(
                final_docs,
                self.stats.avg_doc_nodes(),
                self.stats.avg_doc_bytes(),
            );
        }
        cost
    }
}

/// Estimated documents surviving the intersection of the chosen index
/// probes (independence assumption), optionally applying the residual
/// (non-indexed) predicates too.
fn combined_docs(q: &AccessShape, steps: &[PlanStep], apply_residual: bool) -> f64 {
    if q.root_docs == 0.0 {
        return 0.0;
    }
    let mut docs = q.root_docs;
    for s in steps {
        docs *= (s.est_docs() / q.root_docs).clamp(0.0, 1.0);
    }
    if apply_residual {
        // A plan has a handful of steps: scanning them per predicate beats
        // building a set.
        for (pi, p) in q.patterns.iter().enumerate() {
            let probed = steps
                .iter()
                .any(|s| matches!(s, PlanStep::Probe(u) if u.pattern_idx == pi));
            if !probed {
                docs *= (p.docs / q.root_docs).clamp(0.0, 1.0);
            }
        }
        for (gi, g) in q.or_groups.iter().enumerate() {
            let unioned = steps
                .iter()
                .any(|s| matches!(s, PlanStep::Union { group, .. } if *group == gi));
            if !unioned {
                docs *= g.selectivity;
            }
        }
    }
    docs
}

/// [`PatternStats`] per distinct linear path of one collection — what lets
/// statements prepared together share the dictionary passes, and an owner
/// that prepares more statements later keeps sharing them. A prepared
/// statement keeps the estimates, not the statistics.
#[derive(Debug, Default)]
pub struct PathStatsMemo {
    by_path: HashMap<LinearPath, PatternStats>,
}

/// The configuration-invariant half of a what-if call, built by
/// [`Optimizer::prepare`] and costed under any number of catalog views by
/// [`Optimizer::plan`]. It owns its estimates and borrows nothing — the
/// statement and the statistics are handed back in by whoever plans or
/// prices maintenance with it — so it can be kept for as long as the
/// statistics it was estimated from stay unchanged (a tuning session
/// keeps it for the life of its database snapshot).
#[derive(Debug)]
pub struct PreparedStatement {
    /// Node count of the statistics the estimates were made from: the
    /// cheap stand-in `plan` checks its own statistics against.
    node_count: u64,
    shape: Shape,
}

#[derive(Debug)]
enum Shape {
    /// Inserts read nothing: their plan is the payload's insert cost.
    Insert {
        cost: f64,
        payload: Vec<maintenance::PayloadValue>,
    },
    Access(AccessShape),
}

/// A normalized query, delete or update with its scan alternative costed.
#[derive(Debug)]
struct AccessShape {
    /// Documents under the iterated root path.
    root_docs: f64,
    /// Result documents applying every predicate by navigation.
    est_docs_scan: f64,
    /// Cost of the scan alternative (with the write term for
    /// modifications).
    scan_cost: f64,
    is_modification: bool,
    patterns: Vec<PreparedPattern>,
    or_groups: Vec<PreparedGroup>,
}

#[derive(Debug)]
struct PreparedGroup {
    branches: Vec<PreparedPattern>,
    /// 1 − Π(1 − sel_branch) when evaluated residually.
    selectivity: f64,
}

#[derive(Debug)]
struct PreparedPattern {
    ap: AccessPattern,
    /// Estimated documents satisfying the pattern, by navigation or by a
    /// probe after path filtering.
    docs: f64,
    /// Postings a probe of an index holding exactly this pattern's nodes
    /// reads.
    postings: f64,
    /// Value comparisons only: what a broader index leaks into the probe.
    leak: Option<Leak>,
}

#[derive(Debug)]
struct Leak {
    /// Entries an index on exactly this pattern would hold.
    entries_pattern: f64,
    /// The predicate's selectivity over those entries.
    selectivity: f64,
    /// Share of the extra entries charged (by comparison operator).
    fraction: f64,
}

impl PreparedStatement {
    /// Estimated documents a modification statement touches (used by the
    /// maintenance-cost model); an insert affects exactly its own
    /// document.
    pub fn target_docs(&self) -> f64 {
        match &self.shape {
            Shape::Insert { .. } => 1.0,
            Shape::Access(q) => q.est_docs_scan,
        }
    }

    /// Entries an index with `pattern`/`kind` would gain from an insert's
    /// payload (zero for every other statement).
    pub fn payload_entries(&self, pattern: &LinearPath, kind: ValueKind) -> u64 {
        match &self.shape {
            Shape::Insert { payload, .. } => maintenance::matching_entries(payload, pattern, kind),
            Shape::Access(_) => 0,
        }
    }
}

/// Cheap estimate of the node count of an XML payload without parsing it:
/// open tags plus attributes.
pub fn estimate_payload_nodes(xml: &str) -> u64 {
    let bytes = xml.as_bytes();
    let mut count = 0u64;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'<' {
            match bytes.get(i + 1) {
                Some(b'/') | Some(b'!') | Some(b'?') => {}
                Some(_) => count += 1,
                None => {}
            }
        } else if bytes[i] == b'=' {
            // Rough attribute counter: every `="` inside a tag.
            if bytes.get(i + 1) == Some(&b'"') {
                count += 1;
            }
        }
        i += 1;
    }
    count.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_storage::runstats;
    use xia_xpath::{parse_linear_path, parse_statement};

    fn big_collection() -> Collection {
        let mut c = Collection::new("SDOC");
        for i in 0..2_000u32 {
            c.build_doc("Security", |b| {
                b.leaf("Symbol", format!("S{i}").as_str());
                b.leaf("Yield", (i % 100) as f64 / 10.0);
                b.begin("SecInfo");
                b.begin(if i % 2 == 0 { "StockInfo" } else { "FundInfo" });
                b.leaf(
                    "Sector",
                    ["Energy", "Tech", "Retail", "Util"][(i % 4) as usize],
                );
                b.end();
                b.end();
                b.leaf("Name", format!("Security {i}").as_str());
            });
        }
        c
    }

    fn q_symbol() -> Statement {
        parse_statement(r#"for $s in SECURITY('SDOC')/Security where $s/Symbol = "S42" return $s"#)
            .unwrap()
    }

    #[test]
    fn enumerate_mode_returns_paper_candidates() {
        let c = big_collection();
        let s = runstats(&c);
        let cat = Catalog::new();
        let opt = Optimizer::new(&c, &s, &cat);
        let q2 = parse_statement(
            r#"for $sec in SECURITY('SDOC')/Security[Yield>4.5]
               where $sec/SecInfo/*/Sector = "Energy"
               return <Security>{$sec/Name}</Security>"#,
        )
        .unwrap();
        let cands = opt.enumerate_indexes(&q2);
        let pats: Vec<String> = cands.iter().map(|c| c.pattern.to_string()).collect();
        assert_eq!(pats, vec!["/Security/Yield", "/Security/SecInfo/*/Sector"]);
        assert_eq!(cands[0].kind, ValueKind::Num);
        assert_eq!(cands[1].kind, ValueKind::Str);
        // Enumerate mode does not bump the Evaluate counter.
        assert_eq!(opt.evaluate_calls(), 0);
    }

    #[test]
    fn no_indexes_means_scan_plan() {
        let c = big_collection();
        let s = runstats(&c);
        let cat = Catalog::new();
        let opt = Optimizer::new(&c, &s, &cat);
        let plan = opt.optimize(&q_symbol());
        assert_eq!(plan.access, AccessChoice::Scan);
        assert_eq!(opt.evaluate_calls(), 1);
    }

    #[test]
    fn matching_virtual_index_beats_scan_for_selective_query() {
        let c = big_collection();
        let s = runstats(&c);
        let mut cat = Catalog::new();
        let id = cat.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security/Symbol").unwrap(),
            ValueKind::Str,
        );
        let opt = Optimizer::new(&c, &s, &cat);
        let plan = opt.optimize(&q_symbol());
        assert!(plan.uses_indexes(), "plan = {plan}");
        assert_eq!(plan.used_indexes(), vec![id]);
        assert!(plan.total_cost < plan.scan_cost);
    }

    #[test]
    fn optimizer_prefers_cheaper_specific_index_over_general() {
        let c = big_collection();
        let s = runstats(&c);
        let mut cat = Catalog::new();
        let general = cat.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security//*").unwrap(),
            ValueKind::Str,
        );
        let specific = cat.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security/Symbol").unwrap(),
            ValueKind::Str,
        );
        let opt = Optimizer::new(&c, &s, &cat);
        let plan = opt.optimize(&q_symbol());
        assert_eq!(plan.used_indexes(), vec![specific]);
        let _ = general;
    }

    #[test]
    fn general_index_is_used_when_it_is_the_only_match() {
        let c = big_collection();
        let s = runstats(&c);
        let mut cat = Catalog::new();
        let general = cat.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security//*").unwrap(),
            ValueKind::Str,
        );
        let opt = Optimizer::new(&c, &s, &cat);
        let plan = opt.optimize(&q_symbol());
        assert_eq!(plan.used_indexes(), vec![general]);
        // The general probe is costed higher than a specific probe would
        // be, but still far below a scan for an equality predicate.
        assert!(plan.total_cost < plan.scan_cost);
    }

    #[test]
    fn index_anding_uses_multiple_indexes_when_worthwhile() {
        let c = big_collection();
        let s = runstats(&c);
        let mut cat = Catalog::new();
        cat.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security/Yield").unwrap(),
            ValueKind::Num,
        );
        cat.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security/SecInfo/*/Sector").unwrap(),
            ValueKind::Str,
        );
        let opt = Optimizer::new(&c, &s, &cat);
        let q = parse_statement(
            r#"for $sec in SECURITY('SDOC')/Security[Yield = 4.5]
               where $sec/SecInfo/*/Sector = "Energy"
               return $sec"#,
        )
        .unwrap();
        let plan = opt.optimize(&q);
        assert!(plan.uses_indexes());
        // Both predicates are selective; the optimizer should AND them.
        assert_eq!(plan.used_indexes().len(), 2, "plan = {plan}");
    }

    #[test]
    fn index_interaction_second_index_adds_less_benefit() {
        let c = big_collection();
        let s = runstats(&c);
        // Cost with only the symbol index.
        let mut cat1 = Catalog::new();
        cat1.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security/Symbol").unwrap(),
            ValueKind::Str,
        );
        let q = parse_statement(
            r#"for $s in SECURITY('SDOC')/Security
               where $s/Symbol = "S42" and $s/Yield > 4.5
               return $s"#,
        )
        .unwrap();
        let opt1 = Optimizer::new(&c, &s, &cat1);
        let cost1 = opt1.optimize(&q).total_cost;
        // Adding a yield index on top of the (unique-key) symbol index
        // changes little: interaction.
        let mut cat2 = Catalog::new();
        cat2.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security/Symbol").unwrap(),
            ValueKind::Str,
        );
        cat2.create_virtual(
            &c,
            &s,
            &parse_linear_path("/Security/Yield").unwrap(),
            ValueKind::Num,
        );
        let opt2 = Optimizer::new(&c, &s, &cat2);
        let cost2 = opt2.optimize(&q).total_cost;
        let scan = opt2.optimize(&q).scan_cost;
        let benefit1 = scan - cost1;
        let benefit2 = scan - cost2;
        assert!(benefit2 <= benefit1 * 1.2, "b1={benefit1} b2={benefit2}");
        assert!(benefit2 - benefit1 < benefit1 * 0.5);
    }

    #[test]
    fn update_plans_include_write_cost() {
        let c = big_collection();
        let s = runstats(&c);
        let cat = Catalog::new();
        let opt = Optimizer::new(&c, &s, &cat);
        let upd = parse_statement(
            r#"update SDOC set /Security/Yield = 9.9 where /Security[Symbol = "S42"]"#,
        )
        .unwrap();
        let q = q_symbol();
        let upd_cost = opt.optimize(&upd).total_cost;
        let q_cost = opt.optimize(&q).total_cost;
        assert!(upd_cost > q_cost);
    }

    #[test]
    fn insert_plan_costs_payload() {
        let c = big_collection();
        let s = runstats(&c);
        let cat = Catalog::new();
        let opt = Optimizer::new(&c, &s, &cat);
        let small = parse_statement("insert into SDOC <a><b>1</b></a>").unwrap();
        let big_xml = format!("insert into SDOC <a>{}</a>", "<b>x</b>".repeat(500));
        let big = parse_statement(&big_xml).unwrap();
        let cs = opt.optimize(&small).total_cost;
        let cb = opt.optimize(&big).total_cost;
        assert!(cb > cs);
        assert_eq!(opt.evaluate_calls(), 2);
    }

    #[test]
    fn estimate_payload_nodes_counts_tags_and_attrs() {
        assert_eq!(estimate_payload_nodes("<a><b>1</b><c/></a>"), 3);
        assert_eq!(estimate_payload_nodes(r#"<a id="1"><b/></a>"#), 3);
        assert_eq!(estimate_payload_nodes(""), 1);
    }

    #[test]
    fn try_optimize_reports_injected_cost_faults() {
        let c = big_collection();
        let s = runstats(&c);
        let cat = Catalog::new();
        let mut opt = Optimizer::new(&c, &s, &cat);
        // No injector attached: behaves exactly like optimize().
        assert!(opt.try_optimize(&q_symbol()).is_ok());
        let f = xia_fault::FaultInjector::seeded(11).with_always(FaultSite::OptimizerCost);
        opt.set_faults(&f);
        match opt.try_optimize(&q_symbol()) {
            Err(CostError::Injected(e)) => assert_eq!(e.site, FaultSite::OptimizerCost),
            other => panic!("expected injected fault, got {other:?}"),
        }
        assert_eq!(f.injected(FaultSite::OptimizerCost), 1);
    }

    #[test]
    fn prepare_collects_once_per_distinct_path_and_plan_collects_nothing() {
        let c = big_collection();
        let s = runstats(&c);
        let mut cat = Catalog::new();
        for p in ["/Security/Symbol", "/Security//*"] {
            cat.create_virtual(&c, &s, &parse_linear_path(p).unwrap(), ValueKind::Str);
        }
        let t = Telemetry::new();
        let mut opt = Optimizer::new(&c, &s, &cat);
        opt.set_telemetry(&t);
        let other = parse_statement(
            r#"for $s in SECURITY('SDOC')/Security where $s/Symbol = "S7" return $s"#,
        )
        .unwrap();
        let (q, mut memo) = (q_symbol(), PathStatsMemo::default());
        // Root and predicate path: two collections for the first
        // statement, none for a second one over the same paths.
        let first = opt.prepare_shared(&q, &mut memo);
        assert_eq!(t.get(Counter::SelectivityEstimates), 2);
        let second = opt.prepare_shared(&other, &mut memo);
        assert_eq!(t.get(Counter::SelectivityEstimates), 2);
        // Planning matches and costs two indexes per call and estimates
        // nothing.
        let one_shot = opt.optimize(&q);
        let estimates = t.get(Counter::SelectivityEstimates);
        assert_eq!(opt.plan(&first), one_shot);
        assert_eq!(opt.plan(&first), one_shot);
        assert!(opt.plan(&second).uses_indexes());
        assert_eq!(t.get(Counter::SelectivityEstimates), estimates);
        assert_eq!(t.get(Counter::OptimizerEvaluateCalls), 4);
        assert_eq!(opt.evaluate_calls(), 4);
    }

    #[test]
    fn target_docs_for_selective_delete() {
        let c = big_collection();
        let s = runstats(&c);
        let cat = Catalog::new();
        let opt = Optimizer::new(&c, &s, &cat);
        let del = parse_statement(r#"delete from SDOC where /Security[Symbol = "S42"]"#).unwrap();
        let docs = opt.prepare(&del).target_docs();
        assert!((0.5..=5.0).contains(&docs), "docs = {docs}");
        let ins = parse_statement("insert into SDOC <a/>").unwrap();
        assert_eq!(opt.prepare(&ins).target_docs(), 1.0);
    }
}
