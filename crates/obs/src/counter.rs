//! Named event counters for the advisor pipeline.

/// Every counted event in the advisor, optimizer, and catalog. Each
/// variant maps to one atomic slot in a [`crate::Telemetry`] sink; see
/// `DESIGN.md` for the paper artifact each counter reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Counter {
    /// Evaluate-mode optimizer invocations (`Optimizer::plan`) — the
    /// paper's "number of optimizer calls" axis (Fig. 3).
    OptimizerEvaluateCalls,
    /// Enumerate-mode optimizer invocations (`Optimizer::enumerate_indexes`).
    OptimizerEnumerateCalls,
    /// Index definitions tested for pattern containment during plan
    /// matching.
    IndexMatchingAttempts,
    /// Path-statistics collections performed while preparing statements
    /// for costing (one per distinct path; planning performs none).
    SelectivityEstimates,
    /// Benefit evaluations answered from the sub-configuration cache.
    BenefitCacheHits,
    /// Benefit evaluations that had to call the optimizer.
    BenefitCacheMisses,
    /// Top-level `benefit()` requests issued by the searches.
    BenefitEvaluations,
    /// Basic candidates produced by enumerate-mode (Table III "basic").
    CandidatesEnumerated,
    /// Generalized candidates added by Algorithm 1 (Table III "general").
    CandidatesGeneralized,
    /// Candidates admitted into the recommended configuration.
    CandidatesAdmitted,
    /// Candidates rejected by the greedy-search heuristics (β size rule,
    /// benefit gate, redundancy elimination).
    CandidatesPrunedHeuristic,
    /// Iterations of the greedy selection loops.
    GreedyIterations,
    /// Replacement expansions explored by the top-down searches.
    TopDownExpansions,
    /// Virtual (what-if) indexes created in a catalog.
    VirtualIndexesCreated,
    /// Virtual indexes dropped from a catalog.
    VirtualIndexesDropped,
    /// Statistics derivations for virtual indexes.
    StatsDerivations,
    /// Estimated bytes of virtual indexes created (gauge-style sum).
    EstIndexBytes,
    /// Workload statements quarantined after a parse or costing failure
    /// (graceful degradation instead of aborting the advise run).
    StatementsQuarantined,
    /// Benefit evaluations answered with a heuristic fallback cost after
    /// an optimizer failure or budget exhaustion.
    CostFallbacks,
    /// What-if evaluations refused because the call budget ran out.
    WhatIfBudgetExhausted,
    /// Faults fired by the xia-fault injector during this run.
    FaultsInjected,
    /// Per-statement costings served without an optimizer call because the
    /// candidate being probed is irrelevant to the statement (relevance
    /// pruning layer).
    StatementsPruned,
    /// Per-statement costings answered from the projection-keyed
    /// statement cost cache.
    StmtCacheHits,
    /// Incremental `benefit_delta` probes issued by the searches.
    DeltaProbes,
    /// Candidate pairs the generalization fixpoint examined (reached the
    /// loop body: the naive path counts every ordered pair including the
    /// compatibility check it then fails; the semi-naive path counts the
    /// bucket-compatible pairs it processes). The E12 speedup factor is
    /// this counter's naive/semi-naive ratio.
    GeneralizePairsVisited,
    /// Candidate pairs the semi-naive fixpoint never visited because the
    /// two candidates live in different (collection, value-kind) buckets.
    PairsSkippedBucket,
    /// `generalize_pair` invocations answered from the canonical-pair memo
    /// instead of re-running the rule engine.
    PairsMemoHits,
    /// Containment verdicts answered from the shared cover cache.
    ContainCacheHits,
    /// Containment verdicts decided by the name-mask fast reject without
    /// running the NFA product search.
    ContainFastRejects,
    /// Documents ingested through the streaming (SAX-style) parse path
    /// instead of the DOM parser.
    DocsStreamed,
    /// Multi-document ingestion batches processed (one per worker chunk of
    /// a parallel `ingest_batch` call).
    IngestBatches,
    /// Value rows iterated from the columnar leaf store during statistics
    /// collection and physical index builds (contiguous typed slices
    /// instead of per-node pointer chasing).
    ColumnarScanRows,
    /// Weighted workload templates produced by CoPhy-style compression
    /// (one per distinct cost-identity template key).
    TemplatesBuilt,
    /// Statements folded into an existing template during workload
    /// compression (original statements minus templates built).
    StmtsCompressed,
    /// Iterations of the LP/knapsack relaxation loop in the `cophy`
    /// search (fractional solve + greedy rounding passes).
    LpIterations,
    /// Bytes of the saved database image read and verified to open the
    /// database (`Database::image_bytes`).
    ImageBytesRead,
    /// Collections whose DOM arenas and columnar store were decoded from
    /// the image's document records (`Database::dom_materializations`).
    /// The advisor reads statistics and the path dictionary only, so a
    /// `recommend` over an image without physical indexes reports 0;
    /// executing or mutating documents reports one per collection
    /// touched.
    DomMaterializations,
}

impl Counter {
    /// All counters, in declaration order.
    pub const ALL: [Counter; 37] = [
        Counter::OptimizerEvaluateCalls,
        Counter::OptimizerEnumerateCalls,
        Counter::IndexMatchingAttempts,
        Counter::SelectivityEstimates,
        Counter::BenefitCacheHits,
        Counter::BenefitCacheMisses,
        Counter::BenefitEvaluations,
        Counter::CandidatesEnumerated,
        Counter::CandidatesGeneralized,
        Counter::CandidatesAdmitted,
        Counter::CandidatesPrunedHeuristic,
        Counter::GreedyIterations,
        Counter::TopDownExpansions,
        Counter::VirtualIndexesCreated,
        Counter::VirtualIndexesDropped,
        Counter::StatsDerivations,
        Counter::EstIndexBytes,
        Counter::StatementsQuarantined,
        Counter::CostFallbacks,
        Counter::WhatIfBudgetExhausted,
        Counter::FaultsInjected,
        Counter::StatementsPruned,
        Counter::StmtCacheHits,
        Counter::DeltaProbes,
        Counter::GeneralizePairsVisited,
        Counter::PairsSkippedBucket,
        Counter::PairsMemoHits,
        Counter::ContainCacheHits,
        Counter::ContainFastRejects,
        Counter::DocsStreamed,
        Counter::IngestBatches,
        Counter::ColumnarScanRows,
        Counter::TemplatesBuilt,
        Counter::StmtsCompressed,
        Counter::LpIterations,
        Counter::ImageBytesRead,
        Counter::DomMaterializations,
    ];

    /// Number of counters.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used in reports and CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            Counter::OptimizerEvaluateCalls => "optimizer_evaluate_calls",
            Counter::OptimizerEnumerateCalls => "optimizer_enumerate_calls",
            Counter::IndexMatchingAttempts => "index_matching_attempts",
            Counter::SelectivityEstimates => "selectivity_estimates",
            Counter::BenefitCacheHits => "benefit_cache_hits",
            Counter::BenefitCacheMisses => "benefit_cache_misses",
            Counter::BenefitEvaluations => "benefit_evaluations",
            Counter::CandidatesEnumerated => "candidates_enumerated",
            Counter::CandidatesGeneralized => "candidates_generalized",
            Counter::CandidatesAdmitted => "candidates_admitted",
            Counter::CandidatesPrunedHeuristic => "candidates_pruned_heuristic",
            Counter::GreedyIterations => "greedy_iterations",
            Counter::TopDownExpansions => "topdown_expansions",
            Counter::VirtualIndexesCreated => "virtual_indexes_created",
            Counter::VirtualIndexesDropped => "virtual_indexes_dropped",
            Counter::StatsDerivations => "stats_derivations",
            Counter::EstIndexBytes => "est_index_bytes",
            Counter::StatementsQuarantined => "statements_quarantined",
            Counter::CostFallbacks => "cost_fallbacks",
            Counter::WhatIfBudgetExhausted => "what_if_budget_exhausted",
            Counter::FaultsInjected => "faults_injected",
            Counter::StatementsPruned => "statements_pruned",
            Counter::StmtCacheHits => "stmt_cache_hits",
            Counter::DeltaProbes => "delta_probes",
            Counter::GeneralizePairsVisited => "generalize_pairs_visited",
            Counter::PairsSkippedBucket => "pairs_skipped_bucket",
            Counter::PairsMemoHits => "pairs_memo_hits",
            Counter::ContainCacheHits => "contain_cache_hits",
            Counter::ContainFastRejects => "contain_fast_rejects",
            Counter::DocsStreamed => "docs_streamed",
            Counter::IngestBatches => "ingest_batches",
            Counter::ColumnarScanRows => "columnar_scan_rows",
            Counter::TemplatesBuilt => "templates_built",
            Counter::StmtsCompressed => "stmts_compressed",
            Counter::LpIterations => "lp_iterations",
            Counter::ImageBytesRead => "image_bytes_read",
            Counter::DomMaterializations => "dom_materializations",
        }
    }

    /// Slot index in the atomic counter array (the declaration-order
    /// discriminant; `ALL` is declared in the same order).
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            let n = c.name();
            assert!(seen.insert(n), "duplicate name {n}");
            assert!(n
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch == '_' || ch.is_ascii_digit()));
        }
    }
}
