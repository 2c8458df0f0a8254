//! Figures 2 and 3: estimated speedup and advisor run time as functions
//! of the disk-space budget, for all five search algorithms plus the
//! All-Index configuration.
//!
//! The paper sweeps absolute budgets against a 95 MB All-Index size on
//! 1 GB of TPoX data; we sweep budgets as *fractions of the All-Index
//! size*, which preserves the figure's shape independent of scale.

use crate::lab::TpoxLab;
use crate::report::{f, mib, Table};
use xia_advisor::{Advisor, AdvisorParams, SearchAlgorithm};
use xia_obs::{Counter, Telemetry};
use xia_workloads::Workload;

/// One measured point.
#[derive(Debug, Clone)]
pub struct BudgetPoint {
    /// Budget in bytes.
    pub budget: u64,
    /// Estimated workload speedup of the recommended configuration.
    pub speedup: f64,
    /// Advisor wall time in milliseconds.
    pub advisor_ms: f64,
    /// Evaluate-mode optimizer calls made.
    pub optimizer_calls: u64,
    /// Recommended configuration size.
    pub size: u64,
    /// Number of recommended indexes.
    pub indexes: usize,
    /// Search-phase time (telemetry span) in milliseconds.
    pub search_ms: f64,
    /// Benefit-evaluation time inside the search, in milliseconds.
    pub evaluate_ms: f64,
    /// Sub-configuration cache hits during the search.
    pub cache_hits: u64,
    /// Sub-configuration cache misses during the search.
    pub cache_misses: u64,
    /// Per-statement costings served from the statement cost cache.
    pub stmt_cache_hits: u64,
    /// Per-statement costings the relevance-pruning layer skipped.
    pub statements_pruned: u64,
    /// Incremental `benefit_delta` probes issued by the search.
    pub delta_probes: u64,
}

/// Results of the budget sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Budget fractions of the All-Index size.
    pub fractions: Vec<f64>,
    /// All-Index configuration size in bytes.
    pub all_index_size: u64,
    /// All-Index estimated speedup (the ceiling line of Fig. 2).
    pub all_index_speedup: f64,
    /// Per-algorithm measurements, aligned with `fractions`.
    pub series: Vec<(SearchAlgorithm, Vec<BudgetPoint>)>,
    /// One-time enumerate-phase time (shared prepare step), milliseconds.
    pub enumerate_ms: f64,
    /// One-time generalize-phase time, milliseconds.
    pub generalize_ms: f64,
    /// One-time candidate-sizing time, milliseconds.
    pub size_ms: f64,
    /// Candidate pairs the (one-time) generalization fixpoint visited.
    pub generalize_pairs_visited: u64,
    /// Pairs the semi-naive fixpoint skipped via compatibility buckets.
    pub pairs_skipped_bucket: u64,
    /// `generalize_pair` calls answered from the canonical-pair memo.
    pub pairs_memo_hits: u64,
}

/// Runs the sweep over the 11-query TPoX workload.
pub fn run(lab: &mut TpoxLab, fractions: &[f64], algorithms: &[SearchAlgorithm]) -> SweepResult {
    let workload = lab.workload();
    run_workload(lab, &workload, fractions, algorithms)
}

/// Runs the sweep over an arbitrary workload with the default worker
/// count.
pub fn run_workload(
    lab: &mut TpoxLab,
    workload: &Workload,
    fractions: &[f64],
    algorithms: &[SearchAlgorithm],
) -> SweepResult {
    run_workload_jobs(
        lab,
        workload,
        fractions,
        algorithms,
        AdvisorParams::default().jobs,
    )
}

/// Runs the sweep with an explicit what-if worker count (`--jobs`): the
/// numbers are identical to the serial sweep; only the timing columns
/// change.
pub fn run_workload_jobs(
    lab: &mut TpoxLab,
    workload: &Workload,
    fractions: &[f64],
    algorithms: &[SearchAlgorithm],
    jobs: usize,
) -> SweepResult {
    let telemetry = Telemetry::new();
    let params = AdvisorParams {
        telemetry: telemetry.clone(),
        jobs,
        ..AdvisorParams::default()
    };
    let set = Advisor::prepare(&mut lab.db, workload, &params);
    // The prepare phases run once and are shared by every sweep point.
    let enumerate_ms = telemetry.span_micros("enumerate") as f64 / 1e3;
    let generalize_ms = telemetry.span_micros("generalize") as f64 / 1e3;
    let size_ms = telemetry.span_micros("size") as f64 / 1e3;
    let generalize_pairs_visited = telemetry.get(Counter::GeneralizePairsVisited);
    let pairs_skipped_bucket = telemetry.get(Counter::PairsSkippedBucket);
    let pairs_memo_hits = telemetry.get(Counter::PairsMemoHits);
    let all = Advisor::all_index_config(&set);
    let all_index_size = set.config_size(&all);

    // All-Index speedup: evaluate the full basic configuration.
    let all_rec = Advisor::recommend_prepared(
        &mut lab.db,
        workload,
        &set,
        all_index_size,
        SearchAlgorithm::Greedy,
        &params,
    )
    .expect("advise");
    // `Greedy` at exactly All-Index budget may differ from All-Index; use
    // the evaluator directly for the ceiling.
    let mut ev = xia_advisor::BenefitEvaluator::new(&mut lab.db, workload, &set);
    let all_index_speedup = ev.speedup(&all);
    drop(ev);
    let _ = all_rec;

    let mut series = Vec::new();
    for &algo in algorithms {
        let mut points = Vec::new();
        for &frac in fractions {
            let budget = (all_index_size as f64 * frac).round() as u64;
            // Isolate this point's phase timings and cache counters.
            telemetry.reset();
            let rec =
                Advisor::recommend_prepared(&mut lab.db, workload, &set, budget, algo, &params)
                    .expect("advise");
            points.push(BudgetPoint {
                budget,
                speedup: rec.speedup,
                advisor_ms: rec.advisor_time.as_secs_f64() * 1e3,
                optimizer_calls: rec.eval_stats.optimizer_calls,
                size: rec.total_size,
                indexes: rec.config.len(),
                search_ms: telemetry.span_micros("search") as f64 / 1e3,
                evaluate_ms: telemetry.span_micros("evaluate") as f64 / 1e3,
                cache_hits: telemetry.get(Counter::BenefitCacheHits),
                cache_misses: telemetry.get(Counter::BenefitCacheMisses),
                stmt_cache_hits: telemetry.get(Counter::StmtCacheHits),
                statements_pruned: telemetry.get(Counter::StatementsPruned),
                delta_probes: telemetry.get(Counter::DeltaProbes),
            });
        }
        series.push((algo, points));
    }
    SweepResult {
        fractions: fractions.to_vec(),
        all_index_size,
        all_index_speedup,
        series,
        enumerate_ms,
        generalize_ms,
        size_ms,
        generalize_pairs_visited,
        pairs_skipped_bucket,
        pairs_memo_hits,
    }
}

/// Fig. 2: estimated speedup vs budget.
pub fn fig2_table(r: &SweepResult) -> Table {
    let mut headers = vec!["budget (xAllIndex)".to_string(), "budget (MiB)".to_string()];
    for (algo, _) in &r.series {
        headers.push(algo.name().to_string());
    }
    headers.push("all-index".to_string());
    let mut t = Table::new(
        "Fig. 2 — estimated workload speedup vs disk budget",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (i, &frac) in r.fractions.iter().enumerate() {
        let budget = (r.all_index_size as f64 * frac).round() as u64;
        let mut row = vec![format!("{frac:.2}"), mib(budget)];
        for (_, points) in &r.series {
            row.push(f(points[i].speedup));
        }
        row.push(f(r.all_index_speedup));
        t.row(row);
    }
    t
}

/// Fig. 3: advisor run time (and optimizer calls) vs budget. The search-
/// and evaluate-phase columns come from the telemetry span tree rather
/// than wall-clock bookkeeping in the harness.
pub fn fig3_table(r: &SweepResult) -> Table {
    let mut headers = vec!["budget (xAllIndex)".to_string()];
    for (algo, _) in &r.series {
        headers.push(format!("{} ms", algo.name()));
        headers.push(format!("{} search ms", algo.name()));
        headers.push(format!("{} eval ms", algo.name()));
        headers.push(format!("{} calls", algo.name()));
    }
    let mut t = Table::new(
        "Fig. 3 — advisor run time vs disk budget",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (i, &frac) in r.fractions.iter().enumerate() {
        let mut row = vec![format!("{frac:.2}")];
        for (_, points) in &r.series {
            row.push(f(points[i].advisor_ms));
            row.push(f(points[i].search_ms));
            row.push(f(points[i].evaluate_ms));
            row.push(points[i].optimizer_calls.to_string());
        }
        t.row(row);
    }
    t
}

/// Telemetry-sourced phase breakdown per (algorithm, budget) point: where
/// the advisor's time goes, and how well the benefit cache works. The
/// enumerate/generalize/size columns repeat the one-time prepare cost so
/// every row is self-contained.
pub fn telemetry_breakdown_table(r: &SweepResult) -> Table {
    let mut t = Table::new(
        "Telemetry — advisor phase breakdown (from xia-obs spans/counters)",
        &[
            "algorithm",
            "budget (xAllIndex)",
            "enumerate ms",
            "generalize ms",
            "size ms",
            "search ms",
            "evaluate ms",
            "cache hits",
            "cache misses",
            "stmt cache hits",
            "statements pruned",
            "delta probes",
            "generalize pairs visited",
            "pairs skipped bucket",
            "pairs memo hits",
        ],
    );
    for (algo, points) in &r.series {
        for (i, p) in points.iter().enumerate() {
            t.row(vec![
                algo.name().to_string(),
                format!("{:.2}", r.fractions[i]),
                f(r.enumerate_ms),
                f(r.generalize_ms),
                f(r.size_ms),
                f(p.search_ms),
                f(p.evaluate_ms),
                p.cache_hits.to_string(),
                p.cache_misses.to_string(),
                p.stmt_cache_hits.to_string(),
                p.statements_pruned.to_string(),
                p.delta_probes.to_string(),
                r.generalize_pairs_visited.to_string(),
                r.pairs_skipped_bucket.to_string(),
                r.pairs_memo_hits.to_string(),
            ]);
        }
    }
    t
}

/// Latency-histogram summaries from one full advisor run per algorithm:
/// the what-if and containment-check call distributions, plus the
/// per-call distribution of every phase span. Only sample counts are
/// deterministic; the percentile columns are wall-clock.
pub fn latency_table(
    lab: &mut TpoxLab,
    workload: &Workload,
    algorithms: &[SearchAlgorithm],
) -> Table {
    let mut t = Table::new(
        "Latency histograms — per-call distributions (ns), one advisor run per algorithm",
        &[
            "algorithm",
            "metric",
            "count",
            "p50_ns",
            "p95_ns",
            "p99_ns",
            "max_ns",
        ],
    );
    for &algo in algorithms {
        let telemetry = Telemetry::new();
        let params = AdvisorParams {
            telemetry: telemetry.clone(),
            ..AdvisorParams::default()
        };
        let set = Advisor::prepare(&mut lab.db, workload, &params);
        let budget = set.config_size(&Advisor::all_index_config(&set));
        Advisor::recommend_prepared(&mut lab.db, workload, &set, budget, algo, &params)
            .expect("advise");
        let report = telemetry.report();
        for (name, s) in &report.latencies {
            push_latency_row(&mut t, algo.name(), name, s);
        }
        for root in &report.phases {
            push_phase_latency_rows(&mut t, algo.name(), root, "phase");
        }
    }
    t
}

fn push_latency_row(t: &mut Table, algo: &str, metric: &str, s: &xia_obs::HistSummary) {
    t.row(vec![
        algo.to_string(),
        metric.to_string(),
        s.count.to_string(),
        s.p50_ns.to_string(),
        s.p95_ns.to_string(),
        s.p99_ns.to_string(),
        s.max_ns.to_string(),
    ]);
}

fn push_phase_latency_rows(t: &mut Table, algo: &str, span: &xia_obs::SpanSnapshot, prefix: &str) {
    let path = format!("{prefix}:{}", span.name);
    push_latency_row(t, algo, &path, &span.latency);
    for child in &span.children {
        push_phase_latency_rows(t, algo, child, &path);
    }
}

/// Default budget fractions of the All-Index size used by the binaries.
pub const DEFAULT_FRACTIONS: [f64; 8] = [0.05, 0.10, 0.20, 0.35, 0.50, 0.75, 1.00, 1.25];
