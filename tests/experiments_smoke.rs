//! Smoke tests for every experiment, asserting the *shapes* the paper
//! reports (who wins, monotonicity) at a reduced scale.

use xia_advisor::SearchAlgorithm;
use xia_bench::experiments::{
    ablation, candidates, cophy_scaling, generality, generalization, scalability, server_warm,
    speedup_budget, update_cost, xmark_exp,
};

#[test]
fn scalability_grows_subquadratically() {
    let mut lab = TpoxLab::quick();
    let points = scalability::run(&mut lab, &[5, 20]);
    assert_eq!(points.len(), 2);
    assert!(points[1].candidates >= points[0].candidates);
    // Calls grow far slower than the quadratic blowup of naive
    // configuration enumeration.
    let ratio = points[1].optimizer_calls as f64 / points[0].optimizer_calls.max(1) as f64;
    assert!(ratio < 16.0, "calls ratio {ratio}");
}
use xia_bench::TpoxLab;
use xia_workloads::xmark::XmarkConfig;

#[test]
fn datapath_sweep_reports_throughput() {
    let points = scalability::run_datapath(&[1, 2], 2);
    assert_eq!(points.len(), 2);
    // tiny() yields 270 documents per unit factor (60 + 150 + 60).
    assert_eq!(points[0].docs, 270);
    assert_eq!(points[1].docs, 540);
    for p in &points {
        assert!(p.nodes > 0);
        assert!(p.nodes_per_sec > 0.0, "factor {}: {p:?}", p.factor);
        // Columnar RUNSTATS must actually run over columns, not fall back
        // to the document scan (which reports no scan rows).
        assert!(p.scans_per_sec > 0.0, "factor {}: {p:?}", p.factor);
        assert!(p.jobs >= 1);
    }
    assert!(points[1].nodes > points[0].nodes);
    let table = scalability::datapath_table(&points);
    assert_eq!(table.rows.len(), 2);
}

#[test]
fn update_cost_erodes_recommendations_at_high_frequency() {
    let mut lab = TpoxLab::quick();
    let rows = update_cost::run(&mut lab, &[0.0, 2000.0]);
    assert_eq!(rows.len(), 2);
    // A heavy update mix must not *grow* the configuration: maintenance
    // cost prunes or holds the index count.
    assert!(
        rows[1].indexes <= rows[0].indexes,
        "no-updates: {} indexes, heavy updates: {}",
        rows[0].indexes,
        rows[1].indexes
    );
    assert!(rows[0].benefit > 0.0);
}

#[test]
fn fig2_speedup_increases_with_budget_and_caps_at_all_index() {
    let mut lab = TpoxLab::quick();
    let fractions = [0.2, 0.5, 1.0];
    let r = speedup_budget::run(&mut lab, &fractions, &SearchAlgorithm::ALL);
    assert!(r.all_index_speedup > 1.0);
    for (algo, points) in &r.series {
        // Weak monotonicity: more budget never hurts much.
        for w in points.windows(2) {
            assert!(
                w[1].speedup >= w[0].speedup * 0.95,
                "{}: speedup dropped {} -> {}",
                algo.name(),
                w[0].speedup,
                w[1].speedup
            );
        }
        // Nothing beats the All-Index ceiling meaningfully on the training
        // workload.
        for p in points {
            assert!(
                p.speedup <= r.all_index_speedup * 1.10,
                "{}: {} above ceiling {}",
                algo.name(),
                p.speedup,
                r.all_index_speedup
            );
            assert!(p.size <= p.budget);
        }
    }
    // Paper shape: at the full All-Index budget, heuristics ≥ plain greedy.
    let at_full = |algo: SearchAlgorithm| {
        r.series
            .iter()
            .find(|(a, _)| *a == algo)
            .map(|(_, ps)| ps.last().unwrap().speedup)
            .unwrap()
    };
    assert!(
        at_full(SearchAlgorithm::GreedyHeuristics) >= at_full(SearchAlgorithm::Greedy) * 0.99,
        "heuristics should not lose to plain greedy at full budget"
    );
    let table = speedup_budget::fig2_table(&r);
    assert!(table.render().contains("Fig. 2"));
}

#[test]
fn fig3_reports_time_and_calls() {
    let mut lab = TpoxLab::quick();
    let fractions = [0.5, 1.0];
    let r = speedup_budget::run(
        &mut lab,
        &fractions,
        &[
            SearchAlgorithm::GreedyHeuristics,
            SearchAlgorithm::TopDownFull,
        ],
    );
    for (_, points) in &r.series {
        for p in points {
            assert!(p.optimizer_calls > 0);
        }
    }
    let table = speedup_budget::fig3_table(&r);
    assert!(table.render().contains("calls"));
}

#[test]
fn latency_histogram_table_covers_hists_and_phases() {
    let mut lab = TpoxLab::quick();
    let workload = lab.workload();
    let table =
        speedup_budget::latency_table(&mut lab, &workload, &[SearchAlgorithm::GreedyHeuristics]);
    let text = table.render();
    assert!(text.contains("what_if_call"), "{text}");
    assert!(text.contains("contain_check"), "{text}");
    // Since PR 9 every algorithm records its own search-loop span, so the
    // evaluate phase nests under the algorithm's name.
    assert!(text.contains("phase:advise:search:heuristics"), "{text}");
    assert!(
        text.contains("phase:advise:search:heuristics:evaluate"),
        "{text}"
    );
    // Every row that recorded samples has a sane percentile ladder.
    for row in &table.rows {
        let count: u64 = row[2].parse().unwrap();
        let p50: u64 = row[3].parse().unwrap();
        let max: u64 = row[6].parse().unwrap();
        if count > 0 {
            assert!(p50 <= max, "p50 {p50} > max {max} in {row:?}");
        } else {
            assert_eq!(max, 0, "empty histogram with nonzero max in {row:?}");
        }
    }
    // What-if calls were actually recorded.
    assert!(table
        .rows
        .iter()
        .any(|r| r[1] == "what_if_call" && r[2].parse::<u64>().unwrap() > 0));
}

#[test]
fn e16_cophy_compresses_and_matches_greedy_quality() {
    let mut lab = TpoxLab::quick();
    let rows = cophy_scaling::run(
        &mut lab,
        &[60, 240],
        &[SearchAlgorithm::Cophy, SearchAlgorithm::Greedy],
        240,
    );
    assert_eq!(rows.len(), 4);
    for pair in rows.chunks(2) {
        let (cophy, greedy) = (&pair[0], &pair[1]);
        assert_eq!(cophy.algo, SearchAlgorithm::Cophy);
        assert_eq!(greedy.algo, SearchAlgorithm::Greedy);
        // Compression actually folded statements into templates...
        assert!(cophy.templates > 0);
        assert!(cophy.templates < cophy.n_statements as u64);
        // ...and quality held at no more calls than greedy makes over the
        // raw workload, whose evaluator costs each template once too.
        assert!(
            cophy.evaluate_calls <= greedy.evaluate_calls,
            "cophy {} calls vs greedy {}",
            cophy.evaluate_calls,
            greedy.evaluate_calls
        );
        assert!(cophy.lp_bound > 0.0);
        let rel = (cophy.est_benefit - greedy.est_benefit).abs() / greedy.est_benefit.max(1.0);
        assert!(
            rel < 0.05,
            "quality diverged: cophy {} vs greedy {}",
            cophy.est_benefit,
            greedy.est_benefit
        );
        // DP cross-check ran on these small sizes and stayed close.
        assert!(cophy.dp_gap_pct.is_finite());
        assert!(cophy.dp_gap_pct < 10.0, "dp gap {}%", cophy.dp_gap_pct);
    }
    // Template growth is sublinear: quadrupling the workload did not
    // quadruple the template count.
    assert!(rows[2].templates < rows[0].templates * 4);
    let t = cophy_scaling::table(&rows);
    assert!(t.render().contains("lp_bound"));
}

#[test]
fn table3_generalization_expands_candidates() {
    let mut lab = TpoxLab::quick();
    let rows = candidates::run(&mut lab, &[10, 20, 30]);
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(r.basic > 0);
        assert!(r.total >= r.basic, "generalization cannot shrink the set");
    }
    // Candidate counts grow with workload size.
    assert!(rows[2].basic >= rows[0].basic);
    // Generalization finds something on at least one workload size.
    assert!(
        rows.iter().any(|r| r.total > r.basic),
        "no generalized candidates found at any size: {rows:?}"
    );
}

#[test]
fn table4_topdown_recommends_more_generals_with_more_budget() {
    let mut lab = TpoxLab::quick();
    let rows = generality::run(&mut lab, &[1.05, 8.0]);
    assert_eq!(rows.len(), 2);
    let g = |row: &generality::GeneralityRow, algo: SearchAlgorithm| {
        row.counts
            .iter()
            .find(|(a, _)| *a == algo)
            .map(|(_, c)| c.general)
            .unwrap()
    };
    // Top-down at the larger budget keeps at least as many generals as at
    // the tight budget.
    assert!(g(&rows[1], SearchAlgorithm::TopDownLite) >= g(&rows[0], SearchAlgorithm::TopDownLite));
    // Heuristics is conservative about generals (paper: almost always 0).
    for row in &rows {
        let heur = g(row, SearchAlgorithm::GreedyHeuristics);
        let td = g(&rows[1], SearchAlgorithm::TopDownLite);
        assert!(
            heur <= td.max(1),
            "heuristics G={heur} exceeds topdown G={td}"
        );
    }
}

#[test]
fn fig4_generalization_closes_gap_with_training_size() {
    let mut lab = TpoxLab::quick();
    let r = generalization::run(&mut lab, &[2, 10, 20], 21.0, false);
    assert!(r.all_index > 1.0);
    let td: Vec<f64> = r.points.iter().map(|p| p.speedups[0]).collect();
    // Training on everything beats training on almost nothing.
    assert!(
        td[2] >= td[0] * 0.95,
        "topdown full-training {} < tiny-training {}",
        td[2],
        td[0]
    );
    // With full training both algorithms approach the All-Index ceiling.
    let last = &r.points[2];
    for s in &last.speedups {
        assert!(
            *s >= r.all_index * 0.5,
            "{s} far below ceiling {}",
            r.all_index
        );
    }
}

#[test]
fn fig5_actual_execution_follows_estimates() {
    let mut lab = TpoxLab::quick();
    let r = generalization::run(&mut lab, &[20], 21.0, true);
    assert!(r.actual);
    assert!(
        r.all_index > 1.0,
        "actual all-index speedup {}",
        r.all_index
    );
    for s in &r.points[0].speedups {
        assert!(*s > 1.0, "actual speedup {s} not > 1 with full training");
    }
}

#[test]
fn xmark_experiment_runs_and_speeds_up() {
    let (points, all_speedup, all_size) = xmark_exp::run(&XmarkConfig::tiny(), &[0.5, 1.0]);
    assert!(all_size > 0);
    assert!(all_speedup > 1.0);
    assert_eq!(points.len(), 2);
    for p in &points {
        for s in &p.speedups {
            assert!(*s >= 1.0);
        }
    }
}

#[test]
fn ablation_machinery_reduces_optimizer_calls() {
    let mut lab = TpoxLab::quick();
    let rows = ablation::run_switches(&mut lab);
    let full = rows
        .iter()
        .find(|r| r.switches == (true, true, true))
        .unwrap();
    let none = rows
        .iter()
        .find(|r| r.switches == (false, false, false))
        .unwrap();
    assert!(
        full.optimizer_calls < none.optimizer_calls,
        "machinery on: {} calls, off: {} calls",
        full.optimizer_calls,
        none.optimizer_calls
    );
    // The chosen configuration's benefit is essentially unaffected by the
    // evaluation machinery (it is an efficiency device, not an accuracy
    // trade).
    let rel = (full.benefit - none.benefit).abs() / none.benefit.abs().max(1.0);
    assert!(
        rel < 0.05,
        "benefit drifted: {} vs {}",
        full.benefit,
        none.benefit
    );
}

#[test]
fn ablation_beta_zero_blocks_generals() {
    let mut lab = TpoxLab::quick();
    let rows = ablation::run_beta(&mut lab, &[0.0, 1.0]);
    // β = 0 admits a general index only if it is no larger than its
    // specifics combined — rare; β = 1 is permissive.
    assert!(rows[0].general <= rows[1].general);
}

#[test]
fn e17_warm_path_is_byte_identical_and_faster() {
    // Reduced scale: 2 timing rounds. The 5x and scaling bars belong to
    // the release-mode `xia-bench gate server`; a debug smoke run only
    // asserts correctness plus a sane warm-path advantage.
    let e = server_warm::run(&xia_workloads::tpox::TpoxConfig::tiny(), 2, 2, None);
    assert!(e.identical, "warm recommendation diverged from cold");
    assert!(
        e.concurrent_identical,
        "a concurrent session's recommendation diverged from cold"
    );
    assert!(e.cold_secs > 0.0 && e.warm_secs > 0.0);
    assert!(
        e.speedup > 1.0,
        "warm repeat recommend slower than a cold run: {:.2}x",
        e.speedup
    );
    let sessions: Vec<usize> = e.throughput.iter().map(|&(n, _)| n).collect();
    assert_eq!(sessions, server_warm::SESSION_COUNTS);
    assert!(e.throughput.iter().all(|&(_, rps)| rps > 0.0));
    let t = server_warm::table(&e);
    assert!(t.render().contains("warm speedup"));
}
