//! Tuning reports: the human-readable artifact of an advisor run.
//!
//! A report shows, per workload statement, the plan and cost before and
//! after the recommended configuration, the recommended DDL, and the
//! advisor's own efficiency counters — what a DBA reads to decide whether
//! to apply the recommendation.

use crate::advisor::Recommendation;
use crate::candidate::CandidateSet;
use std::fmt::Write as _;
use xia_optimizer::Optimizer;
use xia_storage::Database;
use xia_workloads::Workload;

/// Per-statement before/after comparison.
#[derive(Debug, Clone)]
pub struct StatementReport {
    /// The statement text (first line, truncated).
    pub text: String,
    /// Estimated cost with no candidate indexes.
    pub cost_before: f64,
    /// Estimated cost under the recommended configuration.
    pub cost_after: f64,
    /// Plan summary under the recommended configuration.
    pub plan_after: String,
    /// Frequency weight.
    pub freq: f64,
}

/// A complete tuning report.
#[derive(Debug, Clone)]
pub struct TuningReport {
    /// Per-statement comparisons, in workload order.
    pub statements: Vec<StatementReport>,
    /// The recommendation the report describes.
    pub recommendation: Recommendation,
}

impl TuningReport {
    /// Builds a report by re-costing every statement with and without the
    /// recommendation's virtual indexes.
    pub fn build(
        db: &mut Database,
        workload: &Workload,
        set: &CandidateSet,
        recommendation: &Recommendation,
    ) -> TuningReport {
        db.runstats_all();
        let clear = |db: &mut Database| {
            for name in db
                .collection_names()
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
            {
                if let Some(cat) = db.catalog_mut(&name) {
                    cat.drop_all_virtual();
                }
            }
        };
        clear(db);
        let costs_before: Vec<f64> = workload
            .entries()
            .iter()
            .map(|e| cost_of(db, e.statement).unwrap_or(0.0))
            .collect();

        // Install the recommendation as virtual indexes.
        for &id in &recommendation.config {
            let c = set.get(id);
            let (pattern, kind, coll) = (c.pattern.clone(), c.kind, c.collection.clone());
            if let Some((collection, catalog, stats)) = db.parts_mut(&coll) {
                catalog.create_virtual(collection, stats, &pattern, kind);
            }
        }
        let statements: Vec<StatementReport> = workload
            .entries()
            .iter()
            .zip(costs_before)
            .map(|(e, cost_before)| {
                let (cost_after, plan_after) = match plan_of(db, e.statement) {
                    Some((c, p)) => (c, p),
                    None => (0.0, "n/a".to_string()),
                };
                StatementReport {
                    text: first_line(e.text),
                    cost_before,
                    cost_after,
                    plan_after,
                    freq: e.freq,
                }
            })
            .collect();
        clear(db);
        TuningReport {
            statements,
            recommendation: recommendation.clone(),
        }
    }

    /// Renders the report as text.
    pub fn render(&self) -> String {
        let rec = &self.recommendation;
        let mut out = String::new();
        let _ = writeln!(out, "=== XML Index Advisor — tuning report ===");
        let _ = writeln!(
            out,
            "workload: {} statements; candidates: {} basic, {} total",
            self.statements.len(),
            rec.candidates_basic,
            rec.candidates_total
        );
        let _ = writeln!(
            out,
            "recommendation: {} indexes ({} general, {} specific), {} bytes",
            rec.indexes.len(),
            rec.general_count,
            rec.specific_count,
            rec.total_size
        );
        let _ = writeln!(
            out,
            "estimated workload speedup: {:.2}x (cost {:.1} → {:.1}); benefit {:.1}",
            rec.speedup, rec.baseline_cost, rec.workload_cost, rec.est_benefit
        );
        let _ = writeln!(
            out,
            "advisor: {:.1} ms, {} Evaluate-mode optimizer calls",
            rec.advisor_time.as_secs_f64() * 1e3,
            rec.eval_stats.optimizer_calls
        );
        let _ = writeln!(out, "\n--- recommended DDL ---");
        out.push_str(&rec.ddl());
        let _ = writeln!(out, "\n--- per-statement impact ---");
        for s in &self.statements {
            let speedup = if s.cost_after > 0.0 {
                s.cost_before / s.cost_after
            } else {
                1.0
            };
            let _ = writeln!(
                out,
                "{:>8.1} → {:>8.1} ({speedup:>5.2}x, freq {:.0})  {}",
                s.cost_before, s.cost_after, s.freq, s.text
            );
            let _ = writeln!(out, "          plan: {}", s.plan_after);
        }
        out
    }
}

fn first_line(text: &str) -> String {
    let line = text.lines().next().unwrap_or("").trim();
    if line.len() > 72 {
        format!("{}…", &line[..71])
    } else {
        line.to_string()
    }
}

fn cost_of(db: &Database, stmt: &xia_xpath::Statement) -> Option<f64> {
    let (collection, catalog, stats) = db.parts(stmt.collection())?;
    Some(
        Optimizer::new(collection, stats, catalog)
            .optimize(stmt)
            .total_cost,
    )
}

fn plan_of(db: &Database, stmt: &xia_xpath::Statement) -> Option<(f64, String)> {
    let (collection, catalog, stats) = db.parts(stmt.collection())?;
    let plan = Optimizer::new(collection, stats, catalog).optimize(stmt);
    Some((plan.total_cost, plan.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{Advisor, AdvisorParams, SearchAlgorithm};
    use xia_workloads::tpox::{self, TpoxConfig};

    #[test]
    fn report_shows_per_statement_improvements() {
        let mut db = Database::new();
        let cfg = TpoxConfig::tiny();
        tpox::generate(&mut db, &cfg);
        let w = Workload::from_texts(tpox::queries(&cfg).iter().map(|s| s.as_str())).unwrap();
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
        let report = TuningReport::build(&mut db, &w, &set, &rec);
        assert_eq!(report.statements.len(), w.len());
        // Every improved statement's after-cost is at most its before-cost.
        let improved = report
            .statements
            .iter()
            .filter(|s| s.cost_after < s.cost_before)
            .count();
        assert!(improved >= 5, "only {improved} statements improved");
        for s in &report.statements {
            assert!(s.cost_after <= s.cost_before + 1e-6, "{}", s.text);
        }
        let text = report.render();
        assert!(text.contains("tuning report"), "{text}");
        assert!(text.contains("CREATE INDEX"), "{text}");
        assert!(text.contains("IXAND"), "{text}");
        // Report building leaves no virtual indexes behind.
        for name in db.collection_names() {
            assert!(db.catalog(name).unwrap().iter().all(|d| !d.is_virtual()));
        }
    }

    #[test]
    fn report_on_empty_recommendation_is_flat() {
        let mut db = Database::new();
        let cfg = TpoxConfig::tiny();
        tpox::generate(&mut db, &cfg);
        let w = Workload::from_texts(tpox::queries(&cfg).iter().map(|s| s.as_str())).unwrap();
        let params = AdvisorParams::default();
        let set = Advisor::prepare(&mut db, &w, &params);
        let rec = Advisor::recommend_prepared(
            &mut db,
            &w,
            &set,
            0,
            SearchAlgorithm::GreedyHeuristics,
            &params,
        )
        .unwrap();
        let report = TuningReport::build(&mut db, &w, &set, &rec);
        for s in &report.statements {
            assert!((s.cost_after - s.cost_before).abs() < 1e-9);
        }
    }
}
