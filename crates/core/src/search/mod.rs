//! Configuration search algorithms (paper Section VI).
//!
//! All five searches solve the same 0/1 knapsack: choose a subset of
//! candidate indexes whose total estimated size fits the disk budget,
//! maximizing workload benefit. They differ in how they handle *index
//! interaction* and *generality*:
//!
//! | algorithm            | interaction | goal |
//! |----------------------|-------------|------|
//! | [`greedy`]           | ignored     | classic density greedy |
//! | [`greedy_heuristics`]| full        | best config for *this* workload |
//! | [`top_down`] (lite)  | ignored     | as general as possible |
//! | [`top_down`] (full)  | full        | as general as possible |
//! | [`dp_knapsack`]      | ignored     | optimal for the standalone sum (weights rounded up to 1/2048 of the budget) |
//! | [`cophy`]            | ignored     | LP relaxation with a certified bound on the standalone sum |
//!
//! The *standalone sum* of a configuration is the sum of its members'
//! single-index benefits ([`standalone_benefits`]); where indexes interact,
//! the configuration's real benefit differs from it.
//!
//! [`cophy`] is the scale play: paired with workload compression it costs
//! one standalone batch over the compressed workload, solves the
//! fractional knapsack exactly, and rounds — reporting the LP optimum as
//! a quality certificate: an upper bound on the standalone sum of any
//! configuration within the budget (see `search/cophy.rs` for the bound
//! argument).

mod cophy;
mod dp;
mod greedy;
mod topdown;

pub use cophy::{cophy, cophy_with_outcome, CophyOutcome};
pub use dp::dp_knapsack;
pub use greedy::{greedy, greedy_heuristics};
pub use topdown::top_down;

use crate::benefit::BenefitEvaluator;
use crate::candidate::CandId;
use std::collections::HashMap;

/// Shared helper: standalone (single-index) benefits. Evaluated as one
/// batch so every singleton's what-if calls fan out across the evaluator's
/// worker pool — the largest single source of parallel speedup — and
/// memoized by the evaluator's sub-configuration cache for later reuse.
/// Public so the quality gate can score configurations in the same
/// standalone currency as [`cophy_with_outcome`]'s LP certificate.
pub fn standalone_benefits(
    ev: &mut BenefitEvaluator<'_>,
    candidates: &[CandId],
) -> HashMap<CandId, f64> {
    let configs: Vec<Vec<CandId>> = candidates.iter().map(|&id| vec![id]).collect();
    let benefits = ev.benefit_batch(&configs);
    candidates.iter().copied().zip(benefits).collect()
}

/// Sorts candidate ids by benefit density (benefit per byte), descending;
/// ties by smaller size, then by id for determinism.
pub(crate) fn by_density(
    ev: &BenefitEvaluator<'_>,
    benefits: &HashMap<CandId, f64>,
    candidates: &[CandId],
) -> Vec<CandId> {
    let mut out: Vec<CandId> = candidates.to_vec();
    out.sort_by(|&a, &b| {
        let da = density(ev, benefits, a);
        let db = density(ev, benefits, b);
        db.partial_cmp(&da)
            .expect("finite densities")
            .then_with(|| {
                ev.candidates()
                    .get(a)
                    .size
                    .cmp(&ev.candidates().get(b).size)
            })
            .then_with(|| a.cmp(&b))
    });
    out
}

pub(crate) fn density(
    ev: &BenefitEvaluator<'_>,
    benefits: &HashMap<CandId, f64>,
    id: CandId,
) -> f64 {
    let size = ev.candidates().get(id).size.max(1) as f64;
    benefits.get(&id).copied().unwrap_or(0.0) / size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{Advisor, AdvisorParams};
    use crate::candidate::CandidateSet;
    use xia_storage::Database;
    use xia_workloads::tpox::{self, TpoxConfig};
    use xia_workloads::Workload;

    fn setup() -> (Database, Workload, CandidateSet) {
        let mut db = Database::new();
        let cfg = TpoxConfig::tiny();
        tpox::generate(&mut db, &cfg);
        let w = Workload::from_texts(tpox::queries(&cfg).iter().map(|s| s.as_str())).unwrap();
        let set = Advisor::prepare(&mut db, &w, &AdvisorParams::default());
        (db, w, set)
    }

    #[test]
    fn greedy_respects_budget_exactly() {
        let (mut db, w, set) = setup();
        let all: Vec<CandId> = set.ids().collect();
        for frac in [0.1, 0.3, 0.7] {
            let budget = (set.config_size(&set.basic_ids()) as f64 * frac) as u64;
            let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
            let config = greedy(&mut ev, &all, budget);
            assert!(set.config_size(&config) <= budget);
        }
    }

    #[test]
    fn greedy_orders_by_density() {
        let (mut db, w, set) = setup();
        let all: Vec<CandId> = set.ids().collect();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let benefits = standalone_benefits(&mut ev, &all);
        let order = by_density(&ev, &benefits, &all);
        for pair in order.windows(2) {
            assert!(
                density(&ev, &benefits, pair[0]) >= density(&ev, &benefits, pair[1]),
                "density order violated"
            );
        }
    }

    #[test]
    fn heuristics_never_selects_covered_duplicates() {
        let (mut db, w, set) = setup();
        let all: Vec<CandId> = set.ids().collect();
        let budget = set.config_size(&all);
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let config = greedy_heuristics(&mut ev, &all, budget, 0.10);
        // No chosen index's pattern may be covered by another chosen index
        // of the same collection/kind (redundancy would waste budget).
        for &a in &config {
            for &b in &config {
                if a == b {
                    continue;
                }
                let (ca, cb) = (set.get(a), set.get(b));
                if ca.collection == cb.collection && ca.kind == cb.kind {
                    assert!(
                        !xia_xpath::contain::covers(&ca.pattern, &cb.pattern),
                        "{} covers co-selected {}",
                        ca.pattern,
                        cb.pattern
                    );
                }
            }
        }
    }

    #[test]
    fn topdown_prefers_generals_at_large_budget() {
        let (mut db, w, set) = setup();
        let all: Vec<CandId> = set.ids().collect();
        let budget = 4 * set.config_size(&all);
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let config = top_down(&mut ev, &all, budget, false);
        assert!(!config.is_empty());
        let generals = config
            .iter()
            .filter(|&&id| set.get(id).origin == crate::candidate::CandOrigin::Generalized)
            .count();
        // With four times the All-Index budget, top-down keeps the DAG
        // roots (all general) rather than descending.
        assert!(generals > 0, "top-down kept no general index");
    }

    #[test]
    fn topdown_descends_to_fit_tight_budget() {
        let (mut db, w, set) = setup();
        let all: Vec<CandId> = set.ids().collect();
        let budget = set.config_size(&set.basic_ids()) / 3;
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let config = top_down(&mut ev, &all, budget, true);
        assert!(set.config_size(&config) <= budget);
    }

    #[test]
    fn dp_dominates_greedy_on_standalone_benefit() {
        let (mut db, w, set) = setup();
        let all: Vec<CandId> = set.ids().collect();
        let budget = set.config_size(&set.basic_ids()) / 2;
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let benefits = standalone_benefits(&mut ev, &all);
        let g = greedy(&mut ev, &all, budget);
        let d = dp_knapsack(&mut ev, &all, budget);
        let value = |cfg: &[CandId]| -> f64 {
            cfg.iter()
                .map(|id| benefits.get(id).copied().unwrap_or(0.0))
                .sum()
        };
        // DP is optimal for the independent-benefit knapsack, so it must be
        // at least as good as greedy under that objective.
        assert!(
            value(&d) >= value(&g) - 1e-6,
            "dp={} greedy={}",
            value(&d),
            value(&g)
        );
        assert!(set.config_size(&d) <= budget);
    }

    #[test]
    fn all_searches_return_empty_on_zero_budget() {
        let (mut db, w, set) = setup();
        let all: Vec<CandId> = set.ids().collect();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        assert!(greedy(&mut ev, &all, 0).is_empty());
        assert!(greedy_heuristics(&mut ev, &all, 0, 0.1).is_empty());
        assert!(dp_knapsack(&mut ev, &all, 0).is_empty());
        assert!(top_down(&mut ev, &all, 0, false).is_empty());
        assert!(top_down(&mut ev, &all, 0, true).is_empty());
        assert!(cophy(&mut ev, &all, 0).is_empty());
    }

    #[test]
    fn corrupt_size_is_rejected_without_panic() {
        // A candidate whose size was corrupted to u64::MAX (adversarial or
        // lenient-load data) must never be admitted, and the knapsack
        // accounting must not wrap around and admit oversized followers.
        let (mut db, w, mut set) = setup();
        let all: Vec<CandId> = set.ids().collect();
        let victim = all[0];
        let budget = set.config_size(&set.basic_ids());
        set.get_mut(victim).size = u64::MAX;
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        let g = greedy(&mut ev, &all, budget);
        assert!(!g.contains(&victim), "greedy admitted a u64::MAX index");
        assert!(set.config_size(&g) <= budget);
        let h = greedy_heuristics(&mut ev, &all, budget, 0.10);
        assert!(!h.contains(&victim), "heuristics admitted a u64::MAX index");
        assert!(set.config_size(&h) <= budget);
        let d = dp_knapsack(&mut ev, &all, budget);
        assert!(!d.contains(&victim), "dp admitted a u64::MAX index");
        assert!(set.config_size(&d) <= budget);
        let t = top_down(&mut ev, &all, budget, false);
        assert!(!t.contains(&victim), "top-down admitted a u64::MAX index");
        let c = cophy(&mut ev, &all, budget);
        assert!(!c.contains(&victim), "cophy admitted a u64::MAX index");
        assert!(set.config_size(&c) <= budget);
    }

    #[test]
    fn heuristics_redundancy_pass_respects_budget_and_coverage() {
        // Sweep budgets so the final redundancy pass actually prunes and
        // refills; after each run the config must stay within budget and the
        // refill must not have re-admitted coverage-redundant indexes.
        let (mut db, w, set) = setup();
        let all: Vec<CandId> = set.ids().collect();
        let full = set.config_size(&all);
        for frac in [0.15, 0.35, 0.6, 1.0] {
            let budget = (full as f64 * frac) as u64;
            let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
            let config = greedy_heuristics(&mut ev, &all, budget, 0.10);
            assert!(
                set.config_size(&config) <= budget,
                "budget {budget} exceeded: {}",
                set.config_size(&config)
            );
            for &a in &config {
                for &b in &config {
                    if a == b {
                        continue;
                    }
                    let (ca, cb) = (set.get(a), set.get(b));
                    if ca.collection == cb.collection && ca.kind == cb.kind {
                        assert!(
                            !xia_xpath::contain::covers(&ca.pattern, &cb.pattern),
                            "budget {budget}: {} covers co-selected {}",
                            ca.pattern,
                            cb.pattern
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_candidate_list_yields_empty_configs() {
        let (mut db, w, set) = setup();
        let mut ev = BenefitEvaluator::new(&mut db, &w, &set);
        assert!(greedy(&mut ev, &[], u64::MAX).is_empty());
        assert!(dp_knapsack(&mut ev, &[], u64::MAX).is_empty());
        assert!(greedy_heuristics(&mut ev, &[], u64::MAX, 0.1).is_empty());
    }
}
