//! The exact optimum as an oracle: how far each search sits from the best
//! configuration its own cost model allows.
//!
//! The quick lab's 11-query TPoX workload has few enough candidates to
//! score every configuration up to the All-Index size through one
//! [`BenefitEvaluator`] (its group and statement caches make that cheap).
//! The best of them within a budget is the optimum every search is
//! measured against. The test asserts invariants, not today's regrets:
//! no search beats the optimum, every result fits its budget, the optimum
//! is monotone in the budget, and at the All-Index size it is at least
//! All-Index's benefit.
//!
//! `dp` is held to its own, narrower optimum: the best sum of standalone
//! benefits under its quantized weights, found here by brute force.

use xia_advisor::search::standalone_benefits;
use xia_advisor::{Advisor, AdvisorParams, BenefitEvaluator, CandId, SearchAlgorithm};
use xia_bench::lab::TpoxLab;

/// Budgets as fractions of the All-Index size, ascending.
const BUDGETS: [f64; 5] = [0.20, 0.35, 0.50, 0.75, 1.0];

/// The most candidates whose configurations are enumerated exhaustively.
const MAX_CANDIDATES: usize = 22;

/// `(size, benefit)` of every configuration of `ids` no larger than
/// `max_size`, the empty one included.
fn every_configuration(
    ev: &mut BenefitEvaluator<'_>,
    ids: &[(CandId, u64)],
    max_size: u64,
) -> Vec<(u64, f64)> {
    fn visit(
        ev: &mut BenefitEvaluator<'_>,
        ids: &[(CandId, u64)],
        config: &mut Vec<CandId>,
        size: u64,
        max_size: u64,
        out: &mut Vec<(u64, f64)>,
    ) {
        out.push((size, ev.benefit(config)));
        for (i, &(id, id_size)) in ids.iter().enumerate() {
            if size + id_size <= max_size {
                config.push(id);
                visit(ev, &ids[i + 1..], config, size + id_size, max_size, out);
                config.pop();
            }
        }
    }
    let mut out = Vec::new();
    visit(ev, ids, &mut Vec::new(), 0, max_size, &mut out);
    out
}

#[test]
fn no_search_beats_the_exact_optimum() {
    let mut lab = TpoxLab::quick();
    let workload = lab.workload();
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, &workload, &params);
    assert!(
        set.len() <= MAX_CANDIDATES,
        "{} candidates: too many to enumerate",
        set.len()
    );
    let all_index = Advisor::all_index_config(&set);
    let all_index_size = set.config_size(&all_index);
    let budgets = BUDGETS.map(|f| (all_index_size as f64 * f).round() as u64);

    Advisor::freshen(&mut lab.db, &params.telemetry);
    let mut ev = BenefitEvaluator::configured(&lab.db, &workload, &set, &params);
    let ids: Vec<(CandId, u64)> = set.ids().map(|id| (id, set.get(id).size)).collect();
    let configurations = every_configuration(&mut ev, &ids, all_index_size);
    assert!(configurations.len() > 1000, "{}", configurations.len());
    let optimum = budgets.map(|budget| {
        (configurations.iter())
            .filter(|&&(size, _)| size <= budget)
            .map(|&(_, benefit)| benefit)
            .fold(f64::NEG_INFINITY, f64::max)
    });
    let all_index_benefit = ev.benefit(&all_index);
    drop(ev);

    for pair in optimum.windows(2) {
        assert!(pair[0] <= pair[1], "the optimum falls: {optimum:?}");
    }
    assert!(
        optimum[BUDGETS.len() - 1] >= all_index_benefit,
        "the optimum at 1.0x ({}) is below All-Index ({all_index_benefit})",
        optimum[BUDGETS.len() - 1]
    );
    for algorithm in SearchAlgorithm::ALL {
        for ((fraction, budget), best) in BUDGETS.iter().zip(budgets).zip(optimum) {
            let rec = Advisor::recommend_prepared(
                &mut lab.db,
                &workload,
                &set,
                budget,
                algorithm,
                &params,
            )
            .expect("the workload is advisable");
            let name = algorithm.name();
            assert!(
                rec.total_size <= budget,
                "{name} at {fraction}x: size {} over the budget {budget}",
                rec.total_size
            );
            assert!(
                rec.est_benefit <= best,
                "{name} at {fraction}x: benefit {} beats the optimum {best}",
                rec.est_benefit
            );
        }
    }
}

/// The best sum of `values` over subsets whose `weights` sum to at most
/// `cap`, by exhaustive search.
fn best_subset_sum(items: &[(u64, f64)], cap: u64) -> f64 {
    fn visit(items: &[(u64, f64)], room: u64, value: f64) -> f64 {
        let mut best = value;
        for (i, &(weight, item_value)) in items.iter().enumerate() {
            if weight <= room {
                best = best.max(visit(&items[i + 1..], room - weight, value + item_value));
            }
        }
        best
    }
    visit(items, cap, 0.0)
}

#[test]
fn dp_finds_the_best_standalone_sum_under_its_quantized_weights() {
    let mut lab = TpoxLab::quick();
    let workload = lab.workload();
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, &workload, &params);
    assert!(set.len() <= MAX_CANDIDATES, "{} candidates", set.len());
    let all_index_size = set.config_size(&Advisor::all_index_config(&set));

    Advisor::freshen(&mut lab.db, &params.telemetry);
    let ids: Vec<CandId> = set.ids().collect();
    let standalone = {
        let mut ev = BenefitEvaluator::configured(&lab.db, &workload, &set, &params);
        standalone_benefits(&mut ev, &ids)
    };

    for fraction in BUDGETS {
        let budget = (all_index_size as f64 * fraction).round() as u64;
        // dp's quantization: one weight unit is 1/2048 of the budget
        // (integer division, at least one byte); a candidate weighs its
        // size in units rounded up, and the capacity is the budget in
        // units rounded down. Only candidates with a positive standalone
        // benefit and a size within the budget take part.
        let unit = (budget / 2048).max(1);
        let items: Vec<(u64, f64)> = (ids.iter())
            .map(|id| (set.get(*id).size, standalone[id]))
            .filter(|&(size, benefit)| benefit > 0.0 && size <= budget)
            .map(|(size, benefit)| (size.div_ceil(unit), benefit))
            .collect();
        let best = best_subset_sum(&items, budget / unit);
        assert!(best > 0.0, "at {fraction}x nothing is worth packing");

        let rec = Advisor::recommend_prepared(
            &mut lab.db,
            &workload,
            &set,
            budget,
            SearchAlgorithm::Dp,
            &params,
        )
        .expect("the workload is advisable");
        let sum: f64 = rec.config.iter().map(|id| standalone[id]).sum();
        assert!(
            (sum - best).abs() <= 1e-9 * best,
            "dp at {fraction}x: standalone sum {sum}, brute-force best {best}"
        );
    }
}
