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
