//! Greedy knapsack searches: plain, and with the paper's heuristics
//! (Section VI-A).

use super::{by_density, standalone_benefits};
use crate::benefit::BenefitEvaluator;
use crate::candidate::CandId;
use std::collections::HashSet;
use xia_obs::{Event, PruneReason};

/// Plain greedy search, as in relational index advisors: rank candidates
/// by standalone benefit density and take them in order while they fit.
/// Ignores index interaction — the paper shows this wastes budget on
/// redundant indexes (its Fig. 2 greedy line).
pub fn greedy(ev: &mut BenefitEvaluator<'_>, candidates: &[CandId], budget: u64) -> Vec<CandId> {
    let telemetry = ev.telemetry().clone();
    let journal = ev.journal().clone();
    let ctl = ev.ctl().clone();
    let benefits = standalone_benefits(ev, candidates);
    let order = by_density(ev, &benefits, candidates);
    let mut chosen = Vec::new();
    let mut used = 0u64;
    for id in order {
        // Cooperative stop: unwind with the best configuration so far.
        if ctl.poll().is_some() {
            break;
        }
        telemetry.incr(xia_obs::Counter::GreedyIterations);
        if benefits[&id] <= 0.0 {
            continue;
        }
        let size = ev.candidates().get(id).size;
        // checked_add: a corrupt size from a lenient load must not wrap
        // the accumulator and admit an oversized index.
        let kept = if let Some(next_used) = used.checked_add(size).filter(|&t| t <= budget) {
            chosen.push(id);
            used = next_used;
            true
        } else {
            false
        };
        journal.emit(|| Event::KnapsackDecision {
            pattern: ev.candidates().get(id).pattern_text(),
            kept,
            benefit: benefits[&id],
            size,
        });
    }
    chosen
}

/// Greedy search with the paper's heuristics:
///
/// * the benefit of the *entire* configuration decides admission (index
///   interaction respected);
/// * a bitmap of covered workload patterns blocks general indexes that
///   only replicate coverage already chosen;
/// * a general index `x_g` generalizing basics `x_1..x_n` is admitted only
///   if `IB(x_g) ≥ IB(x_1..x_n)` and
///   `Size(x_g) ≤ (1+β)·Σ Size(x_i)` (β defaults to 10%).
pub fn greedy_heuristics(
    ev: &mut BenefitEvaluator<'_>,
    candidates: &[CandId],
    budget: u64,
    beta: f64,
) -> Vec<CandId> {
    let telemetry = ev.telemetry().clone();
    let journal = ev.journal().clone();
    let ctl = ev.ctl().clone();
    let benefits = standalone_benefits(ev, candidates);
    let order = by_density(ev, &benefits, candidates);

    let mut chosen: Vec<CandId> = Vec::new();
    let mut chosen_benefit = 0.0f64;
    let mut used = 0u64;
    // Bitmap of basic candidates whose pattern is covered by the selection.
    let mut covered: HashSet<CandId> = HashSet::new();
    let basics = ev.candidates().basic_ids();

    for id in order {
        // Cooperative stop: unwind with the best configuration so far
        // (the redundancy pass below is skipped too).
        if ctl.poll().is_some() {
            break;
        }
        telemetry.incr(xia_obs::Counter::GreedyIterations);
        if benefits[&id] <= 0.0 {
            continue;
        }
        let size = ev.candidates().get(id).size;
        // checked_add against u64 wraparound from corrupt candidate sizes.
        let Some(next_used) = used.checked_add(size).filter(|&t| t <= budget) else {
            continue;
        };
        let is_general = {
            let c = ev.candidates().get(id);
            c.origin == crate::candidate::CandOrigin::Generalized
        };
        if is_general {
            let covered_basics = basics_covered_by(ev, id, &basics);
            // Redundancy bitmap: a general index whose coverage adds no new
            // workload pattern is a pure replication.
            if !covered_basics.is_empty() && covered_basics.iter().all(|b| covered.contains(b)) {
                telemetry.incr(xia_obs::Counter::CandidatesPrunedHeuristic);
                journal.emit(|| Event::CandidatePruned {
                    pattern: ev.candidates().get(id).pattern_text(),
                    reason: PruneReason::CoverageRedundant,
                });
                continue;
            }
            // Heuristic 2: bounded size expansion over the specifics.
            let spec_size: u64 = covered_basics
                .iter()
                .map(|&b| ev.candidates().get(b).size)
                .fold(0u64, u64::saturating_add);
            if spec_size > 0 && size as f64 > (1.0 + beta) * spec_size as f64 {
                telemetry.incr(xia_obs::Counter::CandidatesPrunedHeuristic);
                journal.emit(|| Event::CandidatePruned {
                    pattern: ev.candidates().get(id).pattern_text(),
                    reason: PruneReason::SizeRule,
                });
                continue;
            }
            // Heuristic 1: the general index must be at least as good as
            // the specifics it replaces (improved benefit over the current
            // configuration).
            let mut with_general = chosen.clone();
            with_general.push(id);
            let ib_general = ev.benefit_delta(&chosen, id);
            let mut with_specifics = chosen.clone();
            for &b in &covered_basics {
                if !with_specifics.contains(&b) {
                    with_specifics.push(b);
                }
            }
            let ib_specifics = ev.benefit(&with_specifics);
            if ib_general < ib_specifics {
                telemetry.incr(xia_obs::Counter::CandidatesPrunedHeuristic);
                journal.emit(|| Event::CandidatePruned {
                    pattern: ev.candidates().get(id).pattern_text(),
                    reason: PruneReason::BenefitGate,
                });
                continue;
            }
            let kept = ib_general > chosen_benefit;
            journal.emit(|| Event::KnapsackDecision {
                pattern: ev.candidates().get(id).pattern_text(),
                kept,
                benefit: ib_general,
                size,
            });
            if kept {
                chosen = with_general;
                chosen_benefit = ib_general;
                used = next_used;
                covered.extend(covered_basics);
            }
        } else {
            // Basic candidate: admit if the whole configuration improves.
            if covered.contains(&id) {
                telemetry.incr(xia_obs::Counter::CandidatesPrunedHeuristic);
                journal.emit(|| Event::CandidatePruned {
                    pattern: ev.candidates().get(id).pattern_text(),
                    reason: PruneReason::CoverageRedundant,
                });
                continue; // its pattern is already served by a chosen index
            }
            let mut with = chosen.clone();
            with.push(id);
            let ib = ev.benefit_delta(&chosen, id);
            let kept = ib > chosen_benefit;
            journal.emit(|| Event::KnapsackDecision {
                pattern: ev.candidates().get(id).pattern_text(),
                kept,
                benefit: ib,
                size,
            });
            if kept {
                chosen = with;
                chosen_benefit = ib;
                used = next_used;
                covered.insert(id);
            }
        }
    }

    // Final redundancy pass (paper Section VI-A): compile the workload
    // under the chosen configuration, drop indexes no plan uses, and refill
    // the reclaimed space from the remaining candidates. `covered` and
    // `used` are rebuilt from the pruned `chosen` each round — the refill
    // must not re-admit coverage (or budget) freed only on paper.
    for _ in 0..4 {
        // Each compile-and-refill round is a stop boundary: on expiry the
        // current (already budget-feasible) configuration is returned.
        if ctl.poll().is_some() {
            break;
        }
        let in_use = ev.used_candidates(&chosen);
        if in_use.len() == chosen.len() {
            break;
        }
        for &id in &chosen {
            if !in_use.contains(&id) {
                journal.emit(|| Event::CandidatePruned {
                    pattern: ev.candidates().get(id).pattern_text(),
                    reason: PruneReason::NotUsedInPlan,
                });
            }
        }
        chosen.retain(|id| in_use.contains(id));
        chosen_benefit = ev.benefit(&chosen);
        used = rebuild_used(ev, &chosen);
        covered = rebuild_covered(ev, &chosen, &basics);
        let mut grew = false;
        for &id in &by_density(ev, &benefits, candidates) {
            if ctl.poll().is_some() {
                break;
            }
            if chosen.contains(&id) || benefits[&id] <= 0.0 {
                continue;
            }
            let size = ev.candidates().get(id).size;
            let Some(next_used) = used.checked_add(size).filter(|&t| t <= budget) else {
                continue;
            };
            let is_general =
                ev.candidates().get(id).origin == crate::candidate::CandOrigin::Generalized;
            let covered_basics = if is_general {
                let cb = basics_covered_by(ev, id, &basics);
                if !cb.is_empty() && cb.iter().all(|b| covered.contains(b)) {
                    telemetry.incr(xia_obs::Counter::CandidatesPrunedHeuristic);
                    journal.emit(|| Event::CandidatePruned {
                        pattern: ev.candidates().get(id).pattern_text(),
                        reason: PruneReason::CoverageRedundant,
                    });
                    continue;
                }
                cb
            } else {
                if covered.contains(&id) {
                    telemetry.incr(xia_obs::Counter::CandidatesPrunedHeuristic);
                    journal.emit(|| Event::CandidatePruned {
                        pattern: ev.candidates().get(id).pattern_text(),
                        reason: PruneReason::CoverageRedundant,
                    });
                    continue;
                }
                Vec::new()
            };
            let mut with = chosen.clone();
            with.push(id);
            let ib = ev.benefit_delta(&chosen, id);
            let kept = ib > chosen_benefit;
            journal.emit(|| Event::KnapsackDecision {
                pattern: ev.candidates().get(id).pattern_text(),
                kept,
                benefit: ib,
                size,
            });
            if kept {
                chosen = with;
                chosen_benefit = ib;
                used = next_used;
                if is_general {
                    covered.extend(covered_basics);
                } else {
                    covered.insert(id);
                }
                grew = true;
            }
        }
        if ctl.stopped().is_some() {
            break;
        }
        if !grew {
            // Converged: one more prune below (loop) or done.
            let in_use = ev.used_candidates(&chosen);
            for &id in &chosen {
                if !in_use.contains(&id) {
                    journal.emit(|| Event::CandidatePruned {
                        pattern: ev.candidates().get(id).pattern_text(),
                        reason: PruneReason::NotUsedInPlan,
                    });
                }
            }
            chosen.retain(|id| in_use.contains(id));
            break;
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Total size of a configuration, saturating instead of wrapping on
/// corrupt candidate sizes.
fn rebuild_used(ev: &BenefitEvaluator<'_>, chosen: &[CandId]) -> u64 {
    chosen
        .iter()
        .map(|&id| ev.candidates().get(id).size)
        .fold(0u64, u64::saturating_add)
}

/// Recomputes the coverage bitmap implied by a configuration: each chosen
/// basic covers itself; each chosen general covers the basics its pattern
/// contains.
fn rebuild_covered(
    ev: &BenefitEvaluator<'_>,
    chosen: &[CandId],
    basics: &[CandId],
) -> HashSet<CandId> {
    let mut covered = HashSet::new();
    for &id in chosen {
        if ev.candidates().get(id).origin == crate::candidate::CandOrigin::Generalized {
            covered.extend(basics_covered_by(ev, id, basics));
        } else {
            covered.insert(id);
        }
    }
    covered
}

/// Basic candidates (same collection and kind) covered by a candidate's
/// pattern.
pub(crate) fn basics_covered_by(
    ev: &BenefitEvaluator<'_>,
    id: CandId,
    basics: &[CandId],
) -> Vec<CandId> {
    basics
        .iter()
        .copied()
        .filter(|&b| b != id && super::covers_candidate(ev, id, b))
        .collect()
}
