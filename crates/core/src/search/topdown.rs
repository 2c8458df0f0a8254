//! Top-down search over the generalization DAG (paper Section VI-B).
//!
//! Start from the most general candidates (the DAG roots, after removing
//! zero/negative-benefit indexes), and while the configuration exceeds the
//! budget, replace the general index with the smallest `ΔB/ΔC` by its DAG
//! children (ties → largest `ΔC`). If no replaceable general index
//! remains and the configuration still does not fit, fall back to greedy.
//!
//! *Lite* computes `ΔB` from standalone benefits (ignoring interaction);
//! *full* evaluates configurations through the optimizer.

use super::{by_density, standalone_benefits};
use crate::benefit::BenefitEvaluator;
use crate::candidate::CandId;
use std::collections::HashMap;
use xia_obs::{Event, PruneReason};

/// Top-down search. `full` selects the interaction-aware variant.
pub fn top_down(
    ev: &mut BenefitEvaluator<'_>,
    candidates: &[CandId],
    budget: u64,
    full: bool,
) -> Vec<CandId> {
    let benefits = standalone_benefits(ev, candidates);
    let in_space: std::collections::HashSet<CandId> = candidates.iter().copied().collect();

    // Preprocessing: start from the DAG roots, descending past any
    // *generalized* index with non-positive standalone benefit (paper:
    // general indexes can have zero or negative benefit — from maintenance
    // cost or from never being used in plans — and are removed up front).
    // Basic candidates are kept even at zero standalone benefit: their
    // value can be contextual (index-ANDing), which the full variant and
    // the final greedy fallback can exploit.
    let keeps = |ev: &BenefitEvaluator<'_>, benefits: &HashMap<CandId, f64>, id: CandId| {
        ev.candidates().get(id).origin == crate::candidate::CandOrigin::Basic
            || benefits.get(&id).copied().unwrap_or(0.0) > 0.0
    };
    let mut current: Vec<CandId> = Vec::new();
    let mut stack: Vec<CandId> = ev
        .candidates()
        .roots()
        .into_iter()
        .filter(|id| in_space.contains(id))
        .collect();
    let mut seen = std::collections::HashSet::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if keeps(ev, &benefits, id) {
            if !current.contains(&id) {
                current.push(id);
            }
        } else {
            let children = ev.candidates().get(id).children.clone();
            stack.extend(children.into_iter().filter(|c| in_space.contains(c)));
        }
    }
    current.sort_unstable();

    // Iterative replacement.
    loop {
        // Cooperative stop: the descent may still be over budget, so the
        // best-so-far result is a greedy pack of the current members —
        // standalone benefits are already computed, so this costs no
        // further optimizer work.
        if ev.ctl().poll().is_some() {
            return greedy_prefix(ev, &benefits, &current, budget);
        }
        let size = ev.candidates().config_size(&current);
        if size <= budget {
            fill_leftover(ev, &benefits, &mut current, candidates, budget, full);
            return current;
        }
        let Some(victim) = pick_replacement(ev, &benefits, &current, full) else {
            break;
        };
        ev.telemetry().incr(xia_obs::Counter::TopDownExpansions);
        ev.journal().emit(|| Event::CandidatePruned {
            pattern: ev.candidates().get(victim).pattern_text(),
            reason: PruneReason::Replaced,
        });
        let children: Vec<CandId> = ev
            .candidates()
            .get(victim)
            .children
            .iter()
            .copied()
            .filter(|&c| {
                in_space.contains(&c)
                    && (ev.candidates().get(c).origin == crate::candidate::CandOrigin::Basic
                        || benefits.get(&c).copied().unwrap_or(0.0) > 0.0)
            })
            .collect();
        current.retain(|&id| id != victim);
        for c in children {
            if !current.contains(&c) {
                current.push(c);
            }
        }
        current.sort_unstable();
    }

    // Fallback: no general index left to replace (every remaining general
    // has ΔC ≤ 0 — its children together are larger than it). Greedy-pack
    // over the remaining members *and* their DAG descendants: a stuck
    // general's specific children are still individually packable even
    // when the wholesale replacement would grow the configuration.
    let mut pool: Vec<CandId> = Vec::new();
    let mut stack = current.clone();
    let mut seen = std::collections::HashSet::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if in_space.contains(&id) {
            pool.push(id);
        }
        stack.extend(ev.candidates().get(id).children.iter().copied());
    }
    let mut chosen = greedy_prefix(ev, &benefits, &pool, budget);
    fill_leftover(ev, &benefits, &mut chosen, candidates, budget, full);
    chosen
}

/// Chooses the member with the smallest `ΔB/ΔC` ratio among those whose
/// replacement shrinks the configuration (`ΔC > 0`); ties broken by the
/// largest `ΔC`.
fn pick_replacement(
    ev: &mut BenefitEvaluator<'_>,
    benefits: &HashMap<CandId, f64>,
    current: &[CandId],
    full: bool,
) -> Option<CandId> {
    let mut best: Option<(CandId, f64, f64)> = None; // (id, ratio, delta_c)
    let member_list: Vec<CandId> = current.to_vec();
    for &g in &member_list {
        let children: Vec<CandId> = ev
            .candidates()
            .get(g)
            .children
            .iter()
            .copied()
            .filter(|&c| {
                ev.candidates().get(c).origin == crate::candidate::CandOrigin::Basic
                    || benefits.get(&c).copied().unwrap_or(0.0) > 0.0
            })
            .collect();
        if children.is_empty() {
            continue;
        }
        let size_g = ev.candidates().get(g).size as f64;
        let size_children: f64 = children
            .iter()
            .filter(|c| !current.contains(c))
            .map(|&c| ev.candidates().get(c).size as f64)
            .sum();
        let delta_c = size_g - size_children;
        if delta_c <= 0.0 {
            continue; // replacing would not shrink the configuration
        }
        let delta_b = if full {
            // IB relative to the rest of the configuration.
            let rest: Vec<CandId> = current.iter().copied().filter(|&x| x != g).collect();
            let ib_g = ev.benefit_delta(&rest, g);
            let mut with_children = rest;
            for &c in &children {
                if !with_children.contains(&c) {
                    with_children.push(c);
                }
            }
            let ib_c = ev.benefit(&with_children);
            ib_g - ib_c
        } else {
            let b_g = benefits.get(&g).copied().unwrap_or(0.0);
            let b_c: f64 = children
                .iter()
                .map(|c| benefits.get(c).copied().unwrap_or(0.0))
                .sum();
            b_g - b_c
        };
        let ratio = delta_b / delta_c;
        let better = match best {
            None => true,
            Some((_, r, dc)) => ratio < r || (ratio == r && delta_c > dc),
        };
        if better {
            best = Some((g, ratio, delta_c));
        }
    }
    best.map(|(id, _, _)| id)
}

/// After the descent fits the budget, spend any leftover budget on
/// additional candidates — by density, skipping anything whose pattern is
/// already covered by the configuration (redundant for the optimizer). In
/// *full* mode each addition must improve the configuration benefit.
fn fill_leftover(
    ev: &mut BenefitEvaluator<'_>,
    benefits: &HashMap<CandId, f64>,
    current: &mut Vec<CandId>,
    candidates: &[CandId],
    budget: u64,
    full: bool,
) {
    let mut used = ev.candidates().config_size(current);
    let mut cur_benefit = if full { ev.benefit(current) } else { 0.0 };
    for id in by_density(ev, benefits, candidates) {
        // Cooperative stop: `current` already fits the budget, so it is
        // the partial result as-is.
        if ev.ctl().poll().is_some() {
            break;
        }
        if current.contains(&id) {
            continue;
        }
        let standalone = benefits.get(&id).copied().unwrap_or(0.0);
        // Lite mode has no way to value zero-standalone candidates; full
        // mode lets the configuration-benefit gate decide.
        if standalone <= 0.0 && !full {
            continue;
        }
        if standalone < 0.0 {
            continue;
        }
        let size = ev.candidates().get(id).size;
        // checked_add: corrupt candidate sizes must not wrap the
        // accumulator past the budget.
        let Some(next_used) = used.checked_add(size).filter(|&t| t <= budget) else {
            continue;
        };
        // Skip candidates already covered by a chosen index of the same
        // collection and kind — the optimizer would use only one of them.
        let covered = current.iter().any(|&g| super::covers_candidate(ev, g, id));
        if covered {
            continue;
        }
        if full {
            let ib = ev.benefit_delta(current, id);
            if ib <= cur_benefit {
                continue;
            }
            cur_benefit = ib;
        }
        current.push(id);
        used = next_used;
    }
    current.sort_unstable();
}

fn greedy_prefix(
    ev: &mut BenefitEvaluator<'_>,
    benefits: &HashMap<CandId, f64>,
    current: &[CandId],
    budget: u64,
) -> Vec<CandId> {
    let order = by_density(ev, benefits, current);
    let mut chosen = Vec::new();
    let mut used = 0u64;
    // First pass: candidates with positive standalone benefit, by density.
    // checked_add throughout: corrupt sizes must not wrap the accumulator.
    for &id in &order {
        let size = ev.candidates().get(id).size;
        if benefits.get(&id).copied().unwrap_or(0.0) > 0.0 {
            if let Some(next_used) = used.checked_add(size).filter(|&t| t <= budget) {
                chosen.push(id);
                used = next_used;
            }
        }
    }
    // Second pass: zero-standalone basics (contextual value) if room
    // remains.
    for &id in &order {
        let size = ev.candidates().get(id).size;
        if !chosen.contains(&id)
            && ev.candidates().get(id).origin == crate::candidate::CandOrigin::Basic
            && benefits.get(&id).copied().unwrap_or(0.0) >= 0.0
        {
            if let Some(next_used) = used.checked_add(size).filter(|&t| t <= budget) {
                chosen.push(id);
                used = next_used;
            }
        }
    }
    chosen.sort_unstable();
    chosen
}
