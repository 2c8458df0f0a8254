//! Tight optimizer coupling: the benefit the evaluator reports for a
//! configuration is the optimizer's own cost difference,
//! `cost(∅) − cost(C)`, with `C` installed as virtual indexes and every
//! statement optimized from scratch (`lab::estimated_workload_cost`).
//!
//! Two cases are asserted, each over 40 seeded random configurations
//! (every candidate kept with probability 1/3):
//!
//! * a mixed workload (the 11 TPoX queries and 200 synthetic ones, 67
//!   templates) with affected sets and sub-configurations off, so every
//!   statement is costed under the whole configuration;
//! * the 11 TPoX queries with the evaluator's defaults.
//!
//! The mixed workload under the defaults does *not* hold: a basic
//! candidate with a wildcard pattern speeds up statements outside its
//! affected set, and the evaluator never re-costs those, so it
//! understates the benefit: the worst of 40 configurations is 7.9 % off
//! at this file's seed, and 35 % at the worst of eight seeds. That case
//! is left out until the evaluator's affected sets are derived from its
//! relevance rows.

use xia_advisor::{Advisor, AdvisorParams, BenefitEvaluator, CandId};
use xia_bench::lab::{estimated_workload_cost, TpoxLab};
use xia_workloads::prng::Prng;
use xia_workloads::Workload;

/// Random configurations per case.
const CONFIGS: usize = 40;

/// The largest relative error allowed between evaluator and optimizer.
const TOLERANCE: f64 = 1e-9;

/// The worst relative error between the evaluator's benefit and the
/// optimizer's cost difference over [`CONFIGS`] random configurations,
/// with affected sets and sub-configurations both `pruned` or both off.
fn worst_error(lab: &mut TpoxLab, workload: &Workload, pruned: bool) -> f64 {
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, workload, &params);
    let mut rng = Prng::seed_from_u64(0xC0DE);
    let configs: Vec<Vec<CandId>> = (0..CONFIGS)
        .map(|_| set.ids().filter(|_| rng.gen_bool(1.0 / 3.0)).collect())
        .collect();
    let empty = estimated_workload_cost(&mut lab.db, workload, &set, &[]);
    let direct: Vec<f64> = (configs.iter())
        .map(|config| empty - estimated_workload_cost(&mut lab.db, workload, &set, config))
        .collect();
    let mut ev = BenefitEvaluator::configured(&lab.db, workload, &set, &params);
    ev.use_affected_sets = pruned;
    ev.use_subconfigs = pruned;
    configs
        .iter()
        .zip(direct)
        .map(|(config, want)| (ev.benefit(config) - want).abs() / want.abs().max(1.0))
        .fold(0.0, f64::max)
}

#[test]
fn unpruned_benefit_is_the_optimizers_cost_difference_on_a_mixed_workload() {
    let mut lab = TpoxLab::quick();
    let workload = lab.mixed_workload(200);
    assert_eq!(workload.len(), 211);
    let error = worst_error(&mut lab, &workload, false);
    assert!(error <= TOLERANCE, "worst relative error {error:e}");
}

#[test]
fn benefit_is_the_optimizers_cost_difference_on_the_tpox_queries() {
    let mut lab = TpoxLab::quick();
    let workload = lab.workload();
    let error = worst_error(&mut lab, &workload, true);
    assert!(error <= TOLERANCE, "worst relative error {error:e}");
}
