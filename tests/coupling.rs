//! Tight optimizer coupling: the benefit the evaluator reports for a
//! configuration is the optimizer's own cost difference,
//! `cost(∅) − cost(C)`, with `C` installed as virtual indexes and every
//! statement optimized from scratch (`lab::estimated_workload_cost`).
//!
//! Each case is asserted over 40 seeded random configurations (every
//! candidate kept with probability 1/3), to 1e-9 relative:
//!
//! * a mixed workload (the 11 TPoX queries and 200 synthetic ones, 67
//!   templates) with affected sets and sub-configurations off, so every
//!   statement is costed under the whole configuration;
//! * the 11 TPoX queries, and the mixed workloads with 200 and 60
//!   synthetic queries, with the evaluator's defaults;
//! * a retained costing state grown from half of the 200-query mixed
//!   workload to all of it, with the candidate set a [`TuningSession`]
//!   extends as it observes.
//!
//! A fourth case prices a user-given wildcard pattern through
//! [`Advisor::what_if`].
//!
//! The defaults hold on the mixed workloads because the evaluator has one
//! notion of which statements an index can serve: its relevance rows,
//! derived from the statements' index-matching signatures. Affected sets
//! and sub-configurations are views of those rows. A basic candidate with a
//! wildcard pattern such as `/Security/SecInfo/*/Sector` speeds up
//! statements that did not enumerate it, and its row holds them.

use xia_advisor::candidate::CandOrigin;
use xia_advisor::{
    Advisor, AdvisorParams, BenefitEvaluator, CandId, CandidateSet, CostingState, TuningSession,
};
use xia_bench::lab::{estimated_workload_cost, TpoxLab};
use xia_workloads::prng::Prng;
use xia_workloads::Workload;
use xia_xpath::{parse_linear_path, ValueKind};

/// Random configurations per case.
const CONFIGS: usize = 40;

/// The largest relative error allowed between evaluator and optimizer.
const TOLERANCE: f64 = 1e-9;

/// [`CONFIGS`] seeded random configurations over `set`.
fn random_configs(set: &CandidateSet) -> Vec<Vec<CandId>> {
    let mut rng = Prng::seed_from_u64(0xC0DE);
    (0..CONFIGS)
        .map(|_| set.ids().filter(|_| rng.gen_bool(1.0 / 3.0)).collect())
        .collect()
}

/// The optimizer's cost difference for each configuration.
fn optimizer_benefits(
    lab: &mut TpoxLab,
    workload: &Workload,
    set: &CandidateSet,
    configs: &[Vec<CandId>],
) -> Vec<f64> {
    let empty = estimated_workload_cost(&mut lab.db, workload, set, &[]);
    (configs.iter())
        .map(|config| empty - estimated_workload_cost(&mut lab.db, workload, set, config))
        .collect()
}

/// The relative error of `got` against `want`.
fn relative_error(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(1.0)
}

/// The worst relative error of `ev` over `configs` against `want`.
fn worst(ev: &mut BenefitEvaluator<'_>, configs: &[Vec<CandId>], want: &[f64]) -> f64 {
    (configs.iter().zip(want))
        .map(|(config, &want)| relative_error(ev.benefit(config), want))
        .fold(0.0, f64::max)
}

/// The worst relative error between the evaluator's benefit and the
/// optimizer's cost difference over [`random_configs`], with affected sets
/// and sub-configurations both `pruned` or both off.
fn worst_error(lab: &mut TpoxLab, workload: &Workload, pruned: bool) -> f64 {
    let params = AdvisorParams::default();
    let set = Advisor::prepare(&mut lab.db, workload, &params);
    let configs = random_configs(&set);
    let want = optimizer_benefits(lab, workload, &set, &configs);
    let mut ev = BenefitEvaluator::configured(&lab.db, workload, &set, &params);
    ev.use_affected_sets = pruned;
    ev.use_subconfigs = pruned;
    worst(&mut ev, &configs, &want)
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

#[test]
fn benefit_is_the_optimizers_cost_difference_on_mixed_workloads() {
    for synthetic in [200, 60] {
        let mut lab = TpoxLab::quick();
        let workload = lab.mixed_workload(synthetic);
        let error = worst_error(&mut lab, &workload, true);
        assert!(
            error <= TOLERANCE,
            "{synthetic} synthetic queries: worst relative error {error:e}"
        );
    }
}

#[test]
fn a_retained_state_grown_with_its_session_is_the_optimizers_cost_difference() {
    // The state is only valid over the database it was built on, so the
    // optimizer's side installs its virtual indexes in a twin.
    let (mut lab, mut twin) = (TpoxLab::quick(), TpoxLab::quick());
    lab.db.runstats_all();
    let texts: Vec<String> = (lab.mixed_workload(200).entries().iter())
        .map(|entry| entry.text.clone())
        .collect();
    let params = AdvisorParams::default();
    let mut session = TuningSession::new();
    let mut state = CostingState::default();
    let (first, rest) = texts.split_at(texts.len() / 2);
    for (n, texts) in [first, rest].into_iter().enumerate() {
        for text in texts {
            session.observe(text).expect("generated statements parse");
        }
        // The session extends its candidate set (`generalize_set_extend`
        // over the new basics) and the state grows with it.
        let workload = session.workload().clone();
        let set = session.candidates(&lab.db).clone();
        let configs = random_configs(&set);
        let want = optimizer_benefits(&mut twin, &workload, &set, &configs);
        let mut ev = BenefitEvaluator::retained(&lab.db, &workload, &set, &params, &mut state);
        let error = worst(&mut ev, &configs, &want);
        assert!(
            error <= TOLERANCE,
            "step {n}, {} statements: worst relative error {error:e}",
            workload.len()
        );
    }
    assert_eq!(state.statements(), session.workload().len());
}

#[test]
fn what_if_on_a_wildcard_pattern_is_the_optimizers_cost_difference() {
    let mut lab = TpoxLab::quick();
    let workload = lab.mixed_workload(200);
    let params = AdvisorParams::default();
    for (pattern, kind) in [
        ("/Security/SecInfo/*/Sector", ValueKind::Str),
        ("/Security//*", ValueKind::Str),
        ("/Security/*", ValueKind::Num),
    ] {
        let indexes = [(
            "SDOC".to_string(),
            parse_linear_path(pattern).expect("a linear path"),
            kind,
        )];
        let rec = Advisor::what_if(&mut lab.db, &workload, &indexes, &params)
            .expect("the workload is advisable");
        let mut set = CandidateSet::new();
        let config: Vec<CandId> = (indexes.iter())
            .map(|(coll, pattern, kind)| set.insert(coll, pattern, *kind, CandOrigin::Generalized))
            .collect();
        let want = optimizer_benefits(&mut lab, &workload, &set, &[config])[0];
        assert!(want > 0.0, "{pattern} [{kind}] serves the workload");
        let error = relative_error(rec.est_benefit, want);
        assert!(
            error <= TOLERANCE,
            "{pattern} [{kind}]: est_benefit {} vs {want}, relative error {error:e}",
            rec.est_benefit
        );
    }
}
