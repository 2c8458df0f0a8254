//! Quality gate for the CoPhy LP-relaxation search, meant for CI: exits
//! non-zero if the relaxation's certificate stops holding or workload
//! compression stops being lossless.
//!
//! Three legs, all on small instances where the DP standalone optimum is
//! affordable:
//!
//! * **Certificate**: for a sweep of budgets, the LP fractional bound
//!   must dominate both the cophy configuration's standalone value and
//!   the DP optimum (`v ≤ lp_bound`), and the rounded solution must
//!   carry at least half the bound (`v_cophy ≥ lp_bound / 2`) — the two
//!   inequalities the module proves. Both are exact mathematics, not
//!   timing; they get a 1e-6 epsilon for float accumulation and no retry
//!   rounds.
//! * **Matched quality**: the rounded solution must stay within the
//!   tolerance of the DP optimum (`v_cophy ≥ v_dp · (1 − tol)`), far
//!   inside the provable 2× floor. `XIA_GATE_TOLERANCE` overrides the
//!   default 0.05.
//! * **Losslessness**: a full `--algorithm cophy` advisor run must
//!   recommend the same indexes as the same search over the raw
//!   workload (`Advisor::prepare` + `Advisor::recommend_prepared`).

use xia_advisor::search::{cophy_with_outcome, dp_knapsack, standalone_benefits};
use xia_advisor::{Advisor, AdvisorParams, BenefitEvaluator, CandId, SearchAlgorithm};
use xia_bench::TpoxLab;

const EPS: f64 = 1e-6;
const BUDGET_FRACTIONS: [f64; 4] = [0.15, 0.4, 0.8, 1.0];

fn tolerance() -> f64 {
    std::env::var("XIA_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05)
}

fn main() {
    let tol = tolerance();
    let mut lab = TpoxLab::quick();
    let workloads = [
        ("tpox-11", lab.workload()),
        ("synthetic-64", lab.synthetic_workload(64, 0x9A7E)),
        ("mixed-30", lab.mixed_workload(19)),
    ];
    let mut failed = false;

    for (tag, w) in &workloads {
        let set = Advisor::prepare(&mut lab.db, w, &AdvisorParams::default());
        let all: Vec<CandId> = set.ids().collect();
        let all_index = set.config_size(&Advisor::all_index_config(&set));
        for frac in BUDGET_FRACTIONS {
            let budget = (all_index as f64 * frac) as u64;
            let mut ev = BenefitEvaluator::new(&mut lab.db, w, &set);
            let benefits = standalone_benefits(&mut ev, &all);
            let out = cophy_with_outcome(&mut ev, &all, budget);
            let d = dp_knapsack(&mut ev, &all, budget);
            let v_dp: f64 = d.iter().map(|id| benefits[id]).sum();
            let mut leg = |ok: bool, what: &str| {
                if !ok {
                    failed = true;
                }
                println!(
                    "{tag} @{frac}: {what} [{}]",
                    if ok { "ok" } else { "VIOLATED" }
                );
            };
            leg(
                out.value <= out.lp_bound + EPS,
                &format!("v_cophy {:.2} <= lp_bound {:.2}", out.value, out.lp_bound),
            );
            leg(
                v_dp <= out.lp_bound + EPS,
                &format!("v_dp {v_dp:.2} <= lp_bound {:.2}", out.lp_bound),
            );
            leg(
                out.value >= 0.5 * out.lp_bound - EPS,
                &format!(
                    "v_cophy {:.2} >= lp_bound/2 {:.2}",
                    out.value,
                    0.5 * out.lp_bound
                ),
            );
            leg(
                out.value >= v_dp * (1.0 - tol),
                &format!(
                    "v_cophy {:.2} >= v_dp {v_dp:.2} within {:.0}%",
                    out.value,
                    tol * 100.0
                ),
            );
        }
    }

    // Losslessness: the full advisor pipeline, compressed vs the raw
    // workload.
    for (tag, w) in &workloads {
        let advise = |lab: &mut TpoxLab, compress: bool| {
            let params = AdvisorParams::default();
            let (budget, algo) = (u64::MAX / 2, SearchAlgorithm::Cophy);
            let rec = if compress {
                Advisor::recommend(&mut lab.db, w, budget, algo, &params)
            } else {
                let set = Advisor::prepare(&mut lab.db, w, &params);
                Advisor::recommend_prepared(&mut lab.db, w, &set, budget, algo, &params)
            }
            .expect("advise");
            rec.indexes
                .iter()
                .map(|ix| format!("{ix:?}"))
                .collect::<Vec<_>>()
        };
        let on = advise(&mut lab, true);
        let off = advise(&mut lab, false);
        if on == off {
            println!("{tag}: compression lossless ({} indexes) [ok]", on.len());
        } else {
            failed = true;
            println!("{tag}: compression CHANGED the recommendation [VIOLATED]");
            println!("  compressed: {on:?}");
            println!("  raw:        {off:?}");
        }
    }

    if failed {
        eprintln!("cophy quality gate: FAIL");
        std::process::exit(1);
    }
    println!("cophy quality gate: PASS (tolerance {:.0}%)", tol * 100.0);
}
