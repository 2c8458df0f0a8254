//! E11's gate, kept as a test after the experiment retired: on the
//! anchored sparse workload, statement-relevance pruning (the statement
//! cost cache) saves optimizer calls against a cache-off reference
//! evaluator, which sends every costing to the optimizer, and leaves the
//! search outcome bitwise unchanged.

mod tests {
    use crate::lab::TpoxLab;
    use xia_advisor::{search, Advisor, AdvisorParams, BenefitEvaluator, CandId};
    use xia_obs::{Counter, Telemetry};

    #[test]
    fn pruning_saves_calls_and_preserves_results() {
        let mut lab = TpoxLab::quick();
        let workload = lab.sparse_workload(96);
        let params = AdvisorParams::default();
        let set = Advisor::prepare(&mut lab.db, &workload, &params);
        let all: Vec<CandId> = set.ids().collect();
        let all_index = set.config_size(&Advisor::all_index_config(&set));
        let budget = (all_index as f64 * 0.75).round() as u64;
        for heuristics in [false, true] {
            let mut run = |use_cache: bool| {
                let telemetry = Telemetry::new();
                let mut ev = BenefitEvaluator::new(&mut lab.db, &workload, &set);
                ev.set_telemetry(&telemetry);
                ev.use_cache = use_cache;
                let config = if heuristics {
                    search::greedy_heuristics(&mut ev, &all, budget, params.beta)
                } else {
                    search::greedy(&mut ev, &all, budget)
                };
                let calls = ev.eval_stats().optimizer_calls;
                let hits = telemetry.get(Counter::StmtCacheHits);
                let probes = telemetry.get(Counter::DeltaProbes);
                let benefit = ev.benefit(&config).to_bits();
                (config, benefit, calls, hits, probes)
            };
            let (config, benefit, calls, hits, probes) = run(true);
            let (ref_config, ref_benefit, ref_calls, _, _) = run(false);
            assert_eq!(config, ref_config, "heuristics={heuristics}: search moved");
            assert_eq!(
                benefit, ref_benefit,
                "heuristics={heuristics}: benefit moved"
            );
            // Every statement-cache hit is a costing the reference sends
            // to the optimizer.
            assert!(
                calls + hits <= ref_calls,
                "heuristics={heuristics}: {calls} calls + {hits} hits > reference {ref_calls}"
            );
            // The incremental search is where relevance pruning pays: the
            // acceptance bar is ≥3× fewer Evaluate-mode calls.
            if heuristics {
                assert!(
                    ref_calls >= 3 * calls,
                    "expected ≥3× fewer calls: {calls} calls, reference {ref_calls}"
                );
                assert!(hits > 0, "statement cache never hit");
                assert!(probes > 0);
            }
        }
    }
}
