//! E12's gate, kept as a test after the experiment retired: on widened
//! Table III workloads the semi-naive generalization fixpoint builds the
//! same candidate set as the literal Algorithm 1 loop, with at least 3×
//! fewer pair visits.

mod tests {
    use super::super::naive_fixpoint::{dump, naive_fixpoint};
    use crate::lab::TpoxLab;
    use xia_advisor::{enumerate_candidates, generalize_set_fast};
    use xia_obs::{Counter, EventJournal, Telemetry};

    #[test]
    fn semi_naive_saves_pair_visits_and_preserves_sets() {
        let mut lab = TpoxLab::quick();
        let mut last = (0, 0, 0);
        for n in [0, 24] {
            let workload = lab.mixed_workload(n);
            let base = enumerate_candidates(&mut lab.db, &workload);
            let mut naive = base.clone();
            let (_, visits_naive) = naive_fixpoint(&mut naive);
            let mut fast = base;
            let t = Telemetry::new();
            generalize_set_fast(&mut fast, &t, &EventJournal::off());
            let visits_fast = t.get(Counter::GeneralizePairsVisited);
            assert_eq!(
                dump(&naive),
                dump(&fast),
                "{n} synthetic: fixpoints diverged"
            );
            assert!(
                visits_fast < visits_naive,
                "{n} synthetic: fast={visits_fast} naive={visits_naive}"
            );
            last = (
                visits_naive,
                visits_fast,
                t.get(Counter::PairsSkippedBucket),
            );
        }
        // The acceptance bar: ≥3× fewer rule-engine visits on the largest
        // workload (multiple collections and kinds give the buckets real
        // work on top of the unordered-pair halving).
        let (visits_naive, visits_fast, skipped_bucket) = last;
        assert!(
            visits_naive >= 3 * visits_fast,
            "expected ≥3× fewer visits: naive={visits_naive} fast={visits_fast}"
        );
        assert!(skipped_bucket > 0, "buckets never skipped a pair");
    }
}
