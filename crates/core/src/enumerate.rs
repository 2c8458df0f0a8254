//! Basic-candidate enumeration via the optimizer's Enumerate Indexes mode
//! (paper Section IV).
//!
//! The `&mut Database` functions are one-shot conveniences that refresh
//! statistics first; everything else reads a [`StatsView`] and never
//! writes, so any number of sessions can enumerate over one database.

use crate::candidate::{CandId, CandOrigin, CandidateSet};
use xia_obs::{Counter, Telemetry};
use xia_optimizer::Optimizer;
use xia_storage::{Database, StatsView};
use xia_workloads::Workload;

/// Runs every workload statement through the optimizer's Enumerate Indexes
/// mode and collects the basic candidate set, with affected sets
/// (statement indices) recorded per candidate. Refreshes statistics via
/// [`Database::runstats_all`] first.
pub fn enumerate_candidates(db: &mut Database, workload: &Workload) -> CandidateSet {
    db.runstats_all();
    enumerate_candidates_traced(db, workload, &Telemetry::off())
}

/// [`enumerate_candidates`] over a database whose statistics are already
/// fresh, with per-statement optimizer activity counted against a
/// telemetry sink.
pub fn enumerate_candidates_traced(
    db: &Database,
    workload: &Workload,
    telemetry: &Telemetry,
) -> CandidateSet {
    let mut set = CandidateSet::new();
    enumerate_candidates_into(&db.view(), workload, 0, &mut set, telemetry);
    set
}

/// Incremental enumeration: runs only statements `from..` of the workload
/// through Enumerate Indexes mode, inserting into an existing candidate
/// set. Statement indices recorded in affected sets are the *global*
/// workload indices, so an append-only workload keeps previously recorded
/// indices valid. Patterns already present merge their affected sets via
/// the set's insert semantics.
///
/// Returns the ids of candidates that were *not* in the set before this
/// call (the generalization frontier for [`crate::generalize::generalize_set_extend`]).
pub fn enumerate_candidates_into(
    view: &StatsView<'_>,
    workload: &Workload,
    from: usize,
    set: &mut CandidateSet,
    telemetry: &Telemetry,
) -> Vec<CandId> {
    let mut fresh = Vec::new();
    for (si, entry) in workload.entries().iter().enumerate().skip(from) {
        // A statement over a collection that does not exist, or whose
        // statistics the view hides (a stats-unavailable fault, see
        // xia-fault), is skipped rather than a panic — the benefit
        // evaluator quarantines or degrades it downstream.
        let Some((collection, catalog, stats)) = view.parts(entry.statement.collection()) else {
            continue;
        };
        let mut optimizer = Optimizer::new(collection, stats, catalog);
        optimizer.set_telemetry(telemetry);
        for cand in optimizer.enumerate_indexes(&entry.statement) {
            let known = set.len();
            let id = set.insert(&cand.collection, cand.pattern, cand.kind, CandOrigin::Basic);
            set.get_mut(id).affected.insert(si);
            // Ids are append-only, so one past the old end is a new one.
            if id.index() >= known {
                fresh.push(id);
            }
        }
    }
    fresh
}

/// Fills in size estimates for every candidate from derived virtual-index
/// statistics (paper Section III: index statistics derived from data
/// statistics). Refreshes statistics first.
pub fn size_candidates(db: &mut Database, set: &mut CandidateSet) {
    db.runstats_all();
    size_candidates_traced(db, set, &Telemetry::off())
}

/// [`size_candidates`] over a database whose statistics are already
/// fresh, with each statistics derivation counted against a telemetry
/// sink.
pub fn size_candidates_traced(db: &Database, set: &mut CandidateSet, telemetry: &Telemetry) {
    let ids: Vec<_> = set.ids().collect();
    size_candidates_ids(&db.view(), set, &ids, telemetry)
}

/// Sizes only the given candidate ids — the incremental-preparation path,
/// where pre-existing candidates already carry sizes derived from the same
/// statistics and re-deriving them would be pure waste.
pub fn size_candidates_ids(
    view: &StatsView<'_>,
    set: &mut CandidateSet,
    ids: &[CandId],
    telemetry: &Telemetry,
) {
    for &id in ids {
        let (coll_name, pattern, kind) = {
            let c = set.get(id);
            (c.collection.clone(), c.pattern.clone(), c.kind)
        };
        let Some((collection, _, stats)) = view.parts(&coll_name) else {
            continue; // no such collection, or stats hidden: keep size 0
        };
        telemetry.incr(Counter::StatsDerivations);
        let (_, istats) = xia_storage::Catalog::derive_stats(collection, stats, &pattern, kind);
        set.get_mut(id).size = istats.size_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpox_db() -> Database {
        let mut db = Database::new();
        let c = db.create_collection("SDOC");
        for i in 0..30 {
            c.build_doc("Security", |b| {
                b.leaf("Symbol", format!("S{i}").as_str());
                b.leaf("Yield", (i % 10) as f64);
                b.begin("SecInfo");
                b.begin(if i % 2 == 0 { "StockInfo" } else { "FundInfo" });
                b.leaf("Sector", if i % 3 == 0 { "Energy" } else { "Tech" });
                b.end();
                b.end();
                b.leaf("Name", format!("N{i}").as_str());
            });
        }
        db
    }

    fn paper_workload() -> Workload {
        Workload::from_texts([
            r#"for $sec in SECURITY('SDOC')/Security
               where $sec/Symbol = "BCIIPRC"
               return $sec"#,
            r#"for $sec in SECURITY('SDOC')/Security[Yield>4.5]
               where $sec/SecInfo/*/Sector = "Energy"
               return <Security>{$sec/Name}</Security>"#,
        ])
        .unwrap()
    }

    #[test]
    fn enumerates_paper_table1_basic_candidates() {
        let mut db = tpox_db();
        let w = paper_workload();
        let set = enumerate_candidates(&mut db, &w);
        let mut pats: Vec<String> = set.iter().map(|c| c.pattern.to_string()).collect();
        pats.sort();
        assert_eq!(
            pats,
            vec![
                "/Security/SecInfo/*/Sector",
                "/Security/Symbol",
                "/Security/Yield"
            ]
        );
        // Affected sets: C1 ← Q1; C2, C3 ← Q2.
        let c1 = set
            .lookup(
                "SDOC",
                &xia_xpath::parse_linear_path("/Security/Symbol").unwrap(),
                xia_xpath::ValueKind::Str,
            )
            .unwrap();
        assert_eq!(set.get(c1).affected.iter().collect::<Vec<_>>(), vec![0]);
        let c3 = set
            .lookup(
                "SDOC",
                &xia_xpath::parse_linear_path("/Security/Yield").unwrap(),
                xia_xpath::ValueKind::Num,
            )
            .unwrap();
        assert_eq!(set.get(c3).affected.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn shared_patterns_merge_affected_sets() {
        let mut db = tpox_db();
        let w = Workload::from_texts([
            r#"for $s in SECURITY('SDOC')/Security where $s/Symbol = "A" return $s"#,
            r#"for $s in SECURITY('SDOC')/Security where $s/Symbol = "B" return $s/Name"#,
        ])
        .unwrap();
        let set = enumerate_candidates(&mut db, &w);
        assert_eq!(set.len(), 1);
        let c = set.iter().next().unwrap();
        assert_eq!(c.affected.iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn statements_on_missing_collections_are_skipped() {
        let mut db = tpox_db();
        let w =
            Workload::from_texts([r#"for $x in X('NOPE')/a where $x/b = 1 return $x"#]).unwrap();
        let set = enumerate_candidates(&mut db, &w);
        assert!(set.is_empty());
    }

    #[test]
    fn sizes_are_filled_and_monotone_with_generality() {
        let mut db = tpox_db();
        let w = paper_workload();
        let mut set = enumerate_candidates(&mut db, &w);
        let g = set.insert(
            "SDOC",
            xia_xpath::parse_linear_path("/Security//*").unwrap(),
            xia_xpath::ValueKind::Str,
            crate::candidate::CandOrigin::Generalized,
        );
        size_candidates(&mut db, &mut set);
        let spec = set
            .lookup(
                "SDOC",
                &xia_xpath::parse_linear_path("/Security/Symbol").unwrap(),
                xia_xpath::ValueKind::Str,
            )
            .unwrap();
        assert!(set.get(spec).size > 0);
        assert!(set.get(g).size >= set.get(spec).size);
    }

    #[test]
    fn update_statements_contribute_candidates_too() {
        let mut db = tpox_db();
        let w =
            Workload::from_texts([r#"delete from SDOC where /Security[Symbol = "S1"]"#]).unwrap();
        let set = enumerate_candidates(&mut db, &w);
        assert_eq!(set.len(), 1);
        assert_eq!(
            set.iter().next().unwrap().pattern.to_string(),
            "/Security/Symbol"
        );
    }
}
