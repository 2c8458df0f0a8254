//! The literal Algorithm 1 generalization fixpoint, written against the
//! advisor's public API: the reference the semi-naive fixpoint
//! (`generalize_set_fast`) is compared with outside the core crate.
//!
//! Shared by `tests/property_tests.rs` and the bench crate's unit tests
//! through `#[path]` module declarations, so there is one copy.

use xia_advisor::candidate::CandOrigin;
use xia_advisor::{generalize_pair, CandId, CandidateSet};
use xia_xpath::contain;

/// Runs the naive fixpoint: each round visits every ordered
/// (frontier × all) pair, checks compatibility, and re-derives
/// `generalize_pair` from scratch. Returns the ids of the created
/// generalized candidates and the number of ordered pairs visited (the
/// compatibility check counts as a visit, as in the core crate's
/// `generalize_pairs_visited` counter).
pub fn naive_fixpoint(set: &mut CandidateSet) -> (Vec<CandId>, u64) {
    let mut created = Vec::new();
    let mut visits = 0;
    let mut frontier: Vec<CandId> = set.ids().collect();
    let mut all = frontier.clone();
    while !frontier.is_empty() {
        let mut new_ids = Vec::new();
        for &a in &frontier {
            for &b in &all {
                if a == b {
                    continue;
                }
                visits += 1;
                let (ca, cb) = (set.get(a), set.get(b));
                if ca.collection != cb.collection || ca.kind != cb.kind {
                    continue;
                }
                let (pa, pb, coll, kind) = (
                    ca.pattern.clone(),
                    cb.pattern.clone(),
                    ca.collection.clone(),
                    ca.kind,
                );
                for g in generalize_pair(&pa, &pb) {
                    if !contain::covers(&g, &pa) || !contain::covers(&g, &pb) {
                        continue;
                    }
                    if g == pa || g == pb {
                        let (target, other) = if g == pa { (a, b) } else { (b, a) };
                        set.add_edge(target, other);
                        continue;
                    }
                    let existing = set.lookup(&coll, &g, kind);
                    let gid = set.insert(&coll, &g, kind, CandOrigin::Generalized);
                    set.add_edge(gid, a);
                    set.add_edge(gid, b);
                    if existing.is_none() {
                        new_ids.push(gid);
                        created.push(gid);
                    }
                }
            }
        }
        all.extend(new_ids.iter().copied());
        frontier = new_ids;
    }
    (created, visits)
}

/// Full observable state of a candidate set, one record per candidate in
/// id order: pattern, origin, DAG edge vectors in stored order.
pub fn dump(set: &CandidateSet) -> Vec<String> {
    set.iter()
        .map(|c| {
            format!(
                "{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}",
                c.id, c.collection, c.pattern, c.kind, c.origin, c.children, c.parents,
            )
        })
        .collect()
}
