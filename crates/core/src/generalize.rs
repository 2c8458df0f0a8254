//! Candidate generalization — the paper's Algorithm 1 (`generalizeStep`)
//! and Table II (`advanceStep` rules), applied to fixpoint.
//!
//! Generalizing a pair of linear patterns walks both step lists in
//! parallel, emitting for each consumed pair a step whose name test is the
//! common name (or `*`) and whose axis is `//` if either input axis is
//! `//` (the paper's `genAxis`). The `advanceStep` rules govern pointer
//! movement:
//!
//! 1. both at their last step → done (after the Rule 0 rewrite);
//! 2. / 3. one side at its last step → the other side jumps to *its* last
//!    step, recording the skipped middle steps as a `/*` step;
//! 4. both in the middle → three alternatives: advance both, or align the
//!    current step of one side with its first re-occurrence in the other
//!    side's remainder (this handles repeated node names, e.g.
//!    `/a/b/d` ⊔ `/a/d/b/d` → `{/a//d, /a//b/d}`);
//! 0. (rewrite) middle `/*` steps are folded into a `//` axis on the next
//!    step: `/a/*/b` → `/a//b`.
//!
//! A pair is only generalized if compatible: same collection and same
//! value kind (the paper's type/namespace compatibility check; candidate
//! C3 of Table I cannot generalize with C1/C2 because it is numerical).
//!
//! The fixpoint is evaluated semi-naively ([`generalize_set_fast`]):
//! candidates are bucketed by their (collection, value-kind) compatibility
//! key so incompatible pairs are never enumerated, each unordered pair is
//! visited once per round (the literal Algorithm 1 loop's second, reversed
//! visit is a provable no-op), and `generalize_pair` results are memoized
//! under a canonical pair key (the rule engine is symmetric in its
//! arguments). Skipped work is counted (`pairs_skipped_bucket`,
//! `pairs_memo_hits`) but the *effect sequence* on the candidate set —
//! insertion order of new candidates and DAG edge order — is
//! byte-for-byte that of the literal loop, which stays in this module's
//! tests as the reference they compare against.
//!
//! Generalization records no statements: which statements a generalized
//! candidate can serve is the evaluator's relevance row for it, derived
//! like every other candidate's from the statements' index-matching
//! signatures.

use crate::candidate::{CandId, CandOrigin, CandidateSet};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xia_obs::{Counter, Event, EventJournal, Telemetry};
use xia_xpath::{contain, Axis, LinearPath, LinearStep, NameTest, ValueKind};

/// `genAxis` from Algorithm 1: descendant if either input is descendant.
fn gen_axis(a: Axis, b: Axis) -> Axis {
    if a == Axis::Descendant || b == Axis::Descendant {
        Axis::Descendant
    } else {
        Axis::Child
    }
}

/// Generalized step for a consumed pair of steps.
fn gen_node(a: &LinearStep, b: &LinearStep) -> LinearStep {
    let test = if a.test == b.test {
        a.test
    } else {
        NameTest::Wildcard
    };
    LinearStep {
        axis: gen_axis(a.axis, b.axis),
        test,
    }
}

/// A `/*` filler step recording skipped middle steps.
fn filler() -> LinearStep {
    LinearStep {
        axis: Axis::Child,
        test: NameTest::Wildcard,
    }
}

/// Generalizes a pair of linear patterns, returning every generalized
/// pattern the paper's rules produce (deduplicated and sorted, Rule 0
/// applied). The result may be empty only for degenerate (empty) inputs.
/// Symmetric: `generalize_pair(p, q)` and `generalize_pair(q, p)` return
/// the same list (`gen_axis` and `gen_node` are symmetric and Rules 2/3
/// and the two Rule 4 alignments swap roles).
pub fn generalize_pair(p: &LinearPath, q: &LinearPath) -> Vec<LinearPath> {
    generalize_pair_in(p, q, &mut PairScratch::default())
}

/// The buffers one `generalize_pair` walk works in, kept by a caller that
/// generalizes many pairs so each walk allocates only its results.
#[derive(Default)]
struct PairScratch {
    /// The partial generalization all frames share.
    gen: Vec<LinearStep>,
    /// A finished generalization after the Rule 0 rewrite.
    rewritten: LinearPath,
    /// Frames: `gen`'s length when pushed, the step appended, the cursors.
    work: Vec<(usize, Option<LinearStep>, usize, usize)>,
    results: HashSet<LinearPath>,
}

/// [`generalize_pair`] in `scratch`.
fn generalize_pair_in(
    p: &LinearPath,
    q: &LinearPath,
    scratch: &mut PairScratch,
) -> Vec<LinearPath> {
    if p.is_empty() || q.is_empty() {
        return Vec::new();
    }
    let PairScratch {
        gen,
        rewritten,
        work,
        results,
    } = scratch;
    // An explicit worklist instead of recursion, so paths at the
    // MAX_PATH_STEPS parser cap cannot overflow the thread stack. All
    // frames share one partial generalization `gen`: a frame is the length
    // `gen` had when it was pushed, the step it appends, and the two
    // cursors. Frames are popped depth first, so a frame's prefix is
    // intact when it runs (its subtree writes only past it). Rule 4
    // branches by pushing up to three successor frames.
    work.push((0, None, 0, 0));
    while let Some((len, step, i, j)) = work.pop() {
        gen.truncate(len);
        gen.extend(step);
        let last_p = i + 1 == p.steps.len();
        let last_q = j + 1 == q.steps.len();
        match (last_p, last_q) {
            // Rule 1 (via Algorithm 1 line 4-12): consume the two last
            // steps together, rewrite, emit.
            (true, true) => {
                gen.push(gen_node(&p.steps[i], &q.steps[j]));
                LinearPath::rewrite_rule0_into(gen, &mut rewritten.steps);
                if !results.contains(&*rewritten) {
                    results.insert(rewritten.clone());
                }
            }
            // Rules 2/3: a last step can only generalize with another last
            // step; fast-forward the non-last side to its last step,
            // recording the skipped steps as a `/*` filler.
            (true, false) => work.push((gen.len(), Some(filler()), i, q.steps.len() - 1)),
            (false, true) => work.push((gen.len(), Some(filler()), p.steps.len() - 1, j)),
            // Rule 4: both middle steps.
            (false, false) => {
                // (1) Consume the pair and advance both.
                let node = gen_node(&p.steps[i], &q.steps[j]);
                work.push((gen.len(), Some(node), i + 1, j + 1));
                // (2) Align q's current step with its first re-occurrence
                // in p's remainder (skipping p steps → filler).
                if let Some(k) = find_occurrence(&p.steps, i + 1, q.steps[j].test) {
                    work.push((gen.len(), Some(filler()), k, j));
                }
                // (3) Symmetric.
                if let Some(k) = find_occurrence(&q.steps, j + 1, p.steps[i].test) {
                    work.push((gen.len(), Some(filler()), i, k));
                }
            }
        }
    }
    // Hash-based dedup plus an explicit sort reproduces the ordering the
    // original `BTreeSet` collection gave (`Ord` on paths is total).
    let mut out: Vec<LinearPath> = results.drain().collect();
    out.sort_unstable();
    out
}

fn find_occurrence(steps: &[LinearStep], from: usize, test: NameTest) -> Option<usize> {
    (from..steps.len()).find(|&k| steps[k].test == test)
}

/// Applies pairwise generalization over a candidate set until no new
/// pattern appears (the paper's fixpoint), inserting generalized
/// candidates and recording DAG edges `generalized → generalized-from`.
/// Uncounted convenience wrapper over [`generalize_set_fast`].
pub fn generalize_set(set: &mut CandidateSet) -> Vec<CandId> {
    generalize_set_fast(set, &Telemetry::off(), &EventJournal::off())
}

/// The literal Algorithm 1 fixpoint: each round visits every ordered
/// (frontier × all) pair and re-derives compatibility and `generalize_pair`
/// from scratch. The reference the semi-naive fixpoint is tested against.
#[cfg(test)]
fn generalize_set_naive(set: &mut CandidateSet, t: &Telemetry, j: &EventJournal) -> Vec<CandId> {
    let mut created = Vec::new();
    let mut frontier: Vec<CandId> = set.ids().collect();
    let mut all: Vec<CandId> = frontier.clone();
    while !frontier.is_empty() {
        let mut new_ids = Vec::new();
        for &a in &frontier {
            for &b in &all {
                if a == b {
                    continue;
                }
                // The naive loop *examines* every ordered pair — the
                // compatibility check below is itself per-pair work the
                // semi-naive buckets avoid, so it counts as a visit.
                t.incr(Counter::GeneralizePairsVisited);
                let (ca, cb) = (set.get(a), set.get(b));
                if ca.collection != cb.collection || ca.kind != cb.kind {
                    continue;
                }
                let (coll, kind) = (Arc::clone(&ca.collection), ca.kind);
                let results = generalize_pair(&ca.pattern, &cb.pattern);
                apply_pair_results(set, &results, a, b, &coll, kind, j, |gid| {
                    new_ids.push(gid);
                    created.push(gid);
                });
            }
        }
        all.extend(new_ids.iter().copied());
        frontier = new_ids;
    }
    created
}

/// The paper's fixpoint, evaluated semi-naively: an order of magnitude
/// fewer pair visits than the literal Algorithm 1 loop, same effect
/// sequence.
///
/// Two candidates are compatible iff they live on the same collection and
/// have the same value kind. Generalized results that are equivalent to an
/// input pattern are not re-inserted (no self-edges); results are verified
/// to cover both inputs (a safety net around the rule engine).
///
/// Returns the ids of the newly created generalized candidates.
///
/// Three reductions, each a no-op elimination:
///
/// * **bucketing** — candidates are grouped by (collection, value-kind);
///   the naive loop's incompatible pairs `continue` without effect, so
///   iterating only `a`'s own bucket (in global insertion order) visits
///   exactly the pairs that do something, in the same order.
/// * **unordered-pair dedup** — when both `a` and `b` are in the frontier,
///   the naive loop visits (a, b) and later (b, a). `generalize_pair` is
///   symmetric and every set operation it triggers is idempotent, so the
///   reversed second visit (the one where `b` precedes `a` in the
///   frontier) has no effect and is skipped.
/// * **memoization** — `generalize_pair` results are cached under the
///   canonical (sorted) pattern pair, so re-deriving the same pair in a
///   later round (frontier member against old candidate already paired
///   last round cannot recur, but distinct candidate pairs with equal
///   *patterns* across collections/kinds can) costs a lookup.
///
/// Buckets are extended with the round's new candidates only after the
/// round completes, mirroring the naive loop's round-start snapshot of
/// `all`.
///
/// This is [`generalize_set_extend`] seeded with every candidate.
pub fn generalize_set_fast(set: &mut CandidateSet, t: &Telemetry, j: &EventJournal) -> Vec<CandId> {
    let all: Vec<CandId> = set.ids().collect();
    generalize_set_extend(set, &all, t, j)
}

/// Extends an already-generalized candidate set with newly enumerated
/// candidates: the semi-naive fixpoint of [`generalize_set_fast`], seeded
/// with `new_ids` as the initial frontier, so round one visits exactly
/// the new×all pairs (old×old pairs were closed by the previous fixpoint
/// and revisiting them is a provable no-op). Buckets always span the
/// whole set, so frontier members pair against everything compatible.
/// `new_ids` must already be inserted into `set`.
///
/// Returns the ids of the newly created generalized candidates.
pub fn generalize_set_extend(
    set: &mut CandidateSet,
    new_ids: &[CandId],
    t: &Telemetry,
    j: &EventJournal,
) -> Vec<CandId> {
    let mut frontier = new_ids.to_vec();
    let mut created = Vec::new();
    let mut seen = Members::default();
    for id in set.ids() {
        seen.join(set, id);
    }
    let mut all_len = set.len();
    // `generalize_pair` results by unordered pair of pattern ids (the
    // rule engine is symmetric in its arguments).
    let mut memo: HashMap<(u32, u32), Vec<LinearPath>> = HashMap::new();
    let mut scratch = PairScratch::default();
    // Frontier position per candidate (`usize::MAX`: not in the frontier).
    let mut fpos: Vec<usize> = Vec::new();
    while !frontier.is_empty() {
        // Frontier positions drive the unordered-pair dedup: the naive
        // loop's first visit of a frontier pair is the one where `a` comes
        // earlier in the frontier.
        fpos.clear();
        fpos.resize(set.len(), usize::MAX);
        for (i, &id) in frontier.iter().enumerate() {
            fpos[id.index()] = i;
        }
        let mut new_ids = Vec::new();
        for (fa, &a) in frontier.iter().enumerate() {
            // Buckets are only extended at round end, so the round-start
            // snapshot can be borrowed across the set mutations below
            // (only `set`, `memo`, and `new_ids` change inside the loop).
            let ((coll, kind), bucket) = &seen.buckets[seen.bucket_of[a.index()]];
            // Everything outside the bucket is an incompatible pair the
            // naive loop would have enumerated and discarded.
            t.add(Counter::PairsSkippedBucket, (all_len - bucket.len()) as u64);
            for &b in bucket {
                if b == a {
                    continue;
                }
                if fpos[b.index()] < fa {
                    // (b, a) was already processed this round; this
                    // reversed visit is the naive loop's no-op.
                    continue;
                }
                t.incr(Counter::GeneralizePairsVisited);
                let (ka, kb) = (seen.pattern_of[a.index()], seen.pattern_of[b.index()]);
                let key = (ka.min(kb), ka.max(kb));
                let on_new = |gid| {
                    new_ids.push(gid);
                    created.push(gid);
                };
                if let Some(results) = memo.get(&key) {
                    t.incr(Counter::PairsMemoHits);
                    apply_pair_results(set, results, a, b, coll, *kind, j, on_new);
                } else {
                    let (pa, pb) = (&set.get(a).pattern, &set.get(b).pattern);
                    let r = generalize_pair_in(pa, pb, &mut scratch);
                    apply_pair_results(set, &r, a, b, coll, *kind, j, on_new);
                    memo.insert(key, r);
                }
            }
        }
        for &gid in &new_ids {
            seen.join(set, gid);
        }
        all_len += new_ids.len();
        frontier = new_ids;
    }
    created
}

/// A compatibility bucket's key: the collection (shared with its
/// candidates) and the key type.
type BucketKey = (Arc<str>, ValueKind);

/// What a pair visit of the fixpoint reads besides the set, recorded once
/// per candidate when it joins: its compatibility bucket (each bucket
/// holding its (collection, kind) key) and the dense id of its pattern,
/// each distinct pattern cloned once. Patterns are read from the set
/// itself, so no visit clones a pattern or a collection name.
#[derive(Default)]
struct Members {
    buckets: Vec<(BucketKey, Vec<CandId>)>,
    bucket_of: Vec<usize>,
    pattern_ids: HashMap<LinearPath, u32>,
    pattern_of: Vec<u32>,
}

impl Members {
    /// Records candidate `id`, the next one of `set` not yet seen.
    fn join(&mut self, set: &CandidateSet, id: CandId) {
        debug_assert_eq!(id.index(), self.bucket_of.len(), "joined in id order");
        let c = set.get(id);
        let at = (self.buckets.iter())
            .position(|((coll, kind), _)| *coll == c.collection && *kind == c.kind)
            .unwrap_or_else(|| {
                self.buckets
                    .push(((c.collection.clone(), c.kind), Vec::new()));
                self.buckets.len() - 1
            });
        self.buckets[at].1.push(id);
        self.bucket_of.push(at);
        let pid = match self.pattern_ids.get(&c.pattern) {
            Some(&pid) => pid,
            None => {
                let pid = self.pattern_ids.len() as u32;
                self.pattern_ids.insert(c.pattern.clone(), pid);
                pid
            }
        };
        self.pattern_of.push(pid);
    }
}

/// Applies one visited pair's generalization results to the set — the loop
/// body shared verbatim by both fixpoints, so their per-pair effects cannot
/// drift apart. `a` and `b` live on `coll` with key type `kind`. `on_new`
/// fires for results whose pattern was not in the set before this call;
/// the journal records that first derivation only, so fast and naive runs
/// emit identical event streams.
#[allow(clippy::too_many_arguments)]
fn apply_pair_results(
    set: &mut CandidateSet,
    results: &[LinearPath],
    a: CandId,
    b: CandId,
    coll: &Arc<str>,
    kind: ValueKind,
    j: &EventJournal,
    mut on_new: impl FnMut(CandId),
) {
    for g in results {
        let (pa, pb) = (&set.get(a).pattern, &set.get(b).pattern);
        // Safety: a generalization must cover both inputs.
        if !contain::covers(g, pa) || !contain::covers(g, pb) {
            continue;
        }
        // Skip results equivalent to an input (no new pattern).
        if g == pa || g == pb {
            let (target, other) = if g == pa { (a, b) } else { (b, a) };
            set.add_edge(target, other);
            continue;
        }
        let existing = set.lookup(coll, g, kind);
        let gid = existing.unwrap_or_else(|| set.insert(coll, g, kind, CandOrigin::Generalized));
        set.add_edge(gid, a);
        set.add_edge(gid, b);
        if existing.is_none() {
            j.emit_batch(|| {
                let collection = Arc::clone(coll);
                let result = set.get(gid).pattern_text();
                [
                    Event::PairGeneralized {
                        collection: collection.clone(),
                        left: set.get(a).pattern_text(),
                        right: set.get(b).pattern_text(),
                        result: result.clone(),
                    },
                    Event::CandidateGenerated {
                        collection,
                        pattern: result,
                        kind: kind.name().into(),
                        origin: "generalized".into(),
                    },
                ]
            });
            on_new(gid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{CandOrigin, CandidateSet};
    use xia_xpath::parse_linear_path;

    fn lp(s: &str) -> LinearPath {
        parse_linear_path(s).unwrap()
    }

    fn gen(a: &str, b: &str) -> Vec<String> {
        generalize_pair(&lp(a), &lp(b))
            .into_iter()
            .map(|p| p.to_string())
            .collect()
    }

    #[test]
    fn paper_example_c1_c2() {
        // /Security/Symbol ⊔ /Security/SecInfo/*/Sector → /Security//*
        let out = gen("/Security/Symbol", "/Security/SecInfo/*/Sector");
        assert_eq!(out, vec!["/Security//*"]);
    }

    #[test]
    fn paper_example_reoccurrence() {
        // /a/b/d ⊔ /a/d/b/d → {/a//d, /a//b/d} (paper Section V).
        let out = gen("/a/b/d", "/a/d/b/d");
        assert!(out.contains(&"/a//d".to_string()), "{out:?}");
        assert!(out.contains(&"/a//b/d".to_string()), "{out:?}");
    }

    #[test]
    fn identical_paths_generalize_to_themselves() {
        assert_eq!(gen("/a/b/c", "/a/b/c"), vec!["/a/b/c"]);
    }

    #[test]
    fn same_parent_different_leaves() {
        assert_eq!(
            gen("/Security/Symbol", "/Security/Yield"),
            vec!["/Security/*"]
        );
    }

    #[test]
    fn descendant_axis_propagates() {
        // genAxis: // wins.
        let out = gen("/a//b", "/a/b");
        assert_eq!(out, vec!["/a//b"]);
    }

    #[test]
    fn different_roots_generalize_to_descendant_leaf() {
        // The generalized middle `*` is folded by Rule 0: /*/x → //x.
        let out = gen("/a/x", "/b/x");
        assert_eq!(out, vec!["//x"]);
    }

    #[test]
    fn different_lengths_produce_descendant_target() {
        let out = gen("/a/b", "/a/x/y/b");
        assert!(out.contains(&"/a//b".to_string()), "{out:?}");
    }

    #[test]
    fn results_cover_both_inputs_exhaustive() {
        let samples = [
            "/a/b",
            "/a/b/c",
            "/a//c",
            "/a/*/c",
            "/x/y",
            "/a/b/d",
            "/a/d/b/d",
            "/Security/SecInfo/StockInfo/Sector",
            "/Security/Symbol",
        ];
        for a in &samples {
            for b in &samples {
                let (pa, pb) = (lp(a), lp(b));
                for g in generalize_pair(&pa, &pb) {
                    assert!(
                        contain::covers(&g, &pa) && contain::covers(&g, &pb),
                        "{g} does not cover {a} ⊔ {b}"
                    );
                }
            }
        }
    }

    /// Regression (stack-safety): the rule engine must survive paths at
    /// the parser's MAX_PATH_STEPS cap. The recursive formulation nested
    /// one stack frame per consumed step pair; the worklist keeps frames
    /// on the heap. Distinct names keep Rule 4 single-branch, so this
    /// exercises maximum *depth*, not exponential width.
    #[test]
    fn generalize_pair_survives_max_path_steps() {
        let labels: Vec<String> = (0..xia_xpath::MAX_PATH_STEPS)
            .map(|i| format!("s{i}"))
            .collect();
        let p = LinearPath::from_labels(labels.iter().map(|s| s.as_str()));
        assert_eq!(p.len(), xia_xpath::MAX_PATH_STEPS);
        let out = generalize_pair(&p, &p);
        assert_eq!(out, vec![p.clone()], "p ⊔ p must be p itself");
        // A shifted variant still terminates and produces covering output
        // (the off-by-one tail makes Rules 2/3 fire at full depth too).
        let q = p.join(&[LinearStep::child("tail")]);
        let out = generalize_pair(&p, &q);
        assert!(!out.is_empty());
    }

    /// `generalize_pair` is symmetric — the property the canonical memo
    /// key in the semi-naive fixpoint relies on.
    #[test]
    fn generalize_pair_is_symmetric_on_pool() {
        let pool = [
            "/a/b", "/a/b/c", "/a//c", "/a/*/c", "/x/y", "/a/b/d", "/a/d/b/d", "/a//*",
        ];
        for a in &pool {
            for b in &pool {
                assert_eq!(gen(a, b), gen(b, a), "asymmetric on ({a}, {b})");
            }
        }
    }

    #[test]
    fn fixpoint_expands_set_and_builds_dag() {
        let mut set = CandidateSet::new();
        let c1 = set.insert(
            "SDOC",
            &lp("/Security/Symbol"),
            xia_xpath::ValueKind::Str,
            CandOrigin::Basic,
        );
        let c2 = set.insert(
            "SDOC",
            &lp("/Security/SecInfo/*/Sector"),
            xia_xpath::ValueKind::Str,
            CandOrigin::Basic,
        );
        // C3 is numerical: must not generalize with C1/C2 (paper Table I).
        let c3 = set.insert(
            "SDOC",
            &lp("/Security/Yield"),
            xia_xpath::ValueKind::Num,
            CandOrigin::Basic,
        );
        let created = generalize_set(&mut set);
        assert_eq!(created.len(), 1);
        let g = set.get(created[0]);
        assert_eq!(g.pattern.to_string(), "/Security//*");
        assert_eq!(g.kind, xia_xpath::ValueKind::Str);
        let mut kids = g.children.clone();
        kids.sort();
        assert_eq!(kids, vec![c1, c2]);
        // The numeric candidate remains a root (nothing generalized it).
        assert!(set.get(c3).parents.is_empty());
    }

    #[test]
    fn cross_collection_candidates_do_not_generalize() {
        let mut set = CandidateSet::new();
        set.insert(
            "SDOC",
            &lp("/Security/Symbol"),
            xia_xpath::ValueKind::Str,
            CandOrigin::Basic,
        );
        set.insert(
            "ODOC",
            &lp("/Order/Symbol"),
            xia_xpath::ValueKind::Str,
            CandOrigin::Basic,
        );
        let created = generalize_set(&mut set);
        assert!(created.is_empty());
    }

    #[test]
    fn fixpoint_terminates_on_many_siblings() {
        let mut set = CandidateSet::new();
        for leaf in ["a", "b", "c", "d", "e"] {
            set.insert(
                "C",
                &lp(&format!("/top/mid/{leaf}")),
                xia_xpath::ValueKind::Str,
                CandOrigin::Basic,
            );
        }
        let created = generalize_set(&mut set);
        // All pairs generalize to the single /top/mid/*.
        assert_eq!(created.len(), 1);
        assert_eq!(set.get(created[0]).pattern.to_string(), "/top/mid/*");
        assert_eq!(set.get(created[0]).children.len(), 5);
    }

    #[test]
    fn generalization_expansion_is_bounded() {
        // Mixed-shape candidates must reach a fixpoint without explosion.
        let mut set = CandidateSet::new();
        for p in ["/s/a/x", "/s/b/x", "/s/a/y", "/s/c/d/x", "/s//y", "/t/a"] {
            set.insert("C", &lp(p), xia_xpath::ValueKind::Str, CandOrigin::Basic);
        }
        let created = generalize_set(&mut set);
        assert!(!created.is_empty());
        assert!(set.len() < 60, "unexpected explosion: {}", set.len());
    }

    /// Builds the same seeded candidate set twice and runs each fixpoint
    /// on its own copy, asserting the *entire observable state* matches:
    /// candidate order, patterns, origins, and DAG edge lists (in stored
    /// order, not sorted — edge insertion order is part of the parity
    /// contract).
    fn assert_fixpoints_agree(seed_paths: &[(&str, &str, xia_xpath::ValueKind)]) {
        let build = || {
            let mut set = CandidateSet::new();
            for (coll, path, kind) in seed_paths {
                set.insert(coll, &lp(path), *kind, CandOrigin::Basic);
            }
            set
        };
        let mut naive_set = build();
        let mut fast_set = build();
        let naive_journal = EventJournal::new();
        let naive_created = generalize_set_naive(&mut naive_set, &Telemetry::off(), &naive_journal);
        let t = Telemetry::new();
        let fast_journal = EventJournal::new();
        let fast_created = generalize_set_fast(&mut fast_set, &t, &fast_journal);
        assert_eq!(
            naive_journal.to_jsonl(),
            fast_journal.to_jsonl(),
            "journal streams diverge"
        );
        assert_eq!(naive_created, fast_created, "created ids diverge");
        assert_eq!(naive_set.len(), fast_set.len(), "set sizes diverge");
        for (n, f) in naive_set.iter().zip(fast_set.iter()) {
            assert_eq!(n.id, f.id);
            assert_eq!(n.collection, f.collection);
            assert_eq!(n.pattern, f.pattern, "pattern diverges at {:?}", n.id);
            assert_eq!(n.kind, f.kind);
            assert_eq!(n.origin, f.origin);
            assert_eq!(n.children, f.children, "children diverge at {}", n.pattern);
            assert_eq!(n.parents, f.parents, "parents diverge at {}", n.pattern);
        }
    }

    #[test]
    fn semi_naive_matches_naive_on_paper_workload() {
        use xia_xpath::ValueKind::{Num, Str};
        assert_fixpoints_agree(&[
            ("SDOC", "/Security/Symbol", Str),
            ("SDOC", "/Security/SecInfo/*/Sector", Str),
            ("SDOC", "/Security/Yield", Num),
            ("ODOC", "/Order/Price", Num),
        ]);
    }

    /// Property: semi-naive ≡ naive on randomized synthetic candidate
    /// sets spanning several collections and kinds (where bucketing does
    /// real work) with repeated-name paths (where Rule 4 branches).
    #[test]
    fn semi_naive_matches_naive_on_random_workloads() {
        // Deterministic splitmix64 case generator.
        let mut state = 0x5EED_0012u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as usize
        };
        let labels = ["a", "b", "c", "d", "Sector"];
        let colls = ["C1", "C2", "C3"];
        let kinds = [xia_xpath::ValueKind::Str, xia_xpath::ValueKind::Num];
        for _case in 0..30 {
            let n = 3 + next() % 6;
            let seeds: Vec<(String, String, xia_xpath::ValueKind)> = (0..n)
                .map(|_| {
                    let depth = 1 + next() % 4;
                    let path = format!(
                        "/root{}",
                        (0..depth)
                            .map(|_| format!("/{}", labels[next() % labels.len()]))
                            .collect::<String>()
                    );
                    (
                        colls[next() % colls.len()].to_string(),
                        path,
                        kinds[next() % kinds.len()],
                    )
                })
                .collect();
            let borrowed: Vec<(&str, &str, xia_xpath::ValueKind)> = seeds
                .iter()
                .map(|(c, p, k)| (c.as_str(), p.as_str(), *k))
                .collect();
            assert_fixpoints_agree(&borrowed);
        }
        // 48 more cases from a second generator: two collections, up to
        // seven seeds, a label alphabet where `Security` repeats.
        let mut rng = xia_workloads::prng::Prng::seed_from_u64(0x0c);
        let labels = ["a", "b", "c", "Security", "Sector"];
        for _case in 0..48 {
            let seeds: Vec<(&str, String, xia_xpath::ValueKind)> = (0..rng.gen_range(2..8))
                .map(|_| {
                    let mut steps = vec!["root"];
                    for _ in 0..rng.gen_range(1..4) {
                        steps.push(labels[rng.gen_range(0..labels.len())]);
                    }
                    (
                        colls[rng.gen_range(0..2)],
                        format!("/{}", steps.join("/")),
                        kinds[rng.gen_range(0..kinds.len())],
                    )
                })
                .collect();
            let borrowed: Vec<(&str, &str, xia_xpath::ValueKind)> =
                seeds.iter().map(|(c, p, k)| (*c, p.as_str(), *k)).collect();
            assert_fixpoints_agree(&borrowed);
        }
    }

    /// Content signature of a candidate set, id-independent: one record
    /// per candidate with DAG edges rendered as pattern strings, sorted.
    /// Extension and full re-preparation may assign different ids to the
    /// same derived patterns, so parity is asserted on content.
    fn content_signature(set: &CandidateSet) -> Vec<String> {
        let pat = |id: CandId| set.get(id).pattern.to_string();
        let mut out: Vec<String> = set
            .iter()
            .map(|c| {
                let mut kids: Vec<String> = c.children.iter().map(|&k| pat(k)).collect();
                kids.sort();
                let mut parents: Vec<String> = c.parents.iter().map(|&k| pat(k)).collect();
                parents.sort();
                format!(
                    "{}|{}|{:?}|{:?}|kids={kids:?}|parents={parents:?}",
                    c.collection, c.pattern, c.kind, c.origin,
                )
            })
            .collect();
        out.sort();
        out
    }

    /// Extending an already-generalized set with new basics reaches the
    /// same closure (patterns, origins, DAG edges) as
    /// generalizing everything from scratch.
    #[test]
    fn extend_matches_full_fixpoint_by_content() {
        use xia_xpath::ValueKind::Str;
        let old = [
            ("SDOC", "/Security/Symbol"),
            ("SDOC", "/Security/SecInfo/*/Sector"),
            ("C", "/r/a/x"),
        ];
        let new = [
            ("SDOC", "/Security/Yield"),
            ("C", "/r/b/x"),
            ("C", "/r/a/y"),
        ];
        // Incremental: generalize the old basics, then insert + extend.
        let mut inc = CandidateSet::new();
        for (coll, path) in old {
            inc.insert(coll, &lp(path), Str, CandOrigin::Basic);
        }
        generalize_set_fast(&mut inc, &Telemetry::off(), &EventJournal::off());
        let mut new_ids = Vec::new();
        for (coll, path) in new {
            new_ids.push(inc.insert(coll, &lp(path), Str, CandOrigin::Basic));
        }
        generalize_set_extend(&mut inc, &new_ids, &Telemetry::off(), &EventJournal::off());
        // Full: everything from scratch.
        let mut full = CandidateSet::new();
        for (coll, path) in old.iter().chain(new.iter()) {
            full.insert(coll, &lp(path), Str, CandOrigin::Basic);
        }
        generalize_set_fast(&mut full, &Telemetry::off(), &EventJournal::off());
        assert_eq!(content_signature(&inc), content_signature(&full));
    }

    /// The fast path's accounting: bucketing skips cross-kind pairs, the
    /// memo fires on repeated pattern pairs, and on a widened workload
    /// over three collections and both kinds the fast path visits at
    /// least 3× fewer pairs than the naive loop.
    #[test]
    fn fast_path_counters_reflect_skipped_work() {
        use xia_xpath::ValueKind::{Num, Str};
        let mut seeds = Vec::new();
        for coll in ["C1", "C2", "C3"] {
            for (kind, leaf) in [(Str, "x"), (Num, "y")] {
                for mid in ["a", "b", "c", "d"] {
                    seeds.push((coll, format!("/r/{mid}/{leaf}"), kind));
                }
            }
        }
        let build = || {
            let mut set = CandidateSet::new();
            for (coll, path, kind) in &seeds {
                set.insert(coll, &lp(path), *kind, CandOrigin::Basic);
            }
            set
        };
        let tn = Telemetry::new();
        let naive = generalize_set_naive(&mut build(), &tn, &EventJournal::off());
        let tf = Telemetry::new();
        let fast = generalize_set_fast(&mut build(), &tf, &EventJournal::off());
        assert_eq!(naive, fast);
        let naive_visits = tn.get(Counter::GeneralizePairsVisited);
        let fast_visits = tf.get(Counter::GeneralizePairsVisited);
        assert!(fast_visits > 0);
        assert!(
            naive_visits >= 3 * fast_visits,
            "expected ≥3× fewer visits: fast {fast_visits}, naive {naive_visits}"
        );
        assert!(
            tf.get(Counter::PairsSkippedBucket) > 0,
            "multi-kind workload must skip cross-bucket pairs"
        );
        assert!(
            tf.get(Counter::PairsMemoHits) > 0,
            "equal patterns in three collections must hit the memo"
        );
        // Naive never reports fast-path counters.
        assert_eq!(tn.get(Counter::PairsSkippedBucket), 0);
        assert_eq!(tn.get(Counter::PairsMemoHits), 0);
    }
}
