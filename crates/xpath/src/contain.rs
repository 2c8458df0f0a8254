//! Containment and matching for linear path patterns.
//!
//! `covers(general, specific)` decides *language inclusion*: does every
//! rooted label path matched by `specific` also match `general`? This is the
//! data-independent relation the optimizer's index matching uses ("index
//! with pattern P can answer a query pattern Q iff P covers Q"), and the
//! coverage-bitmap heuristic of the greedy search relies on it too.
//!
//! Linear patterns denote regular word languages over the (unbounded)
//! alphabet of element labels. Inclusion is decided soundly and completely
//! by restricting to the finite alphabet of labels mentioned in either
//! pattern plus one fresh "other" letter: wildcard and `Σ*` transitions are
//! the only ones that accept unmentioned labels, and they treat all
//! unmentioned labels identically, so any counterexample word can be
//! relabeled onto the restricted alphabet.
//!
//! Two fast paths sit in front of the NFA product search, both exact:
//!
//! * **identity** — `L ⊆ L` always holds, so equal patterns (an integer
//!   compare over interned steps) accept immediately;
//! * **name-mask reject** — every concrete name test in `general` must be
//!   consumed by every word of `L(general)`, while `specific` always has a
//!   witness word avoiding any name it does not mention. So if `general`
//!   mentions a name `specific` does not, containment is impossible. The
//!   bloom-style [`LinearPath::name_mask`] over-approximates the mention
//!   sets: `general.mask & !specific.mask != 0` proves such a name exists
//!   (bit collisions can only *hide* a reject, never invent one).
//!
//! [`CoverCache`] memoizes verdicts by pattern identity so the relevance
//! matrix, top-down search, and greedy coverage bitmaps — which re-ask the
//! same `(candidate, candidate)` questions many times per advise run —
//! each pay for a verdict once.

use crate::intern::Sym;
use crate::linear::{Axis, LinearPath, NameTest};
use crate::statement::ValueKind;
use std::collections::HashMap;
use std::sync::Mutex;
use xia_xml::{PathId, Symbol, Vocabulary};

/// Letter of the restricted alphabet: index into the mentioned-names list,
/// or `Other` for any unmentioned label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Letter {
    Named(usize),
    Other,
}

/// NFA over the restricted alphabet. State `i` = "first `i` steps matched";
/// a descendant-axis step adds a self-loop (Σ*) on its source state.
struct Nfa {
    /// `step_tests[i]`: which letters step `i+1` accepts (bitmask over
    /// named letters; bool for Other).
    accepts: Vec<(u64, bool)>,
    /// Whether state `i` has a Σ* self-loop (step `i+1` is descendant-axis).
    self_loop: Vec<bool>,
    states: usize,
}

fn build_nfa(path: &LinearPath, names: &[Sym]) -> Nfa {
    assert!(
        names.len() <= 64,
        "containment alphabet limited to 64 names"
    );
    let mut accepts = Vec::with_capacity(path.len());
    let mut self_loop = Vec::with_capacity(path.len());
    for step in &path.steps {
        let (mask, other) = match step.test {
            NameTest::Wildcard => (u64::MAX >> (64 - names.len().max(1)), true),
            NameTest::Name(n) => {
                let mut mask = 0u64;
                if let Some(i) = names.iter().position(|x| *x == n) {
                    mask |= 1 << i;
                }
                (mask, false)
            }
        };
        accepts.push((mask, other));
        self_loop.push(step.axis == Axis::Descendant);
    }
    Nfa {
        accepts,
        self_loop,
        states: path.len() + 1,
    }
}

impl Nfa {
    /// Steps a state *set* (bitmask over states) on one letter.
    fn step_set(&self, set: u64, letter: Letter) -> u64 {
        let mut next = 0u64;
        for i in 0..self.states {
            if set & (1 << i) == 0 {
                continue;
            }
            // Σ* self-loops keep state i alive on any letter.
            if i < self.states - 1 && self.self_loop[i] {
                next |= 1 << i;
            }
            if i < self.states - 1 {
                let (mask, other) = self.accepts[i];
                let ok = match letter {
                    Letter::Named(n) => mask & (1 << n) != 0,
                    Letter::Other => other,
                };
                if ok {
                    next |= 1 << (i + 1);
                }
            }
        }
        next
    }

    fn start(&self) -> u64 {
        1
    }

    fn accepting(&self, set: u64) -> bool {
        set & (1 << (self.states - 1)) != 0
    }
}

/// Exact precheck: does the name-mask argument *prove* `general` cannot
/// cover `specific`? `general` mentioning a concrete name that `specific`
/// never matches forces a witness word in `L(specific) \ L(general)`.
/// Conservative under bloom collisions: `false` means "no proof", not
/// "covered".
fn mask_rejects(general: &LinearPath, specific: &LinearPath) -> bool {
    general.name_mask() & !specific.name_mask() != 0
}

/// Returns `true` iff every rooted label path matched by `specific` is also
/// matched by `general` (language inclusion `L(specific) ⊆ L(general)`).
pub fn covers(general: &LinearPath, specific: &LinearPath) -> bool {
    // Patterns longer than 63 steps never occur in practice; guard anyway.
    if general.len() >= 63 || specific.len() >= 63 {
        return general == specific;
    }
    if general == specific {
        return true; // identity: L ⊆ L
    }
    if mask_rejects(general, specific) {
        return false;
    }
    covers_full(general, specific)
}

/// The NFA product search, without the identity/mask fast paths. Kept
/// separate so property tests can pin `covers ≡ covers_full`.
fn covers_full(general: &LinearPath, specific: &LinearPath) -> bool {
    let mut names: Vec<Sym> = Vec::new();
    for n in general.syms().chain(specific.syms()) {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    if names.len() > 64 {
        return general == specific;
    }
    let a = build_nfa(specific, &names); // must be ⊆
    let b = build_nfa(general, &names); // must be ⊇

    // Search the product of A's state-sets and B's state-sets for a word
    // accepted by A but not by B. Both sets are bitmasks; the pair space is
    // tiny for realistic pattern sizes.
    let mut letters: Vec<Letter> = (0..names.len()).map(Letter::Named).collect();
    letters.push(Letter::Other);

    let start = (a.start(), b.start());
    let mut seen = std::collections::HashSet::new();
    seen.insert(start);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some((sa, sb)) = queue.pop_front() {
        if a.accepting(sa) && !b.accepting(sb) {
            return false; // counterexample word exists
        }
        for &l in &letters {
            let na = a.step_set(sa, l);
            if na == 0 {
                continue; // word died in A; cannot be a counterexample
            }
            let nb = b.step_set(sb, l);
            if seen.insert((na, nb)) {
                queue.push_back((na, nb));
            }
        }
    }
    true
}

/// Whether two patterns match exactly the same label paths.
pub fn equivalent(a: &LinearPath, b: &LinearPath) -> bool {
    covers(a, b) && covers(b, a)
}

/// Dense identity of a pattern inside a [`CoverCache`]: assigned on first
/// sight, stable for the cache's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternId(u32);

/// Hit/reject statistics of a [`CoverCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverCacheStats {
    /// Verdicts answered from the memo table.
    pub hits: u64,
    /// Verdicts decided by the name-mask fast reject (on a memo miss).
    pub fast_rejects: u64,
    /// Distinct `(general, specific)` verdicts stored.
    pub entries: u64,
}

#[derive(Default)]
struct CoverCacheInner {
    ids: HashMap<LinearPath, PatternId>,
    /// Per pattern id: precomputed name mask (index = id).
    masks: Vec<u64>,
    verdicts: HashMap<(PatternId, PatternId), bool>,
    hits: u64,
    fast_rejects: u64,
}

/// Shared containment-verdict memo keyed by pattern identity.
///
/// One instance lives in the benefit evaluator per advise run and is
/// consulted by everything on the coordinator path that asks containment
/// questions about the (fixed) candidate set: relevance-matrix
/// construction, the top-down search's covered-check, and the greedy
/// search's coverage bitmaps. Verdicts are pure, so caching cannot change
/// results — only how often the NFA product search runs.
#[derive(Default)]
pub struct CoverCache {
    inner: Mutex<CoverCacheInner>,
}

impl CoverCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized [`covers`]: identical verdicts, computed at most once per
    /// `(general, specific)` pattern pair.
    pub fn covers(&self, general: &LinearPath, specific: &LinearPath) -> bool {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let g = Self::id_of(&mut inner, general);
        let s = Self::id_of(&mut inner, specific);
        if let Some(&v) = inner.verdicts.get(&(g, s)) {
            inner.hits += 1;
            return v;
        }
        let long = general.len() >= 63 || specific.len() >= 63;
        let verdict = if general == specific {
            true
        } else if long {
            false // length guard: covers() falls back to equality here
        } else if inner.masks[g.0 as usize] & !inner.masks[s.0 as usize] != 0 {
            inner.fast_rejects += 1;
            false
        } else {
            covers_full(general, specific)
        };
        inner.verdicts.insert((g, s), verdict);
        verdict
    }

    fn id_of(inner: &mut CoverCacheInner, pattern: &LinearPath) -> PatternId {
        if let Some(&id) = inner.ids.get(pattern) {
            return id;
        }
        let id = PatternId(inner.masks.len() as u32);
        inner.masks.push(pattern.name_mask());
        inner.ids.insert(pattern.clone(), id);
        id
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> CoverCacheStats {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        CoverCacheStats {
            hits: inner.hits,
            fast_rejects: inner.fast_rejects,
            entries: inner.verdicts.len() as u64,
        }
    }
}

/// The access-pattern surface of one workload statement, as seen by index
/// matching: the collection it touches and the indexable linear patterns it
/// probes, each with the comparison's value kind (`None` for existence
/// probes, which any index kind can answer).
///
/// This is everything the optimizer's `index_matches` consults about a
/// statement, so a candidate index that matches *no* target here provably
/// cannot appear in any plan for the statement — the soundness basis of
/// relevance pruning.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StatementSignature {
    /// Collection the statement runs against.
    pub collection: String,
    /// Indexable access patterns: `(linear pattern, comparison kind)`.
    /// Empty for statements whose plans never consult the catalog
    /// (inserts).
    pub targets: Vec<(LinearPath, Option<ValueKind>)>,
}

impl StatementSignature {
    /// Whether an index with this `(collection, pattern, kind)` could match
    /// any access pattern of the statement (mirrors the optimizer's
    /// `index_matches`: kind compatibility plus pattern containment).
    pub fn admits(&self, collection: &str, pattern: &LinearPath, kind: ValueKind) -> bool {
        self.collection == collection
            && self
                .targets
                .iter()
                .any(|(q, kq)| kq.is_none_or(|k| k == kind) && covers(pattern, q))
    }

    /// Canonicalizes the signature in place: targets sorted by
    /// (pattern text, value kind) and deduplicated. `admits` is a
    /// disjunction over targets, so order and multiplicity never change a
    /// verdict — two statements with equal canonical signatures admit
    /// exactly the same candidate indexes. The workload compressor uses
    /// this as its coarse clustering key before cost-identity refinement.
    pub fn canonicalize(&mut self) {
        self.targets
            .sort_by(|(pa, ka), (pb, kb)| pa.to_string().cmp(&pb.to_string()).then(ka.cmp(kb)));
        self.targets.dedup();
    }

    /// [`Self::admits`] with containment verdicts routed through a shared
    /// [`CoverCache`]. Same result; repeated pattern pairs cost one lookup.
    pub fn admits_with(
        &self,
        collection: &str,
        pattern: &LinearPath,
        kind: ValueKind,
        cache: &CoverCache,
    ) -> bool {
        self.collection == collection
            && self
                .targets
                .iter()
                .any(|(q, kq)| kq.is_none_or(|k| k == kind) && cache.covers(pattern, q))
    }
}

/// Precomputed statement-relevance matrix: for each candidate index
/// pattern, the set of workload statements whose plans could possibly use
/// it. Built once per advise run from the statements' signatures — deriving
/// a candidate's row costs only containment checks, never optimizer calls.
///
/// Statements with equal signatures admit exactly the same indexes, and a
/// workload of thousands of templates has a few hundred distinct
/// signatures (templates that differ in a range literal or a return path
/// probe the same patterns). The matrix therefore keeps each distinct
/// signature once, asks it once per candidate, and fans the verdict out to
/// its member statements.
#[derive(Debug, Default)]
pub struct RelevanceMatrix {
    /// The distinct signatures, in first-occurrence order.
    distinct: Vec<StatementSignature>,
    /// Each distinct signature's index in `distinct`.
    index: HashMap<StatementSignature, usize>,
    /// Per statement, in workload order: its signature's index in
    /// `distinct`.
    group_of: Vec<usize>,
}

impl RelevanceMatrix {
    /// Builds a matrix over a workload's statement signatures (one entry
    /// per statement, in workload order).
    pub fn new(signatures: Vec<StatementSignature>) -> Self {
        let mut matrix = Self::default();
        for sig in signatures {
            matrix.push(sig);
        }
        matrix
    }

    /// Appends the next statement's signature: the matrix grows with an
    /// append-only workload, and rows asked `from` the old length cover
    /// exactly the statements added since.
    pub fn push(&mut self, sig: StatementSignature) {
        let group = match self.index.get(&sig) {
            Some(&group) => group,
            None => {
                self.distinct.push(sig.clone());
                self.index.insert(sig, self.distinct.len() - 1);
                self.distinct.len() - 1
            }
        };
        self.group_of.push(group);
    }

    /// Number of statements covered.
    pub fn len(&self) -> usize {
        self.group_of.len()
    }

    /// Whether the matrix covers no statements.
    pub fn is_empty(&self) -> bool {
        self.group_of.is_empty()
    }

    /// The statements `from..` (ascending indexes) whose signature
    /// `admits`. Each distinct signature among them is asked once, in
    /// first-occurrence order.
    fn members_from(
        &self,
        from: usize,
        admits: impl Fn(&StatementSignature) -> bool,
    ) -> Vec<usize> {
        let mut admitted: Vec<Option<bool>> = vec![None; self.distinct.len()];
        (from..self.group_of.len())
            .filter(|&si| {
                let group = self.group_of[si];
                *admitted[group].get_or_insert_with(|| admits(&self.distinct[group]))
            })
            .collect()
    }

    /// The statements (ascending indexes) a candidate index with this
    /// `(collection, pattern, kind)` is relevant to.
    pub fn relevant_statements(
        &self,
        collection: &str,
        pattern: &LinearPath,
        kind: ValueKind,
    ) -> Vec<usize> {
        self.members_from(0, |sig| sig.admits(collection, pattern, kind))
    }

    /// [`Self::relevant_statements`] through a shared [`CoverCache`] —
    /// candidates generalize each other heavily, so the same
    /// `(pattern, target)` containment questions recur across rows.
    pub fn relevant_statements_cached(
        &self,
        collection: &str,
        pattern: &LinearPath,
        kind: ValueKind,
        cache: &CoverCache,
    ) -> Vec<usize> {
        self.relevant_from(0, collection, pattern, kind, Some(cache))
    }

    /// The row restricted to statements `from..`: what an existing
    /// candidate's row gains when the workload grows. Through `cache`
    /// when one is given, by the plain containment search otherwise.
    pub fn relevant_from(
        &self,
        from: usize,
        collection: &str,
        pattern: &LinearPath,
        kind: ValueKind,
        cache: Option<&CoverCache>,
    ) -> Vec<usize> {
        self.members_from(from, |sig| match cache {
            Some(cache) => sig.admits_with(collection, pattern, kind, cache),
            None => sig.admits(collection, pattern, kind),
        })
    }
}

/// A pattern compiled against a concrete [`Vocabulary`] for fast matching of
/// interned rooted paths. Used by partial-index builds, RUNSTATS, and the
/// executor.
pub struct PathMatcher {
    /// Per step: resolved symbol (None = wildcard or unknown name), axis,
    /// and whether an unknown name makes the step unsatisfiable.
    steps: Vec<CompiledStep>,
}

struct CompiledStep {
    axis: Axis,
    /// `Ok(sym)` concrete resolved name; `Err(true)` wildcard; `Err(false)`
    /// name not present in the vocabulary (never matches).
    test: Result<Symbol, bool>,
}

impl PathMatcher {
    /// Compiles `pattern` against `vocab`.
    pub fn new(pattern: &LinearPath, vocab: &Vocabulary) -> Self {
        let steps = pattern
            .steps
            .iter()
            .map(|s| CompiledStep {
                axis: s.axis,
                test: match s.test {
                    NameTest::Wildcard => Err(true),
                    NameTest::Name(n) => match vocab.lookup_name(n.as_str()) {
                        Some(sym) => Ok(sym),
                        None => Err(false),
                    },
                },
            })
            .collect();
        Self { steps }
    }

    fn step_accepts(step: &CompiledStep, label: Symbol) -> bool {
        match step.test {
            Ok(sym) => sym == label,
            Err(wild) => wild,
        }
    }

    /// Matches an interned label sequence (same DP as
    /// [`LinearPath::matches_labels`], over symbols).
    pub fn matches(&self, labels: &[Symbol]) -> bool {
        let n = labels.len();
        let mut cur = vec![false; n + 1];
        cur[0] = true;
        let mut next = vec![false; n + 1];
        for step in &self.steps {
            next.iter_mut().for_each(|b| *b = false);
            match step.axis {
                Axis::Child => {
                    for j in 1..=n {
                        next[j] = cur[j - 1] && Self::step_accepts(step, labels[j - 1]);
                    }
                }
                Axis::Descendant => {
                    let mut reach = false;
                    for j in 1..=n {
                        reach |= cur[j - 1];
                        next[j] = reach && Self::step_accepts(step, labels[j - 1]);
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur[n]
    }

    /// Scans the vocabulary's path dictionary and returns all matching path
    /// ids, in id order.
    pub fn matching_path_ids(&self, vocab: &Vocabulary) -> Vec<PathId> {
        vocab
            .paths
            .iter()
            .filter(|(_, labels)| self.matches(labels))
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_linear_path;
    use xia_xml::DocBuilder;

    fn lp(s: &str) -> LinearPath {
        parse_linear_path(s).expect("parse")
    }

    #[test]
    fn universal_covers_everything() {
        let u = LinearPath::universal();
        for s in [
            "/Security/Symbol",
            "/Security/SecInfo/*/Sector",
            "//Yield",
            "/a//b/*",
        ] {
            assert!(covers(&u, &lp(s)), "//* should cover {s}");
            assert!(!covers(&lp(s), &u), "{s} should not cover //*");
        }
    }

    #[test]
    fn paper_table1_coverage() {
        // C4 = /Security//* covers C1 and C2 but also C3.
        let c4 = lp("/Security//*");
        assert!(covers(&c4, &lp("/Security/Symbol")));
        assert!(covers(&c4, &lp("/Security/SecInfo/*/Sector")));
        assert!(covers(&c4, &lp("/Security/Yield")));
        assert!(!covers(&c4, &lp("/Order/Price")));
    }

    #[test]
    fn self_coverage_is_reflexive() {
        for s in ["/a/b", "/a//b", "/a/*/b", "//*"] {
            let p = lp(s);
            assert!(covers(&p, &p), "{s} must cover itself");
        }
    }

    #[test]
    fn wildcard_vs_descendant_distinction() {
        // /a/* matches exactly depth-2 paths under a; /a//* matches any depth.
        assert!(covers(&lp("/a//*"), &lp("/a/*")));
        assert!(!covers(&lp("/a/*"), &lp("/a//*")));
        assert!(!covers(&lp("/a/*"), &lp("/a/b/c")));
        assert!(covers(&lp("/a//*"), &lp("/a/b/c")));
    }

    #[test]
    fn descendant_name_coverage() {
        assert!(covers(&lp("//Sector"), &lp("/Security/SecInfo/*/Sector")));
        assert!(!covers(&lp("/Security/Sector"), &lp("//Sector")));
        // /a//d covers /a/b/d and /a/d
        assert!(covers(&lp("/a//d"), &lp("/a/b/d")));
        assert!(covers(&lp("/a//d"), &lp("/a/d")));
        assert!(!covers(&lp("/a//d"), &lp("/b/d")));
    }

    #[test]
    fn equivalence_of_rule0_rewrites() {
        // /a/*/b is strictly contained in /a//b (not equivalent).
        assert!(covers(&lp("/a//b"), &lp("/a/*/b")));
        assert!(!covers(&lp("/a/*/b"), &lp("/a//b")));
        assert!(equivalent(&lp("/a//b"), &lp("/a//b")));
    }

    #[test]
    fn incomparable_patterns() {
        assert!(!covers(&lp("/a/b"), &lp("/a/c")));
        assert!(!covers(&lp("/a/c"), &lp("/a/b")));
        // /a/*/c vs /a/b//c overlap but neither contains the other.
        assert!(!covers(&lp("/a/*/c"), &lp("/a/b//c")));
        assert!(!covers(&lp("/a/b//c"), &lp("/a/*/c")));
    }

    #[test]
    fn fresh_label_soundness() {
        // //x ⊆ //* even though * mentions no names.
        assert!(covers(&lp("//*"), &lp("//x")));
        // /a/* does NOT cover /a/b/c (length mismatch via fresh letters).
        assert!(!covers(&lp("/a/*"), &lp("/a//c")));
    }

    /// The pattern pool the fast-path property tests range over: mixes
    /// child/descendant axes, wildcards, shared and disjoint names.
    const POOL: [&str; 14] = [
        "/a/b/d", "/a//d", "/a/*", "/a//*", "//d", "/a/d", "/a/b//c", "/a/*/c", "//*", "/a/b",
        "//c", "/x/y", "/a/b/c/d", "//a//b",
    ];

    /// Property (tentpole fast path): the mask-based reject is sound — it
    /// never fires on a pair the full NFA search would accept. Together
    /// with the identity fast path (reflexivity, pinned above) this gives
    /// `covers ≡ covers_full` on every pair in the pool.
    #[test]
    fn mask_reject_never_rejects_true_containment() {
        for g in &POOL {
            for s in &POOL {
                let (gp, sp) = (lp(g), lp(s));
                let full = covers_full(&gp, &sp);
                if mask_rejects(&gp, &sp) {
                    assert!(!full, "mask rejected {g} ⊇ {s}, but containment holds");
                }
                assert_eq!(
                    covers(&gp, &sp),
                    full,
                    "fast covers diverged from covers_full on ({g}, {s})"
                );
            }
        }
    }

    /// The cache returns exactly what plain `covers` returns, answers
    /// repeats from the memo table, and counts fast rejects.
    #[test]
    fn cover_cache_matches_plain_covers_and_counts() {
        let cache = CoverCache::new();
        for g in &POOL {
            for s in &POOL {
                let (gp, sp) = (lp(g), lp(s));
                assert_eq!(
                    cache.covers(&gp, &sp),
                    covers(&gp, &sp),
                    "cache verdict diverged on ({g}, {s})"
                );
            }
        }
        let first = cache.stats();
        assert_eq!(first.entries, (POOL.len() * POOL.len()) as u64);
        assert_eq!(first.hits, 0, "first pass has no repeats");
        assert!(first.fast_rejects > 0, "pool contains disjoint-name pairs");
        // Second pass: all hits, no new entries, no new fast rejects.
        for g in &POOL {
            for s in &POOL {
                let (gp, sp) = (lp(g), lp(s));
                assert_eq!(cache.covers(&gp, &sp), covers(&gp, &sp));
            }
        }
        let second = cache.stats();
        assert_eq!(second.entries, first.entries);
        assert_eq!(second.fast_rejects, first.fast_rejects);
        assert_eq!(second.hits, (POOL.len() * POOL.len()) as u64);
    }

    #[test]
    fn cover_cache_handles_long_path_guard() {
        // Paths at/above the 63-step guard take the equality fallback in
        // both the plain and cached functions.
        let long = LinearPath::from_labels((0..70).map(|_| "n").collect::<Vec<_>>());
        let short = lp("/n");
        let cache = CoverCache::new();
        assert!(cache.covers(&long, &long));
        assert!(!cache.covers(&long, &short));
        assert!(!cache.covers(&short, &long));
        assert_eq!(cache.covers(&long, &long), covers(&long, &long));
        assert_eq!(cache.covers(&long, &short), covers(&long, &short));
        assert_eq!(cache.covers(&short, &long), covers(&short, &long));
    }

    #[test]
    fn matcher_agrees_with_pattern_on_document_paths() {
        let mut vocab = Vocabulary::new();
        let mut b = DocBuilder::new(&mut vocab, "Security");
        b.leaf("Symbol", "IBM");
        b.begin("SecInfo");
        b.begin("StockInfo");
        b.leaf("Sector", "Tech");
        b.end();
        b.end();
        b.leaf("Yield", "4.5");
        let _doc = b.finish();

        let pattern = lp("/Security/SecInfo/*/Sector");
        let m = PathMatcher::new(&pattern, &vocab);
        let ids = m.matching_path_ids(&vocab);
        assert_eq!(ids.len(), 1);
        assert_eq!(
            vocab.path_string(ids[0]),
            "/Security/SecInfo/StockInfo/Sector"
        );

        let all = PathMatcher::new(&LinearPath::universal(), &vocab).matching_path_ids(&vocab);
        assert_eq!(all.len(), vocab.paths.len());
    }

    /// Property (soundness of relevance pruning at the containment layer):
    /// over a generated workload, `covers(g, s)` implies the relevance
    /// bitset of `g` is a superset of `s`'s — anything a specific pattern
    /// can serve, its generalization can serve too. Follows from
    /// transitivity of language inclusion; this pins it end-to-end through
    /// [`RelevanceMatrix`].
    #[test]
    fn relevance_of_general_pattern_is_superset_of_specific() {
        // Deterministic splitmix64 so the "generated workload" is stable.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as usize
        };
        let pool = [
            "/a/b/d", "/a//d", "/a/*", "/a//*", "//d", "/a/d", "/a/b//c", "/a/*/c", "//*", "/a/b",
            "//c", "/x/y",
        ];
        let kinds = [Some(ValueKind::Str), Some(ValueKind::Num), None];
        let colls = ["C1", "C2"];
        // 40 random statements, 1–3 targets each.
        let mut sigs = Vec::new();
        for _ in 0..40 {
            let collection = colls[next() % colls.len()].to_string();
            let n = 1 + next() % 3;
            let targets = (0..n)
                .map(|_| (lp(pool[next() % pool.len()]), kinds[next() % kinds.len()]))
                .collect();
            sigs.push(StatementSignature {
                collection,
                targets,
            });
        }
        let m = RelevanceMatrix::new(sigs);
        assert_eq!(m.len(), 40);
        for g in &pool {
            for s in &pool {
                let (gp, sp) = (lp(g), lp(s));
                if !covers(&gp, &sp) {
                    continue;
                }
                for coll in &colls {
                    for kind in [ValueKind::Str, ValueKind::Num] {
                        let rg: std::collections::HashSet<usize> =
                            m.relevant_statements(coll, &gp, kind).into_iter().collect();
                        for si in m.relevant_statements(coll, &sp, kind) {
                            assert!(
                                rg.contains(&si),
                                "{g} covers {s} but relevance({g}) misses statement {si}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The cached relevance rows are identical to the uncached ones for
    /// every (collection, pattern, kind) probe over a generated workload.
    #[test]
    fn cached_relevance_rows_match_uncached() {
        let mut state = 0xD37Eu64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as usize
        };
        let kinds = [Some(ValueKind::Str), Some(ValueKind::Num), None];
        let colls = ["C1", "C2"];
        let mut sigs = Vec::new();
        for _ in 0..30 {
            let collection = colls[next() % colls.len()].to_string();
            let n = 1 + next() % 3;
            let targets = (0..n)
                .map(|_| (lp(POOL[next() % POOL.len()]), kinds[next() % kinds.len()]))
                .collect();
            sigs.push(StatementSignature {
                collection,
                targets,
            });
        }
        let m = RelevanceMatrix::new(sigs);
        let cache = CoverCache::new();
        for p in &POOL {
            let pat = lp(p);
            for coll in &colls {
                for kind in [ValueKind::Str, ValueKind::Num] {
                    assert_eq!(
                        m.relevant_statements_cached(coll, &pat, kind, &cache),
                        m.relevant_statements(coll, &pat, kind),
                        "cached relevance diverged for {p} on {coll}/{kind:?}"
                    );
                }
            }
        }
        assert!(cache.stats().hits > 0, "repeat probes should hit the memo");
    }

    /// A matrix grown one statement at a time answers like one built whole,
    /// and a row asked `from` an old length is exactly what the full row
    /// gained since — what lets an append-only workload extend candidate
    /// rows instead of rebuilding them.
    #[test]
    fn grown_rows_are_the_tail_of_full_rows() {
        let mut state = 0x6A0Eu64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as usize
        };
        let kinds = [Some(ValueKind::Str), Some(ValueKind::Num), None];
        let sigs: Vec<StatementSignature> = (0..30)
            .map(|_| StatementSignature {
                collection: ["C1", "C2"][next() % 2].to_string(),
                targets: (0..1 + next() % 3)
                    .map(|_| (lp(POOL[next() % POOL.len()]), kinds[next() % kinds.len()]))
                    .collect(),
            })
            .collect();
        let whole = RelevanceMatrix::new(sigs.clone());
        let mut grown = RelevanceMatrix::default();
        let cache = CoverCache::new();
        for (at, sig) in sigs.iter().enumerate() {
            grown.push(sig.clone());
            for p in &POOL {
                let pat = lp(p);
                let full = whole.relevant_statements("C1", &pat, ValueKind::Str);
                let upto: Vec<usize> = full.iter().copied().filter(|&si| si <= at).collect();
                assert_eq!(grown.relevant_statements("C1", &pat, ValueKind::Str), upto);
                for cache in [None, Some(&cache)] {
                    let tail: Vec<usize> = upto.iter().copied().filter(|&si| si == at).collect();
                    assert_eq!(
                        grown.relevant_from(at, "C1", &pat, ValueKind::Str, cache),
                        tail,
                        "{p} from {at}"
                    );
                }
            }
        }
    }

    /// Grouping statements by signature changes no row: for every probe,
    /// with and without the cover cache, the matrix returns exactly the
    /// statements whose own signature admits the candidate, ascending —
    /// what one `admits` call per statement returned before signatures
    /// were shared.
    #[test]
    fn rows_fanned_out_from_distinct_signatures_equal_per_statement_rows() {
        let mut state = 0x51C5u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as usize
        };
        let kinds = [Some(ValueKind::Str), Some(ValueKind::Num), None];
        let colls = ["C1", "C2"];
        // A template-shaped workload: 400 statements over 14 signatures,
        // one of them an insert's (no targets).
        let mut shapes = vec![StatementSignature {
            collection: "C1".to_string(),
            targets: Vec::new(),
        }];
        while shapes.len() < 14 {
            let collection = colls[next() % colls.len()].to_string();
            let targets = (0..1 + next() % 3)
                .map(|_| (lp(POOL[next() % POOL.len()]), kinds[next() % kinds.len()]))
                .collect();
            shapes.push(StatementSignature {
                collection,
                targets,
            });
        }
        let sigs: Vec<StatementSignature> = (0..400)
            .map(|_| shapes[next() % shapes.len()].clone())
            .collect();
        let m = RelevanceMatrix::new(sigs.clone());
        assert_eq!(m.len(), 400);
        let targets_of_all_shapes: usize = shapes.iter().map(|sig| sig.targets.len()).sum();
        let mut admitted = 0;
        for p in &POOL {
            let pat = lp(p);
            for coll in &colls {
                for kind in [ValueKind::Str, ValueKind::Num] {
                    let cache = CoverCache::new();
                    let want: Vec<usize> = sigs
                        .iter()
                        .enumerate()
                        .filter(|(_, sig)| sig.admits(coll, &pat, kind))
                        .map(|(si, _)| si)
                        .collect();
                    assert_eq!(m.relevant_statements(coll, &pat, kind), want, "{p}");
                    assert_eq!(
                        m.relevant_statements_cached(coll, &pat, kind, &cache),
                        want,
                        "{p} through the cover cache"
                    );
                    // One row asks each distinct signature at most once,
                    // however many statements carry it.
                    let asked = cache.stats().hits + cache.stats().entries;
                    assert!(asked as usize <= targets_of_all_shapes, "{p}: {asked}");
                    admitted += want.len();
                }
            }
        }
        assert!(admitted > 400, "the probes must admit statements");
    }

    #[test]
    fn signature_admits_respects_kind_and_collection() {
        let sig = StatementSignature {
            collection: "SDOC".to_string(),
            targets: vec![
                (lp("/Security/Symbol"), Some(ValueKind::Str)),
                (lp("/Security/Names"), None), // existence probe: any kind
            ],
        };
        // Kind must match for comparison targets.
        assert!(sig.admits("SDOC", &lp("/Security/Symbol"), ValueKind::Str));
        assert!(!sig.admits("SDOC", &lp("/Security/Symbol"), ValueKind::Num));
        // Existence targets admit both kinds.
        assert!(sig.admits("SDOC", &lp("/Security/Names"), ValueKind::Str));
        assert!(sig.admits("SDOC", &lp("/Security/Names"), ValueKind::Num));
        // A general pattern covering a target is relevant.
        assert!(sig.admits("SDOC", &lp("/Security//*"), ValueKind::Str));
        // Wrong collection or unrelated pattern is not.
        assert!(!sig.admits("ODOC", &lp("/Security/Symbol"), ValueKind::Str));
        assert!(!sig.admits("SDOC", &lp("/Order/Price"), ValueKind::Str));
        // Insert-style empty signature admits nothing.
        let insert = StatementSignature {
            collection: "SDOC".to_string(),
            targets: Vec::new(),
        };
        assert!(!insert.admits("SDOC", &lp("//*"), ValueKind::Str));
    }

    #[test]
    fn matcher_with_unknown_name_matches_nothing() {
        let mut vocab = Vocabulary::new();
        let mut b = DocBuilder::new(&mut vocab, "a");
        b.leaf("b", "1");
        let _ = b.finish();
        let m = PathMatcher::new(&lp("/a/zzz"), &vocab);
        assert!(m.matching_path_ids(&vocab).is_empty());
    }

    #[test]
    fn coverage_implies_matching_superset_on_vocab() {
        // Semantic check: if covers(g, s) then every path id matched by s is
        // matched by g in a concrete vocabulary.
        let mut vocab = Vocabulary::new();
        let mut b = DocBuilder::new(&mut vocab, "a");
        b.begin("b");
        b.leaf("d", "1");
        b.end();
        b.begin("d");
        b.leaf("b", "2");
        b.end();
        b.leaf("d", "3");
        let _ = b.finish();
        let pats = ["/a/b/d", "/a//d", "/a/*", "/a//*", "//d", "/a/d"];
        for g in &pats {
            for s in &pats {
                let (gp, sp) = (lp(g), lp(s));
                if covers(&gp, &sp) {
                    let gm: std::collections::HashSet<_> = PathMatcher::new(&gp, &vocab)
                        .matching_path_ids(&vocab)
                        .into_iter()
                        .collect();
                    for id in PathMatcher::new(&sp, &vocab).matching_path_ids(&vocab) {
                        assert!(
                            gm.contains(&id),
                            "{g} covers {s} but misses {:?}",
                            vocab.path_string(id)
                        );
                    }
                }
            }
        }
    }
}
