//! Linear XPath path expressions — the paper's index patterns.
//!
//! A linear path is a sequence of steps, each with a child (`/`) or
//! descendant (`//`) axis and a name test that is either a concrete label or
//! the wildcard `*`. Examples from the paper's Table I:
//! `/Security/Symbol`, `/Security/SecInfo/*/Sector`, `/Security//*`.
//!
//! Concrete names are interned ([`crate::intern::Sym`]), so steps are
//! `Copy`, comparisons are integer-sized, and each path exposes a
//! precomputed-in-one-pass 64-bit [`LinearPath::signature`] plus a
//! bloom-style [`LinearPath::name_mask`] used by the containment layer's
//! fast reject.

use crate::intern::{intern, Sym};
use std::cmp::Ordering;
use std::fmt;

/// Navigation axis of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// `/` — immediate child.
    Child,
    /// `//` — any descendant.
    Descendant,
}

/// Name test of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NameTest {
    /// A concrete element/attribute name (interned).
    Name(Sym),
    /// The wildcard `*`.
    Wildcard,
}

impl NameTest {
    /// Builds a concrete name test, interning the name.
    pub fn name_of(name: &str) -> Self {
        NameTest::Name(intern(name))
    }

    /// Whether this test accepts the given label.
    pub fn accepts(&self, label: &str) -> bool {
        match self {
            NameTest::Name(n) => n.as_str() == label,
            NameTest::Wildcard => true,
        }
    }

    /// The concrete name, if not a wildcard.
    pub fn name(&self) -> Option<&'static str> {
        match self {
            NameTest::Name(n) => Some(n.as_str()),
            NameTest::Wildcard => None,
        }
    }

    /// The interned symbol, if not a wildcard.
    pub fn sym(&self) -> Option<Sym> {
        match self {
            NameTest::Name(n) => Some(*n),
            NameTest::Wildcard => None,
        }
    }
}

// Ordering is by the *resolved text* (with `Name < Wildcard`, the
// declaration order), not by symbol id: symbol ids reflect interning
// order, which varies run to run, while every canonically sorted output
// (generalization results, candidate orderings) must match the ordering
// the pre-interning `Name(String)` derive produced byte for byte.
impl Ord for NameTest {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (NameTest::Name(a), NameTest::Name(b)) => a.as_str().cmp(b.as_str()),
            (NameTest::Name(_), NameTest::Wildcard) => Ordering::Less,
            (NameTest::Wildcard, NameTest::Name(_)) => Ordering::Greater,
            (NameTest::Wildcard, NameTest::Wildcard) => Ordering::Equal,
        }
    }
}

impl PartialOrd for NameTest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One step of a linear path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinearStep {
    /// `/` or `//`.
    pub axis: Axis,
    /// Label or `*`.
    pub test: NameTest,
}

impl LinearStep {
    /// Child-axis step with a concrete name.
    pub fn child(name: &str) -> Self {
        Self {
            axis: Axis::Child,
            test: NameTest::name_of(name),
        }
    }

    /// Descendant-axis step with a concrete name.
    pub fn descendant(name: &str) -> Self {
        Self {
            axis: Axis::Descendant,
            test: NameTest::name_of(name),
        }
    }

    /// Child-axis wildcard step (`/*`).
    pub fn child_wild() -> Self {
        Self {
            axis: Axis::Child,
            test: NameTest::Wildcard,
        }
    }

    /// Descendant-axis wildcard step (`//*`).
    pub fn descendant_wild() -> Self {
        Self {
            axis: Axis::Descendant,
            test: NameTest::Wildcard,
        }
    }
}

/// A linear XPath path expression without predicates: an index pattern.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct LinearPath {
    /// The steps, in order from the root.
    pub steps: Vec<LinearStep>,
}

// Hashing feeds the 64-bit path signature instead of walking the steps
// again, so every hash-based dedup of paths (generalization results, pair
// memos, candidate keys) runs off the same precomputable fingerprint.
// Equal paths produce equal signatures by construction.
impl std::hash::Hash for LinearPath {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.signature());
    }
}

impl LinearPath {
    /// Creates a path from steps.
    pub fn new(steps: Vec<LinearStep>) -> Self {
        Self { steps }
    }

    /// The universal index pattern `//*` that (virtually) indexes every
    /// element — the paper's Enumerate-Indexes virtual index.
    pub fn universal() -> Self {
        Self {
            steps: vec![LinearStep::descendant_wild()],
        }
    }

    /// Builds a child-axis-only path from concrete labels.
    pub fn from_labels<'a>(labels: impl IntoIterator<Item = &'a str>) -> Self {
        Self {
            steps: labels.into_iter().map(LinearStep::child).collect(),
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the path has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The final (target) step — the nodes this pattern indexes.
    pub fn last_step(&self) -> Option<&LinearStep> {
        self.steps.last()
    }

    /// Appends another relative linear path, returning the concatenation.
    pub fn join(&self, rel: &[LinearStep]) -> LinearPath {
        let mut steps = self.steps.clone();
        steps.extend(rel.iter().copied());
        LinearPath { steps }
    }

    /// Whether the path uses only child axes and concrete names (a fully
    /// *specific* pattern that matches exactly one rooted label path).
    pub fn is_specific(&self) -> bool {
        self.steps
            .iter()
            .all(|s| s.axis == Axis::Child && s.test != NameTest::Wildcard)
    }

    /// Whether any step uses `//` or `*` (a *general* pattern).
    pub fn is_general(&self) -> bool {
        !self.is_specific()
    }

    /// Matches this pattern against a concrete rooted label sequence.
    ///
    /// Dynamic programming over (steps × labels); the pattern denotes the
    /// regular expression obtained by mapping `/l` to `l`, `//l` to `Σ* l`,
    /// `/*` to `Σ` and `//*` to `Σ* Σ`.
    pub fn matches_labels<S: AsRef<str>>(&self, labels: &[S]) -> bool {
        // cur[j] = the first j labels can be consumed by the steps so far.
        let n = labels.len();
        let mut cur = vec![false; n + 1];
        cur[0] = true;
        let mut next = vec![false; n + 1];
        for step in &self.steps {
            next.iter_mut().for_each(|b| *b = false);
            match step.axis {
                Axis::Child => {
                    for j in 1..=n {
                        next[j] = cur[j - 1] && step.test.accepts(labels[j - 1].as_ref());
                    }
                }
                Axis::Descendant => {
                    // prefix-OR of cur gives "reachable with Σ*".
                    let mut reach = false;
                    for j in 1..=n {
                        reach |= cur[j - 1];
                        next[j] = reach && step.test.accepts(labels[j - 1].as_ref());
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur[n]
    }

    /// Applies the paper's Rule 0 rewrite: any *middle* `/*` (or `//*`) step
    /// is removed and the following step's axis becomes `//`. E.g. both
    /// `/a/*/b` and `/a/*/*/b` rewrite to `/a//b`. The final step is never
    /// rewritten (it is the indexing target).
    pub fn rewrite_rule0(&self) -> LinearPath {
        let mut steps: Vec<LinearStep> = Vec::with_capacity(self.steps.len());
        let mut pending_descendant = false;
        for (i, step) in self.steps.iter().enumerate() {
            let is_last = i + 1 == self.steps.len();
            if !is_last && step.test == NameTest::Wildcard {
                // Drop the middle wildcard; the next kept step becomes `//`.
                pending_descendant = true;
                continue;
            }
            let mut s = *step;
            if pending_descendant || s.axis == Axis::Descendant {
                s.axis = Axis::Descendant;
            }
            steps.push(s);
            pending_descendant = false;
        }
        LinearPath { steps }
    }

    /// Iterates the concrete names used in the pattern, in step order,
    /// without allocating (wildcards are skipped; repeats are not deduped).
    pub fn names_iter(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.steps.iter().filter_map(|s| s.test.name())
    }

    /// Iterates the interned symbols of the concrete names, in step order.
    pub fn syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.steps.iter().filter_map(|s| s.test.sym())
    }

    /// A 64-bit structural fingerprint of the path: a splitmix-style fold
    /// over each step's axis and name symbol. Equal paths always produce
    /// equal signatures; distinct paths collide with probability ~2⁻⁶⁴.
    /// One O(len) pass, no allocation — this is what [`LinearPath`]'s
    /// `Hash` feeds into hash-based dedup.
    pub fn signature(&self) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ (self.steps.len() as u64);
        for step in &self.steps {
            let code = match step.test {
                // Ids start at 0, so offset by 2 to keep the wildcard and
                // axis codes out of the symbol range.
                NameTest::Name(s) => u64::from(s.id()) + 2,
                NameTest::Wildcard => 1,
            };
            let axis = match step.axis {
                Axis::Child => 0u64,
                Axis::Descendant => 1u64,
            };
            let mut z = h ^ (code << 1 | axis).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h = z ^ (z >> 31);
        }
        h
    }

    /// Bloom-style mask of the concrete names mentioned by the pattern:
    /// bit `sym.id() % 64` set per name, wildcards contribute nothing.
    /// Used by the containment fast reject — if `general` sets a bit that
    /// `specific` does not, `general` mentions a name `specific` never
    /// matches, so containment is impossible (see `contain`).
    pub fn name_mask(&self) -> u64 {
        self.syms().fold(0u64, |m, s| m | (1u64 << (s.id() % 64)))
    }
}

impl fmt::Display for LinearPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return f.write_str("/");
        }
        for step in &self.steps {
            f.write_str(match step.axis {
                Axis::Child => "/",
                Axis::Descendant => "//",
            })?;
            match &step.test {
                NameTest::Name(n) => f.write_str(n.as_str())?,
                NameTest::Wildcard => f.write_str("*")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_linear_path;

    fn lp(s: &str) -> LinearPath {
        parse_linear_path(s).expect("parse")
    }

    #[test]
    fn display_round_trips() {
        for s in ["/Security/Symbol", "/Security//*", "/a/*/b", "//Yield"] {
            assert_eq!(lp(s).to_string(), s);
        }
    }

    #[test]
    fn matches_child_axis_exactly() {
        let p = lp("/Security/Yield");
        assert!(p.matches_labels(&["Security", "Yield"]));
        assert!(!p.matches_labels(&["Security", "SecInfo", "Yield"]));
        assert!(!p.matches_labels(&["Security"]));
    }

    #[test]
    fn matches_descendant_axis_at_any_depth() {
        let p = lp("//Yield");
        assert!(p.matches_labels(&["Yield"]));
        assert!(p.matches_labels(&["Security", "Yield"]));
        assert!(p.matches_labels(&["a", "b", "c", "Yield"]));
        assert!(!p.matches_labels(&["Yield", "x"]));
    }

    #[test]
    fn matches_wildcards() {
        let p = lp("/Security/*/Sector");
        assert!(p.matches_labels(&["Security", "StockInfo", "Sector"]));
        assert!(!p.matches_labels(&["Security", "Sector"]));
        let u = LinearPath::universal();
        assert!(u.matches_labels(&["anything"]));
        assert!(u.matches_labels(&["a", "b", "c"]));
        assert!(!u.matches_labels::<&str>(&[]));
    }

    #[test]
    fn matches_mixed_descendant_and_child() {
        let p = lp("/Security//Sector");
        assert!(p.matches_labels(&["Security", "Sector"]));
        assert!(p.matches_labels(&["Security", "SecInfo", "StockInfo", "Sector"]));
        assert!(!p.matches_labels(&["Order", "Sector"]));
    }

    #[test]
    fn rewrite_rule0_examples_from_paper() {
        // Table II Rule 0: /a/*/b -> /a//b and /a/*/*/b -> /a//b.
        assert_eq!(lp("/a/*/b").rewrite_rule0().to_string(), "/a//b");
        assert_eq!(lp("/a/*/*/b").rewrite_rule0().to_string(), "/a//b");
        // Trailing wildcard is the target and is preserved: /Security/*/* -> /Security//*.
        assert_eq!(
            lp("/Security/*/*").rewrite_rule0().to_string(),
            "/Security//*"
        );
        // No middle wildcard: unchanged.
        assert_eq!(lp("/a/b/c").rewrite_rule0().to_string(), "/a/b/c");
    }

    #[test]
    fn rewrite_rule0_preserves_language_on_samples() {
        let cases = [
            (
                "/a/*/b",
                vec![vec!["a", "x", "b"], vec!["a", "x", "y", "b"]],
            ),
            ("/a/*/*/b", vec![vec!["a", "x", "y", "b"]]),
        ];
        for (pat, samples) in cases {
            let orig = lp(pat);
            let rewritten = orig.rewrite_rule0();
            for s in samples {
                if orig.matches_labels(&s) {
                    assert!(rewritten.matches_labels(&s), "{pat} lost {s:?}");
                }
            }
        }
    }

    #[test]
    fn specific_vs_general() {
        assert!(lp("/Security/Symbol").is_specific());
        assert!(!lp("/Security//*").is_specific());
        assert!(!lp("/Security/*/Sector").is_specific());
        assert!(lp("/Security//*").is_general());
    }

    #[test]
    fn join_concatenates() {
        let base = lp("/Security");
        let joined = base.join(&[LinearStep::child("SecInfo"), LinearStep::child_wild()]);
        assert_eq!(joined.to_string(), "/Security/SecInfo/*");
    }

    #[test]
    fn names_iter_walks_concrete_names_in_step_order() {
        let names: Vec<&str> = lp("/b/a//b/*").names_iter().collect();
        assert_eq!(names, vec!["b", "a", "b"]);
        assert_eq!(lp("//*").names_iter().count(), 0);
    }

    #[test]
    fn ordering_matches_name_text_not_symbol_id() {
        // Intern in reverse-lexicographic order so symbol ids disagree
        // with text order; Ord must still sort by text.
        let z = lp("/zzz_ord_probe");
        let a = lp("/aaa_ord_probe");
        assert!(a < z, "paths must order by name text");
        assert!(NameTest::name_of("aaa_ord_probe") < NameTest::name_of("zzz_ord_probe"));
        assert!(NameTest::name_of("zzz_ord_probe") < NameTest::Wildcard);
    }

    #[test]
    fn signature_distinguishes_structure() {
        // Equal paths → equal signature (also via separate parses).
        assert_eq!(lp("/a/b/c").signature(), lp("/a/b/c").signature());
        // Axis, name, and length changes all perturb it.
        let sigs = [
            lp("/a/b").signature(),
            lp("/a//b").signature(),
            lp("/a/c").signature(),
            lp("/a/b/c").signature(),
            lp("/a/*").signature(),
            lp("//a/b").signature(),
        ];
        let mut dedup = sigs.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sigs.len(), "signature collision: {sigs:?}");
    }

    #[test]
    fn name_mask_covers_mentioned_names_only() {
        let p = lp("/a/b//c/*");
        let mask = p.name_mask();
        for s in p.syms() {
            assert_ne!(mask & (1 << (s.id() % 64)), 0);
        }
        assert_eq!(lp("//*").name_mask(), 0, "wildcards contribute no bits");
        // Subpath masks are subsets.
        assert_eq!(lp("/a/b").name_mask() & !mask, 0);
    }

    #[test]
    fn empty_path_matches_only_empty() {
        let p = LinearPath::default();
        assert!(p.matches_labels::<&str>(&[]));
        assert!(!p.matches_labels(&["a"]));
    }
}
