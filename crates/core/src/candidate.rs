//! Candidate indexes and the candidate set.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use xia_xpath::{LinearPath, ValueKind};

/// Identifier of a candidate within a [`CandidateSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CandId(pub u32);

impl CandId {
    /// Raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of workload-statement indices, stored as a bitmap. A candidate's
/// relevance row — the statements whose plans could consult it — is one;
/// the paper's *affected set* of a configuration (Section VI-C) is the
/// union of its members' rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StmtSet {
    words: Vec<u64>,
}

impl StmtSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a statement index.
    pub fn insert(&mut self, idx: usize) {
        let w = idx / 64;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (idx % 64);
    }

    /// The bitmap's words, lowest statements first.
    #[cfg(test)]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Empties the set, keeping its storage.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Membership test.
    pub fn contains(&self, idx: usize) -> bool {
        self.words
            .get(idx / 64)
            .is_some_and(|w| w & (1 << (idx % 64)) != 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &StmtSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
    }

    /// Whether the intersection is non-empty.
    pub fn overlaps(&self, other: &StmtSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates member indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        ones(self.words.iter().copied())
    }

    /// Whether `other` is a subset of `self`.
    pub fn is_superset(&self, other: &StmtSet) -> bool {
        for (i, &b) in other.words.iter().enumerate() {
            let a = self.words.get(i).copied().unwrap_or(0);
            if b & !a != 0 {
                return false;
            }
        }
        true
    }
}

/// The set bits of a bitmap given word by word, lowest first, as bit
/// indices in ascending order.
pub(crate) fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(wi, w)| {
        // Lowest set bit first, cleared as it is yielded.
        let mut rest = w;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                wi * 64 + b
            })
        })
    })
}

/// How a candidate came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandOrigin {
    /// Enumerated by the optimizer for a workload statement.
    Basic,
    /// Produced by the generalization algorithm.
    Generalized,
}

/// A candidate index.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Id within the candidate set.
    pub id: CandId,
    /// Collection (XML column) the index would be created on, shared by
    /// every candidate of the set on that collection (and by the journal
    /// events that name it).
    pub collection: Arc<str>,
    /// The linear XPath index pattern.
    pub pattern: LinearPath,
    /// Key type.
    pub kind: ValueKind,
    /// Basic or generalized.
    pub origin: CandOrigin,
    /// Estimated size in bytes (the knapsack weight).
    pub size: u64,
    /// DAG children: the candidates this one directly generalizes.
    pub children: Vec<CandId>,
    /// DAG parents: generalizations of this candidate.
    pub parents: Vec<CandId>,
    /// The pattern as text, rendered by the first journal event that
    /// names the candidate and shared by every later one.
    rendered: OnceLock<Arc<str>>,
}

impl Candidate {
    /// The pattern as text, shared: rendered on the first call, a
    /// reference count on every later one. Only journal events ask, so
    /// a run with the journal off never renders.
    pub fn pattern_text(&self) -> Arc<str> {
        thread_local! {
            /// Reused by every rendering on this thread, so a pattern's
            /// text costs one allocation: the shared copy.
            static TEXT: RefCell<String> = const { RefCell::new(String::new()) };
        }
        (self.rendered)
            .get_or_init(|| {
                TEXT.with_borrow_mut(|text| {
                    text.clear();
                    self.pattern.push_to(text);
                    Arc::from(text.as_str())
                })
            })
            .clone()
    }

    /// Whether the candidate pattern is general (has `//` or `*`).
    pub fn is_general_pattern(&self) -> bool {
        self.pattern.is_general()
    }
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {} size={}",
            self.collection,
            self.pattern,
            self.kind,
            match self.origin {
                CandOrigin::Basic => "basic",
                CandOrigin::Generalized => "general",
            },
            self.size
        )
    }
}

/// The candidate set: basic candidates from enumeration plus generalized
/// candidates, with the generalization DAG.
#[derive(Debug, Default, Clone)]
pub struct CandidateSet {
    cands: Vec<Candidate>,
    /// Candidates by pattern; the few that share one differ in collection
    /// or kind. Keyed structurally (hashing rides the precomputed path
    /// signature) and looked up borrowed.
    by_pattern: HashMap<LinearPath, Vec<CandId>>,
    /// The collections of the candidates, in first-use order: each
    /// candidate shares its collection's name.
    collections: Vec<Arc<str>>,
}

impl CandidateSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a candidate or returns the existing identical one (whose
    /// origin becomes `Basic` if either was basic).
    /// The pattern is copied only into a new candidate.
    pub fn insert(
        &mut self,
        collection: &str,
        pattern: &LinearPath,
        kind: ValueKind,
        origin: CandOrigin,
    ) -> CandId {
        if let Some(id) = self.lookup(collection, pattern, kind) {
            if origin == CandOrigin::Basic {
                self.cands[id.index()].origin = CandOrigin::Basic;
            }
            return id;
        }
        let id = CandId(self.cands.len() as u32);
        match self.by_pattern.get_mut(pattern) {
            Some(ids) => ids.push(id),
            None => {
                self.by_pattern.insert(pattern.clone(), vec![id]);
            }
        }
        let collection = match self.collections.iter().find(|c| ***c == *collection) {
            Some(shared) => Arc::clone(shared),
            None => {
                let name: Arc<str> = collection.into();
                self.collections.push(Arc::clone(&name));
                name
            }
        };
        self.cands.push(Candidate {
            id,
            collection,
            pattern: pattern.clone(),
            kind,
            origin,
            size: 0,
            children: Vec::new(),
            parents: Vec::new(),
            rendered: OnceLock::new(),
        });
        id
    }

    /// Looks up a candidate by key.
    pub fn lookup(
        &self,
        collection: &str,
        pattern: &LinearPath,
        kind: ValueKind,
    ) -> Option<CandId> {
        self.by_pattern.get(pattern)?.iter().copied().find(|&id| {
            let c = &self.cands[id.index()];
            c.kind == kind && *c.collection == *collection
        })
    }

    /// Borrows a candidate.
    pub fn get(&self, id: CandId) -> &Candidate {
        &self.cands[id.index()]
    }

    /// Mutably borrows a candidate.
    pub fn get_mut(&mut self, id: CandId) -> &mut Candidate {
        &mut self.cands[id.index()]
    }

    /// Adds a DAG edge `parent → child` (idempotent).
    pub fn add_edge(&mut self, parent: CandId, child: CandId) {
        if parent == child {
            return;
        }
        if !self.cands[parent.index()].children.contains(&child) {
            self.cands[parent.index()].children.push(child);
        }
        if !self.cands[child.index()].parents.contains(&parent) {
            self.cands[child.index()].parents.push(parent);
        }
    }

    /// All candidate ids.
    pub fn ids(&self) -> impl Iterator<Item = CandId> {
        (0..self.cands.len() as u32).map(CandId)
    }

    /// All candidates.
    pub fn iter(&self) -> impl Iterator<Item = &Candidate> {
        self.cands.iter()
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.cands.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.cands.is_empty()
    }

    /// Ids of basic candidates.
    pub fn basic_ids(&self) -> Vec<CandId> {
        self.cands
            .iter()
            .filter(|c| c.origin == CandOrigin::Basic)
            .map(|c| c.id)
            .collect()
    }

    /// Ids of generalized candidates.
    pub fn generalized_ids(&self) -> Vec<CandId> {
        self.cands
            .iter()
            .filter(|c| c.origin == CandOrigin::Generalized)
            .map(|c| c.id)
            .collect()
    }

    /// DAG roots: candidates with no parents.
    pub fn roots(&self) -> Vec<CandId> {
        self.cands
            .iter()
            .filter(|c| c.parents.is_empty())
            .map(|c| c.id)
            .collect()
    }

    /// Total estimated size of a configuration.
    pub fn config_size(&self, config: &[CandId]) -> u64 {
        config.iter().map(|&id| self.get(id).size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_xpath::parse_linear_path;

    fn lp(s: &str) -> LinearPath {
        parse_linear_path(s).unwrap()
    }

    #[test]
    fn stmtset_basic_ops() {
        let mut a = StmtSet::new();
        a.insert(3);
        a.insert(70);
        assert!(a.contains(3));
        assert!(a.contains(70));
        assert!(!a.contains(4));
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 70]);
        let mut b = StmtSet::new();
        b.insert(70);
        assert!(a.overlaps(&b));
        assert!(a.is_superset(&b));
        assert!(!b.is_superset(&a));
        b.insert(5);
        assert!(!a.is_superset(&b));
        a.union_with(&b);
        assert!(a.contains(5));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn stmtset_empty_properties() {
        let e = StmtSet::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let mut a = StmtSet::new();
        a.insert(0);
        assert!(!a.overlaps(&e));
        assert!(a.is_superset(&e));
    }

    #[test]
    fn insert_dedups_by_key() {
        let mut set = CandidateSet::new();
        let a = set.insert(
            "SDOC",
            &lp("/Security/Symbol"),
            ValueKind::Str,
            CandOrigin::Basic,
        );
        let b = set.insert(
            "SDOC",
            &lp("/Security/Symbol"),
            ValueKind::Str,
            CandOrigin::Generalized,
        );
        assert_eq!(a, b);
        assert_eq!(set.len(), 1);
        // Same pattern, different kind → different candidate.
        let c = set.insert(
            "SDOC",
            &lp("/Security/Symbol"),
            ValueKind::Num,
            CandOrigin::Basic,
        );
        assert_ne!(a, c);
        // Same pattern, different collection → different candidate.
        let d = set.insert(
            "ODOC",
            &lp("/Security/Symbol"),
            ValueKind::Str,
            CandOrigin::Basic,
        );
        assert_ne!(a, d);
    }

    #[test]
    fn basic_origin_wins_on_merge() {
        let mut set = CandidateSet::new();
        let a = set.insert("S", &lp("/a/b"), ValueKind::Str, CandOrigin::Generalized);
        assert_eq!(set.get(a).origin, CandOrigin::Generalized);
        set.insert("S", &lp("/a/b"), ValueKind::Str, CandOrigin::Basic);
        assert_eq!(set.get(a).origin, CandOrigin::Basic);
    }

    #[test]
    fn dag_edges_and_roots() {
        let mut set = CandidateSet::new();
        let child1 = set.insert("S", &lp("/a/b"), ValueKind::Str, CandOrigin::Basic);
        let child2 = set.insert("S", &lp("/a/c"), ValueKind::Str, CandOrigin::Basic);
        let parent = set.insert("S", &lp("/a/*"), ValueKind::Str, CandOrigin::Generalized);
        set.add_edge(parent, child1);
        set.add_edge(parent, child2);
        set.add_edge(parent, child1); // idempotent
        assert_eq!(set.get(parent).children.len(), 2);
        assert_eq!(set.get(child1).parents, vec![parent]);
        assert_eq!(set.roots(), vec![parent]);
        assert_eq!(set.basic_ids(), vec![child1, child2]);
        assert_eq!(set.generalized_ids(), vec![parent]);
    }

    #[test]
    fn config_size_sums() {
        let mut set = CandidateSet::new();
        let a = set.insert("S", &lp("/a/b"), ValueKind::Str, CandOrigin::Basic);
        let b = set.insert("S", &lp("/a/c"), ValueKind::Str, CandOrigin::Basic);
        set.get_mut(a).size = 100;
        set.get_mut(b).size = 250;
        assert_eq!(set.config_size(&[a, b]), 350);
        assert_eq!(set.config_size(&[]), 0);
    }
}
