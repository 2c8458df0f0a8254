//! Session-lifetime costing state.
//!
//! Everything a benefit evaluation computes that depends only on
//! (statistics snapshot, statement, candidate) — never on statement
//! frequencies, budgets or the run's controller — lives in a
//! [`CostingState`]: prepared statements, statement signatures and fault
//! salts, per-candidate relevance rows and derived virtual-index
//! definitions, baselines, and the unweighted `(class, projection) → cost`
//! table. A [`crate::benefit::BenefitEvaluator`] is the thin per-run view
//! over one.
//!
//! What is costed is a *costing class*, not a statement. A statement's
//! class is its cost-identity template ([`xia_xpath::template_key`]):
//! statements of one template have bit-identical costs under every
//! configuration and bit-identical fault verdicts (the fault salt is the
//! template fingerprint), so the state prepares, baselines and caches once
//! per class, and a costing one member paid for answers every other
//! member. What is per statement stays per statement — signatures,
//! relevance rows, fault salts, collections — and so does every sum.
//!
//! A one-shot run builds a state and drops it with the evaluator; a
//! [`crate::TuningSession`] keeps one next to its candidate set, so a
//! repeat `recommend` searches retained costs instead of recomputing them
//! (INUM-style reuse: what a what-if call computed stays valid for as long
//! as the statistics it was computed from). Both the workload and the
//! candidate set of a session are append-only, and the state is indexed
//! the same way — statement index, candidate id — so it is extended, never
//! rebuilt: the evaluator prepares and baselines the statements it has not
//! seen, gives new candidates their relevance rows and grows existing rows
//! by the new statements.
//!
//! Two things bound its validity, and the owner answers for both:
//!
//! * **The database.** Physical indexes and statistics change what the
//!   optimizer would cost, so the owner drops the state when it changes
//!   the database ([`crate::TuningSession::apply`]).
//! * **The visibility mask.** A `stats-unavailable` fault hides a
//!   collection's statistics for one phase; prepared statements, baselines
//!   and definitions are all "under this mask". The state remembers the
//!   mask it was built under and the evaluator starts it afresh when the
//!   run's mask differs.
//!
//! Injected `optimizer-cost` faults cannot leak into it: a fault verdict is
//! a pure function of (statement content, projection) and a tainted cost is
//! never stored, so every retained cost is the cost a fault-free optimizer
//! call returns.

use crate::candidate::{CandId, StmtSet};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use xia_optimizer::{PathStatsMemo, PreparedStatement};
use xia_storage::IndexDef;
use xia_workloads::Workload;
use xia_xpath::{template_fingerprint, write_template_key, RelevanceMatrix};

/// A slot no statement of the state has taken yet.
const UNPLACED: u32 = u32::MAX;

/// One costing class: the statements of one cost-identity template, and
/// what is computed once for all of them.
pub(crate) struct CostClass {
    /// The statement that opened the class, whose template key a
    /// fingerprint hit is confirmed against.
    pub(crate) opener: u32,
    /// How many statements belong to the class.
    pub(crate) members: u32,
    /// The prepared form of its statements when their collection is known
    /// and the mask leaves its statistics visible (`None` otherwise: those
    /// take the quarantine / stats-fallback paths).
    pub(crate) prepared: Option<PreparedStatement>,
    /// The baseline (no-candidate) cost, once the optimizer has answered
    /// cleanly. A faulted or unanswerable baseline stays `None` and is
    /// asked again by the next run.
    pub(crate) baseline: Option<f64>,
}

/// Hashes keys that are hashes already — template fingerprints, class
/// numbers and FNV projection hashes — or short runs of small ids (the
/// evaluator's sub-configuration memo keys), with one multiply per word
/// instead of SipHash.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(26) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

/// A map keyed by `(class, projection hash)`.
pub(crate) type ByProjection<V> = HashMap<(u32, u64), V, BuildHasherDefault<KeyHasher>>;

/// No further entry on a collision chain.
const END: u32 = u32::MAX;

/// One held costing: where its projection sits in the arena, its cost,
/// and the next entry filed under the same `(class, hash)`.
struct CostEntry {
    at: u32,
    len: u32,
    cost: f64,
    next: u32,
}

/// Every `(class, projection) → cost` costing the state holds. Keyed by
/// the class and the projection's FNV hash (the one its fault salt is
/// made from); each projection is stored once, in one arena, and a hit is
/// confirmed by comparing it, so two projections with one hash are chained
/// side by side and never answer for each other. Coordinator-only.
/// Tainted (fault/fallback) costs are never inserted.
#[derive(Default)]
pub(crate) struct CostTable {
    first: ByProjection<u32>,
    entries: Vec<CostEntry>,
    arena: Vec<CandId>,
}

impl CostTable {
    /// The entry holding `proj` under `(class, hash)`, if any.
    fn find(&self, class: u32, hash: u64, proj: &[CandId]) -> Option<usize> {
        let mut at = *self.first.get(&(class, hash))?;
        while at != END {
            let entry = &self.entries[at as usize];
            let held = &self.arena[entry.at as usize..(entry.at + entry.len) as usize];
            if held == proj {
                return Some(at as usize);
            }
            at = entry.next;
        }
        None
    }

    /// The cost held for `proj` (of hash `hash`) under `class`.
    pub(crate) fn get(&self, class: u32, hash: u64, proj: &[CandId]) -> Option<f64> {
        self.find(class, hash, proj).map(|at| self.entries[at].cost)
    }

    /// Holds `cost` for `proj` (of hash `hash`) under `class`; `true` when
    /// the costing is new (one held already is overwritten).
    fn insert(&mut self, class: u32, hash: u64, proj: &[CandId], cost: f64) -> bool {
        if let Some(at) = self.find(class, hash, proj) {
            self.entries[at].cost = cost;
            return false;
        }
        let id = u32::try_from(self.entries.len()).expect("fewer than 2^32 costings");
        let next = self.first.insert((class, hash), id).unwrap_or(END);
        self.entries.push(CostEntry {
            at: u32::try_from(self.arena.len()).expect("projections fit 2^32 members"),
            len: proj.len() as u32,
            cost,
            next,
        });
        self.arena.extend_from_slice(proj);
        true
    }
}

/// Retained costing state; see the module docs. Fields are crate-visible
/// because the evaluator is the one piece of code that reads and extends
/// them.
#[derive(Default)]
pub struct CostingState {
    /// The statistics-visibility mask everything below was computed under
    /// ([`xia_storage::StatsView::mask`]).
    pub(crate) mask: Vec<bool>,
    /// One signature per statement: what relevance rows are asked of.
    pub(crate) matrix: RelevanceMatrix,
    /// Per statement: its costing class (see the module docs), numbered in
    /// order of first member.
    pub(crate) class: Vec<u32>,
    /// Per class: what it holds (see [`CostClass`]).
    pub(crate) classes: Vec<CostClass>,
    /// Template fingerprint → the first class with that fingerprint. A hit
    /// is confirmed by comparing whole template keys; a statement whose
    /// fingerprint collides with another template's opens its own class,
    /// which this map does not file.
    pub(crate) class_of_fingerprint: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    /// Per workload slot ([`xia_workloads::Workload::slot`]): the first
    /// statement of that slot the state has seen (`u32::MAX`: none yet).
    /// A statement of a placed slot shares its statement, so it joins that
    /// statement's class without a template walk.
    pub(crate) slot_first: Vec<u32>,
    /// Content-derived fault salt per statement: the FNV-1a fingerprint
    /// of the statement's cost-identity template key. XORed into every
    /// fault-stream salt in place of the raw statement index, so an
    /// injected fault verdict is a pure function of *what* the statement
    /// is (and the projection being costed), never of where it sits in
    /// the workload — the invariant that keeps CoPhy workload compression
    /// lossless under fault injection, and retained costs valid under it.
    pub(crate) stmt_salts: Vec<u64>,
    /// Collections the statements touch, in first-use order; statements
    /// and path-statistics memos refer to them by position.
    pub(crate) colls: Vec<String>,
    /// Per statement: its collection's position in `colls`.
    pub(crate) stmt_coll: Vec<usize>,
    /// Per collection: the path statistics its prepared statements share,
    /// kept so statements observed later share them too.
    pub(crate) memos: Vec<PathStatsMemo>,
    /// Per-candidate relevance: the statements whose plans could possibly
    /// consult the candidate (derived from the statements' index-matching
    /// signatures — no optimizer calls).
    pub(crate) relevance: Vec<StmtSet>,
    /// Each candidate's virtual-index definition, derived from the visible
    /// statistics at first use and shared by every overlay and maintenance
    /// costing it takes part in. Outer `None`: not derived yet; inner
    /// `None`: the candidate's collection has no visible statistics.
    pub(crate) defs: Vec<Option<Option<Arc<IndexDef>>>>,
    /// The `(class, projection) → cost` costings held (see [`CostTable`]).
    pub(crate) costs: CostTable,
    /// Per-class costings held: clean baselines plus cached costs.
    pub(crate) costings: usize,
    /// Per-statement costings evaluators have asked of this state
    /// (baselines and planned what-if tasks) …
    pub(crate) asked: u64,
    /// … and how many of them it answered without an optimizer call: from
    /// what it held, or from a costing a statement of the same class made.
    pub(crate) served: u64,
}

impl CostingState {
    /// An empty state for runs under `mask`.
    pub(crate) fn under(mask: &[bool]) -> Self {
        Self {
            mask: mask.to_vec(),
            ..Self::default()
        }
    }

    /// Statements covered so far.
    pub fn statements(&self) -> usize {
        self.class.len()
    }

    /// Candidates covered so far.
    pub fn candidates(&self) -> usize {
        self.relevance.len()
    }

    /// Distinct costings held (clean baselines plus `(class, projection)`
    /// costs).
    pub fn costings(&self) -> usize {
        self.costings
    }

    /// `(asked, served)`: per-statement costings evaluators asked for over
    /// this state's life, and how many it answered without an optimizer
    /// call.
    pub fn hit_counts(&self) -> (u64, u64) {
        (self.asked, self.served)
    }

    /// Statement `si` of `workload`'s costing class, if the state has one
    /// for it, and the statement's fault salt. A statement of a slot the
    /// state has placed joins the class of that slot's first statement; any
    /// other one takes its template fingerprint from `fingerprint` when the
    /// caller knows it (a compressed workload's templates) and walks its
    /// template once for it otherwise, and a fingerprint hit is confirmed
    /// by writing both template keys into `keys` (reused, so a
    /// confirmation allocates nothing once they have grown).
    pub(crate) fn class_for(
        &mut self,
        workload: &Workload,
        si: usize,
        fingerprint: Option<u64>,
        keys: &mut [String; 2],
    ) -> (Option<u32>, u64) {
        let slot = workload.slot(si);
        if slot >= self.slot_first.len() {
            self.slot_first.resize(workload.slots(), UNPLACED);
        }
        let first = self.slot_first[slot];
        // Checked against this workload, so a state extended by another
        // workload over the same statements never joins two slots.
        if first != UNPLACED && workload.slot(first as usize) == slot {
            let first = first as usize;
            return (Some(self.class[first]), self.stmt_salts[first]);
        }
        self.slot_first[slot] = u32::try_from(si).expect("fewer than 2^32 statements");
        let statement = workload.entry(si).statement;
        let fingerprint = fingerprint.unwrap_or_else(|| template_fingerprint(statement));
        debug_assert_eq!(fingerprint, template_fingerprint(statement));
        let class = (self.class_of_fingerprint.get(&fingerprint).copied()).filter(|&class| {
            let opener = workload
                .entry(self.classes[class as usize].opener as usize)
                .statement;
            let [key, opener_key] = keys;
            key.clear();
            opener_key.clear();
            write_template_key(statement, key).expect("writing to a String cannot fail");
            write_template_key(opener, opener_key).expect("writing to a String cannot fail");
            key == opener_key
        });
        (class, fingerprint)
    }

    /// Opens a costing class for statement `si` (template fingerprint
    /// `fingerprint`, prepared as `prepared`) and returns it. The class is
    /// filed under its fingerprint unless another template holds it.
    pub(crate) fn open_class(
        &mut self,
        si: usize,
        fingerprint: u64,
        prepared: Option<PreparedStatement>,
    ) -> u32 {
        let class = u32::try_from(self.classes.len()).expect("fewer classes than statements");
        self.class_of_fingerprint
            .entry(fingerprint)
            .or_insert(class);
        self.classes.push(CostClass {
            opener: u32::try_from(si).expect("fewer than 2^32 statements"),
            members: 0,
            prepared,
            baseline: None,
        });
        class
    }

    /// Records one `(class, projection)` costing; `hash` is the
    /// projection's.
    pub(crate) fn insert_cost(&mut self, class: u32, hash: u64, proj: &[CandId], cost: f64) {
        if self.costs.insert(class, hash, proj, cost) {
            self.costings += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<CandId> {
        raw.iter().map(|&id| CandId(id)).collect()
    }

    /// Projections filed under one `(class, hash)` — a hash collision — are
    /// chained side by side: each answers only for itself, each counts as
    /// its own costing, and the empty projection is a projection like any
    /// other. The same projection under another class or hash is another
    /// costing.
    #[test]
    fn colliding_projections_are_held_apart() {
        let mut state = CostingState::default();
        let (a, b, empty) = (ids(&[1, 4]), ids(&[2, 3, 9]), ids(&[]));
        for (proj, cost) in [(&a, 10.0), (&b, 20.0), (&empty, 30.0)] {
            state.insert_cost(0, 7, proj, cost);
        }
        assert_eq!(state.costings(), 3);
        assert_eq!(state.costs.get(0, 7, &a), Some(10.0));
        assert_eq!(state.costs.get(0, 7, &b), Some(20.0));
        assert_eq!(state.costs.get(0, 7, &empty), Some(30.0));
        assert_eq!(
            state.costs.get(0, 7, &ids(&[1])),
            None,
            "a prefix is not held"
        );
        assert_eq!(state.costs.get(1, 7, &a), None, "another class");
        assert_eq!(state.costs.get(0, 8, &a), None, "another hash");

        // Holding a costing again overwrites it and counts nothing.
        state.insert_cost(0, 7, &b, 25.0);
        assert_eq!(state.costings(), 3);
        assert_eq!(state.costs.get(0, 7, &b), Some(25.0));
        state.insert_cost(1, 7, &a, 40.0);
        assert_eq!(state.costings(), 4);
        assert_eq!(state.costs.get(0, 7, &a), Some(10.0));
        assert_eq!(state.costs.get(1, 7, &a), Some(40.0));
    }
}
