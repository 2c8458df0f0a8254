//! Session-lifetime costing state.
//!
//! Everything a benefit evaluation computes that depends only on
//! (statistics snapshot, statement, candidate) — never on statement
//! frequencies, budgets or the run's controller — lives in a
//! [`CostingState`]: prepared statements, statement signatures and fault
//! salts, per-candidate relevance rows and derived virtual-index
//! definitions, baselines, and the unweighted `(class, projection) → cost`
//! cache. A [`crate::benefit::BenefitEvaluator`] is the thin per-run view
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
use std::sync::Arc;
use xia_optimizer::{PathStatsMemo, PreparedStatement};
use xia_storage::IndexDef;
use xia_workloads::Workload;
use xia_xpath::{template_fingerprint, write_template_key, CoverCache, RelevanceMatrix};

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
    /// Canonical projection of a sub-configuration onto the class's
    /// relevant candidates → cost. Coordinator-only. Tainted
    /// (fault/fallback) costs are never inserted.
    pub(crate) costs: HashMap<Vec<CandId>, f64>,
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
    pub(crate) class_of_fingerprint: HashMap<u64, u32>,
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
    /// Shared containment-verdict cache: the relevance rows, greedy
    /// coverage bitmaps, and top-down leftover fill all ask the same
    /// `(general, specific)` questions repeatedly. Coordinator-only, so
    /// its hit counters are invariant under `jobs`.
    pub(crate) cover_cache: CoverCache,
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
    /// other one walks its template once for the fingerprint, and a
    /// fingerprint hit is confirmed by writing both template keys into
    /// `keys` (reused, so a confirmation allocates nothing once they have
    /// grown).
    pub(crate) fn class_for(
        &mut self,
        workload: &Workload,
        si: usize,
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
        let fingerprint = template_fingerprint(statement);
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
            costs: HashMap::new(),
        });
        class
    }

    /// Records one `(class, projection)` costing.
    pub(crate) fn insert_cost(&mut self, class: u32, proj: Vec<CandId>, cost: f64) {
        if self.classes[class as usize]
            .costs
            .insert(proj, cost)
            .is_none()
        {
            self.costings += 1;
        }
    }
}
