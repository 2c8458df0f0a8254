//! Session-lifetime costing state.
//!
//! Everything a benefit evaluation computes that depends only on
//! (statistics snapshot, statement, candidate) — never on statement
//! frequencies, budgets or the run's controller — lives in a
//! [`CostingState`]: prepared statements, statement signatures and fault
//! salts, per-candidate relevance rows and derived virtual-index
//! definitions, per-statement baselines, and the unweighted
//! `(statement, projection) → cost` cache. A
//! [`crate::benefit::BenefitEvaluator`] is the thin per-run view over one.
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
use xia_xpath::{CoverCache, RelevanceMatrix};

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
    /// The prepared form of every statement whose collection is known and
    /// whose statistics the mask leaves visible (`None` otherwise: those
    /// take the quarantine / stats-fallback paths).
    pub(crate) prepared: Vec<Option<PreparedStatement>>,
    /// Baseline (no-candidate) cost per statement, once the optimizer has
    /// answered cleanly. A faulted or unanswerable baseline stays `None`
    /// and is asked again by the next run.
    pub(crate) baseline: Vec<Option<f64>>,
    /// Per-candidate relevance: the statements whose plans could possibly
    /// consult the candidate (derived from the statements' index-matching
    /// signatures — no optimizer calls).
    pub(crate) relevance: Vec<StmtSet>,
    /// Each candidate's virtual-index definition, derived from the visible
    /// statistics at first use and shared by every overlay and maintenance
    /// costing it takes part in. Outer `None`: not derived yet; inner
    /// `None`: the candidate's collection has no visible statistics.
    pub(crate) defs: Vec<Option<Option<Arc<IndexDef>>>>,
    /// Per statement: canonical projection of a sub-configuration onto the
    /// statement's relevant candidates → cost. Coordinator-only. Tainted
    /// (fault/fallback) costs are never inserted.
    pub(crate) stmt_cache: Vec<HashMap<Vec<CandId>, f64>>,
    /// Approximate live bytes of `stmt_cache`: the part of the governor's
    /// memory account that outlives a run.
    pub(crate) stmt_bytes: u64,
    /// Shared containment-verdict cache: the relevance rows, greedy
    /// coverage bitmaps, and top-down leftover fill all ask the same
    /// `(general, specific)` questions repeatedly. Coordinator-only, so
    /// its hit counters are invariant under `jobs`.
    pub(crate) cover_cache: CoverCache,
    /// Per-statement costings held: clean baselines plus `stmt_cache`
    /// entries.
    pub(crate) costings: usize,
    /// Per-statement costings evaluators have asked of this state
    /// (baselines and planned what-if tasks) …
    pub(crate) asked: u64,
    /// … and how many of them it answered without an optimizer call.
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
        self.prepared.len()
    }

    /// Candidates covered so far.
    pub fn candidates(&self) -> usize {
        self.relevance.len()
    }

    /// Distinct per-statement costings held (clean baselines plus
    /// `(statement, projection)` costs).
    pub fn costings(&self) -> usize {
        self.costings
    }

    /// `(asked, served)`: per-statement costings evaluators asked for over
    /// this state's life, and how many it answered from what it held.
    pub fn hit_counts(&self) -> (u64, u64) {
        (self.asked, self.served)
    }

    /// Approximate bytes of the retained statement cost cache.
    pub fn bytes(&self) -> u64 {
        self.stmt_bytes
    }

    /// Records one `(statement, projection)` costing.
    pub(crate) fn insert_cost(&mut self, si: usize, proj: Vec<CandId>, cost: f64) {
        self.stmt_bytes += (48 + 8 * proj.len()) as u64;
        if self.stmt_cache[si].insert(proj, cost).is_none() {
            self.costings += 1;
        }
    }

    /// Drops the statement cost cache (a governor demotion reclaims it
    /// like the per-run memo). Baselines and prepared statements stay:
    /// the run that demoted is still using them.
    pub(crate) fn clear_costs(&mut self) {
        for costs in &mut self.stmt_cache {
            self.costings -= costs.len();
            costs.clear();
        }
        self.stmt_bytes = 0;
    }
}
