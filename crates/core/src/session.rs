//! Incremental tuning sessions.
//!
//! A [`TuningSession`] accumulates workload statements over time (the
//! paper's motivating DBA workflow: "the DBA has assembled a representative
//! training workload, but the actual workload may be a variation") and
//! re-advises on demand, reusing enumeration and generalization work when
//! nothing changed.
//!
//! Two kinds of state stay warm across calls, both owned by the session
//! and both append-only under new observations:
//!
//! * **Prepared candidates** — `observe` does not throw the prepared
//!   [`CandidateSet`] away. The session's workload is compressed as it is
//!   observed (a duplicate statement merges into the entry that stands
//!   for it without moving it), so new statements enumerate their basic
//!   candidates into the existing set and the semi-naive generalization
//!   fixpoint extends the closure from just the new frontier
//!   ([`crate::generalize::generalize_set_extend`]). Candidate ids are
//!   append-only too.
//! * **Costing state** — a [`CostingState`] indexed like the workload and
//!   the candidate set: prepared statements, relevance rows, derived
//!   index definitions, clean baselines and per-statement what-if costs.
//!   Every `recommend` runs the one advisor code path over it
//!   ([`Advisor::recommend_retained`]): what the state holds is searched,
//!   what it lacks is computed into it. New statements and candidates
//!   extend it; frequency-weighted values are never kept, so a changed
//!   frequency invalidates nothing. It is dropped whenever the database
//!   changes underneath the session (`apply`), the advisor parameters
//!   change, or the session is `reset`.
//!
//! The session does not hold the database borrow and, [`TuningSession::apply`]
//! aside, never writes it: every call takes `&Database` with fresh
//! statistics (see [`Advisor::freshen`]) and sees injected `stats-unavailable`
//! faults through a per-phase [`xia_storage::StatsView`], so a serving layer
//! shares one immutable database across sessions with no synchronization.
//! The caller answers for handing every call the same database.

use crate::advisor::{Advisor, AdvisorParams, Recommendation, SearchAlgorithm};
use crate::candidate::CandidateSet;
use crate::costing::CostingState;
use crate::error::XiaError;
use std::collections::HashMap;
use xia_storage::Database;
use xia_workloads::Workload;
use xia_xpath::{ParseError, Statement};

/// Prepared candidate state plus how much of the workload it covers.
#[derive(Default)]
struct Prepared {
    set: CandidateSet,
    /// Workload entries already enumerated into `set`.
    covered: usize,
}

/// An incremental advisor session.
#[derive(Default)]
pub struct TuningSession {
    /// The observed statements with duplicates merged, in first-occurrence
    /// order: folded at `observe` time, never recompressed.
    workload: Workload,
    /// Each distinct statement's entry in `workload`, keyed on the parsed
    /// statement (`{:?}`: whitespace-insensitive).
    entry_of: HashMap<String, usize>,
    /// Statements observed, duplicates included.
    observed: usize,
    params: AdvisorParams,
    prepared: Option<Prepared>,
    /// Costs kept across `recommend` calls; see the module docs.
    costing: CostingState,
}

impl TuningSession {
    /// Opens a session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the advisor parameters. Drops the costing state — it is
    /// only kept under the costing context (faults, budget) it was built
    /// in.
    pub fn set_params(&mut self, params: AdvisorParams) {
        self.costing = CostingState::default();
        self.params = params;
    }

    /// Forgets everything observed and everything derived from it; the
    /// parameters stay. The session is as it was when they were set.
    pub fn reset(&mut self) {
        self.workload = Workload::new();
        self.entry_of.clear();
        self.observed = 0;
        self.prepared = None;
        self.costing = CostingState::default();
    }

    /// Adds one statement with frequency 1.
    pub fn observe(&mut self, statement_text: &str) -> Result<(), ParseError> {
        self.observe_with_freq(statement_text, 1.0)
    }

    /// Adds one statement with an explicit frequency. Prepared candidates
    /// and costs are kept; the next `recommend` extends them.
    pub fn observe_with_freq(&mut self, statement_text: &str, freq: f64) -> Result<(), ParseError> {
        let statement = xia_xpath::parse_statement(statement_text)?;
        self.observe_statement(statement, freq, statement_text);
        Ok(())
    }

    /// Adds one statement the caller has already parsed from `text` (the
    /// server parses once and reads the statement for its drift histogram
    /// before handing it over). A statement seen before adds its frequency
    /// to the entry that stands for it; a new one is appended.
    pub fn observe_statement(&mut self, statement: Statement, freq: f64, text: &str) {
        self.observed += 1;
        match self.entry_of.entry(format!("{statement:?}")) {
            std::collections::hash_map::Entry::Occupied(at) => {
                self.workload.add_freq(*at.get(), freq)
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(self.workload.len());
                self.workload
                    .push_statement(statement.into(), freq, text.trim());
            }
        }
    }

    /// Number of observed statements.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// The session's telemetry sink (from its [`AdvisorParams`]); phase
    /// timers and counters accumulate here across `recommend` calls.
    pub fn telemetry(&self) -> &xia_obs::Telemetry {
        &self.params.telemetry
    }

    /// The accumulated workload (compressed: duplicates merged).
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The costs kept for the next `recommend`.
    pub fn costing(&self) -> &CostingState {
        &self.costing
    }

    /// Distinct per-statement costings carried to the next `recommend`.
    pub fn warm_costings(&self) -> usize {
        self.costing.costings()
    }

    /// Brings the prepared candidate set up to date with the workload: a
    /// full preparation on first use, an incremental extension afterwards
    /// ([`Advisor::extend_prepared`] either way).
    fn ensure_prepared(&mut self, db: &Database) -> &Prepared {
        // The first preparation runs even over an empty workload, so a
        // session's fault stream does not depend on when it first asked.
        let first = self.prepared.is_none();
        let p = self.prepared.get_or_insert_with(Prepared::default);
        if first || p.covered < self.workload.len() {
            Advisor::extend_prepared(db, &self.workload, p.covered, &mut p.set, &self.params);
            p.covered = self.workload.len();
        }
        p
    }

    /// Candidate count after enumeration + generalization (for monitoring).
    pub fn candidate_count(&mut self, db: &Database) -> usize {
        self.ensure_prepared(db).set.len()
    }

    /// The prepared candidate set, brought up to date first — for
    /// serving-path introspection and the incremental-vs-full parity
    /// tests.
    pub fn candidates(&mut self, db: &Database) -> &CandidateSet {
        &self.ensure_prepared(db).set
    }

    /// Produces a recommendation for the accumulated workload, reusing
    /// prepared candidates and kept costs from earlier calls: the same
    /// recommendation a fresh [`Advisor::recommend_prepared`] over the
    /// same workload and candidates returns. Errors when nothing useful
    /// can be recommended (empty workload, everything quarantined,
    /// strict-mode degradation); see [`Advisor::recommend`].
    pub fn recommend(
        &mut self,
        db: &Database,
        budget: u64,
        algorithm: SearchAlgorithm,
    ) -> Result<Recommendation, XiaError> {
        self.ensure_prepared(db);
        let set = &self.prepared.as_ref().expect("prepared above").set;
        Advisor::recommend_retained(
            db,
            &self.workload,
            set,
            budget,
            algorithm,
            &self.params,
            &mut self.costing,
        )
    }

    /// Materializes a recommendation produced by this session. The
    /// prepared candidates stay valid (the workload did not change), but
    /// the kept costs are dropped: physical indexes change what the
    /// optimizer would cost.
    pub fn apply(&mut self, db: &mut Database, rec: &Recommendation) -> usize {
        Advisor::freshen(db, &self.params.telemetry);
        let p = self.ensure_prepared(db);
        let n = Advisor::materialize(db, &p.set, &rec.config);
        self.costing = CostingState::default();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_workloads::tpox::{self, TpoxConfig};

    fn db() -> Database {
        let mut db = Database::new();
        tpox::generate(&mut db, &TpoxConfig::tiny());
        db
    }

    #[test]
    fn observing_a_parsed_statement_equals_observing_its_text() {
        let texts = [
            "  collection('SDOC')/Security[Yield > 4.5]  ",
            r#"for $o in ORDER('ODOC')/Order where $o/AccountId = "A00001" return $o"#,
        ];
        let (mut by_text, mut parsed) = (TuningSession::new(), TuningSession::new());
        for (i, text) in texts.iter().enumerate() {
            let freq = 1.5 + i as f64;
            by_text.observe_with_freq(text, freq).unwrap();
            parsed.observe_statement(xia_xpath::parse_statement(text).unwrap(), freq, text);
        }
        assert_eq!(parsed.observed(), 2);
        assert_eq!(parsed.workload().len(), 2);
        let entries = |s: &TuningSession| {
            let w = s.workload();
            w.entries()
                .iter()
                .map(|e| (e.statement.clone(), e.freq.to_bits(), e.text.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(entries(&parsed), entries(&by_text));
        assert_eq!(
            entries(&parsed)[0].2,
            "collection('SDOC')/Security[Yield > 4.5]"
        );
    }

    #[test]
    fn session_accumulates_and_recommends() {
        let db = db();
        let mut session = TuningSession::new();
        session
            .observe(
                r#"for $s in SECURITY('SDOC')/Security where $s/Symbol = "SYM00001" return $s"#,
            )
            .unwrap();
        assert_eq!(session.observed(), 1);
        let rec1 = session
            .recommend(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
            .unwrap();
        assert_eq!(rec1.indexes.len(), 1);

        session
            .observe(r#"for $o in ORDER('ODOC')/Order where $o/AccountId = "A00001" return $o"#)
            .unwrap();
        let rec2 = session
            .recommend(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
            .unwrap();
        assert!(rec2.indexes.len() >= 2, "{:?}", rec2.indexes);
    }

    #[test]
    fn duplicate_observations_compress() {
        let mut session = TuningSession::new();
        for _ in 0..5 {
            session
                .observe(r#"collection('SDOC')/Security[Symbol = "SYM00002"]"#)
                .unwrap();
        }
        assert_eq!(session.observed(), 5);
        assert_eq!(session.workload().len(), 1);
        assert_eq!(session.workload().freq(0), 5.0);
    }

    #[test]
    fn prepared_state_extends_incrementally_across_observes() {
        let db = db();
        let mut session = TuningSession::new();
        session
            .observe(r#"collection('SDOC')/Security[Symbol = "SYM00003"]"#)
            .unwrap();
        let c1 = session.candidate_count(&db);
        let c2 = session.candidate_count(&db);
        assert_eq!(c1, c2);
        session
            .observe(r#"collection('SDOC')/Security[Yield > 4]"#)
            .unwrap();
        let c3 = session.candidate_count(&db);
        assert!(c3 >= c1);
        // A duplicate observation merges into the compressed workload
        // without growing the candidate set.
        session
            .observe(r#"collection('SDOC')/Security[Symbol = "SYM00003"]"#)
            .unwrap();
        assert_eq!(session.candidate_count(&db), c3);
    }

    #[test]
    fn warm_costs_accumulate_and_reset_on_apply() {
        let mut db = db();
        let mut session = TuningSession::new();
        session
            .observe(r#"collection('SDOC')/Security[Symbol = "SYM00009"]"#)
            .unwrap();
        assert_eq!(session.warm_costings(), 0);
        let budget = u64::MAX / 2;
        let rec = session
            .recommend(&db, budget, SearchAlgorithm::Greedy)
            .unwrap();
        let after_first = session.warm_costings();
        assert!(after_first > 0, "recommend must keep its costings");
        let (asked, served) = session.costing().hit_counts();
        // A repeat recommend asks the same questions and is answered from
        // what the first one kept: no optimizer call, nothing new to keep.
        let rec2 = session
            .recommend(&db, budget, SearchAlgorithm::Greedy)
            .unwrap();
        assert_eq!(rec.ddl(), rec2.ddl());
        assert_eq!(rec.est_benefit.to_bits(), rec2.est_benefit.to_bits());
        assert_eq!(rec2.eval_stats.optimizer_calls, 0);
        assert_eq!(session.warm_costings(), after_first);
        let (asked2, served2) = session.costing().hit_counts();
        assert!(asked2 > asked);
        assert_eq!(
            asked2 - asked,
            served2 - served,
            "every repeat question hit"
        );
        // A new statement extends the state; what it held is still there.
        session
            .observe(r#"collection('SDOC')/Security[Yield > 4.5]"#)
            .unwrap();
        session
            .recommend(&db, budget, SearchAlgorithm::Greedy)
            .unwrap();
        assert_eq!(session.costing().statements(), 2);
        assert!(session.warm_costings() > after_first);
        session.apply(&mut db, &rec);
        assert_eq!(
            session.warm_costings(),
            0,
            "materializing changes the database; kept costs must go"
        );
        session
            .recommend(&db, budget, SearchAlgorithm::Greedy)
            .unwrap();
        assert!(session.warm_costings() > 0);
        session.reset();
        assert_eq!(session.warm_costings(), 0);
        assert_eq!(session.observed(), 0);
        assert!(session.workload().is_empty());
    }

    #[test]
    fn folding_at_observe_time_equals_compressing_the_history() {
        // The session's workload is the fold of everything it observed:
        // `{:?}` identity, first-occurrence order, frequencies summed in
        // arrival order.
        let texts = [
            r#"collection('SDOC')/Security[Symbol = "SYM00002"]"#,
            r#"collection('SDOC')/Security[Yield > 4.5]"#,
            r#"collection('SDOC')/Security[Symbol   =   "SYM00002"]"#,
            r#"for $o in ORDER('ODOC')/Order where $o/AccountId = "A00001" return $o"#,
            r#"collection('SDOC')/Security[Yield > 4.5]"#,
        ];
        let mut session = TuningSession::new();
        let mut history = Workload::new();
        for (i, text) in texts.iter().enumerate() {
            let freq = 0.1 + i as f64 / 3.0;
            session.observe_with_freq(text, freq).unwrap();
            history.push_with_freq(text, freq).unwrap();
            let mut want: Vec<(String, &str, f64)> = Vec::new();
            for e in history.entries() {
                let key = format!("{:?}", e.statement);
                match want.iter_mut().find(|w| w.0 == key) {
                    Some(w) => w.2 += e.freq,
                    None => want.push((key, e.text, e.freq)),
                }
            }
            let got = session.workload();
            assert_eq!(got.len(), want.len());
            for (g, (key, text, freq)) in got.entries().iter().zip(&want) {
                assert_eq!(&format!("{:?}", g.statement), key);
                assert_eq!(g.freq.to_bits(), freq.to_bits());
                assert_eq!(g.text, *text);
            }
        }
        assert_eq!(session.observed(), 5);
        assert_eq!(session.workload().len(), 3);
    }

    #[test]
    fn repeat_recommends_report_their_own_counters() {
        // Per-run counters on a state that outlives the run: two identical
        // recommends each report the candidates they admit, not the
        // state's running total.
        use xia_obs::Counter;
        let db = db();
        let mut session = TuningSession::new();
        for text in [
            r#"collection('SDOC')/Security[Symbol = "SYM00001"]"#,
            r#"collection('SDOC')/Security[Yield > 4.5]"#,
            r#"for $o in ORDER('ODOC')/Order where $o/AccountId = "A00001" return $o"#,
        ] {
            session.observe(text).unwrap();
        }
        let mut deltas = Vec::new();
        for _ in 0..2 {
            let before = session.telemetry().get(Counter::CandidatesAdmitted);
            let rec = session
                .recommend(&db, u64::MAX / 2, SearchAlgorithm::TopDownFull)
                .unwrap();
            let delta = session.telemetry().get(Counter::CandidatesAdmitted) - before;
            assert_eq!(delta, rec.config.len() as u64);
            deltas.push(delta);
        }
        assert!(deltas[0] > 0);
        assert_eq!(deltas[0], deltas[1], "candidates admitted");
    }

    #[test]
    fn apply_materializes_indexes() {
        let mut db = db();
        let mut session = TuningSession::new();
        session
            .observe(r#"collection('SDOC')/Security[Symbol = "SYM00004"]"#)
            .unwrap();
        let rec = session
            .recommend(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
            .unwrap();
        let n = session.apply(&mut db, &rec);
        assert_eq!(n, rec.indexes.len());
        assert!(n >= 1);
        let physical = db
            .catalog("SDOC")
            .unwrap()
            .iter()
            .filter(|d| !d.is_virtual())
            .count();
        assert_eq!(physical, n);
    }

    #[test]
    fn ddl_renders_create_index_statements() {
        let db = db();
        let mut session = TuningSession::new();
        session
            .observe(r#"collection('SDOC')/Security[Symbol = "SYM00005"]"#)
            .unwrap();
        session
            .observe(r#"collection('SDOC')/Security[Yield > 4.5]"#)
            .unwrap();
        let rec = session
            .recommend(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
            .unwrap();
        let ddl = rec.ddl();
        assert!(ddl.contains("CREATE INDEX idx_sdoc_1"), "{ddl}");
        assert!(ddl.contains("GENERATE KEY USING XMLPATTERN"), "{ddl}");
        if rec
            .indexes
            .iter()
            .any(|i| i.kind == xia_xpath::ValueKind::Num)
        {
            assert!(ddl.contains("SQL DOUBLE"));
        }
    }
}
