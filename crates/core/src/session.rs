//! Incremental tuning sessions.
//!
//! A [`TuningSession`] accumulates workload statements over time (the
//! paper's motivating DBA workflow: "the DBA has assembled a representative
//! training workload, but the actual workload may be a variation") and
//! re-advises on demand, reusing enumeration and generalization work when
//! nothing changed.
//!
//! Two kinds of state stay warm across calls:
//!
//! * **Prepared candidates** — `observe` no longer throws the prepared
//!   [`CandidateSet`] away. The compressed workload is append-only under
//!   new observations (duplicates merge into existing entries without
//!   moving them), so new statements enumerate their basic candidates
//!   into the existing set and the semi-naive generalization fixpoint
//!   extends the closure from just the new frontier
//!   ([`crate::generalize::generalize_set_extend`]). Candidate ids are append-only too,
//!   which keeps previously captured warm cost entries valid.
//! * **Warm benefit costs** — every `recommend` runs under a
//!   [`RunController`] armed with in-memory warm capture; the run's
//!   costing log accumulates in a [`WarmCostStore`] and is installed into
//!   the next run, which replays previously executed optimizer costings
//!   byte-identically (costs, counters, journal events) instead of
//!   re-fanning out. The store resets whenever the database changes
//!   underneath the session (`apply`) or the advisor parameters change.
//!
//! The session does not hold the database borrow and, [`TuningSession::apply`]
//! aside, never writes it: every call takes `&Database` with fresh
//! statistics (see [`Advisor::freshen`]) and sees injected `stats-unavailable`
//! faults through a per-phase [`xia_storage::StatsView`], so a serving layer
//! shares one immutable database across sessions with no synchronization.

use crate::advisor::{Advisor, AdvisorParams, Recommendation, SearchAlgorithm};
use crate::candidate::CandidateSet;
use crate::error::XiaError;
use crate::runctl::{RunController, WarmCostStore};
use std::cell::OnceCell;
use xia_storage::Database;
use xia_workloads::Workload;
use xia_xpath::{ParseError, Statement};

/// Prepared candidate state plus how much of the compressed workload it
/// covers.
#[derive(Default)]
struct Prepared {
    set: CandidateSet,
    /// Compressed-workload entries already enumerated into `set`.
    covered: usize,
}

/// An incremental advisor session.
#[derive(Default)]
pub struct TuningSession {
    workload: Workload,
    /// `workload` with duplicates merged: computed by the first reader
    /// after an observation, so a request compresses at most once.
    compressed: OnceCell<Workload>,
    params: AdvisorParams,
    prepared: Option<Prepared>,
    warm: WarmCostStore,
}

impl TuningSession {
    /// Opens a session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the advisor parameters. Invalidates prepared state if the
    /// generalization switch changed, and always resets the warm cost
    /// store — captured costs are only valid under the costing context
    /// (faults, budgets, toggles) they were captured in.
    pub fn set_params(&mut self, params: AdvisorParams) {
        if params.generalize != self.params.generalize {
            self.prepared = None;
        }
        self.warm.reset();
        self.params = params;
    }

    /// Adds one statement with frequency 1.
    pub fn observe(&mut self, statement_text: &str) -> Result<(), ParseError> {
        self.observe_with_freq(statement_text, 1.0)
    }

    /// Adds one statement with an explicit frequency. Prepared candidates
    /// are kept; the next `recommend` extends them incrementally.
    pub fn observe_with_freq(&mut self, statement_text: &str, freq: f64) -> Result<(), ParseError> {
        let statement = xia_xpath::parse_statement(statement_text)?;
        self.observe_statement(statement, freq, statement_text);
        Ok(())
    }

    /// Adds one statement the caller has already parsed from `text` (the
    /// server parses once and reads the statement for its drift histogram
    /// before handing it over).
    pub fn observe_statement(&mut self, statement: Statement, freq: f64, text: &str) {
        self.workload.push_statement(statement, freq, text.trim());
        self.compressed.take();
    }

    /// Number of observed statements.
    pub fn observed(&self) -> usize {
        self.workload.len()
    }

    /// The session's telemetry sink (from its [`AdvisorParams`]); phase
    /// timers and counters accumulate here across `recommend` calls.
    pub fn telemetry(&self) -> &xia_obs::Telemetry {
        &self.params.telemetry
    }

    /// The accumulated workload (compressed: duplicates merged).
    pub fn workload(&self) -> &Workload {
        self.compressed.get_or_init(|| self.workload.compress())
    }

    /// Distinct warm costings carried to the next `recommend`.
    pub fn warm_costings(&self) -> usize {
        self.warm.len()
    }

    /// Brings the prepared candidate set up to date with the compressed
    /// workload: a full preparation on first use, an incremental
    /// extension afterwards ([`Advisor::extend_prepared`] either way).
    fn ensure_prepared(&mut self, db: &Database) -> &Prepared {
        let compressed = self.compressed.get_or_init(|| self.workload.compress());
        // The first preparation runs even over an empty workload, so a
        // session's fault stream does not depend on when it first asked.
        let first = self.prepared.is_none();
        let p = self.prepared.get_or_insert_with(Prepared::default);
        if first || p.covered < compressed.len() {
            Advisor::extend_prepared(db, compressed, p.covered, &mut p.set, &self.params);
            p.covered = compressed.len();
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
    /// prepared candidates and warm benefit costs from earlier calls.
    /// Errors when nothing useful can be recommended (empty workload,
    /// everything quarantined, strict-mode degradation); see
    /// [`Advisor::recommend`].
    pub fn recommend(
        &mut self,
        db: &Database,
        budget: u64,
        algorithm: SearchAlgorithm,
    ) -> Result<Recommendation, XiaError> {
        self.ensure_prepared(db);
        let compressed = self.workload();
        let set = &self.prepared.as_ref().expect("prepared above").set;
        // Warm cost reuse rides on the run controller. When the caller
        // armed their own controller (deadline, checkpointing) it is used
        // untouched and the session's warm store stays out of the run;
        // otherwise the run captures its costing log for the next call.
        if self.params.ctl.is_enabled() {
            return Advisor::recommend_prepared_on(
                db,
                compressed,
                set,
                budget,
                algorithm,
                &self.params,
            );
        }
        let ctl = RunController::new().with_warm_capture();
        if !self.warm.is_empty() {
            ctl.install_warm(self.warm.install());
        }
        let mut params = self.params.clone();
        params.ctl = ctl.clone();
        let out = Advisor::recommend_prepared_on(db, compressed, set, budget, algorithm, &params);
        self.warm.absorb(ctl.export_warm_log());
        out
    }

    /// Materializes a recommendation produced by this session. The
    /// prepared candidates stay valid (the workload did not change), but
    /// the warm cost store resets: physical indexes change what the
    /// optimizer would cost.
    pub fn apply(&mut self, db: &mut Database, rec: &Recommendation) -> usize {
        Advisor::freshen(db, &self.params.telemetry);
        let p = self.ensure_prepared(db);
        let n = Advisor::materialize(db, &p.set, &rec.config);
        self.warm.reset();
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
            // A cached compression must be dropped here too.
            let _ = parsed.workload();
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
        assert_eq!(session.workload().entries()[0].freq, 5.0);
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
        let rec = session
            .recommend(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
            .unwrap();
        let after_first = session.warm_costings();
        assert!(after_first > 0, "recommend must capture warm costings");
        // A repeat recommend replays warm entries and returns an
        // identical recommendation.
        let rec2 = session
            .recommend(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
            .unwrap();
        assert_eq!(rec.ddl(), rec2.ddl());
        assert_eq!(
            rec.est_benefit.to_bits(),
            rec2.est_benefit.to_bits(),
            "warm replay must be bit-exact"
        );
        assert_eq!(session.warm_costings(), after_first);
        session.apply(&mut db, &rec);
        assert_eq!(
            session.warm_costings(),
            0,
            "materializing changes the database; warm costs must reset"
        );
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
