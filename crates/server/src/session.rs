//! Per-connection advisor sessions.
//!
//! Each client connection owns one [`ServerSession`]: an incremental
//! [`TuningSession`] (prepared candidates + what-if costs kept across
//! requests), a [`DriftTracker`] over compressed-template
//! mass, and a private telemetry sink + decision journal. Nothing in a
//! session references another connection, so every reply, counter, and
//! journal event is a pure function of the session's own request stream —
//! which is what makes N concurrent sessions byte-identical to the same
//! requests replayed serially.
//!
//! **Drift-triggered re-advise.** Once a session has produced a
//! recommendation, every `observe` batch is folded into the drift
//! histogram; when total-variation drift against the last
//! recommendation's baseline crosses the configured threshold, the
//! session emits a `drift_detected` journal event and re-runs the
//! advisor *incrementally* (prepared candidates and kept costs extend)
//! with the same budget and algorithm as the last explicit
//! `recommend`. The baseline then resets, so one crossing triggers
//! exactly one re-advise.

use crate::protocol::{
    ok_reply, render_recommendation, WireError, MAX_LINE_BYTES, MAX_STATEMENTS_PER_REQUEST, VERBS,
};
use xia_advisor::{AdvisorParams, DriftTracker, Recommendation, SearchAlgorithm, TuningSession};
use xia_fault::FaultInjector;
use xia_obs::json::Json;
use xia_obs::{Event, EventJournal, Telemetry};
use xia_storage::Database;

/// Knobs a [`ServerSession`] is created with (from the server config).
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Total-variation drift that triggers an incremental re-advise.
    pub drift_threshold: f64,
    /// Optimizer-call budget per advisor run (0 = unlimited).
    pub what_if_budget: u64,
    /// What-if worker threads (`None` = advisor default / `XIA_JOBS`).
    pub jobs: Option<usize>,
    /// Fault injector for this session (each session gets an independent
    /// stream so injection stays deterministic per connection).
    pub faults: FaultInjector,
}

impl Default for SessionOptions {
    fn default() -> Self {
        Self {
            drift_threshold: 0.25,
            what_if_budget: 0,
            jobs: None,
            faults: FaultInjector::off(),
        }
    }
}

/// What a session's kept costs amount to right now: the per-session row
/// of the server's `metrics` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostingGauges {
    /// Per-statement costings the session holds.
    pub retained: u64,
    /// Per-statement costings its advisor runs have asked for …
    pub asked: u64,
    /// … and how many of them were answered from what it held.
    pub served: u64,
}

/// One connection's warm advisor state. See the module docs.
pub struct ServerSession {
    tuning: TuningSession,
    drift: DriftTracker,
    params: AdvisorParams,
    drift_threshold: f64,
    /// Budget and algorithm of the last explicit `recommend`, reused by
    /// drift-triggered re-advises.
    last: Option<(u64, SearchAlgorithm)>,
    observed_total: u64,
    quarantined_total: u64,
    recommends: u64,
    readvises: u64,
}

impl ServerSession {
    /// Opens a session.
    pub fn new(opts: &SessionOptions) -> Self {
        let mut params = AdvisorParams {
            telemetry: Telemetry::new(),
            journal: EventJournal::new(),
            faults: opts.faults.clone(),
            ..AdvisorParams::default()
        };
        if opts.what_if_budget > 0 {
            params.what_if_budget = xia_advisor::WhatIfBudget::calls(opts.what_if_budget);
        }
        if let Some(jobs) = opts.jobs {
            params.jobs = jobs;
        }
        let mut tuning = TuningSession::new();
        tuning.set_params(params.clone());
        Self {
            tuning,
            drift: DriftTracker::new(),
            params,
            drift_threshold: opts.drift_threshold,
            last: None,
            observed_total: 0,
            quarantined_total: 0,
            recommends: 0,
            readvises: 0,
        }
    }

    /// Drift-triggered re-advises so far.
    pub fn readvises(&self) -> u64 {
        self.readvises
    }

    /// The `hello` reply: identity, protocol limits, verbs.
    pub fn hello_reply(&self) -> String {
        ok_reply(vec![
            ("server".into(), Json::Str("xia-server".into())),
            (
                "version".into(),
                Json::Str(env!("CARGO_PKG_VERSION").into()),
            ),
            ("protocol".into(), Json::Num(1.0)),
            ("max_line_bytes".into(), Json::Num(MAX_LINE_BYTES as f64)),
            (
                "max_statements_per_request".into(),
                Json::Num(MAX_STATEMENTS_PER_REQUEST as f64),
            ),
            (
                "verbs".into(),
                Json::Arr(VERBS.iter().map(|v| Json::Str((*v).into())).collect()),
            ),
        ])
    }

    /// The `ping` reply.
    pub fn ping_reply(&self) -> String {
        ok_reply(vec![("pong".into(), Json::Bool(true))])
    }

    /// Handles `observe`: streams statements into the tuning session and
    /// the drift histogram (lenient — unparseable statements are counted
    /// and reported, not fatal), then re-advises incrementally if drift
    /// crossed the threshold since the last recommendation.
    pub fn observe(
        &mut self,
        db: &Database,
        statements: &[(String, f64)],
    ) -> Result<String, WireError> {
        let mut accepted = 0u64;
        let mut quarantined = 0u64;
        let mut diagnostics = Vec::new();
        for (i, (text, freq)) in statements.iter().enumerate() {
            // Parsed once: the drift histogram reads the statement, the
            // tuning session keeps it.
            match xia_xpath::parse_statement(text) {
                Ok(statement) => {
                    self.drift.observe(&statement, *freq);
                    self.tuning.observe_statement(statement, *freq, text);
                    accepted += 1;
                }
                Err(e) => {
                    quarantined += 1;
                    if diagnostics.len() < 8 {
                        diagnostics.push((i, e.to_string()));
                    }
                }
            }
        }
        self.observed_total += accepted;
        self.quarantined_total += quarantined;

        let drift = self.drift.drift();
        let mut fields = vec![
            ("observed".into(), Json::Num(accepted as f64)),
            ("quarantined".into(), Json::Num(quarantined as f64)),
            (
                "total_observed".into(),
                Json::Num(self.observed_total as f64),
            ),
            ("drift".into(), Json::Num(drift)),
            ("templates".into(), Json::Num(self.drift.templates() as f64)),
        ];
        if !diagnostics.is_empty() {
            fields.push((
                "errors".into(),
                Json::Arr(
                    diagnostics
                        .into_iter()
                        .map(|(i, m)| {
                            Json::Obj(vec![
                                ("index".into(), Json::Num(i as f64)),
                                ("message".into(), Json::Str(m)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }

        // Re-advise only when a previous recommendation exists to go
        // stale: drift before the first `recommend` is just warm-up.
        let crossed = self.last.is_some() && drift > self.drift_threshold;
        fields.push(("readvised".into(), Json::Bool(crossed)));
        if crossed {
            let (budget, algorithm) = self.last.unwrap_or((0, SearchAlgorithm::TopDownFull));
            let templates = self.drift.templates() as u64;
            let threshold = self.drift_threshold;
            self.params.journal.emit(|| Event::DriftDetected {
                drift,
                threshold,
                templates,
            });
            match self.recommend_inner(db, budget, algorithm) {
                Ok(rec) => {
                    self.readvises += 1;
                    fields.push(("recommendation".into(), render_recommendation(&rec)));
                }
                Err(e) => {
                    // The observations were accepted; a failed re-advise
                    // is reported inside the ok reply, not as a wire
                    // error.
                    let we = WireError::from_xia(&e);
                    fields.push((
                        "readvise_error".into(),
                        Json::Obj(vec![
                            ("kind".into(), Json::Str(we.kind.into())),
                            ("code".into(), Json::Num(we.code as f64)),
                            ("message".into(), Json::Str(we.message)),
                        ]),
                    ));
                }
            }
        }
        Ok(ok_reply(fields))
    }

    /// Handles `recommend`.
    pub fn recommend_reply(
        &mut self,
        db: &Database,
        budget: u64,
        algorithm: SearchAlgorithm,
    ) -> Result<String, WireError> {
        let rec = self
            .recommend_inner(db, budget, algorithm)
            .map_err(|e| WireError::from_xia(&e))?;
        Ok(ok_reply(vec![
            ("recommendation".into(), render_recommendation(&rec)),
            (
                "warm_costings".into(),
                Json::Num(self.tuning.warm_costings() as f64),
            ),
        ]))
    }

    /// Runs the advisor over the accumulated workload, then rebaselines
    /// drift and memorizes the request shape for future re-advises.
    fn recommend_inner(
        &mut self,
        db: &Database,
        budget: u64,
        algorithm: SearchAlgorithm,
    ) -> Result<Recommendation, xia_advisor::XiaError> {
        let rec = self.tuning.recommend(db, budget, algorithm)?;
        self.drift.rebaseline();
        self.last = Some((budget, algorithm));
        self.recommends += 1;
        Ok(rec)
    }

    /// The session's kept-cost gauges (read by the server after each
    /// request for its `metrics` verb).
    pub fn costing_gauges(&self) -> CostingGauges {
        let costing = self.tuning.costing();
        let (asked, served) = costing.hit_counts();
        CostingGauges {
            retained: costing.costings() as u64,
            asked,
            served,
        }
    }

    /// The session half of a `stats` reply: observation totals, drift
    /// state, kept-cost occupancy, and the full telemetry counter set.
    /// Every field is a deterministic function of this session's own
    /// request stream.
    pub fn stats_json(&self) -> Json {
        let counters = self
            .params
            .telemetry
            .counters()
            .into_iter()
            .map(|(name, v)| (name.to_string(), Json::Num(v as f64)))
            .collect();
        Json::Obj(vec![
            ("observed".into(), Json::Num(self.observed_total as f64)),
            (
                "quarantined".into(),
                Json::Num(self.quarantined_total as f64),
            ),
            (
                "distinct_statements".into(),
                Json::Num(self.tuning.workload().len() as f64),
            ),
            (
                "warm_costings".into(),
                Json::Num(self.tuning.warm_costings() as f64),
            ),
            ("drift".into(), Json::Num(self.drift.drift())),
            ("templates".into(), Json::Num(self.drift.templates() as f64)),
            ("recommends".into(), Json::Num(self.recommends as f64)),
            ("readvises".into(), Json::Num(self.readvises as f64)),
            (
                "journal_events".into(),
                Json::Num(self.params.journal.len() as f64),
            ),
            ("counters".into(), Json::Obj(counters)),
        ])
    }

    /// Handles `journal`: the session's decision-provenance journal as
    /// JSONL (same format `xia recommend --journal` writes).
    pub fn journal_reply(&self) -> String {
        ok_reply(vec![
            ("events".into(), Json::Num(self.params.journal.len() as f64)),
            (
                "dropped".into(),
                Json::Num(self.params.journal.dropped() as f64),
            ),
            ("jsonl".into(), Json::Str(self.params.journal.to_jsonl())),
        ])
    }

    /// Handles `reset`: discards all session state (workload, prepared
    /// candidates, kept costs, drift baseline, telemetry, journal).
    pub fn reset_reply(&mut self) -> String {
        self.params.telemetry.reset();
        self.params.journal.reset();
        self.tuning.reset();
        self.drift = DriftTracker::new();
        self.last = None;
        self.observed_total = 0;
        self.quarantined_total = 0;
        self.recommends = 0;
        self.readvises = 0;
        ok_reply(vec![("reset".into(), Json::Bool(true))])
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

    fn observe_lines(s: &mut ServerSession, db: &Database, texts: &[&str]) -> Json {
        let stmts: Vec<(String, f64)> = texts.iter().map(|t| (t.to_string(), 1.0)).collect();
        let reply = s.observe(db, &stmts).unwrap();
        Json::parse(&reply).unwrap()
    }

    const Q_SYMBOL: &str = r#"collection('SDOC')/Security[Symbol = "SYM00001"]"#;
    const Q_YIELD: &str = r#"collection('SDOC')/Security[Yield > 4.5]"#;

    #[test]
    fn observe_then_recommend_round_trip() {
        let db = db();
        let mut s = ServerSession::new(&SessionOptions::default());
        let v = observe_lines(&mut s, &db, &[Q_SYMBOL]);
        assert_eq!(v.get("observed").unwrap().as_num(), Some(1.0));
        assert_eq!(v.get("readvised"), Some(&Json::Bool(false)));
        let reply = s
            .recommend_reply(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
            .unwrap();
        let v = Json::parse(&reply).unwrap();
        let rec = v.get("recommendation").unwrap();
        assert!(!rec.get("indexes").unwrap().as_arr().unwrap().is_empty());
        assert!(rec
            .get("ddl")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("CREATE INDEX"));
        // Wall-clock fields must not leak into replies.
        assert!(rec.get("advisor_time").is_none());
    }

    #[test]
    fn unparseable_statements_quarantine_leniently() {
        let db = db();
        let mut s = ServerSession::new(&SessionOptions::default());
        let v = observe_lines(&mut s, &db, &[Q_SYMBOL, "NOT A STATEMENT ((("]);
        assert_eq!(v.get("observed").unwrap().as_num(), Some(1.0));
        assert_eq!(v.get("quarantined").unwrap().as_num(), Some(1.0));
        assert!(!v.get("errors").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn drift_crossing_readvises_exactly_once() {
        let db = db();
        let mut s = ServerSession::new(&SessionOptions {
            drift_threshold: 0.3,
            ..SessionOptions::default()
        });
        observe_lines(&mut s, &db, &[Q_SYMBOL]);
        s.recommend_reply(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
            .unwrap();
        assert_eq!(s.readvises(), 0);
        // Shift all new mass onto a different template: drift crosses the
        // threshold on this batch.
        let v = observe_lines(&mut s, &db, &[Q_YIELD, Q_YIELD, Q_YIELD]);
        assert_eq!(v.get("readvised"), Some(&Json::Bool(true)));
        assert!(v.get("recommendation").is_some());
        assert_eq!(s.readvises(), 1);
        // The baseline reset: the same mix again does not re-trigger.
        let v = observe_lines(&mut s, &db, &[Q_YIELD]);
        assert_eq!(v.get("readvised"), Some(&Json::Bool(false)));
        assert_eq!(s.readvises(), 1);
        // Exactly one drift_detected event in the journal.
        let journal = s.params.journal.to_jsonl();
        assert_eq!(
            journal.matches("\"drift_detected\"").count(),
            1,
            "journal:\n{journal}"
        );
    }

    #[test]
    fn no_readvise_before_first_recommend() {
        let db = db();
        let mut s = ServerSession::new(&SessionOptions {
            drift_threshold: 0.01,
            ..SessionOptions::default()
        });
        let v = observe_lines(&mut s, &db, &[Q_SYMBOL, Q_YIELD]);
        assert_eq!(v.get("readvised"), Some(&Json::Bool(false)));
        assert_eq!(s.readvises(), 0);
    }

    #[test]
    fn repeat_recommend_is_byte_identical_and_warm() {
        let db = db();
        let mut s = ServerSession::new(&SessionOptions::default());
        observe_lines(&mut s, &db, &[Q_SYMBOL, Q_YIELD]);
        let r1 = s
            .recommend_reply(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
            .unwrap();
        let r2 = s
            .recommend_reply(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
            .unwrap();
        assert_eq!(r1, r2, "a warm recommend must reproduce the reply bytes");
        let v = Json::parse(&r2).unwrap();
        assert!(v.get("warm_costings").unwrap().as_num().unwrap() > 0.0);
        // The repeat was answered from kept costs, not re-costed.
        let g = s.costing_gauges();
        assert_eq!(
            Some(g.retained as f64),
            v.get("warm_costings").unwrap().as_num()
        );
        assert!(g.served * 2 >= g.asked, "{g:?}");
    }

    #[test]
    fn reset_returns_the_session_to_cold() {
        let db = db();
        let mut s = ServerSession::new(&SessionOptions::default());
        observe_lines(&mut s, &db, &[Q_SYMBOL]);
        s.recommend_reply(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
            .unwrap();
        s.reset_reply();
        let v = s.stats_json();
        assert_eq!(v.get("observed").unwrap().as_num(), Some(0.0));
        assert_eq!(v.get("recommends").unwrap().as_num(), Some(0.0));
        assert_eq!(v.get("journal_events").unwrap().as_num(), Some(0.0));
        // Nothing survives a reset: the whole `stats` reply, counters and
        // kept costs included, is a new session's.
        let cold = ServerSession::new(&SessionOptions::default());
        assert_eq!(v.render(), cold.stats_json().render());
        assert_eq!(s.costing_gauges(), CostingGauges::default());
        let e = s
            .recommend_reply(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
            .unwrap_err();
        assert_eq!(e.code, 3, "empty workload after reset is an input error");
    }

    #[test]
    fn stats_reply_is_a_pure_function_of_the_request_stream() {
        let db = db();
        let mut s1 = ServerSession::new(&SessionOptions::default());
        let mut s2 = ServerSession::new(&SessionOptions::default());
        for s in [&mut s1, &mut s2] {
            observe_lines(s, &db, &[Q_SYMBOL, Q_YIELD]);
            s.recommend_reply(&db, u64::MAX / 2, SearchAlgorithm::GreedyHeuristics)
                .unwrap();
        }
        assert_eq!(s1.stats_json().render(), s2.stats_json().render());
        assert_eq!(s1.journal_reply(), s2.journal_reply());
    }
}
