//! Wire protocol: line-delimited JSON requests and replies.
//!
//! One request per line, one reply per line. Every request is a JSON
//! object with a `verb` field; every reply is a JSON object whose first
//! field is `ok`. Error replies carry a typed error object mapped to the
//! CLI's exit-code taxonomy, so a scripted client can react the same way
//! it would to `xia` exit codes:
//!
//! ```text
//! {"ok":false,"error":{"kind":"input","code":3,"message":"..."}}
//! ```
//!
//! The parser is deliberately hostile-input proof: byte-capped lines
//! (enforced by the connection reader, [`MAX_LINE_BYTES`]), a cap on
//! statements per request ([`MAX_STATEMENTS_PER_REQUEST`]), and typed
//! errors for malformed JSON, wrong shapes, and unknown verbs. Nothing in
//! this module panics on untrusted input.

use xia_advisor::{Recommendation, SearchAlgorithm, XiaError};
use xia_obs::json::Json;

/// Hard cap on one request line, in bytes. Longer lines get an `input`
/// error and the connection is closed (the remainder of an oversized line
/// is not resynchronized).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Hard cap on statements in one `observe` request.
pub const MAX_STATEMENTS_PER_REQUEST: usize = 1024;

/// Every verb the server answers, in the order `hello` lists them.
pub const VERBS: [&str; 9] = [
    "hello",
    "ping",
    "observe",
    "recommend",
    "stats",
    "journal",
    "reset",
    "metrics",
    "shutdown",
];

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: server identity, limits, verbs.
    Hello,
    /// Liveness probe.
    Ping,
    /// Stream workload statements into the session.
    Observe {
        /// `(statement text, frequency)` pairs.
        statements: Vec<(String, f64)>,
    },
    /// Produce a recommendation for the observed workload.
    Recommend {
        /// Disk-space budget in bytes.
        budget: u64,
        /// Search algorithm.
        algorithm: SearchAlgorithm,
    },
    /// Session + server counters snapshot.
    Stats,
    /// The session's decision-provenance journal as JSONL.
    Journal,
    /// Discard all session state (workload, caches, drift baseline).
    Reset,
    /// Server-wide operational metrics: per-verb latency histograms,
    /// connection gauges, per-session kept-cost gauges. The one verb whose
    /// reply carries wall-clock values.
    Metrics,
    /// Stop the whole server.
    Shutdown,
}

/// A typed wire error: taxonomy kind, CLI-style exit code, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Taxonomy bucket: `usage`, `input`, `corrupt`, `internal`, `busy`.
    pub kind: &'static str,
    /// The exit code the `xia` CLI would use for this class of failure.
    pub code: i64,
    /// Human-readable message.
    pub message: String,
}

impl WireError {
    /// Malformed request shape: unknown verb, missing/ill-typed field.
    /// Mirrors CLI exit code 2.
    pub fn usage(message: impl Into<String>) -> Self {
        Self {
            kind: "usage",
            code: 2,
            message: message.into(),
        }
    }

    /// Bad payload: malformed JSON, oversized line, unparseable
    /// statement batch. Mirrors CLI exit code 3.
    pub fn input(message: impl Into<String>) -> Self {
        Self {
            kind: "input",
            code: 3,
            message: message.into(),
        }
    }

    /// Internal failure. Mirrors CLI exit code 5.
    pub fn internal(message: impl Into<String>) -> Self {
        Self {
            kind: "internal",
            code: 5,
            message: message.into(),
        }
    }

    /// Admission control rejected the connection (over the concurrent
    /// session cap). Uses the internal-class code: the request was valid,
    /// the server just cannot take it now.
    pub fn busy(message: impl Into<String>) -> Self {
        Self {
            kind: "busy",
            code: 5,
            message: message.into(),
        }
    }

    /// Maps an advisor error to the taxonomy the CLI uses for its exit
    /// code (bad workload input vs. corrupt database vs. internal).
    pub fn from_xia(e: &XiaError) -> Self {
        let message = e.chain().join(": ");
        match e.root() {
            XiaError::Persist(p) => match p {
                xia_storage::PersistError::Corrupt { .. }
                | xia_storage::PersistError::Format(_) => Self {
                    kind: "corrupt",
                    code: 4,
                    message,
                },
                _ => Self::input(message),
            },
            XiaError::Parse(_)
            | XiaError::Xml(_)
            | XiaError::EmptyWorkload
            | XiaError::AllStatementsQuarantined { .. }
            | XiaError::UnknownCollection(_) => Self::input(message),
            _ => Self::internal(message),
        }
    }

    /// Renders the one-line error reply.
    pub fn render(&self) -> String {
        Json::Obj(vec![
            ("ok".into(), Json::Bool(false)),
            (
                "error".into(),
                Json::Obj(vec![
                    ("kind".into(), Json::Str(self.kind.into())),
                    ("code".into(), Json::Num(self.code as f64)),
                    ("message".into(), Json::Str(self.message.clone())),
                ]),
            ),
        ])
        .render()
    }
}

/// Renders a success reply: `{"ok":true, ...fields}`.
pub fn ok_reply(fields: Vec<(String, Json)>) -> String {
    let mut all = vec![("ok".to_string(), Json::Bool(true))];
    all.extend(fields);
    Json::Obj(all).render()
}

/// Parses one request line. Every failure mode returns a typed error —
/// the caller renders it as the reply and decides whether to keep the
/// connection.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let value = Json::parse(line).map_err(|e| WireError::input(format!("malformed JSON: {e}")))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(WireError::usage("request must be a JSON object"));
    }
    let verb = value
        .get("verb")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::usage("missing string field `verb`"))?;
    match verb {
        "hello" => Ok(Request::Hello),
        "ping" => Ok(Request::Ping),
        "observe" => parse_observe(&value),
        "recommend" => parse_recommend(&value),
        "stats" => Ok(Request::Stats),
        "journal" => Ok(Request::Journal),
        "reset" => Ok(Request::Reset),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(WireError::usage(format!("unknown verb `{other}`"))),
    }
}

impl Request {
    /// The request's verb, as the client spelled it (an entry of
    /// [`VERBS`]).
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Hello => "hello",
            Request::Ping => "ping",
            Request::Observe { .. } => "observe",
            Request::Recommend { .. } => "recommend",
            Request::Stats => "stats",
            Request::Journal => "journal",
            Request::Reset => "reset",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }
}

fn parse_observe(value: &Json) -> Result<Request, WireError> {
    let items = value
        .get("statements")
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError::usage("observe requires an array field `statements`"))?;
    if items.len() > MAX_STATEMENTS_PER_REQUEST {
        return Err(WireError::input(format!(
            "too many statements in one request: {} (max {MAX_STATEMENTS_PER_REQUEST})",
            items.len()
        )));
    }
    let mut statements = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match item {
            Json::Str(text) => statements.push((text.clone(), 1.0)),
            Json::Obj(_) => {
                let text = item.get("text").and_then(Json::as_str).ok_or_else(|| {
                    WireError::usage(format!("statement #{i} needs a string field `text`"))
                })?;
                let freq = match item.get("freq") {
                    None => 1.0,
                    Some(f) => f
                        .as_num()
                        .filter(|f| f.is_finite() && *f >= 0.0)
                        .ok_or_else(|| {
                            WireError::usage(format!(
                                "statement #{i} has a bad `freq` (finite number >= 0 expected)"
                            ))
                        })?,
                };
                statements.push((text.to_string(), freq));
            }
            _ => {
                return Err(WireError::usage(format!(
                    "statement #{i} must be a string or an object with `text`"
                )))
            }
        }
    }
    Ok(Request::Observe { statements })
}

fn parse_recommend(value: &Json) -> Result<Request, WireError> {
    let budget = value
        .get("budget")
        .and_then(Json::as_num)
        .filter(|b| b.is_finite() && *b >= 0.0 && *b <= 9.0e15)
        .ok_or_else(|| {
            WireError::usage("recommend requires a numeric field `budget` (bytes, >= 0)")
        })? as u64;
    let algorithm = match value.get("algo") {
        None => SearchAlgorithm::TopDownFull,
        Some(a) => {
            let name = a
                .as_str()
                .ok_or_else(|| WireError::usage("`algo` must be a string"))?;
            SearchAlgorithm::ALL
                .iter()
                .copied()
                .find(|a| a.name() == name)
                .ok_or_else(|| {
                    let known: Vec<&str> = SearchAlgorithm::ALL.iter().map(|a| a.name()).collect();
                    WireError::usage(format!(
                        "unknown algorithm `{name}` (expected one of {})",
                        known.join(", ")
                    ))
                })?
        }
    };
    Ok(Request::Recommend { budget, algorithm })
}

/// Renders a recommendation for a reply. Wall-clock fields
/// (`advisor_time`) are deliberately excluded so replies are byte-stable
/// across runs and machines; everything included is a deterministic
/// function of the request stream.
pub fn render_recommendation(rec: &Recommendation) -> Json {
    let indexes = rec
        .indexes
        .iter()
        .map(|ix| {
            Json::Obj(vec![
                ("collection".into(), Json::Str(ix.collection.clone())),
                ("pattern".into(), Json::Str(ix.pattern.clone())),
                ("kind".into(), Json::Str(ix.kind.to_string())),
                ("size".into(), Json::Num(ix.size as f64)),
                ("general".into(), Json::Bool(ix.general)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("indexes".into(), Json::Arr(indexes)),
        ("ddl".into(), Json::Str(rec.ddl())),
        ("est_benefit".into(), Json::Num(rec.est_benefit)),
        ("baseline_cost".into(), Json::Num(rec.baseline_cost)),
        ("workload_cost".into(), Json::Num(rec.workload_cost)),
        ("speedup".into(), Json::Num(rec.speedup)),
        ("total_size".into(), Json::Num(rec.total_size as f64)),
        ("general_count".into(), Json::Num(rec.general_count as f64)),
        (
            "specific_count".into(),
            Json::Num(rec.specific_count as f64),
        ),
        (
            "candidates_basic".into(),
            Json::Num(rec.candidates_basic as f64),
        ),
        (
            "candidates_total".into(),
            Json::Num(rec.candidates_total as f64),
        ),
        (
            "quarantined".into(),
            Json::Num(rec.quarantined.len() as f64),
        ),
        ("degraded".into(), Json::Bool(rec.degraded)),
        (
            "cost_fallbacks".into(),
            Json::Num(rec.cost_fallbacks as f64),
        ),
        ("complete".into(), Json::Bool(rec.complete)),
    ];
    if let Some(stop) = &rec.stop {
        fields.push(("stop".into(), Json::Str(format!("{stop:?}"))));
    }
    if !rec.warnings.is_empty() {
        fields.push((
            "warnings".into(),
            Json::Arr(rec.warnings.iter().cloned().map(Json::Str).collect()),
        ));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_plain_verb() {
        for (verb, want) in [
            ("hello", Request::Hello),
            ("ping", Request::Ping),
            ("stats", Request::Stats),
            ("journal", Request::Journal),
            ("reset", Request::Reset),
            ("metrics", Request::Metrics),
            ("shutdown", Request::Shutdown),
        ] {
            let req = parse_request(&format!(r#"{{"verb":"{verb}"}}"#)).unwrap();
            assert_eq!(req, want);
            assert_eq!(req.verb(), verb);
            assert!(VERBS.contains(&verb));
        }
    }

    #[test]
    fn parses_observe_with_mixed_statement_shapes() {
        let req = parse_request(
            r#"{"verb":"observe","statements":["q1",{"text":"q2","freq":2.5},{"text":"q3"}]}"#,
        )
        .unwrap();
        let Request::Observe { statements } = req else {
            panic!("wrong verb");
        };
        assert_eq!(
            statements,
            vec![
                ("q1".to_string(), 1.0),
                ("q2".to_string(), 2.5),
                ("q3".to_string(), 1.0)
            ]
        );
    }

    #[test]
    fn parses_recommend_with_default_algorithm() {
        let req = parse_request(r#"{"verb":"recommend","budget":1048576}"#).unwrap();
        assert_eq!(
            req,
            Request::Recommend {
                budget: 1_048_576,
                algorithm: SearchAlgorithm::TopDownFull
            }
        );
        let req = parse_request(r#"{"verb":"recommend","budget":10,"algo":"heuristics"}"#).unwrap();
        assert_eq!(
            req,
            Request::Recommend {
                budget: 10,
                algorithm: SearchAlgorithm::GreedyHeuristics
            }
        );
    }

    #[test]
    fn malformed_json_is_an_input_error() {
        let e = parse_request("{not json").unwrap_err();
        assert_eq!(e.kind, "input");
        assert_eq!(e.code, 3);
        assert!(e.message.contains("malformed JSON"), "{}", e.message);
    }

    #[test]
    fn shape_errors_are_usage_errors() {
        for line in [
            "[1,2,3]",
            r#"{"verb":42}"#,
            r#"{"noverb":true}"#,
            r#"{"verb":"frobnicate"}"#,
            r#"{"verb":"observe"}"#,
            r#"{"verb":"observe","statements":[42]}"#,
            r#"{"verb":"observe","statements":[{"freq":1}]}"#,
            r#"{"verb":"recommend"}"#,
            r#"{"verb":"recommend","budget":"big"}"#,
            r#"{"verb":"recommend","budget":10,"algo":"quantum"}"#,
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.kind, "usage", "line: {line}");
            assert_eq!(e.code, 2, "line: {line}");
        }
    }

    #[test]
    fn hostile_numbers_are_rejected() {
        for line in [
            r#"{"verb":"recommend","budget":-1}"#,
            r#"{"verb":"recommend","budget":1e300}"#,
            r#"{"verb":"observe","statements":[{"text":"q","freq":-2}]}"#,
            r#"{"verb":"observe","statements":[{"text":"q","freq":1e999}]}"#,
        ] {
            assert!(parse_request(line).is_err(), "line: {line}");
        }
    }

    #[test]
    fn statement_cap_is_enforced() {
        let stmts: Vec<String> = (0..=MAX_STATEMENTS_PER_REQUEST)
            .map(|i| format!(r#""q{i}""#))
            .collect();
        let line = format!(r#"{{"verb":"observe","statements":[{}]}}"#, stmts.join(","));
        let e = parse_request(&line).unwrap_err();
        assert_eq!(e.kind, "input");
        assert!(e.message.contains("too many statements"), "{}", e.message);
    }

    #[test]
    fn error_replies_render_the_taxonomy() {
        let text = WireError::input("bad payload").render();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        let err = v.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("input"));
        assert_eq!(err.get("code").unwrap().as_num(), Some(3.0));
        assert_eq!(err.get("message").unwrap().as_str(), Some("bad payload"));
    }

    #[test]
    fn xia_errors_map_like_cli_exit_codes() {
        assert_eq!(
            WireError::from_xia(&XiaError::EmptyWorkload).code,
            3,
            "input class"
        );
        assert_eq!(
            WireError::from_xia(&XiaError::Internal("bug".into())).code,
            5,
            "internal class"
        );
        let wrapped = XiaError::UnknownCollection("X".into()).context("while advising");
        let e = WireError::from_xia(&wrapped);
        assert_eq!(e.code, 3);
        assert!(e.message.contains("while advising"), "{}", e.message);
    }

    #[test]
    fn ok_reply_leads_with_ok_true() {
        let line = ok_reply(vec![("pong".into(), Json::Bool(true))]);
        assert_eq!(line, r#"{"ok":true,"pong":true}"#);
    }
}
