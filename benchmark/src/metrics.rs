//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in
//! step. Bounds live only in `BENCHMARK.json`.

use std::collections::BTreeMap;
use xia_obs::json::Json;

/// Name and unit of one metric.
pub type MetricDef = (&'static str, &'static str);

/// The end-to-end metrics, the same seven for every workload.
pub const END_TO_END: [MetricDef; 7] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("est_speedup", "ratio"),
    ("nodes_speedup", "ratio"),
];

/// The per-layer metrics, in layer order. Layers are the crates.
pub const PER_LAYER: [MetricDef; 66] = [
    ("xml.parse_ms", "ms"),
    ("xml.parse_mb_per_s", "MB/s"),
    ("storage.ingest_ms", "ms"),
    ("storage.ingest_self_ms", "ms"),
    ("storage.ingest_nodes_per_s", "1/s"),
    ("storage.runstats_ms", "ms"),
    ("storage.persist_save_ms", "ms"),
    ("storage.image_bytes_per_xml_byte", "ratio"),
    ("storage.persist_load_ms", "ms"),
    ("storage.db_drop_ms", "ms"),
    ("storage.index_build_ms", "ms"),
    ("xpath.parse_stmts_per_s", "1/s"),
    ("xpath.workload_drop_ms", "ms"),
    ("xpath.covers_ns", "ns"),
    ("optimizer.enumerate_us_per_stmt", "us"),
    ("optimizer.whatif_us_per_call", "us"),
    ("optimizer.exec_scan_ms", "ms"),
    ("optimizer.exec_indexed_ms", "ms"),
    ("optimizer.exec_nodes_scan", "count"),
    ("optimizer.exec_nodes_indexed", "count"),
    ("optimizer.maintenance_us_per_update", "us"),
    ("advisor.enumerate_ms", "ms"),
    ("advisor.generalize_ms", "ms"),
    ("advisor.size_ms", "ms"),
    ("advisor.compress_ms", "ms"),
    ("advisor.templates", "count"),
    ("advisor.search_ms.greedy", "ms"),
    ("advisor.search_ms.heuristics", "ms"),
    ("advisor.search_ms.topdown-lite", "ms"),
    ("advisor.search_ms.topdown-full", "ms"),
    ("advisor.search_ms.dp", "ms"),
    ("advisor.search_ms.cophy", "ms"),
    ("advisor.whatif_calls.greedy", "count"),
    ("advisor.whatif_calls.heuristics", "count"),
    ("advisor.whatif_calls.topdown-lite", "count"),
    ("advisor.whatif_calls.topdown-full", "count"),
    ("advisor.whatif_calls.dp", "count"),
    ("advisor.whatif_calls.cophy", "count"),
    ("advisor.cache_hit_ratio", "ratio"),
    ("advisor.stmt_cache_hits", "count"),
    ("advisor.stmts_pruned", "count"),
    ("advisor.candidates_basic", "count"),
    ("advisor.candidates_total", "count"),
    ("server.parse_request_us", "us"),
    ("server.render_reply_us", "us"),
    ("server.session_round_ms", "ms"),
    ("server.round_p50_ms.c1", "ms"),
    ("server.round_p50_ms.c2", "ms"),
    ("server.contention_ratio", "ratio"),
    ("server.wire_overhead_ms", "ms"),
    ("server.verb_p50_ms.observe", "ms"),
    ("server.verb_p50_ms.recommend-first", "ms"),
    ("server.verb_p50_ms.recommend-warm", "ms"),
    ("server.verb_p50_ms.stats", "ms"),
    ("server.verb_p50_ms.reset", "ms"),
    ("server.requests_per_s", "1/s"),
    ("server.error_replies", "count"),
    ("server.rejected_conns", "count"),
    ("cli.overhead_ms", "ms"),
    ("driver.op_p50_ms", "ms"),
    ("driver.op_tail_ms", "ms"),
    ("driver.op_tail_pct", "%"),
    ("driver.samples", "count"),
    ("driver.cpu_s", "s"),
    ("driver.trace_overhead_pct", "%"),
    ("driver.stage_sum_pct", "%"),
];

/// Whether `name` is a legal metric or workload name: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run reports.
pub struct Outcome {
    /// Timed ops attempted.
    pub attempted: u64,
    /// Ops whose correctness check failed.
    pub failed: u64,
    /// Checks outside single ops that failed, in words.
    pub violations: Vec<String>,
    /// Findings that depend on the clock: printed, never a failure.
    pub warnings: Vec<String>,
    /// The measured values.
    pub values: Values,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every metric of `defs` and nothing else. A metric that was not
/// measured or is not finite is an error, never a silent gap.
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for &(name, unit) in defs {
        if !valid_name(name) {
            return Err(format!("`{name}` is not a legal metric name"));
        }
        let value = *outcome
            .values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct())),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit}"
            );
        }
        for algo in xia_advisor::SearchAlgorithm::ALL.map(|a| a.name()) {
            assert!(seen.contains(format!("advisor.search_ms.{algo}").as_str()));
            assert!(seen.contains(format!("advisor.whatif_calls.{algo}").as_str()));
        }
    }

    #[test]
    fn name_validation_rejects_what_the_contract_rejects() {
        for good in ["op_p50_ms", "advisor.search_ms.topdown-full", "9lives", "a"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let file = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = file
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("field").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = file
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut values = Values::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            values.insert(*name, 1.25 + i as f64);
        }
        let mut outcome = Outcome {
            attempted: 70,
            failed: 0,
            violations: Vec::new(),
            warnings: vec!["timings never fail a run".into()],
            values,
        };
        let line = result_line(&outcome, &END_TO_END).expect("complete");
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("valid JSON");
        let Json::Obj(fields) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_num), Some(70.0));
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = parsed.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(
            setup.and_then(|m| m.get("value")).and_then(Json::as_num),
            Some(1.25)
        );
        assert_eq!(
            setup.and_then(|m| m.get("unit")).and_then(Json::as_str),
            Some("s")
        );

        outcome.violations.push("replay differs".into());
        let line = result_line(&outcome, &END_TO_END).expect("complete");
        assert!(line.starts_with(r#"{"correct":false"#));

        // A missing, misnamed or non-finite metric is an error, not a gap.
        assert!(result_line(&outcome, &PER_LAYER).is_err());
        assert!(result_line(&outcome, &[("op p50", "ms")]).is_err());
        outcome.values.insert("op_p50_ms", f64::NAN);
        assert!(result_line(&outcome, &END_TO_END).is_err());
    }
}
