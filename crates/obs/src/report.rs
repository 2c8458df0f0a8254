//! Structured trace reports: counters + phase tree + per-statement costs,
//! serializable to JSON and pretty text.

use crate::hist::HistSummary;
use crate::json::Json;
use crate::span::SpanSnapshot;
use std::fmt::Write as _;

/// Before/after estimated cost of one workload statement under a
/// recommended configuration (the `explain` subcommand's what-if rows).
#[derive(Debug, Clone, PartialEq)]
pub struct StatementTrace {
    /// Statement text (first line / truncated form is fine).
    pub statement: String,
    /// Estimated cost with no candidate indexes.
    pub base_cost: f64,
    /// Estimated cost under the recommended configuration.
    pub new_cost: f64,
}

/// A complete trace snapshot of one advisor run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Every counter with its value, in declaration order.
    pub counters: Vec<(String, u64)>,
    /// Events the decision journal's ring buffer dropped (oldest first)
    /// because it overflowed. Non-zero means provenance replay over this
    /// run's journal sees an incomplete chain.
    pub dropped_events: u64,
    /// Phase-timing tree roots.
    pub phases: Vec<SpanSnapshot>,
    /// Named latency distributions ([`crate::Hist::ALL`] order): what-if
    /// calls, containment checks, ….
    pub latencies: Vec<(String, HistSummary)>,
    /// Optional per-statement what-if costs.
    pub statements: Vec<StatementTrace>,
}

impl TraceReport {
    /// Adds a per-statement what-if cost row.
    pub fn push_statement(&mut self, statement: impl Into<String>, base_cost: f64, new_cost: f64) {
        self.statements.push(StatementTrace {
            statement: statement.into(),
            base_cost,
            new_cost,
        });
    }

    /// Value of a counter by name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Machine-readable JSON rendering.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "dropped_events".to_string(),
                Json::Num(self.dropped_events as f64),
            ),
            (
                "phases".to_string(),
                Json::Arr(self.phases.iter().map(span_to_json).collect()),
            ),
            (
                "latencies".to_string(),
                Json::Obj(
                    self.latencies
                        .iter()
                        .map(|(k, s)| (k.clone(), hist_summary_to_json(s)))
                        .collect(),
                ),
            ),
            (
                "statements".to_string(),
                Json::Arr(
                    self.statements
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("statement".to_string(), Json::Str(s.statement.clone())),
                                ("base_cost".to_string(), Json::Num(s.base_cost)),
                                ("new_cost".to_string(), Json::Num(s.new_cost)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a report back from its JSON rendering (used by tests and
    /// external tooling).
    pub fn from_json(text: &str) -> Result<TraceReport, String> {
        let v = Json::parse(text)?;
        let counters = match v.get("counters") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_num()
                        .map(|n| (k.clone(), n as u64))
                        .ok_or_else(|| format!("counter `{k}` is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing `counters` object".to_string()),
        };
        // Lenient: reports written before the journal-overflow counter
        // existed simply report zero drops.
        let dropped_events = v
            .get("dropped_events")
            .and_then(Json::as_num)
            .unwrap_or(0.0) as u64;
        let phases = match v.get("phases") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(span_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing `phases` array".to_string()),
        };
        // Lenient: reports written before latency histograms existed
        // simply have no distributions.
        let latencies = match v.get("latencies") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), hist_summary_from_json(v)?)))
                .collect::<Result<Vec<_>, String>>()?,
            _ => Vec::new(),
        };
        let statements = match v.get("statements") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|s| {
                    Ok(StatementTrace {
                        statement: s
                            .get("statement")
                            .and_then(Json::as_str)
                            .ok_or("statement text missing")?
                            .to_string(),
                        base_cost: s
                            .get("base_cost")
                            .and_then(Json::as_num)
                            .ok_or("base_cost missing")?,
                        new_cost: s
                            .get("new_cost")
                            .and_then(Json::as_num)
                            .ok_or("new_cost missing")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing `statements` array".to_string()),
        };
        Ok(TraceReport {
            counters,
            dropped_events,
            phases,
            latencies,
            statements,
        })
    }

    /// Human-readable rendering: phase tree, then non-zero counters, then
    /// statement costs.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("phases:\n");
        if self.phases.is_empty() {
            out.push_str("  (none recorded)\n");
        }
        for root in &self.phases {
            render_span(root, 1, &mut out);
        }
        out.push_str("counters:\n");
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(0);
        for (name, value) in &self.counters {
            if *value > 0 {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "journal: ring buffer dropped {} event{} — provenance replay is incomplete",
                self.dropped_events,
                if self.dropped_events == 1 { "" } else { "s" }
            );
        }
        if self.latencies.iter().any(|(_, s)| s.count > 0) {
            out.push_str("latencies:\n");
            let width = self
                .latencies
                .iter()
                .filter(|(_, s)| s.count > 0)
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            for (name, s) in &self.latencies {
                if s.count > 0 {
                    let _ = writeln!(
                        out,
                        "  {name:<width$}  {} sample{}  {}",
                        s.count,
                        if s.count == 1 { "" } else { "s" },
                        render_percentiles(s)
                    );
                }
            }
        }
        if !self.statements.is_empty() {
            out.push_str("statement what-if costs:\n");
            for s in &self.statements {
                let pct = if s.base_cost > 0.0 {
                    100.0 * (s.base_cost - s.new_cost) / s.base_cost
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  {:>12.1} -> {:>12.1}  ({pct:>5.1}% off)  {}",
                    s.base_cost, s.new_cost, s.statement
                );
            }
        }
        out
    }
}

/// Renders a latency summary as a JSON object (all values nanoseconds).
pub fn hist_summary_to_json(s: &HistSummary) -> Json {
    Json::Obj(vec![
        ("count".to_string(), Json::Num(s.count as f64)),
        ("p50_ns".to_string(), Json::Num(s.p50_ns as f64)),
        ("p95_ns".to_string(), Json::Num(s.p95_ns as f64)),
        ("p99_ns".to_string(), Json::Num(s.p99_ns as f64)),
        ("max_ns".to_string(), Json::Num(s.max_ns as f64)),
    ])
}

/// Parses a latency summary back from its JSON object form.
pub(crate) fn hist_summary_from_json(v: &Json) -> Result<HistSummary, String> {
    let field = |k: &str| {
        v.get(k)
            .and_then(Json::as_num)
            .map(|n| n as u64)
            .ok_or_else(|| format!("latency summary missing `{k}`"))
    };
    Ok(HistSummary {
        count: field("count")?,
        p50_ns: field("p50_ns")?,
        p95_ns: field("p95_ns")?,
        p99_ns: field("p99_ns")?,
        max_ns: field("max_ns")?,
    })
}

fn span_to_json(s: &SpanSnapshot) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(s.name.clone())),
        ("micros".to_string(), Json::Num(s.micros as f64)),
        ("calls".to_string(), Json::Num(s.calls as f64)),
        ("latency".to_string(), hist_summary_to_json(&s.latency)),
        (
            "children".to_string(),
            Json::Arr(s.children.iter().map(span_to_json).collect()),
        ),
    ])
}

fn span_from_json(v: &Json) -> Result<SpanSnapshot, String> {
    Ok(SpanSnapshot {
        name: v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("span name missing")?
            .to_string(),
        micros: v
            .get("micros")
            .and_then(Json::as_num)
            .ok_or("span micros missing")? as u64,
        calls: v
            .get("calls")
            .and_then(Json::as_num)
            .ok_or("span calls missing")? as u64,
        // Lenient: spans from pre-histogram reports carry no latency.
        latency: match v.get("latency") {
            Some(l) => hist_summary_from_json(l)?,
            None => HistSummary::default(),
        },
        children: match v.get("children") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(span_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        },
    })
}

/// `p50/p95/p99/max` in milliseconds, compact.
fn render_percentiles(s: &HistSummary) -> String {
    let ms = |ns: u64| ns as f64 / 1_000_000.0;
    format!(
        "p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
        ms(s.p50_ns),
        ms(s.p95_ns),
        ms(s.p99_ns),
        ms(s.max_ns)
    )
}

fn render_span(s: &SpanSnapshot, depth: usize, out: &mut String) {
    let detail = if s.calls > 1 {
        format!("  [{}]", render_percentiles(&s.latency))
    } else {
        String::new()
    };
    let _ = writeln!(
        out,
        "{:indent$}{:<24} {:>10.3} ms  ({} call{}){detail}",
        "",
        s.name,
        s.micros as f64 / 1_000.0,
        s.calls,
        if s.calls == 1 { "" } else { "s" },
        indent = depth * 2
    );
    for c in &s.children {
        render_span(c, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Telemetry};

    fn sample() -> TraceReport {
        let t = Telemetry::new();
        t.add(Counter::OptimizerEvaluateCalls, 42);
        t.add(Counter::BenefitCacheHits, 7);
        {
            let _a = t.span("advise");
            let _b = t.span("search");
            let _c = t.span("evaluate");
        }
        let mut report = t.report();
        report.push_statement("for $s in SECURITY('SDOC')/Security \"q\"", 120.5, 10.25);
        report
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let report = sample();
        let back = TraceReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn json_contains_counters_and_nested_phases() {
        let report = sample();
        let v = Json::parse(&report.to_json()).unwrap();
        let counters = v.get("counters").unwrap();
        assert_eq!(
            counters.get("optimizer_evaluate_calls").unwrap().as_num(),
            Some(42.0)
        );
        let phases = v.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases[0].get("name").unwrap().as_str(), Some("advise"));
        let search = &phases[0].get("children").unwrap().as_arr().unwrap()[0];
        assert_eq!(search.get("name").unwrap().as_str(), Some("search"));
    }

    #[test]
    fn text_rendering_mentions_phases_and_counters() {
        let text = sample().to_text();
        assert!(text.contains("advise"));
        assert!(text.contains("evaluate"));
        assert!(text.contains("optimizer_evaluate_calls"));
        assert!(text.contains("42"));
        // Zero counters are suppressed in text form.
        assert!(!text.contains("topdown_expansions"));
        assert!(text.contains("what-if"));
    }

    #[test]
    fn latency_sections_render_and_round_trip() {
        let t = Telemetry::new();
        t.record_nanos(crate::Hist::WhatIfCall, 2_000_000);
        t.record_nanos(crate::Hist::WhatIfCall, 3_000_000);
        let report = t.report();
        let text = report.to_text();
        assert!(text.contains("latencies:"));
        assert!(text.contains("what_if_call"));
        assert!(text.contains("p95"));
        // Zero-sample histograms stay out of the text form.
        assert!(!text.contains("contain_check"));
        let back = TraceReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn from_json_tolerates_reports_without_latencies() {
        let report = TraceReport {
            counters: vec![("benefit_cache_hits".to_string(), 1)],
            dropped_events: 0,
            phases: Vec::new(),
            latencies: Vec::new(),
            statements: Vec::new(),
        };
        let text = r#"{"counters":{"benefit_cache_hits":1},"phases":[],"statements":[]}"#;
        assert_eq!(TraceReport::from_json(text).unwrap(), report);
    }

    #[test]
    fn dropped_events_render_and_round_trip() {
        let mut report = sample();
        assert!(!report.to_text().contains("dropped"));
        report.dropped_events = 3;
        let text = report.to_text();
        assert!(text.contains("dropped 3 events"));
        assert!(text.contains("incomplete"));
        let back = TraceReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.dropped_events, 3);
        assert_eq!(back, report);
    }

    #[test]
    fn counter_lookup_by_name() {
        let report = sample();
        assert_eq!(report.counter("benefit_cache_hits"), Some(7));
        assert_eq!(report.counter("nope"), None);
    }
}
