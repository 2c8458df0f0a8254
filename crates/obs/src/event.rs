//! Typed decision-provenance events emitted by the advisor pipeline.
//!
//! Every order-sensitive decision the advisor makes — candidate creation,
//! pair generalization, heuristic prunes, what-if evaluations, knapsack
//! admissions, degradations — has a structured event here. Events carry
//! *no wall-clock data*, and every emission site runs on the coordinator
//! thread in deterministic order, so a journal's JSONL rendering is
//! byte-identical for any `--jobs` value.

use crate::json::Json;

/// Why a candidate was rejected by a search heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// The candidate's workload coverage is already provided by the
    /// chosen configuration (redundancy bitmap, paper Section VI-A).
    CoverageRedundant,
    /// The β size rule: the general index is too large relative to the
    /// specifics it replaces.
    SizeRule,
    /// The general index's improved benefit fell below the specifics it
    /// would replace (Heuristic 1).
    BenefitGate,
    /// Dropped by the final redundancy pass: no plan of the compiled
    /// workload uses the index.
    NotUsedInPlan,
    /// Replaced by its DAG children during top-down refinement.
    Replaced,
}

impl PruneReason {
    /// Stable snake_case name used in the JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            PruneReason::CoverageRedundant => "coverage_redundant",
            PruneReason::SizeRule => "size_rule",
            PruneReason::BenefitGate => "benefit_gate",
            PruneReason::NotUsedInPlan => "not_used_in_plan",
            PruneReason::Replaced => "replaced",
        }
    }

    fn parse(s: &str) -> Option<PruneReason> {
        [
            PruneReason::CoverageRedundant,
            PruneReason::SizeRule,
            PruneReason::BenefitGate,
            PruneReason::NotUsedInPlan,
            PruneReason::Replaced,
        ]
        .into_iter()
        .find(|r| r.name() == s)
    }
}

/// One structured pipeline event. Field values are pattern *strings*
/// (not candidate ids) so a journal replays without the candidate set.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A candidate entered the candidate set (enumeration or
    /// generalization). `origin` is `"basic"` or `"generalized"`.
    CandidateGenerated {
        /// Collection the candidate indexes.
        collection: String,
        /// Index pattern (linear XPath).
        pattern: String,
        /// Key type name (`string` / `numerical`).
        kind: String,
        /// `"basic"` or `"generalized"`.
        origin: String,
    },
    /// A statement pair generalized into a new pattern (Algorithm 1).
    /// Recorded for the *first* derivation of each new pattern.
    PairGeneralized {
        /// Collection of the pair.
        collection: String,
        /// First input pattern.
        left: String,
        /// Second input pattern.
        right: String,
        /// The generalization produced.
        result: String,
    },
    /// A search heuristic rejected a candidate.
    CandidatePruned {
        /// The rejected candidate's pattern.
        pattern: String,
        /// Which heuristic fired.
        reason: PruneReason,
    },
    /// One sub-configuration benefit evaluation resolved.
    WhatIfEvaluated {
        /// Patterns of the evaluated sub-configuration, in key order.
        config: Vec<String>,
        /// Query-side benefit of the sub-configuration
        /// (`Σ freq·(baseline − indexed)`, the cached value).
        cost: f64,
        /// Served from the benefit cache (or a duplicate within the
        /// batch) instead of fanning out optimizer calls.
        cache_hit: bool,
    },
    /// A search weighed a candidate against the current configuration.
    /// The last decision for a pattern is the final one.
    KnapsackDecision {
        /// The candidate's pattern.
        pattern: String,
        /// Admitted into (or confirmed in) the configuration.
        kept: bool,
        /// The configuration benefit that justified the decision.
        benefit: f64,
        /// Estimated candidate size in bytes.
        size: u64,
    },
    /// An injected (or organic) optimizer fault degraded one statement
    /// costing to the heuristic fallback.
    FaultInjected {
        /// Workload statement index whose costing degraded.
        statement: usize,
    },
    /// The what-if budget ran out; later evaluations degrade to cached
    /// and heuristic costs. Emitted once per evaluator.
    BudgetExhausted {
        /// Optimizer calls charged when the budget tripped.
        charged: u64,
    },
    /// The run controller stopped the run before the search finished;
    /// the recommendation is the best configuration found so far.
    RunStopped {
        /// Why the run stopped (`deadline` / `cancelled`).
        reason: String,
    },
    /// The workload was compressed into weighted cost-identity templates
    /// before the search (CoPhy-style advising).
    WorkloadCompressed {
        /// Statements in the original workload.
        statements: u64,
        /// Weighted templates the search actually costs.
        templates: u64,
    },
    /// The `cophy` LP/knapsack relaxation solved. `bound` is the
    /// fractional (LP) optimum — an upper bound on any integer
    /// configuration's benefit; `value` is the rounded solution's benefit.
    LpRelaxed {
        /// Fractional LP optimum (upper bound).
        bound: f64,
        /// Benefit of the rounded integer solution.
        value: f64,
        /// Relaxation loop iterations.
        iterations: u64,
    },
    /// The template-mass distribution of the observed workload drifted
    /// past the configured threshold since the last recommendation; the
    /// serving layer re-advises incrementally and rebaselines.
    DriftDetected {
        /// Total-variation distance between the current and baseline
        /// template-mass distributions, in `[0, 1]`.
        drift: f64,
        /// The configured re-advise threshold that was crossed.
        threshold: f64,
        /// Distinct templates in the current distribution.
        templates: u64,
    },
}

impl Event {
    /// Stable snake_case tag used as the JSONL `event` field.
    pub fn name(&self) -> &'static str {
        match self {
            Event::CandidateGenerated { .. } => "candidate_generated",
            Event::PairGeneralized { .. } => "pair_generalized",
            Event::CandidatePruned { .. } => "candidate_pruned",
            Event::WhatIfEvaluated { .. } => "what_if_evaluated",
            Event::KnapsackDecision { .. } => "knapsack_decision",
            Event::FaultInjected { .. } => "fault_injected",
            Event::BudgetExhausted { .. } => "budget_exhausted",
            Event::RunStopped { .. } => "run_stopped",
            Event::WorkloadCompressed { .. } => "workload_compressed",
            Event::LpRelaxed { .. } => "lp_relaxed",
            Event::DriftDetected { .. } => "drift_detected",
        }
    }

    /// The JSON object for one journal line (without the `seq` field,
    /// which the journal prepends).
    pub(crate) fn fields(&self) -> Vec<(String, Json)> {
        let s = |v: &str| Json::Str(v.to_string());
        match self {
            Event::CandidateGenerated {
                collection,
                pattern,
                kind,
                origin,
            } => vec![
                ("collection".into(), s(collection)),
                ("pattern".into(), s(pattern)),
                ("kind".into(), s(kind)),
                ("origin".into(), s(origin)),
            ],
            Event::PairGeneralized {
                collection,
                left,
                right,
                result,
            } => vec![
                ("collection".into(), s(collection)),
                ("left".into(), s(left)),
                ("right".into(), s(right)),
                ("result".into(), s(result)),
            ],
            Event::CandidatePruned { pattern, reason } => vec![
                ("pattern".into(), s(pattern)),
                ("reason".into(), s(reason.name())),
            ],
            Event::WhatIfEvaluated {
                config,
                cost,
                cache_hit,
            } => vec![
                (
                    "config".into(),
                    Json::Arr(config.iter().map(|p| s(p)).collect()),
                ),
                ("cost".into(), Json::Num(*cost)),
                ("cache_hit".into(), Json::Bool(*cache_hit)),
            ],
            Event::KnapsackDecision {
                pattern,
                kept,
                benefit,
                size,
            } => vec![
                ("pattern".into(), s(pattern)),
                ("kept".into(), Json::Bool(*kept)),
                ("benefit".into(), Json::Num(*benefit)),
                ("size".into(), Json::Num(*size as f64)),
            ],
            Event::FaultInjected { statement } => {
                vec![("statement".into(), Json::Num(*statement as f64))]
            }
            Event::BudgetExhausted { charged } => {
                vec![("charged".into(), Json::Num(*charged as f64))]
            }
            Event::RunStopped { reason } => vec![("reason".into(), s(reason))],
            Event::WorkloadCompressed {
                statements,
                templates,
            } => vec![
                ("statements".into(), Json::Num(*statements as f64)),
                ("templates".into(), Json::Num(*templates as f64)),
            ],
            Event::LpRelaxed {
                bound,
                value,
                iterations,
            } => vec![
                ("bound".into(), Json::Num(*bound)),
                ("value".into(), Json::Num(*value)),
                ("iterations".into(), Json::Num(*iterations as f64)),
            ],
            Event::DriftDetected {
                drift,
                threshold,
                templates,
            } => vec![
                ("drift".into(), Json::Num(*drift)),
                ("threshold".into(), Json::Num(*threshold)),
                ("templates".into(), Json::Num(*templates as f64)),
            ],
        }
    }

    /// Parses an event back from a journal line's JSON object.
    pub(crate) fn from_json(v: &Json) -> Result<Event, String> {
        let tag = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or("missing `event` tag")?;
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{tag}: missing `{k}`"))
        };
        let num_field = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{tag}: missing `{k}`"))
        };
        let bool_field = |k: &str| -> Result<bool, String> {
            match v.get(k) {
                Some(Json::Bool(b)) => Ok(*b),
                _ => Err(format!("{tag}: missing `{k}`")),
            }
        };
        Ok(match tag {
            "candidate_generated" => Event::CandidateGenerated {
                collection: str_field("collection")?,
                pattern: str_field("pattern")?,
                kind: str_field("kind")?,
                origin: str_field("origin")?,
            },
            "pair_generalized" => Event::PairGeneralized {
                collection: str_field("collection")?,
                left: str_field("left")?,
                right: str_field("right")?,
                result: str_field("result")?,
            },
            "candidate_pruned" => Event::CandidatePruned {
                pattern: str_field("pattern")?,
                reason: PruneReason::parse(&str_field("reason")?)
                    .ok_or_else(|| format!("unknown prune reason in {tag}"))?,
            },
            "what_if_evaluated" => Event::WhatIfEvaluated {
                config: match v.get("config") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|p| {
                            p.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "non-string config member".to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(format!("{tag}: missing `config`")),
                },
                cost: num_field("cost")?,
                cache_hit: bool_field("cache_hit")?,
            },
            "knapsack_decision" => Event::KnapsackDecision {
                pattern: str_field("pattern")?,
                kept: bool_field("kept")?,
                benefit: num_field("benefit")?,
                size: num_field("size")? as u64,
            },
            "fault_injected" => Event::FaultInjected {
                statement: num_field("statement")? as usize,
            },
            "budget_exhausted" => Event::BudgetExhausted {
                charged: num_field("charged")? as u64,
            },
            "run_stopped" => Event::RunStopped {
                reason: str_field("reason")?,
            },
            "workload_compressed" => Event::WorkloadCompressed {
                statements: num_field("statements")? as u64,
                templates: num_field("templates")? as u64,
            },
            "lp_relaxed" => Event::LpRelaxed {
                bound: num_field("bound")?,
                value: num_field("value")?,
                iterations: num_field("iterations")? as u64,
            },
            "drift_detected" => Event::DriftDetected {
                drift: num_field("drift")?,
                threshold: num_field("threshold")?,
                templates: num_field("templates")? as u64,
            },
            other => return Err(format!("unknown event tag `{other}`")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::EventJournal;

    fn samples() -> Vec<Event> {
        vec![
            Event::CandidateGenerated {
                collection: "SDOC".into(),
                pattern: "/Security/Symbol".into(),
                kind: "string".into(),
                origin: "basic".into(),
            },
            Event::PairGeneralized {
                collection: "SDOC".into(),
                left: "/Security/Symbol".into(),
                right: "/Security/SecInfo/*/Sector".into(),
                result: "/Security//*".into(),
            },
            Event::CandidatePruned {
                pattern: "/Security//*".into(),
                reason: PruneReason::SizeRule,
            },
            Event::WhatIfEvaluated {
                config: vec!["/Security/Symbol".into(), "/Security/Yield".into()],
                cost: 1234.5,
                cache_hit: false,
            },
            Event::KnapsackDecision {
                pattern: "/Security/Symbol".into(),
                kept: true,
                benefit: 99.25,
                size: 4096,
            },
            Event::FaultInjected { statement: 3 },
            Event::BudgetExhausted { charged: 500 },
            Event::RunStopped {
                reason: "deadline".into(),
            },
            Event::WorkloadCompressed {
                statements: 100_000,
                templates: 412,
            },
            Event::LpRelaxed {
                bound: 512.75,
                value: 498.5,
                iterations: 7,
            },
            Event::DriftDetected {
                drift: 0.375,
                threshold: 0.2,
                templates: 12,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_jsonl() {
        let j = EventJournal::new();
        for e in samples() {
            j.emit(|| e.clone());
        }
        let text = j.to_jsonl();
        let back = EventJournal::parse_jsonl(&text).unwrap();
        assert_eq!(back.len(), samples().len());
        for (i, (seq, event)) in back.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*event, samples()[i]);
        }
    }

    #[test]
    fn prune_reasons_round_trip() {
        for r in [
            PruneReason::CoverageRedundant,
            PruneReason::SizeRule,
            PruneReason::BenefitGate,
            PruneReason::NotUsedInPlan,
            PruneReason::Replaced,
        ] {
            assert_eq!(PruneReason::parse(r.name()), Some(r));
        }
        assert_eq!(PruneReason::parse("nope"), None);
    }
}
