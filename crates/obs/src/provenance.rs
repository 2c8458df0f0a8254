//! Provenance replay: reconstruct why an index pattern was recommended
//! (or not) from a decision journal.
//!
//! [`explain_why`] walks a journal's `(seq, event)` stream and prints the
//! derivation chain for one pattern: how it entered the candidate set
//! (enumeration, or which statement pair generalized into it — followed
//! recursively down to basic candidates), which heuristic prunes it hit,
//! its benefit deltas across the search rounds, and the final knapsack
//! decision. Works on a live [`crate::EventJournal`] snapshot or on
//! events re-read from a JSONL file.

use crate::event::Event;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Structured derivation chain for one pattern.
#[derive(Debug, Clone, Default)]
pub struct Derivation {
    /// `CandidateGenerated` origin (`basic` / `generalized`), if seen.
    pub origin: Option<String>,
    /// The first `(left, right)` pair that generalized into the pattern.
    pub generalized_from: Option<(String, String)>,
    /// Prune reasons the pattern hit, in journal order.
    pub prunes: Vec<String>,
    /// `(benefit, cache_hit)` of every what-if evaluation whose
    /// sub-configuration contained the pattern, in journal order.
    pub benefit_deltas: Vec<(f64, bool)>,
    /// Every knapsack decision for the pattern, in journal order; the
    /// last entry is the final one.
    pub decisions: Vec<(bool, f64, u64)>,
}

impl Derivation {
    /// Whether the journal mentions the pattern at all.
    pub fn is_known(&self) -> bool {
        self.origin.is_some()
            || self.generalized_from.is_some()
            || !self.prunes.is_empty()
            || !self.benefit_deltas.is_empty()
            || !self.decisions.is_empty()
    }

    /// The final knapsack decision, if any was recorded.
    pub fn final_decision(&self) -> Option<(bool, f64, u64)> {
        self.decisions.last().copied()
    }
}

/// Collects the derivation chain for `pattern` from a journal stream.
pub fn derive(events: &[(u64, Event)], pattern: &str) -> Derivation {
    let mut d = Derivation::default();
    for (_, e) in events {
        match e {
            Event::CandidateGenerated {
                pattern: p, origin, ..
            } if &**p == pattern && d.origin.is_none() => {
                d.origin = Some(origin.to_string());
            }
            Event::PairGeneralized {
                left,
                right,
                result,
                ..
            } if &**result == pattern && d.generalized_from.is_none() => {
                d.generalized_from = Some((left.to_string(), right.to_string()));
            }
            Event::CandidatePruned { pattern: p, reason } if &**p == pattern => {
                d.prunes.push(reason.name().to_string());
            }
            Event::WhatIfEvaluated {
                config,
                cost,
                cache_hit,
            } if config.iter().any(|c| &**c == pattern) => {
                d.benefit_deltas.push((*cost, *cache_hit));
            }
            Event::KnapsackDecision {
                pattern: p,
                kept,
                benefit,
                size,
            } if &**p == pattern => {
                d.decisions.push((*kept, *benefit, *size));
            }
            _ => {}
        }
    }
    d
}

/// A warning line for provenance output when the journal ring dropped
/// events: the replayed derivation chain may be missing its oldest links,
/// so it must be presented as incomplete rather than authoritative.
pub fn incompleteness_note(dropped: u64) -> Option<String> {
    (dropped > 0).then(|| {
        format!(
            "warning: journal ring dropped {dropped} event{}; the derivation chain may be incomplete",
            if dropped == 1 { "" } else { "s" }
        )
    })
}

/// Renders the full derivation chain for `pattern` as indented text,
/// recursing through generalization parents down to basic candidates
/// (with a cycle guard). Returns a "no events" message for unknown
/// patterns, so callers can print the result unconditionally.
pub fn explain_why(events: &[(u64, Event)], pattern: &str) -> String {
    let mut out = String::new();
    let mut seen = HashSet::new();
    explain_into(events, pattern, 0, &mut seen, &mut out);
    out
}

fn explain_into(
    events: &[(u64, Event)],
    pattern: &str,
    depth: usize,
    seen: &mut HashSet<String>,
    out: &mut String,
) {
    let pad = "  ".repeat(depth);
    if !seen.insert(pattern.to_string()) {
        let _ = writeln!(out, "{pad}{pattern}: (derivation shown above)");
        return;
    }
    let d = derive(events, pattern);
    if !d.is_known() {
        let _ = writeln!(out, "{pad}{pattern}: no journal events for this pattern");
        return;
    }
    match (&d.origin, &d.generalized_from) {
        (_, Some((left, right))) => {
            let _ = writeln!(out, "{pad}{pattern}: generalized from {left} ⊔ {right}");
        }
        (Some(origin), None) => {
            let _ = writeln!(out, "{pad}{pattern}: {origin} candidate");
        }
        (None, None) => {
            let _ = writeln!(out, "{pad}{pattern}:");
        }
    }
    if !d.prunes.is_empty() {
        let _ = writeln!(out, "{pad}  prunes hit: {}", d.prunes.join(", "));
    }
    if !d.benefit_deltas.is_empty() {
        let values: Vec<String> = summarize_deltas(&d.benefit_deltas);
        let _ = writeln!(
            out,
            "{pad}  benefit deltas over {} evaluation(s): {}",
            d.benefit_deltas.len(),
            values.join(" → ")
        );
    }
    match d.final_decision() {
        Some((kept, benefit, size)) => {
            let verdict = if kept { "KEPT" } else { "dropped" };
            let _ = writeln!(
                out,
                "{pad}  final decision: {verdict} (benefit {benefit:.2}, size {size} bytes, {} decision round(s))",
                d.decisions.len()
            );
        }
        None => {
            let _ = writeln!(out, "{pad}  final decision: never reached the knapsack");
        }
    }
    if let Some((left, right)) = d.generalized_from {
        explain_into(events, &left, depth + 1, seen, out);
        explain_into(events, &right, depth + 1, seen, out);
    }
}

/// At most the first and last few deltas, elided in the middle — search
/// rounds can re-evaluate a pattern hundreds of times.
fn summarize_deltas(deltas: &[(f64, bool)]) -> Vec<String> {
    const HEAD: usize = 3;
    const TAIL: usize = 2;
    let fmt = |&(v, hit): &(f64, bool)| {
        if hit {
            format!("{v:.2} (cached)")
        } else {
            format!("{v:.2}")
        }
    };
    if deltas.len() <= HEAD + TAIL + 1 {
        deltas.iter().map(fmt).collect()
    } else {
        let mut out: Vec<String> = deltas[..HEAD].iter().map(fmt).collect();
        out.push(format!("… {} more …", deltas.len() - HEAD - TAIL));
        out.extend(deltas[deltas.len() - TAIL..].iter().map(fmt));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PruneReason;

    fn sample_events() -> Vec<(u64, Event)> {
        let e = vec![
            Event::CandidateGenerated {
                collection: "SDOC".into(),
                pattern: "/Security/Symbol".into(),
                kind: "string".into(),
                origin: "basic".into(),
            },
            Event::CandidateGenerated {
                collection: "SDOC".into(),
                pattern: "/Security/Yield".into(),
                kind: "string".into(),
                origin: "basic".into(),
            },
            Event::PairGeneralized {
                collection: "SDOC".into(),
                left: "/Security/Symbol".into(),
                right: "/Security/Yield".into(),
                result: "/Security/*".into(),
            },
            Event::CandidateGenerated {
                collection: "SDOC".into(),
                pattern: "/Security/*".into(),
                kind: "string".into(),
                origin: "generalized".into(),
            },
            Event::WhatIfEvaluated {
                config: ["/Security/*".into()].into(),
                cost: 120.0,
                cache_hit: false,
            },
            Event::WhatIfEvaluated {
                config: ["/Security/*".into(), "/Security/Symbol".into()].into(),
                cost: 150.0,
                cache_hit: true,
            },
            Event::CandidatePruned {
                pattern: "/Security/*".into(),
                reason: PruneReason::SizeRule,
            },
            Event::KnapsackDecision {
                pattern: "/Security/*".into(),
                kept: false,
                benefit: 120.0,
                size: 9999,
            },
            Event::KnapsackDecision {
                pattern: "/Security/Symbol".into(),
                kept: true,
                benefit: 80.0,
                size: 1024,
            },
        ];
        e.into_iter()
            .enumerate()
            .map(|(i, e)| (i as u64, e))
            .collect()
    }

    #[test]
    fn derive_collects_the_full_chain() {
        let events = sample_events();
        let d = derive(&events, "/Security/*");
        assert_eq!(
            d.generalized_from,
            Some(("/Security/Symbol".into(), "/Security/Yield".into()))
        );
        assert_eq!(d.origin.as_deref(), Some("generalized"));
        assert_eq!(d.prunes, vec!["size_rule"]);
        assert_eq!(d.benefit_deltas, vec![(120.0, false), (150.0, true)]);
        assert_eq!(d.final_decision(), Some((false, 120.0, 9999)));
    }

    #[test]
    fn explain_why_recurses_to_basics() {
        let events = sample_events();
        let text = explain_why(&events, "/Security/*");
        assert!(text.contains("generalized from /Security/Symbol ⊔ /Security/Yield"));
        assert!(text.contains("prunes hit: size_rule"));
        assert!(text.contains("benefit deltas over 2 evaluation(s)"));
        assert!(text.contains("dropped"));
        // Parents appear, indented, down to their basic origin.
        assert!(text.contains("/Security/Symbol: basic candidate"));
        assert!(text.contains("/Security/Yield: basic candidate"));
        assert!(text.contains("KEPT"));
    }

    #[test]
    fn explain_why_handles_unknown_patterns() {
        let text = explain_why(&sample_events(), "/No/Such/Pattern");
        assert!(text.contains("no journal events"));
    }

    #[test]
    fn incompleteness_note_fires_only_on_drops() {
        assert_eq!(incompleteness_note(0), None);
        let note = incompleteness_note(2).unwrap();
        assert!(note.contains("dropped 2 events"));
        assert!(note.contains("incomplete"));
    }

    #[test]
    fn delta_summaries_elide_the_middle() {
        let deltas: Vec<(f64, bool)> = (0..20).map(|i| (i as f64, false)).collect();
        let s = summarize_deltas(&deltas);
        assert!(s.iter().any(|x| x.contains("more")));
        assert!(s.len() < deltas.len());
    }
}
