//! Query plans.

use std::fmt;
use xia_storage::IndexId;

/// One index probe within an index-ANDing plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexUse {
    /// The index probed.
    pub index: IndexId,
    /// Which access pattern of the normalized statement it answers.
    pub pattern_idx: usize,
    /// Estimated postings scanned from the index (after the value
    /// predicate, before path filtering — a general index returns postings
    /// for every path it covers).
    pub est_postings: f64,
    /// Estimated documents surviving this pattern (after path filtering).
    pub est_docs: f64,
    /// Estimated cost of the probe.
    pub probe_cost: f64,
}

/// One step of an index-ANDing plan: a single probe, or an index-ORing
/// union over the branches of a disjunctive predicate group.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// Probe one index for one conjunctive pattern.
    Probe(IndexUse),
    /// Index-ORing: probe one index per branch of `or_groups[group]` and
    /// union the document sets.
    Union {
        /// Which disjunction group of the normalized statement.
        group: usize,
        /// One probe per branch.
        branches: Vec<IndexUse>,
        /// Estimated documents surviving the union.
        est_docs: f64,
    },
}

impl PlanStep {
    /// The probes of this step.
    pub fn uses(&self) -> &[IndexUse] {
        match self {
            PlanStep::Probe(u) => std::slice::from_ref(u),
            PlanStep::Union { branches, .. } => branches,
        }
    }

    /// Estimated documents surviving this step.
    pub fn est_docs(&self) -> f64 {
        match self {
            PlanStep::Probe(u) => u.est_docs,
            PlanStep::Union { est_docs, .. } => *est_docs,
        }
    }

    /// Total probe cost of this step.
    pub fn probe_cost(&self) -> f64 {
        match self {
            PlanStep::Probe(u) => u.probe_cost,
            PlanStep::Union { branches, .. } => branches.iter().map(|u| u.probe_cost).sum(),
        }
    }
}

/// How the statement accesses its documents.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessChoice {
    /// Full collection scan with navigational predicate evaluation.
    Scan,
    /// Probe one or more indexes (possibly ORing over disjunction
    /// branches), intersect document sets, fetch, and evaluate residual
    /// predicates.
    IndexAnd(Vec<PlanStep>),
}

/// A costed plan for one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Chosen access path.
    pub access: AccessChoice,
    /// Estimated documents produced (for queries) or modified (for
    /// updates/deletes).
    pub est_docs: f64,
    /// Estimated total cost in timerons.
    pub total_cost: f64,
    /// Cost of the scan alternative, kept for speedup accounting.
    pub scan_cost: f64,
}

impl Plan {
    /// The plan's index probes, in probe order.
    pub fn uses(&self) -> impl Iterator<Item = &IndexUse> {
        let steps = match &self.access {
            AccessChoice::Scan => &[][..],
            AccessChoice::IndexAnd(steps) => steps,
        };
        steps.iter().flat_map(PlanStep::uses)
    }

    /// Indexes used by the plan, in probe order.
    pub fn used_indexes(&self) -> Vec<IndexId> {
        self.uses().map(|u| u.index).collect()
    }

    /// Whether the plan uses any index.
    pub fn uses_indexes(&self) -> bool {
        matches!(&self.access, AccessChoice::IndexAnd(u) if !u.is_empty())
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.access {
            AccessChoice::Scan => write!(
                f,
                "SCAN cost={:.1} docs={:.1}",
                self.total_cost, self.est_docs
            ),
            AccessChoice::IndexAnd(steps) => {
                write!(f, "IXAND[")?;
                for (i, step) in steps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    match step {
                        PlanStep::Probe(u) => write!(f, "ix{}(p{})", u.index.0, u.pattern_idx)?,
                        PlanStep::Union {
                            group, branches, ..
                        } => {
                            write!(f, "ixor{}(", group)?;
                            for (j, u) in branches.iter().enumerate() {
                                if j > 0 {
                                    f.write_str("|")?;
                                }
                                write!(f, "ix{}", u.index.0)?;
                            }
                            write!(f, ")")?;
                        }
                    }
                }
                write!(f, "] cost={:.1} docs={:.1}", self.total_cost, self.est_docs)
            }
        }
    }
}

/// Renders a plan as a DB2-EXPLAIN-style operator tree, resolving index
/// ids against the catalog.
pub fn render_plan(plan: &Plan, catalog: &xia_storage::Catalog) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "estimated cost: {:.1} timerons (scan alternative: {:.1}), est. result docs: {:.1}",
        plan.total_cost, plan.scan_cost, plan.est_docs
    );
    match &plan.access {
        AccessChoice::Scan => {
            let _ = writeln!(out, "  RETURN");
            let _ = writeln!(
                out,
                "  └─ TBSCAN (full collection scan, navigational predicates)"
            );
        }
        AccessChoice::IndexAnd(steps) => {
            let _ = writeln!(out, "  RETURN");
            let _ = writeln!(out, "  └─ FETCH (residual predicates)");
            if steps.len() > 1 {
                let _ = writeln!(out, "     └─ IXAND (document-set intersection)");
            }
            let indent = if steps.len() > 1 { "        " } else { "     " };
            let write_use =
                |u: &IndexUse, indent: &str, out: &mut String| match catalog.get(u.index) {
                    Some(def) => {
                        let _ = writeln!(
                            out,
                            "{indent}└─ IXSCAN ix{} pattern='{}' [{}]{} est. postings {:.1}",
                            u.index.0,
                            def.pattern,
                            def.kind,
                            if def.is_virtual() { " (virtual)" } else { "" },
                            u.est_postings
                        );
                    }
                    None => {
                        let _ = writeln!(out, "{indent}└─ IXSCAN ix{} (dropped)", u.index.0);
                    }
                };
            for step in steps {
                match step {
                    PlanStep::Probe(u) => write_use(u, indent, &mut out),
                    PlanStep::Union { branches, .. } => {
                        let _ = writeln!(out, "{indent}└─ IXOR (document-set union)");
                        let deeper = format!("{indent}   ");
                        for u in branches {
                            write_use(u, &deeper, &mut out);
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn used_indexes_of_scan_is_empty() {
        let p = Plan {
            access: AccessChoice::Scan,
            est_docs: 10.0,
            total_cost: 100.0,
            scan_cost: 100.0,
        };
        assert!(p.used_indexes().is_empty());
        assert!(!p.uses_indexes());
        assert!(p.to_string().starts_with("SCAN"));
    }

    #[test]
    fn union_steps_aggregate_indexes_docs_and_cost() {
        let step = PlanStep::Union {
            group: 0,
            branches: vec![
                IndexUse {
                    index: IndexId(2),
                    pattern_idx: 0,
                    est_postings: 10.0,
                    est_docs: 10.0,
                    probe_cost: 3.0,
                },
                IndexUse {
                    index: IndexId(5),
                    pattern_idx: 1,
                    est_postings: 20.0,
                    est_docs: 20.0,
                    probe_cost: 4.0,
                },
            ],
            est_docs: 27.5,
        };
        let probed: Vec<IndexId> = step.uses().iter().map(|u| u.index).collect();
        assert_eq!(probed, vec![IndexId(2), IndexId(5)]);
        assert_eq!(step.est_docs(), 27.5);
        assert_eq!(step.probe_cost(), 7.0);
        let p = Plan {
            access: AccessChoice::IndexAnd(vec![step]),
            est_docs: 27.5,
            total_cost: 50.0,
            scan_cost: 100.0,
        };
        assert_eq!(p.used_indexes(), vec![IndexId(2), IndexId(5)]);
        assert!(p.to_string().contains("ixor0(ix2|ix5)"), "{p}");
    }

    #[test]
    fn used_indexes_in_probe_order() {
        let p = Plan {
            access: AccessChoice::IndexAnd(vec![
                PlanStep::Probe(IndexUse {
                    index: IndexId(3),
                    pattern_idx: 0,
                    est_postings: 5.0,
                    est_docs: 5.0,
                    probe_cost: 1.0,
                }),
                PlanStep::Probe(IndexUse {
                    index: IndexId(1),
                    pattern_idx: 1,
                    est_postings: 7.0,
                    est_docs: 7.0,
                    probe_cost: 2.0,
                }),
            ]),
            est_docs: 2.0,
            total_cost: 10.0,
            scan_cost: 100.0,
        };
        assert_eq!(p.used_indexes(), vec![IndexId(3), IndexId(1)]);
        assert!(p.uses_indexes());
        assert!(p.to_string().contains("ix3(p0)"));
    }
}
