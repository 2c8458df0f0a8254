//! Statement normalization: exposing indexable access patterns.
//!
//! This performs, in one place, the query rewrites the paper credits DB2's
//! optimizer with: a `where $sec/Symbol = "B"` clause and a
//! `[Yield > 4.5]` step predicate both become *access patterns* — absolute
//! linear paths paired with a predicate — which are exactly the patterns
//! the Enumerate-Indexes optimizer mode matches against the `//*` virtual
//! index (candidates C1–C3 of the paper's Table I).

use crate::ast::{CmpOp, Literal, PathExpr, Predicate};
use crate::linear::{LinearPath, LinearStep};
use crate::statement::{Statement, ValueKind};
use crate::xquery::{FlworQuery, ReturnExpr};

/// The predicate applied at an access pattern's target.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternPred {
    /// Value comparison against a literal.
    Compare(CmpOp, Literal),
    /// Structural existence.
    Exists,
}

impl PatternPred {
    /// The value kind the pattern constrains, if it is a comparison.
    pub fn value_kind(&self) -> Option<ValueKind> {
        match self {
            PatternPred::Compare(_, lit) => Some(ValueKind::of_literal(lit)),
            PatternPred::Exists => None,
        }
    }
}

/// An indexable access pattern of a statement: an absolute linear path to a
/// tested node plus the predicate on it.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPattern {
    /// Absolute path from the document root to the tested node.
    pub linear: LinearPath,
    /// Predicate at the target.
    pub pred: PatternPred,
}

impl AccessPattern {
    /// Whether an index of kind `kind` could evaluate this pattern.
    pub fn indexable_as(&self, kind: ValueKind) -> bool {
        self.pred.value_kind() == Some(kind)
    }
}

/// A statement reduced to its data-access structure, independent of the
/// surface language it was written in.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedQuery {
    /// The collection the statement reads.
    pub collection: String,
    /// Absolute linear path of the iterated/located element.
    pub root: LinearPath,
    /// All conjunctive access patterns (value comparisons and existence
    /// tests), in source order.
    pub patterns: Vec<AccessPattern>,
    /// Disjunctive predicate groups: each group is satisfied when *any*
    /// of its branch patterns is (index-ORing candidates).
    pub or_groups: Vec<Vec<AccessPattern>>,
    /// Absolute paths projected by the return clause.
    pub returns: Vec<LinearPath>,
    /// Whether the statement is a modification (affects how the advisor
    /// charges maintenance cost).
    pub is_modification: bool,
}

impl NormalizedQuery {
    /// Patterns that carry a value comparison (the indexable ones).
    pub fn compare_patterns(&self) -> impl Iterator<Item = &AccessPattern> {
        self.patterns
            .iter()
            .filter(|p| matches!(p.pred, PatternPred::Compare(..)))
    }
}

/// Normalizes a statement into its data-access structure. Returns `None`
/// for `Insert`, which reads nothing (its cost is pure storage work plus
/// index maintenance, handled separately).
pub fn normalize(stmt: &Statement) -> Option<NormalizedQuery> {
    match stmt {
        Statement::Query(q) => Some(normalize_flwor(q)),
        Statement::Insert { .. } => None,
        Statement::Delete { collection, target } => Some(normalize_target(collection, target)),
        Statement::Update {
            collection,
            target,
            set,
            ..
        } => {
            let mut n = normalize_target(collection, target);
            // The updated node is also written; record it as a return so the
            // optimizer accounts for locating it.
            n.returns.push(set.clone());
            Some(n)
        }
    }
}

// Every path below is built once, at its final length: the root's steps
// are the prefix of every step predicate's pattern.
fn normalize_flwor(q: &FlworQuery) -> NormalizedQuery {
    let root = q.source.strip_predicates();
    let mut patterns = Vec::with_capacity(q.source.predicate_count() + q.conditions.len());
    let mut or_groups = Vec::new();
    collect_step_predicates(&q.source, &root, &mut patterns, &mut or_groups);
    for cond in &q.conditions {
        let linear = root.join(&cond.rel);
        let pred = match &cond.cmp {
            Some((op, value)) => PatternPred::Compare(*op, value.clone()),
            None => PatternPred::Exists,
        };
        patterns.push(AccessPattern { linear, pred });
    }
    let mut returns = Vec::with_capacity(q.returns.len() + usize::from(q.order_by.is_some()));
    returns.extend(q.returns.iter().map(|r| match r {
        ReturnExpr::Var => root.clone(),
        ReturnExpr::Path(rel) => root.join(rel),
    }));
    // An `order by` key must be retrieved for every result.
    if let Some(rel) = &q.order_by {
        returns.push(root.join(rel));
    }
    NormalizedQuery {
        collection: q.collection.clone(),
        root,
        patterns,
        or_groups,
        returns,
        is_modification: false,
    }
}

fn normalize_target(collection: &str, target: &PathExpr) -> NormalizedQuery {
    let root = target.strip_predicates();
    let mut patterns = Vec::with_capacity(target.predicate_count());
    let mut or_groups = Vec::new();
    collect_step_predicates(target, &root, &mut patterns, &mut or_groups);
    // An update records the written node as a second return.
    let mut returns = Vec::with_capacity(2);
    returns.push(root.clone());
    NormalizedQuery {
        collection: collection.to_string(),
        root,
        patterns,
        or_groups,
        returns,
        is_modification: true,
    }
}

/// Collects predicates attached at any step of a path expression, rewriting
/// each into an absolute access pattern rooted at that step's prefix of
/// `root` (the expression's skeleton). Disjunctions land in `or_out` as
/// branch groups.
fn collect_step_predicates(
    expr: &PathExpr,
    root: &LinearPath,
    out: &mut Vec<AccessPattern>,
    or_out: &mut Vec<Vec<AccessPattern>>,
) {
    fn simple_pattern(prefix: &[LinearStep], pred: &Predicate) -> AccessPattern {
        let (rel, pp) = match pred {
            Predicate::Compare { rel, op, value } => {
                (rel, PatternPred::Compare(*op, value.clone()))
            }
            Predicate::Exists { rel } => (rel, PatternPred::Exists),
            Predicate::Or(_) => unreachable!("nested Or is never produced by the parser"),
        };
        let linear = LinearPath::concat(prefix, rel);
        AccessPattern { linear, pred: pp }
    }
    for (i, step) in expr.steps.iter().enumerate() {
        let prefix = &root.steps[..=i];
        for pred in &step.predicates {
            match pred {
                Predicate::Or(branches) => {
                    or_out.push(branches.iter().map(|b| simple_pattern(prefix, b)).collect());
                }
                _ => out.push(simple_pattern(prefix, pred)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xquery::parse_statement;

    fn norm(s: &str) -> NormalizedQuery {
        normalize(&parse_statement(s).unwrap()).unwrap()
    }

    #[test]
    fn paper_q1_exposes_symbol_pattern() {
        let n = norm(
            r#"for $sec in SECURITY('SDOC')/Security
               where $sec/Symbol = "BCIIPRC"
               return $sec"#,
        );
        assert_eq!(n.root.to_string(), "/Security");
        assert_eq!(n.patterns.len(), 1);
        assert_eq!(n.patterns[0].linear.to_string(), "/Security/Symbol");
        assert!(n.patterns[0].indexable_as(ValueKind::Str));
        assert_eq!(n.returns, vec![n.root.clone()]);
    }

    #[test]
    fn paper_q2_exposes_yield_and_sector_patterns() {
        let n = norm(
            r#"for $sec in SECURITY('SDOC')/Security[Yield>4.5]
               where $sec/SecInfo/*/Sector = "Energy"
               return <Security>{$sec/Name}</Security>"#,
        );
        let pats: Vec<String> = n.patterns.iter().map(|p| p.linear.to_string()).collect();
        assert_eq!(pats, vec!["/Security/Yield", "/Security/SecInfo/*/Sector"]);
        assert!(n.patterns[0].indexable_as(ValueKind::Num));
        assert!(n.patterns[1].indexable_as(ValueKind::Str));
        assert_eq!(n.returns[0].to_string(), "/Security/Name");
    }

    #[test]
    fn nested_step_predicates_are_rooted_at_their_prefix() {
        let n = norm(r#"collection('C')/a/b[c/d = 3]/e[f]"#);
        let pats: Vec<String> = n.patterns.iter().map(|p| p.linear.to_string()).collect();
        assert_eq!(pats, vec!["/a/b/c/d", "/a/b/e/f"]);
        assert!(matches!(n.patterns[1].pred, PatternPred::Exists));
        assert_eq!(n.root.to_string(), "/a/b/e");
    }

    #[test]
    fn exists_patterns_are_not_compare_patterns() {
        let n = norm(r#"for $a in C('C')/a where $a/b and $a/c = 1 return $a"#);
        assert_eq!(n.patterns.len(), 2);
        assert_eq!(n.compare_patterns().count(), 1);
    }

    #[test]
    fn delete_and_update_are_modifications() {
        let d = norm(r#"delete from C where /a[b = 1]"#);
        assert!(d.is_modification);
        assert_eq!(d.patterns.len(), 1);
        let u = norm(r#"update C set /a/x = 9 where /a[b = 1]"#);
        assert!(u.is_modification);
        assert!(u.returns.iter().any(|r| r.to_string() == "/a/x"));
    }

    #[test]
    fn or_predicates_become_groups() {
        let n = norm(r#"collection('C')/a[b = 1 or c = "x" or d]"#);
        assert!(n.patterns.is_empty());
        assert_eq!(n.or_groups.len(), 1);
        let branches: Vec<String> = n.or_groups[0]
            .iter()
            .map(|p| p.linear.to_string())
            .collect();
        assert_eq!(branches, vec!["/a/b", "/a/c", "/a/d"]);
        assert!(matches!(n.or_groups[0][2].pred, PatternPred::Exists));
    }

    #[test]
    fn or_and_conjuncts_coexist() {
        let n = norm(r#"collection('C')/a[x = 1][b = 2 or c = 3]"#);
        assert_eq!(n.patterns.len(), 1);
        assert_eq!(n.or_groups.len(), 1);
        assert_eq!(n.or_groups[0].len(), 2);
    }

    #[test]
    fn insert_normalizes_to_none() {
        let s = parse_statement("insert into C <a/>").unwrap();
        assert!(normalize(&s).is_none());
    }

    #[test]
    fn descendant_axis_survives_normalization() {
        let n = norm(r#"for $a in C('C')//Security where $a//Sector = "x" return $a"#);
        assert_eq!(n.root.to_string(), "//Security");
        assert_eq!(n.patterns[0].linear.to_string(), "//Security//Sector");
    }
}
