//! XPath AST with predicates.
//!
//! Workload queries may place predicates at arbitrary steps
//! (`/Security[Yield>4.5]/SecInfo`), while index *patterns* are predicate-
//! free [`crate::LinearPath`]s — exactly the paper's setup (Section III).

use crate::linear::{Axis, LinearPath, LinearStep, NameTest};
use std::fmt;
use std::sync::Arc;

/// Comparison operator in a value predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Whether the operator is an equality (as opposed to a range) test.
    pub fn is_equality(self) -> bool {
        matches!(self, CmpOp::Eq)
    }

    /// Evaluates the comparison over f64 keys.
    pub fn eval_num(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// Evaluates the comparison over string keys.
    pub fn eval_str(self, lhs: &str, rhs: &str) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A literal value in a predicate. Its type determines the candidate index
/// type (string vs numerical, as in Table I).
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A string literal, shared: patterns normalized from a statement
    /// hold it without copying the text.
    Str(Arc<str>),
    /// A numeric literal.
    Num(f64),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Str(s) => write!(f, "\"{s}\""),
            Literal::Num(n) => write!(f, "{n}"),
        }
    }
}

/// A predicate attached to a path step.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `[rel op literal]` — value comparison on a relative path (empty
    /// relative path means the context node itself, i.e. `[. = "x"]`).
    Compare {
        /// Relative linear path from the step's node to the tested leaf.
        rel: Vec<LinearStep>,
        /// Comparison operator.
        op: CmpOp,
        /// Compared literal.
        value: Literal,
    },
    /// `[rel]` — structural existence test.
    Exists {
        /// Relative linear path that must have at least one match.
        rel: Vec<LinearStep>,
    },
    /// `[p1 or p2 ...]` — disjunction of comparison/existence tests. The
    /// optimizer can answer a disjunction with index-ORing when every
    /// branch is indexable.
    Or(Vec<Predicate>),
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_rel(f: &mut fmt::Formatter<'_>, rel: &[LinearStep]) -> fmt::Result {
            if rel.is_empty() {
                return f.write_str(".");
            }
            for (i, s) in rel.iter().enumerate() {
                // The leading axis separator is implicit for the first step
                // of a relative path unless it is a descendant axis.
                let sep = match (i, s.axis) {
                    (0, Axis::Child) => "",
                    (0, Axis::Descendant) => ".//",
                    (_, Axis::Child) => "/",
                    (_, Axis::Descendant) => "//",
                };
                f.write_str(sep)?;
                match s.test {
                    NameTest::Name(n) => f.write_str(n.as_str())?,
                    NameTest::Wildcard => f.write_str("*")?,
                }
            }
            Ok(())
        }
        match self {
            Predicate::Compare { rel, op, value } => {
                f.write_str("[")?;
                write_rel(f, rel)?;
                write!(f, " {op} {value}]")
            }
            Predicate::Exists { rel } => {
                f.write_str("[")?;
                write_rel(f, rel)?;
                f.write_str("]")
            }
            Predicate::Or(branches) => {
                f.write_str("[")?;
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" or ")?;
                    }
                    // Render the branch without its own brackets.
                    let inner = b.to_string();
                    f.write_str(inner.trim_start_matches('[').trim_end_matches(']'))?;
                }
                f.write_str("]")
            }
        }
    }
}

/// One step of a path expression, with predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// `/` or `//`.
    pub axis: Axis,
    /// Label or `*`.
    pub test: NameTest,
    /// Predicates applied at this step.
    pub predicates: Vec<Predicate>,
}

/// An absolute XPath path expression with predicates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PathExpr {
    /// The steps, from the root.
    pub steps: Vec<Step>,
}

impl PathExpr {
    /// Strips all predicates, yielding the linear skeleton.
    pub fn strip_predicates(&self) -> LinearPath {
        LinearPath::new(
            self.steps
                .iter()
                .map(|s| LinearStep {
                    axis: s.axis,
                    test: s.test,
                })
                .collect(),
        )
    }

    /// Total number of predicates across all steps.
    pub fn predicate_count(&self) -> usize {
        self.steps.iter().map(|s| s.predicates.len()).sum()
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            f.write_str(match step.axis {
                Axis::Child => "/",
                Axis::Descendant => "//",
            })?;
            match step.test {
                NameTest::Name(n) => f.write_str(n.as_str())?,
                NameTest::Wildcard => f.write_str("*")?,
            }
            for p in &step.predicates {
                write!(f, "{p}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_path_expr;

    #[test]
    fn strip_predicates_keeps_skeleton() {
        let e = parse_path_expr("/Security[Yield>4.5]/SecInfo/*/Sector").unwrap();
        assert_eq!(
            e.strip_predicates().to_string(),
            "/Security/SecInfo/*/Sector"
        );
        assert_eq!(e.predicate_count(), 1);
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "/Security[Yield > 4.5]",
            "/Security[Symbol = \"IBM\"]/Name",
            "/a//b[c/d = 3]",
            "/a[b]",
        ] {
            let e = parse_path_expr(s).unwrap();
            let printed = e.to_string();
            let again = parse_path_expr(&printed).unwrap();
            assert_eq!(e, again, "{s} → {printed}");
        }
    }

    #[test]
    fn cmp_op_eval() {
        assert!(CmpOp::Gt.eval_num(5.0, 4.5));
        assert!(!CmpOp::Gt.eval_num(4.0, 4.5));
        assert!(CmpOp::Eq.eval_str("a", "a"));
        assert!(CmpOp::Le.eval_num(4.5, 4.5));
        assert!(CmpOp::Ne.eval_str("a", "b"));
        assert!(CmpOp::Lt.eval_str("a", "b"));
        assert!(CmpOp::Ge.eval_num(5.0, 5.0));
    }
}
