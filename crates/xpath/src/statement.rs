//! Workload statements.

use crate::ast::{Literal, PathExpr};
use crate::linear::LinearPath;
use crate::xquery::FlworQuery;
use std::fmt;

/// The value type of an index or candidate — the paper's `string` vs
/// `numerical` column of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueKind {
    /// String-typed keys.
    Str,
    /// Double-typed keys.
    Num,
}

impl ValueKind {
    /// Kind implied by a literal's type.
    pub fn of_literal(lit: &Literal) -> ValueKind {
        match lit {
            Literal::Str(_) => ValueKind::Str,
            Literal::Num(_) => ValueKind::Num,
        }
    }

    /// The kind's name (`string` / `numerical`), as it displays.
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::Str => "string",
            ValueKind::Num => "numerical",
        }
    }
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A workload statement: a query or a data-modification statement.
///
/// The advisor's benefit model (paper Section III) treats them uniformly:
/// queries contribute `freq · (cost_old − cost_new)`, modifications
/// additionally pay index-maintenance cost `mc(x, s)` per index.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// An XQuery-lite query.
    Query(FlworQuery),
    /// Insert a document (raw XML payload).
    Insert {
        /// Target collection.
        collection: String,
        /// The document text.
        xml: String,
    },
    /// Delete all documents whose root matches the target path expression.
    Delete {
        /// Target collection.
        collection: String,
        /// Path expression selecting victim documents.
        target: PathExpr,
    },
    /// Set the value of all nodes at `set` in matching documents.
    Update {
        /// Target collection.
        collection: String,
        /// Path expression selecting documents to update.
        target: PathExpr,
        /// Absolute path of the node whose value changes.
        set: LinearPath,
        /// The new value.
        value: Literal,
    },
}

impl Statement {
    /// The collection the statement touches.
    pub fn collection(&self) -> &str {
        match self {
            Statement::Query(q) => &q.collection,
            Statement::Insert { collection, .. }
            | Statement::Delete { collection, .. }
            | Statement::Update { collection, .. } => collection,
        }
    }

    /// Whether this is a data-modification statement.
    pub fn is_modification(&self) -> bool {
        !matches!(self, Statement::Query(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xquery::parse_statement;

    #[test]
    fn collection_accessor_works_for_all_kinds() {
        let q = parse_statement("for $s in S('A')/a return $s").unwrap();
        assert_eq!(q.collection(), "A");
        assert!(!q.is_modification());
        let i = parse_statement("insert into B <x/>").unwrap();
        assert_eq!(i.collection(), "B");
        assert!(i.is_modification());
        let d = parse_statement("delete from C where /x[y=1]").unwrap();
        assert_eq!(d.collection(), "C");
        let u = parse_statement("update D set /x/y = 2 where /x").unwrap();
        assert_eq!(u.collection(), "D");
        assert!(u.is_modification());
    }

    #[test]
    fn value_kind_of_literal() {
        assert_eq!(
            ValueKind::of_literal(&Literal::Str("x".into())),
            ValueKind::Str
        );
        assert_eq!(ValueKind::of_literal(&Literal::Num(1.0)), ValueKind::Num);
        assert_eq!(ValueKind::Str.to_string(), "string");
        assert_eq!(ValueKind::Num.to_string(), "numerical");
    }
}
