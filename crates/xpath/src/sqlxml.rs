//! SQL/XML-lite: the second surface language.
//!
//! The paper stresses that its advisor "supports both XQuery and SQL/XML
//! simply by virtue of the fact that the DB2 query optimizer supports both
//! of these languages" — queries in either language normalize to the same
//! access patterns and therefore yield the same candidates. This module
//! reproduces that: an SQL/XML-lite parser whose output feeds the same
//! [`crate::normalize`] pipeline as FLWOR queries.
//!
//! Grammar:
//!
//! ```text
//! select    := 'SELECT' select-list 'FROM' NAME ('WHERE' cond ('AND' cond)*)?
//! select-list := '*' | xmlquery (',' xmlquery)*
//! xmlquery  := 'XMLQUERY' '(' STR ')'      -- '$DOC/path' projection
//! cond      := 'XMLEXISTS' '(' STR ')'     -- '$DOC/path[pred]' predicate
//! ```
//!
//! The embedded XPath strings use the conventional `$DOC` (any name)
//! passing variable. All embedded paths must share their first step (the
//! document root element of the table's XML column), which is how
//! single-document-type tables are queried in practice.

use crate::ast::{PathExpr, Predicate};
use crate::lexer::Token;
use crate::linear::LinearStep;
use crate::parser::{parse_path_expr_steps, ParseError, TokenCursor};
use crate::xquery::{FlworQuery, ReturnExpr};

/// Parses an SQL/XML-lite statement into the same query representation as
/// FLWOR (so normalization, candidate enumeration, and costing are shared
/// — the paper's dual-language claim).
pub fn parse_sqlxml(input: &str) -> Result<FlworQuery, ParseError> {
    let mut cur = TokenCursor::new(input)?;
    expect_kw(&mut cur, "select")?;

    // Projections.
    let mut projections: Vec<PathExpr> = Vec::new();
    let mut select_star = false;
    if cur.peek() == Some(Token::Star) {
        cur.next();
        select_star = true;
    } else {
        loop {
            expect_kw(&mut cur, "xmlquery")?;
            cur.expect(Token::LParen)?;
            let path = embedded_path(&mut cur)?;
            cur.expect(Token::RParen)?;
            projections.push(path);
            if cur.peek() == Some(Token::Comma) {
                cur.next();
            } else {
                break;
            }
        }
    }

    expect_kw(&mut cur, "from")?;
    let collection = cur.expect_name()?.to_string();

    // Conditions.
    let mut exists_paths: Vec<PathExpr> = Vec::new();
    if cur.at_keyword("where") {
        cur.next();
        loop {
            expect_kw(&mut cur, "xmlexists")?;
            cur.expect(Token::LParen)?;
            exists_paths.push(embedded_path(&mut cur)?);
            cur.expect(Token::RParen)?;
            if cur.at_keyword("and") {
                cur.next();
            } else {
                break;
            }
        }
    }
    if !cur.at_end() {
        return Err(cur.err("trailing tokens after SQL/XML statement"));
    }
    if exists_paths.is_empty() && projections.is_empty() {
        return Err(cur.err("SQL/XML statement needs XMLEXISTS or XMLQUERY"));
    }

    // Determine the document root element: first step of the first
    // embedded path.
    let first = exists_paths
        .first()
        .or(projections.first())
        .expect("checked non-empty above");
    let root_step = first.steps[0].clone();
    let root_test = root_step.test;

    // Fold every XMLEXISTS path into one source PathExpr rooted at the
    // shared root element: predicates keep their anchoring by extending
    // their relative paths with the steps between the root and their step;
    // the navigation itself becomes an existence predicate.
    let mut source = PathExpr {
        steps: vec![crate::ast::Step {
            axis: root_step.axis,
            test: root_step.test,
            predicates: root_step.predicates,
        }],
    };
    for path in &exists_paths {
        if path.steps[0].test != root_test {
            return Err(cur.err(format!(
                "all embedded paths must share the document root element (found `{}` vs `{}`)",
                display_test(&path.steps[0].test),
                display_test(&root_test),
            )));
        }
        fold_into_root(&mut source, path);
    }

    // Projections become return paths relative to the root.
    let returns: Vec<ReturnExpr> = if select_star || projections.is_empty() {
        vec![ReturnExpr::Var]
    } else {
        projections
            .iter()
            .map(|p| {
                if p.steps[0].test != root_test {
                    return Err(
                        cur.err("XMLQUERY path must share the document root element".to_string())
                    );
                }
                let rel: Vec<LinearStep> = p.steps[1..]
                    .iter()
                    .map(|s| LinearStep {
                        axis: s.axis,
                        test: s.test,
                    })
                    .collect();
                Ok(if rel.is_empty() {
                    ReturnExpr::Var
                } else {
                    ReturnExpr::Path(rel)
                })
            })
            .collect::<Result<_, _>>()?
    };

    Ok(FlworQuery {
        collection,
        var: None,
        source,
        lets: Vec::new(),
        conditions: Vec::new(),
        order_by: None,
        returns,
    })
}

/// Folds an XMLEXISTS path into the root step of `source` as predicates.
fn fold_into_root(source: &mut PathExpr, path: &PathExpr) {
    let root = &mut source.steps[0];
    // Predicates on the path's root step merge directly.
    for p in &path.steps[0].predicates {
        if !root.predicates.contains(p) {
            root.predicates.push(p.clone());
        }
    }
    // Deeper steps: re-anchor their predicates at the root, and record the
    // navigation itself as an existence test.
    let mut prefix: Vec<LinearStep> = Vec::new();
    fn re_anchor(prefix: &[LinearStep], pred: &Predicate) -> Predicate {
        match pred {
            Predicate::Compare { rel, op, value } => Predicate::Compare {
                rel: prefix.iter().cloned().chain(rel.iter().cloned()).collect(),
                op: *op,
                value: value.clone(),
            },
            Predicate::Exists { rel } => Predicate::Exists {
                rel: prefix.iter().cloned().chain(rel.iter().cloned()).collect(),
            },
            Predicate::Or(branches) => {
                Predicate::Or(branches.iter().map(|b| re_anchor(prefix, b)).collect())
            }
        }
    }
    for step in &path.steps[1..] {
        prefix.push(LinearStep {
            axis: step.axis,
            test: step.test,
        });
        for pred in &step.predicates {
            let re_anchored = re_anchor(&prefix, pred);
            if !root.predicates.contains(&re_anchored) {
                root.predicates.push(re_anchored);
            }
        }
    }
    if !prefix.is_empty() {
        let nav = Predicate::Exists { rel: prefix };
        if !root.predicates.contains(&nav) {
            root.predicates.push(nav);
        }
    }
}

fn display_test(t: &crate::linear::NameTest) -> String {
    match t {
        crate::linear::NameTest::Name(n) => n.as_str().to_string(),
        crate::linear::NameTest::Wildcard => "*".to_string(),
    }
}

fn expect_kw(cur: &mut TokenCursor, kw: &str) -> Result<(), ParseError> {
    match cur.next() {
        Some(Token::Name(n)) if n.eq_ignore_ascii_case(kw) => Ok(()),
        Some(t) => Err(cur.err(format!("expected `{kw}`, found `{t}`"))),
        None => Err(cur.err(format!("expected `{kw}`, found end of input"))),
    }
}

/// Parses the quoted `'$var/path'` argument of XMLQUERY/XMLEXISTS.
fn embedded_path(cur: &mut TokenCursor) -> Result<PathExpr, ParseError> {
    let text = match cur.next() {
        Some(Token::Str(s)) => s,
        Some(t) => return Err(cur.err(format!("expected a quoted XPath string, found `{t}`"))),
        None => return Err(cur.err("expected a quoted XPath string")),
    };
    let trimmed = text.trim();
    // Strip the passing variable: `$DOC/...` → `/...`.
    let rest = match trimmed.strip_prefix('$') {
        Some(r) => {
            let slash = r
                .find('/')
                .ok_or_else(|| cur.err("embedded XPath needs a path after the variable"))?;
            &r[slash..]
        }
        None => trimmed,
    };
    let mut inner = TokenCursor::new(rest)?;
    let expr = parse_path_expr_steps(&mut inner, true)?;
    if expr.steps.is_empty() {
        return Err(cur.err("empty embedded XPath"));
    }
    if !inner.at_end() {
        return Err(cur.err("trailing tokens in embedded XPath"));
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use crate::statement::Statement;
    use crate::xquery::parse_statement;

    #[test]
    fn parses_select_star_with_xmlexists() {
        let q = parse_sqlxml(
            r#"SELECT * FROM SDOC WHERE XMLEXISTS('$doc/Security[Symbol = "BCIIPRC"]')"#,
        )
        .unwrap();
        assert_eq!(q.collection, "SDOC");
        assert_eq!(q.source.steps.len(), 1);
        assert_eq!(q.source.predicate_count(), 1);
    }

    #[test]
    fn sqlxml_and_xquery_normalize_identically() {
        // The paper's dual-language claim: Q1 in both languages yields the
        // same access patterns (hence the same candidates).
        let xquery = parse_statement(
            r#"for $sec in SECURITY('SDOC')/Security
               where $sec/Symbol = "BCIIPRC"
               return $sec"#,
        )
        .unwrap();
        let sqlxml = parse_statement(
            r#"SELECT * FROM SDOC WHERE XMLEXISTS('$d/Security[Symbol = "BCIIPRC"]')"#,
        )
        .unwrap();
        let nx = normalize(&xquery).unwrap();
        let ns = normalize(&sqlxml).unwrap();
        assert_eq!(nx.collection, ns.collection);
        assert_eq!(nx.root, ns.root);
        // The same compare pattern is exposed.
        let px: Vec<String> = nx.patterns.iter().map(|p| p.linear.to_string()).collect();
        let ps: Vec<String> = ns.patterns.iter().map(|p| p.linear.to_string()).collect();
        assert_eq!(px, ps);
    }

    #[test]
    fn multiple_xmlexists_conditions_conjoin() {
        let q = parse_sqlxml(
            r#"SELECT * FROM SDOC
               WHERE XMLEXISTS('$d/Security[Yield > 4.5]')
                 AND XMLEXISTS('$d/Security/SecInfo[Sector = "Energy"]')"#,
        )
        .unwrap();
        let n = normalize(&Statement::Query(q)).unwrap();
        let pats: Vec<String> = n.patterns.iter().map(|p| p.linear.to_string()).collect();
        assert!(pats.contains(&"/Security/Yield".to_string()), "{pats:?}");
        assert!(
            pats.contains(&"/Security/SecInfo/Sector".to_string()),
            "{pats:?}"
        );
        // Plus the navigation existence for the nested path.
        assert!(pats.contains(&"/Security/SecInfo".to_string()), "{pats:?}");
    }

    #[test]
    fn xmlquery_projections_become_returns() {
        let q = parse_sqlxml(
            r#"SELECT XMLQUERY('$d/Security/Name'), XMLQUERY('$d/Security/Price/LastTrade')
               FROM SDOC
               WHERE XMLEXISTS('$d/Security[Symbol = "X"]')"#,
        )
        .unwrap();
        assert_eq!(q.returns.len(), 2);
        let n = normalize(&Statement::Query(q)).unwrap();
        let rets: Vec<String> = n.returns.iter().map(|r| r.to_string()).collect();
        assert_eq!(rets, vec!["/Security/Name", "/Security/Price/LastTrade"]);
    }

    #[test]
    fn mismatched_roots_are_rejected() {
        let err = parse_sqlxml(
            r#"SELECT * FROM SDOC
               WHERE XMLEXISTS('$d/Security[Yield > 1]') AND XMLEXISTS('$d/Order[id = 1]')"#,
        )
        .unwrap_err();
        assert!(err.message.contains("root element"), "{err}");
    }

    #[test]
    fn parse_statement_dispatches_select() {
        let stmt =
            parse_statement(r#"select * from SDOC where xmlexists('$d/Security[PE >= 10]')"#)
                .unwrap();
        assert_eq!(stmt.collection(), "SDOC");
        assert!(!stmt.is_modification());
    }

    #[test]
    fn deep_predicates_keep_anchoring() {
        let q = parse_sqlxml(
            r#"SELECT * FROM CDOC
               WHERE XMLEXISTS('$d/Customer/Accounts/Account[Balance > 150000]')"#,
        )
        .unwrap();
        let n = normalize(&Statement::Query(q)).unwrap();
        let pats: Vec<String> = n.patterns.iter().map(|p| p.linear.to_string()).collect();
        assert!(
            pats.contains(&"/Customer/Accounts/Account/Balance".to_string()),
            "{pats:?}"
        );
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse_sqlxml("SELECT").is_err());
        assert!(parse_sqlxml("SELECT * FROM").is_err());
        assert!(parse_sqlxml("SELECT * FROM T WHERE XMLEXISTS(42)").is_err());
        assert!(parse_sqlxml("SELECT * FROM T WHERE XMLEXISTS('$d')").is_err());
        assert!(parse_sqlxml("SELECT * FROM T").is_err()); // no patterns at all
    }
}
