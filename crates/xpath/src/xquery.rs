//! XQuery-lite: single-variable FLWOR expressions plus update statements.
//!
//! Grammar (enough for the paper's running example and TPoX-style queries):
//!
//! ```text
//! statement := flwor | path-query | insert | delete | update
//! flwor     := 'for' VAR 'in' source let* where? order-by? 'return' ret
//! let       := 'let' VAR ':=' VAR rel-path
//! where     := 'where' cond ('and' cond)*
//! order-by  := 'order' 'by' VAR rel-path ('ascending'|'descending')?
//! source    := NAME '(' STR ')' path-expr          -- e.g. SECURITY('SDOC')/Security[Yield>4.5]
//! cond      := VAR rel-path (op literal)?          -- comparison or existence
//! ret       := VAR rel-path? | '<' NAME '>' '{' item (',' item)* '}' '<' '/' NAME '>'
//! path-query:= NAME '(' STR ')' path-expr          -- plain XPath over a collection
//! insert    := 'insert' 'into' NAME raw-xml
//! delete    := 'delete' 'from' NAME 'where' path-expr
//! update    := 'update' NAME 'set' linear-path '=' literal 'where' path-expr
//! ```

use crate::ast::{CmpOp, Literal, PathExpr};
use crate::lexer::{is_name_byte, Token};
use crate::linear::{LinearPath, LinearStep};
use crate::parser::{parse_linear_steps, parse_path_expr_steps, ParseError, TokenCursor};
use crate::statement::Statement;

/// A `where`-clause condition: a relative path from the binding variable,
/// optionally compared to a literal (`None` = existence test).
#[derive(Debug, Clone, PartialEq)]
pub struct WhereCond {
    /// Relative path from the binding.
    pub rel: Vec<LinearStep>,
    /// Comparison, or `None` for an existence test.
    pub cmp: Option<(CmpOp, Literal)>,
}

/// A return-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum ReturnExpr {
    /// `return $v` — the whole bound element.
    Var,
    /// `return $v/rel` — a projected relative path.
    Path(Vec<LinearStep>),
}

/// A parsed FLWOR (or plain path) query.
#[derive(Debug, Clone, PartialEq)]
pub struct FlworQuery {
    /// Collection accessed (the argument of `NAME('...')`).
    pub collection: String,
    /// The binding variable name (`None` for a plain path query).
    pub var: Option<String>,
    /// The binding path expression, predicates included.
    pub source: PathExpr,
    /// `let` bindings: variable name → path relative to the `for` binding.
    /// References are expanded during parsing; kept for display/debugging.
    pub lets: Vec<(String, Vec<LinearStep>)>,
    /// Conjunctive `where` conditions.
    pub conditions: Vec<WhereCond>,
    /// `order by` path (relative to the binding), if present.
    pub order_by: Option<Vec<LinearStep>>,
    /// Returned items.
    pub returns: Vec<ReturnExpr>,
}

/// Parses one workload statement.
///
/// The statement kind is decided by its first word, compared whole and
/// case-insensitively: `for`, `insert`, `delete`, `update` and `select`
/// open their statements, anything else is a path query whose first word
/// is the collection accessor. A table that merely *starts* with a keyword
/// (`FORECAST('FDOC')/…`, `updates('U')/…`) is therefore queried like any
/// other.
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    let trimmed = input.trim();
    let word_len = trimmed
        .bytes()
        .position(|b| !is_name_byte(b))
        .unwrap_or(trimmed.len());
    let opens_with = |kw: &str| trimmed[..word_len].eq_ignore_ascii_case(kw);
    if opens_with("insert") {
        return parse_insert(trimmed);
    }
    if opens_with("delete") {
        return parse_delete(trimmed);
    }
    if opens_with("update") {
        return parse_update(trimmed);
    }
    if opens_with("select") {
        return Ok(Statement::Query(crate::sqlxml::parse_sqlxml(trimmed)?));
    }
    let mut cur = TokenCursor::new(trimmed)?;
    let q = if opens_with("for") {
        parse_flwor(&mut cur)?
    } else {
        parse_path_query(&mut cur)?
    };
    if !cur.at_end() {
        return Err(cur.err("trailing tokens after statement"));
    }
    Ok(Statement::Query(q))
}

fn keyword(cur: &mut TokenCursor, kw: &str) -> Result<(), ParseError> {
    if cur.at_keyword(kw) {
        cur.next();
        return Ok(());
    }
    match cur.peek() {
        Some(t) => Err(cur.err(format!("expected keyword `{kw}`, found `{t}`"))),
        None => Err(cur.err(format!("expected keyword `{kw}`, found end of input"))),
    }
}

/// Consumes a `$var` token; `what` names it in the error (`` `$var` ``,
/// `a variable`, …).
fn expect_var<'a>(cur: &mut TokenCursor<'a>, what: &str) -> Result<&'a str, ParseError> {
    match cur.next() {
        Some(Token::Var(v)) => Ok(v),
        Some(t) => Err(cur.err(format!("expected {what}, found `{t}`"))),
        None => Err(cur.err(format!("expected {what}"))),
    }
}

/// Parses `NAME '(' STR ')'` — the collection accessor, e.g.
/// `SECURITY('SDOC')` or `collection("orders")`.
fn parse_collection_accessor(cur: &mut TokenCursor) -> Result<String, ParseError> {
    cur.expect_name()?; // accessor function name; DB2 uses the table name
    cur.expect(Token::LParen)?;
    let coll = match cur.next() {
        Some(Token::Str(s)) => s.to_string(),
        Some(t) => return Err(cur.err(format!("expected collection name string, found `{t}`"))),
        None => return Err(cur.err("expected collection name string")),
    };
    cur.expect(Token::RParen)?;
    Ok(coll)
}

fn parse_flwor(cur: &mut TokenCursor) -> Result<FlworQuery, ParseError> {
    keyword(cur, "for")?;
    let var = expect_var(cur, "`$var`")?;
    keyword(cur, "in")?;
    let collection = parse_collection_accessor(cur)?;
    let source = parse_path_expr_steps(cur, true)?;
    if source.steps.is_empty() {
        return Err(cur.err("binding path must have at least one step"));
    }

    // `let $x := $v/rel` bindings; later references to $x expand inline.
    let mut scope = Scope {
        for_var: var,
        lets: Vec::new(),
    };
    while cur.at_keyword("let") {
        cur.next();
        let name = expect_var(cur, "`$var` after let")?;
        cur.expect(Token::Assign)?;
        let rel = parse_var_path(cur, &scope)?;
        scope.lets.push((name.to_string(), rel));
    }

    let mut conditions = Vec::new();
    if cur.at_keyword("where") {
        cur.next();
        loop {
            conditions.push(parse_condition(cur, &scope)?);
            if cur.at_keyword("and") {
                cur.next();
            } else {
                break;
            }
        }
    }

    let mut order_by = None;
    if cur.at_keyword("order") {
        cur.next();
        keyword(cur, "by")?;
        let rel = parse_var_path(cur, &scope)?;
        if cur.at_keyword("ascending") || cur.at_keyword("descending") {
            cur.next();
        }
        order_by = Some(rel);
    }

    keyword(cur, "return")?;
    let returns = parse_return(cur, &scope)?;
    Ok(FlworQuery {
        collection,
        var: Some(var.to_string()),
        source,
        lets: scope.lets,
        conditions,
        order_by,
        returns,
    })
}

/// Variable scope: the `for` variable plus `let` aliases, each resolving
/// to a path relative to the `for` binding.
struct Scope<'a> {
    for_var: &'a str,
    lets: Vec<(String, Vec<LinearStep>)>,
}

impl Scope<'_> {
    /// Prefix steps for a variable reference, or `None` if unknown.
    fn resolve(&self, name: &str) -> Option<Vec<LinearStep>> {
        if name == self.for_var {
            return Some(Vec::new());
        }
        self.lets
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, rel)| rel.clone())
    }
}

/// Parses `$var rel-path?` and resolves it against the scope into a path
/// relative to the `for` binding.
fn parse_var_path(cur: &mut TokenCursor, scope: &Scope) -> Result<Vec<LinearStep>, ParseError> {
    let name = expect_var(cur, "a variable")?;
    let Some(mut prefix) = scope.resolve(name) else {
        return Err(cur.err(format!("unknown variable `${name}`")));
    };
    prefix.extend(parse_linear_steps(cur, true)?);
    Ok(prefix)
}

fn parse_condition(cur: &mut TokenCursor, scope: &Scope) -> Result<WhereCond, ParseError> {
    let rel = parse_var_path(cur, scope)?;
    let cmp = match cur.cmp_op() {
        Some(op) => Some((op, cur.expect_literal("expected a literal")?)),
        None => {
            if rel.is_empty() {
                return Err(cur.err("a bare `$var` is not a condition"));
            }
            None
        }
    };
    Ok(WhereCond { rel, cmp })
}

fn parse_return(cur: &mut TokenCursor, scope: &Scope) -> Result<Vec<ReturnExpr>, ParseError> {
    match cur.peek() {
        // Element constructor: <Name>{ $v/p, $v/q }</Name>
        Some(Token::Lt) => {
            cur.next();
            let open = cur.expect_name()?;
            cur.expect(Token::Gt)?;
            cur.expect(Token::LBrace)?;
            let mut items = Vec::new();
            loop {
                items.push(parse_return_item(cur, scope)?);
                if cur.peek() == Some(Token::Comma) {
                    cur.next();
                } else {
                    break;
                }
            }
            cur.expect(Token::RBrace)?;
            cur.expect(Token::Lt)?;
            cur.expect(Token::Slash)?;
            let close = cur.expect_name()?;
            if close != open {
                return Err(cur.err(format!(
                    "mismatched constructor tags `<{open}>` vs `</{close}>`"
                )));
            }
            cur.expect(Token::Gt)?;
            Ok(items)
        }
        _ => Ok(vec![parse_return_item(cur, scope)?]),
    }
}

fn parse_return_item(cur: &mut TokenCursor, scope: &Scope) -> Result<ReturnExpr, ParseError> {
    let rel = parse_var_path(cur, scope)?;
    if rel.is_empty() {
        Ok(ReturnExpr::Var)
    } else {
        Ok(ReturnExpr::Path(rel))
    }
}

fn parse_path_query(cur: &mut TokenCursor) -> Result<FlworQuery, ParseError> {
    let collection = parse_collection_accessor(cur)?;
    let source = parse_path_expr_steps(cur, true)?;
    if source.steps.is_empty() {
        return Err(cur.err("path query must have at least one step"));
    }
    Ok(FlworQuery {
        collection,
        var: None,
        source,
        lets: Vec::new(),
        conditions: Vec::new(),
        order_by: None,
        returns: vec![ReturnExpr::Var],
    })
}

fn parse_insert(input: &str) -> Result<Statement, ParseError> {
    // insert into NAME <xml...>
    let lt = input.find('<').ok_or(ParseError {
        offset: input.len(),
        message: "insert statement needs an XML payload".into(),
    })?;
    let (head, xml) = input.split_at(lt);
    let mut cur = TokenCursor::new(head)?;
    keyword(&mut cur, "insert")?;
    keyword(&mut cur, "into")?;
    let collection = cur.expect_name()?.to_string();
    if !cur.at_end() {
        return Err(cur.err("unexpected tokens before XML payload"));
    }
    Ok(Statement::Insert {
        collection,
        xml: xml.trim().to_string(),
    })
}

fn parse_delete(input: &str) -> Result<Statement, ParseError> {
    // delete from NAME where /path[pred]
    let mut cur = TokenCursor::new(input)?;
    keyword(&mut cur, "delete")?;
    keyword(&mut cur, "from")?;
    let collection = cur.expect_name()?.to_string();
    keyword(&mut cur, "where")?;
    let target = parse_path_expr_steps(&mut cur, true)?;
    if target.steps.is_empty() {
        return Err(cur.err("delete needs a target path"));
    }
    if !cur.at_end() {
        return Err(cur.err("trailing tokens after delete statement"));
    }
    Ok(Statement::Delete { collection, target })
}

fn parse_update(input: &str) -> Result<Statement, ParseError> {
    // update NAME set /path = literal where /path[pred]
    let mut cur = TokenCursor::new(input)?;
    keyword(&mut cur, "update")?;
    let collection = cur.expect_name()?.to_string();
    keyword(&mut cur, "set")?;
    let set_steps = parse_linear_steps(&mut cur, true)?;
    if set_steps.is_empty() {
        return Err(cur.err("update needs a set path"));
    }
    cur.expect(Token::Eq)?;
    let value = cur.expect_literal("expected a literal")?;
    keyword(&mut cur, "where")?;
    let target = parse_path_expr_steps(&mut cur, true)?;
    if target.steps.is_empty() {
        return Err(cur.err("update needs a target path"));
    }
    if !cur.at_end() {
        return Err(cur.err("trailing tokens after update statement"));
    }
    Ok(Statement::Update {
        collection,
        target,
        set: LinearPath::new(set_steps),
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Predicate;

    /// The paper's Q1.
    const Q1: &str = r#"
        for $sec in SECURITY('SDOC')/Security
        where $sec/Symbol = "BCIIPRC"
        return $sec
    "#;

    /// The paper's Q2.
    const Q2: &str = r#"
        for $sec in SECURITY('SDOC')/Security[Yield>4.5]
        where $sec/SecInfo/*/Sector = "Energy"
        return <Security>{$sec/Name}</Security>
    "#;

    #[test]
    fn parses_paper_q1() {
        let Statement::Query(q) = parse_statement(Q1).unwrap() else {
            panic!("expected query");
        };
        assert_eq!(q.collection, "SDOC");
        assert_eq!(q.var.as_deref(), Some("sec"));
        assert_eq!(q.source.to_string(), "/Security");
        assert_eq!(q.conditions.len(), 1);
        assert_eq!(q.conditions[0].cmp.as_ref().unwrap().0, CmpOp::Eq);
        assert_eq!(q.returns, vec![ReturnExpr::Var]);
    }

    #[test]
    fn parses_paper_q2() {
        let Statement::Query(q) = parse_statement(Q2).unwrap() else {
            panic!("expected query");
        };
        assert_eq!(q.source.steps[0].predicates.len(), 1);
        assert!(matches!(
            &q.source.steps[0].predicates[0],
            Predicate::Compare { op: CmpOp::Gt, .. }
        ));
        assert_eq!(q.conditions.len(), 1);
        assert_eq!(q.conditions[0].rel.len(), 3);
        assert_eq!(q.returns.len(), 1);
        assert!(matches!(&q.returns[0], ReturnExpr::Path(p) if p.len() == 1));
    }

    #[test]
    fn parses_conjunctive_where() {
        let s = r#"for $o in ORDERS('ODOC')/Order
                   where $o/Symbol = "IBM" and $o/Quantity >= 100 and $o/Payment
                   return $o/Price"#;
        let Statement::Query(q) = parse_statement(s).unwrap() else {
            panic!()
        };
        assert_eq!(q.conditions.len(), 3);
        assert!(q.conditions[2].cmp.is_none()); // existence
    }

    #[test]
    fn parses_plain_path_query() {
        let Statement::Query(q) =
            parse_statement(r#"collection("SDOC")/Security[Yield > 4.5]/Name"#).unwrap()
        else {
            panic!()
        };
        assert_eq!(q.collection, "SDOC");
        assert!(q.var.is_none());
        assert_eq!(q.source.strip_predicates().to_string(), "/Security/Name");
    }

    #[test]
    fn parses_constructor_with_multiple_items() {
        let s = r#"for $s in SECURITY('SDOC')/Security
                   return <Out>{$s/Name, $s/Symbol}</Out>"#;
        let Statement::Query(q) = parse_statement(s).unwrap() else {
            panic!()
        };
        assert_eq!(q.returns.len(), 2);
    }

    #[test]
    fn rejects_unknown_variables() {
        let s = r#"for $a in X('C')/a where $b/x = 1 return $a"#;
        let err = parse_statement(s).unwrap_err();
        assert!(err.message.contains("unknown variable"), "{err}");
    }

    #[test]
    fn rejects_mismatched_constructor() {
        let s = r#"for $a in X('C')/a return <X>{$a/b}</Y>"#;
        assert!(parse_statement(s).is_err());
    }

    #[test]
    fn parses_insert() {
        let s = r#"insert into SDOC <Security><Symbol>IBM</Symbol></Security>"#;
        let Statement::Insert { collection, xml } = parse_statement(s).unwrap() else {
            panic!()
        };
        assert_eq!(collection, "SDOC");
        assert!(xml.starts_with("<Security>"));
    }

    #[test]
    fn parses_delete() {
        let s = r#"delete from SDOC where /Security[Symbol = "IBM"]"#;
        let Statement::Delete { collection, target } = parse_statement(s).unwrap() else {
            panic!()
        };
        assert_eq!(collection, "SDOC");
        assert_eq!(target.predicate_count(), 1);
    }

    #[test]
    fn parses_update() {
        let s = r#"update SDOC set /Security/Yield = 5.0 where /Security[Symbol = "IBM"]"#;
        let Statement::Update { set, value, .. } = parse_statement(s).unwrap() else {
            panic!()
        };
        assert_eq!(set.to_string(), "/Security/Yield");
        assert_eq!(value, Literal::Num(5.0));
    }

    #[test]
    fn a_table_whose_name_starts_with_a_keyword_is_a_path_query() {
        for accessor in [
            "FORECAST",
            "forecast",
            "formats",
            "FORMATS",
            "insertions",
            "INSERTIONS",
            "deleted",
            "DELETED",
            "UPDATES",
            "updates",
            "selection",
            "SELECTION",
            "for.each",
            "for-each",
            "for_each",
        ] {
            let text = format!(r#"{accessor}('FDOC')/Forecast[Region = "EU"]"#);
            let Statement::Query(q) =
                parse_statement(&text).unwrap_or_else(|e| panic!("{text}: {e}"))
            else {
                panic!("{text} is a query")
            };
            assert_eq!(q.collection, "FDOC", "{text}");
            assert!(q.var.is_none(), "{text}");
            assert_eq!(q.source.predicate_count(), 1, "{text}");
        }
    }

    #[test]
    fn whole_keywords_still_dispatch_in_either_case() {
        for text in [
            "for $x in C('C')/a return $x",
            "FOR $x in C('C')/a return $x",
            "For$x in C('C')/a return $x",
        ] {
            let Statement::Query(q) = parse_statement(text).unwrap() else {
                panic!("{text} is a query")
            };
            assert_eq!(q.var.as_deref(), Some("x"), "{text}");
        }
        assert!(matches!(
            parse_statement("INSERT into C <a/>").unwrap(),
            Statement::Insert { .. }
        ));
        assert!(matches!(
            parse_statement("Delete from C where /a").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(
            parse_statement("UPDATE C set /a/b = 1 where /a").unwrap(),
            Statement::Update { .. }
        ));
        assert!(
            !parse_statement("Select * from C where xmlexists('$d/a[b = 1]')")
                .unwrap()
                .is_modification()
        );
        // The bare keyword is still the keyword, not an accessor.
        assert!(parse_statement("for('C')/a[b = 1]").is_err());
        assert!(parse_statement("insert('C')/a[b = 1]").is_err());
    }

    #[test]
    fn lexer_errors_report_where_they_are() {
        let err = parse_statement(r#"collection('C')/a[b = "open]"#).unwrap_err();
        assert_eq!(err.offset, 22);
        assert_eq!(
            err.to_string(),
            "parse error at byte 22: unterminated string literal"
        );
        // Offsets count from the first non-blank byte of the statement, as
        // the grammar errors' offsets do.
        let err = parse_statement("  delete from C where /a[b ! 1]").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (25, "unexpected `!`"));
    }

    #[test]
    fn insert_without_payload_errors() {
        assert!(parse_statement("insert into SDOC").is_err());
    }

    #[test]
    fn let_bindings_expand_in_conditions_and_returns() {
        let s = r#"for $s in SECURITY('SDOC')/Security
                   let $info := $s/SecInfo/StockInfo
                   where $info/Sector = "Energy"
                   return $info/Industry"#;
        let Statement::Query(q) = parse_statement(s).unwrap() else {
            panic!()
        };
        assert_eq!(q.lets.len(), 1);
        // Condition path expanded: SecInfo/StockInfo/Sector.
        assert_eq!(q.conditions[0].rel.len(), 3);
        assert!(matches!(&q.returns[0], ReturnExpr::Path(p) if p.len() == 3));
    }

    #[test]
    fn let_bindings_chain() {
        let s = r#"for $s in C('C')/a
                   let $b := $s/b
                   let $c := $b/c
                   where $c/d = 1
                   return $s"#;
        let Statement::Query(q) = parse_statement(s).unwrap() else {
            panic!()
        };
        assert_eq!(q.conditions[0].rel.len(), 3); // b/c/d
    }

    #[test]
    fn order_by_is_parsed_with_optional_direction() {
        for dir in ["", " ascending", " descending"] {
            let s = format!(r#"for $s in C('C')/a where $s/b = 1 order by $s/x{dir} return $s/b"#);
            let Statement::Query(q) = parse_statement(&s).unwrap() else {
                panic!()
            };
            assert_eq!(q.order_by.as_ref().unwrap().len(), 1, "{s}");
        }
    }

    #[test]
    fn unknown_let_variable_errors() {
        let s = r#"for $a in C('C')/a let $x := $zzz/b return $a"#;
        assert!(parse_statement(s).is_err());
    }

    #[test]
    fn normalized_order_by_appears_in_returns() {
        let s = r#"for $s in C('C')/a where $s/b = 1 order by $s/k return $s/b"#;
        let stmt = parse_statement(s).unwrap();
        let n = crate::normalize::normalize(&stmt).unwrap();
        assert!(n.returns.iter().any(|r| r.to_string() == "/a/k"));
    }
}
