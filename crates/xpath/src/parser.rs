//! Recursive-descent parser for XPath path expressions.
//!
//! All three surface languages parse from a [`TokenCursor`]: the tokens of
//! one input, lexed eagerly (so a lexer error anywhere in the text is
//! reported before any grammar error) and borrowed from it. The cursor
//! lives for one parse call and never outlives the text it was built
//! from; `peek` and `next` hand tokens out by value (`Token` is `Copy`),
//! and a parser copies a slice into an owned `String` only where the AST
//! keeps it.

use crate::ast::{CmpOp, Literal, PathExpr, Predicate, Step};
use crate::lexer::{tokenize, Token};
use crate::linear::{Axis, LinearPath, LinearStep, NameTest};
use std::fmt;

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the offending token or character (input length for
    /// end-of-input).
    pub offset: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum number of steps in one path and of predicates on one step.
/// Downstream consumers (containment checks, index matching, plan
/// rendering) recurse or allocate per step, so hostile inputs with
/// hundreds of thousands of steps are rejected up front with a typed
/// error instead of risking stack or memory exhaustion deep in the
/// pipeline.
pub const MAX_PATH_STEPS: usize = 4096;

pub(crate) struct TokenCursor<'a> {
    tokens: Vec<(usize, Token<'a>)>,
    pos: usize,
    input_len: usize,
}

impl<'a> TokenCursor<'a> {
    pub(crate) fn new(input: &'a str) -> Result<Self, ParseError> {
        Ok(Self {
            tokens: tokenize(input)?,
            pos: 0,
            input_len: input.len(),
        })
    }

    pub(crate) fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).map(|&(_, t)| t)
    }

    pub(crate) fn next(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|(o, _)| *o)
            .unwrap_or(self.input_len)
    }

    pub(crate) fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offset(),
            message: message.into(),
        }
    }

    pub(crate) fn expect(&mut self, want: Token<'_>) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.err(format!("expected `{want}`, found `{t}`"))),
            None => Err(self.err(format!("expected `{want}`, found end of input"))),
        }
    }

    pub(crate) fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Whether the next token is the keyword `kw` (a name, compared
    /// case-insensitively).
    pub(crate) fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Name(n)) if n.eq_ignore_ascii_case(kw))
    }

    /// Consumes a name token, failing otherwise.
    pub(crate) fn expect_name(&mut self) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some(Token::Name(n)) => {
                self.pos += 1;
                Ok(n)
            }
            Some(t) => Err(self.err(format!("expected a name, found `{t}`"))),
            None => Err(self.err("expected a name, found end of input")),
        }
    }

    // The two counts below read ahead in the token buffer so that a path's
    // vectors are allocated once, at their final size: a hundred thousand
    // parsed statements stay in memory together, and the slack `Vec::push`
    // leaves (room for four steps where there is one) was half of their
    // footprint. They follow the shape `parse_step_head` and its callers
    // parse — axis, name test, bracketed groups — and nothing depends on
    // them being right: a malformed path is merely sized long or short.

    /// The index just past the bracketed group that opens at `open`, or
    /// the end of the tokens if it never closes.
    fn group_end(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for (i, (_, t)) in self.tokens[open..].iter().enumerate() {
            match t {
                Token::LBracket => depth += 1,
                Token::RBracket if depth == 1 => return open + i + 1,
                Token::RBracket => depth -= 1,
                _ => {}
            }
        }
        self.tokens.len()
    }

    fn opens_group(&self, at: usize) -> bool {
        matches!(self.tokens.get(at), Some((_, Token::LBracket)))
    }

    /// How many `[…]` groups stand at the cursor, one after another.
    fn predicates_ahead(&self) -> usize {
        let (mut at, mut groups) = (self.pos, 0);
        while self.opens_group(at) && groups < MAX_PATH_STEPS {
            at = self.group_end(at);
            groups += 1;
        }
        groups
    }

    /// How many steps the path at the cursor has, predicates skipped.
    fn steps_ahead(&self, bare_first: bool) -> usize {
        let (mut at, mut steps) = (self.pos, 0);
        while steps < MAX_PATH_STEPS {
            match self.tokens.get(at) {
                Some((_, Token::Slash | Token::DblSlash)) => at += 1,
                Some((_, Token::Name(_) | Token::Star)) if bare_first && steps == 0 => {}
                _ => break,
            }
            if !matches!(self.tokens.get(at), Some((_, Token::Name(_) | Token::Star))) {
                break;
            }
            at += 1;
            steps += 1;
            while self.opens_group(at) {
                at = self.group_end(at);
            }
        }
        steps
    }

    /// Consumes a comparison operator, if one is next.
    pub(crate) fn cmp_op(&mut self) -> Option<CmpOp> {
        let op = match self.peek()? {
            Token::Eq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            _ => return None,
        };
        self.pos += 1;
        Some(op)
    }

    /// Consumes a string or numeric literal; `at_end` is the message for
    /// running out of input instead.
    pub(crate) fn expect_literal(&mut self, at_end: &str) -> Result<Literal, ParseError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(Literal::Str(s.to_string())),
            Some(Token::Num(n)) => Ok(Literal::Num(n)),
            Some(t) => Err(self.err(format!("expected a literal, found `{t}`"))),
            None => Err(self.err(at_end)),
        }
    }
}

/// Parses a linear path (predicates rejected), e.g. `/Security/SecInfo/*`.
pub fn parse_linear_path(input: &str) -> Result<LinearPath, ParseError> {
    let mut cur = TokenCursor::new(input)?;
    let path = parse_linear_steps(&mut cur, /*absolute=*/ true)?;
    if !cur.at_end() {
        return Err(cur.err("trailing tokens after linear path"));
    }
    if path.is_empty() {
        return Err(cur.err("empty path"));
    }
    Ok(LinearPath::new(path))
}

/// Parses the axis and name test that open a step, or `None` when no step
/// starts here. If `bare_first`, a name or `*` with no axis before it
/// starts a child step (the first step of a relative path).
fn parse_step_head(
    cur: &mut TokenCursor,
    bare_first: bool,
) -> Result<Option<(Axis, NameTest)>, ParseError> {
    let axis = match cur.peek() {
        Some(Token::Slash) => {
            cur.next();
            Axis::Child
        }
        Some(Token::DblSlash) => {
            cur.next();
            Axis::Descendant
        }
        Some(Token::Name(_) | Token::Star) if bare_first => Axis::Child,
        _ => return Ok(None),
    };
    let test = match cur.peek() {
        Some(Token::Star) => NameTest::Wildcard,
        Some(Token::Name(n)) => NameTest::name_of(n),
        _ => return Err(cur.err("expected a name test after axis")),
    };
    cur.next();
    Ok(Some((axis, test)))
}

/// Parses linear steps; if `absolute`, the first step must begin with an
/// axis token; otherwise a bare initial name is allowed (relative path).
pub(crate) fn parse_linear_steps(
    cur: &mut TokenCursor,
    absolute: bool,
) -> Result<Vec<LinearStep>, ParseError> {
    let mut steps = Vec::with_capacity(cur.steps_ahead(!absolute));
    while let Some((axis, test)) = parse_step_head(cur, steps.is_empty() && !absolute)? {
        if steps.len() >= MAX_PATH_STEPS {
            return Err(cur.err(format!("path longer than {MAX_PATH_STEPS} steps")));
        }
        steps.push(LinearStep { axis, test });
    }
    Ok(steps)
}

/// Parses an absolute path expression with predicates, e.g.
/// `/Security[Yield>4.5]/SecInfo/*/Sector`.
pub fn parse_path_expr(input: &str) -> Result<PathExpr, ParseError> {
    let mut cur = TokenCursor::new(input)?;
    let expr = parse_path_expr_steps(&mut cur, true)?;
    if !cur.at_end() {
        return Err(cur.err("trailing tokens after path expression"));
    }
    if expr.steps.is_empty() {
        return Err(cur.err("empty path expression"));
    }
    Ok(expr)
}

/// Parses path-expression steps from the cursor (shared with the XQuery
/// parser, which encounters paths mid-statement).
pub(crate) fn parse_path_expr_steps(
    cur: &mut TokenCursor,
    absolute: bool,
) -> Result<PathExpr, ParseError> {
    let mut steps = Vec::with_capacity(cur.steps_ahead(!absolute));
    while let Some((axis, test)) = parse_step_head(cur, steps.is_empty() && !absolute)? {
        let mut predicates = Vec::with_capacity(cur.predicates_ahead());
        while cur.peek() == Some(Token::LBracket) {
            if predicates.len() >= MAX_PATH_STEPS {
                return Err(cur.err(format!("more than {MAX_PATH_STEPS} predicates on one step")));
            }
            cur.next();
            predicates.push(parse_predicate(cur)?);
            cur.expect(Token::RBracket)?;
        }
        if steps.len() >= MAX_PATH_STEPS {
            return Err(cur.err(format!("path longer than {MAX_PATH_STEPS} steps")));
        }
        steps.push(Step {
            axis,
            test,
            predicates,
        });
    }
    Ok(PathExpr { steps })
}

fn parse_predicate(cur: &mut TokenCursor) -> Result<Predicate, ParseError> {
    let first = parse_simple_predicate(cur)?;
    if !cur.at_keyword("or") {
        return Ok(first);
    }
    let mut branches = vec![first];
    while cur.at_keyword("or") {
        cur.next();
        branches.push(parse_simple_predicate(cur)?);
    }
    Ok(Predicate::Or(branches))
}

fn parse_simple_predicate(cur: &mut TokenCursor) -> Result<Predicate, ParseError> {
    // The tested path is relative to the step's node: `b/c`, `*`, `//c`,
    // or spelled from the context node — `.`, `./b`, `.//c`. A predicate
    // that opens with the operator (`[= 1]`) tests the context node too.
    let rel = if cur.peek() == Some(Token::Dot) {
        cur.next();
        parse_linear_steps(cur, true)?
    } else {
        parse_linear_steps(cur, false)?
    };
    match cur.cmp_op() {
        None => {
            if rel.is_empty() {
                Err(cur.err("empty predicate"))
            } else {
                Ok(Predicate::Exists { rel })
            }
        }
        Some(op) => {
            let value = cur.expect_literal("expected a literal, found end of input")?;
            Ok(Predicate::Compare { rel, op, value })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_linear_paths() {
        let p = parse_linear_path("/Security/SecInfo/*/Sector").unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.to_string(), "/Security/SecInfo/*/Sector");
        let p = parse_linear_path("//Yield").unwrap();
        assert_eq!(p.steps[0].axis, Axis::Descendant);
    }

    #[test]
    fn rejects_predicates_in_linear_paths() {
        assert!(parse_linear_path("/a[b=1]").is_err());
    }

    #[test]
    fn rejects_empty_and_garbage() {
        assert!(parse_linear_path("").is_err());
        assert!(parse_linear_path("/a extra").is_err());
        assert!(parse_linear_path("/").is_err());
    }

    #[test]
    fn parses_compare_predicates() {
        let e = parse_path_expr("/Security[Yield>4.5]").unwrap();
        assert_eq!(e.steps.len(), 1);
        match &e.steps[0].predicates[0] {
            Predicate::Compare { rel, op, value } => {
                assert_eq!(rel.len(), 1);
                assert_eq!(*op, CmpOp::Gt);
                assert_eq!(*value, Literal::Num(4.5));
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn parses_string_predicates_with_wildcard_rel() {
        let e = parse_path_expr("/Security[SecInfo/*/Sector = \"Energy\"]").unwrap();
        match &e.steps[0].predicates[0] {
            Predicate::Compare { rel, value, .. } => {
                assert_eq!(rel.len(), 3);
                assert_eq!(*value, Literal::Str("Energy".into()));
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn parses_existence_predicates() {
        let e = parse_path_expr("/Security[SecInfo/StockInfo]").unwrap();
        assert!(matches!(&e.steps[0].predicates[0], Predicate::Exists { rel } if rel.len() == 2));
    }

    #[test]
    fn parses_multiple_predicates_and_descendant_rel() {
        let e = parse_path_expr("/a[b=1][//c>2]/d").unwrap();
        assert_eq!(e.steps[0].predicates.len(), 2);
        match &e.steps[0].predicates[1] {
            Predicate::Compare { rel, .. } => assert_eq!(rel[0].axis, Axis::Descendant),
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn error_offsets_are_reported() {
        let err = parse_path_expr("/a[b=]").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.message.contains("literal"));
    }

    #[test]
    fn the_context_node_is_spelled_with_a_dot() {
        let dotted = parse_path_expr("/a[. = 1]").unwrap();
        assert_eq!(dotted, parse_path_expr("/a[= 1]").unwrap());
        assert!(matches!(
            &dotted.steps[0].predicates[0],
            Predicate::Compare { rel, .. } if rel.is_empty()
        ));
        assert_eq!(dotted.to_string(), "/a[. = 1]");
        // `./b` and `.//c` navigate from it; `.5` is still a number.
        assert_eq!(
            parse_path_expr("/a[./b = 1]").unwrap(),
            parse_path_expr("/a[b = 1]").unwrap()
        );
        assert_eq!(
            parse_path_expr("/a[.//c > .5]").unwrap(),
            parse_path_expr("/a[//c > 0.5]").unwrap()
        );
        assert_eq!(
            parse_path_expr("/a[b or . = 2]").unwrap().to_string(),
            "/a[b or . = 2]"
        );
        // The context node always exists: testing for it says nothing.
        let err = parse_path_expr("/a[.]").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (4, "empty predicate"));
        assert!(parse_path_expr("/a[.b]").is_err());
        assert!(parse_path_expr("/a/.").is_err());
        assert!(parse_linear_path("/a/.").is_err());
    }

    #[test]
    fn path_vectors_are_allocated_at_their_final_size() {
        let e = parse_path_expr("/a/b[c/d = 1][.//e]/f//g[h or i/j/k/l/m]").unwrap();
        assert_eq!((e.steps.len(), e.steps.capacity()), (4, 4));
        let counts: Vec<(usize, usize)> = e
            .steps
            .iter()
            .map(|s| (s.predicates.len(), s.predicates.capacity()))
            .collect();
        assert_eq!(counts, vec![(0, 0), (2, 2), (0, 0), (1, 1)]);
        for pred in e.steps.iter().flat_map(|s| &s.predicates) {
            let branches = match pred {
                Predicate::Or(branches) => branches.as_slice(),
                simple => std::slice::from_ref(simple),
            };
            for branch in branches {
                let (Predicate::Compare { rel, .. } | Predicate::Exists { rel }) = branch else {
                    panic!("nested or")
                };
                assert_eq!(rel.capacity(), rel.len(), "{branch}");
            }
        }
        let p = parse_linear_path("/a/*//c/d/e").unwrap();
        assert_eq!((p.steps.len(), p.steps.capacity()), (5, 5));
        // A path the look-ahead misjudges still parses, or still fails, as
        // it would have.
        assert_eq!(parse_path_expr("/a[b = \"]\"]/c").unwrap().steps.len(), 2);
        assert!(parse_path_expr("/a[[b]]/c").is_err());
        assert!(parse_path_expr("/a[b/c").is_err());
    }

    #[test]
    fn parses_or_predicates() {
        let e = parse_path_expr(r#"/a[b = 1 or c = "x"]"#).unwrap();
        match &e.steps[0].predicates[0] {
            Predicate::Or(branches) => {
                assert_eq!(branches.len(), 2);
                assert!(matches!(
                    &branches[0],
                    Predicate::Compare { op: CmpOp::Eq, .. }
                ));
            }
            other => panic!("expected Or, got {other:?}"),
        }
        // Display round-trips.
        let printed = e.to_string();
        assert_eq!(parse_path_expr(&printed).unwrap(), e, "{printed}");
    }

    #[test]
    fn or_with_existence_branches() {
        let e = parse_path_expr("/a[b or c/d >= 2 or e]").unwrap();
        match &e.steps[0].predicates[0] {
            Predicate::Or(branches) => {
                assert_eq!(branches.len(), 3);
                assert!(matches!(&branches[0], Predicate::Exists { .. }));
                assert!(matches!(&branches[2], Predicate::Exists { .. }));
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn or_needs_a_right_hand_side() {
        assert!(parse_path_expr("/a[b = 1 or]").is_err());
    }

    #[test]
    fn deep_paths_parse() {
        let s = format!(
            "/{}",
            (0..20)
                .map(|i| format!("n{i}"))
                .collect::<Vec<_>>()
                .join("/")
        );
        let p = parse_linear_path(&s).unwrap();
        assert_eq!(p.len(), 20);
    }

    #[test]
    fn hostile_step_count_is_rejected() {
        let s = "/a".repeat(MAX_PATH_STEPS + 1);
        let err = parse_linear_path(&s).unwrap_err();
        assert!(err.message.contains("longer than"), "{err}");
        let err = parse_path_expr(&s).unwrap_err();
        assert!(err.message.contains("longer than"), "{err}");
        // At the cap, both parsers accept.
        let ok = "/a".repeat(MAX_PATH_STEPS);
        assert!(parse_linear_path(&ok).is_ok());
    }

    #[test]
    fn hostile_predicate_count_is_rejected() {
        let s = format!("/a{}", "[b]".repeat(MAX_PATH_STEPS + 1));
        let err = parse_path_expr(&s).unwrap_err();
        assert!(err.message.contains("predicates"), "{err}");
    }

    #[test]
    fn hostile_lexer_input_errors_without_panicking() {
        // Unterminated strings, stray operator bytes, and multi-byte
        // characters must produce typed errors, never panics.
        for bad in [
            "\"unterminated",
            "'unterminated",
            "a ! b",
            "a : b",
            "$",
            "héllo",
            "\u{1F600}",
            "1e",
            "..5.5.",
        ] {
            assert!(parse_path_expr(bad).is_err(), "accepted {bad:?}");
        }
    }
}
