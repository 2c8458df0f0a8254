//! The borrowed-token front end builds the ASTs the owned-token one built.
//!
//! `fixtures/parent_asts.txt` holds 287 statement texts (the TPoX and XMark
//! query sets, the update mix, 180 synthetic path queries, and a hand-written
//! list covering every statement kind, keyword case, `let` / `order by` /
//! constructors / `or` groups / SQL/XML, and 31 grammar errors), each
//! followed by `{:?}` of what `parse_statement` returned for it at the
//! commit before tokens borrowed their input. Lexer errors are not in the
//! list: their offset and message changed on purpose.

use xia_xpath::parse_statement;

#[test]
fn asts_equal_the_owned_token_parsers() {
    let fixture = include_str!("fixtures/parent_asts.txt");
    let mut lines = fixture.lines();
    let mut checked = 0;
    while let Some(text) = lines.next() {
        let text = text.strip_prefix("T ").expect("a text line");
        let want = lines
            .next()
            .and_then(|l| l.strip_prefix("A "))
            .expect("an AST line after every text line");
        assert_eq!(format!("{:?}", parse_statement(text)), want, "{text}");
        checked += 1;
    }
    assert!(checked >= 200, "only {checked} statements in the fixture");
}
