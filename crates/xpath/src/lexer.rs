//! Token stream shared by the XPath, XQuery-lite and SQL/XML-lite parsers.
//!
//! Tokens **borrow** from the statement text: a name, variable or string
//! literal is a `&str` slice of the input, so [`Token`] is `Copy` and lexing
//! allocates once — the token buffer, reserved up front from the input's
//! length. Nothing is lower-cased or copied here; keywords are
//! matched case-insensitively by the parsers, and the parsers copy a slice
//! out only where the AST keeps it (a collection name, a literal). A
//! statement stream's lexing cost therefore follows the bytes lexed, not the
//! number of tokens.
//!
//! Every failure carries the byte offset of the offending character in
//! [`ParseError::offset`]; the message itself names no position.

use crate::parser::ParseError;
use std::fmt;

/// A lexical token, borrowing its text from the lexed input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    /// `/`
    Slash,
    /// `//`
    DblSlash,
    /// `*`
    Star,
    /// `.` with no digit after it: the context node (the empty relative
    /// path). `.5` is a number.
    Dot,
    /// A name (element name or keyword; keywords are resolved by parsers).
    Name(&'a str),
    /// `$name`
    Var(&'a str),
    /// A quoted string literal (quotes stripped, entities not processed).
    Str(&'a str),
    /// A numeric literal.
    Num(f64),
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `,`
    Comma,
    /// `:=` (accepted, unused)
    Assign,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Slash => write!(f, "/"),
            Token::DblSlash => write!(f, "//"),
            Token::Star => write!(f, "*"),
            Token::Dot => write!(f, "."),
            Token::Name(n) => write!(f, "{n}"),
            Token::Var(v) => write!(f, "${v}"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::Num(n) => write!(f, "{n}"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "!="),
            Token::Comma => write!(f, ","),
            Token::Assign => write!(f, ":="),
        }
    }
}

fn lex_error(offset: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        offset,
        message: message.into(),
    }
}

/// Tokenizes `input`. Returns tokens with their byte offsets.
pub fn tokenize(input: &str) -> Result<Vec<(usize, Token<'_>)>, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    // Statement text averages four bytes a token; half the input length
    // covers anything but runs of one-byte tokens, which grow the buffer as
    // any `Vec` does.
    let mut out = Vec::with_capacity(input.len() / 2 + 1);
    while pos < bytes.len() {
        let c = bytes[pos];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                pos += 1;
            }
            b'/' => {
                if bytes.get(pos + 1) == Some(&b'/') {
                    out.push((pos, Token::DblSlash));
                    pos += 2;
                } else {
                    out.push((pos, Token::Slash));
                    pos += 1;
                }
            }
            b'*' => {
                out.push((pos, Token::Star));
                pos += 1;
            }
            b'[' => {
                out.push((pos, Token::LBracket));
                pos += 1;
            }
            b']' => {
                out.push((pos, Token::RBracket));
                pos += 1;
            }
            b'(' => {
                out.push((pos, Token::LParen));
                pos += 1;
            }
            b')' => {
                out.push((pos, Token::RParen));
                pos += 1;
            }
            b'{' => {
                out.push((pos, Token::LBrace));
                pos += 1;
            }
            b'}' => {
                out.push((pos, Token::RBrace));
                pos += 1;
            }
            b',' => {
                out.push((pos, Token::Comma));
                pos += 1;
            }
            b'<' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push((pos, Token::Le));
                    pos += 2;
                } else {
                    out.push((pos, Token::Lt));
                    pos += 1;
                }
            }
            b'>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push((pos, Token::Ge));
                    pos += 2;
                } else {
                    out.push((pos, Token::Gt));
                    pos += 1;
                }
            }
            b'=' => {
                out.push((pos, Token::Eq));
                pos += 1;
            }
            b'!' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push((pos, Token::Ne));
                    pos += 2;
                } else {
                    return Err(lex_error(pos, "unexpected `!`"));
                }
            }
            b':' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push((pos, Token::Assign));
                    pos += 2;
                } else {
                    return Err(lex_error(pos, "unexpected `:`"));
                }
            }
            b'$' => {
                let start = pos + 1;
                let mut end = start;
                while end < bytes.len() && is_name_byte(bytes[end]) {
                    end += 1;
                }
                if end == start {
                    return Err(lex_error(pos, "expected variable name"));
                }
                out.push((pos, Token::Var(&input[start..end])));
                pos = end;
            }
            b'"' | b'\'' => {
                let quote = c;
                let start = pos + 1;
                let mut end = start;
                while end < bytes.len() && bytes[end] != quote {
                    end += 1;
                }
                if end == bytes.len() {
                    return Err(lex_error(pos, "unterminated string literal"));
                }
                out.push((pos, Token::Str(&input[start..end])));
                pos = end + 1;
            }
            b'.' if !bytes.get(pos + 1).is_some_and(u8::is_ascii_digit) => {
                out.push((pos, Token::Dot));
                pos += 1;
            }
            b'0'..=b'9' | b'-' | b'+' | b'.' => {
                let start = pos;
                let mut end = pos + 1;
                while end < bytes.len()
                    && (bytes[end].is_ascii_digit()
                        || bytes[end] == b'.'
                        || bytes[end] == b'e'
                        || bytes[end] == b'E'
                        || ((bytes[end] == b'+' || bytes[end] == b'-')
                            && matches!(bytes[end - 1], b'e' | b'E')))
                {
                    end += 1;
                }
                let text = &input[start..end];
                let n: f64 = text
                    .parse()
                    .map_err(|_| lex_error(pos, format!("bad numeric literal `{text}`")))?;
                out.push((pos, Token::Num(n)));
                pos = end;
            }
            _ if is_name_byte(c) => {
                let start = pos;
                let mut end = pos + 1;
                while end < bytes.len() && is_name_byte(bytes[end]) {
                    end += 1;
                }
                out.push((pos, Token::Name(&input[start..end])));
                pos = end;
            }
            _ => {
                return Err(lex_error(
                    pos,
                    format!("unexpected character `{}`", c as char),
                ));
            }
        }
    }
    Ok(out)
}

pub(crate) fn is_name_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token<'_>> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect()
    }

    #[test]
    fn tokenizes_paths() {
        assert_eq!(
            toks("/Security//*"),
            vec![
                Token::Slash,
                Token::Name("Security"),
                Token::DblSlash,
                Token::Star
            ]
        );
    }

    #[test]
    fn tokenizes_predicates_and_operators() {
        assert_eq!(
            toks("[Yield >= 4.5]"),
            vec![
                Token::LBracket,
                Token::Name("Yield"),
                Token::Ge,
                Token::Num(4.5),
                Token::RBracket
            ]
        );
    }

    #[test]
    fn tokenizes_variables_and_strings() {
        assert_eq!(
            toks("$sec/Symbol = \"BCIIPRC\""),
            vec![
                Token::Var("sec"),
                Token::Slash,
                Token::Name("Symbol"),
                Token::Eq,
                Token::Str("BCIIPRC")
            ]
        );
    }

    #[test]
    fn tokens_borrow_the_input_and_report_their_offsets() {
        let input = "  $v/Name = 'x y'";
        let tokens = tokenize(input).unwrap();
        let offsets: Vec<usize> = tokens.iter().map(|(o, _)| *o).collect();
        assert_eq!(offsets, vec![2, 4, 5, 10, 12]);
        // The slices are the input's own bytes, not copies.
        let Token::Str(s) = tokens[4].1 else {
            panic!("expected a string literal")
        };
        assert!(std::ptr::eq(s.as_ptr(), input[13..].as_ptr()));
    }

    #[test]
    fn negative_numbers_and_exponents() {
        assert_eq!(toks("-1.5e3"), vec![Token::Num(-1500.0)]);
    }

    #[test]
    fn a_dot_no_digit_follows_is_the_context_node() {
        assert_eq!(
            toks("[. = 1]"),
            vec![
                Token::LBracket,
                Token::Dot,
                Token::Eq,
                Token::Num(1.0),
                Token::RBracket
            ]
        );
        assert_eq!(
            toks(".//b"),
            vec![Token::Dot, Token::DblSlash, Token::Name("b")]
        );
        assert_eq!(toks("."), vec![Token::Dot]);
        // A leading-dot fraction is still a number, and a dot inside a
        // name still belongs to the name.
        assert_eq!(toks(".5"), vec![Token::Num(0.5)]);
        assert_eq!(toks("a.b"), vec![Token::Name("a.b")]);
    }

    #[test]
    fn errors_carry_the_byte_offset_and_name_no_position() {
        for (input, offset, message) in [
            ("a = \"abc", 4, "unterminated string literal"),
            ("a ! b", 2, "unexpected `!`"),
            ("ab : c", 3, "unexpected `:`"),
            ("x/$", 2, "expected variable name"),
            ("/a[b = 1e]", 7, "bad numeric literal `1e`"),
            ("/a ? b", 3, "unexpected character `?`"),
        ] {
            let err = tokenize(input).unwrap_err();
            assert_eq!((err.offset, err.message.as_str()), (offset, message));
        }
        assert_eq!(
            tokenize("a = \"abc").unwrap_err().to_string(),
            "parse error at byte 4: unterminated string literal"
        );
    }

    #[test]
    fn errors_on_unterminated_string() {
        assert!(tokenize("\"abc").is_err());
    }

    #[test]
    fn errors_on_stray_bang() {
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn single_quotes_accepted() {
        assert_eq!(toks("'SDOC'"), vec![Token::Str("SDOC")]);
    }
}
