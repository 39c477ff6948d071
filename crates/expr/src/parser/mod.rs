//! Text parser for the subscription language.
//!
//! The language is small and deliberately SQL-flavoured; see
//! [`crate::Expr::parse`] for the grammar. Both wordy (`and`, `or`,
//! `not`) and symbolic (`&&`, `||`, `!`) operators are accepted, and
//! `=`/`==` are synonyms.
//!
//! # Examples
//!
//! ```
//! use boolmatch_expr::parser::parse;
//!
//! let e = parse("(a > 10 || a <= 5) && !(b = 1)")?;
//! assert_eq!(e.to_string(), "(a > 10 or a <= 5) and not b = 1");
//! # Ok::<(), boolmatch_expr::ParseError>(())
//! ```

mod error;
mod lexer;

pub use error::ParseError;

use boolmatch_types::Value;

use crate::{Expr, Predicate, MAX_DEPTH};
use error::ErrorKind;
use lexer::{Lexer, Token, TokenKind};

/// Parses a subscription expression; see [`crate::Expr::parse`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the offending token.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens = Lexer::new(input).tokenize()?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
        depth: 0,
    };
    let expr = p.or_expr()?;
    match p.peek() {
        None => Ok(expr),
        Some(t) => Err(ParseError::new(
            ErrorKind::TrailingInput {
                token: t.kind.describe(),
            },
            t.offset,
        )),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    input_len: usize,
    /// Open parentheses and `not`s around the current position.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eof_error(&self, expected: &'static str) -> ParseError {
        ParseError::new(ErrorKind::UnexpectedEof { expected }, self.input_len)
    }

    /// Consumes the `(` or `not` at the current position and enters
    /// the nesting level it opens; past [`MAX_DEPTH`] the text is
    /// refused before the parser recurses any deeper. The caller leaves
    /// the level (`depth -= 1`) once the nested part is parsed.
    fn descend(&mut self) -> Result<(), ParseError> {
        let offset = self.next().map_or(self.input_len, |t| t.offset);
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(ParseError::new(
                ErrorKind::TooDeep { limit: MAX_DEPTH },
                offset,
            ));
        }
        Ok(())
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut children = vec![self.and_expr()?];
        while matches!(self.peek(), Some(t) if t.kind == TokenKind::Or) {
            self.next();
            children.push(self.and_expr()?);
        }
        Ok(Expr::or(children))
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut children = vec![self.not_expr()?];
        while matches!(self.peek(), Some(t) if t.kind == TokenKind::And) {
            self.next();
            children.push(self.not_expr()?);
        }
        Ok(Expr::and(children))
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if matches!(self.peek(), Some(t) if t.kind == TokenKind::Not) {
            self.descend()?;
            let inner = self.not_expr()?;
            self.depth -= 1;
            return Ok(!(inner));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let t = self.peek().ok_or_else(|| self.eof_error("an expression"))?;
        match &t.kind {
            TokenKind::LParen => {
                self.descend()?;
                let inner = self.or_expr()?;
                self.depth -= 1;
                match self.next() {
                    Some(t) if t.kind == TokenKind::RParen => Ok(inner),
                    Some(t) => Err(ParseError::new(
                        ErrorKind::Expected {
                            expected: "`)`",
                            found: t.kind.describe(),
                        },
                        t.offset,
                    )),
                    None => Err(self.eof_error("`)`")),
                }
            }
            TokenKind::Ident(_) => self.predicate(),
            other => Err(ParseError::new(
                ErrorKind::Expected {
                    expected: "an expression",
                    found: other.describe(),
                },
                t.offset,
            )),
        }
    }

    fn predicate(&mut self) -> Result<Expr, ParseError> {
        let attr_tok = self.next().expect("caller checked ident");
        let attr = match attr_tok.kind {
            TokenKind::Ident(name) => name,
            _ => unreachable!("caller checked ident"),
        };

        let op_tok = self.next().ok_or_else(|| self.eof_error("an operator"))?;
        let op = match op_tok.kind {
            TokenKind::Op(op) => op,
            other => {
                return Err(ParseError::new(
                    ErrorKind::Expected {
                        expected: "a comparison operator",
                        found: other.describe(),
                    },
                    op_tok.offset,
                ))
            }
        };

        let val_tok = self.next().ok_or_else(|| self.eof_error("a literal"))?;
        let value: Value = match val_tok.kind {
            TokenKind::Int(i) => Value::from(i),
            TokenKind::Float(x) => Value::from(x),
            TokenKind::Str(s) => Value::from(s),
            TokenKind::Bool(b) => Value::from(b),
            other => {
                return Err(ParseError::new(
                    ErrorKind::Expected {
                        expected: "a literal value",
                        found: other.describe(),
                    },
                    val_tok.offset,
                ))
            }
        };

        if op.is_string_search() && value.as_str().is_none() {
            return Err(ParseError::new(
                ErrorKind::StringOperatorNeedsString { op: op.symbol() },
                val_tok.offset,
            ));
        }

        Ok(Expr::pred(Predicate::new(&attr, op, value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompareOp;

    #[test]
    fn parses_single_predicate() {
        let e = parse("price > 10").unwrap();
        match e {
            Expr::Pred(p) => {
                assert_eq!(p.attr(), "price");
                assert_eq!(p.op(), CompareOp::Gt);
                assert_eq!(p.value(), &Value::from(10_i64));
            }
            other => panic!("expected predicate, got {other:?}"),
        }
    }

    #[test]
    fn parses_fig1_subscription() {
        let e = parse("(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)").unwrap();
        assert_eq!(e.predicate_count(), 6);
        match &e {
            Expr::And(cs) => {
                assert_eq!(cs.len(), 2);
                assert!(matches!(cs[0], Expr::Or(_)));
            }
            other => panic!("expected and, got {other:?}"),
        }
    }

    #[test]
    fn precedence_not_over_and_over_or() {
        // a=1 or b=2 and not c=3  ==  a=1 or (b=2 and (not c=3))
        let e = parse("a = 1 or b = 2 and not c = 3").unwrap();
        match e {
            Expr::Or(cs) => {
                assert_eq!(cs.len(), 2);
                match &cs[1] {
                    Expr::And(inner) => {
                        assert!(matches!(inner[1], Expr::Not(_)));
                    }
                    other => panic!("expected and, got {other:?}"),
                }
            }
            other => panic!("expected or, got {other:?}"),
        }
    }

    #[test]
    fn symbolic_aliases() {
        let worded = parse("a = 1 and b = 2 or not c = 3").unwrap();
        let symbolic = parse("a == 1 && b == 2 || ! c == 3").unwrap();
        assert_eq!(worded, symbolic);
    }

    #[test]
    fn string_and_bool_literals() {
        let e = parse("name prefix \"bo\" and alive = true").unwrap();
        let preds = e.predicates();
        assert_eq!(preds[0].op(), CompareOp::Prefix);
        assert_eq!(preds[0].value(), &Value::from("bo"));
        assert_eq!(preds[1].value(), &Value::from(true));
    }

    #[test]
    fn negated_string_operators() {
        let e = parse("name !prefix \"x\" or name !contains \"y\"").unwrap();
        let preds = e.predicates();
        assert_eq!(preds[0].op(), CompareOp::NotPrefix);
        assert_eq!(preds[1].op(), CompareOp::NotContains);
    }

    #[test]
    fn float_literals_and_negative_numbers() {
        let e = parse("x >= -1.5 and y < 2e3 and z = -4").unwrap();
        let preds = e.predicates();
        assert_eq!(preds[0].value(), &Value::from(-1.5));
        assert_eq!(preds[1].value(), &Value::from(2000.0));
        assert_eq!(preds[2].value(), &Value::from(-4_i64));
    }

    #[test]
    fn error_reports_position() {
        let err = parse("a > ").unwrap_err();
        assert_eq!(err.offset(), 4);
        assert!(err.to_string().contains("literal"));

        let err = parse("a > 1 extra").unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn error_on_missing_operator() {
        let err = parse("a 10").unwrap_err();
        assert!(err.to_string().contains("comparison operator"));
    }

    #[test]
    fn error_on_unbalanced_parens() {
        assert!(parse("(a = 1").is_err());
        assert!(parse("a = 1)").is_err());
    }

    #[test]
    fn error_on_string_op_with_number() {
        let err = parse("a prefix 10").unwrap_err();
        assert!(err.to_string().contains("string"));
    }

    #[test]
    fn deeply_nested_parens() {
        let e = parse("((((a = 1))))").unwrap();
        assert!(matches!(e, Expr::Pred(_)));
    }

    #[test]
    fn single_quoted_strings() {
        let e = parse("sym = 'IBM'").unwrap();
        assert_eq!(e.predicates()[0].value(), &Value::from("IBM"));
    }
}
