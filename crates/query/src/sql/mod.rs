//! A SQL front-end for the declarative layer.
//!
//! Supports single-statement `SELECT` queries, optionally wrapped in
//! `EXPLAIN` (render the plan) or `EXPLAIN ANALYZE` (run it instrumented and
//! render measured per-operator statistics):
//!
//! ```text
//! [ EXPLAIN [ANALYZE] ]
//! SELECT <exprs | aggregates | *>
//! FROM <table>
//! [ [LEFT|INNER] JOIN <table> ON a = b [AND c = d]... ]...
//! [ WHERE <predicate> ]
//! [ GROUP BY <exprs> ] [ HAVING <predicate> ]
//! [ ORDER BY <expr> [ASC|DESC], ... ]
//! [ LIMIT <n> ]
//! ```
//!
//! The parser lowers straight into [`crate::logical::LogicalPlan`], so SQL
//! text and the builder API optimize and execute identically — two skins
//! over one declarative algebra, which is the paper's "usability" point in
//! practice.

mod lexer;
mod parser;

pub use lexer::{lex, Token};
pub use parser::{parse_select, parse_statement, Statement, MAX_DEPTH};

use crate::error::Result;

/// Canonical single-spaced rendering of a statement's token stream — the
/// text half of a plan-cache fingerprint. Whitespace runs and `--` comments
/// never reach the tokens, so formattings of the same statement normalize
/// identically. Identifier case is preserved verbatim (column resolution is
/// case-sensitive), so `SELECT` vs `select` yields two cache entries — a
/// duplicate, never a wrong hit.
pub fn normalize(sql: &str) -> Result<String> {
    let tokens = lex(sql)?;
    let mut out = String::with_capacity(sql.len());
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match t {
            Token::Ident(s) => out.push_str(s),
            Token::Int(n) => out.push_str(&n.to_string()),
            Token::Float(f) => out.push_str(&f.to_string()),
            Token::Str(s) => {
                out.push('\'');
                out.push_str(&s.replace('\'', "''"));
                out.push('\'');
            }
            Token::Param(p) => out.push_str(&format!("${}", p + 1)),
            Token::Comma => out.push(','),
            Token::LParen => out.push('('),
            Token::RParen => out.push(')'),
            Token::Star => out.push('*'),
            Token::Plus => out.push('+'),
            Token::Minus => out.push('-'),
            Token::Slash => out.push('/'),
            Token::Percent => out.push('%'),
            Token::Eq => out.push('='),
            Token::NotEq => out.push_str("<>"),
            Token::Lt => out.push('<'),
            Token::LtEq => out.push_str("<="),
            Token::Gt => out.push('>'),
            Token::GtEq => out.push_str(">="),
            Token::Dot => out.push('.'),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod normalize_tests {
    use super::normalize;

    #[test]
    fn whitespace_and_comments_collapse() {
        let a = normalize("SELECT a,b FROM t WHERE a>=1 -- trailing\n").unwrap();
        let b = normalize("SELECT  a , b\n  FROM t\n  WHERE a >= 1").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, "SELECT a , b FROM t WHERE a >= 1");
    }

    #[test]
    fn literals_and_params_survive() {
        let n = normalize("SELECT * FROM t WHERE s = 'o''k' AND x = $2 AND f != 1.50").unwrap();
        assert_eq!(
            n,
            "SELECT * FROM t WHERE s = 'o''k' AND x = $2 AND f <> 1.5"
        );
    }

    #[test]
    fn different_literals_normalize_differently() {
        let a = normalize("SELECT * FROM t WHERE x = 1").unwrap();
        let b = normalize("SELECT * FROM t WHERE x = 2").unwrap();
        assert_ne!(a, b);
    }
}
