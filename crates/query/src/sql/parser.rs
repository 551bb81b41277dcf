//! SQL `SELECT` parser: tokens → logical plan.

use super::lexer::{lex, Token};
use crate::catalog::Catalog;
use crate::error::{QueryError, Result};
use crate::expr::{avg, col, count, count_star, max, min, sum, AggExpr, BinOp, Expr};
use crate::logical::{JoinType, LogicalPlan, SortKey};
use backbone_storage::Value;

/// One item of the select list.
#[derive(Debug, Clone)]
enum SelectItem {
    /// `*`
    Star,
    /// A scalar expression (optionally aliased).
    Scalar(Expr),
    /// An aggregate call (optionally aliased).
    Agg(AggExpr),
}

#[derive(Debug)]
struct JoinSpec {
    table: String,
    on: Vec<(String, String)>,
    join_type: JoinType,
}

#[derive(Debug)]
struct SelectStmt {
    items: Vec<SelectItem>,
    from: String,
    joins: Vec<JoinSpec>,
    where_clause: Option<Expr>,
    group_by: Vec<Expr>,
    having: Option<Expr>,
    order_by: Vec<SortKey>,
    limit: Option<usize>,
}

/// A parsed SQL statement: a query, or an `EXPLAIN [ANALYZE]` wrapper
/// around one.
#[derive(Debug, Clone)]
pub enum Statement {
    /// A plain `SELECT`.
    Select(LogicalPlan),
    /// `EXPLAIN [ANALYZE] SELECT ...`; `analyze` asks for instrumented
    /// execution with measured per-operator statistics.
    Explain {
        /// The wrapped query.
        plan: LogicalPlan,
        /// Whether to run the plan and report actuals (ANALYZE).
        analyze: bool,
    },
}

/// Parse a SQL `SELECT` statement against a catalog into a logical plan.
pub fn parse_select(sql: &str, catalog: &dyn Catalog) -> Result<LogicalPlan> {
    match parse_statement(sql, catalog)? {
        Statement::Select(plan) => Ok(plan),
        Statement::Explain { .. } => Err(QueryError::InvalidPlan(
            "EXPLAIN is a statement, not a query; use parse_statement".into(),
        )),
    }
}

/// Parse a SQL statement — `SELECT` or `EXPLAIN [ANALYZE] SELECT`.
pub fn parse_statement(sql: &str, catalog: &dyn Catalog) -> Result<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let explain = p.eat_keyword("EXPLAIN");
    let analyze = explain && p.eat_keyword("ANALYZE");
    let stmt = p.parse_statement()?;
    p.expect_end()?;
    let plan = build_plan(stmt, catalog)?;
    Ok(if explain {
        Statement::Explain { plan, analyze }
    } else {
        Statement::Select(plan)
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
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

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.keyword_eq(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(QueryError::InvalidPlan(format!(
                "expected {kw} at token {:?}",
                self.peek()
            )))
        }
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(QueryError::InvalidPlan(format!(
                "expected {tok:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_end(&self) -> Result<()> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(QueryError::InvalidPlan(format!(
                "unexpected trailing tokens starting at {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(QueryError::InvalidPlan(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// A possibly qualified column name; qualifiers are dropped because the
    /// engine resolves by unqualified name.
    fn column_name(&mut self) -> Result<String> {
        let first = self.ident()?;
        if self.eat(&Token::Dot) {
            self.ident()
        } else {
            Ok(first)
        }
    }

    fn parse_statement(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let items = self.parse_select_list()?;
        self.expect_keyword("FROM")?;
        let from = self.ident()?;

        let mut joins = Vec::new();
        loop {
            let join_type = if self.eat_keyword("LEFT") {
                self.eat_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                JoinType::Left
            } else if self.eat_keyword("INNER") {
                self.expect_keyword("JOIN")?;
                JoinType::Inner
            } else if self.eat_keyword("JOIN") {
                JoinType::Inner
            } else {
                break;
            };
            let table = self.ident()?;
            self.expect_keyword("ON")?;
            let mut on = Vec::new();
            loop {
                let l = self.column_name()?;
                self.expect(&Token::Eq)?;
                let r = self.column_name()?;
                on.push((l, r));
                if !self.eat_keyword("AND") {
                    break;
                }
            }
            joins.push(JoinSpec {
                table,
                on,
                join_type,
            });
        }

        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_expr(0)?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.parse_expr(0)?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_keyword("HAVING") {
            Some(self.parse_expr(0)?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr(0)?;
                let descending = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(SortKey { expr, descending });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(QueryError::InvalidPlan(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };

        Ok(SelectStmt {
            items,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_select_list(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.peek() == Some(&Token::Star) {
            self.pos += 1;
            return Ok(SelectItem::Star);
        }
        // Aggregate call at the top level of a select item?
        if let Some(Token::Ident(name)) = self.peek().cloned() {
            if is_agg_name(&name) && self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                let agg = self.parse_agg_call(&name)?;
                let agg = self.maybe_alias_agg(agg)?;
                return Ok(SelectItem::Agg(agg));
            }
        }
        let expr = self.parse_expr(0)?;
        let expr = self.maybe_alias(expr)?;
        Ok(SelectItem::Scalar(expr))
    }

    fn maybe_alias(&mut self, expr: Expr) -> Result<Expr> {
        if self.eat_keyword("AS") {
            let name = self.ident()?;
            return Ok(expr.alias(name));
        }
        Ok(expr)
    }

    fn maybe_alias_agg(&mut self, agg: AggExpr) -> Result<AggExpr> {
        if self.eat_keyword("AS") {
            let name = self.ident()?;
            return Ok(agg.alias(name));
        }
        Ok(agg)
    }

    fn parse_agg_call(&mut self, name: &str) -> Result<AggExpr> {
        self.pos += 1; // function name
        self.expect(&Token::LParen)?;
        if name.eq_ignore_ascii_case("COUNT") && self.eat(&Token::Star) {
            self.expect(&Token::RParen)?;
            return Ok(count_star());
        }
        let inner = self.parse_expr(0)?;
        self.expect(&Token::RParen)?;
        let agg = match name.to_ascii_uppercase().as_str() {
            "SUM" => sum(inner),
            "COUNT" => count(inner),
            "MIN" => min(inner),
            "MAX" => max(inner),
            "AVG" => avg(inner),
            other => {
                return Err(QueryError::InvalidPlan(format!(
                    "unknown aggregate {other}"
                )))
            }
        };
        Ok(agg)
    }

    /// Pratt expression parser. `min_bp` is the minimum binding power.
    fn parse_expr(&mut self, min_bp: u8) -> Result<Expr> {
        let mut lhs = self.parse_prefix()?;
        loop {
            // IS [NOT] NULL postfix.
            if self.peek().map(|t| t.keyword_eq("IS")).unwrap_or(false) && min_bp <= 4 {
                self.pos += 1;
                let negated = self.eat_keyword("NOT");
                self.expect_keyword("NULL")?;
                lhs = if negated {
                    lhs.is_not_null()
                } else {
                    lhs.is_null()
                };
                continue;
            }
            // [NOT] LIKE 'pattern'.
            let like_ahead = self.peek().map(|t| t.keyword_eq("LIKE")).unwrap_or(false);
            let not_like_ahead = self.peek().map(|t| t.keyword_eq("NOT")).unwrap_or(false)
                && self
                    .tokens
                    .get(self.pos + 1)
                    .map(|t| t.keyword_eq("LIKE"))
                    .unwrap_or(false);
            if (like_ahead || not_like_ahead) && min_bp <= 4 {
                let negated = not_like_ahead;
                self.pos += if negated { 2 } else { 1 };
                match self.next() {
                    Some(Token::Str(pattern)) => {
                        lhs = if negated {
                            lhs.not_like(pattern)
                        } else {
                            lhs.like(pattern)
                        };
                        continue;
                    }
                    other => {
                        return Err(QueryError::InvalidPlan(format!(
                            "LIKE expects a string pattern, found {other:?}"
                        )))
                    }
                }
            }
            // [NOT] IN ( expr, ... ).
            let in_ahead = self.peek().map(|t| t.keyword_eq("IN")).unwrap_or(false);
            let not_in_ahead = self.peek().map(|t| t.keyword_eq("NOT")).unwrap_or(false)
                && self
                    .tokens
                    .get(self.pos + 1)
                    .map(|t| t.keyword_eq("IN"))
                    .unwrap_or(false);
            if (in_ahead || not_in_ahead) && min_bp <= 4 {
                let negated = not_in_ahead;
                self.pos += if negated { 2 } else { 1 };
                if !matches!(self.next(), Some(Token::LParen)) {
                    return Err(QueryError::InvalidPlan("IN expects '('".into()));
                }
                let mut list = Vec::new();
                if matches!(self.peek(), Some(Token::RParen)) {
                    self.pos += 1;
                } else {
                    loop {
                        list.push(self.parse_expr(0)?);
                        match self.next() {
                            Some(Token::Comma) => continue,
                            Some(Token::RParen) => break,
                            other => {
                                return Err(QueryError::InvalidPlan(format!(
                                    "IN list expects ',' or ')', found {other:?}"
                                )))
                            }
                        }
                    }
                }
                lhs = if negated {
                    lhs.not_in_list(list)
                } else {
                    lhs.in_list(list)
                };
                continue;
            }
            // BETWEEN lo AND hi.
            if self
                .peek()
                .map(|t| t.keyword_eq("BETWEEN"))
                .unwrap_or(false)
                && min_bp <= 4
            {
                self.pos += 1;
                let lo = self.parse_expr(5)?;
                self.expect_keyword("AND")?;
                let hi = self.parse_expr(5)?;
                lhs = lhs.between(lo, hi);
                continue;
            }
            let Some((op, lbp, rbp)) = self.peek_binop() else {
                break;
            };
            if lbp < min_bp {
                break;
            }
            self.pos += 1;
            let rhs = self.parse_expr(rbp)?;
            lhs = Expr::Binary {
                left: Box::new(lhs),
                op,
                right: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn peek_binop(&self) -> Option<(BinOp, u8, u8)> {
        let t = self.peek()?;
        let (op, bp) = match t {
            Token::Ident(s) if s.eq_ignore_ascii_case("OR") => (BinOp::Or, 1),
            Token::Ident(s) if s.eq_ignore_ascii_case("AND") => (BinOp::And, 2),
            Token::Eq => (BinOp::Eq, 4),
            Token::NotEq => (BinOp::NotEq, 4),
            Token::Lt => (BinOp::Lt, 4),
            Token::LtEq => (BinOp::LtEq, 4),
            Token::Gt => (BinOp::Gt, 4),
            Token::GtEq => (BinOp::GtEq, 4),
            Token::Plus => (BinOp::Add, 5),
            Token::Minus => (BinOp::Sub, 5),
            Token::Star => (BinOp::Mul, 6),
            Token::Slash => (BinOp::Div, 6),
            Token::Percent => (BinOp::Mod, 6),
            _ => return None,
        };
        Some((op, bp, bp + 1))
    }

    fn parse_prefix(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Expr::Literal(Value::Int(n))),
            Some(Token::Float(f)) => Ok(Expr::Literal(Value::Float(f))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::str(s))),
            Some(Token::Param(i)) => Ok(Expr::Param(i)),
            Some(Token::Minus) => Ok(self.parse_expr(7)?.neg()),
            Some(Token::LParen) => {
                let inner = self.parse_expr(0)?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("NOT") => Ok(self.parse_expr(3)?.not()),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("TRUE") => {
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("FALSE") => {
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("NULL") => {
                Ok(Expr::Literal(Value::Null))
            }
            Some(Token::Ident(s)) => {
                if self.peek() == Some(&Token::LParen) {
                    return Err(QueryError::InvalidPlan(format!(
                        "function '{s}' not allowed here (aggregates only at the top of a select item)"
                    )));
                }
                if self.eat(&Token::Dot) {
                    // Qualified name: keep only the column part.
                    return Ok(col(self.ident()?));
                }
                Ok(col(s))
            }
            other => Err(QueryError::InvalidPlan(format!(
                "unexpected token in expression: {other:?}"
            ))),
        }
    }
}

fn is_agg_name(name: &str) -> bool {
    ["SUM", "COUNT", "MIN", "MAX", "AVG"]
        .iter()
        .any(|k| name.eq_ignore_ascii_case(k))
}

fn build_plan(stmt: SelectStmt, catalog: &dyn Catalog) -> Result<LogicalPlan> {
    let mut plan = LogicalPlan::scan(&stmt.from, catalog)?;
    for j in stmt.joins {
        let right = LogicalPlan::scan(&j.table, catalog)?;
        let on: Vec<(&str, &str)> = j.on.iter().map(|(l, r)| (l.as_str(), r.as_str())).collect();
        plan = plan.join(right, on, j.join_type);
    }
    if let Some(w) = stmt.where_clause {
        plan = plan.filter(w);
    }

    let has_aggs = stmt.items.iter().any(|i| matches!(i, SelectItem::Agg(_)));
    if has_aggs || !stmt.group_by.is_empty() {
        // Group keys: the explicit GROUP BY list; scalar select items must
        // be among them.
        let group_by = stmt.group_by.clone();
        let group_names: Vec<String> = group_by.iter().map(|g| g.output_name()).collect();
        let mut aggs = Vec::new();
        let mut out_names = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Star => {
                    return Err(QueryError::InvalidPlan(
                        "SELECT * cannot be combined with aggregation".into(),
                    ))
                }
                SelectItem::Scalar(e) => {
                    let name = e.output_name();
                    if !group_names.contains(&name) {
                        return Err(QueryError::InvalidPlan(format!(
                            "column '{name}' must appear in GROUP BY or an aggregate"
                        )));
                    }
                    out_names.push(name);
                }
                SelectItem::Agg(a) => {
                    out_names.push(a.name.clone());
                    aggs.push(a.clone());
                }
            }
        }
        plan = plan.aggregate(group_by, aggs);
        if let Some(h) = stmt.having {
            plan = plan.filter(h);
        }
        // Re-project to the select-list order (aggregate output is
        // group-keys-then-aggs).
        plan = plan.project(out_names.into_iter().map(col).collect());
    } else {
        if stmt.having.is_some() {
            return Err(QueryError::InvalidPlan(
                "HAVING requires aggregation".into(),
            ));
        }
        let all_star = stmt.items.iter().all(|i| matches!(i, SelectItem::Star));
        if !all_star {
            let mut exprs = Vec::new();
            for item in &stmt.items {
                match item {
                    SelectItem::Star => {
                        return Err(QueryError::InvalidPlan(
                            "mixing * with expressions is unsupported".into(),
                        ))
                    }
                    SelectItem::Scalar(e) => exprs.push(e.clone()),
                    SelectItem::Agg(_) => unreachable!("handled above"),
                }
            }
            plan = plan.project(exprs);
        }
    }

    if !stmt.order_by.is_empty() {
        plan = plan.sort(stmt.order_by);
    }
    if let Some(n) = stmt.limit {
        plan = plan.limit(n);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute, ExecOptions};
    use crate::optimizer::test_fixtures::catalog;
    use backbone_storage::Value;

    fn run(sql: &str) -> Vec<Vec<Value>> {
        let cat = catalog();
        let plan = parse_select(sql, &cat).expect(sql);
        execute(plan, &cat, &ExecOptions::serial())
            .expect(sql)
            .to_rows()
    }

    #[test]
    fn select_star_limit() {
        let rows = run("SELECT * FROM small LIMIT 3");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].len(), 3);
    }

    #[test]
    fn projection_and_arithmetic() {
        let rows = run("SELECT small_v + 1 AS inc, small_v * 2 FROM small WHERE small_v < 3");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[2][1], Value::Int(4));
    }

    #[test]
    fn where_with_precedence() {
        // AND binds tighter than OR.
        let rows =
            run("SELECT small_v FROM small WHERE small_v = 0 OR small_v > 7 AND small_v < 9");
        let vals: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![0, 8]);
    }

    #[test]
    fn group_by_aggregates() {
        let rows = run(
            "SELECT small_tag, COUNT(*) AS n, SUM(small_v) AS s FROM small GROUP BY small_tag ORDER BY small_tag",
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::str("a"));
        assert_eq!(rows[0][1], Value::Int(5));
        assert_eq!(rows[0][2], Value::Int(2 + 4 + 6 + 8));
    }

    #[test]
    fn having_filters_groups() {
        let rows = run(
            "SELECT small_tag, SUM(small_v) AS s FROM small GROUP BY small_tag HAVING s > 20 ORDER BY s",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::str("b")); // 1+3+5+7+9 = 25
    }

    #[test]
    fn joins_inner_and_left() {
        let rows = run(
            "SELECT big_v, small_v FROM big JOIN small ON big_k = small_k WHERE big_v < 3 ORDER BY big_v",
        );
        assert!(!rows.is_empty());
        // LEFT JOIN: big keys 10..49 have no small match -> NULL small_v.
        let left = run(
            "SELECT big_k, small_v FROM big LEFT JOIN small ON big_k = small_k WHERE big_k = 20 LIMIT 1",
        );
        assert_eq!(left[0][0], Value::Int(20));
        assert!(left[0][1].is_null());
    }

    #[test]
    fn order_by_desc_and_limit() {
        let rows = run("SELECT small_v FROM small ORDER BY small_v DESC LIMIT 2");
        let vals: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![9, 8]);
    }

    #[test]
    fn between_and_is_null() {
        let rows = run(
            "SELECT small_v FROM small WHERE small_v BETWEEN 2 AND 4 AND small_tag IS NOT NULL",
        );
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn string_literals_and_not() {
        let rows = run("SELECT small_v FROM small WHERE NOT small_tag = 'a'");
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn global_aggregate() {
        let rows = run("SELECT COUNT(*), AVG(small_v) FROM small");
        assert_eq!(rows[0][0], Value::Int(10));
        assert_eq!(rows[0][1], Value::Float(4.5));
    }

    #[test]
    fn error_cases() {
        let cat = catalog();
        for bad in [
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM nope",
            "SELECT x FROM small WHERE",
            "SELECT * FROM small GROUP BY small_tag",
            "SELECT small_v, COUNT(*) FROM small GROUP BY small_tag",
            "SELECT * FROM small LIMIT -1",
            "SELECT * FROM small HAVING small_v > 1",
            "SELECT lower(small_tag) FROM small",
            "SELECT * FROM small trailing garbage",
        ] {
            assert!(parse_select(bad, &cat).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn like_patterns() {
        // tags are 'a' and 'b'; LIKE with wildcards.
        let rows = run("SELECT small_v FROM small WHERE small_tag LIKE 'a'");
        assert_eq!(rows.len(), 5);
        let rows = run("SELECT small_v FROM small WHERE small_tag LIKE '%'");
        assert_eq!(rows.len(), 10);
        let rows = run("SELECT small_v FROM small WHERE small_tag NOT LIKE 'a'");
        assert_eq!(rows.len(), 5);
        let rows = run("SELECT small_v FROM small WHERE small_tag LIKE '_'");
        assert_eq!(rows.len(), 10);
        let rows = run("SELECT small_v FROM small WHERE small_tag LIKE 'a_'");
        assert_eq!(rows.len(), 0);
        let cat = catalog();
        assert!(parse_select("SELECT * FROM small WHERE small_tag LIKE 5", &cat).is_err());
    }

    #[test]
    fn in_lists() {
        let rows = run("SELECT small_v FROM small WHERE small_tag IN ('a')");
        assert_eq!(rows.len(), 5);
        let rows = run("SELECT small_v FROM small WHERE small_tag IN ('a', 'b')");
        assert_eq!(rows.len(), 10);
        let rows = run("SELECT small_v FROM small WHERE small_tag NOT IN ('a')");
        assert_eq!(rows.len(), 5);
        let rows = run("SELECT small_v FROM small WHERE small_v IN (1, 3, 999)");
        assert_eq!(rows.len(), 2);
        let rows = run("SELECT small_v FROM small WHERE small_tag IN ()");
        assert_eq!(rows.len(), 0);
        let rows = run("SELECT small_v FROM small WHERE small_v IN (1 + 1)");
        assert_eq!(rows.len(), 1);
        let cat = catalog();
        assert!(parse_select("SELECT * FROM small WHERE small_tag IN 'a'", &cat).is_err());
        assert!(parse_select("SELECT * FROM small WHERE small_tag IN ('a'", &cat).is_err());
    }

    #[test]
    fn parenthesized_expressions() {
        let rows = run("SELECT (small_v + 1) * 2 FROM small WHERE small_v = 3");
        assert_eq!(rows[0][0], Value::Int(8));
    }

    #[test]
    fn qualified_names_resolve() {
        let rows = run("SELECT small.small_v FROM small WHERE small.small_v = 2");
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn explain_and_explain_analyze_statements() {
        let cat = catalog();
        match parse_statement("EXPLAIN SELECT * FROM small", &cat).unwrap() {
            Statement::Explain { analyze: false, .. } => {}
            other => panic!("expected EXPLAIN, got {other:?}"),
        }
        match parse_statement("explain analyze SELECT small_v FROM small LIMIT 1", &cat).unwrap() {
            Statement::Explain {
                analyze: true,
                plan,
            } => {
                assert!(plan.display_indent().contains("Limit"));
            }
            other => panic!("expected EXPLAIN ANALYZE, got {other:?}"),
        }
        match parse_statement("SELECT * FROM small", &cat).unwrap() {
            Statement::Select(_) => {}
            other => panic!("expected SELECT, got {other:?}"),
        }
        // EXPLAIN wraps a full statement: garbage inside still errors, and
        // parse_select refuses EXPLAIN.
        assert!(parse_statement("EXPLAIN", &cat).is_err());
        assert!(parse_statement("EXPLAIN ANALYZE", &cat).is_err());
        assert!(parse_select("EXPLAIN SELECT * FROM small", &cat).is_err());
    }

    #[test]
    fn join_missing_table_errors() {
        let cat = catalog();
        assert!(parse_select("SELECT * FROM small JOIN ghost ON small_k = g_k", &cat).is_err());
    }
}
