//! The expression algebra: how callers say *what* they want.

use crate::error::{QueryError, Result};
use backbone_storage::{DataType, Schema, Value};
use std::collections::BTreeSet;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// Logical AND (three-valued).
    And,
    /// Logical OR (three-valued).
    Or,
}

impl BinOp {
    /// Whether this is a comparison producing a boolean.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// Whether this is `AND`/`OR`.
    pub fn is_logical(&self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// The comparison with its operands swapped: `a < b` is `b > a`.
    /// Non-comparisons are returned unchanged.
    pub fn flipped(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    }

    /// The comparison that is TRUE exactly where this one is FALSE (both
    /// are NULL on the same rows): `a < b` against `a >= b`.
    /// Non-comparisons are returned unchanged.
    pub fn negated(self) -> BinOp {
        match self {
            BinOp::Eq => BinOp::NotEq,
            BinOp::NotEq => BinOp::Eq,
            BinOp::Lt => BinOp::GtEq,
            BinOp::LtEq => BinOp::Gt,
            BinOp::Gt => BinOp::LtEq,
            BinOp::GtEq => BinOp::Lt,
            other => other,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical NOT (three-valued).
    Not,
    /// Numeric negation.
    Neg,
    /// `IS NULL`.
    IsNull,
    /// `IS NOT NULL`.
    IsNotNull,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference by name.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A prepared-statement parameter placeholder (zero-based; `$1` is
    /// `Param(0)`). Substituted with a literal by [`Expr::bind_params`]
    /// before execution; evaluating an unbound parameter is an error.
    Param(usize),
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Rename the result of an expression.
    Alias(Box<Expr>, String),
    /// SQL `LIKE` pattern match (`%` = any run, `_` = any one char).
    Like {
        /// The string expression to match.
        expr: Box<Expr>,
        /// The pattern.
        pattern: String,
        /// `NOT LIKE` when true.
        negated: bool,
    },
    /// SQL `IN (v1, v2, ...)` membership. Semantically equivalent to an
    /// OR-chain of equalities (same three-valued NULL behavior), but kept
    /// first-class so dictionary columns can evaluate membership once per
    /// distinct entry.
    InList {
        /// The probe expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// `NOT IN` when true.
        negated: bool,
    },
}

/// Reference a column by name.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

/// A literal value.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

macro_rules! binop_method {
    ($method:ident, $op:expr) => {
        /// Combine with another expression using this operator.
        pub fn $method(self, other: Expr) -> Expr {
            Expr::Binary {
                left: Box::new(self),
                op: $op,
                right: Box::new(other),
            }
        }
    };
}

#[allow(clippy::should_implement_trait)] // builder methods mirror SQL, not std ops
impl Expr {
    binop_method!(add, BinOp::Add);
    binop_method!(sub, BinOp::Sub);
    binop_method!(mul, BinOp::Mul);
    binop_method!(div, BinOp::Div);
    binop_method!(modulo, BinOp::Mod);
    binop_method!(eq, BinOp::Eq);
    binop_method!(not_eq, BinOp::NotEq);
    binop_method!(lt, BinOp::Lt);
    binop_method!(lt_eq, BinOp::LtEq);
    binop_method!(gt, BinOp::Gt);
    binop_method!(gt_eq, BinOp::GtEq);
    binop_method!(and, BinOp::And);
    binop_method!(or, BinOp::Or);

    /// Logical negation.
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(self),
        }
    }

    /// Numeric negation.
    pub fn neg(self) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(self),
        }
    }

    /// `IS NULL` predicate.
    pub fn is_null(self) -> Expr {
        Expr::Unary {
            op: UnOp::IsNull,
            expr: Box::new(self),
        }
    }

    /// `IS NOT NULL` predicate.
    pub fn is_not_null(self) -> Expr {
        Expr::Unary {
            op: UnOp::IsNotNull,
            expr: Box::new(self),
        }
    }

    /// `low <= self AND self <= high`.
    pub fn between(self, low: Expr, high: Expr) -> Expr {
        self.clone().gt_eq(low).and(self.lt_eq(high))
    }

    /// SQL `LIKE` (`%` matches any run, `_` any single character).
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
            negated: false,
        }
    }

    /// SQL `NOT LIKE`.
    pub fn not_like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
            negated: true,
        }
    }

    /// SQL `IN (...)` membership test.
    pub fn in_list(self, list: Vec<Expr>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
            negated: false,
        }
    }

    /// SQL `NOT IN (...)`.
    pub fn not_in_list(self, list: Vec<Expr>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
            negated: true,
        }
    }

    /// Rename this expression's output column.
    pub fn alias(self, name: impl Into<String>) -> Expr {
        Expr::Alias(Box::new(self), name.into())
    }

    /// The output column name this expression produces.
    pub fn output_name(&self) -> String {
        match self {
            Expr::Column(n) => n.clone(),
            Expr::Alias(_, n) => n.clone(),
            Expr::Literal(v) => v.to_string(),
            Expr::Param(i) => format!("${}", i + 1),
            Expr::Binary { left, op, right } => {
                format!("({} {op} {})", left.output_name(), right.output_name())
            }
            Expr::Unary { op, expr } => format!("{op:?}({})", expr.output_name()),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => format!(
                "({} {}LIKE '{pattern}')",
                expr.output_name(),
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => format!(
                "({} {}IN ({}))",
                expr.output_name(),
                if *negated { "NOT " } else { "" },
                list.iter()
                    .map(|e| e.output_name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }

    /// All column names this expression references.
    pub fn referenced_columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Column(n) => {
                out.insert(n.clone());
            }
            Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Alias(expr, _) => expr.collect_columns(out),
            Expr::Like { expr, .. } => expr.collect_columns(out),
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
        }
    }

    /// Infer the output type against an input schema.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            Expr::Column(n) => Ok(schema
                .field_by_name(n)
                .map_err(|_| QueryError::InvalidExpression(format!("unknown column '{n}'")))?
                .data_type),
            Expr::Literal(v) => v.data_type().ok_or_else(|| {
                QueryError::InvalidExpression(
                    "untyped NULL literal; alias it via a typed column".into(),
                )
            }),
            Expr::Param(i) => Err(QueryError::InvalidExpression(format!(
                "parameter ${} is not bound",
                i + 1
            ))),
            Expr::Binary { left, op, right } => {
                if op.is_comparison() || op.is_logical() {
                    return Ok(DataType::Bool);
                }
                let lt = left.data_type(schema)?;
                let rt = right.data_type(schema)?;
                match (lt, rt) {
                    (DataType::Int64, DataType::Int64) => {
                        // Division always yields float to avoid surprising
                        // truncation in analytics.
                        if *op == BinOp::Div {
                            Ok(DataType::Float64)
                        } else {
                            Ok(DataType::Int64)
                        }
                    }
                    (DataType::Int64, DataType::Float64)
                    | (DataType::Float64, DataType::Int64)
                    | (DataType::Float64, DataType::Float64) => Ok(DataType::Float64),
                    (l, r) => Err(QueryError::InvalidExpression(format!(
                        "cannot apply {op} to {l} and {r}"
                    ))),
                }
            }
            Expr::Unary { op, expr } => match op {
                UnOp::Not => Ok(DataType::Bool),
                UnOp::IsNull | UnOp::IsNotNull => Ok(DataType::Bool),
                UnOp::Neg => expr.data_type(schema),
            },
            Expr::Alias(expr, _) => expr.data_type(schema),
            Expr::Like { expr, .. } => match expr.data_type(schema)? {
                DataType::Utf8 => Ok(DataType::Bool),
                other => Err(QueryError::InvalidExpression(format!("LIKE over {other}"))),
            },
            Expr::InList { expr, list, .. } => {
                let probe = expr.data_type(schema)?;
                // A NULL item fits any probe: it only turns a miss into NULL.
                let typed = list
                    .iter()
                    .filter(|e| !matches!(e, Expr::Literal(Value::Null)));
                for e in typed {
                    let item = e.data_type(schema)?;
                    let compatible = item == probe
                        || matches!(
                            (probe, item),
                            (DataType::Int64, DataType::Float64)
                                | (DataType::Float64, DataType::Int64)
                        );
                    if !compatible {
                        return Err(QueryError::InvalidExpression(format!(
                            "IN list item of type {item} against {probe}"
                        )));
                    }
                }
                Ok(DataType::Bool)
            }
        }
    }

    /// Split a conjunction into its AND-ed parts (`a AND b AND c` → `[a,b,c]`).
    pub fn split_conjunction(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.split_into(&mut out);
        out
    }

    fn split_into<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        match self {
            Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } => {
                left.split_into(out);
                right.split_into(out);
            }
            other => out.push(other),
        }
    }

    /// Re-join predicates with AND. Returns `None` for an empty slice.
    pub fn conjunction(parts: Vec<Expr>) -> Option<Expr> {
        parts.into_iter().reduce(|acc, e| acc.and(e))
    }

    /// The number of parameter slots this expression needs: one past the
    /// highest `$n` placeholder, or 0 when the expression has none.
    pub fn param_count(&self) -> usize {
        match self {
            Expr::Param(i) => i + 1,
            Expr::Column(_) | Expr::Literal(_) => 0,
            Expr::Binary { left, right, .. } => left.param_count().max(right.param_count()),
            Expr::Unary { expr, .. } => expr.param_count(),
            Expr::Alias(expr, _) => expr.param_count(),
            Expr::Like { expr, .. } => expr.param_count(),
            Expr::InList { expr, list, .. } => list
                .iter()
                .map(Expr::param_count)
                .fold(expr.param_count(), usize::max),
        }
    }

    /// Substitute every `$n` placeholder with the matching literal from
    /// `params` (`$1` takes `params[0]`). Errors when a placeholder has no
    /// matching value.
    pub fn bind_params(&self, params: &[Value]) -> Result<Expr> {
        Ok(match self {
            Expr::Param(i) => match params.get(*i) {
                Some(v) => Expr::Literal(v.clone()),
                None => {
                    return Err(QueryError::InvalidExpression(format!(
                        "parameter ${} has no bound value ({} provided)",
                        i + 1,
                        params.len()
                    )))
                }
            },
            Expr::Column(_) | Expr::Literal(_) => self.clone(),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.bind_params(params)?),
                op: *op,
                right: Box::new(right.bind_params(params)?),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.bind_params(params)?),
            },
            Expr::Alias(expr, name) => {
                Expr::Alias(Box::new(expr.bind_params(params)?), name.clone())
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.bind_params(params)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.bind_params(params)?),
                list: list
                    .iter()
                    .map(|e| e.bind_params(params))
                    .collect::<Result<Vec<_>>>()?,
                negated: *negated,
            },
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(n) => write!(f, "{n}"),
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Param(i) => write!(f, "${}", i + 1),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Unary { op, expr } => match op {
                UnOp::Not => write!(f, "NOT {expr}"),
                UnOp::Neg => write!(f, "-{expr}"),
                UnOp::IsNull => write!(f, "{expr} IS NULL"),
                UnOp::IsNotNull => write!(f, "{expr} IS NOT NULL"),
            },
            Expr::Alias(expr, name) => write!(f, "{expr} AS {name}"),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE '{pattern}')",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(expr)` — non-null rows.
    Count,
    /// `COUNT(*)` — all rows.
    CountStar,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        write!(f, "{s}")
    }
}

/// An aggregate expression: a function over an input expression, plus an
/// output name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input expression (ignored for `COUNT(*)`).
    pub input: Expr,
    /// Output column name.
    pub name: String,
}

impl AggExpr {
    /// Rename the aggregate's output column.
    pub fn alias(mut self, name: impl Into<String>) -> AggExpr {
        self.name = name.into();
        self
    }

    /// The aggregate's output type against an input schema.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        match self.func {
            AggFunc::Count | AggFunc::CountStar => Ok(DataType::Int64),
            AggFunc::Avg => Ok(DataType::Float64),
            AggFunc::Sum => match self.input.data_type(schema)? {
                DataType::Int64 => Ok(DataType::Int64),
                DataType::Float64 => Ok(DataType::Float64),
                other => Err(QueryError::InvalidExpression(format!("SUM over {other}"))),
            },
            AggFunc::Min | AggFunc::Max => self.input.data_type(schema),
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.func {
            AggFunc::CountStar => write!(f, "COUNT(*) AS {}", self.name),
            func => write!(f, "{func}({}) AS {}", self.input, self.name),
        }
    }
}

/// `SUM(expr)`.
pub fn sum(input: Expr) -> AggExpr {
    let name = format!("sum({})", input.output_name());
    AggExpr {
        func: AggFunc::Sum,
        input,
        name,
    }
}

/// `COUNT(expr)` over non-null rows.
pub fn count(input: Expr) -> AggExpr {
    let name = format!("count({})", input.output_name());
    AggExpr {
        func: AggFunc::Count,
        input,
        name,
    }
}

/// `COUNT(*)`.
pub fn count_star() -> AggExpr {
    AggExpr {
        func: AggFunc::CountStar,
        input: lit(1i64),
        name: "count(*)".to_string(),
    }
}

/// `MIN(expr)`.
pub fn min(input: Expr) -> AggExpr {
    let name = format!("min({})", input.output_name());
    AggExpr {
        func: AggFunc::Min,
        input,
        name,
    }
}

/// `MAX(expr)`.
pub fn max(input: Expr) -> AggExpr {
    let name = format!("max({})", input.output_name());
    AggExpr {
        func: AggFunc::Max,
        input,
        name,
    }
}

/// `AVG(expr)`.
pub fn avg(input: Expr) -> AggExpr {
    let name = format!("avg({})", input.output_name());
    AggExpr {
        func: AggFunc::Avg,
        input,
        name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backbone_storage::Field;

    fn schema() -> std::sync::Arc<Schema> {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ])
    }

    #[test]
    fn builder_shapes() {
        let e = col("a")
            .add(lit(1i64))
            .gt(lit(10i64))
            .and(col("s").eq(lit("x")));
        assert_eq!(e.to_string(), "(((a + 1) > 10) AND (s = 'x'))");
    }

    #[test]
    fn referenced_columns() {
        let e = col("a").add(col("b")).lt(col("a"));
        let cols = e.referenced_columns();
        assert_eq!(cols.into_iter().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(
            col("a").add(lit(1i64)).data_type(&s).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            col("a").add(col("b")).data_type(&s).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            col("a").div(lit(2i64)).data_type(&s).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            col("a").lt(lit(3i64)).data_type(&s).unwrap(),
            DataType::Bool
        );
        assert!(col("s").add(lit(1i64)).data_type(&s).is_err());
        assert!(col("zzz").data_type(&s).is_err());
    }

    #[test]
    fn split_and_rejoin_conjunction() {
        let e = col("a")
            .gt(lit(1i64))
            .and(col("b").lt(lit(2i64)))
            .and(col("s").eq(lit("k")));
        let parts = e.split_conjunction();
        assert_eq!(parts.len(), 3);
        let rejoined = Expr::conjunction(parts.into_iter().cloned().collect()).unwrap();
        assert_eq!(rejoined, e);
    }

    #[test]
    fn between_desugars() {
        let e = col("a").between(lit(1i64), lit(5i64));
        assert_eq!(e.to_string(), "((a >= 1) AND (a <= 5))");
    }

    #[test]
    fn agg_output_types() {
        let s = schema();
        assert_eq!(sum(col("a")).data_type(&s).unwrap(), DataType::Int64);
        assert_eq!(sum(col("b")).data_type(&s).unwrap(), DataType::Float64);
        assert_eq!(avg(col("a")).data_type(&s).unwrap(), DataType::Float64);
        assert_eq!(count_star().data_type(&s).unwrap(), DataType::Int64);
        assert_eq!(min(col("s")).data_type(&s).unwrap(), DataType::Utf8);
        assert!(sum(col("s")).data_type(&s).is_err());
    }

    #[test]
    fn params_bind_and_count() {
        let e = col("a").eq(Expr::Param(0)).and(col("b").lt(Expr::Param(2)));
        assert_eq!(e.param_count(), 3);
        assert_eq!(e.to_string(), "((a = $1) AND (b < $3))");
        let bound = e
            .bind_params(&[Value::Int(7), Value::Int(0), Value::Float(1.5)])
            .unwrap();
        assert_eq!(bound.to_string(), "((a = 7) AND (b < 1.5))");
        assert_eq!(bound.param_count(), 0);
        // Too few values -> error; unbound params don't type-check.
        assert!(e.bind_params(&[Value::Int(7)]).is_err());
        assert!(Expr::Param(0).data_type(&schema()).is_err());
    }

    #[test]
    fn alias_changes_output_name() {
        let e = sum(col("a")).alias("total");
        assert_eq!(e.name, "total");
        let e2 = col("a").alias("x");
        assert_eq!(e2.output_name(), "x");
    }
}
