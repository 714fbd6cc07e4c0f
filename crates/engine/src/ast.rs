use nlq_storage::DataType;

/// A SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric or string literal (NULL included).
    Literal(nlq_storage::Value),
    /// Column reference, optionally qualified by a table alias.
    Column {
        /// Optional table alias qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// `*` (only valid as a whole projection or inside `count(*)`).
    Wildcard,
    /// Unary negation.
    Neg(Box<Expr>),
    /// `NOT expr`.
    Not(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Function call: builtin scalar/aggregate or registered UDF.
    Call {
        /// Function name (resolved case-insensitively).
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `CASE WHEN c1 THEN v1 [WHEN ...] [ELSE e] END`.
    Case {
        /// `(condition, value)` pairs, evaluated in order.
        branches: Vec<(Expr, Expr)>,
        /// The `ELSE` expression (`NULL` when absent).
        else_expr: Option<Box<Expr>>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Operand under test.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

/// One projection in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// The projected expression.
    pub expr: Expr,
    /// Optional `AS` alias for the output column.
    pub alias: Option<String>,
}

/// A table reference in FROM, with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table or view name.
    pub name: String,
    /// Optional alias used to qualify column references.
    pub alias: Option<String>,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort key expression (or 1-based output ordinal literal).
    pub expr: Expr,
    /// True for `DESC`.
    pub descending: bool,
}

/// A SELECT statement (the only query form; joins are CROSS JOINs, as
/// in the paper's scoring queries).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// The SELECT list.
    pub projections: Vec<Projection>,
    /// First table streams; the rest are cross-joined (materialized).
    pub from: Vec<TableRef>,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY key expressions.
    pub group_by: Vec<Expr>,
    /// Post-aggregation filter (`HAVING`); only valid with aggregation.
    pub having: Option<Expr>,
    /// ORDER BY keys, applied after projection.
    pub order_by: Vec<OrderKey>,
    /// Maximum number of output rows.
    pub limit: Option<usize>,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A query.
    Select(SelectStmt),
    /// `EXPLAIN SELECT ...`: describe the plan without executing it.
    Explain(SelectStmt),
    /// `EXPLAIN ANALYZE SELECT ...`: execute the statement and render
    /// its phase spans (wall times, rows scanned, scan mode, summary
    /// hit/miss) instead of its rows.
    ExplainAnalyze(SelectStmt),
    /// `CREATE TABLE name (col TYPE, ...)`.
    CreateTable {
        /// New table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `CREATE TABLE name AS SELECT ...`.
    CreateTableAs {
        /// New table name.
        name: String,
        /// Defining query, materialized once.
        query: SelectStmt,
    },
    /// `CREATE VIEW name AS SELECT ...`.
    CreateView {
        /// New view name.
        name: String,
        /// Defining query, executed on access.
        query: SelectStmt,
    },
    /// `INSERT INTO table VALUES (...), ...`.
    Insert {
        /// Target table.
        table: String,
        /// Literal rows (constant expressions).
        rows: Vec<Vec<Expr>>,
    },
    /// `INSERT INTO table SELECT ...`.
    InsertSelect {
        /// Target table.
        table: String,
        /// Source query.
        query: SelectStmt,
    },
    /// `DROP TABLE name` / `DROP VIEW name`.
    Drop {
        /// Object to remove.
        name: String,
    },
    /// `CREATE SUMMARY s ON t (X1, ...) [SHAPE diag|triang|full]
    /// [NO MINMAX] [GROUP BY g]`: register a materialized Γ summary.
    CreateSummary {
        /// Summary name.
        name: String,
        /// Base table.
        table: String,
        /// Summarized float columns.
        columns: Vec<String>,
        /// Optional shape name (`diag`/`triang`/`full`; default
        /// triangular).
        shape: Option<String>,
        /// Whether the summary answers min/max (`false` after
        /// `NO MINMAX`, which stores no bounds).
        minmax: bool,
        /// Optional single GROUP BY key column.
        group_by: Option<String>,
    },
    /// `DROP SUMMARY s`.
    DropSummary {
        /// Summary to remove.
        name: String,
    },
    /// `DELETE FROM t [WHERE predicate]`.
    Delete {
        /// Target table.
        table: String,
        /// Rows matching the predicate are removed (all rows when
        /// absent).
        predicate: Option<Expr>,
    },
    /// `UPDATE t SET col = expr, ... [WHERE predicate]`.
    Update {
        /// Target table.
        table: String,
        /// Column assignments, applied left to right.
        sets: Vec<(String, Expr)>,
        /// Rows matching the predicate are updated (all rows when
        /// absent).
        predicate: Option<Expr>,
    },
}

impl Statement {
    /// Whether the statement only reads: a query, or an `EXPLAIN
    /// [ANALYZE]` of one. Every other statement mutates the catalog or
    /// a table, and on a durable engine must be logged.
    pub(crate) fn is_read_only(&self) -> bool {
        matches!(
            self,
            Statement::Select(_) | Statement::Explain(_) | Statement::ExplainAnalyze(_)
        )
    }
}

impl Expr {
    /// Convenience constructor for an unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    /// Whether this expression contains any function call for which
    /// `is_aggregate` returns true (used by the planner to classify
    /// projections).
    pub fn contains_aggregate(&self, is_aggregate: &dyn Fn(&str) -> bool) -> bool {
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Wildcard => false,
            Expr::Neg(e) | Expr::Not(e) => e.contains_aggregate(is_aggregate),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.contains_aggregate(is_aggregate) || rhs.contains_aggregate(is_aggregate)
            }
            Expr::Call { name, args } => {
                is_aggregate(name) || args.iter().any(|a| a.contains_aggregate(is_aggregate))
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                branches.iter().any(|(c, v)| {
                    c.contains_aggregate(is_aggregate) || v.contains_aggregate(is_aggregate)
                }) || else_expr
                    .as_ref()
                    .is_some_and(|e| e.contains_aggregate(is_aggregate))
            }
            Expr::IsNull { expr, .. } => expr.contains_aggregate(is_aggregate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlq_storage::Value;

    #[test]
    fn contains_aggregate_walks_the_tree() {
        let is_agg = |n: &str| n.eq_ignore_ascii_case("sum");
        let plain = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::col("x")),
            rhs: Box::new(Expr::Literal(Value::Int(1))),
        };
        assert!(!plain.contains_aggregate(&is_agg));

        let agg = Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(Expr::Call {
                name: "sum".into(),
                args: vec![Expr::col("x")],
            }),
            rhs: Box::new(Expr::Literal(Value::Int(2))),
        };
        assert!(agg.contains_aggregate(&is_agg));

        let nested_case = Expr::Case {
            branches: vec![(
                Expr::col("c"),
                Expr::Call {
                    name: "sum".into(),
                    args: vec![Expr::col("x")],
                },
            )],
            else_expr: None,
        };
        assert!(nested_case.contains_aggregate(&is_agg));
    }
}
