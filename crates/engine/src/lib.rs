#![warn(missing_docs)]

//! A SQL-subset query engine over partitioned parallel storage.
//!
//! This crate stands in for the Teradata SQL engine the paper runs
//! against. It deliberately reproduces the two cost characteristics
//! the paper's evaluation hinges on:
//!
//! * **Long statements are parsed**: the paper's pure-SQL path
//!   computes `n, L, Q` with a single query of `1 + d + d²` aggregate
//!   terms, and Figure 1 shows its "overhead for parsing and
//!   evaluating long SELECT statements". Our engine parses SQL text
//!   for real, so that overhead exists for real.
//! * **SQL arithmetic is interpreted at run-time, whereas UDF
//!   arithmetic is compiled** (§3.5). Expressions here run through an
//!   AST-walking interpreter per row; UDF bodies are compiled Rust.
//!
//! Supported SQL: `SELECT` expression lists with arithmetic, `CASE`,
//! scalar functions and UDFs; aggregates (`sum/count/avg/min/max`, the
//! two-dimensional statistical builtins `corr/covar_pop/variance/
//! stddev/regr_slope/regr_intercept` the paper contrasts with, and
//! aggregate UDFs) with `GROUP BY`, `HAVING`, `ORDER BY`, and `LIMIT`;
//! `WHERE` with join-time predicate pushdown; `CROSS JOIN` with
//! aliasing (the paper's scoring pattern); `EXPLAIN`; `CREATE TABLE`,
//! `CREATE TABLE AS`, `CREATE VIEW`, `INSERT INTO ... VALUES`,
//! `INSERT INTO ... SELECT`, and `DROP`.
//!
//! The [`Db`] facade owns the catalog, worker pool, and UDF registry,
//! and provides the high-level operations of the paper: computing
//! summary matrices via SQL or via the aggregate UDF ([`Db::compute_nlq`],
//! `compute_nlq_with`, blocked and grouped variants) and scoring
//! data sets with scalar UDFs or generated SQL ([`sqlgen`]).

mod ast;
mod catalog;
mod db;
mod durable;
mod error;
mod exec;
mod expr;
mod parser;
mod predicate;
pub mod serve;
pub mod sqlgen;
pub mod sys;
mod token;

pub use ast::{Expr, OrderKey, Projection, SelectStmt, Statement, TableRef};
pub use db::{
    explain_analyze_footer, phase_spans, Db, EngineStats, ExecOptions, ExecStats, NlqMethod,
    PlanCacheStats, ResultSet, ShardMetricsSnapshot, SqlEngine, SummaryRefreshState,
};
pub use durable::{DurabilityStats, EnvelopeCost, LogSet, Payload, Recovered, RecoveryInfo};
pub use error::EngineError;
pub use exec::{result_to_table, AggPartial};
pub use parser::parse;
pub use serve::{beta_table, centroid_table, lambda_table, mu_table, MAX_SCORE_KEYS};
pub use sys::{SystemTableProvider, SYS_PREFIX};

/// Convenience result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
