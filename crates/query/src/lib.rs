//! # backbone-query
//!
//! The declarative query layer of `backbone` — the crate that turns the three
//! principles the paper credits to the database community into code:
//!
//! - **Declarativeness**: callers build a [`logical::LogicalPlan`] describing
//!   *what* they want ([`expr`] provides the expression algebra).
//! - **Logical/physical independence**: the [`optimizer`] rewrites logical
//!   plans (predicate pushdown, projection pruning, constant folding, the
//!   hash-join build side) and the [`planner`] lowers them to interchangeable
//!   [`physical`] operators; the same logical query admits many physical
//!   executions.
//! - **Automatic scalability**: scans are morsel-parallel — the executor
//!   splits row groups across threads without any change to the query.

//!
//! Observability rides along: [`profile`] instruments physical operators
//! (per-operator rows/batches/time, the engine behind `EXPLAIN ANALYZE`) and
//! the shared [`Metrics`] counter registry — re-exported from
//! `backbone_storage` so one registry spans storage and query — accumulates
//! engine-truth totals.

pub mod catalog;
pub mod error;
pub mod eval;
pub mod executor;
pub mod expr;
mod kernel_metrics;
pub mod logical;
pub mod optimizer;
pub mod physical;
pub mod planner;
pub mod profile;
pub mod sql;
pub mod stats;

pub use catalog::{Catalog, MemCatalog};
pub use error::QueryError;
pub use executor::{
    execute, execute_optimized, explain_analyze, optimize_plan, ExecOptions, Parallelism,
};
pub use expr::{avg, col, count, count_star, lit, max, min, sum, AggExpr, BinOp, Expr, UnOp};
pub use logical::{JoinType, LogicalPlan, SortKey};
pub use optimizer::Optimizer;
pub use physical::pool;
pub use profile::{OpStats, ProfileNode};
pub use sql::{normalize, parse_select, parse_statement, Statement};

// One registry type spans every layer; see `backbone_storage::metrics`.
pub use backbone_storage::metrics::{Counter, Metrics};
