//! # vw-sql — SQL front-end and Ingres-style optimizer
//!
//! The "SQL Parser", "Ingres Rewriter (slightly modified)" and "Ingres
//! Optimizer (heavily modified)" boxes of Figure 1. Ingres itself is
//! proprietary; this crate provides the equivalent
//! pipeline stage: a hand-written SQL [lexer]/[parser], a
//! [binder] that resolves names and types against a catalog and
//! produces a typed [logical plan](plan), and a histogram-driven
//! [optimizer] doing decorrelation, constant folding, predicate pushdown,
//! projection pruning, selectivity-ordered greedy join ordering and
//! build-side choice in one pass list — the kind of features the paper
//! says were added to the Ingres optimizer. Without statistics
//! (`SET optimizer = 0`, or after DML made them stale) the same passes
//! run on default selectivities.
//!
//! Subqueries follow the paper's join-based treatment: `IN (SELECT …)`
//! binds to a **left semi join**, `EXISTS` likewise, `NOT EXISTS` to a left
//! anti join, and `NOT IN` to the **NULL-aware left anti join** whose SQL
//! semantics the paper singles out as treacherous.
//!
//! The output of this crate ([`plan::LogicalPlan`] over [`expr::SqlExpr`])
//! still contains SQL-level "extended functions" (`COALESCE`, `NULLIF`,
//! `IFNULL`, `GREATEST`, …). Expanding those into kernel primitives is
//! *deliberately not done here*: that is the job of `vw-rewriter`, exactly
//! as in Vectorwise ("Some functions were implemented in the rewriter
//! phase, by simplifying them or expressing as combinations of other
//! functions").

pub mod ast;
pub mod binder;
pub mod expr;
pub mod functions;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;

pub use binder::{Binder, CatalogView};
pub use expr::{ExtFunc, SqlExpr};
pub use plan::{AggCall, JoinKind, LogicalPlan};

use vw_common::Result;

/// Parse a SQL string into statements.
pub fn parse(sql: &str) -> Result<Vec<ast::Statement>> {
    parser::Parser::new(sql)?.parse_statements()
}
