//! # vw-sql — SQL front-end and Ingres-style optimizer
//!
//! The "SQL Parser", "Ingres Rewriter (slightly modified)" and "Ingres
//! Optimizer (heavily modified)" boxes of Figure 1. Ingres itself is
//! proprietary; this crate provides the equivalent
//! pipeline stage: a hand-written SQL [lexer]/[parser], a
//! [binder] that resolves names and types against a catalog and
//! produces a typed [logical plan](plan), and a histogram-driven
//! [optimizer] doing normalization, decorrelation, predicate pushdown,
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
//! The output of this crate is a [`plan::LogicalPlan`] over the kernel's
//! own expression tree, `vw_exec::expr::PhysExpr`: there is no SQL-level
//! expression type to lower. SQL functions without a kernel primitive
//! (`COALESCE`, `NULLIF`, `IFNULL`, `GREATEST`, `LEAST`, `SIGN`) and
//! `x [NOT] IN (…)` lists become CASE/comparison trees as they bind
//! ([`functions`]) — the paper's "implemented in the rewriter phase, by
//! simplifying them or expressing as combinations of other functions",
//! done where this engine types them. The optimizer's first pass
//! normalizes every plan expression once ([`optimizer::fold_expr`]).

pub mod ast;
pub mod binder;
pub mod functions;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;

pub use binder::{Binder, CatalogView};
pub use plan::{AggCall, JoinKind, LogicalPlan};

use vw_common::Result;

/// Parse a SQL string into statements.
pub fn parse(sql: &str) -> Result<Vec<ast::Statement>> {
    parser::Parser::new(sql)?.parse_statements()
}
