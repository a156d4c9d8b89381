//! # vw-rewriter — the Vectorwise rewriter
//!
//! Figure 1's "Vectorwise Rewriter", a stage between the optimizer and
//! the execution kernel. The paper gives the rewriter three workloads;
//! in this engine two of them happen upstream, where the plan's
//! expressions are typed and normalized once:
//!
//! * **Many functions** — SQL functions without kernel primitives
//!   (COALESCE, NULLIF, IFNULL, GREATEST, LEAST, SIGN) and IN-lists are
//!   expanded into CASE/comparison trees by the binder (`vw_sql::functions`),
//!   because this engine writes its own binder rather than reusing Ingres'.
//! * **NULL handling** — schema nullability erases `IS [NOT] NULL` tests
//!   over inputs that can never be NULL in the optimizer's normalization
//!   (`vw_sql::optimizer::fold_expr`), beside constant folding.
//! * **Multi-core parallelism** ([`parallel`]) — "The Vectorwise rewriter
//!   was used to implement a Volcano-style query parallelizer": eligible
//!   plan fragments are split into DOP partitions under an Xchg operator,
//!   with aggregations decomposed into partial/final pairs (AVG becomes
//!   SUM+COUNT, re-divided in a post-projection). That is this crate.

pub mod parallel;

use vw_sql::plan::LogicalPlan;

/// Rewriter configuration.
#[derive(Debug, Clone)]
pub struct RewriterConfig {
    /// Target degree of parallelism (1 = no parallelization).
    pub dop: usize,
    /// Not consulted: the rewriter has no plan-level cost gate (scan
    /// cardinalities are not in the plan it sees), so every partitionable
    /// fragment is parallelized at `dop > 1`. The field stays only because
    /// `benchmark/src/trace.rs` builds this struct as a literal; it is on
    /// ROADMAP's deletion ledger for the next benchmark PR.
    pub parallel_threshold_rows: f64,
}

impl Default for RewriterConfig {
    fn default() -> Self {
        RewriterConfig { dop: 1, parallel_threshold_rows: 10_000.0 }
    }
}

/// Rewrite an optimized logical plan for execution: at `dop > 1`, insert
/// the parallelizer's Xchg markers; at DOP 1 the plan passes through.
pub fn rewrite_plan(plan: LogicalPlan, config: &RewriterConfig) -> LogicalPlan {
    if config.dop > 1 {
        parallel::parallelize(plan, config)
    } else {
        plan
    }
}
