//! # vw-rewriter — the Vectorwise rewriter
//!
//! Figure 1's "Vectorwise Rewriter": a rule-based rewriting stage between
//! the optimizer and the execution kernel. The original used the Tom
//! pattern-matching tool; [`engine`] is the native equivalent — a
//! fixpoint driver over expression rules ("mini-Tom").
//!
//! The paper's three rewriter workloads are all here:
//!
//! * **Many functions** ([`rules`]) — SQL functions without kernel
//!   primitives are "implemented in the rewriter phase, by simplifying them
//!   or expressing as combinations of other functions": COALESCE, NULLIF,
//!   IFNULL, GREATEST, LEAST, SIGN expand into CASE/comparison trees;
//!   IN-lists expand into OR chains; double negation and constant CASE
//!   branches simplify away.
//! * **NULL handling** ([`rules::NullabilityRule`]) — the engine-wide
//!   two-column NULL representation lives in the kernel (`vw-exec`), but
//!   the rewriter uses *schema nullability* to erase NULL handling where it
//!   cannot apply: `IS NULL` on a NOT NULL column folds to FALSE, sparing
//!   the kernel the indicator work entirely.
//! * **Multi-core parallelism** ([`parallel`]) — "The Vectorwise rewriter
//!   was used to implement a Volcano-style query parallelizer": eligible
//!   plan fragments are split into DOP partitions under an Xchg operator,
//!   with aggregations decomposed into partial/final pairs (AVG becomes
//!   SUM+COUNT, re-divided in a post-projection).

pub mod engine;
pub mod parallel;
pub mod rules;

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

/// Run the full rewrite pipeline on an optimized logical plan.
pub fn rewrite_plan(plan: LogicalPlan, config: &RewriterConfig) -> LogicalPlan {
    let plan = rewrite_exprs_in_plan(plan);
    if config.dop > 1 {
        parallel::parallelize(plan, config)
    } else {
        plan
    }
}

/// Apply the expression rule set to every expression in the plan.
pub fn rewrite_exprs_in_plan(plan: LogicalPlan) -> LogicalPlan {
    let rules = rules::default_rules();
    map_plan_exprs(plan, &|e, nullable_inputs| engine::rewrite_fixpoint(e, &rules, nullable_inputs))
}

/// Map every expression in a plan through `f`, which also receives the
/// per-column nullability of the expression's input schema.
fn map_plan_exprs(
    plan: LogicalPlan,
    f: &dyn Fn(vw_sql::SqlExpr, &[bool]) -> vw_sql::SqlExpr,
) -> LogicalPlan {
    use LogicalPlan as P;
    fn nullability(p: &LogicalPlan) -> Vec<bool> {
        p.schema().fields.iter().map(|fl| fl.nullable).collect()
    }
    match plan {
        P::Filter { input, predicate } => {
            let input = map_plan_exprs(*input, f);
            let nulls = nullability(&input);
            P::Filter { predicate: f(predicate, &nulls), input: Box::new(input) }
        }
        P::Project { input, exprs, schema } => {
            let input = map_plan_exprs(*input, f);
            let nulls = nullability(&input);
            P::Project {
                exprs: exprs.into_iter().map(|e| f(e, &nulls)).collect(),
                input: Box::new(input),
                schema,
            }
        }
        P::Join { left, right, kind, keys, schema } => {
            let left = map_plan_exprs(*left, f);
            let right = map_plan_exprs(*right, f);
            let ln = nullability(&left);
            let rn = nullability(&right);
            P::Join {
                keys: keys.into_iter().map(|(l, r)| (f(l, &ln), f(r, &rn))).collect(),
                left: Box::new(left),
                right: Box::new(right),
                kind,
                schema,
            }
        }
        P::Aggregate { input, group, aggs, schema } => {
            let input = map_plan_exprs(*input, f);
            let nulls = nullability(&input);
            P::Aggregate {
                group: group.into_iter().map(|e| f(e, &nulls)).collect(),
                aggs: aggs
                    .into_iter()
                    .map(|a| vw_sql::plan::AggCall {
                        func: a.func,
                        input: a.input.map(|e| f(e, &nulls)),
                        out_ty: a.out_ty,
                    })
                    .collect(),
                input: Box::new(input),
                schema,
            }
        }
        P::Sort { input, keys } => P::Sort { input: Box::new(map_plan_exprs(*input, f)), keys },
        P::Limit { input, offset, limit } => {
            P::Limit { input: Box::new(map_plan_exprs(*input, f)), offset, limit }
        }
        P::Exchange { input, dop } => {
            P::Exchange { input: Box::new(map_plan_exprs(*input, f)), dop }
        }
        P::UnionAll { inputs, schema } => P::UnionAll {
            inputs: inputs.into_iter().map(|i| map_plan_exprs(i, f)).collect(),
            schema,
        },
        P::Apply { input, subquery, kind, keys, schema } => {
            let input = map_plan_exprs(*input, f);
            let subquery = map_plan_exprs(*subquery, f);
            let nulls = nullability(&input);
            P::Apply {
                keys: keys.into_iter().map(|(e, i)| (f(e, &nulls), i)).collect(),
                input: Box::new(input),
                subquery: Box::new(subquery),
                kind,
                schema,
            }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::{Field, Schema, TypeId, Value};
    use vw_sql::expr::ExtFunc;
    use vw_sql::SqlExpr;

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            projection: vec![0, 1],
            schema: Schema::new(vec![
                Field::not_null("id", TypeId::I64),
                Field::nullable("v", TypeId::I64),
            ])
            .unwrap(),
            hints: vec![],
        }
    }

    #[test]
    fn plan_expressions_are_expanded() {
        let plan = LogicalPlan::Project {
            input: Box::new(scan()),
            exprs: vec![SqlExpr::Ext {
                func: ExtFunc::Coalesce,
                args: vec![SqlExpr::Col(1, TypeId::I64), SqlExpr::Lit(Value::I64(0), TypeId::I64)],
                ty: TypeId::I64,
            }],
            schema: Schema::unchecked(vec![Field::nullable("c", TypeId::I64)]),
        };
        let rewritten = rewrite_plan(plan, &RewriterConfig::default());
        let LogicalPlan::Project { exprs, .. } = &rewritten else { panic!() };
        assert!(
            matches!(exprs[0], SqlExpr::Case { .. }),
            "COALESCE must expand to CASE, got {:?}",
            exprs[0]
        );
    }

    #[test]
    fn is_null_on_not_null_column_folds() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: SqlExpr::IsNotNull(Box::new(SqlExpr::Col(0, TypeId::I64))),
        };
        let rewritten = rewrite_plan(plan, &RewriterConfig::default());
        let LogicalPlan::Filter { predicate, .. } = &rewritten else { panic!() };
        assert_eq!(
            *predicate,
            SqlExpr::Lit(Value::Bool(true), TypeId::Bool),
            "IS NOT NULL on a NOT NULL column is always true"
        );
    }
}
