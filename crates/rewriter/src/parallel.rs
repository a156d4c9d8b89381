//! Volcano-style parallelization — "add turbo".
//!
//! The rewriter decides where to insert exchange (Xchg) operators. A plan
//! fragment is *partitionable* when it is a pipeline of
//! Scan → Filter* → Project* — optionally flowing through the **probe
//! side of hash joins**: every worker probes the one complete build of the
//! join, so partitioning the probe input partitions the join output
//! disjointly for every join type, NULL-aware anti included — or a
//! `UnionAll` of such pipelines, each partitioned on its own. The build
//! side is not this module's concern — the logical plan does not say how
//! it is made. The plan compiler makes it a pipeline of its own that runs
//! once for the whole exchange (`vw-core::compile`): a build child that is
//! itself partitionable by [`is_partitionable`] is drained by all workers
//! into one shared build, any other by one of them.
//!
//! The plan-time `dop` only sizes the worker pool. *Which rows a worker
//! scans* is no longer decided here: the compiler's pipeline factory gives
//! every worker clone of the fragment a shared morsel dispenser
//! (`vw-exec::morsel::MorselSource`), and workers claim
//! `morsel_rows`-sized slices at run time until the image is dry. A
//! skewed fragment therefore rebalances itself — the rewriter does not
//! need to predict skew.
//!
//! Rewrite shapes:
//!
//! * **Parallel aggregation** — `Aggr(frag)` →
//!   `Project(finalize) ∘ AggrFinal ∘ Xchg ∘ AggrPartial(frag)`, with AVG
//!   decomposed into SUM + COUNT and re-divided in the finalizing
//!   projection, COUNT re-summed, MIN/MAX re-min/maxed. Partial-build
//!   workers merge shard-wise through the final aggregation.
//! * **Parallel join** — a partitionable fragment ending in a `Join`
//!   becomes `Xchg(frag)` when its consumer is order-insensitive (the
//!   plan root, an aggregation, or anything under a Sort — which
//!   materializes anyway; a bare `Limit` pins order and blocks it).
//!
//! There is no plan-level cost gate: at `dop > 1` every partitionable
//! fragment gets its Xchg, whatever its size (scan cardinalities are not
//! in the plan here; a small fragment costs its workers one empty morsel
//! claim each). Below the plan level a join inside an Exchange builds
//! once for all its fragments, through `dop` sink tasks of the exchange
//! (`vw-exec::op::hashjoin`); no operator spawns work of its own.

use crate::RewriterConfig;
use vw_common::{Field, Schema, TypeId};
use vw_sql::plan::{AggCall, AggFunc, BinOp, CmpOp, LogicalPlan, PhysExpr};

/// Insert Xchg markers where profitable. The plan root is
/// order-insensitive (SQL result order without ORDER BY is unspecified;
/// an ORDER BY compiles to a Sort, which re-materializes).
pub fn parallelize(plan: LogicalPlan, config: &RewriterConfig) -> LogicalPlan {
    rewrite(plan, config, true)
}

/// `order_ok`: may this node's output arrive in nondeterministic order?
/// `Limit` pins its input order (the first k rows must stay the first k
/// rows run-to-run); Sort and Aggregate reset the flag for their inputs.
fn rewrite(plan: LogicalPlan, config: &RewriterConfig, order_ok: bool) -> LogicalPlan {
    match plan {
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            if is_partitionable(&input) {
                return build_parallel_aggregate(*input, group, aggs, schema, config.dop);
            }
            LogicalPlan::Aggregate {
                input: Box::new(rewrite(*input, config, true)),
                group,
                aggs,
                schema,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(rewrite(*input, config, order_ok)), predicate }
        }
        LogicalPlan::Project { input, exprs, schema } => LogicalPlan::Project {
            input: Box::new(rewrite(*input, config, order_ok)),
            exprs,
            schema,
        },
        LogicalPlan::Join { left, right, kind, keys, schema } => {
            let join = LogicalPlan::Join { left, right, kind, keys, schema };
            // Probe-side-partitionable join under an order-insensitive
            // consumer: run the whole fragment per partition (each worker
            // probes its slice against the complete, shared build side).
            if order_ok && is_partitionable(&join) {
                return LogicalPlan::Exchange { input: Box::new(join), dop: config.dop };
            }
            let LogicalPlan::Join { left, right, kind, keys, schema } = join else {
                unreachable!()
            };
            LogicalPlan::Join {
                left: Box::new(rewrite(*left, config, true)),
                right: Box::new(rewrite(*right, config, true)),
                kind,
                keys,
                schema,
            }
        }
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(rewrite(*input, config, true)), keys }
        }
        LogicalPlan::Limit { input, offset, limit } => {
            LogicalPlan::Limit { input: Box::new(rewrite(*input, config, false)), offset, limit }
        }
        LogicalPlan::UnionAll { inputs, schema } => LogicalPlan::UnionAll {
            // Concatenation keeps each input's order, so the consumer's
            // order sensitivity flows through.
            inputs: inputs.into_iter().map(|i| rewrite(i, config, order_ok)).collect(),
            schema,
        },
        other => other,
    }
}

/// Scan → Filter* → Project* pipelines are partitionable, flowing through
/// the probe (left) side of any hash join — every worker probes the one
/// complete build, so probe partitions produce disjoint slices of the join
/// output for every join type — and so is a concatenation of them. The
/// plan compiler asks the same question of a join's build child: a
/// partitionable one is drained by all workers into the shared build, any
/// other by one.
pub fn is_partitionable(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            is_partitionable(input)
        }
        LogicalPlan::Join { left, .. } => is_partitionable(left),
        LogicalPlan::UnionAll { inputs, .. } => inputs.iter().all(is_partitionable),
        _ => false,
    }
}

fn build_parallel_aggregate(
    input: LogicalPlan,
    group: Vec<PhysExpr>,
    aggs: Vec<AggCall>,
    final_schema: Schema,
    dop: usize,
) -> LogicalPlan {
    // Partial aggregation: same groups; AVG splits into SUM + COUNT.
    let mut partial_aggs: Vec<AggCall> = Vec::new();
    // For each original agg: how to finalize (list of partial agg indices).
    enum Finalize {
        /// final agg at index i, passthrough.
        Direct(usize),
        /// AVG = sum(partial sums at i) / sum(partial counts at j).
        AvgOf(usize, usize),
    }
    let mut finalize: Vec<Finalize> = Vec::new();
    for a in &aggs {
        match a.func {
            AggFunc::Avg => {
                let sum_idx = partial_aggs.len();
                let sum_input = a.input.clone().map(|e| {
                    if e.type_id() == TypeId::F64 {
                        e
                    } else {
                        PhysExpr::Cast { input: Box::new(e), to: TypeId::F64 }
                    }
                });
                partial_aggs.push(AggCall {
                    func: AggFunc::Sum,
                    input: sum_input,
                    out_ty: TypeId::F64,
                });
                let cnt_idx = partial_aggs.len();
                partial_aggs.push(AggCall {
                    func: AggFunc::Count,
                    input: a.input.clone(),
                    out_ty: TypeId::I64,
                });
                finalize.push(Finalize::AvgOf(sum_idx, cnt_idx));
            }
            _ => {
                finalize.push(Finalize::Direct(partial_aggs.len()));
                partial_aggs.push(a.clone());
            }
        }
    }

    // Partial output schema: group cols + partial aggs.
    let mut partial_fields: Vec<Field> = Vec::new();
    for (i, g) in group.iter().enumerate() {
        partial_fields.push(Field { name: format!("__g{i}"), ty: g.type_id(), nullable: true });
    }
    for (i, a) in partial_aggs.iter().enumerate() {
        partial_fields.push(Field { name: format!("__p{i}"), ty: a.out_ty, nullable: true });
    }
    let partial_schema = Schema::unchecked(partial_fields);

    let partial = LogicalPlan::Aggregate {
        input: Box::new(input),
        group: group.clone(),
        aggs: partial_aggs.clone(),
        schema: partial_schema.clone(),
    };
    let exchange = LogicalPlan::Exchange { input: Box::new(partial), dop };

    // Final aggregation: group on the partial group columns; merge partial
    // aggregate states.
    let final_group: Vec<PhysExpr> =
        group.iter().enumerate().map(|(i, g)| PhysExpr::ColRef(i, g.type_id())).collect();
    let g = group.len();
    let final_aggs: Vec<AggCall> = partial_aggs
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let input_col = PhysExpr::ColRef(g + i, a.out_ty);
            let merge_func = match a.func {
                AggFunc::CountStar | AggFunc::Count => AggFunc::Sum,
                AggFunc::Sum => AggFunc::Sum,
                AggFunc::Min => AggFunc::Min,
                AggFunc::Max => AggFunc::Max,
                AggFunc::Avg => unreachable!("AVG was decomposed"),
            };
            AggCall { func: merge_func, input: Some(input_col), out_ty: a.out_ty }
        })
        .collect();
    let mut merged_fields: Vec<Field> = Vec::new();
    for (i, gexpr) in group.iter().enumerate() {
        merged_fields.push(Field { name: format!("__g{i}"), ty: gexpr.type_id(), nullable: true });
    }
    for (i, a) in final_aggs.iter().enumerate() {
        merged_fields.push(Field { name: format!("__m{i}"), ty: a.out_ty, nullable: true });
    }
    let merged_schema = Schema::unchecked(merged_fields);
    let final_agg = LogicalPlan::Aggregate {
        input: Box::new(exchange),
        group: final_group,
        aggs: final_aggs,
        schema: merged_schema,
    };

    // Finalizing projection restores the original output layout.
    let mut exprs: Vec<PhysExpr> = Vec::with_capacity(final_schema.len());
    for (i, gexpr) in group.iter().enumerate() {
        exprs.push(PhysExpr::ColRef(i, gexpr.type_id()));
    }
    for (a, fin) in aggs.iter().zip(&finalize) {
        match fin {
            Finalize::Direct(pi) => exprs.push(PhysExpr::ColRef(g + pi, a.out_ty)),
            Finalize::AvgOf(si, ci) => {
                // sum / count, NULL-safe: count 0 → NULL via CASE.
                let sum = PhysExpr::ColRef(g + si, TypeId::F64);
                let cnt = PhysExpr::ColRef(g + ci, TypeId::I64);
                let cnt_f = PhysExpr::Cast { input: Box::new(cnt.clone()), to: TypeId::F64 };
                exprs.push(PhysExpr::Case {
                    branches: vec![(
                        PhysExpr::Cmp {
                            op: CmpOp::Gt,
                            lhs: Box::new(cnt),
                            rhs: Box::new(PhysExpr::Const(vw_common::Value::I64(0), TypeId::I64)),
                        },
                        PhysExpr::Arith {
                            op: BinOp::Div,
                            lhs: Box::new(sum),
                            rhs: Box::new(cnt_f),
                            ty: TypeId::F64,
                        },
                    )],
                    else_expr: Some(Box::new(PhysExpr::Const(vw_common::Value::Null, TypeId::F64))),
                    ty: TypeId::F64,
                });
            }
        }
    }
    LogicalPlan::Project { input: Box::new(final_agg), exprs, schema: final_schema }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::Value;
    use vw_sql::CatalogView;

    /// A catalog that knows no table: EXPLAIN falls back to its defaults.
    struct NoTables;

    impl CatalogView for NoTables {
        fn table_schema(&self, _: &str) -> Option<Schema> {
            None
        }

        fn table_rows(&self, _: &str) -> Option<u64> {
            None
        }
    }

    fn explain(plan: &LogicalPlan) -> String {
        vw_sql::optimizer::explain_with_estimates(plan, &NoTables, &|_| String::new())
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            projection: vec![0, 1],
            schema: Schema::new(vec![
                Field::nullable("k", TypeId::I32),
                Field::nullable("v", TypeId::I64),
            ])
            .unwrap(),
            hints: vec![],
        }
    }

    fn agg_plan() -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group: vec![PhysExpr::ColRef(0, TypeId::I32)],
            aggs: vec![
                AggCall {
                    func: AggFunc::Sum,
                    input: Some(PhysExpr::ColRef(1, TypeId::I64)),
                    out_ty: TypeId::I64,
                },
                AggCall {
                    func: AggFunc::Avg,
                    input: Some(PhysExpr::ColRef(1, TypeId::I64)),
                    out_ty: TypeId::F64,
                },
                AggCall { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 },
            ],
            schema: Schema::unchecked(vec![
                Field::nullable("k", TypeId::I32),
                Field::nullable("sum", TypeId::I64),
                Field::nullable("avg", TypeId::F64),
                Field::not_null("cnt", TypeId::I64),
            ]),
        }
    }

    #[test]
    fn aggregate_parallelized_with_partial_final() {
        let cfg = RewriterConfig { dop: 4, parallel_threshold_rows: 0.0 };
        let out = parallelize(agg_plan(), &cfg);
        let text = explain(&out);
        assert!(text.contains("Xchg dop=4"), "{text}");
        // Project(finalize) over Aggr(final) over Xchg over Aggr(partial).
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("Project"));
        assert!(text.matches("Aggr").count() == 2, "{text}");
        // Schema preserved.
        assert_eq!(out.schema(), agg_plan().schema());
    }

    #[test]
    fn avg_decomposed_into_sum_count() {
        let cfg = RewriterConfig { dop: 2, parallel_threshold_rows: 0.0 };
        let out = parallelize(agg_plan(), &cfg);
        // Partial aggregate has 4 calls: SUM, (AVG→)SUM+COUNT, COUNT(*).
        fn find_partial(p: &LogicalPlan) -> Option<&Vec<AggCall>> {
            match p {
                LogicalPlan::Aggregate { input, aggs, .. } => {
                    if matches!(**input, LogicalPlan::Exchange { .. }) {
                        find_partial(input)
                    } else {
                        Some(aggs)
                    }
                }
                other => other.children().into_iter().find_map(find_partial),
            }
        }
        let partial = find_partial(&out).expect("partial aggregate");
        assert_eq!(partial.len(), 4);
        assert!(partial.iter().all(|a| a.func != AggFunc::Avg));
    }

    #[test]
    fn small_fragments_stay_serial() {
        // A Values input is not partitionable: no Xchg.
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Values {
                schema: Schema::unchecked(vec![Field::not_null("v", TypeId::I64)]),
                rows: vec![vec![Value::I64(1)]],
            }),
            group: vec![],
            aggs: vec![AggCall { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 }],
            schema: Schema::unchecked(vec![Field::not_null("cnt", TypeId::I64)]),
        };
        let cfg = RewriterConfig { dop: 8, parallel_threshold_rows: 0.0 };
        let out = parallelize(plan, &cfg);
        assert!(!explain(&out).contains("Xchg"));
    }

    #[test]
    fn join_inputs_recurse() {
        let join = LogicalPlan::Join {
            left: Box::new(agg_plan()),
            right: Box::new(scan()),
            kind: vw_sql::plan::JoinKind::Inner,
            keys: vec![(PhysExpr::ColRef(0, TypeId::I32), PhysExpr::ColRef(0, TypeId::I32))],
            schema: agg_plan().schema().join(scan().schema()),
        };
        let cfg = RewriterConfig { dop: 2, parallel_threshold_rows: 0.0 };
        let out = parallelize(join, &cfg);
        assert!(explain(&out).contains("Xchg"), "aggregate under join parallelizes");
    }

    fn scan_join_scan() -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            kind: vw_sql::plan::JoinKind::Inner,
            keys: vec![(PhysExpr::ColRef(0, TypeId::I32), PhysExpr::ColRef(0, TypeId::I32))],
            schema: scan().schema().join(scan().schema()),
        }
    }

    #[test]
    fn probe_partitionable_join_gets_exchange() {
        let cfg = RewriterConfig { dop: 4, parallel_threshold_rows: 0.0 };
        let out = parallelize(scan_join_scan(), &cfg);
        let text = explain(&out);
        assert!(text.starts_with("Xchg dop=4"), "join fragment wrapped: {text}");
        assert_eq!(out.schema(), scan_join_scan().schema(), "schema preserved");
    }

    #[test]
    fn aggregate_over_join_fragment_goes_partial_final() {
        // The whole Scan→Join fragment is now partitionable, so the
        // aggregate above it decomposes into partial/final instead of
        // staying serial.
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan_join_scan()),
            group: vec![PhysExpr::ColRef(0, TypeId::I32)],
            aggs: vec![AggCall { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 }],
            schema: Schema::unchecked(vec![
                Field::nullable("k", TypeId::I32),
                Field::not_null("cnt", TypeId::I64),
            ]),
        };
        let cfg = RewriterConfig { dop: 2, parallel_threshold_rows: 0.0 };
        let out = parallelize(plan, &cfg);
        let text = explain(&out);
        assert!(text.contains("Xchg dop=2"), "{text}");
        assert_eq!(text.matches("Aggr").count(), 2, "partial + final: {text}");
    }

    #[test]
    fn limit_pins_order_and_blocks_join_exchange() {
        let plan = LogicalPlan::Limit { input: Box::new(scan_join_scan()), offset: 0, limit: 10 };
        let cfg = RewriterConfig { dop: 4, parallel_threshold_rows: 0.0 };
        let out = parallelize(plan, &cfg);
        assert!(
            !explain(&out).contains("Xchg"),
            "LIMIT's first-k rows must stay deterministic: {}",
            explain(&out)
        );
    }

    #[test]
    fn sort_consumer_allows_join_exchange() {
        let plan =
            LogicalPlan::Sort { input: Box::new(scan_join_scan()), keys: vec![(0, true, false)] };
        let cfg = RewriterConfig { dop: 2, parallel_threshold_rows: 0.0 };
        let out = parallelize(plan, &cfg);
        assert!(explain(&out).contains("Xchg"), "sort re-materializes: {}", explain(&out));
    }

    #[test]
    fn build_side_only_join_stays_serial() {
        // Partitionability flows through the probe (left) side only.
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Values {
                schema: Schema::unchecked(vec![Field::not_null("v", TypeId::I32)]),
                rows: vec![],
            }),
            right: Box::new(scan()),
            kind: vw_sql::plan::JoinKind::Inner,
            keys: vec![(PhysExpr::ColRef(0, TypeId::I32), PhysExpr::ColRef(0, TypeId::I32))],
            schema: Schema::unchecked(vec![
                Field::not_null("v", TypeId::I32),
                Field::nullable("k", TypeId::I32),
                Field::nullable("v2", TypeId::I64),
            ]),
        };
        let cfg = RewriterConfig { dop: 4, parallel_threshold_rows: 0.0 };
        let out = parallelize(plan, &cfg);
        assert!(!explain(&out).contains("Xchg"), "{}", explain(&out));
    }
}
