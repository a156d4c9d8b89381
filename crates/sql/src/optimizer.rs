//! The "Ingres Optimizer (heavily modified)" stage: histogram-driven,
//! cost-based logical optimization.
//!
//! [`optimize`] runs one pass list over the bound plan:
//!
//! 1. **Normalization** ([`fold_expr`] on every plan expression: constant
//!    folding through the kernel's compiled programs, logic
//!    simplification, NULL-test erasure from schema nullability);
//! 2. **Decorrelation** — every Apply becomes a hash join — and **filter
//!    merging**;
//! 3. **Filter pushdown below joins** — error-free conjuncts sink through
//!    projections and join inputs until they sit directly above the scans
//!    they constrain;
//! 4. **Join reordering** — inner equi-join chains are flattened and
//!    rebuilt greedily, smallest estimated intermediate result first;
//! 5. **Scan hints** — range/equality conjuncts over scans become MinMax
//!    pack-skip decisions;
//! 6. **Join-aware projection pruning** — unused columns are dropped
//!    through joins and projections, not just at scans;
//! 7. **Outer-join simplification** — a LEFT join under a filter conjunct
//!    that rejects the NULLs it pads with becomes inner, in place;
//! 8. **Build-side choice** by the [`Estimator`]'s cardinalities.
//!
//! Estimates come from `storage::stats` (row counts, distinct counts,
//! equi-depth histograms) surfaced through the [`CatalogView`] trait; a
//! stale or missing statistic degrades to the structural defaults, never
//! to an error. `SET optimizer = 0` is the same list planned as if no
//! statistics existed ([`optimize_with`]). The full cost model, pass list
//! and a worked life-of-a-query are documented in ARCHITECTURE.md ("The
//! optimizer").

use crate::binder::CatalogView;
use crate::plan::{AggCall, ApplyKind, JoinKind, LogicalPlan, ScanHint};
use std::collections::HashMap;
use vw_common::{Field, Result, Schema, TypeId, Value, VwError};
use vw_exec::expr::{BinOp, CmpOp, Func, PhysExpr};
use vw_exec::program::eval_const;

/// Selectivity floor: a conjunction never claims to filter below this.
const MIN_SEL: f64 = 1e-4;
/// Default selectivity for predicates the model cannot decompose.
const DEFAULT_SEL: f64 = 0.3;
/// Default selectivity for equality predicates without distinct counts.
const DEFAULT_EQ_SEL: f64 = 0.1;
/// Join chains longer than this keep their syntactic order (greedy
/// enumeration is linear, but estimate quality decays with depth).
const MAX_REORDER_LEAVES: usize = 8;

/// Run the optimizer's pass list, estimating from `catalog`.
pub fn optimize(plan: LogicalPlan, catalog: &dyn CatalogView) -> Result<LogicalPlan> {
    let plan = normalize(plan)?;
    let plan = decorrelate(plan)?;
    let plan = merge_filters(plan);
    let plan = push_filters(plan)?;
    let est = Estimator::new(catalog);
    let plan = reorder_joins(plan, &est)?;
    let plan = push_hints(plan);
    let mut plan = prune_projections(plan)?;
    reject_nulls(&mut plan, &[]);
    Ok(choose_build_side(plan, &est))
}

/// [`optimize`] with (`statistics = true`) or without the catalog's
/// statistics. Without, the same passes plan over schemas and row counts
/// alone — what a stale statistics snapshot answers — so every estimate
/// takes its structural default.
pub fn optimize_with(
    plan: LogicalPlan,
    catalog: &dyn CatalogView,
    statistics: bool,
) -> Result<LogicalPlan> {
    if statistics {
        optimize(plan, catalog)
    } else {
        optimize(plan, &NoStatistics(catalog))
    }
}

/// `catalog` with its statistics hidden: schemas and row counts pass
/// through, every statistics method keeps its `None` default.
struct NoStatistics<'a>(&'a dyn CatalogView);

impl CatalogView for NoStatistics<'_> {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.0.table_schema(name)
    }

    fn table_rows(&self, name: &str) -> Option<u64> {
        self.0.table_rows(name)
    }
}

/// Rebuild `plan` with `f` applied to each direct child; leaves pass
/// through untouched. Shared recursion scaffolding for the passes below.
fn map_inputs(
    plan: LogicalPlan,
    f: &mut dyn FnMut(LogicalPlan) -> Result<LogicalPlan>,
) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(f(*input)?), predicate }
        }
        LogicalPlan::Project { input, exprs, schema } => {
            LogicalPlan::Project { input: Box::new(f(*input)?), exprs, schema }
        }
        LogicalPlan::Join { left, right, kind, keys, schema } => LogicalPlan::Join {
            left: Box::new(f(*left)?),
            right: Box::new(f(*right)?),
            kind,
            keys,
            schema,
        },
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            LogicalPlan::Aggregate { input: Box::new(f(*input)?), group, aggs, schema }
        }
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(f(*input)?), keys }
        }
        LogicalPlan::Limit { input, offset, limit } => {
            LogicalPlan::Limit { input: Box::new(f(*input)?), offset, limit }
        }
        LogicalPlan::Exchange { input, dop } => {
            LogicalPlan::Exchange { input: Box::new(f(*input)?), dop }
        }
        LogicalPlan::UnionAll { inputs, schema } => LogicalPlan::UnionAll {
            inputs: inputs.into_iter().map(&mut *f).collect::<Result<_>>()?,
            schema,
        },
        LogicalPlan::Apply { input, subquery, kind, keys, schema } => LogicalPlan::Apply {
            input: Box::new(f(*input)?),
            subquery: Box::new(f(*subquery)?),
            kind,
            keys,
            schema,
        },
        leaf => leaf,
    })
}

// ---------------------------------------------------------------------------
// decorrelation
// ---------------------------------------------------------------------------

/// Lower every binder-emitted [`Apply`](LogicalPlan::Apply) to a hash
/// join — the paper's rewriter does all unnesting before the operators
/// ever see a plan. Runs first, so downstream
/// passes (pushdown, reordering, pruning, build-side choice) only ever
/// see join trees. Compile rejects any surviving Apply.
///
/// * `In` / `Exists` → semi join (anti for NOT EXISTS) on the Apply's
///   `(outer expression, subquery column)` key pairs;
/// * `Scalar` → left outer join (the subquery is guaranteed at most one
///   row per key by the binder) + a projection appending the subquery's
///   value column to the outer row.
fn decorrelate(plan: LogicalPlan) -> Result<LogicalPlan> {
    let plan = map_inputs(plan, &mut decorrelate)?;
    let LogicalPlan::Apply { input, subquery, kind, keys, schema } = plan else {
        return Ok(plan);
    };
    let keys: Vec<(PhysExpr, PhysExpr)> = keys
        .into_iter()
        .map(|(outer, idx)| {
            let ty = subquery.schema().field(idx).ty;
            (outer, PhysExpr::ColRef(idx, ty))
        })
        .collect();
    match kind {
        ApplyKind::In | ApplyKind::Exists { negated: false } => Ok(LogicalPlan::Join {
            left: input,
            right: subquery,
            kind: JoinKind::Semi,
            keys,
            schema,
        }),
        ApplyKind::Exists { negated: true } => Ok(LogicalPlan::Join {
            left: input,
            right: subquery,
            kind: JoinKind::Anti,
            keys,
            schema,
        }),
        ApplyKind::Scalar => {
            let lw = input.schema().len();
            let mut fields = input.schema().fields.clone();
            for f in &subquery.schema().fields {
                // A left join null-extends unmatched outer rows.
                fields.push(Field { name: f.name.clone(), ty: f.ty, nullable: true });
            }
            let join = LogicalPlan::Join {
                left: input,
                right: subquery,
                kind: JoinKind::Left,
                keys,
                schema: Schema::unchecked(fields),
            };
            let exprs: Vec<PhysExpr> =
                (0..=lw).map(|i| PhysExpr::ColRef(i, join.schema().field(i).ty)).collect();
            Ok(LogicalPlan::Project { input: Box::new(join), exprs, schema })
        }
    }
}

// ---------------------------------------------------------------------------
// normalization
// ---------------------------------------------------------------------------

/// The per-column nullability of `plan`'s output.
fn nullability(plan: &LogicalPlan) -> Vec<bool> {
    plan.schema().fields.iter().map(|f| f.nullable).collect()
}

/// Normalize every expression of the plan once, bottom-up ([`fold_expr`]
/// over the nullability of the expression's input), and drop filters that
/// fold to TRUE.
fn normalize(plan: LogicalPlan) -> Result<LogicalPlan> {
    let plan = map_inputs(plan, &mut normalize)?;
    let fold_all = |exprs: Vec<PhysExpr>, nulls: &[bool]| -> Result<Vec<PhysExpr>> {
        exprs.into_iter().map(|e| fold_expr(e, nulls)).collect()
    };
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => {
            match fold_expr(predicate, &nullability(&input))? {
                PhysExpr::Const(Value::Bool(true), _) => *input,
                predicate => LogicalPlan::Filter { input, predicate },
            }
        }
        LogicalPlan::Project { input, exprs, schema } => {
            let exprs = fold_all(exprs, &nullability(&input))?;
            LogicalPlan::Project { input, exprs, schema }
        }
        LogicalPlan::Join { left, right, kind, keys, schema } => {
            let (ln, rn) = (nullability(&left), nullability(&right));
            let keys = keys
                .into_iter()
                .map(|(l, r)| Ok((fold_expr(l, &ln)?, fold_expr(r, &rn)?)))
                .collect::<Result<_>>()?;
            LogicalPlan::Join { left, right, kind, keys, schema }
        }
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            let nulls = nullability(&input);
            let group = fold_all(group, &nulls)?;
            let aggs = aggs
                .into_iter()
                .map(|a| {
                    Ok(AggCall { input: a.input.map(|e| fold_expr(e, &nulls)).transpose()?, ..a })
                })
                .collect::<Result<_>>()?;
            LogicalPlan::Aggregate { input, group, aggs, schema }
        }
        LogicalPlan::Apply { input, subquery, kind, keys, schema } => {
            let nulls = nullability(&input);
            let keys = keys
                .into_iter()
                .map(|(e, i)| Ok((fold_expr(e, &nulls)?, i)))
                .collect::<Result<_>>()?;
            LogicalPlan::Apply { input, subquery, kind, keys, schema }
        }
        other => other,
    })
}

/// The one normalization of an expression, bottom-up; `nullable` gives
/// the nullability of each input column.
///
/// * The largest column-free subtree is evaluated once by the compiled
///   programs ([`eval_const`]) and becomes a literal; one whose evaluation
///   errors is left as it is, so the error surfaces at run time.
/// * TRUE/FALSE absorb in AND/OR, whatever the column operands are.
/// * `NOT NOT x` is `x`; `NOT` over a comparison is the negated
///   comparison (NULL where the comparison is NULL).
/// * CASE drops WHEN arms whose condition is a FALSE or NULL literal, and
///   a leading TRUE arm is its result.
/// * `IS [NOT] NULL` over an input that can never be NULL is a literal —
///   the schema's nullability spares the kernel the indicator work.
pub fn fold_expr(e: PhysExpr, nullable: &[bool]) -> Result<PhysExpr> {
    if e.is_const() {
        return Ok(evaluate(e));
    }
    let e = match e.map_children(&mut |c| fold_expr(c, nullable))? {
        PhysExpr::And(parts) => absorb(parts, false, PhysExpr::And),
        PhysExpr::Or(parts) => absorb(parts, true, PhysExpr::Or),
        PhysExpr::Not(x) => match *x {
            PhysExpr::Not(y) => *y,
            PhysExpr::Cmp { op, lhs, rhs } => PhysExpr::Cmp { op: op.negated(), lhs, rhs },
            x => PhysExpr::Not(Box::new(x)),
        },
        PhysExpr::Case { branches, else_expr, ty } => {
            let mut branches: Vec<_> = branches
                .into_iter()
                .filter(|(c, _)| !matches!(c, PhysExpr::Const(Value::Bool(false) | Value::Null, _)))
                .collect();
            match branches.first() {
                Some((PhysExpr::Const(Value::Bool(true), _), _)) => branches.swap_remove(0).1,
                Some(_) => PhysExpr::Case { branches, else_expr, ty },
                None => else_expr.map_or(PhysExpr::Const(Value::Null, ty), |x| *x),
            }
        }
        PhysExpr::IsNull(x) if !maybe_null(&x, nullable) => PhysExpr::bool_const(false),
        PhysExpr::IsNotNull(x) if !maybe_null(&x, nullable) => PhysExpr::bool_const(true),
        other => other,
    };
    // A rule may leave an operator over literals (`NOT` over a folded test).
    let over_literals = !matches!(e, PhysExpr::ColRef(..))
        && e.children().iter().all(|c| matches!(c, PhysExpr::Const(..)));
    Ok(if over_literals { evaluate(e) } else { e })
}

/// A column-free `e` as a literal, or `e` itself when it is one already
/// or its evaluation errors.
fn evaluate(e: PhysExpr) -> PhysExpr {
    match e {
        PhysExpr::Const(..) => e,
        _ => match eval_const(&e) {
            Ok(v) => PhysExpr::Const(v, e.type_id()),
            Err(_) => e,
        },
    }
}

/// Can `e` ever be NULL, given the nullability of each input column?
fn maybe_null(e: &PhysExpr, nullable: &[bool]) -> bool {
    match e {
        PhysExpr::ColRef(i, _) => nullable.get(*i).copied().unwrap_or(true),
        PhysExpr::Const(v, _) => v.is_null(),
        PhysExpr::IsNull(_) | PhysExpr::IsNotNull(_) => false,
        PhysExpr::Case { branches, else_expr, .. } => {
            branches.iter().any(|(_, v)| maybe_null(v, nullable))
                || else_expr.as_ref().is_none_or(|x| maybe_null(x, nullable))
        }
        other => other.children().into_iter().any(|c| maybe_null(c, nullable)),
    }
}

/// AND (`decisive = false`) or OR (`decisive = true`) over folded `parts`:
/// a `decisive` literal decides the connective, and the other boolean
/// literal drops out.
fn absorb(
    parts: Vec<PhysExpr>,
    decisive: bool,
    rebuild: fn(Vec<PhysExpr>) -> PhysExpr,
) -> PhysExpr {
    let mut out = Vec::with_capacity(parts.len());
    for p in parts {
        match p {
            PhysExpr::Const(Value::Bool(b), _) if b == decisive => {
                return PhysExpr::bool_const(decisive)
            }
            PhysExpr::Const(Value::Bool(_), _) => {}
            other => out.push(other),
        }
    }
    match out.len() {
        0 => PhysExpr::bool_const(!decisive),
        1 => out.pop().unwrap(),
        _ => rebuild(out),
    }
}

// ---------------------------------------------------------------------------
// filter merging + predicate → MinMax scan hints
// ---------------------------------------------------------------------------

/// Collapse `Filter(Filter(x))` chains into one conjunctive filter so the
/// hint extractor sees every conjunct at once.
fn merge_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = merge_filters(*input);
            if let LogicalPlan::Filter { input: inner, predicate: p2 } = input {
                let mut parts = p2.conjuncts();
                parts.extend(predicate.conjuncts());
                merge_filters(LogicalPlan::Filter { input: inner, predicate: PhysExpr::And(parts) })
            } else {
                LogicalPlan::Filter { input: Box::new(input), predicate }
            }
        }
        other => {
            map_inputs(other, &mut |c| Ok(merge_filters(c))).expect("merge_filters is infallible")
        }
    }
}

fn push_hints(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_hints(*input);
            if let LogicalPlan::Scan { table, projection, schema, mut hints } = input {
                // Extract col-vs-const range conjuncts as hints; all
                // conjuncts stay in the residual filter (hints only prune).
                for c in predicate.clone().conjuncts() {
                    if let Some(h) = hint_from(&c, &projection) {
                        hints.push(h);
                    }
                }
                LogicalPlan::Filter {
                    input: Box::new(LogicalPlan::Scan { table, projection, schema, hints }),
                    predicate,
                }
            } else {
                LogicalPlan::Filter { input: Box::new(input), predicate }
            }
        }
        other => map_inputs(other, &mut |c| Ok(push_hints(c))).expect("push_hints is infallible"),
    }
}

/// Decompose `col <cmp> literal` (either operand order, tolerating the
/// binder's widening cast around the column). Returns
/// `(op, col, literal, flipped)` where `flipped` records that the column
/// was on the right-hand side.
fn col_vs_lit(e: &PhysExpr) -> Option<(CmpOp, usize, Value, bool)> {
    let PhysExpr::Cmp { op, lhs: l, rhs: r } = e else { return None };
    match (l.as_ref(), r.as_ref()) {
        (PhysExpr::ColRef(c, _), PhysExpr::Const(v, _)) if !v.is_null() => {
            Some((*op, *c, v.clone(), false))
        }
        (PhysExpr::Const(v, _), PhysExpr::ColRef(c, _)) if !v.is_null() => {
            Some((*op, *c, v.clone(), true))
        }
        // The binder may wrap the scanned column in a widening cast.
        (PhysExpr::Cast { input, .. }, PhysExpr::Const(v, _)) if !v.is_null() => {
            let PhysExpr::ColRef(c, cty) = input.as_ref() else { return None };
            // Narrow the literal back to the column type, if exact.
            match v.cast_to(*cty) {
                Ok(nv) if nv.cast_to(v.type_id()?) == Ok(v.clone()) => Some((*op, *c, nv, false)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// `col <cmp> literal` (or reversed) → a MinMax hint in base-table indices.
pub fn hint_from(e: &PhysExpr, projection: &[usize]) -> Option<ScanHint> {
    let (op, col, lit, flipped) = col_vs_lit(e)?;
    let base_col = *projection.get(col)?;
    let (lo, hi) = match (op, flipped) {
        (CmpOp::Eq, _) => (Some(lit.clone()), Some(lit)),
        (CmpOp::Lt | CmpOp::Le, false) | (CmpOp::Gt | CmpOp::Ge, true) => (None, Some(lit)),
        (CmpOp::Gt | CmpOp::Ge, false) | (CmpOp::Lt | CmpOp::Le, true) => (Some(lit), None),
        (CmpOp::Ne, _) => return None,
    };
    Some(ScanHint { col: base_col, lo, hi })
}

// ---------------------------------------------------------------------------
// filter pushdown below joins
// ---------------------------------------------------------------------------

/// Can `e` be evaluated on *more* rows than the original plan fed it
/// without risking a new runtime error? Only such predicates may sink
/// below joins (a join can eliminate the very row that would have
/// divided by zero or overflowed). Comparisons, boolean connectives,
/// NULL tests, LIKE and error-free casts qualify (so do IN-lists, bound
/// as OR chains), and so do UPPER, LOWER, TRIM, LENGTH, SUBSTR with
/// constant bounds it accepts, and integer `/` and `%` by a constant
/// other than 0 and −1. `+`, `-` and `*` (which overflow), other
/// functions and CASE do not.
fn error_free(e: &PhysExpr) -> bool {
    match e {
        PhysExpr::ColRef(..) | PhysExpr::Const(..) => true,
        PhysExpr::Cmp { lhs, rhs, .. } => error_free(lhs) && error_free(rhs),
        PhysExpr::And(v) | PhysExpr::Or(v) => v.iter().all(error_free),
        PhysExpr::Not(x) | PhysExpr::IsNull(x) | PhysExpr::IsNotNull(x) => error_free(x),
        PhysExpr::Like { input, .. } => error_free(input),
        PhysExpr::Cast { input, to } => cast_cannot_fail(input.type_id(), *to) && error_free(input),
        PhysExpr::Arith { op: BinOp::Div | BinOp::Rem, lhs, rhs, ty: TypeId::I64 } => {
            matches!(**rhs, PhysExpr::Const(Value::I64(d), _) if d != 0 && d != -1)
                && error_free(lhs)
        }
        PhysExpr::FuncCall { func, args, .. } => {
            let bounds_ok = match (func, args.get(1), args.get(2)) {
                (Func::Upper | Func::Lower | Func::Trim | Func::Length, ..) => true,
                (Func::Substr, Some(PhysExpr::Const(Value::I64(start), _)), len) => {
                    *start >= 1
                        && match len {
                            None => true,
                            Some(PhysExpr::Const(Value::I64(n), _)) => *n >= 0,
                            Some(_) => false,
                        }
                }
                _ => false,
            };
            bounds_ok && error_free(&args[0])
        }
        PhysExpr::Arith { .. } | PhysExpr::Case { .. } => false,
    }
}

/// `from → to` casts that cannot raise at runtime: identity, integer
/// widening, and integer → float.
fn cast_cannot_fail(from: TypeId, to: TypeId) -> bool {
    fn int_rank(t: TypeId) -> Option<u8> {
        match t {
            TypeId::I8 => Some(1),
            TypeId::I16 => Some(2),
            TypeId::I32 => Some(3),
            TypeId::I64 => Some(4),
            _ => None,
        }
    }
    if from == to {
        return true;
    }
    match (int_rank(from), to) {
        (Some(a), TypeId::I8 | TypeId::I16 | TypeId::I32 | TypeId::I64) => {
            a <= int_rank(to).unwrap()
        }
        (Some(_), TypeId::F64) => true,
        _ => false,
    }
}

/// Wrap `plan` in a filter over `conjuncts`, merging into an existing
/// top filter instead of stacking `Filter(Filter(..))`.
fn wrap_filter(plan: LogicalPlan, conjuncts: Vec<PhysExpr>) -> LogicalPlan {
    if conjuncts.is_empty() {
        return plan;
    }
    let (input, mut parts) = match plan {
        LogicalPlan::Filter { input, predicate } => (*input, predicate.conjuncts()),
        other => (other, Vec::new()),
    };
    parts.extend(conjuncts);
    let predicate = if parts.len() == 1 { parts.pop().unwrap() } else { PhysExpr::And(parts) };
    LogicalPlan::Filter { input: Box::new(input), predicate }
}

/// Sink error-free filter conjuncts as close to the scans as possible:
/// through projections (when the referenced outputs are plain column
/// pass-throughs), into the matching side of a join, and through other
/// filters. Conjuncts that cannot sink stay where they are.
fn push_filters(plan: LogicalPlan) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let (push, keep): (Vec<_>, Vec<_>) =
                predicate.conjuncts().into_iter().partition(error_free);
            let inner = sink_conjuncts(*input, push)?;
            Ok(wrap_filter(inner, keep))
        }
        other => map_inputs(other, &mut push_filters),
    }
}

/// Carry `conjuncts` (all error-free) downward from just above `plan`,
/// depositing each at the deepest node that still provides its columns.
fn sink_conjuncts(plan: LogicalPlan, mut conjuncts: Vec<PhysExpr>) -> Result<LogicalPlan> {
    if conjuncts.is_empty() {
        return push_filters(plan);
    }
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            // Absorb this filter: its error-free conjuncts may sink
            // further; the rest re-wrap above whatever comes back.
            let (push, keep): (Vec<_>, Vec<_>) =
                predicate.conjuncts().into_iter().partition(error_free);
            conjuncts.extend(push);
            let inner = sink_conjuncts(*input, conjuncts)?;
            Ok(wrap_filter(inner, keep))
        }
        LogicalPlan::Join { left, right, kind, keys, schema } => {
            let lw = left.schema().len();
            let mut lpush = Vec::new();
            let mut rpush = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                let mut cols = Vec::new();
                c.collect_cols(&mut cols);
                if cols.iter().all(|&i| i < lw) {
                    // Left-side columns pass through every join kind
                    // unchanged (semi/anti output *is* the left side), so
                    // filtering before the join is always equivalent.
                    lpush.push(c);
                } else if kind == JoinKind::Inner && cols.iter().all(|&i| i >= lw) {
                    // Right-side conjuncts may only sink through inner
                    // joins: outer joins must null-extend unmatched
                    // left rows *after* the predicate.
                    rpush.push(c.remap_cols(&|i| Some(i - lw))?);
                } else {
                    keep.push(c);
                }
            }
            let left = Box::new(sink_conjuncts(*left, lpush)?);
            let right = Box::new(sink_conjuncts(*right, rpush)?);
            Ok(wrap_filter(LogicalPlan::Join { left, right, kind, keys, schema }, keep))
        }
        LogicalPlan::Project { input, exprs, schema } => {
            // A conjunct sinks through the projection when every column
            // it references is a plain pass-through `Col` output.
            let mut push = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                let remapped = c.remap_cols(&|i| match exprs.get(i) {
                    Some(PhysExpr::ColRef(src, _)) => Some(*src),
                    _ => None,
                });
                match remapped {
                    Ok(rc) => push.push(rc),
                    Err(_) => keep.push(c),
                }
            }
            let input = Box::new(sink_conjuncts(*input, push)?);
            Ok(wrap_filter(LogicalPlan::Project { input, exprs, schema }, keep))
        }
        other => {
            // Scans, aggregates, sorts, limits, values: deposit here.
            // (Below an aggregate or limit the predicate would see
            // different rows; a scan is the destination anyway.)
            let other = map_inputs(other, &mut push_filters)?;
            Ok(wrap_filter(other, conjuncts))
        }
    }
}

// ---------------------------------------------------------------------------
// join reordering
// ---------------------------------------------------------------------------

/// Is `p` an inner equi-join whose keys are all plain column pairs — the
/// shape the reorderer can flatten without changing semantics?
fn flattenable(p: &LogicalPlan) -> bool {
    matches!(p, LogicalPlan::Join { kind: JoinKind::Inner, keys, .. }
    if !keys.is_empty()
        && keys.iter().all(|(l, r)| {
            matches!((l, r), (PhysExpr::ColRef(..), PhysExpr::ColRef(..)))
        }))
}

/// Number of non-flattenable leaves under a join chain.
fn count_join_leaves(p: &LogicalPlan) -> usize {
    if flattenable(p) {
        let LogicalPlan::Join { left, right, .. } = p else { unreachable!() };
        count_join_leaves(left) + count_join_leaves(right)
    } else {
        1
    }
}

/// Decompose a flattenable join chain into `leaves` plus equi-join
/// `edges` in global column coordinates (columns numbered across the
/// concatenated leaf schemas, left to right). Returns the subtree width.
fn flatten_joins(
    plan: LogicalPlan,
    base: usize,
    leaves: &mut Vec<LogicalPlan>,
    edges: &mut Vec<(usize, usize)>,
) -> usize {
    if flattenable(&plan) {
        let LogicalPlan::Join { left, right, keys, .. } = plan else { unreachable!() };
        let lw = flatten_joins(*left, base, leaves, edges);
        let rw = flatten_joins(*right, base + lw, leaves, edges);
        for (lk, rk) in keys {
            let (PhysExpr::ColRef(lc, _), PhysExpr::ColRef(rc, _)) = (lk, rk) else {
                unreachable!()
            };
            edges.push((base + lc, base + lw + rc));
        }
        lw + rw
    } else {
        let w = plan.schema().len();
        leaves.push(plan);
        w
    }
}

/// Reorder inner equi-join chains greedily by estimated cardinality:
/// start from the cheapest connected pair, then repeatedly join in the
/// connected leaf that keeps the intermediate result smallest. A final
/// projection restores the original column order, so the plan's schema
/// (and everything upstream) is untouched.
fn reorder_joins(plan: LogicalPlan, est: &Estimator) -> Result<LogicalPlan> {
    let n = count_join_leaves(&plan);
    if !(flattenable(&plan) && (3..=MAX_REORDER_LEAVES).contains(&n)) {
        return map_inputs(plan, &mut |c| reorder_joins(c, est));
    }
    let original_schema = plan.schema().clone();
    let mut leaves = Vec::new();
    let mut edges = Vec::new();
    flatten_joins(plan, 0, &mut leaves, &mut edges);
    let mut opt = Vec::with_capacity(leaves.len());
    for leaf in leaves {
        opt.push(reorder_joins(leaf, est)?);
    }
    build_greedy_join(opt, edges, original_schema, est)
}

/// Greedy left-deep construction over flattened leaves. The join graph
/// is connected by construction (every flattened join's keys bridge its
/// two subtrees), so the loop always finds a connected candidate.
fn build_greedy_join(
    leaves: Vec<LogicalPlan>,
    edges: Vec<(usize, usize)>,
    original_schema: Schema,
    est: &Estimator,
) -> Result<LogicalPlan> {
    let n = leaves.len();
    let widths: Vec<usize> = leaves.iter().map(|l| l.schema().len()).collect();
    let mut offsets = vec![0usize; n];
    for i in 1..n {
        offsets[i] = offsets[i - 1] + widths[i - 1];
    }
    let total_width: usize = widths.iter().sum();
    let owner = |g: usize| offsets.iter().rposition(|&o| o <= g).unwrap();
    let rows: Vec<f64> = leaves.iter().map(|l| est.rows(l)).collect();
    // Per-edge endpoint metadata: (leaf, local column, distinct count).
    struct End {
        leaf: usize,
        local: usize,
        ndv: f64,
    }
    let end = |g: usize| -> End {
        let leaf = owner(g);
        let local = g - offsets[leaf];
        let ndv = est.ndv(&leaves[leaf], rows[leaf], local).unwrap_or(rows[leaf]).max(1.0);
        End { leaf, local, ndv }
    };
    let eds: Vec<(End, End)> = edges.iter().map(|&(a, b)| (end(a), end(b))).collect();

    // Estimated |A ⋈ B| given the side cardinalities and the connecting
    // edges: divide the cross product by max(ndv) per key, the classic
    // containment-of-values assumption.
    let join_card = |lr: f64, rr: f64, ks: &[usize]| -> f64 {
        let mut card = lr * rr;
        for &k in ks {
            let (a, b) = &eds[k];
            card /= a.ndv.min(lr).max(1.0).max(b.ndv.min(rr).max(1.0));
        }
        card.max(1.0)
    };

    // Seed: the connected pair with the smallest estimated join.
    let mut seed: Option<(f64, usize, usize)> = None;
    for i in 0..n {
        for j in i + 1..n {
            let ks: Vec<usize> = (0..eds.len())
                .filter(|&k| {
                    let (a, b) = &eds[k];
                    (a.leaf, b.leaf) == (i, j) || (a.leaf, b.leaf) == (j, i)
                })
                .collect();
            if ks.is_empty() {
                continue;
            }
            let card = join_card(rows[i], rows[j], &ks);
            if seed.is_none_or(|(best, ..)| card < best) {
                seed = Some((card, i, j));
            }
        }
    }
    let Some((mut cur_rows, i, j)) = seed else {
        return Err(VwError::Plan("join reorder: no connected pair".into()));
    };
    // Larger side as probe (left): the later build-side pass then has
    // nothing to swap, avoiding an extra reordering projection.
    let (a, b) = if rows[i] >= rows[j] { (i, j) } else { (j, i) };

    let mut slots: Vec<Option<LogicalPlan>> = leaves.into_iter().map(Some).collect();
    let mut placed = vec![false; n];
    // Column offset of each placed leaf inside the accumulated output.
    let mut pos = vec![0usize; n];
    let mut used = vec![false; eds.len()];

    // Keys for the accumulated (probe) side are addressed through `pos`;
    // the fresh leaf keeps its local coordinates.
    let probe_key = |cur: &LogicalPlan, pos: &[usize], e: &End| -> PhysExpr {
        let col = pos[e.leaf] + e.local;
        PhysExpr::ColRef(col, cur.schema().field(col).ty)
    };
    let leaf_key =
        |leaf: &LogicalPlan, e: &End| PhysExpr::ColRef(e.local, leaf.schema().field(e.local).ty);

    let la = slots[a].take().unwrap();
    let lb = slots[b].take().unwrap();
    placed[a] = true;
    placed[b] = true;
    pos[a] = 0;
    pos[b] = widths[a];
    let mut keys = Vec::new();
    for k in 0..eds.len() {
        let (x, y) = &eds[k];
        let (pa, pb) = if (x.leaf, y.leaf) == (a, b) {
            (x, y)
        } else if (x.leaf, y.leaf) == (b, a) {
            (y, x)
        } else {
            continue;
        };
        used[k] = true;
        keys.push((leaf_key(&la, pa), leaf_key(&lb, pb)));
    }
    let schema = la.schema().join(lb.schema());
    let mut cur = LogicalPlan::Join {
        left: Box::new(la),
        right: Box::new(lb),
        kind: JoinKind::Inner,
        keys,
        schema,
    };
    let mut cur_width = widths[a] + widths[b];

    while placed.iter().any(|p| !p) {
        // Cheapest connected unplaced leaf next.
        let mut best: Option<(f64, usize, Vec<usize>)> = None;
        for c in 0..n {
            if placed[c] {
                continue;
            }
            let ks: Vec<usize> = (0..eds.len())
                .filter(|&k| {
                    if used[k] {
                        return false;
                    }
                    let (x, y) = &eds[k];
                    (placed[x.leaf] && y.leaf == c) || (placed[y.leaf] && x.leaf == c)
                })
                .collect();
            if ks.is_empty() {
                continue;
            }
            let card = join_card(cur_rows, rows[c], &ks);
            if best.as_ref().is_none_or(|(bc, ..)| card < *bc) {
                best = Some((card, c, ks));
            }
        }
        let Some((card, c, ks)) = best else {
            return Err(VwError::Plan("join reorder: disconnected join graph".into()));
        };
        let leaf = slots[c].take().unwrap();
        let mut keys = Vec::new();
        for &k in &ks {
            used[k] = true;
            let (x, y) = &eds[k];
            let (pe, ce) = if y.leaf == c { (x, y) } else { (y, x) };
            keys.push((probe_key(&cur, &pos, pe), leaf_key(&leaf, ce)));
        }
        let schema = cur.schema().join(leaf.schema());
        cur = LogicalPlan::Join {
            left: Box::new(cur),
            right: Box::new(leaf),
            kind: JoinKind::Inner,
            keys,
            schema,
        };
        pos[c] = cur_width;
        cur_width += widths[c];
        placed[c] = true;
        cur_rows = card;
    }

    if (0..n).all(|l| pos[l] == offsets[l]) {
        return Ok(cur); // already in the original order
    }
    // Restore the original column order above the reordered chain.
    let exprs: Vec<PhysExpr> = (0..total_width)
        .map(|g| {
            let l = owner(g);
            let col = pos[l] + (g - offsets[l]);
            PhysExpr::ColRef(col, cur.schema().field(col).ty)
        })
        .collect();
    Ok(LogicalPlan::Project { input: Box::new(cur), exprs, schema: original_schema })
}

// ---------------------------------------------------------------------------
// projection pruning
// ---------------------------------------------------------------------------

/// Drop columns no consumer references. The narrowing traverses filters,
/// projections and both join inputs down to the scans, so wide
/// intermediate results shrink before materialization.
fn prune_projections(plan: LogicalPlan) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Project { input, exprs, schema } => {
            let mut needed = Vec::new();
            for e in &exprs {
                e.collect_cols(&mut needed);
            }
            let (input, remap) = narrow(*input, needed)?;
            let exprs = exprs.iter().map(|e| e.remap_cols(&|i| remap(i))).collect::<Result<_>>()?;
            Ok(LogicalPlan::Project { input: Box::new(input), exprs, schema })
        }
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            let mut needed = Vec::new();
            for g in &group {
                g.collect_cols(&mut needed);
            }
            for a in &aggs {
                if let Some(e) = &a.input {
                    e.collect_cols(&mut needed);
                }
            }
            let (input, remap) = narrow(*input, needed)?;
            let group = group.iter().map(|e| e.remap_cols(&|i| remap(i))).collect::<Result<_>>()?;
            let aggs = aggs
                .iter()
                .map(|a| {
                    Ok(crate::plan::AggCall {
                        func: a.func,
                        input: match &a.input {
                            Some(e) => Some(e.remap_cols(&|i| remap(i))?),
                            None => None,
                        },
                        out_ty: a.out_ty,
                    })
                })
                .collect::<Result<_>>()?;
            Ok(LogicalPlan::Aggregate { input: Box::new(input), group, aggs, schema })
        }
        other => map_inputs(other, &mut prune_projections),
    }
}

/// Narrow `plan` so only `needed` columns remain, returning the plan and
/// a map from old column indices to new ones (`None` = dropped). The map
/// is order-preserving, so surviving columns keep their relative order.
#[allow(clippy::type_complexity)]
fn narrow(
    plan: LogicalPlan,
    mut needed: Vec<usize>,
) -> Result<(LogicalPlan, Box<dyn Fn(usize) -> Option<usize>>)> {
    needed.sort_unstable();
    needed.dedup();
    match plan {
        LogicalPlan::Scan { table, projection, schema, hints } => {
            if needed.is_empty() && !projection.is_empty() {
                // COUNT(*)-style plans reference no columns, but zero-width
                // batches cannot carry a row count: keep the narrowest
                // column as the row-existence carrier.
                let narrowest = (0..projection.len())
                    .min_by_key(|&i| schema.field(i).ty.fixed_width())
                    .unwrap();
                needed.push(narrowest);
            }
            if needed.len() == projection.len() {
                return Ok((
                    LogicalPlan::Scan { table, projection, schema, hints },
                    Box::new(Some),
                ));
            }
            let new_projection: Vec<usize> = needed.iter().map(|&i| projection[i]).collect();
            let new_schema = schema.project(&needed);
            let map: std::collections::HashMap<usize, usize> =
                needed.iter().enumerate().map(|(n, &o)| (o, n)).collect();
            Ok((
                LogicalPlan::Scan { table, projection: new_projection, schema: new_schema, hints },
                Box::new(move |i| map.get(&i).copied()),
            ))
        }
        LogicalPlan::Filter { input, predicate } => {
            // The filter needs its own columns too.
            let mut all = needed.clone();
            predicate.collect_cols(&mut all);
            let (inner, remap) = narrow(*input, all)?;
            let predicate = predicate.remap_cols(&|i| remap(i))?;
            Ok((LogicalPlan::Filter { input: Box::new(inner), predicate }, remap))
        }
        LogicalPlan::Project { input, exprs, schema } => {
            // Keep only the referenced output expressions; compute what
            // they read and narrow below.
            let mut kept = needed;
            if kept.is_empty() && !exprs.is_empty() {
                kept.push(0); // row-count carrier
            }
            let new_exprs: Vec<PhysExpr> = kept.iter().map(|&i| exprs[i].clone()).collect();
            let mut sub = Vec::new();
            for e in &new_exprs {
                e.collect_cols(&mut sub);
            }
            let (input, imap) = narrow(*input, sub)?;
            let new_exprs =
                new_exprs.iter().map(|e| e.remap_cols(&|i| imap(i))).collect::<Result<Vec<_>>>()?;
            let new_schema = schema.project(&kept);
            let map: std::collections::HashMap<usize, usize> =
                kept.iter().enumerate().map(|(n, &o)| (o, n)).collect();
            Ok((
                LogicalPlan::Project {
                    input: Box::new(input),
                    exprs: new_exprs,
                    schema: new_schema,
                },
                Box::new(move |i| map.get(&i).copied()),
            ))
        }
        LogicalPlan::Join { left, right, kind, keys, schema } => {
            let lw = left.schema().len();
            let rw = right.schema().len();
            // Semi/anti joins output the left side only; the right side
            // exists solely to match keys.
            let semi = matches!(kind, JoinKind::Semi | JoinKind::Anti | JoinKind::NullAwareAnti);
            let mut lneed = Vec::new();
            let mut rneed = Vec::new();
            for &c in &needed {
                if semi || c < lw {
                    lneed.push(c);
                } else {
                    rneed.push(c - lw);
                }
            }
            for (lk, rk) in &keys {
                lk.collect_cols(&mut lneed);
                rk.collect_cols(&mut rneed);
            }
            let (left, lmap) = narrow(*left, lneed)?;
            let (right, rmap) = narrow(*right, rneed)?;
            let keys = keys
                .iter()
                .map(|(lk, rk)| Ok((lk.remap_cols(&|i| lmap(i))?, rk.remap_cols(&|i| rmap(i))?)))
                .collect::<Result<Vec<_>>>()?;
            let new_lw = left.schema().len();
            let schema = if semi {
                // Output schema is exactly the (narrowed) left schema.
                left.schema().clone()
            } else {
                // Re-project the original join schema so per-field
                // nullability (left joins null-extend the right side)
                // carries over to the narrowed output.
                let kept: Vec<usize> = (0..lw)
                    .filter(|&i| lmap(i).is_some())
                    .chain((0..rw).filter(|&i| rmap(i).is_some()).map(|i| i + lw))
                    .collect();
                schema.project(&kept)
            };
            let plan = LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                keys,
                schema,
            };
            let map = move |i: usize| {
                if semi || i < lw {
                    lmap(i)
                } else {
                    rmap(i - lw).map(|c| c + new_lw)
                }
            };
            Ok((plan, Box::new(map)))
        }
        other => {
            let other = prune_projections(other)?;
            Ok((other, Box::new(Some)))
        }
    }
}

// ---------------------------------------------------------------------------
// cardinality estimation
// ---------------------------------------------------------------------------

/// Statistics-backed cardinality estimator.
///
/// Every estimate bottoms out in [`CatalogView`]: row counts at scans,
/// per-column distinct counts for equality and join selectivities,
/// histogram mass for range predicates. Missing or stale statistics
/// (the catalog returns `None`) degrade to fixed structural defaults —
/// estimation never fails and never touches table data.
pub struct Estimator<'a> {
    catalog: &'a dyn CatalogView,
}

impl<'a> Estimator<'a> {
    /// An estimator reading statistics through `catalog`.
    pub fn new(catalog: &'a dyn CatalogView) -> Estimator<'a> {
        Estimator { catalog }
    }

    /// Estimated output rows of `plan`.
    ///
    /// Scans report table row counts; filters multiply by predicate
    /// selectivity (floored at `MIN_SEL`); inner joins divide the cross
    /// product by `max(ndv_left, ndv_right)` per key pair (containment
    /// assumption); semi/anti joins keep half the probe side; grouped
    /// aggregates multiply group-key distinct counts, capped at the
    /// input cardinality.
    ///
    /// One bottom-up walk: a node's estimate is a function of its
    /// children's (`node_rows`), so every subtree is visited
    /// once. Callers that want the estimate of *every* node ask
    /// [`Estimator::estimate_all`] instead of calling this per node.
    pub fn rows(&self, plan: &LogicalPlan) -> f64 {
        self.walk(plan, &mut |_, _| {})
    }

    /// The estimates of every node of `plan`, from one bottom-up pass —
    /// what the plan compiler sizes hash builds with and EXPLAIN renders
    /// per line.
    pub fn estimate_all<'p>(&self, plan: &'p LogicalPlan) -> PlanEstimates<'p> {
        let mut rows = HashMap::new();
        self.walk(plan, &mut |node, r| {
            rows.insert(node as *const LogicalPlan as usize, r);
        });
        PlanEstimates { rows, _plan: std::marker::PhantomData }
    }

    fn walk<'p>(&self, plan: &'p LogicalPlan, visit: &mut dyn FnMut(&'p LogicalPlan, f64)) -> f64 {
        let inputs: Vec<f64> = plan.children().into_iter().map(|c| self.walk(c, visit)).collect();
        let rows = self.node_rows(plan, &inputs);
        visit(plan, rows);
        rows
    }

    /// `plan`'s own estimate, given its children's (`inputs`, in
    /// [`LogicalPlan::children`] order).
    fn node_rows(&self, plan: &LogicalPlan, inputs: &[f64]) -> f64 {
        match plan {
            LogicalPlan::Scan { table, .. } => {
                self.catalog.table_rows(table).unwrap_or(1000) as f64
            }
            LogicalPlan::Filter { input, predicate } => {
                inputs[0] * self.selectivity(input, inputs[0], predicate).clamp(MIN_SEL, 1.0)
            }
            LogicalPlan::Project { .. }
            | LogicalPlan::Sort { .. }
            | LogicalPlan::Exchange { .. } => inputs[0],
            LogicalPlan::Join { left, right, kind, keys, .. } => {
                let (l, r) = (inputs[0], inputs[1]);
                match kind {
                    JoinKind::Semi => 0.5 * l,
                    JoinKind::Anti | JoinKind::NullAwareAnti => 0.5 * l,
                    JoinKind::Inner | JoinKind::Left => {
                        let mut card = l * r;
                        for (lk, rk) in keys {
                            let nl = self.key_ndv(left, l, lk).unwrap_or(l);
                            let nr = self.key_ndv(right, r, rk).unwrap_or(r);
                            card /= nl.max(nr).max(1.0);
                        }
                        if *kind == JoinKind::Left {
                            card.max(l)
                        } else {
                            card.max(1.0)
                        }
                    }
                }
            }
            LogicalPlan::Aggregate { input, group, .. } => {
                if group.is_empty() {
                    return 1.0;
                }
                let inrows = inputs[0];
                let mut groups = 1.0;
                for g in group {
                    let n = match g {
                        PhysExpr::ColRef(c, _) => self.ndv(input, inrows, *c),
                        _ => None,
                    };
                    groups *= n.unwrap_or(inrows / 10.0).max(1.0);
                }
                groups.min(inrows).max(1.0)
            }
            LogicalPlan::Limit { limit, .. } => inputs[0].min(*limit as f64),
            LogicalPlan::Values { rows, .. } => rows.len() as f64,
            LogicalPlan::UnionAll { .. } => inputs.iter().sum(),
            // `inputs[0]` is the outer input (the subquery is `inputs[1]`).
            LogicalPlan::Apply { kind, .. } => match kind {
                ApplyKind::In | ApplyKind::Exists { .. } => 0.5 * inputs[0],
                ApplyKind::Scalar => inputs[0],
            },
        }
    }

    /// Selectivity of `pred` over the output of `input`, in `[0, 1]`.
    /// (`rows` is `input`'s own estimate.)
    fn selectivity(&self, input: &LogicalPlan, rows: f64, pred: &PhysExpr) -> f64 {
        match pred {
            PhysExpr::And(parts) => {
                parts.iter().map(|p| self.selectivity(input, rows, p)).product()
            }
            PhysExpr::Or(parts) => {
                1.0 - parts.iter().map(|p| 1.0 - self.selectivity(input, rows, p)).product::<f64>()
            }
            PhysExpr::Not(inner) => 1.0 - self.selectivity(input, rows, inner),
            PhysExpr::Const(Value::Bool(b), _) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            _ => match col_vs_lit(pred) {
                Some((op, col, lit, flipped)) => {
                    self.cmp_selectivity(input, rows, op, col, &lit, flipped)
                }
                None => DEFAULT_SEL,
            },
        }
    }

    /// Selectivity of `col <op> lit` (`flipped` = column on the right).
    fn cmp_selectivity(
        &self,
        input: &LogicalPlan,
        rows: f64,
        op: CmpOp,
        col: usize,
        lit: &Value,
        flipped: bool,
    ) -> f64 {
        match op {
            CmpOp::Eq => self.eq_selectivity(input, rows, col, lit),
            CmpOp::Ne => (1.0 - self.eq_selectivity(input, rows, col, lit)).clamp(0.0, 1.0),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let lower_bound = matches!(
                    (op, flipped),
                    (CmpOp::Gt | CmpOp::Ge, false) | (CmpOp::Lt | CmpOp::Le, true)
                );
                let (lo, hi) = if lower_bound { (Some(lit), None) } else { (None, Some(lit)) };
                self.range_selectivity(input, col, lo, hi).unwrap_or(DEFAULT_SEL)
            }
        }
    }

    fn eq_selectivity(&self, input: &LogicalPlan, rows: f64, col: usize, lit: &Value) -> f64 {
        if let Some(n) = self.ndv(input, rows, col) {
            if n >= 1.0 {
                return (1.0 / n).min(1.0);
            }
        }
        self.range_selectivity(input, col, Some(lit), Some(lit)).unwrap_or(DEFAULT_EQ_SEL)
    }

    /// Histogram mass of `lo <= col <= hi`, if the base column is known
    /// and its statistics are trusted.
    fn range_selectivity(
        &self,
        input: &LogicalPlan,
        col: usize,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Option<f64> {
        let (table, base) = base_column(input, col)?;
        self.catalog.column_range_selectivity(table, base, lo, hi)
    }

    /// Distinct count of an output column, traced back to its base-table
    /// column and capped at the subplan's own row estimate `rows`.
    fn ndv(&self, plan: &LogicalPlan, rows: f64, col: usize) -> Option<f64> {
        let (table, base) = base_column(plan, col)?;
        let n = self.catalog.column_distinct(table, base)? as f64;
        Some(n.min(rows).max(1.0))
    }

    /// Distinct count behind a join-key expression (plain columns only).
    fn key_ndv(&self, side: &LogicalPlan, rows: f64, key: &PhysExpr) -> Option<f64> {
        match key {
            PhysExpr::ColRef(c, _) => self.ndv(side, rows, *c),
            _ => None,
        }
    }
}

/// The row estimate of every node of one plan ([`Estimator::estimate_all`]).
/// Nodes are identified by address: the plan is borrowed for `'p`, so its
/// nodes neither move nor die while the estimates are in use.
pub struct PlanEstimates<'p> {
    rows: HashMap<usize, f64>,
    _plan: std::marker::PhantomData<&'p LogicalPlan>,
}

impl<'p> PlanEstimates<'p> {
    /// The estimate of `node`; `None` for a node of some other plan.
    pub fn rows(&self, node: &'p LogicalPlan) -> Option<f64> {
        self.rows.get(&(node as *const LogicalPlan as usize)).copied()
    }
}

/// Trace output column `col` of `plan` back to `(table, base column)`,
/// following filters, sorts, limits, exchanges, pass-through projections,
/// join sides and group keys. `None` when the column is computed.
fn base_column(plan: &LogicalPlan, col: usize) -> Option<(&str, usize)> {
    match plan {
        LogicalPlan::Scan { table, projection, .. } => {
            Some((table.as_str(), *projection.get(col)?))
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Exchange { input, .. } => base_column(input, col),
        LogicalPlan::Project { input, exprs, .. } => match exprs.get(col)? {
            PhysExpr::ColRef(c, _) => base_column(input, *c),
            _ => None,
        },
        LogicalPlan::Join { left, right, kind, .. } => {
            let lw = left.schema().len();
            match kind {
                JoinKind::Semi | JoinKind::Anti | JoinKind::NullAwareAnti => base_column(left, col),
                _ if col < lw => base_column(left, col),
                _ => base_column(right, col - lw),
            }
        }
        LogicalPlan::Aggregate { input, group, .. } => match group.get(col)? {
            PhysExpr::ColRef(c, _) => base_column(input, *c),
            _ => None,
        },
        // UnionAll columns merge several inputs; the Apply value column is
        // computed. Apply pass-through columns come from the outer input.
        LogicalPlan::Apply { input, .. } if col < input.schema().len() => base_column(input, col),
        LogicalPlan::Values { .. } | LogicalPlan::UnionAll { .. } | LogicalPlan::Apply { .. } => {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// outer-join simplification
// ---------------------------------------------------------------------------

/// Make inner, in place, every LEFT join of `plan` whose null-extended
/// side a filter conjunct above it rejects; `strict` are the output
/// columns of `plan` that such conjuncts above it are strict in (see
/// [`strict_cols`]). A conjunct strict in a null-extended column is never
/// TRUE on a padded row, so the join need not make them (Galindo-Legaria
/// & Rosenthal, TODS 1997). Only the join kind changes: the order stays,
/// the conjunct stays where it is and sees only the rows it kept before,
/// and [`choose_build_side`] may then build the smaller side. In place,
/// unlike the passes before it: most plans have no LEFT join to change.
fn reject_nulls(plan: &mut LogicalPlan, strict: &[usize]) {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let mut cols = strict.to_vec();
            strict_cols(predicate, &mut cols);
            reject_nulls(input, &cols);
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let cols: Vec<usize> = strict
                .iter()
                .filter_map(|&c| match exprs.get(c) {
                    Some(PhysExpr::ColRef(i, _)) => Some(*i),
                    _ => None,
                })
                .collect();
            reject_nulls(input, &cols);
        }
        LogicalPlan::Join { left, right, kind, .. } => {
            let lw = left.schema().len();
            if *kind == JoinKind::Left && strict.iter().any(|&c| c >= lw) {
                *kind = JoinKind::Inner;
            }
            let (l, r): (Vec<usize>, Vec<usize>) = strict.iter().partition(|&&c| c < lw);
            // A conjunct above reaches the right side only through an inner join.
            let inner = *kind == JoinKind::Inner;
            let r: Vec<usize> = r.into_iter().filter(|_| inner).map(|c| c - lw).collect();
            reject_nulls(left, &l);
            reject_nulls(right, &r);
        }
        LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Exchange { input, .. } => reject_nulls(input, &[]),
        LogicalPlan::Apply { input, subquery, .. } => {
            reject_nulls(input, &[]);
            reject_nulls(subquery, &[]);
        }
        LogicalPlan::UnionAll { inputs, .. } => {
            inputs.iter_mut().for_each(|i| reject_nulls(i, &[]))
        }
        LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => {}
    }
}

/// Add to `out` the columns a NULL in which makes predicate `e` NULL, and
/// so not TRUE: the columns of a comparison's or a LIKE's operands,
/// through arithmetic and casts, in any conjunct. Nothing under OR, NOT,
/// IS [NOT] NULL, CASE or a function — COALESCE binds to a CASE.
fn strict_cols(e: &PhysExpr, out: &mut Vec<usize>) {
    fn operand(e: &PhysExpr, out: &mut Vec<usize>) {
        match e {
            PhysExpr::ColRef(c, _) => out.push(*c),
            PhysExpr::Arith { lhs, rhs, .. } => {
                operand(lhs, out);
                operand(rhs, out);
            }
            PhysExpr::Cast { input, .. } => operand(input, out),
            _ => {}
        }
    }
    match e {
        PhysExpr::Cmp { lhs, rhs, .. } => {
            operand(lhs, out);
            operand(rhs, out);
        }
        PhysExpr::Like { input, .. } => operand(input, out),
        PhysExpr::And(v) => v.iter().for_each(|c| strict_cols(c, out)),
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// join build-side choice
// ---------------------------------------------------------------------------

fn choose_build_side(plan: LogicalPlan, est: &Estimator) -> LogicalPlan {
    match plan {
        LogicalPlan::Join { left, right, kind, keys, schema } => {
            let left = Box::new(choose_build_side(*left, est));
            let right = Box::new(choose_build_side(*right, est));
            // Only inner joins are symmetric enough to swap.
            if kind == JoinKind::Inner && est.rows(&left) < est.rows(&right) {
                let lwidth = left.schema().len();
                let rwidth = right.schema().len();
                // Swap sides; output schema must keep the original order, so
                // wrap in a reordering projection.
                let swapped_schema = right.schema().join(left.schema());
                let keys = keys.into_iter().map(|(l, r)| (r, l)).collect();
                let join = LogicalPlan::Join {
                    left: right,
                    right: left,
                    kind,
                    keys,
                    schema: swapped_schema.clone(),
                };
                let exprs: Vec<PhysExpr> = (0..lwidth)
                    .map(|i| PhysExpr::ColRef(rwidth + i, swapped_schema.field(rwidth + i).ty))
                    .chain((0..rwidth).map(|i| PhysExpr::ColRef(i, swapped_schema.field(i).ty)))
                    .collect();
                return LogicalPlan::Project { input: Box::new(join), exprs, schema };
            }
            LogicalPlan::Join { left, right, kind, keys, schema }
        }
        other => map_inputs(other, &mut |c| Ok(choose_build_side(c, est)))
            .expect("choose_build_side is infallible"),
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

/// Render an EXPLAIN tree annotated with the cost model's estimates —
/// the engine's one plan renderer, whatever the `optimizer` setting.
///
/// Output contract (each line, byte-exact — golden-tested):
///
/// * one line per node, indented two spaces per level: `Select`,
///   `Project [n exprs]`, `HashJoin <kind> on n key(s)`, `Aggr groups=g
///   aggs=a`, `Sort keys=..`, `Limit n offset m`, `Values [n rows]`,
///   `Xchg dop=n`, `UnionAll [n inputs]`, `Apply <kind> on n key(s)`;
/// * every node carries ` est~N` — its estimated output rows, rounded;
/// * `Scan` lines read `Scan <table> cols=<projected>/<base-width>
///   hints=<n> [<pred> & ...]`, where the bracketed list renders the
///   pushed MinMax hints (`cK=V`, `cK>=V`, `cK<=V`, `cK in A..B`, in
///   base-table column numbers) and is omitted when no hints exist;
/// * join children are prefixed with their runtime role: `probe:` for
///   the left (streamed) input, `build:` for the right (hash-table)
///   input;
/// * `suffix(node)` is appended after `est~N` — empty for `EXPLAIN`, the
///   node's measured figures for `EXPLAIN ANALYZE`.
pub fn explain_with_estimates(
    plan: &LogicalPlan,
    catalog: &dyn CatalogView,
    suffix: &dyn Fn(&LogicalPlan) -> String,
) -> String {
    let est = Estimator::new(catalog).estimate_all(plan);
    let mut out = String::new();
    explain_est_into(plan, &est, catalog, suffix, 0, None, &mut out);
    out
}

fn explain_est_into<'p>(
    plan: &'p LogicalPlan,
    est: &PlanEstimates<'p>,
    catalog: &dyn CatalogView,
    suffix: &dyn Fn(&LogicalPlan) -> String,
    depth: usize,
    role: Option<&str>,
    out: &mut String,
) {
    out.push_str(&"  ".repeat(depth));
    if let Some(r) = role {
        out.push_str(r);
    }
    let line = match plan {
        LogicalPlan::Scan { table, projection, hints, .. } => {
            let base = catalog.table_schema(table).map_or(projection.len(), |s| s.len());
            let preds = if hints.is_empty() {
                String::new()
            } else {
                let rendered: Vec<String> = hints.iter().map(render_hint).collect();
                format!(" [{}]", rendered.join(" & "))
            };
            format!("Scan {table} cols={projection:?}/{base} hints={}{preds}", hints.len())
        }
        LogicalPlan::Filter { .. } => "Select".to_string(),
        LogicalPlan::Project { exprs, .. } => format!("Project [{} exprs]", exprs.len()),
        LogicalPlan::Join { kind, keys, .. } => {
            format!("HashJoin {kind:?} on {} key(s)", keys.len())
        }
        LogicalPlan::Aggregate { group, aggs, .. } => {
            format!("Aggr groups={} aggs={}", group.len(), aggs.len())
        }
        LogicalPlan::Sort { keys, .. } => format!("Sort keys={keys:?}"),
        LogicalPlan::Limit { offset, limit, .. } => format!("Limit {limit} offset {offset}"),
        LogicalPlan::Values { rows, .. } => format!("Values [{} rows]", rows.len()),
        LogicalPlan::Exchange { dop, .. } => format!("Xchg dop={dop}"),
        LogicalPlan::UnionAll { inputs, .. } => format!("UnionAll [{} inputs]", inputs.len()),
        LogicalPlan::Apply { kind, keys, .. } => {
            format!("Apply {kind:?} on {} key(s)", keys.len())
        }
    };
    out.push_str(&line);
    let rows = est.rows(plan).expect("every node of the walked plan has an estimate");
    out.push_str(&format!(" est~{rows:.0}{}\n", suffix(plan)));
    if let LogicalPlan::Join { left, right, .. } = plan {
        explain_est_into(left, est, catalog, suffix, depth + 1, Some("probe: "), out);
        explain_est_into(right, est, catalog, suffix, depth + 1, Some("build: "), out);
    } else {
        for c in plan.children() {
            explain_est_into(c, est, catalog, suffix, depth + 1, None, out);
        }
    }
}

/// One pushed predicate, in base-table column coordinates.
fn render_hint(h: &ScanHint) -> String {
    match (&h.lo, &h.hi) {
        (Some(a), Some(b)) if a == b => format!("c{}={a}", h.col),
        (Some(a), Some(b)) => format!("c{} in {a}..{b}", h.col),
        (Some(a), None) => format!("c{}>={a}", h.col),
        (None, Some(b)) => format!("c{}<={b}", h.col),
        (None, None) => format!("c{}", h.col),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::binder::Binder;
    use crate::parse;
    use vw_common::{Field, Schema};

    /// Three tables sharing one 4-column layout: big (1M rows), mid
    /// (10k), small (100). `id` is unique and uniform over `[0, rows)`;
    /// `a` has 100 distinct values.
    struct MockCatalog;

    impl MockCatalog {
        fn rows_of(name: &str) -> Option<u64> {
            match name {
                "big" => Some(1_000_000),
                "mid" => Some(10_000),
                "small" => Some(100),
                _ => None,
            }
        }
    }

    impl CatalogView for MockCatalog {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            Self::rows_of(name)?;
            Some(
                Schema::new(vec![
                    Field::not_null("id", TypeId::I64),
                    Field::nullable("a", TypeId::I32),
                    Field::nullable("b", TypeId::Str),
                    Field::nullable("c", TypeId::F64),
                ])
                .unwrap(),
            )
        }

        fn table_rows(&self, name: &str) -> Option<u64> {
            Self::rows_of(name).or(Some(100))
        }

        fn column_distinct(&self, table: &str, col: usize) -> Option<u64> {
            match col {
                0 => Self::rows_of(table),
                1 => Some(100),
                _ => None,
            }
        }

        fn column_range_selectivity(
            &self,
            table: &str,
            col: usize,
            lo: Option<&Value>,
            hi: Option<&Value>,
        ) -> Option<f64> {
            if col != 0 {
                return None;
            }
            // `id` uniform over [0, rows).
            let rows = Self::rows_of(table)? as f64;
            let lo = lo.and_then(vw_common_project).unwrap_or(0.0);
            let hi = hi.and_then(vw_common_project).unwrap_or(rows);
            Some(((hi - lo) / rows).clamp(0.0, 1.0))
        }
    }

    /// Test-local stand-in for `vw_storage::stats::project` (vw-sql does
    /// not depend on vw-storage).
    fn vw_common_project(v: &Value) -> Option<f64> {
        match v {
            Value::I8(x) => Some(*x as f64),
            Value::I16(x) => Some(*x as f64),
            Value::I32(x) => Some(*x as f64),
            Value::I64(x) => Some(*x as f64),
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    fn bound(sql: &str) -> LogicalPlan {
        let stmts = parse(sql).unwrap();
        let Statement::Select(s) = &stmts[0] else { panic!() };
        Binder::new(&MockCatalog).bind_select(s).unwrap()
    }

    /// `sql` bound and optimized with (`statistics`) or without the mock
    /// catalog's statistics.
    fn plan_with(sql: &str, statistics: bool) -> LogicalPlan {
        let plan = bound(sql);
        let before_schema = plan.schema().clone();
        let optimized = optimize_with(plan, &MockCatalog, statistics).unwrap();
        assert_eq!(optimized.schema(), &before_schema, "schema must be stable");
        optimized
    }

    fn plan_for(sql: &str) -> LogicalPlan {
        plan_with(sql, true)
    }

    fn explain(plan: &LogicalPlan) -> String {
        explain_with_estimates(plan, &MockCatalog, &|_| String::new())
    }

    #[test]
    fn constant_folding_removes_true_filters() {
        let p = plan_for("SELECT id FROM big WHERE 1 + 1 = 2");
        assert!(!explain(&p).contains("Select"), "{}", explain(&p));
    }

    #[test]
    fn constant_folding_in_projection() {
        let p = plan_for("SELECT 2 * 3 + id FROM big");
        let LogicalPlan::Project { exprs, .. } = &p else { panic!() };
        // 2*3 folded to 6: the remaining tree is 6 + id.
        assert!(format!("{:?}", exprs[0]).contains("I64(6)"));
    }

    #[test]
    fn hints_pushed_to_scan() {
        let p = plan_for("SELECT a FROM big WHERE id >= 100 AND id < 200 AND b LIKE 'x%'");
        let text = explain(&p);
        assert!(text.contains("hints=2"), "{text}");
    }

    #[test]
    fn projection_pruned_to_used_columns() {
        let p = plan_for("SELECT a FROM big WHERE id > 5");
        let text = explain(&p);
        // Only id (0) and a (1) should be read, not b, c.
        assert!(text.contains("cols=[0, 1]"), "{text}");
    }

    #[test]
    fn small_side_becomes_build() {
        let p = plan_for("SELECT big.id FROM small JOIN big ON small.id = big.id");
        // left=small (100 rows) < right=big: swap puts big on probe side.
        let est = Estimator::new(&MockCatalog);
        let mut node = &p;
        loop {
            match node {
                LogicalPlan::Join { left, right, .. } => {
                    let l = est.rows(left);
                    let r = est.rows(right);
                    assert!(l >= r, "build side (right) should be the smaller input");
                    break;
                }
                other => {
                    let cs = other.children();
                    assert!(!cs.is_empty(), "no join found");
                    node = cs[0];
                }
            }
        }
    }

    #[test]
    fn fold_expr_handles_div_zero_conservatively() {
        let e = PhysExpr::Arith {
            op: vw_exec::expr::BinOp::Div,
            lhs: Box::new(PhysExpr::Const(Value::I64(1), TypeId::I64)),
            rhs: Box::new(PhysExpr::Const(Value::I64(0), TypeId::I64)),
            ty: TypeId::I64,
        };
        // Must NOT fold away: runtime raises the proper error.
        let folded = fold_expr(e.clone(), &[]).unwrap();
        assert_eq!(folded, e);
    }

    #[test]
    fn fold_expr_evaluates_column_free_subtrees_and_absorbs() {
        let lit = |v: i64| PhysExpr::Const(Value::I64(v), TypeId::I64);
        let cmp = |op: CmpOp, a: i64, b: i64| PhysExpr::Cmp {
            op,
            lhs: Box::new(lit(a)),
            rhs: Box::new(lit(b)),
        };
        let bool_lit = |b: bool| PhysExpr::Const(Value::Bool(b), TypeId::Bool);
        let col = PhysExpr::ColRef(0, TypeId::Bool);
        // No node kind needs a fold rule of its own: the kernel runs it.
        let case = PhysExpr::Case {
            branches: vec![(cmp(CmpOp::Lt, 1, 2), lit(3))],
            else_expr: Some(Box::new(lit(4))),
            ty: TypeId::I64,
        };
        assert_eq!(fold_expr(case, &[]).unwrap(), lit(3));
        // A literal decides AND/OR whatever the column holds, or drops out.
        let and = PhysExpr::And(vec![col.clone(), cmp(CmpOp::Gt, 1, 2)]);
        assert_eq!(fold_expr(and, &[true]).unwrap(), bool_lit(false));
        let or = PhysExpr::Or(vec![col.clone(), cmp(CmpOp::Gt, 1, 2)]);
        assert_eq!(fold_expr(or, &[true]).unwrap(), col);
    }

    fn col(i: usize) -> PhysExpr {
        PhysExpr::ColRef(i, TypeId::I64)
    }

    fn lit(v: i64) -> PhysExpr {
        PhysExpr::Const(Value::I64(v), TypeId::I64)
    }

    fn not(e: PhysExpr) -> PhysExpr {
        PhysExpr::Not(Box::new(e))
    }

    #[test]
    fn fold_expr_removes_negations() {
        let cmp = PhysExpr::Cmp { op: CmpOp::Lt, lhs: Box::new(col(0)), rhs: Box::new(lit(5)) };
        let folded = fold_expr(not(cmp.clone()), &[true]).unwrap();
        assert!(matches!(folded, PhysExpr::Cmp { op: CmpOp::Ge, .. }), "{folded:?}");
        assert_eq!(fold_expr(not(not(cmp.clone())), &[true]).unwrap(), cmp);
        // Four NOTs over a boolean column, bottom-up in one walk.
        let b = PhysExpr::ColRef(0, TypeId::Bool);
        assert_eq!(fold_expr(not(not(not(not(b.clone())))), &[true]).unwrap(), b);
        // An empty IN-list's chain is a constant.
        assert_eq!(fold_expr(PhysExpr::Or(vec![]), &[]).unwrap(), PhysExpr::bool_const(false));
        assert_eq!(fold_expr(not(PhysExpr::Or(vec![])), &[]).unwrap(), PhysExpr::bool_const(true));
        // Nothing to normalize: the expression comes back as it was.
        let e = PhysExpr::And(vec![b.clone(), PhysExpr::ColRef(1, TypeId::Bool)]);
        assert_eq!(fold_expr(e.clone(), &[true, true]).unwrap(), e);
    }

    #[test]
    fn fold_expr_erases_null_tests_on_non_null_inputs() {
        let is_null = |e: PhysExpr| PhysExpr::IsNull(Box::new(e));
        let is_not_null = |e: PhysExpr| PhysExpr::IsNotNull(Box::new(e));
        assert_eq!(fold_expr(is_null(col(0)), &[false]).unwrap(), PhysExpr::bool_const(false));
        assert_eq!(fold_expr(is_not_null(col(0)), &[false]).unwrap(), PhysExpr::bool_const(true));
        // On nullable columns they stay; NOT over an erased test folds too.
        assert_eq!(fold_expr(is_null(col(0)), &[true]).unwrap(), is_null(col(0)));
        assert_eq!(fold_expr(not(is_null(col(0))), &[false]).unwrap(), PhysExpr::bool_const(true));
        // CASE without ELSE can be NULL, whatever its arms hold.
        let case = |else_expr: Option<PhysExpr>| PhysExpr::Case {
            branches: vec![(PhysExpr::ColRef(1, TypeId::Bool), col(0))],
            else_expr: else_expr.map(Box::new),
            ty: TypeId::I64,
        };
        assert_eq!(fold_expr(is_null(case(None)), &[false, false]).unwrap(), is_null(case(None)));
        let folded = fold_expr(is_null(case(Some(lit(1)))), &[false, false]).unwrap();
        assert_eq!(folded, PhysExpr::bool_const(false));
        assert!(maybe_null(&PhysExpr::Const(Value::Null, TypeId::I64), &[]));
        assert!(!maybe_null(&lit(1), &[]));
        // A column past the known ones may be NULL.
        assert!(maybe_null(&col(3), &[false]));
    }

    #[test]
    fn fold_expr_drops_constant_case_arms() {
        let arm = |c: PhysExpr, v: i64| (c, lit(v));
        let case = PhysExpr::Case {
            branches: vec![
                arm(PhysExpr::bool_const(false), 1),
                arm(PhysExpr::Const(Value::Null, TypeId::Bool), 2),
                arm(PhysExpr::ColRef(0, TypeId::Bool), 3),
            ],
            else_expr: Some(Box::new(col(1))),
            ty: TypeId::I64,
        };
        let folded = fold_expr(case, &[true, true]).unwrap();
        let PhysExpr::Case { branches, .. } = &folded else { panic!("{folded:?}") };
        assert_eq!(branches.len(), 1);
        // Every arm dropped: the ELSE, or NULL without one.
        let none = PhysExpr::Case {
            branches: vec![arm(PhysExpr::bool_const(false), 1)],
            else_expr: None,
            ty: TypeId::I64,
        };
        assert_eq!(fold_expr(none, &[]).unwrap(), PhysExpr::Const(Value::Null, TypeId::I64));
    }

    #[test]
    fn normalization_reaches_every_expression_of_the_plan() {
        // COALESCE over the NOT NULL `id` is `id` itself, wherever it sits.
        let p = plan_for("SELECT COALESCE(id, 0) FROM big");
        let LogicalPlan::Project { exprs, .. } = &p else { panic!("{p:?}") };
        assert_eq!(exprs[0], col(0));
        let p = plan_for(
            "SELECT COALESCE(big.id, 0), SUM(COALESCE(big.id, 1)) FROM big JOIN small \
             ON COALESCE(big.id, 2) = small.id GROUP BY COALESCE(big.id, 0)",
        );
        fn no_case(p: &LogicalPlan) {
            let exprs: Vec<&PhysExpr> = match p {
                LogicalPlan::Project { exprs, .. } => exprs.iter().collect(),
                LogicalPlan::Join { keys, .. } => keys.iter().flat_map(|(l, r)| [l, r]).collect(),
                LogicalPlan::Aggregate { group, aggs, .. } => {
                    group.iter().chain(aggs.iter().filter_map(|a| a.input.as_ref())).collect()
                }
                _ => Vec::new(),
            };
            for e in exprs {
                assert!(!matches!(e, PhysExpr::Case { .. }), "{e:?} in {p:?}");
            }
            p.children().into_iter().for_each(no_case);
        }
        no_case(&p);
        // IS NOT NULL over a NOT NULL column is TRUE, and the filter goes.
        let p = plan_for("SELECT id FROM big WHERE id IS NOT NULL");
        assert!(!explain(&p).contains("Select"), "{}", explain(&p));
        // One-member NOT IN over a nullable column is one `<>` comparison.
        let p = plan_for("SELECT id FROM big WHERE a NOT IN (7)");
        let mut node = &p;
        while !matches!(node, LogicalPlan::Filter { .. }) {
            node = node.children()[0];
        }
        let LogicalPlan::Filter { predicate, .. } = node else { unreachable!() };
        assert!(matches!(predicate, PhysExpr::Cmp { op: CmpOp::Ne, .. }), "{predicate:?}");
    }

    /// Collect scan table names in explain order (probe before build).
    fn scan_tables(plan: &LogicalPlan, out: &mut Vec<String>) {
        if let LogicalPlan::Scan { table, .. } = plan {
            out.push(table.clone());
        }
        for c in plan.children() {
            scan_tables(c, out);
        }
    }

    #[test]
    fn join_chain_reordered_smallest_first() {
        // Syntactic order joins big first; the cost model should instead
        // start from mid ⋈ small (est. 100 rows) and probe with big.
        let p = plan_for(
            "SELECT COUNT(*) FROM big \
             JOIN mid ON big.id = mid.id \
             JOIN small ON mid.id = small.id",
        );
        // Top join: probe side holds big, build side the mid/small join.
        let mut node = &p;
        let (probe, build) = loop {
            match node {
                LogicalPlan::Join { left, right, .. } => break (left, right),
                other => node = other.children()[0],
            }
        };
        let mut probe_tables = Vec::new();
        scan_tables(probe, &mut probe_tables);
        let mut build_tables = Vec::new();
        scan_tables(build, &mut build_tables);
        assert_eq!(probe_tables, vec!["big"], "probe should stream the large table");
        let mut sorted = build_tables.clone();
        sorted.sort();
        assert_eq!(sorted, vec!["mid", "small"], "build should hold the small join");
    }

    #[test]
    fn blind_planning_orders_joins_by_row_counts() {
        // Without distinct counts every key is assumed unique, so a join's
        // estimate is its smaller side: the chain still starts from
        // mid ⋈ small and still probes with big.
        let p = plan_with(
            "SELECT COUNT(*) FROM big \
             JOIN mid ON big.id = mid.id \
             JOIN small ON mid.id = small.id",
            false,
        );
        let text = explain(&p);
        let probe = text.find("probe: Scan big").expect("big streams");
        let build = text.find("build: HashJoin").expect("the small join builds");
        assert!(probe < build, "{text}");
    }

    #[test]
    fn filters_pushed_below_join_to_both_scans() {
        let p = plan_for(
            "SELECT big.a FROM big JOIN small ON big.id = small.id \
             WHERE big.a > 10 AND small.a < 5",
        );
        let text = explain(&p);
        assert_eq!(
            text.matches("hints=1").count(),
            2,
            "each side should get its own pushed predicate:\n{text}"
        );
    }

    #[test]
    fn error_prone_predicates_stay_above_join() {
        let p =
            plan_for("SELECT big.a FROM big JOIN small ON big.id = small.id WHERE 10 / big.a > 1");
        let text = explain(&p);
        let select = text.find("Select").expect("filter survives");
        let join = text.find("HashJoin").expect("join survives");
        assert!(select < join, "division must not be evaluated on pre-join rows:\n{text}");
    }

    #[test]
    fn error_free_classification() {
        let col = PhysExpr::ColRef(0, TypeId::I32);
        let lit = PhysExpr::Const(Value::I64(1), TypeId::I64);
        let cmp =
            PhysExpr::Cmp { op: CmpOp::Gt, lhs: Box::new(col.clone()), rhs: Box::new(lit.clone()) };
        assert!(error_free(&cmp));
        assert!(error_free(&PhysExpr::Cast { input: Box::new(col.clone()), to: TypeId::I64 }));
        assert!(!error_free(&PhysExpr::Cast { input: Box::new(col.clone()), to: TypeId::I8 }));
        assert!(!error_free(&PhysExpr::Arith {
            op: vw_exec::expr::BinOp::Div,
            lhs: Box::new(lit.clone()),
            rhs: Box::new(col),
            ty: TypeId::I64,
        }));
    }

    /// The line right below the `Select` of `text` (the filter's input).
    fn below_select(text: &str) -> &str {
        let mut lines = text.lines().skip_while(|l| !l.contains("Select"));
        lines.nth(1).expect("a Select with an input")
    }

    #[test]
    fn conjuncts_that_cannot_fail_sink_to_their_scan() {
        for pred in [
            "big.id % 100 = 0",
            "big.id / 7 = 3",
            "SUBSTR(big.b, 1, 2) IN ('ab', 'cd')",
            "UPPER(big.b) = 'X' AND LENGTH(TRIM(LOWER(big.b))) > 2",
        ] {
            let text = explain(&plan_for(&format!(
                "SELECT COUNT(*) FROM small, big WHERE small.id = big.id AND {pred}"
            )));
            assert!(below_select(&text).contains("Scan big"), "{pred}:\n{text}");
        }
        for pred in [
            "big.id * 5 > 10",
            "big.id + 1 > 10",
            "big.id % 0 = 0",
            "big.id / -1 = 3",
            "SUBSTR(big.b, 0, 2) = 'ab'",
        ] {
            let text = explain(&plan_for(&format!(
                "SELECT COUNT(*) FROM small, big WHERE small.id = big.id AND {pred}"
            )));
            let (select, join) = (text.find("Select").unwrap(), text.find("HashJoin").unwrap());
            assert!(select < join, "{pred} stays above the join:\n{text}");
        }
    }

    #[test]
    fn a_left_join_is_inner_under_a_conjunct_that_rejects_its_padding() {
        let join_of = |pred: &str| {
            let text = explain(&plan_for(&format!(
                "SELECT small.a FROM small LEFT JOIN big ON small.id = big.id WHERE {pred}"
            )));
            text.lines().find(|l| l.contains("HashJoin")).unwrap().trim().to_string()
        };
        for pred in ["big.a > 3", "big.a * 2 < small.a", "big.b LIKE 'x%'"] {
            assert!(join_of(pred).starts_with("HashJoin Inner"), "{pred}");
        }
        for pred in [
            "big.a IS NULL",
            "big.a IS NOT NULL OR small.a > 1",
            "COALESCE(big.a, 0) = 0",
            "big.a > 3 OR small.a > 1",
            "NOT (big.a > 3 AND small.a > 1)",
            "CASE WHEN big.a > 3 THEN 1 ELSE 0 END = 0",
            "small.a > 3",
        ] {
            assert!(join_of(pred).starts_with("HashJoin Left"), "{pred}");
        }
        // The padded side is the small one: once inner, it is the build.
        let text = explain(&plan_for(
            "SELECT small.a FROM small LEFT JOIN big ON small.id = big.id WHERE big.a > 3",
        ));
        assert!(text.contains("probe: Scan big") && text.contains("build: Scan small"), "{text}");
    }

    #[test]
    fn estimator_uses_histogram_range_selectivity() {
        let est = Estimator::new(&MockCatalog);
        let p = bound("SELECT a FROM small WHERE id >= 10 AND id < 20");
        // Project → Filter → Scan; the filter's estimate combines both
        // range conjuncts over the uniform id column.
        let rows = est.rows(&p);
        // sel(id >= 10) = 0.9, sel(id <= 20, inclusive-hi hint form) ≈ 0.2:
        // 100 × 0.9 × 0.2 = 18.
        assert!((rows - 18.0).abs() < 2.0, "estimated {rows}");
    }

    #[test]
    fn explain_estimates_golden() {
        let p = plan_for("SELECT a FROM small WHERE id >= 10 AND id < 20");
        let text = explain(&p);
        let expected = "\
Project [1 exprs] est~18
  Select est~18
    Scan small cols=[0, 1]/4 hints=2 [c0>=10 & c0<=20] est~100
";
        assert_eq!(text, expected, "EXPLAIN contract drifted:\n{text}");
    }

    #[test]
    fn blind_explain_golden() {
        // The same plan without statistics: each range conjunct takes the
        // default selectivity 0.3, so the filter keeps 100 × 0.09 rows.
        let p = plan_with("SELECT a FROM small WHERE id >= 10 AND id < 20", false);
        let text = explain_with_estimates(&p, &NoStatistics(&MockCatalog), &|_| String::new());
        let expected = "\
Project [1 exprs] est~9
  Select est~9
    Scan small cols=[0, 1]/4 hints=2 [c0>=10 & c0<=20] est~100
";
        assert_eq!(text, expected, "blind EXPLAIN drifted:\n{text}");
    }

    #[test]
    fn explain_indents_children() {
        let p = plan_for("SELECT id FROM big LIMIT 5");
        let text = explain(&p);
        assert!(text.starts_with("Limit 5 offset 0 est~5\n"), "{text}");
        assert!(text.contains("\n    Scan big"), "{text}");
    }
}
