//! The binder: resolves names against a catalog, types every expression,
//! and produces a [`LogicalPlan`].
//!
//! One walk over the statement, on a scope stack (the shape of
//! risingwave's `push_context`/`pop_context`): the query level being bound
//! is a `Frame`; binding a subquery pushes the frame's columns as the
//! innermost *upper* context and pops them after. A column reference
//! resolves to a `(depth, index)`. Depth 0 is a column of the frame; depth
//! 1 is a correlated reference to the enclosing query and binds past the
//! frame's last column, so a correlated equality is an equality across a
//! column boundary — split into an Apply key by the rule that turns `JOIN
//! … ON` and comma-FROM equalities into join keys (`split_eq`). Depth 2
//! and beyond is a typed `E_UNSUPPORTED`.
//!
//! One expression binder serves queries before and after aggregation: in
//! a grouped query an aggregate call or a GROUP BY expression maps to its
//! output column, and everything else takes the common recursion. A scalar
//! subquery binds where the expression binder meets it: its Apply goes on
//! the frame's plan and the expression gets that column.
//!
//! Uncorrelated subqueries bind to joins directly (the anti-join NULL
//! intricacies the paper warns about are decided *here*): `IN` → semi
//! join, `EXISTS` → semi join on a constant key, `NOT EXISTS` → anti
//! join, `NOT IN` → NULL-aware anti join. Correlated subqueries and
//! scalar subqueries bind to [`LogicalPlan::Apply`] nodes, and the
//! optimizer's decorrelation pass lowers every Apply to a hash join. The
//! FROM clause binds uncorrelated (no LATERAL): derived tables, ON
//! conditions and CTE definitions see no upper context. A CTE binds once,
//! at its WITH; each reference clones that plan.
//!
//! The supported SQL surface (set operations, CTEs, derived tables,
//! comma-FROM, INTERVAL arithmetic) and each construct's lowering are
//! catalogued in ARCHITECTURE.md ("SQL surface").

use crate::ast::{self, AstJoinKind, Expr, IntervalUnit, SelectItem, SelectStmt, TableRef};
use crate::functions;
use crate::plan::{AggCall, AggFunc, ApplyKind, JoinKind, LogicalPlan};
use std::cell::RefCell;
use vw_common::date::{add_months, DateField};
use vw_common::{Date, Field, Result, Schema, TypeId, Value, VwError};
use vw_exec::expr::{BinOp, CmpOp, Func, PhysExpr};

/// Read-only view of the catalog the binder and optimizer need.
///
/// The two schema/row methods are required (the binder cannot work without
/// them); the statistics methods default to `None`, which is how a view
/// says "no statistics": lightweight implementers (mock catalogs) answer
/// it always, the engine's catalog adapter serves real numbers from
/// `vw_storage::stats` and answers `None` when they are stale (DML since
/// the last rebuild) or when the session plans without statistics (`SET
/// optimizer = 0`). The estimator then takes its fixed default
/// selectivities and assumes unique join keys; the plan may change shape,
/// the answers may not.
pub trait CatalogView {
    /// Schema of `name`, if the table exists.
    fn table_schema(&self, name: &str) -> Option<Schema>;
    /// Row-count estimate for the optimizer.
    fn table_rows(&self, name: &str) -> Option<u64>;

    /// Distinct-value estimate for base-table column `col` of `table`
    /// (`None` = unknown or stale). Feeds equality selectivities
    /// (`1/n_distinct`) and the join-cardinality formula.
    fn column_distinct(&self, _table: &str, _col: usize) -> Option<u64> {
        None
    }

    /// Histogram selectivity estimate for `lo <= col <= hi` over `table`
    /// (bounds inclusive; a missing bound leaves that side open). `None`
    /// when no fresh histogram exists for the column.
    fn column_range_selectivity(
        &self,
        _table: &str,
        _col: usize,
        _lo: Option<&Value>,
        _hi: Option<&Value>,
    ) -> Option<f64> {
        None
    }
}

fn berr(msg: impl Into<String>) -> VwError {
    VwError::Bind(msg.into())
}

fn unsup(msg: impl Into<String>) -> VwError {
    VwError::Unsupported(msg.into())
}

/// One visible column during binding. A scalar subquery's value column
/// has an empty name: no identifier resolves to it.
struct ScopeCol {
    qualifier: Option<String>,
    name: String,
    ty: TypeId,
    nullable: bool,
}

/// The columns one query level sees.
#[derive(Default)]
struct Scope {
    cols: Vec<ScopeCol>,
}

impl Scope {
    fn from_schema(qualifier: Option<&str>, schema: &Schema) -> Scope {
        Scope {
            cols: schema
                .fields
                .iter()
                .map(|f| ScopeCol {
                    qualifier: qualifier.map(|s| s.to_string()),
                    name: f.name.clone(),
                    ty: f.ty,
                    nullable: f.nullable,
                })
                .collect(),
        }
    }

    fn concat(mut self, other: Scope) -> Scope {
        self.cols.extend(other.cols);
        self
    }

    /// Resolve against this scope's own columns. `Ok(None)` = not found
    /// (an ambiguity is still an error, never a fallthrough).
    fn resolve_local(&self, parts: &[String]) -> Result<Option<(usize, TypeId)>> {
        let (qual, name) = match parts {
            [n] => (None, n.as_str()),
            [q, n] => (Some(q.as_str()), n.as_str()),
            _ => return Err(berr(format!("bad identifier {parts:?}"))),
        };
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            let qual_ok = match (qual, &c.qualifier) {
                (None, _) => true,
                (Some(q), Some(cq)) => q.eq_ignore_ascii_case(cq),
                (Some(_), None) => false,
            };
            if qual_ok && c.name.eq_ignore_ascii_case(name) {
                if found.is_some() {
                    return Err(berr(format!("ambiguous column '{}'", parts.join("."))));
                }
                found = Some((i, c.ty));
            }
        }
        Ok(found)
    }

    fn to_schema(&self) -> Schema {
        Schema::unchecked(
            self.cols
                .iter()
                .map(|c| Field { name: c.name.clone(), ty: c.ty, nullable: c.nullable })
                .collect(),
        )
    }
}

/// A resolved column reference: `depth` query levels out (0 = the query
/// being bound), column `index` of that level's scope.
struct ColRef {
    depth: usize,
    index: usize,
    ty: TypeId,
}

/// The query level being bound: the innermost context of the scope stack.
struct Frame<'s> {
    /// What its expressions see: the FROM clause's columns, then one
    /// nameless column per scalar subquery bound in WHERE.
    scope: Scope,
    /// The plan a scalar subquery's Apply goes on; `None` where none may
    /// bind (SELECT items, GROUP BY, aggregate arguments, IN probes).
    plan: Option<LogicalPlan>,
    /// Set once a grouped query has aggregated.
    grouped: Option<Grouped<'s>>,
    /// Correlated (depth-1) references bound so far.
    outer_refs: usize,
}

impl Frame<'_> {
    fn new(scope: Scope) -> Self {
        Frame { scope, plan: None, grouped: None, outer_refs: 0 }
    }
}

/// What a grouped query's aggregate outputs: the group columns, then one
/// column per distinct aggregate call.
struct Grouped<'s> {
    /// The GROUP BY expressions as written.
    asts: &'s [Expr],
    /// The bound group expressions: user groups, then correlation columns.
    group: Vec<PhysExpr>,
    /// Each aggregate call as written, with its output column and type.
    calls: Vec<(&'s Expr, usize, TypeId)>,
}

/// A bound SELECT core: the plan, its visible (user-facing) column
/// count, and the correlation exports — `(outer key expression, export
/// column index)` pairs the enclosing Apply will join on.
type BoundCore = (LogicalPlan, usize, Vec<(PhysExpr, usize)>);

/// The binder.
pub struct Binder<'a> {
    /// `None` for a binder that knows no tables ([`bind_expr_on_schema`]).
    catalog: Option<&'a dyn CatalogView>,
    /// In-scope CTE bindings, innermost last. Pushed when a `WITH` list
    /// binds, popped when its statement finishes; name lookup shadows
    /// base tables and outer CTEs of the same name.
    ctes: RefCell<Vec<(String, LogicalPlan)>>,
    /// The scope stack's upper contexts: the columns of each enclosing
    /// query level, innermost last.
    upper: RefCell<Vec<Scope>>,
}

const AGG_NAMES: [&str; 5] = ["COUNT", "SUM", "MIN", "MAX", "AVG"];

fn is_agg(e: &Expr) -> bool {
    matches!(e, Expr::Func { name, .. } if AGG_NAMES.contains(&name.as_str()))
}

/// Split `l = r` across the column boundary `at`: `(lower, upper)`, where
/// every column of `lower` lies below `at` and every column of `upper` in
/// `at..end`, the upper side rebased to start at 0. The one rule that
/// turns ON and comma-FROM equalities into join keys and correlated
/// equalities into Apply keys. The upper side must read a column; the
/// lower one may be a constant only when `const_lower`.
fn split_eq(
    e: &PhysExpr,
    at: usize,
    end: usize,
    const_lower: bool,
) -> Option<(PhysExpr, PhysExpr)> {
    let PhysExpr::Cmp { op: CmpOp::Eq, lhs: l, rhs: r } = e else { return None };
    let within = |x: &PhysExpr, lo: usize, hi: usize, empty_ok: bool| {
        let mut cols = Vec::new();
        x.collect_cols(&mut cols);
        (empty_ok || !cols.is_empty()) && cols.iter().all(|&c| c >= lo && c < hi)
    };
    for (lower, upper) in [(l, r), (r, l)] {
        if within(lower, 0, at, const_lower) && within(upper, at, end, false) {
            return Some((lower.as_ref().clone(), upper.remap_cols(&|i| Some(i - at)).ok()?));
        }
    }
    None
}

/// A correlated WHERE conjunct as an Apply key `(outer, inner)`: outer
/// columns bind at `at` and past it. Only `outer = inner` equalities
/// decorrelate; anything else (Q21's `l2.l_suppkey <> l1.l_suppkey`,
/// range correlation, ...) is a typed E_UNSUPPORTED.
fn correlation_key(bound: &PhysExpr, at: usize) -> Result<(PhysExpr, PhysExpr)> {
    if !matches!(bound, PhysExpr::Cmp { op: CmpOp::Eq, .. }) {
        return Err(unsup(
            "correlated predicate that is not an equality (only `outer = inner` \
             correlation decorrelates to a hash join)",
        ));
    }
    let (inner, outer) = split_eq(bound, at, usize::MAX, true)
        .ok_or_else(|| unsup("correlated predicate mixing outer and inner columns on one side"))?;
    Ok((outer, inner))
}

/// Can this plan provably return at most one row? (Gate for
/// uncorrelated scalar subqueries.)
fn at_most_one_row(p: &LogicalPlan) -> bool {
    match p {
        LogicalPlan::Aggregate { group, .. } => group.is_empty(),
        LogicalPlan::Limit { input, limit, .. } => *limit <= 1 || at_most_one_row(input),
        LogicalPlan::Values { rows, .. } => rows.len() <= 1,
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. } => at_most_one_row(input),
        _ => false,
    }
}

/// A correlated scalar subquery must produce one value per correlation
/// key: structurally, an aggregate grouped by exactly the correlation
/// columns (possibly under projections/filters).
fn corr_scalar_unique(p: &LogicalPlan, ncorr: usize) -> bool {
    match p {
        LogicalPlan::Project { input, .. } | LogicalPlan::Filter { input, .. } => {
            corr_scalar_unique(input, ncorr)
        }
        LogicalPlan::Aggregate { group, .. } => group.len() == ncorr,
        _ => false,
    }
}

/// Build one Apply key: the outer expression joined against subquery
/// output column `col`. The inner side is a bare column reference, so
/// any promotion cast must land on the outer side.
fn apply_key(outer: PhysExpr, sub: &Schema, col: usize) -> Result<(PhysExpr, usize)> {
    let ity = sub.field(col).ty;
    let ty = TypeId::promote(outer.type_id(), ity).ok_or_else(|| {
        berr(format!("correlated key types {} and {} are incompatible", outer.type_id(), ity))
    })?;
    if ty != ity {
        return Err(unsup(format!(
            "correlated key that would need a cast on the subquery side ({} vs {})",
            outer.type_id(),
            ity
        )));
    }
    Ok((cast_to(outer, ty), col))
}

impl<'a> Binder<'a> {
    /// A binder over `catalog`.
    pub fn new(catalog: &'a dyn CatalogView) -> Binder<'a> {
        Binder { catalog: Some(catalog), ctes: RefCell::default(), upper: RefCell::default() }
    }

    /// Bind a full SELECT into a logical plan.
    pub fn bind_select(&self, stmt: &SelectStmt) -> Result<LogicalPlan> {
        let (plan, corr) = self.bind_query(stmt)?;
        debug_assert!(corr.is_empty(), "top-level query cannot be correlated");
        Ok(plan)
    }

    /// Bind a (sub)query at the current scope stack: push its CTEs, bind
    /// the body (set-operation chain included), pop the CTEs. Returns the
    /// plan plus the correlation exports `(outer expression, output
    /// column)` the enclosing query must turn into Apply keys.
    fn bind_query(&self, stmt: &SelectStmt) -> Result<(LogicalPlan, Vec<(PhysExpr, usize)>)> {
        let cte_base = self.ctes.borrow().len();
        for (name, q) in &stmt.with {
            // CTEs bind uncorrelated, and may use earlier CTEs of the
            // same WITH list (already pushed).
            let (p, _) = self.uncorrelated(|| self.bind_query(q))?;
            self.ctes.borrow_mut().push((name.clone(), p));
        }
        let out = self.bind_query_inner(stmt);
        self.ctes.borrow_mut().truncate(cte_base);
        out
    }

    fn bind_query_inner(&self, stmt: &SelectStmt) -> Result<(LogicalPlan, Vec<(PhysExpr, usize)>)> {
        let (mut plan, mut items_len, corr) = self.bind_core(stmt)?;

        if !stmt.set_ops.is_empty() {
            if !corr.is_empty() {
                return Err(unsup("correlated set-operation operand"));
            }
            for (kind, rhs) in &stmt.set_ops {
                let (rp, rcorr) = self.bind_query(rhs)?;
                if !rcorr.is_empty() {
                    return Err(unsup("correlated set-operation operand"));
                }
                plan = make_setop(*kind, plan, rp)?;
            }
            items_len = plan.schema().len();
        }

        // ORDER BY over the visible output columns (correlation exports
        // ride behind them and are not addressable).
        if !stmt.order_by.is_empty() {
            let out = Schema::unchecked(plan.schema().fields[..items_len].to_vec());
            let mut keys = Vec::new();
            for (e, asc, nulls_first) in &stmt.order_by {
                let idx = self.resolve_order_key(e, &out)?;
                keys.push((idx, *asc, *nulls_first));
            }
            plan = LogicalPlan::Sort { input: Box::new(plan), keys };
        }

        if stmt.limit.is_some() || stmt.offset.is_some() {
            if !corr.is_empty() {
                return Err(unsup(
                    "LIMIT/OFFSET in a correlated subquery (per-group limits do not decorrelate)",
                ));
            }
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                offset: stmt.offset.unwrap_or(0),
                limit: stmt.limit.unwrap_or(u64::MAX),
            };
        }
        Ok((plan, corr))
    }

    /// Bind one SELECT core (FROM/WHERE/GROUP BY/HAVING/items/DISTINCT).
    /// Returns the plan, the visible item count, and correlation exports.
    fn bind_core(&self, stmt: &SelectStmt) -> Result<BoundCore> {
        // FROM: one part, or a comma-list the WHERE equalities will join.
        let (parts, scope) = self.uncorrelated(|| match &stmt.from {
            None => {
                // One-row dual for FROM-less SELECT.
                let schema = Schema::unchecked(vec![Field::not_null("__dual", TypeId::I64)]);
                let plan =
                    LogicalPlan::Values { schema: schema.clone(), rows: vec![vec![Value::I64(0)]] };
                Ok((vec![(plan, 1usize)], Scope::from_schema(None, &schema)))
            }
            Some(TableRef::Cross(items)) => {
                let mut parts = Vec::new();
                let mut scope = Scope::default();
                for it in items {
                    let (p, s) = self.bind_table_ref(it)?;
                    parts.push((p, s.cols.len()));
                    scope = scope.concat(s);
                }
                Ok((parts, scope))
            }
            Some(tr) => {
                let (p, s) = self.bind_table_ref(tr)?;
                let w = s.cols.len();
                Ok((vec![(p, w)], s))
            }
        })?;
        let mut cx = Frame::new(scope);

        // WHERE: classify conjuncts. Subquery conjuncts join later,
        // scalar-subquery conjuncts apply later, correlated equalities
        // become exports, plain equalities may glue comma-FROM parts,
        // everything else filters.
        let mut subq: Vec<(&Expr, bool)> = Vec::new();
        let mut scalarc: Vec<&Expr> = Vec::new();
        let mut cands: Vec<(usize, PhysExpr)> = Vec::new();
        let mut filters: Vec<(usize, PhysExpr)> = Vec::new();
        let mut corr: Vec<(PhysExpr, PhysExpr)> = Vec::new();
        if let Some(w) = &stmt.where_clause {
            for (ci, conjunct) in split_conjuncts(w).into_iter().enumerate() {
                // `NOT EXISTS` / `NOT (x IN (...))` arrive wrapped in Not.
                let (conjunct, flip) = match conjunct {
                    Expr::Not(inner)
                        if matches!(
                            inner.as_ref(),
                            Expr::Exists { .. } | Expr::InSubquery { .. }
                        ) =>
                    {
                        (inner.as_ref(), true)
                    }
                    other => (other, false),
                };
                match conjunct {
                    Expr::InSubquery { .. } | Expr::Exists { .. } => subq.push((conjunct, flip)),
                    other if other.any(|e| matches!(e, Expr::Scalar(_))) => scalarc.push(other),
                    other => {
                        let before = cx.outer_refs;
                        let bound = self.bind_expr(other, &mut cx)?;
                        if cx.outer_refs > before {
                            corr.push(correlation_key(&bound, cx.scope.cols.len())?);
                        } else if parts.len() > 1
                            && matches!(bound, PhysExpr::Cmp { op: CmpOp::Eq, .. })
                        {
                            cands.push((ci, bound));
                        } else {
                            filters.push((ci, bound));
                        }
                    }
                }
            }
        }

        // Join the comma-FROM parts left to right, consuming equality
        // candidates that link the placed prefix to the next part. A
        // part no equality reaches joins on a constant key (a hash
        // cross product) — the filters above it still apply.
        let mut parts_iter = parts.into_iter();
        let (mut plan, mut prefix_w) = parts_iter.next().expect("FROM has at least one part");
        let mut used = vec![false; cands.len()];
        for (p, w) in parts_iter {
            let mut keys = Vec::new();
            for (k, (_, cand)) in cands.iter().enumerate() {
                if !used[k] {
                    if let Some(key) = split_eq(cand, prefix_w, prefix_w + w, false) {
                        keys.push(key);
                        used[k] = true;
                    }
                }
            }
            if keys.is_empty() {
                let one = PhysExpr::Const(Value::I64(1), TypeId::I64);
                keys.push((one.clone(), one));
            }
            prefix_w += w;
            let schema = Schema::unchecked(
                cx.scope.cols[..prefix_w]
                    .iter()
                    .map(|c| Field { name: c.name.clone(), ty: c.ty, nullable: c.nullable })
                    .collect(),
            );
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(p),
                kind: JoinKind::Inner,
                keys,
                schema,
            };
        }
        // Equality candidates no join step consumed are ordinary filters.
        for (k, (ci, cand)) in cands.into_iter().enumerate() {
            if !used[k] {
                filters.push((ci, cand));
            }
        }
        filters.sort_by_key(|(ci, _)| *ci);

        // IN/EXISTS subquery conjuncts: direct joins (uncorrelated) or
        // Apply nodes (correlated).
        for (conjunct, flip) in subq {
            match conjunct {
                Expr::InSubquery { expr, subquery, negated } => {
                    plan =
                        self.bind_in_subquery(plan, &mut cx, expr, subquery, *negated != flip)?;
                }
                Expr::Exists { subquery, negated } => {
                    plan = self.bind_exists(plan, &mut cx, subquery, *negated != flip)?;
                }
                _ => unreachable!("subq holds only IN/EXISTS conjuncts"),
            }
        }

        // Scalar-subquery conjuncts: each scalar stacks its Apply on the
        // frame's plan as the conjunct binds.
        let visible = cx.scope.cols.len();
        cx.plan = Some(plan);
        let mut scalar_filters = Vec::new();
        for c in scalarc {
            let bound = self.bind_local(c, &mut cx, "predicate combined with a scalar subquery")?;
            if bound.type_id() != TypeId::Bool {
                return Err(berr("WHERE predicate must be boolean"));
            }
            scalar_filters.push(bound);
        }
        let mut plan = cx.plan.take().expect("a bound scalar puts the plan back");

        for (_, p) in filters {
            if p.type_id() != TypeId::Bool {
                return Err(berr("WHERE predicate must be boolean"));
            }
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate: p };
        }
        for p in scalar_filters {
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate: p };
        }

        // Aggregation? Any HAVING groups the query, GROUP BY or not: with
        // none, the whole input is one group.
        let has_agg = !stmt.group_by.is_empty()
            || stmt.having.is_some()
            || stmt
                .items
                .iter()
                .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.any(is_agg)));

        let (mut plan, items_len, corr_out) = if has_agg {
            self.bind_aggregate_query(plan, &mut cx, stmt, &corr)?
        } else {
            self.bind_plain_projection(plan, &mut cx, stmt, visible, &corr)?
        };

        if stmt.distinct {
            plan = distinct(plan);
        }
        Ok((plan, items_len, corr_out))
    }

    fn resolve_order_key(&self, e: &Expr, out: &Schema) -> Result<usize> {
        match e {
            Expr::Lit(Value::I64(pos)) => {
                let p = *pos;
                if p >= 1 && (p as usize) <= out.len() {
                    Ok(p as usize - 1)
                } else {
                    Err(berr(format!("ORDER BY position {p} out of range")))
                }
            }
            Expr::Ident(parts) => {
                let name = parts.last().expect("nonempty identifier");
                out.index_of(name)
                    .ok_or_else(|| berr(format!("ORDER BY: unknown output column '{name}'")))
            }
            _ => Err(berr("ORDER BY supports output column names or positions")),
        }
    }

    /// Bind the projection of a non-aggregate query. `visible` caps how
    /// many scope columns `*` expands (scalar-subquery values ride
    /// behind); `corr` inner expressions are appended as extra output
    /// columns for the enclosing Apply.
    fn bind_plain_projection(
        &self,
        plan: LogicalPlan,
        cx: &mut Frame,
        stmt: &SelectStmt,
        visible: usize,
        corr: &[(PhysExpr, PhysExpr)],
    ) -> Result<BoundCore> {
        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    for (i, c) in cx.scope.cols.iter().take(visible).enumerate() {
                        exprs.push(PhysExpr::ColRef(i, c.ty));
                        fields.push(Field { name: c.name.clone(), ty: c.ty, nullable: c.nullable });
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_local(expr, cx, "SELECT item")?;
                    let name = alias.clone().unwrap_or_else(|| display_name(expr));
                    fields.push(Field { name, ty: bound.type_id(), nullable: true });
                    exprs.push(bound);
                }
            }
        }
        let items_len = exprs.len();
        let mut corr_out = Vec::new();
        for (k, (oe, ie)) in corr.iter().enumerate() {
            fields.push(Field { name: format!("__corr{k}"), ty: ie.type_id(), nullable: true });
            exprs.push(ie.clone());
            corr_out.push((oe.clone(), items_len + k));
        }
        let schema = Schema::unchecked(fields);
        let plan = LogicalPlan::Project { input: Box::new(plan), exprs, schema };
        Ok((plan, items_len, corr_out))
    }

    /// Bind an aggregating query. Correlation inner expressions join the
    /// GROUP BY list (that is what decorrelates Q2/Q17-style "aggregate
    /// per outer key" subqueries) and re-emerge behind the items in the
    /// final projection. HAVING and the items bind after aggregation.
    fn bind_aggregate_query<'s>(
        &self,
        plan: LogicalPlan,
        cx: &mut Frame<'s>,
        stmt: &'s SelectStmt,
        corr: &[(PhysExpr, PhysExpr)],
    ) -> Result<BoundCore> {
        // 1. Group expressions: user groups, then correlation columns.
        let mut group: Vec<PhysExpr> = Vec::new();
        let mut group_names: Vec<String> = Vec::new();
        for g in &stmt.group_by {
            let bound = self.bind_local(g, cx, "GROUP BY expression")?;
            if !group.contains(&bound) {
                group.push(bound);
                group_names.push(display_name(g));
            }
        }
        let mut corr_cols = Vec::new();
        for (k, (_, ie)) in corr.iter().enumerate() {
            let idx = match group.iter().position(|g| g == ie) {
                Some(i) => i,
                None => {
                    group.push(ie.clone());
                    group_names.push(format!("__corr{k}"));
                    group.len() - 1
                }
            };
            corr_cols.push((idx, ie.type_id()));
        }
        // 2. The aggregate calls of the items and HAVING, each bound once.
        let mut aggs: Vec<AggCall> = Vec::new();
        let mut calls = Vec::new();
        let items = stmt.items.iter().map(|item| match item {
            SelectItem::Expr { expr, .. } => Ok(expr),
            SelectItem::Wildcard => Err(berr("SELECT * cannot be combined with GROUP BY")),
        });
        for e in items.chain(stmt.having.iter().map(Ok)) {
            let mut found = Vec::new();
            e?.walk(&mut |x| {
                let agg = is_agg(x);
                if agg {
                    found.push(x);
                }
                !agg
            });
            for ast in found {
                let Expr::Func { name, args } = ast else { unreachable!("is_agg matched a call") };
                let call = self.bind_agg_call(name, args, cx)?;
                let idx = aggs.iter().position(|a| *a == call).unwrap_or_else(|| {
                    aggs.push(call);
                    aggs.len() - 1
                });
                calls.push((ast, group.len() + idx, aggs[idx].out_ty));
            }
        }
        if !corr.is_empty()
            && aggs.iter().any(|a| matches!(a.func, AggFunc::Count | AggFunc::CountStar))
        {
            // COUNT over an outer key with no matching rows must yield 0,
            // but the decorrelated left join yields NULL: no group exists.
            return Err(unsup(
                "correlated COUNT subquery (an empty group's count cannot decorrelate to a join)",
            ));
        }
        if group.is_empty() && aggs.is_empty() {
            // A HAVING-only query's one group needs a column to exist in:
            // a batch of no columns carries no rows.
            aggs.push(AggCall { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 });
        }
        // 3. The aggregate and its output schema.
        let mut agg_fields: Vec<Field> = Vec::new();
        for (g, name) in group.iter().zip(group_names) {
            agg_fields.push(Field { name, ty: g.type_id(), nullable: true });
        }
        for (i, a) in aggs.iter().enumerate() {
            agg_fields.push(Field { name: format!("__agg{i}"), ty: a.out_ty, nullable: true });
        }
        let mut plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group: group.clone(),
            aggs,
            schema: Schema::unchecked(agg_fields),
        };
        cx.grouped = Some(Grouped { asts: &stmt.group_by, group, calls });
        // 4. HAVING over the aggregate output; a scalar subquery in it
        // (Q11's threshold) stacks its Apply above the aggregate.
        if let Some(h) = &stmt.having {
            cx.plan = Some(plan);
            let bound = self.bind_expr(h, cx)?;
            plan = cx.plan.take().expect("a bound scalar puts the plan back");
            if bound.type_id() != TypeId::Bool {
                return Err(berr("HAVING must be boolean"));
            }
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate: bound };
        }
        // 5. Final projection: items, then correlation group columns.
        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        for item in &stmt.items {
            let SelectItem::Expr { expr, alias } = item else { unreachable!("rejected above") };
            let bound = self.bind_expr(expr, cx)?;
            let name = alias.clone().unwrap_or_else(|| display_name(expr));
            fields.push(Field { name, ty: bound.type_id(), nullable: true });
            exprs.push(bound);
        }
        let items_len = exprs.len();
        let mut corr_out = Vec::new();
        for (k, ((oe, _), (gidx, ty))) in corr.iter().zip(corr_cols).enumerate() {
            fields.push(Field { name: format!("__corr{k}"), ty, nullable: true });
            exprs.push(PhysExpr::ColRef(gidx, ty));
            corr_out.push((oe.clone(), items_len + k));
        }
        let schema = Schema::unchecked(fields);
        let plan = LogicalPlan::Project { input: Box::new(plan), exprs, schema };
        Ok((plan, items_len, corr_out))
    }

    fn bind_agg_call(&self, name: &str, args: &[Expr], cx: &mut Frame) -> Result<AggCall> {
        let func = match name {
            "COUNT" => {
                if args.len() == 1 && matches!(args[0], Expr::Wildcard) {
                    return Ok(AggCall {
                        func: AggFunc::CountStar,
                        input: None,
                        out_ty: TypeId::I64,
                    });
                }
                AggFunc::Count
            }
            "SUM" => AggFunc::Sum,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "AVG" => AggFunc::Avg,
            other => return Err(berr(format!("unknown aggregate {other}"))),
        };
        if args.len() != 1 {
            return Err(berr(format!("{name} takes exactly one argument")));
        }
        let input = self.bind_local(&args[0], cx, "aggregate argument")?;
        let ity = input.type_id();
        let (input, out_ty) = match func {
            AggFunc::Count => (input, TypeId::I64),
            AggFunc::Sum => {
                if ity == TypeId::F64 {
                    (input, TypeId::F64)
                } else if ity.is_integer() {
                    (cast_to(input, TypeId::I64), TypeId::I64)
                } else {
                    return Err(berr(format!("SUM over non-numeric type {ity}")));
                }
            }
            AggFunc::Avg => {
                if !ity.is_numeric() {
                    return Err(berr(format!("AVG over non-numeric type {ity}")));
                }
                (input, TypeId::F64)
            }
            AggFunc::Min | AggFunc::Max => (input, ity),
            AggFunc::CountStar => unreachable!(),
        };
        Ok(AggCall { func, input: Some(input), out_ty })
    }

    fn bind_table_ref(&self, tr: &TableRef) -> Result<(LogicalPlan, Scope)> {
        match tr {
            TableRef::Named { name, alias } => {
                // CTEs shadow base tables; innermost WITH wins.
                let cte = self
                    .ctes
                    .borrow()
                    .iter()
                    .rev()
                    .find(|(n, _)| n.eq_ignore_ascii_case(name))
                    .map(|(_, p)| p.clone());
                if let Some(p) = cte {
                    let qual = alias.clone().unwrap_or_else(|| name.clone());
                    let scope = Scope::from_schema(Some(&qual), p.schema());
                    return Ok((p, scope));
                }
                let schema = self
                    .catalog
                    .and_then(|c| c.table_schema(name))
                    .ok_or_else(|| VwError::Catalog(format!("unknown table '{name}'")))?;
                let qual = alias.clone().unwrap_or_else(|| name.clone());
                let scope = Scope::from_schema(Some(&qual), &schema);
                let plan = LogicalPlan::Scan {
                    table: name.clone(),
                    projection: (0..schema.len()).collect(),
                    schema,
                    hints: vec![],
                };
                Ok((plan, scope))
            }
            TableRef::Derived { query, alias } => {
                let (p, _) = self.bind_query(query)?;
                let scope = Scope::from_schema(Some(alias), p.schema());
                Ok((p, scope))
            }
            TableRef::Join { left, right, kind, on } => {
                let (lp, ls) = self.bind_table_ref(left)?;
                let (rp, rs) = self.bind_table_ref(right)?;
                let lwidth = ls.cols.len();
                let mut cx = Frame::new(ls.concat(rs));
                // Split the ON condition into equi-keys and residual.
                let mut keys = Vec::new();
                let mut residual = Vec::new();
                for c in split_conjuncts(on) {
                    let bound = self.bind_expr(c, &mut cx)?;
                    match split_eq(&bound, lwidth, cx.scope.cols.len(), false) {
                        Some(key) => keys.push(key),
                        None => residual.push(bound),
                    }
                }
                if keys.is_empty() {
                    return Err(berr("join requires at least one equality key (t.a = s.b)"));
                }
                let kind = match kind {
                    AstJoinKind::Inner => JoinKind::Inner,
                    AstJoinKind::Left => JoinKind::Left,
                };
                // Left join output: right side columns become nullable.
                let mut out_scope = cx.scope;
                if kind == JoinKind::Left {
                    for c in &mut out_scope.cols[lwidth..] {
                        c.nullable = true;
                    }
                }
                let mut plan = LogicalPlan::Join {
                    left: Box::new(lp),
                    right: Box::new(rp),
                    kind,
                    keys,
                    schema: out_scope.to_schema(),
                };
                for r in residual {
                    plan = LogicalPlan::Filter { input: Box::new(plan), predicate: r };
                }
                Ok((plan, out_scope))
            }
            TableRef::Cross(_) => {
                // Comma-lists only occur at the top of a FROM clause and
                // are joined by `bind_core` using the WHERE equalities.
                Err(berr("comma-joined tables outside a FROM clause (engine bug)"))
            }
        }
    }

    /// Bind `stmt` as a subquery of the frame `cx`: push the frame's
    /// columns as the innermost upper context, bind, pop.
    fn bind_subquery(
        &self,
        stmt: &SelectStmt,
        cx: &mut Frame,
    ) -> Result<(LogicalPlan, Vec<(PhysExpr, usize)>)> {
        self.upper.borrow_mut().push(std::mem::take(&mut cx.scope));
        let out = self.bind_query(stmt);
        cx.scope = self.upper.borrow_mut().pop().expect("pushed above");
        out
    }

    /// Run `f` with no upper context visible: FROM items and CTE
    /// definitions bind uncorrelated.
    fn uncorrelated<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let upper = self.upper.take();
        let out = f();
        *self.upper.borrow_mut() = upper;
        out
    }

    fn bind_in_subquery(
        &self,
        plan: LogicalPlan,
        cx: &mut Frame,
        expr: &Expr,
        subquery: &SelectStmt,
        negated: bool,
    ) -> Result<LogicalPlan> {
        let (sub, corr) = self.bind_subquery(subquery, cx)?;
        if sub.schema().len() - corr.len() != 1 {
            return Err(berr("IN subquery must return exactly one column"));
        }
        let left_key = self.bind_local(expr, cx, "IN probe value")?;
        if corr.is_empty() {
            // Uncorrelated: direct semi / NULL-aware anti join.
            let right_key = PhysExpr::ColRef(0, sub.schema().field(0).ty);
            let (left_key, right_key) = unify_key_types(left_key, right_key)?;
            let kind = if negated { JoinKind::NullAwareAnti } else { JoinKind::Semi };
            return Ok(LogicalPlan::Join {
                schema: plan.schema().clone(),
                left: Box::new(plan),
                right: Box::new(sub),
                kind,
                keys: vec![(left_key, right_key)],
            });
        }
        if negated {
            // The NULL-aware anti join would have to reason about NULLs
            // per correlation group; rewrite the query instead.
            return Err(unsup("correlated NOT IN subquery (rewrite as NOT EXISTS)"));
        }
        let mut keys = vec![apply_key(left_key, sub.schema(), 0)?];
        for (oe, idx) in &corr {
            keys.push(apply_key(oe.clone(), sub.schema(), *idx)?);
        }
        Ok(LogicalPlan::Apply {
            schema: plan.schema().clone(),
            input: Box::new(plan),
            subquery: Box::new(sub),
            kind: ApplyKind::In,
            keys,
        })
    }

    fn bind_exists(
        &self,
        plan: LogicalPlan,
        cx: &mut Frame,
        subquery: &SelectStmt,
        negated: bool,
    ) -> Result<LogicalPlan> {
        let (sub, corr) = self.bind_subquery(subquery, cx)?;
        if corr.is_empty() {
            // Uncorrelated EXISTS: semi/anti join on the constant key 1 = 1.
            let one = PhysExpr::Const(Value::I64(1), TypeId::I64);
            // Project the subquery down to the constant key.
            let sub_key = LogicalPlan::Project {
                schema: Schema::unchecked(vec![Field::not_null("__one", TypeId::I64)]),
                exprs: vec![one.clone()],
                input: Box::new(sub),
            };
            let kind = if negated { JoinKind::Anti } else { JoinKind::Semi };
            return Ok(LogicalPlan::Join {
                schema: plan.schema().clone(),
                left: Box::new(plan),
                right: Box::new(sub_key),
                kind,
                keys: vec![(one, PhysExpr::ColRef(0, TypeId::I64))],
            });
        }
        let keys = corr
            .iter()
            .map(|(oe, idx)| apply_key(oe.clone(), sub.schema(), *idx))
            .collect::<Result<Vec<_>>>()?;
        Ok(LogicalPlan::Apply {
            schema: plan.schema().clone(),
            input: Box::new(plan),
            subquery: Box::new(sub),
            kind: ApplyKind::Exists { negated },
            keys,
        })
    }

    /// A scalar subquery where the expression binder meets it: its Apply
    /// goes on the frame's plan, and the expression is the Apply's value
    /// column. In WHERE the value also joins the frame's scope, nameless,
    /// so later subqueries' outer keys index the Apply's output.
    fn bind_scalar(&self, sub: &SelectStmt, cx: &mut Frame) -> Result<PhysExpr> {
        let Some(input) = cx.plan.take() else {
            return Err(unsup(
                "scalar subquery in this position (supported in WHERE and HAVING conjuncts)",
            ));
        };
        let (sub_plan, corr) = self.bind_subquery(sub, cx)?;
        if sub_plan.schema().len() - corr.len() != 1 {
            return Err(berr("scalar subquery must return exactly one column"));
        }
        let value = sub_plan.schema().field(0).clone();
        let (sub_plan, keys) = if corr.is_empty() {
            if !at_most_one_row(&sub_plan) {
                return Err(unsup(
                    "uncorrelated scalar subquery without a single-row guarantee \
                     (use an aggregate without GROUP BY, or LIMIT 1)",
                ));
            }
            let one = PhysExpr::Const(Value::I64(1), TypeId::I64);
            let proj = LogicalPlan::Project {
                schema: Schema::unchecked(vec![
                    Field { name: "__sval".into(), ty: value.ty, nullable: true },
                    Field::not_null("__one", TypeId::I64),
                ]),
                exprs: vec![PhysExpr::ColRef(0, value.ty), one.clone()],
                input: Box::new(sub_plan),
            };
            (proj, vec![(one, 1)])
        } else if cx.grouped.is_some() {
            return Err(unsup(
                "correlated scalar subquery in HAVING (only WHERE scalar subqueries \
                 may correlate)",
            ));
        } else {
            if !corr_scalar_unique(&sub_plan, corr.len()) {
                return Err(unsup(
                    "correlated scalar subquery that is not a single aggregate grouped by \
                     its correlation keys (one value per outer row is not guaranteed)",
                ));
            }
            let keys = corr
                .iter()
                .map(|(oe, idx)| apply_key(oe.clone(), sub_plan.schema(), *idx))
                .collect::<Result<Vec<_>>>()?;
            (sub_plan, keys)
        };
        let col = input.schema().len();
        let mut fields = input.schema().fields.clone();
        fields.push(Field { name: value.name, ty: value.ty, nullable: true });
        cx.plan = Some(LogicalPlan::Apply {
            input: Box::new(input),
            subquery: Box::new(sub_plan),
            kind: ApplyKind::Scalar,
            keys,
            schema: Schema::unchecked(fields),
        });
        if cx.grouped.is_none() {
            let ty = value.ty;
            cx.scope.cols.push(ScopeCol {
                qualifier: None,
                name: String::new(),
                ty,
                nullable: true,
            });
        }
        Ok(PhysExpr::ColRef(col, value.ty))
    }

    /// Bind `e` in a position where only the query's own columns may
    /// appear; `what` names the position in the error.
    fn bind_local(&self, e: &Expr, cx: &mut Frame, what: &str) -> Result<PhysExpr> {
        let before = cx.outer_refs;
        let bound = self.bind_expr(e, cx)?;
        if cx.outer_refs > before {
            return Err(unsup(format!(
                "correlated {what} (outer references are only supported in WHERE equality conjuncts)"
            )));
        }
        Ok(bound)
    }

    /// Resolve a column name through the scope stack: the frame's own
    /// columns first, then each upper context, innermost first.
    fn resolve(&self, parts: &[String], scope: &Scope) -> Result<ColRef> {
        let upper = self.upper.borrow();
        for (depth, s) in std::iter::once(scope).chain(upper.iter().rev()).enumerate() {
            if let Some((index, ty)) = s.resolve_local(parts)? {
                return Ok(ColRef { depth, index, ty });
            }
        }
        Err(berr(format!("unknown column '{}'", parts.join("."))))
    }

    /// After aggregation, the output column `e` is when it is an aggregate
    /// call or a GROUP BY expression (a bare column must be one).
    fn output_col(&self, e: &Expr, cx: &mut Frame) -> Result<Option<PhysExpr>> {
        let Some(g) = &cx.grouped else { return Ok(None) };
        if is_agg(e) {
            let &(_, col, ty) = g
                .calls
                .iter()
                .find(|(c, ..)| *c == e)
                .ok_or_else(|| berr("aggregate not collected (engine bug)"))?;
            return Ok(Some(PhysExpr::ColRef(col, ty)));
        }
        if !matches!(e, Expr::Ident(_)) && !g.asts.contains(e) {
            return Ok(None);
        }
        let grouped = cx.grouped.take();
        let bound = self.bind_expr(e, cx);
        cx.grouped = grouped;
        let bound = bound?;
        let group = &cx.grouped.as_ref().expect("restored above").group;
        match group.iter().position(|g| *g == bound) {
            Some(idx) => Ok(Some(PhysExpr::ColRef(idx, bound.type_id()))),
            None => match e {
                Expr::Ident(parts) => Err(berr(format!(
                    "column {} must appear in GROUP BY or inside an aggregate",
                    parts.join(".")
                ))),
                _ => Ok(None),
            },
        }
    }

    /// Bind a scalar expression in the frame `cx`.
    fn bind_expr(&self, e: &Expr, cx: &mut Frame) -> Result<PhysExpr> {
        if let Some(col) = self.output_col(e, cx)? {
            return Ok(col);
        }
        match e {
            Expr::Ident(parts) => {
                let r = self.resolve(parts, &cx.scope)?;
                match r.depth {
                    0 => Ok(PhysExpr::ColRef(r.index, r.ty)),
                    1 => {
                        // Past the frame's columns: `correlation_key`
                        // splits at that boundary.
                        cx.outer_refs += 1;
                        Ok(PhysExpr::ColRef(cx.scope.cols.len() + r.index, r.ty))
                    }
                    _ => Err(unsup(format!(
                        "correlated reference to a query two or more levels up ('{}')",
                        parts.join(".")
                    ))),
                }
            }
            Expr::Lit(v) => Ok(PhysExpr::Const(v.clone(), v.type_id().unwrap_or(TypeId::I64))),
            Expr::Binary { op, left, right } => {
                if let Some(e) = self.try_interval_arith(*op, left, right, cx)? {
                    return Ok(e);
                }
                let l = self.bind_expr(left, cx)?;
                let r = self.bind_expr(right, cx)?;
                combine_binary(*op, l, r)
            }
            Expr::Neg(x) => negate(self.bind_expr(x, cx)?),
            Expr::Not(x) => Ok(PhysExpr::Not(Box::new(self.bind_expr(x, cx)?))),
            Expr::Cast { expr, ty } => Ok(cast_to(self.bind_expr(expr, cx)?, *ty)),
            Expr::IsNull { expr, negated } => {
                let b = self.bind_expr(expr, cx)?;
                Ok(if *negated {
                    PhysExpr::IsNotNull(Box::new(b))
                } else {
                    PhysExpr::IsNull(Box::new(b))
                })
            }
            Expr::Between { expr, low, high, negated } => {
                // BETWEEN expands here (a rewrite the paper would do in the
                // rewriter; it is pure syntax, so the binder handles it).
                let x = self.bind_expr(expr, cx)?;
                let lo = self.bind_expr(low, cx)?;
                let hi = self.bind_expr(high, cx)?;
                let ge = combine_binary(ast::BinaryOp::Ge, x.clone(), lo)?;
                let le = combine_binary(ast::BinaryOp::Le, x, hi)?;
                let both = PhysExpr::And(vec![ge, le]);
                Ok(if *negated { PhysExpr::Not(Box::new(both)) } else { both })
            }
            Expr::Like { expr, pattern, negated } => {
                let input = self.bind_expr(expr, cx)?;
                if input.type_id() != TypeId::Str {
                    return Err(berr("LIKE requires a string input"));
                }
                Ok(PhysExpr::Like {
                    input: Box::new(input),
                    pattern: pattern.clone(),
                    negated: *negated,
                })
            }
            Expr::InList { expr, list, negated } => {
                let input = self.bind_expr(expr, cx)?;
                let list = list.iter().map(|m| self.bind_expr(m, cx)).collect::<Result<_>>()?;
                functions::in_list(input, list, *negated)
            }
            Expr::InSubquery { .. } | Expr::Exists { .. } => {
                Err(berr("subqueries are only supported as top-level WHERE conjuncts"))
            }
            Expr::Case { branches, else_expr } => {
                let mut bs = Vec::new();
                for (c, v) in branches {
                    bs.push((self.bind_expr(c, cx)?, self.bind_expr(v, cx)?));
                }
                let el = match else_expr {
                    Some(x) => Some(Box::new(self.bind_expr(x, cx)?)),
                    None => None,
                };
                build_case(bs, el)
            }
            Expr::Func { name, args } => {
                let bound: Vec<PhysExpr> =
                    args.iter().map(|a| self.bind_expr(a, cx)).collect::<Result<_>>()?;
                functions::bind(name, bound)
            }
            Expr::Wildcard => Err(berr("'*' only valid in COUNT(*)")),
            Expr::Extract { field, expr } => {
                let f = DateField::parse(field)
                    .ok_or_else(|| berr(format!("unknown EXTRACT field {field}")))?;
                let d = self.bind_expr(expr, cx)?;
                if d.type_id() != TypeId::Date {
                    return Err(berr("EXTRACT requires a DATE input"));
                }
                Ok(PhysExpr::FuncCall {
                    func: Func::Extract,
                    args: vec![
                        d,
                        PhysExpr::Const(Value::I64(vw_exec::expr::encode_field(f)), TypeId::I64),
                    ],
                    ty: TypeId::I64,
                })
            }
            Expr::Scalar(sub) => self.bind_scalar(sub, cx),
            Expr::Interval { .. } => {
                Err(berr("INTERVAL is only valid in date ± INTERVAL arithmetic"))
            }
        }
    }

    /// Lower `date ± INTERVAL 'n' unit` (and `INTERVAL + date`) to date
    /// arithmetic. Returns `Ok(None)` when the operands are not that shape.
    fn try_interval_arith(
        &self,
        op: ast::BinaryOp,
        left: &Expr,
        right: &Expr,
        cx: &mut Frame,
    ) -> Result<Option<PhysExpr>> {
        use ast::BinaryOp as B;
        let (date_ast, n, unit) = match (left, right, op) {
            (d, Expr::Interval { n, unit }, B::Add | B::Sub) => (d, *n, *unit),
            (Expr::Interval { n, unit }, d, B::Add) => (d, *n, *unit),
            _ => return Ok(None),
        };
        let d = self.bind_expr(date_ast, cx)?;
        if d.type_id() != TypeId::Date {
            return Err(berr("INTERVAL arithmetic requires a DATE operand"));
        }
        let n = if op == B::Sub { -n } else { n };
        let months = match unit {
            IntervalUnit::Day => None,
            IntervalUnit::Month => Some(n),
            IntervalUnit::Year => Some(n * 12),
        };
        // Fold literal dates at bind time so MinMax hints and goldens see
        // plain date literals.
        if let PhysExpr::Const(Value::Date(dt), _) = &d {
            let out = match months {
                None => {
                    let delta =
                        i32::try_from(n).map_err(|_| berr("INTERVAL magnitude overflows"))?;
                    dt.0.checked_add(delta).ok_or_else(|| berr("date out of range"))?
                }
                Some(m) => {
                    let m = i32::try_from(m).map_err(|_| berr("INTERVAL magnitude overflows"))?;
                    add_months(dt.0, m)?
                }
            };
            return Ok(Some(PhysExpr::Const(Value::Date(Date(out)), TypeId::Date)));
        }
        let (func, arg) = match months {
            None => (Func::DateAddDays, n),
            Some(m) => (Func::DateAddMonths, m),
        };
        Ok(Some(PhysExpr::FuncCall {
            func,
            args: vec![d, PhysExpr::Const(Value::I64(arg), TypeId::I64)],
            ty: TypeId::Date,
        }))
    }
}

/// Bind an expression against a bare schema: a DML statement's expression
/// over its table's columns. It reads no catalog — a subquery here is a
/// typed error.
pub fn bind_expr_on_schema(e: &Expr, schema: &Schema) -> Result<PhysExpr> {
    let binder = Binder { catalog: None, ctes: RefCell::default(), upper: RefCell::default() };
    binder.bind_expr(e, &mut Frame::new(Scope::from_schema(None, schema)))
}

fn split_conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary { op: ast::BinaryOp::And, left, right } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other],
    }
}

fn display_name(e: &Expr) -> String {
    match e {
        Expr::Ident(parts) => parts.last().cloned().unwrap_or_else(|| "?column?".into()),
        Expr::Func { name, .. } => name.to_ascii_lowercase(),
        _ => "?column?".into(),
    }
}

/// `e` as `ty`: unchanged when it has that type, a NULL literal retyped,
/// anything else under a cast.
pub(crate) fn cast_to(e: PhysExpr, ty: TypeId) -> PhysExpr {
    if e.type_id() == ty {
        e
    } else if matches!(&e, PhysExpr::Const(v, _) if v.is_null()) {
        // NULL literals retype for free.
        PhysExpr::Const(Value::Null, ty)
    } else {
        PhysExpr::Cast { input: Box::new(e), to: ty }
    }
}

/// Combine two set-operation operands, unifying their schemas: widths
/// must match, column types promote pairwise (casting a side through a
/// projection when needed), and the left operand's column names win.
///
/// Every set operation lowers onto [`LogicalPlan::UnionAll`] and the hash
/// aggregate, so duplicates are the aggregate's groups: NULLs group
/// together and every other value by the key equality of every hash
/// operator. UNION is [`distinct`] over the concatenation. INTERSECT and
/// EXCEPT tag each row with its side (0 left, 1 right), group by every
/// column and keep a group by its tags' MIN and MAX: both sides present
/// (`MIN < MAX`), or the left side only (`MAX = 0`).
fn make_setop(kind: ast::SetOpKind, left: LogicalPlan, right: LogicalPlan) -> Result<LogicalPlan> {
    let (lw, rw) = (left.schema().len(), right.schema().len());
    if lw != rw {
        return Err(berr(format!("set operation operands have {lw} vs {rw} columns")));
    }
    let mut fields = Vec::with_capacity(lw);
    for (lf, rf) in left.schema().fields.iter().zip(&right.schema().fields) {
        let ty = TypeId::promote(lf.ty, rf.ty).ok_or_else(|| {
            berr(format!(
                "set operation column {} has incompatible types {} and {}",
                lf.name, lf.ty, rf.ty
            ))
        })?;
        fields.push(Field { name: lf.name.clone(), ty, nullable: lf.nullable || rf.nullable });
    }
    let schema = Schema::unchecked(fields);
    if matches!(kind, ast::SetOpKind::UnionAll | ast::SetOpKind::Union) {
        let inputs = vec![cast_input(left, &schema, None), cast_input(right, &schema, None)];
        let all = LogicalPlan::UnionAll { inputs, schema };
        return Ok(if kind == ast::SetOpKind::Union { distinct(all) } else { all });
    }
    let mut tagged = schema.clone();
    tagged.fields.push(Field::not_null("tag", TypeId::I64));
    let inputs = vec![cast_input(left, &tagged, Some(0)), cast_input(right, &tagged, Some(1))];
    let tag = PhysExpr::ColRef(lw, TypeId::I64);
    let call = |func| AggCall { func, input: Some(tag.clone()), out_ty: TypeId::I64 };
    let mut agg_schema = schema.clone();
    agg_schema.fields.push(Field::nullable("tag_min", TypeId::I64));
    agg_schema.fields.push(Field::nullable("tag_max", TypeId::I64));
    let grouped = LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::UnionAll { inputs, schema: tagged }),
        group: columns(&schema),
        aggs: vec![call(AggFunc::Min), call(AggFunc::Max)],
        schema: agg_schema,
    };
    let (min, max) = (PhysExpr::ColRef(lw, TypeId::I64), PhysExpr::ColRef(lw + 1, TypeId::I64));
    let predicate = if kind == ast::SetOpKind::Intersect {
        PhysExpr::Cmp { op: CmpOp::Lt, lhs: Box::new(min), rhs: Box::new(max) }
    } else {
        let left_only = PhysExpr::Const(Value::I64(0), TypeId::I64);
        PhysExpr::Cmp { op: CmpOp::Eq, lhs: Box::new(max), rhs: Box::new(left_only) }
    };
    let kept = LogicalPlan::Filter { input: Box::new(grouped), predicate };
    Ok(LogicalPlan::Project { input: Box::new(kept), exprs: columns(&schema), schema })
}

/// `input` with its duplicate rows removed: an aggregate grouping by every
/// column and computing nothing.
fn distinct(input: LogicalPlan) -> LogicalPlan {
    let schema = input.schema().clone();
    LogicalPlan::Aggregate { group: columns(&schema), aggs: vec![], input: Box::new(input), schema }
}

/// A reference to every column of `schema`, in order.
fn columns(schema: &Schema) -> Vec<PhysExpr> {
    schema.fields.iter().enumerate().map(|(i, f)| PhysExpr::ColRef(i, f.ty)).collect()
}

/// `input` under `target`'s names and types: its columns cast where the
/// types differ, then `tag` as a constant last column when one is given,
/// composed onto `input`'s own projection when it ends in one. With
/// nothing to cast or tag, `input` itself.
fn cast_input(input: LogicalPlan, target: &Schema, tag: Option<i64>) -> LogicalPlan {
    let from = &input.schema().fields;
    if tag.is_none() && from.iter().zip(&target.fields).all(|(f, t)| f.ty == t.ty) {
        return input;
    }
    let (input, exprs) = match input {
        LogicalPlan::Project { input, exprs, .. } => (*input, exprs),
        other => {
            let exprs = columns(other.schema());
            (other, exprs)
        }
    };
    let mut exprs: Vec<PhysExpr> =
        exprs.into_iter().zip(&target.fields).map(|(e, t)| cast_to(e, t.ty)).collect();
    exprs.extend(tag.map(|t| PhysExpr::Const(Value::I64(t), TypeId::I64)));
    LogicalPlan::Project { schema: target.clone(), exprs, input: Box::new(input) }
}

fn unify_key_types(l: PhysExpr, r: PhysExpr) -> Result<(PhysExpr, PhysExpr)> {
    let ty = TypeId::promote(l.type_id(), r.type_id()).ok_or_else(|| {
        berr(format!("join/IN key types {} and {} are incompatible", l.type_id(), r.type_id()))
    })?;
    Ok((cast_to(l, ty), cast_to(r, ty)))
}

fn negate(e: PhysExpr) -> Result<PhysExpr> {
    let ty = e.type_id();
    if !ty.is_numeric() {
        return Err(berr(format!("cannot negate {ty}")));
    }
    let zero = if ty == TypeId::F64 {
        PhysExpr::Const(Value::F64(0.0), TypeId::F64)
    } else {
        PhysExpr::Const(Value::I64(0), TypeId::I64)
    };
    combine_binary(ast::BinaryOp::Sub, zero, e)
}

fn build_case(
    branches: Vec<(PhysExpr, PhysExpr)>,
    else_expr: Option<Box<PhysExpr>>,
) -> Result<PhysExpr> {
    let mut ty = branches
        .first()
        .map(|(_, v)| v.type_id())
        .ok_or_else(|| berr("CASE needs at least one WHEN"))?;
    for (c, v) in &branches {
        if c.type_id() != TypeId::Bool {
            return Err(berr("CASE WHEN condition must be boolean"));
        }
        ty = TypeId::promote(ty, v.type_id())
            .ok_or_else(|| berr("CASE branches have incompatible types"))?;
    }
    if let Some(e) = &else_expr {
        ty = TypeId::promote(ty, e.type_id())
            .ok_or_else(|| berr("CASE ELSE has incompatible type"))?;
    }
    let branches = branches.into_iter().map(|(c, v)| (c, cast_to(v, ty))).collect();
    let else_expr = else_expr.map(|e| Box::new(cast_to(*e, ty)));
    Ok(PhysExpr::Case { branches, else_expr, ty })
}

/// Combine a binary AST operator over two bound operands, inserting
/// promotions/casts and lowering date arithmetic to kernel functions.
pub fn combine_binary(op: ast::BinaryOp, l: PhysExpr, r: PhysExpr) -> Result<PhysExpr> {
    use ast::BinaryOp as B;
    let (lt, rt) = (l.type_id(), r.type_id());
    match op {
        B::And => Ok(PhysExpr::And(vec![l, r])),
        B::Or => Ok(PhysExpr::Or(vec![l, r])),
        B::Eq | B::Ne | B::Lt | B::Le | B::Gt | B::Ge => {
            let cmp = match op {
                B::Eq => CmpOp::Eq,
                B::Ne => CmpOp::Ne,
                B::Lt => CmpOp::Lt,
                B::Le => CmpOp::Le,
                B::Gt => CmpOp::Gt,
                B::Ge => CmpOp::Ge,
                _ => unreachable!(),
            };
            // NULL literals are type-flexible: adopt the other side's type.
            let ty = if matches!(&l, PhysExpr::Const(v, _) if v.is_null()) {
                rt
            } else if matches!(&r, PhysExpr::Const(v, _) if v.is_null()) {
                lt
            } else {
                TypeId::promote(lt, rt)
                    .ok_or_else(|| berr(format!("cannot compare {lt} with {rt}")))?
            };
            Ok(PhysExpr::Cmp {
                op: cmp,
                lhs: Box::new(cast_to(l, ty)),
                rhs: Box::new(cast_to(r, ty)),
            })
        }
        B::Add | B::Sub | B::Mul | B::Div | B::Rem => {
            // Date arithmetic lowers to kernel date functions.
            if lt == TypeId::Date && rt.is_integer() && matches!(op, B::Add | B::Sub) {
                let days = if op == B::Sub {
                    negate(cast_to(r, TypeId::I64))?
                } else {
                    cast_to(r, TypeId::I64)
                };
                return Ok(PhysExpr::FuncCall {
                    func: Func::DateAddDays,
                    args: vec![l, days],
                    ty: TypeId::Date,
                });
            }
            if lt == TypeId::Date && rt == TypeId::Date && op == B::Sub {
                return Ok(PhysExpr::FuncCall {
                    func: Func::DateDiffDays,
                    args: vec![l, r],
                    ty: TypeId::I64,
                });
            }
            if !lt.is_numeric() || !rt.is_numeric() {
                return Err(berr(format!("arithmetic on {lt} and {rt}")));
            }
            let target =
                if lt == TypeId::F64 || rt == TypeId::F64 { TypeId::F64 } else { TypeId::I64 };
            let bop = match op {
                B::Add => BinOp::Add,
                B::Sub => BinOp::Sub,
                B::Mul => BinOp::Mul,
                B::Div => BinOp::Div,
                B::Rem => BinOp::Rem,
                _ => unreachable!(),
            };
            Ok(PhysExpr::Arith {
                op: bop,
                lhs: Box::new(cast_to(l, target)),
                rhs: Box::new(cast_to(r, target)),
                ty: target,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    struct MockCatalog;

    impl CatalogView for MockCatalog {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            match name {
                "t" => Some(
                    Schema::new(vec![
                        Field::not_null("id", TypeId::I64),
                        Field::nullable("qty", TypeId::I32),
                        Field::nullable("name", TypeId::Str),
                        Field::nullable("d", TypeId::Date),
                    ])
                    .unwrap(),
                ),
                "s" => Some(
                    Schema::new(vec![
                        Field::not_null("id", TypeId::I64),
                        Field::nullable("v", TypeId::F64),
                    ])
                    .unwrap(),
                ),
                _ => None,
            }
        }

        fn table_rows(&self, _name: &str) -> Option<u64> {
            Some(1000)
        }
    }

    fn bind(sql: &str) -> Result<LogicalPlan> {
        let stmts = parse(sql)?;
        let ast::Statement::Select(s) = &stmts[0] else { panic!("not a select") };
        Binder::new(&MockCatalog).bind_select(s)
    }

    fn explain(plan: &LogicalPlan) -> String {
        crate::optimizer::explain_with_estimates(plan, &MockCatalog, &|_| String::new())
    }

    #[test]
    fn simple_select() {
        let p = bind("SELECT id, qty + 1 FROM t WHERE qty > 5").unwrap();
        let text = explain(&p);
        assert!(text.contains("Project"));
        assert!(text.contains("Select"));
        assert!(text.contains("Scan t"));
        assert_eq!(p.schema().len(), 2);
        // qty+1 is promoted to I64.
        assert_eq!(p.schema().field(1).ty, TypeId::I64);
    }

    #[test]
    fn wildcard_expands() {
        let p = bind("SELECT * FROM t").unwrap();
        assert_eq!(p.schema().len(), 4);
        assert_eq!(p.schema().field(2).name, "name");
    }

    #[test]
    fn unknown_names_error() {
        assert!(matches!(bind("SELECT nope FROM t"), Err(VwError::Bind(_))));
        assert!(matches!(bind("SELECT id FROM missing"), Err(VwError::Catalog(_))));
        assert!(matches!(bind("SELECT NOSUCHFN(id) FROM t"), Err(VwError::Bind(_))));
    }

    #[test]
    fn type_errors_detected() {
        assert!(bind("SELECT name + 1 FROM t").is_err());
        assert!(bind("SELECT id FROM t WHERE name > 5").is_err());
        assert!(bind("SELECT UPPER(id) FROM t").is_err());
    }

    #[test]
    fn aggregate_binding() {
        let p = bind("SELECT name, SUM(qty), COUNT(*) FROM t GROUP BY name HAVING SUM(qty) > 10")
            .unwrap();
        let text = explain(&p);
        assert!(text.contains("Aggr groups=1 aggs=2"));
        assert!(text.contains("Select")); // HAVING
        assert_eq!(p.schema().field(1).ty, TypeId::I64);
    }

    #[test]
    fn agg_with_expression_over_aggs() {
        let p = bind("SELECT SUM(qty) / COUNT(*) FROM t").unwrap();
        assert_eq!(p.schema().len(), 1);
        assert_eq!(p.schema().field(0).ty, TypeId::I64);
    }

    #[test]
    fn ungrouped_column_rejected() {
        assert!(bind("SELECT id, SUM(qty) FROM t GROUP BY name").is_err());
    }

    #[test]
    fn join_binding_and_left_nullability() {
        let p = bind("SELECT t.id, s.v FROM t LEFT JOIN s ON t.id = s.id").unwrap();
        let text = explain(&p);
        assert!(text.contains("HashJoin Left"));
        assert_eq!(p.schema().len(), 2);
    }

    #[test]
    fn join_requires_equality() {
        assert!(bind("SELECT t.id FROM t JOIN s ON t.id < s.id").is_err());
    }

    #[test]
    fn in_subquery_becomes_semi_join() {
        let p = bind("SELECT id FROM t WHERE id IN (SELECT id FROM s)").unwrap();
        assert!(explain(&p).contains("HashJoin Semi"));
        let p = bind("SELECT id FROM t WHERE id NOT IN (SELECT id FROM s)").unwrap();
        assert!(explain(&p).contains("HashJoin NullAwareAnti"));
    }

    #[test]
    fn exists_becomes_semi_join_on_const() {
        let p = bind("SELECT id FROM t WHERE EXISTS (SELECT id FROM s)").unwrap();
        assert!(explain(&p).contains("HashJoin Semi"));
        let p = bind("SELECT id FROM t WHERE NOT EXISTS (SELECT id FROM s)").unwrap();
        assert!(explain(&p).contains("HashJoin Anti"));
    }

    #[test]
    fn order_by_and_limit() {
        let p = bind("SELECT id, qty FROM t ORDER BY qty DESC, 1 ASC LIMIT 5 OFFSET 2").unwrap();
        let text = explain(&p);
        assert!(text.contains("Limit 5 offset 2"));
        assert!(text.contains("Sort keys=[(1, false, true), (0, true, false)]"));
    }

    #[test]
    fn date_arith_lowered() {
        let p = bind("SELECT d + 30, d - DATE '1996-01-01' FROM t").unwrap();
        assert_eq!(p.schema().field(0).ty, TypeId::Date);
        assert_eq!(p.schema().field(1).ty, TypeId::I64);
    }

    #[test]
    fn between_and_extract() {
        let p = bind("SELECT EXTRACT(YEAR FROM d) FROM t WHERE qty BETWEEN 1 AND 10").unwrap();
        assert_eq!(p.schema().field(0).ty, TypeId::I64);
    }

    /// The first SELECT-list expression of `sql`, as bound.
    fn first_expr(sql: &str) -> PhysExpr {
        let LogicalPlan::Project { mut exprs, .. } = bind(sql).unwrap() else { panic!("{sql}") };
        exprs.swap_remove(0)
    }

    fn nodes(e: &PhysExpr) -> usize {
        1 + e.children().into_iter().map(nodes).sum::<usize>()
    }

    #[test]
    fn functions_without_a_kernel_primitive_bind_to_case_trees() {
        // COALESCE(a, b, c): one IS NOT NULL arm per argument but the last.
        let e = first_expr("SELECT COALESCE(qty, id, 0) FROM t");
        let PhysExpr::Case { branches, else_expr, ty } = &e else { panic!("{e:?}") };
        assert_eq!((branches.len(), *ty), (2, TypeId::I64));
        assert!(matches!(branches[0].0, PhysExpr::IsNotNull(_)));
        assert!(else_expr.is_some());
        for sql in [
            "SELECT NULLIF(id, 5) FROM t",
            "SELECT IFNULL(qty, 5) FROM t",
            "SELECT NVL(qty, 5) FROM t",
            "SELECT GREATEST(id, qty, 3) FROM t",
            "SELECT LEAST(id, qty) FROM t",
            "SELECT SIGN(qty) FROM t",
        ] {
            assert!(matches!(first_expr(sql), PhysExpr::Case { .. }), "{sql}");
        }
        // One argument is the argument itself.
        assert_eq!(first_expr("SELECT COALESCE(qty) FROM t"), PhysExpr::ColRef(1, TypeId::I32));
        assert!(matches!(bind("SELECT COALESCE(name, 1) FROM t"), Err(VwError::Bind(_))));
        assert!(matches!(bind("SELECT SIGN(name) FROM t"), Err(VwError::Bind(_))));
    }

    #[test]
    fn greatest_and_least_grow_quadratically_within_the_arity_cap() {
        let args = |n: usize| vec!["qty"; n].join(", ");
        let size = |n: usize| nodes(&first_expr(&format!("SELECT GREATEST({}) FROM t", args(n))));
        // n - 1 arms of at most n tests each (a doubling expansion builds
        // about 2^n nodes: over 1 000 at n = 8).
        for n in 2..=8 {
            assert!(size(n) <= 8 * n * n, "GREATEST of {n}: {} nodes", size(n));
        }
        assert!(bind(&format!("SELECT LEAST({}) FROM t", args(9))).is_err());
    }

    #[test]
    fn in_lists_bind_to_or_chains() {
        let e = first_expr("SELECT qty IN (1, 2, 3) FROM t");
        let PhysExpr::Or(parts) = &e else { panic!("{e:?}") };
        assert_eq!(parts.len(), 3);
        // The I32 column and the BIGINT members meet at BIGINT.
        let PhysExpr::Cmp { op: CmpOp::Eq, lhs, .. } = &parts[0] else { panic!("{e:?}") };
        assert_eq!(lhs.type_id(), TypeId::I64);
        let e = first_expr("SELECT qty NOT IN (1) FROM t");
        assert!(matches!(&e, PhysExpr::Not(x) if matches!(**x, PhysExpr::Or(_))), "{e:?}");
        assert!(matches!(bind("SELECT id FROM t WHERE name IN (1, 2)"), Err(VwError::Bind(_))));
    }

    #[test]
    fn a_null_member_takes_the_in_lists_type() {
        for sql in [
            "SELECT id FROM t WHERE name NOT IN ('x', NULL)",
            "SELECT id FROM t WHERE d IN (DATE '1995-01-01', NULL)",
            "SELECT id FROM t WHERE NULL IN (name, 'y')",
        ] {
            let p = bind(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let LogicalPlan::Project { input, .. } = &p else { panic!("{sql}") };
            let LogicalPlan::Filter { predicate, .. } = input.as_ref() else { panic!("{sql}") };
            let mut lits = Vec::new();
            fn walk(e: &PhysExpr, out: &mut Vec<TypeId>) {
                if let PhysExpr::Const(Value::Null, ty) = e {
                    out.push(*ty);
                }
                e.children().into_iter().for_each(|c| walk(c, out));
            }
            walk(predicate, &mut lits);
            assert!(!lits.is_empty(), "{sql}");
            assert!(!lits.contains(&TypeId::I64), "{sql}: a NULL operand was not retyped");
        }
    }

    #[test]
    fn select_without_from() {
        let p = bind("SELECT 1 + 2, 'x'").unwrap();
        assert_eq!(p.schema().len(), 2);
    }

    #[test]
    fn in_list_binds_with_promotion() {
        let p = bind("SELECT id FROM t WHERE qty IN (1, 2, 3)").unwrap();
        assert!(explain(&p).contains("Select"));
    }
}
