//! The logical plan — the workspace's "X100 algebra".

use vw_common::{Schema, TypeId, Value};
// Plans carry the kernel's own expression tree and aggregate functions;
// crates that build plans use them from here.
pub use vw_exec::expr::{BinOp, CmpOp, PhysExpr};
pub use vw_exec::op::AggFunc;

/// Join kinds at the plan level (cross-compiled to `vw_exec::op::JoinType`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner equi-join.
    Inner,
    /// Left outer join.
    Left,
    /// Left semi join (IN / EXISTS).
    Semi,
    /// Left anti join (NOT EXISTS).
    Anti,
    /// NULL-aware left anti join (NOT IN).
    NullAwareAnti,
}

/// What a correlated-subquery [`Apply`](LogicalPlan::Apply) computes. The
/// binder emits Apply nodes for correlated subqueries (and scalar
/// subqueries); the optimizer's decorrelation pass lowers every one to a
/// hash join before compilation — compile rejects surviving Apply nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyKind {
    /// `x IN (SELECT v ...)` with correlation: key 0 is the IN value,
    /// the rest are correlation equalities. Lowers to a semi join.
    In,
    /// `[NOT] EXISTS (SELECT ...)`: keys are correlation equalities.
    /// Lowers to a semi (or anti) join.
    Exists {
        /// NOT EXISTS?
        negated: bool,
    },
    /// Scalar subquery used as a value: subquery output column 0 is the
    /// value, keys match correlation (or a constant for the uncorrelated
    /// single-row case). Lowers to a left outer join + projection that
    /// appends the value column to the input.
    Scalar,
}

/// One bound aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input expression (None for COUNT(*)).
    pub input: Option<PhysExpr>,
    /// Output type.
    pub out_ty: TypeId,
}

/// A per-column MinMax hint the optimizer pushed down to a scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanHint {
    /// Column index in the *base table* schema.
    pub col: usize,
    /// Lower bound (inclusive).
    pub lo: Option<Value>,
    /// Upper bound (inclusive).
    pub hi: Option<Value>,
}

/// The logical/algebraic plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table scan.
    Scan {
        /// Table name (resolved by the executor against the catalog).
        table: String,
        /// Projected base-table column indices.
        projection: Vec<usize>,
        /// Output schema (projected).
        schema: Schema,
        /// MinMax pruning hints (in base-table column indices).
        hints: Vec<ScanHint>,
    },
    /// Filter.
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Predicate over the input's columns.
        predicate: PhysExpr,
    },
    /// Projection / computation.
    Project {
        /// Input.
        input: Box<LogicalPlan>,
        /// Output expressions.
        exprs: Vec<PhysExpr>,
        /// Output schema (names + types for `exprs`).
        schema: Schema,
    },
    /// Equi-join.
    Join {
        /// Probe side.
        left: Box<LogicalPlan>,
        /// Build side.
        right: Box<LogicalPlan>,
        /// Kind.
        kind: JoinKind,
        /// Key pairs (left expr over left schema, right expr over right).
        keys: Vec<(PhysExpr, PhysExpr)>,
        /// Output schema.
        schema: Schema,
    },
    /// Grouping + aggregation.
    Aggregate {
        /// Input.
        input: Box<LogicalPlan>,
        /// Group-by expressions over the input.
        group: Vec<PhysExpr>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// Output schema: group columns then aggregates.
        schema: Schema,
    },
    /// Sort by output column indices.
    Sort {
        /// Input.
        input: Box<LogicalPlan>,
        /// (column, ascending, nulls_first).
        keys: Vec<(usize, bool, bool)>,
    },
    /// LIMIT/OFFSET.
    Limit {
        /// Input.
        input: Box<LogicalPlan>,
        /// Rows to skip.
        offset: u64,
        /// Max rows to return (u64::MAX = unbounded).
        limit: u64,
    },
    /// Concatenation of schema-unified inputs, duplicates kept. The
    /// binder lowers every other set operation onto it and an
    /// [`Aggregate`](LogicalPlan::Aggregate) (see `binder::make_setop`).
    UnionAll {
        /// Operands, all of the output schema's width and types.
        inputs: Vec<LogicalPlan>,
        /// Output schema (left operand's names, promoted types).
        schema: Schema,
    },
    /// Correlated/scalar subquery awaiting decorrelation (binder-emitted,
    /// lowered to a join by `optimizer::decorrelate`, rejected by compile).
    Apply {
        /// Outer input.
        input: Box<LogicalPlan>,
        /// Subquery plan; for [`ApplyKind::Scalar`] column 0 is the value
        /// and the correlation columns follow, for In/Exists the value
        /// (if any) comes first and correlation columns follow.
        subquery: Box<LogicalPlan>,
        /// What this Apply computes.
        kind: ApplyKind,
        /// (outer-side expression, subquery output column) equality pairs.
        keys: Vec<(PhysExpr, usize)>,
        /// Output schema: the input's (plus the value column for Scalar).
        schema: Schema,
    },
    /// Literal rows.
    Values {
        /// Schema.
        schema: Schema,
        /// Rows.
        rows: Vec<Vec<Value>>,
    },
    /// Marker inserted by the rewriter: execute `input` with `dop`-way
    /// Volcano-style parallelism (Xchg). `partial_agg` records whether the
    /// rewriter already split an aggregation into partial/final.
    Exchange {
        /// The partitioned fragment.
        input: Box<LogicalPlan>,
        /// Degree of parallelism.
        dop: usize,
    },
}

impl LogicalPlan {
    /// The plan's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. } => schema,
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { schema, .. } => schema,
            LogicalPlan::Join { schema, .. } => schema,
            LogicalPlan::Aggregate { schema, .. } => schema,
            LogicalPlan::UnionAll { schema, .. } => schema,
            LogicalPlan::Apply { schema, .. } => schema,
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Values { schema, .. } => schema,
            LogicalPlan::Exchange { input, .. } => input.schema(),
        }
    }

    /// Children (for generic traversals).
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Exchange { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::UnionAll { inputs, .. } => inputs.iter().collect(),
            LogicalPlan::Apply { input, subquery, .. } => vec![input, subquery],
        }
    }
}
