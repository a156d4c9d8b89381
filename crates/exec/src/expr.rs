//! Expression trees and the reference vector-at-a-time interpreter.
//!
//! The expression API is split in two, mirroring X100:
//!
//! * **Describe** — [`PhysExpr`], the one expression tree: the binder
//!   emits it, logical plans carry it, the optimizer normalizes it and the
//!   cross compiler hands it to the programs below. It is *data*, not an
//!   execution strategy; the tree walks every layer shares (children,
//!   column remapping, conjuncts, const-ness) are its methods.
//! * **Compile, then run** — [`ExprProgram`](crate::program::ExprProgram)
//!   / [`SelectProgram`](crate::program::SelectProgram) in the [`program`]
//!   module: a `PhysExpr` is compiled **once per query** (constant
//!   folding, common-subexpression elimination, register reuse) into a
//!   flat sequence of primitive invocations over scratch vectors leased
//!   from a [`VectorPool`](crate::program::VectorPool). Every operator
//!   executes expressions this way, and so does constant folding (a
//!   column-free subtree is compiled and run over one row).
//!
//! The tree-walking [`PhysExpr::eval`] / [`PhysExpr::eval_select`]
//! interpreter below is **test support, not an execution path**: nothing
//! in the engine calls it. Its callers are `#[cfg(test)]` modules and the
//! integration suites, which cross-check compiled programs against it,
//! and `crates/bench` (`c13_exprprog` measures the compiled path's win
//! over it). It re-matches every node and allocates a fresh [`Vector`]
//! per node per batch — exactly the overhead the compiled path exists to
//! avoid.
//!
//! NULLs follow the production Vectorwise design (paper §1, "NULLs"): a
//! value vector of safe values plus a boolean indicator vector. Kernels stay
//! NULL-oblivious; indicator propagation (OR of input indicators) is
//! composed around them. (The per-value-NULL-test strawman it is measured
//! against is written out in bench C6.)
//!
//! Division by a NULL demonstrates why "safe values" need care: the NULL
//! position holds 0, which would raise a spurious division-by-zero, so the
//! evaluator patches NULL denominators to 1 before the kernel runs — an
//! instance of the paper's "special algorithms in the kernel". The
//! compiled path ports this as a dedicated instruction (`DivRemI64`).
//!
//! [`program`]: crate::program

use crate::primitives::{self, ArithCheck};
use crate::vector::{Batch, Vector};
use vw_common::date::DateField;
use vw_common::{ColData, Result, SelVec, TypeId, Value, VwError};

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Modulo.
    Rem,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Does this comparison hold for an ordering between two values?
    #[inline]
    pub fn holds(self, o: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, o),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }

    /// The comparison that holds exactly when this one is FALSE (and is
    /// NULL on the same inputs): `NOT (a < b)` is `a >= b`.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// Scalar SQL functions implemented natively in the kernel. Many more SQL
/// functions exist at the SQL level; the binder expands them into
/// combinations of these (the paper's "implemented in the rewriter phase").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// `UPPER(s)`
    Upper,
    /// `LOWER(s)`
    Lower,
    /// `LENGTH(s)` (characters)
    Length,
    /// `SUBSTR(s, start [, len])`, 1-based
    Substr,
    /// `CONCAT(a, b)`
    Concat,
    /// `TRIM(s)`
    Trim,
    /// `REPLACE(s, from, to)`
    Replace,
    /// `ABS(x)`
    Abs,
    /// `SQRT(x)` — errors on negative input
    Sqrt,
    /// `FLOOR(x)`
    Floor,
    /// `CEIL(x)`
    Ceil,
    /// `ROUND(x)`
    Round,
    /// `EXTRACT(field FROM d)` — field is the constant second argument
    Extract,
    /// `DATE_ADD_DAYS(d, n)`
    DateAddDays,
    /// `DATE_ADD_MONTHS(d, n)` — month arithmetic with end-of-month
    /// clamping (`INTERVAL 'n' MONTH/YEAR` lowers here)
    DateAddMonths,
    /// `DATE_DIFF_DAYS(a, b)`
    DateDiffDays,
}

/// A typed scalar expression over an input's column indices.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysExpr {
    /// Reference to batch column `i`.
    ColRef(usize, TypeId),
    /// A constant.
    Const(Value, TypeId),
    /// Binary arithmetic (operands pre-cast to `ty` ∈ {I64, F64} by the
    /// cross-compiler; `Date ± days` is lowered to [`Func::DateAddDays`]).
    Arith {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<PhysExpr>,
        /// Right operand.
        rhs: Box<PhysExpr>,
        /// Result (and operand) type.
        ty: TypeId,
    },
    /// Comparison producing BOOLEAN.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<PhysExpr>,
        /// Right operand.
        rhs: Box<PhysExpr>,
    },
    /// N-ary conjunction.
    And(Vec<PhysExpr>),
    /// N-ary disjunction.
    Or(Vec<PhysExpr>),
    /// Negation.
    Not(Box<PhysExpr>),
    /// Type conversion.
    Cast {
        /// Input expression.
        input: Box<PhysExpr>,
        /// Target type.
        to: TypeId,
    },
    /// `x IS NULL` (never NULL itself).
    IsNull(Box<PhysExpr>),
    /// `x IS NOT NULL`.
    IsNotNull(Box<PhysExpr>),
    /// `CASE WHEN c1 THEN v1 ... ELSE e END`.
    Case {
        /// (condition, result) branches.
        branches: Vec<(PhysExpr, PhysExpr)>,
        /// ELSE result (NULL if absent).
        else_expr: Option<Box<PhysExpr>>,
        /// Result type.
        ty: TypeId,
    },
    /// Native function call.
    FuncCall {
        /// Which function.
        func: Func,
        /// Arguments.
        args: Vec<PhysExpr>,
        /// Result type.
        ty: TypeId,
    },
    /// `s LIKE pattern` with a constant pattern.
    Like {
        /// String input.
        input: Box<PhysExpr>,
        /// SQL LIKE pattern (`%`, `_`).
        pattern: String,
        /// True for NOT LIKE.
        negated: bool,
    },
}

impl PhysExpr {
    /// Constant boolean.
    pub fn bool_const(b: bool) -> PhysExpr {
        PhysExpr::Const(Value::Bool(b), TypeId::Bool)
    }

    /// The expression's result type.
    pub fn type_id(&self) -> TypeId {
        match self {
            PhysExpr::ColRef(_, ty) => *ty,
            PhysExpr::Const(_, ty) => *ty,
            PhysExpr::Arith { ty, .. } => *ty,
            PhysExpr::Cmp { .. }
            | PhysExpr::And(_)
            | PhysExpr::Or(_)
            | PhysExpr::Not(_)
            | PhysExpr::IsNull(_)
            | PhysExpr::IsNotNull(_)
            | PhysExpr::Like { .. } => TypeId::Bool,
            PhysExpr::Cast { to, .. } => *to,
            PhysExpr::Case { ty, .. } => *ty,
            PhysExpr::FuncCall { ty, .. } => *ty,
        }
    }

    /// The direct children, in evaluation order.
    pub fn children(&self) -> Vec<&PhysExpr> {
        match self {
            PhysExpr::ColRef(..) | PhysExpr::Const(..) => Vec::new(),
            PhysExpr::Arith { lhs, rhs, .. } | PhysExpr::Cmp { lhs, rhs, .. } => vec![lhs, rhs],
            PhysExpr::And(v) | PhysExpr::Or(v) | PhysExpr::FuncCall { args: v, .. } => {
                v.iter().collect()
            }
            PhysExpr::Not(x)
            | PhysExpr::IsNull(x)
            | PhysExpr::IsNotNull(x)
            | PhysExpr::Cast { input: x, .. }
            | PhysExpr::Like { input: x, .. } => vec![x],
            PhysExpr::Case { branches, else_expr, .. } => {
                let mut out: Vec<&PhysExpr> = Vec::new();
                for (c, v) in branches {
                    out.push(c);
                    out.push(v);
                }
                out.extend(else_expr.as_deref());
                out
            }
        }
    }

    /// Rebuild the expression with `f` applied to each direct child, in
    /// place; leaves come back as they are. The one child walk: column
    /// remapping and the optimizer's normalization are built on it.
    pub fn map_children(
        mut self,
        f: &mut dyn FnMut(PhysExpr) -> Result<PhysExpr>,
    ) -> Result<PhysExpr> {
        // The child is moved out past an empty AND, which allocates nothing.
        let mut go = |e: &mut PhysExpr| -> Result<()> {
            *e = f(std::mem::replace(e, PhysExpr::And(Vec::new())))?;
            Ok(())
        };
        match &mut self {
            PhysExpr::ColRef(..) | PhysExpr::Const(..) => {}
            PhysExpr::Arith { lhs, rhs, .. } | PhysExpr::Cmp { lhs, rhs, .. } => {
                go(lhs)?;
                go(rhs)?;
            }
            PhysExpr::And(v) | PhysExpr::Or(v) | PhysExpr::FuncCall { args: v, .. } => {
                v.iter_mut().try_for_each(&mut go)?
            }
            PhysExpr::Not(x)
            | PhysExpr::IsNull(x)
            | PhysExpr::IsNotNull(x)
            | PhysExpr::Cast { input: x, .. }
            | PhysExpr::Like { input: x, .. } => go(x)?,
            PhysExpr::Case { branches, else_expr, .. } => {
                for (c, v) in branches {
                    go(c)?;
                    go(v)?;
                }
                if let Some(x) = else_expr {
                    go(x)?;
                }
            }
        }
        Ok(self)
    }

    /// Collect every referenced column index into `out` (duplicates
    /// included; callers sort and dedup).
    pub fn collect_cols(&self, out: &mut Vec<usize>) {
        if let PhysExpr::ColRef(i, _) = self {
            out.push(*i);
        }
        for c in self.children() {
            c.collect_cols(out);
        }
    }

    /// Rewrite column references through `map` (new index per old index);
    /// errors if a referenced column is not mapped.
    pub fn remap_cols(&self, map: &dyn Fn(usize) -> Option<usize>) -> Result<PhysExpr> {
        fn remap(e: PhysExpr, map: &dyn Fn(usize) -> Option<usize>) -> Result<PhysExpr> {
            match e {
                PhysExpr::ColRef(i, ty) => map(i)
                    .map(|ni| PhysExpr::ColRef(ni, ty))
                    .ok_or_else(|| VwError::Plan(format!("column {i} not available after remap"))),
                other => other.map_children(&mut |c| remap(c, map)),
            }
        }
        remap(self.clone(), map)
    }

    /// Shift all column references by `delta` (join input concatenation).
    pub fn shift_cols(&self, delta: usize) -> PhysExpr {
        self.remap_cols(&|i| Some(i + delta)).expect("shift never fails")
    }

    /// True if the expression references no columns (constant).
    pub fn is_const(&self) -> bool {
        match self {
            PhysExpr::ColRef(..) => false,
            PhysExpr::Const(..) => true,
            other => other.children().into_iter().all(PhysExpr::is_const),
        }
    }

    /// Flatten a conjunction into its conjuncts.
    pub fn conjuncts(self) -> Vec<PhysExpr> {
        match self {
            PhysExpr::And(v) => v.into_iter().flat_map(PhysExpr::conjuncts).collect(),
            other => vec![other],
        }
    }

    /// Evaluate over the live rows of `batch`, producing a full-length
    /// vector (positions outside the selection hold unspecified safe
    /// values).
    pub fn eval(&self, batch: &Batch) -> Result<Vector> {
        let n = batch.capacity();
        let sel = batch.sel.as_ref();
        match self {
            PhysExpr::ColRef(i, _) => Ok(batch.columns[*i].clone()),
            PhysExpr::Const(v, ty) => {
                let mut col = ColData::with_capacity(*ty, n);
                let mut nulls = None;
                if v.is_null() {
                    for _ in 0..n {
                        col.push_safe_default();
                    }
                    nulls = Some(vec![true; n]);
                } else {
                    for _ in 0..n {
                        col.push_value(v)?;
                    }
                }
                Ok(Vector::with_nulls(col, nulls))
            }
            PhysExpr::Arith { op, lhs, rhs, ty } => {
                let a = lhs.eval(batch)?;
                let b = rhs.eval(batch)?;
                eval_arith(*op, &a, &b, *ty, sel)
            }
            PhysExpr::Cmp { op, lhs, rhs } => {
                let a = lhs.eval(batch)?;
                let b = rhs.eval(batch)?;
                let nulls = union_nulls(n, &[&a, &b]);
                let mut out = vec![false; n];
                let run = |i: usize, out: &mut Vec<bool>| {
                    if let Some(o) = a.data.get_value(i).sql_cmp(&b.data.get_value(i)) {
                        out[i] = op.holds(o);
                    }
                };
                match sel {
                    None => (0..n).for_each(|i| run(i, &mut out)),
                    Some(s) => s.iter().for_each(|i| run(i, &mut out)),
                }
                Ok(Vector::with_nulls(ColData::Bool(out), nulls))
            }
            PhysExpr::And(parts) => eval_and_or(parts, batch, true),
            PhysExpr::Or(parts) => eval_and_or(parts, batch, false),
            PhysExpr::Not(inner) => {
                let v = inner.eval(batch)?;
                let vals = v.data.as_bool().iter().map(|b| !b).collect();
                Ok(Vector::with_nulls(ColData::Bool(vals), v.nulls.clone()))
            }
            PhysExpr::Cast { input, to } => {
                let v = input.eval(batch)?;
                eval_cast(&v, *to, sel)
            }
            PhysExpr::IsNull(inner) => {
                let v = inner.eval(batch)?;
                let out = match &v.nulls {
                    Some(m) => m.clone(),
                    None => vec![false; n],
                };
                Ok(Vector::new(ColData::Bool(out)))
            }
            PhysExpr::IsNotNull(inner) => {
                let v = inner.eval(batch)?;
                let out = match &v.nulls {
                    Some(m) => m.iter().map(|b| !b).collect(),
                    None => vec![true; n],
                };
                Ok(Vector::new(ColData::Bool(out)))
            }
            PhysExpr::Case { branches, else_expr, ty } => {
                eval_case(branches, else_expr.as_deref(), *ty, batch)
            }
            PhysExpr::FuncCall { func, args, ty } => eval_func(*func, args, *ty, batch),
            PhysExpr::Like { input, pattern, negated } => {
                let v = input.eval(batch)?;
                let pat = LikeMatcher::new(pattern);
                let strs = v.data.as_str();
                let mut out = vec![false; n];
                let mut run = |i: usize| out[i] = pat.matches(&strs[i]) != *negated;
                match sel {
                    None => (0..n).for_each(&mut run),
                    Some(s) => s.iter().for_each(&mut run),
                }
                Ok(Vector::with_nulls(ColData::Bool(out), v.nulls.clone()))
            }
        }
    }

    /// Evaluate as a predicate, producing the selection of live rows where
    /// the expression is TRUE (NULL counts as false, per SQL semantics).
    pub fn eval_select(&self, batch: &Batch) -> Result<SelVec> {
        let n = batch.capacity();
        let sel_in = batch.sel.as_ref();
        match self {
            PhysExpr::And(parts) => {
                // Conjunction = chained selective evaluation: each branch
                // only looks at rows that survived the previous ones.
                let mut current = Batch { columns: batch.columns.clone(), sel: batch.sel.clone() };
                for p in parts {
                    let next = p.eval_select(&current)?;
                    current.sel = Some(next);
                }
                Ok(current.sel.unwrap_or_else(|| SelVec::identity(n)))
            }
            PhysExpr::Or(parts) => {
                // Union of branch selections (each under the original sel).
                let mut acc: Option<SelVec> = None;
                for p in parts {
                    let s = p.eval_select(batch)?;
                    acc = Some(match acc {
                        None => s,
                        Some(prev) => union_sorted(&prev, &s),
                    });
                }
                Ok(acc.unwrap_or_default())
            }
            PhysExpr::Const(Value::Bool(true), _) => Ok(match sel_in {
                Some(s) => s.clone(),
                None => SelVec::identity(n),
            }),
            PhysExpr::Const(Value::Bool(false), _) | PhysExpr::Const(Value::Null, _) => {
                Ok(SelVec::new())
            }
            PhysExpr::Cmp { op, lhs, rhs } => {
                // Typed selection primitives for the hot col-vs-const and
                // col-vs-col shapes — the X100 select_* kernels. Falls back
                // to the generic boolean path for everything else.
                if let Some(sel) = fast_select_cmp(*op, lhs, rhs, batch) {
                    return Ok(sel);
                }
                let v = self.eval(batch)?;
                let vals = v.data.as_bool();
                let mut out = SelVec::with_capacity(batch.rows());
                primitives::select_by(n, sel_in, &mut out, |i| vals[i] && !v.is_null(i));
                Ok(out)
            }
            _ => {
                // Generic path: evaluate to a boolean vector, keep TRUEs.
                let v = self.eval(batch)?;
                let vals = v.data.as_bool();
                let mut out = SelVec::with_capacity(batch.rows());
                primitives::select_by(n, sel_in, &mut out, |i| vals[i] && !v.is_null(i));
                Ok(out)
            }
        }
    }
}

/// Typed fast path for `col <op> const` selections. Returns None when the
/// shape or type has no specialized kernel.
fn fast_select_cmp(op: CmpOp, lhs: &PhysExpr, rhs: &PhysExpr, batch: &Batch) -> Option<SelVec> {
    let (PhysExpr::ColRef(ci, _), PhysExpr::Const(k, _)) = (lhs, rhs) else {
        return None;
    };
    let col = &batch.columns[*ci];
    let n = col.len();
    let sel_in = batch.sel.as_ref();
    let mut out = SelVec::with_capacity(batch.rows());
    macro_rules! run {
        ($vals:expr, $k:expr) => {{
            let vals = $vals;
            let k = $k;
            match &col.nulls {
                None => {
                    primitives::select_by(n, sel_in, &mut out, |i| op.holds(cmp_total(vals[i], k)))
                }
                Some(m) => primitives::select_by(n, sel_in, &mut out, |i| {
                    !m[i] && op.holds(cmp_total(vals[i], k))
                }),
            }
        }};
    }
    match (&col.data, k) {
        (ColData::I64(v), Value::I64(k)) => run!(v.as_slice(), *k),
        (ColData::I32(v), Value::I32(k)) => run!(v.as_slice(), *k),
        (ColData::Date(v), Value::Date(k)) => run!(v.as_slice(), k.0),
        (ColData::F64(v), Value::F64(k)) => {
            let k = *k;
            match &col.nulls {
                None => {
                    primitives::select_by(n, sel_in, &mut out, |i| op.holds(v[i].total_cmp(&k)))
                }
                Some(m) => primitives::select_by(n, sel_in, &mut out, |i| {
                    !m[i] && op.holds(v[i].total_cmp(&k))
                }),
            }
        }
        (ColData::Str(v), Value::Str(k)) => match &col.nulls {
            None => primitives::select_by(n, sel_in, &mut out, |i| {
                op.holds(v[i].as_str().cmp(k.as_str()))
            }),
            Some(m) => primitives::select_by(n, sel_in, &mut out, |i| {
                !m[i] && op.holds(v[i].as_str().cmp(k.as_str()))
            }),
        },
        _ => return None,
    }
    Some(out)
}

#[inline]
fn cmp_total<T: Ord>(a: T, b: T) -> std::cmp::Ordering {
    a.cmp(&b)
}

fn union_sorted(a: &SelVec, b: &SelVec) -> SelVec {
    let mut out = SelVec::with_capacity(a.len() + b.len());
    crate::program::union_sorted_into(a, b, &mut out);
    out
}

/// OR together the null indicators of several vectors.
fn union_nulls(n: usize, vs: &[&Vector]) -> Option<Vec<bool>> {
    if vs.iter().all(|v| v.nulls.is_none()) {
        return None;
    }
    let mut out = vec![false; n];
    for v in vs {
        if let Some(m) = &v.nulls {
            for (o, &b) in out.iter_mut().zip(m) {
                *o |= b;
            }
        }
    }
    Some(out)
}

fn eval_arith(
    op: BinOp,
    a: &Vector,
    b: &Vector,
    ty: TypeId,
    sel: Option<&SelVec>,
) -> Result<Vector> {
    let n = a.len();
    let nulls = union_nulls(n, &[a, b]);
    match ty {
        TypeId::I64 => {
            let x = a.data.as_i64();
            let y = b.data.as_i64();
            let mut out = Vec::with_capacity(n);
            // Division/modulo by a NULL: the safe value 0 would fault, so
            // patch NULL denominators to 1 (their result is NULL anyway).
            let patched;
            let y = if let (BinOp::Div | BinOp::Rem, Some(m)) = (op, &b.nulls) {
                patched = y
                    .iter()
                    .zip(m)
                    .map(|(&v, &is_null)| if is_null { 1 } else { v })
                    .collect::<Vec<i64>>();
                &patched[..]
            } else {
                y
            };
            match op {
                BinOp::Add => primitives::add_i64(x, y, sel, &mut out, ArithCheck::Lazy)?,
                BinOp::Sub => primitives::sub_i64(x, y, sel, &mut out, ArithCheck::Lazy)?,
                BinOp::Mul => primitives::mul_i64(x, y, sel, &mut out, ArithCheck::Lazy)?,
                BinOp::Div => primitives::div_i64(x, y, sel, &mut out, ArithCheck::Lazy)?,
                BinOp::Rem => primitives::rem_i64(x, y, sel, &mut out, ArithCheck::Lazy)?,
            }
            Ok(Vector::with_nulls(ColData::I64(out), nulls))
        }
        TypeId::F64 => {
            let x = a.data.as_f64();
            let y = b.data.as_f64();
            let mut out = Vec::with_capacity(n);
            let f = |p: f64, q: f64| match op {
                BinOp::Add => p + q,
                BinOp::Sub => p - q,
                BinOp::Mul => p * q,
                BinOp::Div => p / q,
                BinOp::Rem => p % q,
            };
            match sel {
                None => primitives::map_bin_full(x, y, &mut out, f),
                Some(s) => primitives::map_bin_sel(x, y, s, &mut out, f),
            }
            // SQL: float division by zero is an error (not infinity), but
            // only at live, non-NULL positions.
            if matches!(op, BinOp::Div | BinOp::Rem) {
                let bad = |i: usize| y[i] == 0.0 && !a.is_null(i) && !b.is_null(i);
                let any_bad = match sel {
                    None => (0..n).any(bad),
                    Some(s) => s.iter().any(bad),
                };
                if any_bad {
                    return Err(VwError::DivideByZero);
                }
            }
            Ok(Vector::with_nulls(ColData::F64(out), nulls))
        }
        other => Err(VwError::Plan(format!(
            "arithmetic on {} must be pre-promoted to BIGINT or DOUBLE",
            other.sql_name()
        ))),
    }
}

fn eval_and_or(parts: &[PhysExpr], batch: &Batch, is_and: bool) -> Result<Vector> {
    // Three-valued logic on full boolean vectors.
    let n = batch.capacity();
    let mut acc_val = vec![is_and; n];
    let mut acc_null = vec![false; n];
    for p in parts {
        let v = p.eval(batch)?;
        let vals = v.data.as_bool();
        for i in 0..n {
            let (pv, pn) = (vals[i], v.is_null(i));
            let (av, an) = (acc_val[i], acc_null[i]);
            let (nv, nn) = if is_and {
                // AND: false dominates, then NULL, then true.
                if (!av && !an) || (!pv && !pn) {
                    (false, false)
                } else if an || pn {
                    (false, true)
                } else {
                    (true, false)
                }
            } else {
                // OR: true dominates, then NULL, then false.
                if (av && !an) || (pv && !pn) {
                    (true, false)
                } else if an || pn {
                    (false, true)
                } else {
                    (false, false)
                }
            };
            acc_val[i] = nv;
            acc_null[i] = nn;
        }
    }
    Ok(Vector::with_nulls(ColData::Bool(acc_val), Some(acc_null)))
}

fn eval_cast(v: &Vector, to: TypeId, sel: Option<&SelVec>) -> Result<Vector> {
    if v.type_id() == to {
        return Ok(v.clone());
    }
    let n = v.len();
    // Fast widening paths.
    let widened: Option<ColData> = match (&v.data, to) {
        (ColData::I8(x), TypeId::I64) => Some(ColData::I64(x.iter().map(|&a| a as i64).collect())),
        (ColData::I16(x), TypeId::I64) => Some(ColData::I64(x.iter().map(|&a| a as i64).collect())),
        (ColData::I32(x), TypeId::I64) => Some(ColData::I64(x.iter().map(|&a| a as i64).collect())),
        (ColData::I8(x), TypeId::F64) => Some(ColData::F64(x.iter().map(|&a| a as f64).collect())),
        (ColData::I16(x), TypeId::F64) => Some(ColData::F64(x.iter().map(|&a| a as f64).collect())),
        (ColData::I32(x), TypeId::F64) => Some(ColData::F64(x.iter().map(|&a| a as f64).collect())),
        (ColData::I64(x), TypeId::F64) => Some(ColData::F64(x.iter().map(|&a| a as f64).collect())),
        _ => None,
    };
    if let Some(data) = widened {
        return Ok(Vector::with_nulls(data, v.nulls.clone()));
    }
    // Generic per-value path (checked; only live non-NULL positions).
    let mut out = ColData::with_capacity(to, n);
    let run = |i: usize, out: &mut ColData| -> Result<()> {
        if v.is_null(i) {
            out.push_safe_default();
        } else {
            out.push_value(&v.data.get_value(i).cast_to(to)?)?;
        }
        Ok(())
    };
    match sel {
        None => {
            for i in 0..n {
                run(i, &mut out)?;
            }
        }
        Some(s) => {
            // Unselected positions must still occupy slots.
            let live: std::collections::HashSet<usize> = s.iter().collect();
            for i in 0..n {
                if live.contains(&i) {
                    run(i, &mut out)?;
                } else {
                    out.push_safe_default();
                }
            }
        }
    }
    Ok(Vector::with_nulls(out, v.nulls.clone()))
}

fn eval_case(
    branches: &[(PhysExpr, PhysExpr)],
    else_expr: Option<&PhysExpr>,
    ty: TypeId,
    batch: &Batch,
) -> Result<Vector> {
    let n = batch.capacity();
    // Evaluate all branches over the full batch, then pick per row. (A
    // production kernel narrows the selection per branch; the semantics and
    // vectorized structure are the same.)
    let conds: Vec<Vector> = branches.iter().map(|(c, _)| c.eval(batch)).collect::<Result<_>>()?;
    let vals: Vec<Vector> = branches.iter().map(|(_, v)| v.eval(batch)).collect::<Result<_>>()?;
    let else_v = else_expr.map(|e| e.eval(batch)).transpose()?;
    let mut out = Vector::new(ColData::with_capacity(ty, n));
    for i in 0..n {
        let mut chosen: Option<Value> = None;
        for (c, v) in conds.iter().zip(&vals) {
            if !c.is_null(i) && c.data.as_bool()[i] {
                chosen = Some(v.get(i));
                break;
            }
        }
        let val = chosen.unwrap_or_else(|| else_v.as_ref().map_or(Value::Null, |e| e.get(i)));
        out.push(&val)?;
    }
    Ok(out)
}

fn arg_err(func: Func, msg: &str) -> VwError {
    VwError::InvalidParameter(format!("{func:?}: {msg}"))
}

fn eval_func(func: Func, args: &[PhysExpr], ty: TypeId, batch: &Batch) -> Result<Vector> {
    let n = batch.capacity();
    let sel = batch.sel.as_ref();
    let vs: Vec<Vector> = args.iter().map(|a| a.eval(batch)).collect::<Result<_>>()?;
    let nulls = union_nulls(n, &vs.iter().collect::<Vec<_>>());
    let live = |i: usize| -> bool { !nulls.as_ref().is_some_and(|m| m[i]) };
    macro_rules! for_live {
        ($body:expr) => {{
            match sel {
                None => {
                    for i in 0..n {
                        $body(i)?;
                    }
                }
                Some(s) => {
                    for i in s.iter() {
                        $body(i)?;
                    }
                }
            }
        }};
    }
    let out: ColData = match func {
        Func::Upper | Func::Lower | Func::Trim => {
            let s = vs[0].data.as_str();
            let mut out = vec![String::new(); n];
            let mut f = |i: usize| -> Result<()> {
                out[i] = match func {
                    Func::Upper => s[i].to_uppercase(),
                    Func::Lower => s[i].to_lowercase(),
                    _ => s[i].trim().to_string(),
                };
                Ok(())
            };
            for_live!(f);
            ColData::Str(out)
        }
        Func::Length => {
            let s = vs[0].data.as_str();
            let mut out = vec![0i64; n];
            let mut f = |i: usize| -> Result<()> {
                out[i] = s[i].chars().count() as i64;
                Ok(())
            };
            for_live!(f);
            ColData::I64(out)
        }
        Func::Substr => {
            let s = vs[0].data.as_str();
            let start = vs[1].data.as_i64();
            let len = vs.get(2).map(|v| v.data.as_i64());
            let mut out = vec![String::new(); n];
            let mut f = |i: usize| -> Result<()> {
                if !live(i) {
                    return Ok(());
                }
                if start[i] < 1 {
                    return Err(arg_err(func, "start position must be >= 1"));
                }
                let take = match len {
                    Some(l) => {
                        if l[i] < 0 {
                            return Err(arg_err(func, "length must be >= 0"));
                        }
                        l[i] as usize
                    }
                    None => usize::MAX,
                };
                out[i] = s[i].chars().skip(start[i] as usize - 1).take(take).collect();
                Ok(())
            };
            for_live!(f);
            ColData::Str(out)
        }
        Func::Concat => {
            let a = vs[0].data.as_str();
            let b = vs[1].data.as_str();
            let mut out = vec![String::new(); n];
            let mut f = |i: usize| -> Result<()> {
                let mut s = String::with_capacity(a[i].len() + b[i].len());
                s.push_str(&a[i]);
                s.push_str(&b[i]);
                out[i] = s;
                Ok(())
            };
            for_live!(f);
            ColData::Str(out)
        }
        Func::Replace => {
            let s = vs[0].data.as_str();
            let from = vs[1].data.as_str();
            let to = vs[2].data.as_str();
            let mut out = vec![String::new(); n];
            let mut f = |i: usize| -> Result<()> {
                out[i] =
                    if from[i].is_empty() { s[i].clone() } else { s[i].replace(&from[i], &to[i]) };
                Ok(())
            };
            for_live!(f);
            ColData::Str(out)
        }
        Func::Abs => match &vs[0].data {
            ColData::I64(x) => {
                let mut out = vec![0i64; n];
                let mut f = |i: usize| -> Result<()> {
                    if live(i) {
                        out[i] = x[i].checked_abs().ok_or(VwError::Overflow("ABS"))?;
                    }
                    Ok(())
                };
                for_live!(f);
                ColData::I64(out)
            }
            ColData::F64(x) => {
                let mut out = vec![0f64; n];
                let mut f = |i: usize| -> Result<()> {
                    out[i] = x[i].abs();
                    Ok(())
                };
                for_live!(f);
                ColData::F64(out)
            }
            other => return Err(arg_err(func, &format!("bad input {}", other.type_id()))),
        },
        Func::Sqrt => {
            let x = vs[0].data.as_f64();
            let mut out = vec![0f64; n];
            let mut f = |i: usize| -> Result<()> {
                if live(i) {
                    if x[i] < 0.0 {
                        return Err(arg_err(func, "negative input"));
                    }
                    out[i] = x[i].sqrt();
                }
                Ok(())
            };
            for_live!(f);
            ColData::F64(out)
        }
        Func::Floor | Func::Ceil | Func::Round => {
            let x = vs[0].data.as_f64();
            let mut out = vec![0f64; n];
            let mut f = |i: usize| -> Result<()> {
                out[i] = match func {
                    Func::Floor => x[i].floor(),
                    Func::Ceil => x[i].ceil(),
                    _ => x[i].round(),
                };
                Ok(())
            };
            for_live!(f);
            ColData::F64(out)
        }
        Func::Extract => {
            let ColData::Date(days) = &vs[0].data else {
                return Err(arg_err(func, "first argument must be DATE"));
            };
            let field_code = vs[1].data.as_i64();
            let mut out = vec![0i64; n];
            let mut f = |i: usize| -> Result<()> {
                if live(i) {
                    let field = decode_field(field_code[i])?;
                    out[i] = field.extract(days[i]) as i64;
                }
                Ok(())
            };
            for_live!(f);
            ColData::I64(out)
        }
        Func::DateAddDays => {
            let ColData::Date(days) = &vs[0].data else {
                return Err(arg_err(func, "first argument must be DATE"));
            };
            let delta = vs[1].data.as_i64();
            let mut out = vec![0i32; n];
            let mut f = |i: usize| -> Result<()> {
                if live(i) {
                    let v = days[i] as i64 + delta[i];
                    out[i] = i32::try_from(v).map_err(|_| VwError::Overflow("DATE + days"))?;
                }
                Ok(())
            };
            for_live!(f);
            ColData::Date(out)
        }
        Func::DateAddMonths => {
            let ColData::Date(days) = &vs[0].data else {
                return Err(arg_err(func, "first argument must be DATE"));
            };
            let delta = vs[1].data.as_i64();
            let mut out = vec![0i32; n];
            let mut f = |i: usize| -> Result<()> {
                if live(i) {
                    let m =
                        i32::try_from(delta[i]).map_err(|_| VwError::Overflow("DATE + months"))?;
                    out[i] = vw_common::date::add_months(days[i], m)?;
                }
                Ok(())
            };
            for_live!(f);
            ColData::Date(out)
        }
        Func::DateDiffDays => {
            let (ColData::Date(a), ColData::Date(b)) = (&vs[0].data, &vs[1].data) else {
                return Err(arg_err(func, "arguments must be DATE"));
            };
            let mut out = vec![0i64; n];
            let mut f = |i: usize| -> Result<()> {
                out[i] = a[i] as i64 - b[i] as i64;
                Ok(())
            };
            for_live!(f);
            ColData::I64(out)
        }
    };
    debug_assert_eq!(out.type_id(), ty);
    Ok(Vector::with_nulls(out, nulls))
}

/// Encodes a [`DateField`] as the i64 constant second argument of EXTRACT.
pub fn encode_field(f: DateField) -> i64 {
    match f {
        DateField::Year => 0,
        DateField::Quarter => 1,
        DateField::Month => 2,
        DateField::Day => 3,
        DateField::DayOfWeek => 4,
        DateField::DayOfYear => 5,
    }
}

pub(crate) fn decode_field(code: i64) -> Result<DateField> {
    Ok(match code {
        0 => DateField::Year,
        1 => DateField::Quarter,
        2 => DateField::Month,
        3 => DateField::Day,
        4 => DateField::DayOfWeek,
        5 => DateField::DayOfYear,
        other => return Err(VwError::Exec(format!("bad EXTRACT field code {other}"))),
    })
}

/// Compiled SQL LIKE pattern (`%` = any run, `_` = any one character).
///
/// The pattern is cut at its `%`s into pieces once, at compile time. The
/// first piece must match at the start of a string and the last at its
/// end — each a single forward or backward walk — and the pieces between
/// are found left to right, each at its leftmost place after the one
/// before: with `%` between them, the leftmost place never loses a match
/// a later one would have found, so nothing backtracks. A piece without
/// `_` is searched for by its first and last byte before its bytes are
/// compared; one with `_` is tried at each character boundary. For a
/// fixed pattern a match is linear in the row. `_` consumes one
/// character (a UTF-8 sequence), literals compare bytes.
#[derive(Clone, Debug)]
pub struct LikeMatcher {
    /// The `%`-separated pieces: one when the pattern has no `%`.
    pieces: Vec<Piece>,
}

/// One `%`-free stretch of a LIKE pattern.
#[derive(Clone, Debug, Default)]
struct Piece {
    elems: Vec<Elem>,
}

#[derive(Clone, Debug)]
enum Elem {
    /// Literal text.
    Lit(String),
    /// A run of `_`: that many characters.
    AnyChars(usize),
}

/// The byte length of the character starting with byte `b`.
#[inline]
fn utf8_len(b: u8) -> usize {
    match b {
        0..0x80 => 1,
        0xE0..0xF0 => 3,
        0xF0.. => 4,
        _ => 2,
    }
}

impl Piece {
    /// A piece that is one literal (or empty): searched by bytes.
    fn literal(&self) -> Option<&str> {
        match self.elems.as_slice() {
            [] => Some(""),
            [Elem::Lit(l)] => Some(l),
            _ => None,
        }
    }

    /// Bytes the piece consumes matched forward at the start of `s`.
    fn match_at_start(&self, s: &str) -> Option<usize> {
        let b = s.as_bytes();
        let mut pos = 0;
        for e in &self.elems {
            match e {
                Elem::Lit(l) => {
                    if !b[pos..].starts_with(l.as_bytes()) {
                        return None;
                    }
                    pos += l.len();
                }
                Elem::AnyChars(k) => {
                    for _ in 0..*k {
                        pos += utf8_len(*b.get(pos)?);
                    }
                }
            }
        }
        Some(pos)
    }

    /// Where the piece starts when matched backward against the end of
    /// `s`.
    fn match_at_end(&self, s: &str) -> Option<usize> {
        let b = s.as_bytes();
        let mut end = b.len();
        for e in self.elems.iter().rev() {
            match e {
                Elem::Lit(l) => {
                    if !b[..end].ends_with(l.as_bytes()) {
                        return None;
                    }
                    end -= l.len();
                }
                Elem::AnyChars(k) => {
                    for _ in 0..*k {
                        // Step back over continuation bytes to a start byte.
                        end = end.checked_sub(1)?;
                        while b[end] & 0xC0 == 0x80 {
                            end -= 1;
                        }
                    }
                }
            }
        }
        Some(end)
    }

    /// The leftmost match in `s`: `(start, end)` in bytes.
    fn find(&self, s: &str) -> Option<(usize, usize)> {
        if let Some(lit) = self.literal() {
            return find_bytes(s.as_bytes(), lit.as_bytes()).map(|at| (at, at + lit.len()));
        }
        // A piece that opens with a literal is tried only where that
        // literal occurs; one that opens with `_` at every character.
        let mut from = 0;
        while from <= s.len() {
            let at = match &self.elems[0] {
                Elem::Lit(l) => from + find_bytes(&s.as_bytes()[from..], l.as_bytes())?,
                Elem::AnyChars(_) => from,
            };
            if let Some(len) = self.match_at_start(&s[at..]) {
                return Some((at, at + len));
            }
            match s.as_bytes().get(at) {
                Some(&b) => from = at + utf8_len(b),
                None => return None,
            }
        }
        None
    }
}

/// The leftmost occurrence of `needle` in `hay`: a candidate must agree on
/// the first and the last byte before the rest is compared. Eight
/// candidates are screened at once: the words at `i` and `i + m - 1` are
/// compared bytewise against the needle's first and last byte (SWAR), and
/// only starts where both agree are compared in full.
#[inline]
fn find_bytes(hay: &[u8], needle: &[u8]) -> Option<usize> {
    const LO7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    /// `0x80` in every byte of `x` that is zero, nothing elsewhere.
    #[inline(always)]
    fn zero_bytes(x: u64) -> u64 {
        !((x & LO7).wrapping_add(LO7) | x | LO7)
    }
    let word = |at: usize| u64::from_le_bytes(hay[at..at + 8].try_into().expect("8 bytes"));
    let m = needle.len();
    if m == 0 {
        return Some(0);
    }
    if hay.len() < m {
        return None;
    }
    let (first, last, mid) = (needle[0], needle[m - 1], &needle[1..m.max(2) - 1]);
    let full = |at: usize| m < 3 || &hay[at + 1..at + m - 1] == mid;
    let starts = hay.len() - m + 1;
    let (f, l) =
        (u64::from(first) * 0x0101_0101_0101_0101, u64::from(last) * 0x0101_0101_0101_0101);
    let mut i = 0;
    while i + 8 <= starts {
        let mut hits = zero_bytes(word(i) ^ f) & zero_bytes(word(i + m - 1) ^ l);
        while hits != 0 {
            let at = i + hits.trailing_zeros() as usize / 8;
            if full(at) {
                return Some(at);
            }
            hits &= hits - 1;
        }
        i += 8;
    }
    (i..starts).find(|&at| hay[at] == first && hay[at + m - 1] == last && full(at))
}

impl LikeMatcher {
    /// Compile a LIKE pattern.
    pub fn new(pattern: &str) -> LikeMatcher {
        let mut pieces = vec![Piece::default()];
        for c in pattern.chars() {
            let piece = pieces.last_mut().expect("at least one piece");
            match (c, piece.elems.last_mut()) {
                ('%', _) => pieces.push(Piece::default()),
                ('_', Some(Elem::AnyChars(k))) => *k += 1,
                ('_', _) => piece.elems.push(Elem::AnyChars(1)),
                (c, Some(Elem::Lit(l))) => l.push(c),
                (c, _) => piece.elems.push(Elem::Lit(c.to_string())),
            }
        }
        // `%%` is one `%`: the empty pieces between them match anywhere.
        let last = pieces.len() - 1;
        let mut i = 0;
        pieces.retain(|p| {
            i += 1;
            i == 1 || i == last + 1 || !p.elems.is_empty()
        });
        LikeMatcher { pieces }
    }

    /// Does `s` match the pattern?
    pub fn matches(&self, s: &str) -> bool {
        let [first, middle @ .., last] = self.pieces.as_slice() else {
            // No `%`: the one piece must cover the string exactly.
            return self.pieces[0].match_at_start(s) == Some(s.len());
        };
        let Some(start) = first.match_at_start(s) else { return false };
        let Some(end) = last.match_at_end(&s[start..]) else { return false };
        let mut rest = &s[start..start + end];
        for piece in middle {
            match piece.find(rest) {
                Some((_, to)) => rest = &rest[to..],
                None => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_helpers_walk_every_child() {
        let col = |i: usize| PhysExpr::ColRef(i, TypeId::I64);
        let lit = |v: i64| PhysExpr::Const(Value::I64(v), TypeId::I64);
        let e = PhysExpr::Arith {
            op: BinOp::Add,
            lhs: Box::new(col(2)),
            rhs: Box::new(PhysExpr::Cmp {
                op: CmpOp::Lt,
                lhs: Box::new(col(0)),
                rhs: Box::new(lit(5)),
            }),
            ty: TypeId::I64,
        };
        let cols = |e: &PhysExpr| {
            let mut out = Vec::new();
            e.collect_cols(&mut out);
            out.sort_unstable();
            out
        };
        assert_eq!(cols(&e), vec![0, 2]);
        assert_eq!(cols(&e.shift_cols(10)), vec![10, 12]);
        assert!(col(3).remap_cols(&|i| if i == 0 { Some(0) } else { None }).is_err());
        let and = PhysExpr::And(vec![PhysExpr::And(vec![col(0), col(1)]), col(2)]);
        assert_eq!(and.conjuncts().len(), 3);
        assert!(lit(5).is_const() && !col(0).is_const() && !e.is_const());
        assert_eq!(CmpOp::Lt.negated(), CmpOp::Ge);
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.negated().negated(), op);
        }
    }
    use vw_common::Date;

    fn batch_i64(vals: Vec<i64>) -> Batch {
        Batch::new(vec![Vector::new(ColData::I64(vals))])
    }

    fn col(i: usize, ty: TypeId) -> PhysExpr {
        PhysExpr::ColRef(i, ty)
    }

    fn lit_i64(v: i64) -> PhysExpr {
        PhysExpr::Const(Value::I64(v), TypeId::I64)
    }

    #[test]
    fn arithmetic_and_nulls_two_column() {
        let mut v = Vector::new(ColData::new(TypeId::I64));
        for x in [Value::I64(10), Value::Null, Value::I64(30)] {
            v.push(&x).unwrap();
        }
        let batch = Batch::new(vec![v]);
        let e = PhysExpr::Arith {
            op: BinOp::Add,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(lit_i64(5)),
            ty: TypeId::I64,
        };
        let r = e.eval(&batch).unwrap();
        assert_eq!(r.get(0), Value::I64(15));
        assert_eq!(r.get(1), Value::Null);
        assert_eq!(r.get(2), Value::I64(35));
    }

    #[test]
    fn division_by_null_is_null_not_error() {
        let mut denom = Vector::new(ColData::new(TypeId::I64));
        for x in [Value::I64(2), Value::Null] {
            denom.push(&x).unwrap();
        }
        let batch = Batch::new(vec![Vector::new(ColData::I64(vec![10, 10])), denom]);
        let e = PhysExpr::Arith {
            op: BinOp::Div,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(col(1, TypeId::I64)),
            ty: TypeId::I64,
        };
        let r = e.eval(&batch).unwrap();
        assert_eq!(r.get(0), Value::I64(5));
        assert_eq!(r.get(1), Value::Null);
    }

    #[test]
    fn division_by_zero_is_error() {
        let batch = Batch::new(vec![
            Vector::new(ColData::I64(vec![10])),
            Vector::new(ColData::I64(vec![0])),
        ]);
        let e = PhysExpr::Arith {
            op: BinOp::Div,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(col(1, TypeId::I64)),
            ty: TypeId::I64,
        };
        assert!(matches!(e.eval(&batch), Err(VwError::DivideByZero)));
    }

    #[test]
    fn float_div_zero_checked_but_not_under_null() {
        let mut denom = Vector::new(ColData::new(TypeId::F64));
        denom.push(&Value::Null).unwrap(); // safe value 0.0
        let batch = Batch::new(vec![Vector::new(ColData::F64(vec![1.0])), denom]);
        let e = PhysExpr::Arith {
            op: BinOp::Div,
            lhs: Box::new(col(0, TypeId::F64)),
            rhs: Box::new(col(1, TypeId::F64)),
            ty: TypeId::F64,
        };
        let r = e.eval(&batch).unwrap();
        assert!(r.is_null(0));
    }

    #[test]
    fn select_on_comparison() {
        let batch = batch_i64((0..100).collect());
        let e = PhysExpr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(lit_i64(10)),
        };
        let s = e.eval_select(&batch).unwrap();
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn and_narrows_or_unions() {
        let batch = batch_i64((0..20).collect());
        let ge5 = PhysExpr::Cmp {
            op: CmpOp::Ge,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(lit_i64(5)),
        };
        let lt10 = PhysExpr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(lit_i64(10)),
        };
        let and = PhysExpr::And(vec![ge5.clone(), lt10.clone()]);
        assert_eq!(and.eval_select(&batch).unwrap().len(), 5);
        let lt3 = PhysExpr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(lit_i64(3)),
        };
        let or = PhysExpr::Or(vec![lt3, ge5]);
        assert_eq!(or.eval_select(&batch).unwrap().len(), 18);
    }

    #[test]
    fn three_valued_logic() {
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL; NULL OR TRUE = TRUE.
        let mut v = Vector::new(ColData::new(TypeId::Bool));
        v.push(&Value::Null).unwrap();
        let batch = Batch::new(vec![v]);
        let null_b = col(0, TypeId::Bool);
        let t = PhysExpr::bool_const(true);
        let f = PhysExpr::bool_const(false);
        let and_f = PhysExpr::And(vec![null_b.clone(), f]).eval(&batch).unwrap();
        assert_eq!(and_f.get(0), Value::Bool(false));
        let and_t = PhysExpr::And(vec![null_b.clone(), t.clone()]).eval(&batch).unwrap();
        assert!(and_t.is_null(0));
        let or_t = PhysExpr::Or(vec![null_b, t]).eval(&batch).unwrap();
        assert_eq!(or_t.get(0), Value::Bool(true));
    }

    #[test]
    fn case_expression() {
        let batch = batch_i64(vec![1, 5, 9]);
        let e = PhysExpr::Case {
            branches: vec![(
                PhysExpr::Cmp {
                    op: CmpOp::Lt,
                    lhs: Box::new(col(0, TypeId::I64)),
                    rhs: Box::new(lit_i64(4)),
                },
                PhysExpr::Const(Value::Str("small".into()), TypeId::Str),
            )],
            else_expr: Some(Box::new(PhysExpr::Const(Value::Str("big".into()), TypeId::Str))),
            ty: TypeId::Str,
        };
        let r = e.eval(&batch).unwrap();
        assert_eq!(r.get(0), Value::Str("small".into()));
        assert_eq!(r.get(1), Value::Str("big".into()));
    }

    #[test]
    fn string_functions() {
        let batch =
            Batch::new(vec![Vector::new(ColData::Str(vec!["  Hello  ".into(), "World".into()]))]);
        let upper = PhysExpr::FuncCall {
            func: Func::Upper,
            args: vec![col(0, TypeId::Str)],
            ty: TypeId::Str,
        };
        let r = upper.eval(&batch).unwrap();
        assert_eq!(r.get(1), Value::Str("WORLD".into()));
        let trim = PhysExpr::FuncCall {
            func: Func::Trim,
            args: vec![col(0, TypeId::Str)],
            ty: TypeId::Str,
        };
        assert_eq!(trim.eval(&batch).unwrap().get(0), Value::Str("Hello".into()));
    }

    #[test]
    fn substr_invalid_parameter_detected() {
        let batch = Batch::new(vec![Vector::new(ColData::Str(vec!["abc".into()]))]);
        let e = PhysExpr::FuncCall {
            func: Func::Substr,
            args: vec![col(0, TypeId::Str), lit_i64(0)],
            ty: TypeId::Str,
        };
        assert!(matches!(e.eval(&batch), Err(VwError::InvalidParameter(_))));
        let ok = PhysExpr::FuncCall {
            func: Func::Substr,
            args: vec![col(0, TypeId::Str), lit_i64(2)],
            ty: TypeId::Str,
        };
        assert_eq!(ok.eval(&batch).unwrap().get(0), Value::Str("bc".into()));
    }

    #[test]
    fn date_functions() {
        let d = Date::parse("1996-03-13").unwrap();
        let batch = Batch::new(vec![Vector::new(ColData::Date(vec![d.0]))]);
        let year = PhysExpr::FuncCall {
            func: Func::Extract,
            args: vec![col(0, TypeId::Date), lit_i64(encode_field(DateField::Year))],
            ty: TypeId::I64,
        };
        assert_eq!(year.eval(&batch).unwrap().get(0), Value::I64(1996));
        let plus = PhysExpr::FuncCall {
            func: Func::DateAddDays,
            args: vec![col(0, TypeId::Date), lit_i64(30)],
            ty: TypeId::Date,
        };
        let r = plus.eval(&batch).unwrap();
        assert_eq!(r.get(0), Value::Date(Date::parse("1996-04-12").unwrap()));
    }

    #[test]
    fn like_matcher() {
        let m = LikeMatcher::new("a%b_c");
        assert!(m.matches("aXXbYc"));
        assert!(m.matches("ab_c") && !m.matches("abc"));
        assert!(LikeMatcher::new("%ell%").matches("hello"));
        assert!(LikeMatcher::new("h%").matches("h"));
        assert!(!LikeMatcher::new("h_").matches("h"));
        assert!(LikeMatcher::new("").matches(""));
        assert!(!LikeMatcher::new("").matches("x"));
        assert!(LikeMatcher::new("100%%").matches("100%"));
    }

    /// The matcher LIKE had before it was cut into pieces: a recursive
    /// walk that backtracks at every `%` — exponential in the number of
    /// `%` segments, but plainly right. Kept as the oracle.
    fn like_reference(pattern: &str, s: &str) -> bool {
        fn rec(p: &[char], s: &str) -> bool {
            match p.first() {
                None => s.is_empty(),
                Some('%') => {
                    let mut cs = s.chars();
                    loop {
                        if rec(&p[1..], cs.as_str()) {
                            return true;
                        }
                        if cs.next().is_none() {
                            return false;
                        }
                    }
                }
                Some('_') => {
                    let mut cs = s.chars();
                    cs.next().is_some() && rec(&p[1..], cs.as_str())
                }
                Some(&c) => s.strip_prefix(c).is_some_and(|r| rec(&p[1..], r)),
            }
        }
        rec(&pattern.chars().collect::<Vec<_>>(), s)
    }

    #[test]
    fn like_matcher_agrees_with_the_backtracking_reference() {
        // Small alphabets, so pieces recur and overlap: repeats, multibyte
        // characters (2, 3 and 4 bytes), empty strings and patterns.
        const TEXT: [&str; 6] = ["a", "b", "a", "é", "日", "🦀"];
        const PAT: [&str; 8] = ["%", "_", "a", "b", "é", "日", "🦀", "%"];
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % m as u64) as usize
        };
        let strings: Vec<String> =
            (0..120).map(|_| (0..next(9)).map(|_| TEXT[next(TEXT.len())]).collect()).collect();
        for _ in 0..1500 {
            let pattern: String = (0..next(8)).map(|_| PAT[next(PAT.len())]).collect();
            let m = LikeMatcher::new(&pattern);
            for s in &strings {
                assert_eq!(m.matches(s), like_reference(&pattern, s), "{s:?} LIKE {pattern:?}");
            }
        }
    }

    #[test]
    fn like_is_linear_in_the_row_however_many_percent_segments() {
        // Backtracking tries every way to place six `a`s in 200 of them
        // before the trailing `b` fails: ~10^10 steps.
        let row = "a".repeat(200);
        let m = LikeMatcher::new("%a%a%a%a%a%a%ab");
        let t = std::time::Instant::now();
        for _ in 0..1000 {
            assert!(!m.matches(&row));
        }
        assert!(m.matches(&(row.clone() + "b")));
        assert!(t.elapsed() < std::time::Duration::from_secs(1), "{:?}", t.elapsed());
    }

    #[test]
    fn like_expression_with_nulls() {
        let mut v = Vector::new(ColData::new(TypeId::Str));
        v.push(&Value::Str("promo pack".into())).unwrap();
        v.push(&Value::Null).unwrap();
        let batch = Batch::new(vec![v]);
        let e = PhysExpr::Like {
            input: Box::new(col(0, TypeId::Str)),
            pattern: "promo%".into(),
            negated: false,
        };
        let r = e.eval(&batch).unwrap();
        assert_eq!(r.get(0), Value::Bool(true));
        assert!(r.is_null(1));
        // As a predicate, NULL rows are filtered out.
        let s = e.eval_select(&batch).unwrap();
        assert_eq!(s.as_slice(), &[0]);
    }

    #[test]
    fn is_null_predicates() {
        let mut v = Vector::new(ColData::new(TypeId::I64));
        v.push(&Value::I64(1)).unwrap();
        v.push(&Value::Null).unwrap();
        let batch = Batch::new(vec![v]);
        let e = PhysExpr::IsNull(Box::new(col(0, TypeId::I64)));
        assert_eq!(e.eval_select(&batch).unwrap().as_slice(), &[1]);
        let e = PhysExpr::IsNotNull(Box::new(col(0, TypeId::I64)));
        assert_eq!(e.eval_select(&batch).unwrap().as_slice(), &[0]);
    }

    #[test]
    fn cast_widen_and_string() {
        let batch = Batch::new(vec![Vector::new(ColData::I32(vec![1, 2]))]);
        let e = PhysExpr::Cast { input: Box::new(col(0, TypeId::I32)), to: TypeId::F64 };
        assert_eq!(e.eval(&batch).unwrap().get(1), Value::F64(2.0));
        let e = PhysExpr::Cast { input: Box::new(col(0, TypeId::I32)), to: TypeId::Str };
        assert_eq!(e.eval(&batch).unwrap().get(0), Value::Str("1".into()));
    }

    #[test]
    fn selection_respected_by_eval_select() {
        let mut batch = batch_i64((0..10).collect());
        batch.sel = Some(SelVec::from_positions(vec![0, 1, 2]));
        let e = PhysExpr::Cmp {
            op: CmpOp::Gt,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(lit_i64(0)),
        };
        let s = e.eval_select(&batch).unwrap();
        assert_eq!(s.as_slice(), &[1, 2], "rows outside sel must not leak in");
    }

    #[test]
    fn lazy_overflow_error_surfaces() {
        let batch = batch_i64(vec![i64::MAX, 1]);
        let e = PhysExpr::Arith {
            op: BinOp::Add,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(lit_i64(1)),
            ty: TypeId::I64,
        };
        assert!(matches!(e.eval(&batch), Err(VwError::Overflow(_))));
    }
}
