//! Bound, typed SQL expressions (`SqlExpr`) — the expression language of
//! the logical plan / X100 algebra.
//!
//! `SqlExpr` is a superset of the kernel's `PhysExpr`: it may still contain
//! [`ExtFunc`] nodes (COALESCE and friends) and `IN`-lists, which the
//! rewriter expands into kernel constructs before cross-compilation.
//! [`SqlExpr::lower`] maps what is left onto `PhysExpr` 1:1.

pub use vw_exec::expr::{BinOp, CmpOp, Func as KernelFunc};

use vw_common::{Result, TypeId, Value, VwError};
use vw_exec::expr::PhysExpr;

/// SQL-level functions that have no kernel primitive: the rewriter expands
/// them into combinations of CASE, comparisons and kernel functions —
/// exactly the paper's "implemented in the rewriter phase" category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtFunc {
    /// `COALESCE(a, b, ...)` — first non-NULL argument.
    Coalesce,
    /// `NULLIF(a, b)` — NULL if a = b else a.
    NullIf,
    /// `IFNULL(a, b)` — b if a is NULL else a.
    IfNull,
    /// `GREATEST(a, b, ...)`.
    Greatest,
    /// `LEAST(a, b, ...)`.
    Least,
    /// `SIGN(x)` → -1, 0, 1.
    Sign,
}

impl ExtFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            ExtFunc::Coalesce => "COALESCE",
            ExtFunc::NullIf => "NULLIF",
            ExtFunc::IfNull => "IFNULL",
            ExtFunc::Greatest => "GREATEST",
            ExtFunc::Least => "LEAST",
            ExtFunc::Sign => "SIGN",
        }
    }
}

/// A bound scalar expression over the input's column indices.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Input column.
    Col(usize, TypeId),
    /// Literal (type recorded for NULL literals too).
    Lit(Value, TypeId),
    /// Arithmetic, operands already promoted to `ty`.
    Arith {
        /// Operator.
        op: BinOp,
        /// Left.
        l: Box<SqlExpr>,
        /// Right.
        r: Box<SqlExpr>,
        /// Operand/result type.
        ty: TypeId,
    },
    /// Comparison (operands same type).
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left.
        l: Box<SqlExpr>,
        /// Right.
        r: Box<SqlExpr>,
    },
    /// Conjunction.
    And(Vec<SqlExpr>),
    /// Disjunction.
    Or(Vec<SqlExpr>),
    /// Negation.
    Not(Box<SqlExpr>),
    /// Cast.
    Cast {
        /// Input.
        input: Box<SqlExpr>,
        /// Target type.
        to: TypeId,
    },
    /// IS NULL.
    IsNull(Box<SqlExpr>),
    /// IS NOT NULL.
    IsNotNull(Box<SqlExpr>),
    /// CASE.
    Case {
        /// WHEN/THEN pairs.
        branches: Vec<(SqlExpr, SqlExpr)>,
        /// ELSE.
        else_expr: Option<Box<SqlExpr>>,
        /// Result type.
        ty: TypeId,
    },
    /// Kernel-native function.
    Func {
        /// Which kernel function.
        func: KernelFunc,
        /// Arguments.
        args: Vec<SqlExpr>,
        /// Result type.
        ty: TypeId,
    },
    /// Extended function awaiting rewriter expansion.
    Ext {
        /// Which extended function.
        func: ExtFunc,
        /// Arguments.
        args: Vec<SqlExpr>,
        /// Result type.
        ty: TypeId,
    },
    /// LIKE with constant pattern.
    Like {
        /// Input.
        input: Box<SqlExpr>,
        /// Pattern.
        pattern: String,
        /// NOT LIKE?
        negated: bool,
    },
    /// `x [NOT] IN (v1, v2, ...)` (rewriter-expanded).
    InList {
        /// Input.
        input: Box<SqlExpr>,
        /// Members (same type as input).
        list: Vec<SqlExpr>,
        /// NOT IN?
        negated: bool,
    },
}

impl SqlExpr {
    /// The expression's type.
    pub fn type_id(&self) -> TypeId {
        match self {
            SqlExpr::Col(_, ty) | SqlExpr::Lit(_, ty) => *ty,
            SqlExpr::Arith { ty, .. } => *ty,
            SqlExpr::Cmp { .. }
            | SqlExpr::And(_)
            | SqlExpr::Or(_)
            | SqlExpr::Not(_)
            | SqlExpr::IsNull(_)
            | SqlExpr::IsNotNull(_)
            | SqlExpr::Like { .. }
            | SqlExpr::InList { .. } => TypeId::Bool,
            SqlExpr::Cast { to, .. } => *to,
            SqlExpr::Case { ty, .. } => *ty,
            SqlExpr::Func { ty, .. } => *ty,
            SqlExpr::Ext { ty, .. } => *ty,
        }
    }

    /// Visit all children.
    pub fn children(&self) -> Vec<&SqlExpr> {
        match self {
            SqlExpr::Col(..) | SqlExpr::Lit(..) => vec![],
            SqlExpr::Arith { l, r, .. } | SqlExpr::Cmp { l, r, .. } => vec![l, r],
            SqlExpr::And(v) | SqlExpr::Or(v) => v.iter().collect(),
            SqlExpr::Not(e) | SqlExpr::Cast { input: e, .. } => vec![e],
            SqlExpr::IsNull(e) | SqlExpr::IsNotNull(e) => vec![e],
            SqlExpr::Case { branches, else_expr, .. } => {
                let mut out: Vec<&SqlExpr> = Vec::new();
                for (c, v) in branches {
                    out.push(c);
                    out.push(v);
                }
                if let Some(e) = else_expr {
                    out.push(e);
                }
                out
            }
            SqlExpr::Func { args, .. } | SqlExpr::Ext { args, .. } => args.iter().collect(),
            SqlExpr::Like { input, .. } => vec![input],
            SqlExpr::InList { input, list, .. } => {
                let mut out = vec![input.as_ref()];
                out.extend(list.iter());
                out
            }
        }
    }

    /// Collect referenced column indices into `out`.
    pub fn collect_cols(&self, out: &mut Vec<usize>) {
        if let SqlExpr::Col(i, _) = self {
            out.push(*i);
        }
        for c in self.children() {
            c.collect_cols(out);
        }
    }

    /// Rebuild the expression with `f` applied to each direct child, in
    /// place; leaves come back as they are. The one child walk: column
    /// remapping, constant folding and the rewriter's rule driver are
    /// built on it.
    pub fn map_children(
        mut self,
        f: &mut dyn FnMut(SqlExpr) -> Result<SqlExpr>,
    ) -> Result<SqlExpr> {
        // The child is moved out past an empty AND, which allocates nothing.
        let mut go = |e: &mut SqlExpr| -> Result<()> {
            *e = f(std::mem::replace(e, SqlExpr::And(Vec::new())))?;
            Ok(())
        };
        match &mut self {
            SqlExpr::Col(..) | SqlExpr::Lit(..) => {}
            SqlExpr::Arith { l, r, .. } | SqlExpr::Cmp { l, r, .. } => {
                go(l)?;
                go(r)?;
            }
            SqlExpr::And(v)
            | SqlExpr::Or(v)
            | SqlExpr::Func { args: v, .. }
            | SqlExpr::Ext { args: v, .. } => v.iter_mut().try_for_each(&mut go)?,
            SqlExpr::Not(e)
            | SqlExpr::Cast { input: e, .. }
            | SqlExpr::IsNull(e)
            | SqlExpr::IsNotNull(e)
            | SqlExpr::Like { input: e, .. } => go(e)?,
            SqlExpr::Case { branches, else_expr, .. } => {
                for (c, v) in branches {
                    go(c)?;
                    go(v)?;
                }
                if let Some(e) = else_expr {
                    go(e)?;
                }
            }
            SqlExpr::InList { input, list, .. } => {
                go(input)?;
                list.iter_mut().try_for_each(&mut go)?;
            }
        }
        Ok(self)
    }

    /// Rewrite column references through `map` (new index per old index);
    /// errors if a referenced column is not mapped.
    pub fn remap_cols(&self, map: &dyn Fn(usize) -> Option<usize>) -> Result<SqlExpr> {
        fn remap(e: SqlExpr, map: &dyn Fn(usize) -> Option<usize>) -> Result<SqlExpr> {
            match e {
                SqlExpr::Col(i, ty) => map(i)
                    .map(|ni| SqlExpr::Col(ni, ty))
                    .ok_or_else(|| VwError::Plan(format!("column {i} not available after remap"))),
                other => other.map_children(&mut |c| remap(c, map)),
            }
        }
        remap(self.clone(), map)
    }

    /// Lower to the kernel's expression, 1:1. Any surviving extended
    /// function or IN-list means the rewriter did not run — a plan error,
    /// not a fallback.
    pub fn lower(&self) -> Result<PhysExpr> {
        let boxed = |e: &SqlExpr| -> Result<Box<PhysExpr>> { Ok(Box::new(e.lower()?)) };
        let all =
            |v: &[SqlExpr]| -> Result<Vec<PhysExpr>> { v.iter().map(SqlExpr::lower).collect() };
        Ok(match self {
            SqlExpr::Col(i, ty) => PhysExpr::ColRef(*i, *ty),
            SqlExpr::Lit(v, ty) => PhysExpr::Const(v.clone(), *ty),
            SqlExpr::Arith { op, l, r, ty } => {
                PhysExpr::Arith { op: *op, lhs: boxed(l)?, rhs: boxed(r)?, ty: *ty }
            }
            SqlExpr::Cmp { op, l, r } => PhysExpr::Cmp { op: *op, lhs: boxed(l)?, rhs: boxed(r)? },
            SqlExpr::And(v) => PhysExpr::And(all(v)?),
            SqlExpr::Or(v) => PhysExpr::Or(all(v)?),
            SqlExpr::Not(x) => PhysExpr::Not(boxed(x)?),
            SqlExpr::Cast { input, to } => PhysExpr::Cast { input: boxed(input)?, to: *to },
            SqlExpr::IsNull(x) => PhysExpr::IsNull(boxed(x)?),
            SqlExpr::IsNotNull(x) => PhysExpr::IsNotNull(boxed(x)?),
            SqlExpr::Case { branches, else_expr, ty } => PhysExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((c.lower()?, v.lower()?)))
                    .collect::<Result<_>>()?,
                else_expr: else_expr.as_deref().map(boxed).transpose()?,
                ty: *ty,
            },
            SqlExpr::Func { func, args, ty } => {
                PhysExpr::FuncCall { func: *func, args: all(args)?, ty: *ty }
            }
            SqlExpr::Like { input, pattern, negated } => {
                PhysExpr::Like { input: boxed(input)?, pattern: pattern.clone(), negated: *negated }
            }
            SqlExpr::Ext { func, .. } => {
                return Err(VwError::Plan(format!(
                    "extended function {} survived the rewriter",
                    func.name()
                )))
            }
            SqlExpr::InList { .. } => {
                return Err(VwError::Plan("IN-list survived the rewriter".into()))
            }
        })
    }

    /// Shift all column references by `delta` (join input concatenation).
    pub fn shift_cols(&self, delta: usize) -> SqlExpr {
        self.remap_cols(&|i| Some(i + delta)).expect("shift never fails")
    }

    /// True if the expression references no columns (constant).
    pub fn is_const(&self) -> bool {
        match self {
            SqlExpr::Col(..) => false,
            SqlExpr::Lit(..) => true,
            other => other.children().into_iter().all(SqlExpr::is_const),
        }
    }

    /// Flatten a conjunction into its conjuncts.
    pub fn conjuncts(self) -> Vec<SqlExpr> {
        match self {
            SqlExpr::And(v) => v.into_iter().flat_map(|e| e.conjuncts()).collect(),
            other => vec![other],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize) -> SqlExpr {
        SqlExpr::Col(i, TypeId::I64)
    }

    fn lit(v: i64) -> SqlExpr {
        SqlExpr::Lit(Value::I64(v), TypeId::I64)
    }

    #[test]
    fn collect_and_shift() {
        let e = SqlExpr::Arith {
            op: BinOp::Add,
            l: Box::new(col(2)),
            r: Box::new(SqlExpr::Cmp { op: CmpOp::Lt, l: Box::new(col(0)), r: Box::new(lit(5)) }),
            ty: TypeId::I64,
        };
        let mut cols = Vec::new();
        e.collect_cols(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 2]);
        let shifted = e.shift_cols(10);
        let mut cols = Vec::new();
        shifted.collect_cols(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![10, 12]);
    }

    #[test]
    fn remap_fails_on_missing() {
        let e = col(3);
        assert!(e.remap_cols(&|i| if i == 0 { Some(0) } else { None }).is_err());
    }

    #[test]
    fn conjunct_flattening() {
        let e = SqlExpr::And(vec![SqlExpr::And(vec![col(0), col(1)]), col(2)]);
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn const_detection() {
        assert!(lit(5).is_const());
        assert!(!col(0).is_const());
    }
}
