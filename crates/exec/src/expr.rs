//! Expression trees and the per-tuple reference interpreter.
//!
//! The expression API is split in two, mirroring X100, with a reference
//! beside it:
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
//! * **Refer** — [`PhysExpr::eval_tuple`] and [`PhysExpr::selects_tuple`]
//!   interpret the tree over one tuple of [`Value`]s. No operator of the
//!   engine calls them. They are what the compiled programs are checked
//!   against (this crate's tests, `expr_differential` in
//!   `tests/sql_semantics.rs`, the set-up check of `c13_exprprog`), and
//!   the expression evaluator the tuple-at-a-time engine (`vw-volcano`)
//!   is handed as closures, so C1 runs one `PhysExpr` both ways. They are
//!   built from [`Value`], [`LikeMatcher`] and [`vw_common::date`] alone
//!   and call no vector kernel and no program item
//!   (`tests/architecture.rs::one_expression_evaluator` holds that): a
//!   fault in a kernel shows as a disagreement, not on both sides of the
//!   check.
//!
//! NULLs follow the production Vectorwise design (paper §1, "NULLs"): a
//! value vector of safe values plus a boolean indicator vector. Kernels stay
//! NULL-oblivious; indicator propagation (OR of input indicators) is
//! composed around them. (The per-value-NULL-test strawman it is measured
//! against is written out in bench C6.) The reference has no safe values:
//! a NULL is [`Value::Null`], so where a program must take care of one —
//! a NULL denominator holds 0, which the `DivRemI64` instruction patches
//! to 1 before the kernel runs, the paper's "special algorithms in the
//! kernel" — the reference checks that it did.
//!
//! [`program`]: crate::program

use vw_common::date::DateField;
use vw_common::{Date, Result, TypeId, Value, VwError};

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

    /// The expression's value over one tuple: the reference interpreter
    /// the compiled programs are checked against, and the expression
    /// evaluator of the tuple-at-a-time engine.
    ///
    /// Every node evaluates all of its operands, in [`children`] order,
    /// before it combines them — CASE and AND/OR too — as a program runs
    /// every instruction over every live lane: an operand that errors on
    /// the tuple makes the whole expression error, whichever arm is taken.
    /// A NULL operand makes the node NULL except where three-valued logic
    /// says otherwise (AND/OR, IS NULL, IS NOT NULL, CASE).
    ///
    /// It is built from [`Value`] ([`Value::sql_cmp`], [`Value::cast_to`]),
    /// [`LikeMatcher`] and [`vw_common::date`] alone, and shares no kernel
    /// with the programs it checks.
    ///
    /// [`children`]: PhysExpr::children
    pub fn eval_tuple(&self, row: &[Value]) -> Result<Value> {
        let all = |xs: &[PhysExpr]| -> Result<Vec<Value>> {
            xs.iter().map(|x| x.eval_tuple(row)).collect()
        };
        Ok(match self {
            PhysExpr::ColRef(i, _) => row[*i].clone(),
            PhysExpr::Const(k, _) => k.clone(),
            PhysExpr::Arith { op, lhs, rhs, ty } => {
                tuple_arith(*op, *ty, &lhs.eval_tuple(row)?, &rhs.eval_tuple(row)?)?
            }
            PhysExpr::Cmp { op, lhs, rhs } => {
                match (lhs.eval_tuple(row)?, rhs.eval_tuple(row)?) {
                    (Value::Null, _) | (_, Value::Null) => Value::Null,
                    // Non-NULL values of incomparable types compare FALSE.
                    (a, b) => Value::Bool(a.sql_cmp(&b).is_some_and(|o| op.holds(o))),
                }
            }
            PhysExpr::And(parts) | PhysExpr::Or(parts) => {
                // The dominant value (FALSE for AND, TRUE for OR) wins,
                // then NULL, then the other.
                let is_and = matches!(self, PhysExpr::And(_));
                let mut unknown = false;
                for x in all(parts)? {
                    match x {
                        Value::Null => unknown = true,
                        x if x.as_bool()? != is_and => return Ok(Value::Bool(!is_and)),
                        _ => {}
                    }
                }
                if unknown {
                    Value::Null
                } else {
                    Value::Bool(is_and)
                }
            }
            PhysExpr::Not(x) => match x.eval_tuple(row)? {
                Value::Null => Value::Null,
                b => Value::Bool(!b.as_bool()?),
            },
            PhysExpr::Cast { input, to } => input.eval_tuple(row)?.cast_to(*to)?,
            PhysExpr::IsNull(x) => Value::Bool(x.eval_tuple(row)?.is_null()),
            PhysExpr::IsNotNull(x) => Value::Bool(!x.eval_tuple(row)?.is_null()),
            PhysExpr::Case { branches, else_expr, .. } => {
                let arms = branches
                    .iter()
                    .map(|(c, v)| Ok((c.eval_tuple(row)?, v.eval_tuple(row)?)))
                    .collect::<Result<Vec<_>>>()?;
                let other = else_expr.as_ref().map(|e| e.eval_tuple(row)).transpose()?;
                match arms.into_iter().find(|(c, _)| *c == Value::Bool(true)) {
                    Some((_, v)) => v,
                    None => other.unwrap_or(Value::Null),
                }
            }
            PhysExpr::FuncCall { func, args, .. } => {
                let args = all(args)?;
                if args.iter().any(Value::is_null) {
                    Value::Null
                } else {
                    tuple_func(*func, &args)?
                }
            }
            PhysExpr::Like { input, pattern, negated } => match input.eval_tuple(row)? {
                Value::Null => Value::Null,
                s => Value::Bool(LikeMatcher::new(pattern).matches(s.as_str()?) != *negated),
            },
        })
    }

    /// Whether the predicate selects the tuple (it is TRUE; NULL is not):
    /// the reference for [`SelectProgram`]. AND tries its conjuncts in
    /// order and stops at the first that does not select the tuple, as the
    /// program narrows its selection conjunct by conjunct; OR tries every
    /// arm, as the program runs each under the incoming selection. Any
    /// other node is [`eval_tuple`](PhysExpr::eval_tuple).
    ///
    /// [`SelectProgram`]: crate::program::SelectProgram
    pub fn selects_tuple(&self, row: &[Value]) -> Result<bool> {
        match self {
            PhysExpr::And(parts) => {
                for p in parts {
                    if !p.selects_tuple(row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            PhysExpr::Or(parts) => {
                parts.iter().try_fold(false, |any, p| Ok(p.selects_tuple(row)? || any))
            }
            other => Ok(other.eval_tuple(row)? == Value::Bool(true)),
        }
    }
}

/// Arithmetic on one pair of values: BIGINT checked, DOUBLE as IEEE
/// (division by zero is an error, not infinity); NULL in, NULL out.
fn tuple_arith(op: BinOp, ty: TypeId, a: &Value, b: &Value) -> Result<Value> {
    if !matches!(ty, TypeId::I64 | TypeId::F64) {
        return Err(VwError::Plan(format!(
            "arithmetic on {} must be pre-promoted to BIGINT or DOUBLE",
            ty.sql_name()
        )));
    }
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    if ty == TypeId::F64 {
        let (x, y) = (a.as_f64()?, b.as_f64()?);
        if matches!(op, BinOp::Div | BinOp::Rem) && y == 0.0 {
            return Err(VwError::DivideByZero);
        }
        return Ok(Value::F64(match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Rem => x % y,
        }));
    }
    let (x, y) = (a.as_i64()?, b.as_i64()?);
    let (r, what) = match op {
        BinOp::Add => (x.checked_add(y), "BIGINT +"),
        BinOp::Sub => (x.checked_sub(y), "BIGINT -"),
        BinOp::Mul => (x.checked_mul(y), "BIGINT *"),
        BinOp::Div | BinOp::Rem if y == 0 => return Err(VwError::DivideByZero),
        BinOp::Div => (x.checked_div(y), "BIGINT /"),
        // MIN % -1 is 0: the remainder cannot overflow.
        BinOp::Rem => (Some(x.wrapping_rem(y)), "BIGINT %"),
    };
    r.map(Value::I64).ok_or(VwError::Overflow(what))
}

fn arg_err(func: Func, msg: &str) -> VwError {
    VwError::InvalidParameter(format!("{func:?}: {msg}"))
}

/// One native function call on non-NULL argument values.
fn tuple_func(func: Func, a: &[Value]) -> Result<Value> {
    let text = |i: usize| a[i].as_str();
    let date = |i: usize| match a[i] {
        Value::Date(d) => Ok(d.0),
        _ => Err(arg_err(func, "arguments must be DATE")),
    };
    Ok(match func {
        Func::Upper => Value::Str(text(0)?.to_uppercase()),
        Func::Lower => Value::Str(text(0)?.to_lowercase()),
        Func::Trim => Value::Str(text(0)?.trim().to_string()),
        Func::Length => Value::I64(text(0)?.chars().count() as i64),
        Func::Substr => {
            let start = a[1].as_i64()?;
            if start < 1 {
                return Err(arg_err(func, "start position must be >= 1"));
            }
            let take = match a.get(2).map(Value::as_i64).transpose()? {
                Some(l) if l < 0 => return Err(arg_err(func, "length must be >= 0")),
                Some(l) => l as usize,
                None => usize::MAX,
            };
            Value::Str(text(0)?.chars().skip(start as usize - 1).take(take).collect())
        }
        Func::Concat => Value::Str(format!("{}{}", text(0)?, text(1)?)),
        Func::Replace => match text(1)? {
            "" => a[0].clone(),
            from => Value::Str(text(0)?.replace(from, text(2)?)),
        },
        Func::Abs => match a[0] {
            Value::I64(x) => Value::I64(x.checked_abs().ok_or(VwError::Overflow("ABS"))?),
            Value::F64(x) => Value::F64(x.abs()),
            ref other => return Err(arg_err(func, &format!("bad input {other:?}"))),
        },
        Func::Sqrt => match a[0].as_f64()? {
            x if x < 0.0 => return Err(arg_err(func, "negative input")),
            x => Value::F64(x.sqrt()),
        },
        Func::Floor => Value::F64(a[0].as_f64()?.floor()),
        Func::Ceil => Value::F64(a[0].as_f64()?.ceil()),
        Func::Round => Value::F64(a[0].as_f64()?.round()),
        Func::Extract => Value::I64(decode_field(a[1].as_i64()?)?.extract(date(0)?) as i64),
        Func::DateAddDays => {
            let days = i64::from(date(0)?).checked_add(a[1].as_i64()?);
            let days = days.and_then(|d| i32::try_from(d).ok());
            Value::Date(Date(days.ok_or(VwError::Overflow("DATE + days"))?))
        }
        Func::DateAddMonths => {
            let months =
                i32::try_from(a[1].as_i64()?).map_err(|_| VwError::Overflow("DATE + months"))?;
            Value::Date(Date(vw_common::date::add_months(date(0)?, months)?))
        }
        Func::DateDiffDays => Value::I64(i64::from(date(0)?) - i64::from(date(1)?)),
    })
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
    use crate::program::{ExprProgram, SelectProgram, VectorPool};
    use crate::vector::{vector_from_values, Batch, Vector};
    use vw_common::{ColData, SelVec};

    /// The tuple at position `pos` of `batch`.
    fn tuple(batch: &Batch, pos: usize) -> Vec<Value> {
        batch.columns.iter().map(|c| c.get(pos)).collect()
    }

    /// `e` at every live row of `batch`, through the reference and through
    /// the compiled program: asserts that they agree (both failing with the
    /// same error code counts) and returns the answer.
    fn values(e: &PhysExpr, batch: &Batch) -> Result<Vec<Value>> {
        let reference: Result<Vec<Value>> =
            batch.live().map(|i| e.eval_tuple(&tuple(batch, i))).collect();
        let mut pool = VectorPool::new();
        let compiled = ExprProgram::compile(e).run(&mut pool, batch).map(|r| {
            let v = pool.get(batch, r);
            batch.live().map(|i| v.get(i)).collect::<Vec<_>>()
        });
        agree(e, &reference, &compiled);
        reference
    }

    /// The live positions of `batch` that predicate `e` selects, through
    /// the reference and through the compiled select program (checked to
    /// agree).
    fn selected(e: &PhysExpr, batch: &Batch) -> Result<Vec<u32>> {
        let mut reference = Vec::new();
        let reference = batch
            .live()
            .try_for_each(|i| {
                e.selects_tuple(&tuple(batch, i))
                    .map(|keep| reference.extend(keep.then_some(i as u32)))
            })
            .map(|()| reference);
        let compiled = SelectProgram::compile(e)
            .run(&mut VectorPool::new(), batch)
            .map(|s| s.as_slice().to_vec());
        agree(e, &reference, &compiled);
        reference
    }

    fn agree<T: PartialEq + std::fmt::Debug>(e: &PhysExpr, a: &Result<T>, b: &Result<T>) {
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "reference vs program for {e:?}"),
            (Err(x), Err(y)) => assert_eq!(x.code(), y.code(), "{x} vs {y} for {e:?}"),
            _ => panic!("reference {a:?} vs program {b:?} for {e:?}"),
        }
    }

    fn batch_i64(vals: Vec<i64>) -> Batch {
        Batch::new(vec![Vector::new(ColData::I64(vals))])
    }

    fn column(ty: TypeId, vals: &[Value]) -> Vector {
        vector_from_values(ty, vals).unwrap()
    }

    fn col(i: usize, ty: TypeId) -> PhysExpr {
        PhysExpr::ColRef(i, ty)
    }

    fn lit_i64(v: i64) -> PhysExpr {
        PhysExpr::Const(Value::I64(v), TypeId::I64)
    }

    fn arith(op: BinOp, lhs: PhysExpr, rhs: PhysExpr, ty: TypeId) -> PhysExpr {
        PhysExpr::Arith { op, lhs: Box::new(lhs), rhs: Box::new(rhs), ty }
    }

    fn cmp(op: CmpOp, lhs: PhysExpr, rhs: PhysExpr) -> PhysExpr {
        PhysExpr::Cmp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    #[test]
    fn arithmetic_and_nulls_two_column() {
        let batch =
            Batch::new(vec![column(TypeId::I64, &[Value::I64(10), Value::Null, Value::I64(30)])]);
        let e = arith(BinOp::Add, col(0, TypeId::I64), lit_i64(5), TypeId::I64);
        assert_eq!(values(&e, &batch).unwrap(), [Value::I64(15), Value::Null, Value::I64(35)]);
    }

    #[test]
    fn null_operands_make_null_and_a_zero_divisor_errors() {
        let batch = Batch::new(vec![
            column(TypeId::I64, &[Value::Null]),
            Vector::new(ColData::I64(vec![5])),
        ]);
        let (a, b) = (col(0, TypeId::I64), col(1, TypeId::I64));
        let sum = arith(BinOp::Add, a.clone(), b.clone(), TypeId::I64);
        assert_eq!(values(&sum, &batch).unwrap(), [Value::Null]);
        assert_eq!(values(&cmp(CmpOp::Eq, a, b.clone()), &batch).unwrap(), [Value::Null]);
        let div = arith(BinOp::Div, b, lit_i64(0), TypeId::I64);
        assert!(matches!(values(&div, &batch), Err(VwError::DivideByZero)));
    }

    #[test]
    fn division_by_null_is_null_not_error() {
        let batch = Batch::new(vec![
            Vector::new(ColData::I64(vec![10, 10])),
            column(TypeId::I64, &[Value::I64(2), Value::Null]),
        ]);
        for (op, first) in [(BinOp::Div, 5), (BinOp::Rem, 0)] {
            let e = arith(op, col(0, TypeId::I64), col(1, TypeId::I64), TypeId::I64);
            assert_eq!(values(&e, &batch).unwrap(), [Value::I64(first), Value::Null], "{op:?}");
        }
    }

    #[test]
    fn division_by_zero_is_error() {
        let batch = Batch::new(vec![
            Vector::new(ColData::I64(vec![10])),
            Vector::new(ColData::I64(vec![0])),
        ]);
        for op in [BinOp::Div, BinOp::Rem] {
            let e = arith(op, col(0, TypeId::I64), col(1, TypeId::I64), TypeId::I64);
            assert!(matches!(values(&e, &batch), Err(VwError::DivideByZero)), "{op:?}");
        }
    }

    #[test]
    fn float_div_zero_checked_but_not_under_null() {
        // The NULL's safe value is 0.0: no error, a NULL result.
        let batch = Batch::new(vec![
            Vector::new(ColData::F64(vec![1.0, 1.0])),
            column(TypeId::F64, &[Value::Null, Value::F64(4.0)]),
        ]);
        let e = arith(BinOp::Div, col(0, TypeId::F64), col(1, TypeId::F64), TypeId::F64);
        assert_eq!(values(&e, &batch).unwrap(), [Value::Null, Value::F64(0.25)]);
        let zero = Batch::new(vec![
            Vector::new(ColData::F64(vec![1.0])),
            Vector::new(ColData::F64(vec![-0.0])),
        ]);
        assert!(matches!(values(&e, &zero), Err(VwError::DivideByZero)));
    }

    #[test]
    fn select_on_comparison() {
        let batch = batch_i64((0..100).collect());
        let e = cmp(CmpOp::Lt, col(0, TypeId::I64), lit_i64(10));
        assert_eq!(selected(&e, &batch).unwrap(), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn and_narrows_or_unions() {
        let batch = batch_i64((0..20).collect());
        let ge5 = cmp(CmpOp::Ge, col(0, TypeId::I64), lit_i64(5));
        let lt10 = cmp(CmpOp::Lt, col(0, TypeId::I64), lit_i64(10));
        let and = PhysExpr::And(vec![ge5.clone(), lt10]);
        assert_eq!(selected(&and, &batch).unwrap().len(), 5);
        let lt3 = cmp(CmpOp::Lt, col(0, TypeId::I64), lit_i64(3));
        let or = PhysExpr::Or(vec![lt3, ge5]);
        assert_eq!(selected(&or, &batch).unwrap().len(), 18);
    }

    /// As a predicate, AND stops at the first conjunct that is not TRUE
    /// (a later one is not evaluated for that row), while OR, and AND as
    /// a value, evaluate everything.
    #[test]
    fn a_predicate_and_stops_where_a_value_and_does_not() {
        let batch = batch_i64(vec![0, 4]);
        let nonzero = cmp(CmpOp::Ne, col(0, TypeId::I64), lit_i64(0));
        let eight_over = cmp(
            CmpOp::Eq,
            arith(BinOp::Div, lit_i64(8), col(0, TypeId::I64), TypeId::I64),
            lit_i64(2),
        );
        let and = PhysExpr::And(vec![nonzero.clone(), eight_over.clone()]);
        assert_eq!(selected(&and, &batch).unwrap(), [1]);
        assert!(matches!(values(&and, &batch), Err(VwError::DivideByZero)));
        let or = PhysExpr::Or(vec![PhysExpr::Not(Box::new(nonzero)), eight_over]);
        assert!(matches!(selected(&or, &batch), Err(VwError::DivideByZero)));
    }

    #[test]
    fn three_valued_logic() {
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL; NULL OR TRUE = TRUE.
        let batch = Batch::new(vec![column(TypeId::Bool, &[Value::Null])]);
        let null_b = col(0, TypeId::Bool);
        let t = PhysExpr::bool_const(true);
        let f = PhysExpr::bool_const(false);
        let and_f = PhysExpr::And(vec![null_b.clone(), f]);
        assert_eq!(values(&and_f, &batch).unwrap(), [Value::Bool(false)]);
        let and_t = PhysExpr::And(vec![null_b.clone(), t.clone()]);
        assert_eq!(values(&and_t, &batch).unwrap(), [Value::Null]);
        let or_t = PhysExpr::Or(vec![null_b.clone(), t]);
        assert_eq!(values(&or_t, &batch).unwrap(), [Value::Bool(true)]);
        assert_eq!(values(&PhysExpr::Not(Box::new(null_b)), &batch).unwrap(), [Value::Null]);
    }

    #[test]
    fn case_expression() {
        let batch = batch_i64(vec![1, 5, 9]);
        let text = |s: &str| PhysExpr::Const(Value::Str(s.into()), TypeId::Str);
        let e = PhysExpr::Case {
            branches: vec![(cmp(CmpOp::Lt, col(0, TypeId::I64), lit_i64(4)), text("small"))],
            else_expr: Some(Box::new(text("big"))),
            ty: TypeId::Str,
        };
        let want = ["small", "big", "big"].map(|s| Value::Str(s.into()));
        assert_eq!(values(&e, &batch).unwrap(), want);
        // No arm holds and no ELSE: NULL. A NULL condition does not hold.
        let e = PhysExpr::Case {
            branches: vec![(
                cmp(CmpOp::Lt, col(0, TypeId::I64), PhysExpr::Const(Value::Null, TypeId::I64)),
                lit_i64(1),
            )],
            else_expr: None,
            ty: TypeId::I64,
        };
        assert_eq!(values(&e, &batch).unwrap(), [Value::Null, Value::Null, Value::Null]);
    }

    #[test]
    fn string_functions() {
        let batch =
            Batch::new(vec![Vector::new(ColData::Str(vec!["  Hello  ".into(), "World".into()]))]);
        let call =
            |func| PhysExpr::FuncCall { func, args: vec![col(0, TypeId::Str)], ty: TypeId::Str };
        assert_eq!(values(&call(Func::Upper), &batch).unwrap()[1], Value::Str("WORLD".into()));
        assert_eq!(values(&call(Func::Trim), &batch).unwrap()[0], Value::Str("Hello".into()));
    }

    #[test]
    fn substr_invalid_parameter_detected() {
        let batch = Batch::new(vec![Vector::new(ColData::Str(vec!["abc".into()]))]);
        let substr = |start| PhysExpr::FuncCall {
            func: Func::Substr,
            args: vec![col(0, TypeId::Str), lit_i64(start)],
            ty: TypeId::Str,
        };
        assert!(matches!(values(&substr(0), &batch), Err(VwError::InvalidParameter(_))));
        assert_eq!(values(&substr(2), &batch).unwrap(), [Value::Str("bc".into())]);
    }

    #[test]
    fn date_functions() {
        let d = Date::parse("1996-03-13").unwrap();
        let batch = Batch::new(vec![Vector::new(ColData::Date(vec![d.0]))]);
        let date_fn = |func, arg, ty| PhysExpr::FuncCall {
            func,
            args: vec![col(0, TypeId::Date), lit_i64(arg)],
            ty,
        };
        let year = date_fn(Func::Extract, encode_field(DateField::Year), TypeId::I64);
        assert_eq!(values(&year, &batch).unwrap(), [Value::I64(1996)]);
        let plus = date_fn(Func::DateAddDays, 30, TypeId::Date);
        assert_eq!(
            values(&plus, &batch).unwrap(),
            [Value::Date(Date::parse("1996-04-12").unwrap())]
        );
        // Past the DATE range is a typed overflow, also where the sum
        // leaves BIGINT itself.
        for days in [i64::MAX, i64::MIN, i64::from(i32::MAX)] {
            let e = date_fn(Func::DateAddDays, days, TypeId::Date);
            assert!(matches!(values(&e, &batch), Err(VwError::Overflow("DATE + days"))), "{days}");
        }
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
        let batch =
            Batch::new(vec![column(TypeId::Str, &[Value::Str("promo pack".into()), Value::Null])]);
        let e = PhysExpr::Like {
            input: Box::new(col(0, TypeId::Str)),
            pattern: "promo%".into(),
            negated: false,
        };
        assert_eq!(values(&e, &batch).unwrap(), [Value::Bool(true), Value::Null]);
        // As a predicate, NULL rows are filtered out.
        assert_eq!(selected(&e, &batch).unwrap(), [0]);
    }

    #[test]
    fn is_null_predicates() {
        let batch = Batch::new(vec![column(TypeId::I64, &[Value::I64(1), Value::Null])]);
        let e = PhysExpr::IsNull(Box::new(col(0, TypeId::I64)));
        assert_eq!(selected(&e, &batch).unwrap(), [1]);
        let e = PhysExpr::IsNotNull(Box::new(col(0, TypeId::I64)));
        assert_eq!(selected(&e, &batch).unwrap(), [0]);
    }

    #[test]
    fn cast_widen_and_string() {
        let batch = Batch::new(vec![Vector::new(ColData::I32(vec![1, 2]))]);
        let e = PhysExpr::Cast { input: Box::new(col(0, TypeId::I32)), to: TypeId::F64 };
        assert_eq!(values(&e, &batch).unwrap()[1], Value::F64(2.0));
        let e = PhysExpr::Cast { input: Box::new(col(0, TypeId::I32)), to: TypeId::Str };
        assert_eq!(values(&e, &batch).unwrap()[0], Value::Str("1".into()));
        // DOUBLE → BIGINT: 2^63 is out of range, though `i64::MAX as f64`
        // rounds up to it.
        let batch = Batch::new(vec![Vector::new(ColData::F64(vec![9_223_372_036_854_775_808.0]))]);
        let e = PhysExpr::Cast { input: Box::new(col(0, TypeId::F64)), to: TypeId::I64 };
        assert!(matches!(values(&e, &batch), Err(VwError::InvalidCast(_))));
    }

    #[test]
    fn an_incoming_selection_is_respected() {
        let mut batch = batch_i64((0..10).collect());
        batch.sel = Some(SelVec::from_positions(vec![0, 1, 2]));
        let e = cmp(CmpOp::Gt, col(0, TypeId::I64), lit_i64(0));
        assert_eq!(selected(&e, &batch).unwrap(), [1, 2], "rows outside sel must not leak in");
    }

    #[test]
    fn lazy_overflow_error_surfaces() {
        let batch = batch_i64(vec![i64::MAX, 1]);
        let e = arith(BinOp::Add, col(0, TypeId::I64), lit_i64(1), TypeId::I64);
        assert!(matches!(values(&e, &batch), Err(VwError::Overflow(_))));
    }
}
