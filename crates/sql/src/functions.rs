//! The SQL function catalog — "Many Functions".
//!
//! The paper: "SQL standard contains a plethora of functions ... This
//! resulted in dozens of new functions added to the system. ... Some
//! functions were implemented in the rewriter phase ... For others, manual
//! implementation was needed."
//!
//! This module binds a SQL function call. A name with a kernel primitive
//! ([`Func`], "manual implementation") becomes a `FuncCall` under its
//! typing rule. The others — COALESCE, NULLIF, IFNULL/NVL, GREATEST, LEAST
//! and SIGN — become the CASE/comparison tree that computes them, and
//! `x [NOT] IN (a, b, …)` becomes `[NOT] (x = a OR x = b OR …)` ([`in_list`]):
//! the paper's "expressing as combinations of other functions", done here,
//! where the arguments are already typed, so no later stage sees a
//! SQL-only node. Aggregates are resolved separately by the binder.

use crate::binder::cast_to;
use vw_common::{Result, TypeId, Value, VwError};
use vw_exec::expr::{CmpOp, Func, PhysExpr};

fn is_null_lit(e: &PhysExpr) -> bool {
    matches!(e, PhysExpr::Const(v, _) if v.is_null())
}

/// The kernel primitive behind an (uppercased) SQL function name.
fn kernel_func(name: &str) -> Option<Func> {
    use Func::*;
    Some(match name {
        "UPPER" | "UCASE" => Upper,
        "LOWER" | "LCASE" => Lower,
        "LENGTH" | "LEN" | "CHAR_LENGTH" | "CHARACTER_LENGTH" => Length,
        "SUBSTR" | "SUBSTRING" => Substr,
        "CONCAT" => Concat,
        "TRIM" => Trim,
        "REPLACE" => Replace,
        "ABS" => Abs,
        "SQRT" => Sqrt,
        "FLOOR" => Floor,
        "CEIL" | "CEILING" => Ceil,
        "ROUND" => Round,
        "DATE_ADD_DAYS" | "ADDDATE" => DateAddDays,
        "DATE_ADD_MONTHS" | "ADD_MONTHS" => DateAddMonths,
        "DATE_DIFF_DAYS" | "DATEDIFF" => DateDiffDays,
        _ => return None,
    })
}

/// The common type of `args`, NULL literals skipped (they adopt it);
/// `None` when every argument is a NULL literal. `err` names a clash.
fn common_type<'a>(
    args: impl IntoIterator<Item = &'a PhysExpr>,
    err: impl Fn(TypeId, TypeId) -> VwError,
) -> Result<Option<TypeId>> {
    let mut ty: Option<TypeId> = None;
    for t in args.into_iter().filter(|a| !is_null_lit(a)).map(PhysExpr::type_id) {
        ty = Some(match ty {
            None => t,
            Some(u) => TypeId::promote(u, t).ok_or_else(|| err(u, t))?,
        });
    }
    Ok(ty)
}

/// `CASE branches ELSE else_expr END`, or `else_expr` itself when no
/// branch is left.
fn case(branches: Vec<(PhysExpr, PhysExpr)>, else_expr: PhysExpr, ty: TypeId) -> PhysExpr {
    if branches.is_empty() {
        return else_expr;
    }
    PhysExpr::Case { branches, else_expr: Some(Box::new(else_expr)), ty }
}

fn cmp(op: CmpOp, l: &PhysExpr, r: &PhysExpr) -> PhysExpr {
    PhysExpr::Cmp { op, lhs: Box::new(l.clone()), rhs: Box::new(r.clone()) }
}

/// Bind the call `name(args)` (`name` uppercased).
pub fn bind(name: &str, args: Vec<PhysExpr>) -> Result<PhysExpr> {
    let err = |msg: String| VwError::Bind(format!("{name}: {msg}"));
    let n = args.len();
    let arity = |want: std::ops::RangeInclusive<usize>| -> Result<()> {
        if want.contains(&n) {
            Ok(())
        } else {
            Err(err(format!("expects {want:?} arguments, got {n}")))
        }
    };
    if let Some(func) = kernel_func(name) {
        let (args, ty) = type_check(func, args, &err, &arity)?;
        return Ok(PhysExpr::FuncCall { func, args, ty });
    }
    // All arguments share one type; NULL literals adopt it.
    let unify = |args: Vec<PhysExpr>| -> Result<(Vec<PhysExpr>, TypeId)> {
        let ty = common_type(&args, |a, b| {
            err(format!("arguments have incompatible types {a} and {b}"))
        })?
        .unwrap_or(TypeId::I64);
        Ok((args.into_iter().map(|a| cast_to(a, ty)).collect(), ty))
    };
    match name {
        // COALESCE(a, b, c) = CASE WHEN a IS NOT NULL THEN a
        //                          WHEN b IS NOT NULL THEN b ELSE c END
        "COALESCE" => {
            arity(1..=8)?;
            let (mut args, ty) = unify(args)?;
            let last = args.pop().unwrap();
            let branches =
                args.into_iter().map(|a| (PhysExpr::IsNotNull(Box::new(a.clone())), a)).collect();
            Ok(case(branches, last, ty))
        }
        "GREATEST" | "LEAST" => {
            arity(1..=8)?;
            let (args, ty) = unify(args)?;
            Ok(extreme(if name == "GREATEST" { CmpOp::Ge } else { CmpOp::Le }, &args, ty))
        }
        // NULLIF(a, b) = CASE WHEN a = b THEN NULL ELSE a END;
        // IFNULL(a, b) = CASE WHEN a IS NULL THEN b ELSE a END.
        "NULLIF" | "IFNULL" | "NVL" => {
            arity(2..=2)?;
            let (mut args, ty) = unify(args)?;
            let (b, a) = (args.pop().unwrap(), args.pop().unwrap());
            let when = if name == "NULLIF" {
                (cmp(CmpOp::Eq, &a, &b), PhysExpr::Const(Value::Null, ty))
            } else {
                (PhysExpr::IsNull(Box::new(a.clone())), b)
            };
            Ok(case(vec![when], a, ty))
        }
        // SIGN(x) = CASE WHEN x IS NULL THEN NULL WHEN x > 0 THEN 1
        //                WHEN x < 0 THEN -1 ELSE 0 END
        "SIGN" => {
            arity(1..=1)?;
            let x = args.into_iter().next().unwrap();
            let (x, zero) = match x.type_id() {
                TypeId::F64 => (x, PhysExpr::Const(Value::F64(0.0), TypeId::F64)),
                t if t.is_integer() => {
                    (cast_to(x, TypeId::I64), PhysExpr::Const(Value::I64(0), TypeId::I64))
                }
                _ => return Err(err("numeric argument expected".into())),
            };
            let int = |v: i64| PhysExpr::Const(Value::I64(v), TypeId::I64);
            let branches = vec![
                (PhysExpr::IsNull(Box::new(x.clone())), PhysExpr::Const(Value::Null, TypeId::I64)),
                (cmp(CmpOp::Gt, &x, &zero), int(1)),
                (cmp(CmpOp::Lt, &x, &zero), int(-1)),
            ];
            Ok(case(branches, int(0), TypeId::I64))
        }
        _ => Err(VwError::Bind(format!("unknown function {name}"))),
    }
}

/// GREATEST (`op` is `>=`) or LEAST (`<=`) by PostgreSQL's rule: NULL
/// arguments are ignored, and the result is NULL only when every argument
/// is. Argument `i` is taken when it is not NULL and beats every later
/// non-NULL argument — the first extreme value is, and every argument
/// before it loses to it — so n arguments build n - 1 WHEN arms of at most
/// n tests each:
/// `CASE WHEN a IS NOT NULL AND (b IS NULL OR a >= b) AND … THEN a … ELSE z END`.
fn extreme(op: CmpOp, args: &[PhysExpr], ty: TypeId) -> PhysExpr {
    let branches =
        (0..args.len() - 1)
            .map(|i| {
                let a = &args[i];
                let mut tests = vec![PhysExpr::IsNotNull(Box::new(a.clone()))];
                tests.extend(args[i + 1..].iter().map(|b| {
                    PhysExpr::Or(vec![PhysExpr::IsNull(Box::new(b.clone())), cmp(op, a, b)])
                }));
                (PhysExpr::And(tests), a.clone())
            })
            .collect();
    case(branches, args[args.len() - 1].clone(), ty)
}

/// `input [NOT] IN (list)` as `[NOT] (input = m1 OR input = m2 …)`, every
/// operand cast to the common type of the input and the members. A NULL
/// literal takes that type, as a COALESCE argument does.
pub fn in_list(input: PhysExpr, list: Vec<PhysExpr>, negated: bool) -> Result<PhysExpr> {
    let ty = common_type(std::iter::once(&input).chain(&list), |_, _| {
        VwError::Bind("IN list has incompatible types".into())
    })?
    .unwrap_or(TypeId::I64);
    let input = cast_to(input, ty);
    let ors = list.into_iter().map(|m| cmp(CmpOp::Eq, &input, &cast_to(m, ty))).collect();
    let ors = PhysExpr::Or(ors);
    Ok(if negated { PhysExpr::Not(Box::new(ors)) } else { ors })
}

/// Type-check a kernel function's arguments: the (possibly coerced)
/// arguments and the result type.
fn type_check(
    func: Func,
    args: Vec<PhysExpr>,
    err: &dyn Fn(String) -> VwError,
    arity: &dyn Fn(std::ops::RangeInclusive<usize>) -> Result<()>,
) -> Result<(Vec<PhysExpr>, TypeId)> {
    let want_str = |e: &PhysExpr| -> Result<()> {
        if e.type_id() == TypeId::Str {
            Ok(())
        } else {
            Err(err(format!("string argument expected, got {}", e.type_id())))
        }
    };
    let to_i64 = |e: PhysExpr| cast_to(e, TypeId::I64);
    use Func::*;
    match func {
        Upper | Lower | Trim => {
            arity(1..=1)?;
            want_str(&args[0])?;
            Ok((args, TypeId::Str))
        }
        Length => {
            arity(1..=1)?;
            want_str(&args[0])?;
            Ok((args, TypeId::I64))
        }
        Substr => {
            arity(2..=3)?;
            want_str(&args[0])?;
            let mut it = args.into_iter();
            let mut out = vec![it.next().unwrap()];
            out.extend(it.map(|a| if a.type_id().is_integer() { to_i64(a) } else { a }));
            for a in &out[1..] {
                if a.type_id() != TypeId::I64 {
                    return Err(err("position/length must be integers".into()));
                }
            }
            Ok((out, TypeId::Str))
        }
        Concat => {
            arity(2..=2)?;
            want_str(&args[0])?;
            want_str(&args[1])?;
            Ok((args, TypeId::Str))
        }
        Replace => {
            arity(3..=3)?;
            for a in &args {
                want_str(a)?;
            }
            Ok((args, TypeId::Str))
        }
        Abs => {
            arity(1..=1)?;
            match args[0].type_id() {
                TypeId::F64 => Ok((args, TypeId::F64)),
                t if t.is_integer() => {
                    let out_args = vec![to_i64(args.into_iter().next().unwrap())];
                    Ok((out_args, TypeId::I64))
                }
                t => Err(err(format!("numeric argument expected, got {t}"))),
            }
        }
        Sqrt | Floor | Ceil | Round => {
            arity(1..=1)?;
            if !args[0].type_id().is_numeric() {
                return Err(err("numeric argument expected".into()));
            }
            let out_args = vec![cast_to(args.into_iter().next().unwrap(), TypeId::F64)];
            Ok((out_args, TypeId::F64))
        }
        Extract => {
            arity(2..=2)?;
            if args[0].type_id() != TypeId::Date {
                return Err(err("DATE argument expected".into()));
            }
            Ok((args, TypeId::I64))
        }
        DateAddDays | DateAddMonths => {
            arity(2..=2)?;
            if args[0].type_id() != TypeId::Date {
                return Err(err("DATE argument expected".into()));
            }
            let mut it = args.into_iter();
            let d = it.next().unwrap();
            let n = to_i64(it.next().unwrap());
            if n.type_id() != TypeId::I64 {
                return Err(err("day count must be an integer".into()));
            }
            Ok((vec![d, n], TypeId::Date))
        }
        DateDiffDays => {
            arity(2..=2)?;
            if args[0].type_id() != TypeId::Date || args[1].type_id() != TypeId::Date {
                return Err(err("two DATE arguments expected".into()));
            }
            Ok((args, TypeId::I64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> PhysExpr {
        PhysExpr::Const(Value::Str(v.into()), TypeId::Str)
    }

    fn i(v: i64) -> PhysExpr {
        PhysExpr::Const(Value::I64(v), TypeId::I64)
    }

    #[test]
    fn kernel_functions_resolve_and_type() {
        assert_eq!(kernel_func("UCASE"), Some(Func::Upper));
        assert_eq!(kernel_func("NO_SUCH_FN"), None);
        assert!(matches!(bind("NO_SUCH_FN", vec![]), Err(VwError::Bind(_))));
        assert_eq!(bind("UPPER", vec![s("x")]).unwrap().type_id(), TypeId::Str);
        assert!(bind("UPPER", vec![i(1)]).is_err());
        assert!(bind("UPPER", vec![s("a"), s("b")]).is_err());
        assert_eq!(bind("LENGTH", vec![s("x")]).unwrap().type_id(), TypeId::I64);
        let PhysExpr::FuncCall { args, ty, .. } = bind("SQRT", vec![i(4)]).unwrap() else {
            panic!()
        };
        assert_eq!(ty, TypeId::F64);
        assert!(matches!(args[0], PhysExpr::Cast { to: TypeId::F64, .. }));
    }

    #[test]
    fn coalesce_promotes_and_null_literals_adopt_the_type() {
        let args = vec![
            PhysExpr::Const(Value::I32(1), TypeId::I32),
            PhysExpr::Const(Value::F64(2.0), TypeId::F64),
        ];
        let PhysExpr::Case { branches, ty, .. } = bind("COALESCE", args).unwrap() else { panic!() };
        assert_eq!(ty, TypeId::F64);
        assert!(matches!(branches[0].1, PhysExpr::Cast { to: TypeId::F64, .. }));
        assert!(bind("COALESCE", vec![s("a"), i(1)]).is_err());
        let null = PhysExpr::Const(Value::Null, TypeId::I64);
        let e = bind("IFNULL", vec![null.clone(), s("b")]).unwrap();
        assert_eq!(e.type_id(), TypeId::Str);
        assert!(bind("NVL", vec![null]).is_err(), "IFNULL takes two arguments");
    }
}
