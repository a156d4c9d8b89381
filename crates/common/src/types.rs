//! The engine's type system: type ids, scalar values, and the `Date` type.
//!
//! The reproduction supports the types the paper's discussion actually needs:
//! booleans, four integer widths, double-precision floats, UTF-8 strings and
//! dates. NULL is *not* a type: following Vectorwise's design, NULLability is
//! tracked as a separate boolean "indicator" column next to a value column
//! holding a "safe" value in NULL positions (see `vw-exec::vector`).

use crate::date::{days_from_ymd, ymd_from_days};
use crate::error::{Result, VwError};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of a concrete column/value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TypeId {
    /// Boolean (`TRUE`/`FALSE`).
    Bool,
    /// 8-bit signed integer (`TINYINT`).
    I8,
    /// 16-bit signed integer (`SMALLINT`).
    I16,
    /// 32-bit signed integer (`INTEGER`).
    I32,
    /// 64-bit signed integer (`BIGINT`).
    I64,
    /// Double-precision float (`DOUBLE`); also stands in for DECIMAL.
    F64,
    /// UTF-8 string (`VARCHAR`).
    Str,
    /// Calendar date, stored as days since 1970-01-01 (`DATE`).
    Date,
}

impl TypeId {
    /// All types, in promotion order for the numeric ones.
    pub const ALL: [TypeId; 8] = [
        TypeId::Bool,
        TypeId::I8,
        TypeId::I16,
        TypeId::I32,
        TypeId::I64,
        TypeId::F64,
        TypeId::Str,
        TypeId::Date,
    ];

    /// The SQL spelling used by the parser and `EXPLAIN` output.
    pub fn sql_name(self) -> &'static str {
        match self {
            TypeId::Bool => "BOOLEAN",
            TypeId::I8 => "TINYINT",
            TypeId::I16 => "SMALLINT",
            TypeId::I32 => "INTEGER",
            TypeId::I64 => "BIGINT",
            TypeId::F64 => "DOUBLE",
            TypeId::Str => "VARCHAR",
            TypeId::Date => "DATE",
        }
    }

    /// Parse a SQL type name (several aliases accepted).
    pub fn from_sql_name(name: &str) -> Option<TypeId> {
        Some(match name.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => TypeId::Bool,
            "TINYINT" | "INT1" => TypeId::I8,
            "SMALLINT" | "INT2" => TypeId::I16,
            "INT" | "INTEGER" | "INT4" => TypeId::I32,
            "BIGINT" | "INT8" => TypeId::I64,
            "DOUBLE" | "FLOAT" | "FLOAT8" | "REAL" | "DECIMAL" | "NUMERIC" => TypeId::F64,
            "VARCHAR" | "CHAR" | "TEXT" | "STRING" => TypeId::Str,
            "DATE" => TypeId::Date,
            _ => return None,
        })
    }

    /// Width in bytes of the in-memory fixed representation
    /// (strings report the pointer-ish width used for costing only).
    pub fn fixed_width(self) -> usize {
        match self {
            TypeId::Bool | TypeId::I8 => 1,
            TypeId::I16 => 2,
            TypeId::I32 | TypeId::Date => 4,
            TypeId::I64 | TypeId::F64 => 8,
            TypeId::Str => 16,
        }
    }

    /// Is this one of the signed integer types?
    pub fn is_integer(self) -> bool {
        matches!(self, TypeId::I8 | TypeId::I16 | TypeId::I32 | TypeId::I64)
    }

    /// Is this a type arithmetic can be performed on?
    pub fn is_numeric(self) -> bool {
        self.is_integer() || self == TypeId::F64
    }

    /// The common type two numeric operands are promoted to, if any.
    /// Mirrors the usual SQL ladder: i8 < i16 < i32 < i64 < f64.
    pub fn promote(a: TypeId, b: TypeId) -> Option<TypeId> {
        if a == b && (a.is_numeric() || a == TypeId::Str || a == TypeId::Date || a == TypeId::Bool)
        {
            return Some(a);
        }
        if a.is_numeric() && b.is_numeric() {
            return Some(a.max(b));
        }
        None
    }

    /// Can `from` be implicitly cast to `self` without information loss
    /// concerns (the binder inserts these casts automatically)?
    pub fn implicit_from(self, from: TypeId) -> bool {
        if self == from {
            return true;
        }
        from.is_numeric() && self.is_numeric() && from < self
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A calendar date stored as days since the Unix epoch (1970-01-01).
///
/// Supports years 1..=9999; arithmetic is proleptic Gregorian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Date(pub i32);

impl Date {
    /// Build a date from year/month/day, validating ranges.
    pub fn from_ymd(y: i32, m: u32, d: u32) -> Result<Date> {
        days_from_ymd(y, m, d).map(Date)
    }

    /// Decompose into (year, month, day).
    pub fn ymd(self) -> (i32, u32, u32) {
        ymd_from_days(self.0)
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Result<Date> {
        let err = || VwError::InvalidCast(format!("'{s}' is not a valid DATE (want YYYY-MM-DD)"));
        let mut it = s.split('-');
        let y: i32 = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let m: u32 = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let d: u32 = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if it.next().is_some() {
            return Err(err());
        }
        Date::from_ymd(y, m, d)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// A single scalar value, as it appears in rows, literals and constants.
///
/// `Null` is a member so that row-oriented code (the Volcano baseline, query
/// results, the catalog) can carry NULLs directly; the vectorized kernel
/// never materializes `Value`s on its hot path.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 8-bit integer.
    I8(i8),
    /// 16-bit integer.
    I16(i16),
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// Double float.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// The type of this value; `None` for NULL (NULL is typed by context).
    pub fn type_id(&self) -> Option<TypeId> {
        Some(match self {
            Value::Null => return None,
            Value::Bool(_) => TypeId::Bool,
            Value::I8(_) => TypeId::I8,
            Value::I16(_) => TypeId::I16,
            Value::I32(_) => TypeId::I32,
            Value::I64(_) => TypeId::I64,
            Value::F64(_) => TypeId::F64,
            Value::Str(_) => TypeId::Str,
            Value::Date(_) => TypeId::Date,
        })
    }

    /// Is this SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The "safe value" stored in the value column at NULL positions for a
    /// given type — the trick Vectorwise uses so that NULL-oblivious kernels
    /// can run over NULLable data without faulting.
    pub fn safe_default(ty: TypeId) -> Value {
        match ty {
            TypeId::Bool => Value::Bool(false),
            TypeId::I8 => Value::I8(0),
            TypeId::I16 => Value::I16(0),
            TypeId::I32 => Value::I32(0),
            TypeId::I64 => Value::I64(0),
            TypeId::F64 => Value::F64(0.0),
            TypeId::Str => Value::Str(String::new()),
            TypeId::Date => Value::Date(Date(0)),
        }
    }

    /// Numeric value widened to i64; error if not an integer type.
    pub fn as_i64(&self) -> Result<i64> {
        Ok(match self {
            Value::I8(v) => *v as i64,
            Value::I16(v) => *v as i64,
            Value::I32(v) => *v as i64,
            Value::I64(v) => *v,
            Value::Bool(b) => *b as i64,
            Value::Date(d) => d.0 as i64,
            other => return Err(VwError::InvalidCast(format!("cannot read {other:?} as integer"))),
        })
    }

    /// Numeric value widened to f64; error for non-numerics.
    pub fn as_f64(&self) -> Result<f64> {
        Ok(match self {
            Value::F64(v) => *v,
            other => other.as_i64()? as f64,
        })
    }

    /// Borrow as &str; error for non-strings.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(VwError::InvalidCast(format!("cannot read {other:?} as string"))),
        }
    }

    /// Borrow as bool; error for non-booleans.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(VwError::InvalidCast(format!("cannot read {other:?} as boolean"))),
        }
    }

    /// Cast to `target`, following SQL-ish conversion rules; overflow and
    /// unparseable strings are reported as errors, never silently wrapped.
    pub fn cast_to(&self, target: TypeId) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        if self.type_id() == Some(target) {
            return Ok(self.clone());
        }
        if let Value::Str(s) = self {
            return Value::cast_str(s, target);
        }
        let overflow = |v: &dyn fmt::Debug| {
            VwError::InvalidCast(format!("{v:?} out of range for {}", target.sql_name()))
        };
        macro_rules! to_int {
            ($variant:ident, $ty:ty) => {{
                match self {
                    Value::F64(f) => {
                        // The bounds are ±2^(bits-1), exact as doubles:
                        // `MAX as f64` rounds up to 2^(bits-1) itself for
                        // BIGINT, which is out of range.
                        let r = f.round();
                        let (lo, hi) = (<$ty>::MIN as f64, -(<$ty>::MIN as f64));
                        if r < lo || r >= hi || r.is_nan() {
                            return Err(overflow(f));
                        }
                        Ok(Value::$variant(r as $ty))
                    }
                    v => {
                        let i = v.as_i64()?;
                        <$ty>::try_from(i).map(Value::$variant).map_err(|_| overflow(&i))
                    }
                }
            }};
        }
        match target {
            TypeId::Bool => Ok(Value::Bool(self.as_i64()? != 0)),
            TypeId::I8 => to_int!(I8, i8),
            TypeId::I16 => to_int!(I16, i16),
            TypeId::I32 => to_int!(I32, i32),
            TypeId::I64 => to_int!(I64, i64),
            TypeId::F64 => Ok(Value::F64(self.as_f64()?)),
            TypeId::Str => Ok(Value::Str(self.to_string())),
            TypeId::Date => match self {
                Value::I32(d) => Ok(Value::Date(Date(*d))),
                v => Err(VwError::InvalidCast(format!("cannot cast {v:?} to DATE"))),
            },
        }
    }

    /// [`Value::cast_to`] of the string `s`, read in place (string kernels
    /// cast arena entries without owning them first).
    pub fn cast_str(s: &str, target: TypeId) -> Result<Value> {
        fn int<T: std::str::FromStr>(s: &str, wrap: fn(T) -> Value) -> Result<Value> {
            s.trim()
                .parse::<T>()
                .map(wrap)
                .map_err(|_| VwError::InvalidCast(format!("'{s}' is not a valid integer")))
        }
        match target {
            TypeId::Bool => match s.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" => Ok(Value::Bool(true)),
                "false" | "f" | "0" => Ok(Value::Bool(false)),
                _ => Err(VwError::InvalidCast(format!("'{s}' is not a boolean"))),
            },
            TypeId::I8 => int(s, Value::I8),
            TypeId::I16 => int(s, Value::I16),
            TypeId::I32 => int(s, Value::I32),
            TypeId::I64 => int(s, Value::I64),
            TypeId::F64 => s
                .trim()
                .parse::<f64>()
                .map(Value::F64)
                .map_err(|_| VwError::InvalidCast(format!("'{s}' is not a valid number"))),
            TypeId::Str => Ok(Value::Str(s.to_owned())),
            TypeId::Date => Date::parse(s).map(Value::Date),
        }
    }

    /// SQL comparison. NULL compares as NULL (returns `None`); floats use
    /// total ordering so sorting is well-defined.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (F64(a), F64(b)) => a.total_cmp(b),
            (a, b) => {
                // All-integer comparisons stay exact — f64 widening loses
                // precision above 2^53, which would make BIGINT compares
                // disagree with the typed kernels (and with themselves
                // after constant folding).
                let int_of = |v: &Value| match v {
                    I8(x) => Some(*x as i64),
                    I16(x) => Some(*x as i64),
                    I32(x) => Some(*x as i64),
                    I64(x) => Some(*x),
                    _ => None,
                };
                if let (Some(x), Some(y)) = (int_of(a), int_of(b)) {
                    x.cmp(&y)
                } else {
                    // Mixed numeric classes compare via widening.
                    match (a.as_f64(), b.as_f64()) {
                        (Ok(x), Ok(y)) => x.total_cmp(&y),
                        _ => return None,
                    }
                }
            }
        })
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // NULL != NULL under SQL, but for hash-table/group-by purposes we
        // need structural equality, which is what this impl provides; SQL
        // three-valued comparison lives in `sql_cmp`.
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (I8(a), I8(b)) => a == b,
            (I16(a), I16(b)) => a == b,
            (I32(a), I32(b)) => a == b,
            (I64(a), I64(b)) => a == b,
            (F64(a), F64(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::I8(v) => v.hash(state),
            Value::I16(v) => v.hash(state),
            Value::I32(v) => v.hash(state),
            Value::I64(v) => v.hash(state),
            Value::F64(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Date(d) => d.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Value::I8(v) => write!(f, "{v}"),
            Value::I16(v) => write!(f, "{v}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_ladder() {
        assert_eq!(TypeId::promote(TypeId::I8, TypeId::I64), Some(TypeId::I64));
        assert_eq!(TypeId::promote(TypeId::I32, TypeId::F64), Some(TypeId::F64));
        assert_eq!(TypeId::promote(TypeId::Str, TypeId::Str), Some(TypeId::Str));
        assert_eq!(TypeId::promote(TypeId::Str, TypeId::I32), None);
        assert_eq!(TypeId::promote(TypeId::Date, TypeId::I32), None);
    }

    #[test]
    fn sql_names_roundtrip() {
        for ty in TypeId::ALL {
            assert_eq!(TypeId::from_sql_name(ty.sql_name()), Some(ty));
        }
        assert_eq!(TypeId::from_sql_name("int"), Some(TypeId::I32));
        assert_eq!(TypeId::from_sql_name("nosuch"), None);
    }

    #[test]
    fn cast_int_overflow_detected() {
        let v = Value::I64(300);
        assert!(matches!(v.cast_to(TypeId::I8), Err(VwError::InvalidCast(_))));
        let v = Value::I64(127);
        assert_eq!(v.cast_to(TypeId::I8).unwrap(), Value::I8(127));
    }

    #[test]
    fn cast_string_parsing() {
        assert_eq!(Value::Str("42".into()).cast_to(TypeId::I32).unwrap(), Value::I32(42));
        assert_eq!(Value::Str(" 3.5 ".into()).cast_to(TypeId::F64).unwrap(), Value::F64(3.5));
        assert!(Value::Str("xyz".into()).cast_to(TypeId::I32).is_err());
        assert_eq!(
            Value::Str("1996-03-13".into()).cast_to(TypeId::Date).unwrap(),
            Value::Date(Date::from_ymd(1996, 3, 13).unwrap())
        );
    }

    #[test]
    fn cast_null_is_null() {
        for ty in TypeId::ALL {
            assert!(Value::Null.cast_to(ty).unwrap().is_null());
        }
    }

    #[test]
    fn float_to_int_rounds_and_checks() {
        assert_eq!(Value::F64(2.6).cast_to(TypeId::I32).unwrap(), Value::I32(3));
        assert!(Value::F64(1e30).cast_to(TypeId::I32).is_err());
        assert!(Value::F64(f64::NAN).cast_to(TypeId::I32).is_err());
        // 2^(bits-1) is one past the largest value at every width; the
        // largest double below 2^63 and -2^63 itself convert.
        let two_63 = 9_223_372_036_854_775_808.0f64;
        assert!(Value::F64(two_63).cast_to(TypeId::I64).is_err());
        assert_eq!(Value::F64(-two_63).cast_to(TypeId::I64).unwrap(), Value::I64(i64::MIN));
        let below = f64::from_bits(two_63.to_bits() - 1);
        assert_eq!(Value::F64(below).cast_to(TypeId::I64).unwrap(), Value::I64(below as i64));
        assert!(Value::F64(2_147_483_647.5).cast_to(TypeId::I32).is_err());
        assert_eq!(Value::F64(2_147_483_647.4).cast_to(TypeId::I32).unwrap(), Value::I32(i32::MAX));
        assert!(Value::F64(128.0).cast_to(TypeId::I8).is_err());
        assert_eq!(Value::F64(-128.0).cast_to(TypeId::I8).unwrap(), Value::I8(-128));
    }

    #[test]
    fn sql_cmp_three_valued() {
        assert_eq!(Value::Null.sql_cmp(&Value::I32(1)), None);
        assert_eq!(Value::I32(1).sql_cmp(&Value::I64(2)), Some(Ordering::Less));
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Str("b".into())), Some(Ordering::Less));
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::I32(1)), None);
    }

    #[test]
    fn date_parse_display_roundtrip() {
        let d = Date::parse("1998-12-01").unwrap();
        assert_eq!(d.to_string(), "1998-12-01");
        assert!(Date::parse("1998-13-01").is_err());
        assert!(Date::parse("1998-12").is_err());
        assert!(Date::parse("abc").is_err());
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::I32(-7).to_string(), "-7");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
    }

    #[test]
    fn safe_defaults_typed() {
        for ty in TypeId::ALL {
            assert_eq!(Value::safe_default(ty).type_id(), Some(ty));
        }
    }
}
