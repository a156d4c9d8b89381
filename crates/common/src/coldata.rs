//! `ColData` — the typed columnar data container shared by the storage and
//! execution layers.
//!
//! A `ColData` is a dense, type-homogeneous array of non-NULL values. NULLs
//! are represented *outside* this container as a separate boolean indicator
//! column (the Vectorwise two-column scheme); NULL positions in the value
//! column hold "safe" defaults so NULL-oblivious kernels can process them
//! harmlessly.

use crate::error::{Result, VwError};
use crate::types::{Date, TypeId, Value};

/// Dense typed column values. One enum variant per supported type.
#[derive(Debug, Clone, PartialEq)]
pub enum ColData {
    /// Booleans.
    Bool(Vec<bool>),
    /// 8-bit ints.
    I8(Vec<i8>),
    /// 16-bit ints.
    I16(Vec<i16>),
    /// 32-bit ints.
    I32(Vec<i32>),
    /// 64-bit ints.
    I64(Vec<i64>),
    /// Doubles.
    F64(Vec<f64>),
    /// Strings.
    Str(Vec<String>),
    /// Dates (days since epoch).
    Date(Vec<i32>),
}

macro_rules! per_variant {
    ($self:expr, $v:ident => $e:expr) => {
        match $self {
            ColData::Bool($v) => $e,
            ColData::I8($v) => $e,
            ColData::I16($v) => $e,
            ColData::I32($v) => $e,
            ColData::I64($v) => $e,
            ColData::F64($v) => $e,
            ColData::Str($v) => $e,
            ColData::Date($v) => $e,
        }
    };
}

impl ColData {
    /// Empty column of type `ty`.
    pub fn new(ty: TypeId) -> ColData {
        ColData::with_capacity(ty, 0)
    }

    /// Empty column of type `ty` with reserved capacity.
    pub fn with_capacity(ty: TypeId, cap: usize) -> ColData {
        match ty {
            TypeId::Bool => ColData::Bool(Vec::with_capacity(cap)),
            TypeId::I8 => ColData::I8(Vec::with_capacity(cap)),
            TypeId::I16 => ColData::I16(Vec::with_capacity(cap)),
            TypeId::I32 => ColData::I32(Vec::with_capacity(cap)),
            TypeId::I64 => ColData::I64(Vec::with_capacity(cap)),
            TypeId::F64 => ColData::F64(Vec::with_capacity(cap)),
            TypeId::Str => ColData::Str(Vec::with_capacity(cap)),
            TypeId::Date => ColData::Date(Vec::with_capacity(cap)),
        }
    }

    /// The column's type.
    pub fn type_id(&self) -> TypeId {
        match self {
            ColData::Bool(_) => TypeId::Bool,
            ColData::I8(_) => TypeId::I8,
            ColData::I16(_) => TypeId::I16,
            ColData::I32(_) => TypeId::I32,
            ColData::I64(_) => TypeId::I64,
            ColData::F64(_) => TypeId::F64,
            ColData::Str(_) => TypeId::Str,
            ColData::Date(_) => TypeId::Date,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        per_variant!(self, v => v.len())
    }

    /// True if no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all values, retaining capacity.
    pub fn clear(&mut self) {
        per_variant!(self, v => v.clear())
    }

    /// Truncate to `n` values.
    pub fn truncate(&mut self, n: usize) {
        per_variant!(self, v => v.truncate(n))
    }

    /// Read position `i` as a [`Value`] (slow path: results, tests, Volcano).
    pub fn get_value(&self, i: usize) -> Value {
        match self {
            ColData::Bool(v) => Value::Bool(v[i]),
            ColData::I8(v) => Value::I8(v[i]),
            ColData::I16(v) => Value::I16(v[i]),
            ColData::I32(v) => Value::I32(v[i]),
            ColData::I64(v) => Value::I64(v[i]),
            ColData::F64(v) => Value::F64(v[i]),
            ColData::Str(v) => Value::Str(v[i].clone()),
            ColData::Date(v) => Value::Date(Date(v[i])),
        }
    }

    /// Append a [`Value`]; NULL appends the type's safe default.
    /// Errors on type mismatch.
    pub fn push_value(&mut self, val: &Value) -> Result<()> {
        let col_ty = self.type_id();
        let mismatch = move || {
            VwError::Exec(format!("cannot append {:?} to {} column", val, col_ty.sql_name()))
        };
        if val.is_null() {
            self.push_safe_default();
            return Ok(());
        }
        match (self, val) {
            (ColData::Bool(v), Value::Bool(b)) => v.push(*b),
            (ColData::I8(v), Value::I8(x)) => v.push(*x),
            (ColData::I16(v), Value::I16(x)) => v.push(*x),
            (ColData::I32(v), Value::I32(x)) => v.push(*x),
            (ColData::I64(v), Value::I64(x)) => v.push(*x),
            (ColData::F64(v), Value::F64(x)) => v.push(*x),
            (ColData::Str(v), Value::Str(s)) => v.push(s.clone()),
            (ColData::Date(v), Value::Date(d)) => v.push(d.0),
            _ => return Err(mismatch()),
        }
        Ok(())
    }

    /// Append the type's safe default (used under a NULL indicator).
    pub fn push_safe_default(&mut self) {
        match self {
            ColData::Bool(v) => v.push(false),
            ColData::I8(v) => v.push(0),
            ColData::I16(v) => v.push(0),
            ColData::I32(v) => v.push(0),
            ColData::I64(v) => v.push(0),
            ColData::F64(v) => v.push(0.0),
            ColData::Str(v) => v.push(String::new()),
            ColData::Date(v) => v.push(0),
        }
    }

    /// Append values from `other[range]`. Panics on type mismatch
    /// (callers guarantee same-typed columns).
    pub fn extend_from_range(&mut self, other: &ColData, start: usize, end: usize) {
        match (self, other) {
            (ColData::Bool(a), ColData::Bool(b)) => a.extend_from_slice(&b[start..end]),
            (ColData::I8(a), ColData::I8(b)) => a.extend_from_slice(&b[start..end]),
            (ColData::I16(a), ColData::I16(b)) => a.extend_from_slice(&b[start..end]),
            (ColData::I32(a), ColData::I32(b)) => a.extend_from_slice(&b[start..end]),
            (ColData::I64(a), ColData::I64(b)) => a.extend_from_slice(&b[start..end]),
            (ColData::F64(a), ColData::F64(b)) => a.extend_from_slice(&b[start..end]),
            (ColData::Str(a), ColData::Str(b)) => a.extend_from_slice(&b[start..end]),
            (ColData::Date(a), ColData::Date(b)) => a.extend_from_slice(&b[start..end]),
            (a, b) => panic!("extend_from_range type mismatch: {} vs {}", a.type_id(), b.type_id()),
        }
    }

    /// Gather `positions` from `other` and append them.
    pub fn extend_gather(&mut self, other: &ColData, positions: impl Iterator<Item = usize>) {
        match (self, other) {
            (ColData::Bool(a), ColData::Bool(b)) => a.extend(positions.map(|p| b[p])),
            (ColData::I8(a), ColData::I8(b)) => a.extend(positions.map(|p| b[p])),
            (ColData::I16(a), ColData::I16(b)) => a.extend(positions.map(|p| b[p])),
            (ColData::I32(a), ColData::I32(b)) => a.extend(positions.map(|p| b[p])),
            (ColData::I64(a), ColData::I64(b)) => a.extend(positions.map(|p| b[p])),
            (ColData::F64(a), ColData::F64(b)) => a.extend(positions.map(|p| b[p])),
            (ColData::Str(a), ColData::Str(b)) => a.extend(positions.map(|p| b[p].clone())),
            (ColData::Date(a), ColData::Date(b)) => a.extend(positions.map(|p| b[p])),
            (a, b) => panic!("extend_gather type mismatch: {} vs {}", a.type_id(), b.type_id()),
        }
    }

    /// Gather `idx` from `other` and append, except that lanes equal to
    /// `sentinel` append the type's safe default instead of reading `other`
    /// (the caller marks those lanes NULL — outer-join padding).
    pub fn extend_gather_padded(&mut self, other: &ColData, idx: &[u32], sentinel: u32) {
        macro_rules! gather_padded {
            ($a:expr, $b:expr, $default:expr) => {
                $a.extend(idx.iter().map(|&i| {
                    if i == sentinel {
                        $default
                    } else {
                        $b[i as usize].clone()
                    }
                }))
            };
        }
        match (self, other) {
            (ColData::Bool(a), ColData::Bool(b)) => gather_padded!(a, b, false),
            (ColData::I8(a), ColData::I8(b)) => gather_padded!(a, b, 0),
            (ColData::I16(a), ColData::I16(b)) => gather_padded!(a, b, 0),
            (ColData::I32(a), ColData::I32(b)) => gather_padded!(a, b, 0),
            (ColData::I64(a), ColData::I64(b)) => gather_padded!(a, b, 0),
            (ColData::F64(a), ColData::F64(b)) => gather_padded!(a, b, 0.0),
            (ColData::Str(a), ColData::Str(b)) => gather_padded!(a, b, String::new()),
            (ColData::Date(a), ColData::Date(b)) => gather_padded!(a, b, 0),
            (a, b) => {
                panic!("extend_gather_padded type mismatch: {} vs {}", a.type_id(), b.type_id())
            }
        }
    }

    /// Overwrite position `i` with a value (PDT merge path).
    pub fn set_value(&mut self, i: usize, val: &Value) -> Result<()> {
        if val.is_null() {
            match self {
                ColData::Bool(v) => v[i] = false,
                ColData::I8(v) => v[i] = 0,
                ColData::I16(v) => v[i] = 0,
                ColData::I32(v) => v[i] = 0,
                ColData::I64(v) => v[i] = 0,
                ColData::F64(v) => v[i] = 0.0,
                ColData::Str(v) => v[i] = String::new(),
                ColData::Date(v) => v[i] = 0,
            }
            return Ok(());
        }
        match (self, val) {
            (ColData::Bool(v), Value::Bool(b)) => v[i] = *b,
            (ColData::I8(v), Value::I8(x)) => v[i] = *x,
            (ColData::I16(v), Value::I16(x)) => v[i] = *x,
            (ColData::I32(v), Value::I32(x)) => v[i] = *x,
            (ColData::I64(v), Value::I64(x)) => v[i] = *x,
            (ColData::F64(v), Value::F64(x)) => v[i] = *x,
            (ColData::Str(v), Value::Str(s)) => v[i] = s.clone(),
            (ColData::Date(v), Value::Date(d)) => v[i] = d.0,
            (c, v) => {
                return Err(VwError::Exec(format!(
                    "cannot set {:?} into {} column",
                    v,
                    c.type_id().sql_name()
                )))
            }
        }
        Ok(())
    }

    /// Widen rows `rows` to i64s (compression input; the codecs' `Lane`s
    /// are the inverse) — not for Str. F64 goes through raw bit
    /// transmutation, Str through the string codec.
    pub fn to_i64s(&self, rows: std::ops::Range<usize>, out: &mut Vec<i64>) {
        out.clear();
        match self {
            ColData::Bool(v) => out.extend(v[rows].iter().map(|&b| b as i64)),
            ColData::I8(v) => out.extend(v[rows].iter().map(|&x| x as i64)),
            ColData::I16(v) => out.extend(v[rows].iter().map(|&x| x as i64)),
            ColData::I32(v) => out.extend(v[rows].iter().map(|&x| x as i64)),
            ColData::I64(v) => out.extend_from_slice(&v[rows]),
            ColData::F64(v) => out.extend(v[rows].iter().map(|&x| x.to_bits() as i64)),
            ColData::Date(v) => out.extend(v[rows].iter().map(|&x| x as i64)),
            ColData::Str(_) => panic!("to_i64s on string column"),
        }
    }

    /// Borrow as `&[i64]`; panics if not an I64 column (kernel internals).
    pub fn as_i64(&self) -> &[i64] {
        match self {
            ColData::I64(v) => v,
            other => panic!("expected I64 column, got {}", other.type_id()),
        }
    }

    /// Borrow as `&[f64]`; panics if not an F64 column (kernel internals).
    pub fn as_f64(&self) -> &[f64] {
        match self {
            ColData::F64(v) => v,
            other => panic!("expected F64 column, got {}", other.type_id()),
        }
    }

    /// Borrow as `&[String]`; panics if not a Str column.
    pub fn as_str(&self) -> &[String] {
        match self {
            ColData::Str(v) => v,
            other => panic!("expected Str column, got {}", other.type_id()),
        }
    }

    /// Borrow as `&[bool]`; panics if not a Bool column.
    pub fn as_bool(&self) -> &[bool] {
        match self {
            ColData::Bool(v) => v,
            other => panic!("expected Bool column, got {}", other.type_id()),
        }
    }

    /// Approximate heap size in bytes (buffer-pool accounting).
    pub fn byte_size(&self) -> usize {
        match self {
            ColData::Bool(v) => v.len(),
            ColData::I8(v) => v.len(),
            ColData::I16(v) => v.len() * 2,
            ColData::I32(v) | ColData::Date(v) => v.len() * 4,
            ColData::I64(v) => v.len() * 8,
            ColData::F64(v) => v.len() * 8,
            ColData::Str(v) => v.iter().map(|s| s.len() + 24).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip_all_types() {
        let vals = vec![
            Value::Bool(true),
            Value::I8(-5),
            Value::I16(300),
            Value::I32(-70000),
            Value::I64(1 << 40),
            Value::F64(2.5),
            Value::Str("hi".into()),
            Value::Date(Date(9000)),
        ];
        for v in &vals {
            let ty = v.type_id().unwrap();
            let mut col = ColData::new(ty);
            col.push_value(v).unwrap();
            assert_eq!(&col.get_value(0), v);
        }
    }

    #[test]
    fn push_mismatch_errors() {
        let mut col = ColData::new(TypeId::I32);
        assert!(col.push_value(&Value::Str("x".into())).is_err());
        assert!(col.push_value(&Value::I64(5)).is_err(), "no silent narrowing");
    }

    #[test]
    fn null_pushes_safe_default() {
        let mut col = ColData::new(TypeId::Str);
        col.push_value(&Value::Null).unwrap();
        assert_eq!(col.get_value(0), Value::Str(String::new()));
    }

    #[test]
    fn gather_and_range() {
        let src = ColData::I32((0..10).collect());
        let mut dst = ColData::new(TypeId::I32);
        dst.extend_from_range(&src, 2, 5);
        dst.extend_gather(&src, [9usize, 0].into_iter());
        assert_eq!(dst, ColData::I32(vec![2, 3, 4, 9, 0]));
    }

    #[test]
    fn set_value_overwrites() {
        let mut col = ColData::I32(vec![1, 2, 3]);
        col.set_value(1, &Value::I32(99)).unwrap();
        assert_eq!(col.get_value(1), Value::I32(99));
        col.set_value(0, &Value::Null).unwrap();
        assert_eq!(col.get_value(0), Value::I32(0));
        assert!(col.set_value(0, &Value::Str("no".into())).is_err());
    }
}
