//! Hash-based set operations: UNION (dedup), INTERSECT, EXCEPT.
//!
//! UNION ALL needs no hashing and is handled by
//! [`UnionAll`](super::UnionAll); everything else funnels through this
//! operator. The shape mirrors the hash join: INTERSECT/EXCEPT first
//! drain their right input into a hash set of canonical row keys (the
//! build phase), then stream the left input deciding each row against
//! that set. All three modes deduplicate their output through a second
//! "emitted" set, so every distinct row appears exactly once — SQL's
//! set semantics, with NULLs comparing equal to each other as the
//! standard prescribes for duplicate elimination.
//!
//! `SELECT DISTINCT` lowers to a [`Mode::Union`] over a single input:
//! dedup is the whole job, so the binder gets it for free.
//!
//! The operator keeps no counters of its own: under `EXPLAIN ANALYZE`
//! what it eliminated is its inputs' `actual=` minus its own (see
//! [`crate::profile`]).

use super::{BoxedOp, Operator};
use crate::cancel::CancelToken;
use crate::vector::{Batch, Vector};
use std::collections::HashSet;
use vw_common::{ColData, Result, Schema, Value};

/// Which set operation to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Distinct rows of the input stream (operand union is concatenated
    /// upstream by `UnionAll`; a single input makes this `DISTINCT`).
    Union,
    /// Distinct left rows that also appear in the right input.
    Intersect,
    /// Distinct left rows that do not appear in the right input.
    Except,
}

/// Hash set-operation operator. Binary for INTERSECT/EXCEPT, unary
/// (pure dedup) for UNION / DISTINCT.
pub struct SetOp {
    mode: Mode,
    left: BoxedOp,
    /// Build-side input; `None` exactly for [`Mode::Union`].
    right: Option<BoxedOp>,
    /// Canonical keys of the right input (INTERSECT/EXCEPT membership).
    right_keys: HashSet<Vec<u8>>,
    /// Canonical keys already emitted (output dedup, all modes).
    emitted: HashSet<Vec<u8>>,
    built: bool,
    schema: Schema,
    cancel: CancelToken,
}

impl SetOp {
    /// Build a set operation over `left` (and `right` for the binary
    /// modes). Inputs must share the output `schema`'s column types; the
    /// binder unifies them with casts before planning this operator.
    pub fn new(mode: Mode, left: BoxedOp, right: Option<BoxedOp>, cancel: CancelToken) -> SetOp {
        debug_assert_eq!(matches!(mode, Mode::Union), right.is_none());
        let schema = left.schema().clone();
        SetOp {
            mode,
            left,
            right,
            right_keys: HashSet::new(),
            emitted: HashSet::new(),
            built: false,
            schema,
            cancel,
        }
    }

    /// Drain the right input into the membership set.
    fn build(&mut self) -> Result<()> {
        if let Some(right) = &mut self.right {
            let mut key = Vec::new();
            while let Some(mut batch) = right.next()? {
                self.cancel.check()?;
                batch.ensure_flat();
                for pos in batch.live() {
                    key.clear();
                    encode_row(&batch, pos, &mut key);
                    if !self.right_keys.contains(&key) {
                        self.right_keys.insert(key.clone());
                    }
                }
            }
        }
        self.built = true;
        Ok(())
    }
}

impl Operator for SetOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Union => "Union",
            Mode::Intersect => "Intersect",
            Mode::Except => "Except",
        }
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if !self.built {
            self.build()?;
        }
        let mut key = Vec::new();
        loop {
            self.cancel.check()?;
            let Some(mut batch) = self.left.next()? else {
                return Ok(None);
            };
            batch.ensure_flat();
            let mut out: Vec<Vector> = self
                .schema
                .fields
                .iter()
                .map(|f| Vector::new(ColData::with_capacity(f.ty, batch.rows())))
                .collect();
            let mut kept = 0usize;
            for pos in batch.live() {
                key.clear();
                encode_row(&batch, pos, &mut key);
                let keep = match self.mode {
                    Mode::Union => true,
                    Mode::Intersect => self.right_keys.contains(&key),
                    Mode::Except => !self.right_keys.contains(&key),
                };
                if keep && !self.emitted.contains(&key) {
                    self.emitted.insert(key.clone());
                    for (c, src) in out.iter_mut().zip(&batch.columns) {
                        c.push(&src.get(pos))?;
                    }
                    kept += 1;
                }
            }
            if kept == 0 {
                continue;
            }
            return Ok(Some(Batch::new(out)));
        }
    }
}

/// Append `pos`'s canonical key bytes for every column of `batch`.
///
/// The encoding is injective across a schema-unified row: each value is
/// tagged by kind, variable-width payloads are length-prefixed, and
/// floats are normalized (`-0.0` folds to `0.0`, every NaN to one bit
/// pattern) so SQL-equal values collide and nothing else does. NULL gets
/// its own tag — set operations treat NULLs as duplicates of each other.
fn encode_row(batch: &Batch, pos: usize, key: &mut Vec<u8>) {
    for col in &batch.columns {
        match col.get(pos) {
            Value::Null => key.push(0),
            Value::Bool(b) => {
                key.push(1);
                key.push(b as u8);
            }
            Value::I8(v) => encode_int(key, v as i64),
            Value::I16(v) => encode_int(key, v as i64),
            Value::I32(v) => encode_int(key, v as i64),
            Value::I64(v) => encode_int(key, v),
            Value::F64(v) => {
                let v = if v == 0.0 {
                    0.0
                } else if v.is_nan() {
                    f64::NAN
                } else {
                    v
                };
                key.push(3);
                key.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                key.push(4);
                key.extend_from_slice(&(s.len() as u32).to_le_bytes());
                key.extend_from_slice(s.as_bytes());
            }
            Value::Date(d) => {
                key.push(5);
                key.extend_from_slice(&d.0.to_le_bytes());
            }
        }
    }
}

/// Integers of every width share one tag so `I32(7)` and `I64(7)` (same
/// SQL value after promotion) produce the same key bytes.
fn encode_int(key: &mut Vec<u8>, v: i64) {
    key.push(2);
    key.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::drain;
    use crate::op::simple::{UnionAll, Values};
    use vw_common::{Field, TypeId};

    fn schema() -> Schema {
        Schema::new(vec![Field::nullable("a", TypeId::I64), Field::nullable("b", TypeId::Str)])
            .unwrap()
    }

    fn src(rows: Vec<(Option<i64>, &str)>) -> BoxedOp {
        let rows = rows
            .into_iter()
            .map(|(a, b)| vec![a.map(Value::I64).unwrap_or(Value::Null), Value::Str(b.into())])
            .collect();
        Box::new(Values::new(schema(), rows, 3, CancelToken::new()))
    }

    fn row_set(b: &Batch) -> Vec<Vec<Value>> {
        (0..b.rows()).map(|i| b.row_values(i)).collect()
    }

    #[test]
    fn union_dedups_across_inputs_and_nulls() {
        let a = src(vec![(Some(1), "x"), (None, "y"), (Some(1), "x")]);
        let b = src(vec![(None, "y"), (Some(2), "z")]);
        let cat = UnionAll::new(vec![a, b], CancelToken::new());
        let mut op = SetOp::new(Mode::Union, Box::new(cat), None, CancelToken::new());
        let out = drain(&mut op).unwrap();
        assert_eq!(out.rows(), 3, "1x, NULLy, 2z");
    }

    #[test]
    fn intersect_keeps_common_rows_once() {
        let l = src(vec![(Some(1), "x"), (Some(1), "x"), (Some(2), "y"), (None, "n")]);
        let r = src(vec![(Some(1), "x"), (None, "n"), (Some(9), "q")]);
        let mut op = SetOp::new(Mode::Intersect, l, Some(r), CancelToken::new());
        let out = drain(&mut op).unwrap();
        let rows = row_set(&out);
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&vec![Value::I64(1), Value::Str("x".into())]));
        assert!(rows.contains(&vec![Value::Null, Value::Str("n".into())]));
    }

    #[test]
    fn except_subtracts_and_dedups() {
        let l = src(vec![(Some(1), "x"), (Some(2), "y"), (Some(2), "y"), (Some(3), "z")]);
        let r = src(vec![(Some(2), "y")]);
        let mut op = SetOp::new(Mode::Except, l, Some(r), CancelToken::new());
        let out = drain(&mut op).unwrap();
        let rows = row_set(&out);
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&vec![Value::I64(1), Value::Str("x".into())]));
        assert!(rows.contains(&vec![Value::I64(3), Value::Str("z".into())]));
    }

    #[test]
    fn empty_inputs() {
        let mut op = SetOp::new(Mode::Union, src(vec![]), None, CancelToken::new());
        assert_eq!(drain(&mut op).unwrap().rows(), 0);
        let mut op = SetOp::new(
            Mode::Intersect,
            src(vec![(Some(1), "x")]),
            Some(src(vec![])),
            CancelToken::new(),
        );
        assert_eq!(drain(&mut op).unwrap().rows(), 0);
        let mut op = SetOp::new(
            Mode::Except,
            src(vec![(Some(1), "x")]),
            Some(src(vec![])),
            CancelToken::new(),
        );
        assert_eq!(drain(&mut op).unwrap().rows(), 1);
    }

    #[test]
    fn cancellation_propagates() {
        let cancel = CancelToken::new();
        let mut op = SetOp::new(Mode::Union, src(vec![(Some(1), "x")]), None, cancel.clone());
        cancel.cancel();
        assert!(op.next().is_err());
    }
}
