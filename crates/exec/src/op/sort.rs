//! Sort and Top-N.
//!
//! `Sort` materializes its input, sorts a permutation index, and streams the
//! result in vector-sized batches. `TopN` keeps only the best `limit` rows
//! in a bounded heap — the standard `ORDER BY ... LIMIT k` shortcut.

use super::{drain, BoxedOp, Operator};
use crate::cancel::CancelToken;
use crate::vector::{Batch, Vector};
use std::cmp::Ordering;
use vw_common::{ColData, Result, Schema, Value};

/// One sort key.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    /// Column index in the input schema.
    pub col: usize,
    /// Ascending?
    pub asc: bool,
    /// Do NULLs sort before non-NULLs?
    pub nulls_first: bool,
}

fn cmp_rows(batch: &Batch, keys: &[SortKey], a: usize, b: usize) -> Ordering {
    for k in keys {
        let va = batch.columns[k.col].get(a);
        let vb = batch.columns[k.col].get(b);
        let o = match (va.is_null(), vb.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if k.nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if k.nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let o = va.sql_cmp(&vb).unwrap_or(Ordering::Equal);
                if k.asc {
                    o
                } else {
                    o.reverse()
                }
            }
        };
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

/// Full sort operator.
pub struct Sort {
    input: Option<BoxedOp>,
    keys: Vec<SortKey>,
    schema: Schema,
    vector_size: usize,
    cancel: CancelToken,
    sorted: Option<Batch>,
    emit: usize,
}

impl Sort {
    /// Sort `input` by `keys`.
    pub fn new(
        input: BoxedOp,
        keys: Vec<SortKey>,
        vector_size: usize,
        cancel: CancelToken,
    ) -> Sort {
        let schema = input.schema().clone();
        Sort { input: Some(input), keys, schema, vector_size, cancel, sorted: None, emit: 0 }
    }
}

impl Operator for Sort {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "Sort"
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        self.cancel.check()?;
        if self.sorted.is_none() {
            let mut input = self.input.take().expect("sort builds once");
            let mut all = drain(input.as_mut())?;
            // Sort is a late-materialization boundary: inflate coded
            // columns once up front so row comparisons read values
            // directly instead of cloning dictionary entries per compare.
            all.ensure_flat();
            let mut perm: Vec<u32> = (0..all.rows() as u32).collect();
            perm.sort_by(|&a, &b| cmp_rows(&all, &self.keys, a as usize, b as usize));
            let columns = all.columns.iter().map(|c| c.gather_indices(&perm)).collect();
            self.sorted = Some(Batch::new(columns));
        }
        let sorted = self.sorted.as_ref().unwrap();
        let n = sorted.rows();
        if self.emit >= n {
            return Ok(None);
        }
        let end = (self.emit + self.vector_size).min(n);
        let columns = sorted
            .columns
            .iter()
            .map(|c| {
                let mut v = Vector::new(ColData::with_capacity(c.type_id(), end - self.emit));
                v.extend_range(c, self.emit, end);
                v
            })
            .collect();
        self.emit = end;
        Ok(Some(Batch::new(columns)))
    }
}

/// Top-N: `ORDER BY keys LIMIT limit` with a bounded buffer.
pub struct TopN {
    input: Option<BoxedOp>,
    keys: Vec<SortKey>,
    limit: usize,
    schema: Schema,
    cancel: CancelToken,
    result: Option<Vec<Vec<Value>>>,
    emit: usize,
    vector_size: usize,
}

impl TopN {
    /// Keep the first `limit` rows of the sort order.
    pub fn new(
        input: BoxedOp,
        keys: Vec<SortKey>,
        limit: usize,
        vector_size: usize,
        cancel: CancelToken,
    ) -> TopN {
        let schema = input.schema().clone();
        TopN { input: Some(input), keys, limit, schema, cancel, result: None, emit: 0, vector_size }
    }

    fn cmp_value_rows(keys: &[SortKey], a: &[Value], b: &[Value]) -> Ordering {
        for k in keys {
            let (va, vb) = (&a[k.col], &b[k.col]);
            let o = match (va.is_null(), vb.is_null()) {
                (true, true) => Ordering::Equal,
                (true, false) => {
                    if k.nulls_first {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    }
                }
                (false, true) => {
                    if k.nulls_first {
                        Ordering::Greater
                    } else {
                        Ordering::Less
                    }
                }
                (false, false) => {
                    let o = va.sql_cmp(vb).unwrap_or(Ordering::Equal);
                    if k.asc {
                        o
                    } else {
                        o.reverse()
                    }
                }
            };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }

    fn build(&mut self) -> Result<()> {
        let mut input = self.input.take().expect("topn builds once");
        // A sorted bounded buffer: worst row at the end. For the modest
        // limits of ORDER BY ... LIMIT this is effectively a heap without
        // the comparator gymnastics.
        let mut buf: Vec<Vec<Value>> = Vec::with_capacity(self.limit + 1);
        // One reused row buffer: at steady state almost every row loses to
        // the current top-N and is rejected without allocating; only rows
        // that actually enter the buffer are materialized (by take).
        let mut row: Vec<Value> = Vec::new();
        while let Some(batch) = input.next()? {
            self.cancel.check()?;
            for i in 0..batch.rows() {
                batch.row_values_into(i, &mut row);
                if buf.len() < self.limit {
                    let at = buf
                        .binary_search_by(|r| Self::cmp_value_rows(&self.keys, r, &row))
                        .unwrap_or_else(|e| e);
                    buf.insert(at, std::mem::take(&mut row));
                } else if self.limit > 0
                    && Self::cmp_value_rows(&self.keys, &row, buf.last().unwrap()) == Ordering::Less
                {
                    let at = buf
                        .binary_search_by(|r| Self::cmp_value_rows(&self.keys, r, &row))
                        .unwrap_or_else(|e| e);
                    buf.insert(at, std::mem::take(&mut row));
                    buf.pop();
                }
            }
        }
        self.result = Some(buf);
        Ok(())
    }
}

impl Operator for TopN {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "TopN"
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        self.cancel.check()?;
        if self.result.is_none() {
            self.build()?;
        }
        let rows = self.result.as_ref().unwrap();
        if self.emit >= rows.len() {
            return Ok(None);
        }
        let end = (self.emit + self.vector_size).min(rows.len());
        let mut columns: Vec<Vector> = self
            .schema
            .fields
            .iter()
            .map(|f| Vector::new(ColData::with_capacity(f.ty, end - self.emit)))
            .collect();
        for row in &rows[self.emit..end] {
            for (c, v) in columns.iter_mut().zip(row) {
                c.push(v)?;
            }
        }
        self.emit = end;
        Ok(Some(Batch::new(columns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::simple::Values;
    use vw_common::{Field, TypeId};

    fn schema() -> Schema {
        Schema::new(vec![Field::nullable("a", TypeId::I64), Field::nullable("b", TypeId::Str)])
            .unwrap()
    }

    fn source(rows: Vec<(Option<i64>, &str)>) -> BoxedOp {
        let rows = rows
            .into_iter()
            .map(|(a, b)| vec![a.map_or(Value::Null, Value::I64), Value::Str(b.into())])
            .collect();
        Box::new(Values::new(schema(), rows, 3, CancelToken::new()))
    }

    fn key(col: usize, asc: bool, nulls_first: bool) -> SortKey {
        SortKey { col, asc, nulls_first }
    }

    #[test]
    fn sort_asc_desc() {
        let src = source(vec![(Some(3), "c"), (Some(1), "a"), (Some(2), "b")]);
        let mut s = Sort::new(src, vec![key(0, true, false)], 10, CancelToken::new());
        let out = drain(&mut s).unwrap();
        let vals: Vec<Value> = (0..3).map(|i| out.row_values(i)[0].clone()).collect();
        assert_eq!(vals, vec![Value::I64(1), Value::I64(2), Value::I64(3)]);

        let src = source(vec![(Some(3), "c"), (Some(1), "a"), (Some(2), "b")]);
        let mut s = Sort::new(src, vec![key(0, false, false)], 10, CancelToken::new());
        let out = drain(&mut s).unwrap();
        assert_eq!(out.row_values(0)[0], Value::I64(3));
    }

    #[test]
    fn nulls_placement() {
        let src = source(vec![(Some(1), "a"), (None, "n"), (Some(2), "b")]);
        let mut s = Sort::new(src, vec![key(0, true, true)], 10, CancelToken::new());
        let out = drain(&mut s).unwrap();
        assert!(out.row_values(0)[0].is_null());
        let src = source(vec![(Some(1), "a"), (None, "n"), (Some(2), "b")]);
        let mut s = Sort::new(src, vec![key(0, true, false)], 10, CancelToken::new());
        let out = drain(&mut s).unwrap();
        assert!(out.row_values(2)[0].is_null());
    }

    #[test]
    fn multi_key_sort() {
        let src = source(vec![(Some(1), "z"), (Some(1), "a"), (Some(0), "m")]);
        let mut s =
            Sort::new(src, vec![key(0, true, false), key(1, true, false)], 10, CancelToken::new());
        let out = drain(&mut s).unwrap();
        assert_eq!(out.row_values(0)[1], Value::Str("m".into()));
        assert_eq!(out.row_values(1)[1], Value::Str("a".into()));
        assert_eq!(out.row_values(2)[1], Value::Str("z".into()));
    }

    #[test]
    fn sort_streams_vector_sized() {
        let rows: Vec<(Option<i64>, &str)> = (0..25).map(|i| (Some(25 - i), "x")).collect();
        let src = source(rows);
        let mut s = Sort::new(src, vec![key(0, true, false)], 10, CancelToken::new());
        let mut sizes = Vec::new();
        let mut first = None;
        while let Some(b) = s.next().unwrap() {
            if first.is_none() {
                first = Some(b.row_values(0)[0].clone());
            }
            sizes.push(b.rows());
        }
        assert_eq!(sizes, vec![10, 10, 5]);
        assert_eq!(first.unwrap(), Value::I64(1));
    }

    #[test]
    fn topn_keeps_best() {
        let rows: Vec<(Option<i64>, &str)> =
            (0..100).map(|i| (Some((i * 37) % 100), "x")).collect();
        let src = source(rows);
        let mut t = TopN::new(src, vec![key(0, true, false)], 5, 10, CancelToken::new());
        let out = drain(&mut t).unwrap();
        assert_eq!(out.rows(), 5);
        let vals: Vec<Value> = (0..5).map(|i| out.row_values(i)[0].clone()).collect();
        assert_eq!(
            vals,
            vec![Value::I64(0), Value::I64(1), Value::I64(2), Value::I64(3), Value::I64(4)]
        );
    }

    #[test]
    fn topn_larger_than_input() {
        let src = source(vec![(Some(2), "b"), (Some(1), "a")]);
        let mut t = TopN::new(src, vec![key(0, true, false)], 10, 4, CancelToken::new());
        let out = drain(&mut t).unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row_values(0)[0], Value::I64(1));
    }

    #[test]
    fn topn_zero_limit() {
        let src = source(vec![(Some(2), "b")]);
        let mut t = TopN::new(src, vec![key(0, true, false)], 0, 4, CancelToken::new());
        let out = drain(&mut t).unwrap();
        assert_eq!(out.rows(), 0);
    }
}
