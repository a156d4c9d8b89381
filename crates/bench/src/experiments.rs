//! Shared pieces of the paper experiments that more than one target uses:
//! the C1 Q6 pipelines on both engines (bench `c1_vectorized_vs_tuple`,
//! `examples/tpch_analytics.rs`) and approximate row equality for
//! differential tests. Every other C-claim is measured by its criterion
//! bench alone.

use std::sync::Arc;
use vw_common::{ColData, Field, Schema, TypeId, Value};
use vw_exec::expr::{BinOp, CmpOp, PhysExpr};
use vw_exec::op::{drain, AggFunc, AggSpec, HashAggregate, Operator, Select};
use vw_exec::{Batch, CancelToken, Vector};
use vw_volcano::{TupleAgg, TupleAggregate, TupleFilter};

/// An operator source that re-serves pre-chunked batches (keeps C1's
/// vectorized measurements free of row-materialization noise).
pub struct BatchSource {
    schema: Schema,
    batches: Arc<Vec<Batch>>,
    pos: usize,
}

impl BatchSource {
    /// Chunk columns into batches of `vector_size`.
    pub fn new(schema: Schema, columns: &[ColData], vector_size: usize) -> BatchSource {
        let n = columns.first().map_or(0, |c| c.len());
        let mut batches = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + vector_size).min(n);
            let vecs = columns
                .iter()
                .map(|c| {
                    let mut v = ColData::with_capacity(c.type_id(), end - start);
                    v.extend_from_range(c, start, end);
                    Vector::new(v)
                })
                .collect();
            batches.push(Batch::new(vecs));
            start = end;
        }
        BatchSource { schema, batches: Arc::new(batches), pos: 0 }
    }

    /// A fresh cursor over the same batches.
    pub fn reopen(&self) -> BatchSource {
        BatchSource { schema: self.schema.clone(), batches: self.batches.clone(), pos: 0 }
    }
}

impl Operator for BatchSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn name(&self) -> &'static str {
        "BatchSource"
    }
    fn next(&mut self) -> vw_common::Result<Option<Batch>> {
        if self.pos >= self.batches.len() {
            return Ok(None);
        }
        self.pos += 1;
        Ok(Some(self.batches[self.pos - 1].clone()))
    }
}

fn colref(i: usize, ty: TypeId) -> PhysExpr {
    PhysExpr::ColRef(i, ty)
}

/// Q6 touches quantity, extendedprice, discount, shipdate. Both engines
/// receive exactly these columns (a column store's scan reads only the
/// columns it projects); C1 isolates *execution* style.
pub fn q6_schema() -> Schema {
    Schema::new(vec![
        Field::not_null("l_quantity", TypeId::I64),
        Field::not_null("l_extendedprice", TypeId::F64),
        Field::not_null("l_discount", TypeId::F64),
        Field::not_null("l_shipdate", TypeId::Date),
    ])
    .unwrap()
}

/// Project full lineitem columns down to the Q6 subset.
pub fn q6_projection(cols: &[ColData]) -> Vec<ColData> {
    vec![cols[2].clone(), cols[3].clone(), cols[4].clone(), cols[8].clone()]
}

/// A borrowing tuple source: rows are cloned one at a time, which is the
/// honest per-tuple materialization cost of a Volcano engine.
struct TupleRef {
    schema: Schema,
    rows: Arc<Vec<Vec<Value>>>,
    pos: usize,
}

impl TupleRef {
    /// Iterate `rows` without an upfront bulk clone.
    fn new(schema: Schema, rows: Arc<Vec<Vec<Value>>>) -> TupleRef {
        TupleRef { schema, rows, pos: 0 }
    }
}

impl vw_volcano::TupleIterator for TupleRef {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn next(&mut self) -> vw_common::Result<Option<Vec<Value>>> {
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        self.pos += 1;
        Ok(Some(self.rows[self.pos - 1].clone()))
    }
}

fn f64lit(v: f64) -> PhysExpr {
    PhysExpr::Const(Value::F64(v), TypeId::F64)
}

/// Q6's predicate over [`q6_schema`]: shipdate in 1994, discount in
/// [0.05, 0.07], quantity below 24.
fn q6_predicate() -> PhysExpr {
    let date = |y| {
        let d = vw_common::Date::from_ymd(y, 1, 1).unwrap();
        PhysExpr::Const(Value::Date(d), TypeId::Date)
    };
    let cmp = |op, lhs, rhs| PhysExpr::Cmp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
    let (shipdate, discount) = (colref(3, TypeId::Date), colref(2, TypeId::F64));
    PhysExpr::And(vec![
        cmp(CmpOp::Ge, shipdate.clone(), date(1994)),
        cmp(CmpOp::Lt, shipdate, date(1995)),
        cmp(CmpOp::Ge, discount.clone(), f64lit(0.05)),
        cmp(CmpOp::Le, discount, f64lit(0.07)),
        cmp(CmpOp::Lt, colref(0, TypeId::I64), PhysExpr::Const(Value::I64(24), TypeId::I64)),
    ])
}

/// Q6's revenue term: extendedprice * discount.
fn q6_revenue() -> PhysExpr {
    PhysExpr::Arith {
        op: BinOp::Mul,
        lhs: Box::new(colref(1, TypeId::F64)),
        rhs: Box::new(colref(2, TypeId::F64)),
        ty: TypeId::F64,
    }
}

/// The one revenue value of a single-row aggregate result.
fn revenue_of(v: &Value) -> f64 {
    match v {
        Value::F64(v) => *v,
        Value::Null => 0.0,
        _ => unreachable!(),
    }
}

/// Q6-like predicate + aggregate on the vectorized engine; returns revenue.
pub fn q6_vectorized(src: BatchSource, vector_size: usize) -> f64 {
    let cancel = CancelToken::new();
    let select = Select::new(
        Box::new(src),
        vw_exec::program::SelectProgram::compile(&q6_predicate()),
        cancel.clone(),
    );
    let mut agg = HashAggregate::new(
        Box::new(select),
        vec![],
        vec![AggSpec {
            func: AggFunc::Sum,
            input: Some(vw_exec::program::ExprProgram::compile(&q6_revenue())),
            out_ty: TypeId::F64,
        }],
        Schema::unchecked(vec![Field::nullable("revenue", TypeId::F64)]),
        vector_size,
        cancel,
    )
    .unwrap();
    let out = drain(&mut agg).unwrap();
    revenue_of(&out.row_values(0)[0])
}

/// Q6-like on the tuple-at-a-time baseline: the same expression trees,
/// interpreted per tuple.
pub fn q6_volcano(rows: &Arc<Vec<Vec<Value>>>) -> f64 {
    let (pred, revenue) = (q6_predicate(), q6_revenue());
    // Materialize revenue per tuple then aggregate.
    let src = TupleRef::new(q6_schema(), rows.clone());
    let filter = TupleFilter::new(Box::new(src), move |r| pred.selects_tuple(r));
    let proj = vw_volcano::TupleProject::new(
        Box::new(filter),
        vec![Box::new(move |r| revenue.eval_tuple(r))],
        Schema::unchecked(vec![Field::nullable("rev", TypeId::F64)]),
    );
    let mut agg = TupleAggregate::new(
        Box::new(proj),
        vec![],
        vec![TupleAgg::Sum(0)],
        Schema::unchecked(vec![Field::nullable("revenue", TypeId::F64)]),
    );
    let out = vw_volcano::collect_rows(&mut agg).unwrap();
    revenue_of(&out[0][0])
}

/// Approximate row equality: floats within 1e-9 relative error (parallel
/// partial aggregation legitimately reorders float additions).
pub fn rows_approx_eq(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(x, y)| match (x, y) {
                    (Value::F64(p), Value::F64(q)) => {
                        (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0)
                    }
                    _ => x == y,
                })
        })
}
