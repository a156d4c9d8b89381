//! Shared pieces of the paper experiments that more than one target uses:
//! the C1 Q6 pipelines on both engines (bench `c1_vectorized_vs_tuple`,
//! `examples/tpch_analytics.rs`), the C3 cooperative-scan driver (bench
//! `c3_coopscan`), and approximate row equality for differential tests.
//! Every other C-claim is measured by its criterion bench alone.

use crate::coopscan::{Abm, ChunkSource, ScanPolicy};
use std::sync::Arc;
use std::time::Duration;
use vw_common::{ColData, Field, Schema, TypeId, Value};
use vw_exec::expr::{BinOp, CmpOp, PhysExpr};
use vw_exec::op::{drain, AggFunc, AggSpec, HashAggregate, Operator, Select};
use vw_exec::{Batch, CancelToken, Vector};
use vw_volcano::{ScalarExpr, TupleAgg, TupleAggregate, TupleFilter};

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
/// receive exactly these columns: the scan-side projection advantage is
/// measured separately (C9); C1 isolates *execution* style.
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

/// Q6-like predicate + aggregate on the vectorized engine; returns revenue.
pub fn q6_vectorized(src: BatchSource, vector_size: usize) -> f64 {
    let cancel = CancelToken::new();
    let year94 = vw_common::Date::from_ymd(1994, 1, 1).unwrap().0;
    let year95 = vw_common::Date::from_ymd(1995, 1, 1).unwrap().0;
    let pred = PhysExpr::And(vec![
        PhysExpr::Cmp {
            op: CmpOp::Ge,
            lhs: Box::new(colref(3, TypeId::Date)),
            rhs: Box::new(PhysExpr::Const(Value::Date(vw_common::Date(year94)), TypeId::Date)),
        },
        PhysExpr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(colref(3, TypeId::Date)),
            rhs: Box::new(PhysExpr::Const(Value::Date(vw_common::Date(year95)), TypeId::Date)),
        },
        PhysExpr::Cmp {
            op: CmpOp::Ge,
            lhs: Box::new(colref(2, TypeId::F64)),
            rhs: Box::new(f64lit(0.05)),
        },
        PhysExpr::Cmp {
            op: CmpOp::Le,
            lhs: Box::new(colref(2, TypeId::F64)),
            rhs: Box::new(f64lit(0.07)),
        },
        PhysExpr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(colref(0, TypeId::I64)),
            rhs: Box::new(PhysExpr::Const(Value::I64(24), TypeId::I64)),
        },
    ]);
    let select =
        Select::new(Box::new(src), vw_exec::program::SelectProgram::compile(&pred), cancel.clone());
    let revenue = PhysExpr::Arith {
        op: BinOp::Mul,
        lhs: Box::new(colref(1, TypeId::F64)),
        rhs: Box::new(colref(2, TypeId::F64)),
        ty: TypeId::F64,
    };
    let mut agg = HashAggregate::new(
        Box::new(select),
        vec![],
        vec![AggSpec {
            func: AggFunc::Sum,
            input: Some(vw_exec::program::ExprProgram::compile(&revenue)),
            out_ty: TypeId::F64,
        }],
        Schema::unchecked(vec![Field::nullable("revenue", TypeId::F64)]),
        vector_size,
        cancel,
    )
    .unwrap();
    let out = drain(&mut agg).unwrap();
    match out.row_values(0)[0] {
        Value::F64(v) => v,
        Value::Null => 0.0,
        _ => unreachable!(),
    }
}

/// Q6-like on the tuple-at-a-time baseline.
pub fn q6_volcano(rows: &Arc<Vec<Vec<Value>>>) -> f64 {
    let year94 = Value::Date(vw_common::Date::from_ymd(1994, 1, 1).unwrap());
    let year95 = Value::Date(vw_common::Date::from_ymd(1995, 1, 1).unwrap());
    let c = |i| Box::new(ScalarExpr::Col(i));
    let l = |v: Value| Box::new(ScalarExpr::Lit(v));
    let pred = ScalarExpr::And(
        Box::new(ScalarExpr::And(
            Box::new(ScalarExpr::Cmp(">=", c(3), l(year94))),
            Box::new(ScalarExpr::Cmp("<", c(3), l(year95))),
        )),
        Box::new(ScalarExpr::And(
            Box::new(ScalarExpr::And(
                Box::new(ScalarExpr::Cmp(">=", c(2), l(Value::F64(0.05)))),
                Box::new(ScalarExpr::Cmp("<=", c(2), l(Value::F64(0.07)))),
            )),
            Box::new(ScalarExpr::Cmp("<", c(0), l(Value::I64(24)))),
        )),
    );
    // Materialize revenue per tuple then aggregate.
    let src = TupleRef::new(q6_schema(), rows.clone());
    let filter = TupleFilter::new(Box::new(src), pred);
    let proj = vw_volcano::TupleProject::new(
        Box::new(filter),
        vec![ScalarExpr::Arith('*', c(1), c(2))],
        Schema::unchecked(vec![Field::nullable("rev", TypeId::F64)]),
    );
    let mut agg = TupleAggregate::new(
        Box::new(proj),
        vec![],
        vec![TupleAgg::Sum(0)],
        Schema::unchecked(vec![Field::nullable("revenue", TypeId::F64)]),
    );
    let out = vw_volcano::collect_rows(&mut agg).unwrap();
    match out[0][0] {
        Value::F64(v) => v,
        Value::Null => 0.0,
        _ => unreachable!(),
    }
}

struct SlowSource {
    n: usize,
    delay: Duration,
}

impl ChunkSource for SlowSource {
    type Chunk = usize;
    fn n_chunks(&self) -> usize {
        self.n
    }
    fn load(&self, idx: usize) -> vw_common::Result<usize> {
        std::thread::sleep(self.delay);
        Ok(idx)
    }
}

/// C3 — cooperative scans: `scans` staggered concurrent scans over
/// `chunks` chunks under each policy. Returns, per policy, its name, chunk
/// loads and chunks served from cache.
pub fn c3(chunks: usize, cache: usize, scans: usize) -> Vec<(&'static str, u64, u64)> {
    let mut out = Vec::new();
    for policy in [ScanPolicy::Naive, ScanPolicy::Attach, ScanPolicy::Relevance] {
        let abm =
            Abm::new(SlowSource { n: chunks, delay: Duration::from_micros(800) }, cache, policy);
        let mut handles = Vec::new();
        for s in 0..scans {
            let abm = abm.clone();
            // Stagger arrivals: the sharing opportunity of the paper's eval.
            handles.push(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(3 * s as u64));
                let mut h = abm.register();
                let mut seen = 0;
                while h.next_chunk().unwrap().is_some() {
                    seen += 1;
                }
                seen
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), chunks);
        }
        let (loads, cached) = abm.io_stats();
        out.push((policy.name(), loads, cached));
    }
    out
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
