//! One driver per paper experiment (C1..C11). Every driver returns a
//! printable table: `(header, rows)`. The `repro` binary prints them; the
//! Criterion benches time the hot cores.

use crate::tpch::{gen_lineitem, gen_lineitem_rows, load_lineitem};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vw_common::config::{CheckMode, NullMode};
use vw_common::{ColData, Field, Schema, SelVec, TypeId, Value};
use vw_coopscan::{Abm, ChunkSource, ScanPolicy};
use vw_core::Database;
use vw_exec::expr::{BinOp, CmpOp, ExprCtx, PhysExpr};
use vw_exec::op::{drain, AggFunc, AggSpec, HashAggregate, Operator, Select};
use vw_exec::{Batch, CancelToken, Vector};
use vw_volcano::{ScalarExpr, TupleAgg, TupleAggregate, TupleFilter};

/// A printable experiment table.
pub type Table = (Vec<&'static str>, Vec<Vec<String>>);

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

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

fn lineitem_schema() -> Schema {
    Schema::new(vec![
        Field::not_null("l_orderkey", TypeId::I64),
        Field::not_null("l_partkey", TypeId::I64),
        Field::not_null("l_quantity", TypeId::I64),
        Field::not_null("l_extendedprice", TypeId::F64),
        Field::not_null("l_discount", TypeId::F64),
        Field::not_null("l_tax", TypeId::F64),
        Field::not_null("l_returnflag", TypeId::Str),
        Field::not_null("l_linestatus", TypeId::Str),
        Field::not_null("l_shipdate", TypeId::Date),
    ])
    .unwrap()
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
pub struct TupleRef {
    schema: Schema,
    rows: Arc<Vec<Vec<Value>>>,
    pos: usize,
}

impl TupleRef {
    /// Iterate `rows` without an upfront bulk clone.
    pub fn new(schema: Schema, rows: Arc<Vec<Vec<Value>>>) -> TupleRef {
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
    let ctx = ExprCtx::default();
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
    let select = Select::new(
        Box::new(src),
        vw_exec::program::SelectProgram::compile(&pred, &ctx),
        cancel.clone(),
    );
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
            input: Some(vw_exec::program::ExprProgram::compile(&revenue, &ctx)),
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

/// C1 — vectorized vs tuple-at-a-time, plus the vector-size sweep.
pub fn c1(rows_n: usize) -> Table {
    let cols = q6_projection(&gen_lineitem(rows_n, 1).into_columns());
    let rows: Arc<Vec<Vec<Value>>> =
        Arc::new((0..rows_n).map(|i| cols.iter().map(|c| c.get_value(i)).collect()).collect());
    let mut out = Vec::new();

    // Correctness cross-check first.
    let src = BatchSource::new(q6_schema(), &cols, 1024);
    let rv = q6_vectorized(src.reopen(), 1024);
    let rt = q6_volcano(&rows);
    assert!((rv - rt).abs() < 1e-6 * rv.abs().max(1.0), "engines disagree: {rv} vs {rt}");

    let t0 = Instant::now();
    let iters = 3;
    for _ in 0..iters {
        std::hint::black_box(q6_volcano(&rows));
    }
    let volcano = t0.elapsed() / iters;

    for vs in [1usize, 4, 16, 64, 256, 1024, 4096, 16384, 65536] {
        let src = BatchSource::new(q6_schema(), &cols, vs);
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(q6_vectorized(src.reopen(), vs));
        }
        let vect = t0.elapsed() / iters;
        out.push(vec![
            format!("{vs}"),
            ms(vect),
            ms(volcano),
            format!("{:.1}x", volcano.as_secs_f64() / vect.as_secs_f64()),
        ]);
    }
    (vec!["vector_size", "vectorized_ms", "tuple_ms", "speedup"], out)
}

/// C2 — compression schemes: ratio + throughput per distribution.
pub fn c2(n: usize) -> Table {
    use vw_compress::{compress_with, decompress_into, Encoding};
    let mut rng_state = 0x1234_5678_9abc_def0u64;
    let mut rng = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    let datasets: Vec<(&str, Vec<i64>)> = vec![
        ("uniform-small", (0..n).map(|_| (rng() % 1000) as i64).collect()),
        ("sorted-keys", (0..n).map(|i| 1_000_000 + (i as i64) * 7).collect()),
        ("low-cardinality", (0..n).map(|_| [3i64, 17, 99][rng() as usize % 3]).collect()),
        (
            "skewed-outliers",
            (0..n)
                .map(|i| if i % 100 == 0 { i64::MAX / 2 } else { (rng() % 256) as i64 })
                .collect(),
        ),
    ];
    let mut out = Vec::new();
    for (name, data) in &datasets {
        for enc in [
            Encoding::Raw,
            Encoding::BitPack,
            Encoding::Pfor,
            Encoding::PforDelta,
            Encoding::Dict,
            Encoding::Rle,
        ] {
            let t0 = Instant::now();
            let c = match compress_with(data, enc) {
                Ok(c) => c,
                Err(_) => continue, // scheme not applicable (dict overflow)
            };
            let comp = t0.elapsed();
            let mut back = Vec::new();
            let t0 = Instant::now();
            let reps = 5;
            for _ in 0..reps {
                decompress_into(&c, &mut back).unwrap();
            }
            let dec = t0.elapsed() / reps;
            assert_eq!(&back, data);
            let mb = (n * 8) as f64 / (1 << 20) as f64;
            out.push(vec![
                name.to_string(),
                enc.name().to_string(),
                format!("{:.2}", c.ratio()),
                format!("{:.0}", mb / comp.as_secs_f64()),
                format!("{:.0}", mb / dec.as_secs_f64()),
            ]);
        }
        let auto = vw_compress::choose_encoding(data);
        out.push(vec![
            name.to_string(),
            format!("auto={}", auto.name()),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    (vec!["distribution", "scheme", "ratio", "compress_MB/s", "decompress_MB/s"], out)
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

/// C3 — cooperative scans: policies under concurrent scans.
pub fn c3(chunks: usize, cache: usize, scans: usize) -> Table {
    let mut out = Vec::new();
    for policy in [ScanPolicy::Naive, ScanPolicy::Attach, ScanPolicy::Relevance] {
        let abm =
            Abm::new(SlowSource { n: chunks, delay: Duration::from_micros(800) }, cache, policy);
        let t0 = Instant::now();
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
        let elapsed = t0.elapsed();
        let (loads, cached) = abm.io_stats();
        out.push(vec![
            policy.name().to_string(),
            ms(elapsed),
            loads.to_string(),
            cached.to_string(),
            format!("{:.2}", loads as f64 / chunks as f64),
        ]);
    }
    (vec!["policy", "wall_ms", "chunk_loads", "served_cached", "table_read_multiple"], out)
}

/// C4 — PDT: update cost, merge-scan overhead vs pending deltas, checkpoint.
pub fn c4(base_rows: usize) -> Table {
    let mut out = Vec::new();
    for deltas in [0usize, 1_000, 10_000, 50_000] {
        let db = Database::open_in_memory();
        load_lineitem(&db, base_rows, 3);
        // Apply `deltas` committed single-row updates via the PDT layer.
        let t0 = Instant::now();
        if deltas > 0 {
            let cat = db.catalog.read();
            let entry = cat.get("lineitem").unwrap();
            let vw_core::catalog::TableKind::Vectorwise { pdt, .. } = &entry.kind else {
                unreachable!()
            };
            let mut txn = pdt.begin();
            for i in 0..deltas {
                let pos = (i * 7919) as u64 % txn.n_rows();
                match i % 3 {
                    0 => txn.update_at(pos, 2, Value::I64(99)).unwrap(),
                    1 => txn.delete_at(pos).unwrap(),
                    _ => {
                        let row: Vec<Value> = (0..9)
                            .map(|c| entry.schema.field(c).ty)
                            .map(Value::safe_default)
                            .collect();
                        txn.insert_at(pos, row).unwrap();
                    }
                }
            }
            pdt.commit(txn).unwrap();
        }
        let apply = t0.elapsed();

        let t0 = Instant::now();
        let r = db.execute("SELECT COUNT(*), SUM(l_quantity) FROM lineitem").unwrap();
        let scan = t0.elapsed();
        let visible = match r.rows()[0][0] {
            Value::I64(v) => v,
            _ => 0,
        };

        let t0 = Instant::now();
        db.execute("CHECKPOINT lineitem").unwrap();
        let ckpt = t0.elapsed();
        out.push(vec![deltas.to_string(), ms(apply), ms(scan), ms(ckpt), visible.to_string()]);
    }
    (vec!["pending_deltas", "apply_ms", "merge_scan_ms", "checkpoint_ms", "visible_rows"], out)
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

/// C5 — rewriter-driven parallel aggregation, DOP sweep.
pub fn c5(rows: usize) -> Table {
    let mut out = Vec::new();
    let mut reference: Option<Vec<Vec<Value>>> = None;
    for dop in [1usize, 2, 4, 8] {
        let db = Database::open_in_memory();
        load_lineitem(&db, rows, 5);
        db.execute(&format!("SET parallelism = {dop}")).unwrap();
        let sql = "SELECT l_returnflag, COUNT(*), SUM(l_quantity), AVG(l_extendedprice) \
                   FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag";
        let t0 = Instant::now();
        let r = db.execute(sql).unwrap();
        let elapsed = t0.elapsed();
        let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap().text.unwrap();
        let has_xchg = plan.contains("Xchg");
        match &reference {
            None => reference = Some(r.rows().to_vec()),
            Some(exp) => assert!(
                rows_approx_eq(exp, r.rows()),
                "parallel plan changed the answer at dop {dop}"
            ),
        }
        out.push(vec![
            dop.to_string(),
            ms(elapsed),
            if dop == 1 { "serial".into() } else { format!("xchg={has_xchg}") },
        ]);
    }
    (vec!["dop", "elapsed_ms", "plan"], out)
}

/// C6 — NULL representation: two-column vs branchy, by NULL fraction.
pub fn c6(n: usize) -> Table {
    let mut out = Vec::new();
    for pct in [0usize, 10, 50] {
        let vals = ColData::I64((0..n as i64).collect());
        let mask: Vec<bool> = (0..n).map(|i| (i * 100 / n.max(1)) % 100 < pct).collect();
        let nulls = if pct == 0 { None } else { Some(mask) };
        let v = Vector::with_nulls(vals, nulls);
        let batch = Batch::new(vec![v, Vector::new(ColData::I64(vec![3; n]))]);
        let expr = PhysExpr::Arith {
            op: BinOp::Mul,
            lhs: Box::new(colref(0, TypeId::I64)),
            rhs: Box::new(colref(1, TypeId::I64)),
            ty: TypeId::I64,
        };
        let mut row = vec![format!("{pct}%")];
        for mode in [NullMode::TwoColumn, NullMode::Branchy] {
            let ctx = ExprCtx { check: CheckMode::Lazy, null_mode: mode };
            let t0 = Instant::now();
            let reps = 20;
            for _ in 0..reps {
                std::hint::black_box(expr.eval(&batch, &ctx).unwrap());
            }
            row.push(ms(t0.elapsed() / reps));
        }
        out.push(row);
    }
    (vec!["null_fraction", "two_column_ms", "branchy_ms"], out)
}

/// C7 — overflow checking strategies on clean data.
pub fn c7(n: usize) -> Table {
    let a: Vec<i64> = (0..n as i64).collect();
    let b: Vec<i64> = (0..n as i64).map(|i| i * 3 + 1).collect();
    let mut out = Vec::new();
    for (name, check) in [
        ("unchecked", CheckMode::Unchecked),
        ("naive", CheckMode::Naive),
        ("lazy-vectorized", CheckMode::Lazy),
    ] {
        let mut buf = Vec::with_capacity(n);
        let t0 = Instant::now();
        let reps = 20;
        for _ in 0..reps {
            vw_exec::primitives::add_i64(&a, &b, None, &mut buf, check).unwrap();
            std::hint::black_box(&buf);
        }
        let add = t0.elapsed() / reps;
        let t0 = Instant::now();
        for _ in 0..reps {
            vw_exec::primitives::mul_i64(&a, &b, None, &mut buf, check).unwrap();
            std::hint::black_box(&buf);
        }
        let mul = t0.elapsed() / reps;
        out.push(vec![name.to_string(), ms(add), ms(mul)]);
    }
    (vec!["check_mode", "add_ms", "mul_ms"], out)
}

/// C8 — cancellation latency vs vector size.
pub fn c8(rows: usize) -> Table {
    let mut out = Vec::new();
    for vs in [256usize, 1024, 16384, 65536] {
        let db = Database::open_in_memory();
        load_lineitem(&db, rows, 8);
        db.execute(&format!("SET vector_size = {vs}")).unwrap();
        // A long-running self-join launched on another thread.
        let db2 = db.clone();
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let r = db2.execute(
                "SELECT COUNT(*) FROM lineitem a JOIN lineitem b ON a.l_partkey = b.l_partkey",
            );
            (started.elapsed(), r)
        });
        // Wait for it to register, then kill it.
        let qid = loop {
            let running: Vec<_> = db
                .monitor
                .list_queries()
                .into_iter()
                .filter(|q| q.state == vw_core::monitor::QueryState::Running)
                .collect();
            if let Some(q) = running.first() {
                break q.id;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        std::thread::sleep(Duration::from_millis(20));
        let t_kill = Instant::now();
        db.kill(qid).unwrap();
        let (total, result) = handle.join().unwrap();
        let latency = t_kill.elapsed();
        assert!(
            matches!(result, Err(vw_common::VwError::Cancelled)),
            "query must report cancellation"
        );
        out.push(vec![vs.to_string(), ms(latency), ms(total)]);
    }
    (vec!["vector_size", "cancel_latency_ms", "query_lifetime_ms"], out)
}

/// C9 — storage layout: I/O volume scanning k of N columns.
pub fn c9(rows: usize) -> Table {
    use vw_storage::{BufferPool, Layout, SimulatedDisk, TableStorage};
    let cols = gen_lineitem(rows, 9).into_columns();
    let schema = lineitem_schema();
    let nulls: Vec<Option<Vec<bool>>> = vec![None; cols.len()];
    let mut out = Vec::new();
    for (lname, layout) in [("DSM", Layout::Dsm), ("PAX", Layout::Pax)] {
        for k in [1usize, 4, 9] {
            let disk = SimulatedDisk::instant();
            let mut t = TableStorage::new(disk.clone(), schema.clone(), layout);
            t.append_columns(&cols, &nulls, 16 * 1024).unwrap();
            let written = disk.stats().bytes_written;
            // Tiny pool: force reads from "disk".
            let pool = BufferPool::new(disk.clone(), 1 << 16);
            let t0 = Instant::now();
            let proj: Vec<usize> = (0..k).collect();
            let mut total = 0usize;
            for p in 0..t.n_packs() {
                let chunks = t.read_pack(&pool, p, &proj).unwrap();
                total += chunks[0].0.len();
            }
            let elapsed = t0.elapsed();
            assert_eq!(total, rows);
            let read = disk.stats().bytes_read;
            out.push(vec![
                lname.to_string(),
                k.to_string(),
                (written >> 10).to_string(),
                (read >> 10).to_string(),
                format!("{:.2}", read as f64 / written as f64),
                ms(elapsed),
            ]);
        }
    }
    // NSM baseline: whole rows regardless of k.
    {
        let disk = vw_storage::SimulatedDisk::instant();
        let mut store = vw_volcano::RowStore::new(disk.clone(), schema.clone());
        store.append_rows(&gen_lineitem_rows(rows, 9)).unwrap();
        let written = disk.stats().bytes_written;
        let pool = vw_storage::BufferPool::new(disk.clone(), 1 << 16);
        for k in [1usize, 4, 9] {
            let t0 = Instant::now();
            let mut cnt = 0usize;
            for p in 0..store.n_pages() {
                cnt += store.read_page(&pool, p).unwrap().len();
            }
            assert_eq!(cnt, rows);
            let elapsed = t0.elapsed();
            let read = disk.stats().bytes_read;
            out.push(vec![
                "NSM".to_string(),
                k.to_string(),
                (written >> 10).to_string(),
                (read >> 10).to_string(),
                String::from("-"),
                ms(elapsed),
            ]);
        }
    }
    (vec!["layout", "cols_scanned", "stored_KiB", "read_KiB", "read/stored", "time_ms"], out)
}

/// C10 — the function battery: rewriter-expanded vs kernel-native.
pub fn c10(rows: usize) -> Table {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE fx (s VARCHAR, x BIGINT, y BIGINT, d DATE)").unwrap();
    let n = rows;
    let s = ColData::Str((0..n).map(|i| format!("str{:04}", i % 997)).collect());
    let x = ColData::I64((0..n as i64).collect());
    let y_vals: Vec<i64> = (0..n as i64).map(|i| i % 7).collect();
    let y_nulls: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect();
    let y = ColData::I64(y_vals);
    let d = ColData::Date((0..n).map(|i| 9000 + (i as i32 % 2000)).collect());
    vw_core::bulk_load(&db, "fx", &[s, x, y, d], &[None, None, Some(y_nulls), None]).unwrap();

    // Each (label, query, kind) runs and times one function.
    let cases: Vec<(&str, String, &str)> = vec![
        ("UPPER", "SELECT COUNT(*) FROM fx WHERE UPPER(s) LIKE 'STR0%'".into(), "kernel"),
        ("SUBSTR", "SELECT COUNT(*) FROM fx WHERE SUBSTR(s, 1, 4) = 'str0'".into(), "kernel"),
        ("LENGTH", "SELECT SUM(LENGTH(s)) FROM fx".into(), "kernel"),
        ("EXTRACT", "SELECT COUNT(*) FROM fx WHERE EXTRACT(YEAR FROM d) = 1995".into(), "kernel"),
        ("ABS", "SELECT SUM(ABS(x - 500)) FROM fx".into(), "kernel"),
        ("COALESCE", "SELECT SUM(COALESCE(y, 0)) FROM fx".into(), "rewriter"),
        ("IFNULL", "SELECT SUM(IFNULL(y, -1)) FROM fx".into(), "rewriter"),
        ("NULLIF", "SELECT COUNT(NULLIF(y, 3)) FROM fx".into(), "rewriter"),
        ("GREATEST", "SELECT SUM(GREATEST(x, y, 3)) FROM fx".into(), "rewriter"),
        ("SIGN", "SELECT SUM(SIGN(x - 500)) FROM fx".into(), "rewriter"),
    ];
    let mut out = Vec::new();
    for (name, sql, kind) in cases {
        let t0 = Instant::now();
        let reps = 3;
        let mut last = None;
        for _ in 0..reps {
            last = Some(db.execute(&sql).unwrap());
        }
        let elapsed = t0.elapsed() / reps;
        let v = last.unwrap().rows()[0][0].clone();
        out.push(vec![name.to_string(), kind.to_string(), ms(elapsed), v.to_string()]);
    }
    // Semantic spot-checks of the rewriter expansions.
    let r = db.execute("SELECT COALESCE(NULL, 7)").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(7));
    let r = db.execute("SELECT NULLIF(3, 3)").unwrap();
    assert!(r.scalar().unwrap().is_null());
    let r = db.execute("SELECT GREATEST(1, 9, 4)").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(9));
    (vec!["function", "implementation", "time_ms", "result"], out)
}

/// C11 — monitoring: what repeated short queries cost with the (always
/// on) registry, event log and per-operator counters, and what they leave
/// behind in the monitor.
pub fn c11(rows: usize, reps: usize) -> Table {
    let db = Database::open_in_memory();
    load_lineitem(&db, rows, 11);
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(
            db.execute("SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 25").unwrap(),
        );
    }
    let elapsed = t0.elapsed() / reps as u32;
    let (total, failed) = db.monitor.totals();
    let out = vec![vec![
        ms(elapsed),
        total.to_string(),
        failed.to_string(),
        db.monitor.events().len().to_string(),
    ]];
    (vec!["per_query_ms", "queries_registered", "failed", "events_logged"], out)
}

/// Ablation — selection vectors vs eager materialization at varying
/// selectivity.
pub fn select_ablation(n: usize) -> Table {
    let data = ColData::I64((0..n as i64).collect());
    let mut out = Vec::new();
    for sel_pct in [1usize, 10, 50, 90] {
        let threshold = (n * sel_pct / 100) as i64;
        let batch =
            Batch::new(vec![Vector::new(data.clone()), Vector::new(ColData::I64(vec![2; n]))]);
        let pred = PhysExpr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(colref(0, TypeId::I64)),
            rhs: Box::new(PhysExpr::Const(Value::I64(threshold), TypeId::I64)),
        };
        let mul = PhysExpr::Arith {
            op: BinOp::Mul,
            lhs: Box::new(colref(0, TypeId::I64)),
            rhs: Box::new(colref(1, TypeId::I64)),
            ty: TypeId::I64,
        };
        let ctx = ExprCtx::default();
        let reps = 20;
        // Strategy A: selection vector carried through the map.
        let t0 = Instant::now();
        for _ in 0..reps {
            let sel = pred.eval_select(&batch, &ctx).unwrap();
            let mut b = batch.clone();
            b.sel = Some(sel);
            std::hint::black_box(mul.eval(&b, &ctx).unwrap());
        }
        let with_sel = t0.elapsed() / reps;
        // Strategy B: materialize survivors densely, then map.
        let t0 = Instant::now();
        for _ in 0..reps {
            let sel = pred.eval_select(&batch, &ctx).unwrap();
            let mut b = batch.clone();
            b.sel = Some(sel);
            let dense = b.compact();
            std::hint::black_box(mul.eval(&dense, &ctx).unwrap());
        }
        let materialized = t0.elapsed() / reps;
        let _ = SelVec::new();
        out.push(vec![format!("{sel_pct}%"), ms(with_sel), ms(materialized)]);
    }
    (vec!["selectivity", "selection_vector_ms", "materialize_ms"], out)
}

/// Pretty-print a table.
pub fn print_table(title: &str, t: &Table) {
    println!("\n=== {title} ===");
    let (header, rows) = t;
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(header.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        line(r.clone());
    }
}
