//! C15: morsel-driven scheduling vs static row-range partitioning, and the
//! batch free-list's zero-allocation guarantee.
//!
//! Two acceptance experiments:
//!
//! 1. **90/10 skewed scan at DOP 4.** The table's filter survivors (the
//!    rows that feed all downstream work) are 90% concentrated in the last
//!    10% of the row space. The old plan-time `partition_items` split —
//!    reimplemented here as the baseline — hands that whole region to one
//!    worker, collapsing the fragment to one effective core. The morsel
//!    contender shares one `MorselSource`; workers claim pack-aligned
//!    16Ki-row slices at run time (claims that straddle packs would make
//!    several workers decode the same pack) and the skew balances itself.
//!    Measured three ways:
//!    *   per-worker survivor counts (pure CPU, no simulation), collected
//!        here by a counting operator per fragment — the engine keeps no
//!        per-worker counter; in `EXPLAIN ANALYZE` the same number is the
//!        per-clone row range of a fragment's lines: the work-balance
//!        observable — max/mean collapses toward 4 for static ranges and
//!        stays near 1 for morsels;
//!    *   wall time with **stall-dominated downstream work** (a fixed
//!        per-survivor latency, modelling the memory/IO stalls that
//!        dominate joins and aggregations at scale; stalls overlap across
//!        workers even on this 1-core dev box, so the scheduling effect is
//!        measured deterministically regardless of host core count) —
//!        the ≥1.5× acceptance number;
//!    *   wall time with pure CPU work, printed honestly: on a single
//!        effective core both schemes do the same total work, so this is
//!        ~1×; on real multicore the balance win applies to CPU time too.
//!
//! 2. **Zero steady-state allocations across the full pipeline.** A serial
//!    scan→filter→project→join→agg pipeline with one `BatchPool` threaded
//!    through every operator runs ≥64 batches after a 16-batch warm-up
//!    with **zero** heap allocations (counting global allocator), operator
//!    *outputs* included — scan leases recycle through Project/Join/Agg
//!    consumption, Project outputs swap through the `VectorPool` slots,
//!    and join outputs gather into recycled buffers.

use criterion::{black_box, criterion_group, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vw_common::{ColData, Field, Result, Schema, TypeId, Value};
use vw_exec::cancel::CancelToken;
use vw_exec::expr::{BinOp, CmpOp, PhysExpr};
use vw_exec::morsel::{BatchPool, MorselSource};
use vw_exec::op::{
    AggFunc, AggSpec, BoxedOp, HashAggregate, HashJoin, JoinType, Operator, Project, Select,
    Values, VectorScan, Xchg,
};
use vw_exec::partition::WorkerPool;
use vw_exec::program::{ExprProgram, SelectProgram};
use vw_exec::vector::Batch;
use vw_pdt::MergeItem;
use vw_storage::{BufferPool, Layout as StorageLayout, SimulatedDisk, TableStorage};

// ---------------------------------------------------------------------------
// counting allocator (steady-state allocation proof)
// ---------------------------------------------------------------------------

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// workload
// ---------------------------------------------------------------------------

const VECTOR: usize = 1024;
const DOP: usize = 4;
const GROUPS: i64 = 64;

fn schema3() -> Schema {
    Schema::new(vec![
        Field::not_null("key", TypeId::I64),
        Field::not_null("val", TypeId::I64),
        Field::not_null("hot", TypeId::I64),
    ])
    .unwrap()
}

/// Survivor placement for the skew experiment: ~10% of rows are "hot"
/// (pass the filter and feed all downstream work), with 90% of them packed
/// into the last 10% of the row space.
fn skewed_hot(n: usize) -> Vec<bool> {
    let survivors = n / 10;
    let tail_start = n - n / 10;
    let tail_hits = survivors * 9 / 10; // 90% of survivors in the tail
    let head_hits = survivors - tail_hits;
    let mut hot = vec![false; n];
    // Head: survivors thinly spread over the first 90% of rows.
    let head_stride = tail_start / head_hits.max(1);
    for k in 0..head_hits {
        hot[k * head_stride] = true;
    }
    // Tail: 9 of every 10 rows survive.
    let mut placed = 0;
    for (off, h) in hot[tail_start..].iter_mut().enumerate() {
        if placed < tail_hits && off % 10 != 9 {
            *h = true;
            placed += 1;
        }
    }
    hot
}

fn build_table(n: usize, pack: usize, hot: &[bool]) -> (Arc<TableStorage>, Arc<BufferPool>) {
    let disk = SimulatedDisk::instant();
    let pool = BufferPool::new(disk.clone(), 256 << 20);
    let mut t = TableStorage::new(disk, schema3(), StorageLayout::Dsm);
    let key = ColData::I64((0..n as i64).map(|i| i % GROUPS).collect());
    let val = ColData::I64((0..n as i64).map(|i| i % 1000).collect());
    let hotc = ColData::I64(hot.iter().map(|&h| h as i64).collect());
    t.append_columns(&[key, val, hotc], &[None, None, None], pack).unwrap();
    (Arc::new(t), pool)
}

fn col(i: usize) -> PhysExpr {
    PhysExpr::ColRef(i, TypeId::I64)
}

fn i64lit(v: i64) -> PhysExpr {
    PhysExpr::Const(Value::I64(v), TypeId::I64)
}

fn cmp(op: CmpOp, l: PhysExpr, r: PhysExpr) -> PhysExpr {
    PhysExpr::Cmp { op, lhs: Box::new(l), rhs: Box::new(r) }
}

fn prog(e: &PhysExpr) -> ExprProgram {
    ExprProgram::compile(e)
}

// ---------------------------------------------------------------------------
// experiment 1: 90/10 skewed scan, static ranges vs morsel claims
// ---------------------------------------------------------------------------

/// The old plan-time static split (`op/scan.rs::partition_items` before
/// this change), kept here as the baseline under measurement.
fn static_range_items(items: &[MergeItem], part: usize, nparts: usize) -> Vec<MergeItem> {
    fn rows(i: &MergeItem) -> u64 {
        match i {
            MergeItem::Stable { len, .. } => *len,
            _ => 1,
        }
    }
    let total: u64 = items.iter().map(rows).sum();
    let lo = total * part as u64 / nparts as u64;
    let hi = total * (part as u64 + 1) / nparts as u64;
    let mut out = Vec::new();
    let mut pos = 0u64;
    for item in items {
        let n = rows(item);
        let (start, end) = (pos, pos + n);
        pos = end;
        if end <= lo || start >= hi {
            continue;
        }
        match item {
            MergeItem::Stable { sid, len } => {
                let s = lo.saturating_sub(start);
                let e = (hi - start).min(*len);
                out.push(MergeItem::Stable { sid: sid + s, len: e - s });
            }
            other => out.push(other.clone()),
        }
    }
    out
}

/// Downstream-work model for the skew experiment: counts the survivor rows
/// a worker processed (the real balance observable) and optionally sleeps
/// a fixed latency per survivor (the stall-dominated model that makes the
/// schedule visible in wall time on any core count).
struct Stall {
    input: BoxedOp,
    ns_per_row: u64,
    seen: Arc<AtomicU64>,
}

impl Operator for Stall {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn name(&self) -> &'static str {
        "Stall"
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next()? else {
            return Ok(None);
        };
        let rows = batch.rows() as u64;
        self.seen.fetch_add(rows, Ordering::Relaxed);
        if self.ns_per_row > 0 {
            std::thread::sleep(Duration::from_nanos(rows * self.ns_per_row));
        }
        Ok(Some(batch))
    }
}

enum Scheme {
    StaticRanges,
    Morsel { rows: usize },
}

/// Run scan→filter(hot=1)→stall→project(key, val*2) on DOP workers under
/// an exchange; returns (wall, per-worker survivor counts, rows, checksum).
fn run_skew(
    table: &Arc<TableStorage>,
    pool: &Arc<BufferPool>,
    scheme: &Scheme,
    stall_ns: u64,
) -> (Duration, Vec<u64>, u64, i64) {
    let n = table.n_rows();
    let items = VectorScan::stable_items(n);
    let cancel = CancelToken::new();
    let shared = match scheme {
        Scheme::Morsel { rows } => Some(MorselSource::new(items.clone(), *rows)),
        Scheme::StaticRanges => None,
    };
    let counters: Vec<Arc<AtomicU64>> = (0..DOP).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut parts: Vec<BoxedOp> = Vec::new();
    for (w, counter) in counters.iter().enumerate() {
        let source = match &shared {
            Some(src) => src.clone(),
            None => MorselSource::new(static_range_items(&items, w, DOP), usize::MAX),
        };
        let bp = BatchPool::new();
        let scan = VectorScan::with_source(
            table.clone(),
            pool.clone(),
            vec![0, 1, 2],
            source,
            VECTOR,
            cancel.clone(),
        )
        .with_batch_pool(bp.clone());
        let pred = SelectProgram::compile(&cmp(CmpOp::Eq, col(2), i64lit(1)));
        let select = Select::new(Box::new(scan), pred, cancel.clone()).with_batch_pool(bp.clone());
        let stall = Stall { input: Box::new(select), ns_per_row: stall_ns, seen: counter.clone() };
        let out_schema = Schema::new(vec![
            Field::not_null("key", TypeId::I64),
            Field::not_null("v2", TypeId::I64),
        ])
        .unwrap();
        let v2 = PhysExpr::Arith {
            op: BinOp::Mul,
            lhs: Box::new(col(1)),
            rhs: Box::new(i64lit(2)),
            ty: TypeId::I64,
        };
        let project = Project::new(
            Box::new(stall),
            vec![prog(&col(0)), prog(&v2)],
            out_schema,
            cancel.clone(),
        )
        .with_batch_pool(bp.clone());
        parts.push(Box::new(project));
    }
    // A worker per fragment, so the stalls overlap as the scheme allows.
    let workers = WorkerPool::new(parts.len());
    let mut x = Xchg::spawn_on(&workers, parts, cancel);
    let t0 = Instant::now();
    let (mut rows, mut checksum) = (0u64, 0i64);
    while let Some(b) = x.next().unwrap() {
        rows += b.rows() as u64;
        // Cheap order-insensitive checksum over the first column.
        if let ColData::I64(d) = &b.columns[0].data {
            for p in b.live() {
                checksum = checksum.wrapping_add(d[p]);
            }
        }
    }
    let wall = t0.elapsed();
    (wall, counters.iter().map(|c| c.load(Ordering::Relaxed)).collect(), rows, checksum)
}

fn balance(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    *counts.iter().max().unwrap() as f64 / (total as f64 / counts.len() as f64)
}

fn skew_experiment() {
    let n = 1 << 20;
    let hot = skewed_hot(n);
    // Morsel size == pack size: claims are pack-aligned, so no pack is
    // decoded by more than one worker (the engine's defaults — 16Ki
    // morsels over 16Ki packs — have the same property).
    let (table, pool) = build_table(n, 16 * 1024, &hot);
    let morsel = Scheme::Morsel { rows: 16 * 1024 };
    let expect_rows = hot.iter().filter(|&&h| h).count() as u64;

    // Pure-CPU pass. The static survivor counts are data-determined: the
    // 90/10 skew collapses the last range's worker no matter how the OS
    // schedules threads. (The pure-CPU *morsel* split is printed but not
    // asserted — with no blocking, a single-core scheduler legitimately
    // lets one worker drain many claims per time slice; the balanced
    // regime is asserted on the stall-dominated pass below.)
    let (t_static_cpu, static_counts, r1, c1) = run_skew(&table, &pool, &Scheme::StaticRanges, 0);
    let (t_morsel_cpu, morsel_counts, r2, c2) = run_skew(&table, &pool, &morsel, 0);
    assert_eq!(r1, expect_rows, "static schedule lost rows");
    assert_eq!(r2, expect_rows, "morsel schedule lost rows");
    assert_eq!(c1, c2, "schedules disagree on the answer");
    let sb = balance(&static_counts);
    println!(
        "skew (pure CPU):  static {:>6.1}ms balance {sb:.2}  {static_counts:?}\n                  morsel {:>6.1}ms balance {:.2}  {morsel_counts:?}",
        t_static_cpu.as_secs_f64() * 1e3,
        t_morsel_cpu.as_secs_f64() * 1e3,
        balance(&morsel_counts),
    );
    assert!(
        sb >= 3.0,
        "static ranges must collapse under 90/10 skew (max/mean {sb:.2}, counts {static_counts:?})"
    );

    // Stall-dominated pass: per-survivor fixed latency models the stalls
    // that dominate real downstream operators at scale; it overlaps across
    // workers on any core count, so the wall clock now measures the
    // *schedule*, not this box's core count. Best of 2 runs each.
    let stall_ns = 6_000;
    let best = |scheme: &Scheme| {
        let mut best_t = Duration::MAX;
        let mut counts = Vec::new();
        for _ in 0..2 {
            let (t, c, r, chk) = run_skew(&table, &pool, scheme, stall_ns);
            assert_eq!((r, chk), (expect_rows, c1));
            if t < best_t {
                best_t = t;
                counts = c;
            }
        }
        (best_t, counts)
    };
    let (t_static, _) = best(&Scheme::StaticRanges);
    let (t_morsel, stalled_counts) = best(&morsel);
    let mb = balance(&stalled_counts);
    let speedup = t_static.as_secs_f64() / t_morsel.as_secs_f64();
    println!(
        "skew (stall-dominated, {stall_ns}ns/survivor): static {:>7.1}ms  morsel {:>7.1}ms  \
         speedup {speedup:.2}x  morsel balance {mb:.2}  {stalled_counts:?}",
        t_static.as_secs_f64() * 1e3,
        t_morsel.as_secs_f64() * 1e3,
    );
    assert!(
        speedup >= 1.5,
        "morsel scheduling must beat static ranges >=1.5x on the 90/10 skew (got {speedup:.2}x)"
    );
    assert!(
        mb <= 2.0,
        "morsel claims must stay near-linear under skew (max/mean {mb:.2}, {stalled_counts:?})"
    );
}

// ---------------------------------------------------------------------------
// experiment 2: zero steady-state allocations across the full pipeline
// ---------------------------------------------------------------------------

const WARMUP_BATCHES: u64 = 16;

static PROBE_BATCHES: AtomicU64 = AtomicU64::new(0);
static STEADY_BASE: AtomicU64 = AtomicU64::new(0);
static STEADY_LAST: AtomicU64 = AtomicU64::new(0);

/// Pass-through operator between join and aggregation that snapshots the
/// allocation counter while the pipeline runs: the window opens when batch
/// `WARMUP_BATCHES` is served and closes at the last served batch, so it
/// covers ≥64 steady-state batches flowing through every operator (the
/// aggregation's absorption included) while excluding one-time warm-up
/// (pool sizing, pack decode, hash build, first-seen groups) and the
/// epilogue (group emission).
struct AllocProbe {
    input: BoxedOp,
}

impl Operator for AllocProbe {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn name(&self) -> &'static str {
        "AllocProbe"
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next()? else {
            return Ok(None);
        };
        let i = PROBE_BATCHES.fetch_add(1, Ordering::Relaxed);
        if i == WARMUP_BATCHES {
            STEADY_BASE.store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
        } else if i > WARMUP_BATCHES {
            STEADY_LAST.store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        Ok(Some(batch))
    }
}

fn alloc_experiment() {
    let n = 84 * 1024; // 84 scan batches; one pack so steady state never re-decodes
    let hot = vec![false; n];
    let (table, pool) = build_table(n, 128 * 1024, &hot);
    let bp = BatchPool::new();
    let cancel = CancelToken::new();

    let scan = VectorScan::with_source(
        table,
        pool,
        vec![0, 1],
        MorselSource::new(VectorScan::stable_items(n as u64), 8 * 1024),
        VECTOR,
        cancel.clone(),
    )
    .with_batch_pool(bp.clone());
    let pred = SelectProgram::compile(&cmp(CmpOp::Lt, col(1), i64lit(500)));
    let select = Select::new(Box::new(scan), pred, cancel.clone()).with_batch_pool(bp.clone());
    let proj_schema =
        Schema::new(vec![Field::not_null("key", TypeId::I64), Field::not_null("v2", TypeId::I64)])
            .unwrap();
    let v2 = PhysExpr::Arith {
        op: BinOp::Mul,
        lhs: Box::new(col(1)),
        rhs: Box::new(i64lit(2)),
        ty: TypeId::I64,
    };
    let project = Project::new(
        Box::new(select),
        vec![prog(&col(0)), prog(&v2)],
        proj_schema.clone(),
        cancel.clone(),
    )
    .with_batch_pool(bp.clone());
    // Build side: one payload row per group key.
    let build_schema = Schema::new(vec![
        Field::not_null("bkey", TypeId::I64),
        Field::not_null("pay", TypeId::I64),
    ])
    .unwrap();
    let build_rows: Vec<Vec<Value>> =
        (0..GROUPS).map(|k| vec![Value::I64(k), Value::I64(k * 10)]).collect();
    let build = Values::new(build_schema.clone(), build_rows, VECTOR, cancel.clone());
    let join = HashJoin::new(
        Box::new(project),
        Box::new(build),
        vec![prog(&col(0))],
        vec![prog(&col(0))],
        JoinType::Inner,
        proj_schema.join(&build_schema),
        cancel.clone(),
    )
    .with_batch_pool(bp.clone());
    let probe = AllocProbe { input: Box::new(join) };
    let mut agg = HashAggregate::new(
        Box::new(probe),
        vec![prog(&col(0))],
        vec![
            AggSpec { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 },
            AggSpec { func: AggFunc::Sum, input: Some(prog(&col(1))), out_ty: TypeId::I64 },
            AggSpec { func: AggFunc::Sum, input: Some(prog(&col(3))), out_ty: TypeId::I64 },
        ],
        Schema::unchecked(vec![
            Field::not_null("key", TypeId::I64),
            Field::not_null("cnt", TypeId::I64),
            Field::nullable("sum_v2", TypeId::I64),
            Field::nullable("sum_pay", TypeId::I64),
        ]),
        VECTOR,
        cancel,
    )
    .unwrap()
    .with_batch_pool(bp.clone());

    let mut rows = 0usize;
    let mut got: Vec<(i64, i64, i64, i64)> = Vec::new();
    while let Some(b) = agg.next().unwrap() {
        rows += b.rows();
        for i in 0..b.rows() {
            let r = b.row_values(i);
            got.push(match (&r[0], &r[1], &r[2], &r[3]) {
                (Value::I64(k), Value::I64(c), Value::I64(s), Value::I64(p)) => (*k, *c, *s, *p),
                other => panic!("unexpected row {other:?}"),
            });
        }
    }
    assert_eq!(rows, GROUPS as usize);

    // Independent reference computed in plain Rust.
    let mut expect = vec![(0i64, 0i64, 0i64); GROUPS as usize];
    for i in 0..n as i64 {
        if i % 1000 < 500 {
            let g = (i % GROUPS) as usize;
            expect[g].0 += 1;
            expect[g].1 += 2 * (i % 1000);
            expect[g].2 += (i % GROUPS) * 10;
        }
    }
    got.sort_unstable();
    for (k, c, s, p) in got {
        let e = expect[k as usize];
        assert_eq!((c, s, p), e, "group {k} diverged from the reference");
    }

    let served = PROBE_BATCHES.load(Ordering::Relaxed);
    let steady = served - 1 - WARMUP_BATCHES;
    let allocated =
        STEADY_LAST.load(Ordering::Relaxed).saturating_sub(STEADY_BASE.load(Ordering::Relaxed));
    println!(
        "pooled pipeline: {served} batches through scan→filter→project→join→agg, \
         allocations across the {steady} steady-state batches: {allocated}"
    );
    assert!(steady >= 64, "window must cover >=64 steady-state batches, got {steady}");
    assert_eq!(allocated, 0, "steady-state pipeline must not allocate (operator outputs included)");
}

// ---------------------------------------------------------------------------
// criterion wrapper
// ---------------------------------------------------------------------------

fn bench(c: &mut Criterion) {
    alloc_experiment();
    skew_experiment();

    // Light criterion timings for the record (pure CPU, no stall model).
    let n = 1 << 19;
    let hot = skewed_hot(n);
    let (table, pool) = build_table(n, 16 * 1024, &hot);
    let mut g = c.benchmark_group("c15_morsel");
    g.sample_size(10)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(100));
    g.bench_function("skewed_scan_static_dop4", |b| {
        b.iter(|| run_skew(black_box(&table), &pool, &Scheme::StaticRanges, 0).2)
    });
    g.bench_function("skewed_scan_morsel_dop4", |b| {
        b.iter(|| run_skew(black_box(&table), &pool, &Scheme::Morsel { rows: 16 * 1024 }, 0).2)
    });
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    benches();
}
