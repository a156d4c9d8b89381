//! C13: compiled expression programs.
//!
//! The compiled program dispatches a flat instruction list into pooled
//! registers. Measured at 1K / 64K / 1M rows, plus the fused select path,
//! each checked first against the per-tuple reference
//! (`PhysExpr::eval_tuple` / `selects_tuple`) over every row, plus the
//! acceptance-criterion proof that the steady-state per-batch `run` loop
//! performs **zero heap allocations** (counting global allocator, same
//! technique as C12).
//!
//! `dense_vs_selective` sets `program::DENSE_PCT`: it times the two loops
//! an F64 `+ - *` can run under a selection — every lane, or the selected
//! ones — at 5–95 % of a 1024-lane vector selected.

use criterion::{black_box, criterion_group, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use vw_common::{ColData, SelVec, TypeId, Value};
use vw_exec::expr::{BinOp, CmpOp, PhysExpr};
use vw_exec::primitives::{map_bin_full, map_bin_sel};
use vw_exec::program::{ExprProgram, SelectProgram, VectorPool};
use vw_exec::vector::Batch;
use vw_exec::Vector;

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

fn batch(n: usize, seed: u64) -> Batch {
    let mut rng = SmallRng::seed_from_u64(seed);
    let x: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000..1000)).collect();
    let y: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000..1000)).collect();
    Batch::new(vec![Vector::new(ColData::I64(x)), Vector::new(ColData::I64(y))])
}

fn col(i: usize) -> PhysExpr {
    PhysExpr::ColRef(i, TypeId::I64)
}

fn lit(k: i64) -> PhysExpr {
    PhysExpr::Const(Value::I64(k), TypeId::I64)
}

fn arith(op: BinOp, l: PhysExpr, r: PhysExpr) -> PhysExpr {
    PhysExpr::Arith { op, lhs: Box::new(l), rhs: Box::new(r), ty: TypeId::I64 }
}

/// The measured expression: `(x + y) * 2 + (x + y) / 7` — five interior
/// nodes in the tree; the compiled program CSEs the shared `(x + y)` and
/// folds nothing away, so both engines do the same arithmetic.
fn expr() -> PhysExpr {
    let sum = arith(BinOp::Add, col(0), col(1));
    arith(BinOp::Add, arith(BinOp::Mul, sum.clone(), lit(2)), arith(BinOp::Div, sum, lit(7)))
}

/// The measured predicate: `x > 100 AND y < 500 AND (x + y) % 3 = 0` — two
/// typed select steps plus one boolean program, chained selectively.
fn pred() -> PhysExpr {
    PhysExpr::And(vec![
        PhysExpr::Cmp { op: CmpOp::Gt, lhs: Box::new(col(0)), rhs: Box::new(lit(100)) },
        PhysExpr::Cmp { op: CmpOp::Lt, lhs: Box::new(col(1)), rhs: Box::new(lit(500)) },
        PhysExpr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(arith(BinOp::Rem, arith(BinOp::Add, col(0), col(1)), lit(3))),
            rhs: Box::new(lit(0)),
        },
    ])
}

fn checksum(v: &Vector) -> i64 {
    v.data.as_i64().iter().fold(0i64, |a, &b| a.wrapping_add(b))
}

/// Row `i` of `b` as a tuple.
fn tuple(b: &Batch, i: usize) -> Vec<Value> {
    b.columns.iter().map(|c| c.get(i)).collect()
}

/// [`checksum`] of `e` interpreted per tuple over every row of `b`.
fn reference_checksum(e: &PhysExpr, b: &Batch) -> i64 {
    (0..b.capacity()).fold(0i64, |a, i| match e.eval_tuple(&tuple(b, i)).unwrap() {
        Value::I64(v) => a.wrapping_add(v),
        other => panic!("BIGINT expected, got {other:?}"),
    })
}

// ---------------------------------------------------------------------------
// acceptance criterion: zero allocations in the steady-state run loop
// ---------------------------------------------------------------------------

fn steady_state_alloc_check() {
    let e = expr();
    let prog = ExprProgram::compile(&e);
    let b = batch(1 << 16, 42);
    let mut pool = VectorPool::new();
    // Warm the register arena, then measure 64 steady-state batches.
    let vr = prog.run(&mut pool, &b).unwrap();
    let warm = checksum(pool.get(&b, vr));
    pool.recycle();
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut acc = 0i64;
    for _ in 0..64 {
        let vr = prog.run(&mut pool, &b).unwrap();
        acc = acc.wrapping_add(checksum(pool.get(&b, vr)));
        pool.recycle();
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(acc, warm.wrapping_mul(64));
    assert_eq!(allocated, 0, "steady-state compiled expression loop must not allocate");
    println!("steady-state program.run allocations over 64 batches: {allocated} (OK)");
}

// ---------------------------------------------------------------------------
// F64 arithmetic under a selection: every lane or the selected ones
// ---------------------------------------------------------------------------

/// Best of five runs of 20 000 calls of `run`, in ns per call (on a shared
/// box noise only adds time).
fn best_ns(mut run: impl FnMut() -> f64) -> f64 {
    const REPS: usize = 20_000;
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0.0;
            for _ in 0..REPS {
                acc += run();
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / REPS as f64
        })
        .fold(f64::MAX, f64::min)
}

/// ns per vector of the full and of the selective loop of `f` over
/// `x`/`y` under `sel` (the closure is a type parameter, so each operator
/// is its own monomorphic loop, as in the program).
fn full_and_selective(
    x: &[f64],
    y: &[f64],
    sel: &SelVec,
    f: impl Fn(f64, f64) -> f64 + Copy,
) -> (f64, f64) {
    let last = x.len() - 1;
    let mut out = Vec::with_capacity(x.len());
    let full = best_ns(|| {
        map_bin_full(black_box(x), black_box(y), &mut out, f);
        out[last]
    });
    let selective = best_ns(|| {
        map_bin_sel(black_box(x), black_box(y), black_box(sel), &mut out, f);
        out[last]
    });
    (full, selective)
}

/// Per selectivity, ns per 1024-lane vector of the full loop and of the
/// selective loop for F64 `+ - *`. The program's kernel choice goes full
/// from `DENSE_PCT` on; this prints where that pays.
fn dense_vs_selective() {
    const LANES: usize = 1024;
    let mut rng = SmallRng::seed_from_u64(13);
    let x: Vec<f64> = (0..LANES).map(|_| rng.gen_range(-1e6..1e6)).collect();
    let y: Vec<f64> = (0..LANES).map(|_| rng.gen_range(-1e6..1e6)).collect();
    println!("F64 arithmetic, ns per {LANES}-lane vector, full loop / selective loop:");
    for pct in [5u32, 25, 50, 75, 95] {
        let sel: SelVec = (0..LANES as u32).filter(|_| rng.gen_range(0..100) < pct).collect();
        let cells = [
            ("+", full_and_selective(&x, &y, &sel, |p, q| p + q)),
            ("-", full_and_selective(&x, &y, &sel, |p, q| p - q)),
            ("*", full_and_selective(&x, &y, &sel, |p, q| p * q)),
        ];
        let row: String = cells
            .iter()
            .map(|(op, (full, selective))| format!("  {op} {full:>5.0} / {selective:>5.0}"))
            .collect();
        println!("  {pct:>2} % selected:{row}");
    }
}

fn bench(c: &mut Criterion) {
    steady_state_alloc_check();
    dense_vs_selective();

    let e = expr();
    let prog = ExprProgram::compile(&e);
    let p = pred();
    let mut sel_prog = SelectProgram::compile(&p);

    let mut g = c.benchmark_group("c13_exprprog");
    g.sample_size(10)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(150));

    for &n in &[1usize << 10, 1 << 16, 1 << 20] {
        let b = batch(n, 7);
        // Correctness cross-check against the reference before timing.
        let mut pool = VectorPool::new();
        let vr = prog.run(&mut pool, &b).unwrap();
        assert_eq!(checksum(pool.get(&b, vr)), reference_checksum(&e, &b), "engines disagree");
        pool.recycle();

        g.bench_function(format!("compiled_prog_{n}"), |bench| {
            bench.iter(|| {
                let vr = prog.run(&mut pool, black_box(&b)).unwrap();
                let s = checksum(pool.get(&b, vr));
                pool.recycle();
                s
            })
        });

        let want: Vec<u32> =
            (0..n as u32).filter(|&i| p.selects_tuple(&tuple(&b, i as usize)).unwrap()).collect();
        let compiled_sel = sel_prog.run(&mut pool, &b).unwrap();
        assert_eq!(compiled_sel.as_slice(), want, "select paths disagree");
        pool.put_sel(compiled_sel);
        pool.recycle();
        g.bench_function(format!("fused_select_{n}"), |bench| {
            bench.iter(|| {
                let s = sel_prog.run(&mut pool, black_box(&b)).unwrap();
                let out = s.len();
                pool.put_sel(s);
                // Release the boolean sub-program's result slot, exactly
                // as an operator would at end of batch — without this the
                // arena grows by one leased slot per iteration.
                pool.recycle();
                out
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    benches();
}
