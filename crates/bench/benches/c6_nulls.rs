//! C6: two-column vs branchy NULL handling.
//!
//! Both arms multiply two BIGINT vectors, 10 % NULL on one side, into a
//! fresh output vector. *Two-column* is what the engine runs: the
//! NULL-oblivious `mul_i64` kernel over safe values, the indicators ORed
//! beside it. *Branchy* is the strawman — written out here, it exists
//! nowhere in the engine — testing both NULL masks for every value inside
//! the arithmetic loop.
use vw_common::{ColData, Result, VwError};
use vw_exec::primitives::{mul_i64, ArithCheck};
use vw_exec::Vector;

fn two_column(a: &Vector, b: &Vector) -> Result<Vector> {
    let n = a.len();
    let mut out = Vec::with_capacity(n);
    mul_i64(a.data.as_i64(), b.data.as_i64(), None, &mut out, ArithCheck::Lazy)?;
    let nulls = (0..n).map(|i| a.is_null(i) | b.is_null(i)).collect();
    Ok(Vector::with_nulls(ColData::I64(out), Some(nulls)))
}

fn branchy(a: &Vector, b: &Vector) -> Result<Vector> {
    let (x, y) = (a.data.as_i64(), b.data.as_i64());
    let mut out = vec![0i64; x.len()];
    let mut nulls = vec![false; x.len()];
    for i in 0..x.len() {
        if a.is_null(i) || b.is_null(i) {
            nulls[i] = true;
        } else {
            out[i] = x[i].checked_mul(y[i]).ok_or(VwError::Overflow("*"))?;
        }
    }
    Ok(Vector::with_nulls(ColData::I64(out), Some(nulls)))
}

fn bench(c: &mut Criterion) {
    let n = 64 * 1024;
    let mask: Vec<bool> = (0..n).map(|i| i % 10 == 0).collect();
    let a = Vector::with_nulls(ColData::I64((0..n as i64).collect()), Some(mask));
    let b = Vector::new(ColData::I64(vec![3; n]));
    let (tc, br) = (two_column(&a, &b).unwrap(), branchy(&a, &b).unwrap());
    assert!((0..n).all(|i| tc.get(i) == br.get(i)), "the arms must agree");
    let mut g = c.benchmark_group("c6");
    quick(&mut g);
    g.bench_function("two_column", |bench| bench.iter(|| two_column(&a, &b).unwrap()));
    g.bench_function("branchy", |bench| bench.iter(|| branchy(&a, &b).unwrap()));
    g.finish();
}

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn quick(g: &mut criterion::BenchmarkGroup<criterion::measurement::WallTime>) {
    g.sample_size(10)
        .measurement_time(Duration::from_millis(500))
        .warm_up_time(Duration::from_millis(150));
}

criterion_group!(benches, bench);
criterion_main!(benches);
