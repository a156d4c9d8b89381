//! C7: overflow-checking strategies.
use vw_exec::primitives::{add_i64, ArithCheck};

fn bench(c: &mut Criterion) {
    let n = 64 * 1024;
    let a: Vec<i64> = (0..n as i64).collect();
    let bb: Vec<i64> = (0..n as i64).map(|i| i * 3).collect();
    let mut out = Vec::with_capacity(n);
    let mut g = c.benchmark_group("c7");
    quick(&mut g);
    for (name, mode) in [
        ("unchecked", ArithCheck::Unchecked),
        ("naive", ArithCheck::Naive),
        ("lazy_vectorized", ArithCheck::Lazy),
    ] {
        g.bench_function(name, |b| b.iter(|| add_i64(&a, &bb, None, &mut out, mode).unwrap()));
    }
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
