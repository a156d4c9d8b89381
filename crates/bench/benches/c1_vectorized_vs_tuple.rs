//! C1: the paper's ">10x faster than conventional engines" claim, and what
//! handing a large result to a client costs: `result_batches` times
//! `execute` of `SELECT * FROM lineitem` (the plan's batches, kept as they
//! are), `result_rows` the same plus the client's row view (`rows()`, one
//! `Vec<Value>` per row).
use std::sync::Arc;
use vw_bench::experiments::{q6_projection, q6_schema, q6_vectorized, q6_volcano, BatchSource};
use vw_bench::tpch;
use vw_core::Database;

fn bench(c: &mut Criterion) {
    let n = 20_000;
    let cols = q6_projection(&tpch::gen_lineitem(n, 1).into_columns());
    let rows: Arc<Vec<Vec<vw_common::Value>>> =
        Arc::new((0..n).map(|i| cols.iter().map(|c| c.get_value(i)).collect()).collect());
    let mut g = c.benchmark_group("c1");
    quick(&mut g);
    for vs in [64usize, 1024, 16384] {
        let src = BatchSource::new(q6_schema(), &cols, vs);
        g.bench_function(format!("q6_vectorized_vs{vs}"), |b| {
            b.iter(|| q6_vectorized(src.reopen(), vs))
        });
    }
    g.bench_function("q6_tuple_at_a_time", |b| b.iter(|| q6_volcano(&rows)));

    let db = Database::open_in_memory();
    tpch::load_lineitem(&db, n, 1);
    let all = "SELECT * FROM lineitem";
    g.bench_function("result_batches", |b| b.iter(|| db.execute(all).unwrap().num_rows()));
    g.bench_function("result_rows", |b| b.iter(|| db.execute(all).unwrap().rows().len()));
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
