//! C11: the per-query cost of monitoring a short statement. A plain
//! statement still pays its registry entry, its event-log lines and the
//! few integer adds per batch of the counters only an operator can see
//! (encoded/flat input batches, hash-build partition sizes); it reads no
//! clock per operator. `EXPLAIN ANALYZE` adds one timing wrapper per
//! operator — two clock reads per `next()` — and the rendering: the
//! difference between the two rows is what measuring costs.
use vw_bench::tpch::load_lineitem;
use vw_core::Database;

const QUERY: &str = "SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 25";

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("c11");
    quick(&mut g);
    let db = Database::open_in_memory();
    load_lineitem(&db, 20_000, 11);
    g.bench_function("monitored_query", |b| b.iter(|| db.execute(QUERY).unwrap()));
    let analyzed = format!("EXPLAIN ANALYZE {QUERY}");
    g.bench_function("explain_analyze", |b| b.iter(|| db.execute(&analyzed).unwrap()));
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
