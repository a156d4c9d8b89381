//! C11: the per-query cost of a short statement with everything a
//! statement pays for being monitored — registry entry, event log,
//! per-operator counters. Monitoring has no off switch to compare against.
use vw_bench::tpch::load_lineitem;
use vw_core::Database;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("c11");
    quick(&mut g);
    let db = Database::open_in_memory();
    load_lineitem(&db, 20_000, 11);
    g.bench_function("monitored_query", |b| {
        b.iter(|| db.execute("SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 25").unwrap())
    });
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
