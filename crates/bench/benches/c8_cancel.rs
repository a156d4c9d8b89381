//! C8: cancellation check overhead — what a per-vector `CancelToken::check`
//! costs. That a KILL lands promptly mid-join is asserted, not timed:
//! `tests/architecture.rs::cancellation_is_prompt_and_clean`.
use vw_exec::CancelToken;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("c8");
    quick(&mut g);
    let t = CancelToken::new();
    g.bench_function("token_check_per_vector", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                t.check().unwrap();
            }
        })
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
