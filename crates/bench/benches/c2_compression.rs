//! C2: codec throughput. Encode is ns/iter per 64 Ki-value column; decode
//! is **ns per value, per codec, into the typed destination** the storage
//! layer decodes into (`BIGINT`, `INT`/`DATE`, `DOUBLE` bits) — the
//! one-pass path of `vw_compress::decompress`.
use vw_compress::{compress_with, decompress, Compressed, Encoding, Lane};

const N: usize = 64 * 1024;

/// Decode nanoseconds per value of `c` into a `Vec<T>`: the fastest of ten
/// 20 ms windows (on a shared box noise only adds time).
fn decode_ns_per_value<T: Lane>(c: &Compressed) -> f64 {
    let mut out: Vec<T> = Vec::with_capacity(c.len);
    let mut run = || decompress(c.encoding, c.len, black_box(&c.bytes), &mut out).unwrap();
    run();
    let window = |run: &mut dyn FnMut()| {
        let (t0, mut reps) = (Instant::now(), 0u32);
        while t0.elapsed() < Duration::from_millis(20) {
            run();
            reps += 1;
        }
        t0.elapsed().as_nanos() as f64 / reps as f64 / c.len as f64
    };
    (0..10).map(|_| window(&mut run)).fold(f64::INFINITY, f64::min)
}

fn bench(c: &mut Criterion) {
    let sorted: Vec<i64> = (0..N as i64).map(|i| 1_000_000 + i * 7).collect();
    let small: Vec<i64> = (0..N as i64).map(|i| (i * 2654435761) % 1000).collect();
    let outliers: Vec<i64> =
        small.iter().enumerate().map(|(i, &v)| if i % 100 == 0 { v << 20 } else { v }).collect();
    let runs: Vec<i64> = (0..N as i64).map(|i| i / 100).collect();
    let mut g = c.benchmark_group("c2");
    quick(&mut g);
    for (name, data, enc) in [
        ("raw", &small, Encoding::Raw),
        ("bitpack_small", &small, Encoding::BitPack),
        ("pfor_outliers", &outliers, Encoding::Pfor),
        ("pfordelta_sorted", &sorted, Encoding::PforDelta),
        ("dict_small", &small, Encoding::Dict),
        ("rle_runs", &runs, Encoding::Rle),
    ] {
        g.bench_function(format!("compress_{name}"), |b| {
            b.iter(|| compress_with(data, enc).unwrap())
        });
        let compressed = compress_with(data, enc).unwrap();
        println!(
            "c2/decode_{name}: {:.2} ns/value into BIGINT, {:.2} into INT, {:.2} into DOUBLE",
            decode_ns_per_value::<i64>(&compressed),
            decode_ns_per_value::<i32>(&compressed),
            decode_ns_per_value::<f64>(&compressed),
        );
    }
    g.finish();
}

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

fn quick(g: &mut criterion::BenchmarkGroup<criterion::measurement::WallTime>) {
    g.sample_size(10)
        .measurement_time(Duration::from_millis(500))
        .warm_up_time(Duration::from_millis(150));
}

criterion_group!(benches, bench);
criterion_main!(benches);
