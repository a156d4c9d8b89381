//! C10: rewriter-expanded vs kernel-native SQL functions, and string
//! kernels over coded columns: a LIKE of `%` segments and a SUBSTR IN
//! list over a raw string column, UPPER over PDICT columns (each per lane,
//! through the codes).
use vw_bench::tpch::load_lineitem;
use vw_common::ColData;
use vw_core::Database;

/// `notes (k, c)`: `n` comment-like strings, every one distinct (raw
/// blocks), a few mentioning special requests.
fn load_notes(db: &std::sync::Arc<Database>, n: usize) {
    const WORDS: [&str; 12] = [
        "furiously",
        "carefully",
        "blithely",
        "quickly",
        "ironic",
        "regular",
        "pending",
        "deposits",
        "accounts",
        "packages",
        "special",
        "requests",
    ];
    db.execute("CREATE TABLE notes (k BIGINT NOT NULL, c VARCHAR NOT NULL)").unwrap();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let comments = (0..n)
        .map(|i| {
            let mut c = String::new();
            for _ in 0..6 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                c.push_str(WORDS[(x % WORDS.len() as u64) as usize]);
                c.push(' ');
            }
            c + &format!("#{i}")
        })
        .collect();
    let cols = [ColData::I64((0..n as i64).collect()), ColData::Str(comments)];
    vw_core::bulk_load(db, "notes", &cols, &[None, None]).unwrap();
}

fn bench(c: &mut Criterion) {
    let db = Database::open_in_memory();
    load_lineitem(&db, 20_000, 10);
    load_notes(&db, 20_000);
    let mut g = c.benchmark_group("c10");
    quick(&mut g);
    g.bench_function("kernel_upper_like", |b| {
        b.iter(|| {
            db.execute("SELECT COUNT(*) FROM lineitem WHERE UPPER(l_returnflag) = 'A'").unwrap()
        })
    });
    g.bench_function("rewriter_coalesce", |b| {
        b.iter(|| db.execute("SELECT SUM(COALESCE(l_quantity, 0)) FROM lineitem").unwrap())
    });
    g.bench_function("like_segments_raw", |b| {
        b.iter(|| {
            db.execute("SELECT COUNT(*) FROM notes WHERE c NOT LIKE '%special%requests%'").unwrap()
        })
    });
    g.bench_function("substr_in_list_raw", |b| {
        b.iter(|| {
            db.execute(
                "SELECT COUNT(*) FROM notes \
                 WHERE SUBSTR(c, 1, 2) IN ('fu', 'ca', 'bl', 'qu', 'ir', 're', 'sp')",
            )
            .unwrap()
        })
    });
    g.bench_function("upper_coded", |b| {
        b.iter(|| {
            db.execute("SELECT UPPER(l_returnflag), UPPER(l_linestatus) FROM lineitem").unwrap()
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
