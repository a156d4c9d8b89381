//! C4: PDT positional update + merge costs.
use std::sync::Arc;
use vw_common::{ColData, Value};
use vw_exec::morsel::MorselSource;
use vw_pdt::{Block, PdtStore, Rows};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("c4");
    quick(&mut g);
    g.bench_function("apply_1k_updates_on_100k", |b| {
        b.iter(|| {
            let store = PdtStore::new(100_000);
            let mut t = store.begin();
            for i in 0..1000u64 {
                let pos = (i * 7919) % t.n_rows();
                match i % 3 {
                    0 => t.delete_at(pos).unwrap(),
                    1 => t.insert_at(pos, vec![Value::I64(i as i64)]).unwrap(),
                    _ => t.update_at(pos, 0, Value::I64(1)).unwrap(),
                }
            }
            store.commit(t).unwrap()
        })
    });
    // The same table, 1000 scattered rows updated as one sorted batch: one
    // descent that shares the upper levels of the tree, against the
    // root-to-leaf copy per row above.
    let mut rids: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 100_000).collect();
    rids.sort_unstable();
    let rows = Rows { cols: vec![ColData::I64(vec![1; rids.len()])], nulls: vec![None] };
    let block = Arc::new(Block { cols: vec![0], rows });
    g.bench_function("apply_1k_updates_batch_on_100k", |b| {
        b.iter(|| {
            let store = PdtStore::new(100_000);
            let mut t = store.begin();
            t.update_batch(&rids, block.clone()).unwrap();
            store.commit(t).unwrap()
        })
    });
    let store = PdtStore::new(100_000);
    let mut t = store.begin();
    for i in 0..5000u64 {
        let pos = (i * 7919) % t.n_rows();
        t.update_at(pos, 0, Value::I64(1)).unwrap();
    }
    store.commit(t).unwrap();
    // The scan's merge stream: one claim of the whole image walks the
    // pinned root and copies out its pieces, seams joined.
    let mut pieces = Vec::new();
    g.bench_function("merge_stream_5k_deltas", |b| {
        b.iter(|| {
            let (root, _, _) = store.snapshot();
            MorselSource::new(root, usize::MAX).claim_into(&mut pieces);
            pieces.len()
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
