//! Cooperative Scans on a bandwidth-limited device: relevance scheduling vs
//! attach vs naive LRU, over real compressed packs.
//!
//! Run with: `cargo run --release --example cooperative_io`

use std::sync::Arc;
use std::time::Instant;
use vectorwise::common::{ColData, Field, Schema, TypeId};
use vectorwise::storage::{BufferPool, DiskConfig, Layout, SimulatedDisk, TableStorage};
use vw_bench::coopscan::{Abm, ScanPolicy, TableChunkSource};

fn main() {
    // A table that is much larger than the chunk cache, on a simulated
    // 200 MB/s disk — the regime where scan scheduling decides throughput.
    let disk = SimulatedDisk::new(DiskConfig::hdd_like());
    let schema = Schema::new(vec![
        Field::not_null("k", TypeId::I64),
        Field::not_null("payload", TypeId::Str),
    ])
    .unwrap();
    let mut table = TableStorage::new(disk.clone(), schema.clone(), Layout::Dsm);
    let n = 400_000;
    let keys = ColData::I64((0..n as i64).collect());
    // Mildly compressible payloads so packs stay a realistic size.
    let payload =
        ColData::Str((0..n).map(|i| format!("payload-{:06}-{}", i, "x".repeat(i % 17))).collect());
    table.append_columns(&[keys, payload], &[None, None], 16 * 1024).unwrap();
    let table = Arc::new(table);
    println!("table: {} packs, {} KiB on disk", table.n_packs(), table.stored_bytes() >> 10);

    let scans = 4;
    for policy in [ScanPolicy::Naive, ScanPolicy::Attach, ScanPolicy::Relevance] {
        // Fresh pool per run so cache state doesn't leak between policies.
        let pool = BufferPool::new(disk.clone(), 1 << 20);
        let source = TableChunkSource::new(table.clone(), pool, vec![0, 1]);
        // Cache only a third of the table: sharing is forced.
        let abm = Abm::new(source, table.n_packs() / 3, policy);
        let before = disk.stats();
        let t0 = Instant::now();
        let mut handles = Vec::new();
        for s in 0..scans {
            let abm = abm.clone();
            handles.push(std::thread::spawn(move || {
                // Staggered arrivals, like queries in a real workload.
                std::thread::sleep(std::time::Duration::from_millis(5 * s));
                let mut h = abm.register();
                let mut checksum = 0i64;
                while let Some((_, chunk)) = h.next_chunk().unwrap() {
                    checksum += chunk[0].0.as_i64().iter().sum::<i64>();
                }
                checksum
            }));
        }
        let checksums: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let elapsed = t0.elapsed();
        assert!(checksums.windows(2).all(|w| w[0] == w[1]), "scans must agree");
        let after = disk.stats();
        let (loads, cached) = abm.io_stats();
        println!(
            "{:<10}  wall {:>7.1?}  chunk loads {:>3} (cache hits {:>3})  bytes read {:>9}",
            policy.name(),
            elapsed,
            loads,
            cached,
            after.bytes_read - before.bytes_read,
        );
    }
    println!("\nexpected shape: relevance < attach < naive in both time and I/O");
}
