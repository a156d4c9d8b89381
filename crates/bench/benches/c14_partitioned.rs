//! C14: partition-wise probing and "build once, probe many".
//!
//! The operator-level experiment: a 200 k × 200 k join at DOP 1/2/4 on
//! pools of 1/2/4 workers, with the build side made once for the exchange
//! (`SharedBuild`: `dop` sinks, one table set, `dop` probers) against the
//! lowering it replaced, rebuilt here as the reference — every fragment a
//! `HashJoin` that drains the whole build side for itself. Its keys are
//! spread over a sparse domain, so the shared build is the hashed one with
//! a table per slot; a second row runs the same join on dense keys, whose
//! build is one direct table, its finalize split by key range into one
//! part per sink, at most one per pool worker. The same two joins then run at DOP 1 under a budget a
//! quarter of the build: the sparse build spills routed by hash and
//! replays hashed, the dense one routed by key and replays direct.
//!
//! The kernel-level one: one `JoinTable` over 1 M build rows against
//! `P = 4` tables over their radix partitions (what a shared build above
//! the cost gate makes), probed monolithically and partition-wise — with
//! the proof that the steady-state partitioned *probe* loop (hash → radix
//! split → per-table fused probe) performs **zero heap allocations** once
//! warm (counting global allocator, same technique as C12/C13).

use criterion::{black_box, criterion_group, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vw_common::hash::hash_u64;
use vw_common::{ColData, Field, Schema, TypeId};
use vw_exec::cancel::CancelToken;
use vw_exec::expr::PhysExpr;
use vw_exec::hashtable::{JoinTable, ProbeBuf};
use vw_exec::op::{BoxedOp, HashJoin, JoinType, Operator, SharedBuild, Xchg};
use vw_exec::partition::{MemBudget, RadixRouter, SpillConfig, WorkerPool};
use vw_exec::program::ExprProgram;
use vw_exec::{Batch, Vector};

// ---------------------------------------------------------------------------
// counting allocator (steady-state allocation proof)
// ---------------------------------------------------------------------------

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// workload
// ---------------------------------------------------------------------------

/// Batch granularity of the build/probe streams (operator vector size ×64,
/// keeping the scatter per-batch work realistic without drowning in loop
/// overhead).
const VECTOR: usize = 1 << 14;

/// Radix partitions of the partition-wise probe.
const SHARDS: usize = 4;

fn gen_keys(n: usize, domain: i64, seed: u64) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
}

fn chunks(keys: &[i64]) -> Vec<&[i64]> {
    keys.chunks(VECTOR).collect()
}

/// One partition's build side: its keys and the table over them.
struct BuildShard {
    keys: Vec<i64>,
    table: JoinTable,
}

/// One table over all the keys: stage the hashes, bulk-build.
fn serial_build(batches: &[&[i64]]) -> (JoinTable, Vec<i64>) {
    let keys: Vec<i64> = batches.concat();
    let hashes: Vec<u64> = keys.iter().map(|&k| hash_u64(k as u64)).collect();
    (JoinTable::build(&[&hashes]), keys)
}

/// A table per radix partition of the keys (the hash's top bits), each
/// `shards`× smaller.
fn partitioned_build(batches: &[&[i64]], shards: usize) -> (RadixRouter, Vec<BuildShard>) {
    let mut router = RadixRouter::new(shards);
    let mut staged: Vec<(Vec<i64>, Vec<u64>)> = vec![Default::default(); router.partitions()];
    let mut hashes: Vec<u64> = Vec::new();
    for b in batches {
        hashes.clear();
        hashes.extend(b.iter().map(|&k| hash_u64(k as u64)));
        router.split(&hashes, None, b.len());
        for (si, (keys, staged_hashes)) in staged.iter_mut().enumerate() {
            let sel = router.shard_sel(si);
            keys.extend(sel.iter().map(|p| b[p]));
            staged_hashes.extend(sel.iter().map(|p| hashes[p]));
        }
    }
    let shards = staged
        .into_iter()
        .map(|(keys, hashes)| BuildShard { keys, table: JoinTable::build(&[&hashes]) })
        .collect();
    (router, shards)
}

/// Reusable partitioned-probe scratch, mirroring the operator's.
#[derive(Default)]
struct ProbeScratch {
    hashes: Vec<u64>,
    flags: Vec<bool>,
    out_probe: Vec<u32>,
    out_build: Vec<u32>,
    buf: ProbeBuf,
}

/// Probe every batch partition-wise; returns total matched pairs.
fn partitioned_probe(
    router: &mut RadixRouter,
    shards: &[BuildShard],
    batches: &[&[i64]],
    s: &mut ProbeScratch,
) -> u64 {
    let mut pairs = 0u64;
    for b in batches {
        let n = b.len();
        s.hashes.clear();
        s.hashes.extend(b.iter().map(|&k| hash_u64(k as u64)));
        if s.flags.len() < n {
            s.flags.resize(n, false);
        }
        s.flags[..n].fill(false);
        s.out_probe.clear();
        s.out_build.clear();
        router.split(&s.hashes, None, n);
        for (si, shard) in shards.iter().enumerate() {
            let sel = router.shard_sel(si);
            if sel.is_empty() {
                continue;
            }
            let hashes = &s.hashes;
            let keys = &shard.keys;
            shard.table.probe_join(
                n,
                Some(sel),
                true,
                |p| hashes[p],
                |p, row| b[p] == keys[row as usize],
                &mut s.flags,
                &mut s.out_probe,
                &mut s.out_build,
                &mut s.buf,
            );
        }
        pairs += s.out_probe.len() as u64;
    }
    pairs
}

/// Serial reference probe over the monolithic table.
fn serial_probe(table: &JoinTable, build_keys: &[i64], batches: &[&[i64]]) -> u64 {
    let mut s = ProbeScratch::default();
    let mut pairs = 0u64;
    for b in batches {
        let n = b.len();
        s.hashes.clear();
        s.hashes.extend(b.iter().map(|&k| hash_u64(k as u64)));
        if s.flags.len() < n {
            s.flags.resize(n, false);
        }
        s.flags[..n].fill(false);
        s.out_probe.clear();
        s.out_build.clear();
        let hashes = &s.hashes;
        table.probe_join(
            n,
            None,
            true,
            |p| hashes[p],
            |p, row| b[p] == build_keys[row as usize],
            &mut s.flags,
            &mut s.out_probe,
            &mut s.out_build,
            &mut s.buf,
        );
        pairs += s.out_probe.len() as u64;
    }
    pairs
}

// ---------------------------------------------------------------------------
// acceptance criteria: correctness, allocation-freedom
// ---------------------------------------------------------------------------

/// Partitioned build + probe must find exactly the pairs the serial path
/// finds, and the steady-state partitioned probe loop must not allocate.
fn correctness_and_alloc_check() {
    let n = 1 << 20;
    let build_keys = gen_keys(n, n as i64 / 2, 11);
    let probe_keys = gen_keys(1 << 18, n as i64, 13); // ~50% match rate
    let build_batches = chunks(&build_keys);
    let probe_batches = chunks(&probe_keys);

    let (table, keys) = serial_build(&build_batches);
    let (mut router, shards) = partitioned_build(&build_batches, SHARDS);
    let total: usize = shards.iter().map(|s| s.table.len()).sum();
    assert_eq!(total, n, "every build row landed in exactly one shard");

    let expect = serial_probe(&table, &keys, &probe_batches);
    let mut s = ProbeScratch::default();
    // Warm pass sizes every reused buffer (scratch, router sels, probe
    // staging) — exactly the operator's first-batch behaviour.
    let warm = partitioned_probe(&mut router, &shards, &probe_batches, &mut s);
    assert_eq!(warm, expect, "partitioned probe diverged from serial");

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut pairs = 0u64;
    for _ in 0..16 {
        pairs += partitioned_probe(&mut router, &shards, &probe_batches, &mut s);
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(pairs, expect * 16);
    assert_eq!(allocated, 0, "steady-state partitioned probe loop must not allocate");
    println!(
        "partitioned probe: {expect} pairs/pass, allocations over 16 steady-state passes: \
         {allocated} (OK)"
    );
}

// ---------------------------------------------------------------------------
// build once, probe many: the shared build vs a build per fragment
// ---------------------------------------------------------------------------

/// Serves ready-made batches.
struct Batches {
    schema: Schema,
    batches: std::vec::IntoIter<Batch>,
}

impl Operator for Batches {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn name(&self) -> &'static str {
        "Batches"
    }
    fn next(&mut self) -> vw_common::Result<Option<Batch>> {
        Ok(self.batches.next())
    }
}

fn kv_schema() -> Schema {
    Schema::new(vec![Field::not_null("k", TypeId::I64), Field::not_null("v", TypeId::I64)]).unwrap()
}

/// `(k, v)` batches over `keys`, every `of`-th 1024-row batch starting at
/// `share` (a worker's share of a dealt-out input; `0, 1` = all of it).
fn kv_source(keys: &[i64], share: usize, of: usize) -> BoxedOp {
    let batches: Vec<Batch> = keys
        .chunks(1024)
        .skip(share)
        .step_by(of)
        .map(|c| {
            let col = |d: Vec<i64>| Vector::new(ColData::I64(d));
            Batch::new(vec![col(c.to_vec()), col(c.iter().map(|k| k % 97).collect())])
        })
        .collect();
    Box::new(Batches { schema: kv_schema(), batches: batches.into_iter() })
}

fn key_program() -> Vec<ExprProgram> {
    vec![ExprProgram::compile(&PhysExpr::ColRef(0, TypeId::I64))]
}

/// The join at `dop`: a plain `HashJoin` at 1; inside an `Xchg` above it,
/// with the build shared or — the reference — made whole by every
/// fragment. Returns the output row count.
fn join_at(
    pool: &Arc<WorkerPool>,
    build: &[i64],
    probe: &[i64],
    dop: usize,
    shared: bool,
) -> usize {
    let cancel = CancelToken::new();
    let out = kv_schema().join(&kv_schema());
    let own = |probe_side: BoxedOp| {
        HashJoin::new(
            probe_side,
            kv_source(build, 0, 1),
            key_program(),
            key_program(),
            JoinType::Inner,
            out.clone(),
            cancel.clone(),
        )
        .expecting_build_rows(build.len())
    };
    let mut root: BoxedOp = if dop == 1 {
        Box::new(own(kv_source(probe, 0, 1)))
    } else if !shared {
        let frags = (0..dop).map(|w| Box::new(own(kv_source(probe, w, dop))) as BoxedOp).collect();
        Box::new(Xchg::spawn_on(pool, frags, cancel.clone()))
    } else {
        let sb = SharedBuild::new(key_program(), kv_schema(), JoinType::Inner, dop, cancel.clone())
            .partitioned(dop, 8192)
            .expecting(build.len());
        let sb = Arc::new(sb);
        let sinks =
            (0..dop).map(|w| sb.sink(Some(kv_source(build, w, dop)), Vec::new(), None)).collect();
        let frags = (0..dop)
            .map(|w| {
                let probe_side = kv_source(probe, w, dop);
                let j = HashJoin::probing(
                    probe_side,
                    sb.clone(),
                    key_program(),
                    out.clone(),
                    cancel.clone(),
                );
                Box::new(j) as BoxedOp
            })
            .collect();
        Box::new(Xchg::spawn_staged(pool, sinks, frags, &[sb], cancel.clone()))
    };
    let mut rows = 0;
    while let Some(b) = root.next().unwrap() {
        rows += b.rows();
    }
    rows
}

fn shared_vs_per_fragment_build() {
    let n = 200_000;
    println!(
        "200k x 200k join, ms (best of 15): build per fragment -> shared build \
         ({} hardware threads)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // Sparse keys keep every build hashed; dense ones make it direct.
    for (keys, scale) in [("sparse keys, hashed", 1_000_003), ("dense keys, direct", 1)] {
        println!(" {keys}:");
        let build: Vec<i64> = (0..n as i64).map(|k| k * scale).collect();
        let probe: Vec<i64> = gen_keys(n, n as i64, 21).iter().map(|k| k * scale).collect();
        join_at_every_dop(&build, &probe);
    }
}

/// The 200 k × 200 k join at DOP 1, resident and under a budget a quarter
/// of its build's 3.2 MB (16 grace partitions), on sparse and on dense
/// keys: ms, best of 7, and the replayed partitions that built direct.
fn spilled_build() {
    let n = 200_000;
    println!("200k x 200k join at DOP 1, ms (best of 7): resident -> spilled under n*16/4 bytes");
    for (keys, scale) in [("sparse keys, hashed", 1_000_003), ("dense keys, direct", 1)] {
        let build: Vec<i64> = (0..n as i64).map(|k| k * scale).collect();
        let probe: Vec<i64> = gen_keys(n, n as i64, 21).iter().map(|k| k * scale).collect();
        let run = |budget: Option<usize>| {
            let disk = vw_storage::SimulatedDisk::instant();
            let cfg = budget.map(|b| SpillConfig::new(MemBudget::new(b), disk, 16));
            let mut j = HashJoin::new(
                kv_source(&probe, 0, 1),
                kv_source(&build, 0, 1),
                key_program(),
                key_program(),
                JoinType::Inner,
                kv_schema().join(&kv_schema()),
                CancelToken::new(),
            );
            if let Some(cfg) = cfg.clone() {
                j = j.with_spill(cfg);
            }
            let t0 = Instant::now();
            let mut rows = 0;
            while let Some(b) = j.next().unwrap() {
                rows += b.rows();
            }
            assert_eq!(rows, n, "every probe key has its one build row");
            let replays = cfg.map_or((0, 0), |c| {
                let m = &c.metrics;
                (m.replayed_direct.load(Ordering::Relaxed), m.replayed.load(Ordering::Relaxed))
            });
            (t0.elapsed().as_secs_f64() * 1e3, replays)
        };
        let best = |budget| {
            (0..7).map(|_| run(budget)).fold(
                (f64::MAX, (0, 0)),
                |a, b| {
                    if b.0 < a.0 {
                        b
                    } else {
                        a
                    }
                },
            )
        };
        let (resident, _) = best(None);
        let (spilled, (direct, replayed)) = best(Some(n * 16 / 4));
        println!(
            " {keys}: {resident:>6.2} -> {spilled:>6.2} (x{:.2}), \
             {direct} of {replayed} replayed partitions direct",
            spilled / resident
        );
    }
}

/// One line per pool size: the join at DOP 1, then at DOP 2 and 4 with a
/// build per fragment and with the shared build.
fn join_at_every_dop(build: &[i64], probe: &[i64]) {
    let n = probe.len();
    let best = |f: &dyn Fn() -> usize| {
        (0..15)
            .map(|_| {
                let t0 = Instant::now();
                assert_eq!(black_box(f()), n, "every probe key has its one build row");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::MAX, f64::min)
    };
    for workers in [1usize, 2, 4] {
        let pool = WorkerPool::new(workers);
        let serial = best(&|| join_at(&pool, build, probe, 1, false));
        print!("  {workers} workers: dop 1 {serial:>6.2}");
        for dop in [2usize, 4] {
            let each = best(&|| join_at(&pool, build, probe, dop, false));
            let once = best(&|| join_at(&pool, build, probe, dop, true));
            print!("   dop {dop} {each:>6.2} -> {once:>6.2} (x{:.2})", each / once);
        }
        println!();
        pool.shutdown();
    }
}

fn bench(c: &mut Criterion) {
    shared_vs_per_fragment_build();
    spilled_build();

    correctness_and_alloc_check();

    let mut g = c.benchmark_group("c14_partitioned");
    g.sample_size(10)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(100));

    // Probe comparison at 1M build rows: monolithic vs partition-wise.
    {
        let n = 1 << 20;
        let build_keys = gen_keys(n, n as i64 / 2, 7);
        let probe_keys = gen_keys(1 << 18, n as i64, 9);
        let build_batches = chunks(&build_keys);
        let probe_batches = chunks(&probe_keys);
        let (table, keys) = serial_build(&build_batches);
        let (mut router, shards) = partitioned_build(&build_batches, SHARDS);
        let mut s = ProbeScratch::default();
        g.bench_function("serial_probe_1m", |b| {
            b.iter(|| serial_probe(&table, &keys, black_box(&probe_batches)))
        });
        g.bench_function(format!("partitioned_probe_x{SHARDS}_1m"), |b| {
            b.iter(|| partitioned_probe(&mut router, &shards, black_box(&probe_batches), &mut s))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    benches();
}
