//! C14: "build once, probe many".
//!
//! A 200 k × 200 k join at DOP 1/2/4 on pools of 1/2/4 workers, with the
//! build side made once for the exchange (`SharedBuild`: `dop` sinks, one
//! table, `dop` probers) against the lowering it replaced, rebuilt here as
//! the reference — every fragment a `HashJoin` that drains the whole build
//! side for itself. Its keys are spread over a sparse domain, so the
//! shared build is one hashed table built over every sink's rows; a second
//! row runs the same join on dense keys, whose build is one direct table,
//! its finalize split by key range into one part per sink, at most one per
//! pool worker. The same two joins then run at DOP 1 under a budget a
//! quarter of the build: the sparse build spills routed by hash and
//! replays hashed, the dense one routed by key and replays direct.

use criterion::{black_box, criterion_group, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use vw_common::{ColData, Field, Schema, TypeId};
use vw_exec::cancel::CancelToken;
use vw_exec::expr::PhysExpr;
use vw_exec::op::{BoxedOp, HashJoin, JoinType, Operator, SharedBuild, Xchg};
use vw_exec::partition::{MemBudget, SpillConfig, WorkerPool};
use vw_exec::program::ExprProgram;
use vw_exec::{Batch, Vector};

fn gen_keys(n: usize, domain: i64, seed: u64) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
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

fn bench(_: &mut Criterion) {
    shared_vs_per_fragment_build();
    spilled_build();
}

criterion_group!(benches, bench);

fn main() {
    benches();
}
