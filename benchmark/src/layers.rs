//! Per-layer measurements that are direct calls into one crate rather than
//! spans around a statement: codecs, PDT updates, admission, the worker
//! pool, two concurrent sessions, and CHECKPOINT.

use crate::harness::{apply_settings, execute_sample};
use crate::stats::{fastq, median};
use crate::workloads::{CheckpointPlan, Instance};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use vw_common::{CancelToken, Value};
use vw_compress::{compress_with, decompress_into, Encoding};
use vw_pdt::PdtStore;
use vw_service::AdmissionController;

/// `fastq` of `reps` timed runs of `f`, in nanoseconds.
fn fastq_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    fastq(&samples)
}

/// (decode, encode) nanoseconds per value, averaged over the five codecs,
/// each on one 64 k-value column of the shape it is chosen for.
pub fn compress_ns_per_value() -> (f64, f64) {
    const N: usize = 64 * 1024;
    let mut x = 0x9E37_79B9u64;
    let mut next = move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) as i64
    };
    let columns: [(Encoding, Vec<i64>); 5] = [
        (Encoding::BitPack, (0..N).map(|_| next() % 4096).collect()),
        (
            Encoding::Pfor,
            (0..N).map(|i| if i % 100 == 0 { next() } else { next() % 1000 }).collect(),
        ),
        (Encoding::PforDelta, (0..N as i64).map(|i| i * 4 + i % 3).collect()),
        (Encoding::Dict, (0..N).map(|_| (next() % 25) * 1_000_003).collect()),
        (Encoding::Rle, (0..N as i64).map(|i| i / 100).collect()),
    ];
    let (mut decode, mut encode) = (0.0, 0.0);
    for (encoding, values) in &columns {
        let compressed = compress_with(values, *encoding).expect("codec accepts its own shape");
        let mut out = Vec::with_capacity(N);
        encode += fastq_ns(12, || {
            black_box(compress_with(black_box(values), *encoding).expect("as above"));
        });
        decode += fastq_ns(12, || {
            decompress_into(black_box(&compressed), &mut out).expect("decodes what it encoded");
        });
        assert_eq!(&out, values, "{} round trip", encoding.name());
    }
    let per_value = (columns.len() * N) as f64;
    (decode / per_value, encode / per_value)
}

/// Nanoseconds per PDT operation: a transaction of 1000 scattered updates,
/// 100 inserts and 100 deletes against a 100 k-row table, commit included.
pub fn pdt_apply_ns_per_op() -> f64 {
    const ROWS: u64 = 100_000;
    const OPS: u64 = 1200;
    let store = PdtStore::new(ROWS);
    let ns = fastq_ns(12, || {
        store.reset_after_checkpoint(ROWS);
        let mut txn = store.begin();
        for k in 0..1000 {
            txn.update_at(k * 97 % ROWS, 0, Value::I64(k as i64)).expect("rid in range");
        }
        for k in 0..100 {
            txn.insert_at(k * 911 % ROWS, vec![Value::I64(k as i64)]).expect("rid in range");
        }
        for k in 0..100 {
            txn.delete_at(k * 613 % ROWS).expect("rid in range");
        }
        store.commit(txn).expect("serial commit");
    });
    ns / OPS as f64
}

/// Microseconds for one admit + release round trip on an idle controller.
pub fn admit_us() -> f64 {
    const BATCH: usize = 1000;
    let controller = AdmissionController::new(1 << 30, 16);
    let token = CancelToken::new();
    let ns = fastq_ns(12, || {
        for _ in 0..BATCH {
            drop(black_box(controller.admit(1 << 20, &token).expect("idle controller admits")));
        }
    });
    ns / BATCH as f64 / 1e3
}

/// Microseconds from `WorkerPool::submit` to the task having run.
pub fn pool_submit_us(inst: &Instance) -> f64 {
    let pool = inst.db.worker_pool();
    let token = CancelToken::new();
    let (tx, rx) = mpsc::channel();
    let ns = fastq_ns(400, || {
        let tx = tx.clone();
        pool.submit(&token, move || tx.send(()).expect("receiver outlives the task"));
        rx.recv().expect("task ran");
    });
    ns / 1e3
}

/// Statements per second of two sessions over that of one, on the
/// workload's nominated statement. The only concurrent measurement; with
/// two cores and two pool workers it is informational.
pub fn two_session_speedup(inst: &mut Instance, budget: Duration) -> f64 {
    let idx = inst.two_session_stmt;
    apply_settings(&mut inst.session, &inst.stmts[idx]);
    let stmt = &inst.stmts[idx];

    let run_until = |session: &mut vw_core::Session, deadline: Instant| {
        let mut n = 0u64;
        while Instant::now() < deadline {
            if execute_sample(session, stmt).1.is_ok() {
                n += 1;
            }
        }
        n
    };
    let t0 = Instant::now();
    let one = run_until(&mut inst.session, t0 + budget) as f64 / t0.elapsed().as_secs_f64();

    let mut sessions = [inst.db.session(), inst.db.session()];
    for s in &mut sessions {
        apply_settings(s, stmt);
    }
    let t0 = Instant::now();
    let deadline = t0 + budget;
    let done: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> =
            sessions.iter_mut().map(|s| scope.spawn(move || run_until(s, deadline))).collect();
        handles.into_iter().map(|h| h.join().expect("session thread panicked")).sum()
    });
    let two = done as f64 / t0.elapsed().as_secs_f64();
    if one > 0.0 {
        two / one
    } else {
        0.0
    }
}

pub struct CheckpointCost {
    pub ms: f64,
    pub bytes_written: f64,
    /// `fastq` of the delta read once the table is delta-free.
    pub clean_read_ms: f64,
}

/// Three timed CHECKPOINTs of the table while it carries a round's deltas,
/// then the delta read on the delta-free table. Leaves the instance
/// without deltas, so it runs last.
pub fn checkpoint_cost(inst: &mut Instance, plan: &CheckpointPlan) -> CheckpointCost {
    let run = |inst: &mut Instance, idx: usize| {
        apply_settings(&mut inst.session, &inst.stmts[idx]);
        execute_sample(&mut inst.session, &inst.stmts[idx]).1.expect("checkpoint plan statement");
    };
    let (mut ms, mut bytes) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for &idx in &plan.dirty {
            run(inst, idx);
        }
        let before = inst.db.disk().stats().bytes_written;
        let t0 = Instant::now();
        inst.session.execute(&format!("CHECKPOINT {}", plan.table)).expect("CHECKPOINT");
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        bytes.push((inst.db.disk().stats().bytes_written - before) as f64);
        for &idx in &plan.cleanup {
            run(inst, idx);
        }
        inst.session.execute("CHECKPOINT").expect("CHECKPOINT of every table");
    }
    apply_settings(&mut inst.session, &inst.stmts[plan.read]);
    let clean: Vec<f64> =
        (0..12).map(|_| execute_sample(&mut inst.session, &inst.stmts[plan.read]).0).collect();
    CheckpointCost { ms: median(&ms), bytes_written: median(&bytes), clean_read_ms: fastq(&clean) }
}
