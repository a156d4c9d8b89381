//! Robustness integration tests: statement timeouts, KILL races, the
//! bounded event log, fault-injected end-to-end queries, and the
//! zero-machinery guarantees for fault-free/no-timeout configurations.
//! The failure model these tests pin down is documented in
//! ARCHITECTURE.md ("Failure model").

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vectorwise::common::{
    ColData, EngineConfig, FaultConfig, Field, Schema, TypeId, Value, VwError,
};
use vectorwise::core::monitor::QueryState;
use vectorwise::core::{bulk_load, Database};
use vectorwise::exec::op::{BoxedOp, HashJoin, JoinType, SharedBuild, Values, Xchg};
use vectorwise::exec::partition::{SpillConfig, WorkerPool};
use vectorwise::exec::profile::OpProfile;
use vectorwise::exec::{Batch, CancelToken, ExprProgram, MemBudget, Operator, PhysExpr};
use vectorwise::storage::SimulatedDisk;
use vectorwise::volcano::{collect_rows, TupleHashJoin, TupleJoinKind, TupleValues};

/// `MemBudget::global_in_use` is process-global: under a `VW_MEM_BUDGET`
/// lane every query of every test charges it, so a test asserting it is
/// back to zero must not overlap another test's query. Every test takes
/// this lock first (as `tests/service.rs` and `tests/chaos.rs` do).
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// A table big enough that a self-join at DOP 1 runs for hundreds of ms.
/// Rows of `slow_db`'s table `big`.
const BIG_ROWS: i64 = 400_000;

fn slow_db() -> Arc<Database> {
    db_of(BIG_ROWS)
}

/// `slow_db`'s table `big`, of `rows` rows.
fn db_of(rows: i64) -> Arc<Database> {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE big (k BIGINT NOT NULL, v BIGINT NOT NULL)").unwrap();
    // 100 matches per key: a ~40M-row join output that runs for hundreds
    // of ms but emits modest per-call batches (cancellation latency is
    // bounded by one vector per stage, so the fan-out per probe batch
    // must stay small for the 2x-deadline bound to be meaningful). A
    // longer join takes more keys, never more matches per key.
    let k = ColData::I64((0..rows).map(|i| i % (rows / 100)).collect());
    let v = ColData::I64((0..rows).collect());
    bulk_load(&db, "big", &[k, v], &[None, None]).unwrap();
    db
}

const SLOW_JOIN: &str = "SELECT COUNT(*) FROM big a JOIN big b ON a.k = b.k";

/// `slow_db`, its table grown by keys — doubled at most twice — until an
/// unbounded `SLOW_JOIN` over it runs longer than `min`: on a fast build
/// the join at `BIG_ROWS` can end before a deadline test's precondition.
fn slower_than(min: Duration) -> Arc<Database> {
    let mut rows = BIG_ROWS;
    loop {
        let db = db_of(rows);
        let t0 = Instant::now();
        db.execute(SLOW_JOIN).unwrap();
        if t0.elapsed() > min || rows >= 4 * BIG_ROWS {
            return db;
        }
        rows *= 2;
    }
}

#[test]
fn statement_timeout_fires_within_twice_the_deadline_and_reclaims() {
    let _x = exclusive();
    // A margin over the 250 ms the test asks of its own run below.
    let db = slower_than(Duration::from_millis(400));
    let baseline = db.disk().used_bytes();
    // Sanity: the query takes much longer than the deadline we'll set.
    let t0 = Instant::now();
    db.execute(SLOW_JOIN).unwrap();
    let full = t0.elapsed();
    assert!(full > Duration::from_millis(250), "join too fast to test a timeout: {full:?}");

    db.execute("SET statement_timeout = 100").unwrap();
    let t0 = Instant::now();
    let err = db.execute(SLOW_JOIN).unwrap_err();
    let elapsed = t0.elapsed();
    assert!(matches!(err, VwError::Cancelled), "timeout surfaces as Cancelled: {err}");
    assert!(
        elapsed < Duration::from_millis(200),
        "must abort within 2x the 100ms deadline, took {elapsed:?}"
    );
    // Registry distinguishes the timeout from a user KILL and records the
    // configured deadline.
    let q = &db.monitor.list_queries()[0];
    assert_eq!(q.state, QueryState::TimedOut);
    assert_eq!(q.timeout, Some(Duration::from_millis(100)));
    // All resources reclaimed: no spill/temp blocks, no staged build
    // bytes, and the session is immediately usable again.
    assert_eq!(db.disk().used_bytes(), baseline, "no leaked blocks after timeout");
    assert_eq!(MemBudget::global_in_use(), 0, "budget fully uncharged after timeout");
    db.execute("SET statement_timeout = 0").unwrap();
    db.execute(SLOW_JOIN).unwrap();
}

#[test]
fn timeout_under_parallel_spilling_execution_reclaims_everything() {
    let _x = exclusive();
    let db = slow_db();
    let baseline = db.disk().used_bytes();
    db.execute("SET parallelism = 4").unwrap();
    db.execute("SET mem_budget = 65536").unwrap();
    db.execute("SET statement_timeout = 80").unwrap();
    let t0 = Instant::now();
    let err = db.execute(SLOW_JOIN).unwrap_err();
    assert!(matches!(err, VwError::Cancelled), "got {err}");
    assert!(t0.elapsed() < Duration::from_millis(160), "2x deadline bound at DOP 4");
    assert_eq!(db.monitor.list_queries()[0].state, QueryState::TimedOut);
    assert_eq!(db.disk().used_bytes(), baseline, "spill blocks reclaimed");
    assert_eq!(MemBudget::global_in_use(), 0, "budget uncharged across workers");
}

/// Set operations are governed like every other hash build: under a budget
/// far below their state, DISTINCT, UNION, INTERSECT and EXCEPT spill
/// through the aggregate they lower to, answer as they do unbounded, and
/// give back every charged byte and every spilled block.
#[test]
fn set_operations_spill_under_the_memory_budget_and_reclaim_it() {
    let _x = exclusive();
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE keys (k BIGINT NOT NULL)").unwrap();
    bulk_load(&db, "keys", &[ColData::I64((0..200_000).collect())], &[None]).unwrap();
    let baseline = db.disk().used_bytes();
    let half = "SELECT k FROM keys WHERE k < 100000";
    let queries = [
        ("SELECT DISTINCT k FROM keys".to_string(), 200_000),
        (format!("SELECT k FROM keys UNION {half}"), 200_000),
        (format!("SELECT k FROM keys INTERSECT {half}"), 100_000),
        (format!("SELECT k FROM keys EXCEPT {half}"), 100_000),
    ];
    // EXPLAIN ANALYZE returns the query's rows with its plan text.
    let run = |q: &str| {
        let r = db.execute(&format!("EXPLAIN ANALYZE {q}")).unwrap();
        let mut keys: Vec<i64> = r
            .rows()
            .iter()
            .map(|row| match row[0] {
                Value::I64(k) => k,
                ref other => panic!("{q}: {other:?}"),
            })
            .collect();
        keys.sort_unstable();
        (keys, r.text.unwrap())
    };
    for (q, rows) in &queries {
        db.execute("SET mem_budget = 0").unwrap();
        let (unbounded, _) = run(q);
        assert_eq!(unbounded.len(), *rows, "{q}");
        db.execute("SET mem_budget = 65536").unwrap();
        let (governed, text) = run(q);
        assert!(
            text.lines().any(|l| l.trim_start().starts_with("Aggr") && l.contains(" spill=")),
            "{q} must spill through its aggregate:\n{text}"
        );
        assert!(governed == unbounded, "{q}: rows differ under the budget");
    }
    assert_eq!(MemBudget::global_in_use(), 0, "budget fully uncharged");
    assert_eq!(db.disk().used_bytes(), baseline, "spill blocks reclaimed");
}

/// Passes `inner` through until it has served `ok` batches, then fails.
struct FailAfter {
    inner: BoxedOp,
    ok: usize,
}

impl Operator for FailAfter {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn name(&self) -> &'static str {
        "FailAfter"
    }
    fn next(&mut self) -> vectorwise::common::Result<Option<Batch>> {
        if self.ok == 0 {
            return Err(VwError::Exec("probe input failed mid-probe".into()));
        }
        self.ok -= 1;
        self.inner.next()
    }
}

/// Passes `inner` through and, when it drops, keeps its counters.
struct Capture {
    inner: BoxedOp,
    seen: Arc<Mutex<Vec<OpProfile>>>,
}

impl Operator for Capture {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn name(&self) -> &'static str {
        "Capture"
    }
    fn next(&mut self) -> vectorwise::common::Result<Option<Batch>> {
        self.inner.next()
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        let p = self.inner.profile().cloned().unwrap_or_default();
        self.seen.lock().unwrap().push(p);
    }
}

/// A shared join build overflows all or nothing. At DOP 4 the last sink
/// drains almost all of a skewed build share and crosses the budget,
/// while the other three hold a few rows each, well inside it, and
/// deposit them resident: the build writes those through a routed spill
/// too when the last sink deposits, and the build it publishes holds no
/// table. Every join type, with and without NULL build keys, answers as
/// volcano does; after the drain, and after a probe input that fails
/// mid-probe, nothing is charged and the disk holds what it held before.
#[test]
fn a_shared_build_overflows_all_or_nothing() {
    let _x = exclusive();
    let schema =
        Schema::new(vec![Field::nullable("k", TypeId::I64), Field::nullable("tag", TypeId::Str)])
            .unwrap();
    let row =
        |k: Option<i64>, tag: String| vec![k.map_or(Value::Null, Value::I64), Value::Str(tag)];
    let probe: Vec<Vec<Value>> =
        (0..400).map(|i| row((i % 13 != 0).then_some(i % 200), format!("p{i}"))).collect();
    let cases = [
        (JoinType::Inner, TupleJoinKind::Inner),
        (JoinType::LeftOuter, TupleJoinKind::LeftOuter),
        (JoinType::LeftSemi, TupleJoinKind::LeftSemi),
        (JoinType::LeftAnti, TupleJoinKind::LeftAnti),
        (JoinType::NullAwareLeftAnti, TupleJoinKind::NullAwareLeftAnti),
    ];
    let key = || vec![ExprProgram::compile(&PhysExpr::ColRef(0, TypeId::I64))];
    let values = |rows: &[Vec<Value>], batch: usize| -> BoxedOp {
        Box::new(Values::new(schema.clone(), rows.to_vec(), batch, CancelToken::new()))
    };
    let (dop, limit) = (4, 2048);
    let pool = WorkerPool::new(2);
    for build_nulls in [false, true] {
        // Sinks 0..3 get 8 rows each, sink 3 the other 576: ~50 of its rows
        // cross the budget. Every sink sees a NULL key when there are any.
        let shares: Vec<Vec<Vec<Value>>> = (0..dop)
            .map(|w| {
                let (lo, hi) = if w < 3 { (8 * w, 8 * w + 8) } else { (24, 600) };
                (lo..hi)
                    .map(|i| {
                        let null = build_nulls && i % 7 == 0;
                        row((!null).then_some(i as i64 % 150), format!("b{i}"))
                    })
                    .collect()
            })
            .collect();
        for (jt, kind) in cases {
            let expect = {
                let l = Box::new(TupleValues::new(schema.clone(), probe.clone()));
                let r = Box::new(TupleValues::new(schema.clone(), shares.concat()));
                let mut j = TupleHashJoin::with_kind(l, r, 0, 0, kind);
                let mut rows = collect_rows(&mut j).unwrap();
                rows.sort_by_key(|r| format!("{r:?}"));
                rows
            };
            for fail in [false, true] {
                let what = format!("{jt:?}, build NULLs {build_nulls}, probe fails {fail}");
                let disk = SimulatedDisk::instant();
                let baseline = disk.used_bytes();
                let cfg = SpillConfig::new(MemBudget::new(limit), disk.clone(), 8);
                let metrics = cfg.metrics.clone();
                let cancel = CancelToken::new();
                let build =
                    SharedBuild::new(key(), schema.clone(), jt, dop, cancel.clone()).governed(cfg);
                let build = Arc::new(build);
                let sinks = shares
                    .iter()
                    .map(|share| build.sink(Some(values(share, 8)), Vec::new(), None))
                    .collect();
                let out = if jt.emits_right() { schema.join(&schema) } else { schema.clone() };
                let probers = Arc::new(Mutex::new(Vec::new()));
                let frags = probe
                    .chunks(100)
                    .enumerate()
                    .map(|(w, share)| {
                        let mut input = values(share, 16);
                        if fail && w == 0 {
                            input = Box::new(FailAfter { inner: input, ok: 2 });
                        }
                        let j = HashJoin::probing(
                            input,
                            build.clone(),
                            key(),
                            out.clone(),
                            cancel.clone(),
                        );
                        Box::new(Capture { inner: Box::new(j), seen: probers.clone() }) as BoxedOp
                    })
                    .collect();
                let mut root = Xchg::spawn_staged(&pool, sinks, frags, &[build], cancel);
                let mut rows = Vec::new();
                let ended = loop {
                    match root.next() {
                        Ok(Some(b)) => rows.extend((0..b.rows()).map(|i| b.row_values(i))),
                        Ok(None) => break Ok(()),
                        Err(e) => break Err(e),
                    }
                };
                drop(root);
                if fail {
                    assert!(matches!(ended, Err(VwError::Exec(_))), "{what}: {ended:?}");
                } else {
                    ended.unwrap();
                    rows.sort_by_key(|r| format!("{r:?}"));
                    assert_eq!(rows, expect, "{what}");
                    let files = metrics.files.load(std::sync::atomic::Ordering::Relaxed);
                    assert!(files >= 8, "{what}: the build went to disk ({files} files)");
                }
                let probers = probers.lock().unwrap();
                assert_eq!(probers.len(), dop, "{what}");
                // Resident, these dense keys would make a direct table.
                assert!(
                    probers.iter().all(|p| !p.direct),
                    "{what}: the published build holds a table"
                );
                assert_eq!(MemBudget::global_in_use(), 0, "{what}: budget still charged");
                assert_eq!(disk.used_bytes(), baseline, "{what}: spill blocks not reclaimed");
            }
        }
    }
    pool.shutdown();
}

/// DML is a monitored statement like any other: the victim scan of an
/// UPDATE/DELETE runs under the statement's token, so `statement_timeout`
/// and `KILL` reach it, `SHOW QUERIES` lists it, and a statement that is
/// cut short leaves the table and the transaction as it found them — on
/// both table kinds.
/// (The scan used to run under a private token nothing could cancel.)
#[test]
fn statement_timeout_and_kill_reach_update_and_delete() {
    let _x = exclusive();
    // 64 packs of two columns, 5 ms per block read, through a buffer pool
    // too small to keep them: a victim scan is ≥ 600 ms of device time.
    let disk = SimulatedDisk::instant();
    let cfg = EngineConfig { buffer_pool_bytes: 1 << 10, pack_size: 64, ..EngineConfig::default() };
    let db = Database::open_with(cfg, disk.clone());
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT NOT NULL)").unwrap();
    let n = 64 * 64i64;
    let k = ColData::I64((0..n).collect());
    let v = ColData::I64((0..n).map(|i| (i * 31) % 1000).collect());
    bulk_load(&db, "t", &[k, v], &[None, None]).unwrap();
    let sum = |db: &Arc<Database>| db.execute("SELECT SUM(v), COUNT(*) FROM t").unwrap();
    let before = sum(&db).rows().to_vec();
    disk.arm_faults(FaultConfig { seed: 1, latency_us: 5000, ..Default::default() });

    // Auto-commit UPDATE under a timeout: typed error, TimedOut in the
    // registry under the statement's own text, nothing committed.
    let mut s = db.session();
    s.execute("SET statement_timeout = 60").unwrap();
    const UPDATE: &str = "UPDATE t SET v = v + 1 WHERE k % 2 = 0";
    let t0 = Instant::now();
    let err = s.execute(UPDATE).unwrap_err();
    assert!(matches!(err, VwError::Cancelled), "timeout surfaces as Cancelled: {err}");
    assert!(t0.elapsed() < Duration::from_millis(400), "cut short, took {:?}", t0.elapsed());
    let q = &db.monitor.list_queries()[0];
    assert_eq!((q.sql.as_str(), &q.state), (UPDATE, &QueryState::TimedOut));
    assert_eq!(q.timeout, Some(Duration::from_millis(60)));
    assert_eq!(q.session, s.id());
    assert!(!s.in_transaction());

    // Inside a transaction: the transaction stays open and untouched. It
    // reads the image it took at BEGIN, so a row committed afterwards is
    // visible to the session only once the transaction ends.
    s.execute("BEGIN").unwrap();
    let err = s.execute("DELETE FROM t WHERE v = 7").unwrap_err();
    assert!(matches!(err, VwError::Cancelled), "{err}");
    assert_eq!(db.monitor.list_queries()[0].state, QueryState::TimedOut);
    assert!(s.in_transaction(), "a failed statement does not end the transaction");
    disk.disarm_faults();
    s.execute("SET statement_timeout = 0").unwrap();
    db.execute("INSERT INTO t VALUES (-1, 0)").unwrap();
    let seen = s.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(seen.scalar().unwrap(), &Value::I64(n), "the snapshot taken at BEGIN");
    s.execute("COMMIT").unwrap();
    let seen = s.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(seen.scalar().unwrap(), &Value::I64(n + 1), "committed meanwhile");
    db.execute("DELETE FROM t WHERE k = -1").unwrap();
    assert_eq!(sum(&db).rows(), &before[..], "neither cancelled statement changed a row");

    // KILL reaches a running DELETE the same way.
    disk.arm_faults(FaultConfig { seed: 1, latency_us: 5000, ..Default::default() });
    let runner = {
        let db = db.clone();
        std::thread::spawn(move || db.execute("DELETE FROM t WHERE v = 7"))
    };
    let qid = loop {
        let running = db
            .monitor
            .list_queries()
            .into_iter()
            .find(|q| q.state == QueryState::Running && q.sql.starts_with("DELETE"));
        match running {
            Some(q) => break q.id,
            None => std::thread::sleep(Duration::from_micros(200)),
        }
    };
    db.kill(qid).unwrap();
    let err = runner.join().unwrap().unwrap_err();
    assert!(matches!(err, VwError::Cancelled), "{err}");
    assert_eq!(db.monitor.list_queries()[0].state, QueryState::Cancelled);
    disk.disarm_faults();
    assert_eq!(sum(&db).rows(), &before[..], "the killed DELETE removed nothing");

    // A heap table's UPDATE/DELETE is the same monitored statement: it is
    // listed under its own text, and its deadline ends it before the heap
    // is rewritten (its one page read takes 20 ms, the deadline is 1 ms).
    db.execute("CREATE TABLE h (k BIGINT NOT NULL, v BIGINT) WITH TYPE = HEAP").unwrap();
    db.execute("INSERT INTO h VALUES (1, 10), (2, 20)").unwrap();
    const HEAP_UPDATE: &str = "UPDATE h SET v = v + 1 WHERE k = 2";
    assert_eq!(db.execute(HEAP_UPDATE).unwrap().affected, 1);
    let q = &db.monitor.list_queries()[0];
    assert_eq!((q.sql.as_str(), &q.state), (HEAP_UPDATE, &QueryState::Finished));
    let mut s = db.session();
    s.execute("SET statement_timeout = 1").unwrap();
    disk.arm_faults(FaultConfig { seed: 1, latency_us: 20_000, ..Default::default() });
    let err = s.execute("DELETE FROM h WHERE k = 1").unwrap_err();
    disk.disarm_faults();
    assert!(matches!(err, VwError::Cancelled), "{err}");
    assert_eq!(db.monitor.list_queries()[0].state, QueryState::TimedOut);
    let heap = db.execute("SELECT k, v FROM h ORDER BY k").unwrap();
    let want = [[Value::I64(1), Value::I64(10)], [Value::I64(2), Value::I64(21)]];
    assert_eq!(heap.rows(), &want, "the timed-out DELETE removed nothing");
}

#[test]
fn queries_without_timeout_carry_no_deadline_machinery() {
    let _x = exclusive();
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("SELECT x FROM t").unwrap();
    // No timeout configured → the registry records none (and nothing was
    // registered with the deadline timer: a `CancelToken` without a
    // deadline is refused by `DeadlineQueue::register` — unit-tested in
    // vw-service::timer).
    assert_eq!(db.monitor.list_queries()[0].timeout, None);
    assert_eq!(db.config().statement_timeout_ms, 0);
    // Fault machinery equally absent by default — unless CI's fault lane
    // armed it for the whole suite via VW_FAULT_IO_ERR.
    if std::env::var_os("VW_FAULT_IO_ERR").is_none() {
        assert!(!db.config().faults.is_active());
        assert!(!db.disk().faults_armed());
        assert_eq!(db.disk().stats().faults_injected, 0);
    }
}

#[test]
fn kill_of_finished_query_is_a_clean_error_and_state_survives() {
    let _x = exclusive();
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    db.execute("SELECT SUM(x) FROM t").unwrap();
    let qid = db.monitor.list_queries()[0].id;
    // The KILL lands after completion: typed Exec error, terminal state
    // untouched, session unaffected.
    let err = db.execute(&format!("KILL {qid}")).unwrap_err();
    assert!(matches!(err, VwError::Exec(_)), "got {err}");
    assert_eq!(
        db.monitor.list_queries().iter().find(|q| q.id == qid).unwrap().state,
        QueryState::Finished
    );
    let err = db.execute("KILL 999999").unwrap_err();
    assert!(matches!(err, VwError::Exec(_)), "unknown id: {err}");
    db.execute("SELECT SUM(x) FROM t").unwrap();
}

#[test]
fn kill_racing_query_completion_never_panics_or_corrupts_state() {
    let _x = exclusive();
    // Fire short queries while another thread KILLs whatever is listed:
    // every KILL either cancels a running query or returns the typed
    // Exec error — the teardown-vs-registry race must never panic or
    // leave a Running entry behind.
    let db = slow_db();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let killer = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut outcomes = (0u32, 0u32); // (cancelled, clean errors)
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                for q in db.monitor.list_queries() {
                    match db.kill(q.id) {
                        Ok(()) => outcomes.0 += 1,
                        Err(VwError::Exec(_)) => outcomes.1 += 1,
                        Err(other) => panic!("KILL race surfaced {other}"),
                    }
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            outcomes
        })
    };
    let mut cancelled = 0;
    for _ in 0..30 {
        match db.execute("SELECT COUNT(*) FROM big WHERE v % 7 = 3") {
            // The v in 0..BIG_ROWS with v % 7 = 3.
            Ok(r) => assert_eq!(r.scalar().unwrap(), &Value::I64((BIG_ROWS + 3) / 7)),
            Err(VwError::Cancelled) => cancelled += 1,
            Err(other) => panic!("raced query surfaced {other}"),
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    let (kills, clean_errors) = killer.join().unwrap();
    // Every registry entry must have reached a terminal state.
    for q in db.monitor.list_queries() {
        assert_ne!(q.state, QueryState::Running, "stuck entry: {q:?}");
    }
    assert!(kills + clean_errors > 0, "the killer thread actually raced");
    let _ = cancelled;
}

/// `SET vector_size` sizes every batch the session's operators allocate,
/// so it is bounded where it enters: past `MAX_VECTOR_SIZE` a typed error,
/// not an allocation that aborts the process (5 G values), a capacity
/// overflow that panics the session's thread (`i64::MAX`), or lane
/// positions silently truncated to `u32`. The session stays usable and the
/// largest accepted value runs a scan.
#[test]
fn set_vector_size_is_bounded_and_a_rejected_value_changes_nothing() {
    use vectorwise::common::config::MAX_VECTOR_SIZE;
    let _x = exclusive();
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (a BIGINT NOT NULL)").unwrap();
    bulk_load(&db, "t", &[ColData::I64((0..5000).collect())], &[None]).unwrap();
    const SCAN: &str = "SELECT a FROM t WHERE a > 1";
    let before = db.config().vector_size;
    for bad in ["5000000000", "9223372036854775807", "4294967296", "1048577", "0"] {
        match db.execute(&format!("SET vector_size = {bad}; {SCAN}")) {
            Err(VwError::InvalidParameter(m)) => assert!(m.contains("vector_size"), "{bad}: {m}"),
            other => panic!("SET vector_size = {bad} must be rejected, got {other:?}"),
        }
        assert_eq!(db.config().vector_size, before, "a rejected SET changes nothing");
        assert_eq!(db.execute(SCAN).unwrap().rows().len(), 4998, "session usable after {bad}");
    }
    db.execute(&format!("SET vector_size = {MAX_VECTOR_SIZE}")).unwrap();
    assert_eq!(db.config().vector_size, 1 << 20);
    let r = db.execute(SCAN).unwrap();
    assert_eq!(r.rows().len(), 4998);
    assert_eq!(r.rows()[0], vec![Value::I64(2)]);
}

/// `EXPLAIN` explains a SELECT and nothing else. Of any other statement it
/// used to hand back the statement's Rust `Debug` dump as plan text; now it
/// is the typed `Unsupported` that `EXPLAIN ANALYZE` of a non-SELECT
/// already was — and neither runs the statement.
#[test]
fn explain_of_a_non_select_is_a_typed_error_that_runs_nothing() {
    let _x = exclusive();
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (a BIGINT NOT NULL)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    let rows =
        |db: &Arc<Database>| db.execute("SELECT a FROM t ORDER BY a").unwrap().rows().to_vec();
    let before = rows(&db);
    for stmt in [
        "DELETE FROM t",
        "UPDATE t SET a = 0",
        "INSERT INTO t VALUES (4)",
        "DROP TABLE t",
        "EXPLAIN SELECT 1",
        "EXPLAIN ANALYZE SELECT a FROM t",
    ] {
        for explain in ["EXPLAIN", "EXPLAIN ANALYZE"] {
            match db.execute(&format!("{explain} {stmt}")) {
                Err(VwError::Unsupported(m)) => assert!(m.contains("non-SELECT"), "{m}"),
                other => panic!("{explain} {stmt} must be Unsupported, got {other:?}"),
            }
            assert_eq!(rows(&db), before, "{explain} {stmt} changed the table");
        }
    }
}

#[test]
fn event_log_stays_bounded_through_set() {
    let _x = exclusive();
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("SET event_log_capacity = 10").unwrap();
    // Every failed execution logs one Error event; 50 failures must leave
    // at most 10 entries.
    for i in 0..50 {
        let err = db.execute(&format!("SELECT x / (x - 1) + {i} FROM t")).unwrap_err();
        assert!(matches!(err, VwError::DivideByZero));
    }
    let events = db.monitor.events();
    assert_eq!(events.len(), 10, "ring bound held");
    assert!(events.iter().all(|e| e.message.contains("E_DIV_ZERO")), "only failures retained");
    // Shrinking drops the oldest immediately.
    db.execute("SET event_log_capacity = 3").unwrap();
    assert_eq!(db.monitor.events().len(), 3);
}

#[test]
fn queries_survive_transient_fault_injection_end_to_end() {
    let _x = exclusive();
    // Low-probability injected faults (read errors + corruption) must be
    // absorbed by the retry policy: answers identical to fault-free,
    // zero errors surfaced, retries visible in the disk stats.
    let faults = FaultConfig {
        seed: 0xBAD5EED,
        read_err: 0.05,
        write_err: 0.05,
        corrupt: 0.05,
        ..Default::default()
    };
    // A 1-byte buffer pool forces every scan to the (faulted) device, so
    // the retry path is exercised on every pack read.
    let mut cfg = EngineConfig::default().with_faults(faults);
    cfg.buffer_pool_bytes = 1;
    let db = Database::open_with(cfg, SimulatedDisk::instant());
    assert!(db.disk().faults_armed());
    db.execute("CREATE TABLE t (g BIGINT NOT NULL, x BIGINT NOT NULL)").unwrap();
    let n = 20_000i64;
    let g = ColData::I64((0..n).map(|i| i % 17).collect());
    let x = ColData::I64((0..n).collect());
    bulk_load(&db, "t", &[g, x], &[None, None]).unwrap();
    for _ in 0..20 {
        let r = db.execute("SELECT SUM(x) FROM t").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::I64(n * (n - 1) / 2));
        let r = db.execute("SELECT COUNT(*) FROM t WHERE g = 0").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::I64(1177));
    }
    let stats = db.disk().stats();
    assert!(stats.faults_injected > 0, "faults actually fired");
    assert!(stats.io_retries > 0, "retries absorbed them");
}

#[test]
fn terminal_write_fault_surfaces_as_typed_error_and_session_survives() {
    let _x = exclusive();
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (x BIGINT NOT NULL)").unwrap();
    bulk_load(&db, "t", &[ColData::I64(vec![1, 2, 3])], &[None]).unwrap();
    let baseline = db.disk().used_bytes();
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(3));
    // Arm a terminal fault on the next device write: the next bulk load's
    // pack write fails with a non-retryable Io error...
    db.disk().arm_faults(FaultConfig { seed: 1, fail_nth_write: Some(1), ..Default::default() });
    let err = bulk_load(&db, "t", &[ColData::I64(vec![4])], &[None]).unwrap_err();
    assert!(matches!(err, VwError::Io { transient: false, .. }), "got {err}");
    db.disk().disarm_faults();
    // ...and the failed load leaked nothing and left the pre-fault rows
    // readable.
    assert_eq!(db.disk().used_bytes(), baseline, "failed write leaked blocks");
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(3), "pre-fault rows intact");
    db.execute("INSERT INTO t VALUES (5)").unwrap();
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM t").unwrap().scalar().unwrap(),
        &Value::I64(4),
        "session fully usable after the fault"
    );
}

/// A scan pins the stable generation its image addresses. A CHECKPOINT or
/// DROP TABLE landing while it runs installs the next generation or drops
/// the catalog's reference, and frees nothing the scan still reads: the
/// scan finishes with the answer it started on, and the old blocks go
/// when it drops.
#[test]
fn a_running_scan_outlives_checkpoint_and_drop_of_its_table() {
    use vectorwise::common::{Field, Schema, TypeId};
    use vectorwise::core::compile::build_plan;
    use vectorwise::exec::CancelToken;
    use vectorwise::sql::plan::LogicalPlan;

    let _x = exclusive();
    let db = Database::open_in_memory();
    let config = db.config();
    let n = 3 * config.pack_size as i64 + 100;
    let schema = Schema::new(vec![Field::not_null("k", TypeId::I64)]).unwrap();
    let scan = LogicalPlan::Scan {
        table: "t".into(),
        projection: vec![0],
        schema: schema.clone(),
        hints: Vec::new(),
    };
    for stmt in ["CHECKPOINT t", "DROP TABLE t"] {
        db.execute("CREATE TABLE t (k BIGINT NOT NULL)").unwrap();
        bulk_load(&db, "t", &[ColData::I64((0..n).collect())], &[None]).unwrap();
        // A delta, so CHECKPOINT writes a generation of its own.
        db.execute(&format!("DELETE FROM t WHERE k = {}", n - 1)).unwrap();
        let stored = db.disk().used_bytes();

        let mut op = build_plan(&db, &scan, &config, &CancelToken::new(), None).unwrap();
        let first = op.next().unwrap().expect("a first batch");
        db.execute(stmt).unwrap();
        assert!(db.disk().used_bytes() >= stored, "{stmt}: the scan's blocks are still there");
        let (mut rows, mut sum) = (0i64, 0i64);
        let mut count = |b: &vectorwise::exec::vector::Batch| {
            for i in 0..b.rows() {
                let Value::I64(k) = b.row_values(i)[0] else { unreachable!() };
                rows += 1;
                sum += k;
            }
        };
        count(&first);
        while let Some(b) = op.next().unwrap_or_else(|e| panic!("{stmt} under the scan: {e}")) {
            count(&b);
        }
        assert_eq!((rows, sum), (n - 1, (n - 1) * (n - 2) / 2), "{stmt}: the image it started on");

        assert!(db.disk().used_bytes() > stable_bytes(&db), "{stmt}: the scan holds more");
        drop(op);
        assert_eq!(db.disk().used_bytes(), stable_bytes(&db), "{stmt}: it went with the scan");
        match stmt {
            "CHECKPOINT t" => {
                let want = db.execute("SELECT COUNT(*), SUM(k) FROM t").unwrap();
                assert_eq!(want.rows(), &[vec![Value::I64(n - 1), Value::I64(sum)]]);
                db.execute("DROP TABLE t").unwrap();
            }
            _ => assert!(db.execute("SELECT COUNT(*) FROM t").is_err(), "t is gone"),
        }
        assert_eq!(db.disk().used_bytes(), 0, "{stmt}: every block freed");
    }
}

/// A CHECKPOINT that fails half-way drops the generation it was writing,
/// and every block of it, and the table answers as before; the next one
/// succeeds and frees the generation it replaced. A heap table's UPDATE,
/// which rewrites the heap, fails the same way: the old heap stays.
#[test]
fn a_failed_rewrite_frees_what_it_wrote_and_changes_nothing() {
    let _x = exclusive();
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT)").unwrap();
    let n = 40_000i64;
    let cols = [ColData::I64((0..n).collect()), ColData::I64((0..n).map(|i| i % 7).collect())];
    bulk_load(&db, "t", &cols, &[None, None]).unwrap();
    db.execute("DELETE FROM t WHERE k % 3 = 0").unwrap();
    const PROBE: &str = "SELECT COUNT(*), SUM(v) FROM t";
    let want = db.execute(PROBE).unwrap().rows().to_vec();
    let stored = db.disk().used_bytes();
    // The next generation is two packs of two columns: its fourth block
    // write fails for good, after three landed.
    db.disk().arm_faults(FaultConfig { seed: 1, fail_nth_write: Some(4), ..Default::default() });
    let err = db.execute("CHECKPOINT t").unwrap_err();
    db.disk().disarm_faults();
    assert!(matches!(err, VwError::Io { transient: false, .. }), "got {err}");
    assert_eq!(db.disk().used_bytes(), stored, "the failed CHECKPOINT's blocks are freed");
    assert_eq!(db.execute(PROBE).unwrap().rows(), want, "the table is as it was");

    db.execute("CHECKPOINT t").unwrap();
    assert_eq!(db.execute(PROBE).unwrap().rows(), want);
    assert!(stable_bytes(&db) < stored, "a third of the rows went");
    assert_eq!(db.disk().used_bytes(), stable_bytes(&db), "and the replaced generation");

    db.execute("CREATE TABLE h (k BIGINT NOT NULL, v BIGINT) WITH TYPE = HEAP").unwrap();
    db.execute("INSERT INTO h SELECT k, v FROM t").unwrap();
    const HEAP: &str = "SELECT COUNT(*), SUM(v) FROM h";
    let stored = db.disk().used_bytes();
    db.disk().arm_faults(FaultConfig { seed: 1, fail_nth_write: Some(2), ..Default::default() });
    let err = db.execute("UPDATE h SET v = v + 1").unwrap_err();
    db.disk().disarm_faults();
    assert!(matches!(err, VwError::Io { transient: false, .. }), "got {err}");
    assert_eq!(db.disk().used_bytes(), stored, "the failed rewrite's pages are freed");
    assert_eq!(db.execute(HEAP).unwrap().rows(), want, "the heap is as it was");
}

/// Bytes of every table's current stable storage: what the device should
/// hold once no scan pins an older generation.
fn stable_bytes(db: &Database) -> usize {
    use vectorwise::core::catalog::TableKind;
    let catalog = db.catalog.read();
    let tables = catalog.names().into_iter().filter_map(|t| catalog.get(&t));
    tables
        .map(|t| match &t.kind {
            TableKind::Vectorwise { storage, .. } => storage.stored_bytes(),
            TableKind::Heap { store } => store.read().stored_bytes(),
        })
        .sum()
}

#[test]
fn env_overrides_configure_fault_injection() {
    let _x = exclusive();
    // The VW_FAULT_* env contract: parsed into EngineConfig::default() by
    // FaultConfig::from_env (unit-tested in vw-common); here we pin the
    // builder plumbing end to end through Database::open_with.
    // A buffer pool smaller than one block: every block a scan touches is
    // a device read, and the injector charges each read its latency.
    let cfg = EngineConfig { buffer_pool_bytes: 1, ..EngineConfig::default() }
        .with_faults(FaultConfig { seed: 42, latency_us: 100, ..Default::default() });
    assert!(cfg.faults.is_active(), "latency alone arms the injector");
    let db = Database::open_with(cfg, SimulatedDisk::instant());
    assert!(db.disk().faults_armed());
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    // The row leaves the PDT for a pack on the device.
    db.execute("CHECKPOINT").unwrap();
    let reads = db.disk().stats().reads;
    let t0 = Instant::now();
    let r = db.execute("SELECT x FROM t").unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(r.rows(), &[vec![Value::I64(7)]]);
    assert!(db.disk().stats().reads > reads, "the SELECT reads a block from the device");
    assert!(elapsed >= Duration::from_micros(100), "latency charged");
}

/// A column that exists is never reported as unknown: the two correlated
/// shapes the binder cannot decorrelate — a reference two query levels up,
/// and a correlated scalar subquery in HAVING — are typed E_UNSUPPORTED
/// errors naming the construct, and the session goes on.
#[test]
fn correlation_the_binder_cannot_lower_is_a_typed_unsupported() {
    let _x = exclusive();
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (id BIGINT, v BIGINT)").unwrap();
    db.execute("CREATE TABLE s (id BIGINT, w BIGINT)").unwrap();
    db.execute("CREATE TABLE t2 (id BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    db.execute("INSERT INTO s VALUES (1, 5), (2, 7)").unwrap();
    db.execute("INSERT INTO t2 VALUES (1)").unwrap();
    let cases = [
        (
            "SELECT id FROM t WHERE v IN (SELECT w FROM s \
             WHERE s.id IN (SELECT t2.id FROM t2 WHERE t2.id = t.id))",
            "two or more levels up ('t.id')",
        ),
        (
            "SELECT id FROM t GROUP BY id \
             HAVING SUM(v) > (SELECT MAX(w) FROM s WHERE s.id = t.id)",
            "correlated scalar subquery in HAVING",
        ),
    ];
    for (sql, names) in cases {
        let err = db.execute(sql).unwrap_err();
        assert!(matches!(err, VwError::Unsupported(_)), "{sql}: {err}");
        assert!(err.to_string().contains(names), "{sql}: {err}");
        assert_eq!(db.execute("SELECT 1").unwrap().rows(), &[vec![Value::I64(1)]]);
    }
}

/// A grammar-based statement fuzzer over the whole front end (lexer →
/// parser → binder → optimizer → execute). Its seed taxonomy is that of
/// "Toward Understanding Bugs in Vector Database Management Systems": a
/// crash on malformed input, and a wrong result at a configuration
/// boundary. Every statement runs at DOP {1, 4} × `optimizer` {0, 1} and
/// must never panic: it succeeds in all four runs with equal row
/// multisets, or fails with the same `VwError` code in all four — and each
/// session still answers `SELECT 1` after a failure.
///
/// Deterministic per seed: the seed in use is printed at the start, and
/// `VW_FUZZ_SEED=<seed> cargo test --test robustness fuzz` reproduces it.
mod fuzz {
    use super::exclusive;
    use std::sync::Arc;
    use vectorwise::common::Value;
    use vectorwise::core::{Database, Session};

    const DEFAULT_SEED: u64 = 20_240_611;
    const STATEMENTS: usize = 240;

    fn seed() -> u64 {
        match std::env::var("VW_FUZZ_SEED") {
            Ok(s) => s.trim().parse().unwrap_or_else(|_| panic!("bad VW_FUZZ_SEED: {s:?}")),
            Err(_) => DEFAULT_SEED,
        }
    }

    /// splitmix64: small, seedable, and plenty to pick grammar branches.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, pct: u64) -> bool {
            self.next() % 100 < pct
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Ty {
        Int,
        Dbl,
        Str,
        Date,
    }

    use Ty::*;

    const TABLES: [(&str, &[(&str, Ty)]); 3] = [
        ("fa", &[("k", Int), ("x", Dbl), ("s", Str), ("d", Date)]),
        ("fb", &[("k", Int), ("y", Dbl), ("s", Str), ("d", Date)]),
        ("fc", &[("k", Int), ("z", Int), ("s", Str)]),
    ];
    const STRS: [&str; 5] = ["'ab'", "'ac'", "'b'", "'ba'", "'c'"];
    const DATES: [&str; 5] = [
        "DATE '1995-01-15'",
        "DATE '1995-03-01'",
        "DATE '1995-12-31'",
        "DATE '1996-02-29'",
        "DATE '1996-07-04'",
    ];

    /// Three small tables with NULLs in every column. Doubles are
    /// multiples of 0.5, so sums are exact in any order and every lane
    /// must print the same digits.
    fn load(db: &Arc<Database>) {
        for (t, (name, cols)) in TABLES.iter().enumerate() {
            let decl: Vec<String> = cols
                .iter()
                .map(|(c, ty)| {
                    let ty = match ty {
                        Int => "BIGINT",
                        Dbl => "DOUBLE",
                        Str => "VARCHAR",
                        Date => "DATE",
                    };
                    format!("{c} {ty}")
                })
                .collect();
            db.execute(&format!("CREATE TABLE {name} ({})", decl.join(", "))).unwrap();
            let rows: Vec<String> = (0..[24, 16, 8][t])
                .map(|i: usize| {
                    let vals: Vec<String> = cols
                        .iter()
                        .enumerate()
                        .map(|(c, (_, ty))| match ty {
                            _ if (i + 2 * c + t).is_multiple_of(6) => "NULL".to_string(),
                            Int => ((i * 3 + c + t) % 7).to_string(),
                            Dbl => format!("{:.1}", ((i * 5 + t) % 9) as f64 * 0.5),
                            Str => STRS[(i + t) % 5].to_string(),
                            Date => DATES[(i * 2 + t) % 5].to_string(),
                        })
                        .collect();
                    format!("({})", vals.join(", "))
                })
                .collect();
            db.execute(&format!("INSERT INTO {name} VALUES {}", rows.join(", "))).unwrap();
        }
        // Fresh statistics: `optimizer = 1` plans with them, 0 without.
        db.execute("CHECKPOINT").unwrap();
    }

    /// The columns a query level sees, qualified by alias.
    type Cols = Vec<(String, Ty)>;

    struct Gen {
        rng: Rng,
        aliases: usize,
    }

    impl Gen {
        fn alias(&mut self) -> String {
            self.aliases += 1;
            format!("t{}", self.aliases)
        }

        fn lit(&mut self, ty: Ty) -> String {
            match ty {
                Int => self.rng.below(8).to_string(),
                Dbl => format!("{:.1}", self.rng.below(10) as f64 * 0.5),
                Str => self.rng.pick(&STRS).to_string(),
                Date => self.rng.pick(&DATES).to_string(),
            }
        }

        fn cmp(&mut self) -> &'static str {
            self.rng.pick(&["=", "<>", "<", "<=", ">", ">="])
        }

        /// `[NOT] IN` over one to three literals of `ty`, now and then with
        /// a NULL member.
        fn in_list(&mut self, ty: Ty) -> String {
            let mut members: Vec<String> =
                (0..1 + self.rng.below(3)).map(|_| self.lit(ty)).collect();
            if self.rng.chance(30) {
                let at = self.rng.below(members.len() + 1);
                members.insert(at, "NULL".into());
            }
            let not = if self.rng.chance(30) { "NOT " } else { "" };
            format!("{not}IN ( {} )", members.join(" , "))
        }

        /// A function without a kernel primitive over column `c` of `ty`:
        /// its text and result type. The other argument is a column of the
        /// same type, a literal or NULL.
        fn func(&mut self, cols: &Cols, c: &str, ty: Ty) -> (String, Ty) {
            let other = match self.rng.below(3) {
                0 => self.col_of(cols, ty).unwrap_or_else(|| self.lit(ty)),
                1 => self.lit(ty),
                _ => "NULL".into(),
            };
            match self.rng.below(6) {
                0 => (format!("COALESCE ( {c} , {other} )"), ty),
                1 => (format!("NULLIF ( {c} , {other} )"), ty),
                2 => (format!("IFNULL ( {c} , {other} )"), ty),
                3 => (format!("GREATEST ( {c} , {other} , {} )", self.lit(ty)), ty),
                4 => (format!("LEAST ( {other} , {c} )"), ty),
                _ if ty == Int || ty == Dbl => (format!("SIGN ( {c} )"), Int),
                _ => (format!("LEAST ( {c} , {other} , NULL )"), ty),
            }
        }

        /// A column of `cols` of type `ty`, if there is one.
        fn col_of(&mut self, cols: &Cols, ty: Ty) -> Option<String> {
            let of: Vec<&String> = cols.iter().filter(|(_, t)| *t == ty).map(|(c, _)| c).collect();
            (!of.is_empty()).then(|| of[self.rng.below(of.len())].clone())
        }

        /// A base table and one of its columns of type `ty`.
        fn table_col(&mut self, ty: Ty) -> (&'static str, &'static str) {
            loop {
                let (t, cols) = self.rng.pick(&TABLES);
                if let Some((c, _)) = cols.iter().find(|(_, cty)| *cty == ty) {
                    return (t, c);
                }
            }
        }

        fn table(&mut self) -> (&'static str, Cols, String) {
            let (t, cols) = self.rng.pick(&TABLES);
            let a = self.alias();
            let cols = cols.iter().map(|(c, ty)| (format!("{a}.{c}"), *ty)).collect();
            (t, cols, a)
        }

        /// FROM: `(with-prefix, from-text, extra WHERE conjuncts, columns)`.
        fn from(&mut self, outer: &[Cols]) -> (String, String, Vec<String>, Cols) {
            let (t, mut cols, a) = self.table();
            match self.rng.below(7) {
                0 | 1 => (String::new(), format!("{t} {a}"), vec![], cols),
                2 | 3 => {
                    let (u, ucols, b) = self.table();
                    let kind = if self.rng.chance(40) { "LEFT JOIN" } else { "JOIN" };
                    let mut on = format!("{a}.k = {b}.k");
                    if self.rng.chance(30) {
                        on = format!("{on} AND {}", self.pred(&ucols, outer, 9));
                    }
                    cols.extend(ucols);
                    (String::new(), format!("{t} {a} {kind} {u} {b} ON {on}"), vec![], cols)
                }
                4 => {
                    let (u, ucols, b) = self.table();
                    let glue = if self.rng.chance(80) {
                        vec![format!("{a}.k = {}", self.col_of(&ucols, Int).expect("k"))]
                    } else {
                        vec![]
                    };
                    cols.extend(ucols);
                    (String::new(), format!("{t} {a} , {u} {b}"), glue, cols)
                }
                5 => {
                    // A derived table over two columns of one base table.
                    let (_, tcols) = TABLES.iter().find(|(n, _)| *n == t).unwrap();
                    let (c1, ty1) = tcols[self.rng.below(tcols.len())];
                    let inner: Cols = tcols.iter().map(|(c, ty)| (c.to_string(), *ty)).collect();
                    let filter = self.pred(&inner, &[], 9);
                    let text = format!("( SELECT k , {c1} AS v FROM {t} WHERE {filter} ) {a}");
                    (
                        String::new(),
                        text,
                        vec![],
                        vec![(format!("{a}.k"), Int), (format!("{a}.v"), ty1)],
                    )
                }
                _ => {
                    // A CTE, referenced once or joined with itself.
                    let (_, tcols) = TABLES.iter().find(|(n, _)| *n == t).unwrap();
                    let (c1, ty1) = tcols[1 + self.rng.below(tcols.len() - 1)];
                    let with = format!("WITH w AS ( SELECT k , {c1} FROM {t} ) ");
                    let mut cols = vec![(format!("{a}.k"), Int), (format!("{a}.{c1}"), ty1)];
                    if self.rng.chance(40) {
                        let b = self.alias();
                        cols.extend([(format!("{b}.k"), Int), (format!("{b}.{c1}"), ty1)]);
                        (with, format!("w {a} JOIN w {b} ON {a}.k = {b}.k"), vec![], cols)
                    } else {
                        (with, format!("w {a}"), vec![], cols)
                    }
                }
            }
        }

        /// A predicate over `cols`; `outer` holds the enclosing levels'
        /// columns, innermost last. `depth` > 1 generates no subqueries.
        fn pred(&mut self, cols: &Cols, outer: &[Cols], depth: usize) -> String {
            let (c, ty) = cols[self.rng.below(cols.len())].clone();
            let arms = if depth > 1 { 6 } else { 11 };
            match self.rng.below(arms) {
                0 if self.rng.chance(30) => {
                    let (f, fty) = self.func(cols, &c, ty);
                    format!("{f} {} {}", self.cmp(), self.lit(fty))
                }
                0 => format!("{c} {} {}", self.cmp(), self.lit(ty)),
                1 => format!("{c} IS {}NULL", if self.rng.chance(50) { "NOT " } else { "" }),
                2 => format!("{c} BETWEEN {} AND {}", self.lit(ty), self.lit(ty)),
                3 if self.rng.chance(50) => {
                    let (f, fty) = self.func(cols, &c, ty);
                    format!("{f} {}", self.in_list(fty))
                }
                3 => format!("{c} {}", self.in_list(ty)),
                4 => format!("( {} OR {} )", self.pred(cols, outer, 9), self.pred(cols, outer, 9)),
                5 if ty == Str => format!("{c} LIKE 'a%'"),
                5 => format!("NOT ( {c} {} {} )", self.cmp(), self.lit(ty)),
                6 => {
                    let (t, tc) = self.table_col(ty);
                    let not = if self.rng.chance(30) { "NOT " } else { "" };
                    format!("{c} {not}IN ( SELECT {tc} FROM {t} )")
                }
                7 | 8 => {
                    // Correlated EXISTS / IN on an equality, now and then
                    // reaching two levels up.
                    let (t, tcols, u) = self.table();
                    let key = match outer.last() {
                        Some(up) if self.rng.chance(15) => self.col_of(up, Int),
                        _ => self.col_of(cols, Int),
                    };
                    let Some(key) = key else { return format!("{c} IS NULL") };
                    let mut body = format!("{u}.k = {key}");
                    if self.rng.chance(40) {
                        let mut levels = outer.to_vec();
                        levels.push(cols.clone());
                        body = format!("{body} AND {}", self.pred(&tcols, &levels, depth + 1));
                    }
                    match (self.rng.chance(50), self.col_of(&tcols, ty)) {
                        (true, Some(tc)) => {
                            format!("{c} IN ( SELECT {tc} FROM {t} {u} WHERE {body} )")
                        }
                        _ => {
                            let not = if self.rng.chance(30) { "NOT " } else { "" };
                            format!("{not}EXISTS ( SELECT 1 FROM {t} {u} WHERE {body} )")
                        }
                    }
                }
                _ => {
                    // A scalar subquery: uncorrelated, or an aggregate per
                    // outer key.
                    let agg = self.rng.pick(&["MIN", "MAX", "AVG", "SUM", "COUNT"]);
                    let num = if ty == Dbl || ty == Int { ty } else { Dbl };
                    let c = if num == ty { c } else { self.col_of(cols, num).unwrap_or(c) };
                    let (t, tc) = self.table_col(num);
                    let u = self.alias();
                    let key = self.col_of(cols, Int);
                    match key {
                        Some(key) if self.rng.chance(50) => format!(
                            "{c} {} ( SELECT {agg} ( {u}.{tc} ) FROM {t} {u} WHERE {u}.k = {key} )",
                            self.cmp()
                        ),
                        _ => format!("{c} {} ( SELECT {agg} ( {tc} ) FROM {t} )", self.cmp()),
                    }
                }
            }
        }

        /// A non-aggregate SELECT item over `cols`.
        fn item(&mut self, cols: &Cols) -> String {
            let (c, ty) = cols[self.rng.below(cols.len())].clone();
            match (self.rng.below(5), ty) {
                (0, _) => c,
                (4, _) => self.func(cols, &c, ty).0,
                (1, Int | Dbl) => format!("{c} + 1"),
                (1, Str) => format!("UPPER ( {c} )"),
                (1, Date) => format!("EXTRACT ( YEAR FROM {c} )"),
                (2, Str) => format!("{c} LIKE 'a%'"),
                (2, Date) => format!("{c} + INTERVAL '1' DAY"),
                (2, _) => format!("COALESCE ( {c} , {} )", self.lit(ty)),
                _ => format!("CASE WHEN {} THEN 1 ELSE 0 END", self.pred(cols, &[], 9)),
            }
        }

        /// An item after aggregation: an aggregate, an expression over
        /// aggregates, or one over a group column.
        fn agg_item(&mut self, cols: &Cols, groups: &Cols) -> String {
            let c = cols[self.rng.below(cols.len())].0.clone();
            let num =
                self.col_of(cols, Dbl).or_else(|| self.col_of(cols, Int)).unwrap_or(c.clone());
            match self.rng.below(if groups.is_empty() { 9 } else { 12 }) {
                0 => "COUNT ( * )".into(),
                1 => format!("COUNT ( {c} )"),
                2 => format!("{} ( {c} )", self.rng.pick(&["MIN", "MAX"])),
                3 => format!("{} ( {num} )", self.rng.pick(&["SUM", "AVG"])),
                4 => format!("SUM ( {num} ) + 1"),
                5 => "CASE WHEN COUNT ( * ) > 1 THEN 'many' ELSE 'one' END".into(),
                6 => format!("SUM ( {num} ) BETWEEN 1 AND 10"),
                7 => "COUNT ( * ) IN ( 1 , 2 )".into(),
                8 => format!("MAX ( {c} ) IS NULL"),
                _ => match groups[self.rng.below(groups.len())].clone() {
                    (g, Str) => format!("{g} LIKE 'a%'"),
                    (g, Date) if self.rng.chance(50) => format!("EXTRACT ( YEAR FROM {g} )"),
                    (g, Date) => format!("{g} + INTERVAL '1' DAY"),
                    (g, _) => format!("{g} * 2"),
                },
            }
        }

        /// A random position among the tokens `p` accepts.
        fn token(&mut self, toks: &[String], p: impl Fn(&str) -> bool) -> Option<usize> {
            let hits: Vec<usize> = (0..toks.len()).filter(|&j| p(&toks[j])).collect();
            (!hits.is_empty()).then(|| hits[self.rng.below(hits.len())])
        }

        /// One SELECT core with its clauses; returns the text and its
        /// output width (`None` for `*`).
        fn core(&mut self, outer: &[Cols]) -> (String, Option<usize>) {
            let (with, from, mut conjuncts, cols) = self.from(outer);
            for _ in 0..self.rng.below(3) {
                conjuncts.push(self.pred(&cols, outer, 0));
            }
            let distinct = if self.rng.chance(15) { "DISTINCT " } else { "" };
            let mut tail = String::new();
            let (items, width) = if self.rng.chance(35) {
                let mut groups: Cols = Vec::new();
                for _ in 0..self.rng.below(3) {
                    let g = cols[self.rng.below(cols.len())].clone();
                    if !groups.contains(&g) {
                        groups.push(g);
                    }
                }
                let mut items: Vec<String> = groups.iter().map(|(g, _)| g.clone()).collect();
                for _ in 0..1 + self.rng.below(3) {
                    items.push(self.agg_item(&cols, &groups));
                }
                if !groups.is_empty() {
                    let g: Vec<&str> = groups.iter().map(|(g, _)| g.as_str()).collect();
                    tail = format!(" GROUP BY {}", g.join(" , "));
                }
                if self.rng.chance(50) {
                    let c = cols[self.rng.below(cols.len())].0.clone();
                    let num = self.col_of(&cols, Dbl).unwrap_or("1.0".into());
                    let having = match self.rng.below(7) {
                        0 => format!("COUNT ( * ) > {}", self.rng.below(3)),
                        1 => {
                            let (t, tc) = self.table_col(Dbl);
                            format!("MAX ( {num} ) > ( SELECT AVG ( {tc} ) FROM {t} )")
                        }
                        2 => format!("SUM ( {num} ) BETWEEN 1 AND 10"),
                        3 => "COUNT ( * ) IN ( 1 , 2 )".into(),
                        // No aggregate: over a group column, a constant,
                        // or a bare column (an error unless it is grouped).
                        4 => match groups.first() {
                            Some((g, _)) => format!("{g} IS NOT NULL"),
                            None => "1 = 1".into(),
                        },
                        5 => format!("{c} IS NULL"),
                        _ => format!("MAX ( {c} ) IS NOT NULL"),
                    };
                    tail = format!("{tail} HAVING {having}");
                }
                let n = items.len();
                (items.join(" , "), Some(n))
            } else if self.rng.chance(10) {
                ("*".to_string(), None)
            } else {
                let n = 1 + self.rng.below(3);
                let mut items: Vec<String> =
                    (0..n).map(|i| format!("{} AS c{i}", self.item(&cols))).collect();
                if self.rng.chance(5) {
                    // HAVING alone groups the whole input: a constant item
                    // gives one row, a column item the GROUP BY error.
                    tail = " HAVING 1 = 1".into();
                    items[0] = "1 AS c0".into();
                }
                (items.join(" , "), Some(n))
            };
            let filter = if conjuncts.is_empty() {
                String::new()
            } else {
                format!(" WHERE {}", conjuncts.join(" AND "))
            };
            (format!("{with}SELECT {distinct}{items} FROM {from}{filter}{tail}"), width)
        }

        fn statement(&mut self) -> String {
            let sql = if self.rng.chance(12) {
                // A set operation over one- or two-column operands.
                let tys: Vec<Ty> =
                    (0..1 + self.rng.below(2)).map(|_| self.rng.pick(&[Int, Str])).collect();
                let arm = |g: &mut Gen| {
                    let (t, cols, a) = g.table();
                    let items: Vec<String> = tys
                        .iter()
                        .map(|&ty| g.col_of(&cols, ty).expect("every table has k and s"))
                        .collect();
                    let filter = g.pred(&cols, &[], 9);
                    format!("SELECT {} FROM {t} {a} WHERE {filter}", items.join(" , "))
                };
                let op = self.rng.pick(&["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]);
                let (l, r) = (arm(self), arm(self));
                let order = if tys.len() == 1 { "1" } else { "1 , 2" };
                format!("{l} {op} {r} ORDER BY {order}")
            } else {
                let (mut sql, width) = self.core(&[]);
                if let Some(n) = width.filter(|_| self.rng.chance(40)) {
                    // ORDER BY every output column, so a LIMIT is exact.
                    let keys: Vec<String> = (1..=n)
                        .map(|i| format!("{i}{}", if self.rng.chance(30) { " DESC" } else { "" }))
                        .collect();
                    sql = format!("{sql} ORDER BY {}", keys.join(" , "));
                    if self.rng.chance(50) {
                        sql = format!("{sql} LIMIT {}", 1 + self.rng.below(5));
                    }
                }
                sql
            };
            if self.rng.chance(75) {
                return sql;
            }
            // A malformed statement: an unknown name, a type error, or a
            // dropped or duplicated token.
            let mut toks: Vec<String> = sql.split(' ').map(str::to_string).collect();
            let i = self.rng.below(toks.len());
            match self.rng.below(4) {
                0 => {
                    let name = |t: &str| {
                        ["fa", "fb", "fc"].contains(&t) || (t.starts_with('t') && t.contains('.'))
                    };
                    if let Some(j) = self.token(&toks, name) {
                        toks[j] = match toks[j].split_once('.') {
                            Some((alias, _)) => format!("{alias}.nope"),
                            None => "nosuch".into(),
                        };
                    }
                }
                1 => {
                    let lit = |t: &str| t.parse::<f64>().is_ok() || t.starts_with('\'');
                    if let Some(j) = self.token(&toks, lit) {
                        toks[j] =
                            if toks[j].starts_with('\'') { "7".into() } else { "'zz'".into() };
                    }
                }
                2 => {
                    toks.remove(i);
                }
                _ => toks.insert(i, toks[i].clone()),
            }
            toks.join(" ")
        }
    }

    /// A statement's outcome in one lane: its sorted rows, or its error code.
    fn outcome(s: &mut Session, sql: &str) -> Result<Vec<String>, &'static str> {
        match s.execute(sql) {
            Ok(r) => {
                let mut rows: Vec<String> = r.rows().iter().map(|row| format!("{row:?}")).collect();
                rows.sort();
                Ok(rows)
            }
            Err(e) => Err(e.code()),
        }
    }

    #[test]
    fn generated_statements_agree_across_dop_and_optimizer() {
        let _x = exclusive();
        let seed = seed();
        println!("fuzz seed: {seed} (set VW_FUZZ_SEED={seed} to reproduce)");
        let db = Database::open_in_memory();
        load(&db);
        let mut lanes: Vec<(String, Session)> = [(1, 0), (1, 1), (4, 0), (4, 1)]
            .iter()
            .map(|(dop, opt)| {
                let mut s = db.session();
                s.execute(&format!("SET parallelism = {dop}")).unwrap();
                s.execute(&format!("SET optimizer = {opt}")).unwrap();
                (format!("dop={dop} optimizer={opt}"), s)
            })
            .collect();
        let mut gen = Gen { rng: Rng(seed), aliases: 0 };
        let (mut agreed_rows, mut agreed_errors) = (0, 0);
        for n in 0..STATEMENTS {
            let sql = gen.statement();
            let outcomes: Vec<_> = lanes.iter_mut().map(|(_, s)| outcome(s, &sql)).collect();
            for (((lane, _), got), want) in lanes.iter().zip(&outcomes).skip(1).zip(&outcomes) {
                assert!(
                    got == want,
                    "seed {seed}, statement {n}: {lane} disagrees with {}\n{sql}\n{got:?}\nvs\n{want:?}",
                    lanes[0].0
                );
            }
            if outcomes[0].is_ok() {
                agreed_rows += 1;
                continue;
            }
            agreed_errors += 1;
            for (lane, s) in &mut lanes {
                let one =
                    s.execute("SELECT 1").unwrap_or_else(|e| panic!("{lane} after `{sql}`: {e}"));
                assert_eq!(one.rows(), &[vec![Value::I64(1)]], "{lane} after `{sql}`");
            }
        }
        println!("fuzz: {agreed_rows} statements agreed on rows, {agreed_errors} on an error code");
        // The grammar must reach both outcomes, or it tests nothing.
        assert!(agreed_rows > STATEMENTS / 3, "only {agreed_rows} statements ran");
        assert!(agreed_errors > STATEMENTS / 10, "only {agreed_errors} statements failed");
    }
}
