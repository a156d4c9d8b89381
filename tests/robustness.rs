//! Robustness integration tests: statement timeouts, KILL races, the
//! bounded event log, fault-injected end-to-end queries, and the
//! zero-machinery guarantees for fault-free/no-timeout configurations.
//! The failure model these tests pin down is documented in
//! ARCHITECTURE.md ("Failure model").

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vectorwise::common::{ColData, EngineConfig, FaultConfig, Value, VwError};
use vectorwise::core::monitor::QueryState;
use vectorwise::core::{bulk_load, Database};
use vectorwise::exec::MemBudget;
use vectorwise::storage::SimulatedDisk;

/// `MemBudget::global_in_use` is process-global: under a `VW_MEM_BUDGET`
/// lane every query of every test charges it, so a test asserting it is
/// back to zero must not overlap another test's query. Every test takes
/// this lock first (as `tests/service.rs` and `tests/chaos.rs` do).
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// A table big enough that a self-join at DOP 1 runs for hundreds of ms.
fn slow_db() -> Arc<Database> {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE big (k BIGINT NOT NULL, v BIGINT NOT NULL)").unwrap();
    let n = 200_000i64;
    // 100 matches per key: a ~20M-row join output that runs for hundreds
    // of ms but emits modest per-call batches (cancellation latency is
    // bounded by one vector per stage, so the fan-out per probe batch
    // must stay small for the 2x-deadline bound to be meaningful).
    let k = ColData::I64((0..n).map(|i| i % 2000).collect());
    let v = ColData::I64((0..n).collect());
    bulk_load(&db, "big", &[k, v], &[None, None]).unwrap();
    db
}

const SLOW_JOIN: &str = "SELECT COUNT(*) FROM big a JOIN big b ON a.k = b.k";

#[test]
fn statement_timeout_fires_within_twice_the_deadline_and_reclaims() {
    let _x = exclusive();
    let db = slow_db();
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

/// DML is a monitored statement like any other: the victim scan of an
/// UPDATE/DELETE runs under the statement's token, so `statement_timeout`
/// and `KILL` reach it, `SHOW QUERIES` lists it, and a statement that is
/// cut short leaves the table and the transaction as it found them.
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

    // Inside a transaction: the transaction stays open and untouched —
    // not even pinned to the snapshot the failed first touch would have
    // taken, so a row committed afterwards is visible to it.
    s.execute("BEGIN").unwrap();
    let err = s.execute("DELETE FROM t WHERE v = 7").unwrap_err();
    assert!(matches!(err, VwError::Cancelled), "{err}");
    assert_eq!(db.monitor.list_queries()[0].state, QueryState::TimedOut);
    assert!(s.in_transaction(), "a failed statement does not end the transaction");
    disk.disarm_faults();
    s.execute("SET statement_timeout = 0").unwrap();
    db.execute("INSERT INTO t VALUES (-1, 0)").unwrap();
    let seen = s.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(seen.scalar().unwrap(), &Value::I64(n + 1));
    s.execute("COMMIT").unwrap();
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
    // armed it for the whole suite via the VW_FAULT_* env.
    if std::env::var_os("VW_FAULT_IO_ERR").is_none()
        && std::env::var_os("VW_FAULT_CORRUPT").is_none()
        && std::env::var_os("VW_FAULT_LATENCY_US").is_none()
        && std::env::var_os("VW_FAULT_NTH_WRITE").is_none()
    {
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
            Ok(r) => assert_eq!(r.scalar().unwrap(), &Value::I64(28571)),
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

#[test]
fn env_overrides_configure_fault_injection() {
    let _x = exclusive();
    // The VW_FAULT_* env contract: parsed into EngineConfig::default() by
    // FaultConfig::from_env (unit-tested in vw-common); here we pin the
    // builder plumbing end to end through Database::open_with.
    let cfg = EngineConfig::default().with_faults(FaultConfig {
        seed: 42,
        latency_us: 100,
        ..Default::default()
    });
    assert!(cfg.faults.is_active(), "latency alone arms the injector");
    let db = Database::open_with(cfg, SimulatedDisk::instant());
    assert!(db.disk().faults_armed());
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    let t0 = Instant::now();
    let r = db.execute("SELECT x FROM t").unwrap();
    assert_eq!(r.rows(), &[vec![Value::I64(7)]]);
    assert!(t0.elapsed() >= Duration::from_micros(100), "latency charged");
}
