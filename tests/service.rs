//! Query-service stress suite: many sessions over one engine, a small
//! fixed worker pool, admission control, racing KILLs and tiny statement
//! timeouts — the multi-session counterpart of tests/chaos.rs.
//!
//! The stress test runs N session threads (N > pool workers) over shared
//! read-only OLAP tables plus one private DML table per session, with a
//! helper thread killing running SELECTs. Every successful read-only
//! answer must match a serial fault-free mirror database exactly; every
//! failure must be a typed `Cancelled` or `Admission` error. While the
//! run is in flight the suite samples the two service invariants —
//! admission grants never exceed the global limit, and process thread
//! count stays O(workers), not O(sessions × DOP) — and at the end it
//! checks for leaks: thread count back to baseline, memory budget fully
//! uncharged, admission queue empty.
//!
//! Deterministic companions cover the admission queue (typed E_ADMISSION
//! rejection when the queue is full, KILL dequeuing a queued query
//! cleanly), engine drop with queries mid-flight, and the SHOW
//! SESSIONS / SHOW QUERIES monitor views.
//!
//! The stress run is deterministic per seed; set `VW_SERVICE_SEED` to
//! reproduce (the seed in use is printed at the start).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vectorwise::common::{ColData, EngineConfig, Value, VwError};
use vectorwise::core::catalog::TableKind;
use vectorwise::core::monitor::QueryState;
use vectorwise::core::{bulk_load, Database, QueryResult};
use vectorwise::exec::MemBudget;
use vectorwise::storage::SimulatedDisk;

/// Session threads in the stress run — deliberately more than the pool's
/// two workers, so the service multiplexes them.
const SESSIONS: usize = 6;
const STMTS_PER_SESSION: usize = 25;
const DEFAULT_SEED: u64 = 0x5E55_0115;

/// Process-global observables (thread count, `MemBudget::global_in_use`)
/// would cross-talk if the harness ran these tests concurrently; every
/// test takes this lock first.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

fn service_seed() -> u64 {
    match std::env::var("VW_SERVICE_SEED") {
        Ok(s) => s.trim().parse().unwrap_or_else(|_| panic!("bad VW_SERVICE_SEED: {s:?}")),
        Err(_) => DEFAULT_SEED,
    }
}

/// Current thread count of this process, from /proc/self/status.
fn live_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

/// Engine threads of this process (pool workers and the deadline timer,
/// all named `vw-*`). Unlike [`live_threads`] this
/// does not count libtest's own threads, which come and go while a test
/// holds the [`exclusive`] lock (the harness spawns the next test's thread
/// whenever another finishes).
fn engine_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("vw-"))
        .count()
}

/// Rows as a sorted multiset of debug-printed tuples (parallel execution
/// reorders rows; answers compare as sets).
fn row_set(r: &QueryResult) -> Vec<String> {
    let mut v: Vec<String> = r.rows().iter().map(|row| format!("{row:?}")).collect();
    v.sort();
    v
}

/// Wait until `cond` holds, failing the test after `deadline`.
fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Shared read-only OLAP tables, loaded identically on both databases.
fn load_shared_tables(db: &Arc<Database>) {
    db.execute("CREATE TABLE t1 (k BIGINT NOT NULL, v BIGINT NOT NULL)").unwrap();
    db.execute("CREATE TABLE t2 (k BIGINT NOT NULL, w BIGINT NOT NULL)").unwrap();
    let n1 = 4000i64;
    let k1 = ColData::I64((0..n1).map(|i| i % 101).collect());
    let v1 = ColData::I64((0..n1).map(|i| (i * 37) % 1000).collect());
    bulk_load(db, "t1", &[k1, v1], &[None, None]).unwrap();
    let n2 = 2000i64;
    let k2 = ColData::I64((0..n2).map(|i| i % 101).collect());
    let w2 = ColData::I64((0..n2).map(|i| i % 10).collect());
    bulk_load(db, "t2", &[k2, w2], &[None, None]).unwrap();
}

/// A table fat enough that its self-join pins a worker (and its admission
/// grant) for a long, observable window even in debug builds.
fn load_big_table(db: &Arc<Database>) {
    db.execute("CREATE TABLE big (k BIGINT NOT NULL, v BIGINT NOT NULL)").unwrap();
    let n = 20_000i64;
    let k = ColData::I64((0..n).map(|i| i % 211).collect());
    let v = ColData::I64((0..n).map(|i| (i * 7) % 1000).collect());
    bulk_load(db, "big", &[k, v], &[None, None]).unwrap();
}

const HOLDER_SQL: &str = "SELECT COUNT(*) FROM big a JOIN big b ON a.k = b.k";

/// Per-session private DML table (only its owning session writes it, so
/// replaying successful statements on the mirror needs no ordering).
fn load_private_table(db: &Arc<Database>, i: usize) {
    db.execute(&format!("CREATE TABLE p{i} (k BIGINT NOT NULL, v BIGINT NOT NULL)")).unwrap();
    let n = 200i64;
    let k = ColData::I64((0..n).map(|x| x % 17).collect());
    let v = ColData::I64((0..n).map(|x| (x * 13) % 97).collect());
    bulk_load(db, &format!("p{i}"), &[k, v], &[None, None]).unwrap();
}

struct Stmt {
    sql: String,
    /// Mutates the session's private table (replay on the mirror when ok).
    dml: bool,
    /// Run under a 5ms statement timeout.
    timeout: bool,
    /// Run under a tiny memory budget (spilling join/agg path).
    spill: bool,
}

fn pick_statement(rng: &mut SmallRng, session: usize) -> Stmt {
    let roll = rng.gen_range(0..100u32);
    let (sql, dml) = match roll {
        0..=14 => ("SELECT COUNT(*), SUM(v) FROM t1".to_string(), false),
        15..=29 => {
            let m = rng.gen_range(3..10i64);
            let c = rng.gen_range(0..m);
            (format!("SELECT COUNT(*) FROM t1 WHERE v % {m} = {c}"), false)
        }
        30..=44 => {
            ("SELECT COUNT(*), SUM(a.v) FROM t1 a JOIN t2 b ON a.k = b.k".to_string(), false)
        }
        45..=56 => ("SELECT MAX(v) FROM t1 GROUP BY k".to_string(), false),
        57..=66 => (format!("SELECT COUNT(*), SUM(v) FROM p{session}"), false),
        67..=76 => {
            let k = rng.gen_range(0..17i64);
            let v = rng.gen_range(0..97i64);
            (format!("INSERT INTO p{session} VALUES ({k}, {v})"), true)
        }
        77..=86 => {
            let d = rng.gen_range(1..20i64);
            let k = rng.gen_range(0..17i64);
            (format!("UPDATE p{session} SET v = v + {d} WHERE k = {k}"), true)
        }
        _ => {
            let c = rng.gen_range(0..23i64);
            (format!("DELETE FROM p{session} WHERE v % 23 = {c}"), true)
        }
    };
    Stmt {
        sql,
        dml,
        // Only read-only statements race a timeout (a half-applied DML
        // would make the differential ambiguous); the killer thread
        // applies the same filter by SQL prefix.
        timeout: !dml && rng.gen_bool(0.15),
        spill: !dml && rng.gen_bool(0.2),
    }
}

/// N sessions × mixed OLAP/DML/spilling under racing KILLs and 5ms
/// timeouts on a 2-worker pool, differential against a serial mirror.
#[test]
fn stress_sessions_share_pool_and_match_serial_answers() {
    stress(false);
}

/// The stress run with a maintainer racing the sessions over a buffer pool
/// too small to hold the tables, so scans read the device: no-op UPDATEs
/// and CHECKPOINTs of the tables they read and write, and a table created,
/// loaded and dropped over and over under its readers; the killer also
/// takes UPDATEs and DELETEs. A scan pins the storage generation it
/// started on, so every read still matches the mirror (or, for the table
/// being dropped, one of its two known answers or `E_CATALOG`); a DML
/// statement that a CHECKPOINT overtook (`E_TXN_CONFLICT`) or a KILL cut
/// short applied nothing; at the end the device holds exactly the blocks
/// of the tables' current generations, and once every table is dropped,
/// nothing: none freed early, none leaked.
#[test]
fn stress_checkpoint_and_drop_race_live_scans() {
    stress(true);
}

/// The table the maintainer drops and re-creates, and its one reader.
const DROPPED_DDL: &str = "CREATE TABLE d (k BIGINT NOT NULL, v BIGINT NOT NULL)";
const DROPPED_READ: &str = "SELECT COUNT(*), SUM(v) FROM d";

fn load_dropped_table(db: &Arc<Database>) {
    db.execute(DROPPED_DDL).unwrap();
    let n = 3000i64;
    let k = ColData::I64((0..n).collect());
    let v = ColData::I64((0..n).map(|i| i % 13).collect());
    bulk_load(db, "d", &[k, v], &[None, None]).unwrap();
}

/// The stress run; `maintenance` adds the maintainer thread (see
/// [`stress_checkpoint_and_drop_race_live_scans`]).
fn stress(maintenance: bool) {
    let _x = exclusive();
    let seed = service_seed();
    println!("service seed: {seed} (set VW_SERVICE_SEED={seed} to reproduce)");

    let mut cfg =
        EngineConfig::default().with_workers(2).with_global_mem(32 << 20).with_parallelism(4);
    if maintenance {
        // Scans read the device, not the cache.
        cfg.buffer_pool_bytes = 16 << 10;
    }
    let db = Database::open_with(cfg, SimulatedDisk::instant());
    let empty_device = db.disk().used_bytes();
    // The maintainer gets a longer run to race.
    let stmts = STMTS_PER_SESSION * (1 + 3 * maintenance as usize);
    let mirror = Database::open_in_memory();
    load_shared_tables(&db);
    load_shared_tables(&mirror);
    for i in 0..SESSIONS {
        load_private_table(&db, i);
        load_private_table(&mirror, i);
    }
    // The two answers `DROPPED_READ` may give while `d` exists: loaded,
    // or created and not yet loaded.
    load_dropped_table(&mirror);
    let dropped_answers = [
        row_set(&mirror.execute(DROPPED_READ).unwrap()),
        vec![format!("{:?}", [Value::I64(0), Value::Null])],
    ];
    let limit = db.admission().expect("global mem configured").limit();

    // Engine threads (pool workers + deadline timer) all exist at open;
    // the only threads this test adds beyond the baseline are its own
    // session threads, the killer and the maintainer.
    let thread_baseline = live_threads();
    let thread_cap = thread_baseline + SESSIONS + 1 + maintenance as usize;

    // The plain run kills SELECTs only; with the maintainer, UPDATE and
    // DELETE too — a killed statement applied nothing, so the final
    // differential holds either way.
    let killable = move |sql: &str| {
        sql.starts_with("SELECT")
            || maintenance && (sql.starts_with("UPDATE") || sql.starts_with("DELETE"))
    };
    let stop = Arc::new(AtomicBool::new(false));
    let killer = {
        let (db, stop) = (db.clone(), stop.clone());
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x4B11);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Some(q) = db
                    .monitor
                    .list_queries()
                    .iter()
                    .find(|q| q.state == QueryState::Running && killable(&q.sql))
                {
                    if rng.gen_bool(0.3) {
                        let _ = db.kill(q.id);
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let maintainer = maintenance.then(|| {
        let (db, stop) = (db.clone(), stop.clone());
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4EC);
        std::thread::spawn(move || {
            let mut rounds = 0u32;
            while !stop.load(Ordering::Relaxed) {
                // A no-op UPDATE gives the next CHECKPOINT deltas to merge
                // without changing what the sessions read; the killer may
                // take it.
                let k = rng.gen_range(0..101);
                let update = match rng.gen_bool(0.5) {
                    true => format!("UPDATE t1 SET v = v WHERE k = {k}"),
                    false => format!("UPDATE t2 SET w = w WHERE k = {k}"),
                };
                match db.execute(&update) {
                    Ok(_) | Err(VwError::Cancelled) => {}
                    Err(e) => panic!("{update}: {e} (seed {seed})"),
                }
                let sql = match rng.gen_range(0..4u32) {
                    0 => "CHECKPOINT t1".to_string(),
                    1 => "CHECKPOINT t2".to_string(),
                    2 => format!("CHECKPOINT p{}", rng.gen_range(0..SESSIONS)),
                    _ => "CHECKPOINT".to_string(),
                };
                db.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e} (seed {seed})"));
                if db.catalog.read().get("d").is_some() {
                    db.execute("DROP TABLE d").unwrap();
                } else {
                    load_dropped_table(&db);
                }
                rounds += 1;
            }
            rounds
        })
    });

    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let (db, mirror) = (db.clone(), mirror.clone());
            let dropped_answers = dropped_answers.clone();
            std::thread::Builder::new()
                .name(format!("vw-svc-session-{i}"))
                .spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(i as u64));
                    let mut session = db.session();
                    let (mut ok, mut cancelled, mut admission, mut raced) = (0u32, 0, 0, 0);
                    for _ in 0..stmts {
                        let stmt = match maintenance && rng.gen_bool(0.15) {
                            true => Stmt {
                                sql: DROPPED_READ.to_string(),
                                dml: false,
                                timeout: false,
                                spill: false,
                            },
                            false => pick_statement(&mut rng, i),
                        };
                        let dropped = stmt.sql == DROPPED_READ;
                        if stmt.spill {
                            session.execute("SET mem_budget = 65536").unwrap();
                        }
                        if stmt.timeout {
                            session.execute("SET statement_timeout = 5").unwrap();
                        }
                        let res = session.execute(&stmt.sql);
                        if stmt.timeout {
                            session.execute("SET statement_timeout = 0").unwrap();
                        }
                        if stmt.spill {
                            session.execute("SET mem_budget = 0").unwrap();
                        }
                        match res {
                            Ok(r) => {
                                ok += 1;
                                if dropped {
                                    let got = row_set(&r);
                                    assert!(
                                        dropped_answers.contains(&got),
                                        "session {i}: {DROPPED_READ:?} gave {got:?} (seed {seed})"
                                    );
                                } else if stmt.dml {
                                    // Private-table effect: replay on the
                                    // mirror (only this session writes p{i}).
                                    mirror.execute(&stmt.sql).unwrap_or_else(|e| {
                                        panic!("mirror failed on {:?}: {e}", stmt.sql)
                                    });
                                } else {
                                    let m = mirror.execute(&stmt.sql).unwrap_or_else(|e| {
                                        panic!("mirror failed on {:?}: {e}", stmt.sql)
                                    });
                                    assert_eq!(
                                        row_set(&r),
                                        row_set(&m),
                                        "session {i}: {:?} diverged (seed {seed})",
                                        stmt.sql
                                    );
                                }
                            }
                            Err(VwError::Cancelled) => {
                                assert!(!stmt.dml || maintenance, "only SELECTs are killed");
                                cancelled += 1;
                            }
                            Err(VwError::Admission(_)) => admission += 1,
                            // A CHECKPOINT overtook the statement's
                            // transaction, or dropped the table it reads.
                            Err(VwError::TxnConflict(_)) if maintenance && stmt.dml => raced += 1,
                            Err(VwError::Catalog(_)) if dropped => raced += 1,
                            Err(e) => {
                                panic!("session {i}: {:?} surfaced {e} (seed {seed})", stmt.sql)
                            }
                        }
                        // In-flight invariants: grants bounded by the global
                        // limit, thread count O(workers) not O(sessions).
                        let in_use = db.admission().unwrap().in_use();
                        assert!(in_use <= limit, "grants {in_use} exceed limit {limit}");
                        let threads = live_threads();
                        assert!(
                            threads <= thread_cap,
                            "{threads} threads live (cap {thread_cap}): pool is not bounding \
                             execution threads"
                        );
                    }
                    (ok, cancelled, admission, raced)
                })
                .unwrap()
        })
        .collect();

    let mut totals = (0u32, 0u32, 0u32, 0u32);
    for h in handles {
        let (ok, cancelled, admission, raced) = h.join().expect("session thread panicked");
        totals.0 += ok;
        totals.1 += cancelled;
        totals.2 += admission;
        totals.3 += raced;
    }
    stop.store(true, Ordering::Relaxed);
    killer.join().unwrap();
    let rounds = maintainer.map(|m| m.join().expect("maintainer thread panicked"));
    println!(
        "service stress: {} ok, {} cancelled, {} admission-rejected, {} raced a CHECKPOINT or \
         DROP, {rounds:?} maintenance rounds (seed {seed})",
        totals.0, totals.1, totals.2, totals.3
    );
    assert!(
        totals.0 as usize > SESSIONS * stmts / 2,
        "stress should mostly succeed: only {} ok",
        totals.0
    );

    // Final differential: every table image matches the serial mirror.
    for i in 0..SESSIONS {
        let probe = format!("SELECT k, v FROM p{i}");
        let c = db.execute(&probe).unwrap();
        let m = mirror.execute(&probe).unwrap();
        assert_eq!(row_set(&c), row_set(&m), "p{i} diverged (seed {seed})");
    }

    // End-of-run leak checks: nothing charged, nothing queued, no thread
    // beyond the engine's fixed complement, and no block on the device
    // but those of the current generations.
    assert_eq!(MemBudget::global_in_use(), 0, "memory budget charged at end (seed {seed})");
    let adm = db.admission().unwrap();
    assert_eq!(adm.queued(), 0, "admission queue not drained (seed {seed})");
    assert_eq!(adm.in_use(), 0, "admission grants leaked (seed {seed})");
    let held: usize = {
        let catalog = db.catalog.read();
        let tables = catalog.names().into_iter().filter_map(|t| catalog.get(&t));
        tables
            .map(|t| match &t.kind {
                TableKind::Vectorwise { storage, .. } => storage.stored_bytes(),
                TableKind::Heap { store } => store.read().stored_bytes(),
            })
            .sum()
    };
    assert_eq!(db.disk().used_bytes(), held, "blocks beyond the live generations (seed {seed})");
    let tables = db.catalog.read().names();
    for table in tables {
        db.execute(&format!("DROP TABLE {table}")).unwrap();
    }
    assert_eq!(db.disk().used_bytes(), empty_device, "blocks outlive their tables (seed {seed})");
    wait_until("threads to return to baseline", Duration::from_secs(5), || {
        live_threads() <= thread_baseline
    });

    // Engine teardown joins the pool and timer threads of both databases.
    let both_engines = db.worker_pool().workers() + 1 + mirror.worker_pool().workers() + 1;
    let before_open = thread_baseline - both_engines;
    drop(mirror);
    db.shutdown();
    drop(db);
    wait_until("engine threads to join", Duration::from_secs(5), || live_threads() <= before_open);
}

/// A full admission queue rejects with typed E_ADMISSION — not a panic,
/// not a hang, not a user error.
#[test]
fn admission_queue_overflow_is_typed_error() {
    let _x = exclusive();
    let cfg = EngineConfig::default().with_workers(2).with_global_mem(1 << 20);
    let db = Database::open_with(cfg, SimulatedDisk::instant());
    load_big_table(&db);
    db.execute("SET admission_queue_depth = 0").unwrap();

    // Session 1 takes the whole global grant and holds it for the length
    // of a fat self-join.
    let holder = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut s = db.session();
            s.execute("SET mem_budget = 1048576").unwrap();
            s.execute(HOLDER_SQL)
        })
    };
    let adm = db.admission().unwrap().clone();
    wait_until("holder to take the full grant", Duration::from_secs(60), || {
        adm.in_use() == adm.limit()
    });

    // No grant available and no queue: immediate typed rejection.
    let mut s2 = db.session();
    s2.execute("SET mem_budget = 1048576").unwrap();
    let err = s2.execute("SELECT COUNT(*) FROM big").unwrap_err();
    assert!(matches!(err, VwError::Admission(_)), "expected admission error, got {err}");
    assert_eq!(err.code(), "E_ADMISSION");

    holder.join().unwrap().expect("holder query should succeed");
    assert_eq!(adm.in_use(), 0, "grant released on completion");
    assert_eq!(adm.queued(), 0);
}

/// KILL of an admission-queued query dequeues it cleanly: the waiter gets
/// `Cancelled`, the queue empties, and the held grant is untouched.
#[test]
fn kill_dequeues_admission_queued_query() {
    let _x = exclusive();
    let cfg = EngineConfig::default().with_workers(2).with_global_mem(1 << 20);
    let db = Database::open_with(cfg, SimulatedDisk::instant());
    load_big_table(&db);

    let holder = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut s = db.session();
            s.execute("SET mem_budget = 1048576").unwrap();
            s.execute(HOLDER_SQL)
        })
    };
    let adm = db.admission().unwrap().clone();
    wait_until("holder to take the full grant", Duration::from_secs(60), || {
        adm.in_use() == adm.limit()
    });

    // Session 2 queues behind the holder (depth default 16).
    let waiter = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut s = db.session();
            s.execute("SET mem_budget = 1048576").unwrap();
            s.execute("SELECT COUNT(*) FROM big")
        })
    };
    wait_until("waiter to join the admission queue", Duration::from_secs(60), || adm.queued() == 1);
    let queued = db
        .monitor
        .list_queries()
        .into_iter()
        .find(|q| q.state == QueryState::Queued)
        .expect("queued query visible in the monitor");
    db.kill(queued.id).unwrap();

    let err = waiter.join().unwrap().expect_err("killed while queued");
    assert!(matches!(err, VwError::Cancelled), "expected Cancelled, got {err}");
    assert_eq!(adm.queued(), 0, "KILL removed the queued request");
    assert_eq!(adm.in_use(), adm.limit(), "holder's grant untouched by the dequeue");

    holder.join().unwrap().expect("holder query should succeed");
    assert_eq!(adm.in_use(), 0);
}

/// Dropping the engine with a query mid-flight joins every pool thread —
/// the in-flight query surfaces a typed error, never a hang or a leaked
/// worker (the PR's shutdown regression test).
#[test]
fn drop_with_query_mid_flight_joins_pool_threads() {
    let _x = exclusive();
    let before_open = engine_threads();
    let cfg = EngineConfig::default().with_workers(2).with_parallelism(4);
    let db = Database::open_with(cfg, SimulatedDisk::instant());
    load_big_table(&db);

    let runner = {
        let db = db.clone();
        std::thread::spawn(move || db.execute(HOLDER_SQL))
    };
    wait_until("query to start running", Duration::from_secs(60), || {
        db.monitor.list_queries().iter().any(|q| q.state == QueryState::Running)
    });

    db.shutdown();
    match runner.join().expect("runner thread must not panic") {
        Ok(_) => {} // raced to completion before the cancel landed
        Err(VwError::Cancelled) => {}
        Err(e) => panic!("expected Cancelled (or success), got {e}"),
    }
    assert_eq!(MemBudget::global_in_use(), 0, "budget uncharged after shutdown");

    drop(db);
    wait_until("pool and timer threads to join", Duration::from_secs(5), || {
        engine_threads() <= before_open
    });
}

/// Shared-worker liveness: one pool worker and a DOP-4 plan. Four `Xchg`
/// fragments stream partial aggregates to the session thread, whose final
/// aggregate folds them inline — four cooperative tasks and one thread to
/// run them. It completes only because no task ever holds the worker while
/// it waits (a fragment parks on a full buffer and the consumer wakes it);
/// the answer must be the serial one.
///
/// Then a two-join fragment, `g ⋈ (d1 ⋈ d2)`: two shared builds, the
/// second's pipeline probing the first — twelve tasks in three stages
/// (four sinks of `d2`'s build, four of `d1 ⋈ d2`'s, four fragments) on
/// the same one worker, ungoverned and under a budget that evicts. Order
/// is task dependency (a task whose build is not published parks and is
/// woken by the publish): if any task waited on another, this would hang.
#[test]
fn one_worker_drives_xchg_fragments_and_build_sinks() {
    let _x = exclusive();
    let cfg = EngineConfig::default().with_workers(1);
    let db = Database::open_with(cfg, SimulatedDisk::instant());
    db.execute("CREATE TABLE g (k BIGINT NOT NULL, v BIGINT NOT NULL)").unwrap();
    let n = 60_000i64;
    let k = ColData::I64((0..n).map(|i| (i * 7919) % 6000).collect());
    let v = ColData::I64((0..n).map(|i| i % 97).collect());
    bulk_load(&db, "g", &[k, v], &[None, None]).unwrap();
    const SQL: &str = "SELECT k, COUNT(*), SUM(v), MIN(v), AVG(v) FROM g GROUP BY k";

    // (A `VW_MEM_BUDGET` lane would otherwise govern the build.)
    db.execute("SET mem_budget = 0; SET parallelism = 1").unwrap();
    let serial = row_set(&db.execute(SQL).unwrap());
    assert_eq!(serial.len(), 6000);

    db.execute("SET parallelism = 4; SET morsel_rows = 256").unwrap();
    let plan = db.execute(&format!("EXPLAIN {SQL}")).unwrap().text.unwrap();
    assert!(plan.contains("Xchg"), "partials stream through an exchange:\n{plan}");
    let runner = {
        let db = db.clone();
        std::thread::spawn(move || db.execute(SQL))
    };
    wait_until("the one worker to finish the plan", Duration::from_secs(120), || {
        runner.is_finished()
    });
    let parallel = runner.join().expect("runner must not panic").unwrap();
    assert_eq!(row_set(&parallel), serial);
    assert_eq!(db.worker_pool().workers(), 1);
    assert_eq!(db.worker_pool().queued(), 0, "no task left behind");

    db.execute("CREATE TABLE d1 (k BIGINT NOT NULL, g BIGINT NOT NULL)").unwrap();
    db.execute("CREATE TABLE d2 (g BIGINT NOT NULL, w BIGINT NOT NULL)").unwrap();
    let d1 = [ColData::I64((0..6000).collect()), ColData::I64((0..6000).map(|k| k % 50).collect())];
    let d2 = [ColData::I64((0..50).collect()), ColData::I64((0..50).map(|g| g % 7).collect())];
    bulk_load(&db, "d1", &d1, &[None, None]).unwrap();
    bulk_load(&db, "d2", &d2, &[None, None]).unwrap();
    const JOINS: &str = "SELECT d2.w, COUNT(*), SUM(g.v) FROM g, d1, d2 \
                         WHERE g.k = d1.k AND d1.g = d2.g GROUP BY d2.w";
    // The planned order puts the small join on the build side of the
    // large one — from the statistics bulk_load built, and from the row
    // counts alone under `SET optimizer = 0`.
    db.execute("SET optimizer = 1; SET mem_budget = 0; SET parallelism = 1").unwrap();
    let serial = row_set(&db.execute(JOINS).unwrap());
    assert_eq!(serial.len(), 7);
    db.execute("SET parallelism = 4").unwrap();
    let plan = db.execute(&format!("EXPLAIN {JOINS}")).unwrap().text.unwrap();
    assert!(
        plan.contains("Xchg") && plan.contains("build: HashJoin"),
        "a build side that probes another build, inside an exchange:\n{plan}"
    );
    for budget in [0, 2048] {
        db.execute(&format!("SET mem_budget = {budget}")).unwrap();
        let runner = {
            let db = db.clone();
            std::thread::spawn(move || db.execute(JOINS))
        };
        wait_until("the one worker to run three stages", Duration::from_secs(120), || {
            runner.is_finished()
        });
        let staged = runner.join().expect("runner must not panic").unwrap();
        assert_eq!(row_set(&staged), serial, "mem_budget = {budget}");
        assert_eq!(db.worker_pool().queued(), 0, "no task left behind");
        assert_eq!(MemBudget::global_in_use(), 0, "mem_budget = {budget}: charge returned");
    }
}

/// SHOW SESSIONS reports session ids, states, current query and grant;
/// SHOW QUERIES attributes `Database::execute` statements to the default
/// session (proof that the plain entry point routes through a session).
#[test]
fn show_sessions_and_query_attribution() {
    let _x = exclusive();
    let cfg = EngineConfig::default().with_workers(1).with_global_mem(8 << 20);
    let db = Database::open_with(cfg, SimulatedDisk::instant());
    load_big_table(&db);

    let s1 = db.session();
    let s2 = db.session();
    let session_ids = |r: &QueryResult| -> Vec<i64> {
        r.rows()
            .iter()
            .map(|row| match row[0] {
                Value::I64(id) => id,
                ref v => panic!("session id should be I64, got {v:?}"),
            })
            .collect()
    };
    let shown = db.execute("SHOW SESSIONS").unwrap();
    let ids = session_ids(&shown);
    assert!(ids.contains(&(s1.id() as i64)), "s1 listed");
    assert!(ids.contains(&(s2.id() as i64)), "s2 listed");
    assert!(ids.len() >= 3, "default session listed too");
    for r in shown.rows() {
        assert_eq!(r[1], Value::Str("Idle".into()), "fresh sessions are idle");
    }

    // A session mid-query shows Running with a non-zero grant.
    let s1_id = s1.id();
    let runner = std::thread::spawn(move || {
        let mut s1 = s1;
        s1.execute(HOLDER_SQL)
    });
    wait_until("s1 to show Running in SHOW SESSIONS", Duration::from_secs(60), || {
        let shown = db.execute("SHOW SESSIONS").unwrap();
        shown.rows().iter().any(|r| {
            r[0] == Value::I64(s1_id as i64)
                && r[1] == Value::Str("Running".into())
                && matches!(r[3], Value::I64(g) if g > 0)
        })
    });
    runner.join().unwrap().expect("join query succeeds");

    // Default-session attribution: a plain `db.execute` SELECT lands in
    // SHOW QUERIES with a non-NULL session id, same as session queries.
    db.execute("SELECT COUNT(*) FROM big").unwrap();
    let queries = db.execute("SHOW QUERIES").unwrap();
    let row = queries
        .rows()
        .iter()
        .find(|r| r[2] == Value::Str("SELECT COUNT(*) FROM big".into()))
        .expect("executed query listed")
        .clone();
    assert!(
        matches!(row[5], Value::I64(s) if s > 0),
        "default-session query carries session attribution, got {:?}",
        row[5]
    );

    // Closing a session removes it from the registry.
    let s2_id = s2.id();
    drop(s2);
    let shown = db.execute("SHOW SESSIONS").unwrap();
    assert!(
        !session_ids(&shown).contains(&(s2_id as i64)),
        "closed session no longer listed in SHOW SESSIONS"
    );
}
