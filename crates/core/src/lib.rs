//! # vw-core — the integrated Vectorwise engine
//!
//! (The repo-root `ARCHITECTURE.md` is the cross-crate map — crates, the
//! life of a query, ownership rules, and the knob table.)
//!
//! This crate assembles Figure 1: SQL text flows through the parser and
//! binder (`vw-sql`), the Ingres-style optimizer, the Vectorwise rewriter
//! (`vw-rewriter`), the [cross compiler](compile) that lowers the rewritten
//! algebra onto X100 kernel operators (`vw-exec`), and executes against
//! compressed column storage (`vw-storage`) with PDT-based transactions
//! (`vw-pdt`). "Classic" heap tables (`vw-volcano` storage) coexist in the
//! same catalog, exactly as Ingres and X100 tables did.
//!
//! The public API is [`Database`] (one embedded engine instance) and
//! [`Session`] (connection-like state holding open transactions):
//!
//! ```
//! use vw_core::Database;
//!
//! let db = Database::open_in_memory();
//! db.execute("CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
//! let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
//! assert_eq!(r.num_rows(), 1);
//! assert_eq!(r.rows()[0][0], vw_common::Value::I64(2));
//! ```
//!
//! A SELECT's [`QueryResult`] is the batches its plan produced
//! ([`QueryResult::batches`]: dense, string columns still coded);
//! the engine builds no row for it. [`QueryResult::rows`] is the client's
//! row view, built from the batches on its first call.
//!
//! Production concerns the paper calls out are first-class:
//! [monitoring](monitor) (event log, query listing, resource gauges),
//! query cancellation (`KILL <id>`), error handling with vectorized lazy
//! checking, and background-free CHECKPOINT propagation of PDT deltas.

pub mod catalog;
pub mod compile;
pub mod dml;
pub mod monitor;

use catalog::{Catalog, TableEntry, TableKind};
use monitor::{EventLevel, Monitor};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use vw_common::config::{MAX_PARALLELISM, MAX_VECTOR_SIZE};
use vw_common::{ColData, EngineConfig, Result, Schema, TypeId, Value, VwError};
use vw_exec::vector::{vector_from_values, Batch};
use vw_exec::CancelToken;
use vw_service::{AdmissionController, DeadlineQueue, WorkerPool};
use vw_sql::ast::{InsertSource, ShowKind, Statement, TableType};
use vw_sql::binder::{Binder, CatalogView};
use vw_sql::optimizer;
use vw_sql::plan::LogicalPlan;
use vw_storage::{BufferPool, SimulatedDisk, TableStats, TableStorage};

/// The result of one statement: the batches its plan produced, as the
/// plan produced them.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output schema (empty for DDL/DML).
    pub schema: Schema,
    /// Dense (no selection), never empty, encoded columns still encoded.
    batches: Vec<Batch>,
    /// The row view of `batches`, built on the first [`QueryResult::rows`].
    row_view: OnceLock<Vec<Vec<Value>>>,
    /// Rows affected by DML.
    pub affected: u64,
    /// EXPLAIN / profile text, when requested.
    pub text: Option<String>,
}

impl QueryResult {
    fn empty() -> QueryResult {
        QueryResult::of(Schema::default(), Vec::new())
    }

    fn of(schema: Schema, batches: Vec<Batch>) -> QueryResult {
        QueryResult { schema, batches, row_view: OnceLock::new(), affected: 0, text: None }
    }

    /// The result's columns, batch by batch: the typed hand-off. A string
    /// column read from a table stays coded over its pack's arena
    /// ([`vw_exec::Vector::dict_parts`]).
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// Number of result rows (builds nothing).
    pub fn num_rows(&self) -> usize {
        self.batches.iter().map(Batch::rows).sum()
    }

    /// The rows as values, one `Vec` per row — built from the batches on
    /// the first call and kept.
    pub fn rows(&self) -> &[Vec<Value>] {
        self.row_view.get_or_init(|| row_view(&self.batches))
    }

    /// First value of the first row (single-value queries).
    pub fn scalar(&self) -> Result<&Value> {
        self.rows()
            .first()
            .and_then(|r| r.first())
            .ok_or_else(|| VwError::Exec("query produced no rows".into()))
    }
}

/// One `Vec<Value>` per row of `batches`, in order.
fn row_view(batches: &[Batch]) -> Vec<Vec<Value>> {
    let mut rows = Vec::with_capacity(batches.iter().map(Batch::rows).sum());
    for b in batches {
        rows.extend((0..b.rows()).map(|i| b.row_values(i)));
    }
    rows
}

/// One embedded engine instance.
///
/// Concurrency model (PR 7): one fixed [`WorkerPool`] of
/// `EngineConfig::workers` threads serves *every* query's Exchange
/// fragments and hash-build sinks as cooperative tasks, so N
/// concurrent sessions cost O(workers) engine threads, not O(N × dop).
/// When `EngineConfig::global_mem_bytes` is set, an
/// [`AdmissionController`] partitions that global budget across admitted
/// queries (FIFO, bounded queue, typed `E_ADMISSION` rejection). A single
/// [`DeadlineQueue`] timer thread enforces every statement timeout.
pub struct Database {
    pub(crate) disk: Arc<SimulatedDisk>,
    pub(crate) pool: Arc<BufferPool>,
    /// The published image of the table namespace (read access for
    /// tools/benches): the lock is held only to clone or swap the `Arc`,
    /// and only `catalog::publish` swaps it.
    pub catalog: RwLock<Arc<Catalog>>,
    /// Serializes publishing: commits, CHECKPOINT, bulk loads and DDL
    /// (see `catalog::publish`).
    pub(crate) commit_lock: Mutex<()>,
    /// Monitoring subsystem.
    pub monitor: Monitor,
    /// The shared worker pool (fixed size for the engine's life).
    pub(crate) workers: Arc<WorkerPool>,
    /// Admission controller — `None` when no global memory limit is
    /// configured (the machinery is not constructed at all).
    pub(crate) admission: Option<Arc<AdmissionController>>,
    /// One timer thread for every statement deadline.
    pub(crate) timer: DeadlineQueue,
    /// The engine-owned session `Database::execute` routes through, so
    /// the Arc path and explicit [`Session`]s share one code path (SET
    /// state and monitor attribution cannot diverge).
    default_session: Mutex<SessionCore>,
    closed: AtomicBool,
}

impl Database {
    /// Open an engine over an instant (cost-free) simulated disk.
    pub fn open_in_memory() -> Arc<Database> {
        Database::open_with(EngineConfig::default(), SimulatedDisk::instant())
    }

    /// Open with explicit configuration and device. An active
    /// `config.faults` arms the device's fault injector (an inactive one
    /// constructs none of that machinery). `config.workers` (0 = core
    /// count) fixes the worker-pool size for the engine's life;
    /// `config.global_mem_bytes` > 0 constructs the admission controller.
    pub fn open_with(config: EngineConfig, disk: Arc<SimulatedDisk>) -> Arc<Database> {
        if config.faults.is_active() {
            disk.arm_faults(config.faults.clone());
        }
        let pool = BufferPool::new(disk.clone(), config.buffer_pool_bytes);
        let monitor = Monitor::with_capacity(config.event_log_capacity);
        let workers = WorkerPool::new(config.resolved_workers());
        let admission = (config.global_mem_bytes > 0).then(|| {
            AdmissionController::new(config.global_mem_bytes, config.admission_queue_depth)
        });
        let default_id = monitor.register_session();
        Arc::new(Database {
            disk,
            pool,
            catalog: RwLock::new(Arc::default()),
            commit_lock: Mutex::new(()),
            monitor,
            workers,
            admission,
            timer: DeadlineQueue::new(),
            default_session: Mutex::new(SessionCore { id: default_id, cfg: config, txn: None }),
            closed: AtomicBool::new(false),
        })
    }

    /// Current engine configuration (a copy of the default session's —
    /// explicit [`Session`]s carry their own SET state).
    pub fn config(&self) -> EngineConfig {
        self.default_session.lock().cfg.clone()
    }

    /// The published image of the catalog: the database at one instant,
    /// every stable generation it names pinned while it is held.
    pub fn image(&self) -> Arc<Catalog> {
        self.catalog.read().clone()
    }

    /// The simulated device this engine stores blocks on (tests use it to
    /// assert spill files are reclaimed; tools read traffic counters).
    pub fn disk(&self) -> &Arc<SimulatedDisk> {
        &self.disk
    }

    /// The shared worker pool (size is fixed at open).
    pub fn worker_pool(&self) -> &Arc<WorkerPool> {
        &self.workers
    }

    /// The admission controller, when a global memory limit is configured.
    pub fn admission(&self) -> Option<&Arc<AdmissionController>> {
        self.admission.as_ref()
    }

    /// Execute one or more `;`-separated statements in auto-commit mode,
    /// returning the last statement's result. Routes through the engine's
    /// default session (one shared SET state), serialized per statement
    /// batch; open explicit [`Database::session`]s for concurrency.
    pub fn execute(self: &Arc<Self>, sql: &str) -> Result<QueryResult> {
        execute_script(self, &mut self.default_session.lock(), sql)
    }

    /// Open a session (holds transaction and SET state across
    /// statements; the SET state starts as a snapshot of the default
    /// session's).
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(self.clone())
    }

    /// Cancel a running (or admission-queued) query by id (the `KILL`
    /// statement calls this).
    pub fn kill(&self, query_id: u64) -> Result<()> {
        self.monitor.kill(query_id)
    }

    /// Shut the engine down: cancel every in-flight and queued query,
    /// fail admission waiters, then join the worker pool and the timer
    /// thread. Idempotent; [`Drop`] calls it, so dropping the last
    /// `Arc<Database>` never leaks pool threads even with queries
    /// mid-flight (their fragments observe the cancelled tokens, push
    /// their error, and drain).
    pub fn shutdown(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        self.monitor.kill_all();
        if let Some(a) = &self.admission {
            a.close();
        }
        self.workers.shutdown();
        self.timer.shutdown();
    }

    fn create_table(
        &self,
        name: &str,
        columns: &[(String, TypeId, bool)],
        table_type: TableType,
    ) -> Result<()> {
        let fields = columns
            .iter()
            .map(|(n, ty, nullable)| vw_common::Field {
                name: n.clone(),
                ty: *ty,
                nullable: *nullable,
            })
            .collect();
        let schema = Schema::new(fields)?;
        let guard = self.commit_lock.lock();
        if self.image().get(name).is_some() {
            return Err(VwError::Catalog(format!("table '{name}' already exists")));
        }
        let kind = match table_type {
            TableType::Vectorwise => {
                TableKind::new_vectorwise(TableStorage::new(self.pool.clone(), schema.clone()))
            }
            TableType::Heap => {
                TableKind::new_heap(vw_volcano::RowStore::new(self.pool.clone(), schema.clone()))
            }
        };
        let types: Vec<TypeId> = schema.fields.iter().map(|f| f.ty).collect();
        let stats = Arc::new(RwLock::new(TableStats::empty(&types)));
        let entry = TableEntry { name: name.to_string(), schema, kind, stats };
        catalog::publish(self, &guard, vec![(name.to_string(), Some(entry))], false);
        self.monitor.log(EventLevel::Info, format!("created table {name} ({table_type:?})"));
        Ok(())
    }

    /// Publish an image without `name`. Its blocks are freed when the last
    /// holder of its storage drops — here, unless a running scan or an
    /// open transaction's image still pins it.
    fn drop_table(&self, name: &str, if_exists: bool) -> Result<()> {
        let guard = self.commit_lock.lock();
        match self.image().get(name) {
            Some(_) => {
                catalog::publish(self, &guard, vec![(name.to_string(), None)], false);
                self.monitor.log(EventLevel::Info, format!("dropped table {name}"));
                Ok(())
            }
            None if if_exists => Ok(()),
            None => Err(VwError::Catalog(format!("unknown table '{name}'"))),
        }
    }

    /// Apply `SET <name> = <value>` to one session's config copy.
    /// Engine-wide knobs (`event_log_capacity`, `admission_queue_depth`)
    /// additionally poke the live subsystem; what `Database::open` sized
    /// once is fixed at open and rejects the SET.
    fn apply_set(&self, cfg: &mut EngineConfig, name: &str, value: &Value) -> Result<()> {
        match name.to_ascii_lowercase().as_str() {
            "vector_size" => {
                // Batches are allocated at this size, column by column:
                // bound it where it enters.
                let v = value.as_i64()?;
                if !(1..=MAX_VECTOR_SIZE as i64).contains(&v) {
                    return Err(VwError::InvalidParameter(format!(
                        "vector_size must be between 1 and {MAX_VECTOR_SIZE}"
                    )));
                }
                cfg.vector_size = v as usize;
            }
            "parallelism" | "dop" => {
                // Exchange lowering compiles `parallelism` fragment clones:
                // bound it where it enters.
                let v = value.as_i64()?;
                if !(1..=MAX_PARALLELISM as i64).contains(&v) {
                    return Err(VwError::InvalidParameter(format!(
                        "parallelism must be between 1 and {MAX_PARALLELISM}"
                    )));
                }
                cfg.parallelism = v as usize;
            }
            "morsel_rows" => {
                let v = value.as_i64()?;
                if v < 1 {
                    return Err(VwError::InvalidParameter("morsel_rows must be >= 1".into()));
                }
                cfg.morsel_rows = v as usize;
            }
            "mem_budget" | "mem_budget_bytes" => {
                let v = value.as_i64()?;
                if v < 0 {
                    return Err(VwError::InvalidParameter(
                        "mem_budget must be >= 0 (0 = unlimited)".into(),
                    ));
                }
                cfg.mem_budget_bytes = v as usize;
            }
            "optimizer" => {
                cfg.optimizer = match value.as_i64()? {
                    0 => false,
                    1 => true,
                    _ => return Err(VwError::InvalidParameter("optimizer must be 0 or 1".into())),
                }
            }
            "statement_timeout" | "statement_timeout_ms" => {
                let v = value.as_i64()?;
                if v < 0 {
                    return Err(VwError::InvalidParameter(
                        "statement_timeout must be >= 0 (0 = disabled)".into(),
                    ));
                }
                cfg.statement_timeout_ms = v as u64;
            }
            "event_log_capacity" => {
                let v = value.as_i64()?;
                if v < 1 {
                    return Err(VwError::InvalidParameter(
                        "event_log_capacity must be >= 1".into(),
                    ));
                }
                cfg.event_log_capacity = v as usize;
                // Applies to the live monitor immediately (shrink drops
                // the oldest events).
                self.monitor.set_event_capacity(v as usize);
            }
            "admission_queue_depth" => {
                let v = value.as_i64()?;
                if v < 0 {
                    return Err(VwError::InvalidParameter(
                        "admission_queue_depth must be >= 0".into(),
                    ));
                }
                cfg.admission_queue_depth = v as usize;
                // The queue is engine-wide: the new bound applies to the
                // live controller immediately (waiters already queued stay).
                if let Some(a) = &self.admission {
                    a.set_queue_depth(v as usize);
                }
            }
            // What `Database::open` sized once — the worker pool, the
            // admission limit, the buffer pool, the pack size of stored
            // tables — cannot change under running sessions.
            fixed @ ("workers" | "global_mem" | "global_mem_bytes" | "buffer_pool_bytes"
            | "pack_size") => {
                return Err(VwError::InvalidParameter(format!(
                    "{fixed} is fixed at engine open (an EngineConfig field; see \
                     ARCHITECTURE.md, Knobs, for its env override)"
                )))
            }
            other => return Err(VwError::InvalidParameter(format!("unknown setting '{other}'"))),
        }
        Ok(())
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The state every session carries: its monitor registration, its own
/// SET-knob copy of the engine config, and an optional open transaction.
/// [`Database::execute`] drives the engine-owned default core;
/// [`Session`] wraps a private one — both run the same statement path.
pub(crate) struct SessionCore {
    pub(crate) id: u64,
    pub(crate) cfg: EngineConfig,
    pub(crate) txn: Option<dml::OpenTxn>,
}

/// Connection-like state: session-scoped SET knobs and an optional open
/// multi-statement transaction. Dropping the session removes it from the
/// monitor's `SHOW SESSIONS` registry.
pub struct Session {
    db: Arc<Database>,
    core: SessionCore,
}

impl Session {
    fn new(db: Arc<Database>) -> Session {
        let id = db.monitor.register_session();
        let cfg = db.config();
        Session { db, core: SessionCore { id, cfg, txn: None } }
    }

    /// The engine behind this session.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// This session's id in the monitor registry (`SHOW SESSIONS`).
    pub fn id(&self) -> u64 {
        self.core.id
    }

    /// True when a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.core.txn.is_some()
    }

    /// Execute `;`-separated statements; returns the last result.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        execute_script(&self.db, &mut self.core, sql)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.db.monitor.close_session(self.core.id);
    }
}

/// Parse `;`-separated statements and run them in order on behalf of one
/// session core, stopping at the first error; the last statement's result
/// (empty when there is none). The loop behind [`Database::execute`] and
/// [`Session::execute`].
fn execute_script(db: &Arc<Database>, core: &mut SessionCore, sql: &str) -> Result<QueryResult> {
    let mut last = QueryResult::empty();
    for stmt in vw_sql::parse(sql)? {
        last = execute_statement(db, core, &stmt, sql.trim())?;
    }
    Ok(last)
}

/// One statement, on behalf of one session core — the single execution
/// path shared by [`Database::execute`] and [`Session::execute`]. Every
/// statement but `BEGIN`, `COMMIT` and `ROLLBACK` runs in the session's
/// open transaction, or in one of its own on the current image, committed
/// if the statement succeeds.
fn execute_statement(
    db: &Arc<Database>,
    core: &mut SessionCore,
    stmt: &Statement,
    sql: &str,
) -> Result<QueryResult> {
    let control = matches!(stmt, Statement::Begin | Statement::Commit | Statement::Rollback);
    if control || core.txn.is_some() {
        return run_statement(db, core, stmt, sql);
    }
    core.txn = Some(dml::OpenTxn::begin(db));
    let result = run_statement(db, core, stmt, sql);
    let txn = core.txn.take().expect("opened above");
    if result.is_ok() {
        dml::commit(db, txn)?;
    }
    result
}

fn run_statement(
    db: &Arc<Database>,
    core: &mut SessionCore,
    stmt: &Statement,
    sql: &str,
) -> Result<QueryResult> {
    match stmt {
        Statement::Select(s) => run_select(db, core, s, ExplainMode::Off, Some(sql)),
        Statement::Explain(inner) | Statement::ExplainAnalyze(inner) => {
            let Statement::Select(s) = inner.as_ref() else {
                return Err(VwError::Unsupported("EXPLAIN of a non-SELECT statement".into()));
            };
            let analyze = matches!(stmt, Statement::ExplainAnalyze(_));
            let mode = if analyze { ExplainMode::Analyze } else { ExplainMode::Plan };
            run_select(db, core, s, mode, Some(sql))
        }
        Statement::CreateTable { name, columns, table_type } => {
            db.create_table(name, columns, *table_type)?;
            Ok(QueryResult::empty())
        }
        Statement::DropTable { name, if_exists } => {
            db.drop_table(name, *if_exists)?;
            Ok(QueryResult::empty())
        }
        Statement::Insert { table, columns, source } => {
            let source = match source {
                InsertSource::Values(rows) => dml::Source::Values(dml::literal_rows(rows)?),
                InsertSource::Query(q) => {
                    let r = run_select(db, core, q, ExplainMode::Off, Some(sql))?;
                    dml::Source::Query(r.schema.len(), r.batches)
                }
            };
            let open = core.txn.as_mut().expect("DML runs in a transaction");
            let n = dml::insert(open, table, columns.as_deref(), source)?;
            Ok(QueryResult { affected: n, ..QueryResult::empty() })
        }
        Statement::Update { table, sets, filter } => {
            let n = dml::update_or_delete(db, core, table, Some(sets), filter.as_ref(), sql)?;
            Ok(QueryResult { affected: n, ..QueryResult::empty() })
        }
        Statement::Delete { table, filter } => {
            let n = dml::update_or_delete(db, core, table, None, filter.as_ref(), sql)?;
            Ok(QueryResult { affected: n, ..QueryResult::empty() })
        }
        Statement::Begin => {
            if core.txn.is_some() {
                return Err(VwError::TxnState("transaction already open".into()));
            }
            core.txn = Some(dml::OpenTxn::begin(db));
            Ok(QueryResult::empty())
        }
        Statement::Commit => {
            let txn =
                core.txn.take().ok_or_else(|| VwError::TxnState("no open transaction".into()))?;
            dml::commit(db, txn)?;
            Ok(QueryResult::empty())
        }
        Statement::Rollback => {
            if core.txn.take().is_none() {
                return Err(VwError::TxnState("no open transaction".into()));
            }
            Ok(QueryResult::empty())
        }
        Statement::Checkpoint { table } => {
            let n = dml::checkpoint(db, &core.cfg, table.as_deref())?;
            Ok(QueryResult { affected: n, ..QueryResult::empty() })
        }
        Statement::Kill { query_id } => {
            db.kill(*query_id)?;
            Ok(QueryResult::empty())
        }
        Statement::Set { name, value } => {
            db.apply_set(&mut core.cfg, name, value)?;
            Ok(QueryResult::empty())
        }
        Statement::Show { what } => run_show(db, *what),
    }
}

/// Render a `SHOW` monitoring view as an ordinary result set: one batch
/// built from its rows.
fn run_show(db: &Database, what: ShowKind) -> Result<QueryResult> {
    let field = |name: &str, ty| vw_common::Field { name: name.into(), ty, nullable: true };
    let (schema, rows): (Schema, Vec<Vec<Value>>) = match what {
        ShowKind::Sessions => {
            let schema = Schema::new(vec![
                field("session", TypeId::I64),
                field("state", TypeId::Str),
                field("query", TypeId::I64),
                field("mem_grant", TypeId::I64),
            ])
            .expect("static schema");
            let rows = db
                .monitor
                .list_sessions()
                .into_iter()
                .map(|s| {
                    vec![
                        Value::I64(s.id as i64),
                        Value::Str(format!("{:?}", s.state)),
                        s.query.map_or(Value::Null, |q| Value::I64(q as i64)),
                        Value::I64(s.mem_grant as i64),
                    ]
                })
                .collect();
            (schema, rows)
        }
        ShowKind::Queries => {
            let schema = Schema::new(vec![
                field("id", TypeId::I64),
                field("state", TypeId::Str),
                field("sql", TypeId::Str),
                field("elapsed_ms", TypeId::I64),
                field("rows", TypeId::I64),
                field("session", TypeId::I64),
            ])
            .expect("static schema");
            let rows = db
                .monitor
                .list_queries()
                .into_iter()
                .map(|q| {
                    vec![
                        Value::I64(q.id as i64),
                        Value::Str(format!("{:?}", q.state)),
                        Value::Str(q.sql),
                        Value::I64(q.elapsed.as_millis() as i64),
                        Value::I64(q.rows as i64),
                        if q.session == 0 { Value::Null } else { Value::I64(q.session as i64) },
                    ]
                })
                .collect();
            (schema, rows)
        }
    };
    let mut columns = vec![Vec::with_capacity(rows.len()); schema.fields.len()];
    for row in rows {
        columns.iter_mut().zip(row).for_each(|(c, v)| c.push(v));
    }
    let columns = schema.fields.iter().zip(&columns).map(|(f, c)| vector_from_values(f.ty, c));
    let batch = Batch::new(columns.collect::<Result<_>>()?);
    let batches = if batch.rows() > 0 { vec![batch] } else { Vec::new() };
    Ok(QueryResult::of(schema, batches))
}

/// How much of the plan / execution a SELECT should surface.
#[derive(Clone, Copy, PartialEq)]
enum ExplainMode {
    /// Plain execution: rows only.
    Off,
    /// `EXPLAIN`: plan text only, nothing runs.
    Plan,
    /// `EXPLAIN ANALYZE`: run it, return the rows plus the plan text,
    /// every line carrying what its operator measured.
    Analyze,
}

fn run_select(
    db: &Arc<Database>,
    core: &mut SessionCore,
    stmt: &vw_sql::ast::SelectStmt,
    explain: ExplainMode,
    sql_label: Option<&str>,
) -> Result<QueryResult> {
    let image = core.txn.as_ref().expect("a SELECT runs in a transaction").image.clone();
    let cat_view = CatalogSnapshot::new(image, &core.cfg);
    let binder = Binder::new(&cat_view);
    let plan = binder.bind_select(stmt)?;
    let plan = optimizer::optimize(plan, &cat_view)?;
    let rw_cfg = vw_rewriter::RewriterConfig {
        dop: core.cfg.parallelism,
        parallel_threshold_rows: 10_000.0,
    };
    let plan = vw_rewriter::rewrite_plan(plan, &rw_cfg);
    match explain {
        ExplainMode::Off => execute_plan(db, core, &plan, sql_label, None),
        ExplainMode::Plan => Ok(QueryResult {
            text: Some(optimizer::explain_with_estimates(&plan, &cat_view, &|_| String::new())),
            ..QueryResult::of(plan.schema().clone(), Vec::new())
        }),
        ExplainMode::Analyze => {
            // Every slot is complete once `execute_plan` returns: the
            // plan's operators, pool tasks included, are dropped by then.
            let analyze = compile::Analyze::new(&plan);
            let mut result = execute_plan(db, core, &plan, sql_label, Some(&analyze))?;
            let suffix = |node: &LogicalPlan| analyze.node(node).suffix();
            result.text = Some(optimizer::explain_with_estimates(&plan, &cat_view, &suffix));
            Ok(result)
        }
    }
}

/// Run `body` as one monitored statement — the part of the life of a query
/// (ARCHITECTURE.md) that SELECT and UPDATE/DELETE share: register with
/// the monitor (`Queued` or `Running`) under a fresh token that carries
/// the session's statement deadline, if it has one → register the token
/// with the engine's timer → `body(token, query id)` → finish (`rows`
/// counts the result) or fail. `KILL`, the timeout and `SHOW QUERIES`
/// reach whatever runs under that token. The timer registration is an
/// RAII guard, so every exit — completion, error, KILL, timeout,
/// panic-as-error — releases the deadline.
pub(crate) fn tracked<T>(
    db: &Database,
    session: u64,
    timeout_ms: u64,
    label: &str,
    queued: bool,
    rows: impl FnOnce(&T) -> u64,
    body: impl FnOnce(&CancelToken, u64) -> Result<T>,
) -> Result<T> {
    let timeout = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));
    let cancel = match timeout {
        Some(t) => CancelToken::with_deadline(std::time::Instant::now() + t),
        None => CancelToken::new(),
    };
    let qid = db.monitor.register_query(label, cancel.clone(), timeout, session, queued);
    let _deadline = db.timer.register(&cancel);
    let result = body(&cancel, qid);
    match &result {
        Ok(v) => db.monitor.finish_query(qid, rows(v)),
        Err(e) => db.monitor.fail_query(qid, e),
    }
    result
}

/// Execute an already-rewritten plan. `sql_label` names the query in the
/// monitoring registry; `analyze` is `EXPLAIN ANALYZE`'s slots.
///
/// Inside [`tracked`]: admission grant (FIFO; the grant clamps this
/// query's `mem_budget`) → compile onto the shared worker pool → pull the
/// plan's batches, each compacted, into the result.
/// The grant is an RAII guard and the plan (with any pool tasks / spill
/// files) is dropped before the registry update, so every exit releases
/// its memory.
pub(crate) fn execute_plan(
    db: &Arc<Database>,
    core: &mut SessionCore,
    plan: &LogicalPlan,
    sql_label: Option<&str>,
    analyze: Option<&compile::Analyze<'_>>,
) -> Result<QueryResult> {
    let mut config = core.cfg.clone();
    let (session, timeout_ms) = (core.id, config.statement_timeout_ms);
    let label = sql_label.unwrap_or("<query>");
    let rows = |r: &QueryResult| r.num_rows() as u64;
    tracked(db, session, timeout_ms, label, db.admission.is_some(), rows, |cancel, qid| {
        // Admission: FIFO for a slice of the global memory budget. A
        // session with its own `mem_budget` requests exactly that;
        // otherwise an even split of the global limit across the pool. The
        // grant becomes this query's spill budget, so the sum of all
        // admitted queries' staged bytes stays under the global limit.
        let _grant = match &db.admission {
            Some(ctl) => {
                let request = if config.mem_budget_bytes > 0 {
                    config.mem_budget_bytes as u64
                } else {
                    (ctl.limit() / db.workers.workers() as u64).max(1)
                };
                let grant = ctl.admit(request, cancel)?;
                db.monitor.admit_query(qid, grant.bytes());
                config.mem_budget_bytes = grant.bytes() as usize;
                Some(grant)
            }
            None => None,
        };
        let txn = core.txn.as_ref().expect("a query runs in a transaction");
        let mut op = compile::build_plan_with(db, plan, &config, cancel, txn, analyze)?;
        let mut batches = Vec::new();
        while let Some(b) = op.next()? {
            if b.rows() > 0 {
                batches.push(b.compact());
            }
        }
        Ok(QueryResult::of(op.schema().clone(), batches))
    })
}

/// Catalog adapter implementing the planner's view: the one image a
/// statement is bound, optimized, explained and compiled against.
pub(crate) struct CatalogSnapshot {
    image: Arc<Catalog>,
    /// `EngineConfig::optimizer`: `false` plans as if no statistics
    /// existed — the statistics methods answer what a stale snapshot does.
    statistics: bool,
}

impl CatalogSnapshot {
    /// The view of `image` a statement running under `cfg` plans against.
    pub(crate) fn new(image: Arc<Catalog>, cfg: &EngineConfig) -> Self {
        CatalogSnapshot { image, statistics: cfg.optimizer }
    }

    /// `f` over column `col` of `table`'s statistics snapshot (built at bulk
    /// load / CHECKPOINT). `None` when the view plans without statistics
    /// or the snapshot is stale (DML since the build), so the cost model
    /// falls back to structural defaults instead of planning against dead
    /// distinct counts.
    fn column_stats<R>(
        &self,
        table: &str,
        col: usize,
        f: impl FnOnce(&vw_storage::stats::ColumnStats) -> Option<R>,
    ) -> Option<R> {
        if !self.statistics {
            return None;
        }
        let stats = self.image.get(table)?.stats.clone();
        let stats = stats.read();
        if stats.stale {
            return None;
        }
        f(stats.columns.get(col)?)
    }
}

impl CatalogView for CatalogSnapshot {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.image.get(name).map(|t| t.schema.clone())
    }

    fn table_rows(&self, name: &str) -> Option<u64> {
        Some(match &self.image.get(name)?.kind {
            TableKind::Vectorwise { root, .. } => vw_pdt::treap::size(root),
            TableKind::Heap { store } => store.read().n_rows(),
        })
    }

    fn column_distinct(&self, table: &str, col: usize) -> Option<u64> {
        self.column_stats(table, col, |c| (c.n_distinct > 0).then_some(c.n_distinct))
    }

    fn column_range_selectivity(
        &self,
        table: &str,
        col: usize,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Option<f64> {
        self.column_stats(table, col, |c| {
            let h = c.histogram.as_ref()?;
            let lo = match lo {
                Some(v) => Some(vw_storage::stats::project(v)?),
                None => None,
            };
            let hi = match hi {
                Some(v) => Some(vw_storage::stats::project(v)?),
                None => None,
            };
            // `sel_lt` is strict; nudge the upper bound so `hi` stays
            // inclusive under interpolation (matches the hint semantics).
            Some(h.sel_range(lo, hi.map(|v| v + 1e-9)))
        })
    }
}

/// Bulk-load helper: append whole columns to a VECTORWISE table *without*
/// going through the PDT (initial loads; equivalent to COPY). Builds
/// statistics from the loaded columns when they are the whole table, and
/// marks them stale, as DML does, when the table held rows already;
/// resets the PDT onto the new generation.
///
/// The new generation is the current one's packs by reference plus the
/// loaded ones. The load is published like a commit: the delta-free check
/// and the install run in one `commit_lock` section, so no commit lands
/// between them and a racing CHECKPOINT installs before or after it, never
/// across it. A failed load drops the generation it built, and its blocks
/// with it; a scan or transaction running meanwhile keeps its own image.
pub fn bulk_load(
    db: &Arc<Database>,
    table: &str,
    columns: &[ColData],
    nulls: &[Option<Vec<bool>>],
) -> Result<u64> {
    let pack_size = db.config().pack_size;
    let guard = db.commit_lock.lock();
    let entry = db
        .image()
        .get(table)
        .ok_or_else(|| VwError::Catalog(format!("unknown table '{table}'")))?;
    let TableKind::Vectorwise { storage, pdt, .. } = &entry.kind else {
        return Err(VwError::Unsupported("bulk_load targets VECTORWISE tables".into()));
    };
    if pdt.stats().total() > 0 {
        return Err(VwError::TxnState(
            "bulk_load requires a delta-free table (run CHECKPOINT first)".into(),
        ));
    }
    let mut next = TableStorage::clone(storage);
    next.append_columns(columns, nulls, pack_size)?;
    let n = next.n_rows();
    pdt.reset_after_checkpoint(n);
    match storage.n_rows() {
        0 => *entry.stats.write() = TableStats::build(columns, nulls, 32),
        _ => entry.stats.write().mark_stale(),
    }
    catalog::publish(
        db,
        &guard,
        vec![(entry.name.clone(), Some(entry.on_generation(next)))],
        false,
    );
    db.monitor.log(EventLevel::Info, format!("bulk loaded {table}: {n} rows total"));
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_create_insert_select() {
        let db = Database::open_in_memory();
        db.execute("CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR, qty INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a', 10), (2, 'b', NULL), (3, 'a', 30)").unwrap();
        let r = db.execute("SELECT name, SUM(qty) FROM t GROUP BY name ORDER BY name").unwrap();
        assert_eq!(
            r.rows(),
            &[
                vec![Value::Str("a".into()), Value::I64(40)],
                vec![Value::Str("b".into()), Value::Null],
            ]
        );
    }

    #[test]
    fn heap_tables_work_too() {
        let db = Database::open_in_memory();
        db.execute("CREATE TABLE h (id BIGINT NOT NULL, v DOUBLE) WITH TYPE = HEAP").unwrap();
        db.execute("INSERT INTO h VALUES (1, 1.5), (2, 2.5)").unwrap();
        let r = db.execute("SELECT SUM(v) FROM h").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::F64(4.0));
    }

    #[test]
    fn errors_surface_cleanly() {
        let db = Database::open_in_memory();
        assert!(matches!(db.execute("SELECT * FROM missing"), Err(VwError::Catalog(_))));
        assert!(matches!(db.execute("SELEC 1"), Err(VwError::Parse(_))));
        db.execute("CREATE TABLE t (a BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (9223372036854775807)").unwrap();
        let e = db.execute("SELECT a + 1 FROM t").unwrap_err();
        assert!(matches!(e, VwError::Overflow(_)));
        let e = db.execute("SELECT a / 0 FROM t").unwrap_err();
        assert!(matches!(e, VwError::DivideByZero));
    }

    #[test]
    fn set_knobs() {
        let db = Database::open_in_memory();
        db.execute("SET vector_size = 64").unwrap();
        assert_eq!(db.config().vector_size, 64);
        db.execute("SET morsel_rows = 256").unwrap();
        assert_eq!(db.config().morsel_rows, 256);
        db.execute("SET mem_budget = 65536").unwrap();
        assert_eq!(db.config().mem_budget_bytes, 65536);
        db.execute("SET mem_budget = 0").unwrap();
        assert_eq!(db.config().mem_budget_bytes, 0, "0 = unlimited");
        assert!(db.execute("SET mem_budget = -1").is_err());
        assert!(db.execute("SET morsel_rows = 0").is_err());
        assert!(db.execute("SET vector_size = 0").is_err());
        assert!(db.execute("SET nonsense = 1").is_err());
        db.execute("SET parallelism = 1024").unwrap();
        assert_eq!(db.config().parallelism, MAX_PARALLELISM);
        for out_of_range in ["0", "1025", "1000000"] {
            // A plan compiles `parallelism` fragment clones: an unbounded
            // value used to be an allocation storm at the next SELECT.
            let e = db.execute(&format!("SET parallelism = {out_of_range}")).unwrap_err();
            assert!(matches!(e, VwError::InvalidParameter(_)), "{out_of_range}: {e}");
            assert_eq!(db.config().parallelism, MAX_PARALLELISM, "a rejected SET changes nothing");
        }
        db.execute("SET statement_timeout = 500").unwrap();
        assert_eq!(db.config().statement_timeout_ms, 500);
        db.execute("SET statement_timeout = 0").unwrap();
        assert_eq!(db.config().statement_timeout_ms, 0, "0 = disabled");
        assert!(db.execute("SET statement_timeout = -1").is_err());
        db.execute("SET event_log_capacity = 16").unwrap();
        assert_eq!(db.config().event_log_capacity, 16);
        assert_eq!(db.monitor.event_capacity(), 16, "applies to the live monitor");
        assert!(db.execute("SET event_log_capacity = 0").is_err());
        db.execute("SET optimizer = 0").unwrap();
        assert!(!db.config().optimizer);
        for not_a_switch in ["2", "-1", "9223372036854775807"] {
            // Any non-zero integer used to switch statistics on.
            let e = db.execute(&format!("SET optimizer = {not_a_switch}")).unwrap_err();
            assert!(matches!(e, VwError::InvalidParameter(_)), "{not_a_switch}: {e}");
            assert!(!db.config().optimizer, "a rejected SET changes nothing");
        }
        db.execute("CREATE TABLE k (a BIGINT)").unwrap();
        db.execute("INSERT INTO k VALUES (1), (2)").unwrap();
        assert_eq!(db.execute("SELECT COUNT(*) FROM k").unwrap().scalar().unwrap(), &Value::I64(2));
        db.execute("SET optimizer = 1").unwrap();
        assert!(db.config().optimizer);
    }

    #[test]
    fn explain_shows_pipeline() {
        let db = Database::open_in_memory();
        db.execute("CREATE TABLE t (a BIGINT, b BIGINT)").unwrap();
        let r = db.execute("EXPLAIN SELECT SUM(a) FROM t WHERE b > 5").unwrap();
        let text = r.text.unwrap();
        assert!(text.contains("Aggr"));
        assert!(text.contains("Scan t"));
    }
}
