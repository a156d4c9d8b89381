//! Spans recorded by the benchmark around its own calls into each crate,
//! and the replay of a SELECT through the engine's public phases.
//!
//! A traced statement produces this tree (ids are unique per run, `parent`
//! is the id of the enclosing span, `statement` names the workload
//! statement all of them belong to):
//!
//! ```text
//! statement
//! ├── execute                 Session::execute, as the untraced loop calls it
//! │   └── begin | dml | commit   one per call of a multi-call statement
//! └── replay                  SELECTs only: the same query, phase by phase
//!     ├── parse  bind  optimize      vw-sql
//!     ├── rewrite                    vw-rewriter
//!     ├── compile                    vw-core
//!     ├── drain                      vw-exec (and storage, compress, pdt below it)
//!     └── emit                       vw-core's row materialisation
//! ```
//!
//! A span's self time is its duration minus its children's; `execute`
//! minus the seven replayed phases is what `Database::execute` spends on
//! admission, the monitor and the timer (`core.other_us`).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use vw_common::{EngineConfig, Schema, Value};
use vw_core::catalog::TableKind;
use vw_core::Database;
use vw_exec::CancelToken;
use vw_sql::ast::Statement;
use vw_sql::binder::{Binder, CatalogView};

pub const REPLAY_PHASES: [&str; 7] =
    ["parse", "bind", "optimize", "rewrite", "compile", "drain", "emit"];

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub statement: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans are kept in memory and written out when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, statement: usize) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span { id, parent, statement, name, start_ns, end_ns: start_ns });
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// One JSON object per line.
    pub fn jsonl(&self, statement_names: &[&str]) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"statement\": \"{}\", \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, statement_names[s.statement], s.name, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out
    }
}

/// The planner's view of the catalog, over the public `Database::catalog`
/// (the engine's own adapter is crate-private).
struct View<'a>(&'a Database);

impl View<'_> {
    fn fresh_column<T>(
        &self,
        table: &str,
        col: usize,
        read: impl FnOnce(&vw_storage::ColumnStats) -> Option<T>,
    ) -> Option<T> {
        let stats = self.0.catalog.read().get(table)?.stats.clone();
        let stats = stats.read();
        if stats.stale {
            return None;
        }
        read(stats.columns.get(col)?)
    }
}

impl CatalogView for View<'_> {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.0.catalog.read().get(name).map(|t| t.schema.clone())
    }

    fn table_rows(&self, name: &str) -> Option<u64> {
        let entry = self.0.catalog.read().get(name)?;
        Some(match &entry.kind {
            TableKind::Vectorwise { pdt, .. } => pdt.visible_rows(),
            TableKind::Heap { store } => store.read().n_rows(),
        })
    }

    fn column_distinct(&self, table: &str, col: usize) -> Option<u64> {
        self.fresh_column(table, col, |c| (c.n_distinct > 0).then_some(c.n_distinct))
    }

    fn column_range_selectivity(
        &self,
        table: &str,
        col: usize,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Option<f64> {
        self.fresh_column(table, col, |c| {
            let h = c.histogram.as_ref()?;
            // An absent bound is open; a bound with no numeric projection
            // means no estimate at all.
            let project = |v: Option<&Value>| match v {
                Some(v) => vw_storage::stats::project(v).map(Some),
                None => Some(None),
            };
            let (lo, hi) = (project(lo)?, project(hi)?);
            Some(h.sel_range(lo, hi.map(|v| v + 1e-9)))
        })
    }
}

/// Run one SELECT the way `vw_core`'s `run_select` does, a span per phase.
/// Returns the materialised rows. `config` is the session's configuration
/// for this statement (parallelism and memory budget already applied).
pub fn replay_select(
    db: &Arc<Database>,
    config: &EngineConfig,
    sql: &str,
    tracer: &mut Tracer,
    parent: usize,
    statement: usize,
) -> vw_common::Result<Vec<Vec<Value>>> {
    let view = View(db);

    let s = tracer.open("parse", Some(parent), statement);
    let stmts = vw_sql::parse(sql)?;
    tracer.close(s);
    let Some(Statement::Select(select)) = stmts.first() else {
        return Err(vw_common::VwError::Unsupported("replay of a non-SELECT".into()));
    };

    let s = tracer.open("bind", Some(parent), statement);
    let plan = Binder::new(&view).bind_select(select)?;
    tracer.close(s);

    let s = tracer.open("optimize", Some(parent), statement);
    let plan = vw_sql::optimizer::optimize_with(plan, &view, config.optimizer)?;
    tracer.close(s);

    let s = tracer.open("rewrite", Some(parent), statement);
    let rewriter =
        vw_rewriter::RewriterConfig { dop: config.parallelism, parallel_threshold_rows: 10_000.0 };
    let plan = vw_rewriter::rewrite_plan(plan, &rewriter);
    tracer.close(s);

    let s = tracer.open("compile", Some(parent), statement);
    let cancel = CancelToken::new();
    let mut op = vw_core::compile::build_plan(db, &plan, config, &cancel, None)?;
    tracer.close(s);

    let s = tracer.open("drain", Some(parent), statement);
    let batch = vw_exec::op::drain(op.as_mut())?;
    tracer.close(s);

    let s = tracer.open("emit", Some(parent), statement);
    let rows: Vec<Vec<Value>> = (0..batch.rows()).map(|i| batch.row_values(i)).collect();
    tracer.close(s);
    Ok(rows)
}
