//! DML and transaction plumbing: INSERT/UPDATE/DELETE through PDTs,
//! multi-statement transactions, and CHECKPOINT propagation.
//!
//! Every statement that reads or writes tables runs in an [`OpenTxn`]:
//! the session's open transaction, or one of its own that it commits when
//! it succeeds. An `OpenTxn` reads one published image of the catalog
//! (`catalog::publish`) throughout, so the isolation level is snapshot
//! isolation: a transaction reads the database as of its `BEGIN`, first
//! committer wins on overlapping stable rows, and write skew is allowed.
//! HEAP tables are outside snapshots: read and written in place.

use crate::catalog::{publish, Catalog, TableEntry, TableKind};
use crate::compile::VictimSource;
use crate::monitor::EventLevel;
use crate::{Database, SessionCore};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use vw_common::{ColData, EngineConfig, Result, Schema, TypeId, Value, VwError};
use vw_exec::expr::PhysExpr;
use vw_exec::op::{Operator, VectorScan};
use vw_exec::program::eval_const;
use vw_exec::vector::{Batch, Vector};
use vw_exec::CancelToken;
use vw_pdt::treap::{size, Link};
use vw_pdt::{Block, PdtStore, Rows, Transaction};
use vw_sql::ast::Expr;
use vw_storage::{TableStats, TableStorage};
use vw_volcano::RowStore;

/// A transaction: the image of the catalog it reads, taken when it began,
/// and one PDT transaction per VECTORWISE table it wrote, each begun on
/// that image. The image pins every stable generation it names, so the
/// transaction reads its own instant whatever commits or CHECKPOINTs
/// meanwhile. [`commit`] is atomic across its tables: every table's commit
/// is checked before any is applied.
pub struct OpenTxn {
    pub(crate) image: Arc<Catalog>,
    pub(crate) tables: HashMap<String, Transaction>,
}

impl OpenTxn {
    /// A transaction reading the database's current image.
    pub(crate) fn begin(db: &Database) -> OpenTxn {
        OpenTxn { image: db.image(), tables: HashMap::new() }
    }

    /// `table`'s entry in this transaction's image.
    pub(crate) fn entry(&self, table: &str) -> Result<Arc<TableEntry>> {
        self.image.get(table).ok_or_else(|| VwError::Catalog(format!("unknown table '{table}'")))
    }

    /// The PDT root of `table` this transaction wrote, if it wrote it: what
    /// its scans of the table read instead of the image's root.
    pub(crate) fn own_root(&self, table: &str) -> Option<&Link> {
        self.tables.get(&table.to_ascii_lowercase()).map(Transaction::image)
    }

    /// The PDT transaction of `table`, begun at its first write on the
    /// image's `root`, committed at `version`.
    fn txn_for(&mut self, table: &str, root: &Link, version: u64) -> &mut Transaction {
        let key = table.to_ascii_lowercase();
        self.tables.entry(key).or_insert_with(|| PdtStore::begin_at(root.clone(), version))
    }
}

/// Evaluate literal INSERT rows: each expression binds like any DML
/// expression, over no columns. What folding leaves — a constant whose
/// evaluation errors — runs through the constant evaluator, which
/// reports the error.
pub fn literal_rows(rows: &[Vec<Expr>]) -> Result<Vec<Vec<Value>>> {
    let empty = Schema::default();
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|e| match bind_on_table(e, &empty)? {
                    PhysExpr::Const(v, _) => Ok(v),
                    other => eval_const(&other),
                })
                .collect()
        })
        .collect()
}

/// Where an INSERT's rows come from.
pub(crate) enum Source {
    /// Literal rows ([`literal_rows`]).
    Values(Vec<Vec<Value>>),
    /// A query's output: its width and its batches.
    Query(usize, Vec<Batch>),
}

/// INSERT into `table` within `open`; returns the row count. The source,
/// mapped through the optional column list, becomes table-schema columns
/// in one pass per batch: a column moves when its type is the table's
/// and is cast value by value when not, an unlisted column is NULL, and
/// NOT NULL is checked on the masks. Every batch is coerced before any is
/// appended, so a refused INSERT leaves nothing behind. A VECTORWISE table
/// takes each batch as one run of its PDT; a heap, as rows.
pub(crate) fn insert(
    open: &mut OpenTxn,
    table: &str,
    columns: Option<&[String]>,
    source: Source,
) -> Result<u64> {
    let entry = open.entry(table)?;
    let schema = &entry.schema;
    let width = columns.map_or(schema.len(), <[String]>::len);
    let provided = match &source {
        Source::Values(rows) => rows.iter().map(Vec::len).find(|&n| n != width),
        Source::Query(n, _) => Some(*n).filter(|&n| n != width),
    };
    if let Some(n) = provided {
        return Err(VwError::Exec(match columns {
            None => format!("INSERT provides {n} values for {width} columns"),
            Some(_) => "INSERT column/value count mismatch".into(),
        }));
    }
    // The table column each source column feeds.
    let targets = match columns {
        None => (0..width).collect(),
        Some(names) => column_indices(schema, names)?,
    };
    let batches: Vec<(usize, Vec<Vector>)> = match source {
        Source::Values(rows) => {
            let n = rows.len();
            let cast_column =
                |(j, &t): (usize, &usize)| cast(schema.field(t).ty, n, |i| rows[i][j].clone());
            vec![(n, targets.iter().enumerate().map(cast_column).collect::<Result<_>>()?)]
        }
        Source::Query(_, batches) => batches.into_iter().map(|b| (b.rows(), b.columns)).collect(),
    };
    let all: Vec<usize> = (0..schema.len()).collect();
    let coerced = batches.into_iter().map(|(n, cols)| coerce(schema, &all, &targets, n, cols));
    let runs = coerced.collect::<Result<Vec<Rows>>>()?;
    let n = runs.iter().map(Rows::n_rows).sum();
    match &entry.kind {
        TableKind::Heap { store } => {
            let row = |r: &Rows, i| (0..all.len()).map(|c| cell(r, c, i)).collect();
            let rows: Vec<Vec<Value>> = runs
                .iter()
                .flat_map(|r| (0..r.n_rows() as usize).map(move |i| row(r, i)))
                .collect();
            store.write().append_rows(&rows)?
        }
        TableKind::Vectorwise { root, version, .. } => {
            let txn = open.txn_for(table, root, *version);
            for run in runs {
                txn.insert_rows(txn.n_rows(), run)?;
            }
        }
    }
    Ok(n)
}

/// One batch of `n` source rows as the table columns `cols`, typed: source
/// column `j` feeds table column `targets[j]` (the last one listed, when
/// named twice) and is cast to its type if it has another; a column
/// nothing feeds is NULL, and a NULL in a NOT NULL column refuses the
/// batch. INSERT coerces into every column, UPDATE into its SET columns.
fn coerce(
    schema: &Schema,
    cols: &[usize],
    targets: &[usize],
    n: usize,
    columns: Vec<Vector>,
) -> Result<Rows> {
    let mut columns: Vec<Option<Vector>> = columns.into_iter().map(Some).collect();
    let mut rows = Rows::default();
    for &i in cols {
        let f = schema.field(i);
        let mut v = match targets.iter().rposition(|&t| t == i) {
            Some(j) => columns[j].take().expect("a source column feeds one table column"),
            None => cast(f.ty, n, |_| Value::Null)?,
        };
        if v.type_id() != f.ty {
            v = cast(f.ty, n, |i| v.get(i))?;
        }
        v.ensure_flat();
        if !f.nullable && v.nulls.as_ref().is_some_and(|m| m.contains(&true)) {
            return Err(VwError::Exec(format!("NULL in NOT NULL column {}", f.name)));
        }
        rows.cols.push(v.data);
        rows.nulls.push(v.nulls);
    }
    Ok(rows)
}

/// Lane `i` of column `c` of `rows` as a value.
fn cell(rows: &Rows, c: usize, i: usize) -> Value {
    match &rows.nulls[c] {
        Some(m) if m[i] => Value::Null,
        _ => rows.cols[c].get_value(i),
    }
}

/// `n` lanes cast one by one to `ty`.
fn cast(ty: TypeId, n: usize, lane: impl Fn(usize) -> Value) -> Result<Vector> {
    let mut out = Vector::new(ColData::with_capacity(ty, n));
    for i in 0..n {
        out.push(&lane(i).cast_to(ty)?)?;
    }
    Ok(out)
}

/// Bind a DML expression against the table's own schema and normalize it
/// over the schema's nullability — what planning does to a SELECT's
/// expressions.
fn bind_on_table(e: &Expr, schema: &Schema) -> Result<PhysExpr> {
    let nullable: Vec<bool> = schema.fields.iter().map(|f| f.nullable).collect();
    vw_sql::optimizer::fold_expr(vw_sql::binder::bind_expr_on_schema(e, schema)?, &nullable)
}

/// Resolve column names: an INSERT's column list, SET clauses' targets.
fn column_indices<'a>(
    schema: &Schema,
    names: impl IntoIterator<Item = &'a String>,
) -> Result<Vec<usize>> {
    let unknown = |col: &String| VwError::Bind(format!("unknown column '{col}'"));
    names.into_iter().map(|col| schema.index_of(col).ok_or_else(|| unknown(col))).collect()
}

/// The victim search of UPDATE/DELETE: the RIDs matching `filter` in
/// `source` (the image a transaction sees, or a heap), ascending, and for
/// UPDATE the victims' new values as one typed block over the SET
/// columns, row `i` for victim `i` — each victim batch coerced like an
/// INSERT's ([`coerce`]).
///
/// It is a query like any other — `Project ∘ Filter ∘ Scan` over only the
/// columns WHERE and the SET right-hand sides read, with the WHERE's
/// `col <cmp> literal` conjuncts as zone-map hints — so a statement costs
/// what it touches. A WHERE-excluded row never reaches a SET expression
/// (`SET a = 10 / b WHERE b <> 0` must not divide by zero).
///
/// `config` is the session's, threaded explicitly: `Database::execute`
/// holds the default-session lock for the whole statement, so DML paths
/// must never read it back through `db.config()`. The scan runs under
/// `cancel`, the statement's token.
#[allow(clippy::too_many_arguments)]
fn find_victims(
    config: &EngineConfig,
    cancel: &CancelToken,
    entry: &TableEntry,
    source: VictimSource<'_>,
    filter: Option<&Expr>,
    sets: &[(String, Expr)],
    set_cols: &[usize],
) -> Result<(Vec<u64>, Block)> {
    let schema = &entry.schema;
    let predicate = filter.map(|f| bind_on_table(f, schema)).transpose()?;
    let set_exprs: Vec<PhysExpr> =
        sets.iter().map(|(_, e)| bind_on_table(e, schema)).collect::<Result<_>>()?;

    // Scan only what the expressions read; address it by scan position.
    let mut projection = Vec::new();
    for e in predicate.iter().chain(&set_exprs) {
        e.collect_cols(&mut projection);
    }
    projection.sort_unstable();
    projection.dedup();
    let onto_scan = |e: &PhysExpr| e.remap_cols(&|c| projection.binary_search(&c).ok());
    let predicate = predicate.as_ref().map(onto_scan).transpose()?;
    let set_exprs: Vec<PhysExpr> = set_exprs.iter().map(onto_scan).collect::<Result<_>>()?;
    let hints: Vec<_> = predicate
        .iter()
        .flat_map(|p| p.clone().conjuncts())
        .filter_map(|c| vw_sql::optimizer::hint_from(&c, &projection))
        .collect();

    let mut op = crate::compile::victim_scan(
        entry,
        &projection,
        &hints,
        predicate.as_ref(),
        &set_exprs,
        config,
        cancel,
        source,
    )?;
    let mut rids: Vec<u64> = Vec::new();
    let mut block = Block { cols: set_cols.to_vec(), rows: Rows::default() };
    block.cols.sort_unstable();
    block.cols.dedup();
    while let Some(mut batch) = op.next()? {
        let rid_col = batch.columns.pop().expect("victim scan emits rids");
        let ColData::I64(batch_rids) = &rid_col.data else {
            unreachable!("the RID column is BIGINT")
        };
        rids.extend(batch_rids.iter().map(|&r| r as u64));
        if !set_cols.is_empty() {
            let n = batch_rids.len();
            block.rows.append(coerce(schema, &block.cols, set_cols, n, batch.columns)?);
        }
    }
    Ok((rids, block))
}

/// UPDATE (`sets` given) or DELETE of the rows matching `filter` within
/// `open`: find the victims in the transaction's image, then apply them
/// to its PDT in one sorted batch. Returns the affected row count.
///
/// The statement is monitored like a SELECT ([`crate::tracked`]; `sql`
/// labels it): the victim scan runs under its token, so `KILL` and
/// `statement_timeout` end it. They can only land in the scan, before
/// anything is applied, and like any failed statement it leaves the
/// transaction as it was. A heap table is rewritten instead
/// (`rewrite_heap`), under the same monitoring.
pub(crate) fn update_or_delete(
    db: &Arc<Database>,
    core: &mut SessionCore,
    table: &str,
    sets: Option<&[(String, Expr)]>,
    filter: Option<&Expr>,
    sql: &str,
) -> Result<u64> {
    let (session, timeout_ms, config) = (core.id, core.cfg.statement_timeout_ms, &core.cfg);
    let open = core.txn.as_mut().expect("DML runs in a transaction");
    let entry = open.entry(table)?;
    let statement = |cancel: &CancelToken, _| {
        let (storage, root, version) = match &entry.kind {
            TableKind::Heap { store } => {
                return rewrite_heap(db, config, cancel, &entry, store, sets, filter)
            }
            TableKind::Vectorwise { storage, root, version, .. } => (storage, root, *version),
        };
        let set_list = sets.unwrap_or(&[]);
        let set_cols = column_indices(&entry.schema, set_list.iter().map(|(c, _)| c))?;
        let source = VictimSource::Image(storage, open.own_root(table).unwrap_or(root));
        let (rids, block) =
            find_victims(config, cancel, &entry, source, filter, set_list, &set_cols)?;
        let txn = open.txn_for(table, root, version);
        match sets {
            Some(_) => txn.update_batch(&rids, Arc::new(block))?,
            None => txn.delete_batch(&rids)?,
        }
        Ok(rids.len() as u64)
    };
    crate::tracked(db, session, timeout_ms, sql, false, |n| *n, statement)
}

/// Heap-table UPDATE/DELETE: the victims come from the same search as a
/// VECTORWISE table's ([`find_victims`], over the heap's rows as typed
/// columns), then the heap is rewritten with each victim replaced or
/// dropped by position. The write lock is held from reading the rows to
/// installing the rewritten heap, so no statement sees the heap half
/// done. Heap DML never opens or joins a transaction: the rewrite is the
/// commit, and a failed one leaves the old heap in place.
#[allow(clippy::too_many_arguments)]
fn rewrite_heap(
    db: &Arc<Database>,
    config: &EngineConfig,
    cancel: &CancelToken,
    entry: &TableEntry,
    store: &RwLock<RowStore>,
    sets: Option<&[(String, Expr)]>,
    filter: Option<&Expr>,
) -> Result<u64> {
    let set_list = sets.unwrap_or(&[]);
    let set_cols = column_indices(&entry.schema, set_list.iter().map(|(c, _)| c))?;
    let mut heap = store.write();
    let source = VictimSource::Heap(&heap);
    let (rids, block) = find_victims(config, cancel, entry, source, filter, set_list, &set_cols)?;
    if rids.is_empty() {
        return Ok(0);
    }
    let mut rows = Vec::with_capacity(heap.n_rows() as usize);
    for p in 0..heap.n_pages() {
        rows.extend(heap.read_page(p)?);
    }
    match sets {
        Some(_) => {
            for (i, &rid) in rids.iter().enumerate() {
                for (j, &col) in block.cols.iter().enumerate() {
                    rows[rid as usize][col] = cell(&block.rows, j, i);
                }
            }
        }
        None => {
            let mut victims = rids.iter().peekable();
            let mut pos = 0u64;
            rows.retain(|_| {
                let victim = victims.next_if_eq(&&pos).is_some();
                pos += 1;
                !victim
            });
        }
    }
    let mut fresh = RowStore::new(db.pool.clone(), entry.schema.clone());
    fresh.append_rows(&rows)?;
    // The old heap frees its pages as it drops.
    *heap = fresh;
    // Same staleness contract as the PDT path: the rewrite just changed or
    // removed rows the statistics still describe.
    entry.stats.write().mark_stale();
    Ok(rids.len() as u64)
}

/// Commit an open transaction atomically: under the global commit lock,
/// every table it changed has its commit prepared (all checks, in name
/// order — each prepared table stays locked), and only when all passed
/// are they applied, which cannot fail, and published as one image. A
/// conflict on any table leaves every table as it was; a transaction that
/// changed nothing commits nothing.
pub fn commit(db: &Arc<Database>, txn: OpenTxn) -> Result<()> {
    let mut tables: Vec<(String, Transaction)> =
        txn.tables.into_iter().filter(|(_, t)| !t.is_empty()).collect();
    if tables.is_empty() {
        return Ok(());
    }
    tables.sort_by(|a, b| a.0.cmp(&b.0));
    let guard = db.commit_lock.lock();
    let current = db.image();
    // A table dropped since the transaction's image is gone, even if one
    // of the same name was created since.
    let entries: Vec<Arc<TableEntry>> = tables
        .iter()
        .map(|(name, _)| match (current.get(name), txn.image.get(name)) {
            (Some(now), Some(then)) if Arc::ptr_eq(&now.stats, &then.stats) => Ok(now),
            _ => Err(VwError::Catalog(format!("unknown table '{name}'"))),
        })
        .collect::<Result<_>>()?;
    let mut prepared = Vec::with_capacity(tables.len());
    for (entry, (_, t)) in entries.iter().zip(tables) {
        if let TableKind::Vectorwise { pdt, .. } = &entry.kind {
            prepared.push(pdt.prepare_commit(t)?);
        }
    }
    for p in prepared {
        p.apply();
    }
    let changes = entries.iter().map(|e| (e.name.clone(), Some(TableEntry::clone(e)))).collect();
    publish(db, &guard, changes, true);
    Ok(())
}

/// CHECKPOINT: merge each table's PDT deltas into the next generation of
/// stable storage and reset the delta layer ("background update
/// propagation", run on demand). Returns the number of rows materialized.
///
/// Each table is materialized from the current image and installed — the
/// PDT reset onto the next generation and the image published — in one
/// `commit_lock` section, so no commit lands in between. Nothing is freed
/// here: the old generation's blocks go when the last image or scan
/// pinning it drops. A transaction whose image predates the CHECKPOINT of
/// a table it wrote is refused at commit. A CHECKPOINT that fails drops
/// the generation it was building, and the table stays as it was.
pub fn checkpoint(db: &Arc<Database>, config: &EngineConfig, table: Option<&str>) -> Result<u64> {
    let names: Vec<String> = match table {
        Some(t) => vec![t.to_string()],
        None => db.image().names(),
    };
    let mut total = 0u64;
    for name in names {
        let guard = db.commit_lock.lock();
        let entry = match db.image().get(&name) {
            Some(entry) => entry,
            // `CHECKPOINT` of every table skips one dropped meanwhile.
            None if table.is_none() => continue,
            None => return Err(VwError::Catalog(format!("unknown table '{name}'"))),
        };
        let TableKind::Vectorwise { storage, root, pdt, .. } = &entry.kind else { continue };
        // Materialize the merged image column by column.
        let all_cols: Vec<usize> = (0..entry.schema.len()).collect();
        let vs = config.vector_size;
        let mut scan =
            VectorScan::new(storage.clone(), all_cols, root.clone(), vs, CancelToken::new());
        let (n, fields) = (size(root) as usize, &entry.schema.fields);
        let cols = fields.iter().map(|f| ColData::with_capacity(f.ty, n)).collect();
        let mut rows = Rows { cols, nulls: vec![None; fields.len()] };
        while let Some(mut batch) = scan.next()? {
            // The scan hands dictionary-coded strings out still coded.
            batch.ensure_flat();
            let (cols, nulls) = batch.columns.into_iter().map(|v| (v.data, v.nulls)).unzip();
            rows.append(Rows { cols, nulls });
        }
        let row_count = rows.n_rows();
        let mut next = TableStorage::new(db.pool.clone(), entry.schema.clone());
        next.append_columns(&rows.cols, &rows.nulls, config.pack_size)?;
        pdt.reset_after_checkpoint(row_count);
        *entry.stats.write() = TableStats::build(&rows.cols, &rows.nulls, 32);
        publish(db, &guard, vec![(name.clone(), Some(entry.on_generation(next)))], false);
        db.monitor.log(EventLevel::Info, format!("checkpointed {name}: {row_count} rows"));
        total += row_count;
    }
    Ok(total)
}
