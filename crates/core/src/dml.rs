//! DML and transaction plumbing: INSERT/UPDATE/DELETE through PDTs,
//! multi-statement transactions, and CHECKPOINT propagation.

use crate::catalog::{Image, TableEntry, TableKind};
use crate::compile::VictimSource;
use crate::monitor::EventLevel;
use crate::{Database, SessionCore};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use vw_common::{ColData, EngineConfig, Result, Schema, Value, VwError};
use vw_exec::expr::PhysExpr;
use vw_exec::op::{Operator, VectorScan};
use vw_exec::program::eval_const;
use vw_exec::CancelToken;
use vw_pdt::Transaction;
use vw_sql::ast::Expr;
use vw_storage::{TableStats, TableStorage};
use vw_volcano::RowStore;

/// An open multi-statement transaction: one PDT transaction per touched
/// VECTORWISE table, each with the stable generation it began on pinned,
/// so the transaction's reads stay on its own image whatever a concurrent
/// CHECKPOINT installs. [`commit`] is atomic across them: every table's
/// commit is checked before any is applied.
#[derive(Default)]
pub struct OpenTxn {
    pub(crate) tables: HashMap<String, (Arc<TableStorage>, Transaction)>,
}

impl OpenTxn {
    /// Private image of `table`, if this txn touched it.
    pub fn image_of(&self, table: &str) -> Option<Image> {
        let (stable, t) = self.tables.get(&table.to_ascii_lowercase())?;
        Some((stable.clone(), t.image().clone()))
    }

    fn txn_for<'a>(&'a mut self, table: &str, entry: &TableEntry) -> Result<&'a mut Transaction> {
        let key = table.to_ascii_lowercase();
        if !self.tables.contains_key(&key) {
            let TableKind::Vectorwise { storage, pdt } = &entry.kind else {
                return Err(VwError::Unsupported(
                    "transactional DML requires a VECTORWISE table".into(),
                ));
            };
            // Under the storage lock, as `TableKind::committed` reads.
            let stable = storage.read();
            self.tables.insert(key.clone(), (stable.clone(), pdt.begin()));
        }
        Ok(&mut self.tables.get_mut(&key).unwrap().1)
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

/// Coerce a raw row onto the table schema (casts + NOT NULL checks), with
/// an optional explicit column list.
fn coerce_row(schema: &Schema, columns: Option<&[String]>, row: Vec<Value>) -> Result<Vec<Value>> {
    let mut out = vec![Value::Null; schema.len()];
    match columns {
        None => {
            if row.len() != schema.len() {
                return Err(VwError::Exec(format!(
                    "INSERT provides {} values for {} columns",
                    row.len(),
                    schema.len()
                )));
            }
            for (i, v) in row.into_iter().enumerate() {
                out[i] = v;
            }
        }
        Some(cols) => {
            if row.len() != cols.len() {
                return Err(VwError::Exec("INSERT column/value count mismatch".into()));
            }
            for (name, v) in cols.iter().zip(row) {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| VwError::Bind(format!("unknown column '{name}'")))?;
                out[idx] = v;
            }
        }
    }
    for (i, f) in schema.fields.iter().enumerate() {
        if out[i].is_null() {
            if !f.nullable {
                return Err(VwError::Exec(format!("NULL in NOT NULL column {}", f.name)));
            }
        } else {
            out[i] = out[i].cast_to(f.ty)?;
        }
    }
    Ok(out)
}

fn lookup(db: &Arc<Database>, table: &str) -> Result<Arc<TableEntry>> {
    db.catalog.read().get(table).ok_or_else(|| VwError::Catalog(format!("unknown table '{table}'")))
}

/// INSERT rows; returns the row count.
pub(crate) fn insert(
    db: &Arc<Database>,
    core: &mut SessionCore,
    table: &str,
    columns: Option<&[String]>,
    rows: Vec<Vec<Value>>,
) -> Result<u64> {
    let entry = lookup(db, table)?;
    let coerced: Vec<Vec<Value>> =
        rows.into_iter().map(|r| coerce_row(&entry.schema, columns, r)).collect::<Result<_>>()?;
    let n = coerced.len() as u64;
    match &entry.kind {
        TableKind::Heap { store } => {
            store.write().append_rows(&coerced)?;
        }
        TableKind::Vectorwise { .. } => {
            let auto = core.txn.is_none();
            if auto {
                core.txn = Some(OpenTxn::default());
            }
            {
                let txn = core.txn.as_mut().unwrap().txn_for(table, &entry)?;
                for row in coerced {
                    txn.append(row)?;
                }
            }
            if auto {
                commit(db, core.txn.take().unwrap())?;
            }
        }
    }
    Ok(n)
}

/// Bind a DML expression against the table's own schema and normalize it
/// over the schema's nullability — what planning does to a SELECT's
/// expressions.
fn bind_on_table(e: &Expr, schema: &Schema) -> Result<PhysExpr> {
    let nullable: Vec<bool> = schema.fields.iter().map(|f| f.nullable).collect();
    vw_sql::optimizer::fold_expr(vw_sql::binder::bind_expr_on_schema(e, schema)?, &nullable)
}

/// Resolve the target column of each SET clause.
fn set_columns(schema: &Schema, sets: &[(String, Expr)]) -> Result<Vec<usize>> {
    sets.iter()
        .map(|(col, _)| {
            schema.index_of(col).ok_or_else(|| VwError::Bind(format!("unknown column '{col}'")))
        })
        .collect()
}

/// The victim search of UPDATE/DELETE: the RIDs matching `filter` in
/// `source` (the image a transaction sees, or a heap), ascending, and for
/// UPDATE each victim's new values (one per SET clause, cast to the
/// column type, NOT NULL checked).
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
    table: &str,
    source: VictimSource<'_>,
    filter: Option<&Expr>,
    sets: &[(String, Expr)],
    set_cols: &[usize],
) -> Result<(Vec<u64>, Vec<Vec<Value>>)> {
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
        table,
        &projection,
        &hints,
        predicate.as_ref(),
        &set_exprs,
        config,
        cancel,
        source,
    )?;
    let mut rids: Vec<u64> = Vec::new();
    let mut values: Vec<Vec<Value>> = Vec::new();
    while let Some(batch) = op.next()? {
        let (rid_col, set_vecs) = batch.columns.split_last().expect("victim scan emits rids");
        let ColData::I64(batch_rids) = &rid_col.data else {
            unreachable!("the RID column is BIGINT")
        };
        rids.extend(batch_rids.iter().map(|&r| r as u64));
        if set_cols.is_empty() {
            continue;
        }
        for i in 0..batch_rids.len() {
            let mut row = Vec::with_capacity(set_cols.len());
            for (&col, v) in set_cols.iter().zip(set_vecs) {
                let field = schema.field(col);
                let val = v.get(i).cast_to(field.ty)?;
                if val.is_null() && !field.nullable {
                    return Err(VwError::Exec(format!("NULL in NOT NULL column {}", field.name)));
                }
                row.push(val);
            }
            values.push(row);
        }
    }
    Ok((rids, values))
}

/// UPDATE (`sets` given) or DELETE of the rows matching `filter`: find the
/// victims in the transaction's image, then apply them to its PDT in one
/// sorted batch. Outside a transaction the statement commits itself.
/// Returns the affected row count.
///
/// The statement is monitored like a SELECT ([`crate::tracked`]; `sql`
/// labels it): the victim scan runs under its token, so `KILL` and
/// `statement_timeout` end it. They can only land in the scan, before
/// anything is applied, and like any failed statement it leaves the
/// transaction as it was — an auto-commit statement commits nothing, an
/// open transaction does not even keep the snapshot a first touch of
/// `table` pinned. A heap table is rewritten instead (`rewrite_heap`),
/// under the same monitoring.
pub(crate) fn update_or_delete(
    db: &Arc<Database>,
    core: &mut SessionCore,
    table: &str,
    sets: Option<&[(String, Expr)]>,
    filter: Option<&Expr>,
    sql: &str,
) -> Result<u64> {
    let entry = lookup(db, table)?;
    let (session, timeout_ms) = (core.id, core.cfg.statement_timeout_ms);
    if let TableKind::Heap { store } = &entry.kind {
        let config = &core.cfg;
        return crate::tracked(
            db,
            session,
            timeout_ms,
            sql,
            false,
            |n| *n,
            |cancel, _| rewrite_heap(db, config, cancel, &entry, table, store, sets, filter),
        );
    }
    let auto = core.txn.is_none();
    let open = core.txn.get_or_insert_with(OpenTxn::default);
    let first_touch = open.image_of(table).is_none();
    let result = crate::tracked(
        db,
        session,
        timeout_ms,
        sql,
        false,
        |n| *n,
        |cancel, _| {
            let set_cols = set_columns(&entry.schema, sets.unwrap_or(&[]))?;
            open.txn_for(table, &entry)?;
            let (rids, values) = find_victims(
                &core.cfg,
                cancel,
                &entry,
                table,
                VictimSource::Image(open),
                filter,
                sets.unwrap_or(&[]),
                &set_cols,
            )?;
            let txn = open.txn_for(table, &entry)?;
            match sets {
                Some(_) => txn.update_batch(&rids, &set_cols, &values)?,
                None => txn.delete_batch(&rids)?,
            }
            Ok(rids.len() as u64)
        },
    );
    if auto {
        let txn = core.txn.take().expect("opened above");
        if result.is_ok() {
            commit(db, txn)?;
        }
    } else if first_touch && result.is_err() {
        open.tables.remove(&table.to_ascii_lowercase());
    }
    // Changed or removed rows invalidate the distinct/histogram snapshot:
    // mark it stale so the cost model stops planning against dead numbers
    // until CHECKPOINT rebuilds it.
    if matches!(result, Ok(n) if n > 0) {
        entry.stats.write().mark_stale();
    }
    result
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
    table: &str,
    store: &RwLock<RowStore>,
    sets: Option<&[(String, Expr)]>,
    filter: Option<&Expr>,
) -> Result<u64> {
    let set_list = sets.unwrap_or(&[]);
    let set_cols = set_columns(&entry.schema, set_list)?;
    let mut heap = store.write();
    let source = VictimSource::Heap(&heap);
    let (rids, values) =
        find_victims(config, cancel, entry, table, source, filter, set_list, &set_cols)?;
    if rids.is_empty() {
        return Ok(0);
    }
    let mut rows = Vec::with_capacity(heap.n_rows() as usize);
    for p in 0..heap.n_pages() {
        rows.extend(heap.read_page(p)?);
    }
    match sets {
        Some(_) => {
            for (&rid, new) in rids.iter().zip(values) {
                for (&col, v) in set_cols.iter().zip(new) {
                    rows[rid as usize][col] = v;
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
/// every touched table's commit is prepared (all checks, in name order —
/// each prepared table stays locked), and only when all passed are they
/// applied, which cannot fail. A conflict on any table leaves every table
/// as it was.
pub fn commit(db: &Arc<Database>, txn: OpenTxn) -> Result<()> {
    let _guard = db.commit_lock.lock();
    let mut tables: Vec<(String, Transaction)> =
        txn.tables.into_iter().map(|(name, (_, t))| (name, t)).collect();
    tables.sort_by(|a, b| a.0.cmp(&b.0));
    let entries: Vec<Arc<TableEntry>> =
        tables.iter().map(|(name, _)| lookup(db, name)).collect::<Result<_>>()?;
    let mut prepared = Vec::with_capacity(tables.len());
    for (entry, (_, t)) in entries.iter().zip(tables) {
        if let TableKind::Vectorwise { pdt, .. } = &entry.kind {
            prepared.push(pdt.prepare_commit(t)?);
        }
    }
    for p in prepared {
        p.apply();
    }
    Ok(())
}

/// CHECKPOINT: merge each table's PDT deltas into the next generation of
/// stable storage and reset the delta layer ("background update
/// propagation", run on demand). Returns the number of rows materialized.
///
/// The next generation is installed and the PDT reset in one step under
/// the storage lock, so a scan starting meanwhile pins the old pair or the
/// new one. Nothing is freed here: the old generation's blocks go when the
/// last scan pinning it drops. A CHECKPOINT that fails drops the
/// generation it was building, and the table stays as it was.
pub fn checkpoint(db: &Arc<Database>, config: &EngineConfig, table: Option<&str>) -> Result<u64> {
    let names: Vec<String> = match table {
        Some(t) => vec![t.to_string()],
        None => db.catalog.read().names(),
    };
    let mut total = 0u64;
    for name in names {
        let entry = match lookup(db, &name) {
            Ok(entry) => entry,
            // `CHECKPOINT` of every table skips one dropped meanwhile.
            Err(_) if table.is_none() => continue,
            Err(e) => return Err(e),
        };
        let TableKind::Vectorwise { storage, pdt } = &entry.kind else {
            continue;
        };
        // Commits wait, so the image stays the committed one throughout.
        let _guard = db.commit_lock.lock();
        let (stable, root) = entry.kind.committed().expect("a VECTORWISE table");
        let n_rows = pdt.visible_rows();
        // Materialize the merged image column by column.
        let all_cols: Vec<usize> = (0..entry.schema.len()).collect();
        let mut scan =
            VectorScan::new(stable, all_cols, root, config.vector_size, CancelToken::new());
        let mut columns: Vec<ColData> = entry
            .schema
            .fields
            .iter()
            .map(|f| ColData::with_capacity(f.ty, n_rows as usize))
            .collect();
        let mut nulls: Vec<Option<Vec<bool>>> = vec![None; entry.schema.len()];
        let mut row_count = 0usize;
        while let Some(mut batch) = scan.next()? {
            // The scan hands dictionary-coded strings out still coded.
            batch.ensure_flat();
            for (i, v) in batch.columns.iter().enumerate() {
                columns[i].extend_from_range(&v.data, 0, v.len());
                let mask_needed = v.nulls.is_some() || nulls[i].is_some();
                if mask_needed {
                    let m = nulls[i].get_or_insert_with(|| vec![false; row_count]);
                    match &v.nulls {
                        Some(vm) => m.extend_from_slice(vm),
                        None => m.extend(std::iter::repeat_n(false, v.len())),
                    }
                }
            }
            row_count += batch.rows();
        }
        let mut next = TableStorage::new(db.pool.clone(), entry.schema.clone());
        next.append_columns(&columns, &nulls, config.pack_size)?;
        {
            let mut st = storage.write();
            *st = Arc::new(next);
            pdt.reset_after_checkpoint(row_count as u64);
        }
        *entry.stats.write() = TableStats::build(&columns, &nulls, 32);
        db.monitor.log(EventLevel::Info, format!("checkpointed {name}: {row_count} rows"));
        total += row_count as u64;
    }
    Ok(total)
}
