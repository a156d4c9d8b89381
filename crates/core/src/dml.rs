//! DML and transaction plumbing: INSERT/UPDATE/DELETE through PDTs,
//! multi-statement transactions, and CHECKPOINT propagation.

use crate::catalog::{TableEntry, TableKind};
use crate::monitor::EventLevel;
use crate::{Database, SessionCore};
use std::collections::HashMap;
use std::sync::Arc;
use vw_common::{ColData, EngineConfig, Result, Schema, Value, VwError};
use vw_exec::expr::ExprCtx;
use vw_exec::op::{Operator, VectorScan};
use vw_exec::program::{ExprProgram, SelectProgram, VectorPool};
use vw_exec::CancelToken;
use vw_pdt::store::items;
use vw_pdt::Transaction;
use vw_sql::ast::Expr;
use vw_sql::binder::{Binder, CatalogView};
use vw_storage::{TableStats, TableStorage};

/// An open multi-statement transaction: one PDT transaction per touched
/// VECTORWISE table.
///
/// Cross-table atomicity caveat: commit applies
/// per table under the global commit lock; a positional conflict on a later
/// table aborts the remainder but does not undo earlier tables.
#[derive(Default)]
pub struct OpenTxn {
    pub(crate) tables: HashMap<String, Transaction>,
}

impl OpenTxn {
    /// Private image root for `table`, if this txn touched it.
    pub fn image_of(&self, table: &str) -> Option<vw_pdt::treap::Link> {
        self.tables.get(&table.to_ascii_lowercase()).map(|t| t.image().clone())
    }

    fn txn_for<'a>(&'a mut self, table: &str, entry: &TableEntry) -> Result<&'a mut Transaction> {
        let key = table.to_ascii_lowercase();
        if !self.tables.contains_key(&key) {
            let TableKind::Vectorwise { pdt, .. } = &entry.kind else {
                return Err(VwError::Unsupported(
                    "transactional DML requires a VECTORWISE table".into(),
                ));
            };
            self.tables.insert(key.clone(), pdt.begin());
        }
        Ok(self.tables.get_mut(&key).unwrap())
    }
}

/// Evaluate literal INSERT rows (constant expressions only).
pub fn literal_rows(rows: &[Vec<Expr>]) -> Result<Vec<Vec<Value>>> {
    struct NoCatalog;
    impl CatalogView for NoCatalog {
        fn table_schema(&self, _n: &str) -> Option<Schema> {
            None
        }
        fn table_rows(&self, _n: &str) -> Option<u64> {
            None
        }
    }
    let binder = Binder::new(&NoCatalog);
    let empty = Schema::default();
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|e| {
                    let bound = binder.bind_expr_on_schema(e, &empty)?;
                    let folded = vw_sql::optimizer::fold_expr(bound)?;
                    match folded {
                        vw_sql::SqlExpr::Lit(v, _) => Ok(v),
                        other => Err(VwError::Unsupported(format!(
                            "INSERT VALUES must be constants, got {other:?}"
                        ))),
                    }
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

/// Shared machinery for UPDATE/DELETE: find the RIDs (and per-row new
/// values for UPDATE) matching `filter` in the transaction's image.
#[allow(clippy::type_complexity)]
fn matching_rows(
    db: &Arc<Database>,
    config: &EngineConfig,
    entry: &TableEntry,
    image: vw_pdt::treap::Link,
    filter: Option<&Expr>,
    sets: Option<&[(String, Expr)]>,
) -> Result<(Vec<u64>, Vec<Vec<(usize, Value)>>)> {
    let TableKind::Vectorwise { storage, .. } = &entry.kind else {
        unreachable!("caller checked");
    };
    let binder_catalog = NoTables;
    let binder = Binder::new(&binder_catalog);
    // The session's config, threaded explicitly: `Database::execute`
    // holds the default-session lock for the whole statement, so DML
    // paths must never read it back through `db.config()`.
    let ctx = ExprCtx { check: config.check_mode, null_mode: config.null_mode };
    // Compile once per statement; the scan loop below only runs programs.
    let predicate = match filter {
        Some(f) => {
            let bound = binder.bind_expr_on_schema(f, &entry.schema)?;
            let nullable: Vec<bool> = entry.schema.fields.iter().map(|x| x.nullable).collect();
            let rewritten = vw_rewriter::engine::rewrite_fixpoint(
                bound,
                &vw_rewriter::rules::default_rules(),
                &nullable,
            );
            Some(SelectProgram::compile(&crate::compile::lower_expr(&rewritten)?, &ctx))
        }
        None => None,
    };
    let set_exprs = match sets {
        Some(sets) => {
            let mut out = Vec::with_capacity(sets.len());
            for (col, e) in sets {
                let idx = entry
                    .schema
                    .index_of(col)
                    .ok_or_else(|| VwError::Bind(format!("unknown column '{col}'")))?;
                let bound = binder.bind_expr_on_schema(e, &entry.schema)?;
                let nullable: Vec<bool> = entry.schema.fields.iter().map(|x| x.nullable).collect();
                let rewritten = vw_rewriter::engine::rewrite_fixpoint(
                    bound,
                    &vw_rewriter::rules::default_rules(),
                    &nullable,
                );
                out.push((
                    idx,
                    ExprProgram::compile(&crate::compile::lower_expr(&rewritten)?, &ctx),
                ));
            }
            Some(out)
        }
        None => None,
    };

    // Scan the image in row order, collecting matches.
    let snapshot = {
        let st = storage.read();
        let mut snap = TableStorage::new(st.disk().clone(), st.schema().clone(), st.layout());
        snap.adopt_packs(&st);
        Arc::new(snap)
    };
    let all_cols: Vec<usize> = (0..entry.schema.len()).collect();
    let mut scan = VectorScan::new(
        snapshot,
        db.pool.clone(),
        all_cols,
        items(&image),
        config.vector_size,
        CancelToken::new(),
    );
    let mut rids: Vec<u64> = Vec::new();
    let mut new_values: Vec<Vec<(usize, Value)>> = Vec::new();
    let mut base = 0u64;
    let mut pool = VectorPool::new();
    while let Some(batch) = scan.next()? {
        let sel = match &predicate {
            Some(p) => Some(p.run(&mut pool, &batch)?),
            None => None,
        };
        let selected: Vec<usize> = match &sel {
            Some(s) => s.iter().collect(),
            None => (0..batch.capacity()).collect(),
        };
        if !selected.is_empty() {
            if let Some(set_exprs) = &set_exprs {
                // Run each SET program over the *selected* lanes only — a
                // WHERE-excluded row must not raise errors from the SET
                // expression (e.g. `SET a = 10 / b WHERE b <> 0`) — then
                // pick the selected positions out of the pooled results.
                let evaluated: Vec<(usize, vw_exec::program::VecRef)> = set_exprs
                    .iter()
                    .map(|(idx, e)| Ok((*idx, e.run_with_sel(&mut pool, &batch, sel.as_ref())?)))
                    .collect::<Result<_>>()?;
                for &pos in &selected {
                    let mut row_sets = Vec::with_capacity(evaluated.len());
                    for (idx, vr) in &evaluated {
                        let v = pool.get(&batch, *vr);
                        let val = v.get(pos).cast_to(entry.schema.field(*idx).ty)?;
                        if val.is_null() && !entry.schema.field(*idx).nullable {
                            return Err(VwError::Exec(format!(
                                "NULL in NOT NULL column {}",
                                entry.schema.field(*idx).name
                            )));
                        }
                        row_sets.push((*idx, val));
                    }
                    new_values.push(row_sets);
                }
            }
            rids.extend(selected.iter().map(|&p| base + p as u64));
        }
        if let Some(s) = sel {
            pool.put_sel(s);
        }
        pool.recycle();
        base += batch.capacity() as u64;
    }
    Ok((rids, new_values))
}

struct NoTables;

impl CatalogView for NoTables {
    fn table_schema(&self, _n: &str) -> Option<Schema> {
        None
    }
    fn table_rows(&self, _n: &str) -> Option<u64> {
        None
    }
}

/// UPDATE; returns affected row count.
pub(crate) fn update(
    db: &Arc<Database>,
    core: &mut SessionCore,
    table: &str,
    sets: &[(String, Expr)],
    filter: Option<&Expr>,
) -> Result<u64> {
    let entry = lookup(db, table)?;
    if matches!(entry.kind, TableKind::Heap { .. }) {
        return heap_update_delete(db, &core.cfg, &entry, Some(sets), filter);
    }
    let auto = core.txn.is_none();
    if auto {
        core.txn = Some(OpenTxn::default());
    }
    let result = (|| {
        let txn = core.txn.as_mut().unwrap().txn_for(table, &entry)?;
        let image = txn.image().clone();
        let (rids, values) = matching_rows(db, &core.cfg, &entry, image, filter, Some(sets))?;
        for (rid, row_sets) in rids.iter().zip(values) {
            for (col, val) in row_sets {
                txn.update_at(*rid, col, val)?;
            }
        }
        Ok(rids.len() as u64)
    })();
    if auto {
        let txn = core.txn.take().unwrap();
        if result.is_ok() {
            commit(db, txn)?;
        }
    }
    // Updated rows invalidate the distinct/histogram snapshot: mark it
    // stale so the cost model stops planning against dead numbers until
    // CHECKPOINT rebuilds it.
    if matches!(result, Ok(n) if n > 0) {
        entry.stats.write().mark_stale();
    }
    result
}

/// DELETE; returns affected row count.
pub(crate) fn delete(
    db: &Arc<Database>,
    core: &mut SessionCore,
    table: &str,
    filter: Option<&Expr>,
) -> Result<u64> {
    let entry = lookup(db, table)?;
    if matches!(entry.kind, TableKind::Heap { .. }) {
        return heap_update_delete(db, &core.cfg, &entry, None, filter);
    }
    let auto = core.txn.is_none();
    if auto {
        core.txn = Some(OpenTxn::default());
    }
    let result = (|| {
        let txn = core.txn.as_mut().unwrap().txn_for(table, &entry)?;
        let image = txn.image().clone();
        let (rids, _) = matching_rows(db, &core.cfg, &entry, image, filter, None)?;
        // Descending order keeps earlier positions stable across deletes.
        for &rid in rids.iter().rev() {
            txn.delete_at(rid)?;
        }
        Ok(rids.len() as u64)
    })();
    if auto {
        let txn = core.txn.take().unwrap();
        if result.is_ok() {
            commit(db, txn)?;
        }
    }
    // Deleted rows invalidate the distinct/histogram snapshot (see
    // `update`): stale until the next CHECKPOINT rebuild.
    if matches!(result, Ok(n) if n > 0) {
        entry.stats.write().mark_stale();
    }
    result
}

/// Heap-table UPDATE/DELETE: rewrite the heap (OLTP-side simplification —
/// the paper's transactional machinery is the PDT path).
fn heap_update_delete(
    db: &Arc<Database>,
    config: &EngineConfig,
    entry: &TableEntry,
    sets: Option<&[(String, Expr)]>,
    filter: Option<&Expr>,
) -> Result<u64> {
    let TableKind::Heap { store } = &entry.kind else { unreachable!() };
    let binder_catalog = NoTables;
    let binder = Binder::new(&binder_catalog);
    let pred = filter.map(|f| binder.bind_expr_on_schema(f, &entry.schema)).transpose()?;
    let set_bound = sets
        .map(|sets| {
            sets.iter()
                .map(|(col, e)| {
                    let idx = entry
                        .schema
                        .index_of(col)
                        .ok_or_else(|| VwError::Bind(format!("unknown column '{col}'")))?;
                    Ok((idx, binder.bind_expr_on_schema(e, &entry.schema)?))
                })
                .collect::<Result<Vec<_>>>()
        })
        .transpose()?;

    // Compile once per statement; rows only pay a one-row program run.
    // The session's configured checking/NULL strategy applies here
    // exactly as on the columnar path.
    let ctx = ExprCtx { check: config.check_mode, null_mode: config.null_mode };
    let mut pred_prog = match &pred {
        Some(p) => Some(ScalarProgram::new(p, &entry.schema, &ctx)?),
        None => None,
    };
    let mut set_progs = match &set_bound {
        Some(sets) => {
            let mut out = Vec::with_capacity(sets.len());
            for (idx, e) in sets {
                out.push((*idx, ScalarProgram::new(e, &entry.schema, &ctx)?));
            }
            Some(out)
        }
        None => None,
    };

    let mut st = store.write();
    let mut all: Vec<Vec<Value>> = Vec::with_capacity(st.n_rows() as usize);
    for p in 0..st.n_pages() {
        all.extend(st.read_page(&db.pool, p)?);
    }
    let mut affected = 0u64;
    let mut kept: Vec<Vec<Value>> = Vec::with_capacity(all.len());
    for row in all {
        let matched = match &mut pred_prog {
            Some(p) => p.eval_row(&row)? == Value::Bool(true),
            None => true,
        };
        if !matched {
            kept.push(row);
            continue;
        }
        affected += 1;
        match &mut set_progs {
            Some(sets) => {
                let mut row = row;
                for (idx, prog) in sets.iter_mut() {
                    let v = prog.eval_row(&row)?.cast_to(entry.schema.field(*idx).ty)?;
                    row[*idx] = v;
                }
                kept.push(row);
            }
            None => { /* delete: drop the row */ }
        }
    }
    st.free_all(Some(&db.pool));
    let mut fresh = vw_volcano::RowStore::new(db.disk.clone(), entry.schema.clone());
    fresh.append_rows(&kept)?;
    *st = fresh;
    if affected > 0 {
        // Same staleness contract as the PDT path: the heap rewrite just
        // changed or removed rows the statistics still describe.
        entry.stats.write().mark_stale();
    }
    Ok(affected)
}

/// A bound scalar expression for the heap DML path: rewrite, lowering,
/// and program compilation happen once at construction; each row then
/// pays only a one-row batch build and a pooled program run.
struct ScalarProgram {
    program: ExprProgram,
    pool: VectorPool,
}

impl ScalarProgram {
    fn new(e: &vw_sql::SqlExpr, schema: &Schema, ctx: &ExprCtx) -> Result<ScalarProgram> {
        let nullable = vec![true; schema.len()];
        let rewritten = vw_rewriter::engine::rewrite_fixpoint(
            e.clone(),
            &vw_rewriter::rules::default_rules(),
            &nullable,
        );
        Ok(ScalarProgram {
            program: ExprProgram::compile(&crate::compile::lower_expr(&rewritten)?, ctx),
            pool: VectorPool::new(),
        })
    }

    /// Evaluate against one heap row. Columns are typed per value (NULLs
    /// default to BIGINT), matching the expression evaluation the old
    /// per-row interpreter performed.
    fn eval_row(&mut self, row: &[Value]) -> Result<Value> {
        use vw_exec::vector::Batch;
        let mut columns = Vec::with_capacity(row.len());
        for v in row {
            let ty = v.type_id().unwrap_or(vw_common::TypeId::I64);
            let mut vec = vw_exec::Vector::new(ColData::with_capacity(ty, 1));
            vec.push(v)?;
            columns.push(vec);
        }
        let batch = Batch::new(columns);
        let vr = self.program.run(&mut self.pool, &batch)?;
        let out = self.pool.get(&batch, vr).get(0);
        self.pool.recycle();
        Ok(out)
    }
}

/// Commit an open transaction (all touched tables, in name order, under the
/// global commit lock).
pub fn commit(db: &Arc<Database>, txn: OpenTxn) -> Result<()> {
    let _guard = db.commit_lock.lock();
    let mut names: Vec<String> = txn.tables.keys().cloned().collect();
    names.sort();
    let mut tables = txn.tables;
    for name in names {
        let entry = lookup(db, &name)?;
        let TableKind::Vectorwise { pdt, .. } = &entry.kind else {
            continue;
        };
        let t = tables.remove(&name).expect("keyed");
        pdt.commit(t)?;
    }
    Ok(())
}

/// CHECKPOINT: merge each table's PDT deltas into fresh stable storage and
/// reset the delta layer ("background update propagation", run on demand).
/// Returns the number of rows materialized.
pub fn checkpoint(db: &Arc<Database>, config: &EngineConfig, table: Option<&str>) -> Result<u64> {
    let names: Vec<String> = match table {
        Some(t) => vec![t.to_string()],
        None => db.catalog.read().names(),
    };
    let mut total = 0u64;
    for name in names {
        let entry = lookup(db, &name)?;
        let TableKind::Vectorwise { storage, pdt } = &entry.kind else {
            continue;
        };
        let _guard = db.commit_lock.lock();
        let (root, _, n_rows) = pdt.snapshot();
        // Materialize the merged image column by column.
        let snapshot = {
            let st = storage.read();
            let mut snap = TableStorage::new(st.disk().clone(), st.schema().clone(), st.layout());
            snap.adopt_packs(&st);
            Arc::new(snap)
        };
        let all_cols: Vec<usize> = (0..entry.schema.len()).collect();
        let mut scan = VectorScan::new(
            snapshot,
            db.pool.clone(),
            all_cols,
            items(&root),
            config.vector_size,
            CancelToken::new(),
        );
        let mut columns: Vec<ColData> = entry
            .schema
            .fields
            .iter()
            .map(|f| ColData::with_capacity(f.ty, n_rows as usize))
            .collect();
        let mut nulls: Vec<Option<Vec<bool>>> = vec![None; entry.schema.len()];
        let mut row_count = 0usize;
        while let Some(batch) = scan.next()? {
            let batch = batch.compact();
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
        let mut fresh =
            TableStorage::new(db.disk.clone(), entry.schema.clone(), storage.read().layout());
        fresh.append_columns(&columns, &nulls, config.pack_size)?;
        {
            let mut st = storage.write();
            st.free_all(Some(&db.pool));
            *st = fresh;
        }
        pdt.reset_after_checkpoint(row_count as u64);
        *entry.stats.write() = TableStats::build(&columns, &nulls, 32);
        db.monitor.log(EventLevel::Info, format!("checkpointed {name}: {row_count} rows"));
        total += row_count as u64;
    }
    Ok(total)
}
