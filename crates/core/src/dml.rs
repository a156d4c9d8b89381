//! DML and transaction plumbing: INSERT/UPDATE/DELETE through PDTs,
//! multi-statement transactions, and CHECKPOINT propagation.

use crate::catalog::{TableEntry, TableKind};
use crate::monitor::EventLevel;
use crate::{Database, SessionCore};
use std::collections::HashMap;
use std::sync::Arc;
use vw_common::{ColData, EngineConfig, Result, Schema, Value, VwError};
use vw_exec::op::{Operator, VectorScan};
use vw_exec::program::{ExprProgram, VectorPool};
use vw_exec::CancelToken;
use vw_pdt::store::items;
use vw_pdt::Transaction;
use vw_sql::ast::Expr;
use vw_sql::SqlExpr;
use vw_storage::{TableStats, TableStorage};

/// An open multi-statement transaction: one PDT transaction per touched
/// VECTORWISE table. [`commit`] is atomic across them: every table's
/// commit is checked before any is applied.
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

/// Evaluate literal INSERT rows: each expression binds like any DML
/// expression, over no columns. What folding leaves (a rewritten
/// COALESCE, say) runs once, over a one-row batch whose column it never
/// reads.
pub fn literal_rows(rows: &[Vec<Expr>]) -> Result<Vec<Vec<Value>>> {
    let empty = Schema::default();
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|e| match bind_on_table(e, &empty)? {
                    SqlExpr::Lit(v, _) => Ok(v),
                    other => ScalarProgram::new(&other)?.eval_row(&[Value::I64(0)]),
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

/// Bind a DML expression against the table's own schema and bring it to
/// the form the kernels take (constants folded, extended functions and
/// IN-lists rewritten) — what planning does to a SELECT's expressions.
fn bind_on_table(e: &Expr, schema: &Schema) -> Result<SqlExpr> {
    let folded = vw_sql::optimizer::fold_expr(vw_sql::binder::bind_expr_on_schema(e, schema)?)?;
    if let SqlExpr::Lit(..) = folded {
        // No rule rewrites a literal: most INSERT values stop here.
        return Ok(folded);
    }
    let nullable: Vec<bool> = schema.fields.iter().map(|f| f.nullable).collect();
    Ok(vw_rewriter::engine::rewrite_fixpoint(
        folded,
        &vw_rewriter::rules::default_rules(),
        &nullable,
    ))
}

/// Resolve the target column of each SET clause.
fn set_columns(schema: &Schema, sets: &[(String, Expr)]) -> Result<Vec<usize>> {
    sets.iter()
        .map(|(col, _)| {
            schema.index_of(col).ok_or_else(|| VwError::Bind(format!("unknown column '{col}'")))
        })
        .collect()
}

/// The victim search of UPDATE/DELETE: the RIDs matching `filter` in the
/// image `txn` sees, ascending, and for UPDATE each victim's new values
/// (one per SET clause, cast to the column type, NOT NULL checked).
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
    db: &Arc<Database>,
    config: &EngineConfig,
    cancel: &CancelToken,
    entry: &TableEntry,
    table: &str,
    txn: &OpenTxn,
    filter: Option<&Expr>,
    sets: &[(String, Expr)],
    set_cols: &[usize],
) -> Result<(Vec<u64>, Vec<Vec<Value>>)> {
    let schema = &entry.schema;
    let predicate = filter.map(|f| bind_on_table(f, schema)).transpose()?;
    let set_exprs: Vec<SqlExpr> =
        sets.iter().map(|(_, e)| bind_on_table(e, schema)).collect::<Result<_>>()?;

    // Scan only what the expressions read; address it by scan position.
    let mut projection = Vec::new();
    for e in predicate.iter().chain(&set_exprs) {
        e.collect_cols(&mut projection);
    }
    projection.sort_unstable();
    projection.dedup();
    let onto_scan = |e: &SqlExpr| e.remap_cols(&|c| projection.binary_search(&c).ok());
    let predicate = predicate.as_ref().map(onto_scan).transpose()?;
    let set_exprs: Vec<SqlExpr> = set_exprs.iter().map(onto_scan).collect::<Result<_>>()?;
    let hints: Vec<_> = predicate
        .iter()
        .flat_map(|p| p.clone().conjuncts())
        .filter_map(|c| vw_sql::optimizer::hint_from(&c, &projection))
        .collect();

    let mut op = crate::compile::victim_scan(
        db,
        entry,
        table,
        &projection,
        &hints,
        predicate.as_ref(),
        &set_exprs,
        config,
        cancel,
        Some(txn),
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
/// `table` pinned.
pub(crate) fn update_or_delete(
    db: &Arc<Database>,
    core: &mut SessionCore,
    table: &str,
    sets: Option<&[(String, Expr)]>,
    filter: Option<&Expr>,
    sql: &str,
) -> Result<u64> {
    let entry = lookup(db, table)?;
    if matches!(entry.kind, TableKind::Heap { .. }) {
        return heap_update_delete(db, &entry, sets, filter);
    }
    let (session, timeout_ms) = (core.id, core.cfg.statement_timeout_ms);
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
                db,
                &core.cfg,
                cancel,
                &entry,
                table,
                open,
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

/// Heap-table UPDATE/DELETE: rewrite the heap (OLTP-side simplification —
/// the paper's transactional machinery is the PDT path).
fn heap_update_delete(
    db: &Arc<Database>,
    entry: &TableEntry,
    sets: Option<&[(String, Expr)]>,
    filter: Option<&Expr>,
) -> Result<u64> {
    let TableKind::Heap { store } = &entry.kind else { unreachable!() };
    let pred = filter.map(|f| bind_on_table(f, &entry.schema)).transpose()?;
    let set_bound = sets
        .map(|sets| {
            sets.iter()
                .map(|(col, e)| {
                    let idx = entry
                        .schema
                        .index_of(col)
                        .ok_or_else(|| VwError::Bind(format!("unknown column '{col}'")))?;
                    Ok((idx, bind_on_table(e, &entry.schema)?))
                })
                .collect::<Result<Vec<_>>>()
        })
        .transpose()?;

    // Compile once per statement; rows only pay a one-row program run.
    let mut pred_prog = match &pred {
        Some(p) => Some(ScalarProgram::new(p)?),
        None => None,
    };
    let mut set_progs = match &set_bound {
        Some(sets) => {
            let mut out = Vec::with_capacity(sets.len());
            for (idx, e) in sets {
                out.push((*idx, ScalarProgram::new(e)?));
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
                    let field = entry.schema.field(*idx);
                    let v = prog.eval_row(&row)?.cast_to(field.ty)?;
                    if v.is_null() && !field.nullable {
                        return Err(VwError::Exec(format!(
                            "NULL in NOT NULL column {}",
                            field.name
                        )));
                    }
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

/// A bound, rewritten scalar expression for the heap DML path and INSERT
/// VALUES: lowering and program compilation happen once at construction;
/// each row then pays only a one-row batch build and a pooled program run.
struct ScalarProgram {
    program: ExprProgram,
    pool: VectorPool,
}

impl ScalarProgram {
    fn new(e: &SqlExpr) -> Result<ScalarProgram> {
        Ok(ScalarProgram {
            program: ExprProgram::compile(&crate::compile::lower_expr(e)?),
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

/// Commit an open transaction atomically: under the global commit lock,
/// every touched table's commit is prepared (all checks, in name order —
/// each prepared table stays locked), and only when all passed are they
/// applied, which cannot fail. A conflict on any table leaves every table
/// as it was.
pub fn commit(db: &Arc<Database>, txn: OpenTxn) -> Result<()> {
    let _guard = db.commit_lock.lock();
    let mut tables: Vec<(String, Transaction)> = txn.tables.into_iter().collect();
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
        let snapshot = Arc::new(crate::compile::storage_snapshot(&storage.read()));
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
