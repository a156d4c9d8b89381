//! The cross compiler — "a fully new component in the Ingres architecture":
//! lowers the rewritten algebra onto X100 kernel operators.
//!
//! Expressions lower 1:1 ([`SqlExpr`] → [`PhysExpr`]); any surviving
//! extended function or IN-list means the rewriter did not run — that is a
//! plan error, not a fallback. Plans lower onto `vw-exec` operators.
//!
//! [`LogicalPlan::Exchange`] runs the **pipeline factory**: the same plan
//! fragment is compiled once per worker, but every partitioned scan the
//! factory visits draws from **one shared
//! [`MorselSource`]** (created by the first
//! worker's build, reused by the rest — the visit order is identical since
//! all workers compile the same plan). Plan-time `dop` only sizes the
//! worker pool; *which rows a worker scans* is decided at run time, claim
//! by claim, so skewed fragments rebalance themselves. Each worker
//! pipeline also threads one [`BatchPool`]
//! through its operators, so steady-state operator outputs recycle instead
//! of allocating.

use crate::catalog::TableKind;
use crate::dml::OpenTxn;
use crate::Database;
use parking_lot::Mutex;
use std::sync::Arc;
use vw_common::{EngineConfig, Result, Value, VwError};
use vw_exec::expr::{ExprCtx, PhysExpr};
use vw_exec::morsel::{BatchPool, MorselSource};
use vw_exec::op::{
    AggSpec, BoxedOp, HashAggregate, HashJoin, JoinType, Limit, Project, Select, SetOp, SetOpMode,
    Sort, SortKey, TopN, UnionAll, Values, VectorScan, Xchg,
};
use vw_exec::partition::{MemBudget, SpillConfig};
use vw_exec::program::{ExprProgram, SelectProgram};
use vw_exec::CancelToken;
use vw_pdt::store::items;
use vw_sql::plan::{JoinKind, LogicalPlan, SetOpKind};
use vw_sql::SqlExpr;

/// Lower a bound+rewritten expression to a kernel expression.
pub fn lower_expr(e: &SqlExpr) -> Result<PhysExpr> {
    Ok(match e {
        SqlExpr::Col(i, ty) => PhysExpr::ColRef(*i, *ty),
        SqlExpr::Lit(v, ty) => PhysExpr::Const(v.clone(), *ty),
        SqlExpr::Arith { op, l, r, ty } => PhysExpr::Arith {
            op: *op,
            lhs: Box::new(lower_expr(l)?),
            rhs: Box::new(lower_expr(r)?),
            ty: *ty,
        },
        SqlExpr::Cmp { op, l, r } => {
            PhysExpr::Cmp { op: *op, lhs: Box::new(lower_expr(l)?), rhs: Box::new(lower_expr(r)?) }
        }
        SqlExpr::And(v) => PhysExpr::And(v.iter().map(lower_expr).collect::<Result<_>>()?),
        SqlExpr::Or(v) => PhysExpr::Or(v.iter().map(lower_expr).collect::<Result<_>>()?),
        SqlExpr::Not(x) => PhysExpr::Not(Box::new(lower_expr(x)?)),
        SqlExpr::Cast { input, to } => {
            PhysExpr::Cast { input: Box::new(lower_expr(input)?), to: *to }
        }
        SqlExpr::IsNull(x) => PhysExpr::IsNull(Box::new(lower_expr(x)?)),
        SqlExpr::IsNotNull(x) => PhysExpr::IsNotNull(Box::new(lower_expr(x)?)),
        SqlExpr::Case { branches, else_expr, ty } => PhysExpr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| Ok((lower_expr(c)?, lower_expr(v)?)))
                .collect::<Result<_>>()?,
            else_expr: match else_expr {
                Some(x) => Some(Box::new(lower_expr(x)?)),
                None => None,
            },
            ty: *ty,
        },
        SqlExpr::Func { func, args, ty } => PhysExpr::FuncCall {
            func: *func,
            args: args.iter().map(lower_expr).collect::<Result<_>>()?,
            ty: *ty,
        },
        SqlExpr::Like { input, pattern, negated } => PhysExpr::Like {
            input: Box::new(lower_expr(input)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        SqlExpr::Ext { func, .. } => {
            return Err(VwError::Plan(format!(
                "extended function {} survived the rewriter",
                func.name()
            )))
        }
        SqlExpr::InList { .. } => {
            return Err(VwError::Plan("IN-list survived the rewriter".into()))
        }
    })
}

/// Shared state of one Exchange lowering: the morsel dispensers its
/// partitioned scans share, in scan-visit order. The first worker's build
/// creates each dispenser; the remaining workers attach to it (every
/// worker compiles the same plan, so the visit order is identical).
#[derive(Default)]
struct ExchangeSources {
    sources: Mutex<Vec<Arc<MorselSource>>>,
}

impl ExchangeSources {
    fn get_or_create(
        &self,
        idx: usize,
        make: impl FnOnce() -> Arc<MorselSource>,
    ) -> Arc<MorselSource> {
        let mut v = self.sources.lock();
        if idx < v.len() {
            v[idx].clone()
        } else {
            debug_assert_eq!(idx, v.len(), "scan visit order diverged across workers");
            let s = make();
            v.push(s.clone());
            s
        }
    }

    fn into_sources(self) -> Vec<Arc<MorselSource>> {
        self.sources.into_inner()
    }
}

/// One worker's view while the pipeline factory compiles its clone of an
/// Exchange fragment. Cleared (passed as `None`) for join build sides,
/// which must see the whole input on every worker.
struct Partition<'a> {
    worker: usize,
    dop: usize,
    shared: &'a ExchangeSources,
    /// Scan-visit sequence number within this worker's build.
    seq: usize,
}

/// The query-wide memory governor, created once per plan when
/// `EngineConfig::mem_budget_bytes` is non-zero. Every hash join build
/// side and every aggregation in the plan — Exchange worker clones
/// included — charges the same budget; whichever operator pushes the
/// total over the line spills its own largest partition (see
/// `vw_exec::partition`). With no budget configured this is `None` and
/// the builds run ungoverned: nothing is charged, nothing can be evicted.
struct QuerySpill {
    budget: Arc<MemBudget>,
    partitions: usize,
}

impl QuerySpill {
    /// A fresh per-operator spill config (own traffic counters, shared
    /// budget and device).
    fn config(&self, db: &Database) -> SpillConfig {
        SpillConfig::new(self.budget.clone(), db.disk.clone(), self.partitions)
    }
}

/// Build the executable operator tree for `plan`.
///
/// `txn` supplies private PDT images for tables touched by an open
/// transaction. [`LogicalPlan::Exchange`] nodes spawn their own worker
/// pipelines internally (see the module docs).
pub fn build_plan(
    db: &Arc<Database>,
    plan: &LogicalPlan,
    config: &EngineConfig,
    cancel: &CancelToken,
    txn: Option<&OpenTxn>,
) -> Result<BoxedOp> {
    let spill = (config.mem_budget_bytes > 0).then(|| QuerySpill {
        budget: MemBudget::new(config.mem_budget_bytes),
        // Grace fan-out: at least 8 partitions so eviction stays
        // fine-grained even at DOP 1 (recursion needs ≥ 2 to split).
        partitions: config.build_partitions().max(8),
    });
    build_plan_inner(db, plan, config, cancel, txn, None, false, &BatchPool::new(), spill.as_ref())
}

/// `in_exchange` tracks whether this subtree runs inside an Exchange
/// worker — distinct from `partition`, which is cleared for join build
/// sides (they must see the whole input) while the subtree is still one
/// of `dop` concurrent copies. Operator-level parallel builds gate on it:
/// inside an exchange they would oversubscribe (dop × P threads).
/// `batch_pool` is this worker pipeline's shared output-batch free-list.
/// `spill` is the query-wide memory governor (None = unlimited memory,
/// no spill machinery constructed).
#[allow(clippy::too_many_arguments)]
fn build_plan_inner(
    db: &Arc<Database>,
    plan: &LogicalPlan,
    config: &EngineConfig,
    cancel: &CancelToken,
    txn: Option<&OpenTxn>,
    partition: Option<&mut Partition<'_>>,
    in_exchange: bool,
    batch_pool: &BatchPool,
    spill: Option<&QuerySpill>,
) -> Result<BoxedOp> {
    let mut op =
        build_plan_node(db, plan, config, cancel, txn, partition, in_exchange, batch_pool, spill)?;
    // Stamp the cost model's row estimate onto the operator's profile so
    // EXPLAIN ANALYZE-style renderings can show estimated vs. actual
    // rows. Rule-only planning (SET optimizer = 0) leaves it unset.
    if config.optimizer {
        if let Some(prof) = op.profile_mut() {
            let cat = crate::CatalogSnapshot { db };
            let est = vw_sql::optimizer::Estimator::new(&cat);
            prof.est_rows = Some(est.rows(plan).round() as u64);
        }
    }
    Ok(op)
}

#[allow(clippy::too_many_arguments)]
fn build_plan_node(
    db: &Arc<Database>,
    plan: &LogicalPlan,
    config: &EngineConfig,
    cancel: &CancelToken,
    txn: Option<&OpenTxn>,
    partition: Option<&mut Partition<'_>>,
    in_exchange: bool,
    batch_pool: &BatchPool,
    spill: Option<&QuerySpill>,
) -> Result<BoxedOp> {
    let ctx = ExprCtx { check: config.check_mode, null_mode: config.null_mode };
    let vs = config.vector_size;
    Ok(match plan {
        LogicalPlan::Scan { table, projection, schema, hints } => {
            let cat = db.catalog.read();
            let entry = cat
                .get(table)
                .ok_or_else(|| VwError::Catalog(format!("unknown table '{table}'")))?;
            match &entry.kind {
                TableKind::Vectorwise { storage, pdt } => {
                    let storage = storage.read();
                    // The visible image: open-transaction private image, or
                    // the committed snapshot.
                    let image_items = match txn.and_then(|t| t.image_of(table)) {
                        Some(root) => items(&root),
                        None => {
                            let (root, _, _) = pdt.snapshot();
                            items(&root)
                        }
                    };
                    // MinMax pruning only applies when the whole image is
                    // one untouched stable run (hints address stable packs).
                    let image_items = if !hints.is_empty()
                        && image_items.len() == 1
                        && matches!(image_items[0], vw_pdt::MergeItem::Stable { sid: 0, .. })
                    {
                        let mut ranges = storage.all_ranges();
                        for h in hints {
                            let keep = storage.prune(h.col, h.lo.as_ref(), h.hi.as_ref());
                            let keep_set: std::collections::HashSet<usize> =
                                keep.iter().map(|r| r.pack).collect();
                            ranges.retain(|r| keep_set.contains(&r.pack));
                        }
                        VectorScan::items_from_ranges(&ranges)
                    } else {
                        image_items
                    };
                    // Run-time work claims instead of plan-time ranges: a
                    // partitioned scan attaches to the Exchange's shared
                    // dispenser (created on first visit); a serial scan
                    // owns a private single-consumer one. Either way the
                    // scan pulls `morsel_rows`-sized claims until dry.
                    let (source, consumer) = match partition {
                        Some(p) => {
                            let idx = p.seq;
                            p.seq += 1;
                            let dop = p.dop;
                            let src = p.shared.get_or_create(idx, || {
                                MorselSource::new(image_items, config.morsel_rows, dop)
                            });
                            (src, p.worker)
                        }
                        None => (MorselSource::new(image_items, config.morsel_rows, 1), 0),
                    };
                    // Snapshot the storage handle for the operator.
                    drop(storage);
                    let storage_arc = match &entry.kind {
                        TableKind::Vectorwise { storage, .. } => storage.clone(),
                        _ => unreachable!(),
                    };
                    // The scan holds a read-only clone of the storage. The
                    // stable files are immutable between checkpoints, so a
                    // cheap Arc over a cloned TableStorage view would be
                    // ideal; TableStorage is not Clone (block ids are), so
                    // we wrap the lock read in an adapter via Arc::new on a
                    // snapshot of pack metadata. For simplicity the scan
                    // takes an Arc built from the locked value's metadata.
                    let snapshot = Arc::new(storage_snapshot(&storage_arc.read()));
                    Box::new(
                        VectorScan::with_source(
                            snapshot,
                            db.pool.clone(),
                            projection.clone(),
                            source,
                            consumer,
                            vs,
                            cancel.clone(),
                        )
                        .with_batch_pool(batch_pool.clone())
                        .with_compressed_exec(config.compressed_exec),
                    )
                }
                TableKind::Heap { store } => {
                    // Classic-side table: materialize pages into rows (the
                    // adapter path; the dedicated Volcano engine is used for
                    // baseline benchmarks, not SQL execution).
                    let store = store.read();
                    let mut rows = Vec::with_capacity(store.n_rows() as usize);
                    for p in 0..store.n_pages() {
                        for row in store.read_page(&db.pool, p)? {
                            rows.push(
                                projection.iter().map(|&c| row[c].clone()).collect::<Vec<Value>>(),
                            );
                        }
                    }
                    let rows = match partition {
                        // Heap rows have no morsel dispenser; a static
                        // modulo split keeps the workers disjoint (heap
                        // tables are the legacy baseline path).
                        Some(p) => rows
                            .into_iter()
                            .enumerate()
                            .filter(|(idx, _)| idx % p.dop == p.worker)
                            .map(|(_, r)| r)
                            .collect(),
                        None => rows,
                    };
                    Box::new(Values::new(schema.clone(), rows, vs, cancel.clone()))
                }
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let child = build_plan_inner(
                db,
                input,
                config,
                cancel,
                txn,
                partition,
                in_exchange,
                batch_pool,
                spill,
            )?;
            // Compile once per query: the operator only ever runs programs.
            let program = SelectProgram::compile(&lower_expr(predicate)?, &ctx);
            Box::new(
                Select::new(child, program, cancel.clone()).with_batch_pool(batch_pool.clone()),
            )
        }
        LogicalPlan::Project { input, exprs, schema } => {
            let child = build_plan_inner(
                db,
                input,
                config,
                cancel,
                txn,
                partition,
                in_exchange,
                batch_pool,
                spill,
            )?;
            let programs = exprs
                .iter()
                .map(|e| Ok(ExprProgram::compile(&lower_expr(e)?, &ctx)))
                .collect::<Result<_>>()?;
            Box::new(
                Project::new(child, programs, schema.clone(), cancel.clone())
                    .with_batch_pool(batch_pool.clone()),
            )
        }
        LogicalPlan::Join { left, right, kind, keys, schema } => {
            // Build side must see the whole input even under partitioning;
            // only the probe side partitions.
            let l = build_plan_inner(
                db,
                left,
                config,
                cancel,
                txn,
                partition,
                in_exchange,
                batch_pool,
                spill,
            )?;
            let r = build_plan_inner(
                db,
                right,
                config,
                cancel,
                txn,
                None,
                in_exchange,
                batch_pool,
                spill,
            )?;
            let lk = keys
                .iter()
                .map(|(a, _)| Ok(ExprProgram::compile(&lower_expr(a)?, &ctx)))
                .collect::<Result<_>>()?;
            let rk = keys
                .iter()
                .map(|(_, b)| Ok(ExprProgram::compile(&lower_expr(b)?, &ctx)))
                .collect::<Result<_>>()?;
            let jt = match kind {
                JoinKind::Inner => JoinType::Inner,
                JoinKind::Left => JoinType::LeftOuter,
                JoinKind::Semi => JoinType::LeftSemi,
                JoinKind::Anti => JoinType::LeftAnti,
                JoinKind::NullAwareAnti => JoinType::NullAwareLeftAnti,
            };
            let mut join = HashJoin::new(l, r, lk, rk, jt, schema.clone(), cancel.clone());
            // One build state machine, two settings: a memory-governed
            // query gets evictable partitions (driven by this thread; Xchg
            // parallelism still applies above it). Otherwise the build
            // fans out on the worker pool — but never inside an Exchange
            // worker (even on a build side whose scan `partition` was
            // cleared), where the plan-level DOP already owns the cores.
            if let Some(qs) = spill {
                join = join.with_spill(qs.config(db));
            } else if config.parallelism > 1 && !in_exchange {
                join = join.with_parallel_build(
                    db.workers.clone(),
                    config.build_partitions(),
                    config.partition_min_rows,
                );
            }
            Box::new(join.with_batch_pool(batch_pool.clone()))
        }
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            let child = build_plan_inner(
                db,
                input,
                config,
                cancel,
                txn,
                partition,
                in_exchange,
                batch_pool,
                spill,
            )?;
            let g = group
                .iter()
                .map(|e| Ok(ExprProgram::compile(&lower_expr(e)?, &ctx)))
                .collect::<Result<_>>()?;
            let specs = aggs
                .iter()
                .map(|a| {
                    Ok(AggSpec {
                        func: a.func,
                        input: match &a.input {
                            Some(e) => Some(ExprProgram::compile(&lower_expr(e)?, &ctx)),
                            None => None,
                        },
                        out_ty: a.out_ty,
                    })
                })
                .collect::<Result<_>>()?;
            let mut agg = HashAggregate::new(child, g, specs, schema.clone(), vs, cancel.clone())?;
            if let Some(qs) = spill {
                agg = agg.with_spill(qs.config(db));
            } else if config.parallelism > 1 && !in_exchange {
                agg = agg.with_parallel_build(
                    db.workers.clone(),
                    config.build_partitions(),
                    config.partition_min_rows,
                );
            }
            Box::new(agg.with_batch_pool(batch_pool.clone()))
        }
        LogicalPlan::Sort { input, keys } => {
            let child = build_plan_inner(
                db,
                input,
                config,
                cancel,
                txn,
                partition,
                in_exchange,
                batch_pool,
                spill,
            )?;
            // Sort directly under a Limit becomes TopN in `Limit` lowering;
            // standalone Sort materializes.
            let sort_keys: Vec<SortKey> = keys
                .iter()
                .map(|&(col, asc, nulls_first)| SortKey { col, asc, nulls_first })
                .collect();
            Box::new(Sort::new(child, sort_keys, vs, cancel.clone()))
        }
        LogicalPlan::Limit { input, offset, limit } => {
            // Fuse Sort+Limit into TopN when offset is zero.
            if let LogicalPlan::Sort { input: sort_input, keys } = input.as_ref() {
                if *offset == 0 && *limit != u64::MAX {
                    let child = build_plan_inner(
                        db,
                        sort_input,
                        config,
                        cancel,
                        txn,
                        partition,
                        in_exchange,
                        batch_pool,
                        spill,
                    )?;
                    let sort_keys: Vec<SortKey> = keys
                        .iter()
                        .map(|&(col, asc, nulls_first)| SortKey { col, asc, nulls_first })
                        .collect();
                    return Ok(Box::new(TopN::new(
                        child,
                        sort_keys,
                        *limit as usize,
                        vs,
                        cancel.clone(),
                    )));
                }
            }
            let child = build_plan_inner(
                db,
                input,
                config,
                cancel,
                txn,
                partition,
                in_exchange,
                batch_pool,
                spill,
            )?;
            let lim = if *limit == u64::MAX { usize::MAX } else { *limit as usize };
            Box::new(Limit::new(child, *offset as usize, lim, cancel.clone()))
        }
        LogicalPlan::Values { schema, rows } => {
            Box::new(Values::new(schema.clone(), rows.clone(), vs, cancel.clone()))
        }
        LogicalPlan::SetOp { op, inputs, .. } => {
            // Inputs compile unpartitioned (like join build sides): the
            // dedup state is per-operator, so partitioned inputs would
            // let workers double-count rows.
            let mut compiled: Vec<BoxedOp> = Vec::with_capacity(inputs.len());
            for child in inputs {
                compiled.push(build_plan_inner(
                    db,
                    child,
                    config,
                    cancel,
                    txn,
                    None,
                    in_exchange,
                    batch_pool,
                    spill,
                )?);
            }
            match op {
                SetOpKind::UnionAll => Box::new(UnionAll::new(compiled, cancel.clone())),
                SetOpKind::Union => {
                    let input = if compiled.len() == 1 {
                        compiled.pop().unwrap()
                    } else {
                        Box::new(UnionAll::new(compiled, cancel.clone())) as BoxedOp
                    };
                    Box::new(SetOp::new(SetOpMode::Union, input, None, cancel.clone()))
                }
                SetOpKind::Intersect | SetOpKind::Except => {
                    if compiled.len() != 2 {
                        return Err(VwError::Plan(format!(
                            "{op:?} expects exactly 2 inputs, got {}",
                            compiled.len()
                        )));
                    }
                    let right = compiled.pop().unwrap();
                    let left = compiled.pop().unwrap();
                    let mode = if *op == SetOpKind::Intersect {
                        SetOpMode::Intersect
                    } else {
                        SetOpMode::Except
                    };
                    Box::new(SetOp::new(mode, left, Some(right), cancel.clone()))
                }
            }
        }
        LogicalPlan::Apply { kind, .. } => {
            return Err(VwError::Plan(format!(
                "Apply {kind:?} survived decorrelation (optimizer did not run?)"
            )))
        }
        LogicalPlan::Exchange { input, dop } => {
            if in_exchange {
                return Err(VwError::Plan("nested Exchange".into()));
            }
            // The pipeline factory: compile `dop` clones of the fragment.
            // Partitioned scans share dispensers through `shared`; each
            // worker gets a private batch free-list (batches cross the
            // exchange channel and never come back, so sharing one across
            // threads would only add contention).
            let shared = ExchangeSources::default();
            let mut parts: Vec<BoxedOp> = Vec::with_capacity(*dop);
            for worker in 0..*dop {
                let worker_pool = BatchPool::new();
                let mut part = Partition { worker, dop: *dop, shared: &shared, seq: 0 };
                parts.push(build_plan_inner(
                    db,
                    input,
                    config,
                    cancel,
                    txn,
                    Some(&mut part),
                    true,
                    &worker_pool,
                    spill,
                )?);
            }
            // Fragments run as cooperative tasks on the engine's shared
            // worker pool: plan-time `dop` sizes the fragment count, the
            // pool bounds actual threads, and interleaved scheduling keeps
            // concurrent queries from starving each other.
            Box::new(
                Xchg::spawn_on(&db.workers, parts, cancel.clone())
                    .with_sources(shared.into_sources()),
            )
        }
    })
}

/// Snapshot a `TableStorage` into an owned value the scan can hold across
/// the lock (pack metadata is copied; block payloads stay on the shared
/// disk). Stable storage only changes at CHECKPOINT, which swaps the whole
/// object, so a metadata copy is a consistent snapshot.
fn storage_snapshot(src: &vw_storage::TableStorage) -> vw_storage::TableStorage {
    let mut snap =
        vw_storage::TableStorage::new(src.disk().clone(), src.schema().clone(), src.layout());
    snap.adopt_packs(src);
    snap
}
