//! The cross compiler — "a fully new component in the Ingres architecture":
//! lowers the rewritten algebra onto X100 kernel operators.
//!
//! Plan expressions are already the kernel's `PhysExpr`: each compiles to
//! a program as it is; plans lower onto `vw-exec` operators.
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
//!
//! A join inside the fragment is two pipelines. Its probe side stays on
//! the fragment's spine; its build side becomes a pipeline of its own that
//! ends in a sink of **one shared [`SharedBuild`]** per join, registered
//! the way the dispensers are: the first worker creates it, the rest
//! attach. A build child the rewriter would call partitionable is compiled
//! per worker with the fragment's partition — its scans share dispensers
//! like any other — and the `dop` sinks each stage their share; any other
//! build child (a GROUP BY subquery, a DISTINCT) is compiled once, for the
//! first worker's sink. The sinks run as tasks of the `Xchg`, which steps
//! a pipeline only once the builds it probes are published; every
//! fragment then probes the same immutable build.

use crate::catalog::{TableEntry, TableKind};
use crate::dml::OpenTxn;
use crate::Database;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;
use vw_common::{EngineConfig, Field, Result, Schema, TypeId, Value, VwError};
use vw_exec::expr::PhysExpr;
use vw_exec::morsel::{BatchPool, MorselSource};
use vw_exec::op::{
    AggSpec, BoxedOp, BuildSink, HashAggregate, HashJoin, JoinFilter, JoinType, Limit, Project,
    Select, SharedBuild, Sort, SortKey, TopN, UnionAll, Values, VectorScan, Xchg,
};
use vw_exec::partition::{MemBudget, SpillConfig};
use vw_exec::profile::{NodeProfile, Profiled};
use vw_exec::program::{ExprProgram, SelectProgram};
use vw_exec::CancelToken;
use vw_pdt::treap::Link;
use vw_sql::optimizer::{Estimator, PlanEstimates};
use vw_sql::plan::{JoinKind, LogicalPlan, ScanHint};
use vw_storage::TableStorage;
use vw_volcano::RowStore;

/// Shared state of one Exchange lowering: the morsel dispensers its
/// partitioned scans share, in scan-visit order, and the hash builds its
/// joins share, in join-visit order. The first worker's compile creates each; the
/// remaining workers attach to it (every worker compiles the same plan, so
/// the visit order is identical). `sinks` collects every worker's sink of
/// every build, for the `Xchg` to run.
#[derive(Default)]
struct ExchangeShared {
    sources: Mutex<Vec<Arc<MorselSource>>>,
    builds: Mutex<Vec<Arc<SharedBuild>>>,
    sinks: Mutex<Vec<BuildSink>>,
}

/// Entry `idx` of a visit-order registry, made by the first visitor.
fn get_or_create<T: Clone>(registry: &Mutex<Vec<T>>, idx: usize, make: impl FnOnce() -> T) -> T {
    let mut v = registry.lock();
    if idx == v.len() {
        v.push(make());
    }
    debug_assert!(idx < v.len(), "visit order diverged across workers");
    v[idx].clone()
}

/// One worker's view while the pipeline factory compiles its clone of an
/// Exchange fragment — the fragment's spine and, with the same partition,
/// the build sides of its joins. `None` below anything that must see its
/// whole input in one place (a build child that cannot be partitioned).
struct Partition<'a> {
    worker: usize,
    dop: usize,
    shared: &'a ExchangeShared,
    /// Scan- and join-visit sequence numbers within this worker's compile.
    scans: usize,
    joins: usize,
    /// The shared builds probed by the pipeline being compiled: what its
    /// task must see published before it is stepped.
    deps: Vec<Arc<SharedBuild>>,
}

/// What is fixed for a whole query while its plan compiles, Exchange
/// worker clones included.
struct QueryWide<'p> {
    /// The memory governor (`None` = no budget: builds run ungoverned).
    spill: Option<QuerySpill>,
    /// The cost model's row estimate of every plan node, from one
    /// bottom-up pass over the view the statement planned against.
    estimates: PlanEstimates<'p>,
    /// `EXPLAIN ANALYZE`'s slots (`None` for every other statement).
    analyze: Option<&'p Analyze<'p>>,
    /// Where the runtime join filters go.
    filters: JoinFilters,
}

/// The identity of a plan node: its address (the plan is borrowed while
/// the compile runs).
fn node_id(node: &LogicalPlan) -> usize {
    node as *const LogicalPlan as usize
}

/// Where the runtime join filters go, by plan-node identity (as
/// [`Analyze`] keys its slots): the filter each inner or semi join's build
/// publishes, and the filters each scan applies, with the scan's output
/// columns holding their joins' probe keys. Placement reads the plan
/// alone; whether a build publishes is the join's business at run time.
/// Lists, not maps: a plan holds a handful of filters, and most plans none.
#[derive(Default)]
struct JoinFilters {
    joins: Vec<(usize, Arc<JoinFilter>)>,
    scans: Vec<(usize, ScanFilter)>,
}

/// A filter a scan applies, with its output columns holding the keys.
type ScanFilter = (Arc<JoinFilter>, Vec<usize>);

impl JoinFilters {
    /// A filter for every inner or semi join of `plan` whose probe keys
    /// are bare columns, each of its build key's type, that one scan below
    /// produces unchanged ([`key_source`]) — a scan `estimates` expects to
    /// read more than one `vector` of rows: a smaller one costs whatever
    /// reads it one batch either way, and the filter's fixed cost (its
    /// selections, the batch it gathers into) would be all it added.
    fn place(plan: &LogicalPlan, estimates: &PlanEstimates<'_>, vector: usize) -> JoinFilters {
        let mut filters = JoinFilters::default();
        filters.walk(plan, &|scan| estimates.rows(scan).is_some_and(|r| r > vector as f64));
        filters
    }

    fn walk(&mut self, node: &LogicalPlan, worth: &dyn Fn(&LogicalPlan) -> bool) {
        if let LogicalPlan::Join { left, kind: JoinKind::Inner | JoinKind::Semi, keys, .. } = node {
            let mut scan: Option<&LogicalPlan> = None;
            let mut cols = Vec::new();
            let traced = keys.iter().all(|(probe, build)| {
                let PhysExpr::ColRef(c, ty) = probe else { return false };
                match key_source(left, *c) {
                    Some((s, col))
                        if *ty == build.type_id() && scan.is_none_or(|t| std::ptr::eq(t, s)) =>
                    {
                        scan = Some(s);
                        cols.push(col);
                        true
                    }
                    _ => false,
                }
            });
            if let (true, Some(scan)) = (traced, scan.filter(|&s| worth(s))) {
                let filter = Arc::new(JoinFilter::default());
                self.joins.push((node_id(node), filter.clone()));
                self.scans.push((node_id(scan), (filter, cols)));
            }
        }
        node.children().into_iter().for_each(|c| self.walk(c, worth));
    }

    /// The filter the join lowered from `node` publishes.
    fn of_join(&self, node: &LogicalPlan) -> Option<Arc<JoinFilter>> {
        self.joins.iter().find(|(id, _)| *id == node_id(node)).map(|(_, f)| f.clone())
    }

    /// The filters the scan lowered from `node` applies.
    fn of_scan(&self, node: &LogicalPlan) -> Vec<ScanFilter> {
        self.scans.iter().filter(|(id, _)| *id == node_id(node)).map(|(_, f)| f.clone()).collect()
    }
}

/// The scan below `plan` that produces `plan`'s output column `col`
/// unchanged, and the column's place in that scan's output — followed
/// only where every row the column's join would discard can go early:
/// through filters, exchanges, pass-through projections, either side of
/// an inner join, the preserved side of a LEFT, semi, anti or NULL-aware
/// anti join, and an aggregate's bare-column group keys. Not through a
/// LIMIT (it would take other rows), a sort, a union or a computed column.
fn key_source(plan: &LogicalPlan, col: usize) -> Option<(&LogicalPlan, usize)> {
    match plan {
        LogicalPlan::Scan { .. } => Some((plan, col)),
        LogicalPlan::Filter { input, .. } | LogicalPlan::Exchange { input, .. } => {
            key_source(input, col)
        }
        LogicalPlan::Project { input, exprs, .. } => match exprs.get(col)? {
            PhysExpr::ColRef(c, _) => key_source(input, *c),
            _ => None,
        },
        LogicalPlan::Join { left, right, kind, .. } => match left.schema().len() {
            lw if col < lw => key_source(left, col),
            lw if *kind == JoinKind::Inner => key_source(right, col - lw),
            _ => None,
        },
        LogicalPlan::Aggregate { input, group, .. } => match group.get(col)? {
            PhysExpr::ColRef(c, _) => key_source(input, *c),
            _ => None,
        },
        _ => None,
    }
}

/// `EXPLAIN ANALYZE`'s half of a compile: one [`NodeProfile`] per node of
/// a plan, by node address (the plan is borrowed while they are in use,
/// as [`PlanEstimates`] does). Every operator lowered from a node is
/// wrapped in a [`Profiled`] that reports into the node's slot when it
/// drops, so once the plan's operators are gone every slot is complete.
pub(crate) struct Analyze<'p> {
    nodes: HashMap<usize, Arc<NodeProfile>>,
    _plan: PhantomData<&'p LogicalPlan>,
}

impl<'p> Analyze<'p> {
    /// An empty slot for every node of `plan`.
    pub(crate) fn new(plan: &'p LogicalPlan) -> Analyze<'p> {
        fn walk(node: &LogicalPlan, nodes: &mut HashMap<usize, Arc<NodeProfile>>) {
            nodes.insert(node_id(node), Arc::default());
            node.children().into_iter().for_each(|c| walk(c, nodes));
        }
        let mut nodes = HashMap::new();
        walk(plan, &mut nodes);
        Analyze { nodes, _plan: PhantomData }
    }

    /// The slot of `node`, a node of the plan.
    pub(crate) fn node(&self, node: &LogicalPlan) -> &Arc<NodeProfile> {
        &self.nodes[&node_id(node)]
    }
}

/// The query-wide memory governor, created once per plan when
/// `EngineConfig::mem_budget_bytes` is non-zero. Every hash join build
/// and every aggregation in the plan is built as without it and charges
/// the same budget what it holds resident — a join inside an Exchange
/// once, through the build its worker clones share, an aggregation there
/// once per clone; a build staging rows when the total crosses the line
/// overflows to disk as a whole through routed spills of `partitions`
/// ways (see `vw_exec::partition`). With no budget configured this is
/// `None`: nothing is charged, nothing can overflow.
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

/// Build the executable operator tree for `plan`, reading every table as
/// `txn` sees it: the image it took, and its own PDT root for a table it
/// wrote. `None` reads the database's current image. The operators pin
/// what they read, so they run on after `txn` and the image are gone.
/// [`LogicalPlan::Exchange`] nodes spawn their own worker pipelines
/// internally (see the module docs).
pub fn build_plan(
    db: &Arc<Database>,
    plan: &LogicalPlan,
    config: &EngineConfig,
    cancel: &CancelToken,
    txn: Option<&OpenTxn>,
) -> Result<BoxedOp> {
    match txn {
        Some(txn) => build_plan_with(db, plan, config, cancel, txn, None),
        None => build_plan_with(db, plan, config, cancel, &OpenTxn::begin(db), None),
    }
}

/// [`build_plan`], with every operator wrapped to report into `analyze`
/// when one is given (`EXPLAIN ANALYZE`).
pub(crate) fn build_plan_with<'p>(
    db: &Arc<Database>,
    plan: &'p LogicalPlan,
    config: &EngineConfig,
    cancel: &CancelToken,
    txn: &OpenTxn,
    analyze: Option<&'p Analyze<'p>>,
) -> Result<BoxedOp> {
    let spill = (config.mem_budget_bytes > 0).then(|| QuerySpill {
        budget: MemBudget::new(config.mem_budget_bytes),
        // Grace fan-out: at least 8 partitions so a spilled partition is
        // a fraction of the build even at DOP 1 (recursion needs ≥ 2 to
        // split).
        partitions: config.build_partitions().max(8),
    });
    let view = crate::CatalogSnapshot::new(txn.image.clone(), config);
    let estimates = Estimator::new(&view).estimate_all(plan);
    let filters = JoinFilters::place(plan, &estimates, config.vector_size);
    let query = QueryWide { spill, estimates, analyze, filters };
    build_plan_inner(db, plan, config, cancel, txn, None, false, &BatchPool::new(), &query)
}

/// `in_exchange` tracks whether this subtree runs inside an Exchange —
/// distinct from `partition`, which is `None` below a build child compiled
/// once for all workers. A nested Exchange is refused on it.
/// `batch_pool` is this worker pipeline's shared output-batch free-list.
/// `query` holds what the whole query shares: the memory governor, the
/// plan's row estimates and, under `EXPLAIN ANALYZE`, its nodes' slots.
#[allow(clippy::too_many_arguments)]
fn build_plan_inner<'p>(
    db: &Arc<Database>,
    plan: &'p LogicalPlan,
    config: &EngineConfig,
    cancel: &CancelToken,
    txn: &OpenTxn,
    partition: Option<&mut Partition<'_>>,
    in_exchange: bool,
    batch_pool: &BatchPool,
    query: &QueryWide<'p>,
) -> Result<BoxedOp> {
    let op =
        build_plan_node(db, plan, config, cancel, txn, partition, in_exchange, batch_pool, query)?;
    Ok(match query.analyze {
        Some(a) => Profiled::wrap(op, a.node(plan).clone()),
        None => op,
    })
}

#[allow(clippy::too_many_arguments)]
fn build_plan_node<'p>(
    db: &Arc<Database>,
    plan: &'p LogicalPlan,
    config: &EngineConfig,
    cancel: &CancelToken,
    txn: &OpenTxn,
    mut partition: Option<&mut Partition<'_>>,
    in_exchange: bool,
    batch_pool: &BatchPool,
    query: &QueryWide<'p>,
) -> Result<BoxedOp> {
    let vs = config.vector_size;
    Ok(match plan {
        LogicalPlan::Scan { table, projection, schema, hints } => {
            let entry = txn.entry(table)?;
            match &entry.kind {
                TableKind::Vectorwise { storage, root, .. } => {
                    let image = (storage, txn.own_root(table).unwrap_or(root));
                    let scan =
                        lower_scan(image, projection, hints, config, cancel, partition, batch_pool);
                    Box::new(scan.with_filters(query.filters.of_scan(plan)))
                }
                TableKind::Heap { store } => Box::new(heap_scan(
                    &store.read(),
                    schema.clone(),
                    projection,
                    false,
                    partition.map(|p| (p.worker, p.dop)),
                    vs,
                    cancel,
                )?),
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
                query,
            )?;
            // Compile once per query: the operator only ever runs programs.
            let program = SelectProgram::compile(predicate);
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
                query,
            )?;
            let programs = exprs.iter().map(ExprProgram::compile).collect();
            Box::new(
                Project::new(child, programs, schema.clone(), cancel.clone())
                    .with_batch_pool(batch_pool.clone()),
            )
        }
        LogicalPlan::Join { left, right, kind, keys, schema } => {
            let lk = keys.iter().map(|(a, _)| ExprProgram::compile(a)).collect();
            let rk = keys.iter().map(|(_, b)| ExprProgram::compile(b)).collect();
            let jt = match kind {
                JoinKind::Inner => JoinType::Inner,
                JoinKind::Left => JoinType::LeftOuter,
                JoinKind::Semi => JoinType::LeftSemi,
                JoinKind::Anti => JoinType::LeftAnti,
                JoinKind::NullAwareAnti => JoinType::NullAwareLeftAnti,
            };
            let build_rows = query.estimates.rows(right).map_or(0, |r| r as usize);
            let filter = query.filters.of_join(plan);
            let side = |plan: &'p LogicalPlan, partition: Option<&mut Partition<'_>>| {
                build_plan_inner(
                    db,
                    plan,
                    config,
                    cancel,
                    txn,
                    partition,
                    in_exchange,
                    batch_pool,
                    query,
                )
            };
            let Some(p) = partition else {
                // A join that builds for itself: one inline sink into one
                // table, charged to the query's memory budget if it has
                // one.
                let (l, r) = (side(left, None)?, side(right, None)?);
                let mut join = HashJoin::new(l, r, lk, rk, jt, schema.clone(), cancel.clone())
                    .expecting_build_rows(build_rows);
                if let Some(qs) = &query.spill {
                    join = join.with_spill(qs.config(db));
                }
                if let Some(filter) = filter {
                    join = join.with_filter(filter);
                }
                return Ok(Box::new(join.with_batch_pool(batch_pool.clone())));
            };
            let l = side(left, Some(&mut *p))?;
            // Inside an Exchange the build side is a pipeline of its own,
            // ending in this worker's sink of the one build all workers
            // share. What that pipeline probes is its sink's business; the
            // pipeline we are on probes the build itself.
            let probed = std::mem::take(&mut p.deps);
            let input = if vw_rewriter::parallel::is_partitionable(right) {
                Some(side(right, Some(&mut *p))?)
            } else if p.worker == 0 {
                Some(side(right, None)?)
            } else {
                None
            };
            let sink_deps = std::mem::replace(&mut p.deps, probed);
            let idx = p.joins;
            p.joins += 1;
            let shared = get_or_create(&p.shared.builds, idx, || {
                let mut build =
                    SharedBuild::new(rk, right.schema().clone(), jt, p.dop, cancel.clone())
                        .expecting(build_rows);
                if let Some(filter) = filter {
                    build = build.filtering(filter);
                }
                Arc::new(match &query.spill {
                    Some(qs) => build.governed(qs.config(db)),
                    None => build,
                })
            });
            p.shared.sinks.lock().push(shared.sink(input, sink_deps, Some(batch_pool.clone())));
            p.deps.push(shared.clone());
            let join = HashJoin::probing(l, shared, lk, schema.clone(), cancel.clone());
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
                query,
            )?;
            let g = group.iter().map(ExprProgram::compile).collect();
            let specs = aggs
                .iter()
                .map(|a| AggSpec {
                    func: a.func,
                    input: a.input.as_ref().map(ExprProgram::compile),
                    out_ty: a.out_ty,
                })
                .collect();
            let mut agg = HashAggregate::new(child, g, specs, schema.clone(), vs, cancel.clone())?;
            if let Some(qs) = &query.spill {
                agg = agg.with_spill(qs.config(db));
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
                query,
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
                        query,
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
                query,
            )?;
            let lim = if *limit == u64::MAX { usize::MAX } else { *limit as usize };
            Box::new(Limit::new(child, *offset as usize, lim, cancel.clone()))
        }
        LogicalPlan::Values { schema, rows } => {
            Box::new(Values::new(schema.clone(), rows.clone(), vs, cancel.clone()))
        }
        LogicalPlan::UnionAll { inputs, .. } => {
            // Inside an Exchange every input is partitioned: the rewriter
            // calls a concatenation partitionable only when they all are.
            let compiled = inputs
                .iter()
                .map(|child| {
                    build_plan_inner(
                        db,
                        child,
                        config,
                        cancel,
                        txn,
                        partition.as_deref_mut(),
                        in_exchange,
                        batch_pool,
                        query,
                    )
                })
                .collect::<Result<_>>()?;
            Box::new(UnionAll::new(compiled, cancel.clone()))
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
            // Partitioned scans share dispensers, and joins their builds,
            // through `shared`; each worker gets a private batch free-list
            // (batches cross the exchange channel and never come back, so
            // sharing one across threads would only add contention).
            let shared = ExchangeShared::default();
            let mut parts: Vec<BoxedOp> = Vec::with_capacity(*dop);
            let mut probed = Vec::new();
            for worker in 0..*dop {
                let worker_pool = BatchPool::new();
                let mut part = Partition {
                    worker,
                    dop: *dop,
                    shared: &shared,
                    scans: 0,
                    joins: 0,
                    deps: Vec::new(),
                };
                parts.push(build_plan_inner(
                    db,
                    input,
                    config,
                    cancel,
                    txn,
                    Some(&mut part),
                    true,
                    &worker_pool,
                    query,
                )?);
                probed = part.deps; // the same builds for every clone
            }
            // Fragments and build sinks run as cooperative tasks on the
            // engine's shared worker pool: plan-time `dop` sizes their
            // count, the pool bounds actual threads, and interleaved
            // scheduling keeps concurrent queries from starving each other.
            let sinks = shared.sinks.into_inner();
            Box::new(Xchg::spawn_staged(&db.workers, sinks, parts, &probed, cancel.clone()))
        }
    })
}

/// Lower a scan of a VECTORWISE table's image — `(storage, root)`, its
/// pinned generation and the PDT root that addresses it — onto a
/// [`VectorScan`]: the one scan lowering, shared by SELECT plans and the
/// DML victim search.
///
/// The image is read where it lies: the dispenser holds its treap root.
/// With `hints`, the dispenser drops the rows the zone maps rule out
/// ([`MorselSource::pruned`]). Work is claimed at run time: a partitioned
/// scan attaches to the Exchange's shared dispenser (created on first
/// visit); a serial scan owns a private single-consumer one. Either way
/// the scan pulls `morsel_rows`-sized claims until dry. The scan pins the
/// generation: its blocks outlive the scan whatever CHECKPOINT or DROP
/// TABLE does meanwhile.
fn lower_scan(
    (storage, root): (&Arc<TableStorage>, &Link),
    projection: &[usize],
    hints: &[ScanHint],
    config: &EngineConfig,
    cancel: &CancelToken,
    partition: Option<&mut Partition<'_>>,
    batch_pool: &BatchPool,
) -> VectorScan {
    let make_source = || {
        if hints.is_empty() {
            MorselSource::new(root.clone(), config.morsel_rows)
        } else {
            let hints =
                hints.iter().map(|h| (h.col, storage.prune(h.col, h.lo.as_ref(), h.hi.as_ref())));
            MorselSource::pruned(root.clone(), storage.clone(), hints, config.morsel_rows)
        }
    };
    let source = match partition {
        Some(p) => {
            let idx = p.scans;
            p.scans += 1;
            get_or_create(&p.shared.sources, idx, make_source)
        }
        None => make_source(),
    };
    let projection = projection.to_vec();
    VectorScan::with_source(storage.clone(), projection, source, config.vector_size, cancel.clone())
        .with_batch_pool(batch_pool.clone())
}

/// Lower a scan of heap table `store` onto a [`Values`] source — the one
/// heap scan, shared by SELECT plans and the DML victim search. The
/// heap's pages are materialized into rows of `schema`: `projection` of
/// each row and, with `positions`, the row's position in the heap last.
/// Heap rows have no morsel dispenser, so a worker's share is a static
/// modulo split: `split = (worker, dop)` keeps every `dop`-th row.
fn heap_scan(
    store: &RowStore,
    schema: Schema,
    projection: &[usize],
    positions: bool,
    split: Option<(usize, usize)>,
    vector_size: usize,
    cancel: &CancelToken,
) -> Result<Values> {
    let mut rows = Vec::with_capacity(store.n_rows() as usize);
    let mut pos = 0usize;
    for p in 0..store.n_pages() {
        for row in store.read_page(p)? {
            if split.is_none_or(|(worker, dop)| pos % dop == worker) {
                let mut out: Vec<Value> = projection.iter().map(|&c| row[c].clone()).collect();
                if positions {
                    out.push(Value::I64(pos as i64));
                }
                rows.push(out);
            }
            pos += 1;
        }
    }
    Ok(Values::new(schema, rows, vector_size, cancel.clone()))
}

/// What a victim search reads: a VECTORWISE table's image as a
/// transaction sees it, or a heap its caller holds write-locked.
pub(crate) enum VictimSource<'a> {
    Image(&'a Arc<TableStorage>, &'a Link),
    Heap(&'a RowStore),
}

/// The victim search of an UPDATE/DELETE on table `entry`:
/// `Project[outputs.., rid] ∘ Filter[predicate] ∘ Scan[projection, hints]`
/// over `source`, under the statement's `cancel` token. `predicate` and
/// `outputs` address the scan's output columns; the last column of every
/// batch is the row's position in the image or the heap. A heap has no
/// zone maps: `hints` prune only an image.
#[allow(clippy::too_many_arguments)]
pub(crate) fn victim_scan(
    entry: &TableEntry,
    projection: &[usize],
    hints: &[ScanHint],
    predicate: Option<&PhysExpr>,
    outputs: &[PhysExpr],
    config: &EngineConfig,
    cancel: &CancelToken,
    source: VictimSource<'_>,
) -> Result<BoxedOp> {
    let batch_pool = BatchPool::new();
    let rid = Field::not_null("rid", TypeId::I64);
    let mut op: BoxedOp = match source {
        VictimSource::Image(storage, root) => Box::new(
            lower_scan((storage, root), projection, hints, config, cancel, None, &batch_pool)
                .with_rids(),
        ),
        VictimSource::Heap(store) => {
            let mut fields: Vec<Field> =
                projection.iter().map(|&c| entry.schema.field(c).clone()).collect();
            fields.push(rid.clone());
            let schema = Schema::unchecked(fields);
            Box::new(heap_scan(store, schema, projection, true, None, config.vector_size, cancel)?)
        }
    };
    let mut fields = Vec::with_capacity(outputs.len() + 1);
    let mut programs = Vec::with_capacity(outputs.len() + 1);
    for (i, e) in outputs.iter().enumerate() {
        fields.push(Field::nullable(format!("set{i}"), e.type_id()));
        programs.push(ExprProgram::compile(e));
    }
    fields.push(rid);
    programs.push(ExprProgram::compile(&PhysExpr::ColRef(projection.len(), TypeId::I64)));
    if let Some(p) = predicate {
        let program = SelectProgram::compile(p);
        op = Box::new(Select::new(op, program, cancel.clone()).with_batch_pool(batch_pool.clone()));
    }
    let project = Project::new(op, programs, Schema::unchecked(fields), cancel.clone());
    Ok(Box::new(project.with_batch_pool(batch_pool)))
}
