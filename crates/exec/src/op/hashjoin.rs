//! Vectorized hash join over the flat hash table.
//!
//! **Build** (right child) runs the one partitioned-build state machine of
//! [`crate::partition`]: every batch's non-NULL key lanes are hashed,
//! routed to `P` slots and appended to the owning slot's contiguous
//! key/payload vectors straight from the batch. `P = 1` is the serial
//! build; [`HashJoin::with_spill`] makes the slots evictable under the
//! query's memory budget (a slot's rows move to a spill file, and so do
//! the probe rows later routed to it); [`HashJoin::with_parallel_build`]
//! fans the per-slot table construction out to the worker pool. One
//! finalize concatenates the slots into the global build columns and
//! bulk-builds the [`FlatTable`]s (CSR layout: every probe is a short
//! sequential scan) — per slot when the build is governed or clears the
//! cost gate, else a single table.
//!
//! **Probe** is vector-at-a-time. Against a single table the fused
//! per-type kernel hashes, walks and compares in one pass per lane;
//! against `P` tables the batch is hashed once, split by the build's radix
//! bits into reused per-slot `SelVec`s, and the same kernels run slot-wise
//! with slot-local row ids rebased onto the concatenated build columns, so
//! output assembly is the same either way. All probe scratch is reused
//! across batches: the steady-state loop allocates nothing.
//!
//! **Deferred phase** (governed builds that evicted): once the probe input
//! is exhausted each spilled build/probe file pair replays through an
//! inner `HashJoin` — same keys, same join type, the next hash-bit
//! stratum, the same budget — i.e. this component one level down.
//!
//! Supports inner, left outer, left semi, left anti, and the **NULL-aware
//! left anti join** that gives `NOT IN` its treacherous SQL semantics — the
//! paper singles out exactly this: "intricacies of the SQL semantics of
//! anti-joins added significant complexity".
//!
//! NULL-aware anti join semantics (`x NOT IN (SELECT k ...)`):
//! * a probe row whose key matches any build row is dropped;
//! * if the build side contains **any** NULL key, every non-matching probe
//!   row evaluates to NULL (dropped) — so the operator emits nothing;
//! * a probe row with a NULL key is dropped unless the build side is empty;
//! * if the build side is empty, **all** probe rows pass (even NULL keys).

use super::{BoxedOp, Operator};
use crate::cancel::CancelToken;
use crate::hashtable::{self, FlatTable, EMPTY};
use crate::morsel::BatchPool;
use crate::partition::{
    Partitions, ShardSet, ShardWorker, SpillConfig, WorkerPool, DEFAULT_PARALLEL_BUILD_MIN_ROWS,
};
use crate::profile::OpProfile;
use crate::program::{ExprProgram, VecRef, VectorPool};
use crate::spill::{self, SpillScan};
use crate::vector::{Batch, Vector};
use std::sync::Arc;
use std::time::Instant;
use vw_common::{ColData, Result, Schema, SelVec, TypeId, VwError};
use vw_storage::SpillFile;

/// Join variants supported by the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Emit matching pairs.
    Inner,
    /// Emit matching pairs plus unmatched left rows padded with NULLs.
    LeftOuter,
    /// Emit left rows with at least one match (EXISTS / IN).
    LeftSemi,
    /// Emit left rows with no match (NOT EXISTS).
    LeftAnti,
    /// NOT IN: anti join with three-valued NULL semantics (see module doc).
    NullAwareLeftAnti,
}

impl JoinType {
    /// Does the output include right-side columns?
    pub fn emits_right(self) -> bool {
        matches!(self, JoinType::Inner | JoinType::LeftOuter)
    }

    /// Does a lane stop probing at its first match (existence semantics)?
    fn first_match_only(self) -> bool {
        !matches!(self, JoinType::Inner | JoinType::LeftOuter)
    }
}

/// Per-batch probe scratch, reused across batches so the steady-state
/// probe loop is allocation-free.
#[derive(Default)]
struct ProbeScratch {
    /// Per-column u64 projection feeding the hash kernels.
    lanes: Vec<u64>,
    /// Combined key hash per lane.
    hashes: Vec<u64>,
    /// Candidate handle per lane (chain row / finalized slot index;
    /// garbage outside the active set).
    cand: Vec<u32>,
    /// Row ids behind `cand` (see `FlatTable::candidate_rows`).
    rows: Vec<u32>,
    /// Live lanes of the incoming batch.
    live: SelVec,
    /// Live lanes with no NULL key component.
    nonnull: SelVec,
    /// Lanes still walking a chain; ping-pongs with `next_active`.
    active: SelVec,
    next_active: SelVec,
    /// Lanes passing full key comparison this round.
    matched: SelVec,
    /// keys_match_sel column ping-pong buffer.
    tmp: SelVec,
    /// Per-lane "has matched" flag (semi/anti/outer bookkeeping).
    matched_flags: Vec<bool>,
    /// Per-lane "routed to a spilled partition" flag (grace probes only;
    /// cleared after the lanes are filtered out of `live`/`nonnull`).
    deferred_flags: Vec<bool>,
    /// Staged-probe buffers for the fused fast path.
    buf: hashtable::ProbeBuf,
    /// Output pairs: probe position / build row (EMPTY pads outer misses).
    out_probe: Vec<u32>,
    out_build: Vec<u32>,
    /// Key-program results for the current batch (refs into the pool).
    refs: Vec<VecRef>,
}

/// What one build partition holds while the build runs: the gathered
/// key/payload rows and their hashes, waiting to become a CSR table — or
/// to be written to a spill file if the memory governor evicts the slot.
struct JoinStage {
    keys: Vec<Vector>,
    cols: Vec<Vector>,
    hashes: Vec<u64>,
    /// Approximate staged bytes (maintained for governed builds only).
    bytes: usize,
}

impl JoinStage {
    fn new(key_tys: &[TypeId], col_tys: &[TypeId]) -> JoinStage {
        let empty = |tys: &[TypeId]| tys.iter().map(|&t| Vector::new(ColData::new(t))).collect();
        JoinStage { keys: empty(key_tys), cols: empty(col_tys), hashes: Vec::new(), bytes: 0 }
    }

    /// Append the `sel` lanes of one batch. `charge` also accounts their
    /// approximate bytes (the unit the memory governor charges).
    fn append(
        &mut self,
        keys: &[&Vector],
        cols: &[Vector],
        hashes: &[u64],
        sel: &SelVec,
        charge: bool,
    ) {
        if charge {
            self.bytes += sel.len() * 8 // hashes
                + keys.iter().map(|v| gathered_bytes(v, sel)).sum::<usize>()
                + cols.iter().map(|v| gathered_bytes(v, sel)).sum::<usize>();
        }
        for (dst, src) in self.keys.iter_mut().zip(keys) {
            dst.extend_gather_sel(src, sel);
        }
        for (dst, src) in self.cols.iter_mut().zip(cols) {
            dst.extend_gather_sel(src, sel);
        }
        self.hashes.extend(sel.iter().map(|p| hashes[p]));
    }

    /// Free the staged rows (they were just written out), keeping the
    /// typed column layout.
    fn clear(&mut self) {
        for v in self.keys.iter_mut().chain(&mut self.cols) {
            *v = Vector::new(ColData::new(v.type_id()));
        }
        self.hashes = Vec::new();
        self.bytes = 0;
    }
}

/// A finished build — plain immutable data with no pointer back into the
/// operator: the finalized tables (one per partition, or a single one),
/// each table's base offset into the slot-order concatenated build rows,
/// and the rows themselves. An evicted partition keeps an empty table; its
/// probe lanes are diverted to a spill file before any probe runs.
struct JoinBuild {
    tables: Vec<FlatTable>,
    bases: Vec<u32>,
    keys: Vec<Vector>,
    cols: Vec<Vector>,
    /// A NULL key arrived on the build side (dropped there — NULL never
    /// matches — but the NULL-aware anti join needs to know).
    has_null_key: bool,
}

/// Pool task building one partition's table: bulk CSR construction is the
/// expensive random-access phase of a build, the one worth fanning out —
/// each over a table P× smaller and that much more cache-resident.
struct CsrShard(FlatTable);

impl ShardWorker for CsrShard {
    type Packet = Vec<u64>;
    type Output = FlatTable;

    fn absorb(&mut self, hashes: Vec<u64>) -> Result<()> {
        self.0 = FlatTable::build_csr(&hashes);
        Ok(())
    }

    fn finish(self) -> Result<FlatTable> {
        Ok(self.0)
    }
}

/// Approximate bytes a gather of `sel` from `v` will stage (the unit the
/// memory governor charges — matches [`Vector::byte_size`] of the gathered
/// result without materializing it first).
fn gathered_bytes(v: &Vector, sel: &SelVec) -> usize {
    let null_bytes = if v.nulls.is_some() { sel.len() } else { 0 };
    if v.dict_parts().is_some() {
        // Dict-coded gathers stay coded: 4 bytes of code per lane (the
        // shared dictionary is not copied).
        return sel.len() * 4 + null_bytes;
    }
    let data_bytes = match &v.data {
        ColData::Bool(_) | ColData::I8(_) => sel.len(),
        ColData::I16(_) => sel.len() * 2,
        ColData::I32(_) | ColData::Date(_) => sel.len() * 4,
        ColData::I64(_) | ColData::F64(_) => sel.len() * 8,
        ColData::Str(s) => sel.iter().map(|p| s[p].len() + 24).sum(),
    };
    data_bytes + null_bytes
}

/// Hash join operator (right side = build, left side = probe).
pub struct HashJoin {
    left: BoxedOp,
    /// The build input (taken when the build runs, on the first `next`).
    right: Option<BoxedOp>,
    left_keys: Vec<ExprProgram>,
    right_keys: Vec<ExprProgram>,
    join_type: JoinType,
    schema: Schema,
    pool: VectorPool,
    cancel: CancelToken,
    /// Pool and partition count of a parallel build (None = one slot).
    par: Option<(Arc<WorkerPool>, usize)>,
    /// Build rows below which a parallel build still makes one table.
    par_min_rows: usize,
    /// The memory governor, when configured ([`HashJoin::with_spill`]).
    spill: Option<SpillConfig>,
    /// The build's partition set: router, budget charges and the spill
    /// files of evicted slots (the slots' rows moved into `build`).
    parts: Option<Partitions<JoinStage>>,
    /// The finished build (None before the build and after the last
    /// in-memory probe, when the deferred phase has freed it).
    build: Option<JoinBuild>,
    /// Probe rows diverted per evicted slot.
    probe_files: Vec<Option<SpillFile>>,
    scratch: ProbeScratch,
    batch_pool: Option<BatchPool>,
    out_types: Vec<TypeId>,
    /// Child schemas, kept for replaying spilled rows through
    /// [`SpillScan`]s in the deferred phase.
    probe_schema: Schema,
    build_schema: Schema,
    /// Spilled partition pairs awaiting the deferred (recursive) joins.
    deferred: Vec<(SpillFile, SpillFile)>,
    /// The recursive join currently draining one spilled partition pair.
    inner: Option<Box<HashJoin>>,
    /// Has the probe input been exhausted (deferred phase reached)?
    probe_done: bool,
    /// Probe/build input columns read by non-trivial key programs:
    /// encoded vectors are flattened before the programs run. Bare-column
    /// keys stay coded (hash/compare paths handle dict codes).
    flat_cols_probe: Vec<usize>,
    flat_cols_build: Vec<usize>,
    profile: OpProfile,
}

/// Columns read by the non-bare programs of `progs` (sorted, deduped);
/// bare column references pass encoded vectors through untouched.
fn nontrivial_cols(progs: &[ExprProgram]) -> Vec<usize> {
    let mut out: Vec<usize> = progs
        .iter()
        .filter(|p| !p.is_bare_col())
        .flat_map(|p| p.cols_used().iter().copied())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

impl HashJoin {
    /// Create a join; `schema` must match the join type's output layout
    /// (left columns, then right columns for inner/outer joins).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        left_keys: Vec<ExprProgram>,
        right_keys: Vec<ExprProgram>,
        join_type: JoinType,
        schema: Schema,
        cancel: CancelToken,
    ) -> HashJoin {
        assert_eq!(left_keys.len(), right_keys.len());
        assert!(!left_keys.is_empty(), "joins require at least one key");
        let out_types = schema.fields.iter().map(|f| f.ty).collect();
        let probe_schema = left.schema().clone();
        let build_schema = right.schema().clone();
        let flat_cols_probe = nontrivial_cols(&left_keys);
        let flat_cols_build = nontrivial_cols(&right_keys);
        HashJoin {
            left,
            right: Some(right),
            left_keys,
            right_keys,
            join_type,
            schema,
            pool: VectorPool::new(),
            cancel,
            par: None,
            par_min_rows: DEFAULT_PARALLEL_BUILD_MIN_ROWS,
            spill: None,
            parts: None,
            build: None,
            probe_files: Vec::new(),
            scratch: ProbeScratch::default(),
            batch_pool: None,
            out_types,
            probe_schema,
            build_schema,
            deferred: Vec::new(),
            inner: None,
            probe_done: false,
            flat_cols_probe,
            flat_cols_build,
            profile: OpProfile::new("HashJoin"),
        }
    }

    /// Join the pipeline's batch free-list: build and probe input batches
    /// are recycled once staged/gathered, and output batches lease
    /// recycled buffers instead of allocating per batch.
    pub fn with_batch_pool(mut self, pool: BatchPool) -> HashJoin {
        self.batch_pool = Some(pool);
        self
    }

    /// Partition the build `shards` ways (rounded up to a power of two)
    /// and, once it holds at least `min_rows` rows, construct the
    /// per-partition tables as tasks on `pool` and probe partition-wise;
    /// smaller builds still make a single table. Ignored when a memory
    /// budget is attached ([`HashJoin::with_spill`] wins).
    pub fn with_parallel_build(
        mut self,
        pool: Arc<WorkerPool>,
        shards: usize,
        min_rows: usize,
    ) -> HashJoin {
        self.par = Some((pool, shards));
        self.par_min_rows = min_rows;
        self
    }

    /// Attach the query's memory governor: the build partitions on `cfg`'s
    /// hash-bit stratum and charges `cfg.budget` as slots stage rows. When
    /// the query runs over budget, the largest slot's rows move to a temp
    /// spill file; probe rows routed to an evicted slot divert to a
    /// matching probe spill file, and after the probe input is exhausted
    /// each spilled pair replays through a recursive `HashJoin` (same
    /// keys, same join type, next hash-bit stratum) whose output streams
    /// out as this operator's.
    pub fn with_spill(mut self, cfg: SpillConfig) -> HashJoin {
        self.spill = Some(cfg);
        self
    }

    fn build(&mut self, mut right: BoxedOp) -> Result<()> {
        let key_tys: Vec<TypeId> = self.right_keys.iter().map(|e| e.type_id()).collect();
        let col_tys: Vec<TypeId> = right.schema().fields.iter().map(|f| f.ty).collect();
        let governed = self.spill.is_some();
        if governed {
            self.par = None; // a governed build owns its slots' lifecycle
        }
        let shards = self.par.as_ref().map_or(1, |(_, p)| *p);
        let mut parts =
            Partitions::new(shards, self.spill.take(), || Ok(JoinStage::new(&key_tys, &col_tys)))?;
        let mut has_null_key = false;
        while let Some(mut batch) = right.next()? {
            self.cancel.check()?;
            for &c in &self.flat_cols_build {
                batch.columns[c].ensure_flat();
            }
            // Run the compiled key programs; results live in the pool
            // until `recycle` at the end of this batch.
            self.scratch.refs.clear();
            for prog in &self.right_keys {
                let r = prog.run(&mut self.pool, &batch)?;
                self.scratch.refs.push(r);
            }
            {
                // Single-key joins (the common case) resolve through a
                // stack array — a per-batch `Vec` here would be the one
                // steady-state allocation left in the pipeline.
                let single_key;
                let multi_keys: Vec<&Vector>;
                let keys: &[&Vector] = if self.scratch.refs.len() == 1 {
                    single_key = [self.pool.get(&batch, self.scratch.refs[0])];
                    &single_key
                } else {
                    multi_keys =
                        self.scratch.refs.iter().map(|&r| self.pool.get(&batch, r)).collect();
                    &multi_keys
                };
                let s = &mut self.scratch;
                match &batch.sel {
                    Some(sel) => s.live.clear_and_extend_from_slice(sel.as_slice()),
                    None => s.live.fill_identity(batch.capacity()),
                }
                // NULL keys never match any probe: drop them at build time and
                // remember they existed (NULL-aware anti join needs to know).
                s.live.retain_from(|p| !keys.iter().any(|k| k.is_null(p)), &mut s.nonnull);
                has_null_key |= s.nonnull.len() != s.live.len();
                if !s.nonnull.is_empty() {
                    let n = batch.capacity();
                    hashtable::hash_keys(
                        keys.iter().copied(),
                        n,
                        false,
                        &mut s.lanes,
                        &mut s.hashes,
                    );
                    parts.route(&s.hashes, &s.nonnull, n);
                    for si in 0..parts.partitions() {
                        if parts.is_spilled(si) {
                            // Already evicted: rows go straight to disk
                            // (payload only — keys and hashes are program
                            // outputs, recomputed at rehydration).
                            let sel = parts.routed(si);
                            if !sel.is_empty() {
                                let cols: Vec<Vector> =
                                    batch.columns.iter().map(|v| v.gather(sel)).collect();
                                parts.append_spilled(si, &cols)?;
                            }
                            continue;
                        }
                        let (sel, stage) = parts.lane(si, &s.nonnull);
                        if !sel.is_empty() {
                            stage.append(keys, &batch.columns, &s.hashes, sel, governed);
                            let bytes = stage.bytes;
                            parts.recharge(si, bytes);
                        }
                    }
                    parts.evict_while_over(|_, stage, file| {
                        let written = spill::append_vectors(file, &stage.cols)?;
                        stage.clear();
                        Ok(written)
                    })?;
                }
            }
            self.pool.recycle();
            if let Some(bp) = &self.batch_pool {
                bp.recycle(batch); // build rows staged: batch goes back
            }
        }
        let (runs, instrs) = self.pool.take_counters();
        self.profile.record_expr(runs, instrs);
        self.build = Some(self.finalize(&mut parts, has_null_key)?);
        if let Some(cfg) = parts.spill_config() {
            self.profile.sync_spill(&cfg.metrics);
        }
        self.probe_files.resize_with(parts.partitions(), || None);
        self.parts = Some(parts);
        Ok(())
    }

    /// The one finalize. The slots' rows concatenate in slot order into
    /// the global build columns — slot 0's vectors are moved, so a
    /// one-slot build copies nothing, and every other slot is freed right
    /// after its copy. The tables are bulk-built from the staged hashes:
    /// one per slot when the build is governed (an evicted slot keeps an
    /// empty one) or clears the cost gate, else a single table over all
    /// rows. With a pool the per-slot constructions run as pool tasks
    /// while this thread concatenates.
    fn finalize(
        &mut self,
        parts: &mut Partitions<JoinStage>,
        has_null_key: bool,
    ) -> Result<JoinBuild> {
        let mut stages = parts.take_slots();
        let mut hashes: Vec<Vec<u64>> =
            stages.iter_mut().map(|st| std::mem::take(&mut st.hashes)).collect();
        let rows: usize = hashes.iter().map(Vec::len).sum();
        assert!((rows as u64) < u32::MAX as u64, "join build exceeds u32 rows");
        let fan_out =
            hashes.len() > 1 && (parts.spill_config().is_some() || rows >= self.par_min_rows);
        if !fan_out && hashes.len() > 1 {
            hashes = vec![hashes.concat()];
        }
        let mut bases = Vec::with_capacity(hashes.len());
        let mut base = 0u32;
        for (si, h) in hashes.iter().enumerate() {
            bases.push(base);
            base += h.len() as u32;
            self.profile.record_shard_build(si, h.len() as u64);
        }
        let tasks = match &self.par {
            Some((pool, _)) if fan_out => {
                let shards = hashes.iter().map(|_| CsrShard(FlatTable::new())).collect();
                let mut set = ShardSet::spawn_on(pool, shards, &self.cancel);
                for (si, h) in hashes.iter_mut().enumerate() {
                    set.send(si, std::mem::take(h))?;
                }
                Some(set)
            }
            _ => None,
        };
        let mut stages = stages.into_iter();
        let mut all = stages.next().expect("at least one slot");
        for stage in stages {
            for (dst, src) in all.keys.iter_mut().zip(&stage.keys) {
                dst.extend_range(src, 0, src.len());
            }
            for (dst, src) in all.cols.iter_mut().zip(&stage.cols) {
                dst.extend_range(src, 0, src.len());
            }
        }
        let tables = match tasks {
            Some(set) => set.finish()?,
            None => hashes.iter().map(|h| FlatTable::build_csr(h)).collect(),
        };
        Ok(JoinBuild { tables, bases, keys: all.keys, cols: all.cols, has_null_key })
    }

    /// Assemble the output batch from the recorded pairs, gathering into
    /// a leased (or fresh) output batch so steady-state assembly reuses
    /// the buffers the consumer recycled.
    fn assemble(&mut self, batch: &Batch) -> Result<Option<Batch>> {
        let s = &self.scratch;
        if s.out_probe.is_empty() {
            return Ok(None);
        }
        let build_cols = &self.build.as_ref().expect("built before probing").cols;
        if batch.columns.len() + if self.join_type.emits_right() { build_cols.len() } else { 0 }
            != self.schema.len()
        {
            return Err(VwError::Plan(format!(
                "join schema arity mismatch: {} vs {}",
                batch.columns.len()
                    + if self.join_type.emits_right() { build_cols.len() } else { 0 },
                self.schema.len()
            )));
        }
        let mut out = BatchPool::lease_or_new(
            self.batch_pool.as_ref(),
            &self.out_types,
            0,
            &mut self.profile,
        );
        for (src, dst) in batch.columns.iter().zip(&mut out.columns) {
            src.gather_indices_into(&s.out_probe, dst);
        }
        if self.join_type.emits_right() {
            // One sentinel scan per batch, not per column — only outer
            // joins ever pad, and their all-matched batches skip the
            // NULL-indicator machinery entirely.
            let padded = self.join_type == JoinType::LeftOuter && s.out_build.contains(&EMPTY);
            let right = &mut out.columns[batch.columns.len()..];
            for (src, dst) in build_cols.iter().zip(right) {
                if padded {
                    src.gather_indices_padded_into(&s.out_build, EMPTY, dst);
                } else {
                    src.gather_indices_into(&s.out_build, dst);
                }
            }
        }
        Ok(Some(out))
    }

    /// The deferred phase of a governed build: once the probe input is
    /// exhausted, the in-memory build is freed and its budget charge
    /// returned, and each spilled partition pair replays through a
    /// recursive `HashJoin` — [`SpillScan`]s feed the same key programs
    /// and join type, on the next hash-bit stratum, sharing the same
    /// budget and counters — whose output streams out as this operator's.
    fn next_deferred(&mut self) -> Result<Option<Batch>> {
        if !self.probe_done {
            self.probe_done = true;
            let parts = self.parts.as_mut().expect("deferred phase follows the build");
            // Resident partitions produced their last row: free them and
            // return their charge before the recursive joins start
            // charging for rehydrated builds.
            self.build = None;
            parts.release();
            for (si, probe_file) in self.probe_files.iter_mut().enumerate() {
                match (parts.take_file(si), probe_file.take()) {
                    // Both sides spilled rows: a deferred pair to join.
                    (Some(bf), Some(pf)) => self.deferred.push((bf, pf)),
                    // Build spilled but no probe rows ever routed there:
                    // no probe row ⇒ no output row (every join type here
                    // is probe-driven) — dropping the file frees it.
                    (Some(_), None) | (None, None) => {}
                    (None, Some(_)) => unreachable!("probe diverted to a resident partition"),
                }
            }
        }
        let cfg = self.parts.as_ref().and_then(|p| p.spill_config());
        let cfg = cfg.expect("deferred phase is governed-only");
        self.profile.sync_spill(&cfg.metrics);
        loop {
            self.cancel.check()?;
            if let Some(inner) = &mut self.inner {
                let t0 = Instant::now();
                match inner.next()? {
                    Some(b) => {
                        self.profile.record(b.rows(), t0.elapsed());
                        return Ok(Some(b));
                    }
                    None => {
                        self.profile.sync_spill(&cfg.metrics);
                        self.inner = None;
                    }
                }
            }
            let Some((build_file, probe_file)) = self.deferred.pop() else {
                return Ok(None);
            };
            let scan = |file, schema: &Schema| -> BoxedOp {
                Box::new(SpillScan::new(
                    file,
                    schema.clone(),
                    self.cancel.clone(),
                    cfg.metrics.clone(),
                ))
            };
            let mut inner = HashJoin::new(
                scan(probe_file, &self.probe_schema),
                scan(build_file, &self.build_schema),
                self.left_keys.clone(),
                self.right_keys.clone(),
                self.join_type,
                self.schema.clone(),
                self.cancel.clone(),
            );
            // Recurse with the governor attached (one stratum deeper) until
            // the depth floor; past it the partition builds in memory
            // regardless — 8 strata of 8-way splits divide a build ~16M×
            // before that happens.
            if let Some(deeper) = cfg.deeper() {
                inner = inner.with_spill(deeper);
            }
            self.inner = Some(Box::new(inner));
        }
    }
}

/// Vectorized probe of one batch's non-NULL lanes. Fills
/// `scratch.out_probe`/`out_build` for pair-emitting join types and
/// `scratch.matched_flags` for all; returns chain steps visited.
///
/// A free function over disjoint operator fields: the probe keys are pool
/// references, so `&mut self` is off the table while they are alive.
///
/// A single-table build probes through the fused kernels directly. A
/// partitioned one hashes the batch once and splits it by the build's
/// radix bits into reused per-slot `SelVec`s; resident slots run the same
/// kernels over their sub-selection (emitted build rows rebased to global
/// ids), while lanes owned by an evicted slot are *diverted*: their full
/// rows go to the slot's probe spill file and leave `live`/`nonnull`, so
/// flag-based emission never sees them — their entire join result
/// (matches, padding, anti emission) comes from the deferred join.
#[allow(clippy::too_many_arguments)]
fn probe_batch(
    build: &JoinBuild,
    parts: &mut Partitions<JoinStage>,
    probe_files: &mut [Option<SpillFile>],
    join_type: JoinType,
    s: &mut ProbeScratch,
    keys: &[&Vector],
    batch: &Batch,
    profile: &mut OpProfile,
) -> Result<u64> {
    let emit_pairs = !join_type.first_match_only();
    let n = keys.first().map_or(0, |k| k.len());
    // Reset per-lane flags only for the lanes this batch owns.
    if s.matched_flags.len() < n {
        s.matched_flags.resize(n, false);
    }
    for p in s.live.iter() {
        s.matched_flags[p] = false;
    }
    let mut chain_steps = 0u64;
    if let [table] = &build.tables[..] {
        probe_one(table, &build.keys, s, keys, None, 0, emit_pairs, false, &mut chain_steps);
        profile.record_shard_probe(0, s.nonnull.len() as u64, chain_steps);
        return Ok(chain_steps);
    }
    hashtable::hash_keys(keys.iter().copied(), n, false, &mut s.lanes, &mut s.hashes);
    parts.route(&s.hashes, &s.nonnull, n);
    let mut diverted = false;
    for (si, table) in build.tables.iter().enumerate() {
        let sel = parts.routed(si);
        if sel.is_empty() {
            continue;
        }
        if parts.is_spilled(si) {
            let cfg = parts.spill_config().expect("spilled implies governed");
            let cols: Vec<Vector> = batch.columns.iter().map(|v| v.gather(sel)).collect();
            let file = probe_files[si].get_or_insert_with(|| SpillFile::new(cfg.disk.clone()));
            let written = spill::append_vectors(file, &cols)?;
            cfg.metrics.record_write(written as u64);
            if s.deferred_flags.len() < n {
                s.deferred_flags.resize(n, false);
            }
            for p in sel.iter() {
                s.deferred_flags[p] = true;
            }
            diverted = true;
            continue;
        }
        let mut steps = 0u64;
        probe_one(
            table,
            &build.keys,
            s,
            keys,
            Some(sel),
            build.bases[si],
            emit_pairs,
            true,
            &mut steps,
        );
        profile.record_shard_probe(si, sel.len() as u64, steps);
        chain_steps += steps;
    }
    if diverted {
        let flags = &s.deferred_flags;
        s.nonnull.retain_from(|p| !flags[p], &mut s.tmp);
        std::mem::swap(&mut s.nonnull, &mut s.tmp);
        s.live.retain_from(|p| !flags[p], &mut s.tmp);
        std::mem::swap(&mut s.live, &mut s.tmp);
        // Clear the flags we set (only evicted slots' lanes carry them).
        for si in (0..parts.partitions()).filter(|&si| parts.is_spilled(si)) {
            for p in parts.routed(si).iter() {
                s.deferred_flags[p] = false;
            }
        }
    }
    Ok(chain_steps)
}

/// Probe one table (the only one, or one partition's) over one lane set.
/// `sel = None` derives the selection from `scratch.nonnull` (single table);
/// `Some` probes an externally-routed sub-selection. `base` rebases the
/// table's local build row ids onto the global build columns. `prehashed`
/// promises `scratch.hashes` already holds this batch's key hashes.
#[allow(clippy::too_many_arguments)]
fn probe_one(
    table: &FlatTable,
    build_keys: &[Vector],
    s: &mut ProbeScratch,
    keys: &[&Vector],
    sel: Option<&SelVec>,
    base: u32,
    emit_pairs: bool,
    prehashed: bool,
    chain_steps: &mut u64,
) {
    let n = keys.first().map_or(0, |k| k.len());
    // Fast path: single-column keys probe through a fused kernel
    // monomorphized per type — hash, chain walk, and key compare in one
    // pass per lane with no intermediate SelVec rounds or hash buffer.
    // Build-side key columns never hold NULLs (dropped at build), and
    // NULL probe lanes are outside the selection, so a plain data compare
    // is exact. A full selection (no NULLs, dense batch) drops the
    // selection indirection entirely.
    // Encoded keys (dict codes) skip the fused kernel: the general path
    // hashes codes through the per-code projection and compares codes /
    // dict entries in `keys_match_sel` without inflating.
    if keys.len() == 1 && !keys[0].is_encoded() && !build_keys[0].is_encoded() {
        let sel = match sel {
            Some(sub) => Some(sub),
            None if s.nonnull.len() == n => None,
            None => Some(&s.nonnull),
        };
        // Shard-local build rows rebase onto the global columns after the
        // fused pass (only pair emitters record rows).
        let fixup_from = s.out_build.len();
        let mut fused_ran = true;
        macro_rules! fused {
            ($pa:expr, $ba:expr, $hash:expr, $eq:expr) => {{
                let (pa, ba) = ($pa, $ba);
                #[allow(clippy::redundant_closure_call)]
                table.probe_join(
                    n,
                    sel,
                    emit_pairs,
                    |p| $hash(&pa[p]),
                    |p, row| $eq(&pa[p], &ba[(base + row) as usize]),
                    &mut s.matched_flags,
                    &mut s.out_probe,
                    &mut s.out_build,
                    &mut s.buf,
                    chain_steps,
                )
            }};
        }
        hashtable::dispatch_typed_keys!(&keys[0].data, &build_keys[0].data, fused, {
            fused_ran = false;
        });
        if fused_ran {
            if base != 0 {
                for b in &mut s.out_build[fixup_from..] {
                    *b += base;
                }
            }
            return;
        }
    }
    probe_general(table, build_keys, s, keys, sel, base, emit_pairs, prehashed, chain_steps);
}

/// General vectorized probe: gather hash-matching candidates for all
/// lanes, then iteratively confirm keys and re-probe the still-active
/// lanes through `SelVec`s (multi-column or mixed-type keys).
#[allow(clippy::too_many_arguments)]
fn probe_general(
    table: &FlatTable,
    build_keys: &[Vector],
    s: &mut ProbeScratch,
    keys: &[&Vector],
    sel: Option<&SelVec>,
    base: u32,
    emit_pairs: bool,
    prehashed: bool,
    chain_steps: &mut u64,
) {
    let n = keys.first().map_or(0, |k| k.len());
    if !prehashed {
        hashtable::hash_keys(keys.iter().copied(), n, false, &mut s.lanes, &mut s.hashes);
    }
    let start_sel = sel.unwrap_or(&s.nonnull);
    // Every lane in `active` holds a hash-matching candidate; the loop
    // below only confirms keys and re-probes the (rare) hash-collision
    // or multi-match lanes.
    table.gather_matching(&s.hashes, start_sel, &mut s.cand, &mut s.active, chain_steps);
    while !s.active.is_empty() {
        table.candidate_rows(&s.cand, &s.active, &mut s.rows);
        if base != 0 {
            // Rebase shard-local rows to global ids *before* the key
            // comparison — the build columns are the concatenated shards.
            for p in s.active.iter() {
                s.rows[p] += base;
            }
        }
        hashtable::keys_match_sel(
            keys.iter().copied(),
            build_keys,
            &s.rows,
            &s.active,
            &mut s.tmp,
            &mut s.matched,
            false,
        );
        for p in s.matched.iter() {
            s.matched_flags[p] = true;
            if emit_pairs {
                s.out_probe.push(p as u32);
                s.out_build.push(s.rows[p]);
            }
        }
        if emit_pairs {
            table.advance_matching(
                &s.hashes,
                &s.active,
                &mut s.cand,
                &mut s.next_active,
                chain_steps,
            );
        } else {
            // Existence semantics: matched lanes stop walking.
            let flags = &s.matched_flags;
            s.active.retain_from(|p| !flags[p], &mut s.tmp);
            table.advance_matching(&s.hashes, &s.tmp, &mut s.cand, &mut s.next_active, chain_steps);
        }
        std::mem::swap(&mut s.active, &mut s.next_active);
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "HashJoin"
    }

    fn profile(&self) -> Option<&OpProfile> {
        Some(&self.profile)
    }

    fn profile_mut(&mut self) -> Option<&mut OpProfile> {
        Some(&mut self.profile)
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if let Some(right) = self.right.take() {
            let t0 = Instant::now();
            self.build(right)?;
            self.profile.record_phase(t0.elapsed());
        }
        if self.probe_done {
            return self.next_deferred();
        }
        loop {
            self.cancel.check()?;
            let Some(mut batch) = self.left.next()? else {
                let governed = self.parts.as_ref().is_some_and(|p| p.spill_config().is_some());
                return if governed { self.next_deferred() } else { Ok(None) };
            };
            let t0 = Instant::now();
            self.profile.record_enc_batch(batch.columns.iter().any(|c| c.is_encoded()));
            for &c in &self.flat_cols_probe {
                batch.columns[c].ensure_flat();
            }
            self.scratch.refs.clear();
            for prog in &self.left_keys {
                let r = prog.run(&mut self.pool, &batch)?;
                self.scratch.refs.push(r);
            }
            let build = self.build.as_ref().expect("built before probing");
            let parts = self.parts.as_mut().expect("built before probing");
            // NULL-aware anti short-circuits: any build NULL key → nothing
            // can ever pass; empty build side → everything passes. The
            // global build keys hold only *resident* rows, so an evicted
            // partition keeps the build non-empty.
            let build_empty = build.keys[0].is_empty() && !parts.any_spilled();
            let has_null_key = build.has_null_key;
            let skip_probe =
                self.join_type == JoinType::NullAwareLeftAnti && (has_null_key || build_empty);
            let (chain_steps, probed);
            {
                // Stack-resolved single key: see the build loop's comment.
                let single_key;
                let multi_keys: Vec<&Vector>;
                let keys: &[&Vector] = if self.scratch.refs.len() == 1 {
                    single_key = [self.pool.get(&batch, self.scratch.refs[0])];
                    &single_key
                } else {
                    multi_keys =
                        self.scratch.refs.iter().map(|&r| self.pool.get(&batch, r)).collect();
                    &multi_keys
                };
                let s = &mut self.scratch;
                s.out_probe.clear();
                s.out_build.clear();
                match &batch.sel {
                    Some(sel) => s.live.clear_and_extend_from_slice(sel.as_slice()),
                    None => s.live.fill_identity(batch.capacity()),
                }
                s.live.retain_from(|p| !keys.iter().any(|k| k.is_null(p)), &mut s.nonnull);
                // Skipped probes contribute nothing to the chain-length
                // observable — counting their lanes would dilute the average.
                (chain_steps, probed) = if skip_probe {
                    (0, 0)
                } else {
                    let steps = probe_batch(
                        build,
                        parts,
                        &mut self.probe_files,
                        self.join_type,
                        s,
                        keys,
                        &batch,
                        &mut self.profile,
                    )?;
                    (steps, s.nonnull.len() as u64)
                };
            }
            self.pool.recycle();
            let (runs, instrs) = self.pool.take_counters();
            self.profile.record_expr(runs, instrs);

            // Emit the non-pair join types from the matched flags, in probe
            // order (pair emitters filled out_probe during the walk).
            let s = &mut self.scratch;
            match self.join_type {
                JoinType::Inner => {}
                JoinType::LeftOuter => {
                    // Unmatched live lanes (NULL keys included) pad with NULLs.
                    let flags = &s.matched_flags;
                    for p in s.live.iter() {
                        if !flags[p] {
                            s.out_probe.push(p as u32);
                            s.out_build.push(EMPTY);
                        }
                    }
                }
                JoinType::LeftSemi => {
                    let flags = &s.matched_flags;
                    for p in s.nonnull.iter() {
                        if flags[p] {
                            s.out_probe.push(p as u32);
                        }
                    }
                }
                JoinType::LeftAnti => {
                    // NOT EXISTS: NULL-key probe lanes never match → emitted.
                    let flags = &s.matched_flags;
                    for p in s.live.iter() {
                        if !flags[p] {
                            s.out_probe.push(p as u32);
                        }
                    }
                }
                JoinType::NullAwareLeftAnti => {
                    if has_null_key {
                        // x NOT IN (..., NULL) is never TRUE: emit nothing.
                    } else if build_empty {
                        // x NOT IN (empty) is TRUE for all x, NULL included.
                        for p in s.live.iter() {
                            s.out_probe.push(p as u32);
                        }
                    } else {
                        let flags = &s.matched_flags;
                        for p in s.nonnull.iter() {
                            if !flags[p] {
                                s.out_probe.push(p as u32);
                            }
                        }
                    }
                }
            }

            let out = self.assemble(&batch)?;
            if let Some(bp) = &self.batch_pool {
                bp.recycle(batch); // probe columns gathered: batch goes back
            }
            self.profile.record_probe(probed, chain_steps);
            match out {
                // `invocations` counts emitted batches; batches probed
                // without output still contribute time and probe counters.
                Some(b) => {
                    self.profile.record(b.rows(), t0.elapsed());
                    return Ok(Some(b));
                }
                None => {
                    self.profile.record_phase(t0.elapsed());
                    continue;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::PhysExpr;
    use crate::op::drain;
    use crate::op::simple::Values;
    use vw_common::{Field, TypeId, Value};

    fn schema_kv(prefix: &str) -> Schema {
        Schema::new(vec![
            Field::nullable(format!("{prefix}k"), TypeId::I64),
            Field::nullable(format!("{prefix}v"), TypeId::Str),
        ])
        .unwrap()
    }

    fn source(prefix: &str, rows: Vec<(Option<i64>, &str)>) -> BoxedOp {
        let rows = rows
            .into_iter()
            .map(|(k, v)| vec![k.map_or(Value::Null, Value::I64), Value::Str(v.to_string())])
            .collect();
        Box::new(Values::new(schema_kv(prefix), rows, 4, CancelToken::new()))
    }

    fn key() -> Vec<ExprProgram> {
        key_cols(&[(0, TypeId::I64)])
    }

    fn key_cols(cols: &[(usize, TypeId)]) -> Vec<ExprProgram> {
        cols.iter().map(|&(i, ty)| ExprProgram::compile(&PhysExpr::ColRef(i, ty))).collect()
    }

    fn join(left: BoxedOp, right: BoxedOp, jt: JoinType) -> HashJoin {
        let schema =
            if jt.emits_right() { schema_kv("l").join(&schema_kv("r")) } else { schema_kv("l") };
        HashJoin::new(left, right, key(), key(), jt, schema, CancelToken::new())
    }

    fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
        (0..b.rows()).map(|i| b.row_values(i)).collect()
    }

    #[test]
    fn inner_join_matches_pairs() {
        let l = source("l", vec![(Some(1), "a"), (Some(2), "b"), (Some(3), "c")]);
        let r = source("r", vec![(Some(2), "x"), (Some(3), "y"), (Some(3), "z")]);
        let mut j = join(l, r, JoinType::Inner);
        let out = drain(&mut j).unwrap();
        let mut rows = rows_of(&out);
        rows.sort_by_key(|r| (r[0].to_string(), r[3].to_string()));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::I64(2));
        assert_eq!(rows[1][3], Value::Str("y".into()));
        assert_eq!(rows[2][3], Value::Str("z".into()));
    }

    #[test]
    fn null_keys_never_match_in_inner_join() {
        let l = source("l", vec![(None, "a"), (Some(1), "b")]);
        let r = source("r", vec![(None, "x"), (Some(1), "y")]);
        let mut j = join(l, r, JoinType::Inner);
        let out = drain(&mut j).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row_values(0)[1], Value::Str("b".into()));
    }

    #[test]
    fn left_outer_pads_misses() {
        let l = source("l", vec![(Some(1), "a"), (Some(9), "b"), (None, "c")]);
        let r = source("r", vec![(Some(1), "x")]);
        let mut j = join(l, r, JoinType::LeftOuter);
        let out = drain(&mut j).unwrap();
        let mut rows = rows_of(&out);
        rows.sort_by_key(|r| r[1].to_string());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][2], Value::I64(1)); // matched
        assert_eq!(rows[1][2], Value::Null); // key 9 missed
        assert_eq!(rows[2][2], Value::Null); // NULL key missed
    }

    #[test]
    fn semi_emits_once_per_probe_row() {
        let l = source("l", vec![(Some(1), "a"), (Some(2), "b")]);
        let r = source("r", vec![(Some(1), "x"), (Some(1), "y")]);
        let mut j = join(l, r, JoinType::LeftSemi);
        let out = drain(&mut j).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row_values(0)[1], Value::Str("a".into()));
    }

    #[test]
    fn anti_emits_non_matching_including_null_probe() {
        let l = source("l", vec![(Some(1), "a"), (Some(9), "b"), (None, "c")]);
        let r = source("r", vec![(Some(1), "x")]);
        let mut j = join(l, r, JoinType::LeftAnti);
        let out = drain(&mut j).unwrap();
        let mut names: Vec<String> = rows_of(&out).iter().map(|r| r[1].to_string()).collect();
        names.sort();
        // NOT EXISTS: NULL probe key has no match → emitted.
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn null_aware_anti_with_build_null_emits_nothing() {
        // paper: "intricacies of the SQL semantics of anti-joins".
        // 9 NOT IN (1, NULL) → NULL → row dropped.
        let l = source("l", vec![(Some(9), "b"), (Some(1), "a")]);
        let r = source("r", vec![(Some(1), "x"), (None, "n")]);
        let mut j = join(l, r, JoinType::NullAwareLeftAnti);
        let out = drain(&mut j).unwrap();
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn null_aware_anti_without_build_null_behaves_like_anti() {
        let l = source("l", vec![(Some(9), "b"), (Some(1), "a"), (None, "c")]);
        let r = source("r", vec![(Some(1), "x")]);
        let mut j = join(l, r, JoinType::NullAwareLeftAnti);
        let out = drain(&mut j).unwrap();
        let names: Vec<String> = rows_of(&out).iter().map(|r| r[1].to_string()).collect();
        // NULL NOT IN (1) → NULL → dropped; 9 NOT IN (1) → true.
        assert_eq!(names, vec!["b"]);
    }

    #[test]
    fn null_aware_anti_empty_build_passes_everything() {
        let l = source("l", vec![(Some(9), "b"), (None, "c")]);
        let r = source("r", vec![]);
        let mut j = join(l, r, JoinType::NullAwareLeftAnti);
        let out = drain(&mut j).unwrap();
        assert_eq!(out.rows(), 2, "x NOT IN (empty) is TRUE for all x");
    }

    #[test]
    fn join_on_string_keys() {
        let schema = Schema::new(vec![Field::nullable("s", TypeId::Str)]).unwrap();
        let mk = |vals: Vec<&str>| -> BoxedOp {
            let rows = vals.into_iter().map(|s| vec![Value::Str(s.into())]).collect();
            Box::new(Values::new(schema.clone(), rows, 8, CancelToken::new()))
        };
        let mut j = HashJoin::new(
            mk(vec!["a", "b", "c"]),
            mk(vec!["b", "c", "d"]),
            key_cols(&[(0, TypeId::Str)]),
            key_cols(&[(0, TypeId::Str)]),
            JoinType::LeftSemi,
            schema.clone(),
            CancelToken::new(),
        );
        let out = drain(&mut j).unwrap();
        assert_eq!(out.rows(), 2);
    }

    #[test]
    fn multi_column_keys() {
        let schema =
            Schema::new(vec![Field::nullable("a", TypeId::I64), Field::nullable("b", TypeId::I64)])
                .unwrap();
        let mk = |rows: Vec<(i64, i64)>| -> BoxedOp {
            let rows = rows.into_iter().map(|(a, b)| vec![Value::I64(a), Value::I64(b)]).collect();
            Box::new(Values::new(schema.clone(), rows, 4, CancelToken::new()))
        };
        let keys = || key_cols(&[(0, TypeId::I64), (1, TypeId::I64)]);
        let mut j = HashJoin::new(
            mk(vec![(1, 10), (1, 20), (2, 10)]),
            mk(vec![(1, 10), (2, 20), (2, 10)]),
            keys(),
            keys(),
            JoinType::LeftSemi,
            schema.clone(),
            CancelToken::new(),
        );
        let out = drain(&mut j).unwrap();
        // Only (1,10) and (2,10) exist on both sides.
        assert_eq!(out.rows(), 2);
    }

    #[test]
    fn probe_profile_reports_chain_steps() {
        let l = source("l", vec![(Some(2), "a"), (Some(3), "b"), (Some(7), "c")]);
        let r = source("r", vec![(Some(2), "x"), (Some(3), "y"), (Some(3), "z")]);
        let mut j = join(l, r, JoinType::Inner);
        let _ = drain(&mut j).unwrap();
        let p = Operator::profile(&j).unwrap();
        assert_eq!(p.probe_rows, 3, "three probe keys hashed");
        assert!(p.probe_chain_steps >= 2, "matching lanes walked chains");
        assert!(p.avg_chain_len() > 0.0);
    }

    // Every build configuration (one slot, pooled above/below the gate,
    // governed ample/tight) × join type × key shape is checked against
    // the volcano engine in `tests/sql_semantics.rs::build_mode_matrix`.

    #[test]
    fn grace_spill_recursion_on_large_build() {
        use crate::partition::{MemBudget, SpillConfig};
        use vw_storage::SimulatedDisk;
        // Build input several times the budget: partitions spill, and
        // their recursive joins spill again on the next stratum (the
        // budget is shared down the cascade). Probe key k matches build
        // rows with the same k; half the probes miss.
        let n: i64 = 4000;
        let schema = Schema::new(vec![Field::nullable("k", TypeId::I64)]).unwrap();
        let mk = |vals: Vec<i64>| -> BoxedOp {
            let rows = vals.into_iter().map(|v| vec![Value::I64(v)]).collect();
            Box::new(Values::new(schema.clone(), rows, 256, CancelToken::new()))
        };
        let build: Vec<i64> = (0..n).collect();
        let probe: Vec<i64> = (0..2 * n).collect();
        let disk = SimulatedDisk::instant();
        // ~32 KB of staged build (4000 × 8B keys ×2 for key+col) against
        // a 4 KB budget ⇒ ≥ 4× over.
        let tracker = MemBudget::new(4 * 1024);
        let cfg = SpillConfig::new(tracker.clone(), disk.clone(), 4);
        let metrics = cfg.metrics.clone();
        let mut j = HashJoin::new(
            mk(probe),
            mk(build),
            key_cols(&[(0, TypeId::I64)]),
            key_cols(&[(0, TypeId::I64)]),
            JoinType::Inner,
            schema.join(&schema),
            CancelToken::new(),
        )
        .with_spill(cfg);
        let out = drain(&mut j).unwrap();
        assert_eq!(out.rows(), n as usize);
        for i in 0..out.rows() {
            let r = out.row_values(i);
            assert_eq!(r[0], r[1], "probe key equals matched build key");
        }
        use std::sync::atomic::Ordering;
        assert!(metrics.partitions.load(Ordering::Relaxed) >= 4, "all partitions spill");
        assert!(
            metrics.bytes_read.load(Ordering::Relaxed)
                >= metrics.bytes_written.load(Ordering::Relaxed) / 2,
            "spilled rows were rehydrated"
        );
        drop(j);
        assert_eq!(tracker.used(), 0, "budget fully uncharged");
        assert_eq!(disk.used_bytes(), 0, "all spill blocks reclaimed");
    }

    #[test]
    fn grace_spill_null_aware_anti_still_short_circuits() {
        use crate::partition::{MemBudget, SpillConfig};
        use vw_storage::SimulatedDisk;
        // Build contains a NULL key: NOT IN emits nothing, even though the
        // build spilled before the NULL arrived.
        let rows_l: Vec<(Option<i64>, &str)> = (0..50).map(|i| (Some(i), "p")).collect();
        let mut rows_r: Vec<(Option<i64>, &str)> = (0..40).map(|i| (Some(i + 25), "b")).collect();
        rows_r.push((None, "n")); // arrives last (batch size 4)
        let disk = SimulatedDisk::instant();
        let cfg = SpillConfig::new(MemBudget::new(1), disk.clone(), 4);
        let mut j = join(source("l", rows_l), source("r", rows_r), JoinType::NullAwareLeftAnti)
            .with_spill(cfg);
        let out = drain(&mut j).unwrap();
        assert_eq!(out.rows(), 0, "NOT IN against a NULL-bearing set is empty");
        drop(j);
        assert_eq!(disk.used_bytes(), 0);
    }

    #[test]
    fn large_join_correct_across_growth() {
        // Enough build rows to force several directory rebuilds, with a
        // known match pattern: probe key k matches build rows with key k%n.
        let n: i64 = 10_000;
        let schema = Schema::new(vec![Field::nullable("k", TypeId::I64)]).unwrap();
        let mk = |vals: Vec<i64>| -> BoxedOp {
            let rows = vals.into_iter().map(|v| vec![Value::I64(v)]).collect();
            Box::new(Values::new(schema.clone(), rows, 1024, CancelToken::new()))
        };
        let build: Vec<i64> = (0..n).collect();
        let probe: Vec<i64> = (0..2 * n).collect(); // half miss
        let mut j = HashJoin::new(
            mk(probe),
            mk(build),
            key_cols(&[(0, TypeId::I64)]),
            key_cols(&[(0, TypeId::I64)]),
            JoinType::Inner,
            schema.join(&schema),
            CancelToken::new(),
        );
        let out = drain(&mut j).unwrap();
        assert_eq!(out.rows(), n as usize);
        for i in 0..out.rows() {
            let r = out.row_values(i);
            assert_eq!(r[0], r[1], "probe key equals matched build key");
        }
    }
}
