//! Vectorized hash join over the bulk-built CSR hash table.
//!
//! **Build** (right child) and **probe** (left child) are two halves that
//! meet in one immutable value, the [`JoinBuild`].
//!
//! A build is a [`SharedBuild`] fed by one or more [`BuildSink`]s. A sink
//! drains its share of the build input into *private* slots — the
//! partitioned-build state machine of [`crate::partition`]: every batch's
//! non-NULL key lanes are hashed, routed to `P` slots and appended to the
//! owning slot's contiguous vectors straight from the batch, each column
//! once (a bare-column key *is* its payload column; semi and anti joins
//! stage no payload at all). Under the query's memory budget a sink evicts
//! its own largest slot to its own spill file. When the last sink has
//! deposited its slots, the finalize work is cut into units — one table
//! per slot (or a single one below the cost gate), bulk-built by
//! [`JoinTable::build`] over the sinks' hashes, and one
//! concatenation of the slots per build column — and whichever sink is
//! free claims the next unit; the one that finishes the last unit
//! publishes the [`JoinBuild`] and wakes whoever waits for it. A slot
//! evicted by any sink is on disk for all: what the other sinks still hold
//! of it is written out before the units are cut.
//!
//! A join outside an Exchange ([`HashJoin::new`]) owns a build with one
//! sink and steps it inline on its first `next`, finalize units included.
//! Inside an Exchange the build is *shared*
//! ([`HashJoin::probing`]): the compiler makes one `SharedBuild` per join,
//! its `dop` sinks run as cooperative tasks of the exchange
//! ([`super::xchg`]) over the partitioned build input, and every fragment
//! probes the one `Arc<JoinBuild>` — the build side is scanned, hashed,
//! staged, charged and resident once, whatever the DOP. Nothing waits on a
//! thread: a sink with nothing to claim yet, and a fragment whose build is
//! not published yet, report `Blocked` and are woken.
//!
//! **Probe** is vector-at-a-time. Against a single table the fused
//! per-type kernel hashes, walks and compares in one pass per lane;
//! against `P` tables the batch is hashed once, split by the build's radix
//! bits into the prober's own per-slot `SelVec`s, and the same kernels run
//! slot-wise with slot-local row ids rebased onto the concatenated build
//! columns, so output assembly is the same either way. All probe scratch
//! is per operator and reused across batches: the steady-state loop
//! allocates nothing.
//!
//! **Deferred phase** (governed builds that evicted): a prober diverts the
//! lanes of an evicted slot to its *own* probe spill file; once its probe
//! input is exhausted it lets go of the resident build and replays each
//! probe file against the slot's shared, read-only build files through an
//! inner `HashJoin` — same keys, same join type, the next hash-bit
//! stratum, the same budget — i.e. this component one level down. Workers
//! do not wait for each other: grace works at any DOP with no barrier
//! beyond the publish.
//!
//! Supports inner, left outer, left semi, left anti, and the **NULL-aware
//! left anti join** that gives `NOT IN` its treacherous SQL semantics — the
//! paper singles out exactly this: "intricacies of the SQL semantics of
//! anti-joins added significant complexity".
//!
//! NULL-aware anti join semantics (`x NOT IN (SELECT k ...)`):
//! * a probe row whose key matches any build row is dropped;
//! * if the build side contains **any** NULL key — seen by any sink —
//!   every non-matching probe row evaluates to NULL (dropped), so the
//!   operator emits nothing;
//! * a probe row with a NULL key is dropped unless the build side is empty;
//! * if the build side is empty, **all** probe rows pass (even NULL keys).

use super::{BoxedOp, Operator};
use crate::cancel::CancelToken;
use crate::hashtable::{self, JoinTable, EMPTY};
use crate::morsel::BatchPool;
use crate::partition::{Partitions, RadixRouter, SpillConfig, DEFAULT_PARALLEL_BUILD_MIN_ROWS};
use crate::profile::OpProfile;
use crate::program::{ExprProgram, VecRef, VectorPool};
use crate::spill::{SpillScan, SpillStage};
use crate::vector::{Batch, Vector};
use std::sync::atomic::{AtomicU8, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};
use vw_common::{ColData, Result, Schema, SelVec, TypeId, VwError};
use vw_service::{CoopTask, Step, Waker};
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
    /// Candidate slot index per lane (garbage outside the active set).
    cand: Vec<u32>,
    /// Row ids behind `cand` (see `JoinTable::candidate_rows`).
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

/// Which vectors a build stages, each build column at most once: the key
/// vectors first (so the probe kernels see them as one slice), then the
/// build columns no bare-column key already is. Joins that never emit the
/// right side stage the keys only — unless the build is governed, whose
/// evicted rows must be replayable in full.
#[derive(Debug, Clone)]
struct StageLayout {
    n_keys: usize,
    /// Build columns staged after the keys.
    rest: Vec<usize>,
    /// Where build column `c` is staged (empty when the payload is not).
    payload_at: Vec<usize>,
    /// The staged vectors' types.
    tys: Vec<TypeId>,
}

impl StageLayout {
    fn new(keys: &[ExprProgram], build_schema: &Schema, stage_payload: bool) -> StageLayout {
        let mut tys: Vec<TypeId> = keys.iter().map(|k| k.type_id()).collect();
        let (mut rest, mut payload_at) = (Vec::new(), Vec::new());
        if stage_payload {
            payload_at = vec![usize::MAX; build_schema.len()];
            for (k, prog) in keys.iter().enumerate() {
                if let Some(c) = prog.bare_col() {
                    if payload_at[c] == usize::MAX {
                        payload_at[c] = k;
                    }
                }
            }
            for (c, at) in payload_at.iter_mut().enumerate() {
                if *at == usize::MAX {
                    *at = tys.len();
                    tys.push(build_schema.fields[c].ty);
                    rest.push(c);
                }
            }
        }
        StageLayout { n_keys: keys.len(), rest, payload_at, tys }
    }

    /// The build columns, in schema order, out of staged vectors.
    fn payload<'a>(&self, vecs: &'a [Vector]) -> Vec<&'a Vector> {
        self.payload_at.iter().map(|&at| &vecs[at]).collect()
    }
}

/// An empty vector of `ty` with room for `rows` values (strings arrive
/// dictionary-coded more often than not: their value buffer is left to
/// grow on demand).
fn presized(ty: TypeId, rows: usize) -> Vector {
    Vector::new(match ty {
        TypeId::Str => ColData::new(ty),
        _ => ColData::with_capacity(ty, rows),
    })
}

/// What one build partition of one sink holds while the build runs: the
/// gathered rows and their hashes, waiting to become part of a CSR table
/// — or to be written to a spill file if the memory governor evicts the
/// slot.
struct JoinStage {
    /// One vector per [`StageLayout::tys`].
    vecs: Vec<Vector>,
    hashes: Vec<u64>,
    /// Approximate staged bytes (maintained for governed builds only).
    bytes: usize,
}

impl JoinStage {
    fn new(tys: &[TypeId], rows: usize) -> JoinStage {
        JoinStage {
            vecs: tys.iter().map(|&t| presized(t, rows)).collect(),
            hashes: Vec::with_capacity(rows),
            bytes: 0,
        }
    }

    /// Append the `sel` lanes of one batch's source vectors (`dense`: they
    /// are all of its lanes, in order — a plain copy). `charge` also
    /// accounts their approximate bytes (the unit the memory governor
    /// charges).
    fn append<'a>(
        &mut self,
        srcs: impl Iterator<Item = &'a Vector>,
        hashes: &[u64],
        sel: &SelVec,
        dense: bool,
        charge: bool,
    ) {
        for (dst, src) in self.vecs.iter_mut().zip(srcs) {
            if charge {
                self.bytes += gathered_bytes(dst, src, sel);
            }
            if dense {
                dst.extend_range(src, 0, src.len());
            } else {
                dst.extend_gather_sel(src, sel);
            }
        }
        if charge {
            self.bytes += sel.len() * 8;
        }
        if dense {
            self.hashes.extend_from_slice(&hashes[..sel.len()]);
        } else {
            self.hashes.extend(sel.iter().map(|p| hashes[p]));
        }
    }

    /// Free the staged rows (they were just written out), keeping the
    /// typed layout.
    fn clear(&mut self) {
        for v in &mut self.vecs {
            *v = Vector::new(ColData::new(v.type_id()));
        }
        self.hashes = Vec::new();
        self.bytes = 0;
    }
}

/// Approximate bytes a gather of `sel` from `v` onto `dst` will stage (the
/// unit the memory governor charges — matches [`Vector::byte_size`] of the
/// gathered result without materializing it first).
fn gathered_bytes(dst: &Vector, v: &Vector, sel: &SelVec) -> usize {
    if let Some((_, arena)) = v.dict_parts() {
        // Coded gathers stay coded onto an empty vector or one over the
        // same arena: 4 bytes of code per lane, and the arena itself the
        // first time the stage takes it (it may be a whole pack's
        // strings). Any other destination inflates the lanes.
        let held = dst.dict_parts().is_some_and(|(_, a)| Arc::ptr_eq(a, arena));
        if held || dst.is_empty() {
            let null_bytes = if v.nulls.is_some() { sel.len() } else { 0 };
            let adopted = if held { 0 } else { arena.byte_size() };
            return sel.len() * 4 + null_bytes + adopted;
        }
    }
    v.flat_bytes(sel)
}

/// Most rows one build keeps resident: build row ids are `u32`, and
/// [`EMPTY`] is taken.
const MAX_BUILD_ROWS: u64 = EMPTY as u64 - 1;

/// The resource limit of a build, checked where the total first becomes
/// known — before any table or column is allocated for it.
fn check_build_rows(rows: u64, limit: u64) -> Result<()> {
    if rows > limit {
        return Err(VwError::Plan(format!(
            "join build side of {rows} rows exceeds the {limit} rows one hash build can address"
        )));
    }
    Ok(())
}

/// A finished build — plain immutable data, shared by every prober: the
/// tables (one per slot, or a single one), each table's base
/// offset into the slot-order concatenated build rows, and the rows
/// themselves. An evicted slot keeps an empty table and the files its rows
/// went to; its probe lanes are diverted to a spill file before any probe
/// runs.
pub struct JoinBuild {
    tables: Vec<JoinTable>,
    bases: Vec<u32>,
    /// The build rows, laid out by [`StageLayout`]: keys, then the rest.
    staged: Vec<Vector>,
    n_keys: usize,
    payload_at: Vec<usize>,
    /// A NULL key arrived on the build side (dropped there — NULL never
    /// matches — but the NULL-aware anti join needs to know).
    has_null_key: bool,
    /// Per slot, the spill files of an evicted slot's rows (one per sink
    /// that held any); empty for a resident slot.
    files: Vec<Vec<Arc<SpillFile>>>,
    /// The governor the build ran under; probers divert and recurse with it.
    spill: Option<SpillConfig>,
    /// The sinks' partition sets, emptied of rows: what they still charge
    /// the budget is the resident rows, returned when the build drops.
    _charges: Vec<Partitions<JoinStage>>,
}

impl JoinBuild {
    fn keys(&self) -> &[Vector] {
        &self.staged[..self.n_keys]
    }

    fn is_spilled(&self, si: usize) -> bool {
        !self.files[si].is_empty()
    }

    fn any_spilled(&self) -> bool {
        self.files.iter().any(|f| !f.is_empty())
    }

    /// A router splitting probe hashes the way the sinks split build rows
    /// (`None` for a single table: nothing to route).
    fn router(&self) -> Option<RadixRouter> {
        (self.tables.len() > 1).then(|| {
            let depth = self.spill.as_ref().map_or(0, |cfg| cfg.depth);
            RadixRouter::at_depth(self.tables.len(), depth)
        })
    }
}

/// Finalize work one sink can do on its own.
enum Unit {
    /// Bulk-build table `idx` over these hash runs, in order.
    Table { idx: usize, hashes: Vec<Vec<u64>> },
    /// Concatenate the resident stages' vector `at`, in table order, into
    /// the build's, of `rows` rows.
    Column { at: usize, pieces: Vec<Vector>, rows: usize },
}

const PENDING: u8 = 0;
const READY: u8 = 1;
const FAILED: u8 = 2;

struct BuildState {
    /// Sinks that have not deposited their slots yet.
    draining: usize,
    deposits: Vec<Partitions<JoinStage>>,
    has_null_key: bool,
    rows_in: u64,
    /// Unclaimed finalize work, and how much is claimed or unclaimed.
    units: Vec<Unit>,
    unfinished: usize,
    /// The build under assembly (between the last deposit and the publish).
    assembling: Option<JoinBuild>,
    /// How the build ended; the `Ok` is dropped once every prober took it.
    outcome: Option<Result<Arc<JoinBuild>>>,
    probers_left: usize,
}

/// The build side of one join: what its sinks, its finalizers and its
/// probers share. See the module docs for the life cycle.
pub struct SharedBuild {
    right_keys: Vec<ExprProgram>,
    build_schema: Schema,
    join_type: JoinType,
    layout: StageLayout,
    cancel: CancelToken,
    /// Sinks that deposit (and probers that take the result).
    sinks: usize,
    /// Slots of an ungoverned build, and the build rows below which they
    /// still make one table.
    slots: usize,
    min_rows: usize,
    spill: Option<SpillConfig>,
    /// Expected build rows (0 = unknown): the stages are sized for it.
    rows_hint: usize,
    /// `state.outcome`, readable without the lock.
    phase: AtomicU8,
    state: Mutex<BuildState>,
    /// Tasks to wake when the sinks have all deposited, and when the
    /// build is published or fails.
    waiters: Mutex<Vec<Waker>>,
}

impl SharedBuild {
    /// The build side of a `join_type` join on `right_keys` over rows of
    /// `build_schema`, fed by `sinks` sinks and probed by as many probers
    /// (1 and 1 for a join that builds for itself): one slot, no budget.
    pub fn new(
        right_keys: Vec<ExprProgram>,
        build_schema: Schema,
        join_type: JoinType,
        sinks: usize,
        cancel: CancelToken,
    ) -> SharedBuild {
        assert!(!right_keys.is_empty(), "joins require at least one key");
        let sinks = sinks.max(1);
        SharedBuild {
            layout: StageLayout::new(&right_keys, &build_schema, join_type.emits_right()),
            right_keys,
            build_schema,
            join_type,
            cancel,
            sinks,
            slots: 1,
            min_rows: DEFAULT_PARALLEL_BUILD_MIN_ROWS,
            spill: None,
            rows_hint: 0,
            phase: AtomicU8::new(PENDING),
            state: Mutex::new(BuildState {
                draining: sinks,
                deposits: Vec::with_capacity(sinks),
                has_null_key: false,
                rows_in: 0,
                units: Vec::new(),
                unfinished: 0,
                assembling: None,
                outcome: None,
                probers_left: sinks,
            }),
            waiters: Mutex::new(Vec::new()),
        }
    }

    /// Route the build rows to `slots` slots (rounded up to a power of
    /// two) and, once they are at least `min_rows`, build and probe one
    /// table per slot; smaller builds still make a single table. Ignored
    /// under a memory budget ([`SharedBuild::governed`] wins).
    pub fn partitioned(mut self, slots: usize, min_rows: usize) -> SharedBuild {
        self.slots = slots;
        self.min_rows = min_rows;
        self
    }

    /// Run under the query's memory governor: the slots are `cfg`'s
    /// hash-bit stratum, every sink charges `cfg.budget` for what it
    /// stages and evicts its own largest slot while the query is over.
    pub fn governed(mut self, cfg: SpillConfig) -> SharedBuild {
        self.layout = StageLayout::new(&self.right_keys, &self.build_schema, true);
        self.spill = Some(cfg);
        self
    }

    /// Size the stages for about `rows` build rows in all.
    pub fn expecting(mut self, rows: usize) -> SharedBuild {
        self.rows_hint = rows;
        self
    }

    /// One of this build's sinks over `input` (`None`: a sink with no
    /// share of the input — a build child that cannot be partitioned is
    /// drained by one sink, the others only help finalize). The sink
    /// starts once every build in `deps` — the builds `input` probes — is
    /// published. `batch_pool` takes the drained input batches back.
    pub fn sink(
        self: &Arc<Self>,
        input: Option<BoxedOp>,
        deps: Vec<Arc<SharedBuild>>,
        batch_pool: Option<BatchPool>,
    ) -> Result<BuildSink> {
        let slots = self.spill.as_ref().map_or(self.slots, |cfg| cfg.partitions);
        let tys = &self.layout.tys;
        // Over-reserving costs address space only; an estimate gone wild
        // is capped all the same.
        let rows = if input.is_some() { self.rows_hint.min(1 << 22) } else { 0 };
        let mut per_slot = rows / self.sinks / slots.max(1).next_power_of_two();
        per_slot += per_slot / 8;
        let parts =
            Partitions::new(slots, self.spill.clone(), || Ok(JoinStage::new(tys, per_slot)))?;
        Ok(BuildSink {
            build: self.clone(),
            input,
            deps,
            parts: Some(parts),
            has_null_key: false,
            rows_in: 0,
            pool: VectorPool::new(),
            batch_pool,
            scratch: ProbeScratch::default(),
        })
    }

    /// Has the build been published? An `Err` is the failure that ended
    /// it instead.
    fn ready(&self) -> Result<bool> {
        match self.phase.load(SeqCst) {
            PENDING => Ok(false),
            READY => Ok(true),
            _ => match &self.lock().outcome {
                Some(Err(e)) => Err(e.clone()),
                _ => unreachable!("a failed build keeps its error"),
            },
        }
    }

    /// Are all of `deps` published? Drops the ones seen published; an
    /// `Err` is the failure of one of them. A task that gets `false`
    /// reports `Blocked`: the publish it waits for wakes it.
    pub fn all_ready(deps: &mut Vec<Arc<SharedBuild>>) -> Result<bool> {
        while let Some(dep) = deps.last() {
            if !dep.ready()? {
                return Ok(false);
            }
            deps.pop();
        }
        Ok(true)
    }

    /// Wake `waker`'s task whenever this build moves on: its sinks have
    /// all deposited, it is published, it failed. Subscribe before any of
    /// the build's tasks first runs.
    pub fn subscribe(&self, waker: Waker) {
        self.waiters.lock().expect("build waiters poisoned").push(waker);
    }

    /// Rows that entered the build, over all sinks (NULL-keyed ones
    /// included).
    pub fn rows_in(&self) -> u64 {
        self.lock().rows_in
    }

    /// Did any sink see a NULL key?
    pub fn has_null_key(&self) -> bool {
        self.lock().has_null_key
    }

    fn lock(&self) -> MutexGuard<'_, BuildState> {
        self.state.lock().expect("join build state poisoned")
    }

    fn wake_all(&self, done: bool) {
        let waiters = {
            let mut w = self.waiters.lock().expect("build waiters poisoned");
            if done {
                std::mem::take(&mut *w)
            } else {
                w.clone()
            }
        };
        // Outside every lock: on a closed pool a wake runs the task here.
        waiters.iter().for_each(Waker::wake);
    }

    /// One prober's reference to the published build.
    fn take_build(&self) -> Result<Arc<JoinBuild>> {
        let mut st = self.lock();
        let build = match &st.outcome {
            Some(Ok(build)) => build.clone(),
            Some(Err(e)) => return Err(e.clone()),
            None => {
                return Err(VwError::Plan(
                    "hash join probed with no published build to probe".into(),
                ))
            }
        };
        st.probers_left = st.probers_left.saturating_sub(1);
        if st.probers_left == 0 {
            // The probers own it from here: the last one to finish its
            // in-memory probe frees the rows and returns their charge.
            st.outcome = None;
        }
        Ok(build)
    }

    /// The build ended in `err`: every task waiting for it gets the error.
    fn fail(&self, err: VwError) {
        {
            let mut st = self.lock();
            if st.outcome.is_some() {
                return;
            }
            st.outcome = Some(Err(err));
            st.deposits.clear();
            st.units.clear();
            st.assembling = None;
            self.phase.store(FAILED, SeqCst);
        }
        self.wake_all(true);
    }

    /// A sink's input is exhausted: take its slots. The last deposit cuts
    /// the finalize work and wakes the sinks parked for it.
    fn deposit(
        &self,
        parts: Partitions<JoinStage>,
        has_null_key: bool,
        rows_in: u64,
    ) -> Result<()> {
        {
            let mut st = self.lock();
            if let Some(Err(e)) = &st.outcome {
                return Err(e.clone());
            }
            st.deposits.push(parts);
            st.has_null_key |= has_null_key;
            st.rows_in += rows_in;
            st.draining -= 1;
            if st.draining > 0 {
                return Ok(());
            }
            self.plan(&mut st)?;
        }
        self.wake_all(false);
        Ok(())
    }

    /// Every sink has deposited: write out what is left in memory of
    /// slots some sink evicted, check the resident total against the row
    /// limit, and cut the rest into [`Unit`]s.
    fn plan(&self, st: &mut BuildState) -> Result<()> {
        let slots = st.deposits[0].partitions();
        // [sink][slot]
        let mut stages: Vec<Vec<JoinStage>> =
            st.deposits.iter_mut().map(Partitions::take_slots).collect();
        let mut files = vec![Vec::new(); slots];
        for (si, slot_files) in files.iter_mut().enumerate() {
            if !st.deposits.iter().any(|d| d.is_spilled(si)) {
                continue;
            }
            for (parts, own) in st.deposits.iter_mut().zip(&mut stages) {
                let stage = &mut own[si];
                if !stage.hashes.is_empty() {
                    parts.spill_stage(si).append(&self.layout.payload(&stage.vecs))?;
                    stage.clear();
                    parts.recharge(si, 0);
                }
                if let Some(spilled) = parts.take_stage(si) {
                    slot_files.push(Arc::new(spilled.finish()?));
                }
            }
        }
        let slot_rows: Vec<usize> =
            (0..slots).map(|si| stages.iter().map(|own| own[si].hashes.len()).sum()).collect();
        let rows: usize = slot_rows.iter().sum();
        check_build_rows(rows as u64, MAX_BUILD_ROWS)?;

        let fan_out = slots > 1 && (self.spill.is_some() || rows >= self.min_rows);
        let table_rows = if fan_out { slot_rows } else { vec![rows] };
        let mut bases = Vec::with_capacity(table_rows.len());
        let mut base = 0u32;
        for &n in &table_rows {
            bases.push(base);
            base += n as u32;
        }
        // Slot-major, sink-minor: the order of the build's row ids.
        let tys = &self.layout.tys;
        let mut hashes: Vec<Vec<Vec<u64>>> = table_rows.iter().map(|_| Vec::new()).collect();
        let mut pieces: Vec<Vec<Vector>> = tys.iter().map(|_| Vec::new()).collect();
        for si in 0..slots {
            for own in &mut stages {
                let stage = &mut own[si];
                if !stage.hashes.is_empty() {
                    hashes[if fan_out { si } else { 0 }].push(std::mem::take(&mut stage.hashes));
                    for (pieces, v) in pieces.iter_mut().zip(stage.vecs.drain(..)) {
                        pieces.push(v);
                    }
                }
            }
        }
        let columns = pieces.into_iter().enumerate();
        st.units = columns.map(|(at, pieces)| Unit::Column { at, pieces, rows }).collect();
        st.units.extend(
            hashes.into_iter().enumerate().map(|(idx, hashes)| Unit::Table { idx, hashes }),
        );
        st.unfinished = st.units.len();
        st.assembling = Some(JoinBuild {
            tables: table_rows.iter().map(|_| JoinTable::default()).collect(),
            bases,
            staged: tys.iter().map(|&t| presized(t, 0)).collect(),
            n_keys: self.layout.n_keys,
            payload_at: self.layout.payload_at.clone(),
            has_null_key: st.has_null_key,
            files,
            spill: self.spill.clone(),
            _charges: std::mem::take(&mut st.deposits),
        });
        Ok(())
    }

    /// Claim and run one unit of finalize work. `Blocked` while sinks are
    /// still draining (the last deposit wakes), `Done` when nothing is
    /// left to claim — the sink finishing the last unit publishes.
    fn finalize_step(&self) -> Result<Step> {
        let unit = {
            let mut st = self.lock();
            if let Some(Err(e)) = &st.outcome {
                return Err(e.clone());
            }
            if st.draining > 0 {
                return Ok(Step::Blocked);
            }
            match st.units.pop() {
                Some(unit) => unit,
                None => return Ok(Step::Done),
            }
        };
        enum Built {
            Table(usize, JoinTable),
            Column(usize, Vector),
        }
        let built = match unit {
            Unit::Table { idx, hashes } => {
                let runs: Vec<&[u64]> = hashes.iter().map(Vec::as_slice).collect();
                Built::Table(idx, JoinTable::build(&runs))
            }
            // One stage holds it all (every P = 1 build of one sink): its
            // vectors are the build columns, nothing is copied.
            Unit::Column { at, mut pieces, .. } if pieces.len() == 1 => {
                Built::Column(at, pieces.pop().expect("one piece"))
            }
            Unit::Column { at, pieces, rows } => {
                let mut all = presized(self.layout.tys[at], rows);
                for piece in pieces {
                    all.extend_range(&piece, 0, piece.len()); // and the piece is freed
                }
                Built::Column(at, all)
            }
        };
        {
            let mut st = self.lock();
            // A failure meanwhile dropped the build under assembly.
            let Some(build) = &mut st.assembling else { return Ok(Step::Done) };
            match built {
                Built::Table(idx, table) => build.tables[idx] = table,
                Built::Column(at, column) => build.staged[at] = column,
            }
            st.unfinished -= 1;
            if st.unfinished > 0 {
                return Ok(Step::Progress);
            }
            let build = st.assembling.take().expect("checked above");
            st.outcome = Some(Ok(Arc::new(build)));
            self.phase.store(READY, SeqCst);
        }
        self.wake_all(true);
        Ok(Step::Done)
    }
}

/// One sink of a [`SharedBuild`]: drains its input into private slots,
/// deposits them, then helps finalize. A cooperative task inside an
/// Exchange ([`super::xchg`]); stepped inline by a join that builds for
/// itself.
pub struct BuildSink {
    build: Arc<SharedBuild>,
    input: Option<BoxedOp>,
    /// Builds the input probes, not yet seen published.
    deps: Vec<Arc<SharedBuild>>,
    /// The private slots while draining; `None` once deposited.
    parts: Option<Partitions<JoinStage>>,
    has_null_key: bool,
    rows_in: u64,
    pool: VectorPool,
    batch_pool: Option<BatchPool>,
    /// Hashing and lane-selection scratch (the probe's, as far as it goes).
    scratch: ProbeScratch,
}

impl BuildSink {
    /// The builds whose progress this sink's task must be woken for: the
    /// ones its input probes, and its own.
    pub fn subscriptions(&self) -> impl Iterator<Item = &Arc<SharedBuild>> {
        self.deps.iter().chain(std::iter::once(&self.build))
    }

    /// Stage one input batch into the private slots.
    fn stage(&mut self, batch: Batch) -> Result<()> {
        let BuildSink { build, parts, pool, scratch, .. } = self;
        let ProbeScratch { refs, lanes, hashes, live, nonnull, .. } = scratch;
        let parts = parts.as_mut().expect("staging before the deposit");
        build.cancel.check()?;
        // Run the compiled key programs; results live in the pool until
        // `recycle` at the end of this batch.
        refs.clear();
        for prog in &build.right_keys {
            refs.push(prog.run(pool, &batch)?);
        }
        {
            // Single-key joins (the common case) resolve through a stack
            // array — a per-batch `Vec` here would be the one steady-state
            // allocation left in the pipeline.
            let single_key;
            let multi_keys: Vec<&Vector>;
            let keys: &[&Vector] = if refs.len() == 1 {
                single_key = [pool.get(&batch, refs[0])];
                &single_key
            } else {
                multi_keys = refs.iter().map(|&r| pool.get(&batch, r)).collect();
                &multi_keys
            };
            match &batch.sel {
                Some(sel) => live.clear_and_extend_from_slice(sel.as_slice()),
                None => live.fill_identity(batch.capacity()),
            }
            self.rows_in += live.len() as u64;
            // NULL keys never match any probe: drop them at build time and
            // remember they existed (NULL-aware anti join needs to know).
            live.retain_from(|p| !keys.iter().any(|k| k.is_null(p)), nonnull);
            self.has_null_key |= nonnull.len() != live.len();
            if !nonnull.is_empty() {
                let n = batch.capacity();
                hashtable::hash_keys(keys.iter().copied(), n, false, lanes, hashes);
                parts.route(hashes, nonnull, n);
                let governed = build.spill.is_some();
                for si in 0..parts.partitions() {
                    if parts.is_spilled(si) {
                        // Already evicted: rows are staged for disk (the
                        // build columns only — keys and hashes are program
                        // outputs, recomputed at rehydration).
                        if !parts.routed(si).is_empty() {
                            parts.push_spilled(si, &batch.columns)?;
                        }
                        continue;
                    }
                    let (sel, stage) = parts.lane(si, nonnull);
                    if !sel.is_empty() {
                        let rest = build.layout.rest.iter().map(|&c| &batch.columns[c]);
                        let srcs = keys.iter().copied().chain(rest);
                        stage.append(srcs, hashes, sel, sel.len() == n, governed);
                        let bytes = stage.bytes;
                        parts.recharge(si, bytes);
                    }
                }
                parts.evict_while_over(|_, stage, spilled| {
                    spilled.append(&build.layout.payload(&stage.vecs))?;
                    stage.clear();
                    Ok(())
                })?;
            }
        }
        pool.recycle();
        if let Some(bp) = &self.batch_pool {
            bp.recycle(batch); // build rows staged: batch goes back
        }
        Ok(())
    }
}

impl CoopTask for BuildSink {
    fn step(&mut self) -> Result<Step> {
        if !SharedBuild::all_ready(&mut self.deps)? {
            return Ok(Step::Blocked);
        }
        if self.parts.is_some() {
            if let Some(batch) = self.input.as_mut().map(|i| i.next()).transpose()?.flatten() {
                self.stage(batch)?;
                return Ok(Step::Progress);
            }
            self.input = None;
            let parts = self.parts.take().expect("checked above");
            self.build.deposit(parts, self.has_null_key, self.rows_in)?;
        }
        self.build.finalize_step()
    }

    fn fail(&mut self, err: VwError) {
        self.parts = None;
        self.build.fail(err);
    }
}

/// The build side of a join that builds for itself, until its first
/// `next` runs it.
struct OwnBuild {
    build: SharedBuild,
    right: BoxedOp,
}

/// Hash join operator (right side = build, left side = probe).
pub struct HashJoin {
    left: BoxedOp,
    left_keys: Vec<ExprProgram>,
    join_type: JoinType,
    schema: Schema,
    pool: VectorPool,
    cancel: CancelToken,
    /// The build side still to run ([`HashJoin::new`]); taken by the first
    /// `next`, which leaves its `SharedBuild` in `shared`.
    own: Option<OwnBuild>,
    /// The build this join probes (`None` only until an own build ran).
    shared: Option<Arc<SharedBuild>>,
    /// The published build (None before it is taken and after the last
    /// in-memory probe, when the deferred phase has let go of it).
    build: Option<Arc<JoinBuild>>,
    /// Splits probe hashes across a multi-table build's slots.
    router: Option<RadixRouter>,
    /// Probe rows diverted per evicted slot, staged into this prober's own
    /// files a chunk at a time.
    probe_spill: Vec<Option<SpillStage>>,
    scratch: ProbeScratch,
    batch_pool: Option<BatchPool>,
    out_types: Vec<TypeId>,
    /// Kept for replaying spilled probe rows through a [`SpillScan`] in
    /// the deferred phase.
    probe_schema: Schema,
    /// Spilled partition pairs awaiting the deferred (recursive) joins:
    /// the slot's shared build files, and this prober's probe file.
    deferred: Vec<(Vec<Arc<SpillFile>>, SpillFile)>,
    /// The recursive join currently draining one spilled partition pair.
    inner: Option<Box<HashJoin>>,
    /// Has the probe input been exhausted (deferred phase reached)?
    probe_done: bool,
    profile: OpProfile,
}

impl HashJoin {
    /// A join that builds for itself: the first `next` drains `right`
    /// through a one-sink [`SharedBuild`], inline. `schema` must match the
    /// join type's output layout (left columns, then right columns for
    /// inner/outer joins).
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
        let build =
            SharedBuild::new(right_keys, right.schema().clone(), join_type, 1, cancel.clone());
        let own = OwnBuild { build, right };
        HashJoin::over(left, left_keys, join_type, schema, cancel, Some(own), None)
    }

    /// A join over a build it shares with the other fragments of its
    /// Exchange: `shared`'s sinks run as tasks of the exchange, which does
    /// not step this fragment before the build is published.
    pub fn probing(
        left: BoxedOp,
        shared: Arc<SharedBuild>,
        left_keys: Vec<ExprProgram>,
        schema: Schema,
        cancel: CancelToken,
    ) -> HashJoin {
        assert_eq!(left_keys.len(), shared.right_keys.len());
        HashJoin::over(left, left_keys, shared.join_type, schema, cancel, None, Some(shared))
    }

    fn over(
        left: BoxedOp,
        left_keys: Vec<ExprProgram>,
        join_type: JoinType,
        schema: Schema,
        cancel: CancelToken,
        own: Option<OwnBuild>,
        shared: Option<Arc<SharedBuild>>,
    ) -> HashJoin {
        assert!(!left_keys.is_empty(), "joins require at least one key");
        HashJoin {
            out_types: schema.fields.iter().map(|f| f.ty).collect(),
            probe_schema: left.schema().clone(),
            left,
            left_keys,
            join_type,
            schema,
            pool: VectorPool::new(),
            cancel,
            own,
            shared,
            build: None,
            router: None,
            probe_spill: Vec::new(),
            scratch: ProbeScratch::default(),
            batch_pool: None,
            deferred: Vec::new(),
            inner: None,
            probe_done: false,
            profile: OpProfile::default(),
        }
    }

    /// Join the pipeline's batch free-list: build and probe input batches
    /// are recycled once staged/gathered, and output batches lease
    /// recycled buffers instead of allocating per batch.
    pub fn with_batch_pool(mut self, pool: BatchPool) -> HashJoin {
        self.batch_pool = Some(pool);
        self
    }

    /// Reconfigure the build of a join that builds for itself, before it
    /// runs (a probing join's build is configured where it is made).
    fn own_build(mut self, f: impl FnOnce(SharedBuild) -> SharedBuild) -> HashJoin {
        let own = self.own.take().expect("the join owns a build that has not run");
        self.own = Some(OwnBuild { build: f(own.build), ..own });
        self
    }

    /// Attach the query's memory governor to the own build: it partitions
    /// on `cfg`'s hash-bit stratum and charges `cfg.budget` as slots stage
    /// rows. When the query runs over budget, the largest slot's rows move
    /// to a temp spill file; probe rows routed to an evicted slot divert
    /// to a matching probe spill file, and after the probe input is
    /// exhausted each spilled pair replays through a recursive `HashJoin`
    /// (same keys, same join type, next hash-bit stratum) whose output
    /// streams out as this operator's.
    pub fn with_spill(self, cfg: SpillConfig) -> HashJoin {
        self.own_build(|b| b.governed(cfg))
    }

    /// Size the own build's stage for about `rows` build rows.
    pub fn expecting_build_rows(self, rows: usize) -> HashJoin {
        self.own_build(|b| b.expecting(rows))
    }

    /// Run the own build: one sink over the right child, stepped here to
    /// its end — the drain, the deposit and every finalize unit.
    fn run_own_build(&mut self, own: OwnBuild) -> Result<Arc<SharedBuild>> {
        let build = Arc::new(own.build);
        let mut sink = build.sink(Some(own.right), Vec::new(), self.batch_pool.clone())?;
        loop {
            match sink.step() {
                Ok(Step::Done) => break,
                Ok(_) => {}
                Err(e) => {
                    build.fail(e.clone());
                    return Err(e);
                }
            }
        }
        Ok(build)
    }

    /// First `next`: run the own build if there is one, then take this
    /// prober's reference to the published build.
    fn attach_build(&mut self) -> Result<()> {
        if let Some(own) = self.own.take() {
            self.shared = Some(self.run_own_build(own)?);
        }
        let build = self.shared.as_ref().expect("a join has a build side").take_build()?;
        for (si, table) in build.tables.iter().enumerate() {
            self.profile.record_shard_build(si, table.len() as u64);
        }
        self.profile.spill = build.spill.as_ref().map(|cfg| cfg.metrics.clone());
        self.router = build.router();
        self.probe_spill.resize_with(build.tables.len(), || None);
        self.build = Some(build);
        Ok(())
    }

    /// Assemble the output batch from the recorded pairs, gathering into
    /// a leased (or fresh) output batch so steady-state assembly reuses
    /// the buffers the consumer recycled.
    fn assemble(&mut self, batch: &Batch) -> Result<Option<Batch>> {
        let s = &self.scratch;
        if s.out_probe.is_empty() {
            return Ok(None);
        }
        let build = self.build.as_ref().expect("built before probing");
        let right_cols = if self.join_type.emits_right() { build.payload_at.len() } else { 0 };
        if batch.columns.len() + right_cols != self.schema.len() {
            return Err(VwError::Plan(format!(
                "join schema arity mismatch: {} vs {}",
                batch.columns.len() + right_cols,
                self.schema.len()
            )));
        }
        let mut out = BatchPool::lease_or_new(self.batch_pool.as_ref(), &self.out_types, 0);
        for (src, dst) in batch.columns.iter().zip(&mut out.columns) {
            src.gather_indices_into(&s.out_probe, dst);
        }
        if self.join_type.emits_right() {
            // One sentinel scan per batch, not per column — only outer
            // joins ever pad, and their all-matched batches skip the
            // NULL-indicator machinery entirely.
            let padded = self.join_type == JoinType::LeftOuter && s.out_build.contains(&EMPTY);
            let right = &mut out.columns[batch.columns.len()..];
            for (&at, dst) in build.payload_at.iter().zip(right) {
                let src = &build.staged[at];
                if padded {
                    src.gather_indices_padded_into(&s.out_build, EMPTY, dst);
                } else {
                    src.gather_indices_into(&s.out_build, dst);
                }
            }
        }
        Ok(Some(out))
    }

    /// The deferred phase of a governed build: once this prober's input
    /// is exhausted it lets go of the in-memory build — the last prober to
    /// do so frees it and returns its budget charge — and replays each of
    /// its probe files against the slot's shared build files through a
    /// recursive `HashJoin`: [`SpillScan`]s feed the same key programs and
    /// join type, on the next hash-bit stratum, sharing the same budget
    /// and counters — whose output streams out as this operator's.
    fn next_deferred(&mut self) -> Result<Option<Batch>> {
        if !self.probe_done {
            self.probe_done = true;
            let build = self.build.take().expect("deferred phase follows the build");
            for (si, stage) in self.probe_spill.iter_mut().enumerate() {
                // A spilled slot no probe row was routed to has no output
                // row (every join type here is probe-driven).
                if let Some(stage) = stage.take() {
                    debug_assert!(build.is_spilled(si), "probe diverted to a resident partition");
                    self.deferred.push((build.files[si].clone(), stage.finish()?));
                }
            }
        }
        let shared = self.shared.clone().expect("a join has a build side");
        let cfg = shared.spill.clone().expect("deferred phase is governed-only");
        loop {
            self.cancel.check()?;
            if let Some(inner) = &mut self.inner {
                match inner.next()? {
                    Some(b) => return Ok(Some(b)),
                    None => self.inner = None,
                }
            }
            let Some((build_files, probe_file)) = self.deferred.pop() else {
                return Ok(None);
            };
            let scan = |files, schema: &Schema| -> BoxedOp {
                Box::new(SpillScan::new(
                    files,
                    schema.clone(),
                    self.cancel.clone(),
                    cfg.metrics.clone(),
                ))
            };
            let mut inner = HashJoin::new(
                scan(vec![Arc::new(probe_file)], &self.probe_schema),
                scan(build_files, &shared.build_schema),
                self.left_keys.clone(),
                shared.right_keys.clone(),
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
/// `scratch.matched_flags` for all.
///
/// A free function over disjoint operator fields: the probe keys are pool
/// references, so `&mut self` is off the table while they are alive.
///
/// A single-table build probes through the fused kernels directly. A
/// partitioned one hashes the batch once and splits it by the build's
/// radix bits into the prober's reused per-slot `SelVec`s; resident slots
/// run the same kernels over their sub-selection (emitted build rows
/// rebased to global ids), while lanes owned by an evicted slot are
/// *diverted*: their full rows go to this prober's probe spill file for
/// the slot and leave `live`/`nonnull`, so flag-based emission never sees
/// them — their entire join result (matches, padding, anti emission) comes
/// from the deferred join.
#[allow(clippy::too_many_arguments)]
fn probe_batch(
    build: &JoinBuild,
    router: Option<&mut RadixRouter>,
    probe_spill: &mut [Option<SpillStage>],
    join_type: JoinType,
    s: &mut ProbeScratch,
    keys: &[&Vector],
    batch: &Batch,
) -> Result<()> {
    let emit_pairs = !join_type.first_match_only();
    let n = keys.first().map_or(0, |k| k.len());
    // Reset per-lane flags only for the lanes this batch owns.
    if s.matched_flags.len() < n {
        s.matched_flags.resize(n, false);
    }
    for p in s.live.iter() {
        s.matched_flags[p] = false;
    }
    let Some(router) = router else {
        probe_one(&build.tables[0], build.keys(), s, keys, None, 0, emit_pairs, false);
        return Ok(());
    };
    hashtable::hash_keys(keys.iter().copied(), n, false, &mut s.lanes, &mut s.hashes);
    // A full-length sorted selection is the identity: skip the indirection.
    router.split(&s.hashes, (s.nonnull.len() != n).then_some(&s.nonnull), n);
    let mut diverted = false;
    for (si, table) in build.tables.iter().enumerate() {
        let sel = router.shard_sel(si);
        if sel.is_empty() {
            continue;
        }
        if build.is_spilled(si) {
            let cfg = build.spill.as_ref().expect("spilled implies governed");
            let stage = probe_spill[si].get_or_insert_with(|| SpillStage::new(cfg));
            stage.push(&batch.columns, sel)?;
            stage.flush_if_over()?;
            if s.deferred_flags.len() < n {
                s.deferred_flags.resize(n, false);
            }
            for p in sel.iter() {
                s.deferred_flags[p] = true;
            }
            diverted = true;
            continue;
        }
        probe_one(table, build.keys(), s, keys, Some(sel), build.bases[si], emit_pairs, true);
    }
    if diverted {
        let flags = &s.deferred_flags;
        s.nonnull.retain_from(|p| !flags[p], &mut s.tmp);
        std::mem::swap(&mut s.nonnull, &mut s.tmp);
        s.live.retain_from(|p| !flags[p], &mut s.tmp);
        std::mem::swap(&mut s.live, &mut s.tmp);
        // Clear the flags we set (only evicted slots' lanes carry them).
        for si in (0..build.tables.len()).filter(|&si| build.is_spilled(si)) {
            for p in router.shard_sel(si).iter() {
                s.deferred_flags[p] = false;
            }
        }
    }
    Ok(())
}

/// Probe one table (the only one, or one partition's) over one lane set.
/// `sel = None` derives the selection from `scratch.nonnull` (single table);
/// `Some` probes an externally-routed sub-selection. `base` rebases the
/// table's local build row ids onto the global build columns. `prehashed`
/// promises `scratch.hashes` already holds this batch's key hashes.
#[allow(clippy::too_many_arguments)]
fn probe_one(
    table: &JoinTable,
    build_keys: &[Vector],
    s: &mut ProbeScratch,
    keys: &[&Vector],
    sel: Option<&SelVec>,
    base: u32,
    emit_pairs: bool,
    prehashed: bool,
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
    probe_general(table, build_keys, s, keys, sel, base, emit_pairs, prehashed);
}

/// General vectorized probe: gather hash-matching candidates for all
/// lanes, then iteratively confirm keys and re-probe the still-active
/// lanes through `SelVec`s (multi-column or mixed-type keys).
#[allow(clippy::too_many_arguments)]
fn probe_general(
    table: &JoinTable,
    build_keys: &[Vector],
    s: &mut ProbeScratch,
    keys: &[&Vector],
    sel: Option<&SelVec>,
    base: u32,
    emit_pairs: bool,
    prehashed: bool,
) {
    let n = keys.first().map_or(0, |k| k.len());
    if !prehashed {
        hashtable::hash_keys(keys.iter().copied(), n, false, &mut s.lanes, &mut s.hashes);
    }
    let start_sel = sel.unwrap_or(&s.nonnull);
    // Every lane in `active` holds a hash-matching candidate; the loop
    // below only confirms keys and re-probes the (rare) hash-collision
    // or multi-match lanes.
    table.gather_matching(&s.hashes, start_sel, &mut s.cand, &mut s.active);
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
            table.advance_matching(&s.hashes, &s.active, &mut s.cand, &mut s.next_active);
        } else {
            // Existence semantics: matched lanes stop walking.
            let flags = &s.matched_flags;
            s.active.retain_from(|p| !flags[p], &mut s.tmp);
            table.advance_matching(&s.hashes, &s.tmp, &mut s.cand, &mut s.next_active);
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

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.probe_done {
            return self.next_deferred();
        }
        if self.build.is_none() {
            self.attach_build()?;
        }
        loop {
            self.cancel.check()?;
            let Some(batch) = self.left.next()? else {
                let governed = self.build.as_ref().is_some_and(|b| b.spill.is_some());
                return if governed { self.next_deferred() } else { Ok(None) };
            };
            self.profile.record_enc_batch(&batch);
            self.scratch.refs.clear();
            for prog in &self.left_keys {
                let r = prog.run(&mut self.pool, &batch)?;
                self.scratch.refs.push(r);
            }
            let build = self.build.as_ref().expect("built before probing");
            // NULL-aware anti short-circuits: any build NULL key → nothing
            // can ever pass; empty build side → everything passes. The
            // global build keys hold only *resident* rows, so an evicted
            // partition keeps the build non-empty.
            let build_empty = build.keys()[0].is_empty() && !build.any_spilled();
            let has_null_key = build.has_null_key;
            let skip_probe =
                self.join_type == JoinType::NullAwareLeftAnti && (has_null_key || build_empty);
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
                if !skip_probe {
                    let router = self.router.as_mut();
                    let files = &mut self.probe_spill;
                    probe_batch(build, router, files, self.join_type, s, keys, &batch)?;
                }
            }
            self.pool.recycle();

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
            if out.is_some() {
                return Ok(out);
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

    // Every build configuration (one slot, governed ample/tight; own and
    // shared inside an exchange, one table and one per slot) × join type
    // × key shape is checked against the volcano engine in
    // `tests/sql_semantics.rs::build_mode_matrix`.

    #[test]
    fn a_build_past_the_row_limit_is_a_typed_error() {
        // The real limit is 4 G rows; the check is the same at any limit.
        assert!(check_build_rows(10, 10).is_ok());
        match check_build_rows(11, 10) {
            Err(VwError::Plan(m)) => assert!(m.contains("11 rows exceeds the 10 rows"), "{m}"),
            other => panic!("expected a plan error, got {other:?}"),
        }
        assert!(check_build_rows(MAX_BUILD_ROWS, MAX_BUILD_ROWS).is_ok());
        assert!(check_build_rows(u32::MAX as u64, MAX_BUILD_ROWS).is_err());
    }

    #[test]
    fn each_build_column_is_staged_once() {
        let tys = |l: &StageLayout| l.tys.clone();
        // k is a bare-column key: it is the payload column too.
        let inner = StageLayout::new(&key(), &schema_kv("r"), true);
        assert_eq!(tys(&inner), vec![TypeId::I64, TypeId::Str]);
        assert_eq!((inner.n_keys, &inner.rest, &inner.payload_at), (1, &vec![1], &vec![0, 1]));
        // The same column as both keys: the second is a vector of its own.
        let twice = key_cols(&[(0, TypeId::I64), (0, TypeId::I64)]);
        let dup = StageLayout::new(&twice, &schema_kv("r"), true);
        assert_eq!(tys(&dup), vec![TypeId::I64, TypeId::I64, TypeId::Str]);
        assert_eq!(dup.payload_at, vec![0, 2]);
        // A computed key is not any build column.
        let sum = PhysExpr::Arith {
            op: crate::expr::BinOp::Add,
            lhs: Box::new(PhysExpr::ColRef(0, TypeId::I64)),
            rhs: Box::new(PhysExpr::Const(Value::I64(1), TypeId::I64)),
            ty: TypeId::I64,
        };
        let computed = StageLayout::new(&[ExprProgram::compile(&sum)], &schema_kv("r"), true);
        assert_eq!(tys(&computed), vec![TypeId::I64, TypeId::I64, TypeId::Str]);
        assert_eq!(computed.payload_at, vec![1, 2]);
        // Semi and anti joins emit no build column: keys only.
        let semi = StageLayout::new(&key(), &schema_kv("r"), false);
        assert_eq!(tys(&semi), vec![TypeId::I64]);
        assert!(semi.payload_at.is_empty() && semi.rest.is_empty());
    }

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

    /// A probe input that notes, at every pull, the spill chunks written
    /// so far and the budget in use: the first pull sees the finished
    /// build, each later one the previous batch routed, the last (the
    /// input dry) every probe batch routed.
    struct Watched {
        inner: BoxedOp,
        metrics: Arc<crate::partition::SpillMetrics>,
        budget: Arc<crate::partition::MemBudget>,
        seen: Arc<Mutex<Vec<(u64, usize)>>>,
    }

    impl Operator for Watched {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }

        fn name(&self) -> &'static str {
            "Watched"
        }

        fn next(&mut self) -> Result<Option<Batch>> {
            let chunks = self.metrics.chunks_written.load(std::sync::atomic::Ordering::Relaxed);
            self.seen.lock().unwrap().push((chunks, self.budget.used()));
            self.inner.next()
        }
    }

    /// A governed inner join of `n` probe rows against `n` build rows (the
    /// same keys), 64-row batches over 8 partitions under a budget of
    /// `limit` bytes: each probe batch diverts a few rows to each evicted
    /// partition. Returns, per probe pull, the spill chunks written so far
    /// and the budget in use (see [`Watched`]), once the join has drained
    /// and let go of every byte and block.
    fn divert_probe_rows(n: i64, limit: usize) -> Vec<(u64, usize)> {
        use crate::partition::{MemBudget, SpillConfig};
        use vw_storage::SimulatedDisk;
        let schema = Schema::new(vec![Field::nullable("k", TypeId::I64)]).unwrap();
        let mk = |vals: Vec<i64>| -> BoxedOp {
            let rows = vals.into_iter().map(|v| vec![Value::I64(v)]).collect();
            Box::new(Values::new(schema.clone(), rows, 64, CancelToken::new()))
        };
        let disk = SimulatedDisk::instant();
        let budget = MemBudget::new(limit);
        let cfg = SpillConfig::new(budget.clone(), disk.clone(), 8);
        let metrics = cfg.metrics.clone();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let probe = Watched {
            inner: mk((0..n).collect()),
            metrics: metrics.clone(),
            budget: budget.clone(),
            seen: seen.clone(),
        };
        let mut j = HashJoin::new(
            Box::new(probe),
            mk((0..n).rev().collect()),
            key_cols(&[(0, TypeId::I64)]),
            key_cols(&[(0, TypeId::I64)]),
            JoinType::Inner,
            schema.join(&schema),
            CancelToken::new(),
        )
        .with_spill(cfg);
        let out = drain(&mut j).unwrap();
        assert_eq!(out.rows(), n as usize);
        let spilled = metrics.partitions.load(std::sync::atomic::Ordering::Relaxed);
        assert!(spilled >= 4, "{spilled} partitions spilled");
        drop(j);
        assert_eq!(budget.used(), 0, "staged rows uncharged");
        assert_eq!(disk.used_bytes(), 0, "all spill blocks reclaimed");
        let seen = seen.lock().unwrap().clone();
        seen
    }

    #[test]
    fn diverted_probe_rows_are_staged_and_never_keep_the_budget_over() {
        let (n, limit) = (20_000, 64 * 1024);
        let seen = divert_probe_rows(n, limit);
        // Written while probing: full chunks, and a stage written early
        // when the push that took the budget over was its own. A chunk per
        // probe batch per evicted partition would be over 1 000.
        let (built, probed) = (seen[0].0, seen[seen.len() - 1].0);
        assert!(probed - built <= n as u64 / 256, "{} chunks for {n} probe rows", probed - built);
        // Between probe batches the staged rows never leave the budget over.
        assert!(seen.iter().all(|&(_, used)| used <= limit), "{seen:?}");
    }

    #[test]
    fn spilled_build_rows_are_staged_and_never_keep_the_budget_over() {
        use crate::partition::{MemBudget, SpillConfig};
        use crate::spill::SPILL_CHUNK_ROWS;
        use std::sync::atomic::Ordering::Relaxed;
        use vw_storage::SimulatedDisk;
        // 20 000 build rows in 64-row batches over 8 partitions: the
        // budget holds under a third of them, so every partition evicts
        // and every later batch routes a few rows to each evicted one.
        let (n, limit) = (20_000i64, 96 * 1024);
        let schema = Schema::new(vec![Field::nullable("k", TypeId::I64)]).unwrap();
        let mk = |vals: Vec<i64>| -> BoxedOp {
            let rows = vals.into_iter().map(|v| vec![Value::I64(v)]).collect();
            Box::new(Values::new(schema.clone(), rows, 64, CancelToken::new()))
        };
        let disk = SimulatedDisk::instant();
        let budget = MemBudget::new(limit);
        let cfg = SpillConfig::new(budget.clone(), disk.clone(), 8);
        let metrics = cfg.metrics.clone();
        let (built, probed) = (Arc::new(Mutex::new(Vec::new())), Arc::new(Mutex::new(Vec::new())));
        let watched = |inner, seen: &Arc<Mutex<Vec<(u64, usize)>>>| -> BoxedOp {
            Box::new(Watched {
                inner,
                metrics: metrics.clone(),
                budget: budget.clone(),
                seen: seen.clone(),
            })
        };
        let mut j = HashJoin::new(
            watched(mk((0..n).collect()), &probed),
            watched(mk((0..n).rev().collect()), &built),
            key_cols(&[(0, TypeId::I64)]),
            key_cols(&[(0, TypeId::I64)]),
            JoinType::Inner,
            schema.join(&schema),
            CancelToken::new(),
        )
        .with_spill(cfg);
        let out = drain(&mut j).unwrap();
        assert_eq!(out.rows(), n as usize);
        drop(j);
        assert_eq!((budget.used(), disk.used_bytes()), (0, 0), "every byte and block let go");
        // The build is done at the probe's first pull: its chunks are
        // full ones, one per eviction and at most one last one per
        // partition. (A chunk per build batch per evicted partition would
        // be over 1 000.)
        let spilled = metrics.partitions.load(Relaxed);
        assert!(spilled >= 4, "{spilled} partitions spilled");
        let chunks = probed.lock().unwrap()[0].0;
        let bound = (n as u64).div_ceil(SPILL_CHUNK_ROWS as u64) + spilled + 8;
        assert!(chunks <= bound, "{chunks} chunks for {n} build rows (bound {bound})");
        // Between build batches the budget is never over.
        let built = built.lock().unwrap();
        assert!(built.iter().all(|&(_, used)| used <= limit), "{built:?}");
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
