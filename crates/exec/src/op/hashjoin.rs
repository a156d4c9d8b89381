//! Vectorized hash join over the bulk-built CSR join table, hashed or
//! direct.
//!
//! **Build** (right child) and **probe** (left child) are two halves that
//! meet in one immutable value, the [`JoinBuild`]: one [`JoinTable`] over
//! every build row, at any DOP, or none when the build is on disk.
//!
//! A build is a [`SharedBuild`] fed by one or more [`BuildSink`]s. A sink
//! drains its share of the build input into one *private* stage: every
//! batch's non-NULL key lanes are appended to the stage's contiguous
//! vectors straight from the batch, each column once (a bare-column key
//! *is* its payload column; ungoverned semi and anti joins stage no
//! payload at all), with their key hashes. A build on one integer key
//! stages no hashes and tracks its keys' range instead. When the last sink
//! has deposited its stage, the build picks its table's layout by
//! [`JoinTable::fits_direct`]'s byte rule, from the key type, the row count
//! and the key range alone, and the finalize work is cut into units:
//! - **hashed**: the table, bulk-built by [`JoinTable::build`] over the
//!   sinks' hashes (a build on one integer key hashes its staged keys
//!   here), and one concatenation of the stages per build column;
//! - **direct**: the table over the sink-major rows, built by a
//!   [`DirectBuild`] in one part per sink, but no more parts than the
//!   pool running the sinks has workers (each part reads every key) — each
//!   fills its share of the key range from the staged keys, into disjoint
//!   slices of the one offsets/rows pair — and one concatenation per build
//!   column (the key column only when the join emits it).
//!
//! Whichever sink is free claims the next unit; the one that finishes the
//! last unit publishes the [`JoinBuild`] and wakes whoever waits for it.
//!
//! Under the query's memory budget the build is built the same way and
//! charges the budget what its sinks hold resident. A build is resident
//! or on disk, never half: the first time a sink finds the query over
//! budget while it holds resident rows, it **overflows** — everything it
//! holds goes through a [`RoutedSpill`], and so does every later row of
//! its input. The other sinks of a shared build overflow on their own
//! when they find the budget over; what any of them still holds resident
//! when the last sink has deposited is written the same way, and the
//! published build has no table.
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
//! **Probe** is vector-at-a-time. Against a direct table a lane is one
//! subtract and one bounds check, and every row of its bucket matches (a
//! probe key of another integer type is read as `i64`, an RLE-coded one
//! by value). Against a hashed table the fused per-type kernel hashes,
//! walks and compares in one pass per lane. All probe scratch is per
//! operator and reused across batches: the steady-state loop allocates
//! nothing.
//!
//! **What a published build tells the probe side.** An inner or semi join
//! over a resident build with no row answers alone: its first `next`
//! returns end-of-stream without pulling the probe child. And its build
//! is its **runtime filter**: published once into the [`JoinFilter`] the
//! compiler handed the build (held weakly, so the probers still free the
//! rows), it is tested by the lowest scan producing the probe key columns
//! ([`super::scan`]) — a direct table answers membership exactly, a
//! hashed one through the bloom byte of the probe's own key hash
//! (`JoinBuild::retain`). The filter drops only rows the join would:
//! LEFT, anti and NULL-aware anti joins, which keep unmatched probe rows,
//! publish none, and a build on disk, which has no table, publishes none
//! and is never empty.
//!
//! **Routing an overflowed build.** Rows go to disk routed by their key
//! hash — or by their key, when the first sink to overflow finds that
//! what it holds resident would make a direct table (the choice is made
//! once, in the [`SharedBuild`], so every sink and prober routes alike):
//! the one integer key, read as `i64` and bit-reversed, feeds the same
//! [`RadixRouter`](crate::partition::RadixRouter), so each stratum takes
//! the key's next low bits. A partition is then as dense as the build, and
//! replays direct with bucket `(key − lo) >> shift`, `shift` the key bits
//! of the strata above it.
//! Each replayed partition is judged again, on all of its rows (the
//! routed spill keeps their count and key range, a [`KeySpan`]): one
//! that would not make a direct table, because its keys turned sparse or
//! aligned after the rows the first choice saw, replays hashed and routes
//! by hash if it overflows in turn.
//!
//! **Deferred phase** (builds that overflowed): a prober diverts every
//! non-NULL lane to its *own* routed spill, on the build's stratum and
//! fan-out and routed as the build is, and answers the NULL-keyed lanes
//! on the spot; once its probe input is exhausted it replays each probe
//! partition against the partition's shared, read-only build files
//! through an inner `HashJoin` — same keys, same join type, the next
//! stratum, the same budget — i.e. this component one level down, whose
//! partition build picks its own layout by the same rule. Workers do not
//! wait for each other: grace works at any DOP with no barrier beyond the
//! publish.
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
use crate::hashtable::{self, DirectBuild, JoinTable, EMPTY};
use crate::morsel::BatchPool;
use crate::partition::{Charge, SpillConfig};
use crate::profile::OpProfile;
use crate::program::{ExprProgram, VecRef, VectorPool};
use crate::spill::{KeySpan, RoutedSpill, SpillScan, NO_SPAN};
use crate::vector::{Batch, Vector};
use std::borrow::Borrow;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicU8, AtomicUsize};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
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
/// rows may go to disk and must then be replayable in full.
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

/// What one sink holds resident while the build runs: the gathered rows
/// and their hashes, waiting to become part of the CSR table — or to be
/// written to disk if the build overflows.
struct JoinStage {
    /// One vector per [`StageLayout::tys`].
    vecs: Vec<Vector>,
    /// The rows' key hashes — none for a build on one integer key, whose
    /// table is likely direct and reads the keys themselves (see
    /// [`JoinStage::hash_keys`]).
    hashes: Vec<u64>,
    /// Approximate staged bytes (maintained for governed builds only).
    bytes: usize,
}

impl JoinStage {
    fn new(tys: &[TypeId], rows: usize, hashed: bool) -> JoinStage {
        JoinStage {
            vecs: tys.iter().map(|&t| presized(t, rows)).collect(),
            hashes: Vec::with_capacity(if hashed { rows } else { 0 }),
            bytes: 0,
        }
    }

    /// Rows staged (the keys come first and are always staged).
    fn rows(&self) -> usize {
        self.vecs[0].len()
    }

    /// Hash the staged keys of a stage that kept no hashes, once they are
    /// needed after all: its build turned out hashed, or it goes to disk
    /// (routed `by_key`: the routing words of [`route_words`]).
    fn hash_keys(&mut self, n_keys: usize, by_key: bool) {
        if self.hashes.len() < self.rows() {
            let (keys, mut lanes) = (&self.vecs[..n_keys], Vec::new());
            route_words(keys, self.rows(), by_key, &mut lanes, &mut self.hashes);
        }
    }

    /// Append the `sel` lanes of one batch's source vectors (`dense`: they
    /// are all of its lanes, in order — a plain copy). `charge` also
    /// accounts their approximate bytes (the unit the memory governor
    /// charges).
    fn append<'a>(
        &mut self,
        srcs: impl Iterator<Item = &'a Vector>,
        hashes: Option<&[u64]>,
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
        let Some(hashes) = hashes else { return };
        if charge {
            self.bytes += sel.len() * 8;
        }
        if dense {
            self.hashes.extend_from_slice(&hashes[..sel.len()]);
        } else {
            self.hashes.extend(sel.iter().map(|p| hashes[p]));
        }
    }

    /// Write the staged rows through `spill` — their build columns, routed
    /// by their hashes or, for a spill routed by key, by their one integer
    /// key (see [`route_words`]) — and free them, keeping the typed layout.
    fn spill_to(&mut self, layout: &StageLayout, spill: &mut RoutedSpill) -> Result<()> {
        if self.rows() == 0 {
            return Ok(());
        }
        self.hash_keys(layout.n_keys, spill.spans.is_some());
        spill.push(&layout.payload(&self.vecs), &self.hashes, None)?;
        for v in &mut self.vecs {
            *v = Vector::new(ColData::new(v.type_id()));
        }
        self.hashes = Vec::new();
        self.bytes = 0;
        Ok(())
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
/// table and the rows it indexes. A build that overflowed has no table
/// and no row: its rows are in its files, and every prober diverts its
/// non-NULL lanes to disk.
pub struct JoinBuild {
    /// `None` for a build on disk.
    table: Option<JoinTable>,
    /// The build rows, laid out by [`StageLayout`]: keys, then the rest.
    staged: Vec<Vector>,
    n_keys: usize,
    payload_at: Vec<usize>,
    /// A NULL key arrived on the build side (dropped there — NULL never
    /// matches — but the NULL-aware anti join needs to know).
    has_null_key: bool,
    /// An overflowed build's rows per governor partition: one file per
    /// routed spill that wrote any (a sink's, and the one `plan` writes
    /// the resident rest through). Empty for a resident build.
    files: Vec<Vec<Arc<SpillFile>>>,
    /// Per partition of a build routed by key, the rows and keys its files
    /// hold (empty otherwise).
    spans: Vec<KeySpan>,
    /// The governor the build ran under; probers divert and recurse with it.
    spill: Option<SpillConfig>,
    /// The resident rows' charge, returned when the build drops.
    _charge: Option<Charge>,
}

impl JoinBuild {
    fn keys(&self) -> &[Vector] {
        &self.staged[..self.n_keys]
    }

    /// Did the build overflow — is it on disk as a whole?
    fn on_disk(&self) -> bool {
        self.table.is_none()
    }

    /// Is the build resident with no row? (A build on disk holds no
    /// resident row, but it is not empty.)
    fn is_empty(&self) -> bool {
        self.table.as_ref().is_some_and(JoinTable::is_empty)
    }
}

/// Finalize work one sink can do on its own.
enum Unit {
    /// Bulk-build the hashed table over these hash runs, in order.
    Table { hashes: Vec<Vec<u64>> },
    /// Fill part `part` of `parts` of the one direct table — its share
    /// of the key range — from the resident stages' key vectors, in table
    /// order.
    Direct { keys: Arc<Vec<Vector>>, table: Arc<DirectBuild>, part: usize, parts: usize },
    /// Concatenate the resident stages' vector `at`, in table order, into
    /// the build's, of `rows` rows.
    Column { at: usize, pieces: Arc<Vec<Vector>>, rows: usize },
}

const PENDING: u8 = 0;
const READY: u8 = 1;
const FAILED: u8 = 2;

/// What one sink holds while it drains, handed to the build at its
/// deposit.
struct Held {
    /// The resident rows (emptied when the build overflows).
    stage: JoinStage,
    /// Their bytes, charged to the query's budget (governed builds).
    charge: Option<Charge>,
    /// Where this sink's rows go once the build overflowed.
    spill: Option<RoutedSpill>,
    /// The smallest and largest resident key of a build on one integer
    /// key (`lo > hi`: none yet).
    range: (i64, i64),
}

struct BuildState {
    /// Sinks that have not deposited their stages yet.
    draining: usize,
    deposits: Vec<Held>,
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
    /// The threads that run the sinks' tasks, when known (`usize::MAX`:
    /// unknown): a direct table is filled in at most that many parts.
    workers: AtomicUsize,
    spill: Option<SpillConfig>,
    /// Expected build rows (0 = unknown): the stages are sized for it.
    rows_hint: usize,
    /// The low key bits every build row shares: a direct table's bucket
    /// is `(key − lo) >> shift` (a replayed partition of a build routed by
    /// key; 0 otherwise).
    shift: u32,
    /// Does the build, once it overflowed, route its rows by key rather
    /// than by hash? Decided by the first sink to overflow, or — for a
    /// replayed partition — from the partition's [`KeySpan`].
    by_key: OnceLock<bool>,
    /// Where a resident build of an inner or semi join is published as
    /// its probe side's runtime filter.
    filter: Option<Arc<JoinFilter>>,
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
    /// (1 and 1 for a join that builds for itself), with no budget.
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
            workers: AtomicUsize::new(usize::MAX),
            spill: None,
            rows_hint: 0,
            shift: 0,
            by_key: OnceLock::new(),
            filter: None,
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

    /// Run under the query's memory governor: every sink charges
    /// `cfg.budget` for what it holds resident, and the build overflows
    /// to disk through routed spills on `cfg`'s stratum and fan-out the
    /// first time a sink finds the query over budget (see the module
    /// docs). The table is what it is without it.
    pub fn governed(mut self, cfg: SpillConfig) -> SharedBuild {
        self.layout = StageLayout::new(&self.right_keys, &self.build_schema, true);
        self.spill = Some(cfg);
        self
    }

    /// Size the sinks' stages for about `rows` build rows in all.
    pub fn expecting(mut self, rows: usize) -> SharedBuild {
        self.rows_hint = rows;
        self
    }

    /// Publish the build into `filter` too, once, when it is resident and
    /// the join is inner or semi: the join's runtime filter (see the
    /// module docs). Other join types keep every probe row they are
    /// handed, so they publish nothing.
    pub fn filtering(mut self, filter: Arc<JoinFilter>) -> SharedBuild {
        if matches!(self.join_type, JoinType::Inner | JoinType::LeftSemi) {
            self.filter = Some(filter);
        }
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
    ) -> BuildSink {
        // Over-reserving costs address space only; an estimate gone wild
        // is capped all the same.
        let rows = if input.is_some() { self.rows_hint.min(1 << 22) } else { 0 };
        let mut per_sink = rows / self.sinks;
        per_sink += per_sink / 8;
        let stage = JoinStage::new(&self.layout.tys, per_sink, !self.integer_key());
        let charge = self.spill.as_ref().map(|cfg| Charge::new(cfg.budget.clone()));
        BuildSink {
            build: self.clone(),
            input,
            deps,
            held: Some(Held { stage, charge, spill: None, range: NO_KEYS }),
            has_null_key: false,
            rows_in: 0,
            pool: VectorPool::new(),
            batch_pool,
            scratch: ProbeScratch::default(),
        }
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

    /// A sink's input is exhausted: take what it holds. The last deposit
    /// cuts the finalize work and wakes the sinks parked for it.
    fn deposit(&self, held: Held, has_null_key: bool, rows_in: u64) -> Result<()> {
        let published = {
            let mut st = self.lock();
            if let Some(Err(e)) = &st.outcome {
                return Err(e.clone());
            }
            st.deposits.push(held);
            st.has_null_key |= has_null_key;
            st.rows_in += rows_in;
            st.draining -= 1;
            if st.draining > 0 {
                return Ok(());
            }
            self.plan(&mut st)?
        };
        self.wake_all(published);
        Ok(())
    }

    /// Every sink has deposited. If one overflowed, write what the others
    /// hold through one more routed spill and publish the build that is
    /// on disk as a whole (`true`: nothing is left to finalize). Otherwise
    /// check the resident total against the row limit and cut it into
    /// [`Unit`]s.
    fn plan(&self, st: &mut BuildState) -> Result<bool> {
        let mut held = std::mem::take(&mut st.deposits);
        let mut build = JoinBuild {
            table: None,
            staged: self.layout.tys.iter().map(|&t| presized(t, 0)).collect(),
            n_keys: self.layout.n_keys,
            payload_at: self.layout.payload_at.clone(),
            has_null_key: st.has_null_key,
            files: Vec::new(),
            spans: Vec::new(),
            spill: self.spill.clone(),
            _charge: self.spill.as_ref().map(|cfg| Charge::new(cfg.budget.clone())),
        };
        if held.iter().any(|h| h.spill.is_some()) {
            let cfg = self.spill.as_ref().expect("only a governed build overflows");
            let by_key = self.by_key.get() == Some(&true);
            let mut rest = if by_key { RoutedSpill::by_key(cfg) } else { RoutedSpill::new(cfg) };
            for h in &mut held {
                h.stage.spill_to(&self.layout, &mut rest)?;
            }
            build.files = vec![Vec::new(); cfg.partitions];
            build.spans = vec![NO_SPAN; if by_key { cfg.partitions } else { 0 }];
            for spill in held.into_iter().filter_map(|h| h.spill).chain([rest]) {
                for (all, s) in build.spans.iter_mut().zip(spill.spans.iter().flatten()) {
                    *all = (all.0 + s.0, all.1.min(s.1), all.2.max(s.2));
                }
                for (at, file) in build.files.iter_mut().zip(spill.finish()?) {
                    at.extend(file.map(Arc::new));
                }
            }
            st.outcome = Some(Ok(Arc::new(build)));
            self.phase.store(READY, SeqCst);
            return Ok(true);
        }
        let (mut lo, mut hi) = NO_KEYS;
        let mut stages = Vec::with_capacity(held.len());
        for h in held {
            if let (Some(all), Some(c)) = (&mut build._charge, h.charge) {
                all.absorb(c);
            }
            (lo, hi) = (lo.min(h.range.0), hi.max(h.range.1));
            stages.push(h.stage);
        }
        let rows: usize = stages.iter().map(JoinStage::rows).sum();
        check_build_rows(rows as u64, MAX_BUILD_ROWS)?;

        let direct = self.integer_key() && JoinTable::fits_direct(rows, lo, hi, self.shift);
        // Sink-major: the order of the build's row ids.
        let mut hashes = Vec::new();
        let mut pieces: Vec<Vec<Vector>> = self.layout.tys.iter().map(|_| Vec::new()).collect();
        for mut stage in stages.into_iter().filter(|stage| stage.rows() > 0) {
            if !direct {
                // Hashed after all: a build on one integer key hashes its
                // keys here.
                stage.hash_keys(self.layout.n_keys, false);
                hashes.push(stage.hashes);
            }
            for (pieces, v) in pieces.iter_mut().zip(stage.vecs) {
                pieces.push(v);
            }
        }
        let pieces: Vec<Arc<Vec<Vector>>> = pieces.into_iter().map(Arc::new).collect();
        // A semi or anti join over a direct table reads the table alone.
        let emitted = |at: &usize| !direct || *at > 0 || self.layout.payload_at.contains(&0);
        st.units = (0..pieces.len())
            .filter(emitted)
            .map(|at| Unit::Column { at, pieces: pieces[at].clone(), rows })
            .collect();
        if direct {
            // Claimed first, so a sink alone reads the keys before it
            // takes them for the key column.
            let table = Arc::new(DirectBuild::new(rows, lo, hi, self.shift));
            let keys = &pieces[0];
            // One part per sink, but no more than can run at once: each
            // part reads every key.
            let parts = self.sinks.min(self.workers.load(Relaxed));
            st.units.extend((0..parts).map(|part| Unit::Direct {
                keys: keys.clone(),
                table: table.clone(),
                part,
                parts,
            }));
        } else {
            st.units.push(Unit::Table { hashes });
        }
        st.unfinished = st.units.len();
        st.assembling = Some(build);
        Ok(false)
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
        let (table, column) = match unit {
            Unit::Table { hashes } => {
                let runs: Vec<&[u64]> = hashes.iter().map(Vec::as_slice).collect();
                (Some(JoinTable::build(&runs)), None)
            }
            Unit::Direct { keys, table, part, parts } => {
                fill_direct(&table, &keys, part, parts);
                // The last part to let go of the table finishes it.
                (Arc::into_inner(table).map(DirectBuild::finish), None)
            }
            Unit::Column { at, pieces, rows } => (None, Some((at, self.concat(at, pieces, rows)))),
        };
        {
            let mut st = self.lock();
            // A failure meanwhile dropped the build under assembly.
            let Some(build) = &mut st.assembling else { return Ok(Step::Done) };
            if table.is_some() {
                build.table = table;
            }
            if let Some((at, column)) = column {
                build.staged[at] = column;
            }
            st.unfinished -= 1;
            if st.unfinished > 0 {
                return Ok(Step::Progress);
            }
            let build = Arc::new(st.assembling.take().expect("checked above"));
            if let Some(filter) = &self.filter {
                filter.publish(&build);
            }
            st.outcome = Some(Ok(build));
            self.phase.store(READY, SeqCst);
        }
        self.wake_all(true);
        Ok(Step::Done)
    }

    /// Staged vector `at` of the whole build: `pieces`, of `rows` rows in
    /// all, in table order. One stage holds it all in every build of one
    /// sink: once no direct part reads it, its vector is the build column,
    /// nothing is copied.
    fn concat(&self, at: usize, mut pieces: Arc<Vec<Vector>>, rows: usize) -> Vector {
        match Arc::get_mut(&mut pieces) {
            Some(own) if own.len() == 1 => return own.pop().expect("one piece"),
            _ => {}
        }
        let mut all = presized(self.layout.tys[at], rows);
        for piece in pieces.iter() {
            all.extend_range(piece, 0, piece.len());
        }
        all
    }

    /// Is the build keyed by one integer column — may its table be direct?
    fn integer_key(&self) -> bool {
        self.layout.n_keys == 1 && integer_type(self.layout.tys[0])
    }
}

/// The empty key range, `lo > hi`, that any key widens.
const NO_KEYS: (i64, i64) = (i64::MAX, i64::MIN);

/// The key types a direct table indexes: integers, read as `i64`.
fn integer_type(ty: TypeId) -> bool {
    matches!(ty, TypeId::I64 | TypeId::I32 | TypeId::I16 | TypeId::I8 | TypeId::Date)
}

/// Dispatch `$body!(d)` over an integer key column's typed slice `d`;
/// any other type runs `$other`.
macro_rules! integer_keys {
    ($data:expr, $body:ident, $other:expr) => {
        match $data {
            ColData::I64(d) => $body!(d),
            ColData::I32(d) => $body!(d),
            ColData::I16(d) => $body!(d),
            ColData::I8(d) => $body!(d),
            ColData::Date(d) => $body!(d),
            _ => $other,
        }
    };
}

/// Widen `range` by the `sel` lanes of an integer key (`dense`: they are
/// all of its lanes).
fn widen_range(key: &Vector, sel: &SelVec, dense: bool, range: &mut (i64, i64)) {
    let (lo, hi) = range;
    macro_rules! widen {
        ($d:expr) => {{
            let mut widen = |x: i64| (*lo, *hi) = ((*lo).min(x), (*hi).max(x));
            if dense {
                $d.iter().for_each(|&x| widen(x.into()));
            } else {
                sel.iter().for_each(|p| widen($d[p].into()));
            }
        }};
    }
    integer_keys!(&key.data, widen, {})
}

/// Fill `words` with what routes each of the `n` lanes of `keys` to a
/// spill partition: the key hashes, or — `by_key` — the one integer key
/// read as `i64` (as the direct probe reads it), bit-reversed, so that
/// stratum `d` of a [`RadixRouter`](crate::partition::RadixRouter) takes
/// the key's bits `[bits·d, bits·(d + 1))`. A probe key of another type
/// matches no build key wherever it goes: it routes by hash.
fn route_words<V: Borrow<Vector>>(
    keys: &[V],
    n: usize,
    by_key: bool,
    lanes: &mut Vec<u64>,
    words: &mut Vec<u64>,
) {
    macro_rules! reversed {
        ($d:expr) => {{
            words.clear();
            words.extend($d[..n].iter().map(|&x| (Into::<i64>::into(x) as u64).reverse_bits()));
        }};
    }
    let key = keys[0].borrow();
    if by_key && integer_type(key.type_id()) {
        return integer_keys!(&key.data, reversed, unreachable!("an integer key"));
    }
    hashtable::hash_keys(keys.iter().map(Borrow::borrow), n, false, lanes, words);
}

/// Fill part `part` of `parts` of the direct table from a build's key
/// vectors, in table order ([`DirectBuild::fill`]).
fn fill_direct(table: &DirectBuild, keys: &[Vector], part: usize, parts: usize) {
    macro_rules! build {
        ($v:ident) => {{
            let typed = keys.iter().map(|k| match &k.data {
                ColData::$v(d) => d.as_slice(),
                _ => unreachable!("the key vectors of one build share a type"),
            });
            table.fill(&typed.collect::<Vec<_>>(), part, parts)
        }};
    }
    match keys[0].data {
        ColData::I64(_) => build!(I64),
        ColData::I32(_) => build!(I32),
        ColData::I16(_) => build!(I16),
        ColData::I8(_) => build!(I8),
        ColData::Date(_) => build!(Date),
        _ => unreachable!("a direct build has an integer key"),
    }
}

/// A join's key set as a runtime filter on its probe side: the published
/// build itself, tested by the lowest scan producing the probe key columns
/// (see the module docs). Empty until an inner or semi join's build is
/// published resident. It holds the build weakly, so the probers still
/// free it when they are done.
#[derive(Default)]
pub struct JoinFilter(OnceLock<Weak<JoinBuild>>);

impl JoinFilter {
    fn publish(&self, build: &Arc<JoinBuild>) {
        let _ = self.0.set(Arc::downgrade(build));
    }

    /// The published build, while a prober still holds it.
    pub(crate) fn build(&self) -> Option<Arc<JoinBuild>> {
        self.0.get()?.upgrade()
    }
}

/// A runtime filter's per-batch scratch, reused by its scan.
#[derive(Default)]
pub(crate) struct FilterScratch {
    lanes: Vec<u64>,
    hashes: Vec<u64>,
    tmp: SelVec,
}

impl JoinBuild {
    /// The runtime filter's test: narrow `sel` (every lane of `keys` when
    /// `all`) to the lanes whose probe keys `keys` may match a build row.
    /// A NULL key matches none. A direct table answers exactly; a hashed
    /// one tests the bloom byte of the lane's hash. A key of a type the
    /// table cannot hold keeps every lane: the filter only ever drops what
    /// the join would.
    pub(crate) fn retain(
        &self,
        keys: &[&Vector],
        sel: &mut SelVec,
        mut all: bool,
        s: &mut FilterScratch,
    ) {
        let n = keys[0].len();
        if keys.iter().any(|k| k.nulls.is_some()) {
            let valid = |p: usize| !keys.iter().any(|k| k.is_null(p));
            match all {
                true => s.tmp.fill_filtered(0..n as u32, valid),
                false => sel.retain_from(valid, &mut s.tmp),
            }
            std::mem::swap(sel, &mut s.tmp);
            all = false;
        }
        let from = (!all).then_some(&*sel);
        let table = self.table.as_ref().expect("only a resident build is published");
        let out = &mut s.tmp;
        if table.is_direct() {
            macro_rules! test {
                ($d:expr) => {{
                    let d = $d;
                    table.retain_direct(n, from, |p| d[p].into(), out)
                }};
            }
            integer_keys!(&keys[0].data, test, {
                if all {
                    sel.fill_identity(n);
                }
                return;
            });
        } else {
            // One flat key hashes inline, as the fused probe kernel does;
            // others through `hash_keys`.
            macro_rules! fused {
                ($pa:expr, $same:expr, $hash:expr, $eq:expr) => {{
                    let (pa, _) = ($pa, $same);
                    #[allow(clippy::redundant_closure_call)]
                    table.retain_bloom(n, from, |p| $hash(&pa[p]), out)
                }};
            }
            let flat = keys.len() == 1 && !keys[0].is_encoded();
            if flat {
                let data = &keys[0].data;
                hashtable::dispatch_typed_keys!(data, data, fused, unreachable!("one column"));
            } else {
                let hashes = &mut s.hashes;
                hashtable::hash_keys(keys.iter().copied(), n, false, &mut s.lanes, hashes);
                table.retain_bloom(n, from, |p| hashes[p], out);
            }
        }
        std::mem::swap(sel, &mut s.tmp);
    }
}

/// One sink of a [`SharedBuild`]: drains its input into a private stage,
/// deposits it, then helps finalize. A cooperative task inside an
/// Exchange ([`super::xchg`]); stepped inline by a join that builds for
/// itself.
pub struct BuildSink {
    build: Arc<SharedBuild>,
    input: Option<BoxedOp>,
    /// Builds the input probes, not yet seen published.
    deps: Vec<Arc<SharedBuild>>,
    /// What the sink holds while draining; `None` once deposited.
    held: Option<Held>,
    has_null_key: bool,
    rows_in: u64,
    pool: VectorPool,
    batch_pool: Option<BatchPool>,
    /// Hashing and lane-selection scratch (the probe's, as far as it goes).
    scratch: ProbeScratch,
}

impl BuildSink {
    /// The sink's task runs on a pool of `workers` threads (with the
    /// other sinks of its build, on pools no larger): a direct table is
    /// filled in no more parts than that.
    pub fn runs_on(&self, workers: usize) {
        self.build.workers.fetch_min(workers.max(1), Relaxed);
    }

    /// The builds whose progress this sink's task must be woken for: the
    /// ones its input probes, and its own.
    pub fn subscriptions(&self) -> impl Iterator<Item = &Arc<SharedBuild>> {
        self.deps.iter().chain(std::iter::once(&self.build))
    }

    /// Stage one input batch: into the private stage, or — once the build
    /// overflowed — through this sink's routed spill.
    fn stage(&mut self, batch: Batch) -> Result<()> {
        let BuildSink { build, held, pool, scratch, .. } = self;
        let ProbeScratch { refs, lanes, hashes, live, nonnull, .. } = scratch;
        let Held { stage, charge, spill, range } =
            held.as_mut().expect("staging before the deposit");
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
                if let Some(spill) = spill {
                    // On disk: the build columns only — keys and hashes
                    // are program outputs, recomputed at rehydration.
                    route_words(keys, n, spill.spans.is_some(), lanes, hashes);
                    spill.push(&batch.columns, hashes, Some(nonnull))?;
                } else {
                    // A build on one integer key hashes only if it spills.
                    let hashed = !build.integer_key();
                    if hashed {
                        hashtable::hash_keys(keys.iter().copied(), n, false, lanes, hashes);
                    } else {
                        widen_range(keys[0], nonnull, nonnull.len() == n, range);
                    }
                    let rest = build.layout.rest.iter().map(|&c| &batch.columns[c]);
                    let srcs = keys.iter().copied().chain(rest);
                    let hashes = hashed.then_some(&hashes[..]);
                    let dense = nonnull.len() == n;
                    stage.append(srcs, hashes, nonnull, dense, charge.is_some());
                }
            }
        }
        pool.recycle();
        if let Some(bp) = &self.batch_pool {
            bp.recycle(batch); // build rows staged: batch goes back
        }
        self.govern()
    }

    /// The overflow rule, after every batch of a governed build: the
    /// first time the query is over budget while this sink holds resident
    /// rows, everything it holds goes through a routed spill, and so does
    /// every later row. The other sinks of a shared build follow on their
    /// own when the budget is over again, or at the latest in
    /// [`SharedBuild::plan`].
    fn govern(&mut self) -> Result<()> {
        let build = &self.build;
        let Some(Held { stage, charge: Some(charge), spill, range }) = &mut self.held else {
            return Ok(());
        };
        if let Some(spill) = spill {
            return spill.flush_if_over();
        }
        charge.set(stage.bytes);
        let cfg = build.spill.as_ref().expect("a charged build is governed");
        if charge.bytes() > 0 && cfg.budget.over() {
            // The routing rule, judged once, on what the first sink to
            // overflow holds resident: route by key when its rows would
            // make a direct table and every row shares exactly the key
            // bits of the strata above (all of them routed by key), so
            // each partition is as dense as the build and replays direct.
            // A replayed partition comes with the rule judged on all of
            // its rows (`HashJoin::next_deferred`).
            let rows = stage.rows();
            let above = cfg.partitions.trailing_zeros() * cfg.depth;
            let dense = JoinTable::fits_direct(rows, range.0, range.1, above);
            let keyed = dense && build.integer_key() && build.shift == above;
            let by_key = *build.by_key.get_or_init(|| keyed);
            let mut routed = if by_key { RoutedSpill::by_key(cfg) } else { RoutedSpill::new(cfg) };
            stage.spill_to(&build.layout, &mut routed)?;
            charge.set(0);
            routed.flush_if_over()?;
            *spill = Some(routed);
        }
        Ok(())
    }
}

impl CoopTask for BuildSink {
    fn step(&mut self) -> Result<Step> {
        if !SharedBuild::all_ready(&mut self.deps)? {
            return Ok(Step::Blocked);
        }
        if self.held.is_some() {
            if let Some(batch) = self.input.as_mut().map(|i| i.next()).transpose()?.flatten() {
                self.stage(batch)?;
                return Ok(Step::Progress);
            }
            self.input = None;
            let held = self.held.take().expect("checked above");
            self.build.deposit(held, self.has_null_key, self.rows_in)?;
        }
        self.build.finalize_step()
    }

    fn fail(&mut self, err: VwError) {
        self.held = None;
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
    /// Rows of the resident table this join probes (0 on disk).
    resident_rows: usize,
    /// Where the probe rows go when the build is on disk.
    probe_spill: Option<RoutedSpill>,
    scratch: ProbeScratch,
    batch_pool: Option<BatchPool>,
    out_types: Vec<TypeId>,
    /// Kept for replaying spilled probe rows through a [`SpillScan`] in
    /// the deferred phase.
    probe_schema: Schema,
    /// Spilled partition pairs awaiting the deferred (recursive) joins:
    /// the partition's shared build files, what they hold when the build
    /// routed by key, and this prober's probe file.
    deferred: Vec<(Vec<Arc<SpillFile>>, Option<KeySpan>, SpillFile)>,
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
            resident_rows: 0,
            probe_spill: None,
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

    /// Attach the query's memory governor to the own build: it is built
    /// as without one — one table — and charges `cfg.budget` what it
    /// holds. The first time the query is over budget while it builds,
    /// every build row goes to disk through a routed spill on `cfg`'s
    /// stratum and fan-out, every non-NULL probe row follows through one
    /// of its own, and after the probe input is exhausted each partition
    /// pair replays through a recursive `HashJoin` (same keys, same join
    /// type, next hash-bit stratum) whose output streams out as this
    /// operator's.
    pub fn with_spill(self, cfg: SpillConfig) -> HashJoin {
        self.own_build(|b| b.governed(cfg))
    }

    /// Size the own build's stage for about `rows` build rows.
    pub fn expecting_build_rows(self, rows: usize) -> HashJoin {
        self.own_build(|b| b.expecting(rows))
    }

    /// Publish the own build into `filter` ([`SharedBuild::filtering`]).
    pub fn with_filter(self, filter: Arc<JoinFilter>) -> HashJoin {
        self.own_build(|b| b.filtering(filter))
    }

    /// Run the own build: one sink over the right child, stepped here to
    /// its end — the drain, the deposit and every finalize unit.
    fn run_own_build(&mut self, own: OwnBuild) -> Result<Arc<SharedBuild>> {
        let build = Arc::new(own.build);
        let mut sink = build.sink(Some(own.right), Vec::new(), self.batch_pool.clone());
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
        if let Some(table) = &build.table {
            self.resident_rows = table.len();
            self.profile.direct = table.is_direct();
        }
        self.profile.spill = build.spill.as_ref().map(|cfg| cfg.metrics.clone());
        if build.on_disk() {
            let cfg = build.spill.as_ref().expect("only a governed build is on disk");
            self.probe_spill = Some(RoutedSpill::new(cfg));
        }
        self.build = Some(build);
        Ok(())
    }

    /// Does the published build answer this join without its probe side?
    /// An inner or semi join over a resident build with no row emits
    /// nothing, so its probe input is never pulled. A build on disk holds
    /// no resident row, but it is not empty.
    fn answers_alone(&self) -> bool {
        let build = self.build.as_ref().expect("attached");
        matches!(self.join_type, JoinType::Inner | JoinType::LeftSemi) && build.is_empty()
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

    /// The deferred phase: once this prober's input is exhausted it lets
    /// go of the build — the last prober to do so frees its rows and
    /// returns their charge — and, when the build is on disk, replays each
    /// of its probe partitions against the partition's shared build files
    /// through a recursive `HashJoin`: [`SpillScan`]s feed the same key
    /// programs and join type, on the next hash-bit stratum, sharing the
    /// same budget and counters — whose output streams out as this
    /// operator's.
    fn next_deferred(&mut self) -> Result<Option<Batch>> {
        if !self.probe_done {
            self.probe_done = true;
            let build = self.build.take().expect("the deferred phase follows the probe");
            if let Some(spill) = self.probe_spill.take() {
                // A partition no probe row reached has no output row
                // (every join type here is probe-driven).
                for (at, probe) in spill.finish()?.into_iter().enumerate() {
                    if let Some(probe) = probe {
                        let span = build.spans.get(at).copied();
                        self.deferred.push((build.files[at].clone(), span, probe));
                    }
                }
            }
        }
        loop {
            self.cancel.check()?;
            if let Some(inner) = &mut self.inner {
                if let Some(b) = inner.next()? {
                    return Ok(Some(b));
                }
                // Count a partition that built resident with rows.
                if let (Some(m), 1..) = (&self.profile.spill, inner.resident_rows) {
                    m.replayed.fetch_add(1, Relaxed);
                    m.replayed_direct.fetch_add(inner.profile.direct as u64, Relaxed);
                }
                self.inner = None;
            }
            let Some((build_files, span, probe_file)) = self.deferred.pop() else {
                return Ok(None);
            };
            let shared = self.shared.clone().expect("a join has a build side");
            let cfg = shared.spill.clone().expect("only a governed build is on disk");
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
            // Routed by key, the partition's rows share the key bits of
            // every stratum down to this one, and it routes by key again
            // if it overflows only when all of its rows would make a
            // direct table: keys that turn sparse or aligned after the
            // rows the routing was judged on route by hash from here on.
            // A partition routed by hash shares the bits its build did.
            let deeper = cfg.partitions.trailing_zeros() * (cfg.depth + 1);
            let shift = if span.is_some() { deeper } else { shared.shift };
            let dense = |(rows, lo, hi)| JoinTable::fits_direct(rows as usize, lo, hi, shift);
            let by_key = span.is_some_and(dense);
            inner = inner.own_build(|b| SharedBuild { shift, by_key: OnceLock::from(by_key), ..b });
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
fn probe_batch(build: &JoinBuild, join_type: JoinType, s: &mut ProbeScratch, keys: &[&Vector]) {
    let emit_pairs = !join_type.first_match_only();
    match build.table.as_ref().expect("a resident build is probed") {
        table if table.is_direct() => probe_direct(table, s, keys[0], emit_pairs),
        table => probe_one(table, build.keys(), s, keys, emit_pairs),
    }
}

/// Probe a direct table (one integer key, one table) with the batch's
/// non-NULL lanes. A probe key of another integer type is read as `i64`,
/// an RLE-coded one by its values; a key of any other type matches no
/// build key, as in the hashed layout's mixed-type compare.
fn probe_direct(table: &JoinTable, s: &mut ProbeScratch, key: &Vector, emit_pairs: bool) {
    let n = key.len();
    let sel = (s.nonnull.len() != n).then_some(&s.nonnull);
    let (flags, out_probe, out_build) = (&mut s.matched_flags, &mut s.out_probe, &mut s.out_build);
    macro_rules! probe {
        ($d:expr) => {{
            let d = $d;
            table.probe_direct(n, sel, emit_pairs, |p| d[p].into(), flags, out_probe, out_build)
        }};
    }
    integer_keys!(&key.data, probe, {})
}

/// The build is on disk: stage every non-NULL lane of `batch` for the
/// deferred phase through this prober's routed spill — routed as the
/// build's rows are, by hash or `by_key` — and leave only the
/// NULL-keyed lanes live — their answer (outer padding, anti emission)
/// needs no build row.
fn divert(
    spill: &mut RoutedSpill,
    s: &mut ProbeScratch,
    keys: &[&Vector],
    batch: &Batch,
    by_key: bool,
) -> Result<()> {
    if !s.nonnull.is_empty() {
        let n = keys.first().map_or(0, |k| k.len());
        route_words(keys, n, by_key, &mut s.lanes, &mut s.hashes);
        spill.push(&batch.columns, &s.hashes, Some(&s.nonnull))?;
        spill.flush_if_over()?;
    }
    s.live.retain_from(|p| keys.iter().any(|k| k.is_null(p)), &mut s.tmp);
    std::mem::swap(&mut s.live, &mut s.tmp);
    s.nonnull.clear();
    Ok(())
}

/// Probe a hashed table with the batch's non-NULL lanes.
fn probe_one(
    table: &JoinTable,
    build_keys: &[Vector],
    s: &mut ProbeScratch,
    keys: &[&Vector],
    emit_pairs: bool,
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
        let sel = (s.nonnull.len() != n).then_some(&s.nonnull);
        macro_rules! fused {
            ($pa:expr, $ba:expr, $hash:expr, $eq:expr) => {{
                let (pa, ba) = ($pa, $ba);
                #[allow(clippy::redundant_closure_call)]
                table.probe_join(
                    n,
                    sel,
                    emit_pairs,
                    |p| $hash(&pa[p]),
                    |p, row| $eq(&pa[p], &ba[row as usize]),
                    &mut s.matched_flags,
                    &mut s.out_probe,
                    &mut s.out_build,
                    &mut s.buf,
                );
                return;
            }};
        }
        hashtable::dispatch_typed_keys!(&keys[0].data, &build_keys[0].data, fused, {});
    }
    probe_general(table, build_keys, s, keys, emit_pairs);
}

/// General vectorized probe: gather hash-matching candidates for all
/// lanes, then iteratively confirm keys and re-probe the still-active
/// lanes through `SelVec`s (multi-column or mixed-type keys).
fn probe_general(
    table: &JoinTable,
    build_keys: &[Vector],
    s: &mut ProbeScratch,
    keys: &[&Vector],
    emit_pairs: bool,
) {
    let n = keys.first().map_or(0, |k| k.len());
    hashtable::hash_keys(keys.iter().copied(), n, false, &mut s.lanes, &mut s.hashes);
    // Every lane in `active` holds a hash-matching candidate; the loop
    // below only confirms keys and re-probes the (rare) hash-collision
    // or multi-match lanes.
    table.gather_matching(&s.hashes, &s.nonnull, &mut s.cand, &mut s.active);
    while !s.active.is_empty() {
        table.candidate_rows(&s.cand, &s.active, &mut s.rows);
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
            if self.answers_alone() {
                self.probe_done = true;
                self.build = None;
                return Ok(None);
            }
        }
        loop {
            self.cancel.check()?;
            let Some(batch) = self.left.next()? else {
                return self.next_deferred();
            };
            self.profile.record_enc_batch(&batch);
            self.scratch.refs.clear();
            for prog in &self.left_keys {
                let r = prog.run(&mut self.pool, &batch)?;
                self.scratch.refs.push(r);
            }
            let build = self.build.as_ref().expect("built before probing");
            // NULL-aware anti short-circuits: any build NULL key → nothing
            // can ever pass; empty build side → everything passes. A build
            // on disk holds no resident row, but it is not empty.
            let build_empty = build.is_empty();
            let has_null_key = build.has_null_key;
            let by_key = self.shared.as_ref().is_some_and(|b| b.by_key.get() == Some(&true));
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
                    // Reset per-lane flags only for the lanes this batch owns.
                    if s.matched_flags.len() < batch.capacity() {
                        s.matched_flags.resize(batch.capacity(), false);
                    }
                    for p in s.live.iter() {
                        s.matched_flags[p] = false;
                    }
                    match &mut self.probe_spill {
                        Some(spill) => divert(spill, s, keys, &batch, by_key)?,
                        None => probe_batch(build, self.join_type, s, keys),
                    }
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

    // Every build configuration (resident and on disk; own and shared
    // inside an exchange) × join type × key shape is checked against the
    // volcano engine in
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
        assert!(metrics.files.load(Ordering::Relaxed) >= 4, "all partitions spill");
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
    fn a_spilled_build_on_dense_keys_replays_every_partition_direct() {
        use crate::partition::{MemBudget, SpillConfig};
        use std::sync::atomic::Ordering::Relaxed;
        use vw_storage::SimulatedDisk;
        // 20 000 unique dense keys in a scattered order, staged with a
        // payload (~320 KB) against a 64 KB budget: the build overflows,
        // routed by key, and each of its 8 partitions (~40 KB) replays
        // resident. Half the probe keys miss, below and above the range.
        let n = 20_000i64;
        let schema =
            Schema::new(vec![Field::nullable("k", TypeId::I64), Field::nullable("v", TypeId::I64)])
                .unwrap();
        let mk = |keys: Vec<i64>| -> BoxedOp {
            let rows = keys.into_iter().map(|k| vec![Value::I64(k), Value::I64(3 * k)]).collect();
            Box::new(Values::new(schema.clone(), rows, 256, CancelToken::new()))
        };
        let build: Vec<i64> = (0..n).map(|i| i * 7919 % n).collect();
        let probe: Vec<i64> = (0..2 * n).map(|i| i * 104_729 % (2 * n) - n / 2).collect();
        let disk = SimulatedDisk::instant();
        let budget = MemBudget::new(64 * 1024);
        let cfg = SpillConfig::new(budget.clone(), disk.clone(), 8);
        let metrics = cfg.metrics.clone();
        let mut j = HashJoin::new(
            mk(probe.clone()),
            mk(build),
            key_cols(&[(0, TypeId::I64)]),
            key_cols(&[(0, TypeId::I64)]),
            JoinType::Inner,
            schema.join(&schema),
            CancelToken::new(),
        )
        .with_spill(cfg);
        let out = drain(&mut j).unwrap();
        let mut got: Vec<Vec<Value>> = (0..out.rows()).map(|i| out.row_values(i)).collect();
        got.sort_by_key(|r| format!("{r:?}"));
        let mut want: Vec<Vec<Value>> = probe
            .iter()
            .filter(|&&k| (0..n).contains(&k))
            .map(|&k| [k, 3 * k, k, 3 * k].map(Value::I64).to_vec())
            .collect();
        want.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(got, want);
        assert!(metrics.files.load(Relaxed) >= 16, "the build and the probe spilled");
        let replayed = (metrics.replayed_direct.load(Relaxed), metrics.replayed.load(Relaxed));
        assert_eq!(replayed, (8, 8), "(direct, replayed) partition builds");
        drop(j);
        assert_eq!((budget.used(), disk.used_bytes()), (0, 0), "every byte and block let go");
    }

    #[test]
    fn a_partition_whose_keys_turn_aligned_routes_by_hash_below() {
        use crate::partition::{MemBudget, SpillConfig};
        use std::sync::atomic::Ordering::Relaxed;
        use vw_storage::SimulatedDisk;
        // 32 000 dense keys first, in order, so the build overflows on
        // them and routes by key on three key bits; then 8 000 keys that are
        // multiples of 2^24, all in partition 0 (their low 24 bits are
        // zero). Every partition holds 4 000 dense rows, more than the
        // 48 KB budget holds, so each overflows again. Partitions
        // 1..8 are dense and route by key below; partition 0's keys as a
        // whole would not make a direct table, so it routes by hash and
        // splits on stratum 1. Judged on its first rows alone (dense),
        // it would route by key again and send the aligned rows on to a
        // third stratum.
        let n = 32_000i64;
        let schema =
            Schema::new(vec![Field::nullable("k", TypeId::I64), Field::nullable("v", TypeId::I64)])
                .unwrap();
        let mk = |keys: Vec<i64>| -> BoxedOp {
            let rows = keys.into_iter().map(|k| vec![Value::I64(k), Value::I64(k ^ 5)]).collect();
            Box::new(Values::new(schema.clone(), rows, 256, CancelToken::new()))
        };
        let mut build: Vec<i64> = (0..n).collect();
        build.extend((1..=8_000).map(|i| i << 24));
        // Every build key, and as many keys that miss.
        let probe: Vec<i64> = build.iter().flat_map(|&k| [k, k + n]).collect();
        let disk = SimulatedDisk::instant();
        let budget = MemBudget::new(48 * 1024);
        let cfg = SpillConfig::new(budget.clone(), disk.clone(), 8);
        let metrics = cfg.metrics.clone();
        let mut j = HashJoin::new(
            mk(probe.clone()),
            mk(build.clone()),
            key_cols(&[(0, TypeId::I64)]),
            key_cols(&[(0, TypeId::I64)]),
            JoinType::Inner,
            schema.join(&schema),
            CancelToken::new(),
        )
        .with_spill(cfg);
        let out = drain(&mut j).unwrap();
        let mut got: Vec<Vec<Value>> = (0..out.rows()).map(|i| out.row_values(i)).collect();
        got.sort_by_key(|r| format!("{r:?}"));
        let keys: std::collections::HashSet<i64> = build.iter().copied().collect();
        let mut want: Vec<Vec<Value>> = probe
            .iter()
            .filter(|k| keys.contains(k))
            .map(|&k| [k, k ^ 5, k, k ^ 5].map(Value::I64).to_vec())
            .collect();
        want.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(got, want);
        // Stratum 0, and every partition's split on stratum 1: a build
        // and a probe file per partition at each.
        assert_eq!(metrics.files.load(Relaxed), 16 + 8 * 16, "spill files");
        // Partitions 1..8 replay in 8 direct parts each; partition 0's
        // eight parts mix both kinds of key and replay hashed.
        let replayed = (metrics.replayed_direct.load(Relaxed), metrics.replayed.load(Relaxed));
        assert_eq!(replayed, (56, 64), "(direct, replayed) partition builds");
        drop(j);
        assert_eq!((budget.used(), disk.used_bytes()), (0, 0), "every byte and block let go");
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
    /// same keys), 64-row batches through 8-way routed spills under a
    /// budget of `limit` bytes the build overflows: each probe batch
    /// diverts a few rows to each partition. Returns, per probe pull, the
    /// spill chunks written so far and the budget in use (see
    /// [`Watched`]), once the join has drained and let go of every byte
    /// and block.
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
        let spilled = metrics.files.load(std::sync::atomic::Ordering::Relaxed);
        assert!(spilled >= 4, "{spilled} partitions spilled");
        drop(j);
        assert_eq!(budget.used(), 0, "staged rows uncharged");
        assert_eq!(disk.used_bytes(), 0, "all spill blocks reclaimed");
        let seen = seen.lock().unwrap().clone();
        seen
    }

    #[test]
    fn diverted_probe_rows_are_staged_and_never_keep_the_budget_over() {
        use crate::spill::SPILL_CHUNK_ROWS;
        let (n, limit) = (20_000, 64 * 1024);
        let seen = divert_probe_rows(n, limit);
        // Written while probing: full chunks, and the fullest stage
        // written early when the budget is over. A chunk per probe batch
        // per partition would be over 1 000.
        let (built, probed) = (seen[0].0, seen[seen.len() - 1].0);
        let bound = (n as u64).div_ceil(SPILL_CHUNK_ROWS as u64) + 8;
        assert!(probed - built <= bound, "{} chunks for {n} probe rows", probed - built);
        // Between probe batches the staged rows never leave the budget over.
        assert!(seen.iter().all(|&(_, used)| used <= limit), "{seen:?}");
    }

    #[test]
    fn spilled_build_rows_are_staged_and_never_keep_the_budget_over() {
        use crate::partition::{MemBudget, SpillConfig};
        use crate::spill::SPILL_CHUNK_ROWS;
        use std::sync::atomic::Ordering::Relaxed;
        use vw_storage::SimulatedDisk;
        // 20 000 build rows in 64-row batches through an 8-way routed
        // spill: the budget holds under a third of them, so the build
        // overflows and every later batch routes a few rows to each
        // partition.
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
        // The build is done at the probe's first pull: its chunks are full
        // ones, the fullest stage written early when the budget is over,
        // and at most one last one per partition. (A chunk per build batch
        // per partition would be over 1 000.)
        let spilled = metrics.files.load(Relaxed);
        assert!(spilled >= 8, "{spilled} partitions spilled");
        let chunks = probed.lock().unwrap()[0].0;
        let bound = (n as u64).div_ceil(SPILL_CHUNK_ROWS as u64) + 8;
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

    /// `input`, counting the `next` calls it answers.
    struct Counted(BoxedOp, Arc<std::sync::atomic::AtomicUsize>);

    impl Operator for Counted {
        fn schema(&self) -> &Schema {
            self.0.schema()
        }

        fn name(&self) -> &'static str {
            "Counted"
        }

        fn next(&mut self) -> Result<Option<Batch>> {
            self.1.fetch_add(1, SeqCst);
            self.0.next()
        }
    }

    #[test]
    fn an_empty_resident_build_answers_inner_and_semi_joins_alone() {
        use crate::partition::{MemBudget, SpillConfig};
        use vw_storage::SimulatedDisk;
        let probe: Vec<(Option<i64>, &str)> = (0..20).map(|i| (Some(i % 5), "p")).collect();
        let run = |jt: JoinType, build: Vec<(Option<i64>, &str)>, spill: bool| {
            let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let left = Box::new(Counted(source("l", probe.clone()), calls.clone()));
            let mut j = join(left, source("r", build), jt);
            if spill {
                j = j.with_spill(SpillConfig::new(MemBudget::new(1), SimulatedDisk::instant(), 4));
            }
            let rows = drain(&mut j).unwrap().rows();
            (rows, calls.load(SeqCst))
        };
        for jt in [JoinType::Inner, JoinType::LeftSemi] {
            assert_eq!(
                run(jt, Vec::new(), false),
                (0, 0),
                "{jt:?}: the probe side is never pulled"
            );
            // A build of NULL keys only holds no row either.
            assert_eq!(run(jt, vec![(None, "n")], false), (0, 0), "{jt:?}");
            // An overflowed build holds no resident row, but it is not empty.
            let (rows, calls) = run(jt, vec![(Some(3), "b"), (Some(4), "b")], true);
            assert_eq!(rows, 8, "{jt:?} over a build on disk");
            assert!(calls > 1, "{jt:?} over a build on disk pulls its probe side");
        }
        for (jt, want) in
            [(JoinType::LeftOuter, 20), (JoinType::LeftAnti, 20), (JoinType::NullAwareLeftAnti, 20)]
        {
            let (rows, calls) = run(jt, Vec::new(), false);
            assert_eq!(rows, want, "{jt:?}");
            assert!(calls > 1, "{jt:?} over an empty build pulls its probe side");
        }
    }

    /// splitmix64: the filter property test's keys.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn a_published_filter_keeps_every_lane_the_join_would_match() {
        // One or two BIGINT key columns; `spread` scales the keys apart
        // (1: dense, a direct table; else sparse, a hashed one).
        for (n_keys, spread, direct) in [(1, 1, true), (1, 1_000_003, false), (2, 1, false)] {
            for dop in [1usize, 4] {
                let mut rng = 0xf117_u64 + dop as u64 + spread as u64;
                let fields: Vec<Field> =
                    (0..n_keys).map(|i| Field::nullable(format!("k{i}"), TypeId::I64)).collect();
                let schema = Schema::new(fields).unwrap();
                let key_of = |rng: &mut u64| -> Vec<Value> {
                    let k = (mix(rng) % 3000) as i64;
                    let null = mix(rng).is_multiple_of(20);
                    (0..n_keys)
                        .map(|c| match (null, c) {
                            (true, _) => Value::Null,
                            (false, 0) => Value::I64(k * spread),
                            (false, _) => Value::I64(k % 7),
                        })
                        .collect()
                };
                let build_rows: Vec<Vec<Value>> = (0..1500).map(|_| key_of(&mut rng)).collect();
                let keys = key_cols(&(0..n_keys).map(|c| (c, TypeId::I64)).collect::<Vec<_>>());
                let filter = Arc::new(JoinFilter::default());
                let shared = Arc::new(
                    SharedBuild::new(
                        keys,
                        schema.clone(),
                        JoinType::Inner,
                        dop,
                        CancelToken::new(),
                    )
                    .filtering(filter.clone()),
                );
                let mut sinks: Vec<BuildSink> = (0..dop)
                    .map(|w| {
                        let share = build_rows.iter().skip(w).step_by(dop).cloned().collect();
                        let input: BoxedOp =
                            Box::new(Values::new(schema.clone(), share, 64, CancelToken::new()));
                        shared.sink(Some(input), Vec::new(), None)
                    })
                    .collect();
                while !sinks.is_empty() {
                    sinks.retain_mut(|s| !matches!(s.step().unwrap(), Step::Done));
                }
                let build = filter.build().expect("published");
                assert_eq!(build.table.as_ref().unwrap().is_direct(), direct);
                let mut scratch = FilterScratch::default();
                for _ in 0..20 {
                    let probe: Vec<Vec<Value>> = (0..1024).map(|_| key_of(&mut rng)).collect();
                    let cols: Vec<Vector> = (0..n_keys)
                        .map(|c| {
                            let vals: Vec<Value> = probe.iter().map(|r| r[c].clone()).collect();
                            crate::vector::vector_from_values(TypeId::I64, &vals).unwrap()
                        })
                        .collect();
                    let refs: Vec<&Vector> = cols.iter().collect();
                    let mut sel = SelVec::new();
                    build.retain(&refs, &mut sel, true, &mut scratch);
                    let kept: std::collections::HashSet<usize> = sel.iter().collect();
                    // A narrower incoming selection keeps the same lanes
                    // of its own.
                    let mut sparse = SelVec::from_positions((0..1024).step_by(8).collect());
                    build.retain(&refs, &mut sparse, false, &mut scratch);
                    let mut every_8th: Vec<usize> =
                        kept.iter().filter(|&&p| p % 8 == 0).copied().collect();
                    every_8th.sort_unstable();
                    assert_eq!(sparse.iter().collect::<Vec<_>>(), every_8th);
                    for (p, row) in probe.iter().enumerate() {
                        let matches = !row[0].is_null() && build_rows.contains(row);
                        assert!(!matches || kept.contains(&p), "a matching lane dropped: {row:?}");
                        if direct {
                            assert_eq!(kept.contains(&p), matches, "direct membership is exact");
                        }
                        if row[0].is_null() {
                            assert!(!kept.contains(&p), "a NULL key is dropped");
                        }
                    }
                }
            }
        }
    }
}
