//! The one hash-build state machine under hash join and hash aggregation.
//!
//! A hash build is `P` **slots** of operator-defined state (`S`: staged
//! join rows, or an aggregation shard) behind one [`RadixRouter`]. The
//! serial and the memory-governed build are the two settings of
//! [`Partitions`]:
//!
//! * **P = 1** — the serial build. [`Partitions::route`] does nothing and
//!   [`Partitions::lane`] hands the live selection back untouched, so the
//!   operators' fused hash+probe kernels run exactly as if no partitioning
//!   existed.
//! * **P > 1 with a governor** ([`SpillConfig`]) — the grace build. Every
//!   slot's bytes are charged to the query's [`MemBudget`]
//!   ([`Partitions::recharge`]); while the query is over budget
//!   [`Partitions::evict_while_over`] hands the largest slot and its
//!   [`SpillStage`] to the operator, which writes the slot out and resets
//!   it; rows that arrive for an evicted slot are staged for its file
//!   ([`Partitions::push_spilled`]), build and probe spilling through the
//!   one writer. Dropping the set returns every charged byte.
//!
//! A set has one writer. A join build inside an Exchange has `dop`
//! writers — one sink per worker, each with a set of its own (ungoverned
//! at P > 1 there: the slots become one table each), all on the same
//! fan-out and stratum, a governed one charging the same budget — and
//! joins them up slot by slot when the last sink is done
//! (`op/hashjoin.rs`): there is no shared table and no lock per row.
//! "Spilled" is then a property of the slot, not of one set: a slot any
//! set evicted goes to disk in every set
//! ([`Partitions::spill_stage`]).
//!
//! The "when more cores hurts" lesson behind the radix design: threading
//! one shared table serializes on cache-line ping-pong, so every slot is
//! *private* — a build row's key hash (the same `hash_keys` output the
//! tables of [`crate::hashtable`] index by) picks its slot by the *top*
//! `bits` bits, provably independent of the table's low-bit directory
//! index, and equal keys always meet in one slot. Probes are not merged
//! back: a probe batch is hashed once, split by the same bits into reused
//! per-slot [`SelVec`]s, and each sub-selection runs the ordinary
//! per-table kernel against a table `P`× smaller.
//!
//! What a build reports is what `EXPLAIN ANALYZE` prints for it (see
//! [`crate::profile`]): its final rows or groups per slot (`shards=P×skew`)
//! and its governor's [`SpillMetrics`] (`spill=Pp W/R`). Probes are not
//! counted — a probe's cost is its operator's `time=`.

use crate::spill::SpillStage;
use crate::vector::Vector;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use vw_common::{Result, SelVec};
pub use vw_service::WorkerPool;
use vw_storage::SimulatedDisk;

/// Cost gate of a table per slot: a join build shared inside an Exchange
/// with fewer rows than this still makes (and probes) a single table —
/// the probe-side split does not pay for tables that small.
pub const DEFAULT_PARALLEL_BUILD_MIN_ROWS: usize = 8192;

/// Deepest hash-bit stratum grace spilling will re-partition on. Each
/// recursion level consumes `log2(P)` fresh hash bits below the previous
/// level's; past this depth a partition is rehydrated and built in memory
/// regardless of the budget (a graceful floor — at 8 partitions, 8 levels
/// divide the build 8^8 ≈ 16M ways first).
pub const MAX_SPILL_DEPTH: u32 = 8;

/// Routes hashes to radix partitions and splits probe selections
/// partition-wise. All scratch (`P` selection vectors) is reused across
/// batches.
///
/// A router lives on a hash-bit **stratum**: depth 0 routes on the top
/// `bits` bits (disjoint from the low-bit directory index of the tables in
/// [`crate::hashtable`]), depth `d` on the next `bits` bits below stratum
/// `d - 1`. Grace-spill recursion re-partitions an oversized partition on
/// the next stratum, so every level's split is independent of all levels
/// above it.
#[derive(Debug)]
pub struct RadixRouter {
    bits: u32,
    /// Right-shift that brings this stratum's bits to the bottom.
    shift: u32,
    sels: Vec<SelVec>,
}

impl RadixRouter {
    /// A router over `next_pow2(partitions)` radix partitions on stratum 0
    /// (the hash's top bits).
    pub fn new(partitions: usize) -> RadixRouter {
        RadixRouter::at_depth(partitions, 0)
    }

    /// A router on hash-bit stratum `depth` (grace-spill recursion).
    pub fn at_depth(partitions: usize, depth: u32) -> RadixRouter {
        let p = partitions.max(1).next_power_of_two();
        let bits = p.trailing_zeros();
        assert!(bits * (depth + 1) <= 48, "radix strata exhausted the hash");
        RadixRouter { bits, shift: 64 - bits * (depth + 1), sels: vec![SelVec::new(); p] }
    }

    /// Number of partitions (a power of two).
    pub fn partitions(&self) -> usize {
        self.sels.len()
    }

    /// The partition owning hash `h` (this stratum's `bits` bits —
    /// independent of the low-bit table directory index and of every
    /// shallower stratum).
    #[inline]
    pub fn shard_of(&self, h: u64) -> usize {
        if self.bits == 0 {
            0
        } else {
            ((h >> self.shift) as usize) & (self.sels.len() - 1)
        }
    }

    /// Split the selected lanes (`sel`, or `0..n` when `None`) by radix
    /// into per-partition selections — the per-batch radix histogram in
    /// selection form (each partition's `SelVec` length is its count, and
    /// the positions double as the scatter order). Each `SelVec` stays
    /// sorted (lanes are visited in ascending order); the buffers are
    /// reused, so steady-state splitting allocates nothing once warm.
    pub fn split(&mut self, hashes: &[u64], sel: Option<&SelVec>, n: usize) -> &[SelVec] {
        for s in &mut self.sels {
            s.clear();
        }
        if self.bits == 0 {
            match sel {
                None => self.sels[0].fill_identity(n),
                Some(s) => self.sels[0].clear_and_extend_from_slice(s.as_slice()),
            }
            return &self.sels;
        }
        let (shift, mask) = (self.shift, self.sels.len() - 1);
        match sel {
            None => {
                for (p, &h) in hashes.iter().enumerate().take(n) {
                    self.sels[(h >> shift) as usize & mask].push(p as u32);
                }
            }
            Some(s) => {
                for p in s.iter() {
                    self.sels[(hashes[p] >> shift) as usize & mask].push(p as u32);
                }
            }
        }
        &self.sels
    }

    /// The per-partition selections filled by the last [`RadixRouter::split`]
    /// (borrow-friendly accessor for callers that also hold the shards).
    pub fn shard_sel(&self, shard: usize) -> &SelVec {
        &self.sels[shard]
    }
}

/// The partitioned build state: `P` slots of `S` behind one router, plus —
/// for a memory-governed build — the per-slot bytes charged to the query's
/// [`MemBudget`] and the per-slot spill files. The operators supply only
/// what a slot holds and how one is written out; where rows live while a
/// build runs, who evicts them and when the charge is returned is decided
/// here, once (see the module docs for the two settings).
pub struct Partitions<S> {
    router: RadixRouter,
    slots: Vec<S>,
    gov: Option<Governor>,
}

struct Governor {
    cfg: SpillConfig,
    charged: Vec<usize>,
    /// Per slot, once evicted: the stage its rows reach its spill file
    /// through.
    stages: Vec<Option<SpillStage>>,
}

impl<S> Partitions<S> {
    /// `spill = Some` builds a governed set on the config's fan-out and
    /// hash-bit stratum; `None` an ungoverned one over
    /// `next_pow2(partitions)` slots (1 = the serial build).
    pub fn new(
        partitions: usize,
        spill: Option<SpillConfig>,
        make: impl FnMut() -> Result<S>,
    ) -> Result<Partitions<S>> {
        let router = match &spill {
            Some(cfg) => RadixRouter::at_depth(cfg.partitions, cfg.depth),
            None => RadixRouter::new(partitions),
        };
        let p = router.partitions();
        let slots = std::iter::repeat_with(make).take(p).collect::<Result<_>>()?;
        let gov = spill.map(|cfg| Governor {
            cfg,
            charged: vec![0; p],
            stages: std::iter::repeat_with(|| None).take(p).collect(),
        });
        Ok(Partitions { router, slots, gov })
    }

    /// Number of slots (a power of two, at least 1).
    pub fn partitions(&self) -> usize {
        self.router.partitions()
    }

    /// Split the `live` lanes of an `n`-lane batch across the slots by
    /// their hashes. At P = 1 this does nothing — and reads no hash, so a
    /// serial build need not compute any.
    pub fn route(&mut self, hashes: &[u64], live: &SelVec, n: usize) {
        if self.partitions() > 1 {
            // A full-length sorted selection is the identity: skip the
            // indirection.
            self.router.split(hashes, (live.len() != n).then_some(live), n);
        }
    }

    /// The lanes the last [`Partitions::route`] gave slot `si` (P > 1).
    pub fn routed(&self, si: usize) -> &SelVec {
        self.router.shard_sel(si)
    }

    /// Slot `si`'s lanes of the last routed batch together with its state.
    /// At P = 1 the lanes are `live` itself.
    pub fn lane<'a>(&'a mut self, si: usize, live: &'a SelVec) -> (&'a SelVec, &'a mut S) {
        let sel = if self.slots.len() == 1 { live } else { self.router.shard_sel(si) };
        (sel, &mut self.slots[si])
    }

    /// Move the slots out (finalize); the router, charges and spill files
    /// stay.
    pub fn take_slots(&mut self) -> Vec<S> {
        std::mem::take(&mut self.slots)
    }

    /// Set slot `si`'s charge to `bytes` (no-op when ungoverned).
    pub fn recharge(&mut self, si: usize, bytes: usize) {
        if let Some(g) = &mut self.gov {
            let before = std::mem::replace(&mut g.charged[si], bytes);
            if bytes >= before {
                g.cfg.budget.charge(bytes - before);
            } else {
                g.cfg.budget.uncharge(before - bytes);
            }
        }
    }

    /// The governor's spill decision: while the query is over budget, pick
    /// the slot holding the most charged bytes and let `write_out` move
    /// its state into the slot's spill stage (created on first eviction)
    /// and reset the slot. The slot's charge is returned afterwards. Stops
    /// when nothing this set holds resident is charged — another operator
    /// of the query owns the rest; if the budget is still over then, the
    /// stages write out what they hold (the flush rule of
    /// [`SpillStage`]).
    pub fn evict_while_over(
        &mut self,
        mut write_out: impl FnMut(usize, &mut S, &mut SpillStage) -> Result<()>,
    ) -> Result<()> {
        let Some(Governor { cfg, charged, stages }) = &mut self.gov else { return Ok(()) };
        while cfg.budget.over() {
            let victim = (0..charged.len()).max_by_key(|&si| charged[si]).expect("P >= 1");
            if charged[victim] == 0 {
                break;
            }
            let stage = stages[victim].get_or_insert_with(|| cfg.new_stage());
            write_out(victim, &mut self.slots[victim], stage)?;
            cfg.budget.uncharge(std::mem::take(&mut charged[victim]));
        }
        for stage in stages.iter_mut().flatten() {
            stage.flush_if_over()?;
        }
        Ok(())
    }

    /// Has slot `si` been evicted at least once (does it own a spill file)?
    pub fn is_spilled(&self, si: usize) -> bool {
        self.gov.as_ref().is_some_and(|g| g.stages[si].is_some())
    }

    /// Slot `si`'s spill stage, created on first use: it takes the rows
    /// that arrive for a slot already evicted, and — once every sink of a
    /// shared build has deposited — the rows this set still holds for a
    /// slot *another* sink's set evicted.
    pub fn spill_stage(&mut self, si: usize) -> &mut SpillStage {
        let Governor { cfg, stages, .. } = self.gov.as_mut().expect("spilling is governed");
        stages[si].get_or_insert_with(|| cfg.new_stage())
    }

    /// Stage the lanes the last [`Partitions::route`] gave slot `si`, an
    /// evicted one, of `cols` for its spill file.
    pub fn push_spilled(&mut self, si: usize, cols: &[Vector]) -> Result<()> {
        let Governor { stages, .. } = self.gov.as_mut().expect("spilling is governed");
        let stage = stages[si].as_mut().expect("an evicted slot has a stage");
        stage.push(cols, self.router.shard_sel(si))
    }

    /// Take slot `si`'s spill stage (the deferred phase owns its file,
    /// once [`SpillStage::finish`]ed).
    pub fn take_stage(&mut self, si: usize) -> Option<SpillStage> {
        self.gov.as_mut().and_then(|g| g.stages[si].take())
    }

    /// Return every byte still charged. Normal completion calls this when
    /// the slots' state has been emitted or handed on; `Drop` calls it for
    /// error and KILL unwinds.
    pub fn release(&mut self) {
        if let Some(g) = &mut self.gov {
            for c in &mut g.charged {
                g.cfg.budget.uncharge(std::mem::take(c));
            }
        }
    }
}

impl<S> Drop for Partitions<S> {
    fn drop(&mut self) {
        self.release();
    }
}

/// The per-query memory governor: a shared byte counter every memory-
/// governed hash build charges as its staged shards grow, with a hard
/// budget above which the grace-spill machinery starts evicting the
/// largest shards to disk.
///
/// One `MemBudget` is created per query (see `vw-core::compile`) and
/// shared — through an `Arc` — by every hash join build and every
/// aggregation in the plan, including the sinks of a build shared inside
/// an Exchange (which together charge it for that build once), the
/// per-worker partial aggregates there, and the recursive
/// joins/re-aggregations of already-spilled partitions. The
/// budget is therefore a *query-wide* ceiling on hash build state, not a
/// per-operator one: whichever operator pushes the total over the line
/// spills its own largest shard first.
///
/// Charging is advisory bookkeeping, not an allocator: operators report
/// the approximate bytes of rows they stage
/// ([`Vector::byte_size`](crate::vector::Vector::byte_size)-based) and
/// uncharge when the rows
/// are spilled, handed downstream, or dropped.
#[derive(Debug)]
pub struct MemBudget {
    limit: usize,
    used: AtomicUsize,
}

/// Process-wide mirror of every [`MemBudget`]'s charged bytes — the leak
/// observable: with no query running it must read zero, which the chaos
/// suite asserts after every run (ARCHITECTURE.md "Failure model").
static GLOBAL_CHARGED: AtomicUsize = AtomicUsize::new(0);

impl MemBudget {
    /// A budget of `limit` bytes (callers never construct an unlimited
    /// one — an unlimited query simply has no `MemBudget` at all, so the
    /// zero-spill path carries none of this machinery).
    pub fn new(limit: usize) -> Arc<MemBudget> {
        Arc::new(MemBudget { limit: limit.max(1), used: AtomicUsize::new(0) })
    }

    /// Bytes currently charged across *all* budgets in the process. Zero
    /// whenever no query holds staged build state — any other resting
    /// value is a reclamation leak.
    pub fn global_in_use() -> usize {
        GLOBAL_CHARGED.load(Ordering::Relaxed)
    }

    /// The configured ceiling in bytes.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Bytes currently charged across the query.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Charge `bytes` of newly staged build state.
    pub fn charge(&self, bytes: usize) {
        self.used.fetch_add(bytes, Ordering::Relaxed);
        GLOBAL_CHARGED.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Return `bytes` of staged state (spilled, emitted, or dropped).
    pub fn uncharge(&self, bytes: usize) {
        let prev = self.used.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "uncharge below zero ({prev} - {bytes})");
        GLOBAL_CHARGED.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Is the query over its budget right now?
    pub fn over(&self) -> bool {
        self.used() > self.limit
    }
}

/// Spill traffic counters for one operator's subtree, shared with the
/// recursive joins / re-aggregations its spilled partitions spawn — and
/// by every prober of one shared join build — so the top-level operator's
/// `spill=` in `EXPLAIN ANALYZE` counts the whole cascade once (see
/// [`crate::profile`]).
#[derive(Debug, Default)]
pub struct SpillMetrics {
    /// Partitions that spilled at least one chunk (all strata).
    pub partitions: AtomicU64,
    /// Encoded bytes written to spill files.
    pub bytes_written: AtomicU64,
    /// Chunks written to spill files (one per append).
    pub chunks_written: AtomicU64,
    /// Encoded bytes read back while rehydrating.
    pub bytes_read: AtomicU64,
}

impl SpillMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Arc<SpillMetrics> {
        Arc::new(SpillMetrics::default())
    }

    /// Record one partition's first spill.
    pub fn record_partition(&self) {
        self.partitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one chunk of `n` encoded bytes appended to a spill file.
    pub fn record_write(&self, n: u64) {
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
        self.chunks_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` encoded bytes rehydrated from a spill file.
    pub fn record_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }
}

/// Everything a memory-governed hash operator needs to spill: the shared
/// query budget, the device temp spill files live on, the partition fan-out
/// per stratum, the stratum this operator routes on, and the shared
/// traffic counters. `deeper()` derives the config for the recursive
/// operator a spilled partition is re-processed with.
#[derive(Clone)]
pub struct SpillConfig {
    /// The query-wide memory governor.
    pub budget: Arc<MemBudget>,
    /// Device for temp spill files.
    pub disk: Arc<SimulatedDisk>,
    /// Radix partitions per stratum (power of two, ≥ 2 so recursion can
    /// always split further).
    pub partitions: usize,
    /// This operator's hash-bit stratum (0 = top bits; spilled partitions
    /// recurse at `depth + 1`).
    pub depth: u32,
    /// Spill traffic counters shared down the recursion.
    pub metrics: Arc<SpillMetrics>,
}

impl SpillConfig {
    /// A stratum-0 config over `partitions` grace partitions (rounded up
    /// to a power of two, minimum 2).
    pub fn new(budget: Arc<MemBudget>, disk: Arc<SimulatedDisk>, partitions: usize) -> SpillConfig {
        SpillConfig {
            budget,
            disk,
            partitions: partitions.max(2).next_power_of_two(),
            depth: 0,
            metrics: SpillMetrics::new(),
        }
    }

    /// A fresh spill stage for one evicted partition, counted in the
    /// metrics.
    pub(crate) fn new_stage(&self) -> SpillStage {
        self.metrics.record_partition();
        SpillStage::new(self)
    }

    /// The deepest usable stratum for `partitions`-way splits: capped by
    /// [`MAX_SPILL_DEPTH`] *and* by the hash bits available — each level
    /// consumes `log2(P)` bits and strata must stay clear of the low-bit
    /// table directory (we keep the bottom 16 bits untouched). At 1024
    /// partitions (10 bits) that is depth 3; at the default 8 it is the
    /// full `MAX_SPILL_DEPTH`.
    pub fn max_depth(partitions: usize) -> u32 {
        let bits = partitions.max(2).next_power_of_two().trailing_zeros();
        MAX_SPILL_DEPTH.min(48 / bits - 1)
    }

    /// The config for re-processing one spilled partition on the next
    /// hash-bit stratum — `None` once [`SpillConfig::max_depth`] is
    /// reached (the recursion floor: build in memory regardless of the
    /// budget).
    pub fn deeper(&self) -> Option<SpillConfig> {
        if self.depth >= SpillConfig::max_depth(self.partitions) {
            return None;
        }
        let mut next = self.clone();
        next.depth += 1;
        Some(next)
    }
}

impl std::fmt::Debug for SpillConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillConfig")
            .field("limit", &self.budget.limit())
            .field("partitions", &self.partitions)
            .field("depth", &self.depth)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::hash::hash_u64;

    #[test]
    fn router_splits_cover_all_lanes_disjointly() {
        let hashes: Vec<u64> = (0..1000u64).map(hash_u64).collect();
        let mut r = RadixRouter::new(4);
        assert_eq!(r.partitions(), 4);
        r.split(&hashes, None, hashes.len());
        let mut seen = vec![false; hashes.len()];
        let mut counts = vec![0usize; 4];
        for (s, count) in counts.iter_mut().enumerate() {
            let sel = r.shard_sel(s);
            *count = sel.len();
            for p in sel.iter() {
                assert!(!seen[p], "lane routed twice");
                seen[p] = true;
                assert_eq!(r.shard_of(hashes[p]), s);
            }
            assert!(sel.as_slice().windows(2).all(|w| w[0] < w[1]), "sorted");
        }
        assert!(seen.iter().all(|&b| b), "every lane routed");
        // Reasonable balance: a good hash spreads lanes within 2x of even.
        assert!(counts.iter().all(|&c| c > 125 && c < 500), "{counts:?}");
    }

    #[test]
    fn router_rounds_up_to_power_of_two_and_handles_one() {
        assert_eq!(RadixRouter::new(3).partitions(), 4);
        assert_eq!(RadixRouter::new(5).partitions(), 8);
        let mut r = RadixRouter::new(1);
        let hashes = vec![7u64, 8, 9];
        let sels = r.split(&hashes, None, 3);
        assert_eq!(sels.len(), 1);
        assert_eq!(sels[0].as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn split_respects_selection() {
        let hashes: Vec<u64> = (0..64u64).map(hash_u64).collect();
        let sel: SelVec = (0..64u32).filter(|p| p % 3 == 0).collect();
        let mut r = RadixRouter::new(2);
        let total: usize = r.split(&hashes, Some(&sel), 64).iter().map(|s| s.len()).sum();
        assert_eq!(total, sel.len());
    }

    #[test]
    fn router_strata_are_independent() {
        // The same hash set splits differently (and completely) on every
        // stratum, and a deeper stratum subdivides one shallow partition.
        let hashes: Vec<u64> = (0..4000u64).map(hash_u64).collect();
        let mut d0 = RadixRouter::at_depth(4, 0);
        let mut d1 = RadixRouter::at_depth(4, 1);
        d0.split(&hashes, None, hashes.len());
        let part0: SelVec = d0.shard_sel(0).iter().map(|p| p as u32).collect();
        assert!(!part0.is_empty());
        d1.split(&hashes, Some(&part0), hashes.len());
        let sub_counts: Vec<usize> = (0..4).map(|s| d1.shard_sel(s).len()).collect();
        assert_eq!(sub_counts.iter().sum::<usize>(), part0.len());
        // A good hash splits the sub-partition across all deeper shards.
        assert!(sub_counts.iter().all(|&c| c > 0), "{sub_counts:?}");
        for s in 0..4 {
            for p in d1.shard_sel(s).iter() {
                assert_eq!(d0.shard_of(hashes[p]), 0, "stratum 0 routing preserved");
                assert_eq!(d1.shard_of(hashes[p]), s);
            }
        }
    }

    #[test]
    fn mem_budget_charges_and_trips() {
        let b = MemBudget::new(1000);
        assert_eq!(b.limit(), 1000);
        assert!(!b.over());
        b.charge(600);
        assert!(!b.over());
        b.charge(600);
        assert!(b.over());
        assert_eq!(b.used(), 1200);
        b.uncharge(600);
        assert!(!b.over());
    }

    #[test]
    fn spill_config_deepens_to_a_floor() {
        let cfg = SpillConfig::new(MemBudget::new(1), SimulatedDisk::instant(), 3);
        assert_eq!(cfg.partitions, 4, "rounded to a power of two");
        assert_eq!(cfg.depth, 0);
        let mut d = cfg.clone();
        for expect in 1..=MAX_SPILL_DEPTH {
            d = d.deeper().expect("within the recursion floor");
            assert_eq!(d.depth, expect);
        }
        assert!(d.deeper().is_none(), "recursion floor reached");
    }

    #[test]
    fn spill_depth_floor_respects_hash_bit_supply() {
        // Wide fan-outs burn hash bits fast: the floor must stop the
        // recursion before a stratum would collide with the table
        // directory bits (previously an assert panic mid-query).
        assert_eq!(SpillConfig::max_depth(8), MAX_SPILL_DEPTH);
        assert_eq!(SpillConfig::max_depth(64), 7, "6 bits/level → 8 levels fit in 48");
        assert_eq!(SpillConfig::max_depth(1024), 3, "10 bits/level → 4 levels fit in 48");
        let mut cfg = SpillConfig::new(MemBudget::new(1), SimulatedDisk::instant(), 1024);
        let mut levels = 0;
        while let Some(next) = cfg.deeper() {
            cfg = next;
            levels += 1;
            // Every reachable stratum must construct without panicking.
            let _ = RadixRouter::at_depth(cfg.partitions, cfg.depth);
        }
        assert_eq!(levels, 3);
    }

    #[test]
    fn one_slot_partitions_pass_the_live_lanes_through() {
        let mut parts = Partitions::new(1, None, || Ok(0u32)).unwrap();
        assert_eq!(parts.partitions(), 1);
        let live: SelVec = [1u32, 4, 5].into_iter().collect();
        parts.route(&[], &live, 8); // reads no hash at P = 1
        let (sel, slot) = parts.lane(0, &live);
        assert_eq!(sel.as_slice(), live.as_slice());
        *slot += 1;
        parts.recharge(0, 1 << 40); // ungoverned: nothing to charge
        parts.evict_while_over(|_, _, _| panic!("ungoverned sets never evict")).unwrap();
        assert!(!parts.is_spilled(0) && parts.gov.is_none());
        assert_eq!(parts.take_slots(), vec![1]);
    }

    #[test]
    fn governed_partitions_evict_the_largest_slot_and_uncharge_on_drop() {
        let disk = SimulatedDisk::instant();
        let budget = MemBudget::new(1000);
        let cfg = SpillConfig::new(budget.clone(), disk.clone(), 4);
        let metrics = cfg.metrics.clone();
        let mut parts = Partitions::new(1, Some(cfg), || Ok(Vec::<i64>::new())).unwrap();
        assert_eq!(parts.partitions(), 4, "the config's fan-out wins");
        let hashes: Vec<u64> = (0..64u64).map(hash_u64).collect();
        let live: SelVec = (0..64u32).collect();
        parts.route(&hashes, &live, 64);
        let routed: usize = (0..4).map(|si| parts.routed(si).len()).sum();
        assert_eq!(routed, 64);
        for (si, bytes) in [(0, 300), (1, 500), (2, 100)] {
            parts.lane(si, &live).1.push(si as i64);
            parts.recharge(si, bytes);
        }
        assert_eq!(budget.used(), 900);
        parts.evict_while_over(|_, _, _| panic!("within budget")).unwrap();
        parts.recharge(2, 400); // 1200 > 1000: the 500-byte slot must go
        let mut victims = Vec::new();
        parts
            .evict_while_over(|si, slot, stage| {
                victims.push(si);
                stage.append(&[Vector::new(vw_common::ColData::I64(std::mem::take(slot)))])
            })
            .unwrap();
        assert_eq!(victims, vec![1]);
        assert_eq!(budget.used(), 700);
        assert!(parts.is_spilled(1) && !parts.is_spilled(0));
        assert_eq!(metrics.partitions.load(Ordering::Relaxed), 1);
        assert!(metrics.bytes_written.load(Ordering::Relaxed) > 0);
        parts.recharge(0, 100); // shrinking a charge returns the difference
        assert_eq!(budget.used(), 500);
        drop(parts);
        assert_eq!(budget.used(), 0, "drop returns every charged byte");
        assert_eq!(disk.used_bytes(), 0, "and frees the spill file");
    }
}
