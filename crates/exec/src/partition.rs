//! Radix routing and the per-query memory governor under hash join and
//! hash aggregation.
//!
//! A hash build is built the same way whether or not its query has a
//! memory budget: one table, for a join at any DOP and for every
//! aggregate. A budget ([`SpillConfig`]) changes two things only:
//!
//! * the build charges the query's [`MemBudget`] **one** number, the bytes
//!   it holds resident ([`Charge`]);
//! * the first time the query is over budget while the build holds
//!   resident rows, the build **overflows**: it writes everything it holds
//!   through a routed spill ([`crate::spill::RoutedSpill`] — one
//!   [`RadixRouter`] on the governor's stratum and fan-out in front of one
//!   spill stage per partition), and every later row goes the same way. A
//!   build is resident or on disk, never half; what happens to an
//!   overflowed one is the operators' (`op/hashjoin.rs`, `op/hashagg.rs`).
//!
//! A join build inside an Exchange has `dop` writers — one sink per
//! worker, each staging its rows privately — and one table built over all
//! of them when the last sink is done (`op/hashjoin.rs`): no lock per row,
//! and no routing. Only a routed spill routes rows: a row's key hash (the
//! same `hash_keys` output the tables of [`crate::hashtable`] index by)
//! picks its partition by the *top* `bits` bits of the stratum, provably
//! independent of the table's low-bit directory index, and equal keys
//! always meet in one partition. A join build that spills on a dense
//! integer key routes the key itself instead, bit-reversed, so the strata
//! take its low bits and a partition of dense keys stays dense enough to
//! replay direct; a partition that is not routes by hash below
//! (`op/hashjoin.rs`).
//!
//! What a build reports is what `EXPLAIN ANALYZE` prints for it (see
//! [`crate::profile`]): its governor's [`SpillMetrics`] (`spill=Fp W/R`,
//! and on a join `dir=D/B`, the replayed partitions built direct).
//! Probes are not counted — a probe's cost is its operator's `time=`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use vw_common::SelVec;
pub use vw_service::WorkerPool;
use vw_storage::SimulatedDisk;

/// Deepest hash-bit stratum grace spilling will re-partition on. Each
/// recursion level consumes `log2(P)` fresh hash bits below the previous
/// level's; past this depth a partition is rehydrated and built in memory
/// regardless of the budget (a graceful floor — at 8 partitions, 8 levels
/// divide the build 8^8 ≈ 16M ways first).
pub const MAX_SPILL_DEPTH: u32 = 8;

/// Routes a routed spill's rows to radix partitions by their routing
/// words (key hashes, or bit-reversed keys). All scratch (`P` selection
/// vectors) is reused across batches.
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
    /// A router over `next_pow2(partitions)` radix partitions on hash-bit
    /// stratum `depth` (0: the hash's top bits).
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
    /// (borrow-friendly accessor for callers that also hold the stages).
    pub fn shard_sel(&self, shard: usize) -> &SelVec {
        &self.sels[shard]
    }
}

/// The bytes one hash build holds resident, charged to its query's
/// [`MemBudget`] as one number and returned when the charge drops — at
/// the end of the build, on an overflow, or on an error or KILL unwind.
#[derive(Debug)]
pub struct Charge {
    budget: Arc<MemBudget>,
    bytes: usize,
}

impl Charge {
    /// Nothing charged to `budget` yet.
    pub fn new(budget: Arc<MemBudget>) -> Charge {
        Charge { budget, bytes: 0 }
    }

    /// The bytes charged.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Charge `bytes` instead of what was charged so far.
    pub fn set(&mut self, bytes: usize) {
        let before = std::mem::replace(&mut self.bytes, bytes);
        if bytes >= before {
            self.budget.charge(bytes - before);
        } else {
            self.budget.uncharge(before - bytes);
        }
    }

    /// Take over `other`'s bytes (the sinks of one build hand theirs to
    /// the build they make).
    pub fn absorb(&mut self, mut other: Charge) {
        self.bytes += std::mem::take(&mut other.bytes);
    }
}

impl Drop for Charge {
    fn drop(&mut self) {
        self.budget.uncharge(self.bytes);
    }
}

/// The per-query memory governor: a shared byte counter every memory-
/// governed hash build charges with what it holds resident, with a hard
/// budget above which a build that holds resident rows overflows to disk.
///
/// One `MemBudget` is created per query (see `vw-core::compile`) and
/// shared — through an `Arc` — by every hash join build and every
/// aggregation in the plan, including the sinks of a build shared inside
/// an Exchange (which together charge it for that build once), the
/// per-worker partial aggregates there, and the recursive
/// joins/re-aggregations of spilled partitions. The budget is therefore a
/// *query-wide* ceiling on hash build state, not a per-operator one:
/// whichever build is staging rows when the total crosses the line writes
/// what it holds out.
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
    /// Spill files begun (not partitions): one per partition of every
    /// routed spill that took a row (builds and probes, all strata).
    pub files: AtomicU64,
    /// Encoded bytes written to spill files.
    pub bytes_written: AtomicU64,
    /// Chunks written to spill files (one per append).
    pub chunks_written: AtomicU64,
    /// Encoded bytes read back while rehydrating.
    pub bytes_read: AtomicU64,
    /// A join's spilled partitions built resident on replay, and how many
    /// of them built a direct table.
    pub replayed: AtomicU64,
    pub replayed_direct: AtomicU64,
}

impl SpillMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Arc<SpillMetrics> {
        Arc::new(SpillMetrics::default())
    }

    /// Record one spill file's first row.
    pub fn record_file(&self) {
        self.files.fetch_add(1, Ordering::Relaxed);
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
        let mut r = RadixRouter::at_depth(4, 0);
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
                assert_eq!((hashes[p] >> 62) as usize, s, "the top two bits");
            }
            assert!(sel.as_slice().windows(2).all(|w| w[0] < w[1]), "sorted");
        }
        assert!(seen.iter().all(|&b| b), "every lane routed");
        // Reasonable balance: a good hash spreads lanes within 2x of even.
        assert!(counts.iter().all(|&c| c > 125 && c < 500), "{counts:?}");
    }

    #[test]
    fn router_rounds_up_to_power_of_two_and_handles_one() {
        assert_eq!(RadixRouter::at_depth(3, 0).partitions(), 4);
        assert_eq!(RadixRouter::at_depth(5, 0).partitions(), 8);
        let mut r = RadixRouter::at_depth(1, 0);
        let hashes = vec![7u64, 8, 9];
        let sels = r.split(&hashes, None, 3);
        assert_eq!(sels.len(), 1);
        assert_eq!(sels[0].as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn split_respects_selection() {
        let hashes: Vec<u64> = (0..64u64).map(hash_u64).collect();
        let sel: SelVec = (0..64u32).filter(|p| p % 3 == 0).collect();
        let mut r = RadixRouter::at_depth(2, 0);
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
                assert_eq!(hashes[p] >> 62, 0, "stratum 0 routing preserved");
                assert_eq!((hashes[p] >> 60) as usize & 3, s, "the next two bits");
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
    fn a_build_charges_one_number_and_returns_it_on_drop() {
        let budget = MemBudget::new(1000);
        let mut a = Charge::new(budget.clone());
        a.set(600);
        assert!(!budget.over());
        let mut b = Charge::new(budget.clone());
        b.set(500); // another sink of the same build
        assert!(budget.over());
        b.set(100); // shrinking a charge returns the difference
        assert_eq!((budget.used(), b.bytes()), (700, 100));
        a.absorb(b); // the sinks hand their charges to the build
        assert_eq!((budget.used(), a.bytes()), (700, 700));
        let global = MemBudget::global_in_use();
        assert!(global >= 700, "the process-wide mirror counts it ({global})");
        drop(a);
        assert_eq!(budget.used(), 0, "drop returns every charged byte");
    }
}
