//! # Cooperative Scans: dynamic bandwidth sharing
//!
//! Reproduction of *Cooperative Scans: Dynamic Bandwidth Sharing in a DBMS*
//! (Zukowski, Héman, Nes, Boncz, VLDB 2007) — reference \[7\] of the
//! Vectorwise paper.
//!
//! ## The problem
//!
//! Concurrent sequential scans over the same table, each with its own cursor
//! and an LRU buffer pool, destroy each other's locality: with `k` scans at
//! different positions the device re-reads the table up to `k` times
//! ("scan thrashing"). Classic mitigations *attach* new scans to a running
//! scan's position (elevator order). Cooperative Scans go further: scans
//! declare their interest to an **Active Buffer Manager (ABM)**, which
//! decides globally *which chunk to load next* and *which to evict*, based
//! on chunk **relevance** — how many active scans still need it — serving
//! cached chunks to every interested scan before they are evicted.
//!
//! Scans must therefore tolerate out-of-order chunk delivery, which
//! analytical operators (aggregation, join builds) do naturally.
//!
//! ## This module
//!
//! [`Abm`] implements three policies over a generic [`ChunkSource`]:
//!
//! * [`ScanPolicy::Naive`] — per-scan sequential order, shared cache,
//!   LRU-ish eviction (the strawman),
//! * [`ScanPolicy::Attach`] — new scans start at the most advanced active
//!   cursor and wrap around (circular/elevator sharing),
//! * [`ScanPolicy::Relevance`] — full cooperative scheduling: load the
//!   highest-relevance chunk, evict the lowest-relevance one, serve cached
//!   chunks eagerly.
//!
//! [`TableChunkSource`] adapts a [`vw_storage::TableStorage`] so the
//! experiments run against real compressed packs on the simulated disk.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vw_common::{ColData, Result, VwError};
use vw_storage::{BufferPool, TableStorage};

/// Provider of equally-important, independently-loadable chunks.
pub trait ChunkSource: Send + Sync {
    /// The data one chunk decodes to.
    type Chunk: Send + Sync;
    /// Total number of chunks.
    fn n_chunks(&self) -> usize;
    /// Load chunk `idx` (charged against the underlying device).
    fn load(&self, idx: usize) -> Result<Self::Chunk>;
}

/// Scheduling policy for concurrent scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanPolicy {
    /// Independent sequential cursors over a shared cache.
    Naive,
    /// New scans attach at the most advanced cursor, wrapping circularly.
    Attach,
    /// Cooperative relevance-driven scheduling (the paper's contribution).
    Relevance,
}

impl ScanPolicy {
    /// Display name used in bench tables.
    pub fn name(self) -> &'static str {
        match self {
            ScanPolicy::Naive => "naive-lru",
            ScanPolicy::Attach => "attach",
            ScanPolicy::Relevance => "relevance",
        }
    }
}

struct CacheEntry<C> {
    data: Arc<C>,
    /// Scans that still need this chunk.
    interest: usize,
    /// Monotonic touch tick for LRU in the non-cooperative policies.
    touched: u64,
}

struct AbmState<C> {
    /// Cached chunks.
    cache: HashMap<usize, CacheEntry<C>>,
    /// Chunks currently being loaded (by some scan's thread).
    loading: std::collections::HashSet<usize>,
    /// Per-scan remaining-needed chunk sets.
    needs: HashMap<u64, Vec<bool>>,
    /// Per-scan remaining count.
    remaining: HashMap<u64, usize>,
    /// Per-scan circular cursor (attach policy).
    cursor: HashMap<u64, usize>,
    /// Most advanced cursor, for attach placement.
    last_attach: usize,
    tick: u64,
}

/// The Active Buffer Manager: shared scheduler for concurrent scans.
pub struct Abm<S: ChunkSource> {
    source: S,
    policy: ScanPolicy,
    cache_capacity: usize,
    state: Mutex<AbmState<S::Chunk>>,
    cond: Condvar,
    next_scan_id: AtomicU64,
    loads: AtomicU64,
    served_from_cache: AtomicU64,
}

impl<S: ChunkSource> Abm<S> {
    /// Create an ABM over `source` caching at most `cache_chunks` chunks.
    pub fn new(source: S, cache_chunks: usize, policy: ScanPolicy) -> Arc<Abm<S>> {
        assert!(cache_chunks >= 1, "cache must hold at least one chunk");
        Arc::new(Abm {
            source,
            policy,
            cache_capacity: cache_chunks,
            state: Mutex::new(AbmState {
                cache: HashMap::new(),
                loading: std::collections::HashSet::new(),
                needs: HashMap::new(),
                remaining: HashMap::new(),
                cursor: HashMap::new(),
                last_attach: 0,
                tick: 0,
            }),
            cond: Condvar::new(),
            next_scan_id: AtomicU64::new(1),
            loads: AtomicU64::new(0),
            served_from_cache: AtomicU64::new(0),
        })
    }

    /// Register a new scan over all chunks. Returns its handle.
    pub fn register(self: &Arc<Self>) -> ScanHandle<S> {
        let id = self.next_scan_id.fetch_add(1, Ordering::Relaxed);
        let n = self.source.n_chunks();
        let mut st = self.state.lock();
        st.needs.insert(id, vec![true; n]);
        st.remaining.insert(id, n);
        // Attach policy: start at the most advanced position so the new scan
        // rides along with the current wavefront.
        let start = match self.policy {
            ScanPolicy::Attach => st.last_attach % n.max(1),
            _ => 0,
        };
        st.cursor.insert(id, start);
        // A newly registered scan raises the interest of cached chunks.
        for (idx, e) in st.cache.iter_mut() {
            let _ = idx;
            e.interest += 1;
        }
        ScanHandle { abm: self.clone(), id, finished: false }
    }

    /// (disk chunk loads, chunks served from cache) so far.
    pub fn io_stats(&self) -> (u64, u64) {
        (self.loads.load(Ordering::Relaxed), self.served_from_cache.load(Ordering::Relaxed))
    }

    /// Pick the cached chunk this scan should consume next, if any.
    fn cached_choice(&self, st: &AbmState<S::Chunk>, id: u64) -> Option<usize> {
        let needs = st.needs.get(&id)?;
        match self.policy {
            ScanPolicy::Relevance => {
                // Most endangered first: among cached chunks this scan needs,
                // take the one with the LOWEST interest (it will be evicted
                // soonest); ties broken by index.
                st.cache
                    .iter()
                    .filter(|(idx, _)| needs[**idx])
                    .min_by_key(|(idx, e)| (e.interest, **idx))
                    .map(|(idx, _)| *idx)
            }
            ScanPolicy::Naive | ScanPolicy::Attach => {
                // Strict cursor order: only the chunk at the cursor counts.
                let cur = st.cursor[&id];
                if needs.get(cur).copied().unwrap_or(false) && st.cache.contains_key(&cur) {
                    Some(cur)
                } else {
                    None
                }
            }
        }
    }

    /// Pick the chunk to load for this scan per policy.
    fn load_choice(&self, st: &AbmState<S::Chunk>, id: u64) -> Option<usize> {
        let needs = st.needs.get(&id)?;
        let n = needs.len();
        match self.policy {
            ScanPolicy::Naive | ScanPolicy::Attach => {
                let start = st.cursor[&id];
                (0..n)
                    .map(|k| (start + k) % n)
                    .find(|&idx| needs[idx] && !st.loading.contains(&idx))
            }
            ScanPolicy::Relevance => {
                // Relevance = number of scans still needing the chunk.
                let mut best: Option<(usize, usize)> = None; // (relevance, idx)
                for (idx, &needed) in needs.iter().enumerate() {
                    if !needed || st.loading.contains(&idx) || st.cache.contains_key(&idx) {
                        continue;
                    }
                    let relevance = st
                        .needs
                        .values()
                        .filter(|other| other.get(idx).copied().unwrap_or(false))
                        .count();
                    match best {
                        Some((r, i))
                            if (relevance, std::cmp::Reverse(idx)) <= (r, std::cmp::Reverse(i)) => {
                        }
                        _ => best = Some((relevance, idx)),
                    }
                }
                best.map(|(_, idx)| idx)
            }
        }
    }

    fn evict_if_needed(&self, st: &mut AbmState<S::Chunk>) {
        while st.cache.len() >= self.cache_capacity {
            let victim = match self.policy {
                ScanPolicy::Relevance => st
                    .cache
                    .iter()
                    .min_by_key(|(idx, e)| (e.interest, e.touched, **idx))
                    .map(|(idx, _)| *idx),
                _ => st.cache.iter().min_by_key(|(idx, e)| (e.touched, **idx)).map(|(idx, _)| *idx),
            };
            match victim {
                Some(v) => {
                    st.cache.remove(&v);
                }
                None => break,
            }
        }
    }

    fn consume(&self, st: &mut AbmState<S::Chunk>, id: u64, idx: usize) -> Arc<S::Chunk> {
        let needs = st.needs.get_mut(&id).expect("registered scan");
        debug_assert!(needs[idx]);
        needs[idx] = false;
        *st.remaining.get_mut(&id).unwrap() -= 1;
        st.tick += 1;
        let tick = st.tick;
        // Advance cursor past consumed chunks (naive/attach).
        let n = needs.len();
        let mut cur = st.cursor[&id];
        let needs = &st.needs[&id];
        for _ in 0..n {
            if needs[cur] {
                break;
            }
            cur = (cur + 1) % n;
        }
        st.cursor.insert(id, cur);
        st.last_attach = cur;
        let e = st.cache.get_mut(&idx).expect("cached");
        e.interest = e.interest.saturating_sub(1);
        e.touched = tick;
        e.data.clone()
    }

    /// Next chunk for scan `id`; None when the scan has seen every chunk.
    fn next_chunk(&self, id: u64) -> Result<Option<(usize, Arc<S::Chunk>)>> {
        loop {
            let mut st = self.state.lock();
            if st.remaining.get(&id).copied().unwrap_or(0) == 0 {
                return Ok(None);
            }
            // 1) Serve from cache if allowed by policy.
            if let Some(idx) = self.cached_choice(&st, id) {
                self.served_from_cache.fetch_add(1, Ordering::Relaxed);
                let data = self.consume(&mut st, id, idx);
                return Ok(Some((idx, data)));
            }
            // 2) Choose a chunk to load.
            if let Some(idx) = self.load_choice(&st, id) {
                st.loading.insert(idx);
                drop(st);
                let loaded = self.source.load(idx);
                let mut st = self.state.lock();
                st.loading.remove(&idx);
                let data = match loaded {
                    Ok(d) => Arc::new(d),
                    Err(e) => {
                        self.cond.notify_all();
                        return Err(e);
                    }
                };
                self.loads.fetch_add(1, Ordering::Relaxed);
                self.evict_if_needed(&mut st);
                let interest = st
                    .needs
                    .values()
                    .filter(|needs| needs.get(idx).copied().unwrap_or(false))
                    .count();
                st.tick += 1;
                let tick = st.tick;
                st.cache.insert(idx, CacheEntry { data, interest, touched: tick });
                self.cond.notify_all();
                // Loop back: the loaded chunk may or may not be this scan's
                // policy choice (relevance may prefer another cached chunk).
                continue;
            }
            // 3) Everything this scan needs is being loaded by others: wait.
            self.cond.wait(&mut st);
        }
    }

    fn deregister(&self, id: u64) {
        let mut st = self.state.lock();
        if let Some(needs) = st.needs.remove(&id) {
            // Drop this scan's interest from cached chunks.
            let interested: Vec<usize> =
                needs.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
            for idx in interested {
                if let Some(e) = st.cache.get_mut(&idx) {
                    e.interest = e.interest.saturating_sub(1);
                }
            }
        }
        st.remaining.remove(&id);
        st.cursor.remove(&id);
        self.cond.notify_all();
    }
}

/// A registered scan; yields every chunk exactly once, possibly out of order.
pub struct ScanHandle<S: ChunkSource> {
    abm: Arc<Abm<S>>,
    id: u64,
    finished: bool,
}

impl<S: ChunkSource> ScanHandle<S> {
    /// Fetch the next chunk, or `None` once all chunks were delivered.
    pub fn next_chunk(&mut self) -> Result<Option<(usize, Arc<S::Chunk>)>> {
        if self.finished {
            return Ok(None);
        }
        let r = self.abm.next_chunk(self.id)?;
        if r.is_none() {
            self.finished = true;
        }
        Ok(r)
    }
}

impl<S: ChunkSource> Drop for ScanHandle<S> {
    fn drop(&mut self) {
        self.abm.deregister(self.id);
    }
}

/// Adapter: each pack of a [`TableStorage`] is one coop-scan chunk, decoded
/// into the requested columns.
pub struct TableChunkSource {
    table: Arc<TableStorage>,
    pool: Arc<BufferPool>,
    columns: Vec<usize>,
}

impl TableChunkSource {
    /// Scan `columns` of `table` through `pool`.
    pub fn new(table: Arc<TableStorage>, pool: Arc<BufferPool>, columns: Vec<usize>) -> Self {
        TableChunkSource { table, pool, columns }
    }
}

impl ChunkSource for TableChunkSource {
    type Chunk = Vec<(ColData, Option<Vec<bool>>)>;

    fn n_chunks(&self) -> usize {
        self.table.n_packs()
    }

    fn load(&self, idx: usize) -> Result<Self::Chunk> {
        if idx >= self.table.n_packs() {
            return Err(VwError::Storage(format!("chunk {idx} out of range")));
        }
        self.table.read_pack(&self.pool, idx, &self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// A source that counts loads and can simulate latency.
    struct CountingSource {
        n: usize,
        delay: Duration,
        loads: AtomicUsize,
    }

    impl ChunkSource for CountingSource {
        type Chunk = usize;
        fn n_chunks(&self) -> usize {
            self.n
        }
        fn load(&self, idx: usize) -> Result<usize> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            Ok(idx * 10)
        }
    }

    fn src(n: usize) -> CountingSource {
        CountingSource { n, delay: Duration::ZERO, loads: AtomicUsize::new(0) }
    }

    fn run_scan<S: ChunkSource + 'static>(abm: &Arc<Abm<S>>) -> Vec<usize> {
        let mut h = abm.register();
        let mut seen = Vec::new();
        while let Some((idx, _)) = h.next_chunk().unwrap() {
            seen.push(idx);
        }
        seen
    }

    #[test]
    fn single_scan_sees_everything_once_all_policies() {
        for policy in [ScanPolicy::Naive, ScanPolicy::Attach, ScanPolicy::Relevance] {
            let abm = Abm::new(src(20), 4, policy);
            let mut seen = run_scan(&abm);
            seen.sort_unstable();
            assert_eq!(seen, (0..20).collect::<Vec<_>>(), "{policy:?}");
        }
    }

    #[test]
    fn naive_scan_is_in_order() {
        let abm = Abm::new(src(10), 3, ScanPolicy::Naive);
        let seen = run_scan(&abm);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn attach_scan_starts_at_wavefront_and_wraps() {
        let abm = Abm::new(src(10), 3, ScanPolicy::Attach);
        // First scan consumes 4 chunks, then a second registers.
        let mut h1 = abm.register();
        for _ in 0..4 {
            h1.next_chunk().unwrap();
        }
        let seen2 = run_scan(&abm);
        // Scan 2 began at the wavefront (~4) and wrapped around.
        assert_eq!(seen2.len(), 10);
        assert!(seen2[0] >= 3, "attach should start near the wavefront, got {:?}", seen2);
        let mut sorted = seen2.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_scans_all_complete() {
        for policy in [ScanPolicy::Naive, ScanPolicy::Attach, ScanPolicy::Relevance] {
            let abm = Abm::new(
                CountingSource {
                    n: 30,
                    delay: Duration::from_micros(200),
                    loads: AtomicUsize::new(0),
                },
                8,
                policy,
            );
            let mut handles = Vec::new();
            for _ in 0..4 {
                let abm = abm.clone();
                handles.push(std::thread::spawn(move || run_scan(&abm)));
            }
            for h in handles {
                let mut seen = h.join().unwrap();
                seen.sort_unstable();
                assert_eq!(seen, (0..30).collect::<Vec<_>>(), "{policy:?}");
            }
        }
    }

    #[test]
    fn relevance_shares_io_between_concurrent_scans() {
        // 24 chunks, cache 8, 3 concurrent scans with slow loads: the
        // cooperative policy should perform far fewer loads than 3 full
        // passes (72); naive with a small cache thrashes.
        let run = |policy| {
            let abm = Abm::new(
                CountingSource {
                    n: 24,
                    delay: Duration::from_micros(500),
                    loads: AtomicUsize::new(0),
                },
                8,
                policy,
            );
            let mut handles = Vec::new();
            for _ in 0..3 {
                let abm = abm.clone();
                handles.push(std::thread::spawn(move || run_scan(&abm)));
            }
            for h in handles {
                assert_eq!(h.join().unwrap().len(), 24);
            }
            abm.io_stats().0
        };
        let coop_loads = run(ScanPolicy::Relevance);
        let naive_loads = run(ScanPolicy::Naive);
        assert!(
            coop_loads < naive_loads,
            "relevance ({coop_loads} loads) should beat naive ({naive_loads} loads)"
        );
        assert!(coop_loads < 48, "coop should share most reads, got {coop_loads}");
    }

    #[test]
    fn dropped_scan_releases_interest() {
        let abm = Abm::new(src(10), 4, ScanPolicy::Relevance);
        {
            let mut h = abm.register();
            h.next_chunk().unwrap();
            // Dropped mid-scan.
        }
        // A fresh scan must still complete.
        let mut seen = run_scan(&abm);
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn table_chunk_source_decodes_packs() {
        use vw_common::{Field, Schema, TypeId};
        use vw_storage::{Layout, SimulatedDisk};
        let disk = SimulatedDisk::instant();
        let pool = BufferPool::new(disk.clone(), 1 << 20);
        let schema = Schema::new(vec![Field::not_null("v", TypeId::I64)]).unwrap();
        let mut t = TableStorage::new(disk, schema, Layout::Dsm);
        let col = ColData::I64((0..1000).collect());
        t.append_columns(&[col], &[None], 100).unwrap();
        let source = TableChunkSource::new(Arc::new(t), pool, vec![0]);
        let abm = Abm::new(source, 4, ScanPolicy::Relevance);
        let mut h = abm.register();
        let mut total = 0i64;
        let mut chunks = 0;
        while let Some((_, data)) = h.next_chunk().unwrap() {
            let (col, nulls) = &data[0];
            assert!(nulls.is_none());
            total += col.as_i64().iter().sum::<i64>();
            chunks += 1;
        }
        assert_eq!(chunks, 10);
        assert_eq!(total, (0..1000).sum::<i64>());
    }
}
