//! Morsel-driven scheduling and pooled operator output batches — the two
//! halves of keeping every core busy on cache-resident vectors with zero
//! steady-state allocation. (This header is the authoritative
//! lease/recycle contract; `ARCHITECTURE.md` at the repo root links here
//! rather than restating it.)
//!
//! # MorselSource — run-time work claims instead of plan-time ranges
//!
//! The old exchange model partitioned a scan's merge-item stream into
//! `DOP` static row ranges at plan time. Static ranges bake skew into the
//! schedule: if the expensive rows cluster in one range, its worker runs
//! long after its siblings went idle — PAPERS.md's "when more cores hurts"
//! wall. A [`MorselSource`] replaces that with a shared atomic dispenser:
//! the full merge-item image is held once, and every worker's scan
//! repeatedly *claims* the next `morsel_rows`-sized slice of the logical
//! row space (`EngineConfig::morsel_rows`, SET-able, `VW_MORSEL_ROWS`
//! override). A slow worker simply claims fewer morsels; no row is ever
//! stranded behind a busy thread.
//!
//! Claim rules:
//!
//! 1. One `MorselSource` is shared (via `Arc`) by the `DOP` scan clones of
//!    one Exchange fragment. It does not know which clone claims what:
//!    how evenly the work spread shows in `EXPLAIN ANALYZE` as the
//!    per-clone row range of the scan's line.
//! 2. [`MorselSource::claim_into`] atomically advances the shared cursor
//!    and materializes the claimed slice's merge items into a
//!    caller-owned buffer (cleared, capacity reused — steady-state claims
//!    allocate nothing; item clones only bump `Arc` refcounts).
//! 3. Claims are disjoint and cover the image exactly; a `false` return
//!    means the source is dry for every clone.
//! 4. Every claimed item carries its **RID base** — the position of its
//!    first row in the table image. For a whole image that is the running
//!    row count; an image whose zone-map-pruned stable runs were dropped
//!    ([`MorselSource::with_rids`]) keeps the positions of the full image,
//!    so a consumer that asks the scan for RIDs (a DML victim search)
//!    addresses the right rows however much was skipped.
//!
//! # BatchPool — a batch free-list threaded through the pipeline
//!
//! PR 2 made expression *scratch* allocation-free via `VectorPool`, but
//! operator *output* batches (Scan, Project, Join) were still freshly
//! allocated per batch because ownership is handed downstream. The
//! [`BatchPool`] closes that last per-batch allocation with an explicit
//! lease/recycle protocol mirroring `VectorPool`'s:
//!
//! 1. One pool is shared by every operator of one worker pipeline (it is
//!    `Arc<Mutex>`-cheap and uncontended: all users run on that worker's
//!    thread).
//! 2. A producer [`lease`](BatchPool::lease)s a batch by column-type
//!    signature: a recycled batch of the same shape comes back with its
//!    value buffers intact; a miss returns fresh typed vectors sized to
//!    the caller's capacity hint.
//! 3. The operator that *consumes* a batch without passing it through
//!    (Project, the join's build and probe sides, aggregation input)
//!    [`recycle`](BatchPool::recycle)s it once the last borrow ended. The
//!    batch's selection vector is stashed separately so `Select` can
//!    [`take_sel`](BatchPool::take_sel) it back into its `VectorPool`.
//! 4. A recycled batch must never be touched again by its producer — the
//!    lease is the only way back in. Batches that exit the pipeline (the
//!    query result, batches crossing an `Xchg` channel) are simply never
//!    recycled; the pool is bounded (`MAX_POOLED`) so that is not a
//!    leak, just a missed reuse.
//!
//! Recycling strips NULL-indicator buffers: a leased batch always comes
//! back with `nulls: None`, so the engine's `nulls.is_none()` fast paths
//! (fused group-by keys, indicator-union skips) keep firing for NULL-free
//! data no matter which stage a buffer previously served. The cost is
//! that genuinely NULL-bearing columns re-allocate their indicator per
//! batch — exactly the pre-pool behaviour; value buffers still recycle.

use crate::vector::Batch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vw_common::{SelVec, TypeId};
use vw_pdt::MergeItem;

/// Default rows per morsel claim: large enough that claim overhead (one
/// atomic add + an item slice) vanishes, small enough that a 90/10-skewed
/// image still splits into many claims per worker.
pub const DEFAULT_MORSEL_ROWS: usize = 16 * 1024;

/// Upper bound on pooled batches / selection vectors kept per pool;
/// in-flight batches per pipeline stage are O(1), so this is generous.
const MAX_POOLED: usize = 32;

/// A shared atomic dispenser over one scan image's merge items.
pub struct MorselSource {
    /// The rows to scan, in image order.
    items: Vec<MergeItem>,
    /// `offsets[i]` = scanned rows before `items[i]`; last entry = total.
    offsets: Vec<u64>,
    /// `rids[i]` = image position of `items[i]`'s first row; `None` for a
    /// whole image, where it is `offsets[i]`.
    rids: Option<Vec<u64>>,
    total: u64,
    morsel_rows: u64,
    /// Next unclaimed logical row.
    next: AtomicU64,
}

impl MorselSource {
    /// A dispenser over `items` handing out `morsel_rows`-row claims.
    /// `morsel_rows` is clamped to at least 1 and at most the image size
    /// (so `usize::MAX` means "one claim").
    pub fn new(items: Vec<MergeItem>, morsel_rows: usize) -> Arc<MorselSource> {
        MorselSource::build(items, None, morsel_rows)
    }

    /// A dispenser over a *clipped* image: `rids[i]` is the position of
    /// `items[i]`'s first row in the full image the items were cut from
    /// (ascending, gaps where rows were dropped).
    pub fn with_rids(
        items: Vec<MergeItem>,
        rids: Vec<u64>,
        morsel_rows: usize,
    ) -> Arc<MorselSource> {
        assert_eq!(items.len(), rids.len(), "one RID base per item");
        MorselSource::build(items, Some(rids), morsel_rows)
    }

    fn build(
        items: Vec<MergeItem>,
        rids: Option<Vec<u64>>,
        morsel_rows: usize,
    ) -> Arc<MorselSource> {
        let mut offsets = Vec::with_capacity(items.len() + 1);
        let mut pos = 0u64;
        for it in &items {
            offsets.push(pos);
            pos += item_rows(it);
        }
        offsets.push(pos);
        let morsel_rows = (morsel_rows as u64).clamp(1, pos.max(1));
        Arc::new(MorselSource {
            items,
            offsets,
            rids,
            total: pos,
            morsel_rows,
            next: AtomicU64::new(0),
        })
    }

    /// Total logical rows in the image.
    pub fn total_rows(&self) -> u64 {
        self.total
    }

    /// Claim the next morsel, filling `out` (cleared first)
    /// with `(RID base, merge item)` for the claimed row range. Returns
    /// `false` when the image is exhausted. Stable runs are cut at claim
    /// boundaries; single-row items (inserts, modifications) are never
    /// split.
    pub fn claim_into(&self, out: &mut Vec<(u64, MergeItem)>) -> bool {
        out.clear();
        if self.total == 0 {
            return false;
        }
        let start = self.next.fetch_add(self.morsel_rows, Ordering::Relaxed);
        if start >= self.total {
            // Dry: park the cursor so repeated polls cannot overflow it.
            self.next.fetch_sub(self.morsel_rows, Ordering::Relaxed);
            return false;
        }
        let end = (start + self.morsel_rows).min(self.total);
        // First item containing `start`.
        let mut i = match self.offsets.binary_search(&start) {
            Ok(i) => i.min(self.items.len().saturating_sub(1)),
            Err(i) => i - 1,
        };
        let mut pos = self.offsets[i];
        while pos < end && i < self.items.len() {
            let n = item_rows(&self.items[i]);
            let s = start.saturating_sub(pos);
            let e = (end - pos).min(n);
            if e > s {
                let item = match &self.items[i] {
                    MergeItem::Stable { sid, .. } => MergeItem::Stable { sid: sid + s, len: e - s },
                    other => other.clone(),
                };
                let rid = self.rids.as_ref().map_or(pos, |r| r[i]);
                out.push((rid + s, item));
            }
            pos += n;
            i += 1;
        }
        true
    }
}

fn item_rows(i: &MergeItem) -> u64 {
    match i {
        MergeItem::Stable { len, .. } => *len,
        _ => 1,
    }
}

/// The batch free-list shared along one worker pipeline. Cloning shares
/// the underlying pool.
#[derive(Clone, Default)]
pub struct BatchPool {
    inner: Arc<Mutex<PoolInner>>,
}

#[derive(Default)]
struct PoolInner {
    batches: Vec<Batch>,
    sels: Vec<SelVec>,
}

impl BatchPool {
    /// An empty pool.
    pub fn new() -> BatchPool {
        BatchPool::default()
    }

    /// Lease a batch whose columns have exactly `types` (in order).
    /// Returns the batch and whether it was a pool hit (a recycled batch
    /// with warm buffers; a miss sizes fresh vectors to `capacity`).
    pub fn lease(&self, types: &[TypeId], capacity: usize) -> (Batch, bool) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(i) = inner.batches.iter().position(|b| {
            b.columns.len() == types.len()
                && b.columns.iter().zip(types).all(|(c, &t)| c.type_id() == t)
        }) {
            return (inner.batches.swap_remove(i), true);
        }
        drop(inner);
        (fresh_batch(types, capacity), false)
    }

    /// The one lease-or-allocate entry for pooled producers: lease from
    /// `pool` when the pipeline has one, otherwise build fresh
    /// `capacity`-sized typed vectors.
    pub fn lease_or_new(pool: Option<&BatchPool>, types: &[TypeId], capacity: usize) -> Batch {
        match pool {
            Some(bp) => bp.lease(types, capacity).0,
            None => fresh_batch(types, capacity),
        }
    }

    /// Return a drained batch to the free list: the selection vector is
    /// stashed for [`take_sel`](Self::take_sel), every column's data is
    /// cleared in place (capacity preserved), and NULL-indicator buffers
    /// are dropped (see the module docs). Beyond the pool bound the batch
    /// is dropped.
    pub fn recycle(&self, mut batch: Batch) {
        let sel = batch.sel.take();
        for c in &mut batch.columns {
            c.clear_keep_capacity();
        }
        let mut inner = self.inner.lock().unwrap();
        if let Some(mut s) = sel {
            if inner.sels.len() < MAX_POOLED {
                s.clear();
                inner.sels.push(s);
            }
        }
        if inner.batches.len() < MAX_POOLED {
            inner.batches.push(batch);
        }
    }

    /// Take back a selection vector stashed by [`recycle`](Self::recycle)
    /// (cleared). `Select` feeds these into its `VectorPool` so selections
    /// handed downstream keep cycling instead of re-allocating.
    pub fn take_sel(&self) -> Option<SelVec> {
        self.inner.lock().unwrap().sels.pop()
    }
}

fn fresh_batch(types: &[TypeId], capacity: usize) -> Batch {
    let columns = types
        .iter()
        .map(|&t| crate::vector::Vector::new(vw_common::ColData::with_capacity(t, capacity)))
        .collect();
    Batch { columns, sel: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use vw_common::Value;

    fn stable(sid: u64, len: u64) -> MergeItem {
        MergeItem::Stable { sid, len }
    }

    fn rows_of(items: &[(u64, MergeItem)]) -> u64 {
        items.iter().map(|(_, it)| item_rows(it)).sum()
    }

    #[test]
    fn claims_are_disjoint_and_cover_the_image() {
        let items = vec![
            stable(0, 100),
            MergeItem::Insert { row: StdArc::new(vec![Value::I64(7)]) },
            stable(100, 50),
        ];
        let src = MorselSource::new(items, 16);
        assert_eq!(src.total_rows(), 151);
        let mut buf = Vec::new();
        let mut total = 0u64;
        let mut stable_rows: Vec<(u64, u64)> = Vec::new();
        let mut inserts = 0;
        while src.claim_into(&mut buf) {
            let n = rows_of(&buf);
            assert!((1..=16).contains(&n), "claim size bounded by morsel_rows: {n}");
            total += n;
            for (rid, it) in &buf {
                match it {
                    MergeItem::Stable { sid, len } => {
                        // One insert sits between sids 99 and 100.
                        assert_eq!(*rid, if *sid < 100 { *sid } else { *sid + 1 });
                        stable_rows.push((*sid, *len))
                    }
                    MergeItem::Insert { .. } => {
                        assert_eq!(*rid, 100);
                        inserts += 1
                    }
                    _ => unreachable!(),
                }
            }
        }
        assert_eq!(total, 151);
        assert_eq!(inserts, 1);
        // Stable coverage: every sid of 0..150 exactly once.
        let mut seen = [false; 150];
        for (sid, len) in stable_rows {
            for s in sid..sid + len {
                assert!(!seen[s as usize], "sid {s} claimed twice");
                seen[s as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every stable row claimed");
        // Exhausted source keeps answering false without moving.
        assert!(!src.claim_into(&mut buf));
        assert!(!src.claim_into(&mut buf));
    }

    #[test]
    fn clipped_image_keeps_full_image_rids() {
        // Rows 40..60 and 70..100 of a 100-row image, plus the insert at
        // image position 60; claims of 16 rows cut the runs.
        let items = vec![
            stable(40, 20),
            MergeItem::Insert { row: StdArc::new(vec![Value::I64(7)]) },
            stable(69, 30),
        ];
        let src = MorselSource::with_rids(items, vec![40, 60, 70], 16);
        assert_eq!(src.total_rows(), 51);
        let mut buf = Vec::new();
        let mut seen: Vec<(u64, u64)> = Vec::new(); // (rid, rows)
        while src.claim_into(&mut buf) {
            seen.extend(buf.iter().map(|(rid, it)| (*rid, item_rows(it))));
        }
        assert_eq!(seen, vec![(40, 16), (56, 4), (60, 1), (70, 11), (81, 16), (97, 3)]);
    }

    #[test]
    fn one_claim_covers_everything_at_usize_max() {
        let src = MorselSource::new(vec![stable(5, 40)], usize::MAX);
        let mut buf = Vec::new();
        assert!(src.claim_into(&mut buf));
        assert_eq!(rows_of(&buf), 40);
        assert!(!src.claim_into(&mut buf));
    }

    #[test]
    fn empty_image_is_dry_immediately() {
        let src = MorselSource::new(Vec::new(), 1024);
        let mut buf = vec![(0, stable(0, 1))];
        assert!(!src.claim_into(&mut buf));
        assert!(buf.is_empty(), "claim_into clears the buffer even when dry");
    }

    #[test]
    fn concurrent_claims_stay_disjoint() {
        let src = MorselSource::new(vec![stable(0, 100_000)], 64);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let src = src.clone();
            handles.push(std::thread::spawn(move || {
                let mut buf = Vec::new();
                let mut ranges: Vec<(u64, u64)> = Vec::new();
                while src.claim_into(&mut buf) {
                    for (_, it) in &buf {
                        if let MergeItem::Stable { sid, len } = it {
                            ranges.push((*sid, *len));
                        }
                    }
                }
                ranges
            }));
        }
        let mut all: Vec<(u64, u64)> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        all.sort_unstable();
        let mut pos = 0u64;
        for (sid, len) in all {
            assert_eq!(sid, pos, "gap or overlap at sid {sid}");
            pos = sid + len;
        }
        assert_eq!(pos, 100_000);
    }

    #[test]
    fn batch_pool_recycles_by_type_signature() {
        let pool = BatchPool::new();
        let (mut b, hit) = pool.lease(&[TypeId::I64, TypeId::Str], 4);
        assert!(!hit, "fresh pool misses");
        b.columns[0].push(&Value::I64(1)).unwrap();
        b.columns[0].push(&Value::Null).unwrap();
        b.columns[1].push(&Value::Str("x".into())).unwrap();
        b.columns[1].push(&Value::Str("y".into())).unwrap();
        b.sel = Some(SelVec::from_positions(vec![1]));
        pool.recycle(b);

        // Wrong signature still misses.
        let (w, hit) = pool.lease(&[TypeId::I64], 0);
        assert!(!hit);
        pool.recycle(w);

        // Matching signature hits, comes back empty with no selection and
        // no NULL indicator (recycling strips it so `nulls.is_none()`
        // fast paths keep firing for NULL-free refills).
        let (b, hit) = pool.lease(&[TypeId::I64, TypeId::Str], 0);
        assert_eq!(b.columns[0].len(), 0);
        assert!(hit);
        assert_eq!(b.columns[1].len(), 0);
        assert!(b.sel.is_none());
        assert!(b.columns[0].nulls.is_none());
        // The stashed selection is retrievable exactly once.
        assert!(pool.take_sel().is_some());
        assert!(pool.take_sel().is_none());
    }

    #[test]
    fn batch_pool_is_bounded() {
        let pool = BatchPool::new();
        for _ in 0..100 {
            let (b, _) = pool.lease(&[TypeId::I64], 0);
            pool.recycle(b);
        }
        let inner = pool.inner.lock().unwrap();
        assert!(inner.batches.len() <= MAX_POOLED);
    }
}
