//! Morsel-driven scheduling and pooled operator output batches — the two
//! halves of keeping every core busy on cache-resident vectors with zero
//! steady-state allocation. (This header is the authoritative
//! lease/recycle contract; `ARCHITECTURE.md` at the repo root links here
//! rather than restating it.)
//!
//! # MorselSource — run-time work claims instead of plan-time ranges
//!
//! The old exchange model partitioned a scan's image into `DOP` static
//! row ranges at plan time. Static ranges bake skew into the schedule: if
//! the expensive rows cluster in one range, its worker runs long after its
//! siblings went idle — PAPERS.md's "when more cores hurts" wall. A
//! [`MorselSource`] replaces that with a shared atomic dispenser over the
//! pinned PDT root (the image, held once): every worker's scan repeatedly
//! *claims* the next `morsel_rows`-sized slice of the image's row
//! positions (`EngineConfig::morsel_rows`, SET-able, `VW_MORSEL_ROWS`
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
//!    and walks the treap from the claim's first position by subtree
//!    size ([`vw_pdt::treap::walk_from`]), copying the pieces the claim
//!    overlaps into a caller-owned buffer (cleared, capacity reused —
//!    steady-state claims allocate nothing; piece clones only bump `Arc`
//!    refcounts). Stable runs are cut at the claim's edges, and runs that
//!    continue each other (the seams a split leaves) are joined.
//! 3. Claims are disjoint and cover the image exactly; a `false` return
//!    means the source is dry for every clone.
//! 4. Every claimed piece carries its **RID** — the position of its first
//!    row in the image, which is where the claim found it. A source with
//!    zone-map hints ([`MorselSource::pruned`]) drops the rows they rule
//!    out inside each claim and keeps the positions of the rest, so a
//!    consumer that asks the scan for RIDs (a DML victim search)
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
use vw_common::{SelVec, TypeId, Value};
use vw_pdt::treap::{self, Link, Piece};
use vw_storage::TableStorage;

/// Default rows per morsel claim: large enough that claim overhead (one
/// atomic add + a short treap walk) vanishes, small enough that a
/// 90/10-skewed image still splits into many claims per worker.
pub const DEFAULT_MORSEL_ROWS: usize = 16 * 1024;

/// Upper bound on pooled batches / selection vectors kept per pool;
/// in-flight batches per pipeline stage are O(1), so this is generous.
const MAX_POOLED: usize = 32;

/// A shared atomic dispenser over one pinned table image.
pub struct MorselSource {
    /// The image: a PDT root, read where it lies.
    root: Link,
    /// Rows in the image.
    total: u64,
    morsel_rows: u64,
    /// What zone-map hints rule out, when the scan has any.
    prune: Option<Prune>,
    /// Next unclaimed image position.
    next: AtomicU64,
}

/// The packs of the stable generation an image addresses that each
/// zone-map hint keeps.
struct Prune {
    table: Arc<TableStorage>,
    /// Per hint: its base-table column and its kept-pack bitmap.
    hints: Vec<(usize, Vec<bool>)>,
}

impl MorselSource {
    /// A dispenser over the image `root` handing out `morsel_rows`-row
    /// claims. `morsel_rows` is clamped to at least 1 and at most the
    /// image size (so `usize::MAX` means "one claim").
    pub fn new(root: Link, morsel_rows: usize) -> Arc<MorselSource> {
        MorselSource::build(root, None, morsel_rows)
    }

    /// A dispenser like [`MorselSource::new`] that drops, inside each
    /// claim, the rows the MinMax `hints` — `(column, lo, hi)`, bounds
    /// inclusive — rule out in `table`, the generation `root` addresses.
    ///
    /// Zone maps describe *stable* values, so only what still has them is
    /// dropped: a stable run is cut down to the packs every hint keeps,
    /// and a modified stable row goes only when a hint on a column it did
    /// **not** modify prunes its pack. Inserted rows always stay — their
    /// values are not what any zone map describes.
    pub fn pruned<'a>(
        root: Link,
        table: Arc<TableStorage>,
        hints: impl IntoIterator<Item = (usize, Option<&'a Value>, Option<&'a Value>)>,
        morsel_rows: usize,
    ) -> Arc<MorselSource> {
        let hints = hints
            .into_iter()
            .map(|(col, lo, hi)| {
                let mut keep = vec![false; table.n_packs()];
                for r in table.prune(col, lo, hi) {
                    keep[r.pack] = true;
                }
                (col, keep)
            })
            .collect();
        MorselSource::build(root, Some(Prune { table, hints }), morsel_rows)
    }

    fn build(root: Link, prune: Option<Prune>, morsel_rows: usize) -> Arc<MorselSource> {
        let total = treap::size(&root);
        let morsel_rows = (morsel_rows as u64).clamp(1, total.max(1));
        Arc::new(MorselSource { root, total, morsel_rows, prune, next: AtomicU64::new(0) })
    }

    /// Claim the next morsel, filling `out` (cleared first) with
    /// `(RID, piece)` for the claimed rows the hints keep. Returns `false`
    /// when the image is exhausted. Stable runs are cut at claim edges
    /// and at pruned packs; single-row pieces (inserts, modifications)
    /// are never split.
    pub fn claim_into(&self, out: &mut Vec<(u64, Piece)>) -> bool {
        out.clear();
        while out.is_empty() {
            let start = self.next.fetch_add(self.morsel_rows, Ordering::Relaxed);
            if start >= self.total {
                // Dry: park the cursor so repeated polls cannot overflow it.
                self.next.fetch_sub(self.morsel_rows, Ordering::Relaxed);
                return false;
            }
            let end = (start + self.morsel_rows).min(self.total);
            treap::walk_from(&self.root, start, &mut |rid, piece| {
                match piece {
                    Piece::StableRun { sid, len } => {
                        let from = start.saturating_sub(rid);
                        let to = (end - rid).min(*len);
                        self.push_stable(out, rid + from, sid + from, to - from);
                    }
                    Piece::StableMod { sid, mods } if self.rules_out(*sid, mods) => {}
                    single_row => out.push((rid, single_row.clone())),
                }
                rid + piece.rows() < end
            });
        }
        true
    }

    /// Push the `len` stable rows from `sid` on (at `rid`) that every
    /// hint keeps.
    fn push_stable(&self, out: &mut Vec<(u64, Piece)>, rid: u64, sid: u64, len: u64) {
        let Some(p) = &self.prune else {
            return push_run(out, rid, sid, len);
        };
        let end = sid + len;
        let mut s = sid;
        while s < end {
            // The image addresses the generation pinned with it, so every
            // sid has a pack; one that has none is kept: the scan reports it.
            let (e, keep) = match p.table.pack_of_row(s) {
                Some(pack) => {
                    let meta = p.table.pack(pack);
                    let pack_end = meta.row_start + meta.n_rows as u64;
                    (end.min(pack_end), p.hints.iter().all(|(_, keep)| keep[pack]))
                }
                None => (end, true),
            };
            if keep {
                push_run(out, rid + (s - sid), s, e - s);
            }
            s = e;
        }
    }

    /// Whether a hint on a column the modified row `sid` did not modify
    /// prunes its pack.
    fn rules_out(&self, sid: u64, mods: &[(usize, Value)]) -> bool {
        self.prune.as_ref().is_some_and(|p| {
            p.table.pack_of_row(sid).is_some_and(|pack| {
                p.hints.iter().any(|(col, keep)| !keep[pack] && mods.iter().all(|(c, _)| c != col))
            })
        })
    }
}

/// Append a stable run at `rid`, joining it onto the previous one when it
/// continues it in both sid and position.
fn push_run(out: &mut Vec<(u64, Piece)>, rid: u64, sid: u64, len: u64) {
    if let Some((r0, Piece::StableRun { sid: s0, len: l0 })) = out.last_mut() {
        if *s0 + *l0 == sid && *r0 + *l0 == rid {
            *l0 += len;
            return;
        }
    }
    out.push((rid, Piece::StableRun { sid, len }));
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
    use vw_common::{ColData, Field, Schema};
    use vw_pdt::treap::{for_each_piece, leaf, merge, prio_for};
    use vw_pdt::PdtStore;
    use vw_storage::{BufferPool, SimulatedDisk};

    fn run(sid: u64, len: u64) -> Piece {
        Piece::StableRun { sid, len }
    }

    fn ins(v: i64) -> Piece {
        Piece::Insert { id: v as u64, row: Arc::new(vec![Value::I64(v), Value::I64(v)]) }
    }

    fn modified(sid: u64, cols: &[usize]) -> Piece {
        Piece::StableMod {
            sid,
            mods: Arc::new(cols.iter().map(|&c| (c, Value::I64(-1))).collect()),
        }
    }

    /// A root holding `pieces` in order, one node each.
    fn image(pieces: Vec<Piece>) -> Link {
        pieces.into_iter().enumerate().fold(None, |t, (i, p)| merge(t, leaf(prio_for(i as u64), p)))
    }

    /// One entry per image row: `(rid, Ok(sid) | Err(insert id))`.
    type Row = (u64, std::result::Result<u64, u64>);

    fn rows(claimed: &[(u64, Piece)]) -> Vec<Row> {
        let mut out = Vec::new();
        for (rid, p) in claimed {
            match p {
                Piece::StableRun { sid, len } => {
                    out.extend((0..*len).map(|k| (rid + k, Ok(sid + k))))
                }
                Piece::StableMod { sid, .. } => out.push((*rid, Ok(*sid))),
                Piece::Insert { id, .. } => out.push((*rid, Err(*id))),
            }
        }
        out
    }

    /// Every claim of `src`, each checked for the claim invariants.
    fn drain_claims(src: &MorselSource) -> Vec<Vec<(u64, Piece)>> {
        let mut claims = Vec::new();
        let mut buf = Vec::new();
        while src.claim_into(&mut buf) {
            assert!(!buf.is_empty(), "a successful claim holds rows");
            for w in buf.windows(2) {
                let ((r0, p0), (r1, _)) = (&w[0], &w[1]);
                assert!(r0 + p0.rows() <= *r1, "pieces ascend by RID");
                if let (Piece::StableRun { sid: s0, len: l0 }, Piece::StableRun { sid: s1, .. }) =
                    (p0, &w[1].1)
                {
                    assert!(s0 + l0 != *s1 || r0 + l0 != *r1, "contiguous runs are joined");
                }
            }
            claims.push(buf.clone());
        }
        // An exhausted source keeps answering false without moving.
        assert!(!src.claim_into(&mut buf));
        assert!(buf.is_empty(), "claim_into clears the buffer even when dry");
        claims
    }

    #[test]
    fn claims_are_disjoint_and_cover_the_image() {
        // Seams (runs that continue each other), an insert and a
        // modified row; claims of 16 rows cut the runs.
        let root = image(vec![
            run(0, 60),
            run(60, 40),
            ins(7),
            modified(100, &[0]),
            run(101, 30),
            run(131, 19),
        ]);
        let src = MorselSource::new(root, 16);
        let claims = drain_claims(&src);
        for c in &claims {
            let n: u64 = c.iter().map(|(_, p)| p.rows()).sum();
            assert!((1..=16).contains(&n), "claim size bounded by morsel_rows: {n}");
        }
        let got: Vec<Row> = claims.iter().flat_map(|c| rows(c)).collect();
        let mut want: Vec<Row> = (0..100).map(|s| (s, Ok(s))).collect();
        want.push((100, Err(7)));
        want.extend((100..150).map(|s| (s + 1, Ok(s))));
        assert_eq!(got, want);
    }

    #[test]
    fn claims_join_the_seams_a_split_leaves() {
        // An insert then its delete leaves the run split in two pieces.
        let store = PdtStore::new(100);
        let mut t = store.begin();
        t.insert_at(50, vec![Value::I64(1)]).unwrap();
        t.delete_at(50).unwrap();
        store.commit(t).unwrap();
        let root = store.snapshot().0;
        let mut pieces = 0;
        for_each_piece(&root, &mut |_| pieces += 1);
        assert_eq!(pieces, 2);
        let claims = drain_claims(&MorselSource::new(root, usize::MAX));
        assert_eq!(claims, vec![vec![(0, run(0, 100))]]);
    }

    #[test]
    fn one_claim_covers_everything_at_usize_max() {
        let root = image(vec![run(5, 40), ins(1), modified(45, &[1])]);
        let claims = drain_claims(&MorselSource::new(root, usize::MAX));
        assert_eq!(claims.len(), 1);
        assert_eq!(rows(&claims[0]).len(), 42);
    }

    #[test]
    fn empty_image_is_dry_immediately() {
        let src = MorselSource::new(None, 1024);
        let mut buf = vec![(0, run(0, 1))];
        assert!(!src.claim_into(&mut buf));
        assert!(buf.is_empty(), "claim_into clears the buffer even when dry");
    }

    #[test]
    fn concurrent_claims_stay_disjoint() {
        // 1 000 seams of 100 rows each, every tenth with an insert after it.
        let mut pieces = Vec::new();
        for k in 0..1_000u64 {
            pieces.push(run(k * 100, 100));
            if k % 10 == 0 {
                pieces.push(ins(k as i64));
            }
        }
        let src = MorselSource::new(image(pieces), 64);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let src = src.clone();
            handles.push(std::thread::spawn(move || {
                let mut buf = Vec::new();
                let mut got: Vec<Row> = Vec::new();
                while src.claim_into(&mut buf) {
                    got.extend(rows(&buf));
                }
                got
            }));
        }
        let mut all: Vec<Row> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        all.sort_unstable();
        assert_eq!(all.len(), 100_100);
        assert!(all.iter().enumerate().all(|(i, (rid, _))| *rid == i as u64), "gap or overlap");
        let sids: Vec<u64> = all.iter().filter_map(|(_, r)| r.ok()).collect();
        assert_eq!(sids, (0..100_000).collect::<Vec<_>>());
    }

    /// A 200-row table of packs of 16 whose two columns are `sid` and
    /// `sid % 50`.
    fn table() -> Arc<TableStorage> {
        let schema =
            Schema::new(vec![Field::not_null("a", TypeId::I64), Field::not_null("b", TypeId::I64)])
                .unwrap();
        let pool = BufferPool::new(SimulatedDisk::instant(), 1 << 20);
        let mut t = TableStorage::new(pool, schema);
        let a = ColData::I64((0..200).collect());
        let b = ColData::I64((0..200).map(|i| i % 50).collect());
        t.append_columns(&[a, b], &[None, None], 16).unwrap();
        Arc::new(t)
    }

    #[test]
    fn pruned_claims_keep_image_rids_and_the_pruning_rule() {
        let table = table();
        let mut x = 11u64;
        let mut rnd = move |n: u64| {
            x = vw_common::hash::hash_u64(x);
            x % n
        };
        for round in 0..200 {
            // A random image of the table: runs with gaps (deleted rows),
            // seams, modified rows (of column 0, 1 or both) and inserts.
            let mut pieces = Vec::new();
            let mut sid = rnd(5);
            while sid < 200 {
                match rnd(4) {
                    0 => pieces.push(ins(1_000 + sid as i64)),
                    1 => {
                        pieces.push(modified(sid, [&[0][..], &[1], &[0, 1]][rnd(3) as usize]));
                        sid += 1;
                    }
                    _ => {
                        let len = (1 + rnd(40)).min(200 - sid);
                        pieces.push(run(sid, len));
                        sid += len;
                    }
                }
                sid += rnd(2) * rnd(4);
            }
            let root = image(pieces);
            // One or two hints, on either column.
            let bounds: Vec<(usize, Value, Value)> = (0..1 + rnd(2))
                .map(|_| {
                    let col = rnd(2) as usize;
                    let lo = rnd(if col == 0 { 200 } else { 50 }) as i64;
                    (col, Value::I64(lo), Value::I64(lo + rnd(60) as i64))
                })
                .collect();
            let hints = bounds.iter().map(|(c, lo, hi)| (*c, Some(lo), Some(hi)));
            let morsel = 1 + rnd(40) as usize;
            let src = MorselSource::pruned(root.clone(), table.clone(), hints, morsel);
            let got: Vec<Row> = drain_claims(&src).iter().flat_map(|c| rows(c)).collect();

            // The rule, row by row: a hint keeps a pack when its range of
            // the column meets the hint's.
            let keeps = |pack: u64, (col, lo, hi): &(usize, Value, Value)| {
                let sids = pack * 16..(pack * 16 + 16).min(200);
                let vals: Vec<i64> =
                    sids.map(|s| if *col == 0 { s as i64 } else { s as i64 % 50 }).collect();
                let (Value::I64(lo), Value::I64(hi)) = (lo, hi) else { unreachable!() };
                vals.iter().min().unwrap() <= hi && vals.iter().max().unwrap() >= lo
            };
            let mut want: Vec<Row> = Vec::new();
            let mut rid = 0u64;
            for_each_piece(&root, &mut |p| {
                match p {
                    Piece::StableRun { sid, len } => {
                        for s in *sid..sid + len {
                            if bounds.iter().all(|h| keeps(s / 16, h)) {
                                want.push((rid + s - sid, Ok(s)));
                            }
                        }
                    }
                    Piece::StableMod { sid, mods } => {
                        let out = bounds
                            .iter()
                            .any(|h| !keeps(sid / 16, h) && mods.iter().all(|(c, _)| *c != h.0));
                        if !out {
                            want.push((rid, Ok(*sid)));
                        }
                    }
                    Piece::Insert { id, .. } => want.push((rid, Err(*id))),
                }
                rid += p.rows();
            });
            assert_eq!(got, want, "round {round}: hints {bounds:?}, morsel {morsel}");
        }
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
