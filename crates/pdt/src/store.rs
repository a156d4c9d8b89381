//! The PDT store: committed master image, snapshot transactions, positional
//! delta logs, commit-time conflict detection, and checkpoint reset.
//!
//! Commit strategy:
//!
//! * **Serial fast path** — if no other transaction committed since this
//!   one's snapshot, the transaction's private image *is* the next master
//!   image (persistent structure, O(1) swap). This preserves exact
//!   positional semantics, including the ordering of the transaction's own
//!   inserts.
//! * **Concurrent path** — after the write-write conflict check (positional
//!   overlap of written SIDs, as in the PDT paper), the transaction's delta
//!   log is replayed against the *current* master image: deletes and
//!   modifies address rows by SID, in one batch rewrite, a modify
//!   installing the row of the typed block it points into; insert runs are
//!   re-anchored, whole and in image order, to the nearest surviving
//!   stable predecessor. The interleaving
//!   order of different transactions' runs at the same anchor is
//!   unspecified (any serializable order is legal); each run stays
//!   contiguous.

use crate::treap::{
    find_stable_at_or_before, for_each_piece, leaf, merge, prio_for, rewrite_rows, size, split,
    stable_image, Link, Piece,
};
use crate::values::{Block, Rows};
use parking_lot::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vw_common::hash::{FxHashMap, FxHashSet};
use vw_common::{ColData, Result, TypeId, VwError};

/// Where an insert lands, in stable coordinates (survives image changes
/// between snapshot and commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Anchor {
    /// Before any stable row.
    Front,
    /// Immediately after stable row `sid` (or its nearest surviving
    /// predecessor if `sid` was deleted concurrently).
    AfterSid(u64),
}

/// A logged write, by stable id. A modify points at the overlay row
/// `(block, row)` the row now shows, which holds every column modified in
/// it since the last checkpoint.
#[derive(Debug, Clone)]
enum Op {
    DeleteStable { sid: u64 },
    ModifyStable { sid: u64, overlay: (Arc<Block>, u64) },
}

impl Op {
    fn sid(&self) -> u64 {
        match self {
            Op::DeleteStable { sid } | Op::ModifyStable { sid, .. } => *sid,
        }
    }
}

/// Aggregate delta counters of the committed image.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PdtStats {
    /// Committed inserted rows currently pending in the PDT.
    pub inserts: u64,
    /// Committed deletes of stable rows.
    pub deletes: u64,
    /// Committed column modifications (distinct (row, column) pairs).
    pub modifies: u64,
}

impl PdtStats {
    /// Total pending deltas — the checkpoint trigger metric.
    pub fn total(&self) -> u64 {
        self.inserts + self.deletes + self.modifies
    }
}

struct Master {
    root: Link,
    version: u64,
    n_stable: u64,
    /// Version at the last checkpoint; transactions older than this cannot
    /// commit (their stable coordinates no longer exist).
    checkpoint_version: u64,
    /// (commit version, sids written) since the last checkpoint.
    commit_log: Vec<(u64, FxHashSet<u64>)>,
}

/// Thread-safe store of the committed PDT image for one table.
pub struct PdtStore {
    inner: Mutex<Master>,
    counter: AtomicU64,
}

/// A private snapshot of the table image plus a positional delta log.
///
/// Obtained from [`PdtStore::begin`]; apply updates positioned by RID (row id
/// in *this transaction's* current image), then [`PdtStore::commit`].
pub struct Transaction {
    root: Link,
    snapshot_version: u64,
    log: Vec<Op>,
    /// Ids of this transaction's inserts, and how many of their rows live.
    own_inserts: FxHashSet<u64>,
    own_rows: u64,
    write_set: FxHashSet<u64>,
    /// True when this transaction modified or deleted rows that were
    /// inserted by earlier *committed* transactions (still PDT-resident,
    /// not yet checkpointed). Such edits have no stable (SID) coordinates,
    /// so they can only commit through the serial fast path; a concurrent
    /// commit forces a retry.
    touched_foreign_inserts: bool,
}

impl PdtStore {
    /// A store over a stable table of `n_stable` rows (no deltas yet).
    pub fn new(n_stable: u64) -> PdtStore {
        PdtStore {
            inner: Mutex::new(Master {
                root: stable_image(n_stable),
                version: 0,
                n_stable,
                checkpoint_version: 0,
                commit_log: Vec::new(),
            }),
            counter: AtomicU64::new(1),
        }
    }

    fn next_id(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Begin a transaction on the current committed image.
    pub fn begin(&self) -> Transaction {
        let m = self.inner.lock();
        PdtStore::begin_at(m.root.clone(), m.version)
    }

    /// Begin a transaction on an image taken earlier: `root` as committed
    /// at `version` ([`PdtStore::snapshot`]). Its commit is checked and
    /// replayed against everything committed since, like any other.
    pub fn begin_at(root: Link, version: u64) -> Transaction {
        Transaction {
            root,
            snapshot_version: version,
            log: Vec::new(),
            own_inserts: FxHashSet::default(),
            own_rows: 0,
            write_set: FxHashSet::default(),
            touched_foreign_inserts: false,
        }
    }

    /// The committed image for a read-only scan: (root, version, row count).
    pub fn snapshot(&self) -> (Link, u64, u64) {
        let m = self.inner.lock();
        (m.root.clone(), m.version, size(&m.root))
    }

    /// Rows visible in the committed image.
    pub fn visible_rows(&self) -> u64 {
        size(&self.inner.lock().root)
    }

    /// Committed delta counters, recomputed from the image (O(#deltas)).
    pub fn stats(&self) -> PdtStats {
        let m = self.inner.lock();
        compute_stats(&m.root, m.n_stable)
    }

    /// Commit `txn`, returning the new version: [`prepare_commit`] then
    /// [`PreparedCommit::apply`].
    ///
    /// [`prepare_commit`]: PdtStore::prepare_commit
    pub fn commit(&self, txn: Transaction) -> Result<u64> {
        Ok(self.prepare_commit(txn)?.apply())
    }

    /// The fallible half of a commit: every check, and the image the
    /// commit would install. The returned guard holds this store's lock,
    /// so nothing can commit to the table until it is applied or dropped
    /// (dropping it leaves the store untouched) — a multi-table commit
    /// prepares every table, then applies them all.
    ///
    /// Fails with [`VwError::TxnConflict`] if any stable row written by this
    /// transaction was also written by a transaction that committed after
    /// this one's snapshot (write-write conflict on position), or if a
    /// checkpoint invalidated the snapshot's stable coordinates.
    pub fn prepare_commit(&self, txn: Transaction) -> Result<PreparedCommit<'_>> {
        let m = self.inner.lock();
        if txn.snapshot_version < m.checkpoint_version {
            return Err(VwError::TxnConflict(
                "snapshot predates a checkpoint; restart transaction".into(),
            ));
        }

        if txn.touched_foreign_inserts && m.version != txn.snapshot_version {
            return Err(VwError::TxnConflict(
                "a concurrent commit raced with edits to PDT-resident inserted rows; \
                 retry the transaction"
                    .into(),
            ));
        }

        if m.version == txn.snapshot_version {
            // Serial fast path: nothing committed since the snapshot, so the
            // transaction's image is exactly the next master image.
            return Ok(PreparedCommit { master: m, root: txn.root, write_set: txn.write_set });
        }

        for (ver, sids) in m.commit_log.iter().rev() {
            if *ver <= txn.snapshot_version {
                break;
            }
            if !txn.write_set.is_disjoint(sids) {
                return Err(VwError::TxnConflict(format!(
                    "write-write conflict with commit version {ver}"
                )));
            }
        }

        // Replay deletes and modifies by SID onto the current master image
        // in one batch: each row's last op is its outcome (a modify points
        // at every column written to the row), and rows ascend by sid as
        // by position, so one block's consecutive rows stay one run.
        let last: BTreeMap<u64, &Op> = txn.log.iter().map(|op| (op.sid(), op)).collect();
        let rids = last.keys().map(|&sid| locate_sid(&m.root, sid)).collect::<Result<Vec<_>>>()?;
        let mut fresh_prio = || prio_for(self.next_id());
        let mut ops = last.into_iter();
        let mut root = rewrite_rows(&m.root, 0, &rids, &mut fresh_prio, &mut |_, _| {
            Ok::<_, VwError>(match ops.next().expect("one op per rid") {
                (_, Op::DeleteStable { .. }) => None,
                (sid, Op::ModifyStable { overlay, .. }) => {
                    Some(Piece::StableRun { sid, len: 1, overlay: Some(overlay.clone()) })
                }
            })
        })?;

        // Replay the transaction's own insert runs in its image order,
        // re-anchored to surviving stable predecessors.
        let mut planned: Vec<(Anchor, Piece)> = Vec::new();
        {
            let mut last_anchor = Anchor::Front;
            for_each_piece(&txn.root, &mut |p| match p {
                Piece::StableRun { sid, len, .. } => {
                    last_anchor = Anchor::AfterSid(sid + len - 1);
                }
                Piece::Insert { id, .. } => {
                    if txn.own_inserts.contains(id) {
                        planned.push((last_anchor, p.clone()));
                    }
                }
            });
        }
        let mut anchor_offsets: FxHashMap<Anchor, u64> = FxHashMap::default();
        for (anchor, run) in planned {
            let base = match anchor {
                Anchor::Front => 0,
                Anchor::AfterSid(sid) => match find_stable_at_or_before(&root, sid) {
                    Some((rid, _)) => rid + 1,
                    None => 0,
                },
            };
            let off = anchor_offsets.entry(anchor).or_insert(0);
            let pos = (base + *off).min(size(&root));
            *off += run.rows();
            let (a, b) = split(root, pos);
            root = merge(a, merge(leaf(prio_for(self.next_id()), run), b));
        }

        Ok(PreparedCommit { master: m, root, write_set: txn.write_set })
    }

    /// Discard all deltas and point at a freshly checkpointed stable table of
    /// `n_stable` rows. In-flight transactions will fail their commit.
    pub fn reset_after_checkpoint(&self, n_stable: u64) {
        let mut m = self.inner.lock();
        m.root = stable_image(n_stable);
        m.version += 1;
        m.n_stable = n_stable;
        m.checkpoint_version = m.version;
        m.commit_log.clear();
    }
}

/// A commit that passed every check ([`PdtStore::prepare_commit`]);
/// installing it cannot fail.
pub struct PreparedCommit<'a> {
    master: MutexGuard<'a, Master>,
    root: Link,
    write_set: FxHashSet<u64>,
}

impl PreparedCommit<'_> {
    /// Install the prepared image as the next committed version.
    pub fn apply(mut self) -> u64 {
        let m = &mut *self.master;
        m.version += 1;
        if !self.write_set.is_empty() {
            m.commit_log.push((m.version, self.write_set));
        }
        m.root = self.root;
        m.version
    }
}

/// Find the RID of exactly `sid`, or report the row as vanished.
fn locate_sid(root: &Link, sid: u64) -> Result<u64> {
    match find_stable_at_or_before(root, sid) {
        Some((rid, found)) if found == sid => Ok(rid),
        _ => Err(VwError::TxnConflict(format!("row sid={sid} vanished"))),
    }
}

fn compute_stats(root: &Link, n_stable: u64) -> PdtStats {
    let mut stable_visible = 0u64;
    let mut inserts = 0u64;
    let mut modifies = 0u64;
    for_each_piece(root, &mut |p| match p {
        Piece::StableRun { len, overlay, .. } => {
            stable_visible += len;
            modifies += overlay.as_ref().map_or(0, |(block, _)| len * block.cols.len() as u64);
        }
        Piece::Insert { len, .. } => inserts += len,
    });
    PdtStats { inserts, deletes: n_stable - stable_visible, modifies }
}

impl Transaction {
    /// Rows visible to this transaction.
    pub fn n_rows(&self) -> u64 {
        size(&self.root)
    }

    /// This transaction's private image root (for scanning its own view).
    pub fn image(&self) -> &Link {
        &self.root
    }

    fn check_rid(&self, rid: u64, inclusive_end: bool) -> Result<()> {
        let n = self.n_rows();
        let ok = if inclusive_end { rid <= n } else { rid < n };
        if !ok {
            return Err(VwError::Exec(format!(
                "row position {rid} out of range (visible rows: {n})"
            )));
        }
        Ok(())
    }

    /// Insert `rows` as one run so that its first row becomes the row at
    /// position `rid` (`rid == n_rows()` appends).
    pub fn insert_rows(&mut self, rid: u64, rows: Rows) -> Result<()> {
        self.check_rid(rid, true)?;
        let len = rows.n_rows();
        if len == 0 {
            return Ok(());
        }
        let id = NEXT_LOCAL.fetch_add(1, Ordering::Relaxed);
        let run = Piece::Insert { id, rows: Arc::new(rows), start: 0, len };
        let (before, after) = split(self.root.clone(), rid);
        self.root = merge(before, merge(leaf(prio_for(id), run), after));
        self.own_inserts.insert(id);
        self.own_rows += len;
        Ok(())
    }

    /// Insert one row of `values` at position `rid`, each column typed by
    /// its value (a NULL as BOOLEAN: typed runs, [`Transaction::insert_rows`],
    /// are how rows with NULLs a scan reads go in).
    pub fn insert_at(&mut self, rid: u64, values: Vec<vw_common::Value>) -> Result<()> {
        let mut row = Rows::default();
        for v in &values {
            row.cols.push(ColData::new(v.type_id().unwrap_or(TypeId::Bool)));
            row.cols.last_mut().expect("just pushed").push_value(v)?;
            row.nulls.push(v.is_null().then(|| vec![true]));
        }
        self.insert_rows(rid, row)
    }

    /// Delete the row at position `rid`.
    pub fn delete_at(&mut self, rid: u64) -> Result<()> {
        self.delete_batch(&[rid])
    }

    /// Set column `col` of the row at position `rid` to `value`, typed by
    /// itself like [`Transaction::insert_at`]'s.
    pub fn update_at(&mut self, rid: u64, col: usize, value: vw_common::Value) -> Result<()> {
        let mut data = ColData::new(value.type_id().unwrap_or(TypeId::Bool));
        data.push_value(&value)?;
        let rows = Rows { cols: vec![data], nulls: vec![value.is_null().then(|| vec![true])] };
        self.update_batch(&[rid], Arc::new(Block { cols: vec![col], rows }))
    }

    /// Delete the rows at the strictly ascending positions `rids` (all in
    /// this transaction's current image) in one pass over the tree.
    pub fn delete_batch(&mut self, rids: &[u64]) -> Result<()> {
        self.rewrite_batch(rids, |_, piece, off, own_inserts, staged| {
            match piece {
                Piece::StableRun { sid, .. } => {
                    staged.log.push(Op::DeleteStable { sid: sid + off })
                }
                // Deleting an own inserted row cancels it; a committed but not
                // yet checkpointed one has no stable coordinates, so the
                // removal is only expressible through the serial fast path.
                Piece::Insert { id, .. } if own_inserts.contains(id) => staged.cancelled_rows += 1,
                Piece::Insert { .. } => staged.touched_foreign_inserts = true,
            }
            Ok(None)
        })
    }

    /// Write `block` to the rows at the strictly ascending positions
    /// `rids` in one pass over the tree: block row `i` holds the new values
    /// of row `rids[i]`. A stable row is overlaid by its block row, so the
    /// rows of a run updated together stay one run; one whose earlier
    /// overlay wrote columns this block does not, and an inserted row,
    /// become a one-row piece of their own, built by typed lane copies.
    pub fn update_batch(&mut self, rids: &[u64], block: Arc<Block>) -> Result<()> {
        if block.rows.n_rows() != rids.len() as u64 {
            return Err(VwError::Exec("update batch: block rows do not match rids".into()));
        }
        self.rewrite_batch(rids, |i, piece, off, own_inserts, staged| {
            let i = i as u64;
            let (sid, earlier) = match piece {
                Piece::StableRun { sid, overlay, .. } => (sid + off, overlay),
                Piece::Insert { id, rows, start, .. } => {
                    staged.touched_foreign_inserts |= !own_inserts.contains(id);
                    let width = rows.cols.len();
                    if let Some(col) = block.cols.iter().find(|&&c| c >= width) {
                        return Err(VwError::Exec(format!("column {col} out of range")));
                    }
                    let lane = |c| match block.find(c) {
                        Some(j) => (&block.rows, j, i),
                        None => (&**rows, c, start + off),
                    };
                    let row = Arc::new(Rows::gather((0..width).map(lane)));
                    return Ok(Some(Piece::Insert { id: *id, rows: row, start: 0, len: 1 }));
                }
            };
            let overlay = match earlier {
                Some((old, start)) if old.cols.iter().any(|&c| block.find(c).is_none()) => {
                    let kept = (0..old.cols.len()).filter(|&j| block.find(old.cols[j]).is_none());
                    let kept = kept.map(|j| (old.cols[j], (&old.rows, j, start + off)));
                    let new = block.cols.iter().enumerate().map(|(j, &c)| (c, (&block.rows, j, i)));
                    let (cols, lanes): (Vec<usize>, Vec<_>) = kept.chain(new).unzip();
                    (Arc::new(Block { cols, rows: Rows::gather(lanes) }), 0)
                }
                _ => (block.clone(), i),
            };
            staged.log.push(Op::ModifyStable { sid, overlay: overlay.clone() });
            Ok(Some(Piece::StableRun { sid, len: 1, overlay: Some(overlay) }))
        })
    }

    /// The one way this transaction rewrites rows of its image:
    /// `row_op(index into rids, piece, offset in piece, own inserts,
    /// staged)` decides each row's replacement (see [`rewrite_rows`]) and
    /// stages its bookkeeping, which lands only if the whole batch
    /// succeeds — on an error the transaction is exactly as it was.
    fn rewrite_batch(
        &mut self,
        rids: &[u64],
        mut row_op: impl FnMut(
            usize,
            &Piece,
            u64,
            &FxHashSet<u64>,
            &mut Staged,
        ) -> Result<Option<Piece>>,
    ) -> Result<()> {
        if let Some(w) = rids.windows(2).find(|w| w[0] >= w[1]) {
            return Err(VwError::Exec(format!(
                "row positions must ascend strictly ({} then {})",
                w[0], w[1]
            )));
        }
        if let Some(&last) = rids.last() {
            self.check_rid(last, false)?;
        }
        let mut staged = Staged::default();
        let mut next = 0usize;
        self.root = rewrite_rows(
            &self.root,
            0,
            rids,
            &mut || prio_for(NEXT_LOCAL.fetch_add(1, Ordering::Relaxed)),
            &mut |piece, off| {
                next += 1;
                row_op(next - 1, piece, off, &self.own_inserts, &mut staged)
            },
        )?;
        self.write_set.extend(staged.log.iter().map(Op::sid));
        self.log.append(&mut staged.log);
        self.own_rows -= staged.cancelled_rows;
        self.touched_foreign_inserts |= staged.touched_foreign_inserts;
        Ok(())
    }

    /// Number of pending logged operations plus live own inserted rows
    /// (diagnostics).
    pub fn pending_ops(&self) -> usize {
        self.log.len() + self.own_rows as usize
    }

    /// True when this transaction changed no row of its image: its commit
    /// would change nothing.
    pub fn is_empty(&self) -> bool {
        self.pending_ops() == 0 && !self.touched_foreign_inserts
    }
}

static NEXT_LOCAL: AtomicU64 = AtomicU64::new(1 << 32);

/// Bookkeeping of one batch, held back until the batch has succeeded.
#[derive(Default)]
struct Staged {
    log: Vec<Op>,
    cancelled_rows: u64,
    touched_foreign_inserts: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::Value;

    fn row(v: i64) -> Vec<Value> {
        vec![Value::I64(v)]
    }

    /// Row `i` of `rows` as values.
    fn values_of(rows: &Rows, i: u64) -> Vec<Value> {
        let cell = |(c, m): (&ColData, &Option<Vec<bool>>)| match m {
            Some(m) if m[i as usize] => Value::Null,
            _ => c.get_value(i as usize),
        };
        rows.cols.iter().zip(&rows.nulls).map(cell).collect()
    }

    /// A block writing BIGINT columns `cols`: `values[r][j]` is row `r`'s
    /// value of `cols[j]`.
    fn block(cols: &[usize], values: &[Vec<i64>]) -> Arc<Block> {
        let column = |j: usize| ColData::I64(values.iter().map(|r| r[j]).collect());
        let nulls = vec![None; cols.len()];
        let rows = Rows { cols: (0..cols.len()).map(column).collect(), nulls };
        Arc::new(Block { cols: cols.to_vec(), rows })
    }

    /// `len` inserted rows holding `v`, `v + 1`, … in one BIGINT column.
    fn run_of(v: i64, len: i64) -> Rows {
        Rows { cols: vec![ColData::I64((v..v + len).collect())], nulls: vec![None] }
    }

    /// One visible row of an image, whatever pieces hold it: seams, runs
    /// and insert ids do not show.
    #[derive(Debug, Clone, PartialEq)]
    enum RowOf {
        Stable(u64),
        /// A stable row and its overlay's `(column, value)`s, by column.
        Modified(u64, Vec<(usize, Value)>),
        Inserted(Vec<Value>),
    }

    /// The overlay row `(block, row)` as `(column, value)`s, by column.
    fn modified(block: &Block, row: u64) -> Vec<(usize, Value)> {
        let mut mods: Vec<_> =
            block.cols.iter().copied().zip(values_of(&block.rows, row)).collect();
        mods.sort_by_key(|m| m.0);
        mods
    }

    fn rows_of(root: &Link) -> Vec<RowOf> {
        let mut out = Vec::new();
        for_each_piece(root, &mut |p| match p {
            Piece::StableRun { sid, len, overlay: None } => {
                out.extend((*sid..sid + len).map(RowOf::Stable))
            }
            Piece::StableRun { sid, len, overlay: Some((block, start)) } => {
                out.extend((0..*len).map(|k| RowOf::Modified(sid + k, modified(block, start + k))))
            }
            Piece::Insert { rows, start, len, .. } => {
                out.extend((*start..start + len).map(|r| RowOf::Inserted(values_of(rows, r))))
            }
        });
        out
    }

    /// Flatten an image into (Option<sid>, Option<row>) for assertions.
    fn flat(root: &Link) -> Vec<(Option<u64>, Option<i64>)> {
        rows_of(root)
            .into_iter()
            .map(|r| match r {
                RowOf::Stable(sid) | RowOf::Modified(sid, _) => (Some(sid), None),
                RowOf::Inserted(row) => {
                    let Value::I64(v) = row[0] else { panic!() };
                    (None, Some(v))
                }
            })
            .collect()
    }

    #[test]
    fn insert_delete_modify_roundtrip() {
        let store = PdtStore::new(10);
        let mut t = store.begin();
        t.insert_at(3, row(100)).unwrap();
        assert_eq!(t.n_rows(), 11);
        t.delete_at(0).unwrap();
        assert_eq!(t.n_rows(), 10);
        t.update_at(5, 0, Value::I64(-1)).unwrap();
        store.commit(t).unwrap();

        let (root, _, n) = store.snapshot();
        assert_eq!(n, 10);
        let f = flat(&root);
        // Started 0..10; deleted sid0; inserted before old rid3 (sid 3).
        assert_eq!(f[0], (Some(1), None));
        assert_eq!(f[2], (None, Some(100)));
        assert_eq!(f[3], (Some(3), None));
        let stats = store.stats();
        assert_eq!(stats, PdtStats { inserts: 1, deletes: 1, modifies: 1 });
    }

    #[test]
    fn append_and_visible_rows() {
        let store = PdtStore::new(0);
        let mut t = store.begin();
        for i in 0..5 {
            t.insert_at(t.n_rows(), row(i)).unwrap();
        }
        store.commit(t).unwrap();
        assert_eq!(store.visible_rows(), 5);
        let (root, _, _) = store.snapshot();
        let f = flat(&root);
        assert_eq!(f.iter().map(|x| x.1.unwrap()).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn out_of_order_inserts_keep_image_order() {
        let store = PdtStore::new(0);
        let mut t = store.begin();
        t.insert_at(0, row(1)).unwrap(); // [1]
        t.insert_at(0, row(2)).unwrap(); // [2,1]
        t.insert_at(1, row(3)).unwrap(); // [2,3,1]
        store.commit(t).unwrap();
        let (root, _, _) = store.snapshot();
        let vals: Vec<i64> = flat(&root).iter().map(|x| x.1.unwrap()).collect();
        assert_eq!(vals, vec![2, 3, 1]);
    }

    #[test]
    fn snapshot_isolation() {
        let store = PdtStore::new(4);
        let t_reader = store.begin();
        let mut t_writer = store.begin();
        t_writer.delete_at(0).unwrap();
        store.commit(t_writer).unwrap();
        // Reader still sees 4 rows; new snapshot sees 3.
        assert_eq!(t_reader.n_rows(), 4);
        assert_eq!(store.visible_rows(), 3);
    }

    #[test]
    fn write_write_conflict_detected() {
        let store = PdtStore::new(4);
        let mut a = store.begin();
        let mut b = store.begin();
        a.update_at(2, 0, Value::I64(1)).unwrap();
        b.update_at(2, 0, Value::I64(2)).unwrap();
        store.commit(a).unwrap();
        let err = store.commit(b).unwrap_err();
        assert!(matches!(err, VwError::TxnConflict(_)));
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let store = PdtStore::new(4);
        let mut a = store.begin();
        let mut b = store.begin();
        a.update_at(1, 0, Value::I64(1)).unwrap();
        b.update_at(3, 0, Value::I64(2)).unwrap();
        store.commit(a).unwrap();
        store.commit(b).unwrap();
        let stats = store.stats();
        assert_eq!(stats.modifies, 2);
    }

    #[test]
    fn concurrent_inserts_merge() {
        let store = PdtStore::new(2);
        let mut a = store.begin();
        let mut b = store.begin();
        a.insert_at(1, row(10)).unwrap();
        b.insert_at(1, row(20)).unwrap();
        store.commit(a).unwrap();
        store.commit(b).unwrap();
        assert_eq!(store.visible_rows(), 4);
        let (root, _, _) = store.snapshot();
        let f = flat(&root);
        assert_eq!(f[0], (Some(0), None));
        assert_eq!(f[3], (Some(1), None));
        // Both inserts landed between the stable rows (order unspecified).
        assert!(f[1].1.is_some() && f[2].1.is_some());
    }

    #[test]
    fn delete_own_insert_cancels() {
        let store = PdtStore::new(2);
        let mut t = store.begin();
        t.insert_at(1, row(10)).unwrap();
        t.delete_at(1).unwrap();
        assert_eq!(t.pending_ops(), 0, "insert+delete must cancel out");
        store.commit(t).unwrap();
        assert_eq!(store.visible_rows(), 2);
        assert_eq!(store.stats().total(), 0);
    }

    #[test]
    fn update_own_insert_keeps_value() {
        let store = PdtStore::new(0);
        let mut t = store.begin();
        t.insert_at(0, row(1)).unwrap();
        t.update_at(0, 0, Value::I64(42)).unwrap();
        store.commit(t).unwrap();
        let (root, _, _) = store.snapshot();
        assert_eq!(flat(&root)[0].1, Some(42));
    }

    #[test]
    fn delete_then_insert_at_same_position() {
        let store = PdtStore::new(5);
        let mut t = store.begin();
        t.delete_at(2).unwrap(); // deletes sid2
        t.insert_at(2, row(99)).unwrap();
        store.commit(t).unwrap();
        let (root, _, _) = store.snapshot();
        let f = flat(&root);
        assert_eq!(f.len(), 5);
        assert_eq!(f[2], (None, Some(99)));
        assert_eq!(f[3], (Some(3), None));
    }

    #[test]
    fn conflicting_delete_delete() {
        let store = PdtStore::new(3);
        let mut a = store.begin();
        let mut b = store.begin();
        a.delete_at(1).unwrap();
        b.delete_at(1).unwrap();
        store.commit(a).unwrap();
        assert!(store.commit(b).is_err());
        assert_eq!(store.visible_rows(), 2);
    }

    #[test]
    fn concurrent_insert_replay_against_changed_image() {
        let store = PdtStore::new(10);
        // Txn B inserts after sid 5 while txn A deletes sids 4..=6.
        let mut a = store.begin();
        let mut b = store.begin();
        b.insert_at(6, row(77)).unwrap(); // lands after sid 5 in b's image
        for _ in 0..3 {
            a.delete_at(4).unwrap(); // deletes sids 4,5,6
        }
        store.commit(a).unwrap();
        store.commit(b).unwrap();
        let (root, _, _) = store.snapshot();
        let f = flat(&root);
        assert_eq!(f.len(), 8); // 10 - 3 + 1
                                // The insert re-anchored to the nearest surviving predecessor (sid 3).
        let pos = f.iter().position(|x| x.1 == Some(77)).unwrap();
        assert_eq!(f[pos - 1], (Some(3), None));
        assert_eq!(f[pos + 1], (Some(7), None));
    }

    #[test]
    fn checkpoint_invalidates_old_snapshots() {
        let store = PdtStore::new(3);
        let mut t = store.begin();
        t.delete_at(0).unwrap();
        store.reset_after_checkpoint(3);
        assert!(matches!(store.commit(t), Err(VwError::TxnConflict(_))));
        assert_eq!(store.visible_rows(), 3);
        assert_eq!(store.stats().total(), 0);
    }

    #[test]
    fn out_of_range_positions_error() {
        let store = PdtStore::new(2);
        let mut t = store.begin();
        assert!(t.delete_at(2).is_err());
        assert!(t.update_at(5, 0, Value::I64(0)).is_err());
        assert!(t.insert_at(3, row(0)).is_err());
        t.insert_at(2, row(0)).unwrap(); // == n_rows: append OK
    }

    #[test]
    fn modify_same_column_twice_counts_once() {
        let store = PdtStore::new(2);
        let mut t = store.begin();
        t.update_at(0, 0, Value::I64(1)).unwrap();
        t.update_at(0, 0, Value::I64(2)).unwrap();
        store.commit(t).unwrap();
        assert_eq!(store.stats().modifies, 1);
        let (root, _, _) = store.snapshot();
        match &rows_of(&root)[0] {
            RowOf::Modified(_, mods) => {
                assert_eq!(mods, &[(0, Value::I64(2))]);
            }
            other => panic!("expected a modified row, got {other:?}"),
        }
    }

    /// Property-style: on random images (runs, modified rows, inserts)
    /// a batch update/delete over a random ascending RID set equals the
    /// same operations applied one at a time — same image, same
    /// bookkeeping, same commit outcome through the serial fast path and
    /// through the concurrent replay path.
    #[test]
    fn batch_apply_equals_one_at_a_time() {
        let mut x = 0x5eed_u64;
        let mut rnd = move |n: u64| {
            x = vw_common::hash::hash_u64(x);
            x % n
        };
        // `len` inserted rows of three BIGINT columns, the last NULL.
        let wide = |v: i64, len: i64| Rows {
            cols: vec![
                ColData::I64((v..v + len).collect()),
                ColData::I64((v..v + len).map(|v| -v).collect()),
                ColData::I64(vec![0; len as usize]),
            ],
            nulls: vec![None, None, Some(vec![true; len as usize])],
        };
        let (mut conflicts, mut replays) = (0, 0);
        for case in 0..300 {
            let n_stable = 1 + rnd(200);
            // Two stores brought to the same random committed image.
            let stores = [PdtStore::new(n_stable), PdtStore::new(n_stable)];
            let setup: Vec<(u64, u64, i64)> =
                (0..rnd(30)).map(|_| (rnd(3), rnd(1 << 20), rnd(1000) as i64)).collect();
            for store in &stores {
                let mut t = store.begin();
                for &(kind, pos, v) in &setup {
                    let pos = pos % t.n_rows().max(1);
                    match kind {
                        0 if t.n_rows() > 1 => t.delete_at(pos).unwrap(),
                        1 => t.insert_rows(pos, wide(v, 1 + v % 4)).unwrap(),
                        _ => t.update_at(pos, (v % 3) as usize, Value::I64(v)).unwrap(),
                    }
                }
                store.commit(t).unwrap();
            }
            assert_eq!(rows_of(&stores[0].snapshot().0), rows_of(&stores[1].snapshot().0));

            // The transactions under test, each with an own run or two.
            let mut txns = [stores[0].begin(), stores[1].begin()];
            for _ in 0..rnd(3) {
                let (pos, v) = (rnd(txns[0].n_rows() + 1), rnd(1000) as i64);
                for t in &mut txns {
                    t.insert_rows(pos, wide(v, 1 + v % 5)).unwrap();
                }
            }
            let n = txns[0].n_rows();
            let rids: Vec<u64> = (0..n).filter(|_| rnd(4) == 0).collect();
            let [batch, single] = &mut txns;
            if case % 2 == 0 {
                batch.delete_batch(&rids).unwrap();
                for &rid in rids.iter().rev() {
                    single.delete_at(rid).unwrap();
                }
            } else {
                let cols: Vec<usize> = if rnd(2) == 0 { vec![1] } else { vec![2, 0] };
                let values: Vec<Vec<i64>> =
                    rids.iter().map(|_| cols.iter().map(|_| rnd(50) as i64).collect()).collect();
                batch.update_batch(&rids, block(&cols, &values)).unwrap();
                for (&rid, row) in rids.iter().zip(&values) {
                    single.update_batch(&[rid], block(&cols, std::slice::from_ref(row))).unwrap();
                }
            }
            assert_eq!(rows_of(batch.image()), rows_of(single.image()), "case {case}");
            assert_eq!(batch.write_set, single.write_set);
            assert_eq!(batch.own_inserts.len(), single.own_inserts.len());
            assert_eq!(batch.own_rows, single.own_rows);
            assert_eq!(batch.touched_foreign_inserts, single.touched_foreign_inserts);
            // Same log up to order (a batch delete logs ascending, the
            // one-at-a-time loop descending), modifies compared by the
            // values they point at.
            let sorted_log = |t: &Transaction| {
                let mut l: Vec<String> = (t.log.iter())
                    .map(|op| match op {
                        Op::DeleteStable { sid } => format!("delete {sid}"),
                        Op::ModifyStable { sid, overlay: (b, r) } => {
                            format!("modify {sid} {:?}", modified(b, *r))
                        }
                    })
                    .collect();
                l.sort();
                l
            };
            assert_eq!(sorted_log(batch), sorted_log(single));

            // Every third case another writer commits first: the replay
            // path, or a conflict — on both stores alike.
            if case % 3 == 0 {
                let (pos, v) = (rnd(1 << 20), rnd(1000) as i64);
                for store in &stores {
                    let mut w = store.begin();
                    let pos = pos % w.n_rows();
                    w.update_at(pos, 0, Value::I64(v)).unwrap();
                    store.commit(w).unwrap();
                }
                replays += 1;
            }
            let [batch, single] = txns;
            let outcomes = [stores[0].commit(batch), stores[1].commit(single)];
            match &outcomes {
                [Ok(a), Ok(b)] => assert_eq!(a, b, "case {case}"),
                [Err(VwError::TxnConflict(_)), Err(VwError::TxnConflict(_))] => conflicts += 1,
                other => panic!("case {case}: commit outcomes differ: {other:?}"),
            }
            assert_eq!(rows_of(&stores[0].snapshot().0), rows_of(&stores[1].snapshot().0));
            assert_eq!(stores[0].stats(), stores[1].stats(), "case {case}");
        }
        assert!(conflicts > 0 && conflicts < replays, "both replay outcomes exercised");
    }

    #[test]
    fn failed_batch_leaves_the_transaction_unchanged() {
        let store = PdtStore::new(10);
        let mut t = store.begin();
        t.insert_at(5, row(1)).unwrap();
        let before = rows_of(t.image());
        // The insert at rid 5 has one column: column 3 is out of range,
        // after rid 2 was already rewritten.
        assert!(t.update_batch(&[2, 5], block(&[3], &[vec![0], vec![0]])).is_err());
        let zeros = block(&[0], &[vec![0], vec![0]]);
        assert!(t.update_batch(&[5, 2], zeros).is_err(), "not ascending");
        assert!(t.update_batch(&[2], block(&[0], &[])).is_err(), "values do not match rids");
        assert!(t.delete_batch(&[3, 11]).is_err(), "out of range");
        assert_eq!(rows_of(t.image()), before);
        assert_eq!(t.pending_ops(), 1, "only the insert is pending");
        assert!(t.write_set.is_empty());
    }

    #[test]
    fn prepared_commit_holds_the_store_until_applied_or_dropped() {
        let store = PdtStore::new(4);
        let mut t = store.begin();
        t.delete_at(0).unwrap();
        drop(store.prepare_commit(t).unwrap());
        assert_eq!((store.visible_rows(), store.snapshot().1), (4, 0), "dropped: no trace");
        let mut t = store.begin();
        t.delete_at(0).unwrap();
        assert_eq!(store.prepare_commit(t).unwrap().apply(), 1);
        assert_eq!(store.visible_rows(), 3);
    }

    /// Two transactions insert 2 500 rows each, as five runs, after the
    /// same stable row; the second commit replays its runs onto the first
    /// one's image. Each transaction's rows stay contiguous and in its own
    /// order: the replay advances past each run it places, not one row.
    #[test]
    fn concurrent_runs_at_one_anchor_stay_whole_and_in_order() {
        let store = PdtStore::new(10);
        let (mut a, mut b) = (store.begin(), store.begin());
        for (t, first) in [(&mut a, 0), (&mut b, 10_000)] {
            for k in 0..5 {
                t.insert_rows(5 + 500 * k, run_of(first + 500 * k as i64, 500)).unwrap();
            }
            assert_eq!(t.pending_ops(), 2_500);
        }
        store.commit(a).unwrap();
        store.commit(b).unwrap();
        assert_eq!(store.stats(), PdtStats { inserts: 5_000, deletes: 0, modifies: 0 });
        let f = flat(&store.snapshot().0);
        assert_eq!(f.len(), 5_010);
        assert_eq!((f[4], f[5_005]), ((Some(4), None), (Some(5), None)));
        let inserted: Vec<i64> = f[5..5_005].iter().map(|r| r.1.unwrap()).collect();
        let runs = [(0..2_500).collect::<Vec<i64>>(), (10_000..12_500).collect()];
        assert!(
            inserted == [runs[1].clone(), runs[0].clone()].concat()
                || inserted == [runs[0].clone(), runs[1].clone()].concat(),
            "each transaction's rows whole and in order"
        );
    }

    /// Rows of a stable run are re-updated with other and overlapping
    /// column sets, in one transaction and across commits: the image
    /// matches a mirror of every row's modified columns after each, a
    /// run updated together stays one piece, and a re-update that keeps
    /// columns of an earlier one carries them into a one-row block.
    #[test]
    fn re_updates_with_a_union_of_columns_match_a_mirror() {
        use std::collections::BTreeMap;
        let store = PdtStore::new(60);
        let mut mirror: Vec<BTreeMap<usize, i64>> = vec![BTreeMap::new(); 60];
        let pieces = |root: &Link| {
            let mut n = 0;
            for_each_piece(root, &mut |_| n += 1);
            n
        };
        let check = |root: &Link, mirror: &[BTreeMap<usize, i64>]| {
            let want: Vec<RowOf> = (mirror.iter().enumerate())
                .map(|(sid, m)| match m.is_empty() {
                    true => RowOf::Stable(sid as u64),
                    false => RowOf::Modified(
                        sid as u64,
                        m.iter().map(|(&c, &v)| (c, Value::I64(v))).collect(),
                    ),
                })
                .collect();
            assert_eq!(rows_of(root), want);
        };
        let steps: [(std::ops::Range<u64>, &[usize], bool); 5] = [
            (10..30, &[0], false),
            (15..25, &[1], false),
            (20..22, &[2, 0], true),
            (5..40, &[1], false),
            (18..19, &[2], true),
        ];
        let mut t = store.begin();
        for (k, (rids, cols, commit)) in steps.into_iter().enumerate() {
            let rids: Vec<u64> = rids.collect();
            let values: Vec<Vec<i64>> = (rids.iter())
                .map(|&r| {
                    cols.iter().map(|&c| 1_000 * k as i64 + 10 * r as i64 + c as i64).collect()
                })
                .collect();
            t.update_batch(&rids, block(cols, &values)).unwrap();
            for (&r, row) in rids.iter().zip(&values) {
                mirror[r as usize].extend(cols.iter().copied().zip(row.iter().copied()));
            }
            check(t.image(), &mirror);
            if k == 0 {
                assert_eq!(pieces(t.image()), 3, "rows 10..30 updated together are one run");
            }
            if commit {
                store.commit(std::mem::replace(&mut t, store.begin())).unwrap();
                t = store.begin();
                check(&store.snapshot().0, &mirror);
            }
        }
        let modifies: usize = mirror.iter().map(BTreeMap::len).sum();
        assert_eq!(store.stats().modifies, modifies as u64);
        // Rows 25..30 kept step 0's column 0 and took step 3's column 1:
        // one-row union blocks; rows 30..40 took column 1 alone, still one
        // run of step 3's block.
        let (root, _, _) = store.snapshot();
        let mut runs = Vec::new();
        for_each_piece(&root, &mut |p| {
            if let Piece::StableRun { sid, len, overlay: Some((b, _)) } = p {
                runs.push((*sid, *len, b.cols.len()));
            }
        });
        assert!(runs.contains(&(30, 10, 1)), "{runs:?}");
        assert!(runs.contains(&(27, 1, 2)), "{runs:?}");
    }

    /// While one transaction commits deletes and updates, another
    /// overlays runs (and re-updates part of them with another column)
    /// and inserts a run; its commit replays every overlay row by sid onto
    /// the changed image, pointing into its own blocks.
    #[test]
    fn a_concurrent_commit_replays_overlay_rows_by_sid() {
        let store = PdtStore::new(100);
        let (mut a, mut b) = (store.begin(), store.begin());
        a.delete_batch(&[0, 1, 2, 3, 4]).unwrap();
        let a_rows: Vec<u64> = (5..55).collect(); // sids 10..60
        let a_vals: Vec<Vec<i64>> = a_rows.iter().map(|&r| vec![-(r as i64 + 5)]).collect();
        a.update_batch(&a_rows, block(&[0], &a_vals)).unwrap();
        let b_rids: Vec<u64> = (70..90).collect();
        let b_vals: Vec<Vec<i64>> = b_rids.iter().map(|&r| vec![r as i64, 2 * r as i64]).collect();
        let b_block = block(&[1, 2], &b_vals);
        b.update_batch(&b_rids, b_block.clone()).unwrap();
        let re: Vec<u64> = (80..85).collect();
        b.update_batch(&re, block(&[0], &vec![vec![7]; 5])).unwrap();
        b.insert_rows(3, run_of(500, 4)).unwrap();
        store.commit(a).unwrap();
        store.commit(b).unwrap();

        let mut want: Vec<RowOf> = (500..504).map(|v| RowOf::Inserted(row(v))).collect();
        for sid in 5..100u64 {
            let v = sid as i64;
            want.push(match sid {
                10..60 => RowOf::Modified(sid, vec![(0, Value::I64(-v))]),
                80..85 => RowOf::Modified(
                    sid,
                    vec![(0, Value::I64(7)), (1, Value::I64(v)), (2, Value::I64(2 * v))],
                ),
                70..90 => RowOf::Modified(sid, vec![(1, Value::I64(v)), (2, Value::I64(2 * v))]),
                _ => RowOf::Stable(sid),
            });
        }
        let (root, _, _) = store.snapshot();
        assert_eq!(rows_of(&root), want);
        assert_eq!(store.stats(), PdtStats { inserts: 4, deletes: 5, modifies: 50 + 40 + 5 });
        // The replay is one batch: B's block rows for sids 70..80 and
        // 85..90 stay runs, A's for 10..60 too.
        let mut runs = Vec::new();
        for_each_piece(&root, &mut |p| {
            if let Piece::StableRun { sid, len, overlay: Some((blk, _)) } = p {
                runs.push((*sid, *len, Arc::ptr_eq(blk, &b_block)));
            }
        });
        assert!(runs.contains(&(70, 10, true)) && runs.contains(&(85, 5, true)), "{runs:?}");
        assert!(runs.contains(&(10, 50, false)), "{runs:?}");
    }

    /// Rows at the start, middle and end of a committed run and of an own
    /// run are deleted and updated one at a time: the image matches a
    /// row-by-row mirror after each, and the commit installs it.
    #[test]
    fn deletes_and_updates_cut_runs_at_any_row() {
        let store = PdtStore::new(4);
        let mut t = store.begin();
        t.insert_rows(2, run_of(100, 10)).unwrap();
        store.commit(t).unwrap();
        let mut t = store.begin();
        t.insert_rows(t.n_rows(), run_of(200, 10)).unwrap();
        // Stable rows 0, 1, the committed run at 2..12, stable rows 2, 3,
        // the own run at 14..24.
        let mut mirror = rows_of(t.image());
        let ops =
            [(23, Some(-1)), (19, None), (14, Some(-2)), (11, None), (7, Some(-3)), (2, None)];
        for (rid, update) in ops {
            match update {
                Some(v) => {
                    t.update_at(rid, 0, Value::I64(v)).unwrap();
                    mirror[rid as usize] = RowOf::Inserted(vec![Value::I64(v)]);
                }
                None => {
                    t.delete_at(rid).unwrap();
                    mirror.remove(rid as usize);
                }
            }
            assert_eq!(rows_of(t.image()), mirror, "after rid {rid}");
        }
        assert_eq!(t.pending_ops(), 9, "nine own rows live, nothing logged");
        store.commit(t).unwrap();
        assert_eq!(rows_of(&store.snapshot().0), mirror);
        assert_eq!(store.stats().inserts, 17);
        let mut t = store.begin();
        t.insert_rows(0, run_of(300, 3)).unwrap();
        t.delete_batch(&[0, 1, 2]).unwrap();
        assert!(t.is_empty(), "a run deleted row by row cancels out");
    }

    #[test]
    fn many_scattered_updates_stay_fast() {
        let store = PdtStore::new(100_000);
        let mut t = store.begin();
        // 10k scattered ops; O(log n) each.
        for i in 0..10_000u64 {
            let pos = (i * 7919) % t.n_rows();
            match i % 3 {
                0 => t.delete_at(pos).unwrap(),
                1 => t.insert_at(pos, row(i as i64)).unwrap(),
                _ => {
                    // Position may hit an insert from this txn; both paths OK.
                    let _ = t.update_at(pos, 0, Value::I64(i as i64));
                }
            }
        }
        store.commit(t).unwrap();
        let stats = store.stats();
        assert!(stats.total() > 6000);
        // Image size must be consistent: 100k - deletes + inserts.
        assert_eq!(store.visible_rows(), 100_000 - stats.deletes + stats.inserts);
    }
}
