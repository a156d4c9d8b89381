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
//!   log is replayed against the *current* master image: deletes/modifies
//!   address rows by SID; inserts are re-anchored to the nearest surviving
//!   stable predecessor. The interleaving order of different transactions'
//!   inserts at the same anchor is unspecified (any serializable order is
//!   legal).

use crate::treap::{
    find_stable_at_or_before, for_each_piece, leaf, merge, prio_for, rewrite_rows, size, split,
    stable_image, Link, Piece,
};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vw_common::hash::{FxHashMap, FxHashSet};
use vw_common::{Result, Value, VwError};

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

#[derive(Debug, Clone)]
enum Op {
    DeleteStable { sid: u64 },
    ModifyStable { sid: u64, col: usize, value: Value },
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
    own_inserts: FxHashSet<u64>,
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
        Transaction {
            root: m.root.clone(),
            snapshot_version: m.version,
            log: Vec::new(),
            own_inserts: FxHashSet::default(),
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

        // Replay deletes/modifies by SID onto the current master image.
        let mut root = m.root.clone();
        let mut fresh_prio = || prio_for(self.next_id());
        for op in &txn.log {
            let rid = locate_sid(&root, op.sid())?;
            root = rewrite_rows(&root, 0, &[rid], &mut fresh_prio, &mut |piece, off| {
                Ok::<_, VwError>(match op {
                    Op::DeleteStable { .. } => None,
                    Op::ModifyStable { col, value, .. } => {
                        Some(overlay_mods(piece, off, &[*col], std::slice::from_ref(value)).1)
                    }
                })
            })?;
        }

        // Replay the transaction's own inserts in its image order,
        // re-anchored to surviving stable predecessors.
        let mut planned: Vec<(Anchor, Arc<Vec<Value>>)> = Vec::new();
        {
            let mut last_anchor = Anchor::Front;
            for_each_piece(&txn.root, &mut |p| match p {
                Piece::StableRun { sid, len } => {
                    last_anchor = Anchor::AfterSid(sid + len - 1);
                }
                Piece::StableMod { sid, .. } => {
                    last_anchor = Anchor::AfterSid(*sid);
                }
                Piece::Insert { id, row } => {
                    if txn.own_inserts.contains(id) {
                        planned.push((last_anchor, row.clone()));
                    }
                }
            });
        }
        let mut anchor_offsets: FxHashMap<Anchor, u64> = FxHashMap::default();
        for (anchor, row) in planned {
            let base = match anchor {
                Anchor::Front => 0,
                Anchor::AfterSid(sid) => match find_stable_at_or_before(&root, sid) {
                    Some((rid, _)) => rid + 1,
                    None => 0,
                },
            };
            let off = anchor_offsets.entry(anchor).or_insert(0);
            let pos = (base + *off).min(size(&root));
            *off += 1;
            let (a, b) = split(root, pos);
            let node = leaf(prio_for(self.next_id()), Piece::Insert { id: self.next_id(), row });
            root = merge(a, merge(node, b));
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

/// The stable row at offset `off` of `piece` with `values` written to
/// `cols` (in order; a repeated column keeps the last value) on top of
/// the modifications it already carries: `(sid, the StableMod piece)`.
fn overlay_mods(piece: &Piece, off: u64, cols: &[usize], values: &[Value]) -> (u64, Piece) {
    let (sid, mut mods) = match piece {
        Piece::StableRun { sid, .. } => (sid + off, Vec::with_capacity(cols.len())),
        Piece::StableMod { sid, mods } => (*sid, (**mods).clone()),
        Piece::Insert { .. } => unreachable!("inserted rows have no stable id"),
    };
    for (&col, value) in cols.iter().zip(values) {
        match mods.iter_mut().find(|(c, _)| *c == col) {
            Some(slot) => slot.1 = value.clone(),
            None => mods.push((col, value.clone())),
        }
    }
    (sid, Piece::StableMod { sid, mods: Arc::new(mods) })
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
        Piece::StableRun { len, .. } => stable_visible += len,
        Piece::StableMod { mods, .. } => {
            stable_visible += 1;
            modifies += mods.len() as u64;
        }
        Piece::Insert { .. } => inserts += 1,
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

    /// Insert `row` so that it becomes the row at position `rid`
    /// (`rid == n_rows()` appends).
    pub fn insert_at(&mut self, rid: u64, row: Vec<Value>) -> Result<()> {
        self.check_rid(rid, true)?;
        let insert_id = NEXT_LOCAL.fetch_add(1, Ordering::Relaxed);
        let node = leaf(prio_for(insert_id), Piece::Insert { id: insert_id, row: Arc::new(row) });
        let (before, after) = split(self.root.clone(), rid);
        self.root = merge(before, merge(node, after));
        self.own_inserts.insert(insert_id);
        Ok(())
    }

    /// Append `row` at the end of the image.
    pub fn append(&mut self, row: Vec<Value>) -> Result<()> {
        self.insert_at(self.n_rows(), row)
    }

    /// Delete the row at position `rid`.
    pub fn delete_at(&mut self, rid: u64) -> Result<()> {
        self.delete_batch(&[rid])
    }

    /// Set column `col` of the row at position `rid` to `value`.
    pub fn update_at(&mut self, rid: u64, col: usize, value: Value) -> Result<()> {
        self.update_batch(&[rid], &[col], &[vec![value]])
    }

    /// Delete the rows at the strictly ascending positions `rids` (all in
    /// this transaction's current image) in one pass over the tree.
    pub fn delete_batch(&mut self, rids: &[u64]) -> Result<()> {
        self.rewrite_batch(rids, |_, piece, off, own_inserts, staged| {
            match piece {
                Piece::StableRun { sid, .. } => {
                    staged.log.push(Op::DeleteStable { sid: sid + off })
                }
                Piece::StableMod { sid, .. } => staged.log.push(Op::DeleteStable { sid: *sid }),
                // Deleting an own insert cancels it; a committed but not
                // yet checkpointed one has no stable coordinates, so the
                // removal is only expressible through the serial fast path.
                Piece::Insert { id, .. } if own_inserts.contains(id) => {
                    staged.cancelled_inserts.push(*id)
                }
                Piece::Insert { .. } => staged.touched_foreign_inserts = true,
            }
            Ok(None)
        })
    }

    /// Set columns `cols` of the rows at the strictly ascending positions
    /// `rids` in one pass over the tree: `values[i]` holds the new values
    /// of row `rids[i]`, one per entry of `cols` (written in order).
    pub fn update_batch(
        &mut self,
        rids: &[u64],
        cols: &[usize],
        values: &[Vec<Value>],
    ) -> Result<()> {
        if values.len() != rids.len() || values.iter().any(|v| v.len() != cols.len()) {
            return Err(VwError::Exec("update batch: values do not match rids × cols".into()));
        }
        self.rewrite_batch(rids, |i, piece, off, own_inserts, staged| {
            let values = &values[i];
            if let Piece::Insert { id, row } = piece {
                if !own_inserts.contains(id) {
                    staged.touched_foreign_inserts = true;
                }
                let mut row = (**row).clone();
                for (&col, value) in cols.iter().zip(values) {
                    match row.get_mut(col) {
                        Some(slot) => *slot = value.clone(),
                        None => return Err(VwError::Exec(format!("column {col} out of range"))),
                    }
                }
                return Ok(Some(Piece::Insert { id: *id, row: Arc::new(row) }));
            }
            let (sid, modified) = overlay_mods(piece, off, cols, values);
            for (&col, value) in cols.iter().zip(values) {
                staged.log.push(Op::ModifyStable { sid, col, value: value.clone() });
            }
            Ok(Some(modified))
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
        for id in staged.cancelled_inserts {
            self.own_inserts.remove(&id);
        }
        self.touched_foreign_inserts |= staged.touched_foreign_inserts;
        Ok(())
    }

    /// Number of pending logged operations plus live own inserts
    /// (diagnostics).
    pub fn pending_ops(&self) -> usize {
        self.log.len() + self.own_inserts.len()
    }
}

static NEXT_LOCAL: AtomicU64 = AtomicU64::new(1 << 32);

/// Bookkeeping of one batch, held back until the batch has succeeded.
#[derive(Default)]
struct Staged {
    log: Vec<Op>,
    cancelled_inserts: Vec<u64>,
    touched_foreign_inserts: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: i64) -> Vec<Value> {
        vec![Value::I64(v)]
    }

    /// One visible row of an image, whatever pieces hold it: seams and
    /// insert ids do not show.
    #[derive(Debug, PartialEq)]
    enum RowOf {
        Stable(u64),
        Modified(u64, Arc<Vec<(usize, Value)>>),
        Inserted(Arc<Vec<Value>>),
    }

    fn rows_of(root: &Link) -> Vec<RowOf> {
        let mut out = Vec::new();
        for_each_piece(root, &mut |p| match p {
            Piece::StableRun { sid, len } => out.extend((*sid..sid + len).map(RowOf::Stable)),
            Piece::StableMod { sid, mods } => out.push(RowOf::Modified(*sid, mods.clone())),
            Piece::Insert { row, .. } => out.push(RowOf::Inserted(row.clone())),
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
            t.append(row(i)).unwrap();
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
        t.append(row(1)).unwrap();
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
                assert_eq!(mods.as_slice(), &[(0, Value::I64(2))]);
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
        let wide = |v: i64| vec![Value::I64(v), Value::I64(-v), Value::Null];
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
                        1 => t.insert_at(pos, wide(v)).unwrap(),
                        _ => t.update_at(pos, (v % 3) as usize, Value::I64(v)).unwrap(),
                    }
                }
                store.commit(t).unwrap();
            }
            assert_eq!(rows_of(&stores[0].snapshot().0), rows_of(&stores[1].snapshot().0));

            // The transactions under test, each with an own insert or two.
            let mut txns = [stores[0].begin(), stores[1].begin()];
            for _ in 0..rnd(3) {
                let (pos, v) = (rnd(txns[0].n_rows() + 1), rnd(1000) as i64);
                for t in &mut txns {
                    t.insert_at(pos, wide(v)).unwrap();
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
                let values: Vec<Vec<Value>> = rids
                    .iter()
                    .map(|_| cols.iter().map(|_| Value::I64(rnd(50) as i64)).collect())
                    .collect();
                batch.update_batch(&rids, &cols, &values).unwrap();
                for (&rid, row) in rids.iter().zip(&values) {
                    for (&col, v) in cols.iter().zip(row) {
                        single.update_at(rid, col, v.clone()).unwrap();
                    }
                }
            }
            assert_eq!(rows_of(batch.image()), rows_of(single.image()), "case {case}");
            assert_eq!(batch.write_set, single.write_set);
            assert_eq!(batch.own_inserts.len(), single.own_inserts.len());
            assert_eq!(batch.touched_foreign_inserts, single.touched_foreign_inserts);
            // Same log up to order (a batch delete logs ascending, the
            // one-at-a-time loop descending).
            let sorted_log = |t: &Transaction| {
                let mut l: Vec<String> = t.log.iter().map(|op| format!("{op:?}")).collect();
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
        let v = vec![Value::I64(0)];
        assert!(t.update_batch(&[2, 5], &[3], &[v.clone(), v.clone()]).is_err());
        assert!(t.update_batch(&[5, 2], &[0], &[v.clone(), v.clone()]).is_err(), "not ascending");
        assert!(t.update_batch(&[2], &[0], &[]).is_err(), "values do not match rids");
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
