//! A persistent (path-copying) counted treap over the visible table image.
//!
//! Leaves-as-nodes: every node carries a [`Piece`] — a run of stable
//! rows, optionally overlaid by a block of modified values, or a run of
//! inserted rows. Subtree sizes enable O(log n) positional access;
//! subtree max-SID enables O(log n) SID → position lookup (needed for
//! commit-time replay of delta logs). A multi-row piece is cut at a
//! position by [`Piece::slice`], which copies no value: the cuts of a run
//! share its typed columns, and [`rewrite_rows`] joins the fragments that
//! continue each other ([`Piece::absorb`]), so an UPDATE of contiguous
//! rows leaves one overlaid run, not one piece per row.
//!
//! Persistence (Arc-shared immutable nodes) is what makes snapshot isolation
//! cheap: a transaction's snapshot is a root pointer clone.

use crate::values::{Block, Rows};
use std::sync::Arc;

/// Payload of one treap node.
#[derive(Debug, Clone, PartialEq)]
pub enum Piece {
    /// `len` stable rows starting at `sid`; with an overlay `(block,
    /// start)`, the block's columns replace theirs with its rows
    /// `start..start + len`.
    StableRun {
        /// First stable id of the run.
        sid: u64,
        /// Number of rows in the run.
        len: u64,
        /// The modified values of the run's rows, if any.
        overlay: Option<(Arc<Block>, u64)>,
    },
    /// `len` inserted rows (not present in stable storage): rows
    /// `start..start + len` of `rows`.
    Insert {
        /// Transaction-unique id used to find/cancel the insert in delta
        /// logs; every run cut from one insert keeps it.
        id: u64,
        /// The inserted rows this run is a range of, shared by its cuts.
        rows: Arc<Rows>,
        /// First row of `rows` in the run.
        start: u64,
        /// Number of rows in the run.
        len: u64,
    },
}

impl Piece {
    /// Number of visible rows this piece contributes.
    pub fn rows(&self) -> u64 {
        match self {
            Piece::StableRun { len, .. } | Piece::Insert { len, .. } => *len,
        }
    }

    /// The `len` rows of this piece from offset `off` on, as a piece of
    /// their own (`off + len` within [`Piece::rows`]).
    pub fn slice(&self, off: u64, len: u64) -> Piece {
        debug_assert!(len > 0 && off + len <= self.rows());
        match self {
            Piece::StableRun { sid, overlay, .. } => Piece::StableRun {
                sid: sid + off,
                len,
                overlay: overlay.as_ref().map(|(block, start)| (block.clone(), start + off)),
            },
            Piece::Insert { id, rows, start, .. } => {
                Piece::Insert { id: *id, rows: rows.clone(), start: start + off, len }
            }
        }
    }

    /// Grow this stable run by `next` when `next` continues it: the
    /// following sids, overlaid by the same block's following rows or both
    /// by none. Returns whether it did (the seam join of a cut run).
    pub fn absorb(&mut self, next: &Piece) -> bool {
        let Piece::StableRun { sid, len, overlay } = self else { return false };
        let continues = match (&*overlay, next) {
            (_, Piece::StableRun { sid: s, .. }) if *sid + *len != *s => false,
            (None, Piece::StableRun { overlay: None, .. }) => true,
            (Some((a, start)), Piece::StableRun { overlay: Some((b, next)), .. }) => {
                Arc::ptr_eq(a, b) && start + *len == *next
            }
            _ => false,
        };
        *len += if continues { next.rows() } else { 0 };
        continues
    }

    /// The first and last stable id the piece shows; none for inserted rows.
    fn sids(&self) -> Option<(u64, u64)> {
        match self {
            Piece::StableRun { sid, len, .. } => Some((*sid, sid + len - 1)),
            Piece::Insert { .. } => None,
        }
    }
}

/// One immutable treap node.
#[derive(Debug)]
pub struct Node {
    prio: u64,
    size: u64,
    max_sid: Option<u64>,
    min_sid: Option<u64>,
    piece: Piece,
    left: Link,
    right: Link,
}

/// Shared pointer to a node (None = empty tree).
pub type Link = Option<Arc<Node>>;

/// Total rows in a subtree.
pub fn size(t: &Link) -> u64 {
    t.as_ref().map_or(0, |n| n.size)
}

fn max_sid(t: &Link) -> Option<u64> {
    t.as_ref().and_then(|n| n.max_sid)
}

fn min_sid(t: &Link) -> Option<u64> {
    t.as_ref().and_then(|n| n.min_sid)
}

/// Deterministic node priority from a counter (no RNG dependency; the mix
/// gives heap-balanced shapes for sequential ids).
pub fn prio_for(counter: u64) -> u64 {
    vw_common::hash::hash_u64(counter)
}

fn mk(prio: u64, piece: Piece, left: Link, right: Link) -> Link {
    let size = size(&left) + piece.rows() + size(&right);
    // Stable sids ascend in traversal order, so the leftmost subtree that
    // has one holds the minimum and the rightmost the maximum.
    let own = piece.sids();
    let max_sid = max_sid(&right).or(own.map(|s| s.1)).or(max_sid(&left));
    let min_sid = min_sid(&left).or(own.map(|s| s.0)).or(min_sid(&right));
    Some(Arc::new(Node { prio, size, max_sid, min_sid, piece, left, right }))
}

fn clone_with(n: &Node, left: Link, right: Link) -> Link {
    mk(n.prio, n.piece.clone(), left, right)
}

/// Merge two treaps (all rows of `a` before all rows of `b`).
pub fn merge(a: Link, b: Link) -> Link {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some(x), Some(y)) => {
            if x.prio >= y.prio {
                let right = merge(x.right.clone(), Some(y));
                clone_with(&x, x.left.clone(), right)
            } else {
                let left = merge(Some(x), y.left.clone());
                clone_with(&y, left, y.right.clone())
            }
        }
    }
}

/// Split `t` into (first `k` rows, rest). A piece holding the cut is
/// sliced into two pieces sharing the original priority (heap order stays
/// valid: equal priorities are allowed).
pub fn split(t: Link, k: u64) -> (Link, Link) {
    let Some(n) = t else {
        return (None, None);
    };
    let lsize = size(&n.left);
    let own = n.piece.rows();
    if k <= lsize {
        let (a, b) = split(n.left.clone(), k);
        (a, clone_with(&n, b, n.right.clone()))
    } else if k >= lsize + own {
        let (a, b) = split(n.right.clone(), k - lsize - own);
        (clone_with(&n, n.left.clone(), a), b)
    } else {
        let off = k - lsize;
        let left = mk(n.prio, n.piece.slice(0, off), n.left.clone(), None);
        (left, mk(n.prio, n.piece.slice(off, own - off), None, n.right.clone()))
    }
}

/// Build a leaf.
pub fn leaf(prio: u64, piece: Piece) -> Link {
    mk(prio, piece, None, None)
}

/// `left ++ piece ++ right` with `piece` at priority `prio`: one node
/// when heap order allows it (always, unless a rewrite below just gave a
/// child a fresh priority above `prio`), the general merge otherwise.
fn join(prio: u64, piece: Piece, left: Link, right: Link) -> Link {
    let below = |t: &Link| t.as_ref().is_none_or(|n| n.prio <= prio);
    if below(&left) && below(&right) {
        mk(prio, piece, left, right)
    } else {
        merge(left, merge(leaf(prio, piece), right))
    }
}

/// Rewrite the rows at the strictly ascending positions `rids` (absolute
/// RIDs; `base` is the RID of `t`'s first row) in **one descent**.
///
/// `f(piece, off)` is called once per RID, in ascending order, with the
/// piece covering the row and the row's offset inside it; it returns the
/// single-row piece that replaces the row, or `None` to delete it. A
/// multi-row piece hit at interior offsets is cut into the surviving
/// slices around the rewritten rows ([`Piece::slice`]), and the fragments
/// that continue each other are joined ([`Piece::absorb`]): a run
/// rewritten row by row into one block's consecutive rows stays one run.
///
/// Every node on a path to a touched row is copied once and every
/// untouched subtree is shared with `t`, so `k` RIDs cost
/// O(k · log(n / k)) node copies — a batch shares the upper levels of the
/// tree that `k` separate root-to-leaf updates would each copy. A
/// single-row piece is replaced in place (same priority). The fragments
/// of a cut piece each draw an independent priority from `fresh_prio` —
/// priorities must not depend on a node's history, or an ascending
/// sequence of rewrites grows a spine — and merge into place; where one
/// lands above an ancestor, that ancestor merges too instead of being
/// copied (O(1) expected such ancestors per fragment, as in a treap
/// insert).
///
/// On `Err` from `f` nothing is returned and `t` is untouched (it is
/// persistent); the caller keeps its old root.
pub fn rewrite_rows<E>(
    t: &Link,
    base: u64,
    rids: &[u64],
    fresh_prio: &mut impl FnMut() -> u64,
    f: &mut impl FnMut(&Piece, u64) -> Result<Option<Piece>, E>,
) -> Result<Link, E> {
    let Some(n) = t else {
        debug_assert!(rids.is_empty(), "rid beyond the image");
        return Ok(None);
    };
    if rids.is_empty() {
        return Ok(t.clone());
    }
    let lo = base + size(&n.left);
    let hi = lo + n.piece.rows();
    let i = rids.partition_point(|&r| r < lo);
    let j = rids.partition_point(|&r| r < hi);
    // Left, own piece, right: `f` sees the rows in ascending order.
    let left = rewrite_rows(&n.left, base, &rids[..i], fresh_prio, f)?;
    let own = &rids[i..j];
    // `in_place`: the node keeps its priority under a new piece.
    // Otherwise `fragments` (possibly none: a deleted row) take its place.
    let (in_place, fragments) = match &n.piece {
        piece if own.is_empty() => (Some(piece.clone()), Vec::new()),
        one_row if one_row.rows() == 1 => (f(one_row, 0)?, Vec::new()),
        piece => {
            let mut fragments: Vec<Piece> = Vec::new();
            let mut push = |p: Piece| {
                if !fragments.last_mut().is_some_and(|last| last.absorb(&p)) {
                    fragments.push(p);
                }
            };
            let mut cursor = 0u64;
            for &rid in own {
                let off = rid - lo;
                if off > cursor {
                    push(piece.slice(cursor, off - cursor));
                }
                if let Some(p) = f(piece, off)? {
                    push(p);
                }
                cursor = off + 1;
            }
            if cursor < piece.rows() {
                push(piece.slice(cursor, piece.rows() - cursor));
            }
            (None, fragments)
        }
    };
    let right = rewrite_rows(&n.right, hi, &rids[j..], fresh_prio, f)?;
    Ok(match in_place {
        Some(piece) => join(n.prio, piece, left, right),
        None => {
            let mid = fragments
                .into_iter()
                .fold(None, |mid, piece| merge(mid, leaf(fresh_prio(), piece)));
            merge(left, merge(mid, right))
        }
    })
}

/// Position (RID) of the last visible stable row with `sid' <= sid`, plus
/// that `sid'`. Returns None if no such row is visible.
///
/// Stable sids ascend in traversal order, so the search descends a single
/// path guided by the subtree min/max sid aggregates: O(log n).
pub fn find_stable_at_or_before(t: &Link, sid: u64) -> Option<(u64, u64)> {
    let n = t.as_ref()?;
    // If the right subtree contains any stable sid <= target, the rightmost
    // qualifying row is there.
    if min_sid(&n.right).is_some_and(|m| m <= sid) {
        let (rid, s) = find_stable_at_or_before(&n.right, sid)?;
        return Some((size(&n.left) + n.piece.rows() + rid, s));
    }
    // Otherwise this node's own piece is the candidate...
    match &n.piece {
        Piece::StableRun { sid: s0, len, .. } if *s0 <= sid => {
            let off = (sid - s0).min(len - 1);
            return Some((size(&n.left) + off, s0 + off));
        }
        _ => {}
    }
    // ...else it is somewhere in the left subtree (or absent).
    find_stable_at_or_before(&n.left, sid)
}

/// In-order traversal of pieces.
pub fn for_each_piece(t: &Link, f: &mut impl FnMut(&Piece)) {
    if let Some(n) = t {
        for_each_piece(&n.left, f);
        f(&n.piece);
        for_each_piece(&n.right, f);
    }
}

/// In-order traversal of the pieces from row position `from` on (the
/// merge-scan driver): `f(rid, piece)` gets every piece whose rows end
/// after `from`, with the position of the piece's first row (which may
/// precede `from`), until it returns `false`. Reaching `from` descends
/// one path by subtree size, so a walk costs O(log n) plus the pieces it
/// visits.
pub fn walk_from(t: &Link, from: u64, f: &mut impl FnMut(u64, &Piece) -> bool) {
    walk(t, 0, from, f);
}

fn walk(t: &Link, base: u64, from: u64, f: &mut impl FnMut(u64, &Piece) -> bool) -> bool {
    let Some(n) = t else { return true };
    let lo = base + size(&n.left);
    let hi = lo + n.piece.rows();
    (from >= lo || walk(&n.left, base, from, f))
        && (from >= hi || f(lo, &n.piece))
        && walk(&n.right, hi, from, f)
}

/// The image of `n` untouched stable rows: one run (none when empty).
pub fn stable_image(n: u64) -> Link {
    (n > 0).then(|| leaf(prio_for(0), Piece::StableRun { sid: 0, len: n, overlay: None }))?
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::{ColData, Value};

    fn run(sid: u64, len: u64) -> Piece {
        Piece::StableRun { sid, len, overlay: None }
    }

    /// A block of one BIGINT column, `col`, holding `0..n`.
    fn block(col: usize, n: i64) -> Arc<Block> {
        let rows = Rows { cols: vec![ColData::I64((0..n).collect())], nulls: vec![None] };
        Arc::new(Block { cols: vec![col], rows })
    }

    /// `len` stable rows from `sid` on, overlaid by `block`'s rows from
    /// `start` on.
    fn over(sid: u64, len: u64, block: &Arc<Block>, start: u64) -> Piece {
        Piece::StableRun { sid, len, overlay: Some((block.clone(), start)) }
    }

    /// A run of `len` inserted rows holding `id`, `id + 1`, ….
    fn ins_run(id: u64, len: u64) -> Piece {
        let values = ColData::I64((id as i64..(id + len) as i64).collect());
        let rows = Rows { cols: vec![values], nulls: vec![None] };
        Piece::Insert { id, rows: Arc::new(rows), start: 0, len }
    }

    fn ins(id: u64) -> Piece {
        ins_run(id, 1)
    }

    fn build(pieces: Vec<Piece>) -> Link {
        let mut t = None;
        for (i, p) in pieces.into_iter().enumerate() {
            t = merge(t, leaf(prio_for(i as u64), p));
        }
        t
    }

    fn collect(t: &Link) -> Vec<Piece> {
        let mut out = Vec::new();
        for_each_piece(t, &mut |p| out.push(p.clone()));
        out
    }

    #[test]
    fn merge_preserves_order_and_size() {
        let t = build(vec![run(0, 10), ins(100), run(10, 5)]);
        assert_eq!(size(&t), 16);
        let pieces = collect(&t);
        assert_eq!(pieces.len(), 3);
        assert_eq!(pieces[0], run(0, 10));
        assert_eq!(pieces[2], run(10, 5));
    }

    #[test]
    fn split_at_piece_boundary() {
        let t = build(vec![run(0, 4), ins(1), run(4, 4)]);
        let (a, b) = split(t, 4);
        assert_eq!(size(&a), 4);
        assert_eq!(size(&b), 5);
        assert_eq!(collect(&a), vec![run(0, 4)]);
    }

    #[test]
    fn split_inside_run() {
        let t = build(vec![run(0, 100)]);
        let (a, b) = split(t, 37);
        assert_eq!(collect(&a), vec![run(0, 37)]);
        assert_eq!(collect(&b), vec![run(37, 63)]);
    }

    #[test]
    fn split_edges() {
        let t = build(vec![run(0, 10)]);
        let (a, b) = split(t.clone(), 0);
        assert!(a.is_none());
        assert_eq!(size(&b), 10);
        let (a, b) = split(t, 10);
        assert_eq!(size(&a), 10);
        assert!(b.is_none());
    }

    #[test]
    fn persistence_snapshots_unaffected() {
        let t1 = build(vec![run(0, 10)]);
        let (a, b) = split(t1.clone(), 5);
        let t2 = merge(a, merge(leaf(prio_for(99), ins(1)), b));
        assert_eq!(size(&t1), 10, "snapshot untouched");
        assert_eq!(size(&t2), 11);
        assert_eq!(collect(&t1), vec![run(0, 10)]);
    }

    #[test]
    fn walk_from_starts_at_the_piece_holding_the_position_and_stops_on_false() {
        let t = build(vec![run(0, 10), ins(1), run(10, 5), ins(2), run(20, 3)]);
        let walked = |from: u64, stop_after: usize| {
            let mut seen = Vec::new();
            walk_from(&t, from, &mut |rid, p| {
                seen.push((rid, p.clone()));
                seen.len() < stop_after
            });
            seen
        };
        let all =
            vec![(0, run(0, 10)), (10, ins(1)), (11, run(10, 5)), (16, ins(2)), (17, run(20, 3))];
        assert_eq!(walked(0, usize::MAX), all);
        assert_eq!(walked(9, usize::MAX), all, "a run holding `from` is visited whole");
        assert_eq!(walked(10, usize::MAX), all[1..]);
        assert_eq!(walked(12, 2), all[2..4]);
        assert_eq!(walked(19, usize::MAX), all[4..]);
        assert!(walked(20, usize::MAX).is_empty());
        assert_eq!(collect(&stable_image(7)), vec![run(0, 7)]);
        assert!(stable_image(0).is_none());
    }

    #[test]
    fn find_stable_lookup() {
        // Image: [0..5) ins [7..10)   (sids 5,6 deleted)
        let t = build(vec![run(0, 5), ins(1), run(7, 3)]);
        // sid 3 visible at rid 3.
        assert_eq!(find_stable_at_or_before(&t, 3), Some((3, 3)));
        // sid 6 deleted → nearest at-or-before is 4 at rid 4.
        assert_eq!(find_stable_at_or_before(&t, 6), Some((4, 4)));
        // sid 8 at rid 6+1 = rid 7? rows: 0,1,2,3,4, ins, 7,8,9 → sid8 rid=7.
        assert_eq!(find_stable_at_or_before(&t, 8), Some((7, 8)));
        // below everything → None only if no stable ≤ sid; sid 0 exists.
        assert_eq!(find_stable_at_or_before(&t, 0), Some((0, 0)));
    }

    #[test]
    fn find_stable_none_when_all_above() {
        let t = build(vec![ins(1), run(5, 2)]);
        assert_eq!(find_stable_at_or_before(&t, 3), None);
        assert_eq!(find_stable_at_or_before(&t, 5), Some((1, 5)));
    }

    #[test]
    fn deep_sequential_build_stays_logarithmic() {
        // 10k single-row pieces; recursion would overflow the stack if the
        // treap degenerated to a list.
        let mut t = None;
        for i in 0..10_000u64 {
            t = merge(t, leaf(prio_for(i), run(i, 1)));
        }
        assert_eq!(size(&t), 10_000);
        assert_eq!(find_stable_at_or_before(&t, 9_999), Some((9_999, 9_999)));
    }

    /// Heap order, subtree sizes and sid aggregates of every node.
    fn assert_valid(t: &Link) {
        let Some(n) = t else { return };
        for child in [&n.left, &n.right] {
            assert!(child.as_ref().is_none_or(|c| c.prio <= n.prio), "heap order");
            assert_valid(child);
        }
        let rebuilt = mk(n.prio, n.piece.clone(), n.left.clone(), n.right.clone()).unwrap();
        assert_eq!(
            (n.size, n.max_sid, n.min_sid),
            (rebuilt.size, rebuilt.max_sid, rebuilt.min_sid)
        );
    }

    /// One image row of the model below.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum R {
        /// A stable row, with the row of the test block overlaying it.
        Stable(u64, Option<u64>),
        /// Row `row` of the insert `id`.
        Ins(u64, u64),
    }

    fn model_rows(t: &Link, blk: &Arc<Block>) -> Vec<R> {
        let mut out = Vec::new();
        for_each_piece(t, &mut |p| match p {
            Piece::StableRun { sid, len, overlay } => out.extend((0..*len).map(|k| {
                R::Stable(
                    sid + k,
                    overlay.as_ref().map(|(b, start)| {
                        assert!(Arc::ptr_eq(b, blk));
                        start + k
                    }),
                )
            })),
            Piece::Insert { id, start, len, .. } => {
                out.extend((*start..start + len).map(|r| R::Ins(*id, r)))
            }
        });
        out
    }

    #[test]
    fn rewrite_rows_matches_a_row_vector_model() {
        let mut x = 7u64;
        let mut rnd = move |n: u64| {
            x = vw_common::hash::hash_u64(x);
            x % n
        };
        let blk = block(0, 1_000);
        for round in 0..90u64 {
            let mut pieces = Vec::new();
            let mut sid = 0;
            for i in 0..1 + rnd(12) {
                match rnd(4) {
                    // A run of inserted rows, possibly a slice of a longer one.
                    0 => {
                        let (id, len, skip) = (1000 + 100 * i, 1 + rnd(30), rnd(3));
                        pieces.push(ins_run(id, len + skip).slice(skip, len));
                    }
                    kind => {
                        let len = 1 + rnd(40);
                        sid += rnd(3); // gaps: deleted rows
                        pieces.push(match kind {
                            1 => over(sid, len, &blk, 500 + rnd(400)),
                            _ => run(sid, len),
                        });
                        sid += len;
                    }
                }
            }
            let t = build(pieces);
            let before = collect(&t);
            let model = model_rows(&t, &blk);
            // Every third row or so, ascending (or all of them): round 0
            // mod 3 deletes, 1 replaces the row by a marker insert, 2
            // overlays each stable row with the block's row k for its k-th
            // rid, so consecutive rows continue each other and join.
            let every = round % 5 == 4;
            let rids: Vec<u64> = (0..model.len() as u64).filter(|_| every || rnd(3) == 0).collect();
            let mut seen = Vec::new();
            let mut counter = 0u64;
            let out = rewrite_rows(
                &t,
                0,
                &rids,
                &mut || {
                    counter += 1;
                    prio_for(round * 1_000 + counter)
                },
                &mut |piece, off| {
                    let k = seen.len() as u64;
                    let stable = match piece {
                        Piece::StableRun { sid, .. } => Some(sid + off),
                        Piece::Insert { .. } => None,
                    };
                    seen.push(model_rows(&leaf(0, piece.slice(off, 1)), &blk)[0]);
                    Ok::<_, ()>(match (round % 3, stable) {
                        (0, _) => None,
                        (2, Some(sid)) => Some(over(sid, 1, &blk, k)),
                        _ => Some(ins(9_000 + k)),
                    })
                },
            )
            .unwrap();
            assert_valid(&out);
            assert_eq!(collect(&t), before, "the input tree is persistent");
            // `f` saw exactly the addressed rows, in order.
            let want_seen: Vec<R> = rids.iter().map(|&r| model[r as usize]).collect();
            assert_eq!(seen, want_seen);
            // The output, row by row.
            let mut want = model.clone();
            for (k, &r) in rids.iter().enumerate().rev() {
                match (round % 3, want[r as usize]) {
                    (0, _) => drop(want.remove(r as usize)),
                    (2, R::Stable(sid, _)) => want[r as usize] = R::Stable(sid, Some(k as u64)),
                    _ => want[r as usize] = R::Ins(9_000 + k as u64, 0),
                }
            }
            assert_eq!(model_rows(&out, &blk), want, "round {round}");
            assert_eq!(size(&out), want.len() as u64);
            if every && round % 3 == 2 {
                // Each stable piece, overlaid row by row, stays one piece.
                let stable = before.iter().filter(|p| matches!(p, Piece::StableRun { .. }));
                let inserted = model.iter().filter(|r| matches!(r, R::Ins(..)));
                assert_eq!(collect(&out).len(), stable.count() + inserted.count(), "{round}");
            }
        }
    }

    #[test]
    fn split_inside_an_insert_run_shares_its_rows() {
        let t = build(vec![run(0, 3), ins_run(50, 10), run(3, 2)]);
        let (a, b) = split(t, 7);
        assert_eq!(collect(&a), vec![run(0, 3), ins_run(50, 10).slice(0, 4)]);
        assert_eq!(collect(&b), vec![ins_run(50, 10).slice(4, 6), run(3, 2)]);
        let (Some(Piece::Insert { rows: left, .. }), Some(Piece::Insert { rows: right, .. })) =
            (collect(&a).pop(), collect(&b).first().cloned())
        else {
            panic!("both halves end and start with the run")
        };
        assert!(Arc::ptr_eq(&left, &right), "a cut copies no value");
        assert_eq!(left.cols[0].get_value(4), Value::I64(54));
    }

    #[test]
    fn split_inside_an_overlay_run_shares_its_block() {
        let blk = block(2, 40);
        let t = build(vec![run(0, 3), over(3, 10, &blk, 20), run(13, 2)]);
        let (a, b) = split(t, 7);
        assert_eq!(collect(&a), vec![run(0, 3), over(3, 4, &blk, 20)]);
        assert_eq!(collect(&b), vec![over(7, 6, &blk, 24), run(13, 2)]);
        let (Some(Piece::StableRun { overlay: Some((left, _)), .. }), Some(right)) =
            (collect(&a).pop(), collect(&b).first().cloned())
        else {
            panic!("the left half ends with the overlaid run")
        };
        assert!(Arc::ptr_eq(&left, &blk), "a cut copies no value");
        assert_eq!(find_stable_at_or_before(&b, 9), Some((2, 9)));
        // The halves continue each other: joined, they are the run again.
        let mut joined = collect(&a).pop().unwrap();
        assert!(joined.absorb(&right));
        assert_eq!(joined, over(3, 10, &blk, 20));
        assert!(!joined.absorb(&run(13, 2)), "an overlay does not absorb plain rows");
        assert!(!over(0, 2, &blk, 0).absorb(&over(2, 1, &blk, 3)), "rows must continue too");
    }

    #[test]
    fn ascending_single_row_rewrites_stay_balanced() {
        // One run cut at ascending positions, one row per call: fragment
        // priorities that depended on their parent's would grow a spine
        // as long as the sequence.
        fn depth(t: &Link) -> usize {
            t.as_ref().map_or(0, |n| 1 + depth(&n.left).max(depth(&n.right)))
        }
        let mut t = build(vec![run(0, 1_000_000)]);
        let mut counter = 0u64;
        for k in 0..2_000u64 {
            t = rewrite_rows(
                &t,
                0,
                &[k * 97],
                &mut || {
                    counter += 1;
                    prio_for(counter)
                },
                &mut |_, _| Ok::<_, ()>(Some(ins(k))),
            )
            .unwrap();
        }
        assert_valid(&t);
        assert_eq!(size(&t), 1_000_000);
        assert!(depth(&t) < 64, "4001 nodes at depth {}", depth(&t));
    }

    #[test]
    fn rewrite_rows_error_leaves_the_tree_alone() {
        let t = build(vec![run(0, 10), ins(1)]);
        let r = rewrite_rows(&t, 0, &[2, 10], &mut || 1, &mut |p, _| match p {
            Piece::Insert { .. } => Err("no"),
            _ => Ok(None),
        });
        assert_eq!(r.unwrap_err(), "no");
        assert_eq!(collect(&t), vec![run(0, 10), ins(1)]);
    }
}
