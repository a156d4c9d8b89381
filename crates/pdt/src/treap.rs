//! A persistent (path-copying) counted treap over the visible table image.
//!
//! Leaves-as-nodes: every node carries a payload describing either a run of
//! stable rows, a modified stable row, or an inserted row. Subtree sizes
//! enable O(log n) positional access; subtree max-SID enables O(log n)
//! SID → position lookup (needed for commit-time replay of delta logs).
//!
//! Persistence (Arc-shared immutable nodes) is what makes snapshot isolation
//! cheap: a transaction's snapshot is a root pointer clone.

use std::sync::Arc;
use vw_common::Value;

/// Payload of one treap node.
#[derive(Debug, Clone, PartialEq)]
pub enum Piece {
    /// `len` untouched stable rows starting at `sid`.
    StableRun {
        /// First stable id of the run.
        sid: u64,
        /// Number of rows in the run.
        len: u64,
    },
    /// One stable row with modified column values.
    StableMod {
        /// Stable id of the row.
        sid: u64,
        /// `(column index, new value)` pairs, each column at most once.
        mods: Arc<Vec<(usize, Value)>>,
    },
    /// One inserted row (not present in stable storage).
    Insert {
        /// Transaction-unique id used to find/cancel the insert in delta logs.
        id: u64,
        /// Full row values in schema order.
        row: Arc<Vec<Value>>,
    },
}

impl Piece {
    /// Number of visible rows this piece contributes.
    pub fn rows(&self) -> u64 {
        match self {
            Piece::StableRun { len, .. } => *len,
            _ => 1,
        }
    }

    fn max_sid(&self) -> Option<u64> {
        match self {
            Piece::StableRun { sid, len } => Some(sid + len - 1),
            Piece::StableMod { sid, .. } => Some(*sid),
            Piece::Insert { .. } => None,
        }
    }

    fn min_sid(&self) -> Option<u64> {
        match self {
            Piece::StableRun { sid, .. } => Some(*sid),
            Piece::StableMod { sid, .. } => Some(*sid),
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
    let max_sid = max_sid(&right).or(piece.max_sid()).or(max_sid(&left));
    let min_sid = min_sid(&left).or(piece.min_sid()).or(min_sid(&right));
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

/// Split `t` into (first `k` rows, rest). Splits stable runs at interior
/// offsets by synthesizing two run pieces sharing the original priority
/// (heap order stays valid: equal priorities are allowed).
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
        // Split inside this node's piece — only possible for StableRun.
        let off = k - lsize;
        match &n.piece {
            Piece::StableRun { sid, len } => {
                debug_assert!(off > 0 && off < *len);
                let left_run =
                    mk(n.prio, Piece::StableRun { sid: *sid, len: off }, n.left.clone(), None);
                let right_run = mk(
                    n.prio,
                    Piece::StableRun { sid: sid + off, len: len - off },
                    None,
                    n.right.clone(),
                );
                (left_run, right_run)
            }
            _ => unreachable!("interior split of a single-row piece"),
        }
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
/// stable run hit at interior offsets is cut into the surviving run
/// fragments around the rewritten rows.
///
/// Every node on a path to a touched row is copied once and every
/// untouched subtree is shared with `t`, so `k` RIDs cost
/// O(k · log(n / k)) node copies — a batch shares the upper levels of the
/// tree that `k` separate root-to-leaf updates would each copy. A
/// single-row piece is replaced in place (same priority). The fragments
/// of a cut run each draw an independent priority from `fresh_prio` —
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
        run @ Piece::StableRun { sid, len } => {
            let mut fragments = Vec::with_capacity(2 * own.len() + 1);
            let mut cursor = 0u64;
            for &rid in own {
                let off = rid - lo;
                if off > cursor {
                    fragments.push(Piece::StableRun { sid: sid + cursor, len: off - cursor });
                }
                fragments.extend(f(run, off)?);
                cursor = off + 1;
            }
            if cursor < *len {
                fragments.push(Piece::StableRun { sid: sid + cursor, len: len - cursor });
            }
            (None, fragments)
        }
        single_row => (f(single_row, 0)?, Vec::new()),
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
        Piece::StableRun { sid: s0, len } if *s0 <= sid => {
            let off = (sid - s0).min(len - 1);
            return Some((size(&n.left) + off, s0 + off));
        }
        Piece::StableMod { sid: s0, .. } if *s0 <= sid => {
            return Some((size(&n.left), *s0));
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

/// The image of `n_rows` untouched stable rows: one run (none when empty).
pub fn stable_image(n_rows: u64) -> Link {
    (n_rows > 0).then(|| leaf(prio_for(0), Piece::StableRun { sid: 0, len: n_rows }))?
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sid: u64, len: u64) -> Piece {
        Piece::StableRun { sid, len }
    }

    fn ins(id: u64) -> Piece {
        Piece::Insert { id, row: Arc::new(vec![Value::I64(id as i64)]) }
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

    #[test]
    fn rewrite_rows_matches_a_row_vector_model() {
        // The image as one entry per row: Ok(sid) stable, Err(id) insert.
        let mut x = 7u64;
        let mut rnd = move |n: u64| {
            x = vw_common::hash::hash_u64(x);
            x % n
        };
        for round in 0..60u64 {
            let mut pieces = Vec::new();
            let mut model: Vec<std::result::Result<u64, u64>> = Vec::new();
            let mut sid = 0;
            for i in 0..1 + rnd(12) {
                if rnd(3) == 0 {
                    pieces.push(ins(1000 + i));
                    model.push(Err(1000 + i));
                } else {
                    let len = 1 + rnd(40);
                    sid += rnd(3); // gaps: deleted rows
                    pieces.push(run(sid, len));
                    model.extend((sid..sid + len).map(Ok));
                    sid += len;
                }
            }
            let t = build(pieces);
            let before = collect(&t);
            // Every third row or so, ascending; odd rounds delete, even
            // rounds replace the row by a marker insert.
            let rids: Vec<u64> = (0..model.len() as u64).filter(|_| rnd(3) == 0).collect();
            let delete = round % 2 == 1;
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
                    seen.push(match piece {
                        Piece::StableRun { sid, .. } => Ok(sid + off),
                        Piece::Insert { id, .. } => Err(*id),
                        Piece::StableMod { .. } => unreachable!(),
                    });
                    Ok::<_, ()>((!delete).then(|| ins(9_000 + seen.len() as u64)))
                },
            )
            .unwrap();
            assert_valid(&out);
            assert_eq!(collect(&t), before, "the input tree is persistent");
            // `f` saw exactly the addressed rows, in order.
            let want_seen: Vec<_> = rids.iter().map(|&r| model[r as usize]).collect();
            assert_eq!(seen, want_seen);
            // The output, row by row.
            let mut want = model.clone();
            for (k, &r) in rids.iter().enumerate().rev() {
                if delete {
                    let _ = want.remove(r as usize);
                } else {
                    want[r as usize] = Err(9_001 + k as u64);
                }
            }
            let mut got = Vec::new();
            for_each_piece(&out, &mut |p| match p {
                Piece::StableRun { sid, len } => got.extend((*sid..sid + len).map(Ok)),
                Piece::Insert { id, .. } => got.push(Err(*id)),
                Piece::StableMod { .. } => unreachable!(),
            });
            assert_eq!(got, want, "round {round}");
            assert_eq!(size(&out), want.len() as u64);
        }
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
