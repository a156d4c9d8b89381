//! Selection vectors — X100's mechanism for representing filtered data.
//!
//! A `Select` operator does not copy the surviving values into a fresh,
//! dense vector. It produces a *selection vector*: a sorted list of positions
//! into the (untouched) data vectors. Every primitive comes in a pair of
//! variants — `*_full` operating on positions `0..n`, and `*_sel` operating
//! only on the listed positions. Bench `c13_exprprog` (`dense_vs_selective`)
//! times the two variants of one kernel against each other across
//! selectivities.

/// A sorted list of selected positions within a vector of length `<= capacity`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelVec {
    positions: Vec<u32>,
}

impl SelVec {
    /// An empty selection.
    pub fn new() -> SelVec {
        SelVec { positions: Vec::new() }
    }

    /// An empty selection with room for `cap` positions.
    pub fn with_capacity(cap: usize) -> SelVec {
        SelVec { positions: Vec::with_capacity(cap) }
    }

    /// The identity selection `0..n` (used mostly by tests; the execution
    /// layer prefers `None` over an identity SelVec to avoid indirection).
    pub fn identity(n: usize) -> SelVec {
        SelVec { positions: (0..n as u32).collect() }
    }

    /// Build from raw positions. Debug-asserts they are strictly increasing,
    /// which every selection-producing primitive guarantees.
    pub fn from_positions(positions: Vec<u32>) -> SelVec {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]), "selection must be sorted");
        SelVec { positions }
    }

    /// Number of selected positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Is nothing selected?
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The selected positions as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.positions
    }

    /// Clear, retaining the allocation (primitives reuse one SelVec per
    /// pipeline to keep the hot path allocation-free).
    pub fn clear(&mut self) {
        self.positions.clear();
    }

    /// Replace the contents with `positions` without reallocating when
    /// capacity suffices. Debug-asserts sortedness like
    /// [`SelVec::from_positions`]; the hash-table probe loop uses this to
    /// ping-pong lane sets between scratch buffers allocation-free.
    pub fn clear_and_extend_from_slice(&mut self, positions: &[u32]) {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]), "selection must be sorted");
        self.positions.clear();
        self.positions.extend_from_slice(positions);
    }

    /// Replace the contents with the identity selection `0..n`, retaining
    /// the allocation (batch-local live sets when `Batch::sel` is `None`).
    pub fn fill_identity(&mut self, n: usize) {
        self.positions.clear();
        self.positions.extend(0..n as u32);
    }

    /// Replace the contents with the `candidates` (ascending positions)
    /// that satisfy `keep` — the one selection loop under every
    /// select/retain primitive. Branch-free: the buffer is pre-sized to
    /// the candidate count, every candidate is stored at the write cursor
    /// and the cursor advances by the predicate's outcome
    /// (`out[j] = p; j += keep(p) as usize`), so a 50 %-selective predicate
    /// costs what a 0 % or 100 % one does — no mispredictions, no
    /// capacity test per survivor. Nothing is written past the candidate
    /// count; the tail beyond the survivors is truncated away.
    #[inline]
    pub fn fill_filtered(
        &mut self,
        candidates: impl ExactSizeIterator<Item = u32>,
        mut keep: impl FnMut(usize) -> bool,
    ) {
        self.positions.clear();
        self.positions.resize(candidates.len(), 0);
        let mut j = 0;
        for p in candidates {
            // In bounds: `j` counts survivors among the candidates seen so
            // far, this one excluded.
            self.positions[j] = p;
            j += keep(p as usize) as usize;
        }
        self.positions.truncate(j);
        debug_assert!(self.positions.windows(2).all(|w| w[0] < w[1]), "selection must be sorted");
    }

    /// Copy the positions satisfying `keep` into `out` (cleared first).
    /// Preserves sortedness by construction; this is the narrowing step of
    /// vectorized probe loops — each re-probe round retains only the lanes
    /// that still have a candidate chain entry.
    #[inline]
    pub fn retain_from(&self, keep: impl FnMut(usize) -> bool, out: &mut SelVec) {
        out.fill_filtered(self.positions.iter().copied(), keep);
    }

    /// Append a position; caller maintains sortedness.
    #[inline]
    pub fn push(&mut self, pos: u32) {
        debug_assert!(self.positions.last().is_none_or(|&p| p < pos));
        self.positions.push(pos);
    }

    /// Iterate positions as `usize`.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.positions.iter().map(|&p| p as usize)
    }

    /// Intersect with another selection (both sorted) into `out`.
    /// Used when conjunctive predicates are evaluated branch-by-branch.
    pub fn intersect_into(&self, other: &SelVec, out: &mut SelVec) {
        out.clear();
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.positions, &other.positions);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.positions.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// The complement selection with respect to `0..n`, into `out`.
    /// Used by disjunction handling and NULL-aware anti join.
    pub fn complement_into(&self, n: usize, out: &mut SelVec) {
        out.clear();
        let mut next = 0u32;
        for &p in &self.positions {
            for q in next..p {
                out.positions.push(q);
            }
            next = p + 1;
        }
        for q in next..n as u32 {
            out.positions.push(q);
        }
    }
}

impl FromIterator<u32> for SelVec {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        SelVec::from_positions(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_covers_all() {
        let s = SelVec::identity(4);
        assert_eq!(s.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn intersect_sorted() {
        let a = SelVec::from_positions(vec![0, 2, 4, 6, 8]);
        let b = SelVec::from_positions(vec![1, 2, 3, 4, 9]);
        let mut out = SelVec::new();
        a.intersect_into(&b, &mut out);
        assert_eq!(out.as_slice(), &[2, 4]);
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = SelVec::from_positions(vec![0, 2]);
        let b = SelVec::from_positions(vec![1, 3]);
        let mut out = SelVec::new();
        a.intersect_into(&b, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn complement_of_edges() {
        let s = SelVec::from_positions(vec![0, 3]);
        let mut out = SelVec::new();
        s.complement_into(4, &mut out);
        assert_eq!(out.as_slice(), &[1, 2]);

        let empty = SelVec::new();
        empty.complement_into(3, &mut out);
        assert_eq!(out.as_slice(), &[0, 1, 2]);

        let full = SelVec::identity(3);
        full.complement_into(3, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut s = SelVec::with_capacity(128);
        for i in 0..100 {
            s.push(i);
        }
        let cap_before = s.positions.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.positions.capacity(), cap_before);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn unsorted_push_debug_panics() {
        let mut s = SelVec::new();
        s.push(5);
        s.push(3);
    }

    #[test]
    fn retain_from_narrows_and_stays_sorted() {
        let s = SelVec::from_positions(vec![1, 4, 5, 8, 9]);
        let mut out = SelVec::new();
        s.retain_from(|p| p % 2 == 0, &mut out);
        assert_eq!(out.as_slice(), &[4, 8]);
        assert!(out.as_slice().windows(2).all(|w| w[0] < w[1]));
        // Retaining nothing leaves an empty (still valid) selection.
        s.retain_from(|_| false, &mut out);
        assert!(out.is_empty());
        // Retaining everything is the identity on the input.
        s.retain_from(|_| true, &mut out);
        assert_eq!(out.as_slice(), s.as_slice());
    }

    #[test]
    fn clear_and_extend_from_slice_reuses_allocation() {
        let mut s = SelVec::with_capacity(64);
        s.clear_and_extend_from_slice(&[0, 3, 7]);
        assert_eq!(s.as_slice(), &[0, 3, 7]);
        let cap = s.positions.capacity();
        s.clear_and_extend_from_slice(&[2, 5]);
        assert_eq!(s.as_slice(), &[2, 5]);
        assert_eq!(s.positions.capacity(), cap, "no reallocation");
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn clear_and_extend_unsorted_debug_panics() {
        let mut s = SelVec::new();
        s.clear_and_extend_from_slice(&[5, 3]);
    }

    #[test]
    fn fill_identity_resets_contents() {
        let mut s = SelVec::from_positions(vec![9, 12]);
        s.fill_identity(3);
        assert_eq!(s.as_slice(), &[0, 1, 2]);
        s.fill_identity(0);
        assert!(s.is_empty());
    }
}
