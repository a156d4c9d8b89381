//! The PDT's value space: what its pieces hold besides positions.
//!
//! Every value the PDT keeps is in typed columns ([`Rows`]), shared by
//! `Arc` among every piece cut from them, so cutting a piece copies no
//! value. A batch of inserted rows is one `Rows` in schema order. The new
//! values one UPDATE writes are one [`Block`] — its SET columns and a
//! `Rows` over them, row `i` for its `i`-th victim — which the modified
//! stable runs overlay.

use vw_common::ColData;

/// Typed rows: columns each with its NULL mask — the
/// `(&[ColData], &[Option<Vec<bool>>])` shape a bulk load appends. NULL
/// lanes hold the type's safe default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rows {
    /// The columns, all of one length.
    pub cols: Vec<ColData>,
    /// Each column's NULL mask; `None`: no NULLs.
    pub nulls: Vec<Option<Vec<bool>>>,
}

impl Rows {
    /// Number of rows.
    pub fn n_rows(&self) -> u64 {
        self.cols.first().map_or(0, |c| c.len() as u64)
    }

    /// One row whose `k`-th column is lane `i` of column `c` of `rows`,
    /// for the `k`-th `(rows, c, i)` of `lanes`: typed single-lane copies.
    pub fn gather<'a>(lanes: impl IntoIterator<Item = (&'a Rows, usize, u64)>) -> Rows {
        let mut out = Rows::default();
        for (rows, c, i) in lanes {
            let i = i as usize;
            let mut col = ColData::with_capacity(rows.cols[c].type_id(), 1);
            col.extend_from_range(&rows.cols[c], i, i + 1);
            out.cols.push(col);
            out.nulls.push(rows.nulls[c].as_ref().filter(|m| m[i]).map(|_| vec![true]));
        }
        out
    }

    /// Append `more` below these rows: the same column types, or these
    /// rows have no columns yet.
    pub fn append(&mut self, more: Rows) {
        if self.cols.is_empty() {
            *self = more;
            return;
        }
        let n = self.n_rows() as usize;
        for (k, (col, mask)) in more.cols.into_iter().zip(more.nulls).enumerate() {
            let added = col.len();
            self.cols[k].extend_from_range(&col, 0, added);
            match (&mut self.nulls[k], mask) {
                (Some(a), Some(b)) => a.extend(b),
                (Some(a), None) => a.resize(a.len() + added, false),
                (a @ None, Some(b)) => *a = Some([vec![false; n], b].concat()),
                (None, None) => {}
            }
        }
    }
}

/// The new values of modified stable rows: typed rows over the schema
/// columns `cols` (each at most once; `rows.cols[j]` is column `cols[j]`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// The schema columns the block writes.
    pub cols: Vec<usize>,
    /// Their values, one row per modified row.
    pub rows: Rows,
}

impl Block {
    /// Where in `rows` schema column `col` is, if the block writes it.
    pub fn find(&self, col: usize) -> Option<usize> {
        self.cols.iter().position(|&c| c == col)
    }
}
