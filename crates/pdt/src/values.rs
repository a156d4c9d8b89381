//! The PDT's value space: what its pieces hold besides positions.
//!
//! Inserted rows are typed columns ([`Rows`]): a batch of inserted rows
//! is one `Rows`, shared by `Arc` among every run cut from it, so cutting
//! a run copies no value. A modified stable row keeps its new values as
//! `(column, Value)` pairs ([`Mods`]).

use vw_common::{ColData, Result, TypeId, Value};

/// The new values of a modified stable row: `(column index, value)`
/// pairs, each column at most once.
pub type Mods = Vec<(usize, Value)>;

/// Inserted rows as typed columns in schema order, each with its NULL
/// mask — the `(&[ColData], &[Option<Vec<bool>>])` shape a bulk load
/// appends. NULL lanes hold the type's safe default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rows {
    /// One column per schema column, all of one length.
    pub cols: Vec<ColData>,
    /// Each column's NULL mask; `None`: no NULLs.
    pub nulls: Vec<Option<Vec<bool>>>,
}

impl Rows {
    /// Number of rows.
    pub fn n_rows(&self) -> u64 {
        self.cols.first().map_or(0, |c| c.len() as u64)
    }

    /// One row of `values`, column `c` of type `types[c]`, a NULL value
    /// as its type's safe default.
    pub fn from_row(values: &[Value], types: impl IntoIterator<Item = TypeId>) -> Result<Rows> {
        let column = |(v, ty)| {
            let mut col = ColData::new(ty);
            col.push_value(v).map(|_| col)
        };
        Ok(Rows {
            cols: values.iter().zip(types).map(column).collect::<Result<_>>()?,
            nulls: values.iter().map(|v| v.is_null().then(|| vec![true])).collect(),
        })
    }

    /// Row `i` as values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        let cell = |(c, m): (&ColData, &Option<Vec<bool>>)| match m {
            Some(m) if m[i] => Value::Null,
            _ => c.get_value(i),
        };
        self.cols.iter().zip(&self.nulls).map(cell).collect()
    }
}
