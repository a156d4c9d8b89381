//! Relational operators of the vectorized kernel.
//!
//! Operators follow the X100 iterator model: `next()` returns a [`Batch`]
//! of up to `vector_size` rows, or `None` at end of stream. All call
//! [`CancelToken::check`](crate::cancel::CancelToken::check) at vector
//! granularity.

pub mod hashagg;
pub mod hashjoin;
pub mod scan;
pub mod simple;
pub mod sort;
pub mod xchg;

pub use hashagg::{AggFunc, AggSpec, HashAggregate};
pub use hashjoin::{BuildSink, HashJoin, JoinFilter, JoinType, SharedBuild};
pub use scan::VectorScan;
pub use simple::{Limit, Project, Select, UnionAll, Values};
pub use sort::{Sort, SortKey, TopN};
pub use xchg::Xchg;

use crate::profile::OpProfile;
use crate::vector::Batch;
use vw_common::{Result, Schema};

/// A vectorized operator.
pub trait Operator: Send {
    /// Output schema.
    fn schema(&self) -> &Schema;
    /// Produce the next batch, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Batch>>;
    /// Operator display name.
    fn name(&self) -> &'static str;
    /// The counters only the operator can see, when it keeps any —
    /// `EXPLAIN ANALYZE`'s wrapper reads them when it drops (see
    /// [`crate::profile`]).
    fn profile(&self) -> Option<&OpProfile> {
        None
    }
}

/// Owned boxed operator.
pub type BoxedOp = Box<dyn Operator>;

/// Drain an operator into a single dense batch. Its callers are
/// [`Sort`]'s input, tests, and the benchmark's replay of a SELECT
/// (`benchmark/src/trace.rs`); a statement's result keeps the plan's
/// batches instead (`vw_core::QueryResult`).
pub fn drain(op: &mut dyn Operator) -> Result<Batch> {
    let mut acc: Option<Batch> = None;
    while let Some(b) = op.next()? {
        let b = b.compact();
        match &mut acc {
            None => acc = Some(b),
            Some(a) => {
                for (dst, src) in a.columns.iter_mut().zip(&b.columns) {
                    dst.extend_range(src, 0, src.len());
                }
            }
        }
    }
    Ok(acc.unwrap_or_else(|| Batch::empty(op.schema())))
}
