//! # vw-volcano — the "conventional query engine" baseline
//!
//! Two roles, mirroring the two things Ingres is in Figure 1:
//!
//! 1. **Classic storage** — an NSM (row-slotted) heap store on the same
//!    simulated disk ([`store::RowStore`]), the `HEAP` table type of the
//!    integrated engine, favouring OLTP-style whole-row access;
//! 2. **Classic execution** — a tuple-at-a-time Volcano interpreter
//!    ([`exec`]): every operator's `next()` produces one row; expressions
//!    are closures called per tuple over boxed [`Value`]s, with all the
//!    per-tuple overhead (dynamic dispatch, branching, no cache locality)
//!    that the X100 papers measured conventional engines to waste >90% of
//!    their cycles on.
//!
//! Benchmark C1 runs identical queries through this engine and the
//! vectorized kernel; the paper's ">10 times faster" claim is reproduced as
//! the ratio of the two.
//!
//! [`Value`]: vw_common::Value

pub mod exec;
pub mod store;

pub use exec::{
    collect_rows, BoxedIter, Row, TupleAgg, TupleAggregate, TupleExpr, TupleFilter, TupleHashJoin,
    TupleIterator, TupleJoinKind, TupleLimit, TupleProject, TupleScan, TupleSort, TupleValues,
};
pub use store::RowStore;
