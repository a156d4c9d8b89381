//! # vw-exec — the X100 vectorized execution kernel
//!
//! (Repo-wide orientation — the crate map and the life of a query — is
//! in the root `ARCHITECTURE.md`; this header maps only this crate.)
//!
//! The "Vectorized Execution" box of Figure 1 and the performance heart of
//! the system: operators exchange **vectors** (~1000 values, configurable)
//! instead of single tuples, so interpretation overhead is paid once per
//! vector while the data stays resident in the CPU cache.
//!
//! Layout of the crate:
//!
//! * [`vector`] — [`Vector`] (typed values + optional NULL indicator) and
//!   [`Batch`] (a set of equally-long vectors plus an optional selection
//!   vector);
//! * [`primitives`] — the branch-light per-type kernels (map, compare/select,
//!   hash, gather) in *full* and *selective* variants; the arithmetic
//!   kernels take the overflow-checking strategy as a parameter (the
//!   engine passes the lazy one, benchmark C7 all three);
//! * [`expr`] — the physical expression tree ([`expr::PhysExpr`]:
//!   arithmetic, comparisons, CASE, casts, the SQL function library —
//!   "many functions", §1) plus its per-tuple reference interpreter,
//!   which no operator calls: tests check the programs against it and
//!   the tuple-at-a-time engine evaluates through it;
//! * [`program`] — the **compiled** expression path every operator uses:
//!   [`program::ExprProgram`] flattens a `PhysExpr` once per query into
//!   primitive invocations over a register file leased from a reusable
//!   [`program::VectorPool`], so the per-batch loop neither re-walks the
//!   tree nor allocates; [`program::SelectProgram`] is the fused predicate
//!   variant chaining selective kernels through a `SelVec`;
//! * [`hashtable`] — the two flat vectorized hash tables over contiguous
//!   build rows: [`hashtable::GroupTable`] (directory + chain array, grows
//!   while probed) under hash aggregation, [`hashtable::JoinTable`]
//!   (bulk-built, immutable, bucket-grouped) under hash join, and the
//!   vectorized key hashing and comparison both probe with;
//! * [`partition`] — the memory governor under join and aggregation and
//!   the radix routing of its spills: a build under a
//!   [`partition::SpillConfig`] charges the
//!   [`partition::MemBudget`] one [`partition::Charge`] — its resident
//!   bytes — and overflows to disk as a whole once the query is over
//!   budget; it starts no task — the only tasks of this crate are the
//!   fragments and build sinks of [`op::Xchg`];
//! * [`spill`] — the disk half of grace spilling: vectors ⇄ compressed
//!   spill chunks on a temp [`vw_storage::SpillFile`], the
//!   [`spill::RoutedSpill`] every spilled row goes through, and
//!   [`spill::SpillScan`], the operator that replays a spilled partition;
//! * [`op`] — the relational operators: scan (with PDT merge), select,
//!   project, hash join (inner/left/semi/anti/**NULL-aware anti**), hash
//!   aggregation, sort, top-n, limit, union, and the Volcano-style **Xchg**
//!   exchange operators that the rewriter uses for multi-core parallelism;
//! * [`cancel`] — cooperative query cancellation (checked once per vector);
//! * [`profile`] — `EXPLAIN ANALYZE`'s execution side: the one timing
//!   wrapper ([`profile::Profiled`]) and the per-plan-node slot it reports
//!   into, plus the few counters only an operator can see.

pub mod cancel;
pub mod expr;
pub mod hashtable;
pub mod morsel;
pub mod op;
pub mod partition;
pub mod primitives;
pub mod profile;
pub mod program;
pub mod spill;
pub mod vector;

pub use cancel::CancelToken;
pub use expr::PhysExpr;
pub use morsel::{BatchPool, MorselSource};
pub use op::Operator;
pub use partition::MemBudget;
pub use program::{ExprProgram, SelectProgram, VecRef, VectorPool};
pub use vector::{Batch, StrArena, Vector};
