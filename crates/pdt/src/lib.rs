//! # vw-pdt — Positional Delta Trees: differential updates for column stores
//!
//! Reproduction of *Positional update handling in column stores* (Héman,
//! Zukowski, Nes, Sidirourgos, Boncz, SIGMOD 2010) — reference \[2\] of the
//! Vectorwise paper, and the basis of its transaction machinery.
//!
//! ## The problem
//!
//! Compressed, sorted, replicated column storage makes in-place updates
//! ruinously expensive. PDTs keep updates *out* of the stable storage in a
//! memory-resident, **positionally organized** differential structure that
//! scans merge with the stable table image on the fly. Updates are organized
//! by *position*, not by key, which is what makes merging essentially free:
//! the scan knows its current row position anyway.
//!
//! ## This implementation
//!
//! The stable table provides rows addressed by **SID** (stable id,
//! 0..n_stable). The current visible image is described by a persistent
//! counted rope ([`treap`]) whose in-order traversal yields:
//!
//! * runs of stable rows (`[sid, sid+len)`), each optionally overlaid by
//!   a range of modified values ([`values::Block`]: the SET columns of
//!   one UPDATE, typed, one row per modified row), which replace the
//!   stable values of the columns the block holds,
//! * runs of inserted rows: ranges of typed columns ([`values::Rows`]),
//!   one per inserted batch.
//!
//! Every value lives in typed columns — the paper's columnar value
//! tables — and a scan copies them by range as it does stable rows.
//!
//! Positional operations (insert/delete/modify at **RID** — the row id in
//! the *current* image) cost `O(log #deltas)`, and a sorted batch of `k`
//! modifies or deletes is one descent of `O(k · log(#deltas / k))`
//! ([`treap::rewrite_rows`]) that leaves the rows of a run modified
//! together one overlaid run; a full scan-with-merge costs
//! the stable scan plus `O(#deltas)` — the same asymptotics as the paper's
//! three-layer PDT encoding. Snapshots are O(1) (persistent structure), which
//! provides the paper's layered read-/write-/trans-PDT semantics:
//!
//! * the shared committed image plays the role of the read-PDT + write-PDT,
//! * each [`Transaction`] works on a private snapshot (trans-PDT): the
//!   root it began on plus its own writes. [`PdtStore::begin_at`] begins
//!   one on a root taken earlier, so the engine can begin every table a
//!   transaction writes at the one instant the transaction reads (`vw-core`
//!   publishes each commit's roots of all tables as one catalog image),
//! * commit replays the transaction's delta log onto the current master
//!   image by *stable position* (SID anchors), detecting write-write
//!   conflicts on overlapping SIDs — commit-time positional conflict
//!   detection, as in the paper. The first committer wins; with reads at
//!   one instant this is snapshot isolation, write skew allowed.
//!
//! A scan reads the image where it lies: it claims row positions from the
//! pinned root and walks the pieces they cover ([`treap::walk_from`]).
//!
//! The engine **checkpoints** on demand (the `CHECKPOINT` statement,
//! `vw-core`'s `dml::checkpoint`): it materializes the merged image into
//! fresh stable storage and resets the PDT.

pub mod store;
pub mod treap;
pub mod values;

pub use store::{PdtStats, PdtStore, Transaction};
pub use values::{Block, Rows};
