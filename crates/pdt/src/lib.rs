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
//! * runs of untouched stable rows (`[sid, sid+len)`),
//! * stable rows with modified columns,
//! * inserted rows (values held in the delta structure).
//!
//! Positional operations (insert/delete/modify at **RID** — the row id in
//! the *current* image) cost `O(log #deltas)`, and a sorted batch of `k`
//! modifies or deletes is one descent of `O(k · log(#deltas / k))`
//! ([`treap::rewrite_rows`]); a full scan-with-merge costs
//! the stable scan plus `O(#deltas)` — the same asymptotics as the paper's
//! three-layer PDT encoding. Snapshots are O(1) (persistent structure), which
//! provides the paper's layered read-/write-/trans-PDT semantics:
//!
//! * the shared committed image plays the role of the read-PDT + write-PDT,
//! * each [`Transaction`] works on a private snapshot (trans-PDT),
//! * commit replays the transaction's delta log onto the current master
//!   image by *stable position* (SID anchors), detecting write-write
//!   conflicts on overlapping SIDs — commit-time positional conflict
//!   detection, as in the paper (serializability on overlapping updates).
//!
//! A scan reads the image where it lies: it claims row positions from the
//! pinned root and walks the pieces they cover ([`treap::walk_from`]).
//!
//! The engine **checkpoints** on demand (the `CHECKPOINT` statement,
//! `vw-core`'s `dml::checkpoint`): it materializes the merged image into
//! fresh stable storage and resets the PDT.

pub mod store;
pub mod treap;

pub use store::{PdtStats, PdtStore, Transaction};
