//! # vw-bench — workload generators and the experiment harness
//!
//! Deterministic TPC-H-like data (the paper's motivating workload shape)
//! plus the few experiment pieces more than one target shares
//! ([`experiments`]), and the Cooperative Scans experiment ([`coopscan`]:
//! the paper's reference \[7\], measured by `c3_coopscan` and shown by the
//! `cooperative_io` example — not a part of the engine). Each paper claim
//! C1..C15 is measured by the criterion bench of that name under
//! `benches/`; end-to-end performance by the top-level `benchmark/`
//! package.

pub mod coopscan;
pub mod experiments;
pub mod tpch;

pub use tpch::{gen_lineitem, Lineitem};
