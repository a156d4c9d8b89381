//! # vw-bench — workload generators and the experiment harness
//!
//! Deterministic TPC-H-like data (the paper's motivating workload shape)
//! plus the few experiment pieces more than one target shares
//! ([`experiments`]). Each paper claim C1..C15 is measured by the criterion
//! bench of that name under `benches/`; end-to-end performance by the
//! top-level `benchmark/` package.

pub mod experiments;
pub mod tpch;

pub use tpch::{gen_lineitem, Lineitem};
