//! # vw-bench — workload generators and the experiment harness
//!
//! Deterministic TPC-H-like data (the paper's motivating workload shape)
//! plus one driver function per paper experiment (C1..C11). The
//! `repro` binary prints each experiment's paper-style table; the Criterion
//! benches wrap the same drivers for statistically robust timing.

pub mod experiments;
pub mod tpch;

pub use tpch::{gen_lineitem, Lineitem};
