//! Cooperative query cancellation and statement deadlines.
//!
//! The token itself lives in [`vw_common::cancel`] (re-exported here as
//! [`CancelToken`]) so the query-service scheduling layer can share it
//! without depending on this crate; see that module for the cooperative
//! check contract (every operator checks at least once per vector).
//!
//! # Statement timeouts
//!
//! A token built with [`CancelToken::with_deadline`] carries a wall-clock
//! deadline. Cooperative checks do *not* read the clock (that would put a
//! syscall on the hot path); the engine's one
//! `vw_service::timer::DeadlineQueue` thread marks the token timed-out and
//! cancels it at the deadline, so the monitor can tell `TimedOut` from a
//! user `KILL`. This crate spawns no thread of its own: everything it
//! runs concurrently is a task on the `vw-service` worker pool
//! (`tests/architecture.rs` holds that at source level). A query without
//! a timeout constructs no deadline state at all.

pub use vw_common::cancel::CancelToken;
