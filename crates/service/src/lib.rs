//! # vw-service — the query-service scheduling layer
//!
//! The paper's Vectorwise chapter is about what it takes to turn an
//! X100-style kernel into a *product that serves many concurrent users*.
//! This crate hosts the pieces of that story that sit between the SQL
//! facade (`vw-core`) and the execution kernel (`vw-exec`):
//!
//! * [`pool::WorkerPool`] — one fixed gang of worker threads per engine,
//!   so N concurrent queries cost O(workers) threads, not
//!   O(queries × DOP).
//! * [`task::TaskHandle`] — the one cooperative-task primitive everything
//!   on that pool is written against (`Xchg` fragments, join build
//!   sinks): the client supplies a `step`, the primitive owns parking
//!   and waking — by the owner, or through a [`task::Waker`] by the task
//!   whose result it waits for — the quantum yield, panic and cancel
//!   routing, the helping wait and reclaim-on-drop.
//! * [`admission::AdmissionController`] — partitions the engine's global
//!   memory limit across admitted queries; overflow waits in a bounded
//!   FIFO queue or is rejected with the typed `E_ADMISSION` error.
//!   `KILL` and statement timeouts dequeue waiting queries promptly.
//! * [`timer::DeadlineQueue`] — one shared timer thread enforcing every
//!   in-flight statement deadline.
//!
//! Everything here speaks [`vw_common::cancel::CancelToken`] and nothing
//! here knows about SQL, plans, or operators — the dependency points
//! strictly downward (`vw-core` → `vw-exec` → `vw-service` → `vw-common`).
//! The session/admission life cycle (queued → admitted → running →
//! done/killed/timed-out) is documented in ARCHITECTURE.md ("Life of a
//! query").

pub mod admission;
pub mod pool;
pub mod task;
pub mod timer;

pub use admission::{AdmissionController, AdmissionGrant};
pub use pool::WorkerPool;
pub use task::{CoopTask, Step, TaskHandle, Waker};
pub use timer::{DeadlineQueue, TimerGuard};
