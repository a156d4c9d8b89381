//! Cooperative query cancellation tokens.
//!
//! The paper calls this "one of more unexpected feature requests": killing a
//! research prototype was `Ctrl-C`; killing one query of a production
//! server must not take the process down, must interrupt long loops
//! promptly, and must unwind cleanly through parallel operators and
//! asynchronous I/O.
//!
//! The kernel's answer is *cooperative checks at vector granularity*: every
//! operator calls [`CancelToken::check`] at least once per vector it
//! produces, so cancellation latency is bounded by the cost of processing
//! one vector per pipeline stage. The token is shared across all tasks of a
//! parallel (Xchg) plan, and — since the query service landed — across the
//! admission queue and worker pool too: a token is cancellable while its
//! query is still *queued*, which is how `KILL` dequeues a waiting query.
//!
//! The token lives in `vw-common` so that the scheduling layer
//! (`vw-service`: worker pool, admission controller, deadline timer) can
//! speak cancellation without depending on the execution crate. Deadline
//! *enforcement* (the machinery that actually fires at the deadline) lives
//! upstack, in one place: `vw_service::timer::DeadlineQueue`, the engine's
//! single timer thread.

use crate::error::{Result, VwError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shared cancellation flag (plus optional deadline) for one query
/// execution.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Set (only ever by deadline machinery, via [`CancelToken::
    /// mark_timed_out`]) when the cancellation was a deadline firing rather
    /// than an explicit `KILL`.
    timed_out: Arc<AtomicBool>,
    /// The statement deadline, if one was configured. Immutable after
    /// construction; the cooperative check never reads it.
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A fresh token that should be cancelled at `deadline` — register it
    /// with the service `DeadlineQueue` to actually enforce it.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken { deadline: Some(deadline), ..CancelToken::default() }
    }

    /// Request cancellation (user `kill`, session close, timeout).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// The statement deadline this token carries, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True when the cancellation was fired by a statement timeout (as
    /// opposed to an explicit `KILL` or session teardown).
    pub fn timed_out(&self) -> bool {
        self.timed_out.load(Ordering::Acquire)
    }

    /// Record that the *upcoming* [`CancelToken::cancel`] is a deadline
    /// firing, so the monitor can report `TimedOut` instead of `Cancelled`.
    /// Only deadline machinery calls this; it does not itself cancel.
    pub fn mark_timed_out(&self) {
        self.timed_out.store(true, Ordering::Release);
    }

    /// Bail out with [`VwError::Cancelled`] if cancellation was requested.
    /// Called once per vector by every operator.
    #[inline]
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(VwError::Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_clear_then_trips() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        t.cancel();
        assert!(matches!(t.check(), Err(VwError::Cancelled)));
        assert!(t.is_cancelled());
        assert!(!t.timed_out(), "a plain cancel is not a timeout");
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn timeout_marker_travels_with_clones() {
        let t = CancelToken::with_deadline(Instant::now());
        let c = t.clone();
        c.mark_timed_out();
        c.cancel();
        assert!(t.is_cancelled());
        assert!(t.timed_out());
    }

    #[test]
    fn visible_across_threads() {
        let t = CancelToken::new();
        let c = t.clone();
        let h = std::thread::spawn(move || {
            while !c.is_cancelled() {
                std::hint::spin_loop();
            }
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.cancel();
        assert!(h.join().unwrap());
    }
}
