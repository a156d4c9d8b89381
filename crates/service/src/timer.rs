//! Shared statement-deadline timer — the engine's only deadline enforcer.
//!
//! A statement with a timeout carries its deadline on its
//! [`CancelToken`]; the cooperative per-vector check never reads the
//! clock. The [`DeadlineQueue`] is what fires: **one** timer thread for
//! the whole engine (the thread budget is O(workers), not O(statements)),
//! spawned at construction so the engine's thread count is deterministic
//! from open. At a registered token's deadline — never earlier — it marks
//! the token timed-out, then cancels it; a statement without a timeout
//! registers nothing.
//!
//! Registrations are RAII: dropping the [`TimerGuard`] (query finished
//! first) deregisters the token. The heap keeps lazily-invalidated
//! entries — deregistration just removes the live map entry and the timer
//! skips dead heads — so neither side ever rebuilds the heap.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vw_common::cancel::CancelToken;

struct TimerState {
    /// (deadline, id) min-heap; entries may be stale (id no longer live).
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
    /// Tokens still awaiting enforcement, by registration id.
    live: HashMap<u64, CancelToken>,
    next_id: u64,
    shutdown: bool,
}

struct TimerInner {
    m: Mutex<TimerState>,
    cv: Condvar,
}

/// One engine-wide timer enforcing every registered statement deadline.
pub struct DeadlineQueue {
    inner: Arc<TimerInner>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Default for DeadlineQueue {
    fn default() -> DeadlineQueue {
        DeadlineQueue::new()
    }
}

impl DeadlineQueue {
    /// An empty queue with its timer thread started. Eager spawn keeps the
    /// engine's thread count deterministic from open (`workers + 1`), so
    /// leak checks can baseline it before any statement runs; an idle
    /// timer parks on its condvar and costs nothing.
    pub fn new() -> DeadlineQueue {
        let inner = Arc::new(TimerInner {
            m: Mutex::new(TimerState {
                heap: BinaryHeap::new(),
                live: HashMap::new(),
                next_id: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let ti = inner.clone();
        let handle = std::thread::Builder::new()
            .name("vw-deadline-timer".into())
            .spawn(move || timer_loop(&ti))
            .expect("spawn deadline timer");
        DeadlineQueue { inner, handle: Mutex::new(Some(handle)) }
    }

    /// Register `token` for deadline enforcement. Returns `None` when the
    /// token carries no deadline (nothing to enforce) or the queue is shut
    /// down. Drop the guard to deregister.
    pub fn register(&self, token: &CancelToken) -> Option<TimerGuard> {
        let deadline = token.deadline()?;
        let mut st = self.inner.m.lock().expect("timer mutex poisoned");
        if st.shutdown {
            return None;
        }
        let id = st.next_id;
        st.next_id += 1;
        st.heap.push(Reverse((deadline, id)));
        st.live.insert(id, token.clone());
        drop(st);
        self.inner.cv.notify_all();
        Some(TimerGuard { inner: self.inner.clone(), id })
    }

    /// Number of deadlines currently awaiting enforcement.
    pub fn pending(&self) -> usize {
        self.inner.m.lock().expect("timer mutex poisoned").live.len()
    }

    /// Stop and join the timer thread. Idempotent; registrations after
    /// shutdown are refused (the engine is tearing down).
    pub fn shutdown(&self) {
        self.inner.m.lock().expect("timer mutex poisoned").shutdown = true;
        self.inner.cv.notify_all();
        if let Some(h) = self.handle.lock().expect("timer handle poisoned").take() {
            let _ = h.join();
        }
    }
}

impl Drop for DeadlineQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// RAII registration handle: dropping it (the statement finished before
/// its deadline) deregisters the token without waking the timer.
pub struct TimerGuard {
    inner: Arc<TimerInner>,
    id: u64,
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        self.inner.m.lock().expect("timer mutex poisoned").live.remove(&self.id);
    }
}

fn timer_loop(inner: &TimerInner) {
    let mut st = inner.m.lock().expect("timer mutex poisoned");
    loop {
        if st.shutdown {
            return;
        }
        // Fire due heads, skip deregistered ones.
        let mut next_due: Option<Instant> = None;
        while let Some(&Reverse((when, id))) = st.heap.peek() {
            if !st.live.contains_key(&id) {
                st.heap.pop();
                continue;
            }
            if when <= Instant::now() {
                st.heap.pop();
                if let Some(tok) = st.live.remove(&id) {
                    tok.mark_timed_out();
                    tok.cancel();
                }
                continue;
            }
            next_due = Some(when);
            break;
        }
        let wait = match next_due {
            Some(when) => when.saturating_duration_since(Instant::now()),
            // Idle: park until a registration or shutdown notifies. The
            // bound only caps how stale an empty heap's sleep can get.
            None => Duration::from_secs(3600),
        };
        let (guard, _) = inner.cv.wait_timeout(st, wait).expect("timer mutex poisoned");
        st = guard;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_deadline_registers_nothing() {
        let q = DeadlineQueue::new();
        assert!(q.register(&CancelToken::new()).is_none());
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn deadline_fires_and_marks_timeout() {
        let q = DeadlineQueue::new();
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_millis(30));
        let _g = q.register(&t).expect("deadline token registers");
        let t0 = Instant::now();
        while !t.is_cancelled() {
            assert!(t0.elapsed() < Duration::from_secs(5), "timer never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(t.timed_out());
        assert!(t0.elapsed() >= Duration::from_millis(25), "fired no earlier than the deadline");
    }

    #[test]
    fn dropping_guard_deregisters() {
        let q = DeadlineQueue::new();
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_millis(20));
        let g = q.register(&t).unwrap();
        drop(g);
        assert_eq!(q.pending(), 0);
        std::thread::sleep(Duration::from_millis(40));
        assert!(!t.is_cancelled(), "deregistered deadline must not fire");
        assert!(!t.timed_out());
    }

    #[test]
    fn many_deadlines_one_thread() {
        let q = DeadlineQueue::new();
        let toks: Vec<CancelToken> = (0..16)
            .map(|i| CancelToken::with_deadline(Instant::now() + Duration::from_millis(10 + i)))
            .collect();
        let guards: Vec<_> = toks.iter().map(|t| q.register(t).unwrap()).collect();
        let t0 = Instant::now();
        while toks.iter().any(|t| !t.is_cancelled()) {
            assert!(t0.elapsed() < Duration::from_secs(5), "some deadline never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(toks.iter().all(|t| t.timed_out()));
        drop(guards);
        q.shutdown();
    }

    #[test]
    fn shutdown_joins_promptly_with_far_deadlines() {
        let q = DeadlineQueue::new();
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        let _g = q.register(&t).unwrap();
        let t0 = Instant::now();
        q.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(5), "shutdown must not wait out the deadline");
        assert!(!t.is_cancelled());
    }
}
