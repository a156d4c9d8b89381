//! Admission control: partitioning the global memory limit across queries.
//!
//! The Cambridge Report's point about multi-tenant resource governance:
//! with N concurrent queries and one machine, *uncontrolled* admission
//! means either every query gets an optimistic budget (and the box
//! thrashes) or a static 1/N slice (and a lone query wastes the machine).
//! The [`AdmissionController`] instead hands each query an explicit
//! **memory grant** carved out of one global limit at admission time:
//!
//! * a query whose grant fits the remaining headroom is admitted at once;
//! * otherwise it waits in a strict-FIFO queue (no overtaking — a large
//!   request cannot be starved by a stream of small ones);
//! * the queue is bounded (`admission_queue_depth`); overflow is rejected
//!   with the typed [`VwError::Admission`] (`E_ADMISSION`) so clients can
//!   distinguish "busy, retry" from execution failure;
//! * `KILL` and statement timeouts cancel the waiter's token, which
//!   *dequeues* the query promptly instead of letting it occupy a slot.
//!
//! The grant is RAII ([`AdmissionGrant`]): completion, error, KILL,
//! timeout, and panic-unwind all release it the same way, and release
//! wakes the queue head. The sum of outstanding grants never exceeds the
//! global limit — the stress harness asserts exactly this invariant.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use vw_common::cancel::CancelToken;
use vw_common::{Result, VwError};

struct AdmState {
    /// Sum of outstanding grants, always ≤ `limit`.
    in_use: u64,
    /// Waiting queries in arrival order (ticket ids).
    queue: VecDeque<u64>,
    next_ticket: u64,
    closed: bool,
}

/// FIFO admission controller over one global memory limit.
pub struct AdmissionController {
    limit: u64,
    /// Maximum number of *waiting* queries; SET-able at runtime.
    queue_depth: AtomicUsize,
    m: Mutex<AdmState>,
    cv: Condvar,
}

impl AdmissionController {
    /// A controller over `limit` bytes of global query memory with the
    /// given initial queue depth.
    pub fn new(limit: u64, queue_depth: usize) -> Arc<AdmissionController> {
        Arc::new(AdmissionController {
            limit: limit.max(1),
            queue_depth: AtomicUsize::new(queue_depth),
            m: Mutex::new(AdmState {
                in_use: 0,
                queue: VecDeque::new(),
                next_ticket: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// The global memory limit being partitioned.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Sum of currently outstanding grants.
    pub fn in_use(&self) -> u64 {
        self.m.lock().expect("admission mutex poisoned").in_use
    }

    /// Number of queries waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.m.lock().expect("admission mutex poisoned").queue.len()
    }

    /// Change the bound on the waiting queue (the `admission_queue_depth`
    /// knob). Applies to future arrivals; current waiters keep their slot.
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Current queue-depth bound.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Request `bytes` of the global limit for one query. Blocks in FIFO
    /// order behind earlier waiters; returns
    ///
    /// * `Ok(grant)` once the request fits the remaining headroom,
    /// * `Err(VwError::Admission)` if the waiting queue is full, and
    /// * `Err(VwError::Cancelled)` when `token` is cancelled while waiting
    ///   (KILL / timeout / shutdown) — the waiter is dequeued promptly.
    ///
    /// Requests are clamped to `[1, limit]`, so an over-limit request
    /// degrades to "run alone with everything" rather than waiting forever.
    pub fn admit(self: &Arc<Self>, bytes: u64, token: &CancelToken) -> Result<AdmissionGrant> {
        let request = bytes.clamp(1, self.limit);
        let mut st = self.m.lock().expect("admission mutex poisoned");
        if st.closed {
            return Err(VwError::Cancelled);
        }
        if token.is_cancelled() {
            return Err(VwError::Cancelled);
        }
        if st.queue.is_empty() && st.in_use + request <= self.limit {
            st.in_use += request;
            return Ok(AdmissionGrant { ctl: self.clone(), bytes: request });
        }
        let depth = self.queue_depth();
        if st.queue.len() >= depth {
            return Err(VwError::Admission(format!(
                "admission queue full ({} waiting, depth {}); retry later or raise \
                 admission_queue_depth",
                st.queue.len(),
                depth
            )));
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        loop {
            if st.closed || token.is_cancelled() {
                st.queue.retain(|&t| t != ticket);
                drop(st);
                // The head may have changed; let the next waiter re-check.
                self.cv.notify_all();
                return Err(VwError::Cancelled);
            }
            if st.queue.front() == Some(&ticket) && st.in_use + request <= self.limit {
                st.queue.pop_front();
                st.in_use += request;
                drop(st);
                self.cv.notify_all();
                return Ok(AdmissionGrant { ctl: self.clone(), bytes: request });
            }
            // Bounded wait so a token cancelled by KILL/timeout (which has
            // no handle on this condvar) is observed within ~1ms.
            let (guard, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(1))
                .expect("admission mutex poisoned");
            st = guard;
        }
    }

    /// Shut the controller down: wake and fail every waiter. Outstanding
    /// grants drain through their normal RAII release.
    pub fn close(&self) {
        self.m.lock().expect("admission mutex poisoned").closed = true;
        self.cv.notify_all();
    }

    fn release(&self, bytes: u64) {
        let mut st = self.m.lock().expect("admission mutex poisoned");
        debug_assert!(st.in_use >= bytes, "admission release underflow");
        st.in_use = st.in_use.saturating_sub(bytes);
        drop(st);
        self.cv.notify_all();
    }
}

/// An admitted query's memory grant. Dropping it returns the bytes to the
/// global pool and wakes the admission queue — on every exit path.
pub struct AdmissionGrant {
    ctl: Arc<AdmissionController>,
    bytes: u64,
}

impl std::fmt::Debug for AdmissionGrant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionGrant").field("bytes", &self.bytes).finish()
    }
}

impl AdmissionGrant {
    /// Bytes granted to this query (its effective `mem_budget`).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for AdmissionGrant {
    fn drop(&mut self) {
        self.ctl.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn admits_within_limit_and_clamps_oversize() {
        let ctl = AdmissionController::new(1000, 4);
        let tok = CancelToken::new();
        let a = ctl.admit(400, &tok).unwrap();
        let b = ctl.admit(400, &tok).unwrap();
        assert_eq!(ctl.in_use(), 800);
        // 5000 clamps to 1000, which does not fit while a+b hold 800 — so
        // this queues; drop the holders to admit it.
        let ctl2 = ctl.clone();
        let big = std::thread::spawn(move || ctl2.admit(5000, &CancelToken::new()));
        let t0 = Instant::now();
        while ctl.queued() < 1 {
            assert!(t0.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(a);
        drop(b);
        let g = big.join().unwrap().unwrap();
        assert_eq!(g.bytes(), 1000, "over-limit request clamps to the whole limit");
        drop(g);
        assert_eq!(ctl.in_use(), 0);
    }

    #[test]
    fn fifo_order_and_release_wakes_head() {
        let ctl = AdmissionController::new(100, 8);
        let first = ctl.admit(100, &CancelToken::new()).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        // The arrival order is forced, not timed: waiter `i` starts only
        // once `i` waiters are queued, and the grant is released only once
        // all three are.
        let queued_reaches = |n: usize| {
            let t0 = Instant::now();
            while ctl.queued() < n {
                assert!(t0.elapsed() < Duration::from_secs(5), "waiter {n} never queued");
                std::thread::yield_now();
            }
        };
        let mut joins = Vec::new();
        for i in 0..3 {
            queued_reaches(i);
            let (ctl, order) = (ctl.clone(), order.clone());
            joins.push(std::thread::spawn(move || {
                let g = ctl.admit(100, &CancelToken::new()).unwrap();
                order.lock().unwrap().push(i);
                drop(g);
            }));
        }
        queued_reaches(3);
        drop(first);
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2], "strict FIFO admission");
    }

    #[test]
    fn bounded_queue_rejects_with_typed_error() {
        let ctl = AdmissionController::new(100, 1);
        let hold = ctl.admit(100, &CancelToken::new()).unwrap();
        let ctl2 = ctl.clone();
        let waiter = std::thread::spawn(move || {
            let tok = CancelToken::new();
            let g = ctl2.admit(50, &tok);
            g.map(|g| g.bytes())
        });
        // Wait for the waiter to occupy the single queue slot.
        let t0 = Instant::now();
        while ctl.queued() < 1 {
            assert!(t0.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(1));
        }
        let rejected = ctl.admit(50, &CancelToken::new());
        match rejected {
            Err(VwError::Admission(msg)) => assert!(msg.contains("queue full"), "{msg}"),
            other => panic!("expected E_ADMISSION, got {other:?}"),
        }
        drop(hold);
        assert_eq!(waiter.join().unwrap().unwrap(), 50);
        assert_eq!(ctl.queued(), 0);
        assert_eq!(ctl.in_use(), 0);
    }

    #[test]
    fn cancelling_a_waiter_dequeues_it() {
        let ctl = AdmissionController::new(100, 4);
        let hold = ctl.admit(100, &CancelToken::new()).unwrap();
        let tok = CancelToken::new();
        let (ctl2, tok2) = (ctl.clone(), tok.clone());
        let waiter = std::thread::spawn(move || ctl2.admit(50, &tok2));
        let t0 = Instant::now();
        while ctl.queued() < 1 {
            assert!(t0.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(1));
        }
        tok.cancel();
        let res = waiter.join().unwrap();
        assert!(matches!(res, Err(VwError::Cancelled)), "got {res:?}");
        assert_eq!(ctl.queued(), 0, "KILL while queued dequeues cleanly");
        drop(hold);
        assert_eq!(ctl.in_use(), 0);
    }

    #[test]
    fn grant_sum_never_exceeds_limit_under_contention() {
        let ctl = AdmissionController::new(256, 64);
        let peak_ok = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let mut joins = Vec::new();
        for i in 0..8 {
            let (ctl, peak_ok) = (ctl.clone(), peak_ok.clone());
            joins.push(std::thread::spawn(move || {
                for j in 0..20 {
                    let want = 32 + ((i * 7 + j * 13) % 200) as u64;
                    let g = ctl.admit(want, &CancelToken::new()).unwrap();
                    if ctl.in_use() > ctl.limit() {
                        peak_ok.store(false, Ordering::SeqCst);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                    drop(g);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(peak_ok.load(Ordering::SeqCst), "sum of grants exceeded the global limit");
        assert_eq!(ctl.in_use(), 0);
        assert_eq!(ctl.queued(), 0);
    }

    #[test]
    fn close_fails_waiters() {
        let ctl = AdmissionController::new(100, 4);
        let hold = ctl.admit(100, &CancelToken::new()).unwrap();
        let ctl2 = ctl.clone();
        let waiter = std::thread::spawn(move || ctl2.admit(10, &CancelToken::new()));
        let t0 = Instant::now();
        while ctl.queued() < 1 {
            assert!(t0.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(1));
        }
        ctl.close();
        assert!(matches!(waiter.join().unwrap(), Err(VwError::Cancelled)));
        drop(hold);
    }
}
