//! The fixed global worker pool.
//!
//! One [`WorkerPool`] per engine, sized by `EngineConfig::workers`
//! (`VW_WORKERS`, default = core count). The pool itself is a FIFO of
//! closures; what the engine puts on it are cooperative tasks
//! ([`crate::task`]), and that module — not its clients — enforces the
//! two rules that keep a small pool live and fair: a task never blocks a
//! worker on another task (it parks and is woken), and it yields after a
//! bounded quantum.
//!
//! Shutdown (on `Database` drop or explicit close) cancels the tokens of
//! every queued and running job, then *runs* the remaining queue to
//! completion — tasks observe their cancelled token and unwind fast — and
//! joins all worker threads. Submissions that race past shutdown run
//! inline on the caller, so work submitted to a closed pool still
//! finishes.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use vw_common::cancel::CancelToken;

/// A unit of work: the query's cancel token (so shutdown can interrupt it)
/// plus the closure to run.
struct Job {
    token: CancelToken,
    run: Box<dyn FnOnce() + Send + 'static>,
}

struct PoolState {
    jobs: VecDeque<Job>,
    /// Token of the job each worker is currently running, by worker index.
    running: Vec<Option<CancelToken>>,
    closed: bool,
}

struct PoolInner {
    m: Mutex<PoolState>,
    cv: Condvar,
    /// Mirror of `PoolState::closed` readable without the lock (the task
    /// yield path reads it).
    closed: AtomicBool,
}

/// Fixed-size worker pool executing plan-fragment tasks.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    workers: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (`workers == 0` is promoted to 1).
    /// Threads are named `vw-worker-<i>`.
    pub fn new(workers: usize) -> Arc<WorkerPool> {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            m: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                running: vec![None; workers],
                closed: false,
            }),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("vw-worker-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(WorkerPool { inner, workers, handles: Mutex::new(handles) })
    }

    /// The fixed worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True once [`WorkerPool::shutdown`] has begun: submissions now run
    /// inline, so a task must keep stepping instead of yielding.
    pub(crate) fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// Enqueue a task. `token` is the owning query's cancel token; shutdown
    /// cancels it so queued work drains fast. If the pool is already
    /// closed, the task runs inline on the caller.
    pub fn submit(&self, token: &CancelToken, f: impl FnOnce() + Send + 'static) {
        let job = Job { token: token.clone(), run: Box::new(f) };
        {
            let mut st = self.inner.m.lock().expect("pool mutex poisoned");
            if !st.closed {
                st.jobs.push_back(job);
                drop(st);
                self.inner.cv.notify_one();
                return;
            }
        }
        (job.run)();
    }

    /// How many tasks are queued but not yet claimed by a worker.
    pub fn queued(&self) -> usize {
        self.inner.m.lock().expect("pool mutex poisoned").jobs.len()
    }

    /// Pop one queued job and run it inline on the calling thread; false
    /// if the queue was empty. The helping wait of [`crate::task`] is built
    /// on this: a waiter that may itself be a pool worker donates its
    /// thread, because sleeping could occupy the only worker the awaited
    /// task needs.
    pub(crate) fn help_run_one(&self) -> bool {
        let job = {
            let mut st = self.inner.m.lock().expect("pool mutex poisoned");
            st.jobs.pop_front()
        };
        match job {
            Some(job) => {
                // Same outer net as the worker loop.
                let _ = catch_unwind(AssertUnwindSafe(job.run));
                true
            }
            None => false,
        }
    }

    /// Close the pool: cancel every queued and running task's token, run
    /// the queue dry, and join all worker threads. Idempotent; called from
    /// `Database` teardown (ARCHITECTURE.md "Failure model" — no stray
    /// threads, even with queries mid-flight).
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.m.lock().expect("pool mutex poisoned");
            if !st.closed {
                st.closed = true;
                self.inner.closed.store(true, Ordering::Release);
                for j in &st.jobs {
                    j.token.cancel();
                }
                for t in st.running.iter().flatten() {
                    t.cancel();
                }
            }
        }
        self.inner.cv.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().expect("pool handles poisoned"));
        // A job may hold the last `Arc<WorkerPool>` (a task's final run
        // outliving its handle by an instant), so this can be a worker
        // thread dropping the pool: it cannot join itself — it is left to
        // return from its loop, which `closed` now guarantees.
        let me = std::thread::current().id();
        for h in handles.into_iter().filter(|h| h.thread().id() != me) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &PoolInner, me: usize) {
    loop {
        let job = {
            let mut st = inner.m.lock().expect("pool mutex poisoned");
            loop {
                if let Some(j) = st.jobs.pop_front() {
                    st.running[me] = Some(j.token.clone());
                    break Some(j);
                }
                if st.closed {
                    break None;
                }
                st = inner.cv.wait(st).expect("pool mutex poisoned");
            }
        };
        let Some(job) = job else { return };
        // Cooperative tasks route a panicking step into a query error
        // themselves; this outer net keeps the *pool* alive under a bare
        // closure that panics.
        let _ = catch_unwind(AssertUnwindSafe(job.run));
        inner.m.lock().expect("pool mutex poisoned").running[me] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn runs_many_tasks_on_few_workers() {
        let pool = WorkerPool::new(2);
        let n = Arc::new(AtomicUsize::new(0));
        let tok = CancelToken::new();
        for _ in 0..64 {
            let n = n.clone();
            pool.submit(&tok, move || {
                n.fetch_add(1, Ordering::SeqCst);
            });
        }
        let t0 = std::time::Instant::now();
        while n.load(Ordering::SeqCst) < 64 {
            assert!(t0.elapsed() < Duration::from_secs(10), "pool stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.shutdown();
    }

    #[test]
    fn shutdown_cancels_and_drains_queued_tasks() {
        let pool = WorkerPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let tok = CancelToken::new();
        // Occupy the single worker until the gate opens.
        let g = gate.clone();
        pool.submit(&tok, move || {
            let (m, cv) = &*g;
            let mut open = m.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        // Queue a task behind it; its token must be cancelled by shutdown,
        // and the task must still run (drain, not drop).
        let queued_tok = CancelToken::new();
        let saw_cancel = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicBool::new(false));
        let (sc, r, qt) = (saw_cancel.clone(), ran.clone(), queued_tok.clone());
        pool.submit(&queued_tok, move || {
            sc.store(qt.is_cancelled(), Ordering::SeqCst);
            r.store(true, Ordering::SeqCst);
        });
        // Open the gate from a helper thread after shutdown begins; the
        // running task's token is cancelled by shutdown too.
        let g2 = gate.clone();
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let (m, cv) = &*g2;
            *m.lock().unwrap() = true;
            cv.notify_all();
        });
        pool.shutdown();
        opener.join().unwrap();
        assert!(ran.load(Ordering::SeqCst), "queued task drained, not dropped");
        assert!(saw_cancel.load(Ordering::SeqCst), "queued task saw its token cancelled");
        assert!(tok.is_cancelled(), "running task's token cancelled");
    }

    #[test]
    fn submit_after_shutdown_runs_inline() {
        let pool = WorkerPool::new(1);
        pool.shutdown();
        assert!(pool.is_closed());
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        pool.submit(&CancelToken::new(), move || r.store(true, Ordering::SeqCst));
        assert!(ran.load(Ordering::SeqCst), "post-shutdown submit completes inline");
        pool.shutdown(); // idempotent
    }

    #[test]
    fn a_job_may_drop_the_last_reference_to_its_pool() {
        // The worker running that job shuts the pool down from inside: it
        // must skip joining itself (std panics on a self-join, and the
        // pool's own net would swallow that panic mid-shutdown).
        let pool = WorkerPool::new(2);
        let (go, gone) = std::sync::mpsc::channel();
        let (done, finished) = std::sync::mpsc::channel();
        let last = pool.clone();
        pool.submit(&CancelToken::new(), move || {
            gone.recv().unwrap(); // until the test thread has let go
            drop(last);
            done.send(()).unwrap();
        });
        drop(pool);
        go.send(()).unwrap();
        finished.recv_timeout(Duration::from_secs(10)).expect("shutdown inside a job unwound");
    }

    #[test]
    fn task_panic_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        let tok = CancelToken::new();
        pool.submit(&tok, || panic!("task bug"));
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        pool.submit(&tok, move || r.store(true, Ordering::SeqCst));
        let t0 = std::time::Instant::now();
        while !ran.load(Ordering::SeqCst) {
            assert!(t0.elapsed() < Duration::from_secs(10), "worker died after panic");
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.shutdown();
    }
}
