//! The cooperative-task primitive: the pool's two rules, enforced once.
//!
//! Everything the engine runs on the [`WorkerPool`] — an `Xchg` plan
//! fragment, a hash-build sink — is a [`CoopTask`]: the client writes
//! only [`CoopTask::step`] (do one bounded unit of work and say whether
//! it made [`Step::Progress`], is [`Step::Blocked`] on something another
//! party must change, or is [`Step::Done`]) and [`CoopTask::fail`] (where
//! an error goes). The [`TaskHandle`] it gets back owns the rest:
//!
//! * **State machine.** Idle → Scheduled → Running → Idle … → Done. At
//!   most one pool job exists per task, so `step` never runs twice at
//!   once. A [`TaskHandle::wake`] that lands while the task is Running
//!   marks it *notified*: a `Blocked` returned by that step is not
//!   believed and the task steps again, so a wake racing a park is never
//!   lost.
//! * **Rule 1 — never block a worker.** `step` must not wait for another
//!   pool task: it returns `Blocked` and the task parks (Idle, holding no
//!   worker and no queue slot) until whoever removed the obstacle calls
//!   `wake`. The one place that *must* wait for a task — the handle's
//!   `Drop` — donates its thread to the pool queue instead of sleeping,
//!   which is what lets a 1-worker pool reclaim a DOP-4 plan's fragments
//!   and build sinks.
//! * **Rule 2 — yield after a quantum.** After [`QUANTUM`] progress steps
//!   the task requeues itself at the pool tail so tasks of different
//!   queries interleave — unless the pool is closed, where a submission
//!   runs inline and yielding would recurse: there it keeps stepping.
//! * **Failure.** Before every step the query's [`CancelToken`] is
//!   checked (`fail(VwError::Cancelled)`); an `Err` from `step` and a
//!   panic inside it (caught and rendered as a `VwError::Exec` naming
//!   the task kind) end the task through the same `fail`. The body is
//!   dropped before the task reads Done.
//! * **Drop.** Dropping the handle aborts the task — no further `step`,
//!   no `fail` — and returns only once no pool job references it: a
//!   parked task is reclaimed on the spot, a queued or running one is
//!   helped/awaited. After the drop the task holds nothing on the pool.
//!
//! `wake` takes the handle, so by default only the handle's owner — the
//! exchange consumer that popped a batch — can schedule the task. Where
//! one *task* must wake another (a pipeline stage that publishes its
//! result wakes the tasks parked on it), the owner hands out [`Waker`]s
//! ([`TaskHandle::waker`]): a waker is the same `wake`, detached from the
//! handle's lifetime, and a no-op once the task is Done. Call either
//! outside any lock `step` takes: on a closed pool the wake runs the task
//! inline on the caller.

use crate::pool::WorkerPool;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;
use vw_common::cancel::CancelToken;
use vw_common::{Result, VwError};

/// Progress steps a task runs before it yields its worker (requeues at
/// the pool tail). Small enough that no query monopolizes a worker, large
/// enough to amortize the requeue.
pub const QUANTUM: usize = 8;

/// What one [`CoopTask::step`] achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// One unit of work done; more may follow.
    Progress,
    /// Nothing can be done until another party acts and calls
    /// [`TaskHandle::wake`] (output buffer full, build not published).
    Blocked,
    /// The task finished its work.
    Done,
}

/// The client half of a pool task.
pub trait CoopTask: Send + 'static {
    /// Do one bounded unit of work without waiting on another pool task.
    fn step(&mut self) -> Result<Step>;

    /// The task ended in `err` — from `step`, from a panic inside it, or
    /// `VwError::Cancelled` from the query token. Called at most once; no
    /// `step` follows.
    fn fail(&mut self, err: VwError);
}

const IDLE: u8 = 0;
const SCHEDULED: u8 = 1;
const RUNNING: u8 = 2;
/// Running, and a `wake` arrived since the run began.
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

struct Core<T> {
    state: AtomicU8,
    aborted: AtomicBool,
    /// Locked by the one runner for the length of a run; `None` once Done.
    body: Mutex<Option<T>>,
    pool: Arc<WorkerPool>,
    token: CancelToken,
    /// Names the task kind in a panic's error message.
    what: &'static str,
    /// Where helpers nap when the pool queue is empty; the runner signals
    /// after every step while `waiters > 0`.
    nap: Mutex<()>,
    cv: Condvar,
    waiters: AtomicUsize,
}

/// The owner's half of a pool task; see the module docs.
pub struct TaskHandle<T: CoopTask> {
    core: Arc<Core<T>>,
}

impl<T: CoopTask> TaskHandle<T> {
    /// A parked (Idle) task on `pool` under the query's `token`; nothing
    /// runs until the first [`TaskHandle::wake`].
    pub fn new(
        pool: &Arc<WorkerPool>,
        token: &CancelToken,
        what: &'static str,
        body: T,
    ) -> TaskHandle<T> {
        TaskHandle {
            core: Arc::new(Core {
                state: AtomicU8::new(IDLE),
                aborted: AtomicBool::new(false),
                body: Mutex::new(Some(body)),
                pool: pool.clone(),
                token: token.clone(),
                what,
                nap: Mutex::new(()),
                cv: Condvar::new(),
                waiters: AtomicUsize::new(0),
            }),
        }
    }

    /// The obstacle the task reported `Blocked` on may be gone: schedule
    /// it if parked, or have the running step re-check. Cheap and
    /// idempotent in every other state.
    pub fn wake(&self) {
        Core::wake(&self.core);
    }

    /// A [`TaskHandle::wake`] that another task may hold: whoever removes
    /// the obstacle this task parks on (a stage publishing its result)
    /// calls it. Outliving the handle is harmless — a Done task ignores
    /// wakes.
    pub fn waker(&self) -> Waker {
        let core = self.core.clone();
        Waker(Arc::new(move || Core::wake(&core)))
    }

    /// Has the task reached Done (finished, failed, or aborted)?
    fn is_done(&self) -> bool {
        self.core.state.load(SeqCst) == DONE
    }

    /// One round of the helping wait: run one queued pool job on this
    /// thread, or, with the queue empty, nap until the task's runner
    /// signals (the timeout bounds a signal that raced the nap). `Drop`
    /// loops on the task's state around it.
    fn help(&self) {
        let core = &self.core;
        if core.pool.help_run_one() {
            return;
        }
        core.waiters.fetch_add(1, SeqCst);
        let guard = core.nap.lock().unwrap_or_else(PoisonError::into_inner);
        if !self.is_done() {
            let _ = core.cv.wait_timeout(guard, Duration::from_millis(1));
        }
        core.waiters.fetch_sub(1, SeqCst);
    }

    /// Wait, helping the pool, until the task is Done.
    #[cfg(test)]
    fn join(&self) {
        while !self.is_done() {
            self.help();
        }
    }
}

/// A detached [`TaskHandle::wake`]; see [`TaskHandle::waker`].
#[derive(Clone)]
pub struct Waker(Arc<dyn Fn() + Send + Sync>);

impl Waker {
    /// Wake the task this waker was made for.
    pub fn wake(&self) {
        (self.0)()
    }
}

impl<T: CoopTask> Drop for TaskHandle<T> {
    fn drop(&mut self) {
        let core = &self.core;
        core.aborted.store(true, SeqCst);
        loop {
            match core.state.load(SeqCst) {
                DONE => return,
                // Parked: no job references the task, so reclaim it here
                // (a `Waker` racing this either loses the exchange, or wins
                // it and queues a run that sees `aborted`).
                IDLE if core.state.compare_exchange(IDLE, DONE, SeqCst, SeqCst).is_ok() => {
                    *core.body.lock().unwrap_or_else(PoisonError::into_inner) = None;
                    return;
                }
                _ => self.help(),
            }
        }
    }
}

impl<T: CoopTask> Core<T> {
    fn wake(core: &Arc<Core<T>>) {
        loop {
            let (from, to) = match core.state.load(SeqCst) {
                IDLE => (IDLE, SCHEDULED),
                RUNNING => (RUNNING, NOTIFIED),
                _ => return, // a run is already owed, or none ever will be
            };
            if core.state.compare_exchange(from, to, SeqCst, SeqCst).is_ok() {
                if to == SCHEDULED {
                    Core::submit(core);
                }
                return;
            }
        }
    }

    /// Queue one run (the caller moved the state to Scheduled).
    fn submit(core: &Arc<Core<T>>) {
        let me = core.clone();
        core.pool.submit(&core.token, move || me.run());
    }

    fn signal(&self) {
        if self.waiters.load(SeqCst) > 0 {
            self.cv.notify_all();
        }
    }

    /// One pool job: step until parked, yielded or Done.
    fn run(self: Arc<Self>) {
        self.state.store(RUNNING, SeqCst);
        let mut guard = self.body.lock().expect("a task run never unwinds");
        let body = guard.as_mut().expect("a scheduled task has its body");
        let mut steps = 0;
        let failure = loop {
            if self.aborted.load(SeqCst) {
                break None;
            }
            if self.token.is_cancelled() {
                break Some(VwError::Cancelled);
            }
            let step = catch_unwind(AssertUnwindSafe(|| body.step()));
            self.signal();
            match step {
                Ok(Ok(Step::Progress)) => {
                    steps += 1;
                    if steps >= QUANTUM && !self.pool.is_closed() {
                        self.state.store(SCHEDULED, SeqCst);
                        drop(guard);
                        return Core::submit(&self);
                    }
                }
                Ok(Ok(Step::Blocked)) => {
                    if self.state.compare_exchange(RUNNING, IDLE, SeqCst, SeqCst).is_ok() {
                        return;
                    }
                    // Notified mid-step: consume the wake and look again.
                    self.state.store(RUNNING, SeqCst);
                }
                Ok(Ok(Step::Done)) => break None,
                Ok(Err(e)) => break Some(e),
                Err(payload) => break Some(panic_error(self.what, payload)),
            }
        };
        if let Some(e) = failure {
            body.fail(e);
        }
        *guard = None;
        drop(guard);
        self.state.store(DONE, SeqCst);
        let _nap = self.nap.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }
}

/// Render a caught panic payload as the typed error a query sees.
fn panic_error(what: &str, payload: Box<dyn Any + Send>) -> VwError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    VwError::Exec(format!("{what} worker panicked: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    /// What a scripted task does on each step.
    #[derive(Clone, Copy)]
    enum Script {
        /// Consume one credit per step, `Done` after `n` credits. With no
        /// credit left the step raises `Probe::at_gate` and holds there —
        /// obstacle seen, `Blocked` not yet returned — until the driver
        /// lowers it, so the driver can land a wake exactly in that gap.
        Credits(usize),
        /// Progress forever (until cancelled or aborted).
        Spin,
        /// Two progress steps, then panic.
        Panic,
        /// Always `Blocked`.
        Park,
    }

    #[derive(Default)]
    struct Probe {
        credits: AtomicUsize,
        consumed: AtomicUsize,
        at_gate: AtomicBool,
        failed: Mutex<Vec<VwError>>,
        dropped: AtomicBool,
    }

    struct Scripted {
        script: Script,
        steps: usize,
        probe: Arc<Probe>,
        /// Receives one message when the first step runs.
        started: Option<mpsc::Sender<()>>,
    }

    impl CoopTask for Scripted {
        fn step(&mut self) -> Result<Step> {
            if let Some(tx) = self.started.take() {
                let _ = tx.send(());
            }
            self.steps += 1;
            match self.script {
                Script::Credits(n) => {
                    let p = &self.probe;
                    if p.credits.load(SeqCst) == 0 {
                        p.at_gate.store(true, SeqCst);
                        wait_for("the driver to open the gate", || !p.at_gate.load(SeqCst));
                        return Ok(Step::Blocked);
                    }
                    p.credits.fetch_sub(1, SeqCst);
                    let done = p.consumed.fetch_add(1, SeqCst) + 1 == n;
                    Ok(if done { Step::Done } else { Step::Progress })
                }
                Script::Spin => Ok(Step::Progress),
                Script::Panic if self.steps > 2 => panic!("step exploded"),
                Script::Panic => Ok(Step::Progress),
                Script::Park => Ok(Step::Blocked),
            }
        }

        fn fail(&mut self, err: VwError) {
            self.probe.failed.lock().unwrap().push(err);
        }
    }

    impl Drop for Scripted {
        fn drop(&mut self) {
            self.probe.dropped.store(true, SeqCst);
        }
    }

    fn scripted(
        pool: &Arc<WorkerPool>,
        token: &CancelToken,
        script: Script,
    ) -> (TaskHandle<Scripted>, Arc<Probe>, mpsc::Receiver<()>) {
        let probe = Arc::new(Probe::default());
        let (tx, rx) = mpsc::channel();
        let body = Scripted { script, steps: 0, probe: probe.clone(), started: Some(tx) };
        (TaskHandle::new(pool, token, "scripted", body), probe, rx)
    }

    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed() < Duration::from_secs(20), "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_wake_racing_a_blocked_return_is_never_lost() {
        // One worker, one credit per round. Having consumed a round's
        // credit the task finds none and stops at the gate, about to
        // report `Blocked`. On even rounds the driver adds the next credit
        // and wakes *before* opening the gate: the wake finds the task
        // Running, after it looked — the interleaving that loses the
        // wakeup unless Running remembers it. On odd rounds the gate
        // opens first and the wake races the park freely. Either way the
        // credit must get consumed, or the round times out.
        const ROUNDS: usize = 4_000;
        let pool = WorkerPool::new(1);
        let (task, probe, _rx) = scripted(&pool, &CancelToken::new(), Script::Credits(ROUNDS));
        let grant = || {
            probe.credits.fetch_add(1, SeqCst);
            task.wake();
        };
        grant();
        for round in 1..ROUNDS {
            wait_for("the round's credit", || probe.consumed.load(SeqCst) == round);
            wait_for("the task to reach the gate", || probe.at_gate.load(SeqCst));
            if round % 2 == 0 {
                grant();
                probe.at_gate.store(false, SeqCst);
            } else {
                probe.at_gate.store(false, SeqCst);
                grant();
            }
        }
        task.join();
        assert_eq!(probe.consumed.load(SeqCst), ROUNDS);
        assert!(probe.dropped.load(SeqCst), "the body is dropped at Done");
        assert!(probe.failed.lock().unwrap().is_empty());
        assert_eq!(pool.queued(), 0);
    }

    #[test]
    fn every_ending_is_a_typed_error_or_a_clean_reclaim() {
        enum Ending {
            PanicInStep,
            TokenCancelled,
            PoolShutDown,
            DroppedWhileParked,
            DroppedWhileRunning,
        }
        use Ending::*;
        for ending in
            [PanicInStep, TokenCancelled, PoolShutDown, DroppedWhileParked, DroppedWhileRunning]
        {
            let pool = WorkerPool::new(1);
            let token = CancelToken::new();
            let script = match ending {
                PanicInStep => Script::Panic,
                DroppedWhileParked => Script::Park,
                _ => Script::Spin,
            };
            let (task, probe, started) = scripted(&pool, &token, script);
            task.wake();
            started.recv_timeout(Duration::from_secs(20)).expect("the task never ran");
            let expect_failure = match ending {
                PanicInStep => {
                    task.join();
                    Some("scripted worker panicked: step exploded")
                }
                TokenCancelled => {
                    token.cancel();
                    task.join();
                    Some("cancelled")
                }
                PoolShutDown => {
                    pool.shutdown(); // cancels the running job's token
                    task.join();
                    Some("cancelled")
                }
                DroppedWhileParked => {
                    wait_for("the task to park", || task.core.state.load(SeqCst) == IDLE);
                    drop(task);
                    None
                }
                DroppedWhileRunning => {
                    drop(task);
                    None
                }
            };
            let failed = probe.failed.lock().unwrap();
            match expect_failure {
                Some(needle) => {
                    assert_eq!(failed.len(), 1, "fail is called exactly once: {failed:?}");
                    let msg = failed[0].to_string().to_lowercase();
                    assert!(msg.contains(needle), "{msg}");
                }
                None => assert!(failed.is_empty(), "an abort is silent: {failed:?}"),
            }
            assert!(probe.dropped.load(SeqCst), "the body is reclaimed");
            assert_eq!(pool.queued(), 0, "nothing left on the pool");
        }
    }

    #[test]
    fn a_spinning_task_yields_its_only_worker() {
        // Two endless tasks on one worker: both must keep stepping, which
        // only the quantum yield makes possible.
        let pool = WorkerPool::new(1);
        let token = CancelToken::new();
        let (a, _pa, a_started) = scripted(&pool, &token, Script::Spin);
        let (b, _pb, b_started) = scripted(&pool, &token, Script::Spin);
        a.wake();
        b.wake();
        a_started.recv_timeout(Duration::from_secs(20)).expect("task a never ran");
        b_started.recv_timeout(Duration::from_secs(20)).expect("task b starved behind a");
    }

    #[test]
    fn a_waker_wakes_from_another_task_and_outlives_the_handle() {
        // Task b parks until task a's step hands it a credit and wakes it
        // through a waker — the stage-publishes-and-wakes pattern, on one
        // worker, so b can only ever run after a's step returned.
        struct Publisher {
            credit_to: Arc<Probe>,
            waker: Waker,
        }
        impl CoopTask for Publisher {
            fn step(&mut self) -> Result<Step> {
                self.credit_to.credits.store(1, SeqCst);
                self.waker.wake();
                Ok(Step::Done)
            }
            fn fail(&mut self, _: VwError) {}
        }
        let pool = WorkerPool::new(1);
        let token = CancelToken::new();
        let (b, probe, started) = scripted(&pool, &token, Script::Credits(1));
        b.wake();
        started.recv_timeout(Duration::from_secs(20)).expect("b never ran");
        wait_for("b to reach the gate", || probe.at_gate.load(SeqCst));
        probe.at_gate.store(false, SeqCst);
        wait_for("b to park", || b.core.state.load(SeqCst) == IDLE);
        let waker = b.waker();
        let body = Publisher { credit_to: probe.clone(), waker: waker.clone() };
        let a = TaskHandle::new(&pool, &token, "publisher", body);
        a.wake();
        b.join();
        assert_eq!(probe.consumed.load(SeqCst), 1, "the waker scheduled the parked task");
        // Done, then dropped: a late wake finds nothing to schedule.
        waker.wake();
        drop(b);
        waker.wake();
        a.join();
        assert_eq!(pool.queued(), 0);
    }

    #[test]
    fn a_closed_pool_runs_a_woken_task_inline_to_its_end() {
        let pool = WorkerPool::new(1);
        pool.shutdown();
        let (task, probe, _rx) = scripted(&pool, &CancelToken::new(), Script::Credits(100));
        probe.credits.store(100, SeqCst);
        task.wake(); // inline, and well past one quantum without yielding
        assert!(task.is_done());
        assert_eq!(probe.consumed.load(SeqCst), 100);
    }
}
