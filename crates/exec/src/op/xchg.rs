//! Xchg — the Volcano-style exchange operator for multi-core parallelism.
//!
//! The paper: "The Vectorwise rewriter was used to implement a Volcano-style
//! query parallelizer". The rewriter marks an order-insensitive plan
//! fragment for parallel execution (see `vw_rewriter::parallel`); the
//! compiler's pipeline factory then builds `DOP` clones of the fragment
//! that **share one [`MorselSource`](crate::morsel::MorselSource) per
//! scan** — workers pull `morsel_rows`-sized claims until the dispenser
//! runs dry, so a slow worker claims fewer morsels instead of stranding a
//! pre-assigned static row range. `Xchg` merges the clones' batch streams.
//!
//! Every clone is a cooperative task ([`vw_service::task`]) on the
//! engine's fixed [`WorkerPool`], so N concurrent queries share W workers
//! and thread count stays O(workers). All this file says about scheduling
//! is a fragment's `step`: output buffer full → `Blocked`, otherwise pull
//! one batch from the fragment and push it; the consumer's `next` pops a
//! batch and `wake`s the fragments. Parking, the quantum yield, panic and
//! cancel routing and reclaim-on-drop are the primitive's.
//!
//! **Stages before fragments.** A hash join inside the fragment probes a
//! build that is made once for all clones ([`SharedBuild`]): the build's
//! sinks ([`BuildSink`], one per clone, over the partitioned build input)
//! are tasks of this exchange too ([`Xchg::spawn_staged`]). Order is task
//! dependency, not waiting: a sink whose input probes another build, and
//! a fragment, report `Blocked` until the builds they probe are published,
//! and the sink that publishes wakes them (every task subscribes to the
//! builds it depends on before any of them runs). A failed build fails
//! its dependents with the same error, so it reaches the consumer the way
//! a fragment's own error does.
//!
//! Errors from any fragment surface on the consumer side. The exchange
//! keeps no counters: under `EXPLAIN ANALYZE` every clone of every
//! fragment operator is wrapped on its own, and how evenly the clones
//! shared the work is the `×k rows a..b time a..b` of their lines (see
//! [`crate::profile`]).

use super::hashjoin::{BuildSink, SharedBuild};
use super::{BoxedOp, Operator};
use crate::cancel::CancelToken;
use crate::vector::Batch;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use vw_common::{Result, Schema, VwError};
use vw_service::{CoopTask, Step, TaskHandle, WorkerPool};

/// What the fragments and the consumer share: a bounded deque of produced
/// batches and the count of fragments that have not ended yet.
struct Buffer {
    items: VecDeque<Result<Batch>>,
    live: usize,
}

struct Shared {
    m: Mutex<Buffer>,
    cv: Condvar,
    /// Fragments stop producing at this many buffered batches.
    cap: usize,
}

impl Shared {
    /// Push a fragment's next batch, or its last word — an error, or
    /// `None` for a clean end — and wake the consumer.
    fn push(&self, item: Option<Result<Batch>>) {
        let ended = !matches!(item, Some(Ok(_)));
        let mut st = self.m.lock().expect("xchg mutex poisoned");
        st.items.extend(item);
        if ended {
            st.live -= 1;
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// One plan-fragment clone as a pool task.
struct Fragment {
    part: BoxedOp,
    shared: Arc<Shared>,
    /// Builds the fragment probes, not yet seen published.
    deps: Vec<Arc<SharedBuild>>,
}

impl CoopTask for Fragment {
    fn step(&mut self) -> Result<Step> {
        if !SharedBuild::all_ready(&mut self.deps)? {
            return Ok(Step::Blocked);
        }
        let shared = &self.shared;
        if shared.m.lock().expect("xchg mutex poisoned").items.len() >= shared.cap {
            return Ok(Step::Blocked); // the consumer's next pop wakes us
        }
        Ok(match self.part.next()? {
            Some(batch) => {
                shared.push(Some(Ok(batch)));
                Step::Progress
            }
            None => {
                shared.push(None);
                Step::Done
            }
        })
    }

    fn fail(&mut self, err: VwError) {
        self.shared.push(Some(Err(err)));
    }
}

/// Exchange operator: merges the outputs of N pool-driven partitions.
pub struct Xchg {
    schema: Schema,
    shared: Arc<Shared>,
    /// The fragments' handles. Dropping them (stream end, first error, or
    /// the exchange itself going away) aborts and reclaims the fragments;
    /// the query-wide token is never cancelled from here.
    tasks: Vec<TaskHandle<Fragment>>,
    /// The sinks of the builds the fragments probe; same ownership.
    sinks: Vec<TaskHandle<BuildSink>>,
}

impl Xchg {
    /// Schedule one cooperative task per partition on the engine's shared
    /// worker pool. The output buffer holds at most 2 batches per
    /// partition (producers stay slightly ahead without unbounded
    /// buffering); fragments park on a full buffer and the consumer wakes
    /// them as it drains.
    pub fn spawn_on(
        pool: &Arc<WorkerPool>,
        partitions: Vec<BoxedOp>,
        query_cancel: CancelToken,
    ) -> Xchg {
        Xchg::spawn_staged(pool, Vec::new(), partitions, &[], query_cancel)
    }

    /// [`Xchg::spawn_on`] for fragments that probe shared hash builds:
    /// `sinks` are the sinks of every build made inside the exchange, and
    /// `deps` the builds the fragments themselves probe (the same for
    /// every clone). See the module docs for the ordering.
    pub fn spawn_staged(
        pool: &Arc<WorkerPool>,
        sinks: Vec<BuildSink>,
        partitions: Vec<BoxedOp>,
        deps: &[Arc<SharedBuild>],
        query_cancel: CancelToken,
    ) -> Xchg {
        assert!(!partitions.is_empty());
        let schema = partitions[0].schema().clone();
        let n_workers = partitions.len();
        let shared = Arc::new(Shared {
            m: Mutex::new(Buffer { items: VecDeque::new(), live: n_workers }),
            cv: Condvar::new(),
            cap: n_workers * 2,
        });
        let tasks: Vec<_> = partitions
            .into_iter()
            .map(|part| {
                let body = Fragment { part, shared: shared.clone(), deps: deps.to_vec() };
                let task = TaskHandle::new(pool, &query_cancel, "Xchg partition", body);
                deps.iter().for_each(|d| d.subscribe(task.waker()));
                task
            })
            .collect();
        let sinks: Vec<_> = sinks
            .into_iter()
            .map(|sink| {
                sink.runs_on(pool.workers());
                let subs: Vec<_> = sink.subscriptions().cloned().collect();
                let task = TaskHandle::new(pool, &query_cancel, "hash build sink", sink);
                subs.iter().for_each(|b| b.subscribe(task.waker()));
                task
            })
            .collect();
        // Everyone is subscribed: now they may run.
        sinks.iter().for_each(TaskHandle::wake);
        tasks.iter().for_each(TaskHandle::wake);
        Xchg { schema, shared, tasks, sinks }
    }

    /// The stream is over (drained or failed): reclaim the fragments —
    /// on an error this is what stops the siblings.
    fn close(&mut self) {
        self.tasks.clear();
        self.sinks.clear();
    }
}

impl Operator for Xchg {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "Xchg"
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.tasks.is_empty() {
            return Ok(None);
        }
        let item = {
            let mut st = self.shared.m.lock().expect("xchg mutex poisoned");
            loop {
                if let Some(item) = st.items.pop_front() {
                    break Some(item);
                }
                if st.live == 0 {
                    break None; // every fragment ended and was drained
                }
                // Fragments notify on every push; the timeout only bounds
                // staleness against a lost wakeup.
                let (guard, _) = self
                    .shared
                    .cv
                    .wait_timeout(st, Duration::from_millis(5))
                    .expect("xchg mutex poisoned");
                st = guard;
            }
        };
        match item {
            Some(Ok(batch)) => {
                // The pop made room: wake the fragments, outside the lock
                // (on a closed pool a wake runs the fragment right here).
                self.tasks.iter().for_each(TaskHandle::wake);
                Ok(Some(batch))
            }
            Some(Err(e)) => {
                self.close();
                Err(e)
            }
            None => {
                self.close();
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::drain;
    use crate::op::simple::Values;
    use vw_common::{Field, Schema, TypeId, Value};

    fn schema() -> Schema {
        Schema::new(vec![Field::not_null("v", TypeId::I64)]).unwrap()
    }

    /// A partition over `range` in 16-row batches that fails with
    /// `VwError::Exec("boom")` once `fail_at` rows were served.
    fn part(range: std::ops::Range<i64>, fail_at: Option<i64>) -> BoxedOp {
        struct Failing {
            inner: Values,
            fail_at: Option<i64>,
            seen: i64,
        }
        impl Operator for Failing {
            fn schema(&self) -> &Schema {
                self.inner.schema()
            }
            fn name(&self) -> &'static str {
                "Failing"
            }
            fn next(&mut self) -> Result<Option<Batch>> {
                if let Some(f) = self.fail_at {
                    if self.seen >= f {
                        return Err(VwError::Exec("boom".into()));
                    }
                }
                let b = self.inner.next()?;
                if let Some(b) = &b {
                    self.seen += b.rows() as i64;
                }
                Ok(b)
            }
        }
        let rows = range.map(|v| vec![Value::I64(v)]).collect();
        Box::new(Failing {
            inner: Values::new(schema(), rows, 16, CancelToken::new()),
            fail_at,
            seen: 0,
        })
    }

    /// A partition that serves `serve` two-row batches, then panics.
    fn panicking(serve: usize) -> BoxedOp {
        struct Panicking {
            schema: Schema,
            left: usize,
        }
        impl Operator for Panicking {
            fn schema(&self) -> &Schema {
                &self.schema
            }
            fn name(&self) -> &'static str {
                "Panicking"
            }
            fn next(&mut self) -> Result<Option<Batch>> {
                if self.left == 0 {
                    panic!("fragment exploded mid-stream");
                }
                self.left -= 1;
                let col = crate::vector::Vector::new(vw_common::ColData::I64(vec![1, 2]));
                Ok(Some(Batch::new(vec![col])))
            }
        }
        Box::new(Panicking { schema: schema(), left: serve })
    }

    /// Every scenario runs on a pool smaller than the plan (the acid test
    /// for non-blocking fragments: one worker drives them all) and on one
    /// as wide as the plan.
    fn on_pools(scenario: impl Fn(&Arc<WorkerPool>)) {
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            scenario(&pool);
            assert_eq!(pool.queued(), 0, "{workers} workers: fragments left on the pool");
            pool.shutdown();
        }
    }

    /// Drain `x` to its end; the error that ended it, if one did.
    fn run_to_end(x: &mut Xchg) -> Option<VwError> {
        loop {
            match x.next() {
                Ok(Some(_)) => {}
                Ok(None) => return None,
                Err(e) => return Some(e),
            }
        }
    }

    #[test]
    fn merges_all_partitions() {
        on_pools(|pool| {
            for bounds in [vec![0, 100, 250, 300], vec![0, 100, 250, 300, 1000]] {
                let total = *bounds.last().unwrap();
                let parts = bounds.windows(2).map(|w| part(w[0]..w[1], None)).collect();
                let mut x = Xchg::spawn_on(pool, parts, CancelToken::new());
                let out = drain(&mut x).unwrap();
                let mut vals: Vec<i64> = (0..out.rows())
                    .map(|i| match out.row_values(i)[0] {
                        Value::I64(v) => v,
                        _ => panic!(),
                    })
                    .collect();
                vals.sort_unstable();
                assert_eq!(vals, (0..total).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn fragment_error_and_panic_surface() {
        // Regression (panic): a panicking fragment used to end the stream
        // early with no error at the consumer.
        on_pools(|pool| {
            let cases: [(Vec<BoxedOp>, &str); 4] = [
                (vec![part(0..1000, None), part(0..1000, Some(32))], "boom"),
                (vec![part(0..100_000, None), part(0..1000, Some(32))], "boom"),
                (vec![panicking(2), part(0..64, None)], "exploded mid-stream"),
                (vec![panicking(0), part(0..64, None)], "panicked"),
            ];
            for (parts, needle) in cases {
                let mut x = Xchg::spawn_on(pool, parts, CancelToken::new());
                match run_to_end(&mut x) {
                    Some(VwError::Exec(msg)) => assert!(msg.contains(needle), "{msg}"),
                    other => panic!("expected an Exec error, got {other:?}"),
                }
                assert!(matches!(x.next(), Ok(None)), "a failed stream stays ended");
            }
        });
    }

    #[test]
    fn cancellation_stops_fragments() {
        on_pools(|pool| {
            let cancel = CancelToken::new();
            let parts = vec![part(0..1_000_000, None), part(0..1_000_000, None)];
            let mut x = Xchg::spawn_on(pool, parts, cancel.clone());
            x.next().unwrap();
            cancel.cancel();
            // Must terminate promptly with Cancelled or a clean
            // end-of-stream, never hang.
            match run_to_end(&mut x) {
                None | Some(VwError::Cancelled) => {}
                Some(e) => panic!("unexpected error {e}"),
            }
        });
    }

    #[test]
    fn drop_mid_stream_reclaims_fragments() {
        on_pools(|pool| {
            for n in [1, 4] {
                let parts: Vec<BoxedOp> =
                    (0..n).map(|i| part(i * 1_000_000..(i + 1) * 1_000_000, None)).collect();
                let mut x = Xchg::spawn_on(pool, parts, CancelToken::new());
                x.next().unwrap();
                // Let the fragments saturate the buffer and park.
                std::thread::sleep(Duration::from_millis(20));
                let t0 = std::time::Instant::now();
                drop(x);
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "drop must not wait for the full streams to drain"
                );
                assert_eq!(pool.queued(), 0);
            }
        });
    }

    #[test]
    fn interleaves_two_queries_on_one_worker() {
        // Two "queries" (exchanges) share a 1-worker pool: both must make
        // progress — the quantum yield prevents either from monopolizing
        // the worker until done.
        let pool = WorkerPool::new(1);
        let mut a = Xchg::spawn_on(&pool, vec![part(0..100_000, None)], CancelToken::new());
        let mut b = Xchg::spawn_on(&pool, vec![part(0..100_000, None)], CancelToken::new());
        let mut rows_a = 0;
        let mut rows_b = 0;
        // Alternate consumption; both streams must finish.
        loop {
            let ba = a.next().unwrap();
            let bb = b.next().unwrap();
            if let Some(batch) = &ba {
                rows_a += batch.rows();
            }
            if let Some(batch) = &bb {
                rows_b += batch.rows();
            }
            if ba.is_none() && bb.is_none() {
                break;
            }
        }
        assert_eq!(rows_a, 100_000);
        assert_eq!(rows_b, 100_000);
        pool.shutdown();
    }
}
