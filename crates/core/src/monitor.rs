//! System monitoring — the paper's "mundane" but mandatory work: event logging, query
//! listing, load/resource monitoring, and the kill switch behind query
//! cancellation.
//!
//! The event log is a bounded ring (capacity from
//! `EngineConfig::event_log_capacity`, adjustable at runtime via
//! `SET event_log_capacity`), so a long-lived session cannot grow it
//! without limit. `KILL` semantics and timeout states follow the failure
//! model in the repo-root ARCHITECTURE.md.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use vw_common::{Result, VwError};
use vw_exec::CancelToken;

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventLevel {
    /// Informational.
    Info,
    /// Something recoverable went wrong.
    Warn,
    /// A statement failed.
    Error,
}

/// One log event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Severity.
    pub level: EventLevel,
    /// Milliseconds since the monitor started.
    pub at_ms: u64,
    /// Message.
    pub message: String,
}

/// Lifecycle state of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryState {
    /// Waiting in the admission queue for a memory grant.
    Queued,
    /// Executing.
    Running,
    /// Finished successfully.
    Finished,
    /// Failed (message attached).
    Failed(String),
    /// Killed by `KILL`.
    Cancelled,
    /// Cancelled by its statement timeout.
    TimedOut,
}

/// Registry entry for one query.
#[derive(Debug, Clone)]
pub struct QueryInfo {
    /// Query id (KILL target).
    pub id: u64,
    /// Statement text (label).
    pub sql: String,
    /// Current state.
    pub state: QueryState,
    /// Wall-clock runtime so far / total.
    pub elapsed: Duration,
    /// Rows produced (when finished).
    pub rows: u64,
    /// Statement timeout this query runs under, if any.
    pub timeout: Option<Duration>,
    /// Session the query belongs to (0 = no session attribution).
    pub session: u64,
    /// Admission memory grant in bytes (0 until admitted / no governor).
    pub mem_grant: u64,
}

/// Activity state of a session, derived from its current query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// No statement in flight.
    Idle,
    /// Statement waiting in the admission queue.
    Queued,
    /// Statement executing.
    Running,
}

/// Registry entry for one session (`SHOW SESSIONS`).
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Session id.
    pub id: u64,
    /// Current activity.
    pub state: SessionState,
    /// The in-flight query's id, if any.
    pub query: Option<u64>,
    /// The in-flight query's admission grant in bytes.
    pub mem_grant: u64,
}

struct QuerySlot {
    info: QueryInfo,
    cancel: CancelToken,
    started: Instant,
}

/// Default ring-buffer capacity of the event log
/// (`EngineConfig::event_log_capacity` overrides it).
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// The monitoring subsystem: event log + query registry.
pub struct Monitor {
    epoch: Instant,
    events: Mutex<std::collections::VecDeque<Event>>,
    /// Ring bound; runtime-adjustable (`SET event_log_capacity`).
    event_capacity: AtomicUsize,
    queries: Mutex<HashMap<u64, QuerySlot>>,
    next_id: AtomicU64,
    /// Open sessions → the id of their most recent query (None = fresh).
    sessions: Mutex<HashMap<u64, Option<u64>>>,
    next_session: AtomicU64,
    total_queries: AtomicU64,
    total_failed: AtomicU64,
}

impl Default for Monitor {
    fn default() -> Self {
        Monitor::new()
    }
}

impl Monitor {
    /// Fresh monitor with the default event-log bound.
    pub fn new() -> Monitor {
        Monitor::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Fresh monitor whose event log holds at most `event_capacity`
    /// entries (clamped to >= 1).
    pub fn with_capacity(event_capacity: usize) -> Monitor {
        let cap = event_capacity.max(1);
        Monitor {
            epoch: Instant::now(),
            events: Mutex::new(std::collections::VecDeque::with_capacity(cap.min(1024))),
            event_capacity: AtomicUsize::new(cap),
            queries: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            total_queries: AtomicU64::new(0),
            total_failed: AtomicU64::new(0),
        }
    }

    /// Change the event-log bound at runtime (`SET event_log_capacity`);
    /// shrinking drops the oldest events immediately.
    pub fn set_event_capacity(&self, capacity: usize) {
        let cap = capacity.max(1);
        self.event_capacity.store(cap, Ordering::Relaxed);
        let mut ev = self.events.lock();
        while ev.len() > cap {
            ev.pop_front();
        }
    }

    /// The current event-log bound.
    pub fn event_capacity(&self) -> usize {
        self.event_capacity.load(Ordering::Relaxed)
    }

    /// Append an event (ring semantics: oldest dropped at capacity).
    pub fn log(&self, level: EventLevel, message: String) {
        let cap = self.event_capacity.load(Ordering::Relaxed);
        let mut ev = self.events.lock();
        while ev.len() >= cap {
            ev.pop_front();
        }
        ev.push_back(Event { level, at_ms: self.epoch.elapsed().as_millis() as u64, message });
    }

    /// Snapshot of recent events.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().iter().cloned().collect()
    }

    /// Register a statement; returns its id (the `KILL` target). `timeout`
    /// is the statement timeout it runs under (shown in the registry),
    /// `session` the session it belongs to (0 = none), and `queued` says
    /// it starts life waiting for an admission grant rather than running.
    pub fn register_query(
        &self,
        sql: &str,
        cancel: CancelToken,
        timeout: Option<Duration>,
        session: u64,
        queued: bool,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.total_queries.fetch_add(1, Ordering::Relaxed);
        self.queries.lock().insert(
            id,
            QuerySlot {
                info: QueryInfo {
                    id,
                    sql: sql.to_string(),
                    state: if queued { QueryState::Queued } else { QueryState::Running },
                    elapsed: Duration::ZERO,
                    rows: 0,
                    timeout,
                    session,
                    mem_grant: 0,
                },
                cancel,
                started: Instant::now(),
            },
        );
        if session != 0 {
            if let Some(slot) = self.sessions.lock().get_mut(&session) {
                *slot = Some(id);
            }
        }
        id
    }

    /// Transition a queued query to running once the admission controller
    /// hands it a memory grant of `grant` bytes. The elapsed clock
    /// restarts so `SHOW QUERIES` reports run time, not queue time.
    pub fn admit_query(&self, id: u64, grant: u64) {
        if let Some(slot) = self.queries.lock().get_mut(&id) {
            if slot.info.state == QueryState::Queued {
                slot.info.state = QueryState::Running;
                slot.started = Instant::now();
            }
            slot.info.mem_grant = grant;
        }
    }

    /// Mark a query finished.
    pub fn finish_query(&self, id: u64, rows: u64) {
        if let Some(slot) = self.queries.lock().get_mut(&id) {
            if slot.info.state == QueryState::Running {
                slot.info.state = QueryState::Finished;
            }
            slot.info.rows = rows;
            slot.info.elapsed = slot.started.elapsed();
        }
    }

    /// Mark a query failed. A `Cancelled` error maps to `Cancelled` or
    /// `TimedOut` depending on whether the query's token was tripped by
    /// its statement deadline.
    pub fn fail_query(&self, id: u64, err: &VwError) {
        self.total_failed.fetch_add(1, Ordering::Relaxed);
        let mut timed_out = false;
        let mut q = self.queries.lock();
        if let Some(slot) = q.get_mut(&id) {
            slot.info.state = if matches!(err, VwError::Cancelled) {
                if slot.cancel.timed_out() {
                    timed_out = true;
                    QueryState::TimedOut
                } else {
                    QueryState::Cancelled
                }
            } else {
                QueryState::Failed(err.code().to_string())
            };
            slot.info.elapsed = slot.started.elapsed();
        }
        drop(q);
        if timed_out {
            self.log(EventLevel::Error, format!("query {id} failed: statement timeout ({err})"));
        } else {
            self.log(EventLevel::Error, format!("query {id} failed: {err}"));
        }
    }

    /// Cancel a running (or admission-queued — the cancelled token makes
    /// the waiter dequeue itself) query. `KILL` of an unknown id or of a
    /// query that already reached a terminal state is a clean `Exec`
    /// error — the race between a KILL landing and the query finishing
    /// must surface as a typed error, never a silent no-op.
    pub fn kill(&self, id: u64) -> Result<()> {
        let q = self.queries.lock();
        let slot =
            q.get(&id).ok_or_else(|| VwError::Exec(format!("KILL: no query with id {id}")))?;
        if !matches!(slot.info.state, QueryState::Running | QueryState::Queued) {
            return Err(VwError::Exec(format!(
                "KILL: query {id} is not running (state {:?})",
                slot.info.state
            )));
        }
        slot.cancel.cancel();
        Ok(())
    }

    /// Cancel every non-terminal query (engine shutdown).
    pub fn kill_all(&self) {
        for slot in self.queries.lock().values() {
            if matches!(slot.info.state, QueryState::Running | QueryState::Queued) {
                slot.cancel.cancel();
            }
        }
    }

    /// Open a session slot; returns its id (never 0).
    pub fn register_session(&self) -> u64 {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.sessions.lock().insert(id, None);
        id
    }

    /// Close a session slot (its past queries stay in the registry).
    pub fn close_session(&self, id: u64) {
        self.sessions.lock().remove(&id);
    }

    /// List open sessions in id order — the `SHOW SESSIONS` equivalent.
    /// Each session's activity is derived from its most recent query:
    /// a non-terminal query makes the session `Queued`/`Running` and
    /// carries that query's admission grant; otherwise the session is
    /// idle.
    pub fn list_sessions(&self) -> Vec<SessionInfo> {
        let sessions = self.sessions.lock();
        let queries = self.queries.lock();
        let mut out: Vec<SessionInfo> = sessions
            .iter()
            .map(|(&id, &query)| {
                let live = query.and_then(|q| queries.get(&q)).and_then(|s| match s.info.state {
                    QueryState::Queued => Some((s.info.id, SessionState::Queued, s.info.mem_grant)),
                    QueryState::Running => {
                        Some((s.info.id, SessionState::Running, s.info.mem_grant))
                    }
                    _ => None,
                });
                match live {
                    Some((q, state, grant)) => {
                        SessionInfo { id, state, query: Some(q), mem_grant: grant }
                    }
                    None => {
                        SessionInfo { id, state: SessionState::Idle, query: None, mem_grant: 0 }
                    }
                }
            })
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// List queries (most recent first), the `SHOW QUERIES` equivalent.
    pub fn list_queries(&self) -> Vec<QueryInfo> {
        let q = self.queries.lock();
        let mut out: Vec<QueryInfo> = q
            .values()
            .map(|s| {
                let mut info = s.info.clone();
                if info.state == QueryState::Running {
                    info.elapsed = s.started.elapsed();
                }
                info
            })
            .collect();
        out.sort_by_key(|i| std::cmp::Reverse(i.id));
        out
    }

    /// (total queries, failed queries) counters.
    pub fn totals(&self) -> (u64, u64) {
        (self.total_queries.load(Ordering::Relaxed), self.total_failed.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_rings() {
        let m = Monitor::new();
        for i in 0..(DEFAULT_EVENT_CAPACITY + 10) {
            m.log(EventLevel::Info, format!("e{i}"));
        }
        let ev = m.events();
        assert_eq!(ev.len(), DEFAULT_EVENT_CAPACITY);
        assert_eq!(ev[0].message, "e10");
    }

    #[test]
    fn event_log_capacity_is_configurable_and_shrinkable() {
        let m = Monitor::with_capacity(8);
        assert_eq!(m.event_capacity(), 8);
        for i in 0..100 {
            m.log(EventLevel::Info, format!("e{i}"));
        }
        let ev = m.events();
        assert_eq!(ev.len(), 8, "configured bound held");
        assert_eq!(ev[0].message, "e92");
        // Shrinking drops the oldest immediately.
        m.set_event_capacity(3);
        assert_eq!(m.events().len(), 3);
        assert_eq!(m.events()[0].message, "e97");
        // Growing allows the ring to fill further.
        m.set_event_capacity(5);
        m.log(EventLevel::Info, "x1".into());
        m.log(EventLevel::Info, "x2".into());
        assert_eq!(m.events().len(), 5);
        // Zero clamps to one (a disabled log would lose failure events).
        m.set_event_capacity(0);
        assert_eq!(m.event_capacity(), 1);
        m.log(EventLevel::Info, "y".into());
        assert_eq!(m.events().len(), 1);
    }

    #[test]
    fn query_lifecycle() {
        let m = Monitor::new();
        let t = CancelToken::new();
        let id = m.register_query("SELECT 1", t.clone(), None, 0, false);
        assert_eq!(m.list_queries()[0].state, QueryState::Running);
        assert_eq!(m.list_queries()[0].timeout, None);
        m.finish_query(id, 42);
        let info = &m.list_queries()[0];
        assert_eq!(info.state, QueryState::Finished);
        assert_eq!(info.rows, 42);
        assert_eq!(m.totals(), (1, 0));
    }

    #[test]
    fn kill_sets_token() {
        let m = Monitor::new();
        let t = CancelToken::new();
        let id = m.register_query("SELECT long", t.clone(), None, 0, false);
        m.kill(id).unwrap();
        assert!(t.is_cancelled());
        m.fail_query(id, &VwError::Cancelled);
        assert_eq!(m.list_queries()[0].state, QueryState::Cancelled);
        assert!(m.kill(999).is_err());
    }

    #[test]
    fn kill_of_finished_or_unknown_query_is_a_clean_exec_error() {
        let m = Monitor::new();
        let t = CancelToken::new();
        let id = m.register_query("SELECT 1", t.clone(), None, 0, false);
        m.finish_query(id, 1);
        // KILL raced with completion: typed error, state untouched, token
        // never tripped.
        let err = m.kill(id).unwrap_err();
        assert!(matches!(err, VwError::Exec(_)), "finished: {err}");
        assert_eq!(m.list_queries()[0].state, QueryState::Finished);
        assert!(!t.is_cancelled());
        let err = m.kill(424242).unwrap_err();
        assert!(matches!(err, VwError::Exec(_)), "unknown: {err}");
    }

    #[test]
    fn timeout_cancellation_maps_to_timed_out_state() {
        use std::time::Instant;
        let m = Monitor::new();
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_millis(5));
        let timer = vw_service::DeadlineQueue::new();
        let guard = timer.register(&t).unwrap();
        let id =
            m.register_query("SELECT slow", t.clone(), Some(Duration::from_millis(5)), 0, false);
        assert_eq!(m.list_queries()[0].timeout, Some(Duration::from_millis(5)));
        while !t.is_cancelled() {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(guard);
        m.fail_query(id, &VwError::Cancelled);
        assert_eq!(m.list_queries()[0].state, QueryState::TimedOut);
        assert!(m.events().iter().any(|e| e.message.contains("statement timeout")));
    }

    #[test]
    fn session_registry_derives_state_from_current_query() {
        let m = Monitor::new();
        let s1 = m.register_session();
        let s2 = m.register_session();
        assert_ne!(s1, 0, "session ids never collide with 'no session'");
        let sessions = m.list_sessions();
        assert_eq!(sessions.len(), 2);
        assert!(sessions.iter().all(|s| s.state == SessionState::Idle && s.query.is_none()));

        // A queued query marks its session Queued; admission flips it to
        // Running and records the grant.
        let t = CancelToken::new();
        let q = m.register_query("SELECT 1", t, None, s1, true);
        let info = m.list_sessions().into_iter().find(|s| s.id == s1).unwrap();
        assert_eq!(info.state, SessionState::Queued);
        assert_eq!(info.query, Some(q));
        m.admit_query(q, 4096);
        let info = m.list_sessions().into_iter().find(|s| s.id == s1).unwrap();
        assert_eq!(info.state, SessionState::Running);
        assert_eq!(info.mem_grant, 4096);
        assert_eq!(m.list_queries().iter().find(|i| i.id == q).unwrap().session, s1);

        // Completion returns the session to Idle; closing removes it.
        m.finish_query(q, 1);
        let info = m.list_sessions().into_iter().find(|s| s.id == s1).unwrap();
        assert_eq!(info.state, SessionState::Idle);
        assert_eq!(info.mem_grant, 0);
        m.close_session(s2);
        assert_eq!(m.list_sessions().len(), 1);
    }

    #[test]
    fn kill_reaches_admission_queued_queries() {
        let m = Monitor::new();
        let t = CancelToken::new();
        let id = m.register_query("SELECT big", t.clone(), None, 0, true);
        assert_eq!(m.list_queries()[0].state, QueryState::Queued);
        m.kill(id).unwrap();
        assert!(t.is_cancelled(), "KILL must reach a query waiting for admission");
        m.fail_query(id, &VwError::Cancelled);
        assert_eq!(m.list_queries()[0].state, QueryState::Cancelled);
    }

    #[test]
    fn failures_logged() {
        let m = Monitor::new();
        let id = m.register_query("SELECT 1/0", CancelToken::new(), None, 0, false);
        m.fail_query(id, &VwError::DivideByZero);
        assert!(m.events().iter().any(|e| e.message.contains("E_DIV_ZERO")));
        assert_eq!(m.totals().1, 1);
    }
}
