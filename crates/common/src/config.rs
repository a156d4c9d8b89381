//! Engine-wide tuning knobs, threaded from `Database` down to the
//! operators. Kernel-level strawmen and reference paths (branchy NULLs,
//! unchecked arithmetic, inflate-at-scan) are not knobs: they live in
//! benches and test modules. Nor is the per-tuple expression reference
//! (`PhysExpr::eval_tuple`), which no operator calls.
//!
//! The repo-root `ARCHITECTURE.md` ("Knobs") tabulates every field with
//! its SET name (when it has one), default, and env override — a test
//! holds that table against `SET`; the rustdoc on each field below is
//! the authoritative description.

/// Deterministic fault-injection knobs for the simulated block device
/// (`vw-storage::disk`). All-zero (the default) means **no machinery is
/// constructed at all**: the disk carries one relaxed atomic-bool gate and
/// nothing else, so the fault-free hot path is unchanged.
///
/// Probabilities are per-operation in `0.0..=1.0`; the injector is seeded,
/// so a given (seed, operation sequence) always produces the same faults.
/// Env overrides (read by [`EngineConfig::default`], like `VW_DOP`):
///
/// * `VW_FAULT_SEED` — injector seed (default `0xF0A17`),
/// * `VW_FAULT_IO_ERR` — sets both `read_err` and `write_err`.
///
/// The other faults are armed in code (`EngineConfig::with_faults`), as
/// the chaos and robustness suites do.
///
/// See ARCHITECTURE.md ("Failure model") for the retry policy these faults
/// are surfaced through.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the injector's deterministic RNG.
    pub seed: u64,
    /// Probability a read fails with a transient [`VwError::Io`].
    ///
    /// [`VwError::Io`]: crate::VwError::Io
    pub read_err: f64,
    /// Probability a write fails with a transient [`VwError::Io`].
    ///
    /// [`VwError::Io`]: crate::VwError::Io
    pub write_err: f64,
    /// Probability a read returns corrupted bytes (a flipped bit or a
    /// truncated payload) instead of failing. Detected by block
    /// verification in the buffer pool / spill reader and retried.
    pub corrupt: f64,
    /// Extra latency charged on every operation while faults are armed
    /// (models a degrading device).
    pub latency_us: u64,
    /// Fail the Nth write (1-based, counted across the device lifetime)
    /// with a *terminal* [`VwError::Io`] that no retry absorbs.
    ///
    /// [`VwError::Io`]: crate::VwError::Io
    pub fail_nth_write: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xF0A17,
            read_err: 0.0,
            write_err: 0.0,
            corrupt: 0.0,
            latency_us: 0,
            fail_nth_write: None,
        }
    }
}

impl FaultConfig {
    /// True when any fault is configured; an inactive config arms nothing.
    pub fn is_active(&self) -> bool {
        self.read_err > 0.0
            || self.write_err > 0.0
            || self.corrupt > 0.0
            || self.latency_us > 0
            || self.fail_nth_write.is_some()
    }

    /// Read the `VW_FAULT_*` env overrides (all unset = inactive).
    fn from_env() -> FaultConfig {
        let io_err = env_f64("VW_FAULT_IO_ERR").unwrap_or(0.0).clamp(0.0, 1.0);
        FaultConfig {
            seed: env_u64("VW_FAULT_SEED").unwrap_or(0xF0A17),
            read_err: io_err,
            write_err: io_err,
            ..FaultConfig::default()
        }
    }
}

/// Largest `parallelism` a session can ask for (`SET parallelism`,
/// `VW_DOP`): Exchange lowering compiles that many fragment clones and
/// sizes its buffer by it, and [`EngineConfig::build_partitions`] stops
/// at the same figure.
pub const MAX_PARALLELISM: usize = 1 << 10;

/// Largest `vector_size` a session can ask for (`SET vector_size`,
/// [`EngineConfig::with_vector_size`]). Every operator output batch is
/// allocated eagerly at `vector_size` values per column and a pipeline's
/// `BatchPool` keeps up to 32 of them, so the figure is a memory bound
/// before it is anything else: 2^20 values is 8 MiB per BIGINT column per
/// batch — 64 packs of the default size, a thousand times the default
/// vector — and stays far inside the `u32` lane positions of a `SelVec`.
pub const MAX_VECTOR_SIZE: usize = 1 << 20;

/// Tuning knobs for one engine instance.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Values per vector in the X100 kernel (the C1 sweep parameter),
    /// `1..=`[`MAX_VECTOR_SIZE`].
    pub vector_size: usize,
    /// Buffer pool capacity in bytes for the storage layer.
    pub buffer_pool_bytes: usize,
    /// Default degree of parallelism the rewriter targets when inserting
    /// exchange (Xchg) operators, and from which a governed hash build
    /// derives its spill fan-out ([`EngineConfig::build_partitions`]).
    /// 1 disables parallelization.
    pub parallelism: usize,
    /// Rows per morsel claim from a scan's shared work dispenser
    /// (`vw-exec::morsel::MorselSource`). Exchange workers pull claims of
    /// this size until the image is dry, so run-time claims replace the
    /// old plan-time static row ranges and skewed work rebalances itself.
    /// Smaller morsels balance better but claim more often; the default
    /// (16Ki rows) makes claim overhead invisible while still splitting a
    /// skewed scan into many claims per worker. SET-able
    /// (`SET morsel_rows = n`), `VW_MORSEL_ROWS` env override (like
    /// `VW_DOP`, so CI can force many-morsel scheduling through the whole
    /// suite).
    pub morsel_rows: usize,
    /// Per-query memory budget in bytes for hash build state (join build
    /// sides, aggregation groups). `0` = unlimited: nothing is charged and
    /// nothing can overflow. A non-zero budget changes no build: each is
    /// built as without it and charges a shared `MemBudget` one number,
    /// the bytes it holds resident (`vw-exec::partition`). The first time
    /// the query is over budget while a build holds resident rows, that
    /// build overflows to disk as a whole through a routed spill — one
    /// temp file per radix partition — and finishes from there (a join's
    /// probe rows routed the same way, each partition pair rehydrated and
    /// joined with the in-memory kernels, an aggregate's partial states
    /// re-aggregated per partition, re-partitioning on the next hash-bit
    /// stratum if a partition still does not fit). SET-able
    /// (`SET mem_budget = n`),
    /// `VW_MEM_BUDGET` env override (like `VW_DOP`, so CI can force spills
    /// through the whole suite). See ARCHITECTURE.md ("Hash builds",
    /// "Knobs").
    pub mem_budget_bytes: usize,
    /// Rows per storage pack (the compression granule).
    pub pack_size: usize,
    /// Per-statement timeout in milliseconds; `0` disables timeouts and
    /// constructs none of the deadline state (nothing registered with the
    /// timer, no clock reads in `CancelToken::check`). When non-zero,
    /// every monitored statement — SELECT, UPDATE, DELETE — carries a
    /// deadline in its cancel token and the engine's one timer thread
    /// (`vw-service::timer::DeadlineQueue`) fires `Cancelled` at expiry
    /// (registry shows `TimedOut`). SET-able
    /// (`SET statement_timeout = ms`).
    pub statement_timeout_ms: u64,
    /// Ring-buffer capacity of the monitor's event log (oldest events drop
    /// at capacity, so long-lived sessions cannot grow it without bound).
    /// SET-able (`SET event_log_capacity = n`, applied immediately).
    pub event_log_capacity: usize,
    /// Size of the engine's **fixed global worker pool** (`vw-service`):
    /// parallel plan fragments from *all* concurrent queries are scheduled
    /// as tasks onto these `workers` threads, so total engine thread count
    /// stays O(workers) instead of O(queries × DOP). `0` resolves to the
    /// core count at `Database::open`. Fixed for the life of the engine
    /// (the pool cannot be resized under running queries) — `VW_WORKERS`
    /// env override, not SET-able.
    pub workers: usize,
    /// Global query-memory limit in bytes partitioned across admitted
    /// queries by the admission controller (`vw-service::admission`).
    /// `0` = no admission control at all — no controller is constructed,
    /// queries run immediately with their per-query `mem_budget`. When
    /// non-zero, each statement must be admitted before executing: its
    /// grant (its `mem_budget`, or `global / workers` when unlimited) is
    /// carved out of this limit, overflow waits in a bounded FIFO queue,
    /// and the sum of grants never exceeds the limit. Fixed at open —
    /// `VW_GLOBAL_MEM` env override, not SET-able.
    pub global_mem_bytes: u64,
    /// Bound on the admission controller's FIFO queue of *waiting*
    /// queries; arrivals beyond it are rejected with the typed
    /// `E_ADMISSION` error instead of queueing without bound. SET-able
    /// (`SET admission_queue_depth = n`, applied immediately); only
    /// meaningful when `global_mem_bytes` is non-zero.
    pub admission_queue_depth: usize,
    /// Deterministic fault injection for the simulated device (inactive by
    /// default; see [`FaultConfig`] for the `VW_FAULT_*` env overrides).
    pub faults: FaultConfig,
    /// Let the optimizer read table statistics (distinct counts,
    /// histograms). `false` plans as if none existed: the same pass list
    /// runs over schemas and row counts only, exactly as it does when DML
    /// has left the statistics stale — for plan triage when statistics
    /// mislead the cost model, and as a differential-testing lane (a
    /// missing statistic may change plan shape, never answers). SET-able
    /// (`SET optimizer = 0/1`). See ARCHITECTURE.md ("The optimizer").
    pub optimizer: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        // `VW_DOP` overrides the default so CI can run the whole test
        // suite through the parallel (Xchg + shared-build) code paths
        // without touching every test.
        let parallelism = env_usize("VW_DOP").unwrap_or(1).clamp(1, MAX_PARALLELISM);
        let morsel_rows = env_usize("VW_MORSEL_ROWS").unwrap_or(16 * 1024).max(1);
        let mem_budget_bytes = env_usize("VW_MEM_BUDGET").unwrap_or(0);
        let workers = env_usize("VW_WORKERS").unwrap_or(0);
        let global_mem_bytes = env_u64("VW_GLOBAL_MEM").unwrap_or(0);
        EngineConfig {
            vector_size: crate::DEFAULT_VECTOR_SIZE,
            buffer_pool_bytes: 64 << 20,
            parallelism,
            morsel_rows,
            mem_budget_bytes,
            pack_size: 16 * 1024,
            statement_timeout_ms: 0,
            event_log_capacity: 1024,
            workers,
            global_mem_bytes,
            admission_queue_depth: 16,
            faults: FaultConfig::from_env(),
            optimizer: true,
        }
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

impl EngineConfig {
    /// Override the vector size (builder style).
    pub fn with_vector_size(mut self, n: usize) -> Self {
        assert!(
            (1..=MAX_VECTOR_SIZE).contains(&n),
            "vector size must be between 1 and {MAX_VECTOR_SIZE}"
        );
        self.vector_size = n;
        self
    }

    /// Override the parallelism target (builder style).
    pub fn with_parallelism(mut self, n: usize) -> Self {
        assert!(n > 0, "parallelism must be positive");
        self.parallelism = n;
        self
    }

    /// Override the morsel size (builder style).
    pub fn with_morsel_rows(mut self, n: usize) -> Self {
        assert!(n > 0, "morsel_rows must be positive");
        self.morsel_rows = n;
        self
    }

    /// Override the per-query memory budget (builder style; 0 = unlimited).
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget_bytes = bytes;
        self
    }

    /// Override the fault-injection config (builder style).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Override the statement timeout (builder style; 0 = no timeout).
    pub fn with_statement_timeout_ms(mut self, ms: u64) -> Self {
        self.statement_timeout_ms = ms;
        self
    }

    /// Override the worker-pool size (builder style; 0 = core count).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Override the global admission memory limit (builder style;
    /// 0 = admission control off).
    pub fn with_global_mem(mut self, bytes: u64) -> Self {
        self.global_mem_bytes = bytes;
        self
    }

    /// Override the admission queue depth (builder style).
    pub fn with_admission_queue_depth(mut self, depth: usize) -> Self {
        self.admission_queue_depth = depth;
        self
    }

    /// The worker-pool size this config resolves to: the explicit
    /// `workers` override, or the machine's core count.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }

    /// Radix partitions per stratum of a governed hash build's spills
    /// (`vw-core::compile` raises it to at least 8):
    /// `next_pow2(parallelism)`, capped at 2^10 — beyond that the scatter
    /// cost dwarfs any locality win.
    pub fn build_partitions(&self) -> usize {
        self.parallelism.next_power_of_two().min(MAX_PARALLELISM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides() {
        assert_eq!(EngineConfig::default().vector_size, 1024);
        let c = EngineConfig::default().with_vector_size(64).with_parallelism(4);
        assert_eq!(c.vector_size, 64);
        assert_eq!(c.parallelism, 4);
    }

    #[test]
    #[should_panic]
    fn zero_vector_size_rejected() {
        let _ = EngineConfig::default().with_vector_size(0);
    }

    #[test]
    #[should_panic]
    fn vector_size_past_the_bound_rejected() {
        let _ = EngineConfig::default().with_vector_size(MAX_VECTOR_SIZE + 1);
    }

    #[test]
    fn morsel_rows_default_and_builder() {
        let c = EngineConfig::default();
        assert!(c.morsel_rows >= 1);
        let c = c.with_morsel_rows(64);
        assert_eq!(c.morsel_rows, 64);
    }

    #[test]
    fn mem_budget_defaults_unlimited_and_overrides() {
        let c = EngineConfig::default();
        // Default (no VW_MEM_BUDGET in the test env): unlimited.
        if std::env::var("VW_MEM_BUDGET").is_err() {
            assert_eq!(c.mem_budget_bytes, 0);
        }
        assert_eq!(c.with_mem_budget(1 << 20).mem_budget_bytes, 1 << 20);
    }

    #[test]
    fn fault_config_default_is_inactive() {
        let f = FaultConfig::default();
        assert!(!f.is_active(), "default faults must construct no machinery");
        assert!(FaultConfig { read_err: 0.01, ..Default::default() }.is_active());
        assert!(FaultConfig { latency_us: 5, ..Default::default() }.is_active());
        assert!(FaultConfig { fail_nth_write: Some(3), ..Default::default() }.is_active());
        // Engine default is inactive unless VW_FAULT_IO_ERR is exported.
        if std::env::var("VW_FAULT_IO_ERR").is_err() {
            assert!(!EngineConfig::default().faults.is_active());
        }
    }

    #[test]
    fn timeout_and_event_log_defaults() {
        let c = EngineConfig::default();
        assert_eq!(c.statement_timeout_ms, 0, "no timeout by default");
        assert_eq!(c.event_log_capacity, 1024);
        assert_eq!(c.with_statement_timeout_ms(250).statement_timeout_ms, 250);
    }

    #[test]
    fn service_knob_defaults_and_builders() {
        let c = EngineConfig::default();
        if std::env::var("VW_WORKERS").is_err() {
            assert_eq!(c.workers, 0, "default pool size derives from the core count");
        }
        assert!(c.resolved_workers() >= 1);
        if std::env::var("VW_GLOBAL_MEM").is_err() {
            assert_eq!(c.global_mem_bytes, 0, "admission control off by default");
        }
        assert_eq!(c.admission_queue_depth, 16);
        let c = c.with_workers(3).with_global_mem(1 << 20).with_admission_queue_depth(2);
        assert_eq!(c.resolved_workers(), 3);
        assert_eq!(c.global_mem_bytes, 1 << 20);
        assert_eq!(c.admission_queue_depth, 2);
    }

    #[test]
    fn optimizer_reads_statistics_by_default() {
        assert!(EngineConfig::default().optimizer, "no env override turns statistics off");
    }

    #[test]
    fn build_partitions_derives_from_dop() {
        let c = EngineConfig::default();
        assert_eq!(c.clone().with_parallelism(1).build_partitions(), 1);
        assert_eq!(c.clone().with_parallelism(3).build_partitions(), 4, "next_pow2(dop)");
        assert_eq!(c.with_parallelism(5000).build_partitions(), 1024, "capped at 2^10");
        // Whatever `VW_DOP` this process runs under, the default is in range.
        assert!((1..=MAX_PARALLELISM).contains(&EngineConfig::default().parallelism));
    }
}
