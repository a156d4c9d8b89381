//! Per-operator profiling counters, feeding the monitoring subsystem.
//!
//! The paper lists "system monitoring" among the mundane-but-mandatory
//! work: event logging, load and resource monitoring, query listing. The
//! execution side of that is one [`OpProfile`] per operator, updated once
//! per `next()` call (vector granularity keeps the overhead negligible —
//! benchmark C11 quantifies it).
//!
//! # The `EXPLAIN ANALYZE` table, column by column
//!
//! [`QueryProfile::render`] formats one row per operator (indented by plan
//! depth). Every column, what it counts, and what a bad value smells like:
//!
//! | column    | meaning | healthy / suspicious |
//! |-----------|---------|----------------------|
//! | `calls`   | `next()` invocations that returned a batch ([`OpProfile::invocations`]). | ≈ `rows / vector_size`; far higher means many empty probe batches. |
//! | `rows`    | live rows across all returned batches ([`OpProfile::rows_out`]). | — |
//! | `est`     | the optimizer's estimated output rows for this operator ([`OpProfile::est_rows`]), filled at compile time from the cost model the statement planned with (default selectivities where statistics are stale or `SET optimizer = 0`); `-` when the operator has no plan-node counterpart. | compare with `rows`: a large ratio either way marks the estimate that misled join ordering or build-side choice — rebuild statistics (CHECKPOINT) if DML left them stale. |
//! | `time`    | wall time inside this operator's `next()` plus internal phases like hash build ([`OpProfile::time`]); children measured separately. | — |
//! | `chain`   | average hash-chain entries visited per probed key ([`OpProfile::avg_chain_len`]); `-` for operators without a probe phase. | near 1.00 is healthy; growth signals a clustered hash or under-sized directory. |
//! | `progs`   | compiled expression programs executed, one per expression per batch ([`OpProfile::expr_programs`]). | — |
//! | `prims`   | primitive instructions those programs dispatched ([`OpProfile::expr_instrs`]); `prims / progs` is the program length after constant folding and CSE. | a jump after a plan change means folding stopped firing. |
//! | `shards`  | radix partitions of a hash build as `P×skew` where skew is build-row `max/mean` across shards ([`OpProfile::shard_skew`]); `-` for a one-shard build (nothing to skew) and for partitions that were all evicted (they report under `spill`). | skew near 1.00; ≫ 1 means a clustered radix split. |
//! | `morsels` | morsel claims: scans show their claim count; exchanges show `total×balance` where balance is per-worker `max/mean` ([`OpProfile::morsel_balance`]). | balance near 1.00; toward `DOP` means one worker dragged the fragment. |
//! | `pool%`   | batch-pool hit rate ([`OpProfile::batch_pool_hit_rate`]): output-batch leases served from the recycled free list. | steady state should sit near 100%; low means the consumer isn't recycling. |
//! | `spill`   | grace-spill traffic as `Pp written/read` — partitions spilled (all strata) and encoded spill bytes written and read back ([`OpProfile::spill_partitions`], [`OpProfile::spill_bytes_written`], [`OpProfile::spill_bytes_read`]); `-` when the build stayed in memory. | any value at all means the query ran over `mem_budget`; read ≫ written means deep re-partitioning recursion. |
//! | `ioretry` | transient device faults absorbed by the retry policy during this operator's reads ([`OpProfile::io_retries`]); `-` when no retries happened (always, unless faults are armed — see ARCHITECTURE.md "Failure model"). | nonzero only under fault injection; sustained growth means the injected fault rate is near the retry budget. |
//! | `enc`     | compressed execution: batches processed still carrying encoded columns vs fully inflated, as `E/F` ([`OpProfile::enc_batches`], [`OpProfile::flat_batches`]), plus `+N` rows decided wholesale at the run/dictionary-code level without per-row work ([`OpProfile::enc_skipped`]); `-` when the operator never saw a batch. | `0/F` on a dictionary scan means the encoded path fell back — check for per-pack dictionary mismatches or an operator that forces early materialization. |
//! | `dedup`   | set-operation rows eliminated by the hash pass ([`OpProfile::setop_dropped`]): duplicates removed by UNION/INTERSECT, or rows subtracted by EXCEPT; `-` for operators that never deduplicate. | `rows + dedup` is the operator's input traffic; `dedup ≫ rows` means the query is mostly duplicate elimination — consider UNION ALL if duplicates are acceptable. |

use std::time::{Duration, Instant};

/// Counters for one operator instance.
#[derive(Debug, Default, Clone)]
pub struct OpProfile {
    /// Operator display name (e.g. `HashJoin`).
    pub name: &'static str,
    /// `next()` invocations.
    pub invocations: u64,
    /// Rows produced (live rows across all returned batches).
    pub rows_out: u64,
    /// The optimizer's estimated output rows, stamped at compile time by
    /// the planner (`None` when the operator has no logical-plan
    /// counterpart). Comparing against
    /// [`rows_out`](OpProfile::rows_out) is the estimate-quality
    /// observable.
    pub est_rows: Option<u64>,
    /// Wall time spent inside this operator's `next()` (excluding children
    /// when wrapped individually).
    pub time: Duration,
    /// Keys probed against a hash table (join probe rows / aggregation
    /// input rows). Zero for operators without a probe phase.
    pub probe_rows: u64,
    /// Total hash-chain entries visited while probing. The ratio
    /// `probe_chain_steps / probe_rows` is the average chain length — the
    /// observable that catches hash-layout regressions (a degraded
    /// directory or clustered hash function shows up here long before it
    /// shows up in wall time).
    pub probe_chain_steps: u64,
    /// Compiled expression programs executed (one per expression per
    /// batch). Zero for operators that evaluate no expressions.
    pub expr_programs: u64,
    /// Primitive instructions dispatched by those programs. The ratio
    /// `expr_instrs / expr_programs` is the program length — a direct view
    /// of how much work compile-time folding and CSE removed.
    pub expr_instrs: u64,
    /// Build rows owned by each radix partition of a hash build (one
    /// entry for an unpartitioned build). Skew across shards is the
    /// observable that catches a clustered radix split.
    pub shard_build_rows: Vec<u64>,
    /// Keys probed against each shard's table (partition-wise probing).
    pub shard_probe_rows: Vec<u64>,
    /// Chain entries visited per shard while probing.
    pub shard_probe_steps: Vec<u64>,
    /// Morsels claimed from a shared [`MorselSource`](crate::morsel) by
    /// this operator (scans). Zero for operators that do not claim work.
    pub morsels: u64,
    /// Morsels claimed per worker of an exchange fragment (filled by
    /// `Xchg` from the fragment's dispensers when the stream completes).
    /// The max/mean ratio is the scheduling-balance observable: static
    /// ranges under skew collapse it toward `DOP`; morsel claims keep it
    /// near 1.
    pub worker_morsels: Vec<u64>,
    /// Output-batch leases served from the recycled free list.
    pub batch_pool_hits: u64,
    /// Output-batch leases that had to allocate fresh vectors.
    pub batch_pool_misses: u64,
    /// Grace-spill: partitions that spilled at least one chunk, across
    /// all recursion strata of this operator's spill cascade. Zero means
    /// the build stayed within `mem_budget` (or none was set).
    pub spill_partitions: u64,
    /// Grace-spill: encoded bytes written to temp spill files.
    pub spill_bytes_written: u64,
    /// Grace-spill: encoded bytes read back while rehydrating spilled
    /// partitions. Substantially more than `spill_bytes_written` means
    /// partitions were re-partitioned (written and read again) on deeper
    /// hash-bit strata.
    pub spill_bytes_read: u64,
    /// Transient device faults absorbed by the bounded retry policy
    /// (`vw_storage::disk::retry_io`) during this operator's I/O. Always
    /// zero unless fault injection is armed.
    pub io_retries: u64,
    /// Compressed execution: batches this operator processed that still
    /// carried at least one encoded column (dict codes / RLE sidecar).
    pub enc_batches: u64,
    /// Batches processed fully inflated. `enc + flat` is the operator's
    /// batch traffic on the compressed-execution observable.
    pub flat_batches: u64,
    /// Rows decided wholesale at the encoding level — whole RLE runs
    /// accepted/rejected and dictionary-code lanes resolved through the
    /// per-dictionary qualifying bitmap — instead of per-row value work.
    pub enc_skipped: u64,
    /// Set-operation rows eliminated by the hash pass: duplicates removed
    /// by UNION/INTERSECT dedup or rows subtracted by EXCEPT. Together
    /// with [`rows_out`](OpProfile::rows_out) this reconstructs the
    /// operator's probe-side input traffic.
    pub setop_dropped: u64,
}

impl OpProfile {
    /// New profile for an operator called `name`.
    pub fn new(name: &'static str) -> OpProfile {
        OpProfile { name, ..Default::default() }
    }

    /// Record one `next()` call that produced `rows` rows in `elapsed`.
    #[inline]
    pub fn record(&mut self, rows: usize, elapsed: Duration) {
        self.invocations += 1;
        self.rows_out += rows as u64;
        self.time += elapsed;
    }

    /// Attribute wall time to this operator without counting a `next()`
    /// invocation — internal phases like hash build or per-input-batch
    /// aggregation work that do not emit a batch.
    #[inline]
    pub fn record_phase(&mut self, elapsed: Duration) {
        self.time += elapsed;
    }

    /// Record a probe pass: `rows` keys looked up, visiting `chain_steps`
    /// chain entries in total.
    #[inline]
    pub fn record_probe(&mut self, rows: u64, chain_steps: u64) {
        self.probe_rows += rows;
        self.probe_chain_steps += chain_steps;
    }

    /// Record compiled-expression work: `programs` program invocations
    /// executing `instrs` instructions (drained from the operator's
    /// [`VectorPool`](crate::program::VectorPool) once per batch).
    #[inline]
    pub fn record_expr(&mut self, programs: u64, instrs: u64) {
        self.expr_programs += programs;
        self.expr_instrs += instrs;
    }

    /// Record the final size of one radix partition of a partitioned hash
    /// build (`shard` indexes the partition; the vectors grow on demand).
    pub fn record_shard_build(&mut self, shard: usize, rows: u64) {
        if self.shard_build_rows.len() <= shard {
            self.shard_build_rows.resize(shard + 1, 0);
        }
        self.shard_build_rows[shard] += rows;
    }

    /// Record one partition-wise probe pass against shard `shard`.
    pub fn record_shard_probe(&mut self, shard: usize, rows: u64, steps: u64) {
        if self.shard_probe_rows.len() <= shard {
            self.shard_probe_rows.resize(shard + 1, 0);
            self.shard_probe_steps.resize(shard + 1, 0);
        }
        self.shard_probe_rows[shard] += rows;
        self.shard_probe_steps[shard] += steps;
    }

    /// Record one morsel claim (scan side).
    #[inline]
    pub fn record_morsel(&mut self) {
        self.morsels += 1;
    }

    /// Record transient-fault retries absorbed while this operator read
    /// from the device (a delta of the disk-wide counter taken around the
    /// read; attribution is approximate under concurrency, which is fine
    /// for an observability counter).
    #[inline]
    pub fn record_io_retries(&mut self, n: u64) {
        self.io_retries += n;
    }

    /// Record one batch on the compressed-execution observable: `encoded`
    /// when it still carried at least one encoded column.
    #[inline]
    pub fn record_enc_batch(&mut self, encoded: bool) {
        if encoded {
            self.enc_batches += 1;
        } else {
            self.flat_batches += 1;
        }
    }

    /// Record `n` rows decided wholesale at the encoding level (whole RLE
    /// runs, dictionary-code bitmap lanes) instead of per-row value work.
    #[inline]
    pub fn record_enc_skipped(&mut self, n: u64) {
        self.enc_skipped += n;
    }

    /// Record `n` rows eliminated by a set operation's hash pass (UNION /
    /// INTERSECT dedup, EXCEPT subtraction).
    #[inline]
    pub fn record_setop_dropped(&mut self, n: u64) {
        self.setop_dropped += n;
    }

    /// Record one output-batch lease from the pipeline's
    /// [`BatchPool`](crate::morsel::BatchPool).
    #[inline]
    pub fn record_pool_lease(&mut self, hit: bool) {
        if hit {
            self.batch_pool_hits += 1;
        } else {
            self.batch_pool_misses += 1;
        }
    }

    /// Sync the spill counters from the operator's shared
    /// [`SpillMetrics`](crate::partition::SpillMetrics). Called at phase
    /// boundaries; the metrics are the source of truth for the whole
    /// spill cascade (recursive joins and re-aggregations included), so
    /// this *sets* rather than accumulates.
    pub fn sync_spill(&mut self, m: &crate::partition::SpillMetrics) {
        use std::sync::atomic::Ordering;
        self.spill_partitions = m.partitions.load(Ordering::Relaxed);
        self.spill_bytes_written = m.bytes_written.load(Ordering::Relaxed);
        self.spill_bytes_read = m.bytes_read.load(Ordering::Relaxed);
    }

    /// Batch-pool hit rate in 0..=1 (0 when the operator never leased).
    pub fn batch_pool_hit_rate(&self) -> f64 {
        let total = self.batch_pool_hits + self.batch_pool_misses;
        if total == 0 {
            0.0
        } else {
            self.batch_pool_hits as f64 / total as f64
        }
    }

    /// Morsel-claim skew across workers: `max/mean` (1.0 = perfectly even;
    /// 0.0 without per-worker data).
    pub fn morsel_balance(&self) -> f64 {
        let n = self.worker_morsels.len();
        let total: u64 = self.worker_morsels.iter().sum();
        if n == 0 || total == 0 {
            return 0.0;
        }
        let max = *self.worker_morsels.iter().max().unwrap() as f64;
        max / (total as f64 / n as f64)
    }

    /// Number of radix partitions this operator built with (1 =
    /// unpartitioned; 0 = no hash build, or every partition was evicted).
    pub fn shards(&self) -> usize {
        self.shard_build_rows.len()
    }

    /// Build-row skew across shards: `max/mean` (1.0 = perfectly even;
    /// 0.0 when the build was empty). The partition-quality
    /// observable — a clustered radix split shows up here first.
    pub fn shard_skew(&self) -> f64 {
        let n = self.shard_build_rows.len();
        let total: u64 = self.shard_build_rows.iter().sum();
        if n == 0 || total == 0 {
            return 0.0;
        }
        let max = *self.shard_build_rows.iter().max().unwrap() as f64;
        max / (total as f64 / n as f64)
    }

    /// Average hash-chain entries visited per probed key (0 when nothing
    /// was probed). Healthy flat tables stay near 1; growth signals a
    /// clustered hash or an under-sized directory.
    pub fn avg_chain_len(&self) -> f64 {
        if self.probe_rows == 0 {
            0.0
        } else {
            self.probe_chain_steps as f64 / self.probe_rows as f64
        }
    }

    /// Measure a closure and record its output rows.
    #[inline]
    pub fn measure<T>(&mut self, rows_of: impl Fn(&T) -> usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(rows_of(&out), t0.elapsed());
        out
    }
}

/// A query-level profile: one entry per operator, in plan order.
#[derive(Debug, Default, Clone)]
pub struct QueryProfile {
    /// Operator profiles with their plan depth (for indented display).
    pub operators: Vec<(usize, OpProfile)>,
}

impl QueryProfile {
    /// Render as an `EXPLAIN ANALYZE`-style table — one row per operator,
    /// indented by plan depth. Every column is documented in the
    /// [module docs](crate::profile) (meaning, source counter, and what a
    /// suspicious value indicates); the format is covered by a golden test
    /// so output stays interpretable without reading this source.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "operator                          calls       rows        est     time    chain    progs    prims   shards  morsels    pool%           spill  ioretry          enc    dedup\n",
        );
        for (depth, p) in &self.operators {
            let name = format!("{}{}", "  ".repeat(*depth), p.name);
            let est = match p.est_rows {
                Some(n) => format!("{n:>10}"),
                None => format!("{:>10}", "-"),
            };
            let chain = if p.probe_rows > 0 {
                format!("{:>8.2}", p.avg_chain_len())
            } else {
                format!("{:>8}", "-")
            };
            let (progs, prims) = if p.expr_programs > 0 {
                (format!("{:>8}", p.expr_programs), format!("{:>8}", p.expr_instrs))
            } else {
                (format!("{:>8}", "-"), format!("{:>8}", "-"))
            };
            let shards = if p.shards() > 1 {
                // Shard count plus build-skew (max/mean), the partition
                // health observable.
                format!("{:>2}x{:.2}", p.shards(), p.shard_skew())
            } else {
                format!("{:>8}", "-")
            };
            let morsels = if !p.worker_morsels.is_empty() {
                // Total claims plus scheduling balance (max/mean).
                let total: u64 = p.worker_morsels.iter().sum();
                format!("{:>3}x{:.2}", total, p.morsel_balance())
            } else if p.morsels > 0 {
                format!("{:>8}", p.morsels)
            } else {
                format!("{:>8}", "-")
            };
            let pool = if p.batch_pool_hits + p.batch_pool_misses > 0 {
                format!("{:>7.0}%", p.batch_pool_hit_rate() * 100.0)
            } else {
                format!("{:>8}", "-")
            };
            let spill = if p.spill_partitions > 0 {
                // Partitions spilled plus encoded bytes out/in — the
                // memory-governor observable (see the module docs).
                format!(
                    "{:>15}",
                    format!(
                        "{}p {}/{}",
                        p.spill_partitions,
                        human_bytes(p.spill_bytes_written),
                        human_bytes(p.spill_bytes_read)
                    )
                )
            } else {
                format!("{:>15}", "-")
            };
            let ioretry = if p.io_retries > 0 {
                format!("{:>8}", p.io_retries)
            } else {
                format!("{:>8}", "-")
            };
            let enc = if p.enc_batches + p.flat_batches > 0 {
                // Encoded vs inflated batch traffic, plus rows decided
                // wholesale at the encoding level (runs/code bitmap).
                if p.enc_skipped > 0 {
                    format!(
                        "{:>12}",
                        format!("{}/{}+{}", p.enc_batches, p.flat_batches, p.enc_skipped)
                    )
                } else {
                    format!("{:>12}", format!("{}/{}", p.enc_batches, p.flat_batches))
                }
            } else {
                format!("{:>12}", "-")
            };
            let dedup = if p.setop_dropped > 0 {
                format!("{:>8}", p.setop_dropped)
            } else {
                format!("{:>8}", "-")
            };
            out.push_str(&format!(
                "{:<32} {:>6} {:>10} {} {:>8.3}ms {} {} {} {} {} {} {} {} {} {}\n",
                name,
                p.invocations,
                p.rows_out,
                est,
                p.time.as_secs_f64() * 1e3,
                chain,
                progs,
                prims,
                shards,
                morsels,
                pool,
                spill,
                ioretry,
                enc,
                dedup,
            ));
        }
        out
    }
}

/// Compact byte count for the `spill` column: `999B`, `4.2K`, `1.7M`, `3.0G`.
fn human_bytes(n: u64) -> String {
    const K: f64 = 1024.0;
    let f = n as f64;
    if f < K {
        format!("{n}B")
    } else if f < K * K {
        format!("{:.1}K", f / K)
    } else if f < K * K * K {
        format!("{:.1}M", f / (K * K))
    } else {
        format!("{:.1}G", f / (K * K * K))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut p = OpProfile::new("Scan");
        p.record(100, Duration::from_millis(2));
        p.record(50, Duration::from_millis(1));
        assert_eq!(p.invocations, 2);
        assert_eq!(p.rows_out, 150);
        assert!(p.time >= Duration::from_millis(3));
    }

    #[test]
    fn measure_wraps_closure() {
        let mut p = OpProfile::new("X");
        let v = p.measure(|v: &Vec<u8>| v.len(), || vec![1, 2, 3]);
        assert_eq!(v.len(), 3);
        assert_eq!(p.rows_out, 3);
        assert_eq!(p.invocations, 1);
    }

    #[test]
    fn probe_chain_average() {
        let mut p = OpProfile::new("HashJoin");
        assert_eq!(p.avg_chain_len(), 0.0);
        p.record_probe(100, 130);
        p.record_probe(100, 70);
        assert_eq!(p.probe_rows, 200);
        assert_eq!(p.probe_chain_steps, 200);
        assert!((p.avg_chain_len() - 1.0).abs() < 1e-9);
        let mut q = QueryProfile::default();
        q.operators.push((0, p));
        assert!(q.render().contains("1.00"), "chain column rendered");
    }

    #[test]
    fn expr_counters_rendered() {
        let mut p = OpProfile::new("Project");
        p.record_expr(4, 12);
        p.record_expr(2, 6);
        assert_eq!(p.expr_programs, 6);
        assert_eq!(p.expr_instrs, 18);
        let mut q = QueryProfile::default();
        q.operators.push((0, p));
        q.operators.push((1, OpProfile::new("Scan")));
        let s = q.render();
        assert!(s.contains("progs") && s.contains("prims"), "header has expr columns");
        assert!(s.contains("18"), "instruction count rendered");
        // Operators without expression work render a dash.
        assert!(s.lines().nth(2).unwrap().trim_end().ends_with('-'));
    }

    #[test]
    fn shard_counters_accumulate_and_measure_skew() {
        let mut p = OpProfile::new("HashJoin");
        assert_eq!(p.shards(), 0);
        assert_eq!(p.shard_skew(), 0.0);
        p.record_shard_build(0, 100);
        let one = QueryProfile { operators: vec![(0, p.clone())] };
        assert!(!one.render().contains("1x"), "one shard has no skew to print");
        p.record_shard_build(3, 300);
        p.record_shard_build(1, 100);
        p.record_shard_build(2, 100);
        assert_eq!(p.shards(), 4);
        assert_eq!(p.shard_build_rows, vec![100, 100, 100, 300]);
        // max/mean = 300 / 150 = 2.0
        assert!((p.shard_skew() - 2.0).abs() < 1e-9);
        p.record_shard_probe(3, 50, 60);
        p.record_shard_probe(3, 50, 40);
        assert_eq!(p.shard_probe_rows[3], 100);
        assert_eq!(p.shard_probe_steps[3], 100);
        let mut q = QueryProfile::default();
        q.operators.push((0, p));
        assert!(q.render().contains("4x2.00"), "shard column rendered");
    }

    #[test]
    fn morsel_and_pool_counters_render() {
        let mut scan = OpProfile::new("Scan");
        scan.record_morsel();
        scan.record_morsel();
        scan.record_pool_lease(false);
        scan.record_pool_lease(true);
        scan.record_pool_lease(true);
        scan.record_pool_lease(true);
        assert_eq!(scan.morsels, 2);
        assert!((scan.batch_pool_hit_rate() - 0.75).abs() < 1e-9);

        let mut xchg = OpProfile::new("Xchg");
        xchg.worker_morsels = vec![10, 10, 10, 30];
        // max/mean = 30 / 15 = 2.0 — the collapse observable.
        assert!((xchg.morsel_balance() - 2.0).abs() < 1e-9);

        let mut q = QueryProfile::default();
        q.operators.push((0, xchg));
        q.operators.push((1, scan));
        let s = q.render();
        assert!(s.contains("morsels") && s.contains("pool%"), "header has the new columns");
        assert!(s.contains("60x2.00"), "per-worker totals and balance rendered: {s}");
        assert!(s.contains("75%"), "pool hit rate rendered: {s}");
    }

    #[test]
    fn spill_counters_render_and_sync() {
        use crate::partition::SpillMetrics;
        let m = SpillMetrics::new();
        m.record_partition();
        m.record_partition();
        m.record_write(3 * 1024 * 1024 / 2); // 1.5 MiB
        m.record_read(512);
        let mut p = OpProfile::new("HashJoin");
        p.sync_spill(&m);
        assert_eq!(p.spill_partitions, 2);
        assert_eq!(p.spill_bytes_written, 3 * 1024 * 1024 / 2);
        assert_eq!(p.spill_bytes_read, 512);
        let mut q = QueryProfile::default();
        q.operators.push((0, p));
        let s = q.render();
        assert!(s.contains("2p 1.5M/512B"), "spill column rendered: {s}");
        // Sync again after more traffic: counters are set, not accumulated.
        m.record_write(512 * 1024);
        let mut p2 = OpProfile::new("HashJoin");
        p2.sync_spill(&m);
        assert_eq!(p2.spill_bytes_written, 3 * 1024 * 1024 / 2 + 512 * 1024);
    }

    #[test]
    fn human_bytes_tiers() {
        assert_eq!(human_bytes(0), "0B");
        assert_eq!(human_bytes(999), "999B");
        assert_eq!(human_bytes(4 * 1024 + 205), "4.2K");
        assert_eq!(human_bytes(1024 * 1024 * 7 / 4), "1.8M");
        assert_eq!(human_bytes(3 * 1024 * 1024 * 1024), "3.0G");
    }

    /// Golden test: the full `EXPLAIN ANALYZE` table for a fixed set of
    /// counters, byte for byte. If a column is added, renamed, or
    /// re-justified, this test (and the module-docs column table) must be
    /// updated in the same change — the render is a public observability
    /// surface, not an implementation detail.
    #[test]
    fn render_golden() {
        let mut join = OpProfile::new("HashJoin");
        join.record(1000, Duration::from_millis(2));
        join.est_rows = Some(900);
        join.record_probe(100, 150);
        join.record_expr(4, 12);
        join.record_shard_build(0, 100);
        join.record_shard_build(1, 300);
        join.spill_partitions = 1;
        join.spill_bytes_written = 2048;
        join.spill_bytes_read = 2048;
        join.record_io_retries(3);
        join.record_pool_lease(true);
        join.record_pool_lease(true);
        join.record_pool_lease(false);
        join.record_pool_lease(false);

        let mut scan = OpProfile::new("Scan");
        scan.record(5000, Duration::from_millis(1));
        scan.morsels = 7;
        scan.record_enc_batch(true);
        scan.record_enc_batch(true);
        scan.record_enc_batch(true);
        scan.record_enc_batch(true);
        scan.record_enc_batch(false);
        scan.record_enc_skipped(2048);

        let mut q = QueryProfile::default();
        q.operators.push((0, join));
        q.operators.push((1, scan));
        let expect = "\
operator                          calls       rows        est     time    chain    progs    prims   shards  morsels    pool%           spill  ioretry          enc    dedup
HashJoin                              1       1000        900    2.000ms     1.50        4       12  2x1.50        -      50%    1p 2.0K/2.0K        3            -        -
  Scan                                1       5000          -    1.000ms        -        -        -        -        7        -               -        -     4/1+2048        -
";
        assert_eq!(q.render(), expect);
    }

    /// The `dedup` column carries the set-operation elimination counter
    /// and renders a dash everywhere else.
    #[test]
    fn setop_dedup_renders() {
        let mut p = OpProfile::new("SetOp");
        p.record(10, Duration::from_millis(1));
        p.record_setop_dropped(37);
        assert_eq!(p.setop_dropped, 37);
        let mut q = QueryProfile::default();
        q.operators.push((0, p));
        let s = q.render();
        let row = s.lines().nth(1).unwrap();
        assert!(row.trim_end().ends_with("37"), "dedup counter rendered: {s}");
    }

    #[test]
    fn render_is_indented() {
        let mut q = QueryProfile::default();
        q.operators.push((0, OpProfile::new("Aggr")));
        q.operators.push((1, OpProfile::new("Scan")));
        let s = q.render();
        assert!(s.contains("Aggr"));
        assert!(s.contains("  Scan"));
    }
}
