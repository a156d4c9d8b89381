//! `EXPLAIN ANALYZE`: the one timing wrapper and the per-plan-node slot
//! it reports into.
//!
//! The paper lists "system monitoring" among the mundane-but-mandatory
//! work. Per statement, the engine's answer is `EXPLAIN ANALYZE`, and
//! this module is all of its execution side. Only that statement is
//! measured: its compile wraps every operator it lowers from a plan node
//! in one [`Profiled`], which times the operator's `next()` —
//! *inclusively*, children and all, as PostgreSQL does — and counts the
//! rows it returns. When the wrapper drops (end of stream, error, KILL,
//! timeout — every exit) it merges those figures, plus the [`OpProfile`]
//! counters only the operator itself can see, into the node's
//! [`NodeProfile`]. The `dop` clones of an Exchange fragment merge into
//! one slot. A plain statement builds no wrapper and reads no clock; the
//! operators keep only their `OpProfile` counters, a few integer adds per
//! batch (bench C11).
//!
//! # The suffix, field by field
//!
//! [`NodeProfile::suffix`] is appended to the node's line of the one plan
//! renderer (`vw_sql::optimizer::explain_with_estimates`), right after
//! its `est~N`:
//!
//! | field | meaning | healthy / suspicious |
//! |-------|---------|----------------------|
//! | `actual=N` | rows the node's operator returned, over all clones. | compare with `est~`: a large ratio either way marks the estimate that misled join order or build side — CHECKPOINT if DML left statistics stale. |
//! | `time=X.XXXms` | wall time inside the operator's `next()`, children included, summed over clones. | a parent minus its children is the node's own cost. A join's line holds its own build outside an Exchange; inside one the build runs in the build's sink tasks and only its `build:` subtree is timed. |
//! | `×k rows a..b time a..b` | `k` clones ran this node; per clone the fewest..most rows and least..most time (ms). Only when `k > 1`. | ranges near the mean; a wide `time` range is a straggler, the number behind "when more cores hurts". |
//! | `direct` | the join's table is direct: one integer key whose bucket is `key − lo` (no hash, no key compare), chosen when its arrays are no larger than the hashed table's. | expected for a dense integer key (row ids, order keys); its absence on one means a sparse or overflowing key range. |
//! | `spill=Fp W/R dir=D/B` | grace spilling: spill files begun (one per partition of a routed spill that took a row — builds and probes, all strata), encoded bytes written / read back; on a join, of the `B` spilled partitions that built resident with rows on replay (every prober's), the `D` that built direct. | any value means the query ran over `mem_budget`; read ≫ written is deep re-partitioning; `D < B` on a dense key means partitions that fell back to the hashed layout. |
//! | `enc=E/F+S` | batches the operator took in still encoded (dictionary codes, RLE) / fully inflated, plus `S` rows decided wholesale at the encoding level (whole runs, dictionary-code bitmaps, the aggregate's code memo). `+S` only when `S > 0`. | `0/F` on a dictionary column means the encoded path fell back. |
//! | `rtf=D/T` | a scan's runtime join filters: rows dropped / rows tested, over all clones. A batch they keep more than half of passes whole, dropping none. A filter keeping more than half of its first few vectors switches off, so `T` stops there. | on a selective build `D` near `T` and `T` the scan's rows; `T` of a few vectors is a full build's filter that switched off. |
//!
//! A node with no operator of its own prints no suffix: a `Sort` fused
//! into the `TopN` its `Limit` lowers to (the `Limit` line carries the
//! `TopN`'s figures). Neither does a node whose operators were never
//! pulled: the probe side of an inner or semi join whose empty build
//! answered alone.

use crate::op::{BoxedOp, Operator};
use crate::partition::SpillMetrics;
use crate::vector::Batch;
use std::fmt::Write as _;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use vw_common::{Result, Schema};

/// The counters only an operator can see, kept by the operators that
/// have any and read through [`Operator::profile`] by the [`Profiled`]
/// wrapper when it drops. Every field is a column of the suffix (see the
/// module docs).
#[derive(Debug, Default, Clone)]
pub struct OpProfile {
    /// A join build's table is direct ([`crate::hashtable::JoinTable`]'s
    /// layout keyed by `key − lo`).
    pub direct: bool,
    /// The spill traffic counters of a memory-governed hash build — shared
    /// down its recursion, and by every prober of one shared build.
    pub spill: Option<Arc<SpillMetrics>>,
    /// Batches taken in with at least one encoded column.
    pub enc_batches: u64,
    /// Batches taken in fully inflated.
    pub flat_batches: u64,
    /// Rows decided wholesale at the encoding level instead of per row.
    pub enc_skipped: u64,
    /// A scan's runtime join filters: rows they dropped, of the rows they
    /// tested.
    pub rtf_dropped: u64,
    pub rtf_tested: u64,
}

impl OpProfile {
    /// Record one input batch, encoded when it still carries at least one
    /// encoded column.
    #[inline]
    pub(crate) fn record_enc_batch(&mut self, batch: &Batch) {
        if batch.columns.iter().any(|c| c.is_encoded()) {
            self.enc_batches += 1;
        } else {
            self.flat_batches += 1;
        }
    }

    /// Fold one clone's counters into the slot's. A spill counter set is
    /// kept once however many clones share it.
    fn merge(&mut self, other: &OpProfile) {
        self.direct |= other.direct;
        self.enc_batches += other.enc_batches;
        self.flat_batches += other.flat_batches;
        self.enc_skipped += other.enc_skipped;
        self.rtf_dropped += other.rtf_dropped;
        self.rtf_tested += other.rtf_tested;
    }
}

/// What every clone of one plan node reported, merged.
#[derive(Default)]
struct NodeStats {
    clones: u32,
    rows: u64,
    time: Duration,
    rows_range: (u64, u64),
    time_range: (Duration, Duration),
    counters: OpProfile,
    /// The distinct spill counter sets of the clones, read at render time.
    spills: Vec<Arc<SpillMetrics>>,
}

/// One plan node's `EXPLAIN ANALYZE` slot, shared by the [`Profiled`]
/// wrappers of every operator lowered from that node.
#[derive(Default)]
pub struct NodeProfile(Mutex<NodeStats>);

impl NodeProfile {
    /// Merge one operator's figures: `rows` returned in `time` inside
    /// `next()`, and its own counters.
    fn merge(&self, rows: u64, time: Duration, counters: Option<&OpProfile>) {
        let mut s = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        s.rows_range = match s.clones {
            0 => (rows, rows),
            _ => (s.rows_range.0.min(rows), s.rows_range.1.max(rows)),
        };
        s.time_range = match s.clones {
            0 => (time, time),
            _ => (s.time_range.0.min(time), s.time_range.1.max(time)),
        };
        s.clones += 1;
        s.rows += rows;
        s.time += time;
        if let Some(c) = counters {
            s.counters.merge(c);
            if let Some(m) = &c.spill {
                if !s.spills.iter().any(|seen| Arc::ptr_eq(seen, m)) {
                    s.spills.push(m.clone());
                }
            }
        }
    }

    /// The node's suffix (see the module docs); empty when no operator
    /// ran for the node.
    pub fn suffix(&self) -> String {
        let s = self.0.lock().expect("a slot's merge never panics");
        if s.clones == 0 {
            return String::new();
        }
        let mut out = format!(" actual={} time={:.3}ms", s.rows, ms(s.time));
        if s.clones > 1 {
            let (r, t) = (s.rows_range, s.time_range);
            let _ = write!(
                out,
                " ×{} rows {}..{} time {:.3}..{:.3}ms",
                s.clones,
                r.0,
                r.1,
                ms(t.0),
                ms(t.1)
            );
        }
        let c = &s.counters;
        if c.direct {
            out.push_str(" direct");
        }
        let sum = |f: fn(&SpillMetrics) -> u64| s.spills.iter().map(|m| f(m)).sum::<u64>();
        let spilled = sum(|m| m.files.load(Relaxed));
        if spilled > 0 {
            let written = human_bytes(sum(|m| m.bytes_written.load(Relaxed)));
            let read = human_bytes(sum(|m| m.bytes_read.load(Relaxed)));
            let _ = write!(out, " spill={spilled}p {written}/{read}");
            let replayed = sum(|m| m.replayed.load(Relaxed));
            if replayed > 0 {
                let _ = write!(out, " dir={}/{replayed}", sum(|m| m.replayed_direct.load(Relaxed)));
            }
        }
        if c.enc_batches + c.flat_batches > 0 {
            let _ = write!(out, " enc={}/{}", c.enc_batches, c.flat_batches);
            if c.enc_skipped > 0 {
                let _ = write!(out, "+{}", c.enc_skipped);
            }
        }
        if c.rtf_tested > 0 {
            let _ = write!(out, " rtf={}/{}", c.rtf_dropped, c.rtf_tested);
        }
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Compact byte count for `spill=`: `999B`, `4.2K`, `1.7M`, `3.0G`.
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

/// The timing wrapper: one per operator lowered from a plan node, under
/// `EXPLAIN ANALYZE` only (see the module docs).
pub struct Profiled {
    op: BoxedOp,
    node: Arc<NodeProfile>,
    rows: u64,
    time: Duration,
    /// Was `next()` ever called? An operator never pulled (the probe side
    /// of a join whose empty build answered alone) reports nothing.
    pulled: bool,
}

impl Profiled {
    /// `op`, reporting into `node` when it drops.
    pub fn wrap(op: BoxedOp, node: Arc<NodeProfile>) -> BoxedOp {
        Box::new(Profiled { op, node, rows: 0, time: Duration::ZERO, pulled: false })
    }
}

impl Operator for Profiled {
    fn schema(&self) -> &Schema {
        self.op.schema()
    }

    fn name(&self) -> &'static str {
        self.op.name()
    }

    fn profile(&self) -> Option<&OpProfile> {
        self.op.profile()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        self.pulled = true;
        let t0 = Instant::now();
        let out = self.op.next();
        self.time += t0.elapsed();
        if let Ok(Some(b)) = &out {
            self.rows += b.rows() as u64;
        }
        out
    }
}

impl Drop for Profiled {
    fn drop(&mut self) {
        if self.pulled {
            self.node.merge(self.rows, self.time, self.op.profile());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::op::{drain, Values};
    use vw_common::{Field, TypeId, Value};

    fn values(n: i64) -> BoxedOp {
        let schema = Schema::new(vec![Field::not_null("v", TypeId::I64)]).unwrap();
        let rows = (0..n).map(|v| vec![Value::I64(v)]).collect();
        Box::new(Values::new(schema, rows, 16, CancelToken::new()))
    }

    /// The suffix with its times masked.
    fn masked(node: &NodeProfile) -> String {
        let s = node.suffix();
        let mut out = String::new();
        for word in s.split(' ') {
            let word = if word.starts_with("time=") {
                "time=*"
            } else if word.ends_with("ms") && word.contains("..") {
                "*"
            } else {
                word
            };
            out.push_str(word);
            out.push(' ');
        }
        out.trim_end().to_string()
    }

    #[test]
    fn a_node_no_operator_ran_for_prints_nothing() {
        assert_eq!(NodeProfile::default().suffix(), "");
    }

    #[test]
    fn the_wrapper_counts_rows_and_reports_when_it_drops() {
        let node = Arc::new(NodeProfile::default());
        let mut op = Profiled::wrap(values(40), node.clone());
        assert_eq!(drain(op.as_mut()).unwrap().rows(), 40);
        assert_eq!(node.suffix(), "", "nothing is reported before the drop");
        drop(op);
        assert_eq!(masked(&node), " actual=40 time=*");
    }

    #[test]
    fn clones_merge_into_one_slot_with_their_ranges() {
        let node = Arc::new(NodeProfile::default());
        for n in [10, 30, 20] {
            let mut op = Profiled::wrap(values(n), node.clone());
            drain(op.as_mut()).unwrap();
        }
        assert_eq!(masked(&node), " actual=60 time=* ×3 rows 10..30 time *");
    }

    #[test]
    fn operator_counters_render_once_per_shared_spill() {
        let metrics = SpillMetrics::new();
        metrics.record_file();
        metrics.record_file();
        metrics.record_write(3 * 1024 * 1024 / 2);
        metrics.record_read(512);
        let node = NodeProfile::default();
        let mut p = OpProfile { spill: Some(metrics), enc_skipped: 2048, ..Default::default() };
        p.enc_batches = 2;
        p.flat_batches = 1;
        // Two clones probing one shared build: the same spill counters.
        node.merge(5, Duration::from_millis(2), Some(&p));
        node.merge(7, Duration::from_millis(1), Some(&p));
        let s = node.suffix();
        assert!(s.starts_with(" actual=12 time=3.000ms ×2 rows 5..7 time 1.000..2.000ms"), "{s}");
        assert!(s.ends_with(" spill=2p 1.5M/512B enc=4/2+4096"), "{s}");
    }

    #[test]
    fn no_counters_print_nothing() {
        let node = NodeProfile::default();
        node.merge(1, Duration::ZERO, Some(&OpProfile::default()));
        assert_eq!(node.suffix(), " actual=1 time=0.000ms");
    }

    #[test]
    fn a_direct_join_table_prints_its_layout_once() {
        let node = NodeProfile::default();
        let p = OpProfile { direct: true, ..Default::default() };
        // Two clones probing one shared direct table.
        node.merge(3, Duration::ZERO, Some(&p));
        node.merge(4, Duration::ZERO, Some(&p));
        assert_eq!(masked(&node), " actual=7 time=* ×2 rows 3..4 time * direct");
    }

    #[test]
    fn human_bytes_tiers() {
        assert_eq!(human_bytes(0), "0B");
        assert_eq!(human_bytes(999), "999B");
        assert_eq!(human_bytes(4 * 1024 + 205), "4.2K");
        assert_eq!(human_bytes(1024 * 1024 * 7 / 4), "1.8M");
        assert_eq!(human_bytes(3 * 1024 * 1024 * 1024), "3.0G");
    }
}
