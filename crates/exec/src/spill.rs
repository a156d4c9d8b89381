//! Spill-file glue for the grace-spilling hash operators.
//!
//! The Vectorwise paper's complaint about research prototypes is that they
//! assume everything fits in RAM; a production engine must degrade
//! gracefully when a hash build exceeds memory. This module is the disk
//! half of that story: it serializes operator [`Vector`] runs into
//! [`SpillFile`]s using the pack writer's compressed block format
//! (`vw_storage::pack::encode_spill_batch` — the same per-column codecs
//! stable storage uses) and rehydrates them as ordinary [`Batch`]es.
//!
//! Rows reach disk one way only, a [`RoutedSpill`]: a join build that
//! overflowed, the probe rows of such a build, an aggregate's partial
//! state and the aggregate's re-partitioning pass all push rows with
//! their routing words — the key hashes, or for a join build on a dense
//! integer key the bit-reversed key (`op/hashjoin.rs`) — which one radix
//! router splits into one spill file per partition. A spill routed by key
//! also keeps each partition's row count and key range ([`KeySpan`]), from
//! which the join judges the partition's own routing when it replays.
//! The policy half — *when* a build overflows — is the
//! [`MemBudget`] governor's (see [`crate::partition`]); what is written
//! and how a spilled partition is re-processed is the operators'
//! (`op/hashjoin.rs`, `op/hashagg.rs`).
//!
//! Temp space is owned by the operator: a [`SpillFile`] frees its blocks
//! on drop, so spill storage is reclaimed whether the query completes,
//! errors, or is `KILL`ed mid-spill.

use crate::cancel::CancelToken;
use crate::op::Operator;
use crate::partition::{MemBudget, RadixRouter, SpillConfig, SpillMetrics};
use crate::vector::{Batch, Vector};
use std::borrow::Borrow;
use std::sync::Arc;
use vw_common::{ColData, Result, Schema, SelVec, TypeId};
use vw_storage::{decode_spill_batch, encode_spill_batch, SpillFile};

/// Encode one run of equally-long vectors as a spill chunk and append it
/// to `file`; returns the encoded size in bytes. Transient device faults
/// are retried inside [`SpillFile::append`]; terminal ones surface here
/// and fail the spilling operator (its temp blocks still free on drop).
pub fn append_vectors<V: Borrow<Vector>>(file: &mut SpillFile, cols: &[V]) -> Result<usize> {
    // Spill chunks hold flat values — the pack codecs re-derive their own
    // per-column encoding. Dict-coded vectors inflate into a scratch copy
    // here (a late-materialization boundary, like Sort and emit).
    let flat: Vec<Option<Vector>> = cols
        .iter()
        .map(|v| {
            let v = v.borrow();
            v.is_encoded().then(|| {
                let mut c = v.clone();
                c.ensure_flat();
                c
            })
        })
        .collect();
    let encoded: Vec<(&vw_common::ColData, Option<&[bool]>)> = cols
        .iter()
        .zip(&flat)
        .map(|(v, f)| {
            let v = f.as_ref().unwrap_or(v.borrow());
            (&v.data, v.nulls.as_deref())
        })
        .collect();
    file.append(encode_spill_batch(&encoded))
}

/// Rows a partition's stage gathers before it writes them as one chunk.
pub const SPILL_CHUNK_ROWS: usize = 2048;

/// Where the rows of a hash build that overflowed go: one
/// [`RadixRouter`] on the governor's stratum and fan-out in front of one
/// stage per partition, each the one writer of the partition's spill
/// file. Rows arrive with their routing words (key hashes, or
/// bit-reversed keys); equal keys meet in one partition, and a partition's rows are re-processed on the next stratum
/// (`op/hashjoin.rs`'s deferred phase, `op/hashagg.rs`'s re-aggregation).
///
/// A partition's rows are gathered until a chunk's worth is staged and
/// then written as one chunk — a batch spreads over the partitions, so
/// writing each batch's share at once would make chunks of a few rows
/// each, replayed as batches as small. Staged rows are charged to the
/// query's budget; the flush rule is that a stage writes when it is full,
/// and when the budget is over once its operator wrote out what it held
/// ([`RoutedSpill::flush_if_over`]), so staged rows never keep the budget
/// over. The staged vectors are flat: a coded source inflates only the
/// lanes staged, and no stage pins a pack's arena.
pub struct RoutedSpill {
    router: RadixRouter,
    /// Per partition, once it took a row.
    stages: Vec<Option<SpillStage>>,
    /// Per partition, what it took — `None` unless the routing words are
    /// bit-reversed keys ([`RoutedSpill::by_key`]).
    pub(crate) spans: Option<Vec<KeySpan>>,
    cfg: SpillConfig,
}

/// The rows a [`RoutedSpill`] routed by key sent to one partition: how
/// many, and their smallest and largest key.
pub type KeySpan = (u64, i64, i64);

/// The span of no rows (`lo > hi`).
pub const NO_SPAN: KeySpan = (0, i64::MAX, i64::MIN);

impl RoutedSpill {
    /// A routed spill on `cfg`'s stratum and fan-out, writing to `cfg`'s
    /// device and charging `cfg`'s budget.
    pub fn new(cfg: &SpillConfig) -> RoutedSpill {
        let router = RadixRouter::at_depth(cfg.partitions, cfg.depth);
        let stages = std::iter::repeat_with(|| None).take(router.partitions()).collect();
        RoutedSpill { router, stages, spans: None, cfg: cfg.clone() }
    }

    /// A routed spill whose routing words are keys read as `i64` and
    /// bit-reversed: it also keeps each partition's [`KeySpan`].
    pub fn by_key(cfg: &SpillConfig) -> RoutedSpill {
        let mut spill = RoutedSpill::new(cfg);
        spill.spans = Some(vec![NO_SPAN; spill.stages.len()]);
        spill
    }

    /// Stage the `sel` lanes (all of them when `None`) of `cols`, routed
    /// by `hashes` (one per lane); a full stage is written out.
    pub fn push<V: Borrow<Vector>>(
        &mut self,
        cols: &[V],
        hashes: &[u64],
        sel: Option<&SelVec>,
    ) -> Result<()> {
        let n = hashes.len();
        // A full-length sorted selection is the identity: skip the
        // indirection.
        let sel = sel.filter(|s| s.len() != n);
        let RoutedSpill { router, stages, spans, cfg } = self;
        router.split(hashes, sel, n);
        for (si, stage) in stages.iter_mut().enumerate() {
            let lanes = router.shard_sel(si);
            if !lanes.is_empty() {
                let stage = stage.get_or_insert_with(|| {
                    cfg.metrics.record_file();
                    SpillStage::new(cfg)
                });
                stage.push(cols, lanes)?;
                if let Some((rows, lo, hi)) = spans.as_mut().map(|s| &mut s[si]) {
                    *rows += lanes.len() as u64;
                    for p in lanes.iter() {
                        let key = hashes[p].reverse_bits() as i64;
                        (*lo, *hi) = ((*lo).min(key), (*hi).max(key));
                    }
                }
            }
        }
        Ok(())
    }

    /// While the budget is over, write out the fullest stage (the fewer
    /// early writes, the larger their chunks).
    pub fn flush_if_over(&mut self) -> Result<()> {
        while self.cfg.budget.over() {
            let fullest = self.stages.iter_mut().flatten().max_by_key(|s| s.charged);
            match fullest {
                Some(stage) if stage.charged > 0 => stage.flush()?,
                _ => break,
            }
        }
        Ok(())
    }

    /// Write what is still staged and hand the files over, one per
    /// partition (`None` for a partition no row reached).
    pub fn finish(self) -> Result<Vec<Option<SpillFile>>> {
        self.stages.into_iter().map(|s| s.map(SpillStage::finish).transpose()).collect()
    }
}

/// The one writer of one partition's spill file (see [`RoutedSpill`]).
/// At most [`SPILL_CHUNK_ROWS`] rows (plus one push's share) wait; their
/// bytes are charged to the query's budget while they do.
struct SpillStage {
    /// `None` once [`SpillStage::finish`] handed it over.
    file: Option<SpillFile>,
    /// Empty until the first push gives the rows' types.
    vecs: Vec<Vector>,
    /// Bytes charged to `budget` for the staged rows.
    charged: usize,
    budget: Arc<MemBudget>,
    metrics: Arc<SpillMetrics>,
}

impl SpillStage {
    /// An empty stage writing to a fresh file on `cfg`'s device and
    /// charging `cfg`'s budget.
    fn new(cfg: &SpillConfig) -> SpillStage {
        SpillStage {
            file: Some(SpillFile::new(cfg.disk.clone())),
            vecs: Vec::new(),
            charged: 0,
            budget: cfg.budget.clone(),
            metrics: cfg.metrics.clone(),
        }
    }

    /// Stage the `sel` lanes of `cols`; a full stage is written out.
    fn push<V: Borrow<Vector>>(&mut self, cols: &[V], sel: &SelVec) -> Result<()> {
        if self.vecs.is_empty() {
            let empty = |v: &V| Vector::new(ColData::new(v.borrow().type_id()));
            self.vecs = cols.iter().map(empty).collect();
        }
        let mut bytes = 0;
        for (dst, src) in self.vecs.iter_mut().zip(cols) {
            let src = src.borrow();
            bytes += src.flat_bytes(sel);
            dst.extend_gather_sel(src, sel);
            dst.ensure_flat();
        }
        self.budget.charge(bytes);
        self.charged += bytes;
        if self.vecs[0].len() >= SPILL_CHUNK_ROWS {
            self.flush()?;
        }
        Ok(())
    }

    /// Write the staged rows as one chunk (none staged: nothing written).
    fn flush(&mut self) -> Result<()> {
        if self.vecs.first().is_none_or(|v| v.is_empty()) {
            return Ok(());
        }
        let file = self.file.as_mut().expect("a stage writes until it is finished");
        self.metrics.record_write(append_vectors(file, &self.vecs)? as u64);
        for v in &mut self.vecs {
            v.clear_keep_capacity();
        }
        self.budget.uncharge(std::mem::take(&mut self.charged));
        Ok(())
    }

    /// Write what is still staged and hand the file over.
    fn finish(mut self) -> Result<SpillFile> {
        self.flush()?;
        Ok(self.file.take().expect("finished once"))
    }
}

impl Drop for SpillStage {
    fn drop(&mut self) {
        self.budget.uncharge(self.charged);
    }
}

/// Decode spill chunk `i` of `file` back into vectors of `types`; also
/// returns the encoded chunk size so the caller can record rehydration
/// traffic into its [`SpillMetrics`].
pub fn read_vectors(file: &SpillFile, i: usize, types: &[TypeId]) -> Result<(Vec<Vector>, usize)> {
    let bytes = file.read_chunk(i)?;
    let cols = decode_spill_batch(&bytes, types)?;
    Ok((
        cols.into_iter().map(|(data, nulls)| Vector::with_nulls(data, nulls)).collect(),
        bytes.len(),
    ))
}

/// An operator that replays finished spill files, one after the other, as
/// a batch stream — the input side of a recursive grace join over one
/// spilled partition pair. Chunk boundaries become batch boundaries (one
/// chunk was one gathered input batch, or one flushed staging run).
///
/// The files are shared, read-only: a partition of a shared build is on
/// disk once — one file per sink that held rows for it — and every probing
/// worker replays it against its own probe rows. The last scan to drop
/// frees the blocks.
pub struct SpillScan {
    files: Vec<Arc<SpillFile>>,
    schema: Schema,
    types: Vec<TypeId>,
    /// The next chunk to read: `(file, chunk within it)`.
    next: (usize, usize),
    cancel: CancelToken,
    metrics: Arc<SpillMetrics>,
}

impl SpillScan {
    /// Replay `files` as batches of `schema`. Actual rehydration traffic
    /// is recorded into `metrics` (shared with the spilling operator, so
    /// its `EXPLAIN ANALYZE` line counts the whole cascade).
    pub fn new(
        files: Vec<Arc<SpillFile>>,
        schema: Schema,
        cancel: CancelToken,
        metrics: Arc<SpillMetrics>,
    ) -> SpillScan {
        let types = schema.fields.iter().map(|f| f.ty).collect();
        SpillScan { files, schema, types, next: (0, 0), cancel, metrics }
    }
}

impl Operator for SpillScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "SpillScan"
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        loop {
            self.cancel.check()?;
            let (f, i) = self.next;
            let Some(file) = self.files.get(f) else { return Ok(None) };
            if i >= file.n_chunks() {
                self.next = (f + 1, 0);
                continue;
            }
            self.next.1 += 1;
            let (columns, nbytes) = read_vectors(file, i, &self.types)?;
            self.metrics.record_read(nbytes as u64);
            let batch = Batch::new(columns);
            if batch.rows() == 0 {
                continue; // an empty chunk (possible after an empty flush)
            }
            return Ok(Some(batch));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::{ColData, Field, Value, VwError};
    use vw_storage::SimulatedDisk;

    fn kv(vals: &[(Option<i64>, &str)]) -> Vec<Vector> {
        let mut k = Vector::new(ColData::new(TypeId::I64));
        let mut v = Vector::new(ColData::new(TypeId::Str));
        for (a, b) in vals {
            k.push(&a.map_or(Value::Null, Value::I64)).unwrap();
            v.push(&Value::Str(b.to_string())).unwrap();
        }
        vec![k, v]
    }

    fn kv_schema() -> Schema {
        Schema::new(vec![Field::nullable("k", TypeId::I64), Field::nullable("v", TypeId::Str)])
            .unwrap()
    }

    #[test]
    fn vectors_roundtrip_through_a_spill_file() {
        let mut file = SpillFile::new(SimulatedDisk::instant());
        let cols = kv(&[(Some(1), "a"), (None, "b"), (Some(3), "c")]);
        let n = append_vectors(&mut file, &cols).unwrap();
        assert!(n > 0);
        let (back, nbytes) = read_vectors(&file, 0, &[TypeId::I64, TypeId::Str]).unwrap();
        assert_eq!(back, cols);
        assert_eq!(nbytes, n, "encoded size reported for traffic accounting");
    }

    #[test]
    fn spill_scan_replays_chunks_as_batches() {
        let disk = SimulatedDisk::instant();
        let mut file = SpillFile::new(disk.clone());
        append_vectors(&mut file, &kv(&[(Some(1), "a"), (Some(2), "b")])).unwrap();
        append_vectors(&mut file, &kv(&[])).unwrap();
        append_vectors(&mut file, &kv(&[(None, "c")])).unwrap();
        let metrics = SpillMetrics::new();
        // A second, shared file follows the first; an empty file between
        // them is stepped over.
        let mut tail = SpillFile::new(disk.clone());
        append_vectors(&mut tail, &kv(&[(Some(4), "d")])).unwrap();
        let tail = Arc::new(tail);
        let files = vec![Arc::new(file), Arc::new(SpillFile::new(disk.clone())), tail.clone()];
        let mut scan = SpillScan::new(files, kv_schema(), CancelToken::new(), metrics.clone());
        let b1 = scan.next().unwrap().unwrap();
        assert_eq!(b1.rows(), 2);
        let b2 = scan.next().unwrap().unwrap();
        assert_eq!(b2.rows(), 1, "empty chunk skipped");
        assert!(b2.columns[0].is_null(0));
        let b3 = scan.next().unwrap().unwrap();
        assert_eq!(b3.row_values(0)[1], Value::Str("d".into()), "the next file follows");
        assert!(scan.next().unwrap().is_none());
        assert!(
            metrics.bytes_read.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "rehydration traffic recorded"
        );
        drop(scan);
        assert!(disk.used_bytes() > 0, "a file another reader still holds stays");
        drop(tail);
        assert_eq!(disk.used_bytes(), 0, "spill blocks reclaimed with the last reader");
    }

    /// Stage `n` rows of `k` in 64-row batches, the odd lanes of each
    /// selected and every lane hashed to partition 0, under `budget` with
    /// `taken` bytes of it already charged by someone else; returns the
    /// file and, per push, whether the budget was over afterwards.
    fn stage_odd_rows(n: i64, budget: Arc<MemBudget>, taken: usize) -> (SpillFile, Vec<bool>) {
        let cfg = SpillConfig::new(budget.clone(), SimulatedDisk::instant(), 8);
        budget.charge(taken);
        let mut spill = RoutedSpill::new(&cfg);
        let odd = SelVec::from_positions((1..64).step_by(2).collect());
        let mut over = Vec::new();
        for lo in (0..n).step_by(64) {
            let k = Vector::new(ColData::I64((lo..lo + 64).collect()));
            spill.push(&[k], &[0; 64], Some(&odd)).unwrap();
            spill.flush_if_over().unwrap();
            over.push(budget.over());
        }
        let mut files = spill.finish().unwrap();
        assert!(files[1..].iter().all(Option::is_none), "no row routed elsewhere");
        budget.uncharge(taken);
        assert_eq!(budget.used(), 0, "written rows uncharged");
        (files[0].take().expect("partition 0 took every row"), over)
    }

    /// The rows a file holds, chunk by chunk.
    fn chunk_rows(file: &SpillFile) -> Vec<Vec<i64>> {
        (0..file.n_chunks())
            .map(|i| read_vectors(file, i, &[TypeId::I64]).unwrap().0[0].data.as_i64().to_vec())
            .collect()
    }

    #[test]
    fn a_stage_writes_full_chunks_and_never_keeps_the_budget_over() {
        let n = 20_480;
        let odd: Vec<i64> = (1..n).step_by(2).collect();
        // Room to spare: 32 rows a push, written SPILL_CHUNK_ROWS at a
        // time (the rest once the input ends).
        let (file, over) = stage_odd_rows(n, MemBudget::new(1 << 20), 0);
        assert!(!over.contains(&true));
        let chunks = chunk_rows(&file);
        assert_eq!(chunks.len(), odd.len().div_ceil(SPILL_CHUNK_ROWS));
        assert!(chunks[..chunks.len() - 1].iter().all(|c| c.len() == SPILL_CHUNK_ROWS));
        assert_eq!(chunks.concat(), odd);
        // A budget someone else has nearly used up: a push that takes it
        // over writes the stage at once, so after no push is it over.
        let (file, over) = stage_odd_rows(n, MemBudget::new(1 << 20), (1 << 20) - 2_000);
        assert!(!over.contains(&true), "staged rows kept the budget over");
        let chunks = chunk_rows(&file);
        assert!(chunks.len() > odd.len().div_ceil(SPILL_CHUNK_ROWS), "flushed early");
        assert_eq!(chunks.concat(), odd);
    }

    #[test]
    fn a_routed_spill_writes_each_row_to_its_partition_and_lets_go_of_everything() {
        use vw_common::hash::hash_u64;
        let (budget, disk) = (MemBudget::new(1 << 20), SimulatedDisk::instant());
        let mut cfg = SpillConfig::new(budget.clone(), disk.clone(), 4);
        cfg.depth = 1; // the stratum a first-level partition recurses on
        let mut spill = RoutedSpill::new(&cfg);
        let keys: Vec<i64> = (0..1000).collect();
        let hashes: Vec<u64> = keys.iter().map(|&k| hash_u64(k as u64)).collect();
        for (k, h) in keys.chunks(100).zip(hashes.chunks(100)) {
            spill.push(&[Vector::new(ColData::I64(k.to_vec()))], h, None).unwrap();
        }
        assert!(budget.used() > 0, "staged rows are charged");
        let files = spill.finish().unwrap();
        assert_eq!(budget.used(), 0, "written rows uncharged");
        for (si, file) in files.iter().enumerate() {
            let rows = chunk_rows(file.as_ref().expect("1000 keys reach every partition"));
            let want: Vec<i64> = keys
                .iter()
                .copied()
                // Stratum 1 of a 4-way split: the hash's bits 60..62.
                .filter(|&k| (hash_u64(k as u64) >> 60) as usize & 3 == si)
                .collect();
            assert_eq!(rows.concat(), want, "partition {si}");
        }
        assert_eq!(cfg.metrics.files.load(std::sync::atomic::Ordering::Relaxed), 4);
        assert!(disk.used_bytes() > 0);
        drop(files);
        assert_eq!(disk.used_bytes(), 0, "the files free their blocks");
        // Dropped unfinished (an error or KILL unwind): staged rows uncharged.
        let mut spill = RoutedSpill::new(&cfg);
        spill.push(&[Vector::new(ColData::I64(keys.clone()))], &hashes, None).unwrap();
        assert!(budget.used() > 0);
        drop(spill);
        assert_eq!((budget.used(), disk.used_bytes()), (0, 0));
    }

    #[test]
    fn spill_scan_observes_cancellation() {
        let mut file = SpillFile::new(SimulatedDisk::instant());
        append_vectors(&mut file, &kv(&[(Some(1), "a")])).unwrap();
        let cancel = CancelToken::new();
        let mut scan =
            SpillScan::new(vec![Arc::new(file)], kv_schema(), cancel.clone(), SpillMetrics::new());
        cancel.cancel();
        assert!(matches!(scan.next(), Err(VwError::Cancelled)));
    }
}
