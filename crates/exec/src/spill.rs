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
//! The policy half — *when* to spill and *which* partition — lives in
//! [`crate::partition`] (the [`MemBudget`]
//! governor, victim selection, radix strata, recursion depth floor); what
//! a partition writes and how spilled partitions are re-processed is the
//! operators' (`op/hashjoin.rs`, `op/hashagg.rs`).
//!
//! Temp space is owned by the operator: a [`SpillFile`] frees its blocks
//! on drop, so spill storage is reclaimed whether the query completes,
//! errors, or is `KILL`ed mid-spill.

use crate::cancel::CancelToken;
use crate::op::Operator;
use crate::partition::{MemBudget, SpillConfig, SpillMetrics};
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

/// Rows a [`SpillStage`] gathers before it writes them as one chunk.
pub const SPILL_CHUNK_ROWS: usize = 2048;

/// The one writer of a spill file: rows bound for it are gathered until a
/// chunk's worth is staged and then written as one chunk — a batch
/// spreads over the partitions, so writing each batch's share at once
/// would make chunks of a few rows each, replayed as batches as small. A
/// block of rows that is already whole (an evicted build slot, an
/// aggregate shard's partial state) is written as a chunk of its own
/// ([`SpillStage::append`]).
///
/// At most [`SPILL_CHUNK_ROWS`] rows (plus one batch's share) wait; their
/// bytes are charged to the query's budget while they do. The flush rule:
/// a stage writes when it is full, and when the budget is over once its
/// operator has evicted what it could ([`SpillStage::flush_if_over`]) —
/// a hash build evicts its resident slots first, a prober has nothing to
/// evict — so staged rows never keep the budget over (the other operators
/// of the query evict while it is). The staged vectors are flat: a coded
/// source inflates only the lanes staged, and the stage pins no pack's
/// arena.
pub struct SpillStage {
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
    pub fn new(cfg: &SpillConfig) -> SpillStage {
        SpillStage {
            file: Some(SpillFile::new(cfg.disk.clone())),
            vecs: Vec::new(),
            charged: 0,
            budget: cfg.budget.clone(),
            metrics: cfg.metrics.clone(),
        }
    }

    /// Stage the `sel` lanes of `cols`; a full stage is written out.
    pub fn push(&mut self, cols: &[Vector], sel: &SelVec) -> Result<()> {
        if self.vecs.is_empty() {
            self.vecs = cols.iter().map(|v| Vector::new(ColData::new(v.type_id()))).collect();
        }
        let mut bytes = 0;
        for (dst, src) in self.vecs.iter_mut().zip(cols) {
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

    /// Write the staged rows out if the budget is over.
    pub fn flush_if_over(&mut self) -> Result<()> {
        if self.budget.over() {
            self.flush()?;
        }
        Ok(())
    }

    /// Write `cols` (equally long) as one chunk of their own.
    pub fn append<V: Borrow<Vector>>(&mut self, cols: &[V]) -> Result<()> {
        let file = self.file.as_mut().expect("a stage writes until it is finished");
        self.metrics.record_write(append_vectors(file, cols)? as u64);
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
    pub fn finish(mut self) -> Result<SpillFile> {
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
    /// selected, under `budget` with `taken` bytes of it already charged
    /// by someone else; returns the file and, per push, whether the budget
    /// was over afterwards.
    fn stage_odd_rows(n: i64, budget: Arc<MemBudget>, taken: usize) -> (SpillFile, Vec<bool>) {
        let cfg = SpillConfig::new(budget.clone(), SimulatedDisk::instant(), 8);
        budget.charge(taken);
        let mut stage = SpillStage::new(&cfg);
        let odd = SelVec::from_positions((1..64).step_by(2).collect());
        let mut over = Vec::new();
        for lo in (0..n).step_by(64) {
            let k = Vector::new(ColData::I64((lo..lo + 64).collect()));
            stage.push(&[k], &odd).unwrap();
            stage.flush_if_over().unwrap();
            over.push(budget.over());
        }
        let file = stage.finish().unwrap();
        budget.uncharge(taken);
        assert_eq!(budget.used(), 0, "written rows uncharged");
        (file, over)
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
