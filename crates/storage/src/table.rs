//! Table storage: packs of compressed column chunks in DSM or PAX layout,
//! with per-pack MinMax summaries for scan pruning.
//!
//! * **DSM** (decomposed storage model): every column chunk is its own disk
//!   block; a scan touching `k` of `N` columns reads only `k` blocks per
//!   pack. This is the favourable layout for wide analytical tables.
//! * **PAX** (partition attributes across): all column chunks of a pack
//!   share one disk block (column-wise *within* the block); any access reads
//!   the whole pack block, but a row range is always one I/O.
//!
//! Vectorwise storage is a hybrid of these; benchmark C9 measures the
//! trade-off by scanning varying column subsets under both layouts.

use crate::buffer::BufferPool;
use crate::disk::{BlockId, SimulatedDisk};
use crate::pack::{decode_chunk, encode_chunk};
use std::sync::Arc;
use vw_common::{ColData, Result, Schema, Value, VwError};

/// Physical layout of a table's packs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One block per column chunk.
    Dsm,
    /// One block per pack holding all column chunks.
    Pax,
}

/// Location and summary of one column chunk.
#[derive(Debug, Clone)]
pub struct ChunkMeta {
    /// Block holding the chunk bytes (the pack's shared block under PAX).
    pub block: BlockId,
    /// Byte offset within the block.
    pub offset: usize,
    /// Byte length of the chunk.
    pub length: usize,
    /// Minimum non-NULL value, if any non-NULL values exist.
    pub min: Option<Value>,
    /// Maximum non-NULL value, if any non-NULL values exist.
    pub max: Option<Value>,
    /// Number of NULLs in the chunk.
    pub null_count: usize,
}

/// Metadata of one pack (a horizontal partition of `n_rows` rows).
#[derive(Debug, Clone)]
pub struct PackMeta {
    /// First row id covered by this pack.
    pub row_start: u64,
    /// Rows in this pack.
    pub n_rows: usize,
    /// Per-column chunk locations, in schema order.
    pub columns: Vec<ChunkMeta>,
}

/// A contiguous row range produced by pruning, handed to scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanRange {
    /// Pack index within the table.
    pub pack: usize,
    /// First row id of the pack.
    pub row_start: u64,
    /// Rows in the pack.
    pub n_rows: usize,
}

/// Columnar storage of one table on a simulated disk.
pub struct TableStorage {
    schema: Schema,
    layout: Layout,
    disk: Arc<SimulatedDisk>,
    packs: Vec<PackMeta>,
    n_rows: u64,
}

fn minmax(data: &ColData, nulls: Option<&[bool]>) -> (Option<Value>, Option<Value>, usize) {
    let mut min: Option<Value> = None;
    let mut max: Option<Value> = None;
    let mut null_count = 0usize;
    for i in 0..data.len() {
        if nulls.is_some_and(|m| m[i]) {
            null_count += 1;
            continue;
        }
        let v = data.get_value(i);
        match &min {
            None => {
                min = Some(v.clone());
                max = Some(v);
                continue;
            }
            Some(m) => {
                if v.sql_cmp(m) == Some(std::cmp::Ordering::Less) {
                    min = Some(v.clone());
                }
            }
        }
        if let Some(m) = &max {
            if v.sql_cmp(m) == Some(std::cmp::Ordering::Greater) {
                max = Some(v);
            }
        }
    }
    (min, max, null_count)
}

impl TableStorage {
    /// Empty table storage.
    pub fn new(disk: Arc<SimulatedDisk>, schema: Schema, layout: Layout) -> TableStorage {
        TableStorage { schema, layout, disk, packs: Vec::new(), n_rows: 0 }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The physical layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Total stored rows.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// Number of packs.
    pub fn n_packs(&self) -> usize {
        self.packs.len()
    }

    /// Metadata of pack `i`.
    pub fn pack_meta(&self, i: usize) -> &PackMeta {
        &self.packs[i]
    }

    /// Index of the pack holding stable row `row`; `None` beyond the last
    /// pack. Packs are contiguous and ascending: a binary search.
    pub fn pack_of_row(&self, row: u64) -> Option<usize> {
        let i = self.packs.partition_point(|p| p.row_start + p.n_rows as u64 <= row);
        (i < self.packs.len()).then_some(i)
    }

    /// The device this table lives on.
    pub fn disk(&self) -> &Arc<SimulatedDisk> {
        &self.disk
    }

    /// Append one pack from per-column data (+ optional NULL indicators).
    ///
    /// All columns must have identical lengths matching the schema order and
    /// types. One call creates exactly one pack; bulk loaders chunk their
    /// input to the configured pack size before calling this.
    pub fn append_pack(&mut self, columns: &[ColData], nulls: &[Option<Vec<bool>>]) -> Result<()> {
        if columns.len() != self.schema.len() || nulls.len() != self.schema.len() {
            return Err(VwError::Storage(format!(
                "append_pack got {} columns, schema has {}",
                columns.len(),
                self.schema.len()
            )));
        }
        let n = columns.first().map_or(0, |c| c.len());
        if n == 0 {
            return Ok(());
        }
        for (i, col) in columns.iter().enumerate() {
            let field = self.schema.field(i);
            if col.len() != n {
                return Err(VwError::Storage("ragged column lengths in pack".into()));
            }
            if col.type_id() != field.ty {
                return Err(VwError::Storage(format!(
                    "column {} has type {}, schema says {}",
                    field.name,
                    col.type_id(),
                    field.ty
                )));
            }
            if let Some(mask) = &nulls[i] {
                if mask.len() != n {
                    return Err(VwError::Storage("null mask length mismatch".into()));
                }
                if !field.nullable && mask.iter().any(|&b| b) {
                    return Err(VwError::Storage(format!(
                        "NULL in NOT NULL column {}",
                        field.name
                    )));
                }
            }
        }

        let encoded: Vec<Vec<u8>> =
            columns.iter().zip(nulls).map(|(c, m)| encode_chunk(c, m.as_deref())).collect();

        let mut metas = Vec::with_capacity(columns.len());
        match self.layout {
            Layout::Dsm => {
                for ((col, nul), bytes) in columns.iter().zip(nulls).zip(encoded) {
                    let (min, max, null_count) = minmax(col, nul.as_deref());
                    let length = bytes.len();
                    let block = self.disk.write_new_retrying(bytes)?;
                    metas.push(ChunkMeta { block, offset: 0, length, min, max, null_count });
                }
            }
            Layout::Pax => {
                let mut blob = Vec::new();
                let mut offsets = Vec::with_capacity(encoded.len());
                for bytes in &encoded {
                    offsets.push((blob.len(), bytes.len()));
                    blob.extend_from_slice(bytes);
                }
                let block = self.disk.write_new_retrying(blob)?;
                for ((col, nul), (offset, length)) in columns.iter().zip(nulls).zip(offsets) {
                    let (min, max, null_count) = minmax(col, nul.as_deref());
                    metas.push(ChunkMeta { block, offset, length, min, max, null_count });
                }
            }
        }
        self.packs.push(PackMeta { row_start: self.n_rows, n_rows: n, columns: metas });
        self.n_rows += n as u64;
        Ok(())
    }

    /// Convenience loader: splits whole columns into packs of `pack_size`.
    pub fn append_columns(
        &mut self,
        columns: &[ColData],
        nulls: &[Option<Vec<bool>>],
        pack_size: usize,
    ) -> Result<()> {
        let n = columns.first().map_or(0, |c| c.len());
        let mut start = 0;
        while start < n {
            let end = (start + pack_size).min(n);
            let cols: Vec<ColData> = columns
                .iter()
                .map(|c| {
                    let mut out = ColData::with_capacity(c.type_id(), end - start);
                    out.extend_from_range(c, start, end);
                    out
                })
                .collect();
            let nls: Vec<Option<Vec<bool>>> =
                nulls.iter().map(|m| m.as_ref().map(|m| m[start..end].to_vec())).collect();
            self.append_pack(&cols, &nls)?;
            start = end;
        }
        Ok(())
    }

    /// Read the listed columns of pack `pack_idx` through `pool`.
    ///
    /// Under PAX this fetches the single pack block once; under DSM it
    /// fetches one block per requested column.
    pub fn read_pack(
        &self,
        pool: &BufferPool,
        pack_idx: usize,
        col_indices: &[usize],
    ) -> Result<Vec<(ColData, Option<Vec<bool>>)>> {
        let pack = self
            .packs
            .get(pack_idx)
            .ok_or_else(|| VwError::Storage(format!("pack {pack_idx} out of range")))?;
        let mut out = Vec::with_capacity(col_indices.len());
        for &ci in col_indices {
            let meta = pack.columns.get(ci).ok_or_else(|| {
                VwError::Storage(format!("column {ci} out of range in pack {pack_idx}"))
            })?;
            let block = pool.get(meta.block)?;
            let bytes = block
                .get(meta.offset..meta.offset + meta.length)
                .ok_or_else(|| VwError::Corruption("chunk extent outside block".into()))?;
            out.push(decode_chunk(bytes, self.schema.field(ci).ty, pack.n_rows)?);
        }
        Ok(out)
    }

    /// The table scan's reader: [`TableStorage::read_pack`], but preserving
    /// on-disk encodings the engine can execute on directly: PDICT
    /// string chunks come back as codes + shared dictionary, RLE integer
    /// chunks carry their run list. Same block fetch path (and therefore
    /// the same retry/fault accounting) as the flat reader.
    pub fn read_pack_encoded(
        &self,
        pool: &BufferPool,
        pack_idx: usize,
        col_indices: &[usize],
    ) -> Result<Vec<crate::pack::EncodedChunk>> {
        let pack = self
            .packs
            .get(pack_idx)
            .ok_or_else(|| VwError::Storage(format!("pack {pack_idx} out of range")))?;
        let mut out = Vec::with_capacity(col_indices.len());
        for &ci in col_indices {
            let meta = pack.columns.get(ci).ok_or_else(|| {
                VwError::Storage(format!("column {ci} out of range in pack {pack_idx}"))
            })?;
            let block = pool.get(meta.block)?;
            let bytes = block
                .get(meta.offset..meta.offset + meta.length)
                .ok_or_else(|| VwError::Corruption("chunk extent outside block".into()))?;
            out.push(crate::pack::decode_chunk_encoded(
                bytes,
                self.schema.field(ci).ty,
                pack.n_rows,
            )?);
        }
        Ok(out)
    }

    /// Pack indices whose MinMax ranges may satisfy
    /// `lo <= column <= hi` (either bound optional). NULL-only chunks are
    /// pruned when a bound is present (NULL never satisfies a comparison).
    pub fn prune(&self, col: usize, lo: Option<&Value>, hi: Option<&Value>) -> Vec<ScanRange> {
        use std::cmp::Ordering::*;
        self.packs
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let m = &p.columns[col];
                if lo.is_none() && hi.is_none() {
                    return true;
                }
                let (Some(cmin), Some(cmax)) = (&m.min, &m.max) else {
                    return false; // all-NULL chunk cannot satisfy a bound
                };
                if let Some(lo) = lo {
                    // keep if cmax >= lo
                    if cmax.sql_cmp(lo) == Some(Less) {
                        return false;
                    }
                }
                if let Some(hi) = hi {
                    if cmin.sql_cmp(hi) == Some(Greater) {
                        return false;
                    }
                }
                true
            })
            .map(|(i, p)| ScanRange { pack: i, row_start: p.row_start, n_rows: p.n_rows })
            .collect()
    }

    /// Total bytes this table occupies on the device.
    pub fn stored_bytes(&self) -> usize {
        match self.layout {
            Layout::Dsm => self.packs.iter().flat_map(|p| p.columns.iter().map(|c| c.length)).sum(),
            Layout::Pax => {
                // One block per pack; sum unique block sizes.
                self.packs.iter().map(|p| p.columns.iter().map(|c| c.length).sum::<usize>()).sum()
            }
        }
    }

    /// Adopt another storage's pack metadata (block payloads are shared on
    /// the same device). Stable storage is immutable between checkpoints,
    /// so this produces a consistent point-in-time snapshot for scans that
    /// must not hold the catalog lock.
    pub fn adopt_packs(&mut self, src: &TableStorage) {
        debug_assert!(Arc::ptr_eq(&self.disk, &src.disk), "snapshot across devices");
        self.packs = src.packs.clone();
        self.n_rows = src.n_rows;
    }

    /// Free every block belonging to this table (DROP TABLE / checkpoint
    /// replacement). The storage object must not be used afterwards.
    pub fn free_all(&self, pool: Option<&BufferPool>) {
        for p in &self.packs {
            match self.layout {
                Layout::Pax => {
                    if let Some(c) = p.columns.first() {
                        if let Some(pool) = pool {
                            pool.invalidate(c.block);
                        }
                        self.disk.free(c.block);
                    }
                }
                Layout::Dsm => {
                    for c in &p.columns {
                        if let Some(pool) = pool {
                            pool.invalidate(c.block);
                        }
                        self.disk.free(c.block);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::{Field, TypeId};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::not_null("id", TypeId::I64),
            Field::nullable("qty", TypeId::I32),
            Field::nullable("flag", TypeId::Str),
        ])
        .unwrap()
    }

    fn sample_columns(n: usize, offset: i64) -> (Vec<ColData>, Vec<Option<Vec<bool>>>) {
        let ids = ColData::I64((0..n as i64).map(|i| i + offset).collect());
        let qty = ColData::I32((0..n).map(|i| (i % 50) as i32).collect());
        let flags = ColData::Str((0..n).map(|i| ["A", "N", "R"][i % 3].to_string()).collect());
        let qty_nulls: Vec<bool> = (0..n).map(|i| i % 10 == 0).collect();
        (vec![ids, qty, flags], vec![None, Some(qty_nulls), None])
    }

    fn load(layout: Layout, n: usize, pack: usize) -> (TableStorage, Arc<BufferPool>) {
        let disk = SimulatedDisk::instant();
        let pool = BufferPool::new(disk.clone(), 16 << 20);
        let mut t = TableStorage::new(disk, schema(), layout);
        let (cols, nulls) = sample_columns(n, 0);
        t.append_columns(&cols, &nulls, pack).unwrap();
        (t, pool)
    }

    #[test]
    fn roundtrip_dsm() {
        let (t, pool) = load(Layout::Dsm, 1000, 256);
        assert_eq!(t.n_rows(), 1000);
        assert_eq!(t.n_packs(), 4);
        let chunks = t.read_pack(&pool, 1, &[0, 2]).unwrap();
        assert_eq!(chunks[0].0.get_value(0), Value::I64(256));
        // Global row 258 → flag index 258 % 3 == 0 → "A".
        assert_eq!(chunks[1].0.get_value(2), Value::Str("A".into()));
    }

    #[test]
    fn roundtrip_pax() {
        let (t, pool) = load(Layout::Pax, 1000, 300);
        assert_eq!(t.n_packs(), 4);
        let chunks = t.read_pack(&pool, 3, &[1]).unwrap();
        let (qty, nulls) = &chunks[0];
        assert_eq!(qty.len(), 100); // last pack = 1000 - 3*300
        assert!(nulls.is_some());
    }

    #[test]
    fn pax_reads_one_block_dsm_reads_k() {
        let (t_dsm, pool_dsm) = load(Layout::Dsm, 512, 512);
        let (t_pax, pool_pax) = load(Layout::Pax, 512, 512);
        t_dsm.read_pack(&pool_dsm, 0, &[0]).unwrap();
        t_pax.read_pack(&pool_pax, 0, &[0]).unwrap();
        let dsm_bytes = pool_dsm.disk().stats().bytes_read;
        let pax_bytes = pool_pax.disk().stats().bytes_read;
        assert!(
            pax_bytes > dsm_bytes * 2,
            "PAX single-column scan must read the whole pack block ({pax_bytes} vs {dsm_bytes})"
        );
    }

    #[test]
    fn minmax_pruning() {
        let (t, _pool) = load(Layout::Dsm, 1000, 100);
        // id ranges per pack: [0..99], [100..199], ...
        let ranges = t.prune(0, Some(&Value::I64(250)), Some(&Value::I64(420)));
        let packs: Vec<usize> = ranges.iter().map(|r| r.pack).collect();
        assert_eq!(packs, vec![2, 3, 4]);
        // Unbounded keeps everything.
        assert_eq!(t.prune(0, None, None).len(), 10);
        // Out-of-domain range prunes everything.
        assert!(t.prune(0, Some(&Value::I64(5000)), None).is_empty());
    }

    #[test]
    fn schema_violations_rejected() {
        let disk = SimulatedDisk::instant();
        let mut t = TableStorage::new(disk, schema(), Layout::Dsm);
        // Wrong arity.
        assert!(t.append_pack(&[ColData::I64(vec![1])], &[None]).is_err());
        // Wrong type.
        let bad =
            vec![ColData::I32(vec![1]), ColData::I32(vec![1]), ColData::Str(vec!["x".into()])];
        assert!(t.append_pack(&bad, &[None, None, None]).is_err());
        // NULL in NOT NULL column.
        let cols =
            vec![ColData::I64(vec![1]), ColData::I32(vec![1]), ColData::Str(vec!["x".into()])];
        let nulls = vec![Some(vec![true]), None, None];
        assert!(t.append_pack(&cols, &nulls).is_err());
        // Ragged lengths.
        let cols =
            vec![ColData::I64(vec![1, 2]), ColData::I32(vec![1]), ColData::Str(vec!["x".into()])];
        assert!(t.append_pack(&cols, &[None, None, None]).is_err());
    }

    #[test]
    fn all_null_chunk_pruned_under_bounds() {
        let disk = SimulatedDisk::instant();
        let mut t = TableStorage::new(disk, schema(), Layout::Dsm);
        let cols = vec![
            ColData::I64(vec![1, 2]),
            ColData::I32(vec![0, 0]),
            ColData::Str(vec!["a".into(), "b".into()]),
        ];
        let nulls = vec![None, Some(vec![true, true]), None];
        t.append_pack(&cols, &nulls).unwrap();
        assert!(t.prune(1, Some(&Value::I32(0)), None).is_empty());
        assert_eq!(t.prune(1, None, None).len(), 1);
    }

    #[test]
    fn free_all_releases_blocks() {
        let (t, pool) = load(Layout::Dsm, 500, 100);
        let disk = t.disk().clone();
        assert!(disk.used_bytes() > 0);
        t.free_all(Some(&pool));
        assert_eq!(disk.used_bytes(), 0);
    }

    #[test]
    fn empty_append_is_noop() {
        let disk = SimulatedDisk::instant();
        let mut t = TableStorage::new(disk, schema(), Layout::Dsm);
        let cols =
            vec![ColData::new(TypeId::I64), ColData::new(TypeId::I32), ColData::new(TypeId::Str)];
        t.append_pack(&cols, &[None, None, None]).unwrap();
        assert_eq!(t.n_packs(), 0);
        assert_eq!(t.n_rows(), 0);
    }
}
