//! Table storage: a table's stable rows as packs of compressed column
//! chunks, one disk block per chunk (DSM: a scan touching `k` of `N`
//! columns reads `k` blocks per pack), with per-chunk MinMax summaries for
//! scan pruning.
//!
//! # Who frees a block
//!
//! A [`Pack`] owns its blocks. They are released through the buffer pool
//! ([`BufferPool::free`]) when the last reference to the pack drops, and at
//! no other time. A [`TableStorage`] is one **generation** of a table's
//! stable storage, an immutable list of `Arc<Pack>`, and each published
//! image of the catalog holds one behind an `Arc`. An image *pins* the
//! generations it names, and a scan the one it started on, by cloning that
//! `Arc`. CHECKPOINT and bulk load publish an image with the next
//! generation and DROP TABLE one without the table; neither frees
//! anything. The blocks of a generation go with its last holder, scan or
//! image, the way a [`SpillFile`](crate::SpillFile)'s go with the file. So a scan never reads a freed block and holds no lock while
//! it runs, and a write that fails half-way drops the generation it was
//! building, and with it every block it wrote.
//!
//! Generations share packs: the generation a bulk load installs is the
//! previous one's packs, by reference, plus the new ones.

use crate::buffer::BufferPool;
use crate::disk::BlockId;
use crate::pack::{decode_chunk_encoded, encode_chunk, EncodedChunk};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use vw_common::{ColData, Date, Result, Schema, Value, VwError};

/// Location and summary of one column chunk.
#[derive(Debug, Clone)]
pub struct ChunkMeta {
    /// Block holding the chunk bytes.
    pub block: BlockId,
    /// Byte length of the chunk.
    pub length: usize,
    /// Minimum non-NULL value, if any non-NULL values exist.
    pub min: Option<Value>,
    /// Maximum non-NULL value, if any non-NULL values exist.
    pub max: Option<Value>,
    /// Number of NULLs in the chunk.
    pub null_count: usize,
}

/// One pack: a horizontal partition of `n_rows` rows, one block per
/// column chunk. It owns those blocks (see the module docs).
pub struct Pack {
    /// First row id covered by this pack.
    pub row_start: u64,
    /// Rows in this pack.
    pub n_rows: usize,
    /// Per-column chunk locations, in schema order.
    pub columns: Vec<ChunkMeta>,
    /// Where the blocks are read through and released to.
    pool: Arc<BufferPool>,
}

impl Drop for Pack {
    fn drop(&mut self) {
        for c in &self.columns {
            self.pool.free(c.block);
        }
    }
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

/// One generation of a table's stable storage (see the module docs).
/// Cloning it is cheap and shares every pack.
#[derive(Clone)]
pub struct TableStorage {
    schema: Schema,
    pool: Arc<BufferPool>,
    packs: Vec<Arc<Pack>>,
    n_rows: u64,
}

/// MinMax summary and NULL count of rows `rows` of a column, read in
/// place: values compare the way `Value::sql_cmp` orders two of the
/// column's type (`f64` by `total_cmp`), and only the two winners become
/// `Value`s.
fn minmax(
    data: &ColData,
    rows: Range<usize>,
    nulls: Option<&[bool]>,
) -> (Option<Value>, Option<Value>, usize) {
    let nulls = nulls.map(|m| &m[rows.clone()]);
    // The first minimum and maximum of the non-NULL values by `cmp`, as
    // `Value`s.
    fn fold<T>(
        values: &[T],
        nulls: Option<&[bool]>,
        cmp: impl Fn(&T, &T) -> Ordering,
        value: impl Fn(&T) -> Value,
    ) -> (Option<Value>, Option<Value>) {
        let mut live = values.iter().enumerate().filter(|(i, _)| !nulls.is_some_and(|m| m[*i]));
        let Some((_, first)) = live.next() else { return (None, None) };
        let (lo, hi) = live.fold((first, first), |(lo, hi), (_, v)| {
            (if cmp(v, lo).is_lt() { v } else { lo }, if cmp(v, hi).is_gt() { v } else { hi })
        });
        (Some(value(lo)), Some(value(hi)))
    }
    let (min, max) = match data {
        ColData::Bool(v) => fold(&v[rows], nulls, Ord::cmp, |&x| Value::Bool(x)),
        ColData::I8(v) => fold(&v[rows], nulls, Ord::cmp, |&x| Value::I8(x)),
        ColData::I16(v) => fold(&v[rows], nulls, Ord::cmp, |&x| Value::I16(x)),
        ColData::I32(v) => fold(&v[rows], nulls, Ord::cmp, |&x| Value::I32(x)),
        ColData::I64(v) => fold(&v[rows], nulls, Ord::cmp, |&x| Value::I64(x)),
        ColData::F64(v) => fold(&v[rows], nulls, f64::total_cmp, |&x| Value::F64(x)),
        ColData::Str(v) => fold(&v[rows], nulls, Ord::cmp, |x| Value::Str(x.clone())),
        ColData::Date(v) => fold(&v[rows], nulls, Ord::cmp, |&x| Value::Date(Date(x))),
    };
    (min, max, nulls.map_or(0, |m| m.iter().filter(|&&b| b).count()))
}

impl TableStorage {
    /// Empty table storage whose blocks live on `pool`'s device.
    pub fn new(pool: Arc<BufferPool>, schema: Schema) -> TableStorage {
        TableStorage { schema, pool, packs: Vec::new(), n_rows: 0 }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total stored rows.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// Number of packs.
    pub fn n_packs(&self) -> usize {
        self.packs.len()
    }

    /// Pack `i`.
    pub fn pack(&self, i: usize) -> &Pack {
        &self.packs[i]
    }

    /// Index of the pack holding stable row `row`; `None` beyond the last
    /// pack. Packs are contiguous and ascending: a binary search.
    pub fn pack_of_row(&self, row: u64) -> Option<usize> {
        let i = self.packs.partition_point(|p| p.row_start + p.n_rows as u64 <= row);
        (i < self.packs.len()).then_some(i)
    }

    /// Append whole columns as packs of `pack_size` rows, each encoded
    /// from its row range of the input in place.
    ///
    /// All columns must have identical lengths matching the schema order
    /// and types. A write that fails frees the chunks of its pack already
    /// written; the packs before it stay in this generation, which the
    /// caller then drops.
    pub fn append_columns(
        &mut self,
        columns: &[ColData],
        nulls: &[Option<Vec<bool>>],
        pack_size: usize,
    ) -> Result<()> {
        if columns.len() != self.schema.len() || nulls.len() != self.schema.len() {
            return Err(VwError::Storage(format!(
                "append got {} columns, schema has {}",
                columns.len(),
                self.schema.len()
            )));
        }
        let n = columns.first().map_or(0, |c| c.len());
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
        for start in (0..n).step_by(pack_size.max(1)) {
            self.write_pack(columns, nulls, start..n.min(start + pack_size))?;
        }
        Ok(())
    }

    /// Write rows `rows` of checked columns as one pack.
    fn write_pack(
        &mut self,
        columns: &[ColData],
        nulls: &[Option<Vec<bool>>],
        rows: Range<usize>,
    ) -> Result<()> {
        let mut pack = Pack {
            row_start: self.n_rows,
            n_rows: rows.len(),
            columns: Vec::with_capacity(columns.len()),
            pool: self.pool.clone(),
        };
        for (col, nul) in columns.iter().zip(nulls) {
            let bytes = encode_chunk(col, rows.clone(), nul.as_deref());
            let length = bytes.len();
            let block = self.pool.disk().write_new_retrying(bytes)?;
            let (min, max, null_count) = minmax(col, rows.clone(), nul.as_deref());
            pack.columns.push(ChunkMeta { block, length, min, max, null_count });
        }
        self.n_rows += pack.n_rows as u64;
        self.packs.push(Arc::new(pack));
        Ok(())
    }

    /// Read the listed columns of pack `pack_idx` through the buffer pool,
    /// one block per column, preserving the on-disk encodings the engine
    /// executes on directly: string chunks come back as codes over a
    /// shared arena (PDICT dictionary or raw rows), RLE integer chunks
    /// carry their run list
    /// ([`EncodedChunk::into_flat`] inflates one).
    pub fn read_pack_encoded(
        &self,
        pack_idx: usize,
        col_indices: &[usize],
    ) -> Result<Vec<EncodedChunk>> {
        let pack = self
            .packs
            .get(pack_idx)
            .ok_or_else(|| VwError::Storage(format!("pack {pack_idx} out of range")))?;
        col_indices
            .iter()
            .map(|&ci| {
                let meta = pack.columns.get(ci).ok_or_else(|| {
                    VwError::Storage(format!("column {ci} out of range in pack {pack_idx}"))
                })?;
                let bytes = self.pool.get(meta.block)?;
                decode_chunk_encoded(&bytes, self.schema.field(ci).ty, pack.n_rows)
            })
            .collect()
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

    /// Total bytes this generation occupies on the device.
    pub fn stored_bytes(&self) -> usize {
        self.packs.iter().flat_map(|p| &p.columns).map(|c| c.length).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimulatedDisk;
    use crate::stats::tests::every_type;
    use vw_common::{FaultConfig, Field, TypeId};

    /// The summary this module had before it folded typed slices: a
    /// `Value` per row, compared by `sql_cmp`. Kept as the oracle.
    fn minmax_reference(
        data: &ColData,
        nulls: Option<&[bool]>,
    ) -> (Option<Value>, Option<Value>, usize) {
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
                    if v.sql_cmp(m) == Some(Ordering::Less) {
                        min = Some(v.clone());
                    }
                }
            }
            if let Some(m) = &max {
                if v.sql_cmp(m) == Some(Ordering::Greater) {
                    max = Some(v);
                }
            }
        }
        (min, max, null_count)
    }

    /// Every pack `append_columns` wrote is the one the copying writer it
    /// replaced wrote: each pack's rows copied out of every column, encoded
    /// and summarized by [`minmax_reference`]. Same chunk bytes, same
    /// MinMax (doubles compared by bits), same NULL counts.
    #[test]
    fn packs_written_in_place_match_the_copying_reference() {
        let schema = Schema::new(
            TypeId::ALL.iter().map(|&ty| Field::nullable(format!("c_{ty}"), ty)).collect(),
        )
        .unwrap();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (n, pack_size) in [(0, 64), (1, 64), (1000, 256), (2500, 1024), (700, 700)] {
            let columns = every_type(n, &mut next);
            let nulls: Vec<Option<Vec<bool>>> = (0..columns.len())
                .map(|c| match c % 4 {
                    0 => None,
                    1 => Some((0..n).map(|_| next() % 5 == 0).collect()),
                    2 => Some(vec![true; n]),
                    _ => Some(vec![false; n]),
                })
                .collect();
            let mut t = TableStorage::new(
                BufferPool::new(SimulatedDisk::instant(), 16 << 20),
                schema.clone(),
            );
            t.append_columns(&columns, &nulls, pack_size).unwrap();
            assert_eq!(t.n_packs(), n.div_ceil(pack_size));
            for p in 0..t.n_packs() {
                let (start, end) = (p * pack_size, n.min((p + 1) * pack_size));
                assert_eq!((t.pack(p).row_start, t.pack(p).n_rows), (start as u64, end - start));
                for (c, meta) in t.pack(p).columns.iter().enumerate() {
                    let mut copy = ColData::with_capacity(columns[c].type_id(), end - start);
                    copy.extend_from_range(&columns[c], start, end);
                    let mask = nulls[c].as_ref().map(|m| m[start..end].to_vec());
                    let what = format!("n={n} pack {p} column {}", copy.type_id());
                    let bytes = encode_chunk(&copy, 0..copy.len(), mask.as_deref());
                    assert_eq!(*t.pool.get(meta.block).unwrap(), bytes, "{what}");
                    assert_eq!(meta.length, bytes.len(), "{what}");
                    let (min, max, null_count) = minmax_reference(&copy, mask.as_deref());
                    assert_eq!(meta.min, min, "{what}");
                    assert_eq!(meta.max, max, "{what}");
                    assert_eq!(meta.null_count, null_count, "{what}");
                }
            }
        }
    }

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

    fn empty() -> TableStorage {
        TableStorage::new(BufferPool::new(SimulatedDisk::instant(), 16 << 20), schema())
    }

    /// Pack `pack`'s `cols`, inflated.
    fn read(t: &TableStorage, pack: usize, cols: &[usize]) -> Vec<(ColData, Option<Vec<bool>>)> {
        let chunks = t.read_pack_encoded(pack, cols).unwrap();
        chunks.into_iter().map(|c| c.into_flat().unwrap()).collect()
    }

    fn load(n: usize, pack: usize) -> TableStorage {
        let mut t = empty();
        let (cols, nulls) = sample_columns(n, 0);
        t.append_columns(&cols, &nulls, pack).unwrap();
        t
    }

    #[test]
    fn roundtrip() {
        let t = load(1000, 256);
        assert_eq!(t.n_rows(), 1000);
        assert_eq!(t.n_packs(), 4);
        let chunks = read(&t, 1, &[0, 2]);
        assert_eq!(chunks[0].0.get_value(0), Value::I64(256));
        // Global row 258 → flag index 258 % 3 == 0 → "A".
        assert_eq!(chunks[1].0.get_value(2), Value::Str("A".into()));
        let (qty, nulls) = &read(&t, 3, &[1])[0];
        assert_eq!(qty.len(), 232); // last pack = 1000 - 3*256
        assert!(nulls.is_some());
    }

    #[test]
    fn a_scan_reads_only_the_columns_it_asks_for() {
        let t = load(512, 512);
        let disk = t.pool.disk().clone();
        read(&t, 0, &[0]);
        assert_eq!(disk.stats().reads, 1);
        assert_eq!(disk.stats().bytes_read, t.pack(0).columns[0].length as u64);
    }

    #[test]
    fn minmax_pruning() {
        let t = load(1000, 100);
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
        let mut t = empty();
        // Wrong arity.
        assert!(t.append_columns(&[ColData::I64(vec![1])], &[None], 64).is_err());
        // Wrong type.
        let bad =
            vec![ColData::I32(vec![1]), ColData::I32(vec![1]), ColData::Str(vec!["x".into()])];
        assert!(t.append_columns(&bad, &[None, None, None], 64).is_err());
        // NULL in NOT NULL column.
        let cols =
            vec![ColData::I64(vec![1]), ColData::I32(vec![1]), ColData::Str(vec!["x".into()])];
        let nulls = vec![Some(vec![true]), None, None];
        assert!(t.append_columns(&cols, &nulls, 64).is_err());
        // Ragged lengths.
        let cols =
            vec![ColData::I64(vec![1, 2]), ColData::I32(vec![1]), ColData::Str(vec!["x".into()])];
        assert!(t.append_columns(&cols, &[None, None, None], 64).is_err());
    }

    #[test]
    fn all_null_chunk_pruned_under_bounds() {
        let mut t = empty();
        let cols = vec![
            ColData::I64(vec![1, 2]),
            ColData::I32(vec![0, 0]),
            ColData::Str(vec!["a".into(), "b".into()]),
        ];
        let nulls = vec![None, Some(vec![true, true]), None];
        t.append_columns(&cols, &nulls, 64).unwrap();
        assert!(t.prune(1, Some(&Value::I32(0)), None).is_empty());
        assert_eq!(t.prune(1, None, None).len(), 1);
    }

    #[test]
    fn blocks_live_as_long_as_a_generation_holds_them() {
        let t = load(1000, 100);
        let pool = t.pool.clone();
        let stored = pool.disk().used_bytes();
        assert_eq!(stored, t.stored_bytes());
        read(&t, 9, &[0]);
        assert!(pool.used_bytes() > 0);

        // A scan's pin outlives the catalog's reference.
        let pinned = t.clone();
        drop(t);
        assert_eq!(pool.disk().used_bytes(), stored, "a pinned generation keeps every block");
        assert_eq!(read(&pinned, 9, &[0, 1, 2])[0].0.get_value(99), Value::I64(999));

        // The next generation shares the old packs and adds its own.
        let mut next = pinned.clone();
        let (cols, nulls) = sample_columns(100, 1000);
        next.append_columns(&cols, &nulls, 100).unwrap();
        drop(pinned);
        assert_eq!(pool.disk().used_bytes(), next.stored_bytes());
        assert_eq!(read(&next, 10, &[0])[0].0.get_value(0), Value::I64(1000));

        drop(next);
        assert_eq!(pool.disk().used_bytes(), 0, "the last holder frees every block");
        assert_eq!(pool.used_bytes(), 0, "and drops them from the cache");
    }

    #[test]
    fn a_failed_append_frees_the_chunks_it_wrote() {
        let mut t = load(300, 100);
        let disk = t.pool.disk().clone();
        let stored = disk.used_bytes();
        // The third of the pack's three chunk writes fails for good.
        disk.arm_faults(FaultConfig { seed: 1, fail_nth_write: Some(3), ..Default::default() });
        let (cols, nulls) = sample_columns(100, 300);
        let err = t.append_columns(&cols, &nulls, 100).unwrap_err();
        assert!(matches!(err, VwError::Io { transient: false, .. }), "{err}");
        disk.disarm_faults();
        assert_eq!(t.n_packs(), 3);
        assert_eq!(disk.used_bytes(), stored, "the two chunks written are freed");
    }

    #[test]
    fn empty_append_is_noop() {
        let mut t = empty();
        let cols =
            vec![ColData::new(TypeId::I64), ColData::new(TypeId::I32), ColData::new(TypeId::Str)];
        t.append_columns(&cols, &[None, None, None], 64).unwrap();
        assert_eq!(t.n_packs(), 0);
        assert_eq!(t.n_rows(), 0);
    }
}
