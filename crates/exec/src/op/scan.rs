//! The vectorized table scan: compressed packs → cache-resident vectors,
//! with PDT deltas merged on the fly (MergeScan of the PDT paper).
//!
//! The scan reads the image where it lies, the pinned PDT root: each
//! claim hands it the treap pieces of a slice of row positions
//! ([`Piece`]). Stable runs are served by decompressing pack chunks and
//! memcpy-ing ranges; a run's overlay supplies the columns it modified
//! instead, copied by range out of its typed block; runs of inserted rows
//! are memcpy-ed by range out of their typed columns. Overlay and insert
//! columns take the same flat copy as a plain pack chunk. Merge cost is
//! therefore proportional to the *delta count* of what is read, not the
//! table size — the property benchmark C4 verifies.
//!
//! The scan holds the stable generation its image addresses (an
//! `Arc<TableStorage>`) and reads packs through that generation's buffer
//! pool. Holding it is the pin: CHECKPOINT or DROP TABLE running meanwhile
//! frees none of its blocks (see `vw_storage::table`).
//!
//! Work arrives in *morsels*: the scan repeatedly claims the next
//! `morsel_rows`-sized slice of the image from a shared
//! [`MorselSource`] dispenser (see `crate::morsel`), which also drops
//! what the scan's zone-map hints rule out. A serial scan owns a private
//! dispenser; the scan clones of one exchange fragment share one, so a
//! slow worker claims fewer morsels instead of stranding a pre-assigned
//! static range. Output batches lease from the pipeline's [`BatchPool`]
//! when one is attached, so a steady-state scan reuses the buffers its
//! consumer recycled instead of allocating.
//!
//! A scan built [`with_filters`](VectorScan::with_filters) applies the
//! runtime filters of the joins whose probe keys it produces: once a
//! join's build is published, each batch the scan reads is narrowed to
//! the lanes whose keys may match it by a selection vector, and the kept
//! lanes are gathered into dense batches of up to a vector each — a
//! filter leaves few lanes per batch, and the operators above pay per
//! batch (an aggregate hashes every lane of one). A batch the filters
//! keep more than `FILTER_MAX_KEPT_PCT` percent of passes as it is: the
//! gather would copy more than the filter saves, and the join drops the
//! rest. Until the publish — a scan feeding
//! another join's build may start first — it passes every row. A filter
//! is judged after its first `FILTER_TRIAL_VECTORS` vectors and
//! switches itself off for the rest of the scan if it kept more than
//! `FILTER_MAX_KEPT_PCT` percent of the lanes it tested: a full build
//! costs a few vectors of tests, no knob. The scan lets go of the builds
//! at its end of input; `EXPLAIN ANALYZE` prints what the filters dropped
//! of what they tested as ` rtf=D/T`.
//!
//! A scan built [`with_rids`](VectorScan::with_rids) appends one BIGINT
//! column holding every row's position in the table image — the position
//! where its claim found it, correct however many pruned rows the claim
//! skipped, and it gives a scan with an empty projection its row count.
//! The DML victim search is its consumer.

use super::hashjoin::{FilterScratch, JoinBuild, JoinFilter};
use super::Operator;
use crate::cancel::CancelToken;
use crate::morsel::{BatchPool, MorselSource};
use crate::profile::OpProfile;
use crate::vector::{Batch, Vector};
use std::sync::Arc;
use vw_common::{ColData, Field, Result, Schema, SelVec, TypeId, VwError};
use vw_pdt::treap::{Link, Piece};
use vw_pdt::Rows;
use vw_storage::pack::EncodedChunk;
use vw_storage::TableStorage;

/// Decoded chunks of one pack, in projected-column order: string chunks
/// (PDICT or raw, codes over one arena) and RLE integer chunks keep their
/// encoding ([`EncodedChunk`]) and flow into batches still coded; every
/// other chunk is [`EncodedChunk::Flat`].
type DecodedPack = Vec<EncodedChunk>;

/// Vectors a scan tests a runtime join filter on before it judges it.
const FILTER_TRIAL_VECTORS: u32 = 4;

/// The share of the lanes it tested, in percent, that a runtime join
/// filter may keep over its trial and stay on. A filter keeping more drops
/// too little to pay for its test (a hashed build's costs a hash per
/// lane), so the scan switches it off for the rest of its input. A batch
/// the filters keep more of passes whole instead of being gathered.
const FILTER_MAX_KEPT_PCT: u64 = 50;

/// One runtime join filter as one scan applies it (see the module docs).
struct ScanFilter {
    filter: Arc<JoinFilter>,
    /// The scan's output columns holding the join's probe keys, in key
    /// order.
    cols: Vec<usize>,
    /// The published build once seen; let go when the filter switches
    /// off or the scan ends.
    build: Option<Arc<JoinBuild>>,
    /// Lanes tested and kept over the trial, and the vectors it spanned.
    tested: u64,
    kept: u64,
    vectors: u32,
    off: bool,
}

/// Scan of one table image, pulling work from a morsel dispenser.
pub struct VectorScan {
    /// The stable generation the image was taken on, pinned: its blocks
    /// stay on the device until this scan drops it.
    table: Arc<TableStorage>,
    columns: Vec<usize>,
    schema: Schema,
    out_types: Vec<TypeId>,
    source: Arc<MorselSource>,
    /// `(RID, piece)` of the currently claimed morsel (buffer reused per
    /// claim).
    morsel: Vec<(u64, Piece)>,
    item_idx: usize,
    item_off: u64,
    cur_pack: Option<(usize, DecodedPack)>,
    vector_size: usize,
    batch_pool: Option<BatchPool>,
    /// Append the RID column (always the last output column).
    emit_rids: bool,
    /// The runtime join filters this scan applies, and their scratch.
    filters: Vec<ScanFilter>,
    filter_scratch: FilterScratch,
    /// The lanes the filters keep of the batch at hand, and the batch
    /// their kept rows are gathered into.
    sel: SelVec,
    kept: Option<Batch>,
    /// A batch kept whole, due after the gathered one just emitted.
    whole: Option<Batch>,
    profile: OpProfile,
    cancel: CancelToken,
}

impl VectorScan {
    /// Scan `columns` of `table` over the image `root`, through a private
    /// single-claim dispenser (serial scans; exchange fragments use
    /// [`VectorScan::with_source`] to share one).
    pub fn new(
        table: Arc<TableStorage>,
        columns: Vec<usize>,
        root: Link,
        vector_size: usize,
        cancel: CancelToken,
    ) -> VectorScan {
        let source = MorselSource::new(root, usize::MAX);
        VectorScan::with_source(table, columns, source, vector_size, cancel)
    }

    /// Scan `columns` of `table`, claiming morsels from `source` (shared
    /// by the scan clones of an exchange fragment).
    pub fn with_source(
        table: Arc<TableStorage>,
        columns: Vec<usize>,
        source: Arc<MorselSource>,
        vector_size: usize,
        cancel: CancelToken,
    ) -> VectorScan {
        let schema = table.schema().project(&columns);
        let out_types = schema.fields.iter().map(|f| f.ty).collect();
        VectorScan {
            table,
            columns,
            schema,
            out_types,
            source,
            morsel: Vec::new(),
            item_idx: 0,
            item_off: 0,
            cur_pack: None,
            vector_size,
            batch_pool: None,
            emit_rids: false,
            filters: Vec::new(),
            filter_scratch: FilterScratch::default(),
            sel: SelVec::new(),
            kept: None,
            whole: None,
            profile: OpProfile::default(),
            cancel,
        }
    }

    /// Apply the runtime join `filters`, each with the output columns
    /// holding its join's probe keys (see the module docs).
    pub fn with_filters(mut self, filters: Vec<(Arc<JoinFilter>, Vec<usize>)>) -> VectorScan {
        self.filters.extend(filters.into_iter().map(|(filter, cols)| ScanFilter {
            filter,
            cols,
            build: None,
            tested: 0,
            kept: 0,
            vectors: 0,
            off: false,
        }));
        self
    }

    /// Lease output batches from (and let consumers recycle into) `pool`.
    pub fn with_batch_pool(mut self, pool: BatchPool) -> VectorScan {
        self.batch_pool = Some(pool);
        self
    }

    /// Append a `rid BIGINT` column: each row's position in the table
    /// image (see the module docs).
    pub fn with_rids(mut self) -> VectorScan {
        debug_assert!(!self.emit_rids, "one RID column");
        self.emit_rids = true;
        self.schema.fields.push(Field::not_null("rid", TypeId::I64));
        self.out_types.push(TypeId::I64);
        self
    }

    /// Record the image positions `rid..rid + n` of the rows just emitted.
    fn push_rids(&self, rid: u64, n: usize, out: &mut Batch) {
        if self.emit_rids {
            let ColData::I64(rids) = &mut out.columns[self.columns.len()].data else {
                unreachable!("the RID column is BIGINT")
            };
            rids.extend(rid as i64..rid as i64 + n as i64);
        }
    }

    /// Ensure the current morsel has an unserved piece; claims the next
    /// morsel when the current one is drained. `false` = image exhausted,
    /// and the last decoded pack is let go: the batches already handed out
    /// hold what they need of it.
    fn ensure_morsel(&mut self) -> bool {
        loop {
            if self.item_idx < self.morsel.len() {
                return true;
            }
            if !self.source.claim_into(&mut self.morsel) {
                self.cur_pack = None;
                return false;
            }
            self.item_idx = 0;
            self.item_off = 0;
        }
    }

    /// Copy up to `max` rows of the stable run `run` from the current
    /// offset on into `out`, as many as their pack holds; returns how many.
    /// The columns the run's overlay writes come from its block instead,
    /// and the pack is read only for the others.
    ///
    /// Extends straight out of the decoded pack chunks — no intermediate
    /// clone of the pack columns (a delta-heavy image visits this once per
    /// piece, so a per-call pack clone would be quadratic). Encoded
    /// chunks stay encoded when the destination vector can absorb them
    /// (see `Vector::extend_dict_range` / `Vector::extend_rle_range`).
    fn emit_stable(&mut self, run: &Piece, max: usize, out: &mut Batch) -> Result<usize> {
        let Piece::StableRun { sid, overlay, .. } = run else { unreachable!("a stable run") };
        let (sid, at) = (sid + self.item_off, self.item_off);
        let pack_idx = self
            .table
            .pack_of_row(sid)
            .ok_or_else(|| VwError::Storage(format!("sid {sid} beyond stable storage")))?;
        let pack = self.table.pack(pack_idx);
        let off = (sid - pack.row_start) as usize;
        let take = max.min(pack.n_rows - off);
        let end = off + take;
        let overlaid = |c: usize| {
            overlay.as_ref().and_then(|(b, row)| Some((b, b.find(c)?, (row + at) as usize)))
        };
        let stale = self.cur_pack.as_ref().map(|(i, _)| *i) != Some(pack_idx);
        if stale && self.columns.iter().any(|&c| overlaid(c).is_none()) {
            let chunks = self.table.read_pack_encoded(pack_idx, &self.columns)?;
            self.cur_pack = Some((pack_idx, chunks));
        }
        for (k, (o, &c)) in out.columns.iter_mut().zip(&self.columns).enumerate() {
            if let Some((block, j, row)) = overlaid(c) {
                extend_from_rows(o, &block.rows, j, row, take);
                continue;
            }
            let (_, chunks) = self.cur_pack.as_ref().expect("loaded for a column from the pack");
            match &chunks[k] {
                EncodedChunk::Flat(data, nulls) => {
                    o.extend_flat_range(data, nulls.as_deref(), off, end)
                }
                EncodedChunk::Dict { codes, dict, nulls } => {
                    o.extend_dict_range(codes, dict, nulls.as_deref(), off, end)
                }
                EncodedChunk::Rle { data, runs, nulls } => {
                    o.extend_rle_range(data, runs, nulls.as_deref(), off, end)
                }
            }
        }
        Ok(take)
    }
}

impl Operator for VectorScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "Scan"
    }

    fn profile(&self) -> Option<&OpProfile> {
        Some(&self.profile)
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if let Some(whole) = self.whole.take() {
            return Ok(Some(whole));
        }
        loop {
            let Some(raw) = self.fill()? else {
                // Let go of the builds: the probers free them.
                self.filters.clear();
                return Ok(self.kept.take());
            };
            if self.filters.is_empty() && self.kept.is_none() {
                return Ok(Some(raw));
            }
            let n = raw.capacity();
            if !self.apply_filters(&raw)
                || self.sel.len() as u64 * 100 > n as u64 * FILTER_MAX_KEPT_PCT
            {
                // Kept mostly: gathering would copy more than the filter
                // saves, so it passes as it is — the join drops the rest —
                // after the rows gathered before it.
                return Ok(Some(match self.kept.take() {
                    Some(kept) => {
                        self.whole = Some(raw);
                        kept
                    }
                    None => raw,
                }));
            }
            // Gather the kept lanes into one dense batch: the operators
            // above pay per batch, and a filter leaves few lanes in each.
            self.profile.rtf_dropped += (n - self.sel.len()) as u64;
            let full = self
                .kept
                .as_ref()
                .is_some_and(|k| k.rows() + self.sel.len() > n || !same_arenas(k, &raw));
            let done = if full { self.kept.take() } else { None };
            if !self.sel.is_empty() {
                let pool = self.batch_pool.as_ref();
                let kept = self.kept.get_or_insert_with(|| {
                    BatchPool::lease_or_new(pool, &self.out_types, self.vector_size)
                });
                for (dst, src) in kept.columns.iter_mut().zip(&raw.columns) {
                    dst.extend_gather_sel(src, &self.sel);
                }
            }
            if let Some(bp) = &self.batch_pool {
                bp.recycle(raw);
            }
            if done.is_some() {
                return Ok(done);
            }
        }
    }
}

impl VectorScan {
    /// Narrow `raw`'s lanes into `self.sel` by every runtime join filter
    /// whose build is published, judging each once its trial is over.
    /// `false`: no filter ran, and every lane is kept.
    fn apply_filters(&mut self, raw: &Batch) -> bool {
        let mut all = true;
        for f in &mut self.filters {
            if !all && self.sel.is_empty() {
                break;
            }
            if f.build.is_none() {
                f.build = f.filter.build();
            }
            let Some(build) = &f.build else { continue };
            let before = if all { raw.capacity() } else { self.sel.len() } as u64;
            // One key (the common case) resolves through a stack array.
            let single;
            let multi: Vec<&Vector>;
            let keys: &[&Vector] = if f.cols.len() == 1 {
                single = [&raw.columns[f.cols[0]]];
                &single
            } else {
                multi = f.cols.iter().map(|&c| &raw.columns[c]).collect();
                &multi
            };
            build.retain(keys, &mut self.sel, all, &mut self.filter_scratch);
            all = false;
            self.profile.rtf_tested += before;
            f.tested += before;
            f.kept += self.sel.len() as u64;
            f.vectors += 1;
            f.off =
                f.vectors == FILTER_TRIAL_VECTORS && f.kept * 100 > f.tested * FILTER_MAX_KEPT_PCT;
        }
        // A filter switched off is gone for the rest of the scan.
        self.filters.retain(|f| !f.off);
        !all
    }

    /// The next batch of the image, before any runtime filter (`None`:
    /// the image is exhausted).
    fn fill(&mut self) -> Result<Option<Batch>> {
        self.cancel.check()?;
        if !self.ensure_morsel() {
            return Ok(None);
        }
        let mut out =
            BatchPool::lease_or_new(self.batch_pool.as_ref(), &self.out_types, self.vector_size);
        let mut filled = 0usize;
        while filled < self.vector_size {
            if self.item_idx >= self.morsel.len() && !self.ensure_morsel() {
                break;
            }
            let (rid, piece) = self.morsel[self.item_idx].clone();
            let (first, left) = (rid + self.item_off, (piece.rows() - self.item_off) as usize);
            let room = self.vector_size - filled;
            let take = match piece {
                Piece::StableRun { .. } => self.emit_stable(&piece, left.min(room), &mut out)?,
                Piece::Insert { rows, start, .. } => {
                    let (off, take) = ((start + self.item_off) as usize, left.min(room));
                    for (o, &c) in out.columns.iter_mut().zip(&self.columns) {
                        extend_from_rows(o, &rows, c, off, take);
                    }
                    take
                }
            };
            self.push_rids(first, take, &mut out);
            filled += take;
            self.item_off += take as u64;
            if take == left {
                self.item_idx += 1;
                self.item_off = 0;
            }
        }
        if filled == 0 {
            if let Some(bp) = &self.batch_pool {
                bp.recycle(out);
            }
            return Ok(None);
        }
        self.profile.record_enc_batch(&out);
        Ok(Some(out))
    }
}

/// Do the coded string columns of `kept` and `raw` share their arenas —
/// may `raw`'s lanes join `kept`'s and stay coded? A gather across arenas
/// would inflate the strings for every operator above.
fn same_arenas(kept: &Batch, raw: &Batch) -> bool {
    kept.columns.iter().zip(&raw.columns).all(|(k, r)| match (k.dict_parts(), r.dict_parts()) {
        (Some((_, a)), Some((_, b))) => Arc::ptr_eq(a, b),
        (a, b) => a.is_none() && b.is_none() || k.is_empty(),
    })
}

/// Append rows `from..from + n` of column `c` of `rows` to `o`.
fn extend_from_rows(o: &mut Vector, rows: &Rows, c: usize, from: usize, n: usize) {
    o.extend_flat_range(&rows.cols[c], rows.nulls[c].as_deref(), from, from + n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::drain;
    use std::sync::Arc;
    use vw_common::{ColData, Field, TypeId, Value};
    use vw_pdt::treap::{leaf, merge, prio_for, stable_image};
    use vw_storage::{BufferPool, SimulatedDisk};

    fn pool() -> Arc<BufferPool> {
        BufferPool::new(SimulatedDisk::instant(), 16 << 20)
    }

    fn setup(n: usize, pack: usize) -> Arc<TableStorage> {
        let schema = Schema::new(vec![
            Field::not_null("id", TypeId::I64),
            Field::nullable("name", TypeId::Str),
        ])
        .unwrap();
        let mut t = TableStorage::new(pool(), schema);
        let ids = ColData::I64((0..n as i64).collect());
        let names = ColData::Str((0..n).map(|i| format!("row{i}")).collect());
        let nulls: Vec<bool> = (0..n).map(|i| i % 7 == 0).collect();
        t.append_columns(&[ids, names], &[None, Some(nulls)], pack).unwrap();
        Arc::new(t)
    }

    fn scan(t: &Arc<TableStorage>, cols: Vec<usize>, root: Link, vec_size: usize) -> VectorScan {
        VectorScan::new(t.clone(), cols, root, vec_size, CancelToken::new())
    }

    /// A run of inserted `(id, name)` rows: ids `first..first + n`, names
    /// `ins<id>`, every third name NULL.
    fn inserted(first: i64, n: usize) -> Piece {
        let ids = ColData::I64((first..first + n as i64).collect());
        let names = ColData::Str((first..first + n as i64).map(|i| format!("ins{i}")).collect());
        let nulls = Some((0..n).map(|i| i % 3 == 2).collect());
        let rows = vw_pdt::Rows { cols: vec![ids, names], nulls: vec![None, nulls] };
        Piece::Insert { id: first as u64, rows: Arc::new(rows), start: 0, len: n as u64 }
    }

    fn run(sid: u64, len: u64) -> Piece {
        Piece::StableRun { sid, len, overlay: None }
    }

    /// `len` stable rows from `sid` on, overlaid by the block writing
    /// `cols` with `rows` from its row `start` on.
    fn overlaid(sid: u64, len: u64, cols: &[usize], rows: vw_pdt::Rows, start: u64) -> Piece {
        let block = Arc::new(vw_pdt::Block { cols: cols.to_vec(), rows });
        Piece::StableRun { sid, len, overlay: Some((block, start)) }
    }

    /// A root holding `pieces` in order, one node each.
    fn image(pieces: Vec<Piece>) -> Link {
        pieces.into_iter().enumerate().fold(None, |t, (i, p)| merge(t, leaf(prio_for(i as u64), p)))
    }

    #[test]
    fn full_scan_roundtrip() {
        let t = setup(1000, 128);
        let mut s = scan(&t, vec![0, 1], stable_image(1000), 100);
        let out = drain(&mut s).unwrap();
        assert_eq!(out.rows(), 1000);
        assert_eq!(out.row_values(500)[0], Value::I64(500));
        assert_eq!(out.row_values(7)[1], Value::Null, "null mask preserved");
        assert_eq!(out.row_values(8)[1], Value::Str("row8".into()));
    }

    #[test]
    fn projection_reads_single_column() {
        let t = setup(256, 64);
        let mut s = scan(&t, vec![1], stable_image(256), 64);
        let out = drain(&mut s).unwrap();
        assert_eq!(out.width(), 1);
        assert_eq!(out.rows(), 256);
    }

    #[test]
    fn vector_size_respected_across_pack_boundaries() {
        let t = setup(250, 64);
        let mut s = scan(&t, vec![0], stable_image(250), 100);
        let mut sizes = Vec::new();
        while let Some(b) = s.next().unwrap() {
            sizes.push(b.rows());
        }
        assert_eq!(sizes.iter().sum::<usize>(), 250);
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 100));
    }

    #[test]
    fn batches_stay_full_across_morsel_boundaries() {
        // Morsels of 64 rows with 100-row vectors: batches keep filling
        // across claim boundaries, so every batch but the last is full.
        let t = setup(1000, 128);
        let source = MorselSource::new(stable_image(1000), 64);
        let mut s = VectorScan::with_source(t, vec![0], source, 100, CancelToken::new());
        let mut sizes = Vec::new();
        while let Some(b) = s.next().unwrap() {
            sizes.push(b.rows());
        }
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 100), "{sizes:?}");
    }

    #[test]
    fn shared_source_scans_cover_image_disjointly() {
        let t = setup(1000, 128);
        let source = MorselSource::new(stable_image(1000), 96);
        let mut ids: Vec<i64> = Vec::new();
        for _ in 0..3 {
            let mut s =
                VectorScan::with_source(t.clone(), vec![0], source.clone(), 64, CancelToken::new());
            let out = drain(&mut s).unwrap();
            for i in 0..out.rows() {
                match out.row_values(i)[0] {
                    Value::I64(v) => ids.push(v),
                    _ => panic!(),
                }
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..1000).collect::<Vec<_>>(), "disjoint cover of the image");
    }

    #[test]
    fn pooled_scan_reuses_recycled_batches() {
        let t = setup(1000, 1024);
        let bp = BatchPool::new();
        let mut s = scan(&t, vec![0, 1], stable_image(1000), 100).with_batch_pool(bp.clone());
        let mut rows = 0;
        while let Some(b) = s.next().unwrap() {
            rows += b.rows();
            bp.recycle(b); // the consumer's side of the protocol
        }
        assert_eq!(rows, 1000);
        // Only the first lease allocated: every later one took back the
        // batch just recycled, so the pool holds exactly one.
        let types = [TypeId::I64, TypeId::Str];
        let (_held, hit) = bp.lease(&types, 0);
        assert!(hit, "the recycled batch is pooled");
        assert!(!bp.lease(&types, 0).1, "and it is the only one: steady-state leases hit");
    }

    #[test]
    fn pieces_with_deltas_and_seams() {
        let t = setup(100, 32);
        // Names of sids 62..66 from a block's rows 1..5, one NULL.
        let names = ["x", "p62", "", "p64", "p65"].map(String::from).to_vec();
        let nulls = Some(vec![false, false, true, false, false]);
        let patch = vw_pdt::Rows { cols: vec![ColData::Str(names)], nulls: vec![nulls] };
        let root = image(vec![
            run(0, 2),
            run(2, 1),
            inserted(900, 25).slice(2, 20),
            overlaid(62, 4, &[1], patch, 1),
            run(98, 2),
        ]);
        // 8-row vectors: the insert run spans three of them, the overlaid
        // run two, and it crosses a pack boundary at sid 64.
        let mut s = scan(&t, vec![0, 1], root, 8);
        let out = drain(&mut s).unwrap();
        assert_eq!(out.rows(), 29);
        assert_eq!(out.row_values(2)[0], Value::I64(2));
        assert_eq!(out.row_values(3), vec![Value::I64(902), Value::Null]);
        assert_eq!(out.row_values(4), vec![Value::I64(903), Value::Str("ins903".into())]);
        assert_eq!(out.row_values(22), vec![Value::I64(921), Value::Str("ins921".into())]);
        let patched = [(62, Value::Str("p62".into())), (63, Value::Null)];
        let patched = patched.into_iter().chain([64, 65].map(|s| (s, Value::Str(format!("p{s}")))));
        for (k, (sid, name)) in patched.enumerate() {
            assert_eq!(out.row_values(23 + k), vec![Value::I64(sid), name]);
        }
        assert_eq!(out.row_values(27)[0], Value::I64(98));
    }

    #[test]
    fn modification_to_null_and_unprojected_column() {
        let t = setup(10, 10);
        let cols = vec![ColData::Str(vec![String::new()]), ColData::I64(vec![-5])];
        let mods = vw_pdt::Rows { cols, nulls: vec![Some(vec![true]), None] };
        let root = image(vec![overlaid(1, 1, &[1, 0], mods, 0)]);
        // Project only column 1: the mod on column 0 must be ignored.
        let mut s = scan(&t, vec![1], root.clone(), 4);
        let out = drain(&mut s).unwrap();
        assert_eq!(out.row_values(0), vec![Value::Null]);
        let mut s = scan(&t, vec![0], root, 4);
        let out = drain(&mut s).unwrap();
        assert_eq!(out.row_values(0), vec![Value::I64(-5)]);
    }

    #[test]
    fn pruned_ranges_scan() {
        let t = setup(1000, 100);
        let (lo, hi) = (Value::I64(350), Value::I64(449));
        let hints = [(0, t.prune(0, Some(&lo), Some(&hi)))];
        let source = MorselSource::pruned(stable_image(1000), t.clone(), hints, usize::MAX);
        let mut s = VectorScan::with_source(t, vec![0], source, 128, CancelToken::new());
        let out = drain(&mut s).unwrap();
        assert_eq!(out.rows(), 200, "two packs survive pruning");
        assert_eq!(out.row_values(0)[0], Value::I64(300));
    }

    #[test]
    fn rid_column_survives_skipped_runs_and_an_empty_projection() {
        // A five-pack table whose image has an overlaid row in pack 0, a
        // seam at sid 100 and a run of 60 inserted rows after sid 199. The
        // hint keeps packs 1..=3 and the modified row (it modified the
        // hinted column); 48-row claims and 64-row vectors cut the runs
        // mid-pack and mid-run.
        let t = setup(500, 100);
        let minus_seven = vw_pdt::Rows { cols: vec![ColData::I64(vec![-7])], nulls: vec![None] };
        let root = image(vec![
            run(0, 7),
            overlaid(7, 1, &[0], minus_seven, 0),
            run(8, 92),
            run(100, 100),
            inserted(1_000, 60),
            run(200, 300),
        ]);
        let (lo, hi) = (Value::I64(150), Value::I64(349));
        let mut want_rids: Vec<i64> = vec![7];
        want_rids.extend(100..460);
        let mut want_ids: Vec<i64> = vec![-7];
        want_ids.extend(100..200);
        want_ids.extend(1_000..1_060);
        want_ids.extend(200..400);
        for cols in [vec![0], vec![]] {
            let hints = [(0, t.prune(0, Some(&lo), Some(&hi)))];
            let source = MorselSource::pruned(root.clone(), t.clone(), hints, 48);
            let mut s =
                VectorScan::with_source(t.clone(), cols.clone(), source, 64, CancelToken::new())
                    .with_rids();
            assert_eq!(s.schema().len(), cols.len() + 1);
            let out = drain(&mut s).unwrap();
            assert_eq!(out.rows(), want_rids.len());
            let as_i64 = |c: usize| -> Vec<i64> {
                (0..out.rows())
                    .map(|i| match out.row_values(i)[c] {
                        Value::I64(v) => v,
                        ref other => panic!("{other:?}"),
                    })
                    .collect()
            };
            assert_eq!(as_i64(cols.len()), want_rids);
            if !cols.is_empty() {
                assert_eq!(as_i64(0), want_ids);
            }
        }
    }

    #[test]
    fn scan_emits_dict_vectors_that_decode_to_the_loaded_rows() {
        // Low-cardinality strings come back dictionary-coded; read row-wise
        // or flattened, they are the rows that were loaded.
        let schema = Schema::new(vec![
            Field::not_null("id", TypeId::I64),
            Field::nullable("flag", TypeId::Str),
        ])
        .unwrap();
        let mut t = TableStorage::new(pool(), schema);
        let n = 700;
        let ids = ColData::I64((0..n as i64).collect());
        let flags = ColData::Str((0..n).map(|i| format!("F{:02}", i % 9)).collect());
        let nulls: Vec<bool> = (0..n).map(|i| i % 11 == 0).collect();
        t.append_columns(&[ids, flags], &[None, Some(nulls)], 256).unwrap();
        let t = Arc::new(t);

        let mut s = scan(&t, vec![0, 1], stable_image(n as u64), 100);
        let mut saw_encoded = false;
        let mut row = 0usize;
        while let Some(mut b) = s.next().unwrap() {
            saw_encoded |= b.columns[1].is_encoded();
            let coded: Vec<_> = (0..b.rows()).map(|i| b.row_values(i)).collect();
            b.ensure_flat();
            assert!(!b.columns[1].is_encoded());
            for (i, got) in coded.into_iter().enumerate() {
                let flag = if row.is_multiple_of(11) {
                    Value::Null
                } else {
                    Value::Str(format!("F{:02}", row % 9))
                };
                assert_eq!(got, vec![Value::I64(row as i64), flag], "row {row}");
                assert_eq!(got, b.row_values(i), "row {row} after ensure_flat");
                row += 1;
            }
        }
        assert_eq!(row, n);
        assert!(saw_encoded, "string column should arrive dictionary-coded");
        let p = Operator::profile(&s).unwrap();
        assert!(p.enc_batches > 0, "profile counts encoded batches: {p:?}");
    }

    #[test]
    fn a_drained_scan_and_its_batch_pool_let_go_of_every_pack_arena() {
        // Unique names are stored raw and come back coded over an arena of
        // the pack's rows. Once the scan is drained and its batches are
        // recycled, nothing but the test holds any pack's arena.
        let t = setup(700, 256);
        let bp = BatchPool::new();
        let mut s = scan(&t, vec![0, 1], stable_image(700), 128).with_batch_pool(bp.clone());
        let mut arenas: Vec<Arc<vw_compress::dict::StrArena>> = Vec::new();
        while let Some(b) = s.next().unwrap() {
            let (_, arena) = b.columns[1].dict_parts().expect("raw strings arrive coded");
            assert!(!arena.distinct());
            if !arenas.last().is_some_and(|a| Arc::ptr_eq(a, arena)) {
                arenas.push(arena.clone());
            }
            bp.recycle(b);
        }
        assert_eq!(arenas.len(), 3, "one arena per pack");
        for a in &arenas {
            assert_eq!(Arc::strong_count(a), 1);
        }
    }

    #[test]
    fn empty_scan() {
        let t = setup(10, 10);
        let mut s = scan(&t, vec![0], None, 4);
        assert!(s.next().unwrap().is_none());
    }

    #[test]
    fn cancellation_aborts_scan() {
        let t = setup(100, 10);
        let cancel = CancelToken::new();
        let mut s = VectorScan::new(t, vec![0], stable_image(100), 16, cancel.clone());
        s.next().unwrap();
        cancel.cancel();
        assert!(matches!(s.next(), Err(VwError::Cancelled)));
    }
}
