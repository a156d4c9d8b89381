//! Flat vectorized hash tables — the shared engine under hash join and hash
//! aggregation.
//!
//! The X100 lesson this module applies: operator-internal data structures
//! decide whether the hot loop stays a tight, allocation-free, vector-at-a-
//! time primitive. The previous implementation funneled every probe row
//! through a `FxHashMap<u64, Vec<u32>>` — a heap-allocated bucket `Vec` per
//! distinct key and a tuple-at-a-time map lookup per row. Two hash tables replace
//! it, one per operator, both a power-of-two **directory** indexed by the
//! low bits of the key hash over contiguously numbered rows:
//!
//! * [`GroupTable`] — hash aggregation's: it grows while it is probed. The
//!   directory holds `u32` chain heads (`EMPTY` marks a free bucket) and a
//!   **chain array** parallel to the rows holds each row's full 64-bit hash
//!   and its bucket successor, so collision chains live in one flat
//!   allocation and a lane rejects a foreign candidate with one integer
//!   compare before any key comparison. It is an *index* over the
//!   aggregate's stored key columns and may lag them: rows a non-hashing
//!   rung created are inserted by [`GroupTable::sync`] before the next
//!   hashing rung reads the table.
//! * [`DirectMap`] — the aggregate's other table, for keys that are small
//!   integers already (a composite dictionary code, an integer key minus a
//!   base): a zeroed code → group array, no hash, no chain.
//! * [`JoinTable`] — hash join's: its whole build input is staged before
//!   the first probe, so it is immutable and bulk-constructed (histogram →
//!   prefix sum → scatter, no chain phase at all, the directory its own
//!   scatter cursor). The layout is bucket-grouped and contiguous (CSR), so
//!   a probe is a short sequential scan of a `u32` offsets directory's
//!   bucket, in one of two layouts chosen per build from the data it holds:
//!   - **hashed** ([`JoinTable::build`]): the bucket is the key hash's low
//!     bits; one bloom byte per bucket, and 8-byte slots — a row id and the
//!     upper half of its hash. Past a cache-sized row count the rows are
//!     first split by the directory's top bits so every pass works inside
//!     one window of it.
//!   - **direct** ([`DirectBuild`]): one integer key column
//!     (BIGINT, INT, SMALLINT, TINYINT, DATE) whose bucket is
//!     `(key − lo) >> shift` (`shift` the low key bits every row shares:
//!     0 but in a replayed partition of a build routed by key), and 4-byte
//!     row ids, filled in independent key-range parts. No hash, no bloom byte, no tag: a probe lane is
//!     one subtract and one bounds check, and every row of its bucket
//!     matches. The byte rule [`JoinTable::fits_direct`] takes it when the
//!     key range does not overflow and its arrays are no larger than the
//!     hashed table of the same rows — no knob, and never more memory.
//!
//!   Either way a bucket holds its rows in ascending row id, so both
//!   layouts emit the same pairs in the same order.
//!
//! The tables store *only* hashes and links (a direct one: row ids). Key
//! and payload columns live in ordinary contiguous [`Vector`]s owned by the
//! operator, indexed by row id — which is what makes the probe a gather
//! over columnar data rather than a pointer chase through per-key heap
//! nodes.
//!
//! Probing is fully vectorized: hash the whole key vector with the
//! `vw_common::hash` kernels ([`hash_keys`]), gather hash-matching
//! candidates for all lanes (`gather_matching`), then iteratively confirm
//! keys and re-probe only the still-unmatched lanes via a [`SelVec`]
//! ([`keys_match_sel`] → `advance_matching`). Single-column keys take a
//! fused, type-monomorphized fast path instead ([`JoinTable::probe_join`] /
//! [`GroupTable::probe_groups`]) that stages hash → prefetch → scan across
//! the whole vector. A direct table's probe ([`JoinTable::probe_direct`])
//! reads the keys instead of hashes; past a cache-sized directory it first
//! prefetches every lane's bucket bounds, then its first row. All scratch
//! buffers are caller-owned and reused across batches, so the steady-state
//! probe loop performs no allocations.
//!
//! **One table per join build**, at any DOP: the sinks of a build shared
//! inside an Exchange stage their rows apart, and one table indexes all of
//! them. A hashed table is bulk-built by one [`JoinTable::build`] call over
//! the sinks' hash runs; a direct one may be split, by key range, into
//! parts that fill disjoint slices of its one offsets/rows pair
//! ([`DirectBuild::fill`]). A probe never routes: every lane probes the one
//! table.
//!
//! **Grace-spilled builds** rehydrate through the same entry point:
//! a spilled partition's rows are replayed from its spill file
//! ([`crate::spill`]), their key hashes recomputed with [`hash_keys`]
//! (hashing is a pure function of the key values, so rehydrated runs
//! land in the same buckets), and the partition's table bulk-built with
//! [`JoinTable::build`] exactly like any staged build (or, by the same
//! byte rule, a [`DirectBuild`]). Nothing in this module knows
//! whether its input ever touched disk.

use crate::primitives;
use crate::vector::Vector;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use vw_common::hash::{hash_bytes, hash_combine, hash_u64};
use vw_common::{ColData, SelVec};

/// Run `$lane!(p)` for every lane `p` of the selection `$sel`, or of
/// `0..$n` when it is `None`: a dense batch loops without indirection.
macro_rules! for_lanes {
    ($sel:expr, $n:expr, $lane:ident) => {
        match $sel {
            None => {
                for p in 0..$n {
                    $lane!(p);
                }
            }
            Some(s) => {
                for p in s.iter() {
                    $lane!(p);
                }
            }
        }
    };
}

/// Sentinel row id: a free directory bucket or the end of a chain.
pub const EMPTY: u32 = u32::MAX;

/// Lane value hashed in place of NULL keys when NULLs form their own group
/// (GROUP BY semantics). Collisions with real data are resolved by the
/// NULL-aware key comparison, so this only affects chain length.
pub(crate) const NULL_KEY_LANE: u64 = 0x6b43_1293_9e1f_75adu64;

/// One chain entry: the row's full hash and its bucket successor, packed
/// together so a chain step costs a single cache line instead of one miss
/// in a hash array plus one in a next array.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u64,
    next: u32,
}

/// One CSR slot: the upper half of a row's hash and its row id, stored
/// bucket-grouped and contiguous so probing a bucket is a short sequential
/// scan instead of a pointer chase. The bucket index already is the hash's
/// low bits, so the 32-bit tag rejects all but one in 2^32 foreign
/// candidates before the key comparison that decides every match — in 8
/// bytes a slot, half of what the full hash took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    tag: u32,
    row: u32,
}

/// The part of hash `h` a [`Slot`] keeps.
#[inline(always)]
fn tag_of(h: u64) -> u32 {
    (h >> 32) as u32
}

/// Bloom tag bit for hash `h`: derived from bits far above the bucket
/// index so tag and bucket stay independent.
#[inline(always)]
fn bloom_bit(h: u64) -> u8 {
    1u8 << ((h >> 57) & 7)
}

/// Hash aggregation's table: a directory of chain heads over a growable
/// chain array. `heads[h & mask]` points at the newest row of the bucket;
/// rows link through `entries[row].next`. Find-or-insert is incremental —
/// lookups interleave with inserts for as long as the build runs.
#[derive(Debug, Clone)]
pub struct GroupTable {
    heads: Vec<u32>,
    /// Indexed by row id.
    entries: Vec<Entry>,
    mask: u64,
}

impl Default for GroupTable {
    fn default() -> GroupTable {
        GroupTable::new()
    }
}

impl GroupTable {
    /// An empty table.
    pub fn new() -> GroupTable {
        let dir = directory_size(0);
        GroupTable { heads: vec![EMPTY; dir], entries: Vec::new(), mask: dir as u64 - 1 }
    }

    /// Number of inserted rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no rows have been inserted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn bucket(&self, h: u64) -> usize {
        (h & self.mask) as usize
    }

    /// Insert the next row (id = current [`GroupTable::len`]) with hash `h`;
    /// returns the new row id. New rows prepend to their bucket chain.
    #[inline]
    pub fn insert(&mut self, h: u64) -> u32 {
        if (self.len() + 1) * 2 > self.heads.len() {
            self.rebuild_directory(self.heads.len() * 2);
        }
        let row = self.entries.len() as u32;
        assert!(row != EMPTY, "a hash table holds at most u32::MAX - 1 rows");
        let b = self.bucket(h);
        self.entries.push(Entry { hash: h, next: self.heads[b] });
        self.heads[b] = row;
        row
    }

    /// Double the directory and relink every row. Rows are relinked in id
    /// order so chains stay deterministic.
    fn rebuild_directory(&mut self, dir: usize) {
        debug_assert!(dir.is_power_of_two());
        self.heads.clear();
        self.heads.resize(dir, EMPTY);
        self.mask = dir as u64 - 1;
        for row in 0..self.entries.len() {
            let b = self.bucket(self.entries[row].hash);
            self.entries[row].next = self.heads[b];
            self.heads[b] = row as u32;
        }
    }

    /// Catch up with groups a non-hashing rung created: insert rows
    /// `[len, rows of keys)` of the stored key columns `keys`, each hashed
    /// exactly as [`hash_keys`] hashes that key in a lane (NULL to its
    /// sentinel lane), so a hashing rung that reads the table next finds
    /// every group. A no-op while the table is current.
    pub fn sync(&mut self, keys: &[Vector]) {
        let rows = keys.first().map_or(0, Vector::len);
        for row in self.len()..rows {
            let mut cols = keys.iter().map(|k| lane_of(k, row));
            let first = hash_u64(cols.next().expect("at least one key column"));
            self.insert(cols.fold(first, hash_combine));
        }
    }

    /// Walk one bucket looking for a row whose stored hash equals `h` and
    /// whose keys match (scalar path: new-group insertion, where at most a
    /// handful of lanes per batch miss).
    #[inline]
    pub fn find_chain(&self, h: u64, mut matches: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut row = self.heads[self.bucket(h)];
        while row != EMPTY {
            let e = self.entries[row as usize];
            if e.hash == h && matches(row) {
                return Some(row);
            }
            row = e.next;
        }
        None
    }

    /// Gather each selected lane's first *hash-matching* row: walk from the
    /// bucket head skipping entries whose stored hash differs (one integer
    /// compare each). `active` receives the lanes that found one; their
    /// `cand[p]` (a row id) needs only key confirmation.
    pub fn gather_matching(
        &self,
        hashes: &[u64],
        sel: &SelVec,
        cand: &mut Vec<u32>,
        active: &mut SelVec,
    ) {
        if cand.len() < hashes.len() {
            cand.resize(hashes.len(), EMPTY);
        }
        sel.retain_from(
            |p| {
                let h = hashes[p];
                let mut row = self.heads[self.bucket(h)];
                while row != EMPTY {
                    let e = self.entries[row as usize];
                    if e.hash == h {
                        cand[p] = row;
                        return true;
                    }
                    row = e.next;
                }
                false
            },
            active,
        );
    }

    /// Advance every selected lane past its current candidate to the next
    /// hash-matching one (see [`GroupTable::gather_matching`]); `out`
    /// receives the lanes that found another candidate.
    pub fn advance_matching(
        &self,
        hashes: &[u64],
        sel: &SelVec,
        cand: &mut [u32],
        out: &mut SelVec,
    ) {
        sel.retain_from(
            |p| {
                let h = hashes[p];
                let mut row = self.entries[cand[p] as usize].next;
                while row != EMPTY {
                    let e = self.entries[row as usize];
                    if e.hash == h {
                        cand[p] = row;
                        return true;
                    }
                    row = e.next;
                }
                false
            },
            out,
        );
    }

    /// Fused group lookup for type-specialized single-column keys: `gidx[p]`
    /// receives the first hash-and-key-matching row for each selected lane,
    /// or [`EMPTY`] when the key is unseen.
    ///
    /// `hash_of` computes the lane hash inline (monomorphized — e.g.
    /// `hash_u64` of an `i64` key); `sel = None` probes all `n` lanes
    /// (dense batch, no NULL keys) without selection-vector indirection.
    /// Staged like [`JoinTable::probe_join`]; the lane hashes remain in
    /// `buf` for the caller's miss-insert pass.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn probe_groups<H: FnMut(usize) -> u64, F: FnMut(usize, u32) -> bool>(
        &self,
        n: usize,
        sel: Option<&SelVec>,
        mut hash_of: H,
        mut key_eq: F,
        gidx: &mut [u32],
        buf: &mut ProbeBuf,
    ) {
        // The miss-insert pass needs every lane's hash afterwards, so the
        // staging pass runs even for small tables.
        self.stage(n, sel, &mut hash_of, buf);
        macro_rules! lane {
            ($p:expr) => {{
                let p = $p;
                let h = buf.hashes[p];
                let mut row = buf.cand[p];
                gidx[p] = EMPTY;
                while row != EMPTY {
                    let e = self.entries[row as usize];
                    if e.hash == h && key_eq(p, row) {
                        gidx[p] = row;
                        break;
                    }
                    row = e.next;
                }
            }};
        }
        for_lanes!(sel, n, lane);
    }

    /// Probe staging: hash every lane (prefetching its directory line),
    /// then gather every lane's chain head (prefetching its entry). Fills
    /// `buf.hashes` and `buf.cand`; unselected lanes are garbage.
    #[inline]
    fn stage<H: FnMut(usize) -> u64>(
        &self,
        n: usize,
        sel: Option<&SelVec>,
        hash_of: &mut H,
        buf: &mut ProbeBuf,
    ) {
        buf.ensure(n);
        macro_rules! hash_lane {
            ($p:expr) => {{
                let p = $p;
                let h = hash_of(p);
                buf.hashes[p] = h;
                prefetch(&self.heads[self.bucket(h)]);
            }};
        }
        macro_rules! head_lane {
            ($p:expr) => {{
                let p = $p;
                let row = self.heads[self.bucket(buf.hashes[p])];
                buf.cand[p] = row;
                if row != EMPTY {
                    prefetch(&self.entries[row as usize]);
                }
            }};
        }
        for_lanes!(sel, n, hash_lane);
        for_lanes!(sel, n, head_lane);
    }
}

/// A code → group array: the table of a key that *is* a small integer —
/// the composite dictionary code of the aggregate's dict rung, or an
/// integer key minus a base in its direct rung. One load resolves a lane;
/// nothing is hashed. A slot stores group id + 1, so 0 is empty and a
/// fresh array is a zeroed allocation whose untouched pages cost nothing.
#[derive(Debug, Default)]
pub struct DirectMap {
    slots: Vec<u32>,
}

impl DirectMap {
    /// Empty every slot and hold `len` of them. Within the current
    /// capacity this clears in place (no allocation); a larger array is a
    /// fresh zeroed one.
    pub fn reset(&mut self, len: usize) {
        if len <= self.slots.capacity() {
            self.slots.clear();
            self.slots.resize(len, 0);
        } else {
            self.slots = vec![0; len];
        }
    }

    /// Number of slots (codes `0..len`).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the map holds no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Heap bytes of the array (memory-governor charging).
    pub fn bytes(&self) -> usize {
        self.slots.capacity() * 4
    }

    /// The group of `code`, if one was set since the last reset.
    #[inline(always)]
    pub fn get(&self, code: usize) -> Option<u32> {
        self.slots[code].checked_sub(1)
    }

    /// Map `code` to group `g`.
    #[inline(always)]
    pub fn set(&mut self, code: usize, g: u32) {
        self.slots[code] = g + 1;
    }
}

/// Build rows per radix range of a [`JoinTable::build`] over more than
/// [`SMALL_TABLE`] rows: a range's window of the directory, the bloom tags
/// and the slots (≈ 21 B a row at load factor 0.4) stays well inside L2
/// while its histogram and scatter touch it at random. Both constants are
/// `c12_hashtable`'s build sweep's: the split costs a pass (≈ 3 ns/row)
/// and starts paying between 100 k and 200 k rows; 8 k- and 16 k-row
/// ranges measure alike, 32 k and up lose.
const CSR_RANGE_ROWS: usize = 8192;

/// Hash join's table: rows counting-sorted into bucket-grouped contiguous
/// runs under a CSR `offsets` directory, built in one go over the whole
/// build input and immutable afterwards — hashed or direct (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct JoinTable {
    /// Bucket `b` owns positions `offsets[b]..offsets[b + 1]` of the
    /// layout's row array.
    offsets: Vec<u32>,
    layout: TableLayout,
}

/// How a [`JoinTable`] maps a key to its bucket.
#[derive(Debug, Clone)]
enum TableLayout {
    /// The bucket is the key hash's low bits; a slot keeps the upper half
    /// of its row's hash for the compare that precedes the key compare.
    Hashed {
        slots: Vec<Slot>,
        /// Per-bucket 8-bit bloom tag (one bit per resident hash's high
        /// bits). One byte per bucket keeps the array dense enough to stay
        /// cache-resident, so most probe *misses* resolve without ever
        /// touching the (much larger) offsets or slot arrays — the same
        /// trick behind SwissTable control bytes and Vectorwise's
        /// bloom-filtered joins.
        bloom: Vec<u8>,
        mask: u64,
    },
    /// One integer key: bucket `b` holds the rows whose key is
    /// `lo + (b << shift)`, so every row of a probed bucket is a match — no
    /// hash, no bloom byte, no tag, no key compare. Every build row shares
    /// the key's low `shift` bits (a replayed partition of a build routed
    /// by key; 0 for a resident one).
    Direct { lo: i64, shift: u32, rows: Vec<u32> },
}

/// A direct table under construction: one offsets/rows pair whose
/// bucket ranges independent parts fill ([`DirectBuild::fill`]), on one
/// thread or several at once — a part writes only its own buckets' bounds
/// and its own rows, with relaxed atomics (plain loads and stores).
#[derive(Debug)]
pub struct DirectBuild {
    lo: i64,
    shift: u32,
    offsets: Vec<AtomicU32>,
    rows: Vec<AtomicU32>,
}

/// The bucket of key `k` in a direct table over `lo` and `shift`: a key
/// below `lo`, or off the build's shared low bits, rotates far past any
/// bucket. At shift 0 — every resident build — there is no rotate: one by
/// a variable count made a 200 k-lane probe about 15 % slower than the
/// branch, which the compiler hoists out of a loop as small as a fill's or
/// a filter test's (the probe picks its loop by the shift itself).
#[inline(always)]
fn direct_bucket(k: i64, lo: i64, shift: u32) -> u64 {
    let b = (k as u64).wrapping_sub(lo as u64);
    if shift == 0 {
        b
    } else {
        b.rotate_right(shift)
    }
}

impl JoinTable {
    /// Bulk-build the hashed table from a complete hash array that arrives
    /// in pieces (the per-worker stages of a shared build; one piece for a
    /// build with one sink): row ids number the chunks' hashes
    /// consecutively, in chunk order.
    ///
    /// Histogram → prefix sum → scatter: no chain phase, no incremental
    /// directory doublings with their relink passes. A random histogram and
    /// scatter over a directory larger than the cache misses on nearly
    /// every row, so past `SMALL_TABLE` rows the rows are first split — one
    /// sequential pass, stable — by the *top* bits of their bucket index
    /// into ranges of about `CSR_RANGE_ROWS`. A range owns one contiguous
    /// window of the directory, the bloom tags and the slots, and the three
    /// random passes run window by window. The table is the one a single
    /// global pass builds (and does build, below the threshold): the same
    /// offsets, and within a bucket the rows in ascending order. The cursor
    /// of the scatter is the directory itself, one entry ahead
    /// (`offsets[b + 1]` runs from bucket `b`'s start to its end, which is
    /// bucket `b + 1`'s start), so no second array is needed; slots are
    /// grown one window at a time, which is also what first touches them.
    ///
    /// # Panics
    /// At `u32::MAX` rows or more — row ids are `u32`. Callers that can be
    /// handed that many rows check first (the join does, with a typed
    /// error, before any table is allocated).
    pub fn build(chunks: &[&[u64]]) -> JoinTable {
        let n: usize = chunks.iter().map(|c| c.len()).sum();
        assert!(n < EMPTY as usize, "a hash table holds at most u32::MAX - 1 rows");
        let dir = directory_size(n);
        let mask = dir as u64 - 1;
        let ranges = if n <= SMALL_TABLE { 1 } else { (n / CSR_RANGE_ROWS).next_power_of_two() };
        let mut offsets = vec![0u32; dir + 1];
        let mut bloom = vec![0u8; dir];
        let mut slots: Vec<Slot> = Vec::with_capacity(n);
        let mut filled = 0u32;
        if ranges == 1 {
            let rows = chunks
                .iter()
                .flat_map(|c| c.iter())
                .zip(0u32..)
                .map(|(&h, row)| [(h & mask) as u32, tag_of(h), row]);
            fill_window(&mut offsets, &mut bloom, &mut slots, &mut filled, rows);
        } else {
            // Buckets per range, as a shift and a mask of the bucket index.
            let shift = dir.trailing_zeros() - ranges.trailing_zeros();
            let local = (1u64 << shift) - 1;
            // The split: `(bucket within its range, tag, row)` per row, range
            // by range. `starts` is its own scatter cursor, the same way.
            let mut starts = vec![0usize; ranges + 1];
            for chunk in chunks {
                for &h in *chunk {
                    starts[((h & mask) >> shift) as usize + 1] += 1;
                }
            }
            let mut at = 0;
            for s in &mut starts[1..] {
                at += std::mem::replace(s, at);
            }
            let mut split = vec![[0u32; 3]; n];
            let mut row = 0u32;
            for chunk in chunks {
                for &h in *chunk {
                    let b = h & mask;
                    let cursor = &mut starts[(b >> shift) as usize + 1];
                    split[*cursor] = [(b & local) as u32, tag_of(h), row];
                    *cursor += 1;
                    row += 1;
                }
            }
            let width = 1usize << shift;
            for r in 0..ranges {
                fill_window(
                    &mut offsets[r * width..(r + 1) * width + 1],
                    &mut bloom[r * width..(r + 1) * width],
                    &mut slots,
                    &mut filled,
                    split[starts[r]..starts[r + 1]].iter().copied(),
                );
            }
        }
        JoinTable { offsets, layout: TableLayout::Hashed { slots, bloom, mask } }
    }

    /// Whether a build of `rows` rows of one integer key spanning
    /// `lo..=hi`, every key sharing its low `shift` bits, takes the direct
    /// layout: `hi − lo` does not overflow and the direct arrays —
    /// `4·(buckets + 1)` bytes of offsets, `(hi − lo) >> shift` + 1
    /// buckets, and `4·rows` of row ids — are no larger than the hashed
    /// table of the same rows (`5·directory` bytes of offsets and bloom
    /// tags, `8·rows` of slots). So a direct table never needs more memory
    /// than the one it replaces.
    pub fn fits_direct(rows: usize, lo: i64, hi: i64, shift: u32) -> bool {
        let Some(range) = hi.checked_sub(lo).filter(|&r| r >= 0 && rows > 0) else {
            return false;
        };
        let (rows, range) = (rows as u128, range as u128 >> shift);
        4 * (range + 1) + 4 * rows <= 5 * directory_size(rows as usize) as u128 + 8 * rows
    }

    /// Is this the direct layout?
    pub fn is_direct(&self) -> bool {
        matches!(self.layout, TableLayout::Direct { .. })
    }

    /// Number of build rows.
    pub fn len(&self) -> usize {
        match &self.layout {
            TableLayout::Hashed { slots, .. } => slots.len(),
            TableLayout::Direct { rows, .. } => rows.len(),
        }
    }

    /// True for a table of no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hashed layout's arrays: slots, bloom tags and bucket mask.
    ///
    /// # Panics
    /// On a direct table, which no hash reaches.
    #[inline]
    fn hashed(&self) -> (&[Slot], &[u8], u64) {
        match &self.layout {
            TableLayout::Hashed { slots, bloom, mask } => (slots, bloom, *mask),
            TableLayout::Direct { .. } => {
                panic!("a direct join table is probed by key, not by hash")
            }
        }
    }

    /// Gather each selected lane's first *hash-matching* slot by scanning
    /// its bucket's slot range. `active` receives the lanes that found one;
    /// their `cand[p]` (a slot index — translate with
    /// [`JoinTable::candidate_rows`]) needs only key confirmation.
    pub fn gather_matching(
        &self,
        hashes: &[u64],
        sel: &SelVec,
        cand: &mut Vec<u32>,
        active: &mut SelVec,
    ) {
        let (slots, _, mask) = self.hashed();
        if cand.len() < hashes.len() {
            cand.resize(hashes.len(), EMPTY);
        }
        sel.retain_from(
            |p| {
                let h = hashes[p];
                let b = (h & mask) as usize;
                let end = self.offsets[b + 1] as usize;
                let mut i = self.offsets[b] as usize;
                while i < end {
                    if slots[i].tag == tag_of(h) {
                        cand[p] = i as u32;
                        return true;
                    }
                    i += 1;
                }
                false
            },
            active,
        );
    }

    /// Advance every selected lane past its current candidate to the next
    /// hash-matching one (see [`JoinTable::gather_matching`]); `out`
    /// receives the lanes that found another candidate.
    pub fn advance_matching(
        &self,
        hashes: &[u64],
        sel: &SelVec,
        cand: &mut [u32],
        out: &mut SelVec,
    ) {
        let (slots, _, mask) = self.hashed();
        sel.retain_from(
            |p| {
                let h = hashes[p];
                let end = self.offsets[(h & mask) as usize + 1] as usize;
                let mut i = cand[p] as usize + 1;
                while i < end {
                    if slots[i].tag == tag_of(h) {
                        cand[p] = i as u32;
                        return true;
                    }
                    i += 1;
                }
                false
            },
            out,
        );
    }

    /// Translate candidate slot indices into build row ids for the selected
    /// lanes: `rows[p]` receives the row id behind `cand[p]`. Key comparison
    /// and output assembly index build columns by row id.
    pub fn candidate_rows(&self, cand: &[u32], sel: &SelVec, rows: &mut Vec<u32>) {
        let (slots, _, _) = self.hashed();
        if rows.len() < cand.len() {
            rows.resize(cand.len(), EMPTY);
        }
        for p in sel.iter() {
            rows[p] = slots[cand[p] as usize].row;
        }
    }

    /// Fully fused join probe for type-specialized single-column keys: the
    /// monomorphized equivalent of the gather/compare/advance pipeline with
    /// zero intermediate `SelVec` traffic. `emit_all` records every match
    /// (inner/outer join); otherwise the lane stops at its first match
    /// (semi/anti existence). Matches set `matched_flags[p]` and, under
    /// `emit_all`, append the `(probe lane, build row)` pair.
    ///
    /// `hash_of` computes the lane hash inline (monomorphized — e.g.
    /// `hash_u64` of an `i64` key); `sel = None` probes all `n` lanes
    /// (dense batch, no NULL keys) without selection-vector indirection.
    ///
    /// Large tables probe in stages — hash all lanes, bloom-test all lanes
    /// (prefetching directory lines), gather all bucket ranges (prefetching
    /// slot lines), then scan — so the dependent cache misses of many lanes
    /// are in flight at once. Small, cache-resident tables use a single
    /// fused pass where staging would be pure overhead.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn probe_join<H: FnMut(usize) -> u64, F: FnMut(usize, u32) -> bool>(
        &self,
        n: usize,
        sel: Option<&SelVec>,
        emit_all: bool,
        mut hash_of: H,
        mut key_eq: F,
        matched_flags: &mut [bool],
        out_probe: &mut Vec<u32>,
        out_build: &mut Vec<u32>,
        buf: &mut ProbeBuf,
    ) {
        macro_rules! emit {
            ($p:expr, $row:expr, $brk:stmt) => {{
                matched_flags[$p] = true;
                if !emit_all {
                    $brk
                }
                out_probe.push($p as u32);
                out_build.push($row);
            }};
        }
        let (slots, bloom, mask) = self.hashed();
        if slots.len() <= SMALL_TABLE {
            macro_rules! lane {
                ($p:expr) => {{
                    let p = $p;
                    let h = hash_of(p);
                    let b = (h & mask) as usize;
                    if bloom[b] & bloom_bit(h) != 0 {
                        let end = self.offsets[b + 1] as usize;
                        let mut i = self.offsets[b] as usize;
                        while i < end {
                            let slot = slots[i];
                            if slot.tag == tag_of(h) && key_eq(p, slot.row) {
                                emit!(p, slot.row, break);
                            }
                            i += 1;
                        }
                    }
                }};
            }
            for_lanes!(sel, n, lane);
        } else {
            self.stage(n, sel, &mut hash_of, buf);
            macro_rules! lane {
                ($p:expr) => {{
                    let p = $p;
                    let h = buf.hashes[p];
                    let end = buf.ends[p] as usize;
                    let mut i = buf.cand[p] as usize;
                    while i < end {
                        let slot = slots[i];
                        if slot.tag == tag_of(h) && key_eq(p, slot.row) {
                            emit!(p, slot.row, break);
                        }
                        i += 1;
                    }
                }};
            }
            for_lanes!(sel, n, lane);
        }
    }

    /// The direct table's probe, the counterpart of
    /// [`JoinTable::probe_join`]: `key_of` reads lane `p`'s key as `i64`
    /// (monomorphized per probe type), and a lane is one subtract, one
    /// rotate and one bounds check from its bucket, every row of which
    /// matches — no hash, no bloom test, no key compare. Matches set
    /// `matched_flags[p]` and, under `emit_all`, append the `(probe lane,
    /// build row)` pairs in ascending row order; `sel = None` probes all
    /// `n` lanes.
    ///
    /// # Panics
    /// On a hashed table.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn probe_direct<K: FnMut(usize) -> i64>(
        &self,
        n: usize,
        sel: Option<&SelVec>,
        emit_all: bool,
        key_of: K,
        matched_flags: &mut [bool],
        out_probe: &mut Vec<u32>,
        out_build: &mut Vec<u32>,
    ) {
        let TableLayout::Direct { lo, shift, ref rows } = self.layout else {
            panic!("a hashed join table is probed by hash, not by key");
        };
        let out = (matched_flags, out_probe, out_build);
        // A loop per case: the compiler does not hoist `direct_bucket`'s
        // test of the shift out of a loop as large as the probe's.
        if shift == 0 {
            self.probe_buckets(n, sel, emit_all, key_of, (lo, 0), rows, out);
        } else {
            self.probe_buckets(n, sel, emit_all, key_of, (lo, shift), rows, out);
        }
    }

    /// [`JoinTable::probe_direct`] over a table's `(lo, shift)` and rows.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn probe_buckets<K: FnMut(usize) -> i64>(
        &self,
        n: usize,
        sel: Option<&SelVec>,
        emit_all: bool,
        mut key_of: K,
        (lo, shift): (i64, u32),
        rows: &[u32],
        (matched_flags, out_probe, out_build): (&mut [bool], &mut Vec<u32>, &mut Vec<u32>),
    ) {
        let mut bucket_of = |p| direct_bucket(key_of(p), lo, shift);
        if rows.is_empty() {
            return;
        }
        let offsets = &self.offsets;
        let (last, last_row) = (offsets.len() as u64 - 2, rows.len() - 1);
        if offsets.len() > SMALL_TABLE {
            // Past the cache: prefetch every lane's bucket bounds, then
            // (pairs only) its first row, before any lane reads them.
            macro_rules! bounds {
                ($p:expr) => {{
                    prefetch(&offsets[bucket_of($p).min(last) as usize]);
                }};
            }
            for_lanes!(sel, n, bounds);
            if emit_all {
                macro_rules! first_row {
                    ($p:expr) => {{
                        let at = offsets[bucket_of($p).min(last) as usize] as usize;
                        prefetch(&rows[at.min(last_row)]);
                    }};
                }
                for_lanes!(sel, n, first_row);
            }
        }
        macro_rules! lane {
            ($p:expr) => {{
                let p = $p;
                let b = bucket_of(p);
                if b <= last {
                    let (start, end) = (offsets[b as usize], offsets[b as usize + 1]);
                    if start < end {
                        matched_flags[p] = true;
                        if emit_all {
                            for &row in &rows[start as usize..end as usize] {
                                out_probe.push(p as u32);
                                out_build.push(row);
                            }
                        }
                    }
                }
            }};
        }
        for_lanes!(sel, n, lane);
    }

    /// The runtime join filter's test against a direct table: fill `out`
    /// with the lanes of `sel` (all `n` lanes when `None`) whose key
    /// `key_of(p)` has a bucket holding rows — the probe's own bucket and
    /// bounds check, so membership is exact.
    ///
    /// # Panics
    /// On a hashed table.
    #[inline]
    pub fn retain_direct<K: FnMut(usize) -> i64>(
        &self,
        n: usize,
        sel: Option<&SelVec>,
        mut key_of: K,
        out: &mut SelVec,
    ) {
        let TableLayout::Direct { lo, shift, .. } = &self.layout else {
            panic!("a hashed join table is tested by hash, not by key");
        };
        let (lo, shift, offsets) = (*lo, *shift, &self.offsets);
        let last = offsets.len() as u64 - 2;
        // Branch-free: a lane outside the range reads the last bucket and
        // is dropped by the range test.
        let keep = |p: usize| {
            let b = direct_bucket(key_of(p), lo, shift);
            let at = b.min(last) as usize;
            (b <= last) & (offsets[at] < offsets[at + 1])
        };
        primitives::select_by(n, sel, out, keep);
    }

    /// The runtime join filter's test against a hashed table: fill `out`
    /// with the lanes of `sel` (all `n` lanes when `None`) whose hash
    /// `hash_of(p)` (the probe's own: a fused kernel's, or [`hash_keys`]')
    /// passes its bucket's bloom byte — what a probe tests first.
    /// Conservative: a passing lane may still match nothing.
    ///
    /// # Panics
    /// On a direct table.
    #[inline]
    pub fn retain_bloom<H: FnMut(usize) -> u64>(
        &self,
        n: usize,
        sel: Option<&SelVec>,
        mut hash_of: H,
        out: &mut SelVec,
    ) {
        let (_, bloom, mask) = self.hashed();
        primitives::select_by(n, sel, out, |p| {
            let h = hash_of(p);
            bloom[(h & mask) as usize] & bloom_bit(h) != 0
        });
    }

    /// Probe staging: hash every lane, bloom-test every lane on the dense
    /// tag array (prefetching the offsets line only for bloom-positive
    /// lanes), then gather bucket ranges (prefetching the first slot).
    /// Bloom-negative lanes get an empty range and never touch the large
    /// arrays. Fills `buf.hashes`/`cand`/`ends`.
    #[inline]
    fn stage<H: FnMut(usize) -> u64>(
        &self,
        n: usize,
        sel: Option<&SelVec>,
        hash_of: &mut H,
        buf: &mut ProbeBuf,
    ) {
        let (slots, bloom, mask) = self.hashed();
        buf.ensure(n);
        macro_rules! hash_lane {
            ($p:expr) => {{
                let p = $p;
                let h = hash_of(p);
                buf.hashes[p] = h;
                prefetch(&bloom[(h & mask) as usize]);
            }};
        }
        macro_rules! bloom_lane {
            ($p:expr) => {{
                let p = $p;
                let h = buf.hashes[p];
                let b = (h & mask) as usize;
                if bloom[b] & bloom_bit(h) != 0 {
                    buf.cand[p] = b as u32;
                    buf.ends[p] = 1; // marker: range to be resolved
                    prefetch(&self.offsets[b]);
                } else {
                    buf.cand[p] = 0;
                    buf.ends[p] = 0;
                }
            }};
        }
        macro_rules! range_lane {
            ($p:expr) => {{
                let p = $p;
                if buf.ends[p] != 0 {
                    let b = buf.cand[p] as usize;
                    let start = self.offsets[b];
                    let end = self.offsets[b + 1];
                    buf.cand[p] = start;
                    buf.ends[p] = end;
                    if start != end {
                        prefetch(&slots[start as usize]);
                    }
                }
            }};
        }
        for_lanes!(sel, n, hash_lane);
        for_lanes!(sel, n, bloom_lane);
        for_lanes!(sel, n, range_lane);
    }
}

/// Dispatch a single-column key-kernel body over same-variant column
/// pairs. Expands `$body!(pa, ba, hash_closure, eq_closure)` with the
/// typed slices and the *canonical* per-type hash projection / equality —
/// the same scheme [`hash_keys`]'s `project_lanes` uses — so the fused
/// operator fast paths cannot drift from the general hashing path.
/// Mixed-variant pairs run `$fallback`.
macro_rules! dispatch_typed_keys {
    ($pcol:expr, $bcol:expr, $body:ident, $fallback:expr) => {
        match ($pcol, $bcol) {
            (vw_common::ColData::Bool(pa), vw_common::ColData::Bool(ba)) => $body!(
                pa,
                ba,
                |x: &bool| vw_common::hash::hash_u64(*x as u64),
                |x: &bool, y: &bool| x == y
            ),
            (vw_common::ColData::I8(pa), vw_common::ColData::I8(ba)) => {
                $body!(pa, ba, |x: &i8| vw_common::hash::hash_u64(*x as u64), |x: &i8, y: &i8| x
                    == y)
            }
            (vw_common::ColData::I16(pa), vw_common::ColData::I16(ba)) => $body!(
                pa,
                ba,
                |x: &i16| vw_common::hash::hash_u64(*x as u64),
                |x: &i16, y: &i16| x == y
            ),
            (vw_common::ColData::I32(pa), vw_common::ColData::I32(ba)) => $body!(
                pa,
                ba,
                |x: &i32| vw_common::hash::hash_u64(*x as u64),
                |x: &i32, y: &i32| x == y
            ),
            (vw_common::ColData::I64(pa), vw_common::ColData::I64(ba)) => $body!(
                pa,
                ba,
                |x: &i64| vw_common::hash::hash_u64(*x as u64),
                |x: &i64, y: &i64| x == y
            ),
            // Bit equality, matching `Value`'s structural semantics for
            // grouping (NaN groups with NaN; 0.0 and -0.0 are distinct).
            (vw_common::ColData::F64(pa), vw_common::ColData::F64(ba)) => $body!(
                pa,
                ba,
                |x: &f64| vw_common::hash::hash_u64(x.to_bits()),
                |x: &f64, y: &f64| x.to_bits() == y.to_bits()
            ),
            (vw_common::ColData::Date(pa), vw_common::ColData::Date(ba)) => $body!(
                pa,
                ba,
                |x: &i32| vw_common::hash::hash_u64(*x as u64),
                |x: &i32, y: &i32| x == y
            ),
            (vw_common::ColData::Str(pa), vw_common::ColData::Str(ba)) => $body!(
                pa,
                ba,
                |x: &String| vw_common::hash::hash_u64(vw_common::hash::hash_bytes(x.as_bytes())),
                |x: &String, y: &String| x == y
            ),
            _ => $fallback,
        }
    };
}
pub(crate) use dispatch_typed_keys;

impl DirectBuild {
    /// Room for the direct table of a build of `rows` rows of one integer
    /// key within `lo..=hi`, every key sharing its low `shift` bits (which
    /// [`JoinTable::fits_direct`] admitted): bucket `(key − lo) >> shift`.
    ///
    /// # Panics
    /// At `u32::MAX` rows or more, like [`JoinTable::build`].
    pub fn new(rows: usize, lo: i64, hi: i64, shift: u32) -> DirectBuild {
        assert!(rows < EMPTY as usize, "a hash table holds at most u32::MAX - 1 rows");
        let zeroed = |n| vec![0u32; n].into_iter().map(AtomicU32::new).collect();
        let buckets = direct_bucket(hi, lo, shift) as usize + 1;
        DirectBuild { lo, shift, offsets: zeroed(buckets + 1), rows: zeroed(rows) }
    }

    /// Fill part `part` of `parts` from the build's keys `chunks` (row ids
    /// number them consecutively, in chunk order): the rows of its even
    /// share of the buckets. Histogram → prefix sum → scatter, so a bucket
    /// holds its rows in ascending order, as a hashed one does. The
    /// histogram also counts the rows below the part's buckets, which is
    /// where its rows start: parts need not wait for each other.
    pub fn fill<T: Copy + Into<i64>>(&self, chunks: &[&[T]], part: usize, parts: usize) {
        let (lo, shift, offsets) = (self.lo, self.shift, &self.offsets);
        let buckets = offsets.len() - 1;
        let (first, end) = (buckets * part / parts, buckets * (part + 1) / parts);
        // Below the part's buckets, the offset wraps past its length.
        let ours = |k: T| {
            let b = direct_bucket(k.into(), lo, shift) as usize;
            (b, b.wrapping_sub(first) < end - first)
        };
        let keys = || chunks.iter().flat_map(|c| c.iter().copied());
        let add = |a: &AtomicU32, n: u32| a.store(a.load(Relaxed) + n, Relaxed);
        let mut below = 0u32;
        for k in keys() {
            match ours(k) {
                (b, true) => add(&offsets[b + 1], 1),
                (b, false) => below += (b < first) as u32,
            }
        }
        let mut filled = below;
        for o in &offsets[first + 1..=end] {
            let n = o.load(Relaxed);
            o.store(filled, Relaxed);
            filled += n;
        }
        // The scatter's cursor is the directory itself, one entry ahead.
        for (k, row) in keys().zip(0u32..) {
            if let (b, true) = ours(k) {
                let at = offsets[b + 1].load(Relaxed);
                self.rows[at as usize].store(row, Relaxed);
                add(&offsets[b + 1], 1);
            }
        }
    }

    /// The table, once every part is filled.
    pub fn finish(self) -> JoinTable {
        let plain = |v: Vec<AtomicU32>| v.into_iter().map(AtomicU32::into_inner).collect();
        let layout = TableLayout::Direct { lo: self.lo, shift: self.shift, rows: plain(self.rows) };
        JoinTable { offsets: plain(self.offsets), layout }
    }
}

/// Tables at or below this row count are treated as cache-resident:
/// probes skip the staged-prefetch passes, whose latency-hiding only pays
/// off once the directory and slots spill out of the last-level cache.
const SMALL_TABLE: usize = 1 << 17;

/// One window of [`JoinTable::build`]: histogram, prefix sum
/// and scatter of `rows` — `[bucket within the window, tag, row]` — over
/// the window's `offsets` (one entry longer than its buckets: the last is
/// the next window's first) and `bloom`, appending its slots.
fn fill_window(
    offsets: &mut [u32],
    bloom: &mut [u8],
    slots: &mut Vec<Slot>,
    filled: &mut u32,
    rows: impl Iterator<Item = [u32; 3]> + Clone,
) {
    for [b, tag, _] in rows.clone() {
        offsets[b as usize + 1] += 1;
        bloom[b as usize] |= bloom_bit((tag as u64) << 32);
    }
    for o in &mut offsets[1..] {
        *filled += std::mem::replace(o, *filled);
    }
    slots.resize(*filled as usize, Slot::default());
    for [b, tag, row] in rows {
        let cursor = &mut offsets[b as usize + 1];
        slots[*cursor as usize] = Slot { tag, row };
        *cursor += 1;
    }
}

/// Smallest power-of-two directory keeping load factor ≤ 0.5.
fn directory_size(rows: usize) -> usize {
    (rows.max(4) * 2).next_power_of_two()
}

/// Reusable per-batch probe buffers (lane hashes and chain candidates)
/// for the fused kernels; owned by the operators so the steady-state probe
/// loop never allocates.
#[derive(Debug, Default)]
pub struct ProbeBuf {
    hashes: Vec<u64>,
    cand: Vec<u32>,
    /// Bucket end bound per lane ([`JoinTable`] only).
    ends: Vec<u32>,
}

impl ProbeBuf {
    fn ensure(&mut self, n: usize) {
        if self.hashes.len() < n {
            self.hashes.resize(n, 0);
            self.cand.resize(n, EMPTY);
            self.ends.resize(n, 0);
        }
    }

    /// The staged hash of lane `p` from the last fused probe (valid for
    /// lanes that were selected; aggregation's miss-insert pass reuses it).
    #[inline]
    pub fn lane_hash(&self, p: usize) -> u64 {
        self.hashes[p]
    }
}

/// Hint the CPU to pull `p`'s cache line toward L1. Purely a performance
/// hint issued between the staged probe passes; never dereferences.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no side effects and tolerates any address; the
    // pointer comes from an in-bounds slice index.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

// ---------------------------------------------------------------------------
// vectorized key hashing
// ---------------------------------------------------------------------------

/// Project one key column to per-lane `u64` hash inputs (the same value
/// scheme the old scalar `hash_row` used, so numeric types keep their
/// cheap identity projection and strings hash their bytes).
fn project_lanes(v: &Vector, nulls_as_group: bool, out: &mut Vec<u64>) {
    out.clear();
    if let Some((codes, dict)) = v.dict_parts() {
        // Coded keys: an arena with no more entries than the batch has
        // lanes hashes each entry once and projects rows through the
        // code; a larger one (a raw block's rows, a wide dictionary)
        // hashes each lane through its code instead. Both must match the
        // `Str` arm below byte-for-byte so coded and flat sides of a join
        // agree.
        if dict.len() <= codes.len() {
            let per_code: Vec<u64> = dict.iter().map(|s| hash_bytes(s.as_bytes())).collect();
            out.extend(codes.iter().map(|&c| per_code[c as usize]));
        } else {
            out.extend(codes.iter().map(|&c| hash_bytes(dict[c as usize].as_bytes())));
        }
        if nulls_as_group {
            if let Some(m) = &v.nulls {
                for (lane, &is_null) in m.iter().enumerate() {
                    if is_null {
                        out[lane] = NULL_KEY_LANE;
                    }
                }
            }
        }
        return;
    }
    match &v.data {
        ColData::Bool(d) => out.extend(d.iter().map(|&x| x as u64)),
        ColData::I8(d) => out.extend(d.iter().map(|&x| x as u64)),
        ColData::I16(d) => out.extend(d.iter().map(|&x| x as u64)),
        ColData::I32(d) => out.extend(d.iter().map(|&x| x as u64)),
        ColData::I64(d) => out.extend(d.iter().map(|&x| x as u64)),
        ColData::F64(d) => out.extend(d.iter().map(|&x| x.to_bits())),
        ColData::Date(d) => out.extend(d.iter().map(|&x| x as u64)),
        ColData::Str(d) => out.extend(d.iter().map(|s| hash_bytes(s.as_bytes()))),
    }
    if nulls_as_group {
        if let Some(m) = &v.nulls {
            for (lane, &is_null) in m.iter().enumerate() {
                if is_null {
                    out[lane] = NULL_KEY_LANE;
                }
            }
        }
    }
}

/// [`project_lanes`] of one position of a flat stored key column, NULLs
/// as a group (the lane [`GroupTable::sync`] hashes).
fn lane_of(v: &Vector, row: usize) -> u64 {
    if v.is_null(row) {
        return NULL_KEY_LANE;
    }
    match &v.data {
        ColData::Bool(d) => d[row] as u64,
        ColData::I8(d) => d[row] as u64,
        ColData::I16(d) => d[row] as u64,
        ColData::I32(d) => d[row] as u64,
        ColData::I64(d) => d[row] as u64,
        ColData::F64(d) => d[row].to_bits(),
        ColData::Date(d) => d[row] as u64,
        ColData::Str(_) => hash_bytes(v.str_at(row).as_bytes()),
    }
}

/// Hash multi-column keys a vector at a time into `out[0..n]`.
///
/// `nulls_as_group` selects GROUP BY semantics (NULL lanes hash to a fixed
/// sentinel so NULLs land in one group); with it off, NULL lanes hash their
/// safe-default data — callers exclude those lanes from the selection, so
/// the garbage hash is never observed (join semantics: NULL never matches).
///
/// `keys` is anything that yields the key columns in order — a slice of
/// vectors, or an iterator resolving them one by one, so no caller needs a
/// per-batch `Vec<&Vector>`. `lanes` is per-column projection scratch; both
/// buffers are reused across batches. Zero key columns (global aggregate)
/// hash every lane to the same constant.
pub fn hash_keys<K: std::borrow::Borrow<Vector>>(
    keys: impl IntoIterator<Item = K>,
    n: usize,
    nulls_as_group: bool,
    lanes: &mut Vec<u64>,
    out: &mut Vec<u64>,
) {
    let mut keys = keys.into_iter();
    let Some(first) = keys.next() else {
        out.clear();
        out.resize(n, hash_u64(0));
        return;
    };
    debug_assert_eq!(first.borrow().len(), n);
    project_lanes(first.borrow(), nulls_as_group, lanes);
    primitives::hash_start(lanes.iter().copied(), out);
    for col in keys {
        debug_assert_eq!(col.borrow().len(), n);
        project_lanes(col.borrow(), nulls_as_group, lanes);
        primitives::hash_combine_col(lanes.iter().copied(), out);
    }
}

// ---------------------------------------------------------------------------
// vectorized key comparison
// ---------------------------------------------------------------------------

/// Narrow `sel` to lanes where every probe key column at lane `p` equals
/// the corresponding build key column at row `cand[p]`.
///
/// `null_equals_null` selects grouping semantics (NULL keys compare equal);
/// join probes never present NULL lanes, so either setting is correct
/// there. `scratch` ping-pongs with `out` between key columns; both are
/// reused across batches.
pub fn keys_match_sel<K: std::borrow::Borrow<Vector>>(
    probe: impl IntoIterator<Item = K>,
    build: &[Vector],
    cand: &[u32],
    sel: &SelVec,
    scratch: &mut SelVec,
    out: &mut SelVec,
    null_equals_null: bool,
) {
    let mut cols = probe.into_iter().zip(build);
    let Some((p, b)) = cols.next() else {
        // Zero key columns: everything matches (global aggregate).
        out.clear_and_extend_from_slice(sel.as_slice());
        return;
    };
    filter_col_eq(p.borrow(), b, cand, sel, out, null_equals_null);
    for (p, b) in cols {
        if out.is_empty() {
            return;
        }
        std::mem::swap(scratch, out);
        filter_col_eq(p.borrow(), b, cand, scratch, out, null_equals_null);
    }
}

/// Null-aware selective gather-equality over one column pair.
fn filter_col_eq(
    probe: &Vector,
    build: &Vector,
    cand: &[u32],
    sel: &SelVec,
    out: &mut SelVec,
    null_eq: bool,
) {
    macro_rules! typed {
        ($pa:expr, $ba:expr, $eq:expr) => {{
            let (pa, ba) = ($pa, $ba);
            #[allow(clippy::redundant_closure_call)]
            match (&probe.nulls, &build.nulls) {
                (None, None) => primitives::select_eq_gather_by(pa, ba, cand, sel, out, $eq),
                _ => sel.retain_from(
                    |p| {
                        let b = cand[p] as usize;
                        match (probe.is_null(p), build.is_null(b)) {
                            (false, false) => $eq(&pa[p], &ba[b]),
                            (true, true) => null_eq,
                            _ => false,
                        }
                    },
                    out,
                ),
            }
        }};
    }
    match (probe.dict_parts(), build.dict_parts()) {
        // Same distinct arena on both sides: keys match iff codes match.
        // Over an arena with repeats (a raw block's rows) unequal codes
        // may still be equal strings, so it takes the value compare.
        (Some((pa, pd)), Some((ba, bd))) if std::sync::Arc::ptr_eq(pd, bd) && pd.distinct() => {
            return typed!(pa, ba, |x: &u32, y: &u32| x == y);
        }
        // One or both sides coded (different arenas, or one with repeats):
        // compare the string values — `str_at` reads arena entries
        // without inflating.
        (Some(_), _) | (_, Some(_))
            if probe.type_id() == vw_common::TypeId::Str
                && build.type_id() == vw_common::TypeId::Str =>
        {
            return sel.retain_from(
                |p| {
                    let b = cand[p] as usize;
                    match (probe.is_null(p), build.is_null(b)) {
                        (false, false) => probe.str_at(p) == build.str_at(b),
                        (true, true) => null_eq,
                        _ => false,
                    }
                },
                out,
            );
        }
        // Coded against a non-string column (type-mismatched plan keys):
        // structural Value equality, like the mixed-type fallback below.
        (Some(_), _) | (_, Some(_)) => {
            return sel.retain_from(
                |p| {
                    let b = cand[p] as usize;
                    match (probe.is_null(p), build.is_null(b)) {
                        (false, false) => probe.get(p) == build.get(b),
                        (true, true) => null_eq,
                        _ => false,
                    }
                },
                out,
            );
        }
        (None, None) => {}
    }
    match (&probe.data, &build.data) {
        (ColData::Bool(pa), ColData::Bool(ba)) => typed!(pa, ba, |x: &bool, y: &bool| x == y),
        (ColData::I8(pa), ColData::I8(ba)) => typed!(pa, ba, |x: &i8, y: &i8| x == y),
        (ColData::I16(pa), ColData::I16(ba)) => typed!(pa, ba, |x: &i16, y: &i16| x == y),
        (ColData::I32(pa), ColData::I32(ba)) => typed!(pa, ba, |x: &i32, y: &i32| x == y),
        (ColData::I64(pa), ColData::I64(ba)) => typed!(pa, ba, |x: &i64, y: &i64| x == y),
        // Bit equality, matching `Value`'s structural semantics for grouping
        // (NaN groups with NaN; 0.0 and -0.0 are distinct keys).
        (ColData::F64(pa), ColData::F64(ba)) => {
            typed!(pa, ba, |x: &f64, y: &f64| x.to_bits() == y.to_bits())
        }
        (ColData::Date(pa), ColData::Date(ba)) => typed!(pa, ba, |x: &i32, y: &i32| x == y),
        (ColData::Str(pa), ColData::Str(ba)) => typed!(pa, ba, |x: &String, y: &String| x == y),
        // Mixed-type keys: fall back to structural Value equality (always
        // false across variants — the old scalar path's behaviour).
        _ => sel.retain_from(
            |p| {
                let b = cand[p] as usize;
                match (probe.is_null(p), build.is_null(b)) {
                    (false, false) => probe.data.get_value(p) == build.data.get_value(b),
                    (true, true) => null_eq,
                    _ => false,
                }
            },
            out,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::TypeId;

    fn i64_vec(vals: Vec<i64>) -> Vector {
        Vector::new(ColData::I64(vals))
    }

    #[test]
    fn sync_hashes_a_stored_row_as_hash_keys_hashes_its_lane() {
        let keys = vec![
            Vector::with_nulls(
                ColData::I64(vec![7, 0, -3, 7]),
                Some(vec![false, true, false, false]),
            ),
            Vector::new(ColData::Str(vec!["a".into(), "b".into(), "".into(), "a".into()])),
            Vector::new(ColData::F64(vec![-0.0, 0.0, f64::NAN, 1.5])),
        ];
        let (mut lanes, mut hashes) = (Vec::new(), Vec::new());
        hash_keys(&keys, 4, true, &mut lanes, &mut hashes);
        let mut t = GroupTable::new();
        t.sync(&keys);
        t.sync(&keys); // current: a no-op
        assert_eq!(t.len(), 4);
        for (row, &h) in hashes.iter().enumerate() {
            assert_eq!(t.find_chain(h, |r| r as usize == row), Some(row as u32));
        }
    }

    #[test]
    fn coded_flat_and_arena_lanes_hash_alike() {
        use crate::vector::StrArena;
        use std::sync::Arc;
        let vals = ["b", "", "a", "b", "héllo", "a", "b", ""];
        let nulls = Some(vec![false, false, true, false, false, false, false, true]);
        let flat = Vector::with_nulls(
            ColData::Str(vals.iter().map(|s| s.to_string()).collect()),
            nulls.clone(),
        );
        // A distinct dictionary smaller than the batch: hashed per entry.
        let dict = Arc::new(StrArena::from_strs(["", "a", "b", "héllo"], true));
        let codes = vals.iter().map(|v| dict.iter().position(|d| d == *v).unwrap() as u32);
        let coded = Vector::from_dict(codes.collect(), dict.clone(), nulls.clone());
        // A pack arena with repeats and more entries than the batch has
        // lanes: hashed per lane through the code.
        let mut rows: Vec<&str> = vec!["pad"; 3];
        rows.extend(vals);
        rows.extend(["z"; 8]);
        let arena = Arc::new(StrArena::from_strs(rows, false));
        let arena_codes = (3..3 + vals.len() as u32).collect();
        let over_arena = Vector::from_dict(arena_codes, arena.clone(), nulls);
        assert!(dict.len() <= vals.len() && arena.len() > vals.len());
        for nulls_as_group in [true, false] {
            let hash = |v: &Vector| {
                let (mut lanes, mut out) = (Vec::new(), Vec::new());
                hash_keys([v], vals.len(), nulls_as_group, &mut lanes, &mut out);
                out
            };
            let want = hash(&flat);
            assert_eq!(hash(&coded), want, "nulls_as_group {nulls_as_group}");
            assert_eq!(hash(&over_arena), want, "nulls_as_group {nulls_as_group}");
        }
    }

    #[test]
    fn a_shared_arena_with_repeats_matches_keys_by_value() {
        use crate::vector::StrArena;
        use std::sync::Arc;
        // Codes 0 and 1 are both "x": over a raw block's rows unequal
        // codes can be equal strings.
        for distinct in [false, true] {
            let entries = if distinct { ["x", "w", "y"] } else { ["x", "x", "y"] };
            let arena = Arc::new(StrArena::from_strs(entries, distinct));
            let probe = Vector::from_dict(vec![0, 2, 1, 0], arena.clone(), None);
            let build = Vector::from_dict(vec![1, 2, 0], arena.clone(), None);
            let cand = [0u32, 1, 2, 1];
            let sel = SelVec::from_positions(vec![0, 1, 2, 3]);
            let (mut scratch, mut out) = (SelVec::new(), SelVec::new());
            keys_match_sel([&probe], &[build], &cand, &sel, &mut scratch, &mut out, false);
            let want: &[u32] = if distinct { &[1] } else { &[0, 1, 2] };
            assert_eq!(out.as_slice(), want, "distinct {distinct}");
        }
    }

    #[test]
    fn direct_map_reset_empties_in_place_within_capacity() {
        let mut m = DirectMap::default();
        m.reset(8);
        assert_eq!((m.len(), m.get(5)), (8, None));
        m.set(5, 0);
        m.set(7, 41);
        assert_eq!((m.get(5), m.get(7)), (Some(0), Some(41)));
        let cap = m.bytes();
        m.reset(4);
        assert_eq!((m.len(), m.get(3), m.bytes()), (4, None, cap));
    }

    fn group_table(hashes: &[u64]) -> GroupTable {
        let mut t = GroupTable::new();
        for &h in hashes {
            t.insert(h);
        }
        t
    }

    #[test]
    fn insert_and_chain_walk() {
        let mut t = GroupTable::new();
        let h = hash_u64(42);
        assert_eq!(t.insert(h), 0);
        assert_eq!(t.insert(h), 1); // same bucket chains
        assert_eq!(t.insert(hash_u64(7)), 2);
        assert_eq!(t.len(), 3);
        let mut seen = Vec::new();
        t.find_chain(h, |row| {
            seen.push(row);
            false
        });
        assert_eq!(seen, vec![1, 0], "newest row heads the chain");
        assert_eq!(t.find_chain(h, |_| true), Some(1));
        assert_eq!(t.find_chain(hash_u64(999_999), |_| true), None);
    }

    #[test]
    fn directory_grows_and_relinks() {
        let mut t = GroupTable::new();
        let start_dir = t.heads.len();
        for i in 0..1000u64 {
            t.insert(hash_u64(i));
        }
        assert!(t.heads.len() > start_dir);
        assert!(t.heads.len() >= 2 * t.len());
        // Every row stays findable after rebuilds.
        for i in 0..1000u64 {
            assert!(t.find_chain(hash_u64(i), |_| true).is_some(), "key {i} lost");
        }
    }

    /// The general probe pipeline's three table steps, for either layout.
    trait Candidates {
        fn gather(&self, h: &[u64], sel: &SelVec, cand: &mut Vec<u32>, out: &mut SelVec);
        fn advance(&self, h: &[u64], sel: &SelVec, cand: &mut [u32], out: &mut SelVec);
        fn rows(&self, cand: &[u32], sel: &SelVec, rows: &mut Vec<u32>);
    }

    impl Candidates for GroupTable {
        fn gather(&self, h: &[u64], sel: &SelVec, cand: &mut Vec<u32>, out: &mut SelVec) {
            self.gather_matching(h, sel, cand, out);
        }
        fn advance(&self, h: &[u64], sel: &SelVec, cand: &mut [u32], out: &mut SelVec) {
            self.advance_matching(h, sel, cand, out);
        }
        fn rows(&self, cand: &[u32], _: &SelVec, rows: &mut Vec<u32>) {
            rows.clear();
            rows.extend_from_slice(cand); // a candidate is its row
        }
    }

    impl Candidates for JoinTable {
        fn gather(&self, h: &[u64], sel: &SelVec, cand: &mut Vec<u32>, out: &mut SelVec) {
            self.gather_matching(h, sel, cand, out);
        }
        fn advance(&self, h: &[u64], sel: &SelVec, cand: &mut [u32], out: &mut SelVec) {
            self.advance_matching(h, sel, cand, out);
        }
        fn rows(&self, cand: &[u32], sel: &SelVec, rows: &mut Vec<u32>) {
            self.candidate_rows(cand, sel, rows);
        }
    }

    /// Drive the general SelVec-iterative probe pipeline over a table.
    fn iterative_pairs(
        t: &impl Candidates,
        probe_keys: &[Vector],
        build_keys: &[Vector],
        ph: &[u64],
        n: usize,
        null_eq: bool,
    ) -> Vec<(usize, u32)> {
        let sel = SelVec::identity(n);
        let (mut cand, mut rows, mut active) = (Vec::new(), Vec::new(), SelVec::new());
        t.gather(ph, &sel, &mut cand, &mut active);
        let mut pairs: Vec<(usize, u32)> = Vec::new();
        let (mut matched, mut tmp, mut next_active) = (SelVec::new(), SelVec::new(), SelVec::new());
        while !active.is_empty() {
            t.rows(&cand, &active, &mut rows);
            keys_match_sel(probe_keys, build_keys, &rows, &active, &mut tmp, &mut matched, null_eq);
            for p in matched.iter() {
                pairs.push((p, rows[p]));
            }
            t.advance(ph, &active, &mut cand, &mut next_active);
            std::mem::swap(&mut active, &mut next_active);
        }
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn both_tables_agree_on_membership_for_the_same_hashes() {
        let build_keys = vec![i64_vec(vec![10, 20, 30, 20])];
        let (mut lanes, mut hashes) = (Vec::new(), Vec::new());
        hash_keys(&build_keys, 4, false, &mut lanes, &mut hashes);
        let probe_keys = vec![i64_vec(vec![20, 99, 10, 20])];
        let mut ph = Vec::new();
        hash_keys(&probe_keys, 4, false, &mut lanes, &mut ph);

        // Lane 0 (20) matches rows 1 and 3; lane 2 (10) matches row 0;
        // lane 3 (20) matches rows 1 and 3; lane 1 (99) matches nothing.
        let expect = vec![(0, 1), (0, 3), (2, 0), (3, 1), (3, 3)];
        let chain = group_table(&hashes);
        assert_eq!(iterative_pairs(&chain, &probe_keys, &build_keys, &ph, 4, false), expect);
        let csr = JoinTable::build(&[&hashes]);
        assert_eq!(csr.len(), 4);
        assert_eq!(iterative_pairs(&csr, &probe_keys, &build_keys, &ph, 4, false), expect);

        // And at a size where buckets collide and the directory has grown:
        // every probe finds the same rows in both layouts.
        let keys: Vec<i64> = (0..10_000).map(|i| i % 4096).collect();
        let build_keys = vec![i64_vec(keys)];
        hash_keys(&build_keys, 10_000, false, &mut lanes, &mut hashes);
        let probe_keys = vec![i64_vec((0..5000).map(|i| i * 3).collect())];
        hash_keys(&probe_keys, 5000, false, &mut lanes, &mut ph);
        let chain =
            iterative_pairs(&group_table(&hashes), &probe_keys, &build_keys, &ph, 5000, false);
        let csr = iterative_pairs(
            &JoinTable::build(&[&hashes]),
            &probe_keys,
            &build_keys,
            &ph,
            5000,
            false,
        );
        assert!(!chain.is_empty());
        assert_eq!(chain, csr);
    }

    #[test]
    fn fused_probe_matches_iterative() {
        let build = i64_vec(vec![10, 20, 30, 20, 7]);
        let build_keys = vec![build];
        let (mut lanes, mut hashes) = (Vec::new(), Vec::new());
        hash_keys(&build_keys, 5, false, &mut lanes, &mut hashes);
        let t = JoinTable::build(&[&hashes]);

        let probe = i64_vec(vec![20, 99, 10, 7]);
        let pa = probe.data.as_i64().to_vec();
        let ba = build_keys[0].data.as_i64();
        let mut flags = vec![false; 4];
        let (mut op, mut ob) = (Vec::new(), Vec::new());
        let mut buf = ProbeBuf::default();
        t.probe_join(
            4,
            None,
            true,
            |p| hash_u64(pa[p] as u64),
            |p, row| pa[p] == ba[row as usize],
            &mut flags,
            &mut op,
            &mut ob,
            &mut buf,
        );
        let mut pairs: Vec<(u32, u32)> = op.iter().copied().zip(ob.iter().copied()).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (0, 3), (2, 0), (3, 4)]);
        assert_eq!(flags, vec![true, false, true, true]);
    }

    /// What `JoinTable::build` must produce, written the obvious way: one
    /// global histogram, prefix sum and scatter.
    fn csr_reference(hashes: &[u64]) -> (Vec<u32>, Vec<Slot>, Vec<u8>) {
        let dir = directory_size(hashes.len());
        let bucket = |h: u64| (h & (dir as u64 - 1)) as usize;
        let (mut offsets, mut bloom) = (vec![0u32; dir + 1], vec![0u8; dir]);
        for &h in hashes {
            offsets[bucket(h) + 1] += 1;
            bloom[bucket(h)] |= bloom_bit(h);
        }
        for b in 1..offsets.len() {
            offsets[b] += offsets[b - 1];
        }
        let mut cursor = offsets.clone();
        let mut slots = vec![Slot::default(); hashes.len()];
        for (row, &h) in hashes.iter().enumerate() {
            slots[cursor[bucket(h)] as usize] = Slot { tag: tag_of(h), row: row as u32 };
            cursor[bucket(h)] += 1;
        }
        (offsets, slots, bloom)
    }

    #[test]
    fn build_is_the_global_counting_sort_at_every_range_count() {
        // One range (at and below the split threshold), then many;
        // duplicates force multi-row buckets whose ascending row order
        // must survive the split. Chunked input numbers rows across the
        // chunks.
        for n in [0usize, 1, 100, 10_000, SMALL_TABLE, SMALL_TABLE + 1, 300_000] {
            let hashes: Vec<u64> = (0..n as u64).map(|i| hash_u64(i % 40_961)).collect();
            let (offsets, slots, bloom) = csr_reference(&hashes);
            let cut = n / 3;
            for t in [
                JoinTable::build(&[&hashes]),
                JoinTable::build(&[&hashes[..cut], &[], &hashes[cut..]]),
            ] {
                assert_eq!(t.len(), n);
                assert_eq!(t.offsets, offsets, "{n} rows");
                assert_eq!(t.hashed().0, slots, "{n} rows");
                assert_eq!(t.hashed().1, bloom, "{n} rows");
            }
        }
        assert!(JoinTable::build(&[]).is_empty());
    }

    /// The direct table over `chunks`, built in one part.
    fn direct<T: Copy + Into<i64>>(chunks: &[&[T]], lo: i64, hi: i64, shift: u32) -> JoinTable {
        let rows = chunks.iter().map(|c| c.len()).sum();
        let table = DirectBuild::new(rows, lo, hi, shift);
        table.fill(chunks, 0, 1);
        table.finish()
    }

    #[test]
    fn the_direct_layout_takes_a_build_no_larger_than_its_hashed_table() {
        // 4·(range + 1) + 4·n against 5·directory(n) + 8·n.
        assert!(JoinTable::fits_direct(1, 7, 7, 0));
        assert!(JoinTable::fits_direct(200_000, 1, 200_000, 0));
        assert!(JoinTable::fits_direct(200_000, -400_000, 400_000, 0));
        assert!(!JoinTable::fits_direct(200_000, 0, 1_000_000, 0));
        // directory(4 724) = 16 384: 81 920 + 37 792 bytes hashed.
        assert!(!JoinTable::fits_direct(4_724, 1, 50_000, 0));
        assert!(JoinTable::fits_direct(4_724, 1, 20_000, 0));
        assert!(!JoinTable::fits_direct(0, 0, 0, 0), "an empty build stays hashed");
        assert!(!JoinTable::fits_direct(2, i64::MIN, i64::MAX, 0), "the range overflows");
        assert!(!JoinTable::fits_direct(2, -1, i64::MAX, 0), "the range overflows");
        assert!(!JoinTable::fits_direct(2, i64::MAX - 100, i64::MAX, 0), "sparse, not overflowing");
        assert!(JoinTable::fits_direct(2, i64::MAX - 1, i64::MAX, 0));
    }

    #[test]
    fn a_direct_build_groups_rows_by_key_in_ascending_order_across_chunks() {
        let keys: Vec<i32> = vec![5, -2, 5, 3, -2, 5, 9];
        let t = direct(&[&keys[..3], &[], &keys[3..]], -2, 9, 0);
        assert!(t.is_direct() && t.len() == 7);
        // Buckets -2..=9: -2 → rows 1, 4; 3 → 3; 5 → 0, 2, 5; 9 → 6.
        let TableLayout::Direct { lo, rows, .. } = &t.layout else { unreachable!() };
        assert_eq!((*lo, rows.as_slice()), (-2, &[1, 4, 3, 0, 2, 5, 6][..]));
        let mut want = vec![0u32; 13];
        for (b, end) in [(0, 2), (5, 3), (7, 6), (11, 7)] {
            want[b + 1..].iter_mut().for_each(|o| *o = end);
        }
        assert_eq!(t.offsets, want);
        assert!(!JoinTable::build(&[&[1, 2]]).is_direct());
    }

    #[test]
    fn a_direct_build_in_key_range_parts_is_the_table_built_whole() {
        // Every key ≡ 3 (mod 8), as in a partition routed on three key bits.
        let keys: Vec<i64> = (0..5000).map(|i| (i * 7919) % 3001 * 8 + 3).collect();
        let (lo, hi, chunks) = (3, 3000 * 8 + 3, [&keys[..2000], &keys[2000..]]);
        assert!(!JoinTable::fits_direct(2_000, lo, hi, 0));
        assert!(JoinTable::fits_direct(2_000, lo, hi, 3));
        let layout = |t: &JoinTable| match &t.layout {
            TableLayout::Direct { lo, shift, rows } => {
                (t.offsets.clone(), *lo, *shift, rows.clone())
            }
            TableLayout::Hashed { .. } => unreachable!(),
        };
        let whole = direct(&chunks, lo, hi, 3);
        assert_eq!(whole.offsets.len(), 3002);
        for parts in [2, 3, 7] {
            let t = DirectBuild::new(keys.len(), lo, hi, 3);
            // In reverse: a part need not wait for the ones below it.
            (0..parts).rev().for_each(|u| t.fill(&chunks, u, parts));
            let t = t.finish();
            assert_eq!(layout(&t), layout(&whole), "{parts} parts");
        }
        // A probe key off the build's low bits is in no bucket.
        let probe: Vec<i64> = (-8..24_020).collect();
        let mut flags = vec![false; probe.len()];
        let (mut op, mut ob) = (Vec::new(), Vec::new());
        let key = |p: usize| probe[p];
        whole.probe_direct(probe.len(), None, true, key, &mut flags, &mut op, &mut ob);
        for (p, &hit) in flags.iter().enumerate() {
            assert_eq!(hit, keys.contains(&probe[p]), "key {}", probe[p]);
        }
        assert_eq!(op.len(), keys.len(), "every build row pairs once");
        assert!(op.iter().zip(&ob).all(|(&p, &b)| probe[p as usize] == keys[b as usize]));
    }

    #[test]
    fn the_direct_probe_finds_what_the_hashed_probe_finds_in_the_same_order() {
        let build: Vec<i64> = (0..3000).map(|i| (i * 7919) % 1000 - 300).collect();
        let probe: Vec<i64> = (0..2048).map(|i| (i * 104_729) % 1400 - 500).collect();
        let hashes: Vec<u64> = build.iter().map(|&k| hash_u64(k as u64)).collect();
        let (lo, hi) = (-300, 699);
        assert!(JoinTable::fits_direct(build.len(), lo, hi, 0));
        let direct = direct(&[&build[..1000], &build[1000..]], lo, hi, 0);
        let hashed = JoinTable::build(&[&hashes]);
        // Every other lane, so both the dense and the selected loop run.
        let sel = SelVec::from_positions((0..2048).step_by(2).collect());
        for (emit_all, sel) in [(true, None), (false, None), (true, Some(&sel))] {
            let run = |direct_layout: bool| {
                let mut flags = vec![false; probe.len()];
                let (mut op, mut ob, mut buf) = (Vec::new(), Vec::new(), ProbeBuf::default());
                if direct_layout {
                    let key = |p: usize| probe[p];
                    direct.probe_direct(2048, sel, emit_all, key, &mut flags, &mut op, &mut ob);
                } else {
                    hashed.probe_join(
                        2048,
                        sel,
                        emit_all,
                        |p| hash_u64(probe[p] as u64),
                        |p, row| probe[p] == build[row as usize],
                        &mut flags,
                        &mut op,
                        &mut ob,
                        &mut buf,
                    );
                }
                (flags, op, ob)
            };
            let want = run(false);
            assert!(want.1.len() > 1000 || !emit_all, "{} pairs", want.1.len());
            assert_eq!(run(true), want, "emit_all {emit_all}, sel {}", sel.is_some());
        }
    }

    #[test]
    fn every_built_row_is_found_by_the_fused_probe() {
        let keys: Vec<i64> = (0..500).collect();
        let hashes: Vec<u64> = keys.iter().map(|&k| hash_u64(k as u64)).collect();
        let t = JoinTable::build(&[&hashes]);
        assert_eq!(t.len(), 500);
        let mut flags = vec![false; 500];
        let (mut op, mut ob) = (Vec::new(), Vec::new());
        let mut buf = ProbeBuf::default();
        t.probe_join(
            500,
            None,
            true,
            |p| hash_u64(keys[p] as u64),
            |_, _| true,
            &mut flags,
            &mut op,
            &mut ob,
            &mut buf,
        );
        assert!(flags.iter().all(|&f| f), "all 500 hashes found");
        assert_eq!(op.len(), 500);
    }

    #[test]
    fn null_group_semantics() {
        // Build: one NULL key row (group semantics) at row 0, value 5 at 1.
        let mut bk = Vector::new(ColData::new(TypeId::I64));
        bk.push(&vw_common::Value::Null).unwrap();
        bk.push(&vw_common::Value::I64(5)).unwrap();
        let build_keys = vec![bk];
        let (mut lanes, mut hashes) = (Vec::new(), Vec::new());
        hash_keys(&build_keys, 2, true, &mut lanes, &mut hashes);
        let t = group_table(&hashes);

        // Probe: NULL, 5, 0 (0 is the safe default stored under NULLs —
        // must NOT match the NULL group).
        let mut pk = Vector::new(ColData::new(TypeId::I64));
        pk.push(&vw_common::Value::Null).unwrap();
        pk.push(&vw_common::Value::I64(5)).unwrap();
        pk.push(&vw_common::Value::I64(0)).unwrap();
        let probe_keys = vec![pk];
        let mut ph = Vec::new();
        hash_keys(&probe_keys, 3, true, &mut lanes, &mut ph);

        let pairs = iterative_pairs(&t, &probe_keys, &build_keys, &ph, 3, true);
        let mut found = [None::<u32>; 3];
        for (p, row) in pairs {
            found[p] = Some(row);
        }
        assert_eq!(found[0], Some(0), "NULL probe joins the NULL group");
        assert_eq!(found[1], Some(1));
        assert_eq!(found[2], None, "0 must not alias the NULL group's default");
    }

    #[test]
    fn multi_column_keys_narrow_per_column() {
        let build = vec![i64_vec(vec![1, 1, 2]), i64_vec(vec![10, 20, 10])];
        let probe = vec![i64_vec(vec![1]), i64_vec(vec![20])];
        // Candidate row per lane: try every build row for lane 0.
        for (cand_row, expect) in [(0u32, false), (1, true), (2, false)] {
            let sel = SelVec::identity(1);
            let (mut tmp, mut out) = (SelVec::new(), SelVec::new());
            keys_match_sel(&probe, &build, &[cand_row], &sel, &mut tmp, &mut out, false);
            assert_eq!(!out.is_empty(), expect, "row {cand_row}");
        }
    }

    #[test]
    fn zero_key_columns_match_everything() {
        let sel = SelVec::identity(3);
        let (mut tmp, mut out) = (SelVec::new(), SelVec::new());
        keys_match_sel(&[] as &[Vector], &[], &[0, 0, 0], &sel, &mut tmp, &mut out, false);
        assert_eq!(out.len(), 3);
        let mut lanes = Vec::new();
        let mut hashes = Vec::new();
        hash_keys(&[] as &[Vector], 3, false, &mut lanes, &mut hashes);
        assert_eq!(hashes.len(), 3);
        assert!(hashes.windows(2).all(|w| w[0] == w[1]));
    }
}
