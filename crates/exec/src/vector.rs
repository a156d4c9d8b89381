//! Vectors and batches — the unit of data flow between operators.
//!
//! Since PR 9 a vector can also carry an **encoded form** ([`Enc`])
//! alongside (or instead of) its flat values, so kernels run on compressed
//! representations and only materialize what survives — see
//! ARCHITECTURE.md ("Compressed execution") for the encoded vector forms,
//! the per-encoding instruction table, and the late-materialization
//! boundaries.

use std::sync::Arc;
use vw_common::{ColData, Result, Schema, SelVec, TypeId, Value, VwError};
pub use vw_compress::dict::StrArena;

/// An encoded vector form riding on a [`Vector`]: what a scan hands out for
/// a string or RLE integer chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum Enc {
    /// Coded strings: one `u32` code per position into a shared string
    /// arena — the pack's PDICT dictionary, or a raw block's rows (one
    /// `Arc` per pack either way). While this form is present, `data` is
    /// an **empty** `ColData::Str` placeholder that only carries the type —
    /// `len()`/`get()` and every gather/extend consult the codes. Equal
    /// codes over one `Arc` are equal strings; unequal codes are unequal
    /// strings only when the arena is [`StrArena::distinct`], so a
    /// code-equality shortcut checks that bit and otherwise compares the
    /// entries themselves.
    Dict {
        /// One code per position (`codes[i] < dict.len()`).
        codes: Vec<u32>,
        /// The shared arena. Predicates over it are answered per entry
        /// through a qualifying-code bitmap when it has no more entries
        /// than the batch has lanes, per lane otherwise.
        dict: Arc<StrArena>,
    },
    /// Run-length sidecar for an integer column: `(value, run_len)` pairs
    /// covering exactly this vector's rows, **in addition to** fully
    /// materialized `data` (the win is per-run predicate evaluation, not
    /// storage). Any mutation drops the sidecar; `data` stays the truth.
    Rle {
        /// The runs, in position order, summing to `data.len()`.
        runs: Vec<(i64, u32)>,
    },
}

/// A string vector's lanes as `&str` — see [`Vector::str_lanes`].
#[derive(Clone, Copy)]
pub enum StrLanes<'a> {
    /// Flat values.
    Flat(&'a [String]),
    /// Codes into an arena.
    Coded(&'a [u32], &'a StrArena),
}

impl<'a> StrLanes<'a> {
    /// Lane `i` (not NULL-checked: a NULL lane reads its safe value).
    #[inline]
    pub fn get(&self, i: usize) -> &'a str {
        match *self {
            StrLanes::Flat(s) => &s[i],
            StrLanes::Coded(codes, arena) => &arena[codes[i] as usize],
        }
    }
}

/// A typed value vector with the Vectorwise two-column NULL representation:
/// `data` always holds a well-typed ("safe") value at every position, and
/// `nulls`, when present, flags the positions that are SQL NULL.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    /// The values. Empty placeholder while `enc` is [`Enc::Dict`].
    pub data: ColData,
    /// NULL indicator; `None` means "no NULLs in this vector".
    pub nulls: Option<Vec<bool>>,
    /// Encoded form, when the compressed execution path kept one.
    pub enc: Option<Enc>,
}

impl Vector {
    /// A non-nullable vector.
    pub fn new(data: ColData) -> Vector {
        Vector { data, nulls: None, enc: None }
    }

    /// A vector with an explicit indicator (normalized: all-false → None).
    pub fn with_nulls(data: ColData, nulls: Option<Vec<bool>>) -> Vector {
        let nulls = nulls.filter(|m| m.iter().any(|&b| b));
        Vector { data, nulls, enc: None }
    }

    /// A coded string vector (data stays an empty placeholder).
    pub fn from_dict(codes: Vec<u32>, dict: Arc<StrArena>, nulls: Option<Vec<bool>>) -> Vector {
        let nulls = nulls.filter(|m| m.iter().any(|&b| b));
        Vector { data: ColData::new(TypeId::Str), nulls, enc: Some(Enc::Dict { codes, dict }) }
    }

    /// The codes and their arena, when this vector is coded.
    #[inline]
    pub fn dict_parts(&self) -> Option<(&[u32], &Arc<StrArena>)> {
        match &self.enc {
            Some(Enc::Dict { codes, dict }) => Some((codes, dict)),
            _ => None,
        }
    }

    /// The RLE run sidecar, when present.
    #[inline]
    pub fn rle_runs(&self) -> Option<&[(i64, u32)]> {
        match &self.enc {
            Some(Enc::Rle { runs }) => Some(runs),
            _ => None,
        }
    }

    /// True when an encoded form is present (profiling's `enc` column).
    #[inline]
    pub fn is_encoded(&self) -> bool {
        self.enc.is_some()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match &self.enc {
            Some(Enc::Dict { codes, .. }) => codes.len(),
            _ => self.data.len(),
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode the encoded form into flat `data` and drop it — the
    /// late-materialization boundary (emit / Sort / TopN / spill / any
    /// kernel that has no encoded instruction variant). A no-op for flat
    /// vectors, so calling it defensively costs one branch.
    pub fn ensure_flat(&mut self) {
        match self.enc.take() {
            None => {}
            Some(Enc::Rle { .. }) => {} // data is already materialized
            Some(Enc::Dict { codes, dict }) => {
                debug_assert_eq!(self.data.len(), 0, "dict placeholder must stay empty");
                let ColData::Str(out) = &mut self.data else {
                    unreachable!("dict enc on non-string column")
                };
                vw_compress::dict::materialize_codes(&codes, &dict, out);
            }
        }
    }

    /// The type.
    pub fn type_id(&self) -> TypeId {
        self.data.type_id()
    }

    /// Is position `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|m| m[i])
    }

    /// Value at `i` as a [`Value`] (NULL-aware slow path).
    pub fn get(&self, i: usize) -> Value {
        if self.is_null(i) {
            Value::Null
        } else if let Some((codes, dict)) = self.dict_parts() {
            Value::Str(dict[codes[i] as usize].to_owned())
        } else {
            self.data.get_value(i)
        }
    }

    /// The string at position `i` without cloning (dict-aware; `i` must
    /// name a string column and is *not* NULL-checked — callers holding a
    /// non-null position use this in hash/compare loops; a loop over many
    /// lanes takes [`Vector::str_lanes`] once instead).
    #[inline]
    pub fn str_at(&self, i: usize) -> &str {
        self.str_lanes().get(i)
    }

    /// This string vector's lanes, read in place: through the codes when
    /// it is coded, from the flat values otherwise. Nothing is copied.
    #[inline]
    pub fn str_lanes(&self) -> StrLanes<'_> {
        match (&self.enc, &self.data) {
            (Some(Enc::Dict { codes, dict }), _) => StrLanes::Coded(codes, dict),
            (_, ColData::Str(s)) => StrLanes::Flat(s),
            _ => unreachable!("str_lanes on a {} column", self.type_id()),
        }
    }

    /// Turn this string vector into an empty coded vector over an arena of
    /// its own, for a string kernel to fill: one entry per written lane,
    /// codes pointing at them. The arena is reused when nothing else holds
    /// it, else a fresh one with room for `lanes` entries of `bytes` bytes
    /// replaces it — so writing a vector of strings costs no allocation per
    /// value, and none at all once the buffers are warm.
    pub(crate) fn str_output(
        &mut self,
        lanes: usize,
        bytes: usize,
    ) -> (&mut Vec<u32>, &mut StrArena) {
        debug_assert_eq!(self.type_id(), TypeId::Str);
        self.data.clear();
        if !matches!(self.enc, Some(Enc::Dict { .. })) {
            self.enc =
                Some(Enc::Dict { codes: Vec::with_capacity(lanes), dict: StrArena::empty() });
        }
        let Some(Enc::Dict { codes, dict }) = &mut self.enc else { unreachable!() };
        codes.clear();
        match Arc::get_mut(dict) {
            Some(arena) => arena.clear(),
            None => *dict = Arc::new(StrArena::with_capacity(lanes, bytes)),
        }
        let arena = Arc::get_mut(dict).expect("the output arena is unshared");
        (codes, arena)
    }

    /// The bytes [`Vector::byte_size`] counts for the `sel` lanes of this
    /// vector once gathered flat (a coded string lane as the `String` it
    /// would inflate to).
    pub fn flat_bytes(&self, sel: &SelVec) -> usize {
        let nulls = if self.nulls.is_some() { sel.len() } else { 0 };
        let values = match self.type_id() {
            TypeId::Str => {
                let lanes = self.str_lanes();
                sel.iter().map(|p| lanes.get(p).len() + 24).sum()
            }
            TypeId::Bool | TypeId::I8 => sel.len(),
            TypeId::I16 => sel.len() * 2,
            TypeId::I32 | TypeId::Date => sel.len() * 4,
            TypeId::I64 | TypeId::F64 => sel.len() * 8,
        };
        values + nulls
    }

    /// Approximate heap bytes held by this vector (value buffer plus NULL
    /// indicator) — the unit the memory governor
    /// (`vw-exec::partition::MemBudget`) charges for staged build rows.
    /// Coded vectors charge their codes (the arena is shared, pack-owned
    /// storage; a hash build that keeps it charges it once).
    pub fn byte_size(&self) -> usize {
        let enc = match &self.enc {
            Some(Enc::Dict { codes, .. }) => codes.len() * 4,
            Some(Enc::Rle { runs }) => runs.len() * 12,
            None => 0,
        };
        self.data.byte_size() + enc + self.nulls.as_ref().map_or(0, |m| m.len())
    }

    /// Append a [`Value`] (NULL extends the indicator).
    pub fn push(&mut self, v: &Value) -> Result<()> {
        self.ensure_flat();
        if v.is_null() {
            let n = self.len();
            self.nulls.get_or_insert_with(|| vec![false; n]).push(true);
            self.data.push_safe_default();
        } else {
            if let Some(m) = &mut self.nulls {
                m.push(false);
            }
            self.data.push_value(v)?;
        }
        Ok(())
    }

    /// Gather `positions` into a new vector (dict codes stay coded).
    pub fn gather(&self, positions: &SelVec) -> Vector {
        if let Some((codes, dict)) = self.dict_parts() {
            let out: Vec<u32> = positions.iter().map(|p| codes[p]).collect();
            let nulls =
                self.nulls.as_ref().map(|m| positions.iter().map(|p| m[p]).collect::<Vec<bool>>());
            return Vector::from_dict(out, dict.clone(), nulls);
        }
        let mut data = ColData::with_capacity(self.type_id(), positions.len());
        data.extend_gather(&self.data, positions.iter());
        let nulls =
            self.nulls.as_ref().map(|m| positions.iter().map(|p| m[p]).collect::<Vec<bool>>());
        Vector::with_nulls(data, nulls)
    }

    /// Gather arbitrary row indices — unsorted and repeatable, unlike
    /// [`Vector::gather`]'s sorted [`SelVec`] — into a new vector. The join
    /// output assembler uses this: one probe row matching N build rows
    /// repeats its index N times.
    pub fn gather_indices(&self, idx: &[u32]) -> Vector {
        if let Some((codes, dict)) = self.dict_parts() {
            let out: Vec<u32> = idx.iter().map(|&i| codes[i as usize]).collect();
            let nulls = self
                .nulls
                .as_ref()
                .map(|m| idx.iter().map(|&i| m[i as usize]).collect::<Vec<bool>>());
            return Vector::from_dict(out, dict.clone(), nulls);
        }
        let mut data = ColData::with_capacity(self.type_id(), idx.len());
        data.extend_gather(&self.data, idx.iter().map(|&i| i as usize));
        let nulls =
            self.nulls.as_ref().map(|m| idx.iter().map(|&i| m[i as usize]).collect::<Vec<bool>>());
        Vector::with_nulls(data, nulls)
    }

    /// Like [`Vector::gather_indices`], but lanes equal to `sentinel`
    /// produce SQL NULL (left-outer-join padding for unmatched probe rows).
    /// A dict source stays coded: padded lanes take code 0 as the safe
    /// value under their NULL flag.
    pub fn gather_indices_padded(&self, idx: &[u32], sentinel: u32) -> Vector {
        if let Some((codes, dict)) = self.dict_parts() {
            let out: Vec<u32> =
                idx.iter().map(|&i| if i == sentinel { 0 } else { codes[i as usize] }).collect();
            let nulls: Vec<bool> =
                idx.iter().map(|&i| i == sentinel || self.is_null(i as usize)).collect();
            return Vector::from_dict(out, dict.clone(), Some(nulls));
        }
        let mut data = ColData::with_capacity(self.type_id(), idx.len());
        data.extend_gather_padded(&self.data, idx, sentinel);
        let nulls: Vec<bool> =
            idx.iter().map(|&i| i == sentinel || self.is_null(i as usize)).collect();
        Vector::with_nulls(data, Some(nulls))
    }

    /// Can `self` absorb `src`'s representation without materializing?
    /// True when `self` is (still) empty — it adopts `src`'s dictionary —
    /// or both sides are dict-coded over the *same* `Arc`.
    fn adopts_dict_of(&self, src: &Vector) -> bool {
        match (&self.enc, &src.enc) {
            (_, Some(Enc::Dict { .. })) if self.is_empty() => true,
            (Some(Enc::Dict { dict: a, .. }), Some(Enc::Dict { dict: b, .. })) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Append `src`'s lanes `lanes` to this flat vector's values (the
    /// NULL indicator is the caller's): a coded source inflates just
    /// those lanes.
    fn extend_values_flat(&mut self, src: &Vector, lanes: impl Iterator<Item = usize>) {
        match src.dict_parts() {
            Some((codes, dict)) => {
                let ColData::Str(out) = &mut self.data else {
                    unreachable!("dict append on non-string column")
                };
                out.extend(lanes.map(|p| dict[codes[p] as usize].to_owned()));
            }
            None => self.data.extend_gather(&src.data, lanes),
        }
    }

    /// Append the lanes of `src` selected by `sel` (vectorized hash-build
    /// append: batch rows flow into the contiguous build-side vectors).
    /// Dict-coded lanes stay coded while the dictionaries match (one pack
    /// feeding one build); on a mismatch this vector goes flat and only
    /// the selected lanes of the source inflate.
    pub fn extend_gather_sel(&mut self, src: &Vector, sel: &SelVec) {
        if self.adopts_dict_of(src) {
            let Some((src_codes, src_dict)) = src.dict_parts() else { unreachable!() };
            let src_dict = src_dict.clone();
            self.extend_nulls_gather(src, sel);
            match &mut self.enc {
                Some(Enc::Dict { codes, dict }) => {
                    if !Arc::ptr_eq(dict, &src_dict) {
                        *dict = src_dict; // empty dst with a stale recycled dict
                    }
                    codes.extend(sel.iter().map(|p| src_codes[p]));
                }
                e @ None => {
                    *e = Some(Enc::Dict {
                        codes: sel.iter().map(|p| src_codes[p]).collect(),
                        dict: src_dict,
                    })
                }
                _ => unreachable!(),
            }
            return;
        }
        // Not adoptable: this vector goes flat (inflating only the lanes it
        // holds, or dropping an RLE sidecar that would stop covering), and
        // only the appended lanes of a coded source inflate.
        self.ensure_flat();
        self.extend_nulls_gather(src, sel);
        self.extend_values_flat(src, sel.iter());
    }

    /// The NULL-indicator half of [`Vector::extend_gather_sel`].
    fn extend_nulls_gather(&mut self, src: &Vector, sel: &SelVec) {
        let before = self.len();
        match (&mut self.nulls, &src.nulls) {
            (Some(a), Some(b)) => a.extend(sel.iter().map(|p| b[p])),
            (Some(a), None) => a.extend(std::iter::repeat_n(false, sel.len())),
            (None, Some(b)) => {
                if sel.iter().any(|p| b[p]) {
                    let mut m = vec![false; before];
                    m.extend(sel.iter().map(|p| b[p]));
                    self.nulls = Some(m);
                }
            }
            (None, None) => {}
        }
    }

    /// Clear values in place, keeping the data buffer's capacity — the
    /// [`BatchPool`](crate::morsel::BatchPool) recycling primitive. The
    /// NULL indicator is dropped, not kept: a cleared vector that reads as
    /// NULL-free must also *be* `nulls: None`, or every downstream
    /// `nulls.is_none()` fast path would be permanently demoted to the
    /// NULL-aware route once a buffer ever carried an indicator.
    pub fn clear_keep_capacity(&mut self) {
        self.data.clear();
        self.nulls = None;
        match &mut self.enc {
            // Keep the Dict variant and its codes' capacity, but let go of
            // the arena: a pooled batch must not pin a pack's strings until
            // it is reused. The next extend, the vector being empty, adopts
            // whatever arena it brings.
            Some(Enc::Dict { codes, dict }) => {
                codes.clear();
                *dict = StrArena::empty();
            }
            Some(Enc::Rle { .. }) => self.enc = None,
            None => {}
        }
    }

    /// [`Vector::gather`] into a caller-owned vector (cleared first),
    /// reusing its buffers — the pooled-output variant.
    pub fn gather_into(&self, positions: &SelVec, dst: &mut Vector) {
        debug_assert_eq!(self.type_id(), dst.type_id());
        dst.clear_keep_capacity();
        if let Some((codes, dict)) = self.dict_parts() {
            dst.set_dict_gather(dict, positions.iter().map(|p| codes[p]));
        } else {
            dst.enc = None;
            dst.data.extend_gather(&self.data, positions.iter());
        }
        fill_gathered_nulls(&mut dst.nulls, self.nulls.as_deref(), positions.iter());
    }

    /// [`Vector::gather_indices`] into a caller-owned vector (cleared
    /// first), reusing its buffers.
    pub fn gather_indices_into(&self, idx: &[u32], dst: &mut Vector) {
        debug_assert_eq!(self.type_id(), dst.type_id());
        dst.clear_keep_capacity();
        if let Some((codes, dict)) = self.dict_parts() {
            dst.set_dict_gather(dict, idx.iter().map(|&i| codes[i as usize]));
        } else {
            dst.enc = None;
            dst.data.extend_gather(&self.data, idx.iter().map(|&i| i as usize));
        }
        fill_gathered_nulls(&mut dst.nulls, self.nulls.as_deref(), idx.iter().map(|&i| i as usize));
    }

    /// [`Vector::gather_indices_padded`] into a caller-owned vector
    /// (cleared first), reusing its buffers; lanes equal to `sentinel`
    /// produce SQL NULL. When no lane is padded and the source carries no
    /// NULLs (every inner-join batch), no indicator is materialized, so
    /// downstream NULL-free fast paths keep firing.
    pub fn gather_indices_padded_into(&self, idx: &[u32], sentinel: u32, dst: &mut Vector) {
        debug_assert_eq!(self.type_id(), dst.type_id());
        dst.clear_keep_capacity();
        if let Some((codes, dict)) = self.dict_parts() {
            dst.set_dict_gather(
                dict,
                idx.iter().map(|&i| if i == sentinel { 0 } else { codes[i as usize] }),
            );
        } else {
            dst.enc = None;
            dst.data.extend_gather_padded(&self.data, idx, sentinel);
        }
        if self.nulls.is_none() && !idx.contains(&sentinel) {
            dst.nulls = None;
            return;
        }
        let m = dst.nulls.get_or_insert_with(Vec::new);
        m.clear();
        m.extend(idx.iter().map(|&i| i == sentinel || self.is_null(i as usize)));
    }

    /// Rebuild this (cleared) vector as dict-coded over `dict`, filling
    /// its codes from `src_codes` and reusing the codes buffer if the
    /// vector was already dict-coded before recycling.
    fn set_dict_gather(&mut self, dict: &Arc<StrArena>, src_codes: impl Iterator<Item = u32>) {
        debug_assert!(self.is_empty() && self.data.is_empty());
        match &mut self.enc {
            Some(Enc::Dict { codes, dict: d }) => {
                if !Arc::ptr_eq(d, dict) {
                    *d = dict.clone();
                }
                codes.extend(src_codes);
            }
            e => *e = Some(Enc::Dict { codes: src_codes.collect(), dict: dict.clone() }),
        }
    }

    /// Copy `src` wholesale into this vector (cleared first), reusing the
    /// buffers — the pooled replacement for `src.clone()`.
    pub fn clone_from_vector(&mut self, src: &Vector) {
        debug_assert_eq!(self.type_id(), src.type_id());
        self.clear_keep_capacity();
        self.extend_range(src, 0, src.len());
    }

    /// Concatenate `other[start..end]` onto this vector. Dict-coded
    /// sources stay coded while the dictionaries match (see
    /// [`Vector::extend_gather_sel`]); any other mix materializes this
    /// vector and the appended range only.
    pub fn extend_range(&mut self, other: &Vector, start: usize, end: usize) {
        let nulls = other.nulls.as_deref();
        match other.dict_parts() {
            Some((codes, dict)) => self.extend_dict_range(codes, dict, nulls, start, end),
            None => self.extend_flat_range(&other.data, nulls, start, end),
        }
    }

    /// Extend the NULL indicator by `nulls[start..end]` (`None`: no NULL
    /// there); called before the values grow, while `len` is the old one.
    fn extend_nulls(&mut self, nulls: Option<&[bool]>, start: usize, end: usize) {
        let before = self.len();
        match (&mut self.nulls, nulls) {
            (Some(a), Some(b)) => a.extend_from_slice(&b[start..end]),
            (Some(a), None) => a.extend(std::iter::repeat_n(false, end - start)),
            (None, Some(b)) => {
                if b[start..end].iter().any(|&x| x) {
                    let mut m = vec![false; before];
                    m.extend_from_slice(&b[start..end]);
                    self.nulls = Some(m);
                }
            }
            (None, None) => {}
        }
    }

    /// Scan-facing append of a flat slice — a plain pack chunk or a run
    /// of inserted rows: extend with `data[start..end]` and its NULLs,
    /// flattening this vector first.
    pub fn extend_flat_range(
        &mut self,
        data: &ColData,
        nulls: Option<&[bool]>,
        start: usize,
        end: usize,
    ) {
        self.ensure_flat();
        self.extend_nulls(nulls, start, end);
        self.data.extend_from_range(data, start, end);
    }

    /// Scan-facing append of a dict-coded pack slice: extend this vector
    /// with `codes[start..end]` over `dict`, staying coded when possible
    /// (empty vector, or same `Arc`), else materializing the slice.
    pub fn extend_dict_range(
        &mut self,
        codes: &[u32],
        dict: &Arc<StrArena>,
        nulls: Option<&[bool]>,
        start: usize,
        end: usize,
    ) {
        let stays_coded = match &self.enc {
            _ if self.is_empty() => true,
            Some(Enc::Dict { dict: d, .. }) => Arc::ptr_eq(d, dict),
            _ => false,
        };
        self.extend_nulls(nulls, start, end);
        if stays_coded {
            match &mut self.enc {
                Some(Enc::Dict { codes: c, dict: d }) => {
                    if !Arc::ptr_eq(d, dict) {
                        *d = dict.clone();
                    }
                    c.extend_from_slice(&codes[start..end]);
                }
                e => *e = Some(Enc::Dict { codes: codes[start..end].to_vec(), dict: dict.clone() }),
            }
        } else {
            self.ensure_flat();
            let ColData::Str(out) = &mut self.data else {
                unreachable!("dict append on non-string column")
            };
            out.extend(codes[start..end].iter().map(|&c| dict[c as usize].to_owned()));
        }
    }

    /// Attach an RLE run sidecar covering exactly `data` (the scan sets
    /// this right after filling a fresh vector). Ignored unless the runs
    /// sum to the vector's length — a partial sidecar would lie.
    pub fn set_rle_runs(&mut self, runs: Vec<(i64, u32)>) {
        debug_assert!(self.enc.is_none());
        let covered: usize = runs.iter().map(|&(_, n)| n as usize).sum();
        if covered == self.len() && self.enc.is_none() {
            self.enc = Some(Enc::Rle { runs });
        }
    }

    /// Scan-facing append of an RLE pack slice: extend with
    /// `data[start..end]` (flat, like [`Vector::extend_range`]) while
    /// maintaining a run sidecar clipped to the appended range. The sidecar
    /// survives only while every append keeps it covering — an append onto
    /// a flat non-empty vector drops it.
    pub fn extend_rle_range(
        &mut self,
        data: &ColData,
        runs: &[(i64, u32)],
        nulls: Option<&[bool]>,
        start: usize,
        end: usize,
    ) {
        let keep_runs = self.is_empty() || matches!(self.enc, Some(Enc::Rle { .. }));
        self.extend_nulls(nulls, start, end);
        self.data.extend_from_range(data, start, end);
        if keep_runs {
            let dst = match &mut self.enc {
                Some(Enc::Rle { runs }) => runs,
                e => {
                    *e = Some(Enc::Rle { runs: Vec::new() });
                    let Some(Enc::Rle { runs }) = e else { unreachable!() };
                    runs
                }
            };
            clip_runs(runs, start, end, dst);
        } else {
            self.enc = None;
        }
    }
}

/// Append the sub-runs of `runs` overlapping `[start, end)` onto `out`,
/// merging with `out`'s trailing run when the values match.
fn clip_runs(runs: &[(i64, u32)], start: usize, end: usize, out: &mut Vec<(i64, u32)>) {
    let mut pos = 0usize;
    for &(v, l) in runs {
        let (rs, re) = (pos, pos + l as usize);
        pos = re;
        if re <= start {
            continue;
        }
        if rs >= end {
            break;
        }
        let take = (re.min(end) - rs.max(start)) as u32;
        match out.last_mut() {
            Some(last) if last.0 == v => last.1 += take,
            _ => out.push((v, take)),
        }
    }
}

/// Fill `dst`'s NULL indicator for a gather of `positions` out of a source
/// with indicator `src`. A NULL-free source leaves `dst` at `None` (a
/// stale destination buffer is dropped rather than kept all-false, which
/// would demote every downstream `nulls.is_none()` fast path); a
/// destination buffer is reused when both sides carry indicators.
fn fill_gathered_nulls(
    dst: &mut Option<Vec<bool>>,
    src: Option<&[bool]>,
    positions: impl Iterator<Item = usize>,
) {
    match (dst.as_mut(), src) {
        (Some(d), Some(m)) => {
            d.clear();
            d.extend(positions.map(|p| m[p]));
        }
        (Some(_), None) => *dst = None,
        (None, Some(m)) => *dst = Some(positions.map(|p| m[p]).collect()),
        (None, None) => {}
    }
}

/// A batch: equally-long vectors plus an optional selection vector marking
/// the *live* rows (the X100 way of representing filtered data without
/// copying).
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// The column vectors.
    pub columns: Vec<Vector>,
    /// Live positions; `None` = all rows live.
    pub sel: Option<SelVec>,
}

impl Batch {
    /// A batch from columns, no selection.
    pub fn new(columns: Vec<Vector>) -> Batch {
        debug_assert!(columns.windows(2).all(|w| w[0].len() == w[1].len()));
        Batch { columns, sel: None }
    }

    /// Empty batch of a given schema (0 rows).
    pub fn empty(schema: &Schema) -> Batch {
        Batch {
            columns: schema.fields.iter().map(|f| Vector::new(ColData::new(f.ty))).collect(),
            sel: None,
        }
    }

    /// Physical length of the vectors (including filtered-out rows).
    pub fn capacity(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of *live* rows.
    pub fn rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.capacity(),
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Iterate live positions. Returns a concrete iterator — a boxed
    /// `dyn Iterator` here would heap-allocate on every call, and `live()`
    /// sits inside per-batch operator loops.
    pub fn live(&self) -> LiveIter<'_> {
        match &self.sel {
            Some(s) => LiveIter { sel: Some(s.as_slice()), pos: 0, end: s.len() },
            None => LiveIter { sel: None, pos: 0, end: self.capacity() },
        }
    }

    /// Compact to dense vectors (materialize the selection).
    pub fn compact(self) -> Batch {
        match &self.sel {
            None => self,
            Some(sel) => {
                let columns = self.columns.iter().map(|c| c.gather(sel)).collect();
                Batch { columns, sel: None }
            }
        }
    }

    /// Row `i` (live-position index) as Values — result/test convenience.
    pub fn row_values(&self, live_idx: usize) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.width());
        self.row_values_into(live_idx, &mut out);
        out
    }

    /// Late-materialize every encoded column in place — the batch-level
    /// boundary call (Sort/TopN input, spill, volcano bridge).
    pub fn ensure_flat(&mut self) {
        for c in &mut self.columns {
            c.ensure_flat();
        }
    }

    /// Fill `out` (cleared first) with row `i`'s values, reusing the
    /// caller's buffer — the per-row variant for loops where a fresh `Vec`
    /// per row would dominate (e.g. the Top-N reject path).
    pub fn row_values_into(&self, live_idx: usize, out: &mut Vec<Value>) {
        let pos = match &self.sel {
            Some(s) => s.as_slice()[live_idx] as usize,
            None => live_idx,
        };
        out.clear();
        out.extend(self.columns.iter().map(|c| c.get(pos)));
    }
}

/// Concrete live-position iterator for [`Batch::live`]: a sorted selection
/// walk or a dense `0..capacity` range, with no heap allocation either way.
pub struct LiveIter<'a> {
    /// Selection positions, or `None` for the dense range case.
    sel: Option<&'a [u32]>,
    pos: usize,
    end: usize,
}

impl Iterator for LiveIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.pos >= self.end {
            return None;
        }
        let out = match self.sel {
            Some(s) => s[self.pos] as usize,
            None => self.pos,
        };
        self.pos += 1;
        Some(out)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.pos;
        (n, Some(n))
    }
}

impl ExactSizeIterator for LiveIter<'_> {}

/// Build a `Vector` from `Value`s, inferring the type from `ty`.
pub fn vector_from_values(ty: TypeId, values: &[Value]) -> Result<Vector> {
    let mut v = Vector::new(ColData::with_capacity(ty, values.len()));
    for val in values {
        if !val.is_null() && val.type_id() != Some(ty) {
            return Err(VwError::Exec(format!(
                "value {val:?} does not fit column type {}",
                ty.sql_name()
            )));
        }
        v.push(val)?;
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_with_nulls() {
        let mut v = Vector::new(ColData::new(TypeId::I32));
        v.push(&Value::I32(1)).unwrap();
        v.push(&Value::Null).unwrap();
        v.push(&Value::I32(3)).unwrap();
        assert_eq!(v.get(0), Value::I32(1));
        assert_eq!(v.get(1), Value::Null);
        assert_eq!(v.get(2), Value::I32(3));
        assert!(v.is_null(1));
        assert!(!v.is_null(2));
    }

    #[test]
    fn with_nulls_normalizes_all_false() {
        let v = Vector::with_nulls(ColData::I32(vec![1, 2]), Some(vec![false, false]));
        assert!(v.nulls.is_none());
    }

    #[test]
    fn gather_keeps_nulls() {
        let mut v = Vector::new(ColData::new(TypeId::I64));
        for val in [Value::I64(10), Value::Null, Value::I64(30), Value::I64(40)] {
            v.push(&val).unwrap();
        }
        let sel = SelVec::from_positions(vec![1, 3]);
        let g = v.gather(&sel);
        assert_eq!(g.get(0), Value::Null);
        assert_eq!(g.get(1), Value::I64(40));
    }

    #[test]
    fn extend_range_merges_null_masks() {
        let mut a = Vector::new(ColData::I32(vec![1, 2]));
        let b = Vector::with_nulls(ColData::I32(vec![0, 4]), Some(vec![true, false]));
        a.extend_range(&b, 0, 2);
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(2), Value::Null);
        assert_eq!(a.get(3), Value::I32(4));
    }

    #[test]
    fn batch_selection_rows() {
        let b = Batch {
            columns: vec![Vector::new(ColData::I32(vec![1, 2, 3, 4]))],
            sel: Some(SelVec::from_positions(vec![0, 2])),
        };
        assert_eq!(b.rows(), 2);
        assert_eq!(b.capacity(), 4);
        assert_eq!(b.row_values(1), vec![Value::I32(3)]);
        let dense = b.compact();
        assert_eq!(dense.rows(), 2);
        assert_eq!(dense.columns[0].data, ColData::I32(vec![1, 3]));
    }

    #[test]
    fn vector_from_values_type_checked() {
        let v = vector_from_values(TypeId::I32, &[Value::I32(5), Value::Null]).unwrap();
        assert_eq!(v.len(), 2);
        assert!(vector_from_values(TypeId::I32, &[Value::I64(5)]).is_err());
    }

    fn test_dict() -> Arc<StrArena> {
        Arc::new(StrArena::from_strs(["apple", "kiwi", "pear"], true))
    }

    #[test]
    fn dict_vector_reads_like_flat() {
        let v =
            Vector::from_dict(vec![2, 0, 1, 0], test_dict(), Some(vec![false, false, true, false]));
        assert_eq!(v.len(), 4);
        assert_eq!(v.get(0), Value::Str("pear".into()));
        assert_eq!(v.get(2), Value::Null);
        assert_eq!(v.str_at(3), "apple");
        let mut flat = v.clone();
        flat.ensure_flat();
        assert!(flat.enc.is_none());
        for i in 0..4 {
            assert_eq!(flat.get(i), v.get(i));
        }
    }

    #[test]
    fn dict_gathers_stay_coded() {
        let v = Vector::from_dict(vec![2, 0, 1, 0], test_dict(), None);
        let g = v.gather(&SelVec::from_positions(vec![0, 2]));
        assert!(g.is_encoded());
        assert_eq!(g.get(1), Value::Str("kiwi".into()));
        let gi = v.gather_indices(&[3, 3, 0]);
        assert!(gi.is_encoded());
        assert_eq!(gi.get(0), Value::Str("apple".into()));
        assert_eq!(gi.get(2), Value::Str("pear".into()));
        let gp = v.gather_indices_padded(&[1, u32::MAX], u32::MAX);
        assert!(gp.is_encoded());
        assert_eq!(gp.get(0), Value::Str("apple".into()));
        assert_eq!(gp.get(1), Value::Null);
    }

    #[test]
    fn extend_same_dict_stays_coded_mismatch_materializes() {
        let d = test_dict();
        let a = Vector::from_dict(vec![0, 1], d.clone(), None);
        let mut dst = Vector::new(ColData::new(TypeId::Str));
        dst.extend_range(&a, 0, 2); // empty dst adopts the dict
        assert!(dst.is_encoded());
        dst.extend_range(&a, 1, 2); // same Arc → extends codes
        assert!(dst.is_encoded());
        assert_eq!(dst.len(), 3);
        let other = Vector::from_dict(vec![2], test_dict(), None); // different Arc
        dst.extend_range(&other, 0, 1);
        assert!(!dst.is_encoded());
        assert_eq!(
            dst.data,
            ColData::Str(vec!["apple".into(), "kiwi".into(), "kiwi".into(), "pear".into()])
        );
    }

    #[test]
    fn recycled_dict_vector_adopts_new_dict() {
        let mut v = Vector::from_dict(vec![0, 1], test_dict(), Some(vec![false, true]));
        v.clear_keep_capacity();
        assert_eq!(v.len(), 0);
        assert!(v.nulls.is_none());
        let fresh = Arc::new(StrArena::from_strs(["zig"], true));
        let src = Vector::from_dict(vec![0, 0], fresh.clone(), None);
        v.extend_range(&src, 0, 2);
        let (codes, dict) = v.dict_parts().expect("stays coded");
        assert_eq!(codes, &[0, 0]);
        assert!(Arc::ptr_eq(dict, &fresh));
    }

    #[test]
    fn rle_sidecar_drops_on_mutation() {
        let mut v = Vector::new(ColData::I64(vec![7, 7, 7, 9]));
        v.set_rle_runs(vec![(7, 3), (9, 1)]);
        assert_eq!(v.rle_runs(), Some(&[(7i64, 3u32), (9, 1)][..]));
        v.push(&Value::I64(5)).unwrap();
        assert!(v.enc.is_none());
        assert_eq!(v.get(4), Value::I64(5));
    }

    #[test]
    fn dict_extend_gather_sel_and_into_paths() {
        let d = test_dict();
        let src = Vector::from_dict(vec![2, 1, 0, 1], d.clone(), None);
        let mut build = Vector::new(ColData::new(TypeId::Str));
        build.extend_gather_sel(&src, &SelVec::from_positions(vec![0, 3]));
        assert!(build.is_encoded());
        assert_eq!(build.get(0), Value::Str("pear".into()));
        assert_eq!(build.get(1), Value::Str("kiwi".into()));

        let mut dst = Vector::new(ColData::new(TypeId::Str));
        src.gather_indices_into(&[1, 1, 2], &mut dst);
        assert!(dst.is_encoded());
        assert_eq!(dst.len(), 3);
        assert_eq!(dst.get(2), Value::Str("apple".into()));
        src.gather_indices_padded_into(&[0, u32::MAX], u32::MAX, &mut dst);
        assert_eq!(dst.len(), 2);
        assert_eq!(dst.get(0), Value::Str("pear".into()));
        assert_eq!(dst.get(1), Value::Null);
    }
}
