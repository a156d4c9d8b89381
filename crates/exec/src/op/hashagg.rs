//! Vectorized hash aggregation (GROUP BY) over the flat hash table.
//!
//! Build: drain the child into one `AggShard`. A shard owns a private
//! [`GroupTable`] and direct map, contiguous group-key columns and **typed
//! columnar accumulators** (one dense `Vec` per aggregate, indexed by
//! group id, no boxed `Value`s on the hot path); it folds a batch's lanes
//! *by reference*, in two steps that each decide **per vector, not per
//! row**, what loop to run:
//!
//! 1. **Group resolution** is a ladder chosen from what the batch is (see
//!    `AggShard::resolve_groups`): *no keys* — no table, no group-id
//!    vector, every lane is group 0; *one NULL-free flat integer key whose
//!    live values fit a code → group array* — one subtract and one load
//!    per lane (`DirectKeys`, at most 2^20 slots, laid out again from the
//!    stored keys when a batch falls outside it); *every key
//!    dictionary-coded* — one composite code per lane and a code → group
//!    memo held while the key dictionaries are the previous batch's `Arc`s
//!    (`CodeMemo`; a hash + chain probe only per distinct code per pack);
//!    *one NULL-free flat key* — the fused type-monomorphized probe
//!    kernel; *anything else* — hash all lanes, gather chain heads,
//!    confirm keys column by column through a `SelVec`, re-probe the
//!    unmatched. New keys fall to a scalar insert pass that also resolves
//!    batch-internal duplicates and appends each key with a typed push.
//!    Groups live in the stored key columns; the [`GroupTable`] and the
//!    direct map are indexes over them, each synced before it is read, so
//!    a key finds its group whichever rung meets it. The accumulators
//!    grow once per batch to the new group count.
//! 2. **Accumulator update** (`AggState::update_batch`) hoists the three
//!    per-row questions — NULL indicator or not, dense or selected, one
//!    group or one per lane — out of the loop through `for_each_live`
//!    (eight plain loops with the update closure inlined) under
//!    `fold_values` (a one-group batch accumulates on stack copies of
//!    group 0's state: the single-group kernel). `SUM(BIGINT)` adds wrapping and
//!    ORs the overflow bits aside, raising `Overflow("SUM")` once after
//!    the loop; doubles add in lane order, so sums are bit-identical
//!    whichever loop ran.
//!
//! Under the query's memory budget ([`HashAggregate::with_spill`]) the
//! build is the same one shard, charged for its keys, accumulators and
//! direct map. The first time the query is over budget while the shard
//! holds groups, the aggregate **overflows**: the shard's partial state
//! goes through a [`RoutedSpill`] (one spill file per partition of the
//! governor's fan-out) and folding goes on into a fresh shard, which goes
//! the same way whenever the budget is over again. Equal keys hash equal,
//! so the partitions are key-disjoint: at emit time each file is
//! re-aggregated on its own, and the merged partitions are emitted one
//! after the other.
//!
//! Inside an Exchange every worker runs a partial aggregate of its own
//! and a final one merges them above it; the operator itself spawns
//! nothing.
//!
//! Emit: stream groups out in vector-sized batches by slicing the
//! contiguous key vectors and accumulator columns.
//!
//! NULL group keys form their own group (SQL semantics); aggregate inputs
//! skip NULLs (except `COUNT(*)`).

use super::{BoxedOp, Operator};
use crate::cancel::CancelToken;
use crate::hashtable::{self, DirectMap, GroupTable, EMPTY};
use crate::morsel::BatchPool;
use crate::partition::{Charge, SpillConfig};
use crate::profile::OpProfile;
use crate::program::{ExprProgram, VecRef, VectorPool};
use crate::spill::RoutedSpill;
use crate::vector::{Batch, StrArena, Vector};
use std::collections::VecDeque;
use std::sync::Arc;
use vw_common::hash::{hash_bytes, hash_combine, hash_u64};
use vw_common::{ColData, Result, Schema, SelVec, TypeId, VwError};
use vw_storage::SpillFile;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-NULL values.
    Count,
    /// `SUM(expr)` — BIGINT (checked) or DOUBLE.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)` — always DOUBLE.
    Avg,
}

/// One aggregate column specification.
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Compiled input program (`None` only for `COUNT(*)`).
    pub input: Option<ExprProgram>,
    /// Output type (determined by the binder).
    pub out_ty: TypeId,
}

/// Typed columnar accumulators: one dense column per aggregate, indexed by
/// group id. MIN/MAX keep their running value in a [`ColData`] of the
/// output type plus a seen-bitmap — no per-group boxed [`Value`]s.
enum AggState {
    Count(Vec<i64>),
    SumI64 { sums: Vec<i64>, seen: Vec<bool> },
    SumF64 { sums: Vec<f64>, seen: Vec<bool> },
    MinMax { vals: ColData, seen: Vec<bool>, is_min: bool },
    Avg { sums: Vec<f64>, counts: Vec<i64> },
}

impl AggState {
    fn new(spec: &AggSpec) -> Result<AggState> {
        Ok(match spec.func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(Vec::new()),
            AggFunc::Sum => match spec.out_ty {
                TypeId::I64 => AggState::SumI64 { sums: Vec::new(), seen: Vec::new() },
                TypeId::F64 => AggState::SumF64 { sums: Vec::new(), seen: Vec::new() },
                other => {
                    return Err(VwError::Plan(format!(
                        "SUM output must be BIGINT or DOUBLE, got {}",
                        other.sql_name()
                    )))
                }
            },
            AggFunc::Min => {
                AggState::MinMax { vals: ColData::new(spec.out_ty), seen: Vec::new(), is_min: true }
            }
            AggFunc::Max => AggState::MinMax {
                vals: ColData::new(spec.out_ty),
                seen: Vec::new(),
                is_min: false,
            },
            AggFunc::Avg => AggState::Avg { sums: Vec::new(), counts: Vec::new() },
        })
    }

    /// Give every group up to `n` its initial state: one `resize` per
    /// column per batch, however many groups the batch created.
    fn grow(&mut self, n: usize) {
        match self {
            AggState::Count(c) => c.resize(n, 0),
            AggState::SumI64 { sums, seen } => {
                sums.resize(n, 0);
                seen.resize(n, false);
            }
            AggState::SumF64 { sums, seen } => {
                sums.resize(n, 0.0);
                seen.resize(n, false);
            }
            AggState::MinMax { vals, seen, .. } => {
                match vals {
                    ColData::Bool(v) => v.resize(n, false),
                    ColData::I8(v) => v.resize(n, 0),
                    ColData::I16(v) => v.resize(n, 0),
                    ColData::I32(v) | ColData::Date(v) => v.resize(n, 0),
                    ColData::I64(v) => v.resize(n, 0),
                    ColData::F64(v) => v.resize(n, 0.0),
                    ColData::Str(v) => v.resize(n, String::new()),
                }
                seen.resize(n, false);
            }
            AggState::Avg { sums, counts } => {
                sums.resize(n, 0.0);
                counts.resize(n, 0);
            }
        }
    }

    /// Vectorized update: fold the live lanes of `input` into the
    /// accumulators, lane `p` into the group `groups` names for it. NULL
    /// inputs are skipped (`COUNT(*)` has none).
    fn update_batch(
        &mut self,
        func: AggFunc,
        groups: Groups<'_>,
        sel: &SelVec,
        n: usize,
        input: Option<&Vector>,
    ) -> Result<()> {
        let nulls = input.and_then(|v| v.nulls.as_deref());
        match (self, func) {
            (AggState::Count(c), AggFunc::CountStar | AggFunc::Count) => match groups {
                Groups::One if nulls.is_none() => c[0] += sel.len() as i64,
                Groups::One => {
                    let mut live = 0;
                    for_each_live(groups, nulls, sel, n, |_, _| live += 1);
                    c[0] += live;
                }
                Groups::Each(_) => for_each_live(groups, nulls, sel, n, |_, g| c[g] += 1),
            },
            (AggState::SumI64 { sums, seen }, _) => {
                let v = input.expect("SUM has input");
                // Wrapping adds with the overflow bits OR-ed aside, tested
                // once after the loop: the same `Overflow("SUM")` as a
                // per-row `checked_add`, without its per-row branch.
                let mut overflow = false;
                let add = |sum: &mut i64, seen: &mut bool, x: i64| {
                    let (s, o) = sum.overflowing_add(x);
                    (*sum, *seen) = (s, true);
                    overflow |= o;
                };
                let lanes = (groups, nulls, sel, n);
                match &v.data {
                    ColData::I64(d) => fold_values(lanes, sums, seen, |p| Ok(d[p]), add),
                    other => fold_values(lanes, sums, seen, |p| other.get_value(p).as_i64(), add),
                }?;
                if overflow {
                    return Err(VwError::Overflow("SUM"));
                }
            }
            (AggState::SumF64 { sums, seen }, _) => {
                let v = input.expect("SUM has input");
                // Doubles add in lane order, per group: the sum's bits do
                // not depend on which loop variant ran.
                let add = |sum: &mut f64, seen: &mut bool, x: f64| (*sum, *seen) = (*sum + x, true);
                let lanes = (groups, nulls, sel, n);
                match &v.data {
                    ColData::F64(d) => fold_values(lanes, sums, seen, |p| Ok(d[p]), add),
                    other => fold_values(lanes, sums, seen, |p| other.get_value(p).as_f64(), add),
                }?;
            }
            (AggState::MinMax { vals, seen, is_min }, _) => {
                let v = input.expect("MIN/MAX has input");
                minmax_update(vals, seen, *is_min, (groups, nulls, sel, n), v)?;
            }
            (AggState::Avg { sums, counts }, _) => {
                let v = input.expect("AVG has input");
                let add = |sum: &mut f64, count: &mut i64, x: f64| {
                    (*sum, *count) = (*sum + x, *count + 1)
                };
                let lanes = (groups, nulls, sel, n);
                match &v.data {
                    ColData::F64(d) => fold_values(lanes, sums, counts, |p| Ok(d[p]), add),
                    ColData::I64(d) => fold_values(lanes, sums, counts, |p| Ok(d[p] as f64), add),
                    other => fold_values(lanes, sums, counts, |p| other.get_value(p).as_f64(), add),
                }?;
            }
            (_, f) => return Err(VwError::Plan(format!("bad aggregate state for {f:?}"))),
        }
        Ok(())
    }

    /// Emit groups `start..end` as an output vector of type `out_ty`.
    fn finish_range(&self, start: usize, end: usize, out_ty: TypeId) -> Result<Vector> {
        let n = end - start;
        Ok(match self {
            AggState::Count(c) => Vector::new(ColData::I64(c[start..end].to_vec())),
            AggState::SumI64 { sums, seen } => Vector::with_nulls(
                ColData::I64(sums[start..end].to_vec()),
                Some(seen[start..end].iter().map(|&s| !s).collect()),
            ),
            AggState::SumF64 { sums, seen } => Vector::with_nulls(
                ColData::F64(sums[start..end].to_vec()),
                Some(seen[start..end].iter().map(|&s| !s).collect()),
            ),
            AggState::MinMax { vals, seen, .. } => {
                let mut data = ColData::with_capacity(out_ty, n);
                data.extend_from_range(vals, start, end);
                Vector::with_nulls(data, Some(seen[start..end].iter().map(|&s| !s).collect()))
            }
            AggState::Avg { sums, counts } => {
                let mut data = Vec::with_capacity(n);
                let mut nulls = Vec::with_capacity(n);
                for g in start..end {
                    if counts[g] > 0 {
                        data.push(sums[g] / counts[g] as f64);
                        nulls.push(false);
                    } else {
                        data.push(0.0);
                        nulls.push(true);
                    }
                }
                Vector::with_nulls(ColData::F64(data), Some(nulls))
            }
        })
    }
}

impl AggState {
    /// Approximate heap bytes of this accumulator column (memory-governor
    /// charging).
    fn approx_bytes(&self) -> usize {
        match self {
            AggState::Count(c) => c.len() * 8,
            AggState::SumI64 { sums, .. } => sums.len() * 9,
            AggState::SumF64 { sums, .. } => sums.len() * 9,
            AggState::MinMax { vals, seen, .. } => vals.byte_size() + seen.len(),
            AggState::Avg { sums, .. } => sums.len() * 16,
        }
    }

    /// Number of columns this aggregate's *partial state* spills as (only
    /// AVG needs two — its running sum and count are not recoverable from
    /// the divided output value).
    fn state_width(func: AggFunc) -> usize {
        match func {
            AggFunc::Avg => 2,
            _ => 1,
        }
    }

    /// The column types [`AggState::spill_columns`] produces, for decoding
    /// a rehydrated state chunk.
    fn state_types(func: AggFunc, out_ty: TypeId) -> Vec<TypeId> {
        match func {
            AggFunc::CountStar | AggFunc::Count => vec![TypeId::I64],
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => vec![out_ty],
            AggFunc::Avg => vec![TypeId::F64, TypeId::I64],
        }
    }

    /// Serialize groups `start..end` as re-mergeable partial-state
    /// columns. For every function except AVG the partial state *is* the
    /// output column ([`AggState::finish_range`]) with NULL marking
    /// "no input seen yet"; AVG spills its running (sum, count) pair.
    fn spill_columns(&self, start: usize, end: usize, out_ty: TypeId) -> Result<Vec<Vector>> {
        Ok(match self {
            AggState::Avg { sums, counts } => vec![
                Vector::new(ColData::F64(sums[start..end].to_vec())),
                Vector::new(ColData::I64(counts[start..end].to_vec())),
            ],
            other => vec![other.finish_range(start, end, out_ty)?],
        })
    }

    /// Fold rehydrated partial-state columns (produced by
    /// [`AggState::spill_columns`], `n` dense rows routed by `gidx`) into
    /// this accumulator — the grace re-aggregation path. NULL partial
    /// values mean "that chunk never saw an input for this group" and
    /// contribute nothing.
    fn merge_columns(&mut self, gidx: &[u32], all: &SelVec, cols: &[Vector]) -> Result<()> {
        let (groups, n) = (Groups::Each(gidx), all.len());
        match self {
            AggState::Count(c) => {
                let d = cols[0].data.as_i64();
                for_each_live(groups, None, all, n, |p, g| c[g] += d[p]);
            }
            AggState::Avg { sums, counts } => {
                let (ps, pc) = (cols[0].data.as_f64(), cols[1].data.as_i64());
                for_each_live(groups, None, all, n, |p, g| {
                    sums[g] += ps[p];
                    counts[g] += pc[p];
                });
            }
            // A partial SUM / MIN / MAX merges exactly like an input
            // value of the output type.
            other => other.update_batch(AggFunc::Sum, groups, all, n, Some(&cols[0]))?,
        }
        Ok(())
    }
}

/// Where a batch's live lanes fold to.
#[derive(Clone, Copy)]
enum Groups<'a> {
    /// Every lane into group 0 (no grouping keys: no table, no `gidx`).
    One,
    /// Lane `p` into group `gidx[p]`.
    Each(&'a [u32]),
}

/// Call `f(lane, group)` for every live, non-NULL lane of an `n`-lane
/// batch. The per-row decisions of an accumulator loop — is there a NULL
/// indicator, is the selection dense, one group or one per lane — are made
/// here, once per batch: each combination is its own loop with `f`
/// inlined, so a global SUM over a dense NULL-free vector runs
/// `for p in 0..n { acc += d[p] }`.
#[inline(always)]
fn for_each_live(
    groups: Groups<'_>,
    nulls: Option<&[bool]>,
    sel: &SelVec,
    n: usize,
    mut f: impl FnMut(usize, usize),
) {
    // Plain `for` loops, not iterator adaptors: inside an accumulator
    // match the size of `update_batch` an adaptor's generic `fold` is left
    // as a call, and a loop behind a call keeps its state in memory.
    macro_rules! lanes {
        ($group:expr) => {
            // A selection of all `n` lanes is the identity (positions are
            // strictly ascending and below `n`).
            match (nulls, sel.len() == n) {
                (None, true) => {
                    for p in 0..n {
                        f(p, $group(p));
                    }
                }
                (None, false) => {
                    for &p in sel.as_slice() {
                        f(p as usize, $group(p as usize));
                    }
                }
                (Some(m), true) => {
                    for p in 0..n {
                        if !m[p] {
                            f(p, $group(p));
                        }
                    }
                }
                (Some(m), false) => {
                    for &p in sel.as_slice() {
                        if !m[p as usize] {
                            f(p as usize, $group(p as usize));
                        }
                    }
                }
            }
        };
    }
    match groups {
        Groups::One => lanes!(|_| 0usize),
        Groups::Each(gidx) => lanes!(|p: usize| gidx[p] as usize),
    }
}

/// The live lanes of one batch: where they fold to, the input's NULL
/// indicator, the selection, the lane count.
type Lanes<'a> = (Groups<'a>, Option<&'a [bool]>, &'a SelVec, usize);

/// Fold the value `at(lane)` of every live, non-NULL lane into its group's
/// pair of state cells with `step`; the first `at` error, if any, is
/// returned after the loop (the typed kernels' `at` cannot fail, and their
/// error arm compiles away).
///
/// A one-group batch runs on stack copies of group 0's pair, written back
/// afterwards: the two state columns are separate heap buffers the
/// compiler cannot prove distinct, so a loop updating `a[0]` and `b[0]` in
/// place would reload and store both per row; the stack pair stays in
/// registers. This is the single-group kernel — the same closures, local
/// state.
#[inline(always)]
fn fold_values<A: Default, B: Default, X>(
    lanes: Lanes<'_>,
    a: &mut [A],
    b: &mut [B],
    at: impl Fn(usize) -> Result<X>,
    mut step: impl FnMut(&mut A, &mut B, X),
) -> Result<()> {
    // One loop nest per call site, so the one-group site sees its slices
    // are the stack pair.
    #[inline(always)]
    fn run<A, B, X>(
        (groups, nulls, sel, n): Lanes<'_>,
        a: &mut [A],
        b: &mut [B],
        at: &impl Fn(usize) -> Result<X>,
        step: &mut impl FnMut(&mut A, &mut B, X),
    ) -> Result<()> {
        let mut bad = None;
        for_each_live(groups, nulls, sel, n, |p, g| match at(p) {
            Ok(x) => step(&mut a[g], &mut b[g], x),
            Err(e) => {
                bad.get_or_insert(e);
            }
        });
        bad.map_or(Ok(()), Err)
    }
    match lanes.0 {
        Groups::Each(_) => run(lanes, a, b, &at, &mut step),
        Groups::One => {
            let (mut a0, mut b0) = ([std::mem::take(&mut a[0])], [std::mem::take(&mut b[0])]);
            let res = run(lanes, &mut a0, &mut b0, &at, &mut step);
            let ([a0], [b0]) = (a0, b0);
            (a[0], b[0]) = (a0, b0);
            res
        }
    }
}

/// Typed MIN/MAX fold. Same-variant input updates through a tight per-type
/// loop; mismatched variants go through the `Value` slow path with SQL
/// comparison semantics (the old behaviour).
fn minmax_update(
    vals: &mut ColData,
    seen: &mut [bool],
    is_min: bool,
    lanes: Lanes<'_>,
    v: &Vector,
) -> Result<()> {
    macro_rules! typed {
        ($acc:expr, $d:expr, $better:expr) => {{
            let d = $d;
            #[allow(clippy::redundant_closure_call)]
            fold_values(
                lanes,
                $acc,
                seen,
                |p| Ok(&d[p]),
                |acc, seen, x| {
                    if !*seen || $better(x, &*acc) {
                        acc.clone_from(x);
                        *seen = true;
                    }
                },
            )
        }};
    }
    macro_rules! ord_typed {
        ($acc:expr, $d:expr) => {
            if is_min {
                typed!($acc, $d, |x, y| x < y)
            } else {
                typed!($acc, $d, |x, y| x > y)
            }
        };
    }
    match (vals, &v.data) {
        (ColData::Bool(acc), ColData::Bool(d)) => ord_typed!(acc, d),
        (ColData::I8(acc), ColData::I8(d)) => ord_typed!(acc, d),
        (ColData::I16(acc), ColData::I16(d)) => ord_typed!(acc, d),
        (ColData::I32(acc), ColData::I32(d)) => ord_typed!(acc, d),
        (ColData::I64(acc), ColData::I64(d)) => ord_typed!(acc, d),
        (ColData::Date(acc), ColData::Date(d)) => ord_typed!(acc, d),
        // Strings are read where they lie; a group's best is copied into
        // its accumulator's buffer only when it improves.
        (ColData::Str(acc), ColData::Str(_)) => {
            let d = v.str_lanes();
            fold_values(
                lanes,
                acc,
                seen,
                |p| Ok(d.get(p)),
                |acc, seen, x| {
                    if !*seen || (if is_min { x < acc.as_str() } else { x > acc.as_str() }) {
                        acc.clear();
                        acc.push_str(x);
                        *seen = true;
                    }
                },
            )
        }
        // total_cmp matches `Value::sql_cmp` for doubles (NaN sorts last).
        (ColData::F64(acc), ColData::F64(d)) => {
            if is_min {
                typed!(acc, d, |x: &f64, y: &f64| x.total_cmp(y).is_lt())
            } else {
                typed!(acc, d, |x: &f64, y: &f64| x.total_cmp(y).is_gt())
            }
        }
        (vals, _) => {
            // Mixed types: compare via Value (cross-type numeric widening).
            let (groups, nulls, sel, n) = lanes;
            let mut bad = None;
            for_each_live(groups, nulls, sel, n, |p, g| {
                let x = v.get(p);
                let better = !seen[g]
                    || match vals.get_value(g).sql_cmp(&x) {
                        None => true,
                        Some(o) if is_min => o == std::cmp::Ordering::Greater,
                        Some(o) => o == std::cmp::Ordering::Less,
                    };
                if better {
                    match vals.set_value(g, &x) {
                        Ok(()) => seen[g] = true,
                        Err(e) => {
                            bad.get_or_insert(e);
                        }
                    }
                }
            });
            bad.map_or(Ok(()), Err)
        }
    }
}

/// The group-key columns of the batch being folded, resolved one by one
/// from wherever they live — no per-batch `Vec<&Vector>`.
#[derive(Clone, Copy)]
enum Keys<'a> {
    /// Key-program results of the driver's current batch.
    Leased { refs: &'a [VecRef], pool: &'a VectorPool, batch: &'a Batch },
    /// A rehydrated chunk's own vectors.
    Owned(&'a [Vector]),
}

impl<'a> Keys<'a> {
    fn len(self) -> usize {
        match self {
            Keys::Leased { refs, .. } => refs.len(),
            Keys::Owned(vecs) => vecs.len(),
        }
    }

    fn get(self, j: usize) -> &'a Vector {
        match self {
            Keys::Leased { refs, pool, batch } => pool.get(batch, refs[j]),
            Keys::Owned(vecs) => &vecs[j],
        }
    }

    fn iter(self) -> impl Iterator<Item = &'a Vector> + Clone {
        (0..self.len()).map(move |j| self.get(j))
    }
}

/// Largest key span the direct rung indexes: 2^20 group ids, 4 MiB,
/// allocated zeroed so only the pages its groups touch cost memory.
/// Wider live ranges take the hashing rungs.
const DIRECT_SPAN_MAX: usize = 1 << 20;

/// The direct rung's state: `map[key − base]` is the group of integer
/// key `key`, for every group below `synced` whose key lies in
/// `[base, base + map.len())`. Groups another rung created since are
/// added before the next lookup, like the table's lazy sync.
#[derive(Default)]
struct DirectKeys {
    base: i64,
    map: DirectMap,
    synced: usize,
    /// Rows seen since the map was last laid out onto a batch's range
    /// alone. That reads every group key for a map that may cover few of
    /// them, so it waits until as many rows have passed as there are
    /// groups: a key range that wanders costs O(1) a row.
    credit: usize,
}

impl DirectKeys {
    /// Offset of key `x` in the map, exact for a key in the map's range
    /// (see [`DirectKeys::covers`]); out of it the subtraction wraps.
    #[inline(always)]
    fn offset(&self, x: i64) -> usize {
        (x as u64).wrapping_sub(self.base as u64) as usize
    }

    /// Whether `[lo, hi]` lies inside the map's range, compared without
    /// wrapping: a range reaching past `i64::MAX` must not take in
    /// `i64::MIN`.
    fn covers(&self, lo: i64, hi: i64) -> bool {
        let base = self.base as i128;
        lo as i128 >= base && (hi as i128) < base + self.map.len() as i128
    }

    /// Whether a batch of `lanes` live keys spanning `[lo, hi]` resolves
    /// through the map over the stored keys `stored`/`nulls` (one column,
    /// one row per group). A batch outside the map's range lays the map
    /// out again, centred over twice the span of the old range and the
    /// batch's: at once, since the map at least doubles up to
    /// [`DIRECT_SPAN_MAX`] and these re-layouts together cost O(its final
    /// length) — keys that spread, as a final aggregate's partials do with
    /// one row per group, stay direct. When that union is over the cap
    /// the map is laid out over the batch's span alone once the credit
    /// allows, which bounds what a drifting range costs. A batch that no
    /// span within the cap covers drops the map.
    fn cover<T: Copy + Into<i64>>(
        &mut self,
        lo: i64,
        hi: i64,
        lanes: usize,
        stored: &[T],
        nulls: Option<&[bool]>,
    ) -> bool {
        self.credit += lanes;
        if !self.covers(lo, hi) {
            const MAX: i128 = DIRECT_SPAN_MAX as i128;
            let (mut lo, mut hi, mut grows) = (lo as i128, hi as i128, false);
            if !self.map.is_empty() {
                let (base, end) = (self.base as i128, self.base as i128 + self.map.len() as i128);
                grows = hi.max(end - 1) - lo.min(base) < MAX;
                if grows {
                    (lo, hi) = (lo.min(base), hi.max(end - 1));
                }
            }
            let span = hi - lo + 1;
            if span > MAX {
                self.map = DirectMap::default();
                return false;
            }
            if !grows && self.credit < stored.len() {
                return false;
            }
            let len = (2 * span).min(MAX);
            self.base = (lo - (len - span) / 2).max(i64::MIN as i128) as i64;
            self.map.reset(len as usize);
            self.synced = 0;
            self.credit = 0;
        }
        for g in self.synced..stored.len() {
            let key = stored[g].into();
            if self.covers(key, key) && !nulls.is_some_and(|m| m[g]) {
                self.map.set(self.offset(key), g as u32);
            }
        }
        self.synced = stored.len();
        true
    }
}

/// Largest composite code domain the dict-key rung memoises (64 KiB of
/// group ids, reset at every dictionary change — about a pack's worth of
/// rows, so a reset never costs more than the rows it serves). Wider key
/// combinations take the general path.
const MEMO_DOMAIN_MAX: usize = 1 << 14;

/// The dict-key rung's state. With every key dictionary-coded a lane's key
/// is one *composite code* — `Σ codeⱼ · Πᵢ₍ᵢ<ⱼ₎ (|dictᵢ| + 1)`, NULL being
/// the extra code `|dictⱼ|` of its column — and `groups` maps it to the
/// group id. The memo stays valid while the key dictionaries are the very
/// `Arc`s it was built over (a pack's 16 vectors share them), and it holds
/// those `Arc`s: pointer equality then means "the same dictionary", not
/// "an allocation that sits where a freed one did".
#[derive(Default)]
struct CodeMemo {
    dicts: Vec<Arc<StrArena>>,
    /// Group per composite code; empty = not resolved since the
    /// dictionaries last changed.
    groups: DirectMap,
    /// Composite code per lane of the current batch.
    codes: Vec<u32>,
}

impl CodeMemo {
    /// Point the memo at `keys`' dictionaries: kept when they are the
    /// previous batch's, reset when they changed. `false` when a key is not
    /// dict-coded or the composite domain is over [`MEMO_DOMAIN_MAX`] —
    /// this rung does not apply.
    fn attach(&mut self, keys: Keys<'_>) -> bool {
        fn dict_of(k: &Vector) -> Option<&Arc<StrArena>> {
            k.dict_parts().map(|(_, d)| d)
        }
        let same = self.dicts.len() == keys.len()
            && keys
                .iter()
                .zip(&self.dicts)
                .all(|(k, d)| dict_of(k).is_some_and(|kd| Arc::ptr_eq(kd, d)));
        if same {
            return true;
        }
        let mut domain = 1usize;
        for k in keys.iter() {
            let Some(d) = dict_of(k) else { return false };
            domain = domain.saturating_mul(d.len() + 1);
        }
        if domain > MEMO_DOMAIN_MAX {
            return false;
        }
        self.dicts.clear();
        self.dicts.extend(keys.iter().filter_map(|k| dict_of(k).cloned()));
        self.groups.reset(domain);
        true
    }
}

/// Each key column's dictionary entry in composite code `code` over
/// `dicts` (`None` = NULL), in column order.
fn code_entries(dicts: &[Arc<StrArena>], code: usize) -> impl Iterator<Item = Option<&str>> + '_ {
    let mut rest = code;
    dicts.iter().map(move |d| {
        let c = rest % (d.len() + 1);
        rest /= d.len() + 1;
        d.get(c)
    })
}

/// A shard's probe scratch, reused across batches.
#[derive(Default)]
struct AggScratch {
    lanes: Vec<u64>,
    hashes: Vec<u64>,
    cand: Vec<u32>,
    /// The identity selection of a rehydrated chunk.
    dense: SelVec,
    active: SelVec,
    next_active: SelVec,
    matched: SelVec,
    tmp: SelVec,
    /// Resolved group id per lane (EMPTY = not yet resolved).
    gidx: Vec<u32>,
    /// The direct rung's key → group map.
    direct: DirectKeys,
    /// The dict-key rung's composite code → group memo.
    memo: CodeMemo,
    /// Rows resolved through the memo instead of per-row hash+probe
    /// (drained into `OpProfile::enc_skipped`).
    enc_skipped: u64,
    /// Staged-probe buffers for the fused fast path.
    buf: hashtable::ProbeBuf,
}

/// What the build holds: a private table + accumulators over its groups —
/// all of them, or those of one spilled partition being re-aggregated. A
/// finished shard is what the operator emits from.
struct AggShard {
    funcs: Vec<AggFunc>,
    out_tys: Vec<TypeId>,
    table: GroupTable,
    group_keys: Vec<Vector>,
    states: Vec<AggState>,
    n_groups: usize,
    scratch: AggScratch,
    /// Group count and direct-map bytes at the last
    /// [`AggShard::grown_bytes`] computation.
    sized: (usize, usize),
}

impl AggShard {
    /// An empty shard for this grouping / aggregate layout.
    fn new(group_exprs: &[ExprProgram], aggs: &[AggSpec]) -> Result<AggShard> {
        Ok(AggShard {
            funcs: aggs.iter().map(|a| a.func).collect(),
            out_tys: aggs.iter().map(|a| a.out_ty).collect(),
            table: GroupTable::new(),
            group_keys: group_exprs
                .iter()
                .map(|e| Vector::new(ColData::new(e.type_id())))
                .collect(),
            states: aggs.iter().map(AggState::new).collect::<Result<_>>()?,
            n_groups: 0,
            scratch: AggScratch::default(),
            sized: (usize::MAX, 0),
        })
    }

    /// Fold the `sel` lanes of one `n`-lane batch, in place: resolve each
    /// lane's key to a group, then update every accumulator from
    /// `input(i)` (aggregate `i`'s input vector; `None` for `COUNT(*)`).
    /// With no keys there is nothing to resolve: every lane is group 0 and
    /// the accumulators run their one-group kernels.
    fn fold<'a>(
        &mut self,
        keys: Keys<'_>,
        sel: &SelVec,
        n: usize,
        input: impl Fn(usize) -> Option<&'a Vector>,
    ) -> Result<()> {
        let groups = if keys.len() == 0 {
            self.ensure_global_group();
            Groups::One
        } else {
            self.resolve_groups(keys, sel, n)?;
            self.grow_states();
            Groups::Each(&self.scratch.gidx)
        };
        for (i, state) in self.states.iter_mut().enumerate() {
            state.update_batch(self.funcs[i], groups, sel, n, input(i))?;
        }
        Ok(())
    }

    /// A global aggregate's one group (it exists even over zero rows:
    /// COUNT over nothing is 0 — the initial state).
    fn ensure_global_group(&mut self) {
        if self.n_groups == 0 {
            self.n_groups = 1;
            self.grow_states();
        }
    }

    /// Give the groups resolution created this batch their initial
    /// accumulator state.
    fn grow_states(&mut self) {
        let n = self.n_groups;
        self.states.iter_mut().for_each(|s| s.grow(n));
    }

    /// Approximate heap bytes of this shard's group keys, accumulators and
    /// direct map (the memory governor's charging unit) — but only when
    /// the shard gained groups or re-laid its map since the last call: the
    /// walk is O(groups) for string keys, and fixed-width state grows only
    /// with the group count (string MIN/MAX drift in between is bounded by
    /// the value sizes and corrected at the next growth or eviction).
    fn grown_bytes(&mut self) -> Option<usize> {
        let map = self.scratch.direct.map.bytes();
        if (self.n_groups, map) == self.sized {
            return None;
        }
        self.sized = (self.n_groups, map);
        Some(
            self.group_keys.iter().map(|v| v.byte_size()).sum::<usize>()
                + self.states.iter().map(|s| s.approx_bytes()).sum::<usize>()
                + map,
        )
    }

    /// Write this shard's groups through `spill` as re-mergeable partial
    /// state (key columns then flattened state columns), routed by their
    /// key hashes. The groups stay — the caller replaces the shard with a
    /// fresh one.
    fn spill_state(&mut self, spill: &mut RoutedSpill) -> Result<()> {
        let n = self.n_groups;
        let mut state_vecs: Vec<Vector> = Vec::new();
        for (st, &ty) in self.states.iter().zip(&self.out_tys) {
            state_vecs.extend(st.spill_columns(0, n, ty)?);
        }
        let s = &mut self.scratch;
        hashtable::hash_keys(&self.group_keys, n, true, &mut s.lanes, &mut s.hashes);
        let cols: Vec<&Vector> = self.group_keys.iter().chain(&state_vecs).collect();
        spill.push(&cols, &s.hashes, None)
    }

    /// Fold one rehydrated partial-state chunk into this shard: resolve
    /// the chunk's keys to (existing or fresh) groups, then merge each
    /// aggregate's partial columns — the grace re-aggregation path.
    fn merge_chunk(&mut self, keys: &[Vector], state_cols: &[Vector]) -> Result<()> {
        let n = keys.first().map_or(0, |k| k.len());
        if n == 0 {
            return Ok(());
        }
        let mut all = std::mem::take(&mut self.scratch.dense);
        all.fill_identity(n);
        self.resolve_groups(Keys::Owned(keys), &all, n)?;
        self.grow_states();
        let mut off = 0;
        for (st, &func) in self.states.iter_mut().zip(&self.funcs) {
            let w = AggState::state_width(func);
            st.merge_columns(&self.scratch.gidx, &all, &state_cols[off..off + w])?;
            off += w;
        }
        self.scratch.dense = all;
        Ok(())
    }

    /// The build is over: move this shard's encoding-level count into
    /// `profile` and free its probe structures; the groups stay for
    /// emission.
    fn retire(&mut self, profile: &mut OpProfile) {
        profile.enc_skipped += self.scratch.enc_skipped;
        self.table = GroupTable::new();
        self.scratch = AggScratch::default();
    }
}

/// The driver's per-batch scratch: program results and the live
/// selection.
#[derive(Default)]
struct BatchScratch {
    /// Group-key program results for the current batch (pool refs).
    refs: Vec<VecRef>,
    /// Aggregate-input program results for the current batch.
    agg_refs: Vec<Option<VecRef>>,
    live: SelVec,
}

/// Hash GROUP BY operator.
pub struct HashAggregate {
    /// The input (taken when the build runs, on the first `next`).
    input: Option<BoxedOp>,
    group_exprs: Vec<ExprProgram>,
    aggs: Vec<AggSpec>,
    schema: Schema,
    pool: VectorPool,
    cancel: CancelToken,
    vector_size: usize,
    /// Finished shards, emitted front to back: the build's one, or the
    /// re-aggregated partitions of one spill file.
    out_shards: VecDeque<AggShard>,
    emit_pos: usize,
    scratch: BatchScratch,
    batch_pool: Option<BatchPool>,
    /// Memory-governed spilling, when configured
    /// ([`HashAggregate::with_spill`]).
    spill: Option<SpillConfig>,
    /// An overflowed build's partial-state files, one per partition,
    /// re-aggregated lazily at emit time (one partition's merged groups in
    /// memory at a time).
    pending: Vec<SpillFile>,
    profile: OpProfile,
}

impl HashAggregate {
    /// Aggregate `input` by `group_exprs` computing `aggs`. `schema` covers
    /// group columns followed by aggregate outputs.
    pub fn new(
        input: BoxedOp,
        group_exprs: Vec<ExprProgram>,
        aggs: Vec<AggSpec>,
        schema: Schema,
        vector_size: usize,
        cancel: CancelToken,
    ) -> Result<HashAggregate> {
        // Reject an unsupported aggregate layout now, not at first `next`.
        AggShard::new(&group_exprs, &aggs)?;
        Ok(HashAggregate {
            input: Some(input),
            group_exprs,
            aggs,
            schema,
            pool: VectorPool::new(),
            cancel,
            vector_size,
            out_shards: VecDeque::new(),
            emit_pos: 0,
            scratch: BatchScratch::default(),
            batch_pool: None,
            spill: None,
            pending: Vec::new(),
            profile: OpProfile::default(),
        })
    }

    /// Join the pipeline's batch free-list: input batches are recycled
    /// once their lanes are folded into the accumulators (the aggregate is
    /// a pipeline breaker, so its own outputs exit the loop).
    pub fn with_batch_pool(mut self, pool: BatchPool) -> HashAggregate {
        self.batch_pool = Some(pool);
        self
    }

    /// Attach the query's memory governor: the build is the same one
    /// shard, charging `cfg.budget` as groups accumulate. Whenever the
    /// query is over budget while the shard holds groups, its partial
    /// aggregation state (group keys + re-mergeable accumulator columns)
    /// goes to disk through a routed spill on `cfg`'s stratum and
    /// fan-out, and the build folds on into a fresh shard; the spilled
    /// partitions are re-aggregated by merging their partial-state chunks
    /// at emit time, re-partitioning on the next hash-bit stratum when a
    /// partition still exceeds the budget. Global aggregates (no group
    /// keys) ignore the governor — their state is one group.
    pub fn with_spill(mut self, cfg: SpillConfig) -> HashAggregate {
        self.profile.spill = Some(cfg.metrics.clone());
        self.spill = Some(cfg);
        self
    }

    /// The decoded column types of one spilled partial-state chunk: group
    /// keys, then each aggregate's state columns.
    fn chunk_types(&self) -> Vec<TypeId> {
        let mut t: Vec<TypeId> = self.group_exprs.iter().map(|e| e.type_id()).collect();
        for a in &self.aggs {
            t.extend(AggState::state_types(a.func, a.out_ty));
        }
        t
    }

    /// Re-aggregate one spilled partition: merge its partial-state chunks
    /// into a fresh shard — or, if the file looks bigger than the budget
    /// and `split` (the next stratum) is not past the floor, re-partition
    /// the chunks through a routed spill on it and recurse. Equal keys
    /// hash equal, so every level's partitions stay key-disjoint and the
    /// merged outputs emit without any cross-partition pass.
    fn reaggregate(
        &mut self,
        file: SpillFile,
        split: Option<SpillConfig>,
    ) -> Result<Vec<AggShard>> {
        let types = self.chunk_types();
        let n_keys = self.group_exprs.len();
        let cfg = self.spill.clone().expect("only a governed aggregate spills");
        // The encoded size underestimates the decoded state (compression),
        // but partial states also over-count the merged result (a key in k
        // chunks merges to one group) — a workable victim of a heuristic.
        // Past the depth floor (recursion cap or hash bits exhausted for
        // this fan-out) the partition merges in memory regardless.
        let split = split.filter(|_| file.bytes_written() as usize > cfg.budget.limit());
        let Some(split) = split else {
            let mut shard = AggShard::new(&self.group_exprs, &self.aggs)?;
            for i in 0..file.n_chunks() {
                self.cancel.check()?;
                let (vecs, nbytes) = crate::spill::read_vectors(&file, i, &types)?;
                cfg.metrics.record_read(nbytes as u64);
                shard.merge_chunk(&vecs[..n_keys], &vecs[n_keys..])?;
            }
            shard.retire(&mut self.profile);
            return Ok(vec![shard]);
        };
        // Too big to merge at once: split every chunk's state rows by the
        // next stratum's radix bits and recurse per sub-partition.
        let mut routed = RoutedSpill::new(&split);
        let (mut lanes, mut hashes) = (Vec::new(), Vec::new());
        for i in 0..file.n_chunks() {
            self.cancel.check()?;
            let (vecs, nbytes) = crate::spill::read_vectors(&file, i, &types)?;
            cfg.metrics.record_read(nbytes as u64);
            let rows = vecs.first().map_or(0, |v| v.len());
            hashtable::hash_keys(&vecs[..n_keys], rows, true, &mut lanes, &mut hashes);
            routed.push(&vecs, &hashes, None)?;
            routed.flush_if_over()?;
        }
        let subs = routed.finish()?;
        drop(file); // this stratum's blocks are free before recursing
        let mut outs = Vec::new();
        for sub in subs.into_iter().flatten() {
            outs.extend(self.reaggregate(sub, split.deeper())?);
        }
        Ok(outs)
    }

    fn build(&mut self, mut input: BoxedOp) -> Result<()> {
        // One group cannot partition: a global aggregate is never
        // governed.
        let grouped = !self.group_exprs.is_empty();
        let spill = self.spill.clone().filter(|_| grouped);
        let (group_exprs, aggs) = (&self.group_exprs, &self.aggs);
        let mut shard = AggShard::new(group_exprs, aggs)?;
        let mut charge = spill.as_ref().map(|cfg| Charge::new(cfg.budget.clone()));
        // Where the partial states go once the build overflowed.
        let mut routed: Option<RoutedSpill> = None;
        while let Some(batch) = input.next()? {
            self.cancel.check()?;
            self.profile.record_enc_batch(&batch);
            // Run the compiled group-key and aggregate-input programs;
            // results stay leased in the pool for the rest of the batch.
            self.scratch.refs.clear();
            for prog in group_exprs {
                let r = prog.run(&mut self.pool, &batch)?;
                self.scratch.refs.push(r);
            }
            self.scratch.agg_refs.clear();
            for a in aggs {
                let r = match &a.input {
                    Some(prog) => Some(prog.run(&mut self.pool, &batch)?),
                    None => None,
                };
                self.scratch.agg_refs.push(r);
            }
            {
                let n = batch.capacity();
                let BatchScratch { refs, agg_refs, live } = &mut self.scratch;
                let keys = Keys::Leased { refs, pool: &self.pool, batch: &batch };
                match &batch.sel {
                    Some(sel) => live.clear_and_extend_from_slice(sel.as_slice()),
                    None => live.fill_identity(n),
                }
                let vectors = &self.pool;
                let input_of = |i: usize| agg_refs[i].map(|r| vectors.get(&batch, r));
                if !live.is_empty() {
                    shard.fold(keys, live, n, input_of)?;
                }
            }
            self.pool.recycle();
            if let Some(bp) = &self.batch_pool {
                bp.recycle(batch); // lanes folded: batch goes back
            }
            let (Some(cfg), Some(charge)) = (&spill, &mut charge) else { continue };
            if let Some(bytes) = shard.grown_bytes() {
                charge.set(bytes);
            }
            // Over budget with groups resident: the shard's partial state
            // goes out routed, and the build folds on into a fresh shard.
            if cfg.budget.over() && shard.n_groups > 0 {
                let out = routed.get_or_insert_with(|| RoutedSpill::new(cfg));
                shard.spill_state(out)?;
                let mut spilled = std::mem::replace(&mut shard, AggShard::new(group_exprs, aggs)?);
                spilled.retire(&mut self.profile);
                charge.set(0);
                out.flush_if_over()?;
            }
        }
        shard.retire(&mut self.profile);
        match routed {
            None => {
                // Global aggregation over zero rows still yields one
                // group (COUNT over nothing is 0 — the initial state).
                if !grouped {
                    shard.ensure_global_group();
                }
                self.out_shards.push_back(shard);
            }
            // Overflowed: what is left goes the same way, and the files
            // wait for lazy re-aggregation at emit time — one merged
            // partition in memory at a time.
            Some(mut out) => {
                if shard.n_groups > 0 {
                    shard.spill_state(&mut out)?;
                }
                self.pending = out.finish()?.into_iter().flatten().collect();
            }
        }
        Ok(())
    }
}

impl AggShard {
    /// Resolve every `sel` lane's key (at least one key column) to a group
    /// id in `scratch.gidx`, creating groups for unseen keys (the caller
    /// then grows the accumulators to `n_groups`).
    ///
    /// A ladder, chosen per batch from what the batch is (the rung above
    /// it, no keys at all, never gets here — see [`AggShard::fold`]):
    ///
    /// 1. **one NULL-free, flat integer-like key whose live values fit the
    ///    direct map** ([`DirectKeys`]): one subtract and one load per
    ///    lane, no hash;
    /// 2. **every key dictionary-coded** (composite domain within
    ///    [`MEMO_DOMAIN_MAX`]): one composite code per lane, one memo
    ///    lookup per lane, one hash + chain probe per *distinct* code per
    ///    dictionary set ([`CodeMemo`]);
    /// 3. **one NULL-free, flat (not dict-coded) key column**: the fused,
    ///    type-monomorphized kernel — hash, chain walk and key compare in
    ///    one staged pass;
    /// 4. **anything else**: hash all lanes, gather candidates, confirm
    ///    keys column by column through selection vectors.
    ///
    /// Groups live in `group_keys`; the table and the direct map are
    /// indexes over them, each synced before it is read (the table under
    /// `hash_keys`' scheme), so a key's group is the same whichever rung
    /// meets it — batches may change rung mid-stream.
    fn resolve_groups(&mut self, keys: Keys<'_>, sel: &SelVec, n: usize) -> Result<()> {
        let AggShard { table, group_keys, n_groups, scratch: s, .. } = self;
        if s.gidx.len() < n {
            s.gidx.resize(n, EMPTY);
        }
        let key = keys.get(0);
        if keys.len() == 1 && key.nulls.is_none() && key.dict_parts().is_none() {
            let (direct, gidx) = (&mut s.direct, &mut s.gidx[..]);
            let Vector { data, nulls, .. } = &mut group_keys[0];
            macro_rules! direct {
                ($($v:ident),*) => {
                    match (&key.data, data) {
                        $((ColData::$v(d), ColData::$v(stored)) => {
                            resolve_direct(d, sel, n, stored, nulls, direct, n_groups, gidx)
                        })*
                        _ => false,
                    }
                };
            }
            if direct!(I64, I32, Date, I16, I8, Bool) {
                return Ok(());
            }
        }
        // Every rung below reads the table: it must know every group.
        table.sync(group_keys);
        if s.memo.attach(keys) {
            let CodeMemo { dicts, groups, codes } = &mut s.memo;
            if codes.len() < n {
                codes.resize(n, 0);
            }
            // One composite code per lane, a column at a time.
            let mut stride = 1u32;
            for (j, (k, dict)) in keys.iter().zip(dicts.iter()).enumerate() {
                let (col, _) = k.dict_parts().expect("attach saw every key dict-coded");
                let (null_code, nulls) = (dict.len() as u32, k.nulls.as_deref());
                for_each_live(
                    Groups::One,
                    None,
                    sel,
                    n,
                    #[inline(always)]
                    |p, _| {
                        let c = if nulls.is_some_and(|m| m[p]) { null_code } else { col[p] };
                        codes[p] = if j == 0 { c } else { codes[p] + c * stride };
                    },
                );
                stride *= null_code + 1;
            }
            // A code's first lane since the dictionaries changed finds or
            // creates its group; every other lane is a memo lookup.
            let (mut probes, mut bad) = (0u64, None);
            for_each_live(
                Groups::One,
                None,
                sel,
                n,
                #[inline(always)]
                |p, _| {
                    let code = codes[p] as usize;
                    let g = match groups.get(code) {
                        Some(g) => g,
                        None => {
                            probes += 1;
                            match group_of_code(dicts, code, table, group_keys, n_groups) {
                                Ok(g) => {
                                    groups.set(code, g);
                                    g
                                }
                                Err(e) => {
                                    bad.get_or_insert(e);
                                    EMPTY
                                }
                            }
                        }
                    };
                    s.gidx[p] = g;
                },
            );
            s.enc_skipped += (sel.len() as u64).saturating_sub(probes);
            return bad.map_or(Ok(()), Err);
        }
        // A dict-coded key that `attach` turned away (domain over the memo
        // bound) has no flat `data` for the fused kernel to read: it takes
        // the general path, which reads codes through the dictionary.
        if keys.len() == 1
            && key.nulls.is_none()
            && key.dict_parts().is_none()
            && group_keys[0].nulls.is_none()
        {
            let n = key.len();
            let dense = sel.len() == n;
            macro_rules! fused {
                ($pa:expr, $ba:expr, $hash:expr, $eq:expr) => {{
                    let (pa, ba) = ($pa, $ba);
                    #[allow(clippy::redundant_closure_call)]
                    table.probe_groups(
                        n,
                        (!dense).then_some(sel),
                        |p| $hash(&pa[p]),
                        |p, row| $eq(&pa[p], &ba[row as usize]),
                        &mut s.gidx,
                        &mut s.buf,
                    )
                }};
            }
            let mut fused_ran = true;
            hashtable::dispatch_typed_keys!(&key.data, &group_keys[0].data, fused, {
                fused_ran = false;
            });
            if fused_ran {
                let lane_hash = |p| s.buf.lane_hash(p);
                return insert_misses(
                    table,
                    group_keys,
                    n_groups,
                    &mut s.gidx,
                    keys,
                    sel,
                    lane_hash,
                );
            }
        }
        // General path: hash all lanes (NULL keys hash to the NULL-group
        // sentinel), then find existing groups for all lanes at once.
        hashtable::hash_keys(keys.iter(), n, true, &mut s.lanes, &mut s.hashes);
        let hashes = &s.hashes[..];
        for p in sel.iter() {
            s.gidx[p] = EMPTY;
        }
        // Vectorized pass: find existing groups for all lanes at once.
        // `gather_matching` skips hash-mismatching chain entries inline, so
        // every active lane holds a candidate needing only key confirmation.
        table.gather_matching(hashes, sel, &mut s.cand, &mut s.active);
        while !s.active.is_empty() {
            hashtable::keys_match_sel(
                keys.iter(),
                group_keys,
                &s.cand,
                &s.active,
                &mut s.tmp,
                &mut s.matched,
                true, // grouping: NULL keys compare equal
            );
            for p in s.matched.iter() {
                s.gidx[p] = s.cand[p];
            }
            // Resolved lanes stop walking; the rest advance down the chain.
            let gidx = &s.gidx;
            s.active.retain_from(|p| gidx[p] == EMPTY, &mut s.tmp);
            table.advance_matching(hashes, &s.tmp, &mut s.cand, &mut s.next_active);
            std::mem::swap(&mut s.active, &mut s.next_active);
        }
        insert_misses(table, group_keys, n_groups, &mut s.gidx, keys, sel, |p| hashes[p])
    }
}

/// The direct rung over one NULL-free integer key `d`: when the live
/// lanes' range is one the map covers ([`DirectKeys::cover`]), every lane
/// resolves with one subtract and one load, and a key the map has not
/// seen becomes the next group — a typed push onto the stored key column,
/// no hash (the table catches up when a hashing rung next reads it).
/// `false` when the rung does not apply; nothing was resolved then.
#[allow(clippy::too_many_arguments)]
fn resolve_direct<T: Copy + Into<i64>>(
    d: &[T],
    sel: &SelVec,
    n: usize,
    stored: &mut Vec<T>,
    nulls: &mut Option<Vec<bool>>,
    direct: &mut DirectKeys,
    n_groups: &mut usize,
    gidx: &mut [u32],
) -> bool {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for_each_live(Groups::One, None, sel, n, |p, _| {
        let x: i64 = d[p].into();
        (lo, hi) = (lo.min(x), hi.max(x));
    });
    if sel.is_empty() || !direct.cover(lo, hi, sel.len(), stored, nulls.as_deref()) {
        return false;
    }
    let mut next = *n_groups as u32;
    for_each_live(
        Groups::One,
        None,
        sel,
        n,
        #[inline(always)]
        |p, _| {
            let code = direct.offset(d[p].into());
            gidx[p] = match direct.map.get(code) {
                Some(g) => g,
                None => {
                    direct.map.set(code, next);
                    stored.push(d[p]);
                    next += 1;
                    next - 1
                }
            };
        },
    );
    *n_groups = next as usize;
    direct.synced = *n_groups;
    if let Some(m) = nulls {
        m.resize(*n_groups, false);
    }
    true
}

/// Find or create the group of composite code `code` — a tuple of
/// dictionary entries and NULLs. The tuple hashes exactly as `hash_keys`
/// hashes the inflated row, so its group is the one a flat-keyed batch, or
/// a batch over another dictionary, resolves the same key to. Runs once
/// per distinct code per dictionary set; kept out of line so the per-lane
/// memo lookup around it stays a few instructions and inlines.
#[cold]
#[inline(never)]
fn group_of_code(
    dicts: &[Arc<StrArena>],
    code: usize,
    table: &mut GroupTable,
    group_keys: &mut [Vector],
    n_groups: &mut usize,
) -> Result<u32> {
    let lane = |e: Option<&str>| e.map_or(hashtable::NULL_KEY_LANE, |v| hash_bytes(v.as_bytes()));
    let mut entries = code_entries(dicts, code);
    let first = hash_u64(lane(entries.next().expect("at least one key column")));
    let h = entries.fold(first, |h, e| hash_combine(h, lane(e)));
    let found = table.find_chain(h, |row| {
        let row = row as usize;
        code_entries(dicts, code).zip(group_keys.iter()).all(|(e, gk)| match e {
            None => gk.is_null(row),
            Some(val) => !gk.is_null(row) && gk.data.as_str()[row] == val,
        })
    });
    if let Some(g) = found {
        return Ok(g);
    }
    for (e, gk) in code_entries(dicts, code).zip(group_keys.iter_mut()) {
        push_key(gk, e.is_none(), |data| match (data, e) {
            (ColData::Str(d), Some(v)) => {
                d.push(v.to_owned());
                Some(())
            }
            _ => None,
        })?;
    }
    Ok(new_group(table, h, n_groups))
}

/// Register the next group id under hash `h` (the caller pushed its key
/// values; the accumulators grow once the batch is resolved).
fn new_group(table: &mut GroupTable, h: u64, n_groups: &mut usize) -> u32 {
    let g = table.insert(h);
    debug_assert_eq!(g as usize, *n_groups);
    *n_groups += 1;
    g
}

/// Append one key value to the stored, always flat, key column `gk`:
/// NULL as the type's safe default under the indicator, anything else
/// through `push`, a typed push that returns `None` for a value of
/// another type than the column's (a mixed-type plan key).
fn push_key(
    gk: &mut Vector,
    null: bool,
    push: impl FnOnce(&mut ColData) -> Option<()>,
) -> Result<()> {
    if null {
        gk.data.push_safe_default();
    } else if push(&mut gk.data).is_none() {
        return Err(VwError::Exec(format!(
            "cannot append a group key to a {} key column",
            gk.type_id().sql_name()
        )));
    }
    let rows = gk.data.len();
    match &mut gk.nulls {
        Some(m) => m.push(null),
        None if null => gk.nulls = Some((0..rows).map(|r| r + 1 == rows).collect()),
        None => {}
    }
    Ok(())
}

/// Push lane `p` of key column `k` (flat or dict-coded) onto `data`, if
/// both are of one type.
fn push_lane(data: &mut ColData, k: &Vector, p: usize) -> Option<()> {
    match (data, &k.data) {
        (ColData::Str(d), _) if k.type_id() == TypeId::Str => d.push(k.str_at(p).to_owned()),
        (ColData::Bool(d), ColData::Bool(s)) => d.push(s[p]),
        (ColData::I8(d), ColData::I8(s)) => d.push(s[p]),
        (ColData::I16(d), ColData::I16(s)) => d.push(s[p]),
        (ColData::I32(d), ColData::I32(s)) | (ColData::Date(d), ColData::Date(s)) => d.push(s[p]),
        (ColData::I64(d), ColData::I64(s)) => d.push(s[p]),
        (ColData::F64(d), ColData::F64(s)) => d.push(s[p]),
        _ => return None,
    }
    Some(())
}

/// Scalar leftover pass: unseen keys become new groups. Walking the
/// chain again here also catches duplicates introduced earlier in this
/// very batch (lane A inserts key K, lane B then finds it). `lane_hash`
/// reads a lane's hash from wherever the vectorized pass left it (the
/// fused kernel's staging buffer or the hash vector).
fn insert_misses(
    table: &mut GroupTable,
    group_keys: &mut [Vector],
    n_groups: &mut usize,
    gidx: &mut [u32],
    keys: Keys<'_>,
    sel: &SelVec,
    lane_hash: impl Fn(usize) -> u64,
) -> Result<()> {
    for p in sel.iter() {
        if gidx[p] != EMPTY {
            continue;
        }
        let h = lane_hash(p);
        let found = table.find_chain(h, |row| keys_equal_row(keys, p, group_keys, row as usize));
        gidx[p] = match found {
            Some(row) => row,
            None => {
                for (gk, k) in group_keys.iter_mut().zip(keys.iter()) {
                    push_key(gk, k.is_null(p), |data| push_lane(data, k, p))?;
                }
                new_group(table, h, n_groups)
            }
        };
    }
    Ok(())
}

/// Scalar key comparison for the new-group insert path (grouping
/// semantics: NULL equals NULL). Probe keys may be dict-coded (their flat
/// data is the empty placeholder), so string columns compare through the
/// encoding-aware `str_at`; stored group keys are always flat. Columns of
/// two different types never match (`Value`'s structural equality).
fn keys_equal_row(probe: Keys<'_>, p: usize, stored: &[Vector], row: usize) -> bool {
    probe.iter().zip(stored).all(|(pk, sk)| match (pk.is_null(p), sk.is_null(row)) {
        (true, true) => true,
        (false, false) => match (&pk.data, &sk.data) {
            (_, ColData::Str(s)) if pk.type_id() == TypeId::Str => pk.str_at(p) == s[row],
            (ColData::Bool(a), ColData::Bool(b)) => a[p] == b[row],
            (ColData::I8(a), ColData::I8(b)) => a[p] == b[row],
            (ColData::I16(a), ColData::I16(b)) => a[p] == b[row],
            (ColData::I32(a), ColData::I32(b)) | (ColData::Date(a), ColData::Date(b)) => {
                a[p] == b[row]
            }
            (ColData::I64(a), ColData::I64(b)) => a[p] == b[row],
            (ColData::F64(a), ColData::F64(b)) => a[p].to_bits() == b[row].to_bits(),
            _ => false,
        },
        _ => false,
    })
}

impl Operator for HashAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "HashAggr"
    }

    fn profile(&self) -> Option<&OpProfile> {
        Some(&self.profile)
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        self.cancel.check()?;
        if let Some(input) = self.input.take() {
            self.build(input)?;
        }
        // Emit the finished shards (the build's one, when it never
        // overflowed), slicing each shard's contiguous key columns and
        // accumulators into vector-sized batches. When they run dry,
        // spilled partitions re-aggregate lazily, one file at a time, so
        // only one merged partition's groups sit in memory at once.
        loop {
            match self.out_shards.front() {
                Some(shard) if self.emit_pos < shard.n_groups => break,
                // Fully drained: free this shard's keys and accumulators
                // now, so the governed emit phase really does hold only
                // one partition's groups at a time (rather than silently
                // re-accumulating the whole unbounded state).
                Some(_) => {
                    self.out_shards.pop_front();
                    self.emit_pos = 0;
                }
                None => {
                    let Some(file) = self.pending.pop() else {
                        return Ok(None);
                    };
                    let split = self.spill.as_ref().and_then(SpillConfig::deeper);
                    let outs = self.reaggregate(file, split)?;
                    self.out_shards.extend(outs);
                }
            }
        }
        let shard = &self.out_shards[0];
        let end = (self.emit_pos + self.vector_size).min(shard.n_groups);
        let mut columns: Vec<Vector> = Vec::with_capacity(self.schema.len());
        for gk in &shard.group_keys {
            // Slice the contiguous key column — no per-value Value boxing.
            let mut v = Vector::new(ColData::with_capacity(gk.type_id(), end - self.emit_pos));
            v.extend_range(gk, self.emit_pos, end);
            columns.push(v);
        }
        for (spec, st) in self.aggs.iter().zip(&shard.states) {
            columns.push(st.finish_range(self.emit_pos, end, spec.out_ty)?);
        }
        self.emit_pos = end;
        Ok(Some(Batch::new(columns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::PhysExpr;
    use crate::op::drain;
    use crate::op::simple::Values;
    use vw_common::{Field, Value};

    fn schema2() -> Schema {
        Schema::new(vec![Field::nullable("k", TypeId::Str), Field::nullable("v", TypeId::I64)])
            .unwrap()
    }

    fn source(rows: Vec<(Option<&str>, Option<i64>)>) -> BoxedOp {
        let rows = rows
            .into_iter()
            .map(|(k, v)| {
                vec![
                    k.map_or(Value::Null, |s| Value::Str(s.into())),
                    v.map_or(Value::Null, Value::I64),
                ]
            })
            .collect();
        Box::new(Values::new(schema2(), rows, 3, CancelToken::new()))
    }

    fn agg(src: BoxedOp, group: bool, specs: Vec<AggSpec>, out: Vec<Field>) -> HashAggregate {
        let group_exprs = if group {
            vec![ExprProgram::compile(&PhysExpr::ColRef(0, TypeId::Str))]
        } else {
            vec![]
        };
        HashAggregate::new(
            src,
            group_exprs,
            specs,
            Schema::unchecked(out),
            1024,
            CancelToken::new(),
        )
        .unwrap()
    }

    fn col_v() -> Option<ExprProgram> {
        Some(ExprProgram::compile(&PhysExpr::ColRef(1, TypeId::I64)))
    }

    #[test]
    fn grouped_sum_count() {
        let src = source(vec![
            (Some("a"), Some(1)),
            (Some("b"), Some(10)),
            (Some("a"), Some(2)),
            (Some("b"), None),
            (Some("a"), Some(3)),
        ]);
        let mut op = agg(
            src,
            true,
            vec![
                AggSpec { func: AggFunc::Sum, input: col_v(), out_ty: TypeId::I64 },
                AggSpec { func: AggFunc::Count, input: col_v(), out_ty: TypeId::I64 },
                AggSpec { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 },
            ],
            vec![
                Field::nullable("k", TypeId::Str),
                Field::nullable("sum", TypeId::I64),
                Field::not_null("cnt", TypeId::I64),
                Field::not_null("cntstar", TypeId::I64),
            ],
        );
        let out = drain(&mut op).unwrap();
        assert_eq!(out.rows(), 2);
        let mut rows: Vec<Vec<Value>> = (0..2).map(|i| out.row_values(i)).collect();
        rows.sort_by_key(|r| r[0].to_string());
        assert_eq!(
            rows[0],
            vec![Value::Str("a".into()), Value::I64(6), Value::I64(3), Value::I64(3)]
        );
        assert_eq!(
            rows[1],
            vec![Value::Str("b".into()), Value::I64(10), Value::I64(1), Value::I64(2)]
        );
    }

    #[test]
    fn null_keys_group_together() {
        let src = source(vec![(None, Some(1)), (None, Some(2)), (Some("x"), Some(3))]);
        let mut op = agg(
            src,
            true,
            vec![AggSpec { func: AggFunc::Sum, input: col_v(), out_ty: TypeId::I64 }],
            vec![Field::nullable("k", TypeId::Str), Field::nullable("sum", TypeId::I64)],
        );
        let out = drain(&mut op).unwrap();
        assert_eq!(out.rows(), 2);
        let null_group = (0..2).map(|i| out.row_values(i)).find(|r| r[0].is_null()).unwrap();
        assert_eq!(null_group[1], Value::I64(3));
    }

    #[test]
    fn empty_string_key_distinct_from_null_key() {
        // The NULL group's stored safe default is "" — a real "" key must
        // still form its own group.
        let src = source(vec![(None, Some(1)), (Some(""), Some(10)), (None, Some(2))]);
        let mut op = agg(
            src,
            true,
            vec![AggSpec { func: AggFunc::Sum, input: col_v(), out_ty: TypeId::I64 }],
            vec![Field::nullable("k", TypeId::Str), Field::nullable("sum", TypeId::I64)],
        );
        let out = drain(&mut op).unwrap();
        assert_eq!(out.rows(), 2);
        let rows: Vec<Vec<Value>> = (0..2).map(|i| out.row_values(i)).collect();
        let null_group = rows.iter().find(|r| r[0].is_null()).unwrap();
        let empty_group = rows.iter().find(|r| !r[0].is_null()).unwrap();
        assert_eq!(null_group[1], Value::I64(3));
        assert_eq!(empty_group[0], Value::Str(String::new()));
        assert_eq!(empty_group[1], Value::I64(10));
    }

    #[test]
    fn global_agg_on_empty_input_yields_one_row() {
        let src = source(vec![]);
        let mut op = agg(
            src,
            false,
            vec![
                AggSpec { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 },
                AggSpec { func: AggFunc::Sum, input: col_v(), out_ty: TypeId::I64 },
                AggSpec { func: AggFunc::Avg, input: col_v(), out_ty: TypeId::F64 },
            ],
            vec![
                Field::not_null("cnt", TypeId::I64),
                Field::nullable("sum", TypeId::I64),
                Field::nullable("avg", TypeId::F64),
            ],
        );
        let out = drain(&mut op).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row_values(0), vec![Value::I64(0), Value::Null, Value::Null]);
    }

    #[test]
    fn min_max_avg() {
        let src = source(vec![
            (Some("g"), Some(5)),
            (Some("g"), Some(-3)),
            (Some("g"), None),
            (Some("g"), Some(10)),
        ]);
        let mut op = agg(
            src,
            true,
            vec![
                AggSpec { func: AggFunc::Min, input: col_v(), out_ty: TypeId::I64 },
                AggSpec { func: AggFunc::Max, input: col_v(), out_ty: TypeId::I64 },
                AggSpec { func: AggFunc::Avg, input: col_v(), out_ty: TypeId::F64 },
            ],
            vec![
                Field::nullable("k", TypeId::Str),
                Field::nullable("min", TypeId::I64),
                Field::nullable("max", TypeId::I64),
                Field::nullable("avg", TypeId::F64),
            ],
        );
        let out = drain(&mut op).unwrap();
        assert_eq!(
            out.row_values(0),
            vec![Value::Str("g".into()), Value::I64(-3), Value::I64(10), Value::F64(4.0)]
        );
    }

    #[test]
    fn min_max_all_null_inputs_yield_null() {
        let src = source(vec![(Some("g"), None), (Some("g"), None)]);
        let mut op = agg(
            src,
            true,
            vec![
                AggSpec { func: AggFunc::Min, input: col_v(), out_ty: TypeId::I64 },
                AggSpec { func: AggFunc::Max, input: col_v(), out_ty: TypeId::I64 },
            ],
            vec![
                Field::nullable("k", TypeId::Str),
                Field::nullable("min", TypeId::I64),
                Field::nullable("max", TypeId::I64),
            ],
        );
        let out = drain(&mut op).unwrap();
        assert_eq!(out.row_values(0), vec![Value::Str("g".into()), Value::Null, Value::Null]);
    }

    #[test]
    fn sum_overflow_detected() {
        let src = source(vec![(Some("g"), Some(i64::MAX)), (Some("g"), Some(1))]);
        let mut op = agg(
            src,
            true,
            vec![AggSpec { func: AggFunc::Sum, input: col_v(), out_ty: TypeId::I64 }],
            vec![Field::nullable("k", TypeId::Str), Field::nullable("sum", TypeId::I64)],
        );
        assert!(matches!(op.next(), Err(VwError::Overflow(_))));
    }

    #[test]
    fn duplicate_new_keys_within_one_batch_merge() {
        // Batch size 3 → first batch introduces "a" twice; both lanes must
        // resolve to one group.
        let src = source(vec![
            (Some("a"), Some(1)),
            (Some("a"), Some(2)),
            (Some("b"), Some(4)),
            (Some("a"), Some(8)),
        ]);
        let mut op = agg(
            src,
            true,
            vec![AggSpec { func: AggFunc::Sum, input: col_v(), out_ty: TypeId::I64 }],
            vec![Field::nullable("k", TypeId::Str), Field::nullable("sum", TypeId::I64)],
        );
        let out = drain(&mut op).unwrap();
        assert_eq!(out.rows(), 2);
        let mut rows: Vec<Vec<Value>> = (0..2).map(|i| out.row_values(i)).collect();
        rows.sort_by_key(|r| r[0].to_string());
        assert_eq!(rows[0], vec![Value::Str("a".into()), Value::I64(11)]);
        assert_eq!(rows[1], vec![Value::Str("b".into()), Value::I64(4)]);
    }

    #[test]
    fn agg_profile_reports_input_batches() {
        let src = source(vec![
            (Some("a"), Some(1)),
            (Some("b"), Some(2)),
            (Some("a"), Some(3)),
            (Some("b"), Some(4)),
            (Some("a"), Some(5)),
        ]);
        let mut op = agg(
            src,
            true,
            vec![AggSpec { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 }],
            vec![Field::nullable("k", TypeId::Str), Field::not_null("c", TypeId::I64)],
        );
        assert_eq!(drain(&mut op).unwrap().rows(), 2);
        let p = Operator::profile(&op).unwrap();
        assert!(p.flat_batches > 0 && p.enc_batches == 0, "{p:?}");
    }

    #[test]
    fn an_integer_key_indexes_its_groups_directly_and_the_table_catches_up() {
        let key_prog = || ExprProgram::compile(&PhysExpr::ColRef(0, TypeId::I64));
        let count = || AggSpec { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 };
        let mut shard = AggShard::new(&[key_prog()], &[count()]).unwrap();
        let fold = |shard: &mut AggShard, keys: Vec<i64>| {
            let n = keys.len();
            let keys = [Vector::new(ColData::I64(keys))];
            shard.fold(Keys::Owned(&keys), &SelVec::identity(n), n, |_| None).unwrap();
            shard.scratch.gidx[..n].to_vec()
        };
        // Inside the span: groups in first-seen order, none hashed.
        assert_eq!(fold(&mut shard, vec![5, 3, 5, 9]), [0, 1, 0, 2]);
        assert_eq!((shard.n_groups, shard.table.len()), (3, 0));
        // The governor is charged for the map with the keys and counts.
        let map = shard.scratch.direct.map.bytes();
        assert!(map > 0);
        assert_eq!(shard.grown_bytes(), Some(3 * 8 + 3 * 8 + map));
        // Over the span cap: the fused rung, after the table caught up.
        let far = i64::MAX - 1;
        assert_eq!(fold(&mut shard, vec![9, far, 3, 4]), [2, 3, 1, 4]);
        assert_eq!((shard.n_groups, shard.table.len()), (5, 5));
        assert!(shard.scratch.direct.map.is_empty(), "a batch over the cap drops the map");
        // Inside it again: the map is laid out over every group so far.
        assert_eq!(fold(&mut shard, vec![4, 6, 5]), [4, 5, 0]);
        assert_eq!((shard.n_groups, shard.table.len()), (6, 5));
        let Some(AggState::Count(c)) = shard.states.first() else { panic!() };
        assert_eq!(c, &[3, 2, 2, 1, 2, 1]);

        // A final aggregate's input: one row per key, from two partials
        // that took alternate 64-key morsels and emit 32-row batches in
        // ascending key order, interleaved. Every lane goes direct.
        let mut shard = AggShard::new(&[key_prog()], &[count()]).unwrap();
        for k in 0..32 {
            for partial in [0, 64] {
                let first = k / 2 * 128 + partial + k % 2 * 32;
                fold(&mut shard, (first..first + 32).collect());
            }
        }
        assert_eq!((shard.n_groups, shard.table.len()), (2048, 0));
    }

    // Every build configuration (resident, and overflowed under a tight
    // budget) × aggregate × key shape is checked against the volcano
    // engine in
    // `tests/sql_semantics.rs::build_mode_matrix`.

    #[test]
    fn grace_spill_reaggregates_many_groups_with_recursion() {
        use crate::partition::{MemBudget, SpillConfig};
        use vw_storage::SimulatedDisk;
        // 2500 distinct keys, each seen twice, under a budget several
        // times smaller than the state: partitions spill repeatedly and
        // the partial states (including AVG's sum/count pair) must merge
        // back to exact results.
        let n = 5000;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Str(format!("k{}", i % 2500)), Value::I64((i % 7) as i64)])
            .collect();
        let mk = || -> BoxedOp {
            Box::new(Values::new(schema2(), rows.clone(), 512, CancelToken::new()))
        };
        let specs = || {
            vec![
                AggSpec { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 },
                AggSpec { func: AggFunc::Sum, input: col_v(), out_ty: TypeId::I64 },
                AggSpec { func: AggFunc::Avg, input: col_v(), out_ty: TypeId::F64 },
            ]
        };
        let fields = || {
            vec![
                Field::nullable("k", TypeId::Str),
                Field::not_null("cnt", TypeId::I64),
                Field::nullable("sum", TypeId::I64),
                Field::nullable("avg", TypeId::F64),
            ]
        };
        let sort = |out: &Batch| {
            let mut v: Vec<Vec<Value>> = (0..out.rows()).map(|i| out.row_values(i)).collect();
            v.sort_by_key(|r| format!("{r:?}"));
            v
        };
        let mut serial = agg(mk(), true, specs(), fields());
        let expect = sort(&drain(&mut serial).unwrap());
        assert_eq!(expect.len(), 2500);
        let disk = SimulatedDisk::instant();
        let tracker = MemBudget::new(8 * 1024); // state is ~100KB ⇒ ≥10× over
        let cfg = SpillConfig::new(tracker.clone(), disk.clone(), 4);
        let metrics = cfg.metrics.clone();
        let mut op = agg(mk(), true, specs(), fields()).with_spill(cfg);
        let got = sort(&drain(&mut op).unwrap());
        assert_eq!(got, expect, "re-aggregated groups diverged");
        use std::sync::atomic::Ordering;
        assert!(metrics.files.load(Ordering::Relaxed) >= 4, "all partitions spilled");
        drop(op);
        assert_eq!(tracker.used(), 0);
        assert_eq!(disk.used_bytes(), 0, "all spill (and re-partition) blocks reclaimed");
    }

    #[test]
    fn grace_spill_ignored_for_global_aggregates() {
        use crate::partition::{MemBudget, SpillConfig};
        use vw_storage::SimulatedDisk;
        let src = source(vec![(Some("x"), Some(4)), (Some("y"), Some(6))]);
        let cfg = SpillConfig::new(MemBudget::new(1), SimulatedDisk::instant(), 4);
        let metrics = cfg.metrics.clone();
        let mut op = agg(
            src,
            false,
            vec![AggSpec { func: AggFunc::Sum, input: col_v(), out_ty: TypeId::I64 }],
            vec![Field::nullable("sum", TypeId::I64)],
        )
        .with_spill(cfg);
        let out = drain(&mut op).unwrap();
        assert_eq!(out.row_values(0)[0], Value::I64(10));
        assert_eq!(metrics.files.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn many_groups_stream_in_vector_sized_batches() {
        let rows: Vec<(Option<String>, Option<i64>)> =
            (0..5000).map(|i| (Some(format!("k{}", i % 2500)), Some(1))).collect();
        let rows = rows
            .into_iter()
            .map(|(k, v)| {
                vec![k.map_or(Value::Null, Value::Str), v.map_or(Value::Null, Value::I64)]
            })
            .collect();
        let src: BoxedOp = Box::new(Values::new(schema2(), rows, 512, CancelToken::new()));
        let mut op = HashAggregate::new(
            src,
            vec![ExprProgram::compile(&PhysExpr::ColRef(0, TypeId::Str))],
            vec![AggSpec { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 }],
            Schema::unchecked(vec![
                Field::nullable("k", TypeId::Str),
                Field::not_null("c", TypeId::I64),
            ]),
            1000,
            CancelToken::new(),
        )
        .unwrap();
        let mut batches = 0;
        let mut total = 0;
        while let Some(b) = op.next().unwrap() {
            batches += 1;
            total += b.rows();
            for i in 0..b.rows() {
                assert_eq!(b.row_values(i)[1], Value::I64(2));
            }
        }
        assert_eq!(total, 2500);
        assert_eq!(batches, 3);
    }
}
