//! Table statistics: row counts, distinct estimates and equi-depth
//! histograms.
//!
//! The paper keeps Ingres' "solid, histogram-based query estimation" rather
//! than writing a new optimizer. This module provides the equivalent
//! statistics substrate: per-column equi-depth histograms built at load
//! time, with the selectivity estimators the optimizer calls.

use vw_common::{ColData, TypeId, Value};

/// An equi-depth histogram over a numeric-comparable column.
///
/// `bounds` holds `k+1` boundary values delimiting `k` buckets of (roughly)
/// equal row counts. Values are projected to `f64` for bucket arithmetic
/// (dates via day number, strings via a 8-byte prefix projection).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket boundaries, ascending, length = buckets + 1.
    pub bounds: Vec<f64>,
    /// Rows represented (excluding NULLs).
    pub total: u64,
}

/// Project a value onto the histogram domain.
pub fn project(v: &Value) -> Option<f64> {
    Some(match v {
        Value::Null => return None,
        Value::Bool(b) => *b as u8 as f64,
        Value::I8(x) => *x as f64,
        Value::I16(x) => *x as f64,
        Value::I32(x) => *x as f64,
        Value::I64(x) => *x as f64,
        Value::F64(x) => *x,
        Value::Date(d) => d.0 as f64,
        Value::Str(s) => project_str(s),
    })
}

/// Order-preserving 8-byte prefix projection of a string: strings that
/// share their first 8 bytes project equal.
pub fn project_str(s: &str) -> f64 {
    let mut acc = 0.0f64;
    for (i, b) in s.bytes().take(8).enumerate() {
        acc += (b as f64) * 256f64.powi(6 - i as i32);
    }
    acc
}

impl Histogram {
    /// Build an equi-depth histogram with up to `buckets` buckets from
    /// sampled projections, sorted by `f64::total_cmp`.
    pub fn build(sorted: &[f64], buckets: usize, total: u64) -> Option<Histogram> {
        if sorted.is_empty() || buckets == 0 {
            return None;
        }
        debug_assert!(sorted.is_sorted_by(|a, b| a.total_cmp(b).is_le()));
        let k = buckets.min(sorted.len());
        let bounds = (0..=k).map(|i| sorted[(i * (sorted.len() - 1)) / k]).collect();
        // Duplicate boundaries are kept on purpose: for skewed data several
        // equal-depth buckets collapse onto one value, and that multiplicity
        // is exactly what encodes the skew.
        Some(Histogram { bounds, total })
    }

    /// Estimated selectivity of `column < x` (fraction in \[0,1\]).
    pub fn sel_lt(&self, x: f64) -> f64 {
        let k = (self.bounds.len() - 1) as f64;
        if x <= self.bounds[0] {
            return 0.0;
        }
        // Infallible: `build` only constructs a Histogram with >= 2 bounds.
        if x > *self.bounds.last().unwrap() {
            return 1.0;
        }
        // Each bucket holds 1/k of the rows; sum full buckets below x and
        // interpolate inside the bucket containing x. Zero-width buckets
        // (duplicate boundaries) count as full when below x.
        let mut acc = 0.0;
        for w in self.bounds.windows(2) {
            let (b0, b1) = (w[0], w[1]);
            if b1 < x {
                acc += 1.0;
            } else if b0 < x {
                acc += if b1 > b0 { (x - b0) / (b1 - b0) } else { 1.0 };
                break;
            } else {
                break;
            }
        }
        (acc / k).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of `lo <= column <= hi`.
    pub fn sel_range(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let a = lo.map_or(0.0, |v| self.sel_lt(v));
        let b = hi.map_or(1.0, |v| self.sel_lt(v));
        (b - a).clamp(0.0, 1.0)
    }
}

/// Statistics of one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Column type.
    pub ty: TypeId,
    /// Distinct projections (see [`project`]) among the sampled rows, at
    /// least 1. Every row is sampled below `2 × SAMPLE_LIMIT` rows, where
    /// this is exact; above that it is a lower bound. It is not scaled up
    /// to the table.
    pub n_distinct: u64,
    /// NULL count.
    pub null_count: u64,
    /// Histogram over non-NULL values, if buildable.
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Estimated selectivity of an equality predicate `column = const`.
    pub fn sel_eq(&self) -> f64 {
        if self.n_distinct == 0 {
            return 0.0;
        }
        1.0 / self.n_distinct as f64
    }
}

/// Statistics of a whole table.
///
/// Built at bulk load and at CHECKPOINT (the only points where the full
/// stable column image is in hand); UPDATE/DELETE mark the snapshot
/// [stale](TableStats::stale) instead of rebuilding, and the cost model
/// falls back to structural defaults until the next rebuild clears it.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Row count.
    pub n_rows: u64,
    /// Per-column stats, schema order.
    pub columns: Vec<ColumnStats>,
    /// `true` after DML has mutated the table since these statistics were
    /// built: distinct counts and histograms may describe deleted or
    /// overwritten rows, so estimators must not trust them. Cleared by
    /// [`TableStats::build`] (CHECKPOINT / bulk load rebuild stats).
    pub stale: bool,
}

/// Maximum values sampled per column when building statistics.
const SAMPLE_LIMIT: usize = 64 * 1024;

/// Every `step`-th row of `values`: the projections of the non-NULL ones,
/// sorted by `f64::total_cmp`, and the count of NULL ones.
fn sample<T>(
    values: &[T],
    nulls: Option<&[bool]>,
    step: usize,
    project: impl Fn(&T) -> f64,
) -> (Vec<f64>, u64) {
    let mut samples = Vec::with_capacity(values.len().min(SAMPLE_LIMIT));
    let mut null_count = 0u64;
    for (i, v) in values.iter().enumerate().step_by(step) {
        if nulls.is_some_and(|m| m[i]) {
            null_count += 1;
        } else {
            samples.push(project(v));
        }
    }
    samples.sort_unstable_by(f64::total_cmp);
    (samples, null_count)
}

impl TableStats {
    /// Build statistics from full-column data (the bulk-load and
    /// CHECKPOINT path). A column is sampled at a stride that keeps at
    /// most about `SAMPLE_LIMIT` rows; the samples are sorted once, and
    /// both the distinct count and the histogram read them in order.
    pub fn build(columns: &[ColData], nulls: &[Option<Vec<bool>>], buckets: usize) -> TableStats {
        let n_rows = columns.first().map_or(0, |c| c.len()) as u64;
        let cols = columns
            .iter()
            .zip(nulls)
            .map(|(col, mask)| {
                let step = (col.len() / SAMPLE_LIMIT).max(1);
                let mask = mask.as_deref();
                let (samples, null_count) = match col {
                    ColData::Bool(v) => sample(v, mask, step, |&b| b as u8 as f64),
                    ColData::I8(v) => sample(v, mask, step, |&x| x as f64),
                    ColData::I16(v) => sample(v, mask, step, |&x| x as f64),
                    ColData::I32(v) | ColData::Date(v) => sample(v, mask, step, |&x| x as f64),
                    ColData::I64(v) => sample(v, mask, step, |&x| x as f64),
                    ColData::F64(v) => sample(v, mask, step, |&x| x),
                    ColData::Str(v) => sample(v, mask, step, |s| project_str(s)),
                };
                // `total_cmp` is equal exactly when the bits are: equal
                // projections are neighbours.
                let changes = samples.windows(2).filter(|w| w[0].to_bits() != w[1].to_bits());
                let n_distinct = changes.count() as u64 + 1;
                let null_count = null_count * step as u64;
                // Saturating: with every sample NULL there is no histogram,
                // and the scaled NULL count may pass the row count.
                let total = n_rows.saturating_sub(null_count);
                ColumnStats {
                    ty: col.type_id(),
                    n_distinct,
                    null_count,
                    histogram: Histogram::build(&samples, buckets, total),
                }
            })
            .collect();
        TableStats { n_rows, columns: cols, stale: false }
    }

    /// Empty-table statistics with the right arity.
    pub fn empty(types: &[TypeId]) -> TableStats {
        TableStats {
            n_rows: 0,
            columns: types
                .iter()
                .map(|&ty| ColumnStats { ty, n_distinct: 0, null_count: 0, histogram: None })
                .collect(),
            stale: false,
        }
    }

    /// Mark the snapshot stale after DML (UPDATE/DELETE): the distinct
    /// counts and histograms may now describe dead rows, so the planner
    /// must stop consuming them until the next rebuild.
    pub fn mark_stale(&mut self) {
        self.stale = true;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The builder this module had before it sampled typed slices: a
    /// `Value` per sampled row, a set of projection bits, a histogram that
    /// sorts its samples. Kept as the oracle. Its set was an `FxHashSet`,
    /// which puts whole-number doubles in one probe chain; a `BTreeSet`
    /// counts the same and keeps this test fast. Its total subtracted
    /// wrapping, as a release build does: that value is only kept when
    /// some sample is not NULL, and then it cannot wrap.
    fn build_reference(
        columns: &[ColData],
        nulls: &[Option<Vec<bool>>],
        buckets: usize,
    ) -> TableStats {
        let n_rows = columns.first().map_or(0, |c| c.len()) as u64;
        let cols = columns
            .iter()
            .zip(nulls)
            .map(|(col, mask)| {
                let n = col.len();
                let step = (n / SAMPLE_LIMIT).max(1);
                let mut distinct: BTreeSet<u64> = BTreeSet::new();
                let mut samples = Vec::with_capacity(n.min(SAMPLE_LIMIT));
                let mut null_count = 0u64;
                for i in (0..n).step_by(step) {
                    if mask.as_ref().is_some_and(|m| m[i]) {
                        null_count += 1;
                        continue;
                    }
                    let v = col.get_value(i);
                    if let Some(p) = project(&v) {
                        distinct.insert(p.to_bits());
                        samples.push(p);
                    }
                }
                let scale = step as u64;
                let n_distinct = (distinct.len() as u64).max(1);
                samples.sort_by(|a, b| a.total_cmp(b));
                let total = n_rows.wrapping_sub(null_count * scale);
                let histogram = Histogram::build(&samples, buckets, total);
                ColumnStats {
                    ty: col.type_id(),
                    n_distinct,
                    null_count: null_count * scale,
                    histogram,
                }
            })
            .collect();
        TableStats { n_rows, columns: cols, stale: false }
    }

    fn assert_same_stats(got: &TableStats, want: &TableStats, what: &str) {
        assert_eq!(got.n_rows, want.n_rows, "{what}");
        assert_eq!(got.stale, want.stale, "{what}");
        assert_eq!(got.columns.len(), want.columns.len(), "{what}");
        for (g, w) in got.columns.iter().zip(&want.columns) {
            let what = format!("{what} {}", g.ty);
            assert_eq!(g.ty, w.ty, "{what}");
            assert_eq!(g.n_distinct, w.n_distinct, "{what}");
            assert_eq!(g.null_count, w.null_count, "{what}");
            let bits = |h: &Option<Histogram>| {
                h.as_ref()
                    .map(|h| (h.bounds.iter().map(|b| b.to_bits()).collect::<Vec<_>>(), h.total))
            };
            assert_eq!(bits(&g.histogram), bits(&w.histogram), "{what}");
        }
    }

    /// One column of every type, `n` rows: signed zeros, NaNs and
    /// infinities among the doubles, integers past 2^53, strings sharing
    /// an 8-byte prefix, non-ASCII and empty strings.
    pub(crate) fn every_type(n: usize, next: &mut impl FnMut() -> u64) -> Vec<ColData> {
        let doubles =
            [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, 1e300];
        let strings = ["", "a", "prefix__", "prefix__a", "prefix__b", "é", "日本語", "Zz"];
        let mut cols: Vec<ColData> =
            TypeId::ALL.iter().map(|&ty| ColData::with_capacity(ty, n)).collect();
        for _ in 0..n {
            for col in &mut cols {
                let r = next();
                // Half the rows from a few thousand whole values, the rest
                // from the special values or anywhere.
                let (whole, small, pick) =
                    (r.is_multiple_of(2), (r >> 8) % 3000, (r >> 3) as usize % 8);
                match col {
                    ColData::Bool(v) => v.push(r & 1 == 1),
                    ColData::I8(v) => v.push((r >> 3) as i8),
                    ColData::I16(v) => v.push(if whole { small as i16 } else { (r >> 5) as i16 }),
                    ColData::I32(v) | ColData::Date(v) => {
                        v.push(if whole { small as i32 } else { (r >> 5) as i32 })
                    }
                    ColData::I64(v) => v.push(match r % 4 {
                        0 | 1 => small as i64,
                        2 => (1 << 53) + (r >> 4) as i64 % 5,
                        _ => (r >> 1) as i64,
                    }),
                    ColData::F64(v) => v.push(match r % 4 {
                        0 | 1 => small as f64,
                        2 => doubles[pick],
                        _ => f64::from_bits(r),
                    }),
                    ColData::Str(v) => v.push(if whole {
                        strings[pick].to_string()
                    } else {
                        format!("{}{small}", strings[pick])
                    }),
                }
            }
        }
        cols
    }

    #[test]
    fn equidepth_uniform() {
        let samples: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let h = Histogram::build(&samples, 10, 10_000).unwrap();
        // Uniform data: sel_lt(5000) ≈ 0.5.
        let s = h.sel_lt(5000.0);
        assert!((s - 0.5).abs() < 0.05, "sel {s}");
        assert_eq!(h.sel_lt(-1.0), 0.0);
        assert_eq!(h.sel_lt(1e18), 1.0);
    }

    #[test]
    fn equidepth_skewed() {
        // 90% zeros, 10% spread: sel_lt(1) should be ≈ 0.9.
        let mut samples = vec![0.0; 9000];
        samples.extend((0..1000).map(|i| (i + 1) as f64));
        assert!(samples.is_sorted());
        let h = Histogram::build(&samples, 20, 10_000).unwrap();
        let s = h.sel_lt(1.0);
        assert!(s > 0.7, "skew underestimated: {s}");
    }

    #[test]
    fn range_selectivity() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(&samples, 10, 1000).unwrap();
        let s = h.sel_range(Some(250.0), Some(750.0));
        assert!((s - 0.5).abs() < 0.1, "range sel {s}");
        assert_eq!(h.sel_range(None, None), 1.0);
    }

    #[test]
    fn constant_column() {
        let h = Histogram::build(&[5.0; 100], 10, 100).unwrap();
        assert_eq!(h.sel_lt(5.0), 0.0);
        assert_eq!(h.sel_lt(6.0), 1.0);
    }

    #[test]
    fn string_projection_preserves_order() {
        let a = project(&Value::Str("apple".into())).unwrap();
        let b = project(&Value::Str("banana".into())).unwrap();
        let c = project(&Value::Str("cherry".into())).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn table_stats_distincts_and_nulls() {
        let col = ColData::I32((0..1000).map(|i| i % 10).collect());
        let mask: Vec<bool> = (0..1000).map(|i| i % 4 == 0).collect();
        let stats = TableStats::build(&[col], &[Some(mask)], 8);
        assert_eq!(stats.n_rows, 1000);
        let c = &stats.columns[0];
        assert!(c.n_distinct <= 10);
        assert_eq!(c.null_count, 250);
        assert!((c.sel_eq() - 0.1).abs() < 0.05);
    }

    #[test]
    fn empty_stats() {
        let s = TableStats::empty(&[TypeId::I32, TypeId::Str]);
        assert_eq!(s.n_rows, 0);
        assert_eq!(s.columns.len(), 2);
        assert_eq!(s.columns[0].sel_eq(), 0.0);
    }

    #[test]
    fn staleness_set_by_dml_cleared_by_rebuild() {
        let col = ColData::I32((0..100).collect());
        let mut s = TableStats::build(std::slice::from_ref(&col), &[None], 8);
        assert!(!s.stale, "fresh build starts trusted");
        s.mark_stale();
        assert!(s.stale);
        // A rebuild (the CHECKPOINT path) produces a trusted snapshot again.
        let s = TableStats::build(&[col], &[None], 8);
        assert!(!s.stale);
    }

    #[test]
    fn typed_build_matches_the_value_reference() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // 140 001 rows take the stride 2, and an odd count makes the
        // all-NULL scaled count pass the row count.
        for n in [0usize, 1, 7, 1000, 140_001] {
            let columns = every_type(n, &mut next);
            let random: Vec<bool> = (0..n).map(|_| next() % 5 == 0).collect();
            for (kind, mask) in [
                ("no mask", None),
                ("no NULLs", Some(vec![false; n])),
                ("some NULLs", Some(random.clone())),
                ("all NULL", Some(vec![true; n])),
            ] {
                let nulls = vec![mask; columns.len()];
                let buckets: &[usize] = if n < SAMPLE_LIMIT { &[0, 1, 32] } else { &[32] };
                for &buckets in buckets {
                    let what = format!("n={n} {kind} buckets={buckets}");
                    let got = TableStats::build(&columns, &nulls, buckets);
                    assert_same_stats(&got, &build_reference(&columns, &nulls, buckets), &what);
                }
            }
        }
    }
}
