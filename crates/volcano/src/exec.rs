//! Tuple-at-a-time Volcano execution — the baseline the X100 papers measure
//! conventional engines against.
//!
//! Every operator produces one row per `next()` call through a virtual
//! call; filters and projections call a closure per tuple over boxed
//! [`Value`]s — the suites and benches hand in closures over the one
//! expression tree's per-tuple interpreter (`vw_exec`'s
//! `PhysExpr::eval_tuple`), which this crate does not depend on. This is
//! deliberately the "conventional query engine" of the paper's >10×
//! claim: correctness-equivalent to the vectorized kernel, but paying
//! interpretation overhead per *value* instead of per *vector*.

use crate::store::RowStore;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use vw_common::{Result, Schema, TypeId, Value, VwError};

/// A materialized row.
pub type Row = Vec<Value>;

/// A per-tuple expression: one value computed from a row.
pub type TupleExpr = Box<dyn Fn(&Row) -> Result<Value> + Send>;

/// A per-tuple predicate: whether a row passes.
type TuplePred = Box<dyn Fn(&Row) -> Result<bool> + Send>;

/// The Volcano iterator interface: one row per call.
pub trait TupleIterator: Send {
    /// Output schema.
    fn schema(&self) -> &Schema;
    /// Produce the next row.
    fn next(&mut self) -> Result<Option<Row>>;
}

/// Boxed iterator.
pub type BoxedIter = Box<dyn TupleIterator>;

/// Heap-table scan.
pub struct TupleScan {
    store: Arc<RowStore>,
    page: usize,
    buffer: Vec<Row>,
    pos: usize,
}

impl TupleScan {
    /// Scan all rows of `store`.
    pub fn new(store: Arc<RowStore>) -> TupleScan {
        TupleScan { store, page: 0, buffer: Vec::new(), pos: 0 }
    }
}

impl TupleIterator for TupleScan {
    fn schema(&self) -> &Schema {
        self.store.schema()
    }

    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if self.pos < self.buffer.len() {
                let row = std::mem::take(&mut self.buffer[self.pos]);
                self.pos += 1;
                return Ok(Some(row));
            }
            if self.page >= self.store.n_pages() {
                return Ok(None);
            }
            self.buffer = self.store.read_page(self.page)?;
            self.page += 1;
            self.pos = 0;
        }
    }
}

/// In-memory row source (baseline benches over pre-materialized data).
pub struct TupleValues {
    schema: Schema,
    rows: std::vec::IntoIter<Row>,
}

impl TupleValues {
    /// Source over `rows`.
    pub fn new(schema: Schema, rows: Vec<Row>) -> TupleValues {
        TupleValues { schema, rows: rows.into_iter() }
    }
}

impl TupleIterator for TupleValues {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>> {
        Ok(self.rows.next())
    }
}

/// Tuple-at-a-time filter.
pub struct TupleFilter {
    input: BoxedIter,
    predicate: TuplePred,
}

impl TupleFilter {
    /// Keep the rows of `input` that `predicate` passes.
    pub fn new(
        input: BoxedIter,
        predicate: impl Fn(&Row) -> Result<bool> + Send + 'static,
    ) -> TupleFilter {
        TupleFilter { input, predicate: Box::new(predicate) }
    }
}

impl TupleIterator for TupleFilter {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next(&mut self) -> Result<Option<Row>> {
        while let Some(row) = self.input.next()? {
            if (self.predicate)(&row)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// Tuple-at-a-time projection.
pub struct TupleProject {
    input: BoxedIter,
    exprs: Vec<TupleExpr>,
    schema: Schema,
}

impl TupleProject {
    /// Map rows through `exprs`, one output column each.
    pub fn new(input: BoxedIter, exprs: Vec<TupleExpr>, schema: Schema) -> TupleProject {
        TupleProject { input, exprs, schema }
    }
}

impl TupleIterator for TupleProject {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>> {
        match self.input.next()? {
            None => Ok(None),
            Some(row) => {
                let mut out = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    out.push(e(&row)?);
                }
                Ok(Some(out))
            }
        }
    }
}

/// Aggregate specification for the tuple engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleAgg {
    /// COUNT(*).
    CountStar,
    /// SUM(col).
    Sum(usize),
    /// MIN(col).
    Min(usize),
    /// MAX(col).
    Max(usize),
    /// AVG(col).
    Avg(usize),
    /// COUNT(col).
    Count(usize),
}

/// Tuple-at-a-time hash aggregation.
pub struct TupleAggregate {
    input: Option<BoxedIter>,
    group_cols: Vec<usize>,
    aggs: Vec<TupleAgg>,
    schema: Schema,
    out: std::vec::IntoIter<Row>,
    built: bool,
}

impl TupleAggregate {
    /// Group `input` by `group_cols` computing `aggs`.
    pub fn new(
        input: BoxedIter,
        group_cols: Vec<usize>,
        aggs: Vec<TupleAgg>,
        schema: Schema,
    ) -> TupleAggregate {
        TupleAggregate {
            input: Some(input),
            group_cols,
            aggs,
            schema,
            out: Vec::new().into_iter(),
            built: false,
        }
    }

    fn build(&mut self) -> Result<()> {
        let mut input = self.input.take().expect("build once");
        // State per group: (sum f64, sum i64, count, min, max) per agg.
        struct St {
            sum_i: i64,
            sum_f: f64,
            count: i64,
            min: Value,
            max: Value,
            is_float: bool,
        }
        let mut groups: HashMap<Vec<Value>, Vec<St>> = HashMap::new();
        while let Some(row) = input.next()? {
            let key: Vec<Value> = self.group_cols.iter().map(|&c| row[c].clone()).collect();
            let states = groups.entry(key).or_insert_with(|| {
                self.aggs
                    .iter()
                    .map(|_| St {
                        sum_i: 0,
                        sum_f: 0.0,
                        count: 0,
                        min: Value::Null,
                        max: Value::Null,
                        is_float: false,
                    })
                    .collect()
            });
            for (agg, st) in self.aggs.iter().zip(states.iter_mut()) {
                match agg {
                    TupleAgg::CountStar => st.count += 1,
                    TupleAgg::Count(c) => {
                        if !row[*c].is_null() {
                            st.count += 1;
                        }
                    }
                    TupleAgg::Sum(c) | TupleAgg::Avg(c) => {
                        let v = &row[*c];
                        if !v.is_null() {
                            st.count += 1;
                            if v.type_id() == Some(TypeId::F64) {
                                st.is_float = true;
                                st.sum_f += v.as_f64()?;
                            } else {
                                st.sum_i = st
                                    .sum_i
                                    .checked_add(v.as_i64()?)
                                    .ok_or(VwError::Overflow("SUM"))?;
                                st.sum_f += v.as_f64()?;
                            }
                        }
                    }
                    TupleAgg::Min(c) => {
                        let v = &row[*c];
                        if !v.is_null()
                            && (st.min.is_null() || v.sql_cmp(&st.min) == Some(Ordering::Less))
                        {
                            st.min = v.clone();
                        }
                    }
                    TupleAgg::Max(c) => {
                        let v = &row[*c];
                        if !v.is_null()
                            && (st.max.is_null() || v.sql_cmp(&st.max) == Some(Ordering::Greater))
                        {
                            st.max = v.clone();
                        }
                    }
                }
            }
        }
        if self.group_cols.is_empty() && groups.is_empty() {
            groups.insert(Vec::new(), Vec::new());
            // Re-insert default states for the single global group.
            let states = self
                .aggs
                .iter()
                .map(|_| St {
                    sum_i: 0,
                    sum_f: 0.0,
                    count: 0,
                    min: Value::Null,
                    max: Value::Null,
                    is_float: false,
                })
                .collect();
            groups.insert(Vec::new(), states);
        }
        let mut rows = Vec::with_capacity(groups.len());
        for (key, states) in groups {
            let mut row = key;
            for (agg, st) in self.aggs.iter().zip(states) {
                row.push(match agg {
                    TupleAgg::CountStar | TupleAgg::Count(_) => Value::I64(st.count),
                    TupleAgg::Sum(_) => {
                        if st.count == 0 {
                            Value::Null
                        } else if st.is_float {
                            Value::F64(st.sum_f)
                        } else {
                            Value::I64(st.sum_i)
                        }
                    }
                    TupleAgg::Avg(_) => {
                        if st.count == 0 {
                            Value::Null
                        } else {
                            Value::F64(st.sum_f / st.count as f64)
                        }
                    }
                    TupleAgg::Min(_) => st.min,
                    TupleAgg::Max(_) => st.max,
                });
            }
            rows.push(row);
        }
        self.out = rows.into_iter();
        self.built = true;
        Ok(())
    }
}

impl TupleIterator for TupleAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if !self.built {
            self.build()?;
        }
        Ok(self.out.next())
    }
}

/// Join variants of the tuple-at-a-time hash join, mirroring the
/// vectorized kernel's `JoinType` (including the NULL-aware anti join's
/// three-valued `NOT IN` semantics). Serves as the independent reference
/// implementation for differential tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleJoinKind {
    /// Emit matching pairs.
    Inner,
    /// Emit matching pairs plus unmatched left rows padded with NULLs.
    LeftOuter,
    /// Emit left rows with at least one match (EXISTS / IN).
    LeftSemi,
    /// Emit left rows with no match (NOT EXISTS).
    LeftAnti,
    /// NOT IN: anti join with three-valued NULL semantics.
    NullAwareLeftAnti,
}

impl TupleJoinKind {
    fn emits_right(self) -> bool {
        matches!(self, TupleJoinKind::Inner | TupleJoinKind::LeftOuter)
    }
}

/// Tuple-at-a-time hash join (all variants; see [`TupleJoinKind`]).
pub struct TupleHashJoin {
    left: BoxedIter,
    right: Option<BoxedIter>,
    left_key: usize,
    right_key: usize,
    kind: TupleJoinKind,
    schema: Schema,
    table: HashMap<Value, Vec<Row>>,
    right_width: usize,
    build_has_null_key: bool,
    build_is_empty: bool,
    pending: Vec<Row>,
    built: bool,
}

impl TupleHashJoin {
    /// Inner equi-join on one key column per side.
    pub fn new(
        left: BoxedIter,
        right: BoxedIter,
        left_key: usize,
        right_key: usize,
    ) -> TupleHashJoin {
        TupleHashJoin::with_kind(left, right, left_key, right_key, TupleJoinKind::Inner)
    }

    /// Equi-join with an explicit join kind. Semi/anti variants emit only
    /// left-side columns.
    pub fn with_kind(
        left: BoxedIter,
        right: BoxedIter,
        left_key: usize,
        right_key: usize,
        kind: TupleJoinKind,
    ) -> TupleHashJoin {
        let schema = if kind.emits_right() {
            left.schema().join(right.schema())
        } else {
            left.schema().clone()
        };
        let right_width = right.schema().len();
        TupleHashJoin {
            left,
            right: Some(right),
            left_key,
            right_key,
            kind,
            schema,
            table: HashMap::new(),
            right_width,
            build_has_null_key: false,
            build_is_empty: true,
            pending: Vec::new(),
            built: false,
        }
    }
}

impl TupleIterator for TupleHashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if !self.built {
            let mut right = self.right.take().expect("build once");
            while let Some(row) = right.next()? {
                self.build_is_empty = false;
                let k = row[self.right_key].clone();
                if k.is_null() {
                    self.build_has_null_key = true;
                } else {
                    self.table.entry(k).or_default().push(row);
                }
            }
            self.built = true;
        }
        loop {
            if let Some(row) = self.pending.pop() {
                return Ok(Some(row));
            }
            let Some(l) = self.left.next()? else {
                return Ok(None);
            };
            let k = &l[self.left_key];
            let matches = if k.is_null() { None } else { self.table.get(k) };
            let matched = matches.is_some_and(|m| !m.is_empty());
            match self.kind {
                TupleJoinKind::Inner => {
                    if let Some(rows) = matches {
                        for r in rows {
                            let mut out = l.clone();
                            out.extend(r.iter().cloned());
                            self.pending.push(out);
                        }
                    }
                }
                TupleJoinKind::LeftOuter => {
                    if let Some(rows) = matches {
                        for r in rows {
                            let mut out = l.clone();
                            out.extend(r.iter().cloned());
                            self.pending.push(out);
                        }
                    } else {
                        let mut out = l.clone();
                        out.extend(std::iter::repeat_n(Value::Null, self.right_width));
                        self.pending.push(out);
                    }
                }
                TupleJoinKind::LeftSemi => {
                    if matched {
                        self.pending.push(l.clone());
                    }
                }
                TupleJoinKind::LeftAnti => {
                    // NOT EXISTS: NULL probe keys never match → emitted.
                    if !matched {
                        self.pending.push(l.clone());
                    }
                }
                TupleJoinKind::NullAwareLeftAnti => {
                    // x NOT IN (empty) is TRUE for all x, NULL included;
                    // any build NULL key makes the predicate never-TRUE;
                    // a NULL probe key is dropped against a non-empty set.
                    let passes = self.build_is_empty
                        || (!self.build_has_null_key && !k.is_null() && !matched);
                    if passes {
                        self.pending.push(l.clone());
                    }
                }
            }
        }
    }
}

/// Materializing sort.
pub struct TupleSort {
    input: Option<BoxedIter>,
    keys: Vec<(usize, bool)>,
    schema: Schema,
    out: std::vec::IntoIter<Row>,
    built: bool,
}

impl TupleSort {
    /// Sort by `(column, ascending)` keys.
    pub fn new(input: BoxedIter, keys: Vec<(usize, bool)>) -> TupleSort {
        let schema = input.schema().clone();
        TupleSort { input: Some(input), keys, schema, out: Vec::new().into_iter(), built: false }
    }
}

impl TupleIterator for TupleSort {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if !self.built {
            let mut input = self.input.take().expect("build once");
            let mut rows = Vec::new();
            while let Some(r) = input.next()? {
                rows.push(r);
            }
            let keys = self.keys.clone();
            rows.sort_by(|a, b| {
                for &(c, asc) in &keys {
                    let o = a[c].sql_cmp(&b[c]).unwrap_or(Ordering::Equal);
                    let o = if asc { o } else { o.reverse() };
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                Ordering::Equal
            });
            self.out = rows.into_iter();
            self.built = true;
        }
        Ok(self.out.next())
    }
}

/// LIMIT.
pub struct TupleLimit {
    input: BoxedIter,
    remaining: usize,
}

impl TupleLimit {
    /// Take the first `limit` rows.
    pub fn new(input: BoxedIter, limit: usize) -> TupleLimit {
        TupleLimit { input, remaining: limit }
    }
}

impl TupleIterator for TupleLimit {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            Some(r) => {
                self.remaining -= 1;
                Ok(Some(r))
            }
            None => Ok(None),
        }
    }
}

/// Drain an iterator to completion.
pub fn collect_rows(it: &mut dyn TupleIterator) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(r) = it.next()? {
        out.push(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::Field;
    use vw_storage::{BufferPool, SimulatedDisk};

    fn schema() -> Schema {
        Schema::new(vec![Field::not_null("id", TypeId::I64), Field::nullable("grp", TypeId::Str)])
            .unwrap()
    }

    fn values(n: i64) -> BoxedIter {
        let rows = (0..n).map(|i| vec![Value::I64(i), Value::Str(format!("g{}", i % 3))]).collect();
        Box::new(TupleValues::new(schema(), rows))
    }

    #[test]
    fn scan_from_heap_pages() {
        let mut store = RowStore::new(BufferPool::new(SimulatedDisk::instant(), 1 << 20), schema());
        let rows: Vec<Row> =
            (0..500).map(|i| vec![Value::I64(i), Value::Str("x".into())]).collect();
        store.append_rows(&rows).unwrap();
        let mut scan = TupleScan::new(Arc::new(store));
        let got = collect_rows(&mut scan).unwrap();
        assert_eq!(got.len(), 500);
        assert_eq!(got[499][0], Value::I64(499));
    }

    #[test]
    fn filter_project_pipeline() {
        let filter = TupleFilter::new(values(100), |r| Ok(r[0].as_i64()? >= 95));
        let mut proj = TupleProject::new(
            Box::new(filter),
            vec![Box::new(|r| Ok(Value::I64(r[0].as_i64()? * 2)))],
            Schema::new(vec![Field::not_null("x", TypeId::I64)]).unwrap(),
        );
        let rows = collect_rows(&mut proj).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0], Value::I64(190));
    }

    #[test]
    fn aggregate_matches_expectation() {
        let mut agg = TupleAggregate::new(
            values(9),
            vec![1],
            vec![TupleAgg::CountStar, TupleAgg::Sum(0)],
            Schema::unchecked(vec![
                Field::nullable("grp", TypeId::Str),
                Field::not_null("cnt", TypeId::I64),
                Field::nullable("sum", TypeId::I64),
            ]),
        );
        let mut rows = collect_rows(&mut agg).unwrap();
        rows.sort_by_key(|r| r[0].to_string());
        assert_eq!(rows.len(), 3);
        // g0: ids 0,3,6 → sum 9; g1: 1,4,7 → 12; g2: 2,5,8 → 15.
        assert_eq!(rows[0][2], Value::I64(9));
        assert_eq!(rows[1][2], Value::I64(12));
        assert_eq!(rows[2][2], Value::I64(15));
    }

    #[test]
    fn join_inner() {
        let left = values(5);
        let right_rows: Vec<Row> = vec![
            vec![Value::I64(2), Value::Str("r2".into())],
            vec![Value::I64(4), Value::Str("r4".into())],
        ];
        let right = Box::new(TupleValues::new(schema(), right_rows));
        let mut join = TupleHashJoin::new(left, right, 0, 0);
        let rows = collect_rows(&mut join).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 4);
    }

    #[test]
    fn sort_and_limit() {
        let mut sorted = TupleSort::new(values(10), vec![(0, false)]);
        let rows = collect_rows(&mut sorted).unwrap();
        assert_eq!(rows[0][0], Value::I64(9));
        let sorted = TupleSort::new(values(10), vec![(0, false)]);
        let mut lim = TupleLimit::new(Box::new(sorted), 3);
        assert_eq!(collect_rows(&mut lim).unwrap().len(), 3);
    }

    #[test]
    fn global_aggregate_empty_input() {
        let empty = Box::new(TupleValues::new(schema(), vec![]));
        let mut agg = TupleAggregate::new(
            empty,
            vec![],
            vec![TupleAgg::CountStar],
            Schema::unchecked(vec![Field::not_null("cnt", TypeId::I64)]),
        );
        let rows = collect_rows(&mut agg).unwrap();
        assert_eq!(rows, vec![vec![Value::I64(0)]]);
    }
}
