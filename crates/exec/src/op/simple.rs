//! The small streaming operators: Values, Select, Project, Limit, UnionAll.

use super::{BoxedOp, Operator};
use crate::cancel::CancelToken;
use crate::morsel::BatchPool;
use crate::profile::OpProfile;
use crate::program::{ExprProgram, SelectProgram, VectorPool};
use crate::vector::{Batch, Vector};
use vw_common::{ColData, Result, Schema, SelVec, TypeId, Value};

/// In-memory row source (VALUES lists, tests, DML pipelines).
pub struct Values {
    schema: Schema,
    rows: Vec<Vec<Value>>,
    pos: usize,
    vector_size: usize,
    cancel: CancelToken,
}

impl Values {
    /// Source yielding `rows` with the given schema.
    pub fn new(
        schema: Schema,
        rows: Vec<Vec<Value>>,
        vector_size: usize,
        cancel: CancelToken,
    ) -> Values {
        Values { schema, rows, pos: 0, vector_size, cancel }
    }
}

impl Operator for Values {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "Values"
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        self.cancel.check()?;
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.pos + self.vector_size).min(self.rows.len());
        let mut columns: Vec<Vector> = self
            .schema
            .fields
            .iter()
            .map(|f| Vector::new(ColData::with_capacity(f.ty, end - self.pos)))
            .collect();
        for row in &self.rows[self.pos..end] {
            for (c, v) in columns.iter_mut().zip(row) {
                c.push(v)?;
            }
        }
        self.pos = end;
        Ok(Some(Batch::new(columns)))
    }
}

/// Filter: attaches/narrows the selection vector, no copying. The
/// predicate is a [`SelectProgram`] compiled once at plan build; per batch
/// it chains selective kernels through the pool's scratch.
pub struct Select {
    input: BoxedOp,
    predicate: SelectProgram,
    pool: VectorPool,
    batch_pool: Option<BatchPool>,
    profile: OpProfile,
    cancel: CancelToken,
}

impl Select {
    /// Filter `input` by the compiled `predicate`.
    pub fn new(input: BoxedOp, predicate: SelectProgram, cancel: CancelToken) -> Select {
        Select {
            input,
            predicate,
            pool: VectorPool::new(),
            batch_pool: None,
            profile: OpProfile::default(),
            cancel,
        }
    }

    /// Join the pipeline's batch free-list: selection vectors handed
    /// downstream cycle back through it (a recycled batch stashes its
    /// `sel`), and fully-filtered batches are recycled instead of dropped.
    pub fn with_batch_pool(mut self, pool: BatchPool) -> Select {
        self.batch_pool = Some(pool);
        self
    }
}

impl Operator for Select {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn name(&self) -> &'static str {
        "Select"
    }

    fn profile(&self) -> Option<&OpProfile> {
        Some(&self.profile)
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        loop {
            self.cancel.check()?;
            let Some(mut batch) = self.input.next()? else {
                return Ok(None);
            };
            // Pull selections the downstream consumer recycled back into
            // the expression pool, so the ones we hand out keep cycling.
            if let Some(bp) = &self.batch_pool {
                while let Some(s) = bp.take_sel() {
                    self.pool.put_sel(s);
                }
            }
            self.profile.record_enc_batch(&batch);
            let sel = self.predicate.run(&mut self.pool, &batch)?;
            self.pool.recycle();
            self.profile.enc_skipped += self.pool.take_enc_skipped();
            if sel.is_empty() {
                self.pool.put_sel(sel);
                if let Some(bp) = &self.batch_pool {
                    bp.recycle(batch); // fully filtered: give the batch back
                }
                continue; // fetch the next vector
            }
            batch.sel = Some(sel);
            return Ok(Some(batch));
        }
    }
}

/// Projection: runs compiled programs and emits dense vectors. All
/// intermediate vectors live in the pool; only the output columns handed
/// downstream are materialized.
pub struct Project {
    input: BoxedOp,
    programs: Vec<ExprProgram>,
    schema: Schema,
    out_types: Vec<TypeId>,
    pool: VectorPool,
    batch_pool: Option<BatchPool>,
    profile: OpProfile,
    cancel: CancelToken,
}

impl Project {
    /// Map `input` through the compiled `programs`; `schema` names the
    /// outputs.
    pub fn new(
        input: BoxedOp,
        programs: Vec<ExprProgram>,
        schema: Schema,
        cancel: CancelToken,
    ) -> Project {
        debug_assert_eq!(programs.len(), schema.len());
        let out_types = programs.iter().map(|p| p.type_id()).collect();
        Project {
            input,
            programs,
            schema,
            out_types,
            pool: VectorPool::new(),
            batch_pool: None,
            profile: OpProfile::default(),
            cancel,
        }
    }

    /// Join the pipeline's batch free-list: output batches lease recycled
    /// buffers (swapped back into the expression pool's slots), and the
    /// consumed input batch is recycled once its columns were gathered.
    pub fn with_batch_pool(mut self, pool: BatchPool) -> Project {
        self.batch_pool = Some(pool);
        self
    }
}

impl Operator for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "Project"
    }

    fn profile(&self) -> Option<&OpProfile> {
        Some(&self.profile)
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        self.cancel.check()?;
        let Some(batch) = self.input.next()? else {
            return Ok(None);
        };
        self.profile.record_enc_batch(&batch);
        // Lease the output batch: recycled buffers feed the expression
        // pool's slots through `detach_into`, so steady-state projection
        // allocates nothing even though ownership moves downstream.
        let mut out = BatchPool::lease_or_new(self.batch_pool.as_ref(), &self.out_types, 0);
        for (prog, dst) in self.programs.iter().zip(&mut out.columns) {
            let vr = prog.run(&mut self.pool, &batch)?;
            match &batch.sel {
                // Selection: compact to dense output lanes.
                Some(sel) => self.pool.get(&batch, vr).gather_into(sel, dst),
                // Dense input: swap the register buffer downstream.
                None => self.pool.detach_into(&batch, vr, dst),
            }
        }
        self.pool.recycle();
        if let Some(bp) = &self.batch_pool {
            bp.recycle(batch); // input consumed: back to the free list
        }
        Ok(Some(out))
    }
}

/// LIMIT (with optional OFFSET) over live rows.
pub struct Limit {
    input: BoxedOp,
    remaining_skip: usize,
    remaining_take: usize,
    cancel: CancelToken,
}

impl Limit {
    /// Take `limit` rows after skipping `offset`.
    pub fn new(input: BoxedOp, offset: usize, limit: usize, cancel: CancelToken) -> Limit {
        Limit { input, remaining_skip: offset, remaining_take: limit, cancel }
    }
}

impl Operator for Limit {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn name(&self) -> &'static str {
        "Limit"
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        loop {
            self.cancel.check()?;
            if self.remaining_take == 0 {
                return Ok(None);
            }
            let Some(batch) = self.input.next()? else {
                return Ok(None);
            };
            let live: Vec<u32> = batch.live().map(|p| p as u32).collect();
            if live.len() <= self.remaining_skip {
                self.remaining_skip -= live.len();
                continue;
            }
            let start = self.remaining_skip;
            self.remaining_skip = 0;
            let take = (live.len() - start).min(self.remaining_take);
            self.remaining_take -= take;
            let sel = SelVec::from_positions(live[start..start + take].to_vec());
            let mut out = batch;
            out.sel = Some(sel);
            return Ok(Some(out));
        }
    }
}

/// Concatenation of multiple same-schema inputs.
pub struct UnionAll {
    inputs: Vec<BoxedOp>,
    current: usize,
    cancel: CancelToken,
}

impl UnionAll {
    /// Union of `inputs` (all must share a schema).
    pub fn new(inputs: Vec<BoxedOp>, cancel: CancelToken) -> UnionAll {
        assert!(!inputs.is_empty());
        UnionAll { inputs, current: 0, cancel }
    }
}

impl Operator for UnionAll {
    fn schema(&self) -> &Schema {
        self.inputs[0].schema()
    }

    fn name(&self) -> &'static str {
        "UnionAll"
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        loop {
            self.cancel.check()?;
            if self.current >= self.inputs.len() {
                return Ok(None);
            }
            match self.inputs[self.current].next()? {
                Some(b) => return Ok(Some(b)),
                None => self.current += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, PhysExpr};
    use crate::op::drain;
    use vw_common::{Field, TypeId, VwError};

    fn int_schema() -> Schema {
        Schema::new(vec![Field::not_null("v", TypeId::I64)]).unwrap()
    }

    fn int_source(vals: Vec<i64>, vec_size: usize) -> BoxedOp {
        let rows = vals.into_iter().map(|v| vec![Value::I64(v)]).collect();
        Box::new(Values::new(int_schema(), rows, vec_size, CancelToken::new()))
    }

    fn gt(threshold: i64) -> SelectProgram {
        let e = PhysExpr::Cmp {
            op: CmpOp::Gt,
            lhs: Box::new(PhysExpr::ColRef(0, TypeId::I64)),
            rhs: Box::new(PhysExpr::Const(Value::I64(threshold), TypeId::I64)),
        };
        SelectProgram::compile(&e)
    }

    #[test]
    fn values_batches_by_vector_size() {
        let mut op = int_source((0..10).collect(), 4);
        let sizes: Vec<usize> =
            std::iter::from_fn(|| op.next().unwrap()).map(|b| b.rows()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn select_sets_selection() {
        let src = int_source((0..100).collect(), 32);
        let mut sel = Select::new(src, gt(94), CancelToken::new());
        let out = drain(&mut sel).unwrap();
        assert_eq!(out.rows(), 5);
        assert_eq!(out.row_values(0), vec![Value::I64(95)]);
    }

    #[test]
    fn select_skips_empty_vectors() {
        let src = int_source((0..100).collect(), 10);
        let mut sel = Select::new(src, gt(98), CancelToken::new());
        // Only the last vector has matches; the operator must loop past the
        // empty ones rather than returning empty batches.
        let b = sel.next().unwrap().unwrap();
        assert_eq!(b.rows(), 1);
        assert!(sel.next().unwrap().is_none());
    }

    #[test]
    fn project_compacts_selection() {
        let src = int_source((0..20).collect(), 8);
        let sel = Select::new(src, gt(15), CancelToken::new());
        let double = PhysExpr::Arith {
            op: crate::expr::BinOp::Mul,
            lhs: Box::new(PhysExpr::ColRef(0, TypeId::I64)),
            rhs: Box::new(PhysExpr::Const(Value::I64(2), TypeId::I64)),
            ty: TypeId::I64,
        };
        let mut proj = Project::new(
            Box::new(sel),
            vec![ExprProgram::compile(&double)],
            int_schema(),
            CancelToken::new(),
        );
        let out = drain(&mut proj).unwrap();
        assert_eq!(out.rows(), 4);
        assert!(out.sel.is_none());
        assert_eq!(out.row_values(0), vec![Value::I64(32)]);
    }

    #[test]
    fn limit_with_offset_across_batches() {
        let src = int_source((0..30).collect(), 7);
        let mut lim = Limit::new(src, 10, 12, CancelToken::new());
        let out = drain(&mut lim).unwrap();
        assert_eq!(out.rows(), 12);
        assert_eq!(out.row_values(0), vec![Value::I64(10)]);
        assert_eq!(out.row_values(11), vec![Value::I64(21)]);
    }

    #[test]
    fn limit_zero_and_overrun() {
        let src = int_source((0..5).collect(), 2);
        let mut lim = Limit::new(src, 0, 0, CancelToken::new());
        assert!(lim.next().unwrap().is_none());
        let src = int_source((0..5).collect(), 2);
        let mut lim = Limit::new(src, 3, 100, CancelToken::new());
        assert_eq!(drain(&mut lim).unwrap().rows(), 2);
    }

    #[test]
    fn union_all_concatenates() {
        let a = int_source(vec![1, 2], 8);
        let b = int_source(vec![3], 8);
        let c = int_source(vec![], 8);
        let mut u = UnionAll::new(vec![a, b, c], CancelToken::new());
        let out = drain(&mut u).unwrap();
        assert_eq!(out.rows(), 3);
    }

    #[test]
    fn cancellation_stops_pipeline() {
        let cancel = CancelToken::new();
        let src = int_source((0..1000).collect(), 16);
        let mut sel = Select::new(src, gt(-1), cancel.clone());
        sel.next().unwrap().unwrap();
        cancel.cancel();
        assert!(matches!(sel.next(), Err(VwError::Cancelled)));
    }
}
