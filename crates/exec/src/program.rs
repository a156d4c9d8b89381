//! Compiled expression programs over a pooled vector arena — the X100
//! "compile once, run per vector" expression discipline.
//!
//! [`PhysExpr`] trees describe *what* to compute;
//! this module turns them into **what X100 actually executes**: a flat
//! [`ExprProgram`] — a `Vec<Instr>` of primitive invocations compiled once
//! per query — reading and writing a register file of scratch [`Vector`]s
//! leased from a reusable [`VectorPool`]. The tree is walked once, at
//! compile time:
//!
//! * **constant folding** — a subtree without column references is
//!   compiled on its own (folding off) and run over one row, so a
//!   constant is computed by the same kernels — same overflow,
//!   NULL-denominator and double-ordering rules — as the column
//!   expression next to it, then replaced by a single constant fill;
//!   subtrees whose folding would *error* (`1/0`) are left compiled so the
//!   error still surfaces at run time;
//! * **common-subexpression elimination** — structurally identical
//!   subtrees compile to one instruction sequence and share a register;
//! * **register reuse** — a register is returned to the free list after
//!   its last consuming instruction, so deep trees run in a few slots.
//!
//! At run time [`ExprProgram::run`] executes the instructions against one
//! [`Batch`]: no tree walk, no per-node dispatch, and — crucially — **no
//! per-node allocation**. Every instruction writes into a pool register
//! whose buffers (value vector *and* NULL-indicator vector) persist across
//! batches; the steady-state per-batch loop is allocation-free (proven by
//! the counting-allocator check in the `c13_exprprog` bench).
//!
//! Predicates compile to a [`SelectProgram`] instead: conjunctions become a
//! chain of *selective* steps that narrow one [`SelVec`] (each step only
//! looks at survivors of the previous ones), hot `col <op> const` shapes
//! use the typed select kernels directly, and only irreducible boolean
//! expressions materialize a boolean vector.
//!
//! **Encoded inputs** (ARCHITECTURE.md, "Compressed execution"): select
//! steps answer `col <op> const`, `col LIKE pat` and a string `e IN (…)`
//! at the encoding level when the column arrives dictionary-coded (one
//! test per arena entry builds a code-qualifying bitmap) or RLE-coded (one
//! comparison accepts/rejects a whole run); rows decided this way are
//! counted in [`VectorPool::take_enc_skipped`], the `+S` of the Select's
//! `enc=E/F+S` in `EXPLAIN ANALYZE` (the pool counts nothing else: what
//! the programs cost is their operator's `time=`). No operator flattens a
//! program's input: every string instruction reads `&str` lanes where
//! they lie ([`Vector::str_lanes`] — flat values, or arena entries
//! through the codes) and writes string results into one arena per
//! output vector (`Vector::str_output`; non-distinct, the codes point
//! at it), so a string costs no allocation per value until someone reads
//! it; other types' data is always materialized (an RLE sidecar rides
//! next to it).
//!
//! # `VectorPool` ownership rules
//!
//! The pool is an epoch-recycled arena owned by one operator (it is not
//! shared across threads):
//!
//! 1. [`ExprProgram::run`] *leases* the program's registers from the pool
//!    and releases all but the result register when it returns. The
//!    returned [`VecRef`] stays valid — and its slot stays leased — until
//!    the operator calls [`VectorPool::recycle`].
//! 2. The operator resolves a [`VecRef`] with [`VectorPool::get`] (borrow)
//!    or takes the buffer out with [`VectorPool::detach`] (e.g. to hand a
//!    projected column downstream).
//! 3. Once per batch, after all programs ran and every result was
//!    consumed, the operator calls [`VectorPool::recycle`]; every leased
//!    slot returns to the free list with its allocation intact. A `VecRef`
//!    must never be read after `recycle` — it is an index into the arena,
//!    not a borrow, and its slot may be re-leased to the next program.
//!
//! Registers hold *garbage* in unselected lanes (the selective-primitive
//! contract); NULL-indicator buffers are always full-width valid.

use crate::expr::{decode_field, BinOp, CmpOp, Func, LikeMatcher, PhysExpr};
use crate::primitives::{self, ArithCheck};
use crate::vector::{Batch, StrArena, Vector};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use vw_common::{ColData, Result, SelVec, TypeId, Value, VwError};

/// The one checking strategy programs run their arithmetic kernels under.
const CHECK: ArithCheck = ArithCheck::Lazy;

// ---------------------------------------------------------------------------
// VectorPool
// ---------------------------------------------------------------------------

/// A handle to a program result: either a batch column (expressions that
/// reduce to a bare column reference copy nothing) or a leased pool slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecRef {
    /// Column `i` of the batch the program ran against.
    Col(usize),
    /// Arena slot index; valid until [`VectorPool::recycle`].
    Slot(usize),
}

/// One arena slot: the scratch vector plus a spare NULL-indicator buffer so
/// toggling `nulls` between `Some`/`None` across batches never reallocates.
struct Slot {
    vec: Vector,
    spare_nulls: Vec<bool>,
}

/// Reusable arena of scratch [`Vector`]s — X100's "vector memory".
///
/// See the module docs for the ownership rules. The pool also counts the
/// rows its select steps decided at the encoding level, which `Select`
/// drains into the `enc=E/F+S` of its `EXPLAIN ANALYZE` line.
#[derive(Default)]
pub struct VectorPool {
    slots: Vec<Slot>,
    /// Slot indices currently free for leasing.
    free: Vec<usize>,
    /// Slots leased to still-live program results (released by `recycle`).
    held: Vec<usize>,
    /// Register → slot mapping of the program currently executing.
    regs: Vec<usize>,
    /// Recycled selection vectors for select programs.
    sel_free: Vec<SelVec>,
    /// Scratch for the Div/Rem NULL-denominator patch (see `Instr::DivRemI64`).
    patch_i64: Vec<i64>,
    /// Rows decided at the encoding level (dict-code bitmap, RLE run
    /// accept/reject) instead of per-row value comparisons, since the
    /// last `take_enc_skipped`. Feeds `OpProfile::enc_skipped`.
    pub enc_skipped: u64,
}

impl VectorPool {
    /// An empty pool.
    pub fn new() -> VectorPool {
        VectorPool::default()
    }

    /// Lease a slot holding a vector of type `ty` (buffer reused when one
    /// of that type is free; allocated otherwise).
    fn lease(&mut self, ty: TypeId) -> usize {
        if let Some(i) =
            (0..self.free.len()).find(|&i| self.slots[self.free[i]].vec.type_id() == ty)
        {
            return self.free.swap_remove(i);
        }
        self.slots.push(Slot { vec: Vector::new(ColData::new(ty)), spare_nulls: Vec::new() });
        self.slots.len() - 1
    }

    /// Lease the register file for one program run.
    fn begin_run(&mut self, reg_types: &[TypeId]) {
        self.regs.clear();
        for &ty in reg_types {
            let s = self.lease(ty);
            self.regs.push(s);
        }
    }

    /// Release the run's registers, keeping `keep` leased for the caller.
    fn end_run(&mut self, keep: Option<usize>) {
        for i in 0..self.regs.len() {
            let s = self.regs[i];
            if Some(s) == keep {
                self.held.push(s);
            } else {
                self.free.push(s);
            }
        }
        self.regs.clear();
    }

    /// Resolve a [`VecRef`] against the batch it was produced from.
    pub fn get<'a>(&'a self, batch: &'a Batch, r: VecRef) -> &'a Vector {
        match r {
            VecRef::Col(c) => &batch.columns[c],
            VecRef::Slot(s) => &self.slots[s].vec,
        }
    }

    /// Take ownership of a result vector (clones batch columns; moves the
    /// buffer out of pool slots — the slot re-grows on its next lease).
    pub fn detach(&mut self, batch: &Batch, r: VecRef) -> Vector {
        match r {
            VecRef::Col(c) => batch.columns[c].clone(),
            VecRef::Slot(s) => {
                let slot = &mut self.slots[s];
                let ty = slot.vec.type_id();
                std::mem::replace(&mut slot.vec, Vector::new(ColData::new(ty)))
            }
        }
    }

    /// Take the result into `dst` (cleared first). For a pool slot the
    /// buffers are *swapped*: `dst`'s old (recycled, type-matched) buffer
    /// becomes the slot's scratch for the next batch, closing the loop
    /// that [`detach`](Self::detach) leaves open — a detached slot regrows
    /// from zero capacity, so Project outputs used to allocate every
    /// batch. `dst` must have the result's type (pooled callers lease it
    /// by the output schema's type signature).
    pub fn detach_into(&mut self, batch: &Batch, r: VecRef, dst: &mut Vector) {
        match r {
            VecRef::Col(c) => dst.clone_from_vector(&batch.columns[c]),
            VecRef::Slot(s) => {
                let slot = &mut self.slots[s];
                debug_assert_eq!(slot.vec.type_id(), dst.type_id());
                dst.clear_keep_capacity();
                std::mem::swap(&mut slot.vec, dst);
            }
        }
    }

    /// End the batch epoch: every leased result slot returns to the free
    /// list (buffers intact). All outstanding `VecRef`s become invalid.
    pub fn recycle(&mut self) {
        self.free.append(&mut self.held);
    }

    /// Drain the rows-decided-at-encoding-level counter.
    pub fn take_enc_skipped(&mut self) -> u64 {
        std::mem::take(&mut self.enc_skipped)
    }

    /// Borrow a recycled [`SelVec`] (cleared). Selection results returned
    /// by [`SelectProgram::run`] come from this free list; callers that do
    /// not hand the selection downstream should [`put_sel`](Self::put_sel)
    /// it back so the allocation keeps cycling.
    pub fn take_sel(&mut self) -> SelVec {
        let mut s = self.sel_free.pop().unwrap_or_default();
        s.clear();
        s
    }

    /// Return a [`SelVec`] to the free list for reuse.
    pub fn put_sel(&mut self, s: SelVec) {
        self.sel_free.push(s);
    }

    /// Take register `r`'s vector and its NULL working buffer out of the
    /// arena for in-place computation ([`put_reg`](Self::put_reg) restores
    /// them). The buffer is the slot's previous indicator or its spare —
    /// either way it is owned, warm, and reusable.
    fn take_reg(&mut self, r: u16) -> (Vector, Vec<bool>) {
        let slot = &mut self.slots[self.regs[r as usize]];
        let mut vec = std::mem::replace(&mut slot.vec, Vector::new(ColData::Bool(Vec::new())));
        let buf = vec.nulls.take().unwrap_or_else(|| std::mem::take(&mut slot.spare_nulls));
        (vec, buf)
    }

    /// Restore register `r` after computation. `any_null` decides whether
    /// the buffer becomes the vector's indicator or goes back to the spare
    /// pocket (the `None` normalization [`Vector::with_nulls`] applies,
    /// without dropping the allocation).
    fn put_reg(&mut self, r: u16, mut vec: Vector, buf: Vec<bool>, any_null: bool) {
        let slot = &mut self.slots[self.regs[r as usize]];
        if any_null {
            vec.nulls = Some(buf);
        } else {
            vec.nulls = None;
            slot.spare_nulls = buf;
        }
        slot.vec = vec;
    }

    /// Resolve an instruction operand.
    fn opd<'a>(&'a self, batch: &'a Batch, o: Opd) -> &'a Vector {
        match o {
            Opd::Col(c) => &batch.columns[c],
            Opd::Reg(r) => &self.slots[self.regs[r as usize]].vec,
        }
    }
}

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

/// An instruction operand: a batch column (column references compile to
/// direct reads — no copy, no instruction) or a program register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opd {
    /// Batch column index.
    Col(usize),
    /// Program register index.
    Reg(u16),
}

/// One primitive invocation. Operand lanes outside the current selection
/// are garbage; NULL indicators are always full-width valid.
#[derive(Clone)]
enum Instr {
    /// Fill `dst` with `capacity` copies of a constant (NULL → all-NULL).
    ConstFill { value: Value, ty: TypeId, dst: u16 },
    /// I64 `+ - *` through the checked kernels of [`primitives`].
    ArithI64 { op: BinOp, a: Opd, b: Opd, dst: u16 },
    /// Dedicated I64 `/ %` instruction: NULL denominators are patched to 1
    /// before the kernel runs (their lanes are NULL anyway; the safe value
    /// 0 would raise a spurious division-by-zero) — the paper's "special
    /// algorithms in the kernel".
    DivRemI64 { op: BinOp, a: Opd, b: Opd, dst: u16 },
    /// F64 arithmetic (division-by-zero checked at live non-NULL lanes).
    ArithF64 { op: BinOp, a: Opd, b: Opd, dst: u16 },
    /// Comparison producing BOOLEAN (typed loops for same-type numeric
    /// operands, `Value::sql_cmp` otherwise).
    Cmp { op: CmpOp, a: Opd, b: Opd, dst: u16 },
    /// N-ary three-valued AND/OR over boolean vectors.
    BoolAndOr { is_and: bool, parts: Vec<Opd>, dst: u16 },
    /// Boolean negation.
    Not { a: Opd, dst: u16 },
    /// Type conversion (same-type casts are elided at compile time).
    Cast { a: Opd, to: TypeId, dst: u16 },
    /// `IS NULL` / `IS NOT NULL` (never NULL itself).
    IsNull { a: Opd, negated: bool, dst: u16 },
    /// `CASE WHEN c THEN v ... ELSE e END` over pre-evaluated branches.
    Case { branches: Vec<(Opd, Opd)>, else_v: Option<Opd>, dst: u16 },
    /// Native scalar function call.
    Call { func: Func, args: Vec<Opd>, ty: TypeId, dst: u16 },
    /// `LIKE` with the pattern compiled once.
    Like { a: Opd, matcher: LikeMatcher, negated: bool, dst: u16 },
    /// Compile-time-detected plan error surfaced at run time.
    Fail { message: String },
}

// ---------------------------------------------------------------------------
// ExprProgram
// ---------------------------------------------------------------------------

/// A compiled expression: flat instructions over a typed register file.
/// Built once per query by [`ExprProgram::compile`]; executed once per
/// batch by [`ExprProgram::run`]. `Clone` is cheap-ish (instruction
/// vector copy) and exists for the grace-spill path, which hands the same
/// key programs to the recursive join over a spilled partition pair.
#[derive(Clone)]
pub struct ExprProgram {
    instrs: Vec<Instr>,
    reg_types: Vec<TypeId>,
    result: Opd,
    ty: TypeId,
}

impl ExprProgram {
    /// Compile `expr`.
    pub fn compile(expr: &PhysExpr) -> ExprProgram {
        ExprProgram::compile_with(expr, true)
    }

    /// `fold = false` is the folder's own recursion guard: the program
    /// that computes a constant must not itself ask for that constant.
    fn compile_with(expr: &PhysExpr, fold: bool) -> ExprProgram {
        let mut c = Compiler {
            fold,
            instrs: Vec::new(),
            reg_types: Vec::new(),
            free_regs: Vec::new(),
            intern: HashMap::new(),
            node_ids: HashMap::new(),
            memo: Vec::new(),
            uses: Vec::new(),
            aliases: Vec::new(),
            is_const: Vec::new(),
        };
        c.assign_ids(expr);
        c.count_uses(expr);
        let result = c.emit(expr);
        ExprProgram { instrs: c.instrs, reg_types: c.reg_types, result, ty: expr.type_id() }
    }

    /// The column a bare column reference reads: the result is that input
    /// column itself, untouched (an encoded vector passes through).
    pub fn bare_col(&self) -> Option<usize> {
        match self.result {
            Opd::Col(c) if self.instrs.is_empty() => Some(c),
            _ => None,
        }
    }

    /// The program's result type.
    pub fn type_id(&self) -> TypeId {
        self.ty
    }

    /// Number of compiled instructions (compile-time observability).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the program is a bare column/constant with no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Number of registers in the program's register file.
    pub fn n_regs(&self) -> usize {
        self.reg_types.len()
    }

    /// Execute against `batch` under its own selection vector.
    pub fn run(&self, pool: &mut VectorPool, batch: &Batch) -> Result<VecRef> {
        self.run_with_sel(pool, batch, batch.sel.as_ref())
    }

    /// Execute with an explicit selection override (select programs chain
    /// narrowed selections through here without touching the batch).
    pub fn run_with_sel(
        &self,
        pool: &mut VectorPool,
        batch: &Batch,
        sel: Option<&SelVec>,
    ) -> Result<VecRef> {
        pool.begin_run(&self.reg_types);
        let mut res = Ok(());
        for instr in &self.instrs {
            res = exec_instr(instr, pool, batch, sel);
            if res.is_err() {
                break;
            }
        }
        let keep = match self.result {
            Opd::Col(_) => None,
            Opd::Reg(r) => Some(pool.regs[r as usize]),
        };
        let out = match self.result {
            Opd::Col(c) => VecRef::Col(c),
            Opd::Reg(r) => VecRef::Slot(pool.regs[r as usize]),
        };
        pool.end_run(keep);
        res?;
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// Structural interning key: a node-local descriptor plus the *ids* of the
/// children. Building one is O(node), not O(subtree) — interning a whole
/// tree is linear, where keying on the full `Debug` string of every
/// subtree would make compilation quadratic in expression size.
#[derive(Hash, PartialEq, Eq)]
struct NodeKey {
    desc: String,
    children: Vec<u32>,
}

struct Compiler {
    /// Fold column-free subtrees (off inside the folder's own program).
    fold: bool,
    instrs: Vec<Instr>,
    reg_types: Vec<TypeId>,
    free_regs: Vec<u16>,
    /// Structural intern table: equal subtrees share one dense id.
    intern: HashMap<NodeKey, u32>,
    /// Tree-node address → interned id (filled once by `assign_ids`; the
    /// tree is borrowed for the whole compile, so addresses are stable).
    node_ids: HashMap<*const PhysExpr, u32>,
    /// Per id: CSE memo — the operand holding the computed value.
    memo: Vec<Option<Opd>>,
    /// Per id: remaining consumers (register freed at zero).
    uses: Vec<usize>,
    /// Per id: elided identity casts forward their releases to the input
    /// actually holding the register (chains resolved at alias creation,
    /// so every entry points at a terminal id).
    aliases: Vec<Option<u32>>,
    /// Per id: subtree is free of column references (folding candidate).
    is_const: Vec<bool>,
}

/// Node-local descriptor for [`NodeKey`] — captures everything about the
/// node *except* its children (those are captured as interned ids).
fn node_desc(e: &PhysExpr) -> String {
    match e {
        PhysExpr::ColRef(i, ty) => format!("R{i}:{ty:?}"),
        PhysExpr::Const(v, ty) => format!("K{v:?}:{ty:?}"),
        PhysExpr::Arith { op, ty, .. } => format!("A{op:?}:{ty:?}"),
        PhysExpr::Cmp { op, .. } => format!("C{op:?}"),
        PhysExpr::And(_) => "&".into(),
        PhysExpr::Or(_) => "|".into(),
        PhysExpr::Not(_) => "!".into(),
        PhysExpr::Cast { to, .. } => format!("T{to:?}"),
        PhysExpr::IsNull(_) => "Z".into(),
        PhysExpr::IsNotNull(_) => "z".into(),
        PhysExpr::Case { branches, else_expr, ty } => {
            format!("S{}:{}:{ty:?}", branches.len(), else_expr.is_some())
        }
        PhysExpr::FuncCall { func, ty, .. } => format!("F{func:?}:{ty:?}"),
        PhysExpr::Like { pattern, negated, .. } => format!("L{negated}:{pattern}"),
    }
}

impl Compiler {
    /// One linear bottom-up pass: intern every tree node's structure and
    /// record its id by node address (plus const-ness for the folder).
    fn assign_ids(&mut self, e: &PhysExpr) -> u32 {
        let child_ids: Vec<u32> = e.children().into_iter().map(|c| self.assign_ids(c)).collect();
        let konst = match e {
            PhysExpr::ColRef(..) => false,
            PhysExpr::Const(..) => true,
            _ => child_ids.iter().all(|&c| self.is_const[c as usize]),
        };
        let key = NodeKey { desc: node_desc(e), children: child_ids };
        let next = self.intern.len() as u32;
        let id = *self.intern.entry(key).or_insert(next);
        if id == next {
            self.memo.push(None);
            self.uses.push(0);
            self.aliases.push(None);
            self.is_const.push(konst);
        }
        self.node_ids.insert(e as *const PhysExpr, id);
        id
    }

    fn id_of(&self, e: &PhysExpr) -> u32 {
        self.node_ids[&(e as *const PhysExpr)]
    }

    /// DAG-aware use counting: each parent reference counts once; a
    /// subtree's internals are counted only on first encounter.
    fn count_uses(&mut self, e: &PhysExpr) {
        let id = self.id_of(e) as usize;
        self.uses[id] += 1;
        if self.uses[id] == 1 {
            for c in e.children() {
                self.count_uses(c);
            }
        }
    }

    fn alloc_reg(&mut self, ty: TypeId) -> u16 {
        if let Some(i) =
            (0..self.free_regs.len()).find(|&i| self.reg_types[self.free_regs[i] as usize] == ty)
        {
            return self.free_regs.swap_remove(i);
        }
        self.reg_types.push(ty);
        (self.reg_types.len() - 1) as u16
    }

    /// A consuming instruction was emitted: drop one use of `e`; free its
    /// register after the last consumer. Aliases (elided identity casts)
    /// forward to the expression actually holding the register.
    fn release(&mut self, e: &PhysExpr) {
        let mut id = self.id_of(e);
        while let Some(t) = self.aliases[id as usize] {
            id = t;
        }
        let n = &mut self.uses[id as usize];
        debug_assert!(*n > 0, "released expression with no remaining uses");
        *n -= 1;
        if *n == 0 {
            if let Some(Opd::Reg(r)) = self.memo[id as usize] {
                self.free_regs.push(r);
            }
        }
    }

    /// Fold a column-free subtree to a single constant. Folding that
    /// *errors* returns `None`: the subtree stays compiled so the error
    /// surfaces at run time.
    fn try_fold(&self, e: &PhysExpr) -> Option<Value> {
        if !self.fold || matches!(e, PhysExpr::Const(..)) || !self.is_const[self.id_of(e) as usize]
        {
            return None;
        }
        fold_const_value(e)
    }

    fn emit(&mut self, e: &PhysExpr) -> Opd {
        let id = self.id_of(e) as usize;
        if let Some(opd) = self.memo[id] {
            return opd;
        }
        let opd = self.emit_uncached(e);
        self.memo[id] = Some(opd);
        opd
    }

    fn emit_uncached(&mut self, e: &PhysExpr) -> Opd {
        if let Some(v) = self.try_fold(e) {
            let ty = e.type_id();
            let dst = self.alloc_reg(ty);
            self.instrs.push(Instr::ConstFill { value: v, ty, dst });
            return Opd::Reg(dst);
        }
        match e {
            PhysExpr::ColRef(i, _) => Opd::Col(*i),
            PhysExpr::Const(v, ty) => {
                let dst = self.alloc_reg(*ty);
                self.instrs.push(Instr::ConstFill { value: v.clone(), ty: *ty, dst });
                Opd::Reg(dst)
            }
            PhysExpr::Arith { op, lhs, rhs, ty } => {
                let a = self.emit(lhs);
                let b = self.emit(rhs);
                let dst = self.alloc_reg(*ty);
                let instr = match ty {
                    TypeId::I64 => match op {
                        BinOp::Div | BinOp::Rem => Instr::DivRemI64 { op: *op, a, b, dst },
                        _ => Instr::ArithI64 { op: *op, a, b, dst },
                    },
                    TypeId::F64 => Instr::ArithF64 { op: *op, a, b, dst },
                    other => Instr::Fail {
                        message: format!(
                            "arithmetic on {} must be pre-promoted to BIGINT or DOUBLE",
                            other.sql_name()
                        ),
                    },
                };
                self.instrs.push(instr);
                self.release(lhs);
                self.release(rhs);
                Opd::Reg(dst)
            }
            PhysExpr::Cmp { op, lhs, rhs } => {
                let a = self.emit(lhs);
                let b = self.emit(rhs);
                let dst = self.alloc_reg(TypeId::Bool);
                self.instrs.push(Instr::Cmp { op: *op, a, b, dst });
                self.release(lhs);
                self.release(rhs);
                Opd::Reg(dst)
            }
            PhysExpr::And(parts) | PhysExpr::Or(parts) => {
                let is_and = matches!(e, PhysExpr::And(_));
                let opds: Vec<Opd> = parts.iter().map(|p| self.emit(p)).collect();
                let dst = self.alloc_reg(TypeId::Bool);
                self.instrs.push(Instr::BoolAndOr { is_and, parts: opds, dst });
                for p in parts {
                    self.release(p);
                }
                Opd::Reg(dst)
            }
            PhysExpr::Not(inner) => {
                let a = self.emit(inner);
                let dst = self.alloc_reg(TypeId::Bool);
                self.instrs.push(Instr::Not { a, dst });
                self.release(inner);
                Opd::Reg(dst)
            }
            PhysExpr::Cast { input, to } => {
                if input.type_id() == *to {
                    // Identity cast: no instruction, forward the operand.
                    // Every release of this cast must count against the
                    // expression actually holding the register — resolve
                    // through existing aliases first (the input may itself
                    // be an elided cast), whose use tally gains the cast's
                    // users and loses the cast-node reference itself.
                    let opd = self.emit(input);
                    let ck = self.id_of(e);
                    let mut target = self.id_of(input);
                    while let Some(t) = self.aliases[target as usize] {
                        target = t;
                    }
                    let cast_uses = self.uses[ck as usize];
                    self.uses[target as usize] += cast_uses;
                    self.uses[target as usize] -= 1;
                    self.aliases[ck as usize] = Some(target);
                    return opd;
                }
                let a = self.emit(input);
                let dst = self.alloc_reg(*to);
                self.instrs.push(Instr::Cast { a, to: *to, dst });
                self.release(input);
                Opd::Reg(dst)
            }
            PhysExpr::IsNull(inner) | PhysExpr::IsNotNull(inner) => {
                let negated = matches!(e, PhysExpr::IsNotNull(_));
                let a = self.emit(inner);
                let dst = self.alloc_reg(TypeId::Bool);
                self.instrs.push(Instr::IsNull { a, negated, dst });
                self.release(inner);
                Opd::Reg(dst)
            }
            PhysExpr::Case { branches, else_expr, ty } => {
                let opds: Vec<(Opd, Opd)> =
                    branches.iter().map(|(c, v)| (self.emit(c), self.emit(v))).collect();
                let else_v = else_expr.as_deref().map(|x| self.emit(x));
                let dst = self.alloc_reg(*ty);
                self.instrs.push(Instr::Case { branches: opds, else_v, dst });
                for (c, v) in branches {
                    self.release(c);
                    self.release(v);
                }
                if let Some(x) = else_expr.as_deref() {
                    self.release(x);
                }
                Opd::Reg(dst)
            }
            PhysExpr::FuncCall { func, args, ty } => {
                let opds: Vec<Opd> = args.iter().map(|a| self.emit(a)).collect();
                let dst = self.alloc_reg(*ty);
                self.instrs.push(Instr::Call { func: *func, args: opds, ty: *ty, dst });
                for a in args {
                    self.release(a);
                }
                Opd::Reg(dst)
            }
            PhysExpr::Like { input, pattern, negated } => {
                let a = self.emit(input);
                let dst = self.alloc_reg(TypeId::Bool);
                self.instrs.push(Instr::Like {
                    a,
                    matcher: LikeMatcher::new(pattern),
                    negated: *negated,
                    dst,
                });
                self.release(input);
                Opd::Reg(dst)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Instruction execution
// ---------------------------------------------------------------------------

/// OR the NULL indicators of `inputs` into `buf` (full width). Returns
/// whether any lane is NULL; when no input has an indicator, `buf` is left
/// untouched (no work, no allocation).
fn union_nulls_into(n: usize, inputs: &[&Vector], buf: &mut Vec<bool>) -> bool {
    if inputs.iter().all(|v| v.nulls.is_none()) {
        return false;
    }
    buf.clear();
    buf.resize(n, false);
    let mut any = false;
    for v in inputs {
        if let Some(m) = &v.nulls {
            for (o, &b) in buf.iter_mut().zip(m) {
                *o |= b;
                any |= b;
            }
        }
    }
    any
}

/// Copy one vector's NULL indicator into `buf` (full width).
fn copy_nulls_into(n: usize, v: &Vector, buf: &mut Vec<bool>) -> bool {
    match &v.nulls {
        None => false,
        Some(m) => {
            buf.clear();
            buf.extend_from_slice(m);
            debug_assert_eq!(buf.len(), n);
            m.iter().any(|&b| b)
        }
    }
}

fn as_i64_mut(c: &mut ColData) -> &mut Vec<i64> {
    match c {
        ColData::I64(v) => v,
        other => panic!("register type mismatch: expected I64, got {}", other.type_id()),
    }
}

fn as_f64_mut(c: &mut ColData) -> &mut Vec<f64> {
    match c {
        ColData::F64(v) => v,
        other => panic!("register type mismatch: expected F64, got {}", other.type_id()),
    }
}

fn as_bool_mut(c: &mut ColData) -> &mut Vec<bool> {
    match c {
        ColData::Bool(v) => v,
        other => panic!("register type mismatch: expected Bool, got {}", other.type_id()),
    }
}

/// Share of a vector's lanes, in percent, from which a non-faulting kernel
/// computes every lane instead of the selected ones. Bench `c13_exprprog`
/// times both F64 loops at 5–95 % selectivity: the full loop costs the
/// same at any selectivity (≈ 0.22 ns a lane — it vectorizes), the
/// selective one ≈ 0.9 ns per selected lane (an indexed load and store
/// each), so they cross at about a quarter.
const DENSE_PCT: usize = 25;

/// Whether a selection of `live` lanes out of `n` is dense enough for the
/// full kernel (see [`DENSE_PCT`]).
#[inline]
fn is_dense(live: usize, n: usize) -> bool {
    live * 100 >= n * DENSE_PCT
}

/// One F64 binary kernel over the `sel` lanes, or all of them.
#[inline(always)]
fn map_f64(
    x: &[f64],
    y: &[f64],
    sel: Option<&SelVec>,
    o: &mut Vec<f64>,
    f: impl Fn(f64, f64) -> f64,
) {
    match sel {
        None => primitives::map_bin_full(x, y, o, f),
        Some(s) => primitives::map_bin_sel(x, y, s, o, f),
    }
}

/// Run `body` with register `dst` taken out of the pool, restoring it
/// (and its NULL buffer) whether or not the computation errored.
fn with_dst(
    pool: &mut VectorPool,
    dst: u16,
    body: impl FnOnce(&VectorPool, &mut Vector, &mut Vec<bool>) -> Result<bool>,
) -> Result<()> {
    let (mut vec, mut buf) = pool.take_reg(dst);
    let res = body(pool, &mut vec, &mut buf);
    match res {
        Ok(any) => {
            pool.put_reg(dst, vec, buf, any);
            Ok(())
        }
        Err(e) => {
            pool.put_reg(dst, vec, buf, false);
            Err(e)
        }
    }
}

fn exec_instr(
    instr: &Instr,
    pool: &mut VectorPool,
    batch: &Batch,
    sel: Option<&SelVec>,
) -> Result<()> {
    let n = batch.capacity();
    match instr {
        Instr::ConstFill { value, ty, dst } => {
            with_dst(pool, *dst, |_, out, buf| fill_const(out, buf, *ty, value, n))
        }
        Instr::ArithI64 { op, a, b, dst } => with_dst(pool, *dst, |pool, out, buf| {
            let av = pool.opd(batch, *a);
            let bv = pool.opd(batch, *b);
            let any = union_nulls_into(n, &[av, bv], buf);
            let x = av.data.as_i64();
            let y = bv.data.as_i64();
            let o = as_i64_mut(&mut out.data);
            match op {
                BinOp::Add => primitives::add_i64(x, y, sel, o, CHECK)?,
                BinOp::Sub => primitives::sub_i64(x, y, sel, o, CHECK)?,
                BinOp::Mul => primitives::mul_i64(x, y, sel, o, CHECK)?,
                _ => unreachable!("Div/Rem compile to DivRemI64"),
            }
            Ok(any)
        }),
        Instr::DivRemI64 { op, a, b, dst } => {
            // Patch scratch must be taken out before `pool` is re-borrowed.
            let mut patch = std::mem::take(&mut pool.patch_i64);
            let res = with_dst(pool, *dst, |pool, out, buf| {
                let av = pool.opd(batch, *a);
                let bv = pool.opd(batch, *b);
                let any = union_nulls_into(n, &[av, bv], buf);
                let x = av.data.as_i64();
                let mut y = bv.data.as_i64();
                // NULL denominators would fault on their safe value 0:
                // patch them to 1 — their result lanes are NULL anyway.
                if let Some(m) = &bv.nulls {
                    patch.clear();
                    patch.extend(y.iter().zip(m).map(|(&v, &is_null)| if is_null { 1 } else { v }));
                    y = &patch[..];
                }
                let o = as_i64_mut(&mut out.data);
                match op {
                    BinOp::Div => primitives::div_i64(x, y, sel, o, CHECK)?,
                    BinOp::Rem => primitives::rem_i64(x, y, sel, o, CHECK)?,
                    _ => unreachable!(),
                }
                Ok(any)
            });
            pool.patch_i64 = patch;
            res
        }
        Instr::ArithF64 { op, a, b, dst } => with_dst(pool, *dst, |pool, out, buf| {
            let av = pool.opd(batch, *a);
            let bv = pool.opd(batch, *b);
            let any = union_nulls_into(n, &[av, bv], buf);
            let x = av.data.as_f64();
            let y = bv.data.as_f64();
            let o = as_f64_mut(&mut out.data);
            // `+ - *` cannot fault, so over a dense selection they compute
            // every lane — one straight loop instead of an indexed walk;
            // unselected lanes are garbage either way. `/` and `%` stay
            // selective: their zero check must see live lanes only.
            let lanes = match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul => sel.filter(|s| !is_dense(s.len(), n)),
                BinOp::Div | BinOp::Rem => sel,
            };
            // The operator is dispatched here, once per vector: each arm
            // is its own monomorphic loop.
            match op {
                BinOp::Add => map_f64(x, y, lanes, o, |p, q| p + q),
                BinOp::Sub => map_f64(x, y, lanes, o, |p, q| p - q),
                BinOp::Mul => map_f64(x, y, lanes, o, |p, q| p * q),
                BinOp::Div => map_f64(x, y, lanes, o, |p, q| p / q),
                BinOp::Rem => map_f64(x, y, lanes, o, |p, q| p % q),
            }
            // SQL: float division by zero errors, but only at live,
            // non-NULL lanes.
            if matches!(op, BinOp::Div | BinOp::Rem) {
                let bad = |i: usize| y[i] == 0.0 && !av.is_null(i) && !bv.is_null(i);
                let any_bad = match sel {
                    None => (0..n).any(bad),
                    Some(s) => s.iter().any(bad),
                };
                if any_bad {
                    return Err(VwError::DivideByZero);
                }
            }
            Ok(any)
        }),
        Instr::Cmp { op, a, b, dst } => with_dst(pool, *dst, |pool, out, buf| {
            let av = pool.opd(batch, *a);
            let bv = pool.opd(batch, *b);
            let any = union_nulls_into(n, &[av, bv], buf);
            let o = as_bool_mut(&mut out.data);
            // Typed arms write every selected lane, so unselected lanes may
            // keep garbage (the selective-kernel contract) — no zero-fill.
            primitives::resize_uninit(o, n);
            let op = *op;
            macro_rules! typed {
                ($x:expr, $y:expr, $cmp:expr) => {{
                    let (x, y) = ($x, $y);
                    #[allow(clippy::redundant_closure_call)]
                    match sel {
                        None => {
                            for i in 0..n {
                                o[i] = op.holds($cmp(&x[i], &y[i]));
                            }
                        }
                        Some(s) => {
                            for i in s.iter() {
                                o[i] = op.holds($cmp(&x[i], &y[i]));
                            }
                        }
                    }
                }};
            }
            match (&av.data, &bv.data) {
                (ColData::I64(x), ColData::I64(y)) => typed!(x, y, |p: &i64, q: &i64| p.cmp(q)),
                (ColData::I32(x), ColData::I32(y)) => typed!(x, y, |p: &i32, q: &i32| p.cmp(q)),
                (ColData::Date(x), ColData::Date(y)) => typed!(x, y, |p: &i32, q: &i32| p.cmp(q)),
                (ColData::F64(x), ColData::F64(y)) => {
                    typed!(x, y, |p: &f64, q: &f64| p.total_cmp(q))
                }
                // Strings compare where they lie: flat values or arena
                // entries through the codes, either side.
                (ColData::Str(_), ColData::Str(_)) => {
                    let (x, y) = (av.str_lanes(), bv.str_lanes());
                    for_lanes(n, sel, |i| o[i] = op.holds(x.get(i).cmp(y.get(i))));
                }
                _ => {
                    // Mixed types: Value comparison with numeric widening.
                    // Incomparable pairs must read FALSE, so this arm does
                    // zero-fill.
                    o.iter_mut().for_each(|b| *b = false);
                    for_lanes(n, sel, |i| {
                        if let Some(ord) = av.get(i).sql_cmp(&bv.get(i)) {
                            o[i] = op.holds(ord);
                        }
                    });
                }
            }
            Ok(any)
        }),
        Instr::BoolAndOr { is_and, parts, dst } => with_dst(pool, *dst, |pool, out, buf| {
            let is_and = *is_and;
            let o = as_bool_mut(&mut out.data);
            o.clear();
            o.resize(n, is_and);
            buf.clear();
            buf.resize(n, false);
            for part in parts {
                let v = pool.opd(batch, *part);
                let vals = v.data.as_bool();
                for i in 0..n {
                    let (pv, pn) = (vals[i], v.is_null(i));
                    let (av, an) = (o[i], buf[i]);
                    let (nv, nn) = if is_and {
                        // AND: false dominates, then NULL, then true.
                        if (!av && !an) || (!pv && !pn) {
                            (false, false)
                        } else if an || pn {
                            (false, true)
                        } else {
                            (true, false)
                        }
                    } else {
                        // OR: true dominates, then NULL, then false.
                        if (av && !an) || (pv && !pn) {
                            (true, false)
                        } else if an || pn {
                            (false, true)
                        } else {
                            (false, false)
                        }
                    };
                    o[i] = nv;
                    buf[i] = nn;
                }
            }
            Ok(buf.iter().any(|&b| b))
        }),
        Instr::Not { a, dst } => with_dst(pool, *dst, |pool, out, buf| {
            let v = pool.opd(batch, *a);
            let any = copy_nulls_into(n, v, buf);
            let o = as_bool_mut(&mut out.data);
            primitives::map_un_full(v.data.as_bool(), o, |b| !b);
            Ok(any)
        }),
        Instr::Cast { a, to, dst } => with_dst(pool, *dst, |pool, out, buf| {
            let v = pool.opd(batch, *a);
            let any = copy_nulls_into(n, v, buf);
            exec_cast(v, *to, sel, n, out)?;
            Ok(any)
        }),
        Instr::IsNull { a, negated, dst } => with_dst(pool, *dst, |pool, out, _| {
            let v = pool.opd(batch, *a);
            let o = as_bool_mut(&mut out.data);
            o.clear();
            match &v.nulls {
                Some(m) => o.extend(m.iter().map(|&b| b != *negated)),
                None => o.resize(n, *negated),
            }
            Ok(false)
        }),
        Instr::Case { branches, else_v, dst } => with_dst(pool, *dst, |pool, out, buf| {
            // The value operand a live lane takes (`None`: no arm holds and
            // there is no ELSE — NULL).
            let pick = |i: usize| -> Option<&Vector> {
                let arm = branches.iter().find(|(c, _)| {
                    let cv = pool.opd(batch, *c);
                    !cv.is_null(i) && cv.data.as_bool()[i]
                });
                arm.map(|(_, v)| v).or(else_v.as_ref()).map(|v| pool.opd(batch, *v))
            };
            buf.clear();
            buf.resize(n, false);
            let mut any = false;
            if out.type_id() == TypeId::Str {
                // Strings are copied from the chosen operand's lanes into
                // this vector's arena.
                let (codes, arena) = str_lanes_out(out, n);
                for_lanes(n, sel, |i| match pick(i).filter(|v| !v.is_null(i)) {
                    Some(v) => codes[i] = arena.push(v.str_lanes().get(i)),
                    None => (buf[i], any) = (true, true),
                });
                return Ok(any);
            }
            // Sorted-selection walk: dead lanes only occupy a slot (safe
            // default), live lanes run the branch scan — same structure as
            // the generic cast path.
            out.data.clear();
            let live = sel.map(SelVec::as_slice);
            let mut next = 0usize;
            for (i, null) in buf.iter_mut().enumerate() {
                let is_live = match live {
                    None => true,
                    Some(l) => {
                        if next < l.len() && l[next] as usize == i {
                            next += 1;
                            true
                        } else {
                            false
                        }
                    }
                };
                let val =
                    if is_live { pick(i).map_or(Value::Null, |v| v.get(i)) } else { Value::Null };
                if val.is_null() {
                    out.data.push_safe_default();
                    *null = is_live;
                    any |= is_live;
                } else {
                    out.data.push_value(&val)?;
                }
            }
            Ok(any)
        }),
        Instr::Call { func, args, ty, dst } => with_dst(pool, *dst, |pool, out, buf| {
            // Every scalar function takes 1..=3 arguments: resolve into a
            // stack array so Call executes allocation-free per batch.
            debug_assert!((1..=3).contains(&args.len()));
            let mut store = [pool.opd(batch, args[0]); 3];
            for (slot, a) in store.iter_mut().zip(args.iter()).skip(1) {
                *slot = pool.opd(batch, *a);
            }
            exec_func(*func, &store[..args.len()], *ty, n, sel, out, buf)
        }),
        Instr::Like { a, matcher, negated, dst } => with_dst(pool, *dst, |pool, out, buf| {
            let v = pool.opd(batch, *a);
            let any = copy_nulls_into(n, v, buf);
            let o = as_bool_mut(&mut out.data);
            // Every selected lane is written; unselected lanes are garbage.
            primitives::resize_uninit(o, n);
            let test = |s: &str| matcher.matches(s) != *negated;
            match entries_of(v, n, sel) {
                // One match per arena entry, lanes look their code up.
                Some((codes, dict)) => {
                    let ok: Vec<bool> = dict.iter().map(test).collect();
                    for_lanes(n, sel, |i| o[i] = ok[codes[i] as usize]);
                }
                None => {
                    let lanes = v.str_lanes();
                    for_lanes(n, sel, |i| o[i] = test(lanes.get(i)));
                }
            }
            Ok(any)
        }),
        Instr::Fail { message } => Err(VwError::Plan(message.clone())),
    }
}

/// Fill a register with `n` copies of a constant. Copy-type constants fill
/// by `resize` (memset-class); a string is one arena entry every lane's
/// code points at. The buffer is fully rewritten — pool slots are shared
/// between programs, so stale contents cannot be trusted.
fn fill_const(
    out: &mut Vector,
    buf: &mut Vec<bool>,
    ty: TypeId,
    v: &Value,
    n: usize,
) -> Result<bool> {
    if let (TypeId::Str, Value::Str(_) | Value::Null) = (ty, v) {
        let text = if let Value::Str(k) = v { k.as_str() } else { "" };
        let (codes, arena) = out.str_output(1, text.len());
        arena.push(text);
        codes.resize(n, 0);
    }
    if v.is_null() {
        if ty == TypeId::Str {
            buf.clear();
            buf.resize(n, true);
            return Ok(n > 0);
        }
        out.data.clear();
        for _ in 0..n {
            out.data.push_safe_default();
        }
        buf.clear();
        buf.resize(n, true);
        return Ok(n > 0);
    }
    match (&mut out.data, v) {
        (ColData::I64(o), Value::I64(k)) => {
            o.clear();
            o.resize(n, *k);
        }
        (ColData::I32(o), Value::I32(k)) => {
            o.clear();
            o.resize(n, *k);
        }
        (ColData::F64(o), Value::F64(k)) => {
            o.clear();
            o.resize(n, *k);
        }
        (ColData::Bool(o), Value::Bool(k)) => {
            o.clear();
            o.resize(n, *k);
        }
        (ColData::Date(o), Value::Date(k)) => {
            o.clear();
            o.resize(n, k.0);
        }
        (ColData::Str(_), Value::Str(_)) => {} // filled above
        _ => {
            debug_assert_eq!(out.data.type_id(), ty);
            out.data.clear();
            for _ in 0..n {
                out.data.push_value(v)?;
            }
        }
    }
    Ok(false)
}

/// Cast execution (same-type casts were elided at compile time).
fn exec_cast(
    v: &Vector,
    to: TypeId,
    sel: Option<&SelVec>,
    n: usize,
    out: &mut Vector,
) -> Result<()> {
    // Fast widening paths (full width).
    macro_rules! widen {
        ($src:expr, $o:expr, $t:ty) => {{
            let (src, o) = ($src, $o);
            o.clear();
            o.extend(src.iter().map(|&a| a as $t));
            return Ok(());
        }};
    }
    match (&v.data, to, &mut out.data) {
        (ColData::I8(s), TypeId::I64, ColData::I64(o)) => widen!(s, o, i64),
        (ColData::I16(s), TypeId::I64, ColData::I64(o)) => widen!(s, o, i64),
        (ColData::I32(s), TypeId::I64, ColData::I64(o)) => widen!(s, o, i64),
        (ColData::I8(s), TypeId::F64, ColData::F64(o)) => widen!(s, o, f64),
        (ColData::I16(s), TypeId::F64, ColData::F64(o)) => widen!(s, o, f64),
        (ColData::I32(s), TypeId::F64, ColData::F64(o)) => widen!(s, o, f64),
        (ColData::I64(s), TypeId::F64, ColData::F64(o)) => widen!(s, o, f64),
        _ => {}
    }
    if to == TypeId::Str {
        // A value's text is written straight into the output arena.
        let (codes, arena) = str_lanes_out(out, n);
        for_lanes(n, sel, |i| {
            if !v.is_null(i) {
                codes[i] = arena.push_with(|b| {
                    write!(b, "{}", v.data.get_value(i)).expect("writing to a String cannot fail")
                });
            }
        });
        return Ok(());
    }
    // Generic per-value path: live lanes convert (checked), unselected
    // lanes must still occupy slots. The selection is sorted, so a single
    // pointer walk finds the live lanes. A string source is parsed where it
    // lies.
    let out = &mut out.data;
    out.clear();
    let strs = (v.type_id() == TypeId::Str).then(|| v.str_lanes());
    let run = |i: usize, out: &mut ColData| -> Result<()> {
        if v.is_null(i) {
            out.push_safe_default();
            return Ok(());
        }
        let cast = match strs {
            Some(l) => Value::cast_str(l.get(i), to)?,
            None => v.data.get_value(i).cast_to(to)?,
        };
        out.push_value(&cast)
    };
    match sel {
        None => {
            for i in 0..n {
                run(i, out)?;
            }
        }
        Some(s) => {
            let live = s.as_slice();
            let mut next = 0usize;
            for i in 0..n {
                if next < live.len() && live[next] as usize == i {
                    next += 1;
                    run(i, out)?;
                } else {
                    out.push_safe_default();
                }
            }
        }
    }
    Ok(())
}

/// Run `f` over the live lanes: the selection, or all `n`.
#[inline]
fn for_lanes(n: usize, sel: Option<&SelVec>, mut f: impl FnMut(usize)) {
    match sel {
        None => (0..n).for_each(&mut f),
        Some(s) => s.iter().for_each(&mut f),
    }
}

/// `v`'s codes and arena when `v` is coded over an arena with no more
/// entries than the batch has live lanes — then LIKE matches once per
/// entry and lanes take their result through the code (the rule
/// `DictMemo` follows for predicates); `None` means lane by lane.
fn entries_of<'a>(
    v: &'a Vector,
    n: usize,
    sel: Option<&SelVec>,
) -> Option<(&'a [u32], &'a StrArena)> {
    let (codes, dict) = v.dict_parts()?;
    (dict.len() <= sel.map_or(n, |s| s.len())).then_some((codes, &**dict))
}

/// Make `out` a coded vector over an arena of its own for a per-lane
/// string result: entry 0 is the empty string, which every lane reads
/// until the kernel writes it (dead and NULL lanes keep it).
fn str_lanes_out(out: &mut Vector, n: usize) -> (&mut Vec<u32>, &mut StrArena) {
    let (codes, arena) = out.str_output(n + 1, 16 * n);
    arena.push("");
    codes.resize(n, 0);
    (codes, arena)
}

/// `s` upper-cased onto `b`: `str::to_uppercase`, character by
/// character, without its `String`.
fn upper_into(s: &str, b: &mut String) {
    if s.is_ascii() {
        b.extend(s.bytes().map(|c| c.to_ascii_uppercase() as char));
    } else {
        b.extend(s.chars().flat_map(char::to_uppercase));
    }
}

/// `s` lower-cased onto `b`: `str::to_lowercase` without its `String` —
/// but for a capital sigma, whose lower case depends on where in a word
/// it stands, which only `str::to_lowercase` knows.
fn lower_into(s: &str, b: &mut String) {
    if s.is_ascii() {
        b.extend(s.bytes().map(|c| c.to_ascii_lowercase() as char));
    } else if s.contains('Σ') {
        b.push_str(&s.to_lowercase());
    } else {
        b.extend(s.chars().flat_map(char::to_lowercase));
    }
}

/// Characters `start..start + take` of `s` (0-based, clipped to `s`).
fn substr(s: &str, start: usize, take: usize) -> &str {
    if s.is_ascii() {
        let from = start.min(s.len());
        return &s[from..from + take.min(s.len() - from)];
    }
    let at = |s: &str, k: usize| s.char_indices().nth(k).map_or(s.len(), |(i, _)| i);
    let from = at(s, start);
    let rest = &s[from..];
    &rest[..at(rest, take)]
}

/// `str::replace(s, from, to)` onto `b`; an empty `from` leaves `s` as is.
fn replace_into(s: &str, from: &str, to: &str, b: &mut String) {
    if from.is_empty() {
        b.push_str(s);
        return;
    }
    let mut last = 0;
    for (at, m) in s.match_indices(from) {
        b.push_str(&s[last..at]);
        b.push_str(to);
        last = at + m.len();
    }
    b.push_str(&s[last..]);
}

fn arg_err(func: Func, msg: &str) -> VwError {
    VwError::InvalidParameter(format!("{func:?}: {msg}"))
}

/// Scalar function execution into a pooled register. String arguments
/// are read where they lie and string results written into the
/// register's own arena ([`Vector::str_output`]), once per live lane.
fn exec_func(
    func: Func,
    vs: &[&Vector],
    ty: TypeId,
    n: usize,
    sel: Option<&SelVec>,
    out: &mut Vector,
    buf: &mut Vec<bool>,
) -> Result<bool> {
    let any = union_nulls_into(n, vs, buf);
    let live = |i: usize| -> bool { !(any && buf[i]) };
    // A string result per live non-NULL lane: `$step` appends the result
    // for first argument `$s` onto `$b`, its other arguments read at lane
    // `$k`.
    macro_rules! str_result {
        (|$s:ident, $k:ident, $b:ident| $step:expr) => {{
            let lanes = vs[0].str_lanes();
            let (codes, arena) = str_lanes_out(out, n);
            for_lanes(n, sel, |i| {
                if live(i) {
                    let ($s, $k) = (lanes.get(i), i);
                    codes[i] = arena.push_with(|$b| $step);
                }
            });
        }};
    }
    macro_rules! for_live {
        ($body:expr) => {{
            match sel {
                None => {
                    for i in 0..n {
                        $body(i)?;
                    }
                }
                Some(s) => {
                    for i in s.iter() {
                        $body(i)?;
                    }
                }
            }
        }};
    }
    // Reset a typed output buffer to `n` default lanes.
    macro_rules! fresh {
        ($o:expr, $d:expr) => {{
            let o = $o;
            o.clear();
            o.resize(n, $d);
            o
        }};
    }
    match func {
        Func::Upper => str_result!(|s, _k, b| upper_into(s, b)),
        Func::Lower => str_result!(|s, _k, b| lower_into(s, b)),
        Func::Trim => str_result!(|s, _k, b| b.push_str(s.trim())),
        Func::Length => {
            let chars = |s: &str| s.chars().count() as i64;
            let o = fresh!(as_i64_mut(&mut out.data), 0i64);
            let lanes = vs[0].str_lanes();
            for_lanes(n, sel, |i| o[i] = chars(lanes.get(i)));
        }
        Func::Substr => {
            let start = vs[1].data.as_i64();
            let len = vs.get(2).map(|v| v.data.as_i64());
            // Lane i's 0-based start and character count, checked.
            let bounds = |i: usize| -> Result<(usize, usize)> {
                if start[i] < 1 {
                    return Err(arg_err(func, "start position must be >= 1"));
                }
                let take = match len {
                    Some(l) if l[i] < 0 => return Err(arg_err(func, "length must be >= 0")),
                    Some(l) => l[i] as usize,
                    None => usize::MAX,
                };
                Ok((start[i] as usize - 1, take))
            };
            let lanes = vs[0].str_lanes();
            let (codes, arena) = str_lanes_out(out, n);
            let mut f = |i: usize| -> Result<()> {
                if live(i) {
                    let (from, take) = bounds(i)?;
                    codes[i] = arena.push(substr(lanes.get(i), from, take));
                }
                Ok(())
            };
            for_live!(f);
        }
        Func::Concat => {
            let tail = vs[1].str_lanes();
            str_result!(|s, k, b| {
                b.push_str(s);
                b.push_str(tail.get(k));
            })
        }
        Func::Replace => {
            let (from, to) = (vs[1].str_lanes(), vs[2].str_lanes());
            str_result!(|s, k, b| replace_into(s, from.get(k), to.get(k), b))
        }
        Func::Abs => match &vs[0].data {
            ColData::I64(x) => {
                let o = fresh!(as_i64_mut(&mut out.data), 0i64);
                let mut f = |i: usize| -> Result<()> {
                    if live(i) {
                        o[i] = x[i].checked_abs().ok_or(VwError::Overflow("ABS"))?;
                    }
                    Ok(())
                };
                for_live!(f);
            }
            ColData::F64(x) => {
                let o = fresh!(as_f64_mut(&mut out.data), 0f64);
                let mut f = |i: usize| -> Result<()> {
                    o[i] = x[i].abs();
                    Ok(())
                };
                for_live!(f);
            }
            other => return Err(arg_err(func, &format!("bad input {}", other.type_id()))),
        },
        Func::Sqrt => {
            let x = vs[0].data.as_f64();
            let o = fresh!(as_f64_mut(&mut out.data), 0f64);
            let mut f = |i: usize| -> Result<()> {
                if live(i) {
                    if x[i] < 0.0 {
                        return Err(arg_err(func, "negative input"));
                    }
                    o[i] = x[i].sqrt();
                }
                Ok(())
            };
            for_live!(f);
        }
        Func::Floor | Func::Ceil | Func::Round => {
            let x = vs[0].data.as_f64();
            let o = fresh!(as_f64_mut(&mut out.data), 0f64);
            let mut f = |i: usize| -> Result<()> {
                o[i] = match func {
                    Func::Floor => x[i].floor(),
                    Func::Ceil => x[i].ceil(),
                    _ => x[i].round(),
                };
                Ok(())
            };
            for_live!(f);
        }
        Func::Extract => {
            let ColData::Date(days) = &vs[0].data else {
                return Err(arg_err(func, "first argument must be DATE"));
            };
            let field_code = vs[1].data.as_i64();
            let o = fresh!(as_i64_mut(&mut out.data), 0i64);
            let mut f = |i: usize| -> Result<()> {
                if live(i) {
                    let field = decode_field(field_code[i])?;
                    o[i] = field.extract(days[i]) as i64;
                }
                Ok(())
            };
            for_live!(f);
        }
        Func::DateAddDays => {
            let ColData::Date(days) = &vs[0].data else {
                return Err(arg_err(func, "first argument must be DATE"));
            };
            let delta = vs[1].data.as_i64();
            let o = fresh!(as_date_mut(&mut out.data), 0i32);
            let mut f = |i: usize| -> Result<()> {
                if live(i) {
                    let v = i64::from(days[i]).checked_add(delta[i]);
                    let v = v.and_then(|v| i32::try_from(v).ok());
                    o[i] = v.ok_or(VwError::Overflow("DATE + days"))?;
                }
                Ok(())
            };
            for_live!(f);
        }
        Func::DateAddMonths => {
            let ColData::Date(days) = &vs[0].data else {
                return Err(arg_err(func, "first argument must be DATE"));
            };
            let delta = vs[1].data.as_i64();
            let o = fresh!(as_date_mut(&mut out.data), 0i32);
            let mut f = |i: usize| -> Result<()> {
                if live(i) {
                    let m =
                        i32::try_from(delta[i]).map_err(|_| VwError::Overflow("DATE + months"))?;
                    o[i] = vw_common::date::add_months(days[i], m)?;
                }
                Ok(())
            };
            for_live!(f);
        }
        Func::DateDiffDays => {
            let (ColData::Date(a), ColData::Date(b)) = (&vs[0].data, &vs[1].data) else {
                return Err(arg_err(func, "arguments must be DATE"));
            };
            let o = fresh!(as_i64_mut(&mut out.data), 0i64);
            let mut f = |i: usize| -> Result<()> {
                o[i] = a[i] as i64 - b[i] as i64;
                Ok(())
            };
            for_live!(f);
        }
    }
    debug_assert_eq!(out.data.type_id(), ty);
    Ok(any)
}

fn as_date_mut(c: &mut ColData) -> &mut Vec<i32> {
    match c {
        ColData::Date(v) => v,
        other => panic!("register type mismatch: expected Date, got {}", other.type_id()),
    }
}

// ---------------------------------------------------------------------------
// SelectProgram
// ---------------------------------------------------------------------------

/// A compiled predicate: produces the selection of live rows where the
/// expression is TRUE (NULL counts as false). Conjunctions chain narrowed
/// selections through selective steps without materializing boolean
/// intermediates; hot `col <op> const` shapes hit typed select kernels.
pub struct SelectProgram {
    node: SelNode,
}

/// One predicate's qualifying-code bitmap over one string arena:
/// `ok[code]` says whether the entry satisfies the predicate. A pack's
/// vectors share their arena `Arc`, so a bitmap serves the whole pack. It
/// is built only for an arena with no more entries than the batch has
/// live lanes, so the per-entry work never exceeds the per-lane work it
/// replaces; a larger arena (a raw block's rows, a wide dictionary) is
/// tested lane by lane. The memo holds the `Arc` it was computed for —
/// pointer equality then means "the same arena", not "an allocation that
/// happens to sit where a freed one did".
#[derive(Default)]
struct DictMemo {
    dict: Option<Arc<StrArena>>,
    ok: Vec<bool>,
}

impl DictMemo {
    /// The bitmap of `dict`, or `None` when building it would cost more
    /// than testing the batch's `lanes` live lanes.
    fn bitmap(
        &mut self,
        dict: &Arc<StrArena>,
        lanes: usize,
        qualifies: impl Fn(&str) -> bool,
    ) -> Option<&[bool]> {
        if !self.dict.as_ref().is_some_and(|d| Arc::ptr_eq(d, dict)) {
            if dict.len() > lanes {
                return None;
            }
            self.ok.clear();
            self.ok.extend(dict.iter().map(qualifies));
            self.dict = Some(dict.clone());
        }
        Some(&self.ok)
    }
}

enum SelNode {
    /// Chained narrowing: each step sees only survivors of the previous.
    Conj(Vec<SelNode>),
    /// Union of branch selections, each under the incoming selection.
    Disj(Vec<SelNode>),
    /// Typed `col <op> const` select kernel (no boolean intermediate).
    /// Dictionary-coded string columns are decided with one comparison
    /// per distinct value (qualifying-code bitmap); RLE-sidecar integer
    /// columns accept/reject whole runs.
    CmpColConst { op: CmpOp, col: usize, val: Value, memo: DictMemo },
    /// `col LIKE pattern` with the pattern compiled once. On a
    /// dictionary-coded column the matcher runs once per distinct value.
    LikeCol { col: usize, matcher: LikeMatcher, negated: bool, memo: DictMemo },
    /// String `e IN (k, …)`, bound as the OR of `e = k` arms: `e` is
    /// evaluated once (a bare column is read in place) and each live lane
    /// looks its value up among the sorted, deduplicated non-NULL
    /// constants — once per arena entry over a coded `e`, under the
    /// bitmap rule.
    InSet { e: ExprProgram, set: Vec<String>, memo: DictMemo },
    /// Constant predicate (TRUE keeps the incoming selection).
    ConstBool(bool),
    /// Irreducible boolean expression: evaluate, then keep TRUE non-NULLs.
    Bool(ExprProgram),
}

impl SelectProgram {
    /// Compile a predicate.
    pub fn compile(pred: &PhysExpr) -> SelectProgram {
        // One linear pass marks const-ness per node; compile_sel then asks
        // in O(1) instead of re-walking subtrees at every And/Or level.
        let mut consts = HashMap::new();
        mark_const(pred, &mut consts);
        SelectProgram { node: compile_sel(pred, &consts) }
    }

    /// Total boolean-program instructions (observability; the typed steps
    /// count as zero — that is the point of the fused path).
    pub fn len(&self) -> usize {
        fn count(n: &SelNode) -> usize {
            match n {
                SelNode::Conj(v) | SelNode::Disj(v) => v.iter().map(count).sum(),
                SelNode::Bool(p) | SelNode::InSet { e: p, .. } => p.len(),
                _ => 0,
            }
        }
        count(&self.node)
    }

    /// True when no boolean sub-program is needed anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluate against `batch` under its own selection, producing the
    /// surviving positions.
    pub fn run(&mut self, pool: &mut VectorPool, batch: &Batch) -> Result<SelVec> {
        run_sel(&mut self.node, pool, batch, batch.sel.as_ref())
    }
}

/// Evaluate a column-free expression to a single value — the one
/// constant evaluator: compile it with folding off and run it over a
/// one-row batch, so the constant comes out of the kernels a column
/// expression would use, errors included (overflow, division by zero, a
/// failed cast). Plan-time folding and literal INSERT rows call it
/// directly; expression and predicate compilation through
/// `fold_const_value`.
pub fn eval_const(e: &PhysExpr) -> Result<Value> {
    // One-row dummy batch: the expression references no columns.
    let batch = Batch::new(vec![Vector::new(ColData::I64(vec![0]))]);
    let mut pool = VectorPool::new();
    let r = ExprProgram::compile_with(e, false).run(&mut pool, &batch)?;
    Ok(pool.get(&batch, r).get(0))
}

/// [`eval_const`] for compilation (`try_fold`, `compile_sel`): `None` when
/// evaluation errors, and callers leave the subtree compiled so the error
/// still surfaces at run time.
fn fold_const_value(e: &PhysExpr) -> Option<Value> {
    eval_const(e).ok()
}

/// Linear const-ness marking (no short-circuit: every node gets an entry).
fn mark_const(e: &PhysExpr, out: &mut HashMap<*const PhysExpr, bool>) -> bool {
    let c = match e {
        PhysExpr::ColRef(..) => false,
        PhysExpr::Const(..) => true,
        other => {
            // Visit every child (no short-circuit: each needs its entry).
            let mut all = true;
            for ch in other.children() {
                all &= mark_const(ch, out);
            }
            all
        }
    };
    out.insert(e as *const PhysExpr, c);
    c
}

fn compile_sel(pred: &PhysExpr, consts: &HashMap<*const PhysExpr, bool>) -> SelNode {
    // Constant predicates fold to a keep-all / drop-all step (NULL is
    // never TRUE, so it drops everything).
    if consts[&(pred as *const PhysExpr)] {
        match fold_const_value(pred) {
            Some(Value::Bool(b)) => return SelNode::ConstBool(b),
            Some(Value::Null) => return SelNode::ConstBool(false),
            _ => {}
        }
    }
    match pred {
        PhysExpr::And(parts) => {
            SelNode::Conj(parts.iter().map(|p| compile_sel(p, consts)).collect())
        }
        PhysExpr::Or(parts) => in_set(parts).unwrap_or_else(|| {
            SelNode::Disj(parts.iter().map(|p| compile_sel(p, consts)).collect())
        }),
        PhysExpr::Cmp { op, lhs, rhs } => {
            if let (PhysExpr::ColRef(ci, cty), PhysExpr::Const(k, _)) = (lhs.as_ref(), rhs.as_ref())
            {
                let typed = matches!(
                    (cty, k),
                    (TypeId::I64, Value::I64(_))
                        | (TypeId::I32, Value::I32(_))
                        | (TypeId::Date, Value::Date(_))
                        | (TypeId::F64, Value::F64(_))
                        | (TypeId::Str, Value::Str(_))
                );
                if typed {
                    return SelNode::CmpColConst {
                        op: *op,
                        col: *ci,
                        val: k.clone(),
                        memo: DictMemo::default(),
                    };
                }
            }
            SelNode::Bool(ExprProgram::compile(pred))
        }
        PhysExpr::Like { input, pattern, negated } => {
            if let PhysExpr::ColRef(ci, TypeId::Str) = input.as_ref() {
                return SelNode::LikeCol {
                    col: *ci,
                    matcher: LikeMatcher::new(pattern),
                    negated: *negated,
                    memo: DictMemo::default(),
                };
            }
            SelNode::Bool(ExprProgram::compile(pred))
        }
        _ => SelNode::Bool(ExprProgram::compile(pred)),
    }
}

/// The [`SelNode::InSet`] of an OR of two or more `e = constant` arms over
/// one string `e`; `None` for any other disjunction (an integer IN list
/// stays a `Disj` of typed compares, which take RLE runs whole). An
/// `e = NULL` arm is never TRUE, so it adds no member.
fn in_set(parts: &[PhysExpr]) -> Option<SelNode> {
    let mut e = None;
    let mut set = Vec::new();
    for p in parts {
        let PhysExpr::Cmp { op: CmpOp::Eq, lhs, rhs } = p else { return None };
        if lhs.type_id() != TypeId::Str || *e.get_or_insert(lhs.as_ref()) != lhs.as_ref() {
            return None;
        }
        match rhs.as_ref() {
            PhysExpr::Const(Value::Null, _) => {}
            PhysExpr::Const(Value::Str(k), _) => set.push(k.clone()),
            _ => return None,
        }
    }
    let e = e.filter(|e| parts.len() >= 2 && !e.is_const())?;
    set.sort_unstable();
    set.dedup();
    Some(SelNode::InSet { e: ExprProgram::compile(e), set, memo: DictMemo::default() })
}

fn run_sel(
    node: &mut SelNode,
    pool: &mut VectorPool,
    batch: &Batch,
    sel: Option<&SelVec>,
) -> Result<SelVec> {
    let n = batch.capacity();
    match node {
        SelNode::ConstBool(true) => {
            let mut out = pool.take_sel();
            match sel {
                Some(s) => out.clear_and_extend_from_slice(s.as_slice()),
                None => out.fill_identity(n),
            }
            Ok(out)
        }
        SelNode::ConstBool(false) => Ok(pool.take_sel()),
        SelNode::Conj(parts) => {
            let mut cur: Option<SelVec> = None;
            for p in parts {
                let next = run_sel(p, pool, batch, cur.as_ref().or(sel))?;
                if let Some(prev) = cur.replace(next) {
                    pool.put_sel(prev);
                }
                if cur.as_ref().is_some_and(|s| s.is_empty()) {
                    break; // nothing survives; later conjuncts are no-ops
                }
            }
            match cur {
                Some(s) => Ok(s),
                None => {
                    let mut out = pool.take_sel();
                    match sel {
                        Some(s) => out.clear_and_extend_from_slice(s.as_slice()),
                        None => out.fill_identity(n),
                    }
                    Ok(out)
                }
            }
        }
        SelNode::Disj(parts) => {
            let mut acc = pool.take_sel();
            let mut tmp = pool.take_sel();
            for p in parts {
                let s = run_sel(p, pool, batch, sel)?;
                union_sorted_into(&acc, &s, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
                pool.put_sel(s);
            }
            pool.put_sel(tmp);
            Ok(acc)
        }
        SelNode::CmpColConst { op, col, val, memo } => {
            let colv = &batch.columns[*col];
            let mut out = pool.take_sel();
            pool.enc_skipped += select_col_const(*op, colv, val, memo, n, sel, &mut out);
            Ok(out)
        }
        SelNode::LikeCol { col, matcher, negated, memo } => {
            let colv = &batch.columns[*col];
            let mut out = pool.take_sel();
            pool.enc_skipped +=
                select_str(colv, memo, n, sel, &mut out, |s| matcher.matches(s) != *negated);
            Ok(out)
        }
        SelNode::InSet { e, set, memo } => {
            let mut out = pool.take_sel();
            let vr = e.run_with_sel(pool, batch, sel)?;
            let v = pool.get(batch, vr);
            pool.enc_skipped += select_str(v, memo, n, sel, &mut out, |s| {
                set.binary_search_by(|k| k.as_str().cmp(s)).is_ok()
            });
            Ok(out)
        }
        SelNode::Bool(prog) => {
            let vr = prog.run_with_sel(pool, batch, sel)?;
            let mut out = pool.take_sel();
            let v = pool.get(batch, vr);
            let vals = v.data.as_bool();
            select_where(v.nulls.as_deref(), n, sel, &mut out, |i| vals[i]);
            Ok(out)
        }
    }
}

/// Select the live non-NULL lanes of string vector `v` whose value passes
/// `test`: once per arena entry through `memo`'s bitmap when `v` is coded
/// over a small enough arena (returning the lanes so decided), else lane
/// by lane where the strings lie.
fn select_str(
    v: &Vector,
    memo: &mut DictMemo,
    n: usize,
    sel: Option<&SelVec>,
    out: &mut SelVec,
    test: impl Fn(&str) -> bool,
) -> u64 {
    let nulls = v.nulls.as_deref();
    if let Some((codes, dict)) = v.dict_parts() {
        let live = sel.map_or(n, |s| s.len());
        if let Some(ok) = memo.bitmap(dict, live, &test) {
            select_where(nulls, n, sel, out, |i| ok[codes[i] as usize]);
            return live as u64;
        }
    }
    let lanes = v.str_lanes();
    select_where(nulls, n, sel, out, |i| test(lanes.get(i)));
    0
}

/// Select the live non-NULL lanes where `pred` holds; whether there is a
/// NULL indicator to consult is decided here, once per vector.
#[inline]
fn select_where(
    nulls: Option<&[bool]>,
    n: usize,
    sel: Option<&SelVec>,
    out: &mut SelVec,
    pred: impl Fn(usize) -> bool,
) {
    match nulls {
        None => primitives::select_by(n, sel, out, pred),
        Some(m) => primitives::select_by(n, sel, out, |i| !m[i] && pred(i)),
    }
}

/// Select the live non-NULL lanes where `at(i) <op> k`: `op` is matched
/// once per vector, each arm a monomorphic compare — no `Ordering`, no
/// per-row operator dispatch.
fn select_cmp<T: PartialOrd + Copy>(
    op: CmpOp,
    at: impl Fn(usize) -> T,
    k: T,
    nulls: Option<&[bool]>,
    n: usize,
    sel: Option<&SelVec>,
    out: &mut SelVec,
) {
    match op {
        CmpOp::Eq => select_where(nulls, n, sel, out, |i| at(i) == k),
        CmpOp::Ne => select_where(nulls, n, sel, out, |i| at(i) != k),
        CmpOp::Lt => select_where(nulls, n, sel, out, |i| at(i) < k),
        CmpOp::Le => select_where(nulls, n, sel, out, |i| at(i) <= k),
        CmpOp::Gt => select_where(nulls, n, sel, out, |i| at(i) > k),
        CmpOp::Ge => select_where(nulls, n, sel, out, |i| at(i) >= k),
    }
}

/// `f64::total_cmp`'s order as an integer key: `key(a) < key(b)` exactly
/// when `a.total_cmp(&b)` is `Less` (so -0.0 < 0.0 and NaN sorts last, as
/// `Instr::Cmp` and `Value::sql_cmp` have it) — three integer ops per
/// lane, then a plain integer compare.
#[inline]
fn f64_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Typed `col <op> const` selection — the X100 `select_*` kernels.
/// Returns the number of rows decided at the encoding level (dict-code
/// bitmap or RLE run test) rather than by per-row value comparison.
fn select_col_const(
    op: CmpOp,
    col: &Vector,
    k: &Value,
    memo: &mut DictMemo,
    n: usize,
    sel: Option<&SelVec>,
    out: &mut SelVec,
) -> u64 {
    let nulls = col.nulls.as_deref();
    // Coded strings: one comparison per arena entry builds a
    // qualifying-code bitmap and rows reduce to a code lookup; or one
    // comparison per lane, through the code.
    if let (Some((codes, dict)), Value::Str(k)) = (col.dict_parts(), k) {
        let live = sel.map_or(n, |s| s.len());
        if let Some(ok) = memo.bitmap(dict, live, |d| op.holds(d.cmp(k.as_str()))) {
            select_where(nulls, n, sel, out, |i| ok[codes[i] as usize]);
            return live as u64;
        }
        select_cmp(op, |i| &dict[codes[i] as usize], k.as_str(), nulls, n, sel, out);
        return 0;
    }
    // RLE runs over a dense, NULL-free integer column: one comparison
    // accepts or rejects the whole run.
    if sel.is_none() && nulls.is_none() {
        if let Some(runs) = col.rle_runs() {
            let kk = match k {
                Value::I64(v) => Some(*v),
                Value::I32(v) => Some(*v as i64),
                Value::Date(d) => Some(d.0 as i64),
                _ => None,
            };
            if let Some(kk) = kk {
                out.clear();
                let mut pos = 0u32;
                for &(v, len) in runs {
                    if op.holds(v.cmp(&kk)) {
                        for i in pos..pos + len {
                            out.push(i);
                        }
                    }
                    pos += len;
                }
                return n as u64;
            }
        }
    }
    match (&col.data, k) {
        (ColData::I64(v), Value::I64(k)) => select_cmp(op, |i| v[i], *k, nulls, n, sel, out),
        (ColData::I32(v), Value::I32(k)) => select_cmp(op, |i| v[i], *k, nulls, n, sel, out),
        (ColData::Date(v), Value::Date(k)) => select_cmp(op, |i| v[i], k.0, nulls, n, sel, out),
        (ColData::F64(v), Value::F64(k)) => {
            select_cmp(op, |i| f64_order_key(v[i]), f64_order_key(*k), nulls, n, sel, out)
        }
        (ColData::Str(v), Value::Str(k)) => {
            select_cmp(op, |i| v[i].as_str(), k.as_str(), nulls, n, sel, out)
        }
        _ => unreachable!("compile_sel only emits CmpColConst for matching types"),
    }
    0
}

/// Merge two sorted selections into `out` (cleared first).
fn union_sorted_into(a: &SelVec, b: &SelVec, out: &mut SelVec) {
    out.clear();
    let (x, y) = (a.as_slice(), b.as_slice());
    let (mut i, mut j) = (0, 0);
    while i < x.len() || j < y.len() {
        let take_x = j >= y.len() || (i < x.len() && x[i] <= y[j]);
        if take_x {
            if j < y.len() && x[i] == y[j] {
                j += 1;
            }
            out.push(x[i]);
            i += 1;
        } else {
            out.push(y[j]);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize, ty: TypeId) -> PhysExpr {
        PhysExpr::ColRef(i, ty)
    }

    fn lit(v: i64) -> PhysExpr {
        PhysExpr::Const(Value::I64(v), TypeId::I64)
    }

    fn arith(op: BinOp, l: PhysExpr, r: PhysExpr) -> PhysExpr {
        PhysExpr::Arith { op, lhs: Box::new(l), rhs: Box::new(r), ty: TypeId::I64 }
    }

    fn batch_i64(vals: Vec<i64>) -> Batch {
        Batch::new(vec![Vector::new(ColData::I64(vals))])
    }

    fn nullable_i64(vals: Vec<Option<i64>>) -> Vector {
        let mut v = Vector::new(ColData::new(TypeId::I64));
        for x in vals {
            v.push(&x.map_or(Value::Null, Value::I64)).unwrap();
        }
        v
    }

    /// Run a program and read its result values at every lane.
    /// The reference value of `e` at position `i` of `batch`.
    fn reference_at(e: &PhysExpr, batch: &Batch, i: usize) -> Value {
        let tuple: Vec<Value> = batch.columns.iter().map(|c| c.get(i)).collect();
        e.eval_tuple(&tuple).unwrap()
    }

    /// The live positions of `batch` predicate `e` selects, per tuple.
    fn reference_selection(e: &PhysExpr, batch: &Batch) -> SelVec {
        let selects = |&i: &usize| {
            let tuple: Vec<Value> = batch.columns.iter().map(|c| c.get(i)).collect();
            e.selects_tuple(&tuple).unwrap()
        };
        batch.live().filter(selects).map(|i| i as u32).collect()
    }

    fn run_values(prog: &ExprProgram, pool: &mut VectorPool, batch: &Batch) -> Vec<Value> {
        let vr = prog.run(pool, batch).unwrap();
        let v = pool.get(batch, vr);
        let out = (0..v.len()).map(|i| v.get(i)).collect();
        pool.recycle();
        out
    }

    #[test]
    fn constant_subtrees_fold_to_one_fill() {
        // (1 + 2) * x: the (1 + 2) subtree folds at compile time.
        let e = arith(BinOp::Mul, arith(BinOp::Add, lit(1), lit(2)), col(0, TypeId::I64));
        let p = ExprProgram::compile(&e);
        assert_eq!(p.len(), 2, "ConstFill(3) + Mul — no instructions for the folded subtree");
        let mut pool = VectorPool::new();
        assert_eq!(
            run_values(&p, &mut pool, &batch_i64(vec![5, 7])),
            vec![Value::I64(15), Value::I64(21)]
        );
    }

    #[test]
    fn erroring_constants_stay_compiled_and_fail_at_run_time() {
        // A constant whose evaluation errors must not fold the error away,
        // nor raise it at compile time: it stays compiled (more than the
        // one fill a fold leaves) and raises the kernel's own error per run
        // — beside a column, alone, and for `x % 0`, where only the
        // denominator is constant.
        let x = || col(0, TypeId::I64);
        let div0 = || arith(BinOp::Div, lit(1), lit(0));
        let max_plus_1 = || arith(BinOp::Add, lit(i64::MAX), lit(1));
        let cases = [
            (arith(BinOp::Add, x(), div0()), VwError::DivideByZero),
            (div0(), VwError::DivideByZero),
            (arith(BinOp::Add, x(), max_plus_1()), VwError::Overflow("BIGINT +")),
            (max_plus_1(), VwError::Overflow("BIGINT +")),
            (arith(BinOp::Rem, x(), lit(0)), VwError::DivideByZero),
        ];
        for (e, want) in &cases {
            let p = ExprProgram::compile(e);
            assert!(p.len() > 1, "{e:?} must stay compiled");
            let mut pool = VectorPool::new();
            for _ in 0..2 {
                assert_eq!(p.run(&mut pool, &batch_i64(vec![1])).as_ref(), Err(want), "{e:?}");
                pool.recycle();
            }
        }
    }

    #[test]
    fn common_subexpressions_compile_once() {
        // (x + 1) * (x + 1): one Add, one ConstFill, one Mul.
        let sub = arith(BinOp::Add, col(0, TypeId::I64), lit(1));
        let e = arith(BinOp::Mul, sub.clone(), sub);
        let p = ExprProgram::compile(&e);
        assert_eq!(p.len(), 3, "shared subexpression must compile exactly once");
        let mut pool = VectorPool::new();
        assert_eq!(run_values(&p, &mut pool, &batch_i64(vec![3])), vec![Value::I64(16)]);
    }

    #[test]
    fn registers_are_reused_down_long_chains() {
        // ((((x+1)+2)+3)+4)+5 — releases let the chain run in few slots.
        let mut e = col(0, TypeId::I64);
        for k in 1..=5 {
            e = arith(BinOp::Add, e, lit(k));
        }
        let p = ExprProgram::compile(&e);
        assert!(
            p.n_regs() <= 4,
            "expected register reuse, got {} regs for a 5-add chain",
            p.n_regs()
        );
        let mut pool = VectorPool::new();
        assert_eq!(run_values(&p, &mut pool, &batch_i64(vec![0])), vec![Value::I64(15)]);
    }

    #[test]
    fn identity_cast_is_elided_without_corrupting_reuse() {
        // CAST(x+1 AS BIGINT) used twice alongside the bare x+1: the cast
        // forwards to the shared register; releases must not double-free.
        let sub = arith(BinOp::Add, col(0, TypeId::I64), lit(1));
        let cast = PhysExpr::Cast { input: Box::new(sub.clone()), to: TypeId::I64 };
        let e = arith(BinOp::Mul, cast.clone(), arith(BinOp::Add, cast, sub));
        let p = ExprProgram::compile(&e);
        let mut pool = VectorPool::new();
        // x = 2 → (3) * (3 + 3) = 18.
        assert_eq!(run_values(&p, &mut pool, &batch_i64(vec![2])), vec![Value::I64(18)]);
    }

    #[test]
    fn nested_identity_casts_resolve_alias_chains() {
        // CAST(CAST(x+1)) shared via CSE: the outer cast's use-count
        // transfer must land on the terminal register holder (x+1), not on
        // the inner cast's key — otherwise releases underflow x+1's count
        // and free its register while consumers remain.
        let sub = arith(BinOp::Add, col(0, TypeId::I64), lit(1));
        let inner = PhysExpr::Cast { input: Box::new(sub.clone()), to: TypeId::I64 };
        let outer = PhysExpr::Cast { input: Box::new(inner), to: TypeId::I64 };
        let e = arith(BinOp::Mul, outer.clone(), outer);
        let p = ExprProgram::compile(&e);
        let mut pool = VectorPool::new();
        // x = 3 → (4) * (4) = 16.
        assert_eq!(run_values(&p, &mut pool, &batch_i64(vec![3])), vec![Value::I64(16)]);
        // And mixed with a direct use of the uncast subexpression.
        let outer2 = PhysExpr::Cast {
            input: Box::new(PhysExpr::Cast { input: Box::new(sub.clone()), to: TypeId::I64 }),
            to: TypeId::I64,
        };
        let e2 = arith(BinOp::Mul, outer2, arith(BinOp::Add, sub.clone(), sub));
        let p2 = ExprProgram::compile(&e2);
        // x = 2 → 3 * 6 = 18.
        assert_eq!(run_values(&p2, &mut pool, &batch_i64(vec![2])), vec![Value::I64(18)]);
    }

    #[test]
    fn pool_slots_stabilize_across_batches() {
        let e = arith(BinOp::Add, arith(BinOp::Mul, col(0, TypeId::I64), lit(2)), lit(1));
        let p = ExprProgram::compile(&e);
        let mut pool = VectorPool::new();
        let batch = batch_i64((0..1024).collect());
        run_values(&p, &mut pool, &batch);
        let slots_after_first = pool.slots.len();
        for _ in 0..10 {
            run_values(&p, &mut pool, &batch);
        }
        assert_eq!(pool.slots.len(), slots_after_first, "steady state must not grow the arena");
    }

    /// The dedicated Div/Rem instruction patches NULL denominators to 1:
    /// a NULL lane's safe value 0 must not raise a division by zero.
    #[test]
    fn div_rem_null_denominators_are_null_not_errors() {
        for op in [BinOp::Div, BinOp::Rem] {
            let num = nullable_i64(vec![Some(10), None, Some(12)]);
            let den = nullable_i64(vec![Some(2), None, None]);
            let batch = Batch::new(vec![num, den]);
            let e = arith(op, col(0, TypeId::I64), col(1, TypeId::I64));
            let p = ExprProgram::compile(&e);
            let mut pool = VectorPool::new();
            let got = run_values(&p, &mut pool, &batch);
            let want = match op {
                BinOp::Div => vec![Value::I64(5), Value::Null, Value::Null],
                _ => vec![Value::I64(0), Value::Null, Value::Null],
            };
            assert_eq!(got, want, "{op:?}");
            // And identically through the reference.
            for (i, w) in want.iter().enumerate() {
                assert_eq!(&reference_at(&e, &batch, i), w, "reference {op:?}");
            }
        }
    }

    #[test]
    fn div_by_actual_zero_still_errors() {
        for op in [BinOp::Div, BinOp::Rem] {
            let e = arith(op, col(0, TypeId::I64), col(1, TypeId::I64));
            let batch = Batch::new(vec![
                Vector::new(ColData::I64(vec![1])),
                Vector::new(ColData::I64(vec![0])),
            ]);
            let p = ExprProgram::compile(&e);
            let mut pool = VectorPool::new();
            assert!(matches!(p.run(&mut pool, &batch), Err(VwError::DivideByZero)));
        }
    }

    #[test]
    fn div_by_zero_outside_selection_is_ignored() {
        let e = arith(BinOp::Div, col(0, TypeId::I64), col(1, TypeId::I64));
        let p = ExprProgram::compile(&e);
        let mut batch = Batch::new(vec![
            Vector::new(ColData::I64(vec![8, 9])),
            Vector::new(ColData::I64(vec![0, 3])),
        ]);
        batch.sel = Some(SelVec::from_positions(vec![1]));
        let mut pool = VectorPool::new();
        let vr = p.run(&mut pool, &batch).unwrap();
        assert_eq!(pool.get(&batch, vr).get(1), Value::I64(3));
    }

    #[test]
    fn f64_arithmetic_agrees_with_the_reference_at_every_density() {
        // `+ - *` compute every lane over a dense selection and the
        // selected ones over a sparse one; either way every live lane
        // carries the reference's bits (signed zeros, NaN, infinities,
        // subnormals and NULLs included).
        let n = 1024;
        let special =
            [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE / 3.0];
        let x: Vec<f64> = (0..n)
            .map(|i| special.get(i % 97).copied().unwrap_or(i as f64 * 0.37 - 150.0))
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| special.get(i % 89).copied().unwrap_or(1e3 / (i as f64 + 0.5)))
            .collect();
        let y_nulls: Vec<bool> = (0..n).map(|i| i % 11 == 3).collect();
        for pct in [0u32, 5, 50, 95, 100] {
            let sel: SelVec = (0..n as u32).filter(|&p| p * 37 % 100 < pct).collect();
            for op in [BinOp::Add, BinOp::Sub, BinOp::Mul] {
                let e = PhysExpr::Arith {
                    op,
                    lhs: Box::new(col(0, TypeId::F64)),
                    rhs: Box::new(col(1, TypeId::F64)),
                    ty: TypeId::F64,
                };
                let mut batch = Batch::new(vec![
                    Vector::new(ColData::F64(x.clone())),
                    Vector::with_nulls(ColData::F64(y.clone()), Some(y_nulls.clone())),
                ]);
                batch.sel = Some(sel.clone());
                let mut pool = VectorPool::new();
                let vr = ExprProgram::compile(&e).run(&mut pool, &batch).unwrap();
                let got = pool.get(&batch, vr);
                for p in sel.iter() {
                    // `Value`'s equality compares doubles bit for bit.
                    let want = reference_at(&e, &batch, p);
                    assert_eq!(got.get(p), want, "{op:?} at {pct} %, lane {p}");
                }
            }
        }
        // Zero denominators at unselected lanes only: `/` and `%` check
        // the live lanes, dense selection or sparse.
        for pct in [5u32, 95] {
            let sel: SelVec = (0..n as u32).filter(|&p| p * 37 % 100 < pct).collect();
            let live: Vec<bool> = (0..n).map(|p| sel.as_slice().contains(&(p as u32))).collect();
            let y: Vec<f64> = (0..n).map(|p| if live[p] { 2.0 } else { 0.0 }).collect();
            for op in [BinOp::Div, BinOp::Rem] {
                let e = PhysExpr::Arith {
                    op,
                    lhs: Box::new(col(0, TypeId::F64)),
                    rhs: Box::new(col(1, TypeId::F64)),
                    ty: TypeId::F64,
                };
                let mut batch = Batch::new(vec![
                    Vector::new(ColData::F64(vec![7.0; n])),
                    Vector::new(ColData::F64(y.clone())),
                ]);
                batch.sel = Some(sel.clone());
                let mut pool = VectorPool::new();
                let vr = ExprProgram::compile(&e).run(&mut pool, &batch).unwrap();
                let want = if op == BinOp::Div { 3.5 } else { 1.0 };
                assert!(sel.iter().all(|p| pool.get(&batch, vr).data.as_f64()[p] == want));
            }
        }
    }

    #[test]
    fn bare_column_program_copies_nothing() {
        let p = ExprProgram::compile(&col(0, TypeId::I64));
        assert_eq!(p.len(), 0);
        let batch = batch_i64(vec![1, 2]);
        let mut pool = VectorPool::new();
        let vr = p.run(&mut pool, &batch).unwrap();
        assert_eq!(vr, VecRef::Col(0));
        assert_eq!(pool.slots.len(), 0, "no arena slot for a bare column");
    }

    #[test]
    fn select_program_conjunction_chains_and_matches_the_reference() {
        // 5 <= x AND x < 10 AND (x % 2) = 1 — two typed steps + one
        // boolean program, all under chained narrowing.
        let e = PhysExpr::And(vec![
            PhysExpr::Cmp {
                op: CmpOp::Ge,
                lhs: Box::new(col(0, TypeId::I64)),
                rhs: Box::new(lit(5)),
            },
            PhysExpr::Cmp {
                op: CmpOp::Lt,
                lhs: Box::new(col(0, TypeId::I64)),
                rhs: Box::new(lit(10)),
            },
            PhysExpr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(arith(BinOp::Rem, col(0, TypeId::I64), lit(2))),
                rhs: Box::new(lit(1)),
            },
        ]);
        let mut sp = SelectProgram::compile(&e);
        let batch = batch_i64((0..32).collect());
        let mut pool = VectorPool::new();
        let got = sp.run(&mut pool, &batch).unwrap();
        assert_eq!(got, reference_selection(&e, &batch));
        assert_eq!(got.as_slice(), &[5, 7, 9]);
    }

    #[test]
    fn large_bigint_comparisons_are_exact_everywhere() {
        // 2^53 vs 2^53+1 are equal after f64 widening; BIGINT comparison
        // must stay exact and agree between the compiled typed kernel, the
        // per-tuple reference's sql_cmp, and constant folding.
        let a = 1i64 << 53;
        let b = a + 1;
        let e = PhysExpr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(col(1, TypeId::I64)),
        };
        let batch = Batch::new(vec![
            Vector::new(ColData::I64(vec![a])),
            Vector::new(ColData::I64(vec![b])),
        ]);
        let p = ExprProgram::compile(&e);
        let mut pool = VectorPool::new();
        assert_eq!(run_values(&p, &mut pool, &batch), vec![Value::Bool(false)]);
        assert_eq!(reference_at(&e, &batch, 0), Value::Bool(false));
        // Folded constant form of the same comparison agrees.
        let folded = PhysExpr::Cmp { op: CmpOp::Eq, lhs: Box::new(lit(a)), rhs: Box::new(lit(b)) };
        let fp = ExprProgram::compile(&folded);
        assert_eq!(run_values(&fp, &mut pool, &batch), vec![Value::Bool(false)]);
    }

    #[test]
    fn select_program_disjunction_unions_sorted() {
        let lt3 = PhysExpr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(lit(3)),
        };
        let ge9 = PhysExpr::Cmp {
            op: CmpOp::Ge,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(lit(9)),
        };
        let e = PhysExpr::Or(vec![lt3, ge9]);
        let mut sp = SelectProgram::compile(&e);
        let batch = batch_i64((0..12).collect());
        let mut pool = VectorPool::new();
        let got = sp.run(&mut pool, &batch).unwrap();
        assert_eq!(got.as_slice(), &[0, 1, 2, 9, 10, 11]);
    }

    #[test]
    fn select_program_respects_incoming_selection() {
        let e = PhysExpr::Cmp {
            op: CmpOp::Gt,
            lhs: Box::new(col(0, TypeId::I64)),
            rhs: Box::new(lit(0)),
        };
        let mut sp = SelectProgram::compile(&e);
        let mut batch = batch_i64((0..10).collect());
        batch.sel = Some(SelVec::from_positions(vec![0, 1, 2]));
        let mut pool = VectorPool::new();
        let got = sp.run(&mut pool, &batch).unwrap();
        assert_eq!(got.as_slice(), &[1, 2], "rows outside sel must not leak in");
    }

    #[test]
    fn dict_bitmap_follows_the_dictionary_across_a_pack_seam() {
        // Two vectors over one dictionary, then one over another whose
        // codes mean different strings: the memoised qualifying-code
        // bitmap must be reused for the first pair and rebuilt at the seam
        // — for the compare and the LIKE node alike, NULLs never selected.
        // A pack arena with repeats and more entries than the batch has
        // lanes is tested lane by lane instead.
        let d1 = Arc::new(StrArena::from_strs(["apple", "fig", "pear"], true));
        let d2 = Arc::new(StrArena::from_strs(["fig", "kiwi", "apple"], true));
        let rows = ["pear", "fig", "kiwi", "fig", "apple", "pear", "zz", "fig"];
        let d3 = Arc::new(StrArena::from_strs(rows, false));
        let vecs = [
            Vector::from_dict(vec![0, 1, 2, 1], d1.clone(), None),
            Vector::from_dict(vec![2, 2, 0, 1], d1, Some(vec![false, true, false, false])),
            Vector::from_dict(vec![0, 1, 2, 1], d2, None),
            Vector::from_dict(vec![7, 0, 3, 5], d3.clone(), Some(vec![false, false, true, false])),
            Vector::from_dict(vec![4, 1, 6, 2], d3, None),
        ];
        let preds = [
            PhysExpr::Cmp {
                op: CmpOp::Ge,
                lhs: Box::new(col(0, TypeId::Str)),
                rhs: Box::new(PhysExpr::Const(Value::Str("fig".into()), TypeId::Str)),
            },
            PhysExpr::Like {
                input: Box::new(col(0, TypeId::Str)),
                pattern: "%p%".into(),
                negated: true,
            },
        ];
        for e in &preds {
            let mut sp = SelectProgram::compile(e);
            let mut pool = VectorPool::new();
            for v in &vecs {
                let batch = Batch::new(vec![v.clone()]);
                let mut flat = batch.clone();
                flat.columns[0].ensure_flat();
                let got = sp.run(&mut pool, &batch).unwrap();
                assert_eq!(got, reference_selection(e, &flat), "{e:?} over {v:?}");
            }
        }
    }

    #[test]
    fn double_compare_keeps_the_total_order() {
        // -0.0 < 0.0 and NaN above everything, as `Instr::Cmp` and the
        // reference order doubles — for every operator, dense and under
        // a selection, with and without NULLs.
        let vals =
            vec![-1.5, -0.0, 0.0, 2.25, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN];
        let nulls: Vec<bool> = (0..vals.len()).map(|i| i == 3).collect();
        for k in [0.0, -0.0, 2.25, f64::NAN] {
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                let e = PhysExpr::Cmp {
                    op,
                    lhs: Box::new(col(0, TypeId::F64)),
                    rhs: Box::new(PhysExpr::Const(Value::F64(k), TypeId::F64)),
                };
                let mut sp = SelectProgram::compile(&e);
                let mut pool = VectorPool::new();
                for with_nulls in [false, true] {
                    let v = Vector::with_nulls(
                        ColData::F64(vals.clone()),
                        with_nulls.then(|| nulls.clone()),
                    );
                    let mut batch = Batch::new(vec![v]);
                    for sel in [None, Some(SelVec::from_positions(vec![1, 2, 3, 4, 7]))] {
                        batch.sel = sel;
                        let got = sp.run(&mut pool, &batch).unwrap();
                        assert_eq!(got, reference_selection(&e, &batch), "{op:?} {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn constant_predicates_fold_to_keep_all_or_drop_all() {
        let mut t = SelectProgram::compile(&PhysExpr::bool_const(true));
        let mut f = SelectProgram::compile(&PhysExpr::bool_const(false));
        // 1 < 2 folds to TRUE as well.
        let mut folded = SelectProgram::compile(&PhysExpr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(lit(1)),
            rhs: Box::new(lit(2)),
        });
        let batch = batch_i64(vec![1, 2, 3]);
        let mut pool = VectorPool::new();
        assert_eq!(t.run(&mut pool, &batch).unwrap().len(), 3);
        assert_eq!(f.run(&mut pool, &batch).unwrap().len(), 0);
        assert_eq!(folded.run(&mut pool, &batch).unwrap().len(), 3);
        assert!(folded.is_empty(), "folded predicate needs no boolean program");
        // A constant NULL is never TRUE: NULL < 2 drops every row.
        let null = PhysExpr::Const(Value::Null, TypeId::I64);
        let mut unknown = SelectProgram::compile(&PhysExpr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(null),
            rhs: Box::new(lit(2)),
        });
        assert!(unknown.is_empty());
        assert_eq!(unknown.run(&mut pool, &batch).unwrap().len(), 0);
        // An erroring constant predicate keeps its boolean program and
        // raises at run time.
        let mut bad = SelectProgram::compile(&PhysExpr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(arith(BinOp::Div, lit(1), lit(0))),
            rhs: Box::new(lit(1)),
        });
        assert!(!bad.is_empty());
        assert!(matches!(bad.run(&mut pool, &batch), Err(VwError::DivideByZero)));
    }

    #[test]
    fn case_and_like_and_funcs_match_the_reference() {
        let strs = Vector::new(ColData::Str(vec![
            "  promo HOT  ".into(),
            "plain".into(),
            "promo x".into(),
        ]));
        let batch = Batch::new(vec![strs]);
        let exprs = [
            PhysExpr::FuncCall {
                func: Func::Upper,
                args: vec![col(0, TypeId::Str)],
                ty: TypeId::Str,
            },
            PhysExpr::FuncCall {
                func: Func::Length,
                args: vec![PhysExpr::FuncCall {
                    func: Func::Trim,
                    args: vec![col(0, TypeId::Str)],
                    ty: TypeId::Str,
                }],
                ty: TypeId::I64,
            },
            PhysExpr::Like {
                input: Box::new(col(0, TypeId::Str)),
                pattern: "%promo%".into(),
                negated: false,
            },
            PhysExpr::Case {
                branches: vec![(
                    PhysExpr::Like {
                        input: Box::new(col(0, TypeId::Str)),
                        pattern: "%promo%".into(),
                        negated: false,
                    },
                    PhysExpr::Const(Value::Str("yes".into()), TypeId::Str),
                )],
                else_expr: Some(Box::new(PhysExpr::Const(Value::Str("no".into()), TypeId::Str))),
                ty: TypeId::Str,
            },
        ];
        for e in &exprs {
            let p = ExprProgram::compile(e);
            let mut pool = VectorPool::new();
            let got = run_values(&p, &mut pool, &batch);
            for (i, g) in got.iter().enumerate() {
                assert_eq!(g, &reference_at(e, &batch, i), "{e:?} lane {i}");
            }
        }
    }

    #[test]
    fn string_helpers_write_what_the_std_methods_return() {
        let words = ["", "abc", "ÀÉÎ straße", "ΟΔΟΣ ΣΑΣ σ", "İstanbul", "日本語🦀", "ǅ ﬁ"];
        for w in words {
            let (mut up, mut low) = (String::new(), String::new());
            upper_into(w, &mut up);
            lower_into(w, &mut low);
            assert_eq!((up, low), (w.to_uppercase(), w.to_lowercase()), "{w}");
            for start in 0..6 {
                for take in [0, 1, 3, usize::MAX] {
                    let want: String = w.chars().skip(start).take(take).collect();
                    assert_eq!(substr(w, start, take), want, "{w} {start} {take}");
                }
            }
            for (from, to) in [("a", "XY"), ("", "z"), ("Σ", ""), ("ΣΑ", "ΣΑΣΑ"), ("🦀", "c")]
            {
                let mut got = String::new();
                replace_into(w, from, to, &mut got);
                let want = if from.is_empty() { w.to_string() } else { w.replace(from, to) };
                assert_eq!(got, want, "{w} {from} {to}");
            }
        }
    }

    /// Over a coded column — an arena with fewer entries than the batch has
    /// live lanes (LIKE runs once per entry) and one with more (once per
    /// lane, through the codes) — with NULLs and a selection, every string
    /// kernel answers as the reference over the flat column does.
    #[test]
    fn string_kernels_on_coded_lanes_match_the_reference() {
        let s = || col(0, TypeId::Str);
        let k = |v: &str| PhysExpr::Const(Value::Str(v.into()), TypeId::Str);
        let f = |func, args: Vec<PhysExpr>, ty| PhysExpr::FuncCall { func, args, ty };
        let like =
            |p: &str, negated| PhysExpr::Like { input: Box::new(s()), pattern: p.into(), negated };
        let exprs = [
            f(Func::Upper, vec![s()], TypeId::Str),
            f(Func::Lower, vec![s()], TypeId::Str),
            f(Func::Trim, vec![s()], TypeId::Str),
            f(Func::Length, vec![s()], TypeId::I64),
            f(Func::Substr, vec![s(), lit(2), lit(3)], TypeId::Str),
            f(Func::Substr, vec![s(), col(1, TypeId::I64)], TypeId::Str),
            f(Func::Concat, vec![s(), k("é")], TypeId::Str),
            f(Func::Concat, vec![k("<"), s()], TypeId::Str),
            f(Func::Replace, vec![s(), k("a"), k("ΣΣ")], TypeId::Str),
            like("%a%b_", false),
            like("_é%", true),
            PhysExpr::Cmp { op: CmpOp::Lt, lhs: Box::new(s()), rhs: Box::new(k("b")) },
            PhysExpr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(f(Func::Upper, vec![s()], TypeId::Str)),
                rhs: Box::new(s()),
            },
            PhysExpr::Case {
                branches: vec![(like("%a%", false), f(Func::Upper, vec![s()], TypeId::Str))],
                else_expr: Some(Box::new(s())),
                ty: TypeId::Str,
            },
            PhysExpr::Cast { input: Box::new(col(1, TypeId::I64)), to: TypeId::Str },
            PhysExpr::Cast {
                input: Box::new(f(Func::Length, vec![s()], TypeId::I64)),
                to: TypeId::Str,
            },
        ];
        let words = ["", " a ", "ab", "éa b", "bab", "ΣΑΣ", "日🦀a", "a_b"];
        let n = 64;
        let codes: Vec<u32> = (0..n as u32).map(|i| (i * 5 + i / 7) % 8).collect();
        let nulls: Vec<bool> = (0..n).map(|i| i % 9 == 4).collect();
        let starts = Vector::new(ColData::I64((0..n as i64).map(|i| 1 + i % 4).collect()));
        // 8 distinct entries (LIKE per entry), and 80 with repeats.
        let small = Arc::new(StrArena::from_strs(words, true));
        let wide: Vec<&str> = (0..80).map(|i| words[i % 8]).collect();
        let wide = Arc::new(StrArena::from_strs(wide, false));
        for arena in [small, wide] {
            let coded = Vector::from_dict(codes.clone(), arena, Some(nulls.clone()));
            let mut flat = coded.clone();
            flat.ensure_flat();
            for sel in [None, Some(SelVec::from_positions((0..n as u32).step_by(3).collect()))] {
                let mut batch = Batch::new(vec![coded.clone(), starts.clone()]);
                let mut reference = Batch::new(vec![flat.clone(), starts.clone()]);
                batch.sel = sel.clone();
                reference.sel = sel.clone();
                for e in &exprs {
                    let p = ExprProgram::compile(e);
                    let mut pool = VectorPool::new();
                    let got = run_values(&p, &mut pool, &batch);
                    for i in reference.live() {
                        assert_eq!(got[i], reference_at(e, &reference, i), "{e:?} lane {i}");
                    }
                }
            }
        }
    }
}
