//! A statement pays for the deltas it reads, not for the PDT's size: the
//! scan claims its rows from the pinned treap by position, so a point
//! lookup or a point UPDATE whose zone maps rule out the packs holding
//! the deltas allocates the same bytes at 10² and at 10⁴ live deltas. And
//! an INSERT or an UPDATE pays per vector of rows, not per row: each batch
//! an INSERT inserts is one run of typed columns, and the rows an UPDATE
//! writes are one typed block its overlaid stable runs share. A counting
//! allocator, switched on for the current thread only, holds all three.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use vectorwise::common::{ColData, Value};
use vectorwise::core::catalog::TableKind;
use vectorwise::core::{bulk_load, Database};
use vectorwise::pdt::treap::{for_each_piece, Piece};

struct Counting;

thread_local! {
    /// Bytes allocated and allocations made on this thread while counting
    /// is on (`Some`).
    static COUNTS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTS.try_with(|c| c.set(c.get().map(|(b, n)| (b + bytes as u64, n + 1))));
}

/// `(bytes, allocations)` of `f` on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    COUNTS.with(|c| c.set(Some((0, 0))));
    let out = f();
    (out, COUNTS.with(|c| c.replace(None)).unwrap())
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The fewest bytes `sql` allocates on this thread over five warm runs.
fn statement_bytes(db: &Arc<Database>, sql: &str) -> u64 {
    let run = || {
        let (r, (bytes, _)) = counted(|| db.execute(sql).unwrap());
        assert_eq!(r.affected.max(r.num_rows() as u64), 1, "{sql} touches one row");
        bytes
    };
    run(); // warm: first-use allocations are not the statement's
    (0..5).map(|_| run()).min().unwrap()
}

/// `t(k, v)` of 100 000 rows in seven packs with `deltas` live deltas —
/// modified and deleted rows — all in packs other than `k = 50 000`'s.
fn table_with_deltas(deltas: i64) -> Arc<Database> {
    const ROWS: i64 = 100_000;
    let db = Database::open_in_memory();
    db.execute("SET dop = 1").unwrap();
    db.execute("SET mem_budget = 0").unwrap();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT NOT NULL)").unwrap();
    let columns =
        [ColData::I64((0..ROWS).collect()), ColData::I64((0..ROWS).map(|k| k % 7).collect())];
    bulk_load(&db, "t", &columns, &[None, None]).unwrap();
    let stride = 30_000 / (deltas / 2);
    let updated = db
        .execute(&format!("UPDATE t SET v = v + 1 WHERE k >= 70000 AND k % {stride} = 0"))
        .unwrap();
    let deleted =
        db.execute(&format!("DELETE FROM t WHERE k < 30000 AND k % {stride} = 1")).unwrap();
    assert_eq!(updated.affected + deleted.affected, deltas as u64);
    db
}

#[test]
fn a_point_lookup_and_a_point_update_do_not_pay_for_the_pdt_size() {
    let (few, many) = (table_with_deltas(100), table_with_deltas(10_000));
    let lookup = "SELECT v FROM t WHERE k = 50000";
    assert_eq!(few.execute(lookup).unwrap().rows(), &[vec![Value::I64(50_000 % 7)]]);
    assert_eq!(few.execute(lookup).unwrap().rows(), many.execute(lookup).unwrap().rows());
    let update = "UPDATE t SET v = v + 1 WHERE k = 50001";
    for sql in [lookup, update] {
        let (small, large) = (statement_bytes(&few, sql), statement_bytes(&many, sql));
        assert!(
            large <= small + 4_096,
            "`{sql}` allocated {small} B at 100 live deltas, {large} B at 10 000"
        );
    }
}

/// INSERT … SELECT of `n` rows into an empty table of three fixed-width
/// columns adds one insert run per vector the plan produced — at most
/// ⌈n / vector_size⌉ + 1 pieces, counted over the published image — and
/// its allocation count grows with the vectors, not the rows.
#[test]
fn an_insert_select_pays_per_vector_not_per_row() {
    let db = Database::open_in_memory();
    db.execute("SET dop = 1").unwrap();
    db.execute("SET mem_budget = 0").unwrap();
    let vector_size = db.config().vector_size as u64;
    let ddl = "(k BIGINT NOT NULL, v BIGINT NOT NULL, d DOUBLE NOT NULL)";
    let mut per_size = Vec::new();
    for n in [10_000i64, 100_000] {
        db.execute(&format!("CREATE TABLE src{n} {ddl}")).unwrap();
        db.execute(&format!("CREATE TABLE dst{n} {ddl}")).unwrap();
        let columns = [
            ColData::I64((0..n).collect()),
            ColData::I64((0..n).map(|k| k % 7).collect()),
            ColData::F64((0..n).map(|k| k as f64).collect()),
        ];
        bulk_load(&db, &format!("src{n}"), &columns, &[None, None, None]).unwrap();
        let insert = format!("INSERT INTO dst{n} SELECT * FROM src{n}");
        let (r, (_, allocations)) = counted(|| db.execute(&insert).unwrap());
        assert_eq!(r.affected, n as u64);
        let image = db.image().get(&format!("dst{n}")).unwrap();
        let TableKind::Vectorwise { root, .. } = &image.kind else { unreachable!() };
        let mut runs = 0u64;
        for_each_piece(root, &mut |p| runs += matches!(p, Piece::Insert { .. }) as u64);
        let vectors = (n as u64).div_ceil(vector_size);
        assert!(runs <= vectors + 1, "{n} rows in {runs} insert pieces, {vectors} vectors");
        per_size.push((vectors, allocations));
    }
    let [(v0, a0), (v1, a1)] = per_size[..] else { unreachable!() };
    let per_vector = (a1 - a0.min(a1)) / (v1 - v0);
    assert!(per_vector <= 40, "{a0} allocations at {v0} vectors, {a1} at {v1}");
}

/// `UPDATE t SET v = v + 1` over every row of a bulk-loaded table of
/// three fixed-width columns writes one typed block: the stable rows it
/// overlays stay runs — at most ⌈n / vector_size⌉ + 1 pieces, counted over
/// the published image — and its allocation count grows with the vectors,
/// not the rows.
#[test]
fn an_update_pays_per_vector_not_per_row() {
    let db = Database::open_in_memory();
    db.execute("SET dop = 1").unwrap();
    db.execute("SET mem_budget = 0").unwrap();
    let vector_size = db.config().vector_size as u64;
    let mut per_size = Vec::new();
    for n in [10_000i64, 100_000] {
        db.execute(&format!("CREATE TABLE t{n} (k BIGINT NOT NULL, v BIGINT NOT NULL, d DOUBLE)"))
            .unwrap();
        let columns = [
            ColData::I64((0..n).collect()),
            ColData::I64((0..n).map(|k| k % 7).collect()),
            ColData::F64((0..n).map(|k| k as f64).collect()),
        ];
        bulk_load(&db, &format!("t{n}"), &columns, &[None, None, None]).unwrap();
        let update = format!("UPDATE t{n} SET v = v + 1");
        let (r, (_, allocations)) = counted(|| db.execute(&update).unwrap());
        assert_eq!(r.affected, n as u64);
        let image = db.image().get(&format!("t{n}")).unwrap();
        let TableKind::Vectorwise { root, .. } = &image.kind else { unreachable!() };
        let mut pieces = 0u64;
        for_each_piece(root, &mut |_| pieces += 1);
        let vectors = (n as u64).div_ceil(vector_size);
        assert!(pieces <= vectors + 1, "{n} rows in {pieces} pieces, {vectors} vectors");
        let sum = format!("SELECT SUM(v) FROM t{n}");
        let want = (0..n).map(|k| k % 7 + 1).sum::<i64>();
        assert_eq!(db.execute(&sum).unwrap().rows(), &[vec![Value::I64(want)]]);
        per_size.push((vectors, allocations));
    }
    let [(v0, a0), (v1, a1)] = per_size[..] else { unreachable!() };
    let per_vector = (a1 - a0.min(a1)) / (v1 - v0);
    assert!(per_vector <= 40, "{a0} allocations at {v0} vectors, {a1} at {v1}");
}
