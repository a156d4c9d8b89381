//! A statement pays for the deltas it reads, not for the PDT's size: the
//! scan claims its rows from the pinned treap by position, so a point
//! lookup or a point UPDATE whose zone maps rule out the packs holding
//! the deltas allocates the same bytes at 10² and at 10⁴ live deltas. A
//! counting allocator, switched on for the current thread only, holds it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use vectorwise::common::{ColData, Value};
use vectorwise::core::{bulk_load, Database};

struct Counting;

thread_local! {
    /// Bytes allocated on this thread while counting is on (`Some`).
    static BYTES: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = BYTES.try_with(|c| c.set(c.get().map(|n| n + bytes as u64)));
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
        BYTES.with(|c| c.set(Some(0)));
        let r = db.execute(sql).unwrap();
        let n = BYTES.with(|c| c.replace(None)).unwrap();
        assert_eq!(r.affected.max(r.num_rows() as u64), 1, "{sql} touches one row");
        n
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
