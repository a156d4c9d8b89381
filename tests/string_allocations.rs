//! Strings leave the scan coded: a scanned VARCHAR value costs no
//! allocation of its own until someone reads it. A counting allocator,
//! switched on for the current thread only, holds it — for a raw string
//! column scanned end to end, and for a point lookup that projects two.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use vectorwise::common::{ColData, Field, Schema, TypeId, Value};
use vectorwise::core::{bulk_load, Database};
use vectorwise::exec::op::VectorScan;
use vectorwise::exec::{CancelToken, Operator};
use vectorwise::storage::{BufferPool, SimulatedDisk, TableStorage};

struct Counting;

thread_local! {
    /// Allocations on this thread while counting is on (`Some`).
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    (COUNT.with(|c| c.replace(None)).unwrap(), out)
}

#[test]
fn scanning_a_raw_string_column_allocates_per_pack_and_batch_not_per_row() {
    const ROWS: usize = 100_000;
    const PACK: usize = 16 * 1024;
    const VECTOR: usize = 1024;
    let schema = Schema::new(vec![Field::not_null("s", TypeId::Str)]).unwrap();
    // Every value distinct and long: past the PDICT ratio, stored raw.
    let column = ColData::Str((0..ROWS).map(|i| format!("{i:09}#comment-{}", i % 13)).collect());
    let mut table = TableStorage::new(BufferPool::new(SimulatedDisk::instant(), 64 << 20), schema);
    table.append_columns(&[column], &[None], PACK).unwrap();
    let table = Arc::new(table);

    let scan_all = || {
        let items = VectorScan::stable_items(ROWS as u64);
        let mut scan = VectorScan::new(table.clone(), vec![0], items, VECTOR, CancelToken::new());
        let (mut rows, mut last) = (0, None);
        while let Some(b) = scan.next().unwrap() {
            let (_, arena) = b.columns[0].dict_parts().expect("strings leave the scan coded");
            assert!(!arena.distinct(), "a raw block's arena holds its rows");
            rows += b.rows();
            last = Some(b);
        }
        (rows, last.unwrap())
    };
    let (allocs, (rows, last)) = allocations(scan_all);
    assert_eq!(rows, ROWS);
    assert_eq!(last.row_values(last.rows() - 1), vec![Value::Str("000099999#comment-3".into())]);
    let (packs, batches) = (ROWS.div_ceil(PACK) as u64, ROWS.div_ceil(VECTOR) as u64);
    assert!(
        allocs <= 8 * (packs + batches),
        "scanning {ROWS} rows in {packs} packs and {batches} batches allocated {allocs} times"
    );
}

#[test]
fn a_point_lookup_allocates_only_the_strings_it_returns() {
    const ROWS: usize = 1_500;
    let db = Database::open_in_memory();
    db.execute("SET dop = 1").unwrap();
    db.execute(
        "CREATE TABLE customer (c_custkey BIGINT NOT NULL, c_name VARCHAR NOT NULL, \
         c_acctbal DOUBLE NOT NULL, c_phone VARCHAR NOT NULL)",
    )
    .unwrap();
    let columns = [
        ColData::I64((1..=ROWS as i64).collect()),
        ColData::Str((1..=ROWS).map(|i| format!("Customer#{i:09}")).collect()),
        ColData::F64((0..ROWS).map(|i| i as f64 * 0.5).collect()),
        ColData::Str(
            (0..ROWS).map(|i| format!("{:02}-{:03}-{:04}", 10 + i % 25, i % 997, i)).collect(),
        ),
    ];
    assert_eq!(bulk_load(&db, "customer", &columns, &[None, None, None, None]).unwrap(), 1_500);

    // Statement by statement, the same plan but for the projection: what
    // the two strings cost is the difference.
    let lookup = |items: &str| {
        let sql = format!("SELECT {items} FROM customer WHERE c_custkey = 700");
        let run = || {
            let r = db.execute(&sql).unwrap();
            assert_eq!(r.rows().len(), 1);
            r.rows()[0].clone()
        };
        run(); // warm: first-use allocations are not the statement's
        (0..5).map(|_| allocations(run)).min_by_key(|(n, _)| *n).unwrap()
    };
    let (with_strings, row) = lookup("c_name, c_acctbal, c_phone");
    assert_eq!(
        row,
        vec![
            Value::Str("Customer#000000700".into()),
            Value::F64(349.5),
            Value::Str("34-699-0699".into())
        ]
    );
    let (without, _) = lookup("c_custkey, c_acctbal, c_custkey");
    assert!(
        with_strings <= without + 64,
        "projecting two strings of a {ROWS}-row pack took {with_strings} allocations, \
         {without} without them"
    );
}
